//! The reproducibility header printed before any metric.

use std::path::Path;

/// `key: value` lines describing what was measured and where.
#[must_use]
pub fn lines(root: &Path, data_dir: &Path, seed: u64, kernel: &str) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("seed".to_string(), seed.to_string()),
        ("commit".to_string(), git_commit(root)),
        ("kernel".to_string(), kernel.to_string()),
        (
            "v2_backend".to_string(),
            dp_core::kernel::v2_backend().to_string(),
        ),
        ("cpu".to_string(), cpu),
        ("nproc".to_string(), nproc.to_string()),
        ("data_dir_fs".to_string(), filesystem_of(data_dir)),
        (
            "server".to_string(),
            format!(
                "release dp-server, --serve-mode evloop --workers {}, --data-dir preload snapshot",
                crate::server::SERVER_LOOPS
            ),
        ),
        (
            "journal".to_string(),
            "append + flush per release, no fsync (the server's own policy)".to_string(),
        ),
        (
            "env".to_string(),
            format!("removed {}", crate::server::SCRUBBED_ENV.join(", ")),
        ),
    ]
}

/// The checked-out commit, read from `.git` without running git; a
/// tree without `.git` reports `unknown`.
#[must_use]
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Filesystem type and mount point holding `path`, from `/proc/mounts`.
#[must_use]
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _device = f.next()?;
            let mount = f.next()?;
            let fstype = f.next()?;
            path.starts_with(mount)
                .then_some((mount.len(), mount, fstype))
        })
        .max_by_key(|&(len, _, _)| len)
        .map_or_else(
            || "unknown".to_string(),
            |(_, mount, fstype)| format!("{fstype} at {mount}"),
        )
}
