//! Building and driving the real `dp-server` process.
//!
//! The server runs as a separate process with one event loop
//! (`--serve-mode evloop --workers 1`) and a `--data-dir` holding the
//! preload as `snapshot.bin`: start-up recovers it exactly as a
//! restart would. Its journal policy is the program's own — append plus
//! `flush` per accepted release, no fsync.

use dp_core::sketcher::SketcherSpec;
use dp_server::{Client, Endpoint};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment knobs that change kernels, thread counts or tiles; they
/// are removed from the benchmark's and the server's environment.
pub const SCRUBBED_ENV: [&str; 3] = ["DP_KERNEL", "DP_THREADS", "DP_TILE"];

/// Event loops the server runs (see the README's placement note).
pub const SERVER_LOOPS: usize = 1;

/// The cargo target directory builds go to: `CARGO_TARGET_DIR`
/// (relative to `root` when relative), else `root/target`.
#[must_use]
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                root.join(dir)
            }
        }
        None => root.join("target"),
    }
}

/// Build the release `dp-server` binary from the tree at `root` and
/// return its path.
///
/// # Errors
/// When `root` holds no workspace or the build fails.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/server/Cargo.toml").is_file() {
        return Err(format!(
            "{} holds no dp-server crate; run from the repository root",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dp-server",
            "--bin",
            "dp-server",
        ])
        .stdout(Stdio::null());
    for key in SCRUBBED_ENV {
        cmd.env_remove(key);
    }
    let status = cmd.status().map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dp-server failed: {status}"));
    }
    let bin = target_dir(root).join("release").join("dp-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("build succeeded but {} is missing", bin.display()))
    }
}

/// Reset `dir` to hold exactly the preload: `snapshot.bin` and no
/// journal.
///
/// # Errors
/// Filesystem failures.
pub fn reset_data_dir(dir: &Path, snapshot: &[u8]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("snapshot.bin"), snapshot)?;
    for stale in ["journal.log", "journal.tmp", "snapshot.tmp"] {
        match std::fs::remove_file(dir.join(stale)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// A running server process; killed and reaped on drop unless stopped.
pub struct Running {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub endpoint: Endpoint,
    /// A connection that has completed `Hello` (taken by `stop`).
    client: Option<Client>,
    /// From spawn until the first `Hello` was answered.
    pub setup: Duration,
    /// The data directory it recovered from.
    pub data_dir: PathBuf,
}

impl Running {
    /// Spawn `bin` on a fresh copy of the preload in `data_dir`, wait
    /// for it to listen, and complete one `Hello`; `setup` spans spawn
    /// to the `Hello` answer. The `Hello` must report `preload` rows.
    ///
    /// # Errors
    /// Spawn, start-up or `Hello` failures.
    pub fn start(
        bin: &Path,
        data_dir: &Path,
        snapshot: &[u8],
        spec: &SketcherSpec,
        preload: usize,
    ) -> Result<Self, String> {
        reset_data_dir(data_dir, snapshot).map_err(|e| format!("data dir: {e}"))?;
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "tcp:127.0.0.1:0", "--serve-mode", "evloop"])
            .args(["--workers", &SERVER_LOOPS.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        for key in SCRUBBED_ENV {
            cmd.env_remove(key);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn dp-server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the guard reaps the child on every error path.
        let mut guard = Guard(Some(child));
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let endpoint = loop {
            line.clear();
            let read = stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading dp-server output: {e}"))?;
            if read == 0 {
                return Err("dp-server exited before listening".to_string());
            }
            if let Some(endpoint) = listening_endpoint(&line) {
                break endpoint;
            }
        };
        let mut client =
            Client::connect(&endpoint).map_err(|e| format!("connect {endpoint}: {e}"))?;
        let (_, rows, _) = client
            .hello(spec)
            .map_err(|e| format!("hello refused: {e}"))?;
        let setup = started.elapsed();
        if rows != preload as u64 {
            return Err(format!(
                "recovered {rows} rows from the preload of {preload}"
            ));
        }
        Ok(Self {
            child: guard.0.take(),
            stdout,
            endpoint,
            client: Some(client),
            setup,
            data_dir: data_dir.to_path_buf(),
        })
    }

    /// The connection that completed `Hello`.
    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("client is taken only by stop")
    }

    /// Open another connection to the server.
    ///
    /// # Errors
    /// Connect failures.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connect {}: {e}", self.endpoint))
    }

    /// Peak resident set (`VmHWM`) of the server process, in KiB.
    ///
    /// # Errors
    /// When `/proc` cannot be read.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().map_or(0, Child::id);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Size of the server's `journal.log`.
    #[must_use]
    pub fn journal_len(&self) -> u64 {
        std::fs::metadata(self.data_dir.join("journal.log")).map_or(0, |m| m.len())
    }

    /// Send the protocol `Shutdown` and wait for a clean exit.
    ///
    /// # Errors
    /// When the server does not exit cleanly within 30 s (it is then
    /// killed on drop).
    pub fn stop(mut self) -> Result<(), String> {
        let client = self.client.take().expect("running server has a client");
        client
            .shutdown()
            .map_err(|e| format!("shutdown refused: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            let child = self.child.as_mut().expect("running server has a child");
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("dp-server did not exit after Shutdown".to_string()),
            }
        };
        self.child = None;
        // The process has exited, so its stdout is at end of file.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if status.success() && rest.contains("clean shutdown") {
            Ok(())
        } else {
            Err(format!("dp-server exited with {status}: {rest}"))
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        drop(Guard(self.child.take()));
    }
}

/// Kills and reaps a child process on drop.
struct Guard(Option<Child>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The endpoint in a `dp-server` start-up line
/// (`dp-server: coordinating 0 worker server(s) on tcp:127.0.0.1:PORT (…)`).
#[must_use]
pub fn listening_endpoint(line: &str) -> Option<Endpoint> {
    let after = line.split(" on ").nth(1)?;
    let text = after.split_whitespace().next()?;
    Endpoint::parse(text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_startup_line() {
        let line = "dp-server: coordinating 0 worker server(s) on tcp:127.0.0.1:40123 \
                    (1 evloop loop(s), shard tile 64)\n";
        assert_eq!(
            listening_endpoint(line),
            Some(Endpoint::Tcp("127.0.0.1:40123".to_string()))
        );
        assert_eq!(listening_endpoint("dp-server: recovery: fine\n"), None);
    }
}
