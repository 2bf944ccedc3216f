//! Tiny-size smoke run of every workload against a real `dp-server`
//! process, untraced and traced.
//!
//! The `perfbench` binary builds the server from this repository into
//! its own target directory (`CARGO_TARGET_DIR` points it there, so the
//! nested cargo never waits on the lock the outer `cargo test` holds)
//! and drives it with `--tiny`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// `<target>/smoke`, next to the profile directory holding the
/// `perfbench` binary: the server build and the run data go there.
fn smoke_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_perfbench"))
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .join("smoke")
}

/// Run one tiny workload; returns the last stdout line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", smoke_dir())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_runs_correct_untraced() {
    for workload in ["ingest_16k", "query_16k", "mixed_1k"] {
        let last = run(workload, "0");
        assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
        for metric in [
            "setup_s",
            "release_per_s",
            "release_p50_ms",
            "queries_per_s",
            "knn_p50_ms",
            "pair_p50_us",
            "read_slo_frac",
            "server_rss_mb",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\"")),
                "{workload} lacks {metric}"
            );
        }
    }
}

#[test]
fn every_workload_runs_correct_traced() {
    for workload in ["ingest_16k", "query_16k", "mixed_1k"] {
        let last = run(workload, "1");
        assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
        for metric in [
            "net.rtt_us",
            "snapshot.publish_us",
            "engine.knn_select_us",
            "server.unattributed_us.pair",
            "trace.overhead_frac",
            "tail.release_p99_ms",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\"")),
                "{workload} lacks {metric}"
            );
        }
    }
}
