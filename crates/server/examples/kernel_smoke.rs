//! Multi-process kernel-negotiation smoke: a worker pinned to one
//! kernel build refuses a peer `Hello`ing with the other, with the
//! typed `ERR_KERNEL` answer — and a coordinator over such a worker
//! degrades to typed errors instead of hanging.
//!
//! Drives real `dp-server` *processes* (path to the binary as the
//! first argument):
//!
//! 1. a worker preloaded via `--spec` with the `v2-simd` kernel
//!    refuses a direct `v1-scalar` `Hello` with `ERR_KERNEL` naming
//!    both kernels, then accepts the matching `v2-simd` spec;
//! 2. a coordinator pooled over that worker accepts a `v1-scalar`
//!    client locally, but the `Hello` relay is refused by the worker,
//!    poisoning its slot — the subsequent sharded query answers the
//!    typed `ERR_WORKER` within the read timeout, never a hang.
//!
//! ```text
//! cargo build --release -p dp-server
//! cargo run --release -p dp-server --example kernel_smoke -- \
//!     ./target/release/dp-server
//! ```

use dp_core::config::SketchConfig;
use dp_core::protocol::{ERR_KERNEL, ERR_WORKER};
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_core::{wire, KernelId};
use dp_hashing::Seed;
use dp_server::{Client, ClientError, Endpoint};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn scratch_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-kernel-{tag}-{}.{ext}", std::process::id()))
}

fn connect_retry(endpoint: &Endpoint, what: &str) -> Client {
    for attempt in 0..60 {
        match Client::connect(endpoint) {
            Ok(client) => return client,
            Err(e) if attempt == 59 => panic!("connect to {what}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    unreachable!()
}

fn main() {
    let bin = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "./target/release/dp-server".to_string());

    let sock_worker = scratch_path("worker", "sock");
    let sock_coord = scratch_path("coord", "sock");
    let spec_file = scratch_path("spec", "json");
    for s in [&sock_worker, &sock_coord, &spec_file] {
        let _ = std::fs::remove_file(s);
    }

    let d = 128;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    // Pin both kernels explicitly: `SketcherSpec::new` defaults its
    // kernel from `DP_KERNEL`, and this smoke must mean the same thing
    // in every CI matrix lane.
    let spec_v1 = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(1717))
        .with_kernel(KernelId::V1Scalar);
    let spec_v2 = spec_v1.clone().with_kernel(KernelId::V2Simd);
    std::fs::write(&spec_file, spec_v2.to_json()).expect("write spec file");

    // Phase 0: a worker preloaded with the v2-simd spec, on two event
    // loops shared by the coordinator's pooled connection and this
    // harness's direct probes.
    let mut worker = Command::new(&bin)
        .args(["--listen", &format!("unix:{}", sock_worker.display())])
        .args(["--spec", &spec_file.display().to_string()])
        .args(["--workers", "2"])
        .spawn()
        .expect("spawn worker dp-server");

    // Phase 1: a direct v1-scalar Hello is refused with the dedicated
    // code, and the refusal names both kernels — enough for the peer
    // to re-Hello with the served kernel, which must then succeed.
    let worker_endpoint = Endpoint::Unix(sock_worker.clone());
    let mut probe = connect_retry(&worker_endpoint, "worker");
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    match probe.hello(&spec_v1) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ERR_KERNEL, "wrong error code: {message}");
            assert!(
                message.contains("v2-simd"),
                "served kernel unnamed: {message}"
            );
            assert!(
                message.contains("v1-scalar"),
                "proposed kernel unnamed: {message}"
            );
        }
        other => panic!("expected ERR_KERNEL, got {other:?}"),
    }
    let (_, rows, _) = probe.hello(&spec_v2).expect("matching-kernel hello");
    assert_eq!(rows, 0, "worker store not fresh");
    println!("kernel_smoke: direct mismatched hello refused with ERR_KERNEL");

    // Phase 1.5: the batch sketch path is the wire path. In both
    // kernel lanes the batch sketches must encode to the same bytes as
    // the historic per-row path, and the v2 batch is then bulk-ingested
    // into the worker *process* — a fresh hello must see every row.
    let rows_data: Vec<Vec<f64>> = (0..6)
        .map(|i| (0..d).map(|j| ((2 * i + j) % 7) as f64 - 3.0).collect())
        .collect();
    for (spec, lane) in [(&spec_v1, "v1-scalar"), (&spec_v2, "v2-simd")] {
        let sk = spec.build().expect("sketcher");
        let batch = sk.sketch_batch(&rows_data, Seed::new(5)).expect("batch");
        for (i, sketch) in batch.iter().enumerate() {
            let per_row = sk
                .sketch(&rows_data[i], Seed::new(5).index(i as u64))
                .expect("sketch");
            assert_eq!(
                wire::encode_sketch(sketch).expect("encode"),
                wire::encode_sketch(&per_row).expect("encode"),
                "batch/per-row sketch bytes diverged in the {lane} lane at row {i}"
            );
        }
    }
    let v2_batch = spec_v2
        .build()
        .expect("sketcher")
        .sketch_batch(&rows_data, Seed::new(5))
        .expect("batch");
    for (i, sketch) in v2_batch.into_iter().enumerate() {
        probe
            .ingest(&Release {
                party_id: i as u64,
                sketch,
            })
            .expect("batch ingest into worker");
    }
    drop(probe);
    let mut recount = connect_retry(&worker_endpoint, "worker recount");
    recount
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let (_, rows, _) = recount.hello(&spec_v2).expect("recount hello");
    assert_eq!(
        rows,
        rows_data.len() as u64,
        "batch-ingested rows not visible"
    );
    drop(recount);
    println!(
        "kernel_smoke: batch sketches byte-identical to per-row in both lanes, bulk ingest visible"
    );

    // Phase 2: a coordinator over the v2 worker, spoken to by a
    // v1-scalar client. The local Hello adopts v1; the relay to the
    // worker is refused, poisoning the only slot. The sharded query
    // must then fail *typed* — ERR_WORKER, not a hang.
    let mut coord = Command::new(&bin)
        .args(["--listen", &format!("unix:{}", sock_coord.display())])
        .args(["--worker", &format!("unix:{}", sock_worker.display())])
        .args(["--workers", "1"])
        .args(["--shard-tile", "4"])
        .args(["--worker-timeout", "2"])
        .spawn()
        .expect("spawn coordinator dp-server");

    let mut client = connect_retry(&Endpoint::Unix(sock_coord.clone()), "coordinator");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let (_, rows, _) = client.hello(&spec_v1).expect("coordinator hello");
    assert_eq!(rows, 0, "coordinator store not fresh");

    let sketcher = spec_v1.build().expect("sketcher");
    for (i, sketch) in sketcher
        .sketch_batch(&rows_data, Seed::new(5))
        .expect("batch")
        .into_iter()
        .enumerate()
    {
        let release = Release {
            party_id: i as u64,
            sketch,
        };
        client
            .ingest(&release)
            .expect("ingest past a poisoned slot");
    }

    let started = Instant::now();
    match client.pairwise(&[]) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ERR_WORKER, "wrong error code: {message}");
        }
        other => panic!("expected ERR_WORKER, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "mismatched-kernel query was not bounded: {:?}",
        started.elapsed()
    );
    println!("kernel_smoke: sharded query over the refused worker failed typed, no hang");

    client.shutdown().expect("shutdown coordinator");
    let coord_status = coord.wait().expect("coordinator exit");
    assert!(coord_status.success(), "coordinator exited uncleanly");
    let direct = connect_retry(&worker_endpoint, "worker for shutdown");
    direct.shutdown().expect("shutdown worker");
    worker.wait().expect("worker exit");
    for s in [&sock_worker, &sock_coord, &spec_file] {
        let _ = std::fs::remove_file(s);
    }
    println!("kernel_smoke: PASS");
}
