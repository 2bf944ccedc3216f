//! Multi-process sharded-pairwise smoke client.
//!
//! Connects to a running **coordinator** `dp-server` (started with
//! `--worker` endpoints, workers already up), negotiates a spec,
//! ingests a batch of releases, and asserts the coordinator's sharded
//! all-pairs answer is **bit-identical** to a local in-process
//! reference engine over the same releases. Finishes with `Shutdown`,
//! which winds down the coordinator *and* its workers.
//!
//! ```text
//! dp-server --listen unix:/tmp/w1.sock &
//! dp-server --listen unix:/tmp/w2.sock &
//! dp-server --listen unix:/tmp/coord.sock \
//!           --worker unix:/tmp/w1.sock --worker unix:/tmp/w2.sock &
//! cargo run -p dp-server --example shard_smoke -- unix:/tmp/coord.sock
//! ```

use dp_core::config::SketchConfig;
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_server::{Client, Endpoint};
use std::time::Duration;

fn main() {
    let Some(endpoint_text) = std::env::args().nth(1) else {
        eprintln!("usage: shard_smoke <coordinator endpoint, e.g. unix:/tmp/coord.sock>");
        std::process::exit(2);
    };
    let endpoint = Endpoint::parse(&endpoint_text).expect("parse endpoint");

    let d = 192;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(2026));
    let sketcher = spec.build().expect("sketcher");
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..d).map(|j| ((5 * i + j) % 11) as f64 - 5.0).collect())
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&rows, Seed::new(31))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 500 + i as u64,
            sketch,
        })
        .collect();

    // Local reference: the in-process engine over the same releases.
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &releases {
        reference.ingest(r).expect("ingest");
    }
    let local = reference.pairwise_all();

    // Drive the coordinator, retrying the connect briefly (it may still
    // be starting when launched alongside this client). A moderately
    // tight client-side timeout: the whole exchange is small, so a hang
    // is a bug, not load.
    let mut client = None;
    for attempt in 0..40 {
        match Client::connect(&endpoint) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(e) if attempt == 39 => panic!("connect to coordinator: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    let mut client = client.expect("connected");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    let (k, rows_before, tag) = client.hello(&spec).expect("hello");
    assert_eq!(rows_before, 0, "coordinator store not fresh");
    println!("shard_smoke: negotiated k = {k}, tag = {tag}");
    for r in &releases {
        client.ingest(r).expect("broadcast ingest");
    }

    let (ids, values) = client.pairwise(&[]).expect("sharded pairwise");
    assert_eq!(
        ids,
        reference.store().party_ids().collect::<Vec<_>>(),
        "party order differs"
    );
    assert_eq!(values.len(), local.as_flat().len());
    let mut identical = true;
    for (a, b) in values.iter().zip(local.as_flat()) {
        identical &= a.to_bits() == b.to_bits();
    }
    assert!(identical, "sharded matrix differs from the local reference");
    println!(
        "shard_smoke: sharded {}x{} all-pairs matrix bit-identical to the local engine",
        ids.len(),
        ids.len()
    );

    client.shutdown().expect("shutdown");
    println!("shard_smoke: PASS");
}
