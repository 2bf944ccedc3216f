//! Benchmark the event-loop server under concurrent clients.
//!
//! Spins up a `dp-server` on a loopback TCP socket (two `dp-net`
//! event loops), ingests one batch of releases, then drives 1/2/4/8
//! concurrent clients issuing point queries (knn) and records
//! throughput plus p50/p99 per-request latency.
//!
//! Before any timing is trusted, one knn answer per run is verified
//! **bit-identical** to the in-process engine — the transport must
//! never touch the numbers.
//!
//! Single-host record: all clients, both serve loops, and the engine
//! share this machine's CPUs, so the numbers measure protocol +
//! scheduling overhead, not scale-out. The trajectory to watch is
//! throughput holding as clients outnumber the serve loops.
//!
//! Usage: `bench_server [--quick] [--out <path>]`

use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_server::{Client, Endpoint, Server};
use std::sync::Barrier;
use std::time::Instant;

struct Measurement {
    clients: usize,
    throughput_qps: f64,
    p50_ns: f64,
    p99_ns: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Serve on two event loops, ingest the batch, then drive `clients`
/// concurrent connections each issuing `queries` knn requests. Returns
/// the wall time of the measured phase plus every per-request latency
/// (ns).
fn run_clients(
    spec: &SketcherSpec,
    releases: &[Release],
    clients: usize,
    queries: usize,
    expected_knn: &[(u64, f64)],
) -> (f64, Vec<f64>, bool) {
    let server = Server::bind(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind");
    let endpoint = server.local_endpoint();
    let probe_party = releases[0].party_id;
    let barrier = Barrier::new(clients + 1);

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve(2));

        let mut setup = Client::connect(&endpoint).expect("connect setup");
        setup.hello(spec).expect("hello");
        for r in releases {
            setup.ingest(r).expect("ingest");
        }
        // Bit-identity gate before timing.
        let knn = setup.knn(probe_party, 4).expect("knn");
        let identical = knn.len() == expected_knn.len()
            && knn
                .iter()
                .zip(expected_knn)
                .all(|((pa, da), (pb, db))| pa == pb && da.to_bits() == db.to_bits());

        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let endpoint = endpoint.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(&endpoint).expect("connect");
                    let mut latencies = Vec::with_capacity(queries);
                    barrier.wait();
                    for _ in 0..queries {
                        let started = Instant::now();
                        std::hint::black_box(client.knn(probe_party, 4).expect("knn"));
                        latencies.push(started.elapsed().as_nanos() as f64);
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut latencies: Vec<f64> = Vec::with_capacity(clients * queries);
        for handle in workers {
            latencies.extend(handle.join().expect("client thread"));
        }
        let wall = started.elapsed().as_secs_f64();

        setup.shutdown().expect("shutdown");
        serve.join().expect("server thread");
        (wall, latencies, identical)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_server.json", String::as_str);

    let d = 128;
    let rows = 32;
    let queries = if quick { 100 } else { 400 };
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(23));
    let sketcher = spec.build().expect("sketcher");
    let k = sketcher.k();
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|r| gaussian_vec(d, Seed::new(5000 + r as u64)))
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&data, Seed::new(91))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();

    // The in-process reference answer every transport must reproduce
    // bit for bit.
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &releases {
        reference.ingest(r).expect("ingest");
    }
    let expected_knn: Vec<(u64, f64)> = reference
        .snapshot()
        .knn(releases[0].party_id, 4)
        .expect("knn")
        .into_iter()
        .map(|n| (n.party_id, n.estimated_sq_distance))
        .collect();

    println!("== bench_server: event-loop throughput under concurrent clients ==");
    println!("d = {d}, k = {k}, rows = {rows}, {queries} knn queries per client");

    let mut measurements = Vec::new();
    let mut all_identical = true;
    for clients in [1usize, 2, 4, 8] {
        let (wall, mut latencies, identical) =
            run_clients(&spec, &releases, clients, queries, &expected_knn);
        all_identical &= identical;
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let throughput = (clients * queries) as f64 / wall;
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        println!(
            "evloop  clients = {clients}  {throughput:9.0} req/s  \
             p50 {:8.1} µs  p99 {:8.1} µs  bit-identical: {identical}",
            p50 / 1e3,
            p99 / 1e3,
        );
        measurements.push(Measurement {
            clients,
            throughput_qps: throughput,
            p50_ns: p50,
            p99_ns: p99,
        });
    }

    println!(
        "CHECK [{}] every transport knn answer bit-identical to the in-process engine",
        if all_identical { "PASS" } else { "FAIL" }
    );
    println!(
        "NOTE single-host record: clients and server share one CPU budget, so req/s \
         measures protocol + scheduling overhead, not scale-out"
    );

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("server_concurrency".to_string()),
        ),
        (
            "workload".to_string(),
            JsonValue::String("knn(k=4) point queries over loopback TCP".to_string()),
        ),
        (
            "note".to_string(),
            JsonValue::String(
                "single-host record, two event loops: protocol + scheduling overhead, \
                 not scale-out"
                    .to_string(),
            ),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        ("rows".to_string(), JsonValue::UInt(rows as u64)),
        (
            "queries_per_client".to_string(),
            JsonValue::UInt(queries as u64),
        ),
        ("bit_identical".to_string(), JsonValue::Bool(all_identical)),
        (
            "measurements".to_string(),
            JsonValue::Array(
                measurements
                    .iter()
                    .map(|m| {
                        JsonValue::Object(vec![
                            ("mode".to_string(), JsonValue::String("evloop".to_string())),
                            ("clients".to_string(), JsonValue::UInt(m.clients as u64)),
                            (
                                "throughput_qps".to_string(),
                                JsonValue::Number(m.throughput_qps),
                            ),
                            ("p50_ns".to_string(), JsonValue::Number(m.p50_ns)),
                            ("p99_ns".to_string(), JsonValue::Number(m.p99_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(out_path, json.to_string()).expect("write BENCH_server.json");
    println!("wrote {out_path}");
    if !all_identical {
        std::process::exit(1);
    }
}
