//! End-to-end smoke test: spawn a `dp-server` on a unix socket, drive
//! it with the blocking [`dp_server::Client`], compare every socket
//! answer against the in-process engine, and shut the server down
//! cleanly. CI runs this inside the `DP_THREADS` matrix.
//!
//! Run with: `cargo run --release -p dp-server --example client_smoke`

use dp_core::config::SketchConfig;
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_server::{Client, Endpoint, Server};

fn main() {
    let d = 256;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(99));

    // Ten parties release under the shared spec.
    let sketcher = spec.build().expect("sketcher");
    let rows: Vec<Vec<f64>> = (0..10)
        .map(|i| (0..d).map(|j| ((i + j) % 5) as f64 - 2.0).collect())
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&rows, Seed::new(1234))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();

    // The in-process reference: the very engine the server wraps.
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &releases {
        reference.ingest(r).expect("ingest");
    }

    // Serve on a unix socket in a scratch dir.
    let socket = std::env::temp_dir().join(format!("dp-smoke-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    println!("serving on {endpoint}");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(2));

        let mut client = Client::connect(&endpoint).expect("connect");
        let (k, rows_before, tag) = client.hello(&spec).expect("hello");
        assert_eq!(k as usize, sketcher.k());
        assert_eq!(rows_before, 0);
        assert_eq!(tag, sketcher.tag());
        println!("negotiated spec: k = {k}, tag = {tag}");

        for r in &releases {
            let (row, n) = client.ingest(r).expect("ingest");
            assert_eq!(row + 1, n);
        }
        println!("ingested {} releases", releases.len());

        let (ids, values) = client.pairwise(&[]).expect("pairwise");
        let local = reference.pairwise_all();
        assert_eq!(ids.len(), releases.len());
        assert_eq!(values.len(), local.as_flat().len());
        for (a, b) in values.iter().zip(local.as_flat()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "socket answer must be bit-identical"
            );
        }
        println!("pairwise over the socket is bit-identical to the in-process engine");

        let remote_knn = client.knn(0, 3).expect("knn");
        let local_knn = reference.snapshot().knn(0, 3).expect("knn");
        assert_eq!(remote_knn.len(), local_knn.len());
        for (r, l) in remote_knn.iter().zip(&local_knn) {
            assert_eq!(r.0, l.party_id);
            assert_eq!(r.1.to_bits(), l.estimated_sq_distance.to_bits());
        }
        println!("knn(0, 3) = {remote_knn:?}");

        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    let _ = std::fs::remove_file(&socket);
    println!("clean shutdown");
}
