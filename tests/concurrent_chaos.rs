//! Chaos suite: readers hammer the server while a writer ingests.
//!
//! The correctness contract under concurrency is *snapshot
//! consistency*: because ingest order is fixed (the writer appends
//! releases in sequence), every published engine state is a **prefix**
//! of the release list — so every answer a reader receives must be
//! bit-identical to the in-process engine's answer for *some* prefix,
//! and never a torn mix of two states. On top of that, snapshots are
//! *fresh*: once the writer has seen the ack for row `m`, any answer
//! requested afterwards must correspond to a prefix of at least `m`
//! rows.
//!
//! The scenario runs twice: with a loop per reader (plus spares), so
//! readers and the writer are served in parallel, and with fewer loops
//! than connections, so several share one loop.

use dp_euclid::core::release::Release;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{Client, Endpoint, Server};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Enough rows that the writer seals three store chunks and the party
/// index merges levels while the readers run.
const ROWS: usize = 3 * dp_euclid::engine::CHUNK_ROWS + 6;
/// Rows ingested before the readers start (the ingest prefix the
/// writer then extends row by row).
const SEEDED: usize = 2;
const READERS: usize = 3;
const ITERATIONS: usize = 40;

fn spec(d: usize) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(1359))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((7 * i + 3 * j) % 13) as f64 - 6.0)
                .collect()
        })
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(2468))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 70 + i as u64,
            sketch,
        })
        .collect()
}

/// The in-process reference answers for the `m`-row prefix.
struct PrefixReference {
    parties: Vec<u64>,
    matrix: Vec<f64>,
    knn: Vec<(u64, f64)>,
}

fn prefix_references(spec: &SketcherSpec, rs: &[Release]) -> Vec<PrefixReference> {
    let mut engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    let mut out = Vec::new();
    for m in 1..=rs.len() {
        engine.ingest(&rs[m - 1]).expect("ingest");
        out.push(PrefixReference {
            parties: engine.store().party_ids().collect(),
            matrix: engine.pairwise_all().as_flat().to_vec(),
            knn: engine
                .snapshot()
                .knn(rs[0].party_id, 3)
                .expect("knn")
                .into_iter()
                .map(|n| (n.party_id, n.estimated_sq_distance))
                .collect(),
        });
    }
    out
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn knn_bits_eq(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((pa, da), (pb, db))| pa == pb && da.to_bits() == db.to_bits())
}

fn run_chaos(loops: usize) {
    let spec = spec(48);
    let rs = releases(&spec, ROWS);
    let refs = prefix_references(&spec, &rs);

    // The pair of the two seeded rows is prefix-independent: ingesting
    // more rows must never change its bits.
    let seeded_pair = [rs[0].party_id, rs[1].party_id];
    let expected_pair: Vec<f64> = {
        let mut engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
        for r in &rs[..SEEDED] {
            engine.ingest(r).expect("ingest");
        }
        engine
            .snapshot()
            .pairwise(&seeded_pair)
            .expect("pair")
            .as_flat()
            .to_vec()
    };

    let server = Server::bind(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind");
    let endpoint = server.local_endpoint();
    // Lower bound on the published row count: bumped by the writer
    // after each ingest ack, so any answer requested after reading `m`
    // here must reflect at least `m` rows.
    let published = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve(loops));

        // Seed the store so readers always have rows to query.
        let mut writer = Client::connect(&endpoint).expect("connect writer");
        writer.hello(&spec).expect("hello");
        for r in &rs[..SEEDED] {
            writer.ingest(r).expect("seed ingest");
        }
        published.store(SEEDED, Ordering::Release);

        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let endpoint = endpoint.clone();
                let refs = &refs;
                let rs = &rs;
                let published = &published;
                let seeded_pair = &seeded_pair;
                let expected_pair = &expected_pair;
                let writer_done = &writer_done;
                scope.spawn(move || {
                    let mut client = Client::connect(&endpoint).expect("connect reader");
                    // At least ITERATIONS rounds, and on until the writer
                    // is done, so reads race every chunk seal.
                    for i in 0.. {
                        if i >= ITERATIONS && writer_done.load(Ordering::Acquire) {
                            break;
                        }
                        let lower = published.load(Ordering::Acquire);

                        let knn = client.knn(rs[0].party_id, 3).expect("knn");
                        assert!(
                            (lower..=ROWS).any(|m| knn_bits_eq(&knn, &refs[m - 1].knn)),
                            "reader {reader}: knn answer matches no prefix ≥ {lower}: {knn:?}"
                        );

                        // The seeded pair must be bitwise-stable no
                        // matter how many rows have landed since.
                        let (_, values) = client.pairwise(seeded_pair).expect("seeded pair");
                        assert!(
                            bits_eq(&values, expected_pair),
                            "reader {reader}: seeded pair drifted: {values:?}"
                        );

                        // Occasionally pull the full matrix: it must be
                        // exactly one prefix matrix, never a torn blend
                        // of two engine states.
                        if i % 5 == reader % 5 {
                            let lower = published.load(Ordering::Acquire);
                            let (parties, values) = client.pairwise(&[]).expect("full pairwise");
                            let matched = (lower..=ROWS).any(|m| {
                                parties == refs[m - 1].parties
                                    && bits_eq(&values, &refs[m - 1].matrix)
                            });
                            assert!(
                                matched,
                                "reader {reader}: full matrix ({} parties) matches \
                                 no prefix ≥ {lower}",
                                parties.len()
                            );
                        }
                    }
                })
            })
            .collect();

        // The writer keeps appending while the readers run.
        for (i, r) in rs.iter().enumerate().skip(SEEDED) {
            writer.ingest(r).expect("ingest");
            published.store(i + 1, Ordering::Release);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        writer_done.store(true, Ordering::Release);

        for reader in readers {
            reader.join().expect("reader thread");
        }
        // Late queries see the complete store.
        let (parties, values) = writer.pairwise(&[]).expect("final pairwise");
        assert_eq!(parties, refs[ROWS - 1].parties);
        assert!(bits_eq(&values, &refs[ROWS - 1].matrix));
        writer.shutdown().expect("shutdown");
        serve.join().expect("server thread");
    });
}

#[test]
fn chaos_parallel_loops_answers_are_snapshot_consistent() {
    run_chaos(READERS + 2);
}

#[test]
fn chaos_evloop_mode_answers_are_snapshot_consistent() {
    run_chaos(2);
}
