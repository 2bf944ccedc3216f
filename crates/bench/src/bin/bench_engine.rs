//! Benchmark the `dp-engine` query surface against the slice-based path
//! it replaced, and record the perf trajectory.
//!
//! Three measurements per store size:
//!
//! * **pair query**: `EngineSnapshot::pair` (ingest-time validation,
//!   chunked arena, hoisted debias) versus the old per-call
//!   `NoisySketch::estimate_sq_distance` over a `&[Release]` slice
//!   (which re-checks compatibility and re-derives the debias constant
//!   on every call).
//! * **incremental all-pairs**: one new row into a warm engine versus
//!   recomputing the whole matrix the way the slice-based surface had
//!   to.
//! * **publish scaling**: one `SharedEngine::mutate(|e| e.ingest(..))`
//!   per row — store append plus snapshot publish, the server's ingest
//!   path — into stores of 1k, 16k and 64k rows (`--quick`: 256, 1k,
//!   4k). Each of 5 runs preloads a fresh engine and times
//!   `PUBLISH_ROWS` single-row mutations; the record keeps the median,
//!   min and max per-row time. The gate fails the run when the median
//!   at the largest store exceeds twice the median at the smallest:
//!   publication must not grow with the store.
//!
//! Every engine answer is verified bit-identical to the slice path
//! before timing. Writes machine-readable `BENCH_engine.json` with the
//! CPU model and `nproc`.
//!
//! Usage: `bench_engine [--quick] [--out <path>]`

use dp_bench::runner::{host, time_per_op};
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::release::Release;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher};
use dp_engine::{QueryEngine, SharedEngine, SketchStore, CHUNK_ROWS};
use dp_hashing::Seed;
use std::time::Instant;

/// Single-row mutations timed per publish-scaling run: four chunk
/// seals, so sealing and index merges are in the average.
const PUBLISH_ROWS: usize = 4 * CHUNK_ROWS;
/// Publish-scaling runs per store size.
const PUBLISH_RUNS: usize = 5;
/// The gate: per-row publish at the largest store over the smallest.
const PUBLISH_RATIO_LIMIT: f64 = 2.0;

/// Per-row `SharedEngine::mutate(|e| e.ingest(..))` time at one store
/// size, in microseconds, over [`PUBLISH_RUNS`] runs.
struct PublishScaling {
    rows: usize,
    median_us: f64,
    min_us: f64,
    max_us: f64,
}

/// Time [`PUBLISH_ROWS`] single-row mutations into a fresh engine
/// preloaded with `n` rows, per run. Releases cycle through `pool`
/// under fresh party ids (the store never compares coordinates).
fn publish_scaling(pool: &[Release], n: usize) -> PublishScaling {
    let release = |id: usize| Release {
        party_id: id as u64,
        sketch: pool[id % pool.len()].sketch.clone(),
    };
    let mut per_row: Vec<f64> = (0..PUBLISH_RUNS)
        .map(|_| {
            let shared = SharedEngine::new(QueryEngine::new(SketchStore::adopting()));
            shared.mutate(|e| {
                for id in 0..n {
                    e.ingest(&release(id)).expect("preload ingest");
                }
            });
            let fresh: Vec<Release> = (n..n + PUBLISH_ROWS).map(release).collect();
            let t0 = Instant::now();
            for r in &fresh {
                shared.mutate(|e| e.ingest(r).expect("ingest"));
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / PUBLISH_ROWS as f64;
            assert_eq!(shared.snapshot().n(), n + PUBLISH_ROWS);
            us
        })
        .collect();
    per_row.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    PublishScaling {
        rows: n,
        median_us: per_row[PUBLISH_RUNS / 2],
        min_us: per_row[0],
        max_us: per_row[PUBLISH_RUNS - 1],
    }
}

struct Measurement {
    rows: usize,
    ns_engine_pair: f64,
    ns_slice_pair: f64,
    pair_speedup: f64,
    ns_incremental_row: f64,
    ns_recompute_row: f64,
    incremental_speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_engine.json", String::as_str);

    let d = 256;
    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("config");
    let sketcher = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(7)).expect("sketcher");
    let k = sketcher.k();
    println!("== bench_engine: SketchStore/QueryEngine vs the slice-based path ==");
    println!("d = {d}, k = {k}");

    let row_counts: &[usize] = if quick { &[64] } else { &[64, 256] };
    // One extra row beyond the largest sweep: the incremental bench
    // grows each store by one release.
    let max_rows = *row_counts.iter().max().expect("nonempty") + 1;
    let rows: Vec<Vec<f64>> = (0..max_rows)
        .map(|r| gaussian_vec(d, Seed::new(1000 + r as u64)))
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&rows, Seed::new(99))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();

    let mut measurements = Vec::new();
    let mut all_identical = true;
    for &n in row_counts {
        let slice = &releases[..n];
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in slice {
            engine.ingest(r).expect("ingest");
        }
        let snap = engine.snapshot();

        // Verify: every engine pair answer equals the slice path's.
        for i in 0..n.min(16) {
            for j in 0..n.min(16) {
                let via_engine = snap.pair(i as u64, j as u64).expect("pair");
                let via_slice = if i == j {
                    0.0
                } else {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    slice[lo]
                        .sketch
                        .estimate_sq_distance(&slice[hi].sketch)
                        .expect("estimate")
                };
                all_identical &= via_engine.to_bits() == via_slice.to_bits();
            }
        }

        // Point queries over a fixed pseudo-random id schedule.
        let queries: Vec<(u64, u64)> = (0..1024u64)
            .map(|q| ((q * 37) % n as u64, (q * 61 + 13) % n as u64))
            .collect();
        let iters = if quick { 3 } else { 10 };
        let t_engine = time_per_op(iters, || {
            let mut acc = 0.0;
            for &(a, b) in &queries {
                acc += snap.pair(a, b).expect("pair");
            }
            std::hint::black_box(acc);
        }) / queries.len() as f64;
        let t_slice = time_per_op(iters, || {
            let mut acc = 0.0;
            for &(a, b) in &queries {
                if a != b {
                    acc += slice[a as usize]
                        .sketch
                        .estimate_sq_distance(&slice[b as usize].sketch)
                        .expect("estimate");
                }
            }
            std::hint::black_box(acc);
        }) / queries.len() as f64;

        // Incremental growth: a warm engine absorbing one more row vs
        // recomputing the whole (n+1)-row matrix from the slice.
        let grown = &releases[..n + 1];
        let iters_inc = if quick { 2 } else { 5 };
        let t_incremental = time_per_op(iters_inc, || {
            let mut warm = QueryEngine::new(SketchStore::adopting());
            for r in slice {
                warm.ingest(r).expect("ingest");
            }
            let _ = warm.pairwise_all();
            warm.ingest(&grown[n]).expect("ingest");
            let _ = warm.pairwise_all();
        });
        let t_warmup = time_per_op(iters_inc, || {
            let mut warm = QueryEngine::new(SketchStore::adopting());
            for r in slice {
                warm.ingest(r).expect("ingest");
            }
            let _ = warm.pairwise_all();
        });
        let t_new_row = (t_incremental - t_warmup).max(1.0);
        let t_recompute = time_per_op(iters_inc, || {
            let mut cold = QueryEngine::new(SketchStore::adopting());
            for r in grown {
                cold.ingest(r).expect("ingest");
            }
            let _ = cold.pairwise_all();
        });

        println!(
            "n = {n:5}  pair: engine {t_engine:8.1} ns vs slice {t_slice:8.1} ns ({:4.2}x)  \
             +1 row: incremental {:10.0} ns vs recompute {:10.0} ns ({:5.2}x)",
            t_slice / t_engine,
            t_new_row,
            t_recompute,
            t_recompute / t_new_row,
        );
        measurements.push(Measurement {
            rows: n,
            ns_engine_pair: t_engine,
            ns_slice_pair: t_slice,
            pair_speedup: t_slice / t_engine,
            ns_incremental_row: t_new_row,
            ns_recompute_row: t_recompute,
            incremental_speedup: t_recompute / t_new_row,
        });
    }

    println!(
        "CHECK [{}] engine pair answers bit-identical to the slice path",
        if all_identical { "PASS" } else { "FAIL" }
    );

    let publish_sizes: &[usize] = if quick {
        &[256, 1024, 4096]
    } else {
        &[1024, 16384, 65536]
    };
    let publish: Vec<PublishScaling> = publish_sizes
        .iter()
        .map(|&n| {
            let p = publish_scaling(&releases, n);
            println!(
                "publish n = {n:6}: {:8.2} us/row (min {:.2}, max {:.2}) over {PUBLISH_RUNS} runs \
                 of {PUBLISH_ROWS} rows",
                p.median_us, p.min_us, p.max_us
            );
            p
        })
        .collect();
    let (smallest, largest) = (&publish[0], &publish[publish.len() - 1]);
    let publish_ratio = largest.median_us / smallest.median_us;
    let publish_flat = publish_ratio <= PUBLISH_RATIO_LIMIT;
    println!(
        "CHECK [{}] per-row publish at n = {} is {publish_ratio:.2}x n = {} (limit {PUBLISH_RATIO_LIMIT}x)",
        if publish_flat { "PASS" } else { "FAIL" },
        largest.rows,
        smallest.rows,
    );
    let (cpu, nproc) = host();

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("engine_queries".to_string()),
        ),
        (
            "construction".to_string(),
            JsonValue::String("sjlt-auto".to_string()),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        ("cpu_model".to_string(), JsonValue::String(cpu)),
        ("nproc".to_string(), JsonValue::UInt(nproc as u64)),
        ("bit_identical".to_string(), JsonValue::Bool(all_identical)),
        (
            "measurements".to_string(),
            JsonValue::Array(
                measurements
                    .iter()
                    .map(|m| {
                        JsonValue::Object(vec![
                            ("rows".to_string(), JsonValue::UInt(m.rows as u64)),
                            (
                                "ns_engine_pair".to_string(),
                                JsonValue::Number(m.ns_engine_pair),
                            ),
                            (
                                "ns_slice_pair".to_string(),
                                JsonValue::Number(m.ns_slice_pair),
                            ),
                            (
                                "pair_speedup".to_string(),
                                JsonValue::Number(m.pair_speedup),
                            ),
                            (
                                "ns_incremental_row".to_string(),
                                JsonValue::Number(m.ns_incremental_row),
                            ),
                            (
                                "ns_recompute_row".to_string(),
                                JsonValue::Number(m.ns_recompute_row),
                            ),
                            (
                                "incremental_speedup".to_string(),
                                JsonValue::Number(m.incremental_speedup),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "publish".to_string(),
            JsonValue::Object(vec![
                (
                    "op".to_string(),
                    JsonValue::String("SharedEngine::mutate(|e| e.ingest(..)) per row".to_string()),
                ),
                (
                    "rows_per_run".to_string(),
                    JsonValue::UInt(PUBLISH_ROWS as u64),
                ),
                ("runs".to_string(), JsonValue::UInt(PUBLISH_RUNS as u64)),
                (
                    "measurements".to_string(),
                    JsonValue::Array(
                        publish
                            .iter()
                            .map(|p| {
                                JsonValue::Object(vec![
                                    ("rows".to_string(), JsonValue::UInt(p.rows as u64)),
                                    (
                                        "us_per_row_median".to_string(),
                                        JsonValue::Number(p.median_us),
                                    ),
                                    ("us_per_row_min".to_string(), JsonValue::Number(p.min_us)),
                                    ("us_per_row_max".to_string(), JsonValue::Number(p.max_us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "largest_over_smallest".to_string(),
                    JsonValue::Number(publish_ratio),
                ),
                ("limit".to_string(), JsonValue::Number(PUBLISH_RATIO_LIMIT)),
                ("pass".to_string(), JsonValue::Bool(publish_flat)),
            ]),
        ),
    ]);
    std::fs::write(out_path, json.to_string()).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
    if !all_identical || !publish_flat {
        std::process::exit(1);
    }
}
