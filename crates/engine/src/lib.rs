//! # dp-engine — the persistent query layer over released sketches
//!
//! The paper's sketches exist to be *queried*: estimate `‖x − y‖²`
//! between any pair of released parties, rank neighbors, find close
//! pairs. The rest of the workspace produces and transports releases;
//! this crate is their long-lived home:
//!
//! * [`SketchStore`] — owns the shared [`dp_core::SketcherSpec`], one
//!   [`dp_core::wire::TagInterner`], and every ingested sketch in an
//!   `n × k` arena of `Arc`-shared chunks. Ingest accepts decoded
//!   [`dp_core::release::Release`] frames or raw `DPRL` bytes, and
//!   rejects incompatible sketches and duplicate party ids with typed
//!   [`EngineError`]s. All validation happens once, at ingest.
//! * [`QueryEngine`] — the mutation side: ingest, plus an
//!   **incremental** all-pairs memo ([`QueryEngine::pairwise_all`]):
//!   after new rows arrive, the next fill computes only the new pairs
//!   through the plan → execute → gather pipeline.
//! * [`EngineSnapshot`] — the one read surface: `pair`, `pairwise`,
//!   `knn`, `top_pairs`, and tile validation/execution
//!   ([`EngineSnapshot::execute_tiles`] is the worker half a server
//!   streams back as `TileResultPart` frames). Queries are
//!   post-processing of already-private releases and mutate nothing,
//!   so they run on an immutable view: [`QueryEngine::snapshot`] for
//!   in-process use, or a published one from [`SharedEngine`].
//! * [`Gather`] — assembles out-of-order executed [`dp_core::TileSegment`]s
//!   into the full matrix with typed [`GatherError`]s for
//!   missing/duplicate/misshapen tiles — what a sharding coordinator
//!   runs over worker answers.
//! * [`SharedEngine`] — snapshot isolation for read-heavy serving:
//!   mutations serialize through one lock and publish immutable
//!   epoch-stamped snapshots; readers query a snapshot with **zero
//!   locks** on the hot path (one atomic epoch load), concurrently
//!   with each other and with ingest.
//!
//! One engine backs the library surface, the `dp-server` service, and
//! the bench harness — per the repo's determinism contract, all of
//! them bit-identical to the naive per-pair reference.

mod arena;
pub mod engine;
pub mod error;
pub mod gather;
pub mod snapshot;
pub mod store;

pub use arena::CHUNK_ROWS;
pub use engine::QueryEngine;
pub use error::EngineError;
pub use gather::{Gather, GatherError};
pub use snapshot::{EngineSnapshot, Neighbor, SharedEngine};
pub use store::SketchStore;

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::release::Release;
    use dp_core::sketcher::{
        pairwise_sq_distances_reference, Construction, PrivateSketcher, SketcherSpec,
    };
    use dp_core::{NoisySketch, Parallelism};
    use dp_hashing::Seed;

    fn spec(d: usize) -> SketcherSpec {
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.5)
            .build()
            .unwrap();
        SketcherSpec::new(Construction::SjltAuto, config, Seed::new(7))
    }

    fn releases(n: usize, d: usize) -> (SketcherSpec, Vec<Release>) {
        let spec = spec(d);
        let sk = spec.build().unwrap();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) % 7) as f64 - 3.0).collect())
            .collect();
        let sketches = sk.sketch_batch(&rows, Seed::new(500)).unwrap();
        let releases = sketches
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: 100 + i as u64,
                sketch,
            })
            .collect();
        (spec, releases)
    }

    #[test]
    fn spec_store_pins_identity() {
        let (spec, rs) = releases(3, 48);
        let mut store = SketchStore::with_spec(spec.clone()).unwrap();
        assert_eq!(store.k(), Some(spec.build().unwrap().k()));
        assert!(store.tag().is_some());
        for r in &rs {
            store.ingest(r).unwrap();
        }
        assert_eq!(store.n(), 3);
        assert_eq!(store.spec(), Some(&spec));
        // A sketch under a different tag is refused with a typed error.
        let alien = Release {
            party_id: 999,
            sketch: NoisySketch::new(vec![0.0; rs[0].sketch.k()], "alien-tag", 0.5, 0.75),
        };
        assert!(matches!(
            store.ingest(&alien),
            Err(EngineError::Incompatible { party_id: 999, .. })
        ));
    }

    #[test]
    fn duplicate_party_ids_rejected_strictly_tolerated_positionally() {
        let (_, rs) = releases(2, 48);
        let mut store = SketchStore::adopting();
        store.ingest(&rs[0]).unwrap();
        assert_eq!(
            store.ingest(&rs[0]),
            Err(EngineError::DuplicateParty(rs[0].party_id))
        );
        // The lenient row path accepts it; the id still maps to row 0.
        let row = store.ingest_row(&rs[0]).unwrap();
        assert_eq!(row, 1);
        assert_eq!(store.row_of(rs[0].party_id), Some(0));
    }

    #[test]
    fn ingest_bytes_shares_one_interner() {
        let (spec, rs) = releases(5, 48);
        let mut store = SketchStore::with_spec(spec).unwrap();
        for r in &rs {
            store.ingest_bytes(&r.to_bytes().unwrap()).unwrap();
        }
        assert_eq!(store.n(), 5);
        // Regression: repeated ingest must never grow the interner.
        assert_eq!(store.interner_len(), 1);
        // Rows rebuild as sketches sharing the interned tag.
        let a = store.sketch_at(0);
        let b = store.sketch_at(4);
        assert!(std::sync::Arc::ptr_eq(&a.shared_tag(), &b.shared_tag()));
    }

    #[test]
    fn rejected_releases_leave_no_trace_in_the_interner() {
        let (spec, rs) = releases(2, 48);
        let mut store = SketchStore::with_spec(spec).unwrap();
        store.ingest_bytes(&rs[0].to_bytes().unwrap()).unwrap();
        assert_eq!(store.interner_len(), 1);
        // A flood of validly framed releases carrying novel tags is
        // rejected — and must not grow the store's interner.
        for i in 0..32u64 {
            let alien = Release {
                party_id: 1000 + i,
                sketch: NoisySketch::new(vec![0.0; 4], format!("alien-{i}"), 0.5, 0.75),
            };
            assert!(store.ingest(&alien).is_err());
            assert!(store.ingest_bytes(&alien.to_bytes().unwrap()).is_err());
            assert_eq!(store.interner_len(), 1, "tag alien-{i} was interned");
        }
        // The store still works after the flood.
        store.ingest(&rs[1]).unwrap();
        assert_eq!(store.n(), 2);
    }

    #[test]
    fn pairwise_all_matches_reference_bit_for_bit() {
        let (_, rs) = releases(9, 48);
        let sketches: Vec<NoisySketch> = rs.iter().map(|r| r.sketch.clone()).collect();
        let reference = pairwise_sq_distances_reference(&sketches).unwrap();
        for threads in [1usize, 3] {
            let mut engine = QueryEngine::new(SketchStore::adopting())
                .with_parallelism(Parallelism::new(threads).with_tile(4));
            for r in &rs {
                engine.ingest(r).unwrap();
            }
            let got = engine.pairwise_all();
            assert_eq!(got.n(), reference.n());
            for (a, b) in reference.as_flat().iter().zip(got.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn incremental_growth_is_bit_identical_to_cold_start() {
        let (_, rs) = releases(11, 48);
        // Engine A: ingest everything, one cold all-pairs pass.
        let mut cold = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            cold.ingest(r).unwrap();
        }
        let cold_matrix = cold.pairwise_all();
        // Engine B: interleave ingest and queries (1 row, 4 rows, all).
        // Same kernel as the cold engine (which runs the env default),
        // so the comparison is within one kernel version.
        let mut warm = QueryEngine::new(SketchStore::adopting()).with_parallelism(
            Parallelism::new(2)
                .with_tile(3)
                .with_kernel(cold.parallelism().kernel()),
        );
        for r in &rs[..1] {
            warm.ingest(r).unwrap();
        }
        let _ = warm.pairwise_all();
        for r in &rs[1..4] {
            warm.ingest(r).unwrap();
        }
        let _ = warm.pairwise_all();
        for r in &rs[4..] {
            warm.ingest(r).unwrap();
        }
        let warm_matrix = warm.pairwise_all();
        assert_eq!(cold_matrix.n(), warm_matrix.n());
        for (a, b) in cold_matrix.as_flat().iter().zip(warm_matrix.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pair_matches_matrix_and_estimator() {
        let (_, rs) = releases(6, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let matrix = engine.pairwise_all();
        let snap = engine.snapshot();
        for i in 0..rs.len() {
            for j in 0..rs.len() {
                let via_pair = snap.pair(rs[i].party_id, rs[j].party_id).unwrap();
                assert_eq!(via_pair.to_bits(), matrix.at(i, j).to_bits(), "({i},{j})");
            }
        }
        // Single-sketcher batches: pair() equals the per-pair estimator
        // run under the engine's kernel.
        let direct = rs[0]
            .sketch
            .estimate_sq_distance_with(&rs[3].sketch, engine.parallelism().kernel())
            .unwrap();
        assert_eq!(
            snap.pair(rs[0].party_id, rs[3].party_id).unwrap().to_bits(),
            direct.to_bits()
        );
        assert!(matches!(
            snap.pair(rs[0].party_id, 424_242),
            Err(EngineError::UnknownParty(424_242))
        ));
    }

    #[test]
    fn subset_pairwise_matches_slicing() {
        let (_, rs) = releases(7, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let ids: Vec<u64> = [6usize, 2, 4].iter().map(|&i| rs[i].party_id).collect();
        let snap = engine.snapshot();
        let sub = snap.pairwise(&ids).unwrap();
        assert_eq!(sub.n(), 3);
        let picked: Vec<NoisySketch> = [6usize, 2, 4]
            .iter()
            .map(|&i| rs[i].sketch.clone())
            .collect();
        // Per-pair reference under the engine's kernel: symmetric,
        // zero diagonal — exactly what the subset recompute produces.
        let kernel = engine.parallelism().kernel();
        for i in 0..picked.len() {
            for j in 0..picked.len() {
                let expected = if i == j {
                    0.0
                } else {
                    picked[i.min(j)]
                        .estimate_sq_distance_with(&picked[i.max(j)], kernel)
                        .unwrap()
                };
                assert_eq!(expected.to_bits(), sub.at(i, j).to_bits(), "({i},{j})");
            }
        }
        assert!(snap.pairwise(&[rs[0].party_id, 777]).is_err());
        assert_eq!(snap.pairwise(&[]).unwrap().n(), 0);
    }

    #[test]
    fn warm_subset_slices_the_memo_bit_identically() {
        let (_, rs) = releases(9, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting())
            .with_parallelism(Parallelism::new(2).with_tile(3));
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        assert!(engine.store().debias_uniform());
        let picks = [8usize, 0, 5, 3];
        let ids: Vec<u64> = picks.iter().map(|&i| rs[i].party_id).collect();
        // Cold: no memo yet, so this runs the tiled kernel.
        assert!(engine.cached_matrix().is_none());
        let cold = engine.snapshot().pairwise(&ids).unwrap();
        // Warm the memo; the same subset must now slice it — and the
        // slice must be bitwise the cold answer, in the same order.
        let _ = engine.pairwise_all();
        assert!(engine.cached_matrix().is_some());
        let snap = engine.snapshot();
        let warm = snap.pairwise(&ids).unwrap();
        assert_eq!(cold.as_flat(), warm.as_flat());
        for (a, b) in cold.as_flat().iter().zip(warm.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Orientation: a reversed subset is the transpose, also bitwise.
        let rev: Vec<u64> = ids.iter().rev().copied().collect();
        let warm_rev = snap.pairwise(&rev).unwrap();
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                let m = ids.len() - 1;
                assert_eq!(warm.at(i, j).to_bits(), warm_rev.at(m - i, m - j).to_bits());
            }
        }
    }

    #[test]
    fn duplicate_subset_rows_bypass_the_memo() {
        let (_, rs) = releases(4, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let _ = engine.pairwise_all();
        // A subset naming the same party twice: the cold kernel scores
        // the duplicated pair as raw 0.0 minus the debias constant —
        // NOT the matrix diagonal's exact 0.0 — so slicing the memo
        // here would be wrong. The gate must fall back to recompute.
        let a = rs[1].party_id;
        let dup = engine.snapshot().pairwise(&[a, a]).unwrap();
        let expected = 0.0 - engine.store().debias_at(1);
        assert_eq!(dup.at(0, 1).to_bits(), expected.to_bits());
        assert_eq!(dup.at(1, 0).to_bits(), expected.to_bits());
        assert_eq!(dup.at(0, 0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nonuniform_debias_bypasses_the_memo() {
        // Two moments inside the kernel's 1e-12 tolerance but with
        // different bit patterns: the matrix debiases pair (0, 1) with
        // row 0's constant, while the reversed subset's recompute uses
        // row 1's — so the memo may only be sliced under a bitwise
        // uniform constant, which this store does not have.
        let m2 = 0.5;
        let mk = |id: u64, m2: f64| Release {
            party_id: id,
            sketch: NoisySketch::new(vec![1.0 + id as f64, 2.0], "t", m2, 0.75),
        };
        let mut engine = QueryEngine::new(SketchStore::adopting());
        engine.ingest(&mk(0, m2)).unwrap();
        engine.ingest(&mk(1, m2 + 1e-13)).unwrap();
        assert!(!engine.store().debias_uniform());
        let _ = engine.pairwise_all();
        let sub = engine.snapshot().pairwise(&[1, 0]).unwrap();
        let picked = vec![mk(1, m2 + 1e-13).sketch, mk(0, m2).sketch];
        let reference = pairwise_sq_distances_reference(&picked).unwrap();
        for (a, b) in reference.as_flat().iter().zip(sub.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the reversed-order answer really does differ from the
        // matrix slice here, proving the gate is load-bearing.
        let matrix = engine.pairwise_all();
        assert_ne!(sub.at(0, 1).to_bits(), matrix.at(1, 0).to_bits());
    }

    #[test]
    fn knn_matches_per_query_estimates() {
        let (_, rs) = releases(8, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let snap = engine.snapshot();
        let got = snap.knn(rs[2].party_id, 3).unwrap();
        assert_eq!(got.len(), 3);
        // Estimates are the per-query estimator's (under the engine's
        // kernel), bit for bit.
        for n in &got {
            let j = rs.iter().position(|r| r.party_id == n.party_id).unwrap();
            let direct = rs[2]
                .sketch
                .estimate_sq_distance_with(&rs[j].sketch, engine.parallelism().kernel())
                .unwrap();
            assert_eq!(n.estimated_sq_distance.to_bits(), direct.to_bits());
        }
        // Ascending, excludes self, k capped by candidate count.
        assert!(got[0].estimated_sq_distance <= got[1].estimated_sq_distance);
        assert!(got.iter().all(|n| n.party_id != rs[2].party_id));
        assert_eq!(snap.knn(rs[0].party_id, 100).unwrap().len(), 7);
    }

    #[test]
    fn top_pairs_are_ascending_and_consistent() {
        let (_, rs) = releases(6, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        // A cold engine's snapshot has no memo to rank from.
        assert!(engine.snapshot().top_pairs(4).is_none());
        let matrix = engine.pairwise_all();
        let snap = engine.snapshot();
        let top = snap.top_pairs(4).expect("warm memo");
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        // Every reported estimate equals the matrix entry.
        for &(a, b, d) in &top {
            let i = rs.iter().position(|r| r.party_id == a).unwrap();
            let j = rs.iter().position(|r| r.party_id == b).unwrap();
            assert_eq!(d.to_bits(), matrix.at(i, j).to_bits());
        }
        // Asking for more pairs than exist returns them all.
        assert_eq!(snap.top_pairs(1000).expect("warm memo").len(), 15);
    }

    #[test]
    fn executed_tiles_match_the_all_pairs_matrix() {
        let (_, rs) = releases(10, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting())
            .with_parallelism(Parallelism::new(2).with_tile(3));
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let matrix = engine.pairwise_all();
        let snap = engine.snapshot();
        let plan = snap.pairwise_plan();
        assert_eq!(plan.n(), 10);
        // Execute every tile explicitly (shuffled order) and gather.
        let mut ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
        ids.reverse();
        let plan = snap
            .validate_tiles(plan.n(), plan.tile(), &ids)
            .expect("valid plan");
        let mut gather = Gather::new(plan);
        for s in &snap.execute_tiles(&plan, &ids) {
            gather.accept(s).unwrap();
        }
        let gathered = gather.finish().unwrap();
        for (a, b) in matrix.as_flat().iter().zip(gathered.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Typed plan errors.
        assert!(matches!(
            snap.validate_tiles(9, plan.tile(), &[0]),
            Err(EngineError::PlanMismatch {
                store_rows: 10,
                plan_rows: 9,
            })
        ));
        assert!(matches!(
            snap.validate_tiles(10, plan.tile(), &[u64::MAX]),
            Err(EngineError::UnknownTile { .. })
        ));
    }

    #[test]
    fn batch_ingest_matches_per_row_with_one_generation_bump() {
        let (spec, rs) = releases(9, 48);
        let mut per_row = QueryEngine::new(SketchStore::with_spec(spec.clone()).unwrap());
        for r in &rs {
            per_row.ingest(r).unwrap();
        }
        let mut batched = QueryEngine::new(SketchStore::with_spec(spec).unwrap());
        let gen0 = batched.generation();
        let rows = batched.ingest_batch(&rs).unwrap();
        assert_eq!(rows, (0..9usize).collect::<Vec<_>>());
        assert_eq!(batched.generation(), gen0 + 1);
        let a = per_row.pairwise_all();
        let b = batched.pairwise_all();
        for (x, y) in a.as_flat().iter().zip(b.as_flat()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Fail-fast on a duplicate mid-batch: prefix stays, typed error.
        let mut extra = releases(2, 48).1;
        extra[0].party_id = 700;
        extra[1].party_id = 701;
        let mixed = vec![extra[0].clone(), rs[0].clone(), extra[1].clone()];
        let n_before = batched.store().n();
        assert!(matches!(
            batched.ingest_batch(&mixed),
            Err(EngineError::DuplicateParty(_))
        ));
        assert_eq!(batched.store().n(), n_before + 1);
    }

    #[test]
    fn bulk_sketch_and_ingest_rides_the_spec_kernel() {
        let (spec, _) = releases(0, 48);
        let raw: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..48).map(|j| ((i * 48 + j) % 5) as f64 - 2.0).collect())
            .collect();
        let ids: Vec<u64> = (900..905).collect();
        let mut bulk = QueryEngine::new(SketchStore::with_spec(spec.clone()).unwrap());
        bulk.sketch_and_ingest_batch(&ids, &raw, Seed::new(77))
            .unwrap();
        // Bit-identical to the client-side sketch_batch + ingest path
        // under the same spec (kernel id included).
        let sk = spec.build().unwrap();
        let expect = sk.sketch_batch(&raw, Seed::new(77)).unwrap();
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&bulk.store().sketch_at(i), want);
            assert_eq!(bulk.store().row_of(900 + i as u64), Some(i));
        }
        // Mismatched id/row counts and spec-less stores are typed errors.
        assert!(bulk
            .sketch_and_ingest_batch(&[1], &raw, Seed::new(1))
            .is_err());
        let mut specless = QueryEngine::new(SketchStore::adopting());
        assert!(specless
            .sketch_and_ingest_batch(&[1], &raw[..1], Seed::new(1))
            .is_err());
    }

    #[test]
    fn empty_store_answers_empty() {
        let mut engine = QueryEngine::new(SketchStore::adopting());
        assert_eq!(engine.pairwise_all().n(), 0);
        assert_eq!(engine.snapshot().top_pairs(3), Some(Vec::new()));
        assert!(matches!(
            engine.snapshot().knn(1, 3),
            Err(EngineError::UnknownParty(1))
        ));
    }

    #[test]
    fn overflowing_debias_constant_is_refused_and_reads_keep_working() {
        // E[η²] = 1e308 is finite, so it passes the wire codec, but the
        // debias constant 2k·E[η²] overflows to inf at k = 4.
        let mk = |id: u64, values: &[f64], m2: f64| Release {
            party_id: id,
            sketch: NoisySketch::new(values.to_vec(), "t", m2, 0.75),
        };
        let far = [1e200, -1e200, 0.0, 1e200];
        let near = [-1e200, 1e200, 0.0, 0.0];
        let mut engine = QueryEngine::new(SketchStore::adopting());
        let bad = mk(1, &far, 1e308);
        for refused in [
            engine.ingest(&bad),
            engine.ingest_row(&bad),
            engine.ingest_bytes(&bad.to_bytes().unwrap()),
        ] {
            assert!(
                matches!(refused, Err(EngineError::Incompatible { party_id: 1, .. })),
                "{refused:?}"
            );
        }
        assert!(engine.store().is_empty());
        assert_eq!(engine.store().interner_len(), 0, "refused before interning");
        assert_eq!(engine.generation(), 0);
        // Nothing was anchored: ordinary releases with the same extreme
        // coordinates are accepted, and every read answers — overflowed
        // distances rank as inf, never as NaN, and nothing panics.
        for (id, values) in [(1, &far), (2, &near), (3, &[0.0; 4])] {
            engine.ingest(&mk(id, values, 0.5)).unwrap();
        }
        let _ = engine.pairwise_all();
        let snap = engine.snapshot();
        let knn = snap.knn(1, 3).unwrap();
        assert_eq!(knn.len(), 2);
        assert!(knn.iter().all(|n| !n.estimated_sq_distance.is_nan()));
        let top = snap.top_pairs(3).expect("warm memo");
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|&(_, _, d)| !d.is_nan()));
        assert!(!snap.pair(1, 2).unwrap().is_nan());
        // A later oversized release is refused like the first one.
        assert!(matches!(
            engine.ingest(&mk(4, &near, 1e308)),
            Err(EngineError::Incompatible { party_id: 4, .. })
        ));
    }

    #[test]
    fn moment_span_rejected_like_the_kernel() {
        let m2 = 0.5;
        let mk = |id: u64, m2: f64| Release {
            party_id: id,
            sketch: NoisySketch::new(vec![1.0, 2.0], "t", m2, 0.75),
        };
        let mut store = SketchStore::adopting();
        store.ingest(&mk(0, m2)).unwrap();
        store.ingest(&mk(1, m2 + 1.2e-12)).unwrap();
        // Passes the vs-anchor check but blows the batch span, exactly
        // like the tiled kernel's rejection.
        assert!(matches!(
            store.ingest(&mk(2, m2 - 1.2e-12)),
            Err(EngineError::Incompatible { party_id: 2, .. })
        ));
    }
}
