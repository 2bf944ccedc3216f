//! The read surface: immutable [`EngineSnapshot`]s, and lock-free
//! publication of them over a shared [`QueryEngine`].
//!
//! Every query is post-processing of already-released sketches: it
//! costs no privacy budget and mutates nothing, so every query lives
//! here, on the immutable snapshot, and nowhere else. A
//! [`QueryEngine`] only ingests and keeps its all-pairs memo current;
//! [`QueryEngine::snapshot`] hands out an unpublished view to read
//! through.
//!
//! The workload is overwhelmingly read-dominated, so reads should
//! scale with cores while only ingest serializes. [`SharedEngine`]
//! splits the two worlds:
//!
//! * **Mutations** ([`SharedEngine::mutate`]) lock the engine, run, and
//!   — iff the engine's [`QueryEngine::generation`] moved — **publish**
//!   a fresh immutable [`EngineSnapshot`]: a clone of the store, the
//!   memoized all-pairs matrix when warm, and the hoisted debias
//!   constants, stamped with a monotonically increasing *epoch*. The
//!   clone costs O(1) in the store size: it shares every sealed row
//!   chunk, the open tail chunks, the party-index levels and the
//!   interned tags, copying pointers only; the engine's next ingest
//!   copies the open tail chunk it shares (at most
//!   [`crate::CHUNK_ROWS`] rows), never the store.
//! * **Reads** run against a published snapshot. The hot path
//!   ([`SharedEngine::refresh`]) is one atomic epoch load: when the
//!   caller's cached `Arc<EngineSnapshot>` is still current, no lock is
//!   touched at all; only on an epoch change does the reader take a
//!   brief lock to clone the new `Arc` (a pointer copy, never a data
//!   copy).
//!
//! A snapshot is immutable forever: readers holding an old epoch keep
//! computing against it unharmed while newer epochs are published — the
//! "no torn reads" contract the concurrent chaos suite asserts is that
//! every answer equals the answer of *some* published snapshot.
//!
//! ## Determinism
//!
//! All estimates run the versioned accumulator of [`dp_core::kernel`]
//! under the engine's one [`dp_core::KernelId`] — a raw sum of squared
//! differences minus a hoisted `2k·E[η²]` — so answers are
//! bit-identical to the slice-based reference for every thread count,
//! tile size, and ingest/query interleaving *within a kernel version*
//! (the default `V1Scalar` reproduces
//! [`dp_core::NoisySketch::estimate_sq_distance`] exactly). In the
//! all-pairs matrix, pair `(i, j)` with `i < j` is debiased with row
//! `i`'s constant (exactly like the tiled kernel), and so is a point
//! query; a k-NN query is debiased with the *query row's* constant.
//! The two agree bit-for-bit whenever the batch was released by one
//! sketcher, which is the only kind the workspace produces.

use crate::engine::QueryEngine;
use crate::error::EngineError;
use crate::store::SketchStore;
use dp_core::sketcher::{effective_plan, execute_tiles, pairwise_sq_distances_rows};
use dp_core::{PairwiseDistances, Parallelism, TilePlan, TileSegment};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A scored neighbor returned by [`EngineSnapshot::knn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The party id of the neighbor.
    pub party_id: u64,
    /// Estimated squared distance (raw, may be negative at small
    /// distances — ranking is still meaningful because the debias term
    /// is shared).
    pub estimated_sq_distance: f64,
}

/// An immutable point-in-time view of a [`QueryEngine`]: the store's
/// rows, the memoized all-pairs matrix when it was warm at snapshot
/// time, and the hoisted debias constants. Every query on a snapshot
/// is pure — no lock, no interior mutability — so any number of
/// readers run concurrently with each other and with ingest.
#[derive(Debug)]
pub struct EngineSnapshot {
    store: SketchStore,
    /// The full-matrix memo, present iff the engine's incremental
    /// cache covered every row when this snapshot was taken.
    matrix: Option<Arc<PairwiseDistances>>,
    epoch: u64,
    generation: u64,
    par: Parallelism,
}

impl EngineSnapshot {
    pub(crate) fn of(engine: &QueryEngine, epoch: u64) -> Self {
        Self {
            store: engine.store().clone(),
            matrix: engine.cached_matrix(),
            epoch,
            generation: engine.generation(),
            par: engine.parallelism(),
        }
    }

    /// The publish epoch: strictly increasing across published
    /// snapshots of one [`SharedEngine`]; 0 for an unpublished
    /// [`QueryEngine::snapshot`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine generation this snapshot was built from.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The snapshot's store view.
    #[must_use]
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// Number of rows in this snapshot.
    #[must_use]
    pub fn n(&self) -> usize {
        self.store.n()
    }

    /// The full all-pairs matrix, when the memo was warm at snapshot
    /// time. `None` means the cache was stale — fill it through
    /// [`QueryEngine::pairwise_all`] (or [`SharedEngine::fill_memo`],
    /// which publishes a snapshot carrying the matrix).
    #[must_use]
    pub fn full_matrix(&self) -> Option<Arc<PairwiseDistances>> {
        self.matrix.as_ref().map(Arc::clone)
    }

    /// The debiased squared-distance estimate between two parties: a
    /// pure O(k) pass, no validation, no allocation. Pair `(i, j)` is
    /// debiased with the lower row's constant, so the answer is
    /// bit-identical to the all-pairs matrix entry.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] if either id was never ingested.
    pub fn pair(&self, a: u64, b: u64) -> Result<f64, EngineError> {
        let i = self.row_of(a)?;
        let j = self.row_of(b)?;
        if i == j {
            return Ok(0.0);
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let raw = dp_core::kernel::sq_distance(
            self.par.kernel(),
            self.store.row_values(lo),
            self.store.row_values(hi),
        );
        Ok(raw - self.store.debias_at(lo))
    }

    /// All pairwise estimates among an explicit subset of parties, in
    /// the given order. The memo is sliced in O(|subset|²) only when
    /// that is **provably bit-identical** to a cold tiled recompute
    /// over the subset:
    ///
    /// * the memo covers every store row, and
    /// * the store's debias constant is bitwise uniform across rows —
    ///   the matrix debiases pair `(i, j)` with store-row `min(i, j)`'s
    ///   constant while a recompute uses the subset-order-first row's,
    ///   and those agree for every ordering only under one shared
    ///   constant, and
    /// * the resolved rows are distinct — a duplicated row yields `0.0`
    ///   on the matrix diagonal but `-debias` from a recompute (the raw
    ///   distance of a row to itself is exactly `0.0` *before*
    ///   debiasing).
    ///
    /// The raw kernel expression itself is orientation-proof: a
    /// zip-order sum of `(x − y)²` is bitwise symmetric in its
    /// arguments, so matrix entry `(a, b)` equals the subset's `(b, a)`
    /// exactly. Otherwise the subset runs the tiled kernel.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] on an id that was never ingested.
    pub fn pairwise(&self, parties: &[u64]) -> Result<PairwiseDistances, EngineError> {
        let rows = parties
            .iter()
            .map(|&p| self.row_of(p))
            .collect::<Result<Vec<usize>, _>>()?;
        if let Some(matrix) = self.matrix.as_deref() {
            if self.store.debias_uniform() && rows_distinct(&rows) {
                let mut flat = Vec::with_capacity(rows.len() * rows.len());
                for &a in &rows {
                    for &b in &rows {
                        flat.push(matrix.at(a, b));
                    }
                }
                return Ok(PairwiseDistances::from_flat(rows.len(), flat));
            }
        }
        Ok(pairwise_sq_distances_rows(
            rows.len(),
            |i| self.store.row_values(rows[i]),
            |i| self.store.debias_at(rows[i]),
            &self.par,
        ))
    }

    /// The `k` nearest parties to `party`, ascending by estimate: every
    /// row not sharing the query's party id, scored with the **query
    /// row's** debias constant and walked chunk by chunk in row order.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] if the id was never ingested.
    pub fn knn(&self, party: u64, k: usize) -> Result<Vec<Neighbor>, EngineError> {
        let row = self.row_of(party)?;
        let kernel = self.par.kernel();
        let query = self.store.row_values(row);
        let dim = query.len();
        let debias = self.store.debias_at(row);
        let mut scored: Vec<Neighbor> = Vec::with_capacity(self.store.n());
        for (ids, values) in self.store.row_chunks() {
            for (offset, &party_id) in ids.iter().enumerate() {
                if party_id == party {
                    continue;
                }
                let candidate = &values[offset * dim..(offset + 1) * dim];
                scored.push(Neighbor {
                    party_id,
                    estimated_sq_distance: dp_core::kernel::sq_distance(kernel, query, candidate)
                        - debias,
                });
            }
        }
        scored.sort_by(|a, b| {
            a.estimated_sq_distance
                .partial_cmp(&b.estimated_sq_distance)
                .expect("finite estimates")
        });
        scored.truncate(k);
        Ok(scored)
    }

    /// The `t` globally closest pairs `(party a, party b, estimate)`,
    /// ascending by estimate (ties in ingest order), when the matrix
    /// memo is present (`None` signals the stale-cache fallback, exactly
    /// like [`EngineSnapshot::full_matrix`]).
    #[must_use]
    pub fn top_pairs(&self, t: usize) -> Option<Vec<(u64, u64, f64)>> {
        let matrix = self.matrix.as_deref()?;
        let ids: Vec<u64> = self.store.party_ids().take(matrix.n()).collect();
        let mut pairs = Vec::with_capacity(ids.len() * ids.len().saturating_sub(1) / 2);
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate().skip(i + 1) {
                pairs.push((a, b, matrix.at(i, j)));
            }
        }
        pairs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite estimates"));
        pairs.truncate(t);
        Some(pairs)
    }

    /// The [`TilePlan`] a cold all-pairs pass over this snapshot
    /// executes — also what a coordinator shards across remote workers,
    /// so the local and distributed paths agree on every tile by
    /// construction.
    #[must_use]
    pub fn pairwise_plan(&self) -> TilePlan {
        effective_plan(self.store.n(), &self.par)
    }

    /// Check a remote tile plan against this snapshot's rows and every
    /// id against the plan, returning the plan for
    /// [`EngineSnapshot::execute_tiles`]. A streaming server validates
    /// once up front, then executes tile by tile.
    ///
    /// # Errors
    /// [`EngineError::PlanMismatch`] if `plan_rows` differs from the
    /// store's row count; [`EngineError::UnknownTile`] on an id outside
    /// the plan.
    pub fn validate_tiles(
        &self,
        plan_rows: usize,
        tile: usize,
        ids: &[u64],
    ) -> Result<TilePlan, EngineError> {
        let n = self.store.n();
        if plan_rows != n {
            return Err(EngineError::PlanMismatch {
                store_rows: n,
                plan_rows,
            });
        }
        let plan = TilePlan::new(n, tile);
        let tile_count = plan.tile_count() as u64;
        if let Some(&id) = ids.iter().find(|&&id| id >= tile_count) {
            return Err(EngineError::UnknownTile { id, tile_count });
        }
        Ok(plan)
    }

    /// Execute tiles of an **already validated** plan, one
    /// [`TileSegment`] per id in id order — the worker half of the
    /// plan → execute → gather pipeline, and the one call site of the
    /// tiled kernel behind both a streamed `ExecuteTilesStream` reply
    /// and the engine's own cache growth. The snapshot cannot change
    /// underneath a long stream, so a streamed answer is internally
    /// consistent by construction.
    ///
    /// # Panics
    /// If an id is outside `plan` (see [`EngineSnapshot::validate_tiles`]).
    #[must_use]
    pub fn execute_tiles(&self, plan: &TilePlan, ids: &[u64]) -> Vec<TileSegment> {
        execute_tiles(
            plan,
            ids,
            |i| self.store.row_values(i),
            |i| self.store.debias_at(i),
            &self.par,
        )
    }

    fn row_of(&self, party: u64) -> Result<usize, EngineError> {
        self.store
            .row_of(party)
            .ok_or(EngineError::UnknownParty(party))
    }
}

/// Whether every row index appears at most once — checked on a sorted
/// copy of the `m` requested rows, so the cost is O(m log m) whatever
/// the store size.
fn rows_distinct(rows: &[usize]) -> bool {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// A [`QueryEngine`] shared between one serialized mutation path and
/// any number of lock-free readers, via published [`EngineSnapshot`]s.
/// See the module docs for the protocol.
#[derive(Debug)]
pub struct SharedEngine {
    /// The epoch of the latest published snapshot. Readers compare
    /// this (one `Acquire` load) against their cached snapshot's epoch;
    /// the snapshot is stored into `current` *before* the epoch is
    /// bumped (`Release`), so a reader observing the new epoch always
    /// finds a snapshot at least that new under the lock.
    epoch: AtomicU64,
    /// The latest published snapshot. Locked only to swap or clone the
    /// `Arc` — never while computing anything.
    current: Mutex<Arc<EngineSnapshot>>,
    /// The single mutable engine. Lock order: `engine` before
    /// `current` (publish happens under both).
    engine: Mutex<QueryEngine>,
}

/// Recover a poisoned lock: both guarded values uphold their
/// invariants across panics (the store is append-only and validates
/// before mutating; the snapshot slot holds a complete `Arc` or the
/// previous one), mirroring the server's poison-recovery discipline.
fn recover<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl SharedEngine {
    /// Wrap an engine, publishing its current state as epoch 1.
    #[must_use]
    pub fn new(engine: QueryEngine) -> Self {
        let first = Arc::new(EngineSnapshot::of(&engine, 1));
        Self {
            epoch: AtomicU64::new(1),
            current: Mutex::new(first),
            engine: Mutex::new(engine),
        }
    }

    /// The epoch of the latest published snapshot (one atomic load).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The latest published snapshot (brief lock, clones the `Arc`).
    #[must_use]
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        let current = recover(self.current.lock());
        Arc::clone(&current)
    }

    /// The hot-path read: keep `cached` current. When the epoch hasn't
    /// moved since `cached` was published this is **one atomic load and
    /// no lock**; on an epoch change the new snapshot is cloned out
    /// under the brief `current` lock.
    pub fn refresh(&self, cached: &mut Arc<EngineSnapshot>) {
        if cached.epoch() != self.epoch.load(Ordering::Acquire) {
            *cached = self.snapshot();
        }
    }

    /// Run a mutation under the engine lock, then publish a fresh
    /// snapshot iff the engine's generation moved (a failed ingest
    /// publishes nothing). Returns `f`'s result.
    ///
    /// This is the **only** writer of the epoch, so epochs increase
    /// strictly and a snapshot's `(epoch, generation)` pair is unique.
    pub fn mutate<T>(&self, f: impl FnOnce(&mut QueryEngine) -> T) -> T {
        self.mutate_and_publish(f).0
    }

    /// Fill the all-pairs memo under the engine lock and return the
    /// snapshot that covers it — the cold-memo fallback of every
    /// full-matrix read. The returned snapshot always carries
    /// [`EngineSnapshot::full_matrix`]; when the memo was already warm
    /// it is the current snapshot and nothing is republished.
    #[must_use]
    pub fn fill_memo(&self) -> Arc<EngineSnapshot> {
        self.mutate_and_publish(|engine| {
            let _ = engine.pairwise_all();
        })
        .1
    }

    /// [`SharedEngine::mutate`], also returning the snapshot current
    /// when the engine lock is released.
    fn mutate_and_publish<T>(
        &self,
        f: impl FnOnce(&mut QueryEngine) -> T,
    ) -> (T, Arc<EngineSnapshot>) {
        let mut engine = recover(self.engine.lock());
        let out = f(&mut engine);
        let generation = engine.generation();
        let mut current = recover(self.current.lock());
        if current.generation() != generation {
            let epoch = self.epoch.load(Ordering::Relaxed) + 1;
            *current = Arc::new(EngineSnapshot::of(&engine, epoch));
            self.epoch.store(epoch, Ordering::Release);
        }
        (out, Arc::clone(&current))
    }

    /// Consume the shared engine, returning the inner [`QueryEngine`].
    ///
    /// # Panics
    /// If a lock is held elsewhere (callers tear down after readers).
    #[must_use]
    pub fn into_engine(self) -> QueryEngine {
        recover(self.engine.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::release::Release;
    use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
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

    fn releases(n: usize, d: usize) -> Vec<Release> {
        let sk = spec(d).build().unwrap();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) % 7) as f64 - 3.0).collect())
            .collect();
        sk.sketch_batch(&rows, Seed::new(500))
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: 100 + i as u64,
                sketch,
            })
            .collect()
    }

    #[test]
    fn publish_on_ingest_only() {
        let shared = SharedEngine::new(QueryEngine::default());
        assert_eq!(shared.epoch(), 1);
        let rels = releases(3, 12);
        shared.mutate(|e| e.ingest(&rels[0]).unwrap());
        assert_eq!(shared.epoch(), 2);
        // A failed mutation (duplicate party) publishes nothing.
        shared.mutate(|e| assert!(e.ingest(&rels[0]).is_err()));
        assert_eq!(shared.epoch(), 2);
        // A pure read inside mutate publishes nothing either.
        shared.mutate(|e| {
            let _ = e.snapshot().pair(100, 100);
        });
        assert_eq!(shared.epoch(), 2);
    }

    #[test]
    fn old_snapshots_survive_new_publishes() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(4, 12);
        for r in &rels[..2] {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        let old = shared.snapshot();
        assert_eq!(old.n(), 2);
        let before = old.pair(100, 101).unwrap();
        for r in &rels[2..] {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        assert_eq!(shared.snapshot().n(), 4);
        // The old view is frozen: same rows, bitwise-same answer.
        assert_eq!(old.n(), 2);
        assert_eq!(old.pair(100, 101).unwrap().to_bits(), before.to_bits());
    }

    #[test]
    fn refresh_is_a_noop_on_an_unchanged_epoch() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(2, 12);
        shared.mutate(|e| e.ingest(&rels[0]).unwrap());
        let mut cached = shared.snapshot();
        let ptr = Arc::as_ptr(&cached);
        shared.refresh(&mut cached);
        assert_eq!(Arc::as_ptr(&cached), ptr, "no republish, same Arc");
        shared.mutate(|e| e.ingest(&rels[1]).unwrap());
        shared.refresh(&mut cached);
        assert_ne!(Arc::as_ptr(&cached), ptr);
        assert_eq!(cached.n(), 2);
    }

    #[test]
    fn fill_memo_publishes_once_and_matches_the_engine() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(6, 16);
        for r in &rels {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        assert!(shared.snapshot().full_matrix().is_none());
        let epoch = shared.epoch();
        let warm = shared.fill_memo();
        assert_eq!(shared.epoch(), epoch + 1, "a cold fill publishes");
        assert!(Arc::ptr_eq(&warm, &shared.snapshot()));
        // A warm fill republishes nothing and hands back the same view.
        assert!(Arc::ptr_eq(&shared.fill_memo(), &warm));
        assert_eq!(shared.epoch(), epoch + 1);
        let full = warm.full_matrix().expect("memo published");
        let engine_full = shared.mutate(|e| e.pairwise_all());
        assert!(Arc::ptr_eq(&full, &engine_full), "the engine's own memo");
        let top = warm.top_pairs(4).expect("memo published");
        assert_eq!(top.len(), 4);
        for &(a, b, d) in &top {
            assert_eq!(d.to_bits(), warm.pair(a, b).unwrap().to_bits());
        }
        // Executing every tile of the plan and gathering reproduces the
        // memo bit for bit.
        let plan = warm.pairwise_plan();
        let ids: Vec<u64> = (0..plan.tile_count() as u64).rev().collect();
        let plan = warm.validate_tiles(plan.n(), plan.tile(), &ids).unwrap();
        let mut gather = crate::Gather::new(plan);
        for segment in &warm.execute_tiles(&plan, &ids) {
            gather.accept(segment).unwrap();
        }
        assert_eq!(gather.finish().unwrap().as_flat(), full.as_flat());
    }

    #[test]
    fn an_empty_store_fills_an_empty_memo() {
        let shared = SharedEngine::new(QueryEngine::default());
        let snap = shared.fill_memo();
        assert_eq!(snap.full_matrix().expect("memo").n(), 0);
        assert_eq!(snap.top_pairs(3), Some(Vec::new()));
        assert_eq!(shared.epoch(), 1, "nothing to publish");
    }

    #[test]
    fn rows_distinct_finds_duplicates_anywhere_in_the_subset() {
        assert!(rows_distinct(&[]));
        assert!(rows_distinct(&[7]));
        assert!(rows_distinct(&[9, 0, 5, 3]));
        assert!(!rows_distinct(&[4, 1, 8, 1]));
        assert!(!rows_distinct(&[2, 2]));
        // The check never sizes anything by the row indices themselves.
        assert!(rows_distinct(&[usize::MAX, 0]));
        assert!(!rows_distinct(&[usize::MAX, 3, usize::MAX]));
    }

    #[test]
    fn stale_memo_not_published() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(3, 12);
        for r in &rels[..2] {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        shared.mutate(|e| {
            let _ = e.pairwise_all();
        });
        assert!(shared.snapshot().full_matrix().is_some());
        // New row: the memo is stale again, so the fresh snapshot must
        // not carry a matrix that is missing the row.
        shared.mutate(|e| e.ingest(&rels[2]).unwrap());
        let snap = shared.snapshot();
        assert_eq!(snap.n(), 3);
        assert!(snap.full_matrix().is_none());
        assert!(snap.top_pairs(1).is_none());
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(8, 12);
        shared.mutate(|e| e.ingest(&rels[0]).unwrap());
        shared.mutate(|e| e.ingest(&rels[1]).unwrap());
        std::thread::scope(|scope| {
            let shared = &shared;
            let rels = &rels;
            scope.spawn(move || {
                for r in &rels[2..] {
                    shared.mutate(|e| e.ingest(r).unwrap());
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut cached = shared.snapshot();
                    for _ in 0..200 {
                        shared.refresh(&mut cached);
                        // Any published snapshot answers coherently:
                        // the first two rows are always present.
                        let d = cached.pair(100, 101).unwrap();
                        assert!(d.is_finite());
                        assert!(cached.n() >= 2 && cached.n() <= 8);
                    }
                });
            }
        });
        assert_eq!(shared.snapshot().n(), 8);
    }

    /// Assert that `snap` answers exactly as `model` — the prefix's
    /// releases in row order, a flat reference — and encodes exactly as
    /// a store built fresh from it.
    fn assert_snapshot_matches_prefix(snap: &EngineSnapshot, model: &[Release], probes: &[u64]) {
        let m = model.len();
        assert_eq!(snap.n(), m);
        let kernel = QueryEngine::default().parallelism().kernel();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let store = snap.store();
        let debias = |r: &Release| 2.0 * r.sketch.k() as f64 * r.sketch.noise_second_moment();
        for (row, r) in model.iter().enumerate() {
            assert_eq!(
                bits(store.row_values(row)),
                bits(r.sketch.values()),
                "m={m} row {row}"
            );
            assert_eq!(store.debias_at(row).to_bits(), debias(r).to_bits());
            assert_eq!(store.party_at(row), r.party_id);
        }
        let first_row = |id: u64| model.iter().position(|r| r.party_id == id);
        for &id in probes {
            assert_eq!(store.row_of(id), first_row(id), "m={m} row_of({id})");
        }
        // pair and knn, recomputed from the flat model.
        let queries: Vec<u64> = [0, m / 2, m.saturating_sub(1)]
            .iter()
            .filter(|&&r| r < m)
            .map(|&r| model[r].party_id)
            .collect();
        for &a in &queries {
            let qa = first_row(a).expect("query party is stored");
            for &b in &queries {
                let qb = first_row(b).expect("query party is stored");
                let want = if qa == qb {
                    0.0
                } else {
                    let (lo, hi) = (qa.min(qb), qa.max(qb));
                    dp_core::kernel::sq_distance(
                        kernel,
                        model[lo].sketch.values(),
                        model[hi].sketch.values(),
                    ) - debias(&model[lo])
                };
                assert_eq!(snap.pair(a, b).unwrap().to_bits(), want.to_bits());
            }
            let q = &model[qa];
            let mut want: Vec<(u64, f64)> = model
                .iter()
                .filter(|c| c.party_id != a)
                .map(|c| {
                    let raw =
                        dp_core::kernel::sq_distance(kernel, q.sketch.values(), c.sketch.values());
                    (c.party_id, raw - debias(q))
                })
                .collect();
            want.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"));
            want.truncate(5);
            let got: Vec<(u64, u64)> = snap
                .knn(a, 5)
                .unwrap()
                .iter()
                .map(|n| (n.party_id, n.estimated_sq_distance.to_bits()))
                .collect();
            let want: Vec<(u64, u64)> = want.iter().map(|&(p, d)| (p, d.to_bits())).collect();
            assert_eq!(got, want, "m={m} knn({a})");
        }
        // The held snapshot encodes exactly as a store built fresh from
        // the prefix, with no snapshot ever sharing its chunks.
        let mut fresh = SketchStore::adopting();
        for r in model {
            fresh.ingest_row(r).unwrap();
        }
        assert_eq!(
            store.encode_snapshot(snap.generation()),
            fresh.encode_snapshot(snap.generation()),
            "m={m}"
        );
    }

    #[test]
    fn held_snapshots_match_their_prefix_across_chunk_and_index_boundaries() {
        use crate::arena::CHUNK_ROWS;
        // Past four chunk seals, so the index merges levels of 1 + 1
        // and then 2 + 1 + 1 chunks.
        let target = 4 * CHUNK_ROWS + 5;
        let rels = releases(target, 12);
        let shared = SharedEngine::new(QueryEngine::default());
        let mut model: Vec<Release> = Vec::new();
        let mut held: Vec<(Arc<EngineSnapshot>, usize)> = Vec::new();
        for m in 0..target {
            // Lenient duplicates of an id from a sealed chunk and of one
            // from the open tail: rows are appended, first row wins.
            let dup_of = if m % 37 == 36 {
                Some(m / 3)
            } else if m % 41 == 40 {
                Some(m - 2)
            } else {
                None
            };
            let release = Release {
                party_id: dup_of.map_or(rels[m].party_id, |r| model[r].party_id),
                sketch: rels[m].sketch.clone(),
            };
            let row = shared.mutate(|e| match dup_of {
                Some(_) => e.ingest_row(&release),
                None => e.ingest(&release),
            });
            assert_eq!(row.unwrap(), m);
            model.push(release);
            let epoch = shared.epoch();
            // Rejected ingests — a strict duplicate and an incompatible
            // noise calibration — publish nothing and leave no trace.
            if m % 19 == 7 {
                let dup = model[m / 2].clone();
                assert!(shared.mutate(|e| e.ingest(&dup)).is_err());
                let s = &rels[0].sketch;
                let alien = Release {
                    party_id: 9_999_999,
                    sketch: dp_core::NoisySketch::new(
                        s.values().to_vec(),
                        s.transform_tag(),
                        2.0 * s.noise_second_moment(),
                        s.noise_fourth_moment(),
                    ),
                };
                assert!(shared.mutate(|e| e.ingest_row(&alien)).is_err());
                assert_eq!(shared.epoch(), epoch);
            }
            held.push((shared.snapshot(), model.len()));
        }
        let mut probes: Vec<u64> = rels.iter().map(|r| r.party_id).collect();
        probes.push(9_999_999);
        for (snap, m) in &held {
            assert_snapshot_matches_prefix(snap, &model[..*m], &probes);
        }
    }
}
