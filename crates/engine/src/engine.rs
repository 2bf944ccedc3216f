//! The mutation side of the engine over a [`SketchStore`].
//!
//! A [`QueryEngine`] ingests releases and keeps the all-pairs memo
//! current; it answers no query itself. Every query is post-processing
//! of already-private releases — it costs no privacy budget and
//! mutates nothing — so queries live on the immutable
//! [`EngineSnapshot`] that [`QueryEngine::snapshot`] (or a publishing
//! [`crate::SharedEngine`]) hands out. The engine adds what the
//! slice-based free functions could not: **persistence** (the
//! all-pairs matrix is cached and only the pairs involving newly
//! ingested rows are computed on the next [`QueryEngine::pairwise_all`])
//! and **hoisting** (compatibility and debias constants were resolved
//! at ingest, so a point query is a pure O(k) fused
//! subtract-square-accumulate).

use crate::error::EngineError;
use crate::gather::Gather;
use crate::snapshot::EngineSnapshot;
use crate::store::SketchStore;
use dp_core::release::Release;
use dp_core::sketcher::effective_plan;
use dp_core::PrivateSketcher;
use dp_core::{PairwiseDistances, Parallelism};
use std::sync::Arc;

/// The incremental, mutable engine owning a [`SketchStore`]: ingest
/// and all-pairs memo upkeep. Read through [`QueryEngine::snapshot`].
#[derive(Debug)]
pub struct QueryEngine {
    store: SketchStore,
    par: Parallelism,
    /// Rows covered by `cache`.
    cached_rows: usize,
    /// The cached `cached_rows × cached_rows` all-pairs matrix, shared
    /// out cheaply (`Arc`) so a warm query copies nothing.
    cache: Arc<PairwiseDistances>,
    /// Bumped on every observable mutation (successful ingest, cache
    /// growth) — the signal [`crate::SharedEngine`] uses to decide
    /// whether a fresh [`crate::EngineSnapshot`] must be published.
    generation: u64,
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new(SketchStore::adopting())
    }
}

impl QueryEngine {
    /// Wrap a store (queries run on the environment-default
    /// [`Parallelism`]). A spec-carrying store pins the engine's kernel
    /// to the spec's [`dp_core::KernelId`] — the spec is the negotiated identity
    /// a fleet agrees on, so the executing kernel must follow it, not
    /// the local environment.
    #[must_use]
    pub fn new(store: SketchStore) -> Self {
        let mut par = Parallelism::default();
        if let Some(spec) = store.spec() {
            par = par.with_kernel(spec.kernel());
        }
        Self {
            store,
            par,
            cached_rows: 0,
            cache: Arc::new(PairwiseDistances::from_flat(0, Vec::new())),
            generation: 0,
        }
    }

    /// Replace the execution knob. Answers are bit-identical for every
    /// setting; only scheduling changes.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The execution knob in effect.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The mutation generation: bumped on every successful ingest and
    /// every all-pairs cache growth. Two calls returning the same value
    /// bracket a window with no observable engine mutation — what
    /// [`crate::SharedEngine::mutate`] compares to skip republishing an
    /// unchanged snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Override the mutation generation — for callers that *replace* an
    /// engine wholesale (the server's `Hello` spec adoption builds a
    /// fresh engine) and must keep the generation moving forward so
    /// snapshot publication notices the swap.
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// Mutable access to the store (e.g. its interner). The engine's
    /// incremental cache stays valid under any store mutation because
    /// the store is append-only.
    pub fn store_mut(&mut self) -> &mut SketchStore {
        &mut self.store
    }

    /// Consume the engine, returning the store.
    #[must_use]
    pub fn into_store(self) -> SketchStore {
        self.store
    }

    /// Ingest a release (strict: duplicate party ids rejected).
    ///
    /// # Errors
    /// See [`SketchStore::ingest`].
    pub fn ingest(&mut self, release: &Release) -> Result<usize, EngineError> {
        let row = self.store.ingest(release)?;
        self.generation += 1;
        Ok(row)
    }

    /// Ingest a binary `DPRL` frame through the store's interner.
    ///
    /// # Errors
    /// See [`SketchStore::ingest_bytes`].
    pub fn ingest_bytes(&mut self, bytes: &[u8]) -> Result<usize, EngineError> {
        let row = self.store.ingest_bytes(bytes)?;
        self.generation += 1;
        Ok(row)
    }

    /// Ingest a batch of releases with **one** generation bump, so
    /// snapshot republication and cache invalidation cost once per bulk
    /// load instead of once per row. Row assignment and validation are
    /// bit-identical to one [`QueryEngine::ingest`] per release.
    ///
    /// # Errors
    /// See [`SketchStore::ingest_batch`]; on a mid-batch failure the
    /// accepted prefix stays ingested and the generation still bumps.
    pub fn ingest_batch(&mut self, releases: &[Release]) -> Result<Vec<usize>, EngineError> {
        let before = self.store.n();
        let result = self.store.ingest_batch(releases);
        if self.store.n() != before {
            self.generation += 1;
        }
        result
    }

    /// Server-side bulk load: sketch raw rows under the store's spec —
    /// the negotiated kernel rides the spec, so the batch projection
    /// kernels of [`dp_core::kernel`] do the work — then ingest the
    /// releases under the given party ids. Per-row noise seeds are
    /// `noise_seed.index(row)`, exactly the `sketch_batch` contract, so
    /// the ingested bytes are bit-identical to sketching each row alone
    /// and ingesting one at a time.
    ///
    /// # Errors
    /// [`EngineError::Core`] if the store has no spec, the id/row
    /// counts differ, or sketching fails; ingest errors as for
    /// [`QueryEngine::ingest_batch`].
    pub fn sketch_and_ingest_batch(
        &mut self,
        party_ids: &[u64],
        xs: &[Vec<f64>],
        noise_seed: dp_hashing::Seed,
    ) -> Result<Vec<usize>, EngineError> {
        if party_ids.len() != xs.len() {
            return Err(EngineError::Core(dp_core::CoreError::Unsupported(
                "sketch_and_ingest_batch needs one party id per row",
            )));
        }
        let spec = self
            .store
            .spec()
            .ok_or(EngineError::Core(dp_core::CoreError::Unsupported(
                "sketch_and_ingest_batch needs a store built with a spec",
            )))?
            .clone();
        let sketcher = spec.build_with(self.par)?;
        let sketches = sketcher.sketch_batch(xs, noise_seed)?;
        let releases: Vec<Release> = party_ids
            .iter()
            .zip(sketches)
            .map(|(&party_id, sketch)| Release { party_id, sketch })
            .collect();
        self.ingest_batch(&releases)
    }

    /// Ingest positionally, tolerating duplicate party ids (legacy
    /// slice semantics; see [`SketchStore::ingest_row`]).
    ///
    /// # Errors
    /// See [`SketchStore::ingest_row`].
    pub fn ingest_row(&mut self, release: &Release) -> Result<usize, EngineError> {
        let row = self.store.ingest_row(release)?;
        self.generation += 1;
        Ok(row)
    }

    /// All pairwise estimates among every ingested row, as a flat
    /// row-major matrix in ingest order — **incremental**: the matrix
    /// over previously queried rows is cached, and only pairs touching
    /// rows ingested since the last call are computed (each new row is
    /// one data-parallel task). A cold call runs the tiled kernel; a
    /// warm call with no new rows is O(1) — the returned handle shares
    /// the cache, copying nothing.
    #[must_use]
    pub fn pairwise_all(&mut self) -> Arc<PairwiseDistances> {
        let n = self.store.n();
        if self.cached_rows < n {
            self.extend_cache(n);
        }
        Arc::clone(&self.cache)
    }

    /// The cached all-pairs matrix, **iff** it currently covers every
    /// ingested row — the memo an [`EngineSnapshot`] carries, and what
    /// its subset fast path slices. Never computes anything; a stale
    /// cache yields `None`.
    #[must_use]
    pub fn cached_matrix(&self) -> Option<Arc<PairwiseDistances>> {
        (self.cached_rows == self.store.n()).then(|| Arc::clone(&self.cache))
    }

    /// An unpublished, immutable view of the engine's current state —
    /// the store (an O(1) clone sharing every chunk) and the memo when
    /// warm — to run queries on. Every query lives on
    /// [`EngineSnapshot`]; the engine itself only ingests and keeps the
    /// memo current.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::of(self, 0)
    }

    /// Grow the cached all-pairs matrix from `cached_rows` to `n` rows
    /// through one pipeline: plan → execute → gather. Cold start
    /// (`cached_rows == 0`) executes every tile; warm growth seeds the
    /// gather from the previous matrix ([`Gather::seeded`]) and
    /// executes only the tiles touching the new rows
    /// ([`dp_core::TilePlan::tiles_touching_rows`]) — the same frontier logic a
    /// coordinator runs across sockets, so local and distributed growth
    /// are literally one code path. Every tile runs the kernel's exact
    /// per-pair expression, so the matrix is bit-identical to a
    /// from-scratch computation for any growth step sequence.
    fn extend_cache(&mut self, n: usize) {
        let old = self.cached_rows;
        let plan = effective_plan(n, &self.par);
        let ids: Vec<u64> = if old == 0 {
            (0..plan.tile_count() as u64).collect()
        } else {
            plan.tiles_touching_rows(old..n)
                .into_iter()
                .map(|id| id as u64)
                .collect()
        };
        let segments = self.snapshot().execute_tiles(&plan, &ids);
        let mut gather = Gather::seeded(plan, old, self.cache.as_flat());
        for segment in &segments {
            gather
                .accept(segment)
                .expect("locally executed segments always fit their plan");
        }
        self.cache = Arc::new(
            gather
                .finish()
                .expect("the frontier covers every missing tile"),
        );
        self.cached_rows = n;
        self.generation += 1;
    }
}
