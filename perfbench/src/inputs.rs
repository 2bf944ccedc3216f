//! Seeded inputs: the shared sketcher spec, one vector per party, the
//! preload releases, and the preload store as a `DPSS` snapshot.
//!
//! Every input derives from the workload seed: the same seed gives the
//! same spec, vectors, noise seeds, snapshot bytes and query parties.

use dp_core::config::SketchConfig;
use dp_core::release::Release;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher, SketcherSpec};
use dp_engine::SketchStore;
use dp_hashing::Seed;
use dp_noise::gaussian::Gaussian;

/// Input dimension.
pub const D: usize = 256;
/// Accuracy parameter α of the sketch configuration.
pub const ALPHA: f64 = 0.3;
/// Failure probability β of the sketch configuration.
pub const BETA: f64 = 0.1;
/// Privacy parameter ε of every release.
pub const EPSILON: f64 = 1.0;

/// Everything a run sends or checks, generated before the server starts.
#[derive(Debug)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// The shared spec (kernel left at the library default).
    pub spec: SketcherSpec,
    /// The client-side sketcher built from `spec`.
    pub sketcher: AnySketcher,
    /// Parties `0..preload` are in the snapshot.
    pub preload: usize,
    /// One vector per party, preload first, then every party a run may
    /// release.
    pub vectors: Vec<Vec<f64>>,
    /// The preload store, encoded with [`SketchStore::encode_snapshot`].
    pub snapshot: Vec<u8>,
}

fn root(seed: u64) -> Seed {
    Seed::new(seed).child("perfbench")
}

/// The spec every workload uses: SjltAuto, d = 256, α = 0.3, β = 0.1,
/// ε = 1, transform seed derived from the workload seed.
///
/// # Panics
/// If the fixed configuration is refused (a bug in this file).
#[must_use]
pub fn spec(seed: u64) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(D)
        .alpha(ALPHA)
        .beta(BETA)
        .epsilon(EPSILON)
        .build()
        .expect("fixed sketch configuration is valid");
    SketcherSpec::new(
        Construction::SjltAuto,
        config,
        root(seed).child("transform"),
    )
}

/// The private noise seed of party `party`'s release. Matches
/// `sketch_batch`'s per-row derivation, so batch-sketched preload rows
/// and one-at-a-time releases share one scheme.
#[must_use]
pub fn noise_seed(seed: u64, party: u64) -> Seed {
    root(seed).child("noise").index(party)
}

/// Party `party`'s input vector: i.i.d. standard normal coordinates.
#[must_use]
pub fn vector(seed: u64, party: u64) -> Vec<f64> {
    let g = Gaussian::new(1.0).expect("unit sigma is valid");
    let mut rng = root(seed).child("vector").index(party).rng();
    let mut out = vec![0.0; D];
    g.fill(&mut out, &mut rng);
    out
}

/// A seeded stream for op choices (`label` separates streams).
#[must_use]
pub fn stream(seed: u64, label: &str, index: u64) -> dp_hashing::Xoshiro256pp {
    root(seed).child(label).index(index).rng()
}

impl Inputs {
    /// Generate `preload + extra` vectors, sketch the preload, and
    /// encode the preload store.
    ///
    /// # Errors
    /// Sketching or store failures, as text.
    pub fn generate(seed: u64, preload: usize, extra: usize) -> Result<Self, String> {
        let spec = spec(seed);
        let sketcher = spec.build().map_err(|e| format!("sketcher: {e}"))?;
        let vectors: Vec<Vec<f64>> = (0..(preload + extra) as u64)
            .map(|p| vector(seed, p))
            .collect();
        let sketches = sketcher
            .sketch_batch(&vectors[..preload], root(seed).child("noise"))
            .map_err(|e| format!("preload sketches: {e}"))?;
        let mut store =
            SketchStore::with_spec(spec.clone()).map_err(|e| format!("preload store: {e}"))?;
        for (party, sketch) in sketches.into_iter().enumerate() {
            store
                .ingest(&Release {
                    party_id: party as u64,
                    sketch,
                })
                .map_err(|e| format!("preload ingest: {e}"))?;
        }
        let snapshot = store.encode_snapshot(1);
        Ok(Self {
            seed,
            spec,
            sketcher,
            preload,
            vectors,
            snapshot,
        })
    }

    /// Release party `party`: sketch its vector with its private noise
    /// seed.
    ///
    /// # Errors
    /// Sketching failures, as text.
    pub fn release(&self, party: u64) -> Result<Release, String> {
        let x = self
            .vectors
            .get(party as usize)
            .ok_or_else(|| format!("party {party} has no generated vector"))?;
        let sketch = self
            .sketcher
            .sketch(x, noise_seed(self.seed, party))
            .map_err(|e| format!("sketch: {e}"))?;
        Ok(Release {
            party_id: party,
            sketch,
        })
    }

    /// True squared distance between two parties' vectors.
    #[must_use]
    pub fn true_sq_distance(&self, a: u64, b: u64) -> f64 {
        self.vectors[a as usize]
            .iter()
            .zip(&self.vectors[b as usize])
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_snapshot_decodes_to_an_identical_store() {
        let inputs = Inputs::generate(11, 40, 2).unwrap();
        let (store, generation) = SketchStore::decode_snapshot(&inputs.snapshot).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(store.n(), 40);
        assert_eq!(store.spec(), Some(&inputs.spec));
        // Same rows as sketching each party on its own: the batch and
        // one-at-a-time paths share the noise-seed scheme.
        for party in [0u64, 17, 39] {
            let release = inputs.release(party).unwrap();
            let row = store.row_of(party).unwrap();
            let same = store
                .row_values(row)
                .iter()
                .zip(release.sketch.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "party {party} differs");
        }
        // Re-encoding the decoded store reproduces the bytes exactly.
        assert_eq!(store.encode_snapshot(generation), inputs.snapshot);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(5, 8, 1).unwrap();
        let b = Inputs::generate(5, 8, 1).unwrap();
        let c = Inputs::generate(6, 8, 1).unwrap();
        assert_eq!(a.snapshot, b.snapshot);
        assert_ne!(a.snapshot, c.snapshot);
        assert_eq!(a.vectors, b.vectors);
    }
}
