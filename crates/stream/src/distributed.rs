//! The distributed release protocol of the paper's introduction.
//!
//! All parties share [`PublicParams`] — a [`SketcherSpec`] naming the
//! construction, the sketch configuration, and the *public* transform
//! seed (the paper: "All parties must use the same randomized matrix S …
//! It is crucial that the projection matrix is public, and only the noise
//! be kept secret"). Each [`Party`] holds its private vector and a
//! private noise seed, releases one [`dp_core::NoisySketch`] through the
//! mechanism-agnostic [`PrivateSketcher`] trait, and any observer
//! computes pairwise distance estimates from the released objects alone —
//! privacy follows by post-processing.
//!
//! The construction is selected purely by the spec: the same protocol
//! code runs the SJLT+Laplace headline construction, the Gaussian/FJLT
//! variants, and the Kenthapadi baseline.
//!
//! Wire formats: the compact versioned binary codec of
//! [`dp_core::wire`] is the preferred path
//! ([`Party::release_bytes`] / [`parse_release_bytes`]); JSON
//! ([`Party::release_json`] / [`parse_release`]) is kept for
//! compatibility and debuggability.

use dp_core::config::SketchConfig;
use dp_core::error::CoreError;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher, SketcherSpec};
use dp_hashing::Seed;

// The release frame itself now lives in `dp_core::release`, shared by
// this protocol module, the `dp-engine` store, and the server; it is
// re-exported here so existing call sites keep working.
pub use dp_core::release::{parse_release, parse_release_bytes, Release, RELEASE_MAGIC};

/// Parameters shared by every participant (safe to publish).
#[derive(Debug, Clone, PartialEq)]
pub struct PublicParams {
    spec: SketcherSpec,
}

impl PublicParams {
    /// Publish a configuration and a transform seed using the paper's
    /// headline construction (private SJLT with the Note 5 noise rule).
    #[must_use]
    pub fn new(config: SketchConfig, transform_seed: Seed) -> Self {
        Self::with_construction(Construction::SjltAuto, config, transform_seed)
    }

    /// Publish parameters for an explicitly chosen construction.
    #[must_use]
    pub fn with_construction(
        construction: Construction,
        config: SketchConfig,
        transform_seed: Seed,
    ) -> Self {
        Self {
            spec: SketcherSpec::new(construction, config, transform_seed),
        }
    }

    /// Wrap an existing spec.
    #[must_use]
    pub fn from_spec(spec: SketcherSpec) -> Self {
        Self { spec }
    }

    /// The full shared spec.
    #[must_use]
    pub fn spec(&self) -> &SketcherSpec {
        &self.spec
    }

    /// The shared configuration.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        self.spec.config()
    }

    /// The public transform seed.
    #[must_use]
    pub fn transform_seed(&self) -> Seed {
        self.spec.transform_seed()
    }

    /// Rebuild the shared sketcher (every party and every observer gets
    /// the identical transform and calibration from the same spec).
    ///
    /// # Errors
    /// Propagates sketcher construction failures.
    pub fn sketcher(&self) -> Result<AnySketcher, CoreError> {
        self.spec.build()
    }

    /// Serialize for distribution to participants.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.spec.to_json()
    }

    /// Parse distributed parameters.
    ///
    /// # Errors
    /// [`CoreError::Wire`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        Ok(Self {
            spec: SketcherSpec::from_json(text)?,
        })
    }
}

/// One data-holding participant.
#[derive(Debug, Clone)]
pub struct Party {
    id: u64,
    data: Vec<f64>,
    noise_seed: Seed,
}

impl Party {
    /// A party with its private data; the noise seed is derived from the
    /// party id and must stay private.
    #[must_use]
    pub fn new(id: u64, data: Vec<f64>, private_seed: Seed) -> Self {
        Self {
            id,
            data,
            noise_seed: private_seed.child("party-noise").index(id),
        }
    }

    /// The party id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Release the party's noisy sketch under the shared public params.
    ///
    /// # Errors
    /// Propagates sketcher/sketching failures.
    pub fn release(&self, params: &PublicParams) -> Result<Release, CoreError> {
        let sketcher = params.sketcher()?;
        self.release_with(&sketcher)
    }

    /// Release against an already-built sketcher (any construction —
    /// callers batching many parties build the sketcher once).
    ///
    /// # Errors
    /// Propagates sketching failures.
    pub fn release_with(&self, sketcher: &dyn PrivateSketcher) -> Result<Release, CoreError> {
        let sketch = sketcher.sketch(&self.data, self.noise_seed)?;
        Ok(Release {
            party_id: self.id,
            sketch,
        })
    }

    /// Serialize a release to the compact binary wire format.
    ///
    /// # Errors
    /// Propagates release and encoding failures.
    pub fn release_bytes(&self, params: &PublicParams) -> Result<Vec<u8>, CoreError> {
        self.release(params)?.to_bytes()
    }

    /// Serialize a release to the JSON compatibility wire format.
    ///
    /// # Errors
    /// Propagates release failures.
    pub fn release_json(&self, params: &PublicParams) -> Result<String, CoreError> {
        Ok(self.release(params)?.to_json())
    }
}

/// Index of the released sketch nearest to `query` (by estimated squared
/// distance), excluding `query` itself when it appears in the list.
///
/// # Errors
/// Propagates incompatibility errors.
pub fn nearest_neighbor(query: &Release, candidates: &[Release]) -> Result<Option<u64>, CoreError> {
    let mut best: Option<(u64, f64)> = None;
    for c in candidates {
        if c.party_id == query.party_id {
            continue;
        }
        let est = query.sketch.estimate_sq_distance(&c.sketch)?;
        if best.is_none_or(|(_, b)| est < b) {
            best = Some((c.party_id, est));
        }
    }
    Ok(best.map(|(id, _)| id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::kenthapadi::SigmaCalibration;
    use dp_core::wire::TagInterner;
    use dp_engine::{QueryEngine, SketchStore};
    use dp_stats::Summary;

    /// The all-pairs estimates among `releases`, in release order.
    fn pairwise(releases: &[Release]) -> std::sync::Arc<dp_core::PairwiseDistances> {
        let mut engine = QueryEngine::new(SketchStore::adopting());
        engine.ingest_batch(releases).unwrap();
        engine.pairwise_all()
    }

    fn params(d: usize) -> PublicParams {
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(2.0)
            .build()
            .unwrap();
        PublicParams::new(config, Seed::new(424_242))
    }

    #[test]
    fn parties_reconstruct_identical_transform() {
        let p = params(64);
        let s1 = p.sketcher().unwrap();
        let s2 = p.sketcher().unwrap();
        // Same tag → sketches interoperate.
        let x = vec![1.0; 64];
        let a = s1.sketch(&x, Seed::new(1)).unwrap();
        let b = s2.sketch(&x, Seed::new(2)).unwrap();
        assert!(a.estimate_sq_distance(&b).is_ok());
    }

    #[test]
    fn params_travel_as_json() {
        let config = SketchConfig::builder()
            .input_dim(32)
            .epsilon(1.0)
            .delta(1e-6)
            .build()
            .unwrap();
        let p = PublicParams::with_construction(
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            config,
            Seed::new(9),
        );
        let remote = PublicParams::from_json(&p.to_json()).unwrap();
        assert_eq!(p, remote);
        // A sketch from the sender combines with one from the receiver.
        let x = vec![1.0; 32];
        let a = p.sketcher().unwrap().sketch(&x, Seed::new(1)).unwrap();
        let b = remote.sketcher().unwrap().sketch(&x, Seed::new(2)).unwrap();
        assert!(a.estimate_sq_distance(&b).is_ok());
    }

    #[test]
    fn wire_roundtrip_json() {
        let p = params(64);
        let party = Party::new(7, vec![0.5; 64], Seed::new(999));
        let json = party.release_json(&p).unwrap();
        let back = parse_release(&json).unwrap();
        assert_eq!(back.party_id, 7);
        assert_eq!(back, party.release(&p).unwrap());
    }

    #[test]
    fn wire_roundtrip_binary_byte_identical() {
        let p = params(64);
        let party = Party::new(3, vec![0.25; 64], Seed::new(4));
        let bytes = party.release_bytes(&p).unwrap();
        let mut interner = TagInterner::new();
        let back = parse_release_bytes(&bytes, &mut interner).unwrap();
        assert_eq!(back, party.release(&p).unwrap());
        // Re-encoding reproduces the identical bytes.
        assert_eq!(back.to_bytes().unwrap(), bytes);
        // Binary and JSON paths agree on the decoded release.
        let via_json = parse_release(&party.release_json(&p).unwrap()).unwrap();
        assert_eq!(back, via_json);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(parse_release("{not json").is_err());
        let mut interner = TagInterner::new();
        assert!(parse_release_bytes(b"", &mut interner).is_err());
        assert!(parse_release_bytes(b"XXXX\x01........", &mut interner).is_err());
        let p = params(64);
        let good = Party::new(0, vec![0.0; 64], Seed::new(1))
            .release_bytes(&p)
            .unwrap();
        assert!(parse_release_bytes(&good[..good.len() - 1], &mut interner).is_err());
    }

    #[test]
    fn release_checksum_covers_the_party_id() {
        let p = params(64);
        let good = Party::new(7, vec![0.25; 64], Seed::new(2))
            .release_bytes(&p)
            .unwrap();
        let mut interner = TagInterner::new();
        assert!(parse_release_bytes(&good, &mut interner).is_ok());
        // A bit flip in the party_id (bytes 5..13, outside the embedded
        // sketch frame's own trailer) must not silently misattribute the
        // sketch: the outer frame checksum catches it.
        for byte in 5..13 {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert!(
                matches!(
                    parse_release_bytes(&bad, &mut interner),
                    Err(dp_core::error::CoreError::ChecksumMismatch { .. })
                ),
                "party_id byte {byte}"
            );
        }
    }

    #[test]
    fn pairwise_estimates_track_true_distances() {
        let d = 64;
        let p = params(d);
        // Average over protocol repetitions with fresh public seeds.
        let x0 = vec![0.0; d];
        let x1 = vec![1.0; d]; // ‖x0−x1‖² = 64
        let mut x2 = vec![0.0; d];
        x2[0] = 1.0; // ‖x0−x2‖² = 1, ‖x1−x2‖² = 63
        let mut d01 = Summary::new();
        let mut d02 = Summary::new();
        for rep in 0..400u64 {
            let config = p.config().clone();
            let pp = PublicParams::new(config, Seed::new(rep));
            let parties = [
                Party::new(0, x0.clone(), Seed::new(10 + rep)),
                Party::new(1, x1.clone(), Seed::new(20 + rep)),
                Party::new(2, x2.clone(), Seed::new(30 + rep)),
            ];
            let sketcher = pp.sketcher().unwrap();
            let releases: Vec<Release> = parties
                .iter()
                .map(|q| q.release_with(&sketcher).unwrap())
                .collect();
            let m = pairwise(&releases);
            d01.push(m.at(0, 1));
            d02.push(m.at(0, 2));
            assert_eq!(m.at(0, 1), m.at(1, 0), "symmetry");
            assert_eq!(m.at(0, 0), 0.0, "diagonal untouched");
        }
        assert!(
            (d01.mean() - 64.0).abs() / d01.stderr() < 4.0,
            "{}",
            d01.mean()
        );
        assert!(
            (d02.mean() - 1.0).abs() / d02.stderr() < 4.0,
            "{}",
            d02.mean()
        );
    }

    #[test]
    fn nearest_neighbor_finds_close_party() {
        let d = 256;
        let p = params(d);
        // Query near party 1, far from party 2.
        let query_vec = vec![1.0; d];
        let mut near = vec![1.0; d];
        near[0] = 0.0;
        let far = vec![-1.0; d];
        let query = Party::new(0, query_vec, Seed::new(1)).release(&p).unwrap();
        let candidates = vec![
            Party::new(1, near, Seed::new(2)).release(&p).unwrap(),
            Party::new(2, far, Seed::new(3)).release(&p).unwrap(),
        ];
        assert_eq!(nearest_neighbor(&query, &candidates).unwrap(), Some(1));
    }

    #[test]
    fn nearest_neighbor_excludes_self() {
        let d = 64;
        let p = params(d);
        let a = Party::new(0, vec![0.0; d], Seed::new(1))
            .release(&p)
            .unwrap();
        assert_eq!(
            nearest_neighbor(&a, std::slice::from_ref(&a)).unwrap(),
            None
        );
    }

    #[test]
    fn releases_are_noisy() {
        let p = params(64);
        let party = Party::new(0, vec![1.0; 64], Seed::new(5));
        let r = party.release(&p).unwrap();
        use dp_transforms::LinearTransform;
        let sketcher = p.sketcher().unwrap();
        let ones = vec![1.0; 64];
        let raw = sketcher
            .as_sjlt()
            .expect("default construction is the SJLT")
            .general()
            .transform()
            .apply(&ones)
            .unwrap();
        assert_ne!(r.sketch.values(), raw.as_slice(), "noise must be present");
    }

    #[test]
    fn protocol_is_construction_agnostic() {
        // The identical protocol code runs the baseline construction,
        // selected purely by the spec.
        let d = 64;
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(2.0)
            .delta(1e-6)
            .build()
            .unwrap();
        let p = PublicParams::with_construction(
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            config,
            Seed::new(11),
        );
        let parties = [
            Party::new(0, vec![0.0; d], Seed::new(1)),
            Party::new(1, vec![1.0; d], Seed::new(2)),
        ];
        let releases: Vec<Release> = parties.iter().map(|q| q.release(&p).unwrap()).collect();
        let m = pairwise(&releases);
        assert!(m.at(0, 1).is_finite());
        assert!(!p.sketcher().unwrap().guarantee().is_pure());
    }
}
