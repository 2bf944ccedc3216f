//! Integration tests of the multi-party protocol over the wire (binary
//! and JSON), including construction selection purely via `SketcherSpec`,
//! streaming parties, and privacy accounting across releases.

use dp_euclid::core::variance::var_sjlt_laplace;
use dp_euclid::core::wire::TagInterner;
use dp_euclid::hashing::Seed;
use dp_euclid::noise::mechanism::LaplaceMechanism;
use dp_euclid::prelude::*;
use dp_euclid::stream::distributed::{parse_release, parse_release_bytes, Release};
use dp_euclid::transforms::sjlt::Sjlt;
use dp_euclid::transforms::LinearTransform;

/// What an observer computes from the releases alone: every pairwise
/// estimate, in release order.
fn pairwise(releases: &[Release]) -> std::sync::Arc<PairwiseDistances> {
    let mut engine = QueryEngine::new(SketchStore::adopting());
    engine.ingest_batch(releases).expect("ingest");
    engine.pairwise_all()
}

fn params(d: usize) -> PublicParams {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.2)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("config");
    PublicParams::new(config, Seed::new(1234))
}

#[test]
fn full_protocol_over_the_wire() {
    let d = 256;
    let p = params(d);
    let vectors: Vec<Vec<f64>> = (0..4)
        .map(|i| {
            (0..d)
                .map(|j| f64::from(u8::from(j % (i + 2) == 0)))
                .collect()
        })
        .collect();
    let parties: Vec<Party> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| Party::new(i as u64, v.clone(), Seed::new(500 + i as u64)))
        .collect();

    // Wire roundtrip for every party (binary path with tag interning).
    let mut interner = TagInterner::new();
    let releases: Vec<Release> = parties
        .iter()
        .map(|q| {
            parse_release_bytes(&q.release_bytes(&p).expect("bytes"), &mut interner).expect("parse")
        })
        .collect();
    assert_eq!(interner.len(), 1, "one shared transform tag");

    let est = pairwise(&releases);
    // Single-shot estimates: gate on the construction's own predicted
    // standard deviation (noise dominates at eps = 1 and small dists).
    let sketcher = p.sketcher().expect("sketcher");
    for i in 0..4 {
        for j in 0..4 {
            if i == j {
                assert_eq!(est.at(i, j), 0.0);
            } else {
                let true_d = dp_euclid::linalg::vector::sq_distance(&vectors[i], &vectors[j]);
                let sd = sketcher.predicted_variance(true_d).predicted_stddev();
                assert!(
                    (est.at(i, j) - true_d).abs() < 6.0 * sd,
                    "({i},{j}): est {} vs true {true_d} (sd {sd})",
                    est.at(i, j)
                );
            }
        }
    }
}

#[test]
fn protocol_runs_multiple_constructions_selected_by_spec() {
    // Acceptance: the identical multi-party protocol code runs both the
    // SJLT+Laplace headline construction and the Kenthapadi baseline,
    // selected PURELY via `SketcherSpec` (distributed as JSON), and the
    // binary codec round-trips releases byte-identically.
    let d = 128;
    let pure_config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let approx_config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .delta(1e-6)
        .build()
        .expect("config");
    let specs = [
        SketcherSpec::new(Construction::SjltLaplace, pure_config, Seed::new(31)),
        SketcherSpec::new(
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            approx_config,
            Seed::new(32),
        ),
    ];

    let x0 = vec![0.0; d];
    let x1 = vec![2.0; d]; // ‖x0−x1‖² = 4d
    for spec in &specs {
        // The spec travels to every party as JSON; each party rebuilds
        // its own sketcher from the received text.
        let wire_spec = spec.to_json();
        let p = PublicParams::from_spec(SketcherSpec::from_json(&wire_spec).expect("spec parses"));
        let parties = [
            Party::new(0, x0.clone(), Seed::new(700)),
            Party::new(1, x1.clone(), Seed::new(701)),
        ];
        let blobs: Vec<Vec<u8>> = parties
            .iter()
            .map(|q| q.release_bytes(&p).expect("release"))
            .collect();
        let mut interner = TagInterner::new();
        let releases: Vec<Release> = blobs
            .iter()
            .map(|b| parse_release_bytes(b, &mut interner).expect("parse"))
            .collect();
        // Byte-identical binary round-trip.
        for (release, blob) in releases.iter().zip(&blobs) {
            assert_eq!(&release.to_bytes().expect("re-encode"), blob);
        }
        // The observer estimates from releases alone, gated on the
        // construction's own predicted deviation.
        let m = pairwise(&releases);
        let true_d = 4.0 * d as f64;
        let sketcher = p.sketcher().expect("sketcher");
        let sd = sketcher.predicted_variance(true_d).predicted_stddev();
        assert!(
            (m.at(0, 1) - true_d).abs() < 6.0 * sd,
            "{}: est {} vs true {true_d} (sd {sd})",
            spec.construction().name(),
            m.at(0, 1)
        );
    }

    // The two constructions' guarantees differ as the paper says.
    assert!(specs[0].build().expect("sjlt").guarantee().is_pure());
    assert!(!specs[1].build().expect("baseline").guarantee().is_pure());

    // Releases from different constructions must never combine.
    let a = Party::new(0, x0, Seed::new(800))
        .release(&PublicParams::from_spec(specs[0].clone()))
        .expect("release");
    let b = Party::new(1, x1, Seed::new(801))
        .release(&PublicParams::from_spec(specs[1].clone()))
        .expect("release");
    assert!(a.sketch.estimate_sq_distance(&b.sketch).is_err());
}

#[test]
fn streaming_party_interoperates_with_batch_party() {
    // One party maintains its vector as a stream, the other sketches in
    // batch; their releases must interoperate because both are built on
    // the same public transform.
    let d = 512;
    let params = JlParams::new(0.2, 0.05).expect("params");
    let (k, s, t) = (params.k_for_sjlt(), params.s(), params.independence());
    let transform = Sjlt::new(d, k, s, t, Seed::new(9)).expect("sjlt");
    let mech = LaplaceMechanism::new(transform.l1_sensitivity(), 1.0).expect("mech");

    let x: Vec<f64> = (0..d).map(|j| f64::from(u8::from(j % 3 == 0))).collect();
    let y: Vec<f64> = (0..d).map(|j| f64::from(u8::from(j % 4 == 0))).collect();

    // Streaming side.
    let mut stream = StreamingSketch::new(transform.clone(), "shared".to_string());
    for (j, &v) in x.iter().enumerate() {
        if v != 0.0 {
            stream.update(j, v).expect("update");
        }
    }
    let rel_stream = stream.release(&mech, Seed::new(11));

    // Batch side (same tag, same transform, own noise seed).
    let mut batch = StreamingSketch::new(transform, "shared".to_string());
    batch.absorb_dense(&y).expect("absorb");
    let rel_batch = batch.release(&mech, Seed::new(22));

    let est = rel_stream
        .estimate_sq_distance(&rel_batch)
        .expect("compatible");
    let true_d = dp_euclid::linalg::vector::sq_distance(&x, &y);
    let sd = var_sjlt_laplace(k, s, 1.0, true_d, 0.0).sqrt();
    assert!(
        (est - true_d).abs() < 6.0 * sd,
        "est {est} vs true {true_d} (sd {sd})"
    );
}

#[test]
fn streaming_party_releases_through_the_trait() {
    // A streaming party can also release via the shared sketcher itself,
    // producing sketches that combine with ordinary batch releases.
    let d = 128;
    let p = params(d);
    let sketcher = p.sketcher().expect("sketcher");
    let transform = sketcher
        .as_sjlt()
        .expect("headline construction")
        .general()
        .transform()
        .clone();

    let x: Vec<f64> = (0..d).map(|j| f64::from(u8::from(j % 5 == 0))).collect();
    let mut stream = StreamingSketch::new(transform, sketcher.tag().to_string());
    stream.absorb_dense(&x).expect("absorb");
    let streamed = stream
        .release_via(&sketcher, Seed::new(41))
        .expect("release");

    let batch_party = Party::new(9, vec![0.0; d], Seed::new(42));
    let batch = batch_party.release(&p).expect("release");
    let est = streamed
        .estimate_sq_distance(&batch.sketch)
        .expect("same spec, combinable");
    assert!(est.is_finite());
}

#[test]
fn releases_compose_for_accounting() {
    let d = 64;
    let p = params(d);
    let sketcher = p.sketcher().expect("sketcher");
    // Two releases of the same data consume 2ε under basic composition.
    let g1 = sketcher.guarantee();
    let total = g1.compose(&g1);
    assert!((total.epsilon() - 2.0 * g1.epsilon()).abs() < 1e-12);
    assert!(total.is_pure(), "pure DP composes to pure DP");
    // Advanced composition beats basic for many releases of a SMALL-eps
    // mechanism (for eps ~ 1 the e^eps - 1 term makes basic win).
    let small = dp_euclid::noise::PrivacyGuarantee::pure(0.05).expect("guarantee");
    let many_basic = small.compose_n(200);
    let many_adv = small.compose_advanced(200, 1e-9).expect("advanced");
    assert!(many_adv.epsilon() < many_basic.epsilon());
}

#[test]
fn malicious_wire_inputs_rejected() {
    assert!(parse_release("").is_err());
    assert!(parse_release("42").is_err());
    assert!(parse_release(r#"{"party_id": 1}"#).is_err());
    let mut interner = TagInterner::new();
    assert!(parse_release_bytes(b"", &mut interner).is_err());
    assert!(parse_release_bytes(b"DPRL", &mut interner).is_err());
    assert!(
        parse_release_bytes(b"DPNS\x01\x00\x00\x00\x00\x00\x00\x00\x00", &mut interner).is_err()
    );
}
