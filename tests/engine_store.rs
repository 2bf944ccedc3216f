//! Integration tests of the `dp-engine` query layer over protocol
//! releases: repeated ingest must never grow the tag interner,
//! incremental queries must be bit-identical to cold ones, and the
//! snapshot's point queries must agree with its matrix.

use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;

fn params(d: usize) -> PublicParams {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    PublicParams::new(config, Seed::new(31))
}

fn releases(p: &PublicParams, n: usize) -> Vec<Release> {
    let sketcher = p.sketcher().expect("sketcher");
    (0..n as u64)
        .map(|i| {
            let d = p.config().input_dim();
            let data: Vec<f64> = (0..d).map(|j| ((i as usize + j) % 5) as f64).collect();
            Party::new(i, data, Seed::new(600 + i))
                .release_with(&sketcher)
                .expect("release")
        })
        .collect()
}

#[test]
fn repeated_ingest_never_grows_the_interner() {
    let p = params(64);
    let rs = releases(&p, 12);
    let wire: Vec<Vec<u8>> = rs.iter().map(|r| r.to_bytes().expect("bytes")).collect();
    let mut engine = QueryEngine::new(SketchStore::with_spec(p.spec().clone()).expect("store"));
    // The spec itself interned the tag once; ingesting any number of
    // frames through the store's decode path must not add to that.
    assert_eq!(engine.store().interner_len(), 1);
    for bytes in &wire {
        engine.ingest_bytes(bytes).expect("ingest");
        assert_eq!(engine.store().interner_len(), 1);
    }
    assert_eq!(engine.store().n(), 12);
    // Decoding adjacent payloads through the store's shared interner
    // (instead of a private one) keeps the count at one too.
    let extra = releases(&p, 1);
    let extra_bytes = extra[0].to_bytes().expect("bytes");
    let parsed =
        dp_euclid::stream::parse_release_bytes(&extra_bytes, engine.store_mut().interner_mut())
            .expect("parse");
    assert_eq!(parsed.party_id, 0);
    assert_eq!(engine.store().interner_len(), 1);
}

#[test]
fn engine_is_incremental_across_ingest_waves() {
    // Ingest in three waves with queries in between; the final matrix
    // must equal a cold one-shot engine's bit for bit.
    let p = params(96);
    let rs = releases(&p, 10);
    let mut cold = QueryEngine::new(SketchStore::adopting());
    cold.ingest_batch(&rs).expect("ingest");
    let oneshot = cold.pairwise_all();
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in &rs[..2] {
        engine.ingest(r).expect("ingest");
    }
    let first = engine.pairwise_all();
    assert_eq!(first.n(), 2);
    for r in &rs[2..6] {
        engine.ingest(r).expect("ingest");
    }
    assert_eq!(engine.pairwise_all().n(), 6);
    for r in &rs[6..] {
        engine.ingest(r).expect("ingest");
    }
    let full = engine.pairwise_all();
    for (a, b) in oneshot.as_flat().iter().zip(full.as_flat()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // The early 2×2 block is literally a sub-block of the final matrix.
    for i in 0..2 {
        for j in 0..2 {
            assert_eq!(first.at(i, j).to_bits(), full.at(i, j).to_bits());
        }
    }
}

#[test]
fn knn_and_top_pairs_agree_with_the_matrix() {
    let p = params(64);
    let rs = releases(&p, 7);
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in &rs {
        engine.ingest(r).expect("ingest");
    }
    let matrix = engine.pairwise_all();
    let snap = engine.snapshot();
    // top_pairs reports matrix entries, ascending.
    let top = snap.top_pairs(21).expect("warm memo");
    assert_eq!(top.len(), 21);
    for w in top.windows(2) {
        assert!(w[0].2 <= w[1].2);
    }
    for &(a, b, d) in &top {
        assert_eq!(d.to_bits(), matrix.at(a as usize, b as usize).to_bits());
    }
    // knn's neighbor set for party 0 is everyone else, each scored
    // exactly as its matrix entry.
    let nn = snap.knn(0, 100).expect("knn");
    assert_eq!(nn.len(), 6);
    for n in &nn {
        assert_eq!(
            n.estimated_sq_distance.to_bits(),
            matrix.at(0, n.party_id as usize).to_bits()
        );
    }
    assert_eq!(matrix.n(), 7);
    // Every engine ranking matches the per-release `top_k` helper's.
    for q in &rs {
        let ids = |ns: Vec<Neighbor>| ns.into_iter().map(|n| n.party_id).collect::<Vec<_>>();
        assert_eq!(
            ids(snap.knn(q.party_id, rs.len()).expect("knn")),
            ids(dp_euclid::stream::knn::top_k(q, &rs, rs.len()).expect("top_k")),
            "query {}",
            q.party_id
        );
    }
}
