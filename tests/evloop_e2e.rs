//! End-to-end tests of the event-loop server beyond the request kinds
//! `server_e2e.rs` pins: the tile surface (plan, monolithic and
//! streamed execution) must match the in-process engine; bulk streams
//! (`FetchSnapshot`, `ExecuteTilesStream`) larger than the write
//! budget must go out as pulled streams, bit-identical to the engine;
//! a single oversized frame must surface as the typed `ERR_BUSY`; and
//! a wedged client must never block a loop.

use dp_euclid::core::protocol::{ERR_BUSY, SNAPSHOT_LAYER_STORE};
use dp_euclid::core::release::Release;
use dp_euclid::core::TilePlan;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{connect, Client, ClientError, Endpoint, NetConfig, Server};
use std::io::Write;
use std::time::{Duration, Instant};

fn spec(d: usize) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(987))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((5 * i + j) % 11) as f64 - 5.0).collect())
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(321))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 40 + i as u64,
            sketch,
        })
        .collect()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits differ");
    }
}

#[test]
fn evloop_client_surface_works_end_to_end() {
    // The blocking Client speaks to the reactor — including the
    // streamed tile exchange with its digest verification — and the
    // tile surface answers exactly what the in-process engine does.
    let spec = spec(64);
    let rs = releases(&spec, 5);
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    reference.ingest_batch(&rs).expect("ingest");
    let plan = TilePlan::new(rs.len(), 2);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(3));
        let mut client = Client::connect(&endpoint).expect("connect");
        let (_, rows, _) = client.hello(&spec).expect("hello");
        assert_eq!(rows, 0);
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        let (rows, tile, tile_count, pair_count) = client.plan_pairwise(2).expect("plan");
        assert_eq!((rows, tile), (rs.len() as u64, 2));
        assert_eq!(tile_count, plan.tile_count() as u64);
        assert_eq!(pair_count, plan.pair_count() as u64);
        let ids: Vec<u64> = (0..tile_count).collect();
        let local = reference.execute_tiles(rs.len(), 2, &ids).expect("local");
        let mut segments = Vec::new();
        let parts = client
            .execute_tiles_streamed(rows, tile, &ids, &mut |s| segments.push(s))
            .expect("stream");
        assert_eq!(parts, tile_count);
        assert_eq!(segments, local);
        let monolithic = client.execute_tiles(rows, tile, &ids).expect("monolithic");
        assert_eq!(monolithic, local);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
}

#[test]
fn oversized_reply_answers_err_busy_and_connection_survives() {
    let spec = spec(64);
    let rs = releases(&spec, 8);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    // A write budget far below the full 8×8 matrix reply (but above
    // every control/point reply).
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting()))
        .expect("bind")
        .with_net_config(NetConfig {
            write_budget: 300,
            ..NetConfig::default()
        });
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        // The full matrix cannot fit the budget: typed overload, not a
        // hangup and not an unbounded buffer.
        match client.pairwise(&[]) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ERR_BUSY),
            other => panic!("expected ERR_BUSY, got {other:?}"),
        }
        // The same connection keeps serving answers that do fit.
        let (ids, values) = client
            .pairwise(&[rs[1].party_id, rs[6].party_id])
            .expect("subset still served");
        assert_eq!(ids.len(), 2);
        assert_eq!(values.len(), 4);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        let stats = server.stats();
        assert!(
            stats.reactor.busy_rejections >= 1,
            "busy rejection not counted: {stats:?}"
        );
    });
}

#[test]
fn stats_expose_epoch_and_frame_counters() {
    let spec = spec(64);
    let rs = releases(&spec, 3);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    assert_eq!(server.stats().snapshot_epoch, 1, "bind publishes epoch 1");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(2));
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        client.knn(rs[0].party_id, 2).expect("knn");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    let stats = server.stats();
    // Hello (spec adoption) + 3 ingests, each an effective mutation.
    assert_eq!(stats.snapshot_epoch, 5, "{stats:?}");
    // Hello + 3 ingests + knn + shutdown, one reply frame each.
    assert_eq!(stats.reactor.frames_in, 6, "{stats:?}");
    assert_eq!(stats.reactor.frames_out, 6, "{stats:?}");
    assert_eq!(stats.reactor.open_connections, 0, "{stats:?}");
    assert_eq!(stats.reactor.accepted, 1, "{stats:?}");
    assert!(stats.coordinator.is_none());
}

/// Bulk replies far larger than the write budget go out as pulled
/// streams — every frame fits, the stream as a whole does not — and
/// decode to exactly what the in-process engine holds.
#[test]
fn fetch_snapshot_and_tile_streams_outgrow_a_small_write_budget() {
    const BUDGET: usize = 1024;
    let spec = spec(64);
    let rs = releases(&spec, 32);
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        reference.ingest(r).expect("ingest");
    }
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting()))
        .expect("bind")
        .with_net_config(NetConfig {
            write_budget: BUDGET,
            ..NetConfig::default()
        });
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }

        // The whole store, in half-budget parts.
        let mut image = Vec::new();
        let (_, rows, parts) = client
            .fetch_snapshot(0, 512, &mut |layer, chunk| {
                assert_eq!(layer, SNAPSHOT_LAYER_STORE);
                image.extend_from_slice(&chunk);
            })
            .expect("snapshot stream");
        assert_eq!(rows, rs.len() as u64);
        assert!(image.len() > 4 * BUDGET, "stream of {} bytes", image.len());
        assert_eq!(parts as usize, image.len().div_ceil(512));
        let (store, _) = SketchStore::decode_snapshot(&image).expect("decode image");
        assert!(store.party_ids().eq(reference.store().party_ids()));
        let mut replica = QueryEngine::new(store);
        assert_bits(
            replica.pairwise_all().as_flat(),
            reference.pairwise_all().as_flat(),
            "replica matrix",
        );

        // Every tile of a side-2 plan, one small part per tile.
        let (rows, tile, tile_count, _) = client.plan_pairwise(2).expect("plan");
        let ids: Vec<u64> = (0..tile_count).collect();
        let mut segments = Vec::new();
        let streamed = client
            .execute_tiles_streamed(rows, tile, &ids, &mut |segment| segments.push(segment))
            .expect("tile stream");
        assert_eq!(streamed, tile_count);
        let local = reference
            .execute_tiles(rs.len(), 2, &ids)
            .expect("local tiles");
        assert_eq!(segments, local);
        let values: usize = local.iter().map(|s| s.values.len()).sum();
        assert!(8 * values > BUDGET, "tile stream of {values} values");

        // The connection is still in step afterwards.
        assert_eq!(client.knn(rs[0].party_id, 2).expect("knn").len(), 2);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    assert_eq!(server.stats().reactor.busy_rejections, 0);
}

/// The default budget admits any frame the protocol admits: a full
/// matrix just over 8 MiB (the old default budget) is served whole.
#[test]
fn default_budget_serves_a_full_matrix_over_8_mib() {
    let config = SketchConfig::builder()
        .input_dim(8)
        .alpha(0.4)
        .beta(0.2)
        .epsilon(2.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(55));
    let rs = releases(&spec, 1100);
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    reference.ingest_batch(&rs).expect("ingest");
    let matrix = reference.pairwise_all();
    assert!(8 * matrix.as_flat().len() > 8 << 20);

    let mut served = QueryEngine::new(SketchStore::with_spec(spec).expect("store"));
    served.ingest_batch(&rs).expect("ingest");
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, served).expect("bind");
    let endpoint = server.local_endpoint();
    let answer = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let mut client = Client::connect(&endpoint).expect("connect");
        let answer = client.pairwise(&[]);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        answer
    });
    let (parties, values) = answer.expect("full matrix");
    assert_eq!(parties, reference.store().party_ids().collect::<Vec<_>>());
    assert_bits(&values, matrix.as_flat(), "full matrix");
}

#[test]
fn wedged_connection_does_not_block_a_single_loop() {
    // A half-open client costs the event loop only a buffer: with a
    // single loop, a healthy client must still be served at once.
    let spec = spec(64);
    let rs = releases(&spec, 2);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        // The wedge: a partial frame header, then silence.
        let mut wedged = connect(&endpoint).expect("connect wedged");
        wedged.write_all(&[7, 0]).expect("partial header");
        // A healthy client on the same (only) loop is served at once.
        let started = Instant::now();
        let mut client = Client::connect(&endpoint).expect("connect healthy");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "wedged client blocks the loop: {:?}",
            started.elapsed()
        );
        // Shutdown is not held up by the wedge either.
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        drop(wedged);
    });
}
