//! Round-trip and corruption tests for the wire protocol frames
//! (`dp_euclid::core::protocol`), mirroring the v2 sketch-codec suite
//! in `tests/wire_codec.rs`: every frame kind must round-trip
//! identically, re-encode byte-identically, and reject every
//! single-byte corruption; retired kinds must decode to a typed error.

use dp_euclid::core::error::CoreError;
use dp_euclid::core::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, CAP_SKETCH_F32, CAP_SNAPSHOT, CAP_TILE_STREAM, ERR_BUSY,
    ERR_DUPLICATE_PARTY, ERR_INCOMPATIBLE, ERR_INTERNAL, ERR_KERNEL, ERR_MALFORMED, ERR_PLAN,
    ERR_SPEC, ERR_SPEC_MISMATCH, ERR_UNKNOWN_PARTY, ERR_WORKER, PROTOCOL_VERSION, REQUEST_MAGIC,
    RESPONSE_MAGIC, SNAPSHOT_LAYER_JOURNAL, SNAPSHOT_LAYER_STORE,
};
use dp_euclid::core::release::Release;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;

fn sample_spec() -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(128)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(11))
}

fn sample_release() -> Release {
    let sketcher = sample_spec().build().expect("sketcher");
    Release {
        party_id: 7,
        sketch: sketcher
            .sketch(&vec![1.0; 128], Seed::new(3))
            .expect("sketch"),
    }
}

/// Every request kind, with realistic payloads (a real spec, a real
/// binary release frame).
fn all_requests() -> Vec<Request> {
    vec![
        Request::Hello {
            spec_json: sample_spec().to_json(),
            caps: dp_euclid::core::protocol::CAP_TILE_STREAM,
        },
        Request::Ingest {
            release_frame: sample_release().to_bytes().expect("bytes"),
        },
        Request::Pairwise {
            parties: vec![0, 7, 42],
        },
        Request::Pairwise { parties: vec![] },
        Request::Knn { party: 7, k: 5 },
        Request::TopPairs { t: 3 },
        Request::Shutdown,
        Request::PlanPairwise { tile: 64 },
        Request::ExecuteTilesStream {
            rows: 17,
            tile: 5,
            tile_ids: vec![2, 8],
        },
        Request::ExecuteTilesStream {
            rows: 0,
            tile: 1,
            tile_ids: vec![],
        },
        Request::FetchSnapshot {
            have_rows: 12,
            part_len: 0,
        },
        Request::SnapshotPart {
            seq: 0,
            layer: SNAPSHOT_LAYER_STORE,
            chunk: vec![0xde, 0xad, 0xbe, 0xef],
        },
        Request::SnapshotPart {
            seq: 3,
            layer: SNAPSHOT_LAYER_JOURNAL,
            chunk: vec![],
        },
        Request::SnapshotSummary {
            generation: 9,
            rows: 12,
            count: 4,
            total_len: 4096,
            checksum: 0xfeed_f00d_dead_beef,
        },
    ]
}

/// Every response kind, with awkward-but-legal values (negative
/// estimates, empty lists, unicode messages).
fn all_responses() -> Vec<Response> {
    vec![
        Response::Hello {
            k: 384,
            rows: 10,
            tag: "sjlt(k=384,s=24,seed=11,noise=laplace)".to_string(),
            caps: dp_euclid::core::protocol::CAP_TILE_STREAM,
        },
        Response::Ingested { row: 9, rows: 10 },
        Response::Pairwise {
            parties: vec![0, 7],
            values: vec![0.0, -1.25, -1.25, 0.0],
        },
        Response::Pairwise {
            parties: vec![],
            values: vec![],
        },
        Response::Knn {
            neighbors: vec![(42, -0.5), (0, 1e300)],
        },
        Response::Knn { neighbors: vec![] },
        Response::TopPairs {
            pairs: vec![(0, 7, -2.0), (7, 42, 3.5)],
        },
        Response::Error {
            code: ERR_UNKNOWN_PARTY,
            message: "party 9 übersehen".to_string(),
        },
        Response::Bye,
        Response::Plan {
            rows: 17,
            tile: 5,
            tile_count: 10,
            pair_count: 136,
        },
        Response::TileResultPart {
            rows: 17,
            tile: 5,
            segment: dp_euclid::core::TileSegment {
                tile_id: 0,
                values: vec![],
            },
        },
        Response::TileResultPart {
            rows: 17,
            tile: 5,
            segment: dp_euclid::core::TileSegment {
                tile_id: 8,
                values: vec![1.5, -0.25, 0.0],
            },
        },
        Response::TileResultSummary {
            rows: 17,
            tile: 5,
            count: 2,
            checksum: 0x0123_4567_89ab_cdef,
        },
        Response::SnapshotPart {
            seq: 1,
            layer: SNAPSHOT_LAYER_JOURNAL,
            chunk: vec![0x01, 0x02],
        },
        Response::SnapshotPart {
            seq: 0,
            layer: SNAPSHOT_LAYER_STORE,
            chunk: vec![],
        },
        Response::SnapshotSummary {
            generation: 5,
            rows: 17,
            count: 3,
            total_len: 12_345,
            checksum: 0x0bad_cafe_1234_5678,
        },
    ]
}

#[test]
fn every_request_roundtrips_byte_identically() {
    for req in all_requests() {
        let bytes = encode_request(&req).expect("encode");
        let back = decode_request(&bytes).expect("decode");
        assert_eq!(back, req);
        assert_eq!(encode_request(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn every_response_roundtrips_byte_identically() {
    for resp in all_responses() {
        let bytes = encode_response(&resp).expect("encode");
        let back = decode_response(&bytes).expect("decode");
        assert_eq!(back, resp);
        assert_eq!(encode_response(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn every_byte_corruption_of_every_request_is_rejected() {
    for req in all_requests() {
        let bytes = encode_request(&req).expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_request(&bad).is_err(), "{req:?}: byte {i} decoded");
        }
    }
}

#[test]
fn every_byte_corruption_of_every_response_is_rejected() {
    for resp in all_responses() {
        let bytes = encode_response(&resp).expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_response(&bad).is_err(), "{resp:?}: byte {i} decoded");
        }
    }
}

#[test]
fn truncation_and_direction_confusion_rejected() {
    let req = encode_request(&Request::Knn { party: 1, k: 2 }).expect("encode");
    for cut in 0..req.len() {
        assert!(decode_request(&req[..cut]).is_err(), "cut at {cut}");
    }
    // A request payload is not a response and vice versa.
    assert!(decode_response(&req).is_err());
    let resp = encode_response(&Response::Error {
        code: ERR_DUPLICATE_PARTY,
        message: "dup".to_string(),
    })
    .expect("encode");
    assert!(decode_request(&resp).is_err());
}

/// A sealed payload: magic, the current version, `kind`, `body`, and
/// the FNV-1a-64 trailer — exactly what an encoder emits.
fn sealed_frame(magic: [u8; 4], kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(body);
    let checksum = dp_euclid::core::wire::fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

#[test]
fn retired_tile_kinds_decode_to_a_typed_error() {
    // Request kind 8 was the monolithic ExecuteTiles: rows, tile, then
    // an id list — byte for byte the body of today's kind 9, so a
    // decoder folding 8 into 9 would silently accept it.
    let mut body = 17u64.to_le_bytes().to_vec();
    body.extend_from_slice(&5u32.to_le_bytes());
    body.extend_from_slice(&2u32.to_le_bytes());
    for id in [3u64, 0] {
        body.extend_from_slice(&id.to_le_bytes());
    }
    let retired = sealed_frame(REQUEST_MAGIC, 8, &body);
    match decode_request(&retired) {
        Err(CoreError::Wire(message)) => {
            assert!(message.contains("unknown request kind 8"), "{message}");
        }
        other => panic!("retired request kind 8 decoded as {other:?}"),
    }
    // The identical body under the live streamed kind still decodes.
    assert!(matches!(
        decode_request(&sealed_frame(REQUEST_MAGIC, 9, &body)),
        Ok(Request::ExecuteTilesStream {
            rows: 17,
            tile: 5,
            ..
        })
    ));

    // Response kind 9 was the monolithic TileResult: rows, tile, then
    // a segment list of (tile id, value list).
    let mut body = 17u64.to_le_bytes().to_vec();
    body.extend_from_slice(&5u32.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&3u64.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&(-0.75f64).to_le_bytes());
    let retired = sealed_frame(RESPONSE_MAGIC, 9, &body);
    match decode_response(&retired) {
        Err(CoreError::Wire(message)) => {
            assert!(message.contains("unknown response kind 9"), "{message}");
        }
        other => panic!("retired response kind 9 decoded as {other:?}"),
    }
    // Whatever the body, a retired kind is the same typed error — with
    // an empty body, a truncated one, or a hostile count.
    for body in [&[][..], &[0xff; 3][..], &[0xff; 64][..]] {
        assert!(matches!(
            decode_request(&sealed_frame(REQUEST_MAGIC, 8, body)),
            Err(CoreError::Wire(_))
        ));
        assert!(matches!(
            decode_response(&sealed_frame(RESPONSE_MAGIC, 9, body)),
            Err(CoreError::Wire(_))
        ));
    }
}

#[test]
fn embedded_release_survives_the_protocol_frame() {
    // The nested DPRL frame travels opaquely and decodes to the same
    // release on the far side, through a shared interner.
    let release = sample_release();
    let req = Request::Ingest {
        release_frame: release.to_bytes().expect("bytes"),
    };
    let bytes = encode_request(&req).expect("encode");
    let Request::Ingest { release_frame } = decode_request(&bytes).expect("decode") else {
        panic!("wrong kind");
    };
    let mut interner = dp_euclid::core::wire::TagInterner::new();
    let back = dp_euclid::core::release::parse_release_bytes(&release_frame, &mut interner)
        .expect("nested release");
    assert_eq!(back, release);
}

/// Every error code the protocol defines, in declaration order. A new
/// `ERR_*` const must be added here (and to the README table) — the
/// density assertion below and the dp-lint protocol rule both fail
/// otherwise.
const ALL_ERR_CODES: [(u16, &str); 11] = [
    (ERR_SPEC, "ERR_SPEC"),
    (ERR_SPEC_MISMATCH, "ERR_SPEC_MISMATCH"),
    (ERR_INCOMPATIBLE, "ERR_INCOMPATIBLE"),
    (ERR_DUPLICATE_PARTY, "ERR_DUPLICATE_PARTY"),
    (ERR_UNKNOWN_PARTY, "ERR_UNKNOWN_PARTY"),
    (ERR_MALFORMED, "ERR_MALFORMED"),
    (ERR_INTERNAL, "ERR_INTERNAL"),
    (ERR_PLAN, "ERR_PLAN"),
    (ERR_WORKER, "ERR_WORKER"),
    (ERR_BUSY, "ERR_BUSY"),
    (ERR_KERNEL, "ERR_KERNEL"),
];

#[test]
fn error_codes_are_dense_and_each_roundtrips() {
    // Codes are 1..=N with no gaps or collisions: a new code slots in
    // at the end and never reuses a retired number.
    for (i, (code, name)) in ALL_ERR_CODES.iter().enumerate() {
        assert_eq!(*code, i as u16 + 1, "{name} out of sequence");
    }
    for (code, name) in ALL_ERR_CODES {
        let resp = Response::Error {
            code,
            message: format!("{name} carried verbatim"),
        };
        let bytes = encode_response(&resp).expect("encode");
        let back = decode_response(&bytes).expect("decode");
        assert_eq!(back, resp, "{name}");
    }
}

#[test]
fn corrupting_the_error_code_field_is_rejected() {
    // The u16 code sits at payload bytes 6..8 (magic 4, version 1,
    // kind 1). Flipping it must trip the frame checksum — an error
    // frame that silently mutates into a *different* error would
    // misroute fleet recovery (e.g. ERR_KERNEL → ERR_SPEC_MISMATCH).
    for (code, name) in ALL_ERR_CODES {
        let bytes = encode_response(&Response::Error {
            code,
            message: "x".to_string(),
        })
        .expect("encode");
        for offset in [6usize, 7] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(
                decode_response(&bad).is_err(),
                "{name}: corrupted code byte {offset} decoded"
            );
        }
    }
}

#[test]
fn hello_caps_roundtrip_all_advertised_bits() {
    // Both capability bits survive both directions, independently and
    // together (a dropped bit silently downgrades the connection to
    // the slow path).
    for caps in [
        0,
        CAP_TILE_STREAM,
        CAP_SKETCH_F32,
        CAP_SNAPSHOT,
        CAP_TILE_STREAM | CAP_SKETCH_F32,
        CAP_TILE_STREAM | CAP_SKETCH_F32 | CAP_SNAPSHOT,
    ] {
        let req = Request::Hello {
            spec_json: sample_spec().to_json(),
            caps,
        };
        let bytes = encode_request(&req).expect("encode");
        assert_eq!(decode_request(&bytes).expect("decode"), req);

        let resp = Response::Hello {
            k: 384,
            rows: 0,
            tag: "t".to_string(),
            caps,
        };
        let bytes = encode_response(&resp).expect("encode");
        assert_eq!(decode_response(&bytes).expect("decode"), resp);
    }
}

#[test]
fn stream_framing_roundtrips_mixed_frames() {
    // A realistic conversation written to one buffer and read back.
    let mut buf = Vec::new();
    for req in all_requests() {
        write_frame(&mut buf, &encode_request(&req).expect("encode")).expect("write");
    }
    for resp in all_responses() {
        write_frame(&mut buf, &encode_response(&resp).expect("encode")).expect("write");
    }
    let mut cursor = std::io::Cursor::new(buf);
    for req in all_requests() {
        let payload = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(decode_request(&payload).expect("decode"), req);
    }
    for resp in all_responses() {
        let payload = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(decode_response(&payload).expect("decode"), resp);
    }
    assert!(read_frame(&mut cursor).expect("eof").is_none());
}
