//! Per-layer metrics of a traced run.
//!
//! The traced pass records client-side spans (sketch, request encode,
//! socket round trip, response decode). Server-side layers get their
//! own times by replaying every op in-process, in start order, against a
//! replica decoded from the same snapshot: request decode, engine
//! mutation (store ingest + snapshot publish), snapshot refresh, knn /
//! pair, the kernel over the knn's candidate rows, and response encode.
//! Each replayed response must equal the server's bytes exactly.
//!
//! `server.unattributed_us.<op>` is the traced round trip minus the
//! `PlanPairwise` round trip (`net.rtt_us`), the server-side codec spans
//! and the engine spans, so for each op kind the layers add up to the
//! traced end-to-end latency by construction.

use crate::metrics::{latencies_ms, tails, Metric};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{durations, self_times, Span, Tracer};
use crate::workload::{Op, OpRecord, PassResult, Workload};
use crate::{check, inputs::Inputs};
use dp_core::kernel::sq_distance;
use dp_core::protocol::{decode_request, encode_response, Request, Response};
use dp_engine::SketchStore;
use std::collections::HashMap;
use std::time::Instant;

/// Op kinds with per-kind layer metrics.
pub const KINDS: [&str; 3] = ["release", "knn", "pair"];

/// Spans that are engine work on the server's request path.
const ENGINE_SPANS: [&str; 4] = [
    "snapshot.mutate",
    "snapshot.refresh",
    "engine.knn",
    "engine.pair",
];

/// Span id used for work outside any op (snapshot decode).
const NO_OP: u64 = u64::MAX;

/// What the replay measured besides spans.
#[derive(Debug, Default)]
struct Counts {
    kernel_pairs: Vec<f64>,
    mismatches: Vec<(u64, String)>,
    rows: usize,
    decode_snapshot_ms: f64,
}

/// The replica and the read snapshot the replay answers from.
struct Replica {
    engine: dp_engine::SharedEngine,
    cached: std::sync::Arc<dp_engine::EngineSnapshot>,
    fresh: bool,
    kernel: dp_core::kernel::KernelId,
}

/// Replay every successful op of the traced pass; returns replay spans.
/// An op whose replay fails or whose replayed response differs from the
/// server's bytes is recorded in `counts.mismatches`. With
/// `racing_reads` (open-loop workloads) a read may have been answered at
/// a different epoch than its start-order position, so only release
/// responses must match the server's bytes.
///
/// # Errors
/// When the preload snapshot does not decode.
fn replay(
    inputs: &Inputs,
    records: &[OpRecord],
    racing_reads: bool,
    counts: &mut Counts,
) -> Result<Vec<Span>, String> {
    let mut tr = Tracer::new(Instant::now());
    let mut decode_ms = Vec::new();
    for _ in 0..3 {
        let t = tr.open("store.decode_snapshot", NO_OP, None);
        SketchStore::decode_snapshot(&inputs.snapshot).map_err(|e| format!("decode: {e}"))?;
        tr.close(t);
        decode_ms.push(tr.spans()[t].duration_ns() as f64 / 1e6);
    }
    counts.decode_snapshot_ms = median(&decode_ms);
    let engine = check::replica(inputs)?;
    let mut replica = Replica {
        cached: engine.snapshot(),
        engine,
        fresh: true,
        kernel: inputs.spec.kernel(),
    };
    let mut ordered: Vec<&OpRecord> = records
        .iter()
        .filter(|r| r.outcome.is_ok() && r.op != Op::Plan)
        .collect();
    ordered.sort_by_key(|r| (r.timing.start_ns, r.id));
    for rec in ordered {
        let root = tr.open(replay_name(rec.op), rec.id, None);
        let replayed = replay_op(&mut tr, root, rec, &mut replica, counts);
        tr.close(root);
        match replayed {
            Err(e) => counts.mismatches.push((rec.id, e)),
            Ok(bytes) if bytes != rec.response && !(racing_reads && rec.op.is_read()) => {
                counts.mismatches.push((
                    rec.id,
                    "replayed response differs from the server's bytes".into(),
                ))
            }
            Ok(_) => {}
        }
    }
    counts.rows = replica.engine.snapshot().n();
    Ok(tr.into_spans())
}

/// Replay one op under span `root`; returns the encoded response.
fn replay_op(
    tr: &mut Tracer,
    root: usize,
    rec: &OpRecord,
    replica: &mut Replica,
    counts: &mut Counts,
) -> Result<Vec<u8>, String> {
    let id = rec.id;
    let request = tr
        .time("protocol.decode_request", id, Some(root), || {
            decode_request(&rec.request)
        })
        .map_err(|e| format!("replay decode: {e}"))?;
    let response = match (rec.op, request) {
        (Op::Release(_), Request::Ingest { release_frame }) => {
            let m = tr.open("snapshot.mutate", id, Some(root));
            let accepted = replica.engine.mutate(|engine| {
                let out = tr.time("store.ingest_bytes", id, Some(m), || {
                    engine.ingest_bytes(&release_frame)
                });
                out.map(|row| (row as u64, engine.store().n() as u64))
            });
            tr.close(m);
            let (row, rows) = accepted.map_err(|e| format!("replay ingest refused: {e}"))?;
            Response::Ingested { row, rows }
        }
        (Op::Knn(party), Request::Knn { k, .. }) => {
            refresh(tr, id, root, replica);
            let cached = &replica.cached;
            let neighbors = tr
                .time("engine.knn", id, Some(root), || {
                    cached.knn(party, k as usize)
                })
                .map_err(|e| format!("replay knn: {e}"))?;
            let store = cached.store();
            let q = store
                .row_of(party)
                .ok_or_else(|| format!("replay knn: party {party} is not stored"))?;
            let query = store.row_values(q);
            let kernel = replica.kernel;
            let pairs = tr.time("kernel.sq_distance", id, Some(root), || {
                let mut sum = 0.0;
                let mut pairs = 0usize;
                for c in (0..store.n()).filter(|&c| store.party_at(c) != party) {
                    sum += sq_distance(kernel, query, store.row_values(c));
                    pairs += 1;
                }
                std::hint::black_box(sum);
                pairs
            });
            counts.kernel_pairs.push(pairs as f64);
            Response::Knn {
                neighbors: neighbors
                    .into_iter()
                    .map(|n| (n.party_id, n.estimated_sq_distance))
                    .collect(),
            }
        }
        (Op::Pair(..), Request::Pairwise { parties }) => {
            refresh(tr, id, root, replica);
            let cached = &replica.cached;
            let matrix = tr
                .time("engine.pair", id, Some(root), || cached.pairwise(&parties))
                .map_err(|e| format!("replay pair: {e}"))?;
            Response::Pairwise {
                parties,
                values: matrix.into_flat(),
            }
        }
        _ => return Err(format!("request does not match {:?}", rec.op)),
    };
    tr.time("protocol.encode_response", id, Some(root), || {
        encode_response(&response)
    })
    .map_err(|e| format!("replay encode: {e}"))
}

/// Refresh the cached snapshot, timed on the first read and on every
/// read after an epoch change (the reads that pay for a new epoch).
fn refresh(tr: &mut Tracer, id: u64, root: usize, replica: &mut Replica) {
    if replica.fresh || replica.cached.epoch() != replica.engine.epoch() {
        let Replica { engine, cached, .. } = replica;
        tr.time("snapshot.refresh", id, Some(root), || {
            engine.refresh(cached)
        });
        replica.fresh = false;
    }
}

fn replay_name(op: Op) -> &'static str {
    match op {
        Op::Release(_) => "replay.release",
        Op::Knn(_) => "replay.knn",
        Op::Pair(..) => "replay.pair",
        Op::Plan => "replay.plan",
    }
}

/// Mean per op of kind `kind` of the summed durations (µs) of spans
/// named in `names`; ops without such a span count as zero.
fn per_op_us(
    spans: &[Span],
    kinds: &HashMap<u64, &'static str>,
    kind: &str,
    names: &[&str],
) -> f64 {
    let mut sums: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if kinds.get(&s.op) == Some(&kind) {
            let entry = sums.entry(s.op).or_insert(0.0);
            if names.contains(&s.name) {
                *entry += s.duration_ns() as f64 / 1e3;
            }
        }
    }
    let values: Vec<f64> = sums.into_values().collect();
    mean(&values)
}

/// The client-visible latency decomposition of one op kind, in µs.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Op kind.
    pub kind: &'static str,
    /// Mean traced end-to-end latency (the `op.<kind>` root span).
    pub total_us: f64,
    /// `(layer, mean µs)` in path order; they sum to `total_us`.
    pub layers: Vec<(&'static str, f64)>,
}

/// What a trace run reports.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Per op kind, the latency split across layers.
    pub table: Vec<Decomposition>,
    /// The replay's spans.
    pub spans: Vec<Span>,
    /// `(op id, reason)` of every op whose replay failed or whose
    /// replayed response differs from the server's bytes: each is a
    /// correctness failure of the run.
    pub mismatches: Vec<(u64, String)>,
}

/// Every per-layer metric of a trace run, plus the decomposition table.
///
/// # Errors
/// A preload that does not decode, or too few samples for a percentile.
pub fn per_layer(
    workload: Workload,
    inputs: &Inputs,
    untraced: &PassResult,
    traced: &PassResult,
) -> Result<LayerReport, String> {
    let mut counts = Counts::default();
    let racing_reads = workload == Workload::Mixed1k;
    let replay_spans = replay(inputs, &traced.records, racing_reads, &mut counts)?;
    let ok: Vec<&OpRecord> = traced
        .records
        .iter()
        .filter(|r| r.outcome.is_ok())
        .collect();
    let kinds: HashMap<u64, &'static str> = ok.iter().map(|r| (r.id, r.op.kind())).collect();
    let net = &traced.spans;
    let rtt_ns: Vec<f64> = net
        .iter()
        .filter(|s| s.name == "rpc" && kinds.get(&s.op) == Some(&"plan"))
        .map(|s| s.duration_ns() as f64)
        .collect();
    let rtt_us = median(&rtt_ns) / 1e3;
    let replay_self = self_times(&replay_spans);

    let span_mean_us = |spans: &[Span], name: &str| mean(&durations(spans, name)) / 1e3;
    let self_mean_us = |spans: &[Span], selfs: &[u64], name: &str| {
        mean(
            &spans
                .iter()
                .zip(selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &t)| t as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };

    let mut m = vec![Metric::new(
        "sketcher.sketch_us",
        "us",
        span_mean_us(net, "sketcher.sketch"),
    )];
    let mut table = Vec::new();
    for kind in KINDS {
        let of_kind: Vec<&&OpRecord> = ok.iter().filter(|r| r.op.kind() == kind).collect();
        let bytes = |f: &dyn Fn(&OpRecord) -> usize| {
            mean(&of_kind.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        let enc_req = per_op_us(net, &kinds, kind, &["protocol.encode_request"]);
        let dec_resp = per_op_us(net, &kinds, kind, &["protocol.decode_response"]);
        let dec_req = per_op_us(&replay_spans, &kinds, kind, &["protocol.decode_request"]);
        let enc_resp = per_op_us(&replay_spans, &kinds, kind, &["protocol.encode_response"]);
        let engine = per_op_us(&replay_spans, &kinds, kind, &ENGINE_SPANS);
        let rpc = per_op_us(net, &kinds, kind, &["rpc"]);
        let sketch = per_op_us(net, &kinds, kind, &["sketcher.sketch"]);
        let root = per_op_us(net, &kinds, kind, &[format!("op.{kind}").as_str()]);
        let client_self = root - sketch - enc_req - rpc - dec_resp;
        let unattributed = rpc - rtt_us - dec_req - engine - enc_resp;
        m.push(Metric::new(
            format!("protocol.encode_request_us.{kind}"),
            "us",
            enc_req,
        ));
        m.push(Metric::new(
            format!("protocol.decode_request_us.{kind}"),
            "us",
            dec_req,
        ));
        m.push(Metric::new(
            format!("protocol.encode_response_us.{kind}"),
            "us",
            enc_resp,
        ));
        m.push(Metric::new(
            format!("protocol.decode_response_us.{kind}"),
            "us",
            dec_resp,
        ));
        m.push(Metric::new(
            format!("protocol.request_bytes.{kind}"),
            "bytes",
            bytes(&|r| r.request.len()),
        ));
        m.push(Metric::new(
            format!("protocol.response_bytes.{kind}"),
            "bytes",
            bytes(&|r| r.response.len()),
        ));
        m.push(Metric::new(
            format!("server.unattributed_us.{kind}"),
            "us",
            unattributed,
        ));
        table.push(Decomposition {
            kind,
            total_us: root,
            layers: vec![
                ("sketcher.sketch", sketch),
                ("protocol.encode_request", enc_req),
                ("net.rtt", rtt_us),
                ("protocol.decode_request", dec_req),
                ("engine (mutate/refresh/knn/pair)", engine),
                ("protocol.encode_response", enc_resp),
                ("server.unattributed", unattributed),
                ("protocol.decode_response", dec_resp),
                ("client self", client_self),
            ],
        });
    }

    let knn_us = span_mean_us(&replay_spans, "engine.knn");
    let kernel_us = span_mean_us(&replay_spans, "kernel.sq_distance");
    let kernel_ns_total: f64 = replay_spans
        .iter()
        .filter(|s| s.name == "kernel.sq_distance")
        .map(|s| s.duration_ns() as f64)
        .sum();
    let pairs_total: f64 = counts.kernel_pairs.iter().sum();
    let releases = ok.iter().filter(|r| matches!(r.op, Op::Release(_))).count();
    let gen = |records: &[OpRecord]| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.op != Op::Plan)
            .map(|r| r.timing.late_ns() as f64 / 1e6)
            .collect()
    };
    let late = gen(&untraced.records);
    let overhead: Vec<f64> = [
        |op: Op| matches!(op, Op::Release(_)),
        |op: Op| matches!(op, Op::Knn(_)),
        |op: Op| matches!(op, Op::Pair(..)),
    ]
    .iter()
    .filter_map(|pick| {
        let t = percentile(&sorted(&latencies_ms(&traced.records, pick)), 50).ok()?;
        let u = percentile(&sorted(&latencies_ms(&untraced.records, pick)), 50).ok()?;
        Some(t / u - 1.0)
    })
    .collect();

    m.extend([
        Metric::new("net.rtt_us", "us", rtt_us),
        Metric::new(
            "store.ingest_bytes_us",
            "us",
            span_mean_us(&replay_spans, "store.ingest_bytes"),
        ),
        Metric::new("store.decode_snapshot_ms", "ms", counts.decode_snapshot_ms),
        Metric::new("store.rows", "count", counts.rows as f64),
        Metric::new(
            "snapshot.publish_us",
            "us",
            self_mean_us(&replay_spans, &replay_self, "snapshot.mutate"),
        ),
        Metric::new(
            "snapshot.refresh_us",
            "us",
            span_mean_us(&replay_spans, "snapshot.refresh"),
        ),
        Metric::new("engine.knn_us", "us", knn_us),
        Metric::new("engine.knn_select_us", "us", knn_us - kernel_us),
        Metric::new(
            "engine.pair_us",
            "us",
            span_mean_us(&replay_spans, "engine.pair"),
        ),
        Metric::new(
            "kernel.sq_distance_ns",
            "ns",
            kernel_ns_total / pairs_total.max(1.0),
        ),
        Metric::new("kernel.pairs_per_knn", "count", mean(&counts.kernel_pairs)),
        Metric::new(
            "server.journal_bytes_per_release",
            "bytes",
            traced.journal_growth as f64 / releases.max(1) as f64,
        ),
        Metric::new(
            "loadgen.late_ms",
            "ms",
            percentile(&sorted(&late), 99).map_err(|e| format!("lateness: {e}"))?,
        ),
        Metric::new("loadgen.queue_wait_ms", "ms", mean(&late)),
        Metric::new("trace.overhead_frac", "fraction", mean(&overhead)),
    ]);
    m.extend(tails(untraced)?);
    Ok(LayerReport {
        metrics: m,
        table,
        spans: replay_spans,
        mismatches: counts.mismatches,
    })
}
