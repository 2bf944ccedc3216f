//! The three workloads and the load generator that drives them over
//! loopback TCP with `dp_server::Client`.
//!
//! A run is one or more *passes*; a pass starts the server (several
//! times, to measure set-up), runs the workload's phases, reads the
//! server's peak RSS and journal growth, and shuts it down. Every op
//! makes the codec and frame calls `Client::call` makes; a traced pass
//! wraps each in a span.

use crate::inputs::Inputs;
use crate::loadgen::{closed_loop, open_loop, poisson_dues, Clock, Quota, RealClock, Timing};
use crate::server::Running;
use crate::trace::{merge, Span, Tracer};
use dp_core::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use dp_hashing::Prng;
use dp_server::{Client, ClientError};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Neighbours asked for by every knn op.
pub const KNN_K: u32 = 10;
/// Samples of each op kind a phase must reach before it may stop, so
/// that p99 has ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;
/// `PlanPairwise` round trips measured after the phases of a traced
/// pass (the O(1) floor under every op). After, not before: a read
/// before the first release changes what every later release costs (at
/// 16 384 parties, on the 2-vCPU machine the benchmark was tuned on,
/// these probes cut the release p50 from about 19 ms to about 7 ms), and
/// the traced pass must send the phases' server the same requests as the
/// untraced pass.
pub const RTT_PROBES: usize = 400;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop releases on one connection into a 16 384-party store.
    Ingest16k,
    /// Closed-loop knn/pair reads on two connections over 16 384 parties.
    Query16k,
    /// Open-loop releases and reads on two connections over 1 024 parties.
    Mixed1k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::Ingest16k, Self::Query16k, Self::Mixed1k];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Ingest16k => "ingest_16k",
            Self::Query16k => "query_16k",
            Self::Mixed1k => "mixed_1k",
        }
    }

    /// Parse a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One step of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Closed loop on one connection: `count` releases.
    Releases {
        /// Releases to send.
        count: usize,
    },
    /// Closed loop on two connections, one sending knn and one pair
    /// reads (see `reads`), until `seconds` have passed and both kinds
    /// were attempted `min_each` times (see [`Quota`]).
    Reads {
        /// Minimum phase length.
        seconds: f64,
        /// Minimum attempts of each read kind.
        min_each: usize,
    },
    /// Open loop for `seconds`: connection A sends releases arriving as
    /// a seeded Poisson process of `release_rate`/s, connection B
    /// alternates knn and pair reads arriving at `read_rate`/s; each
    /// schedule holds exactly `rate · seconds` requests.
    Open {
        /// Releases per second.
        release_rate: f64,
        /// Reads per second.
        read_rate: f64,
        /// Schedule length.
        seconds: f64,
    },
}

/// A workload at one run length: preload size and phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Parties in the preload snapshot.
    pub preload: usize,
    /// Phases, in order.
    pub phases: Vec<Phase>,
    /// A read answered later than this after its due time misses the
    /// SLO of `read_slo_frac`.
    pub read_slo_ms: f64,
}

/// Read SLO of `mixed_1k`, where reads mostly find the loop idle.
pub const READ_SLO_MS: f64 = 5.0;

/// Read SLO of the closed-loop 16k workloads, where every read waits
/// for one knn of about 6 ms: at 5 ms their share sat near 0.02 and
/// spread by 0.55 of its median across five seeds.
pub const CLOSED_READ_SLO_MS: f64 = 10.0;

impl Plan {
    /// The plan of `workload` for a run of `seconds`. `tiny` shrinks
    /// stores and schedules for the smoke test while keeping every op
    /// kind at [`MIN_SAMPLES`].
    #[must_use]
    pub fn new(workload: Workload, seconds: f64, tiny: bool) -> Self {
        let big = if tiny { 64 } else { 16_384 };
        let (preload, phases) = match workload {
            Workload::Ingest16k => (
                big,
                vec![
                    // Count-bounded: every commit ends at the same
                    // store size.
                    Phase::Releases { count: MIN_SAMPLES },
                    Phase::Reads {
                        seconds: 0.0,
                        min_each: MIN_SAMPLES,
                    },
                ],
            ),
            Workload::Query16k => (
                big,
                vec![
                    Phase::Reads {
                        seconds: if tiny { 0.0 } else { seconds },
                        min_each: MIN_SAMPLES,
                    },
                    Phase::Releases { count: MIN_SAMPLES },
                ],
            ),
            Workload::Mixed1k => (
                if tiny { 64 } else { 1024 },
                vec![if tiny {
                    Phase::Open {
                        release_rate: 1000.0,
                        read_rate: 2000.0,
                        seconds: 1.0,
                    }
                } else {
                    Phase::Open {
                        release_rate: 50.0,
                        read_rate: 200.0,
                        // Twenty seconds give the 1 000 releases p99
                        // needs.
                        seconds: (2.0 * seconds).max(20.0),
                    }
                }],
            ),
        };
        let read_slo_ms = if workload == Workload::Mixed1k {
            READ_SLO_MS
        } else {
            CLOSED_READ_SLO_MS
        };
        Self {
            preload,
            phases,
            read_slo_ms,
        }
    }

    /// Upper bound on releases the plan sends (vectors to generate).
    #[must_use]
    pub fn max_releases(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Releases { count } => *count,
                Phase::Reads { .. } => 0,
                Phase::Open {
                    release_rate,
                    seconds,
                    ..
                } => open_count(*release_rate, *seconds),
            })
            .sum()
    }
}

/// Requests an open-loop schedule of `rate` per second sends in
/// `seconds`.
#[must_use]
pub fn open_count(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round() as usize
}

/// What an op asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Release party `.0` (sketch client-side, then ingest).
    Release(u64),
    /// The [`KNN_K`] nearest neighbours of a party.
    Knn(u64),
    /// The pair estimate between two distinct parties.
    Pair(u64, u64),
    /// A `PlanPairwise` round trip (traced passes only).
    Plan,
}

impl Op {
    /// Short kind name used in metric names.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            Self::Release(_) => "release",
            Self::Knn(_) => "knn",
            Self::Pair(..) => "pair",
            Self::Plan => "plan",
        }
    }

    /// Whether the op is a read (knn or pair).
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, Self::Knn(_) | Self::Pair(..))
    }

    fn request(self, release_frame: Option<Vec<u8>>) -> Request {
        match self {
            Self::Release(_) => Request::Ingest {
                release_frame: release_frame.expect("a release op carries its frame"),
            },
            Self::Knn(party) => Request::Knn { party, k: KNN_K },
            Self::Pair(a, b) => Request::Pairwise {
                parties: vec![a, b],
            },
            Self::Plan => Request::PlanPairwise { tile: 64 },
        }
    }
}

/// A successful answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `Ingested { row, rows }`.
    Ingested {
        /// Row the release landed in.
        row: u64,
        /// Rows after it.
        rows: u64,
    },
    /// Knn neighbours, `(party, estimate)`.
    Knn(Vec<(u64, f64)>),
    /// The 2×2 pairwise matrix, row-major.
    Pair(Vec<f64>),
    /// `Plan { rows, .. }`.
    Plan(u64),
}

/// One op as the generator saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Unique within the pass.
    pub id: u64,
    /// Phase index (the number of phases for the probes after them).
    pub phase: usize,
    /// What it asked.
    pub op: Op,
    /// Due, start and end times.
    pub timing: Timing,
    /// The answer, or a failure code (`remote.<ERR>`, `transport`,
    /// `timeout`, `codec`, `unexpected`, `sketch`).
    pub outcome: Result<Answer, String>,
    /// Encoded request payload.
    pub request: Vec<u8>,
    /// Response payload as received.
    pub response: Vec<u8>,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Every op, in per-connection order.
    pub records: Vec<OpRecord>,
    /// `(start_ns, end_ns)` of each phase.
    pub phase_spans: Vec<(u64, u64)>,
    /// Whether each phase is an open loop.
    pub phase_open: Vec<bool>,
    /// Spans (traced passes only).
    pub spans: Vec<Span>,
    /// Set-up time of each server start, seconds.
    pub setups: Vec<f64>,
    /// Server peak RSS (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
    /// Growth of `journal.log` over the phases, bytes.
    pub journal_growth: u64,
    /// Share of CPU time the hypervisor took (steal) during the phases,
    /// from `/proc/stat`; `None` where unavailable.
    pub steal_frac: Option<f64>,
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn failure_code(e: &ClientError) -> String {
    match e {
        ClientError::Io(_) => "transport".to_string(),
        ClientError::Timeout => "timeout".to_string(),
        ClientError::Codec(_) => "codec".to_string(),
        ClientError::Remote { code, .. } => format!("remote.{code}"),
        ClientError::UnexpectedResponse => "unexpected".to_string(),
    }
}

fn answer_of(op: Op, response: Response) -> Result<Answer, String> {
    match (op, response) {
        (_, Response::Error { code, .. }) => Err(format!("remote.{code}")),
        (Op::Release(_), Response::Ingested { row, rows }) => Ok(Answer::Ingested { row, rows }),
        (Op::Knn(_), Response::Knn { neighbors }) => Ok(Answer::Knn(neighbors)),
        (Op::Pair(..), Response::Pairwise { values, .. }) => Ok(Answer::Pair(values)),
        (Op::Plan, Response::Plan { rows, .. }) => Ok(Answer::Plan(rows)),
        _ => Err("unexpected".to_string()),
    }
}

/// One connection's generator state.
struct Conn<'a> {
    client: &'a mut Client,
    inputs: &'a Inputs,
    tracer: Option<Tracer>,
}

impl Conn<'_> {
    /// Run one op and return its outcome, the request payload and the
    /// response as received. Traced or not, the op makes the same codec
    /// and frame calls `Client::call` makes; a traced connection wraps
    /// each in a span under one `op.<kind>` root.
    fn exec(&mut self, id: u64, op: Op) -> (Result<Answer, String>, Vec<u8>, Vec<u8>) {
        let Self {
            client,
            inputs,
            tracer,
        } = self;
        let root = tracer.as_mut().map(|tr| tr.open(root_name(op), id, None));
        let out = exchange(client, inputs, tracer, root, id, op);
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.close(root);
        }
        out
    }
}

/// Run `f`, inside a span when there is a tracer.
fn span<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tr) => tr.time(name, id, parent, f),
        None => f(),
    }
}

/// Sketch (releases), encode, exchange one frame, decode.
fn exchange(
    client: &mut Client,
    inputs: &Inputs,
    tracer: &mut Option<Tracer>,
    root: Option<usize>,
    id: u64,
    op: Op,
) -> (Result<Answer, String>, Vec<u8>, Vec<u8>) {
    let frame = match op {
        Op::Release(party) => {
            match span(tracer, "sketcher.sketch", id, root, || {
                inputs.release(party)
            }) {
                Ok(release) => Some(release),
                Err(_) => return (Err("sketch".to_string()), Vec::new(), Vec::new()),
            }
        }
        _ => None,
    };
    let payload = span(tracer, "protocol.encode_request", id, root, || {
        let release_frame = match &frame {
            Some(release) => Some(release.to_bytes()?),
            None => None,
        };
        encode_request(&op.request(release_frame))
    });
    let Ok(payload) = payload else {
        return (Err("codec".to_string()), Vec::new(), Vec::new());
    };
    let reply = span(
        tracer,
        "rpc",
        id,
        root,
        || -> Result<Vec<u8>, ClientError> {
            write_frame(client.conn_mut(), &payload)?;
            read_frame(client.conn_mut())?.ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ))
            })
        },
    );
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => return (Err(failure_code(&e)), payload, Vec::new()),
    };
    let decoded = span(tracer, "protocol.decode_response", id, root, || {
        decode_response(&reply)
    });
    let outcome = match decoded {
        Ok(response) => answer_of(op, response),
        Err(_) => Err("codec".to_string()),
    };
    (outcome, payload, reply)
}

/// Root span name of an op kind.
fn root_name(op: Op) -> &'static str {
    match op {
        Op::Release(_) => "op.release",
        Op::Knn(_) => "op.knn",
        Op::Pair(..) => "op.pair",
        Op::Plan => "op.plan",
    }
}

/// A read over seeded uniform preload parties (pairs distinct): knn on
/// an even `slot`, pair on an odd one.
fn read_op(slot: usize, rng: &mut dyn Prng, preload: usize) -> Op {
    let n = preload as u64;
    let a = rng.next_u64() % n;
    if slot.is_multiple_of(2) {
        Op::Knn(a)
    } else {
        Op::Pair(a, (a + 1 + rng.next_u64() % (n - 1)) % n)
    }
}

/// Shared op-id counter and release numbering of a pass.
struct Counters {
    next_id: AtomicUsize,
    released: AtomicUsize,
}

impl Counters {
    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) as u64
    }
}

type Exec = (u64, Op, (Result<Answer, String>, Vec<u8>, Vec<u8>));

/// Attach the phase to a loop's timed results.
fn to_records(phase: usize, timed: Vec<(Timing, Exec)>) -> Vec<OpRecord> {
    timed
        .into_iter()
        .map(
            |(timing, (id, op, (outcome, request, response)))| OpRecord {
                id,
                phase,
                op,
                timing,
                outcome,
                request,
                response,
            },
        )
        .collect()
}

/// Run one pass of `plan` against a fresh server: `starts` server
/// starts (the last one serves the phases), then the phases, traced or
/// not.
///
/// # Errors
/// Server start, connect or shutdown failures. Op failures are
/// recorded, not returned.
pub fn run_pass(
    bin: &Path,
    data_dir: &Path,
    inputs: &Inputs,
    plan: &Plan,
    traced: bool,
    starts: usize,
) -> Result<PassResult, String> {
    let mut result = PassResult::default();
    let mut server = None;
    for i in 0..starts.max(1) {
        let s = Running::start(bin, data_dir, &inputs.snapshot, &inputs.spec, plan.preload)?;
        result.setups.push(s.setup.as_secs_f64());
        if i + 1 < starts {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one start");
    let journal_before = server.journal_len();
    let jiffies_before = cpu_jiffies();
    let mut second = server.connect()?;
    let origin = Instant::now();
    let clock = RealClock::new(origin);
    let counters = Counters {
        next_id: AtomicUsize::new(0),
        released: AtomicUsize::new(0),
    };
    let mut a = Conn {
        client: server.client(),
        inputs,
        tracer: traced.then(|| Tracer::new(origin)),
    };
    let mut b = Conn {
        client: &mut second,
        inputs,
        tracer: traced.then(|| Tracer::new(origin)),
    };
    for (index, phase) in plan.phases.iter().enumerate() {
        let start = clock.now_ns();
        let ctx = PhaseCtx {
            index,
            preload: plan.preload,
            clock: &clock,
            counters: &counters,
        };
        let records = run_phase(&ctx, phase, &mut a, &mut b);
        result.records.extend(records);
        result.phase_spans.push((start, clock.now_ns()));
        result.phase_open.push(matches!(phase, Phase::Open { .. }));
    }
    if traced {
        let start = clock.now_ns();
        let probes = closed_loop(
            &clock,
            start,
            |i| i < RTT_PROBES,
            |_| {
                let id = counters.id();
                (id, Op::Plan, a.exec(id, Op::Plan))
            },
        );
        result.records.extend(to_records(plan.phases.len(), probes));
    }
    let spans: Vec<Vec<Span>> = [a.tracer.take(), b.tracer.take()]
        .into_iter()
        .flatten()
        .map(Tracer::into_spans)
        .collect();
    result.spans = merge(spans);
    drop(second);
    result.peak_rss_kib = server.peak_rss_kib()?;
    result.journal_growth = server.journal_len().saturating_sub(journal_before);
    result.steal_frac = match (jiffies_before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    server.stop()?;
    Ok(result)
}

/// What every op of one phase shares.
struct PhaseCtx<'a> {
    index: usize,
    preload: usize,
    clock: &'a RealClock,
    counters: &'a Counters,
}

impl PhaseCtx<'_> {
    /// The next party to release (releases are numbered across phases).
    fn next_party(&self) -> u64 {
        (self.preload + self.counters.released.fetch_add(1, Ordering::Relaxed)) as u64
    }

    /// The seeded op stream of connection `conn` in this phase.
    fn stream(&self, conn: &Conn<'_>, label: &str, conn_index: usize) -> dp_hashing::Xoshiro256pp {
        crate::inputs::stream(
            conn.inputs.seed,
            label,
            ((self.index as u64) << 8) + conn_index as u64,
        )
    }
}

/// Closed-loop releases on one connection.
fn releases(ctx: &PhaseCtx<'_>, count: usize, conn: &mut Conn<'_>) -> Vec<OpRecord> {
    let start = ctx.clock.now_ns();
    let timed = closed_loop(
        ctx.clock,
        start,
        |i| i < count,
        |_| {
            let op = Op::Release(ctx.next_party());
            let id = ctx.counters.id();
            (id, op, conn.exec(id, op))
        },
    );
    to_records(ctx.index, timed)
}

/// Closed-loop reads on connection `conn_index` (0 sends knn, 1 pair)
/// until `quota` ends the phase; every attempt is counted in it.
/// The one event loop serves the two connections in turn (each has one
/// request in flight), so every knn waits for one pair and every pair
/// for one knn. When both connections alternated knn and pair,
/// `knn_p50_ms` came out bimodal across seeds; a lone alternating
/// connection left the pair p50 to per-request server overhead alone,
/// which drifted with host load by more than the metric's bound.
fn reads(
    ctx: &PhaseCtx<'_>,
    conn_index: usize,
    conn: &mut Conn<'_>,
    quota: &Quota,
) -> Vec<OpRecord> {
    let mut rng = ctx.stream(conn, "reads", conn_index);
    let start = ctx.clock.now_ns();
    let timed = closed_loop(
        ctx.clock,
        start,
        |_| !quota.done(ctx.clock.now_ns()),
        |_| {
            let op = read_op(conn_index, &mut rng, ctx.preload);
            let id = ctx.counters.id();
            let out = conn.exec(id, op);
            quota.record(conn_index, out.0.is_ok());
            (id, op, out)
        },
    );
    to_records(ctx.index, timed)
}

fn run_phase(
    ctx: &PhaseCtx<'_>,
    phase: &Phase,
    a: &mut Conn<'_>,
    b: &mut Conn<'_>,
) -> Vec<OpRecord> {
    let clock = ctx.clock;
    match phase {
        Phase::Releases { count } => releases(ctx, *count, a),
        Phase::Reads { seconds, min_each } => {
            let quota = Quota::new(clock.now_ns(), (seconds * 1e9) as u64, *min_each, 2);
            std::thread::scope(|s| {
                let other = s.spawn(|| reads(ctx, 1, b, &quota));
                let mut mine = reads(ctx, 0, a, &quota);
                mine.extend(other.join().expect("read thread panicked"));
                mine
            })
        }
        Phase::Open {
            release_rate,
            read_rate,
            seconds,
        } => {
            let start = clock.now_ns() + 1_000_000;
            let span_ns = (seconds * 1e9) as u64;
            let release_dues = poisson_dues(
                &mut ctx.stream(a, "arrivals", 0),
                start,
                span_ns,
                open_count(*release_rate, *seconds),
            );
            let read_dues = poisson_dues(
                &mut ctx.stream(b, "arrivals", 1),
                start,
                span_ns,
                open_count(*read_rate, *seconds),
            );
            let mut rng = ctx.stream(b, "reads", 1);
            std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let timed = open_loop(clock, &release_dues, |_| {
                        let op = Op::Release(ctx.next_party());
                        let id = ctx.counters.id();
                        (id, op, a.exec(id, op))
                    });
                    to_records(ctx.index, timed)
                });
                let timed = open_loop(clock, &read_dues, |i| {
                    let op = read_op(i, &mut rng, ctx.preload);
                    let id = ctx.counters.id();
                    (id, op, b.exec(id, op))
                });
                let mut out = to_records(ctx.index, timed);
                out.extend(writer.join().expect("release thread panicked"));
                out
            })
        }
    }
}
