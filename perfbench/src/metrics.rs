//! End-to-end metrics of an untraced pass.

use crate::stats::{median, percentile, sorted};
use crate::workload::{Op, OpRecord, PassResult};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// Build a metric.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Latencies from due time, in ms, of ops matching `pick`; a failed op
/// counts as infinitely late.
#[must_use]
pub fn latencies_ms(records: &[OpRecord], pick: impl Fn(Op) -> bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| pick(r.op))
        .map(latency_ms)
        .collect()
}

/// Blocks a run's ops of one kind are split into; a run reports the
/// [`RANK`]-th best of the per-block figures.
pub const BLOCKS: usize = 10;

/// Which block figure a run reports, counted from the best: host
/// interference (CPU steal, a noisy neighbour) only ever slows a block,
/// so up to `BLOCKS − RANK` disturbed blocks leave the figure alone,
/// while one lucky block cannot set it.
pub const RANK: usize = 3;

/// Whether a smaller or a larger figure is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// Ops matching `pick`, in start order, cut into [`BLOCKS`] contiguous
/// blocks of equal count (the last takes the remainder).
fn blocks(records: &[OpRecord], pick: impl Fn(Op) -> bool) -> Vec<Vec<&OpRecord>> {
    let mut ops: Vec<&OpRecord> = records.iter().filter(|r| pick(r.op)).collect();
    ops.sort_by_key(|r| (r.timing.start_ns, r.id));
    let size = (ops.len() / BLOCKS).max(1);
    let mut out: Vec<Vec<&OpRecord>> = ops.chunks(size).map(<[_]>::to_vec).collect();
    if out.len() > BLOCKS {
        let extra = out.split_off(BLOCKS);
        out[BLOCKS - 1].extend(extra.into_iter().flatten());
    }
    out
}

/// The [`RANK`]-th best over blocks of `f(block)`.
fn block_figure(
    records: &[OpRecord],
    pick: impl Fn(Op) -> bool,
    better: Better,
    f: impl Fn(&[&OpRecord]) -> Result<f64, String>,
) -> Result<f64, String> {
    let values = blocks(records, pick)
        .iter()
        .map(|b| f(b))
        .collect::<Result<Vec<f64>, String>>()?;
    if values.is_empty() {
        return Err("no ops of this kind".to_string());
    }
    let s = sorted(&values);
    let i = (RANK - 1).min(s.len() - 1);
    Ok(match better {
        Better::Lower => s[i],
        Better::Higher => s[s.len() - 1 - i],
    })
}

/// Latency from due time in ms; a failed op counts as infinitely late.
fn latency_ms(r: &OpRecord) -> f64 {
    match r.outcome {
        Ok(_) => r.timing.latency_ns() as f64 / 1e6,
        Err(_) => f64::INFINITY,
    }
}

/// Median of a block's latencies (the tail rule applies per block).
fn block_p50(block: &[&OpRecord]) -> Result<f64, String> {
    let ms: Vec<f64> = block.iter().map(|r| latency_ms(r)).collect();
    percentile(&sorted(&ms), 50)
}

/// Completed ops matching `pick` per second. Over open-loop phases it
/// is their count over the phases' length (an open loop's offered rate
/// is exact only over its full window); otherwise it is the
/// [`RANK`]-th best over [`BLOCKS`] blocks of the completed ops over the
/// block's span.
fn rate(pass: &PassResult, pick: impl Fn(Op) -> bool + Copy) -> Result<f64, String> {
    let mut phases: Vec<usize> = Vec::new();
    let mut done = 0usize;
    for r in pass.records.iter().filter(|r| pick(r.op)) {
        if r.outcome.is_ok() {
            done += 1;
        }
        if !phases.contains(&r.phase) {
            phases.push(r.phase);
        }
    }
    if phases.iter().all(|&p| pass.phase_open[p]) {
        let seconds: f64 = phases
            .iter()
            .map(|&p| {
                let (start, end) = pass.phase_spans[p];
                (end - start) as f64 / 1e9
            })
            .sum();
        return Ok(if seconds > 0.0 {
            done as f64 / seconds
        } else {
            0.0
        });
    }
    block_figure(&pass.records, pick, Better::Higher, |block| {
        let first = block.iter().map(|r| r.timing.start_ns).min().unwrap_or(0);
        let last = block.iter().map(|r| r.timing.end_ns).max().unwrap_or(0);
        let ok = block.iter().filter(|r| r.outcome.is_ok()).count();
        Ok(if last > first {
            ok as f64 * 1e9 / (last - first) as f64
        } else {
            0.0
        })
    })
}

/// Selects the ops of one kind.
type Pick = fn(Op) -> bool;

/// `(count, p50, p99)` in ms of each op kind's latency from due time,
/// `None` where the tail rule refuses a percentile.
#[must_use]
pub fn latency_summary(
    records: &[OpRecord],
) -> Vec<(&'static str, usize, Option<f64>, Option<f64>)> {
    let kinds: [(&'static str, Pick); 3] = [
        ("release", |op| matches!(op, Op::Release(_))),
        ("knn", |op| matches!(op, Op::Knn(_))),
        ("pair", |op| matches!(op, Op::Pair(..))),
    ];
    kinds
        .into_iter()
        .map(|(kind, pick)| {
            let s = sorted(&latencies_ms(records, pick));
            (
                kind,
                s.len(),
                percentile(&s, 50).ok(),
                percentile(&s, 99).ok(),
            )
        })
        .collect()
}

/// The p99 of each op kind's latency from due time (release and knn in
/// ms, pair in µs). Reported with the per-layer metrics rather than
/// gated: see the README.
///
/// # Errors
/// When an op kind has fewer than 1000 samples.
pub fn tails(pass: &PassResult) -> Result<Vec<Metric>, String> {
    let p99 = |pick: Pick, what: &str| {
        percentile(&sorted(&latencies_ms(&pass.records, pick)), 99)
            .map_err(|e| format!("{what}: {e}"))
    };
    Ok(vec![
        Metric::new(
            "tail.release_p99_ms",
            "ms",
            p99(|op| matches!(op, Op::Release(_)), "release")?,
        ),
        Metric::new(
            "tail.knn_p99_ms",
            "ms",
            p99(|op| matches!(op, Op::Knn(_)), "knn")?,
        ),
        Metric::new(
            "tail.pair_p99_us",
            "us",
            p99(|op| matches!(op, Op::Pair(..)), "pair")? * 1e3,
        ),
    ])
}

/// Every end-to-end metric of an untraced pass. Latencies and
/// closed-loop rates are the [`RANK`]-th best of [`BLOCKS`] block
/// figures of each op kind; the SLO share is over every read of the run
/// (per block it is often exactly 1): the share of reads answered at
/// most `read_slo_ms` after their due time.
///
/// # Errors
/// When an op kind has too few samples for its block figures.
pub fn end_to_end(pass: &PassResult, read_slo_ms: f64) -> Result<Vec<Metric>, String> {
    let records = &pass.records;
    let release: Pick = |op| matches!(op, Op::Release(_));
    let knn: Pick = |op| matches!(op, Op::Knn(_));
    let pair: Pick = |op| matches!(op, Op::Pair(..));
    let named = |what: &'static str| move |e: String| format!("{what}: {e}");
    let reads = latencies_ms(records, Op::is_read);
    if reads.is_empty() {
        return Err("reads: no ops of this kind".to_string());
    }
    let within = reads.iter().filter(|&&ms| ms <= read_slo_ms).count();
    Ok(vec![
        Metric::new("setup_s", "s", median(&pass.setups)),
        Metric::new(
            "release_per_s",
            "1/s",
            rate(pass, release).map_err(named("release"))?,
        ),
        Metric::new(
            "release_p50_ms",
            "ms",
            block_figure(records, release, Better::Lower, block_p50).map_err(named("release"))?,
        ),
        Metric::new(
            "queries_per_s",
            "1/s",
            rate(pass, Op::is_read).map_err(named("reads"))?,
        ),
        Metric::new(
            "knn_p50_ms",
            "ms",
            block_figure(records, knn, Better::Lower, block_p50).map_err(named("knn"))?,
        ),
        Metric::new(
            "pair_p50_us",
            "us",
            block_figure(records, pair, Better::Lower, block_p50).map_err(named("pair"))? * 1e3,
        ),
        Metric::new(
            "read_slo_frac",
            "fraction",
            within as f64 / reads.len() as f64,
        ),
        Metric::new("server_rss_mb", "MiB", pass.peak_rss_kib as f64 / 1024.0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Timing;
    use crate::workload::Answer;

    fn op(id: u64, start_ns: u64, end_ns: u64) -> OpRecord {
        OpRecord {
            id,
            phase: 0,
            op: Op::Knn(0),
            timing: Timing {
                due_ns: start_ns,
                start_ns,
                end_ns,
            },
            outcome: Ok(Answer::Knn(Vec::new())),
            request: Vec::new(),
            response: Vec::new(),
        }
    }

    #[test]
    fn blocks_are_contiguous_and_cover_every_op() {
        let records: Vec<OpRecord> = (0..103).map(|i| op(i, i * 10, i * 10 + 5)).collect();
        let b = blocks(&records, |_| true);
        assert_eq!(b.len(), BLOCKS);
        assert_eq!(b.iter().map(Vec::len).sum::<usize>(), 103);
        assert_eq!(b[BLOCKS - 1].len(), 13);
        assert!(b.windows(2).all(|w| w[0].last().unwrap().id < w[1][0].id));
    }

    #[test]
    fn slow_blocks_do_not_move_the_figure() {
        // 200 ops of 1 ms, except that four of the ten blocks run at 50 ms.
        let records: Vec<OpRecord> = (0..200u64)
            .map(|i| {
                let service = if (60..140).contains(&i) {
                    50_000_000
                } else {
                    1_000_000
                };
                op(i, i * 100_000_000, i * 100_000_000 + service)
            })
            .collect();
        let p50 = block_figure(&records, |_| true, Better::Lower, block_p50).unwrap();
        assert!((p50 - 1.0).abs() < 1e-9, "{p50}");
        // Seven slow blocks leave three fast ones, the third best among them.
        let slow: Vec<OpRecord> = (0..200u64)
            .map(|i| {
                let service = if i < 140 { 50_000_000 } else { 1_000_000 };
                op(i, i * 100_000_000, i * 100_000_000 + service)
            })
            .collect();
        let p50 = block_figure(&slow, |_| true, Better::Lower, block_p50).unwrap();
        assert!((p50 - 1.0).abs() < 1e-9, "{p50}");
        let higher = block_figure(&slow, |_| true, Better::Higher, block_p50).unwrap();
        assert!((higher - 50.0).abs() < 1e-9, "{higher}");
    }

    #[test]
    fn closed_loop_rate_is_a_block_figure_and_open_loop_rate_the_window() {
        // 200 back-to-back ops of 1 ms, except a 50 ms stall in two blocks.
        let mut t = 0;
        let records: Vec<OpRecord> = (0..200u64)
            .map(|i| {
                let service = if (80..120).contains(&i) {
                    50_000_000
                } else {
                    1_000_000
                };
                let r = op(i, t, t + service);
                t += service;
                r
            })
            .collect();
        let mut pass = PassResult {
            records,
            phase_spans: vec![(0, t)],
            phase_open: vec![false],
            ..PassResult::default()
        };
        let closed = rate(&pass, |_| true).unwrap();
        assert!((closed - 1000.0).abs() < 1e-9, "{closed}");
        pass.phase_open[0] = true;
        let open = rate(&pass, |_| true).unwrap();
        assert!((open - 200.0 * 1e9 / t as f64).abs() < 1e-9, "{open}");
    }
}
