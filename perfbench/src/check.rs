//! Correctness and accuracy gates over every answer of a pass.
//!
//! * Release acks carry the expected row and row count.
//! * Closed-loop workloads: every knn answer and pair matrix is
//!   bit-identical to the in-process [`EngineSnapshot`] answer on a
//!   replica decoded from the same snapshot and fed the same releases.
//! * Open-loop reads race releases, so the answering epoch is unknown:
//!   every `(party, estimate)` must equal `kernel::sq_distance` minus the
//!   query row's debias, bit for bit, and knn lists must ascend.
//! * Accuracy: on a seeded sample of disjoint preload pairs, each
//!   estimate must match a compensated reference sum computed here, and
//!   `z = (estimate − truth) / predicted stddev` must have |mean z| and
//!   RMS z within bounds fixed from the sample size.

use crate::inputs::Inputs;
use crate::workload::{Answer, Op, OpRecord, Workload, KNN_K};
use dp_core::kernel::{sq_distance, KernelId};
use dp_core::sketcher::PrivateSketcher;
use dp_engine::{EngineSnapshot, QueryEngine, SharedEngine, SketchStore};
use dp_hashing::Prng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Disjoint preload pairs in the accuracy sample (fewer on small
/// stores: at most half the preload).
pub const ACCURACY_PAIRS: usize = 2000;

/// The outcome of every gate.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ids of ops that failed or answered wrongly.
    pub failed_ops: BTreeSet<u64>,
    /// Failure counts by `<op>.<code>`.
    pub failures_by_code: BTreeMap<String, u64>,
    /// Human-readable failures (first few per kind).
    pub messages: Vec<String>,
    /// Accuracy-sample statistics: `(pairs, mean z, rms z)`.
    pub accuracy: (usize, f64, f64),
    /// Whether the accuracy gate passed.
    pub accurate: bool,
}

impl Verdict {
    /// Record op `rec` as failed with `code` (counted once per op).
    pub fn fail(&mut self, rec: &OpRecord, code: &str, message: String) {
        if self.failed_ops.insert(rec.id) {
            *self
                .failures_by_code
                .entry(format!("{}.{code}", rec.op.kind()))
                .or_insert(0) += 1;
        }
        if self.messages.len() < 20 {
            self.messages
                .push(format!("op {} {:?}: {message}", rec.id, rec.op));
        }
    }

    /// Whether every gate passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failed_ops.is_empty() && self.accurate
    }
}

/// The replica every in-process comparison runs on: the snapshot
/// decoded exactly as the server's recovery decodes it.
///
/// # Errors
/// Snapshot decode failures.
pub fn replica(inputs: &Inputs) -> Result<SharedEngine, String> {
    let (store, generation) =
        SketchStore::decode_snapshot(&inputs.snapshot).map_err(|e| format!("decode: {e}"))?;
    Ok(SharedEngine::new(
        QueryEngine::new(store).with_generation(generation),
    ))
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run every gate over one pass.
///
/// # Errors
/// When the reference state itself cannot be built.
pub fn check_pass(
    workload: Workload,
    inputs: &Inputs,
    records: &[OpRecord],
) -> Result<Verdict, String> {
    let mut verdict = Verdict::default();
    let mut ordered: Vec<&OpRecord> = records.iter().collect();
    ordered.sort_by_key(|r| (r.timing.start_ns, r.id));

    let mut release_index = 0u64;
    for rec in &ordered {
        match (&rec.op, &rec.outcome) {
            (_, Err(code)) => verdict.fail(rec, code, format!("failed: {code}")),
            (Op::Release(party), Ok(Answer::Ingested { row, rows })) => {
                let expected = inputs.preload as u64 + release_index;
                release_index += 1;
                if *party != expected || *row != expected || *rows != expected + 1 {
                    verdict.fail(
                        rec,
                        "check",
                        format!("ack row {row} rows {rows}, expected row {expected}"),
                    );
                }
            }
            (Op::Plan, Ok(Answer::Plan(_))) => {}
            (Op::Knn(_), Ok(Answer::Knn(_))) | (Op::Pair(..), Ok(Answer::Pair(_))) => {}
            _ => verdict.fail(rec, "check", "answer of the wrong kind".to_string()),
        }
    }

    let replica = replica(inputs)?;
    match workload {
        Workload::Ingest16k | Workload::Query16k => {
            check_against_snapshots(&mut verdict, inputs, &replica, &ordered)?;
        }
        Workload::Mixed1k => check_against_kernel(&mut verdict, inputs, &replica, &ordered)?,
    }
    check_accuracy(&mut verdict, inputs, &replica.snapshot());
    Ok(verdict)
}

/// Feed the replica the releases in start order and compare each read
/// with the snapshot published just before it.
fn check_against_snapshots(
    verdict: &mut Verdict,
    inputs: &Inputs,
    replica: &SharedEngine,
    ordered: &[&OpRecord],
) -> Result<(), String> {
    let mut pending: Vec<u64> = Vec::new();
    let mut jobs: Vec<(&OpRecord, Arc<EngineSnapshot>)> = Vec::new();
    for rec in ordered {
        match rec.op {
            Op::Release(party) if rec.outcome.is_ok() => pending.push(party),
            Op::Knn(_) | Op::Pair(..) if rec.outcome.is_ok() => {
                if !pending.is_empty() {
                    feed(replica, inputs, &pending)?;
                    pending.clear();
                }
                jobs.push((rec, replica.snapshot()));
            }
            _ => {}
        }
    }
    let wrong: Vec<(&OpRecord, String)> = std::thread::scope(|s| {
        let half = jobs.len() / 2;
        let (left, right) = jobs.split_at(half);
        let other = s.spawn(move || compare_all(right));
        let mut wrong = compare_all(left);
        wrong.extend(other.join().expect("check thread panicked"));
        wrong
    });
    for (rec, message) in wrong {
        verdict.fail(rec, "check", message);
    }
    Ok(())
}

fn feed(replica: &SharedEngine, inputs: &Inputs, parties: &[u64]) -> Result<(), String> {
    let releases = parties
        .iter()
        .map(|&p| inputs.release(p))
        .collect::<Result<Vec<_>, _>>()?;
    replica
        .mutate(|engine| engine.ingest_batch(&releases).map(|_| ()))
        .map_err(|e| format!("replica ingest: {e}"))
}

fn compare_all<'a>(jobs: &[(&'a OpRecord, Arc<EngineSnapshot>)]) -> Vec<(&'a OpRecord, String)> {
    jobs.iter()
        .filter_map(|(rec, snap)| compare(rec, snap).err().map(|m| (*rec, m)))
        .collect()
}

fn compare(rec: &OpRecord, snap: &EngineSnapshot) -> Result<(), String> {
    match (&rec.op, &rec.outcome) {
        (Op::Knn(party), Ok(Answer::Knn(got))) => {
            let want = snap
                .knn(*party, KNN_K as usize)
                .map_err(|e| format!("replica knn: {e}"))?;
            let same = got.len() == want.len()
                && got.iter().zip(&want).all(|(g, w)| {
                    g.0 == w.party_id && g.1.to_bits() == w.estimated_sq_distance.to_bits()
                });
            if same {
                Ok(())
            } else {
                Err("knn differs from the in-process snapshot".to_string())
            }
        }
        (Op::Pair(a, b), Ok(Answer::Pair(got))) => {
            let want = snap
                .pairwise(&[*a, *b])
                .map_err(|e| format!("replica pairwise: {e}"))?;
            if bits_equal(got, want.as_flat()) {
                Ok(())
            } else {
                Err("pair differs from the in-process snapshot".to_string())
            }
        }
        _ => Ok(()),
    }
}

/// The kernel-level expectation for one estimate: raw squared distance
/// under the store's kernel, minus the debias of `query_row`.
fn expected(store: &SketchStore, kernel: KernelId, query_row: usize, other_row: usize) -> f64 {
    sq_distance(
        kernel,
        store.row_values(query_row),
        store.row_values(other_row),
    ) - store.debias_at(query_row)
}

fn check_against_kernel(
    verdict: &mut Verdict,
    inputs: &Inputs,
    replica: &SharedEngine,
    ordered: &[&OpRecord],
) -> Result<(), String> {
    // Every release the server acknowledged, in row order.
    let parties: Vec<u64> = ordered
        .iter()
        .filter(|r| r.outcome.is_ok())
        .filter_map(|r| match r.op {
            Op::Release(p) => Some(p),
            _ => None,
        })
        .collect();
    feed(replica, inputs, &parties)?;
    let snap = replica.snapshot();
    let store = snap.store();
    let kernel = inputs.spec.kernel();
    for rec in ordered {
        let problem = match (&rec.op, &rec.outcome) {
            (Op::Knn(party), Ok(Answer::Knn(got))) => {
                let q = store.row_of(*party).expect("preload party");
                if got.len() != KNN_K as usize {
                    Some(format!("{} neighbours, expected {KNN_K}", got.len()))
                } else if got.windows(2).any(|w| w[0].1 > w[1].1) {
                    Some("knn list is not ascending".to_string())
                } else {
                    got.iter().find_map(|&(p, est)| match store.row_of(p) {
                        Some(r)
                            if p != *party
                                && expected(store, kernel, q, r).to_bits() == est.to_bits() =>
                        {
                            None
                        }
                        _ => Some(format!(
                            "neighbour ({p}, {est}) is not the kernel's estimate"
                        )),
                    })
                }
            }
            (Op::Pair(a, b), Ok(Answer::Pair(got))) => {
                let ra = store.row_of(*a).expect("preload party");
                let rb = store.row_of(*b).expect("preload party");
                let want = expected(store, kernel, ra, rb);
                if got.len() == 4
                    && got[1].to_bits() == want.to_bits()
                    && got[2].to_bits() == want.to_bits()
                {
                    None
                } else {
                    Some(format!("pair {got:?} is not the kernel's estimate {want}"))
                }
            }
            _ => None,
        };
        if let Some(message) = problem {
            verdict.fail(rec, "check", message);
        }
    }
    Ok(())
}

/// Bounds of the accuracy gate for `m` independent z-scores: the mean
/// of `m` unit-variance scores has standard deviation `1/√m`, and the
/// mean square has standard deviation about `√(2/m)` (Gaussian
/// kurtosis; heavier noise tails widen it, hence the wide multiple).
#[must_use]
pub fn accuracy_bounds(m: usize) -> (f64, (f64, f64)) {
    let m = m.max(1) as f64;
    let mean_bound = 5.0 / m.sqrt();
    let spread = 8.0 * (2.0 / m).sqrt();
    let low = (1.0 - spread).max(0.0).sqrt();
    let high = (1.0 + spread).sqrt();
    (mean_bound, (low, high))
}

/// The seeded sample: disjoint pairs of preload parties.
#[must_use]
pub fn accuracy_sample(inputs: &Inputs) -> Vec<(u64, u64)> {
    let n = inputs.preload;
    let mut perm: Vec<u64> = (0..n as u64).collect();
    let mut rng = crate::inputs::stream(inputs.seed, "accuracy", 0);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm.chunks_exact(2)
        .take(ACCURACY_PAIRS)
        .map(|c| (c[0], c[1]))
        .collect()
}

/// `Σ (a_i − b_i)²` by compensated (Neumaier) summation: a reference
/// independent of `dp_core::kernel`, accurate to about one rounding.
#[must_use]
pub fn reference_sq_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut carry = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let term = (x - y) * (x - y);
        let t = sum + term;
        carry += if sum.abs() >= term.abs() {
            (sum - t) + term
        } else {
            (term - t) + sum
        };
        sum = t;
    }
    sum + carry
}

/// Relative distance a kernel sum may sit from the compensated
/// reference: both kernels are within `len·ε` of the exact sum.
const REFERENCE_TOLERANCE: f64 = 1e-10;

fn check_accuracy(verdict: &mut Verdict, inputs: &Inputs, snap: &EngineSnapshot) {
    let sample = accuracy_sample(inputs);
    let store = snap.store();
    let mut off_reference = 0usize;
    let z: Vec<f64> = sample
        .iter()
        .filter_map(|&(a, b)| {
            let estimate = snap.pair(a, b).ok()?;
            let (ra, rb) = (store.row_of(a)?, store.row_of(b)?);
            let raw = reference_sq_distance(store.row_values(ra), store.row_values(rb));
            let debias = store.debias_at(ra.min(rb));
            if (estimate + debias - raw).abs() > REFERENCE_TOLERANCE * raw {
                off_reference += 1;
            }
            let truth = inputs.true_sq_distance(a, b);
            let sd = inputs.sketcher.predicted_variance(truth).predicted_stddev();
            Some((estimate - truth) / sd)
        })
        .collect();
    let m = z.len();
    let mean = crate::stats::mean(&z);
    let rms = (z.iter().map(|v| v * v).sum::<f64>() / m.max(1) as f64).sqrt();
    let (mean_bound, (low, high)) = accuracy_bounds(m);
    verdict.accuracy = (m, mean, rms);
    verdict.accurate = m == sample.len()
        && m > 0
        && off_reference == 0
        && mean.abs() <= mean_bound
        && (low..=high).contains(&rms);
    if !verdict.accurate {
        verdict.messages.push(format!(
            "accuracy: {m} pairs, {off_reference} off the compensated reference sum, \
             mean z {mean:.4} (bound ±{mean_bound:.4}), rms z {rms:.4} (bounds {low:.4}..{high:.4})"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_bounds_tighten_with_the_sample() {
        let (m100, (lo100, hi100)) = accuracy_bounds(100);
        let (m2k, (lo2k, hi2k)) = accuracy_bounds(2000);
        assert!(m2k < m100 && lo2k > lo100 && hi2k < hi100);
        assert!(lo2k < 1.0 && hi2k > 1.0);
    }

    #[test]
    fn sample_is_disjoint_and_seeded() {
        let inputs = Inputs::generate(3, 30, 0).unwrap();
        let sample = accuracy_sample(&inputs);
        assert_eq!(sample.len(), 15);
        let mut seen: Vec<u64> = sample.iter().flat_map(|&(a, b)| [a, b]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 30);
        assert_eq!(sample, accuracy_sample(&inputs));
    }

    #[test]
    fn reference_sum_matches_both_kernels_and_catches_a_scaled_one() {
        let inputs = Inputs::generate(2, 4, 0).unwrap();
        let (store, _) = SketchStore::decode_snapshot(&inputs.snapshot).unwrap();
        let (a, b) = (store.row_values(0), store.row_values(1));
        let reference = reference_sq_distance(a, b);
        for kernel in [KernelId::V1Scalar, KernelId::V2Simd] {
            let got = sq_distance(kernel, a, b);
            assert!((got - reference).abs() <= REFERENCE_TOLERANCE * reference);
            assert!((got * 1.0001 - reference).abs() > REFERENCE_TOLERANCE * reference);
        }
    }

    #[test]
    fn accuracy_gate_passes_on_the_real_kernel() {
        let inputs = Inputs::generate(9, 400, 0).unwrap();
        let mut verdict = Verdict::default();
        check_accuracy(&mut verdict, &inputs, &replica(&inputs).unwrap().snapshot());
        assert!(verdict.accurate, "{:?}", verdict.messages);
    }
}
