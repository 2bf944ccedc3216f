//! Due-time accounting for the load generator.
//!
//! In an open loop, request `i` of a connection is due at a scheduled
//! time (seeded Poisson arrivals) whether or not the previous one has
//! returned; its latency counts from the due time, so a stall is charged to every
//! request it delays. In a closed loop a request is due when the
//! previous one on its connection completed. Either way `start − due`
//! is how late the generator ran.

use dp_hashing::Prng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A monotonic clock in nanoseconds since some origin.
pub trait Clock {
    /// Nanoseconds since the origin.
    fn now_ns(&self) -> u64;
    /// Block until `now_ns() ≥ t`.
    fn sleep_until_ns(&self, t: u64);
}

/// The wall clock, counting from a fixed `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    origin: Instant,
}

/// Below this distance to the due time the clock spins instead of
/// sleeping, since a sleep may overshoot by a scheduler tick.
const SPIN_NS: u64 = 50_000;

impl RealClock {
    /// A clock whose zero is `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self { origin }
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until_ns(&self, t: u64) {
        loop {
            let now = self.now_ns();
            if now >= t {
                return;
            }
            let left = t - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// When one request was due, sent, and answered (ns since the origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When the generator started it.
    pub start_ns: u64,
    /// When its answer was decoded.
    pub end_ns: u64,
}

impl Timing {
    /// Latency counted from the due time.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator started it.
    #[must_use]
    pub fn late_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }
}

/// Due times of `count` requests arriving as a Poisson process over
/// `[start_ns, start_ns + span_ns)`, conditioned on its count: sorted
/// uniform draws from `rng`. A seed fixes the schedule, the schedule
/// always spans the same time (so the offered rate is exact), and
/// independent streams never phase-lock with each other.
pub fn poisson_dues(rng: &mut dyn Prng, start_ns: u64, span_ns: u64, count: usize) -> Vec<u64> {
    let mut dues: Vec<u64> = (0..count)
        .map(|_| start_ns + (rng.next_f64() * span_ns as f64) as u64)
        .collect();
    dues.sort_unstable();
    dues
}

/// Run one request per entry of `dues` (ascending) on one connection:
/// wait for each due time unless already behind, then call `op(i)`.
/// Returns each request's timing and result.
pub fn open_loop<C: Clock, T>(
    clock: &C,
    dues: &[u64],
    mut op: impl FnMut(usize) -> T,
) -> Vec<(Timing, T)> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due_ns) in dues.iter().enumerate() {
        clock.sleep_until_ns(due_ns);
        let start = clock.now_ns();
        let result = op(i);
        let end_ns = clock.now_ns();
        out.push((
            Timing {
                due_ns,
                start_ns: start,
                end_ns,
            },
            result,
        ));
    }
    out
}

/// Run requests back to back on one connection while `more(i)` holds,
/// each due when the previous one completed (the first at `start_ns`).
pub fn closed_loop<C: Clock, T>(
    clock: &C,
    start_ns: u64,
    mut more: impl FnMut(usize) -> bool,
    mut op: impl FnMut(usize) -> T,
) -> Vec<(Timing, T)> {
    let mut out = Vec::new();
    let mut due_ns = start_ns;
    let mut i = 0;
    while more(i) {
        let start = clock.now_ns();
        let result = op(i);
        let end_ns = clock.now_ns();
        out.push((
            Timing {
                due_ns,
                start_ns: start,
                end_ns,
            },
            result,
        ));
        due_ns = end_ns;
        i += 1;
    }
    out
}

/// Failed requests after which a [`Quota`] ends its phase.
pub const MAX_FAILURES: usize = 100;

/// Stop rule of a closed-loop phase whose connections send several
/// kinds of request: the phase ends once `min_ns` have passed and every
/// kind has been attempted `min_each` times, or as soon as
/// [`MAX_FAILURES`] requests have failed. Attempts count, not answers,
/// so a server that fails every request still ends the phase; the
/// failures stay in the records and fail the run.
#[derive(Debug)]
pub struct Quota {
    start_ns: u64,
    min_ns: u64,
    min_each: usize,
    attempts: Vec<AtomicUsize>,
    failures: AtomicUsize,
}

impl Quota {
    /// A quota over `kinds` request kinds for a phase that began at
    /// `start_ns`.
    #[must_use]
    pub fn new(start_ns: u64, min_ns: u64, min_each: usize, kinds: usize) -> Self {
        Self {
            start_ns,
            min_ns,
            min_each,
            attempts: (0..kinds).map(|_| AtomicUsize::new(0)).collect(),
            failures: AtomicUsize::new(0),
        }
    }

    /// Count one attempt of `kind`, answered or failed.
    pub fn record(&self, kind: usize, ok: bool) {
        self.attempts[kind].fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the phase is over at `now_ns`.
    #[must_use]
    pub fn done(&self, now_ns: u64) -> bool {
        self.failures.load(Ordering::Relaxed) >= MAX_FAILURES
            || (now_ns.saturating_sub(self.start_ns) >= self.min_ns
                && self
                    .attempts
                    .iter()
                    .all(|a| a.load(Ordering::Relaxed) >= self.min_each))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until_ns(&self, t: u64) {
            self.now.set(self.now.get().max(t));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        let clock = FakeClock { now: Cell::new(0) };
        let service = [5, 25, 5, 5, 1];
        let timings = open_loop(&clock, &[0, 10, 20, 30, 40], |i| {
            clock.now.set(clock.now.get() + service[i]);
        });
        let got: Vec<(u64, u64, u64)> = timings
            .iter()
            .map(|(t, ())| (t.due_ns, t.start_ns, t.end_ns))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 5),
                (10, 10, 35),
                (20, 35, 40),
                (30, 40, 45),
                (40, 45, 46)
            ]
        );
        let latency: Vec<u64> = timings.iter().map(|(t, ())| t.latency_ns()).collect();
        assert_eq!(latency, vec![5, 25, 20, 15, 6]);
        let late: Vec<u64> = timings.iter().map(|(t, ())| t.late_ns()).collect();
        assert_eq!(late, vec![0, 0, 15, 10, 5]);
    }

    #[test]
    fn open_loop_waits_for_due_time_when_ahead() {
        let clock = FakeClock { now: Cell::new(3) };
        let timings = open_loop(&clock, &[100, 150, 200], |_| {
            clock.now.set(clock.now.get() + 1)
        });
        let starts: Vec<u64> = timings.iter().map(|(t, ())| t.start_ns).collect();
        assert_eq!(starts, vec![100, 150, 200]);
        assert!(timings.iter().all(|(t, ())| t.late_ns() == 0));
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_spans_the_window() {
        let mut a = dp_hashing::Seed::new(4).rng();
        let mut b = dp_hashing::Seed::new(4).rng();
        let dues = poisson_dues(&mut a, 1_000, 10_000_000, 2_000);
        assert_eq!(dues, poisson_dues(&mut b, 1_000, 10_000_000, 2_000));
        assert_eq!(dues.len(), 2_000);
        assert!(dues.windows(2).all(|w| w[0] <= w[1]));
        assert!(dues[0] >= 1_000 && dues[1_999] < 10_001_000);
        // Half the arrivals fall in each half of the window (σ ≈ 22).
        let early = dues.iter().filter(|&&d| d < 5_001_000).count();
        assert!(early.abs_diff(1_000) < 160, "{early}");
    }

    #[test]
    fn closed_loop_is_due_at_the_previous_completion() {
        let clock = FakeClock { now: Cell::new(0) };
        let timings = closed_loop(
            &clock,
            0,
            |i| i < 3,
            |_| {
                // One unit of generator turnaround, then four of service.
                clock.now.set(clock.now.get() + 1);
                let t = clock.now.get();
                clock.now.set(t + 4);
            },
        );
        let got: Vec<(u64, u64, u64)> = timings
            .iter()
            .map(|(t, ())| (t.due_ns, t.start_ns, t.end_ns))
            .collect();
        assert_eq!(got, vec![(0, 0, 5), (5, 5, 10), (10, 10, 15)]);
    }

    /// Two kinds interleaved on one fake-clock loop, one time unit per
    /// request; `fail` decides each request's outcome.
    fn run_quota(quota: &Quota, fail: impl Fn(usize) -> bool) -> usize {
        let clock = FakeClock { now: Cell::new(0) };
        closed_loop(
            &clock,
            0,
            |_| !quota.done(clock.now_ns()),
            |i| {
                clock.now.set(clock.now.get() + 1);
                quota.record(i % 2, !fail(i));
            },
        )
        .len()
    }

    #[test]
    fn quota_needs_both_the_time_and_every_kind() {
        assert_eq!(run_quota(&Quota::new(0, 0, 10, 2), |_| false), 20);
        assert_eq!(run_quota(&Quota::new(0, 50, 10, 2), |_| false), 50);
    }

    #[test]
    fn quota_counts_failed_attempts_and_ends_a_failing_phase() {
        // Every request fails: the phase still ends, long before its
        // minimum length.
        assert_eq!(
            run_quota(&Quota::new(0, u64::MAX, 1_000, 2), |_| true),
            MAX_FAILURES
        );
        // Every knn fails: failed attempts count toward the quota.
        assert_eq!(run_quota(&Quota::new(0, 0, 40, 2), |i| i % 2 == 0), 80);
    }
}
