//! The benchmark's arithmetic, kept free of I/O so its self-tests pin it:
//! percentiles and the tail rule, the failure tally, open-loop timing from
//! the due time, and span self time.

use std::time::{Duration, Instant};

/// The percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples (`0` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `99.9 % of 10 000` at rank 9 990 despite rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest standard percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median, p99 and the rule-chosen tail of one latency sample set.
#[derive(Clone, Debug, Default)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank, whatever the sample count).
    pub p99: f64,
    /// The tail percentile the sample count supports, if any.
    pub tail_p: Option<f64>,
}

impl Latency {
    /// Summarises `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            tail_p: tail_percentile(samples.len()),
        }
    }

    /// Whether the sample count supports reporting a p99.
    pub fn p99_supported(&self) -> bool {
        self.tail_p.is_some_and(|p| p >= 99.0)
    }
}

/// Median of `values` (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Operations attempted and failed. Every operation the run issues goes
/// through one tally, so `fail_frac` counts reads, writes, post-run checks
/// and tamper controls alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (`0` when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether one networked read counts as correct: an `Ok` verdict, no
/// endpoint errors on the way (`clean`), and — where an oracle exists — the
/// oracle's record count.
pub fn read_ok(verified: bool, clean: bool, count: usize, expected: Option<usize>) -> bool {
    verified && clean && expected.is_none_or(|e| e == count)
}

/// A fixed-rate schedule for an open-loop generator: operation `k` is due
/// `k / rate` seconds after `start`, whatever happened to earlier ones.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// When operation 0 is due.
    pub start: Instant,
    /// Gap between consecutive due times.
    pub period: Duration,
}

impl Schedule {
    /// A schedule of `rate` operations per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }
}

/// Milliseconds from `due` to `at`; `0` if `at` came first. For a write,
/// `at` is when the call returned, so a stall also charges every later
/// write that waited behind it. For the generator, `at` is when the write
/// was issued, which is how late the generator ran.
pub fn ms_after(due: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// One traced interval. Spans of one query share `query`; `parent` is the
/// index of the enclosing span in the same span list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Query (or write) the span belongs to.
    pub query: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's trace epoch.
    pub start: u64,
    /// End, nanoseconds since the run's trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span in `spans`: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once, and a child sticking out of its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.len() - covered(kids))
        .collect()
}

/// Total length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 needs 1 000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(beyond(1_000, 99.0), 10);
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        let mut samples: Vec<f64> = (0..1_500).map(f64::from).collect();
        let lat = Latency::of(&mut samples);
        assert_eq!(lat.n, 1_500);
        assert!(lat.p99_supported());
        let mut few: Vec<f64> = (0..500).map(f64::from).collect();
        assert!(!Latency::of(&mut few).p99_supported());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fail_frac_counts_every_kind_of_failure() {
        let mut reads = Tally::default();
        // Ok verdict and matching count.
        reads.record(read_ok(true, true, 5, Some(5)));
        // Rejected verdict.
        reads.record(read_ok(false, true, 5, Some(5)));
        // Accepted, but an endpoint errored on the way.
        reads.record(read_ok(true, false, 5, Some(5)));
        // Accepted, but the oracle disagrees on the count.
        reads.record(read_ok(true, true, 4, Some(5)));
        // No oracle (reads beside writes): the verdict alone decides.
        reads.record(read_ok(true, true, 4, None));
        assert_eq!(
            reads,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
        let mut writes = Tally::default();
        writes.record(true);
        writes.record(false);
        let mut all = reads;
        all.merge(writes);
        assert_eq!(
            all,
            Tally {
                attempted: 7,
                failed: 4
            }
        );
        assert!((all.fail_frac() - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let s = Schedule::new(start, 100.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(3), start + Duration::from_millis(30));
        // Operation 0 stalls for 100 ms; operation 1 is due at 10 ms but can
        // only be issued when 0 returns, and itself takes 1 ms.
        let done0 = start + Duration::from_millis(100);
        let done1 = done0 + Duration::from_millis(1);
        assert!((ms_after(s.due(0), done0) - 100.0).abs() < 1e-9);
        // Issued 90 ms late; timed from due it took 91 ms, not 1 ms.
        assert!((ms_after(s.due(1), done0) - 90.0).abs() < 1e-9);
        assert!((ms_after(s.due(1), done1) - 91.0).abs() < 1e-9);
        // An operation issued before its due time is never negative.
        assert_eq!(ms_after(s.due(5), start), 0.0);
    }

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            query: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child
            span(Some(1), 15, 25),  // 2: grandchild
            span(Some(0), 30, 60),  // 3: child overlapping child 1
            span(Some(0), 90, 120), // 4: child sticking out of the root
            span(None, 200, 210),   // 5: unrelated root
        ];
        let st = self_times(&spans);
        // Root: children cover [10,60) and [90,100) = 60 ns.
        assert_eq!(st[0], 40);
        // Child 1 has its own child covering 10 ns.
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 10);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 30);
        assert_eq!(st[5], 10);
    }
}
