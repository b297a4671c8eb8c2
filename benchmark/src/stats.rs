//! Order statistics, the end-to-end metric table with its regression
//! bounds, the `compare` verdict rule, and log-bucket histograms for
//! per-call timings.

/// Whether a smaller or a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the bound by which it may worsen before a
/// change counts as a regression: `max(rel × parent median, floor)`.
/// `rel` is the bound `BENCHMARK.json` states; `floor` keeps metrics
/// with small medians from flagging millisecond jitter.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rel: f64,
    pub floor: f64,
}

/// The end-to-end metrics, in report order. Times are host seconds.
///
/// The host-time bounds sit at 25 %: on a shared 2-core VM (Xeon at
/// 2.0 GHz), the medians of ten seeded 20 s runs spread by up to 23 %
/// between quartiles as neighbouring load came and went. Peak RSS
/// barely moves (under 2 %), so its bound is tight.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        rel: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "sim_rate",
        unit: "sim-s/s",
        better: Better::Higher,
        rel: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        rel: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        rel: 0.25,
        floor: 0.020,
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        rel: 0.05,
        floor: 4.0,
    },
];

/// The median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the rule Python's
/// `statistics.quantiles(v, n=4)` uses (the "exclusive" method), so
/// spreads printed here match the ones computed from result files.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Distance between the quartiles.
pub fn iqr(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    q3 - q1
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How a change compares with its parent on one (metric, workload)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest (parent, change) pairs on which a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// Judges `change` against `parent`, both lists of per-rep samples.
///
/// * **unresolved** — either side's quartile spread exceeds the bound,
///   unless every change sample beats every parent sample;
/// * **worse** — the change's median is worse by more than the bound;
/// * **better** — at least [`MIN_PAIRS`] pairs were run, the change
///   wins at least nine of every ten (ties count for neither), and its
///   median beats the parent's by more than the parent's own quartile
///   spread;
/// * **unchanged** — otherwise.
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let (ma, mb) = (median(parent), median(change));
    let bound = (def.rel * ma.abs()).max(def.floor);
    let gain = match def.better {
        Better::Lower => ma - mb,
        Better::Higher => mb - ma,
    };
    let beats = |b: f64, a: f64| match def.better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    };
    let all_better = change.iter().all(|&b| parent.iter().all(|&a| beats(b, a)));
    if (iqr(parent) > bound || iqr(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    if -gain > bound {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| beats(b, a))
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr(parent) {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// Sub-buckets per power of two: values land within 1/8 of an octave
/// (about 9 %) of their bucket's midpoint.
const SUB: usize = 8;
const BUCKETS: usize = (64 - 2) * SUB;

/// A log-bucket histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize;
    (e - 2) * SUB + ((v >> (e - 3)) as usize & (SUB - 1))
}

fn bucket_low(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let (e, sub) = (b / SUB + 2, (b % SUB) as u64);
    (SUB as u64 + sub) << (e - 3)
}

impl LogHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Total recorded nanoseconds.
    pub fn sum_ns(&self) -> f64 {
        self.sum as f64
    }

    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q` quantile, as the midpoint of the bucket holding it.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = (bucket_low(b), bucket_low(b + 1));
                return (lo + hi) as f64 / 2.0;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// The `qs` quantiles of plain samples (nearest rank, one sort); all 0
/// when there are no samples.
pub fn quantiles(v: &[f64], qs: &[f64]) -> Vec<f64> {
    let s = sorted(v);
    qs.iter()
        .map(|q| {
            if s.is_empty() {
                return 0.0;
            }
            let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
            s[rank - 1]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: MetricDef = END_TO_END[0];

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn identical_samples_are_unchanged() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&WALL, &a, &a), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_speedup_is_better_and_the_reverse_is_worse() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(&WALL, &parent, &change), Verdict::Better);
        assert_eq!(verdict(&WALL, &change, &parent), Verdict::Worse);
        // sim_rate is higher-is-better: the same numbers flip.
        let rate = END_TO_END[1];
        assert_eq!(verdict(&rate, &parent, &change), Verdict::Worse);
    }

    #[test]
    fn a_small_gain_within_the_parents_spread_is_not_claimed() {
        let parent = [1.00, 1.04, 0.96, 1.03, 0.97, 1.02, 0.98, 1.01, 0.99, 1.00];
        let change: Vec<f64> = parent.iter().map(|v| v - 0.02).collect();
        // Wins every pair, but 0.02 < the parent's IQR (~0.045).
        assert_eq!(verdict(&WALL, &parent, &change), Verdict::Unchanged);
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let parent = [1.0, 1.01, 0.99, 1.0, 1.02];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.5).collect();
        assert_eq!(verdict(&WALL, &parent, &change), Verdict::Unchanged);
    }

    #[test]
    fn losing_too_many_pairs_blocks_a_gain() {
        let parent = [1.0; 20];
        let mut change = [0.7; 20];
        change[..3].fill(1.1);
        // Median improves by 30 % but only 17 of 20 pairs are wins.
        assert_eq!(verdict(&WALL, &parent, &change), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.1, 1.4, 0.75, 1.2, 0.9];
        let change = [1.0, 1.4, 0.75, 1.2, 0.9, 1.05, 1.45, 0.7, 1.25, 0.85];
        assert_eq!(verdict(&WALL, &parent, &change), Verdict::Unresolved);
        let fast = [0.10, 0.12, 0.11, 0.13, 0.12, 0.10, 0.11, 0.12, 0.13, 0.11];
        assert_eq!(verdict(&WALL, &parent, &fast), Verdict::Better);
    }

    #[test]
    fn the_floor_absorbs_jitter_on_small_medians() {
        let setup = END_TO_END[3];
        let parent = [0.040, 0.041, 0.039, 0.040, 0.042];
        let change = [0.052, 0.053, 0.051, 0.052, 0.054];
        // +30 % relative, but 12 ms is inside the 20 ms floor.
        assert_eq!(verdict(&setup, &parent, &change), Verdict::Unchanged);
    }

    #[test]
    fn log_histogram_quantiles_land_near_the_samples() {
        let mut h = LogHist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.07, "{p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.07, "{p99}");
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ns() - 500_500.0).abs() < 1.0);
        for v in [0, 1, 7, 8, 9, 15, 16, 1 << 40, u64::MAX] {
            let b = bucket(v);
            assert!(bucket_low(b) <= v && (b + 1 == BUCKETS || v < bucket_low(b + 1)));
        }
    }
}
