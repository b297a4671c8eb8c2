//! Multi-window SLO burn-rate tracking (Google-SRE style).
//!
//! Each priority class has an availability-style objective: a request
//! is *good* when its end-to-end latency is at or under the class's
//! good-latency bound, and the error budget tolerates a small fraction
//! of bad requests. The *burn rate* over a window is the observed bad
//! fraction divided by the budget — 1.0 means the budget is being
//! consumed exactly at the sustainable pace.
//!
//! Alerting uses the classic two-window conjunction: an alert requires
//! the burn rate to exceed the threshold over **both** a fast window
//! (responsive, 5 m) and a slow window (flap-resistant, 1 h). The
//! tracker buckets completions into coarse time buckets so memory stays
//! bounded on multi-day runs, and every computation is a pure function
//! of (simulation-time, count) pairs — deterministic across runs.

use crate::rules::Severity;
use polca_cluster::Priority;

/// Burn-rate tracking parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnConfig {
    /// Fast alerting window in seconds (default 5 m).
    pub fast_window_s: f64,
    /// Slow alerting window in seconds (default 1 h).
    pub slow_window_s: f64,
    /// Error budget: tolerated bad-request fraction (default 1 %).
    pub budget: f64,
    /// Burn multiple (in both windows) that raises a warning.
    pub warning_burn: f64,
    /// Burn multiple (in both windows) that raises a critical alert.
    pub critical_burn: f64,
    /// Bucket width for the streaming window sums, in seconds.
    pub bucket_s: f64,
    /// Minimum completions in the fast window before burn is evaluated
    /// (avoids firing on the first bad request of a quiet run).
    pub min_requests: u64,
    /// Good-latency bound for low-priority requests, in seconds.
    pub low_good_latency_s: f64,
    /// Good-latency bound for high-priority requests, in seconds.
    pub high_good_latency_s: f64,
    /// Good time-to-first-token bound for low-priority requests, in
    /// seconds (polca-req signal).
    pub low_good_ttft_s: f64,
    /// Good time-to-first-token bound for high-priority requests.
    pub high_good_ttft_s: f64,
    /// Good mean time-between-tokens bound for low-priority requests,
    /// in seconds (polca-req signal).
    pub low_good_tbt_s: f64,
    /// Good mean time-between-tokens bound for high-priority requests.
    pub high_good_tbt_s: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        BurnConfig {
            fast_window_s: 300.0,
            slow_window_s: 3600.0,
            budget: 0.01,
            warning_burn: 6.0,
            critical_burn: 14.4,
            bucket_s: 10.0,
            min_requests: 20,
            low_good_latency_s: 60.0,
            high_good_latency_s: 30.0,
            low_good_ttft_s: 30.0,
            high_good_ttft_s: 15.0,
            low_good_tbt_s: 0.5,
            high_good_tbt_s: 0.25,
        }
    }
}

/// Which SLO signal a burn observation or transition concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurnSignal {
    /// End-to-end request latency (fed from `RequestCompleted` events).
    Latency,
    /// Time to first token (fed from polca-req request records).
    Ttft,
    /// Mean time between tokens (fed from polca-req request records).
    Tbt,
}

impl BurnSignal {
    /// Stable lowercase tag for rule names.
    pub fn tag(self) -> &'static str {
        match self {
            BurnSignal::Latency => "slo",
            BurnSignal::Ttft => "ttft",
            BurnSignal::Tbt => "tbt",
        }
    }
}

/// A burn-level transition for one class, reported by
/// [`BurnTracker::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnTransition {
    /// The SLO signal whose level changed.
    pub signal: BurnSignal,
    /// The class whose level changed.
    pub priority: Priority,
    /// The new level (`None` = back under budget).
    pub to: Option<Severity>,
    /// Burn multiple over the fast window at the transition.
    pub fast_burn: f64,
    /// Burn multiple over the slow window at the transition.
    pub slow_burn: f64,
}

/// End-of-run burn accounting for one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnSummary {
    /// The class.
    pub priority: Priority,
    /// Total completions observed.
    pub total: u64,
    /// Completions over the good-latency bound.
    pub bad: u64,
    /// Highest fast-window burn multiple seen.
    pub peak_fast_burn: f64,
    /// Highest slow-window burn multiple seen.
    pub peak_slow_burn: f64,
}

/// Per-class streaming window state.
#[derive(Debug, Clone, Default)]
struct ClassBurn {
    /// `(bucket_start_s, good, bad)`, oldest first; spans ≤ the slow
    /// window.
    buckets: Vec<(f64, u64, u64)>,
    level: Option<Severity>,
    total: u64,
    bad: u64,
    peak_fast: f64,
    peak_slow: f64,
}

/// The signals, in evaluation order and in the order of
/// [`BurnTracker`]'s tables.
const SIGNALS: [BurnSignal; 3] = [BurnSignal::Latency, BurnSignal::Ttft, BurnSignal::Tbt];
/// The classes, in evaluation order and in the order of
/// [`BurnTracker`]'s tables: high priority first.
const CLASSES: [Priority; 2] = [Priority::High, Priority::Low];

/// `priority`'s index in [`CLASSES`].
fn class_index(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Low => 1,
    }
}

/// Streaming multi-window burn-rate tracker over both priority classes
/// and all three SLO signals (end-to-end latency, plus TTFT and TBT
/// when polca-req records flow in).
#[derive(Debug, Clone)]
pub struct BurnTracker {
    cfg: BurnConfig,
    /// Good bounds in seconds, indexed like `classes`.
    good_s: [[f64; 2]; 3],
    /// Windows indexed `[signal][class]` in [`SIGNALS`] × [`CLASSES`]
    /// order.
    classes: [[ClassBurn; 2]; 3],
}

impl BurnTracker {
    /// A tracker with the given parameters.
    pub fn new(cfg: BurnConfig) -> Self {
        let good_s = [
            [cfg.high_good_latency_s, cfg.low_good_latency_s],
            [cfg.high_good_ttft_s, cfg.low_good_ttft_s],
            [cfg.high_good_tbt_s, cfg.low_good_tbt_s],
        ];
        BurnTracker {
            cfg,
            good_s,
            classes: Default::default(),
        }
    }

    /// Buckets one observation of `signal`, good when at or under the
    /// class's bound.
    fn observe(&mut self, signal: BurnSignal, t: f64, priority: Priority, value_s: f64) {
        let (s, c) = (signal as usize, class_index(priority));
        let good = value_s <= self.good_s[s][c];
        let bucket = (t / self.cfg.bucket_s).floor() * self.cfg.bucket_s;
        let class = &mut self.classes[s][c];
        class.total += 1;
        if !good {
            class.bad += 1;
        }
        match class.buckets.last_mut() {
            Some(last) if last.0 >= bucket => {
                if good {
                    last.1 += 1;
                } else {
                    last.2 += 1;
                }
            }
            _ => {
                class
                    .buckets
                    .push((bucket, u64::from(good), u64::from(!good)));
            }
        }
    }

    /// Records one completion (the end-to-end latency signal).
    pub fn record(&mut self, t: f64, priority: Priority, latency_s: f64) {
        self.observe(BurnSignal::Latency, t, priority, latency_s);
    }

    /// Records one polca-req lifecycle record: TTFT and mean TBT each
    /// feed their own burn windows.
    pub fn record_req(&mut self, t: f64, priority: Priority, ttft_s: f64, tbt_s: f64) {
        self.observe(BurnSignal::Ttft, t, priority, ttft_s);
        self.observe(BurnSignal::Tbt, t, priority, tbt_s);
    }

    /// Burn multiple over `[now - window, now]` for a class, plus the
    /// fast-window completion count.
    fn burn_over(cfg: &BurnConfig, class: &ClassBurn, now: f64, window_s: f64) -> (f64, u64) {
        let from = now - window_s;
        let mut good = 0u64;
        let mut bad = 0u64;
        for &(start, g, b) in class.buckets.iter().rev() {
            if start + cfg.bucket_s <= from {
                break;
            }
            good += g;
            bad += b;
        }
        let total = good + bad;
        if total == 0 {
            return (0.0, 0);
        }
        let bad_fraction = bad as f64 / total as f64;
        (bad_fraction / cfg.budget, total)
    }

    /// Re-evaluates every signal and class at `now`, pruning expired
    /// buckets, and returns any level transitions (latency first, then
    /// TTFT, then TBT; high priority before low within each).
    pub fn evaluate(&mut self, now: f64) -> Vec<BurnTransition> {
        let cfg = &self.cfg;
        let mut out = Vec::new();
        for (signal, classes) in SIGNALS.into_iter().zip(&mut self.classes) {
            for (priority, class) in CLASSES.into_iter().zip(classes) {
                let horizon = now - cfg.slow_window_s - cfg.bucket_s;
                class.buckets.retain(|&(start, _, _)| start > horizon);
                let (fast_burn, fast_n) = Self::burn_over(cfg, class, now, cfg.fast_window_s);
                let (slow_burn, _) = Self::burn_over(cfg, class, now, cfg.slow_window_s);
                class.peak_fast = class.peak_fast.max(fast_burn);
                class.peak_slow = class.peak_slow.max(slow_burn);
                let level = if fast_n < cfg.min_requests {
                    None
                } else if fast_burn >= cfg.critical_burn && slow_burn >= cfg.critical_burn {
                    Some(Severity::Critical)
                } else if fast_burn >= cfg.warning_burn && slow_burn >= cfg.warning_burn {
                    Some(Severity::Warning)
                } else {
                    None
                };
                // Report rises and full recoveries; a critical-to-warning
                // decay is not a new alert (the open incident covers it).
                let changed = match (class.level, level) {
                    (None, Some(_)) => true,
                    (Some(a), Some(b)) => b > a,
                    (Some(_), None) => true,
                    (None, None) => false,
                };
                if changed {
                    class.level = level;
                    out.push(BurnTransition {
                        signal,
                        priority,
                        to: level,
                        fast_burn,
                        slow_burn,
                    });
                } else if level.is_some() {
                    // Remember decay without alerting on it.
                    class.level = class.level.max(level);
                }
            }
        }
        out
    }

    /// End-of-run per-class accounting of the end-to-end latency
    /// signal, high priority first.
    pub fn summaries(&self) -> [BurnSummary; 2] {
        let latency = &self.classes[BurnSignal::Latency as usize];
        CLASSES.map(|priority| {
            let class = &latency[class_index(priority)];
            BurnSummary {
                priority,
                total: class.total,
                bad: class.bad,
                peak_fast_burn: class.peak_fast,
                peak_slow_burn: class.peak_slow,
            }
        })
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &BurnConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> BurnTracker {
        BurnTracker::new(BurnConfig {
            min_requests: 4,
            ..BurnConfig::default()
        })
    }

    #[test]
    fn healthy_traffic_never_alerts() {
        let mut b = tracker();
        for i in 0..500 {
            b.record(i as f64, Priority::Low, 1.0);
            b.record(i as f64, Priority::High, 0.5);
        }
        assert!(b.evaluate(500.0).is_empty());
        let [high, low] = b.summaries();
        assert_eq!(high.bad, 0);
        assert_eq!(low.total, 500);
        assert_eq!(low.peak_fast_burn, 0.0);
    }

    #[test]
    fn sustained_badness_raises_then_recovers() {
        let mut b = tracker();
        // All-bad low-priority traffic: burn = 1/budget = 100x.
        for i in 0..100 {
            b.record(i as f64, Priority::Low, 1000.0);
        }
        let ts = b.evaluate(100.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].signal, BurnSignal::Latency);
        assert_eq!(ts[0].priority, Priority::Low);
        assert_eq!(ts[0].to, Some(Severity::Critical));
        assert!(ts[0].fast_burn > 14.4);
        // Quiet period long enough for both windows to drain.
        let ts = b.evaluate(100.0 + 3700.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to, None);
    }

    #[test]
    fn both_windows_must_agree() {
        let mut b = tracker();
        // One hour of good traffic, then a 1-minute burst of bad: the
        // fast window sees a high burn but the slow window dilutes it
        // below critical... with an hour at ~2 req/s, slow-window burn
        // of a 60 s bad burst is 120/7320/0.01 ≈ 1.6 — under warning.
        for i in 0..7200 {
            b.record(i as f64 * 0.5, Priority::High, 0.5);
        }
        for i in 0..120 {
            b.record(3600.0 + i as f64 * 0.5, Priority::High, 500.0);
        }
        let ts = b.evaluate(3660.0);
        assert!(
            ts.is_empty(),
            "slow window should veto the fast spike: {ts:?}"
        );
    }

    #[test]
    fn ttft_and_tbt_burn_independently_of_latency() {
        let mut b = tracker();
        // Fast end-to-end latency but terrible TTFT: only the TTFT
        // signal should fire.
        for i in 0..100 {
            let t = i as f64;
            b.record(t, Priority::High, 1.0);
            b.record_req(t, Priority::High, 120.0, 0.05);
        }
        let ts = b.evaluate(100.0);
        assert_eq!(ts.len(), 1, "{ts:?}");
        assert_eq!(ts[0].signal, BurnSignal::Ttft);
        assert_eq!(ts[0].to, Some(Severity::Critical));
        // Latency summaries are untouched by req records.
        let [high, _] = b.summaries();
        assert_eq!(high.bad, 0);

        // Now a TBT regression (brake-style slowdown) on the low class.
        let mut b = tracker();
        for i in 0..100 {
            b.record_req(i as f64, Priority::Low, 1.0, 2.0);
        }
        let ts = b.evaluate(100.0);
        assert_eq!(ts.len(), 1, "{ts:?}");
        assert_eq!(ts[0].signal, BurnSignal::Tbt);
        assert_eq!(ts[0].priority, Priority::Low);
    }

    #[test]
    fn min_requests_suppresses_sparse_noise() {
        let mut b = tracker();
        b.record(1.0, Priority::Low, 1000.0);
        b.record(2.0, Priority::Low, 1000.0);
        assert!(b.evaluate(10.0).is_empty());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let run = || {
            let mut b = tracker();
            let mut log = Vec::new();
            for i in 0..2000 {
                let t = i as f64 * 1.7;
                let lat = if i % 3 == 0 { 900.0 } else { 1.0 };
                b.record(t, Priority::Low, lat);
                if i % 13 == 0 {
                    log.extend(b.evaluate(t));
                }
            }
            (log, b.summaries())
        };
        let (log_a, sum_a) = run();
        let (log_b, sum_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(sum_a, sum_b);
        assert!(!log_a.is_empty());
    }
}
