//! The streaming rule-evaluation engine.
//!
//! [`WatchEngine`] consumes three feeds:
//!
//! * **observed** — the delayed, gappy row-power readings, exactly what
//!   the in-simulation controller sees (`DelayedSignal::read`). This is
//!   the *only* feed that can fire power rules.
//! * **events** — the obs event stream (caps, brakes, completions…),
//!   which drives `count` rules and the SLO burn tracker.
//! * **truth** — the simulator's ground-truth row power. The engine
//!   uses it *exclusively* to timestamp when a condition actually
//!   began, so each incident can report its detection lag. Truth never
//!   asserts, clears, or otherwise influences an alert.
//!
//! Every rule — threshold, rate, absence, count and both carbon rules —
//! keeps one latch: fire on the rising edge of its condition on the
//! delayed feed, clear on the falling edge past its hysteresis. The
//! latch also carries the rule's ground-truth shadow, which threshold
//! and rate rules move on the same edges from the truth feed. The
//! shadow may only stamp the `truth_t` of the alert its rule fires
//! next: a delayed-feed clear ends a truth episode only once truth has
//! left too, and the shadow itself never fires or clears anything.
//!
//! Everything is a pure function of the feed contents, so a fixed-seed
//! simulation produces byte-identical alert and incident logs.

use std::collections::VecDeque;
use std::sync::Arc;

use polca_cluster::Priority;
use polca_obs::{CarbonSignal, Event};

use crate::burn::{BurnSignal, BurnTracker};
use crate::incident::IncidentLog;
use crate::rules::{Rule, RuleKind, Severity};
use crate::WatchConfig;

/// Configuration for the built-in carbon rules. Like every other rule,
/// they run on the *delayed* observed power feed: the watch plane sees
/// emissions only as fast as the out-of-band telemetry discloses them.
#[derive(Debug, Clone)]
pub struct WatchEnergyConfig {
    /// Grid carbon-intensity signal (shared with the polca-energy
    /// ledger, so the watch plane and the ground-truth accounting use
    /// the same grid model).
    pub signal: Arc<CarbonSignal>,
    /// PUE multiplier applied to observed IT power before conversion
    /// to emissions.
    pub pue: f64,
    /// Carbon budget: sustained emission rate, grams CO2e per hour,
    /// above which the `carbon-budget-burn` rule fires.
    pub budget_g_per_h: f64,
    /// Efficiency floor: grams CO2e per output token above which the
    /// `co2e-per-token-high` rule fires.
    pub co2e_per_token_g: f64,
    /// Rolling evaluation window, seconds. Both rules need at least
    /// half a window of observed samples before they judge, mirroring
    /// the SLO burn-rate discipline.
    pub window_s: f64,
}

impl WatchEnergyConfig {
    /// A config with the default 10-minute window.
    pub fn new(signal: CarbonSignal, pue: f64, budget_g_per_h: f64, co2e_per_token_g: f64) -> Self {
        WatchEnergyConfig {
            signal: Arc::new(signal),
            pue,
            budget_g_per_h,
            co2e_per_token_g,
            window_s: 600.0,
        }
    }
}

/// Runtime state of the carbon rules.
#[derive(Debug, Clone)]
struct EnergyRt {
    cfg: WatchEnergyConfig,
    /// Last observed `(t, watts)` — trapezoid partner for the next
    /// sample. Reset on telemetry gaps so silent failures never get
    /// emissions invented across them.
    prev: Option<(f64, f64)>,
    /// Cumulative observed emissions, grams CO2e.
    co2e_cum: f64,
    /// `(t, co2e_cum)` at each observed tick within the window.
    window: VecDeque<(f64, f64)>,
    /// Output-token completions within the window.
    token_times: VecDeque<(f64, u64)>,
    /// Running sum of `token_times` counts.
    tokens_window: u64,
    budget: Latch,
    per_token: Latch,
}

impl EnergyRt {
    fn new(cfg: WatchEnergyConfig) -> Self {
        EnergyRt {
            cfg,
            prev: None,
            co2e_cum: 0.0,
            window: VecDeque::new(),
            token_times: VecDeque::new(),
            tokens_window: 0,
            budget: Latch::new(CARBON_BUDGET_RULE, Severity::Critical),
            per_token: Latch::new(CARBON_PER_TOKEN_RULE, Severity::Warning),
        }
    }
}

/// Rule name of the carbon-budget burn-rate rule.
pub const CARBON_BUDGET_RULE: &str = "carbon-budget-burn";
/// Rule name of the per-token carbon-efficiency rule.
pub const CARBON_PER_TOKEN_RULE: &str = "co2e-per-token-high";

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// When the alert fired (simulation seconds, observed-feed time).
    pub t: f64,
    /// Name of the rule (or synthetic burn rule) that fired.
    pub rule: String,
    /// Severity at firing time.
    pub severity: Severity,
    /// The rule's measured value at firing (power fraction, event
    /// count, burn multiple, or staleness gap — rule-dependent).
    pub value: f64,
    /// Ground-truth time the condition first held, if the truth feed
    /// disclosed it. Annotation only.
    pub truth_t: Option<f64>,
    /// Human-readable description.
    pub detail: String,
}

/// Where a condition stands against its hysteresis: `Some(true)` at or
/// above `set`, `Some(false)` below `reset`, `None` in the band between.
fn level(x: f64, set: f64, reset: f64) -> Option<bool> {
    if x >= set {
        Some(true)
    } else if x < reset {
        Some(false)
    } else {
        None
    }
}

/// The fired alerts and the incident log they feed.
#[derive(Debug, Clone)]
struct Outbox {
    alerts: Vec<Alert>,
    incidents: IncidentLog,
}

impl Outbox {
    /// The one edge reporter. A rise (`Some(severity)`) fires `rule`'s
    /// alert at `t`, taking its value and detail from `alert`, which
    /// runs only then; a fall (`None`) clears `rule`'s incident.
    fn report(
        &mut self,
        rule: &str,
        t: f64,
        rise: Option<Severity>,
        truth_t: Option<f64>,
        alert: impl FnOnce() -> (f64, String),
    ) {
        let Some(severity) = rise else {
            return self.incidents.on_clear(rule, t);
        };
        let (value, detail) = alert();
        let alert = Alert {
            t,
            rule: rule.to_string(),
            severity,
            value,
            truth_t,
            detail,
        };
        self.incidents.on_alert(&alert);
        self.alerts.push(alert);
    }
}

/// One rule's alert state: whether it is asserted on the delayed feed,
/// and its ground-truth shadow.
#[derive(Debug, Clone)]
struct Latch {
    /// The rule the latch reports as, and its alerts' severity.
    rule: String,
    severity: Severity,
    /// Asserted on the delayed feed.
    on: bool,
    /// The condition holds in ground truth.
    truth_on: bool,
    /// When the current episode first held in ground truth.
    truth_since: Option<f64>,
}

impl Latch {
    fn new(rule: &str, severity: Severity) -> Self {
        Latch {
            rule: rule.to_string(),
            severity,
            on: false,
            truth_on: false,
            truth_since: None,
        }
    }

    /// Moves the latch on the delayed feed: `Some(true)` asserts,
    /// `Some(false)` clears, `None` holds. A rise fires the rule's alert
    /// with `truth_t`, a fall clears its incident, and a clear ends the
    /// truth episode only if truth has left too.
    fn drive(
        &mut self,
        now: f64,
        state: Option<bool>,
        truth_t: Option<f64>,
        out: &mut Outbox,
        alert: impl FnOnce() -> (f64, String),
    ) {
        match state {
            Some(true) if !self.on => {
                self.on = true;
                out.report(&self.rule, now, Some(self.severity), truth_t, alert);
            }
            Some(false) => {
                if !self.truth_on {
                    self.truth_since = None;
                }
                if std::mem::take(&mut self.on) {
                    out.report(&self.rule, now, None, truth_t, alert);
                }
            }
            _ => {}
        }
    }

    /// Moves the ground-truth shadow on the same edges: a rise opens an
    /// episode, a fall ends it unless the delayed feed still asserts.
    fn shadow(&mut self, now: f64, state: Option<bool>) {
        match state {
            Some(true) => {
                self.truth_on = true;
                self.truth_since.get_or_insert(now);
            }
            Some(false) => {
                self.truth_on = false;
                if !self.on {
                    self.truth_since = None;
                }
            }
            None => {}
        }
    }
}

/// Pushes `(now, frac)` onto a sliding-window min-deque and expires
/// entries older than `window_s`, returning the current window minimum.
/// Samples dominated by a newer, lower reading are dropped on entry, so
/// the deque stays sorted ascending by fraction and the front is the
/// minimum of the live window.
fn window_min(window: &mut VecDeque<(f64, f64)>, now: f64, frac: f64, window_s: f64) -> f64 {
    while window.back().is_some_and(|&(_, f)| f >= frac) {
        window.pop_back();
    }
    window.push_back((now, frac));
    while window.front().is_some_and(|&(t, _)| now - t > window_s) {
        window.pop_front();
    }
    window.front().map_or(frac, |&(_, f)| f)
}

/// A threshold or rate rule's condition on one reading `frac` of one
/// feed: where it stands against the rule's hysteresis, and the value
/// judged (the fraction, or its rise over the minimum kept in that
/// feed's `window`). `None` for the other kinds.
fn power_level(
    kind: &RuleKind,
    window: &mut VecDeque<(f64, f64)>,
    now: f64,
    frac: f64,
) -> Option<(Option<bool>, f64)> {
    match *kind {
        RuleKind::Threshold { over, clear, .. } => Some((level(frac, over, clear), frac)),
        RuleKind::Rate { rise, window_s } => {
            let delta = frac - window_min(window, now, frac, window_s);
            Some((level(delta, rise, rise * 0.5), delta))
        }
        _ => None,
    }
}

/// One rule at run time: its condition, its latch, and what its kind
/// keeps (the other kinds leave those fields empty).
#[derive(Debug, Clone)]
struct RuleRt {
    kind: RuleKind,
    latch: Latch,
    /// Threshold: when the delayed feed entered the firing zone (the
    /// hold timer).
    above_since: Option<f64>,
    /// Rate: `(t, fraction)` samples within the window of the delayed
    /// feed and of truth, each kept as a monotonic min-deque.
    window: VecDeque<(f64, f64)>,
    truth_window: VecDeque<(f64, f64)>,
    /// Count: matching event timestamps within the window.
    times: VecDeque<f64>,
}

impl RuleRt {
    fn new(rule: &Rule) -> RuleRt {
        RuleRt {
            kind: rule.kind.clone(),
            latch: Latch::new(&rule.name, rule.severity),
            above_since: None,
            window: VecDeque::new(),
            truth_window: VecDeque::new(),
            times: VecDeque::new(),
        }
    }

    /// Expires a count rule's window at `now` and moves its latch. An
    /// event is detected the instant it arrives, so its time is the
    /// ground truth.
    fn expire_count(&mut self, now: f64, out: &mut Outbox) {
        let RuleKind::Count { event, k, window_s } = &self.kind else {
            return;
        };
        while self.times.front().is_some_and(|&t| now - t > *window_s) {
            self.times.pop_front();
        }
        let n = self.times.len();
        self.latch
            .drive(now, Some(n as u64 >= *k), Some(now), out, || {
                (
                    n as f64,
                    format!("{n} x '{event}' within {window_s:.0}s (limit {k})"),
                )
            });
    }
}

/// The engine: rules + burn tracker + incident log over the feeds.
#[derive(Debug, Clone)]
pub struct WatchEngine {
    provisioned_watts: f64,
    rules: Vec<RuleRt>,
    /// Indices of `count` rules — the only ones the (high-volume) event
    /// feed drives, precomputed so `event()` skips the rest.
    count_idx: Vec<usize>,
    burn: BurnTracker,
    energy: Option<EnergyRt>,
    out: Outbox,
    /// Time of the last observed (non-gap) sample.
    last_observed_t: Option<f64>,
    /// Next time burn levels are worth re-deriving. The tracker buckets
    /// completions at `BurnConfig::bucket_s`, so its windowed sums only
    /// change at bucket granularity — re-evaluating on every obs event
    /// (the busiest feed) would scan the full slow window thousands of
    /// times per simulated hour for identical answers.
    next_burn_eval_t: f64,
}

impl WatchEngine {
    /// An engine over `config`'s rules, burn windows and incident
    /// policy, with the built-in carbon rules when it carries an energy
    /// config.
    pub fn new(config: &WatchConfig) -> Self {
        let rules: Vec<RuleRt> = config.rules.rules().iter().map(RuleRt::new).collect();
        let count_idx = rules
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.kind, RuleKind::Count { .. }))
            .map(|(i, _)| i)
            .collect();
        WatchEngine {
            provisioned_watts: config.provisioned_watts,
            rules,
            count_idx,
            burn: BurnTracker::new(config.burn.clone()),
            energy: config.energy.clone().map(EnergyRt::new),
            out: Outbox {
                alerts: Vec::new(),
                incidents: IncidentLog::new(config.escalate_after_alerts, config.resolve_after_s),
            },
            last_observed_t: None,
            next_burn_eval_t: 0.0,
        }
    }

    /// `watts` as a fraction of provisioned row power.
    fn fraction(&self, watts: f64) -> f64 {
        if self.provisioned_watts > 0.0 {
            watts / self.provisioned_watts
        } else {
            0.0
        }
    }

    /// Carbon bookkeeping for one observed sample: integrate delayed
    /// power into emissions and evaluate both carbon rules. Emissions
    /// are only knowable through the delayed feed, so their alerts
    /// carry no ground-truth time.
    fn energy_observe(&mut self, now: f64, watts: f64) {
        let Some(e) = self.energy.as_mut() else {
            return;
        };
        if let Some((pt, pw)) = e.prev {
            let dt = now - pt;
            if dt > 0.0 {
                let wh = 0.5 * (pw + watts) * dt / 3600.0;
                let mid = 0.5 * (pt + now);
                e.co2e_cum += wh * e.cfg.pue / 1000.0 * e.cfg.signal.g_per_kwh(mid);
            }
        }
        e.prev = Some((now, watts));
        e.window.push_back((now, e.co2e_cum));
        while e
            .window
            .front()
            .is_some_and(|&(t, _)| now - t > e.cfg.window_s)
        {
            e.window.pop_front();
        }
        while e
            .token_times
            .front()
            .is_some_and(|&(t, _)| now - t > e.cfg.window_s)
        {
            e.tokens_window -= e.token_times.pop_front().expect("front checked").1;
        }
        let Some(&(t0, c0)) = e.window.front() else {
            return;
        };
        let span = now - t0;
        // Burn-rate style guard: judge only once at least half a window
        // of samples has accumulated.
        if span < 0.5 * e.cfg.window_s {
            return;
        }
        let window_g = e.co2e_cum - c0;
        let rate_g_per_h = window_g / span * 3600.0;
        let budget = e.cfg.budget_g_per_h;
        let state = level(rate_g_per_h, budget, 0.9 * budget);
        e.budget.drive(now, state, None, &mut self.out, || {
            let detail = format!(
                "observed emissions at {rate_g_per_h:.1} gCO2e/h over {span:.0}s \
                 (budget {budget:.1} gCO2e/h)"
            );
            (rate_g_per_h, detail)
        });
        if e.tokens_window > 0 {
            let per_token = window_g / e.tokens_window as f64;
            let limit = e.cfg.co2e_per_token_g;
            let state = level(per_token, limit, 0.9 * limit);
            e.per_token.drive(now, state, None, &mut self.out, || {
                let detail = format!(
                    "observed {per_token:.4} gCO2e/token over {span:.0}s (limit {limit:.4})"
                );
                (per_token, detail)
            });
        }
    }

    /// Feeds output-token completions into the carbon per-token window.
    /// No-op unless the config carries the carbon rules.
    pub fn request_tokens(&mut self, t: f64, tokens: u64) {
        if let Some(e) = self.energy.as_mut() {
            e.token_times.push_back((t, tokens));
            e.tokens_window += tokens;
        }
    }

    /// Feeds one *delayed* observed row-power reading.
    pub fn observe(&mut self, now: f64, watts: f64) {
        self.energy_observe(now, watts);
        self.sample(now, Some(watts));
    }

    /// Feeds one telemetry tick on which the delayed read had no data
    /// (start-up or a silent telemetry failure).
    pub fn gap(&mut self, now: f64) {
        if let Some(e) = self.energy.as_mut() {
            // A silent telemetry failure: never invent emissions
            // across the hole.
            e.prev = None;
        }
        self.sample(now, None);
    }

    /// Runs the power rules on one delayed-feed tick (`None` for a gap),
    /// in document order, then the shared tick.
    fn sample(&mut self, now: f64, watts: Option<f64>) {
        let frac = watts.map(|w| self.fraction(w));
        let last = self.last_observed_t;
        if watts.is_some() {
            self.last_observed_t = Some(now);
        }
        let out = &mut self.out;
        for rt in &mut self.rules {
            let reading = frac.and_then(|frac| power_level(&rt.kind, &mut rt.window, now, frac));
            match (&rt.kind, reading) {
                (RuleKind::Threshold { over, hold_s, .. }, Some((state, frac))) => {
                    // The hold timer runs only inside the firing zone
                    // and restarts on re-entry.
                    let held = if state == Some(true) {
                        now - *rt.above_since.get_or_insert(now)
                    } else {
                        rt.above_since = None;
                        0.0
                    };
                    let state = state.filter(|&on| !on || held >= *hold_s);
                    rt.latch.drive(now, state, rt.latch.truth_since, out, || {
                        let detail = format!(
                            "row power at {:.1}% of provisioned (≥{:.0}% for {held:.0}s)",
                            frac * 100.0,
                            over * 100.0,
                        );
                        (frac, detail)
                    });
                }
                (RuleKind::Rate { window_s, .. }, Some((state, delta))) => {
                    rt.latch.drive(now, state, rt.latch.truth_since, out, || {
                        let detail = format!(
                            "row power rose {:.1} points of provisioned within {window_s:.0}s",
                            delta * 100.0,
                        );
                        (delta, detail)
                    });
                }
                // A sample ends staleness; a gap asserts it once samples
                // have been missing for longer than `gap_s`, which began
                // when they stopped arriving.
                (RuleKind::Absence { gap_s }, _) => {
                    let gap = now - last.unwrap_or(0.0);
                    let state = match frac {
                        Some(_) => Some(false),
                        None => (gap > *gap_s).then_some(true),
                    };
                    rt.latch.drive(now, state, last, out, || {
                        (
                            gap,
                            format!("no row telemetry for {gap:.0}s (limit {gap_s:.0}s)"),
                        )
                    });
                }
                _ => {}
            }
        }
        self.tick(now, false);
    }

    /// Feeds one *ground-truth* row-power reading into the threshold and
    /// rate rules' shadows, so alerts can be annotated with their
    /// detection lag. Never fires or clears.
    pub fn truth(&mut self, now: f64, watts: f64) {
        let frac = self.fraction(watts);
        for rt in &mut self.rules {
            if let Some((state, _)) = power_level(&rt.kind, &mut rt.truth_window, now, frac) {
                rt.latch.shadow(now, state);
            }
        }
    }

    /// Feeds one obs event. `count` rules match on the event's kind tag
    /// (with `brake` split into `brake_on`/`brake_off`); completions
    /// also feed the SLO burn tracker. Ground-truth `power_sample`
    /// events are ignored — power rules run on the delayed feed only.
    pub fn event(&mut self, event: &Event) {
        let t = event.t();
        let tag: &str = match event {
            Event::PowerSample { .. } => return,
            Event::BrakeEngaged { on, .. } => {
                if *on {
                    "brake_on"
                } else {
                    "brake_off"
                }
            }
            other => other.kind(),
        };
        if let Event::RequestCompleted {
            priority,
            latency_s,
            ..
        } = event
        {
            let priority = if *priority == "high" {
                Priority::High
            } else {
                Priority::Low
            };
            self.burn.record(t, priority, *latency_s);
        }
        for &i in &self.count_idx {
            let rt = &mut self.rules[i];
            if matches!(&rt.kind, RuleKind::Count { event, .. } if event == tag) {
                // Expiry alone can drop the window below `k` between
                // telemetry ticks; clear on the event that revealed it
                // rather than waiting for the grid.
                rt.times.push_back(t);
                rt.expire_count(t, &mut self.out);
            }
        }
        // No shared tick here: events are by far the busiest feed, and
        // window expiry / burn levels / resolution timers are already
        // advanced on every 2 s telemetry tick (`observe`/`gap`), which
        // is the engine's evaluation granularity.
    }

    /// Feeds one polca-req lifecycle record into the TTFT/TBT burn
    /// windows. Like [`event`](Self::event), no shared tick: the
    /// telemetry grid drives evaluation.
    pub fn request(&mut self, t: f64, priority: Priority, ttft_s: f64, tbt_s: f64) {
        self.burn.record_req(t, priority, ttft_s, tbt_s);
    }

    /// Shared per-feed housekeeping: expire count windows, re-evaluate
    /// burn levels (every `bucket_s`, or now if `force_burn`), advance
    /// incident resolution timers.
    fn tick(&mut self, now: f64, force_burn: bool) {
        for &i in &self.count_idx {
            self.rules[i].expire_count(now, &mut self.out);
        }
        if force_burn || now >= self.next_burn_eval_t {
            let cfg = self.burn.config();
            self.next_burn_eval_t = now + cfg.bucket_s;
            let (fast_s, slow_s) = (cfg.fast_window_s, cfg.slow_window_s);
            for tr in self.burn.evaluate(now) {
                let class = match tr.priority {
                    Priority::Low => "low",
                    Priority::High => "high",
                };
                // Rule names: slo-burn-{class} for end-to-end latency,
                // ttft-burn-{class} / tbt-burn-{class} for the polca-req
                // signals. Burn is computed from completion events,
                // which are exact: detected as soon as knowable.
                let rule = format!("{}-burn-{class}", tr.signal.tag());
                self.out.report(&rule, now, tr.to, Some(now), || {
                    let signal = match tr.signal {
                        BurnSignal::Latency => "latency",
                        BurnSignal::Ttft => "TTFT",
                        BurnSignal::Tbt => "TBT",
                    };
                    let detail = format!(
                        "{class}-priority {signal} burn-rate: {:.1}x over {fast_s:.0}s and \
                         {:.1}x over {slow_s:.0}s",
                        tr.fast_burn, tr.slow_burn
                    );
                    (tr.fast_burn, detail)
                });
            }
        }
        self.out.incidents.on_tick(now);
    }

    /// Final pass at the end of the run.
    pub fn finalize(&mut self, t_end: f64) {
        self.tick(t_end, true);
        self.out.incidents.finalize(t_end);
    }

    /// All fired alerts, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.out.alerts
    }

    /// The incident log.
    pub fn incidents(&self) -> &IncidentLog {
        &self.out.incidents
    }

    /// The burn tracker (for end-of-run summaries).
    pub fn burn(&self) -> &BurnTracker {
        &self.burn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::IncidentState;
    use crate::rules::RuleSet;

    /// An engine for a 1 kW row with `rules`, and the carbon rules if
    /// `energy` is given.
    fn engine_with(rules: &str, energy: Option<WatchEnergyConfig>) -> WatchEngine {
        let mut config = WatchConfig::new(1000.0);
        config.rules = RuleSet::parse(rules).unwrap();
        config.energy = energy;
        WatchEngine::new(&config)
    }

    fn engine(rules: &str) -> WatchEngine {
        engine_with(rules, None)
    }

    #[test]
    fn threshold_fires_after_hold_and_clears_with_hysteresis() {
        let mut e = engine("hot threshold over=0.9 clear=0.85 hold=4s severity=critical\n");
        e.observe(0.0, 950.0);
        e.observe(2.0, 950.0);
        assert!(e.alerts().is_empty(), "hold not yet met");
        e.observe(4.0, 950.0);
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].rule, "hot");
        assert_eq!(e.alerts()[0].t, 4.0);

        // Dip into the hysteresis band: no clear, no re-fire.
        e.observe(6.0, 880.0);
        e.observe(8.0, 950.0);
        assert_eq!(e.alerts().len(), 1);

        // Full clear, then a fresh episode fires again.
        e.observe(10.0, 100.0);
        assert_eq!(
            e.incidents().incidents()[0].state,
            IncidentState::MitigateObserved
        );
        e.observe(12.0, 950.0);
        e.observe(16.0, 950.0);
        assert_eq!(e.alerts().len(), 2);
    }

    #[test]
    fn truth_feed_annotates_lag_but_never_fires() {
        let mut e = engine("hot threshold over=0.9 hold=0s\n");
        // Truth crosses at t=10; observed (delayed 2s) crosses at t=12.
        e.truth(10.0, 950.0);
        e.observe(10.0, 500.0);
        assert!(e.alerts().is_empty(), "truth alone must not fire");
        e.truth(12.0, 960.0);
        e.observe(12.0, 950.0);
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].truth_t, Some(10.0));
        let inc = &e.incidents().incidents()[0];
        assert_eq!(inc.detection_lag_s, Some(2.0));
    }

    #[test]
    fn truth_only_episode_leaves_no_incident() {
        let mut e = engine("hot threshold over=0.9 hold=0s\n");
        for i in 0..50 {
            e.truth(i as f64, 990.0);
            e.observe(i as f64, 200.0);
        }
        assert!(e.alerts().is_empty());
        assert!(e.incidents().incidents().is_empty());
    }

    #[test]
    fn rate_rule_detects_a_spike() {
        let mut e = engine("spike rate rise=0.1 window=10s\n");
        e.observe(0.0, 500.0);
        e.observe(2.0, 520.0);
        e.observe(4.0, 700.0);
        assert_eq!(e.alerts().len(), 1);
        assert!((e.alerts()[0].value - 0.2).abs() < 1e-9);
        // Plateau: the old low leaves the window, delta shrinks, clears.
        for i in 0..10 {
            e.observe(6.0 + 2.0 * i as f64, 700.0);
        }
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(
            e.incidents().incidents()[0].state,
            IncidentState::MitigateObserved
        );
    }

    #[test]
    fn absence_rule_detects_staleness_gap() {
        let mut e = engine("stale absence gap=6s severity=critical\n");
        e.observe(0.0, 100.0);
        e.observe(2.0, 100.0);
        e.gap(4.0);
        e.gap(6.0);
        assert!(e.alerts().is_empty(), "gap of 4s is under the limit");
        e.gap(10.0);
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].truth_t, Some(2.0));
        // Telemetry returns: incident mitigates.
        e.observe(12.0, 100.0);
        assert_eq!(
            e.incidents().incidents()[0].state,
            IncidentState::MitigateObserved
        );
    }

    #[test]
    fn count_rule_fires_on_kth_event_with_zero_lag() {
        let mut e = engine("storm count event=brake_on k=2 window=300s\n");
        let brake = |t, on| Event::BrakeEngaged { t, server: 0, on };
        e.event(&brake(10.0, true));
        assert!(e.alerts().is_empty());
        e.event(&brake(11.0, false)); // brake_off does not match
        e.event(&brake(20.0, true));
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].t, 20.0);
        assert_eq!(e.alerts()[0].truth_t, Some(20.0));
        assert_eq!(e.incidents().incidents()[0].detection_lag_s, Some(0.0));
    }

    #[test]
    fn power_sample_events_are_ignored() {
        let mut e = engine("hot threshold over=0.5 hold=0s\n");
        e.event(&Event::PowerSample {
            t: 1.0,
            watts: 990.0,
        });
        assert!(e.alerts().is_empty(), "ground-truth events must not fire");
    }

    #[test]
    fn repeated_alerts_escalate_the_incident() {
        let mut e = engine("hot threshold over=0.9 clear=0.85 hold=0s\n");
        for i in 0..3 {
            let t = 10.0 * i as f64;
            e.observe(t, 950.0);
            e.observe(t + 2.0, 100.0);
            // Regression within the cool-down re-fires the rule.
        }
        let inc = &e.incidents().incidents()[0];
        assert_eq!(e.incidents().incidents().len(), 1);
        assert_eq!(inc.alerts, 3);
        // Each regression escalated; the trailing clear put the
        // incident back into its cool-down.
        assert_eq!(inc.state, IncidentState::MitigateObserved);
        assert!(inc.escalated_t.is_some());
    }

    fn energy_cfg(budget_g_per_h: f64, co2e_per_token_g: f64) -> WatchEnergyConfig {
        let mut cfg = WatchEnergyConfig::new(
            CarbonSignal::Constant(500.0),
            1.25,
            budget_g_per_h,
            co2e_per_token_g,
        );
        cfg.window_s = 60.0;
        cfg
    }

    #[test]
    fn carbon_budget_rule_fires_on_sustained_emissions() {
        // 800 W × 1.25 PUE × 500 g/kWh = 500 g/h: over a 400 g/h budget.
        let energy = energy_cfg(400.0, f64::INFINITY);
        let mut e = engine_with("hot threshold over=0.99 hold=0s\n", Some(energy));
        for i in 0..40 {
            e.observe(i as f64 * 2.0, 800.0);
        }
        let alert = e
            .alerts()
            .iter()
            .find(|a| a.rule == CARBON_BUDGET_RULE)
            .expect("carbon-budget-burn alert");
        assert_eq!(alert.severity, Severity::Critical);
        // Fires at the first evaluation past half the 60s window.
        assert_eq!(alert.t, 30.0);
        assert!((alert.value - 500.0).abs() < 1.0, "{}", alert.value);
        assert_eq!(e.alerts().len(), 1, "fires once while asserted");
        // Power collapses: the windowed rate sinks under 90% of budget
        // and the incident observes its mitigation.
        for i in 40..80 {
            e.observe(i as f64 * 2.0, 10.0);
        }
        let inc = e
            .incidents()
            .incidents()
            .iter()
            .find(|i| i.rule == CARBON_BUDGET_RULE)
            .expect("incident");
        assert_eq!(inc.state, IncidentState::MitigateObserved);
    }

    #[test]
    fn carbon_per_token_rule_judges_efficiency() {
        // 500 g/h ≈ 0.278 g per 2s tick; one token per tick ⇒ ~0.28
        // g/token, over a 0.1 g/token limit.
        let energy = energy_cfg(f64::INFINITY, 0.1);
        let mut e = engine_with("hot threshold over=0.99 hold=0s\n", Some(energy));
        for i in 0..40 {
            let t = i as f64 * 2.0;
            e.request_tokens(t, 1);
            e.observe(t, 800.0);
        }
        let alert = e
            .alerts()
            .iter()
            .find(|a| a.rule == CARBON_PER_TOKEN_RULE)
            .expect("co2e-per-token-high alert");
        assert_eq!(alert.severity, Severity::Warning);
        assert!(alert.value > 0.1, "{}", alert.value);
        // Throughput surges: the same emissions spread over far more
        // tokens clears the rule.
        for i in 40..80 {
            let t = i as f64 * 2.0;
            e.request_tokens(t, 1000);
            e.observe(t, 800.0);
        }
        let inc = e
            .incidents()
            .incidents()
            .iter()
            .find(|i| i.rule == CARBON_PER_TOKEN_RULE)
            .expect("incident");
        assert_eq!(inc.state, IncidentState::MitigateObserved);
    }

    #[test]
    fn gaps_never_invent_emissions() {
        // The gapped run integrates strictly less energy — the hole is
        // skipped, not bridged — so silent telemetry failures can only
        // delay carbon detection, never inflate it.
        let energy = energy_cfg(400.0, f64::INFINITY);
        let mut gapped = engine_with("hot threshold over=0.99 hold=0s\n", Some(energy));
        let mut solid = gapped.clone();
        for i in 0..40 {
            let t = i as f64 * 2.0;
            solid.observe(t, 800.0);
            if (10..20).contains(&i) {
                gapped.gap(t);
            } else {
                gapped.observe(t, 800.0);
            }
        }
        let cum = |e: &WatchEngine| e.energy.as_ref().unwrap().co2e_cum;
        assert!(cum(&gapped) < cum(&solid));
    }

    #[test]
    fn no_energy_config_means_no_carbon_rules() {
        let mut e = engine(crate::rules::DEFAULT_RULES);
        e.request_tokens(0.0, 100);
        for i in 0..100 {
            e.observe(i as f64 * 2.0, 900.0);
        }
        assert!(e
            .alerts()
            .iter()
            .all(|a| a.rule != CARBON_BUDGET_RULE && a.rule != CARBON_PER_TOKEN_RULE));
    }

    /// One step of a seeded feed.
    enum Feed {
        Tick {
            t: f64,
            truth: f64,
            observed: Option<f64>,
        },
        Event(Event),
        Request {
            t: f64,
            priority: Priority,
            ttft_s: f64,
            tbt_s: f64,
            tokens: u64,
        },
    }

    /// A seeded two hours of feeds for a 1 kW row: power that wanders
    /// and jumps across every built-in threshold, a delayed view one
    /// tick behind truth that sometimes disagrees with it or goes
    /// silent, cap and brake bursts, and a completion plus a request
    /// record per class per tick whose latency, TTFT, TBT and token
    /// count turn bad in episodes.
    fn seeded_feed(seed: u64) -> Vec<Feed> {
        let mut rng = polca_sim::SimRng::from_seed_stream(seed, 0);
        let mut feed = Vec::new();
        let (mut frac, mut last_truth) = (0.6, 600.0);
        let (mut silent_ticks, mut caps_p) = (0u32, 0.0);
        let mut bad = [false; 4];
        for i in 0..3600u32 {
            let t = f64::from(i) * 2.0;
            frac = if rng.chance(0.02) {
                rng.uniform(0.4, 1.05)
            } else {
                (frac + rng.normal(0.0, 0.01)).clamp(0.3, 1.1)
            };
            let truth = frac * 1000.0;
            if silent_ticks == 0 && rng.chance(0.004) {
                silent_ticks = rng.uniform_u64(1, 8) as u32;
            }
            let observed = if silent_ticks > 0 {
                silent_ticks -= 1;
                None
            } else if rng.chance(0.05) {
                Some(rng.uniform(300.0, 1050.0))
            } else {
                Some(last_truth)
            };
            last_truth = truth;
            feed.push(Feed::Tick { t, truth, observed });
            for flag in &mut bad {
                if rng.chance(0.004) {
                    *flag = !*flag;
                }
            }
            if rng.chance(0.01) {
                caps_p = rng.uniform(0.0, 0.3);
            }
            let at = t + rng.uniform(0.0, 2.0);
            if rng.chance(caps_p) {
                feed.push(Feed::Event(Event::CapApplied {
                    t: at,
                    server: 0,
                    mhz: 1200.0,
                }));
            }
            if rng.chance(0.01) {
                let on = rng.chance(0.7);
                feed.push(Feed::Event(Event::BrakeEngaged {
                    t: at,
                    server: 0,
                    on,
                }));
            }
            for (priority, tag) in [(Priority::High, "high"), (Priority::Low, "low")] {
                let latency_s = if bad[0] { 100.0 } else { 1.0 };
                feed.push(Feed::Event(Event::RequestCompleted {
                    t: at,
                    server: 0,
                    request: u64::from(i),
                    priority: tag,
                    latency_s,
                }));
                feed.push(Feed::Request {
                    t: at,
                    priority,
                    ttft_s: if bad[1] { 50.0 } else { 1.0 },
                    tbt_s: if bad[2] { 1.0 } else { 0.1 },
                    tokens: if bad[3] { 1 } else { 20 },
                });
            }
        }
        feed
    }

    /// An engine with the built-in rules and both carbon rules.
    fn seeded_engine() -> WatchEngine {
        let energy = WatchEnergyConfig::new(CarbonSignal::Constant(400.0), 1.25, 400.0, 0.01);
        engine_with(crate::rules::DEFAULT_RULES, Some(energy))
    }

    /// Runs `feed` through a fresh engine, with or without its truth
    /// readings and with or without everything else.
    fn replay(feed: &[Feed], truth: bool, rest: bool) -> WatchEngine {
        let mut e = seeded_engine();
        for step in feed {
            match *step {
                Feed::Tick {
                    t,
                    truth: watts,
                    observed,
                } => {
                    if truth {
                        e.truth(t, watts);
                    }
                    match observed {
                        Some(watts) if rest => e.observe(t, watts),
                        None if rest => e.gap(t),
                        _ => {}
                    }
                }
                Feed::Event(ref event) if rest => e.event(event),
                Feed::Request {
                    t,
                    priority,
                    ttft_s,
                    tbt_s,
                    tokens,
                } if rest => {
                    e.request(t, priority, ttft_s, tbt_s);
                    e.request_tokens(t, tokens);
                }
                _ => {}
            }
        }
        e.finalize(7200.0);
        e
    }

    /// Ground truth never decides an alert: the same delayed, event and
    /// request feed with and without the truth feed fires the same
    /// alerts and opens the same incidents, apart from the ground-truth
    /// annotations, and a truth-only feed fires nothing.
    #[test]
    fn truth_never_decides_an_alert() {
        let mut fired = std::collections::BTreeSet::new();
        let mut annotated = 0;
        for seed in [1, 2, 3, 17, 42] {
            let feed = seeded_feed(seed);
            let (with, without) = (replay(&feed, true, true), replay(&feed, false, true));
            let alerts = |e: &WatchEngine| -> Vec<Alert> {
                let strip = |a: &Alert| Alert {
                    truth_t: None,
                    ..a.clone()
                };
                e.alerts().iter().map(strip).collect()
            };
            assert_eq!(alerts(&with), alerts(&without), "seed {seed}");
            let incidents = |e: &WatchEngine| -> Vec<_> {
                let strip = |i: &crate::Incident| crate::Incident {
                    truth_t: None,
                    detection_lag_s: None,
                    ..i.clone()
                };
                e.incidents().incidents().iter().map(strip).collect()
            };
            assert_eq!(incidents(&with), incidents(&without), "seed {seed}");
            annotated += with
                .alerts()
                .iter()
                .zip(without.alerts())
                .filter(|(a, b)| a.truth_t != b.truth_t)
                .count();
            fired.extend(with.alerts().iter().map(|a| a.rule.clone()));

            let truth_only = replay(&feed, true, false);
            assert!(truth_only.alerts().is_empty(), "seed {seed}");
            assert!(truth_only.incidents().incidents().is_empty());
        }
        assert!(annotated > 0, "the truth feed annotated no alert");
        let mut rules: Vec<String> = RuleSet::default_rules()
            .rules()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        rules.extend([CARBON_BUDGET_RULE, CARBON_PER_TOKEN_RULE].map(String::from));
        for signal in ["slo", "ttft", "tbt"] {
            for class in ["high", "low"] {
                rules.push(format!("{signal}-burn-{class}"));
            }
        }
        for rule in &rules {
            assert!(fired.contains(rule), "{rule} never fired: {fired:?}");
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = engine(crate::rules::DEFAULT_RULES);
            for i in 0..500 {
                let t = i as f64 * 2.0;
                let truth = 800.0 + 250.0 * ((i % 60) as f64 / 60.0);
                e.truth(t, truth);
                if i % 97 == 13 {
                    e.gap(t);
                } else if i >= 1 {
                    let j = i - 1;
                    e.observe(t, 800.0 + 250.0 * ((j % 60) as f64 / 60.0));
                }
                if i % 7 == 0 {
                    e.event(&Event::CapApplied {
                        t,
                        server: i % 4,
                        mhz: 1200.0,
                    });
                }
            }
            e.finalize(1000.0);
            (e.alerts().to_vec(), e.incidents().incidents().to_vec())
        };
        let (alerts_a, incidents_a) = run();
        let (alerts_b, incidents_b) = run();
        assert_eq!(alerts_a, alerts_b);
        assert_eq!(incidents_a, incidents_b);
        assert!(!alerts_a.is_empty(), "the synthetic feed should alert");
    }
}
