//! POLCA's dual-threshold controller and the §6.6 baselines.
//!
//! All controllers are driven by the cluster simulator's 2 s row
//! telemetry (already delayed by the Table 2 propagation lag) and issue
//! commands over the slow OOB plane. They emit commands only on state
//! *transitions* — re-sending the full cap set every tick would swamp a
//! 40 s-latency control path.
//!
//! Every policy, the §6.7 [`SelectiveController`](crate::SelectiveController)
//! included, runs its own capping rule inside one `Governor`: the same
//! UPS-triggered brake net (§6.6) and the same transition trace. The
//! policies Figures 17–18 compare therefore differ only in what they
//! lock, and every clock they lock is a Table 5 clock read from
//! [`PowerMode`].

use polca_cluster::{ControlRequest, ControlTarget, PowerController, Priority, RowContext};
use polca_obs::{Event, Label, Recorder};
use polca_sim::SimTime;

use crate::policy::{PolcaPolicy, PowerMode};

/// What every policy shares around its own capping rule: the policy's
/// thresholds, the power-brake safety net and the transition trace.
#[derive(Debug, Clone)]
pub(crate) struct Governor {
    pub(crate) policy: PolcaPolicy,
    pub(crate) recorder: Recorder,
    transitions: u64,
}

impl Governor {
    pub(crate) fn new(policy: PolcaPolicy) -> Self {
        Governor {
            policy,
            recorder: Recorder::disabled(),
            transitions: 0,
        }
    }

    /// The brake net: whether a brake that is `engaged` toggles at row
    /// utilisation `u`. It engages at the provisioned limit
    /// (`brake_frac`) and releases at or below `brake_release_frac`; a
    /// toggle pushes its `PowerBrake` command onto `cmds`.
    pub(crate) fn brake_toggles(
        &self,
        engaged: bool,
        u: f64,
        cmds: &mut Vec<ControlRequest>,
    ) -> bool {
        let p = &self.policy;
        let toggles = if engaged {
            u <= p.brake_release_frac
        } else {
            u >= p.brake_frac
        };
        if toggles {
            cmds.push(ControlRequest::brake(!engaged));
        }
        toggles
    }

    /// Closes a tick that moved the policy from state `before` to
    /// `after`: a change is counted in `controller.transitions` (per
    /// state entered) and traced as a `controller_transition` event
    /// between the states' `label`s. Returns whether the state changed;
    /// a tick that changes nothing looks up no label.
    pub(crate) fn transition<S: PartialEq>(
        &mut self,
        now: SimTime,
        before: S,
        after: S,
        label: fn(&S) -> &'static str,
    ) -> bool {
        if before == after {
            return false;
        }
        let (from, to) = (label(&before), label(&after));
        self.transitions += 1;
        self.recorder
            .add("controller.transitions", Label::Tag(to), 1);
        self.recorder.record(Event::ControllerTransition {
            t: now.as_secs(),
            from,
            to,
        });
        true
    }
}

/// The trace label of a baseline's `(braked, capped)` state.
pub(crate) fn baseline_label(&(braked, capped): &(bool, bool)) -> &'static str {
    match (braked, capped) {
        (true, _) => "Brake",
        (false, true) => "Capped",
        (false, false) => "Uncapped",
    }
}

/// The POLCA power manager (§6.3).
///
/// Its state is the row's Table 5 [`PowerMode`] plus whether T2's gentle
/// high-priority cap is on, and each lock it sends sets a priority class
/// to the clock its mode gives that class.
///
/// # Control flow (the paper's Figure 12)
///
/// ```text
///   PDU (row-level power)
///        │  telemetry every 2 s (stale by 2 s)
///        ▼
///   Rack manager / power manager  ←— this type
///        │  per-priority frequency caps / brake (state transitions only)
///        ▼
///   OOB control plane (SMBPBI, 20–40 s; brake 2–5 s)
///        │
///        ▼
///   BMC → per-GPU clock locks on every server of the target priority
/// ```
///
/// "We assume a homogeneous distribution of power and caps for fast
/// control": decisions are made on the aggregate row power and applied
/// uniformly to a priority class.
///
/// # Examples
///
/// ```
/// use polca::{PolcaController, PolcaPolicy};
/// use polca_cluster::{PowerController, RowContext};
/// use polca_sim::SimTime;
///
/// let mut polca = PolcaController::new(PolcaPolicy::default());
/// let ctx = RowContext { provisioned_watts: 260_000.0, n_servers: 52 };
/// // Quiet cluster: no commands.
/// let cmds = polca.on_telemetry(SimTime::from_secs(2.0), Some(150_000.0), &ctx);
/// assert!(cmds.is_empty());
/// // Above T1 (80 %): cap the low-priority servers.
/// let cmds = polca.on_telemetry(SimTime::from_secs(4.0), Some(215_000.0), &ctx);
/// assert_eq!(cmds.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PolcaController {
    gov: Governor,
    mode: PowerMode,
    /// Whether T2's high-priority cap is on. It only is in T2, once
    /// power stays above T2 after the low-priority cap (§6.3).
    hp_capped: bool,
    /// When observed power first dipped below the current mode's uncap
    /// level (`None` while at or above it). De-escalation waits until
    /// the dip has lasted `uncap_dwell_s` — see [`PolcaPolicy`].
    below_since: Option<SimTime>,
}

impl PolcaController {
    /// Creates the controller in the uncapped state.
    pub fn new(policy: PolcaPolicy) -> Self {
        PolcaController {
            gov: Governor::new(policy),
            mode: PowerMode::Uncapped,
            hp_capped: false,
            below_since: None,
        }
    }

    /// Returns the controller with an observability recorder attached:
    /// mode changes are traced as `controller_transition` events and
    /// counted per target mode.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.gov.recorder = recorder;
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &PolcaPolicy {
        &self.gov.policy
    }

    /// Mode transitions performed so far (capping churn; the hysteresis
    /// ablation measures this).
    pub fn transitions(&self) -> u64 {
        self.gov.transitions
    }

    /// Sets `priority`'s servers to the clock Table 5 gives that class
    /// in the current mode (high priority only once `hp_capped`).
    fn set_clock(&self, priority: Priority) -> ControlRequest {
        let p = &self.gov.policy;
        let mhz = match priority {
            Priority::Low => self.mode.low_priority_clock_mhz(p),
            Priority::High if self.hp_capped => self.mode.high_priority_clock_mhz(p),
            Priority::High => None,
        };
        ControlRequest::clock(ControlTarget::Priority(priority), mhz)
    }

    /// Whether power at `u` has stayed below the current mode's uncap
    /// level for the dwell. Conservative uncapping: one worst-case OOB
    /// round trip must pass before caps are released, or a burst
    /// arriving during the 20–40 s command flight would find the row
    /// uncapped.
    fn uncap_ready(&mut self, now: SimTime, u: f64) -> bool {
        let p = &self.gov.policy;
        let below_uncap = match self.mode {
            PowerMode::T1 => u < p.t1_uncap_frac(),
            PowerMode::T2 => u < p.t2_uncap_frac(),
            PowerMode::Uncapped | PowerMode::Brake => false,
        };
        if !below_uncap {
            self.below_since = None;
            return false;
        }
        let since = *self.below_since.get_or_insert(now);
        now.as_secs() - since.as_secs() >= p.uncap_dwell_s
    }

    /// The trace label of a `(mode, hp_capped)` state.
    fn label(&(mode, hp_capped): &(PowerMode, bool)) -> &'static str {
        match mode {
            PowerMode::Uncapped => "Uncapped",
            PowerMode::T1 => "T1",
            PowerMode::T2 if hp_capped => "T2+HP",
            PowerMode::T2 => "T2",
            PowerMode::Brake => "Brake",
        }
    }
}

impl PowerController for PolcaController {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        let Some(watts) = observed_row_watts else {
            return Vec::new();
        };
        let u = watts / ctx.provisioned_watts;
        let before = (self.mode, self.hp_capped);
        let mut cmds = Vec::new();
        let uncap_ready = self.uncap_ready(now, u);
        let braked = self.mode == PowerMode::Brake;
        if self.gov.brake_toggles(braked, u, &mut cmds) {
            if braked {
                // Release the brake but resume fully capped: the row was
                // at the limit moments ago.
                (self.mode, self.hp_capped) = (PowerMode::T2, true);
                cmds.push(self.set_clock(Priority::Low));
                cmds.push(self.set_clock(Priority::High));
            } else {
                (self.mode, self.hp_capped) = (PowerMode::Brake, false);
            }
        } else {
            let p = &self.gov.policy;
            let (above_t1, above_t2) = (u >= p.t1_frac, u >= p.t2_frac);
            match self.mode {
                PowerMode::Uncapped | PowerMode::T1 if above_t2 => {
                    self.mode = PowerMode::T2;
                    cmds.push(self.set_clock(Priority::Low));
                }
                PowerMode::Uncapped if above_t1 => {
                    self.mode = PowerMode::T1;
                    cmds.push(self.set_clock(Priority::Low));
                }
                PowerMode::T1 if uncap_ready => {
                    self.mode = PowerMode::Uncapped;
                    cmds.push(self.set_clock(Priority::Low));
                }
                PowerMode::T2 if above_t2 && !self.hp_capped => {
                    // The low-priority cap did not bring power under T2:
                    // gently cap high priority too (§6.3).
                    self.hp_capped = true;
                    cmds.push(self.set_clock(Priority::High));
                }
                PowerMode::T2 if uncap_ready => {
                    if self.hp_capped {
                        self.hp_capped = false;
                        cmds.push(self.set_clock(Priority::High));
                    }
                    self.mode = PowerMode::T1;
                    cmds.push(self.set_clock(Priority::Low));
                }
                _ => {}
            }
        }
        let after = (self.mode, self.hp_capped);
        if self.gov.transition(now, before, after, Self::label) {
            self.below_since = None;
        }
        cmds
    }
}

/// The `1-Thresh-Low-Pri` and `1-Thresh-All` baselines (§6.6): a single
/// threshold at T2 that immediately applies T2's hard low-priority cap,
/// with the same UPS brake fallback.
#[derive(Debug, Clone)]
pub struct SingleThresholdController {
    gov: Governor,
    /// The servers the threshold caps: low priority, or every server.
    target: ControlTarget,
    capped: bool,
    braked: bool,
}

impl SingleThresholdController {
    /// `1-Thresh-Low-Pri`: one threshold (T2) capping low priority only.
    pub fn low_priority_only(policy: PolcaPolicy) -> Self {
        Self::new(policy, ControlTarget::Priority(Priority::Low))
    }

    /// `1-Thresh-All`: one threshold (T2) capping every server.
    pub fn all_workloads(policy: PolcaPolicy) -> Self {
        Self::new(policy, ControlTarget::All)
    }

    fn new(policy: PolcaPolicy, target: ControlTarget) -> Self {
        SingleThresholdController {
            gov: Governor::new(policy),
            target,
            capped: false,
            braked: false,
        }
    }

    /// Returns the controller with an observability recorder attached.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.gov.recorder = recorder;
        self
    }
}

impl PowerController for SingleThresholdController {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        let Some(watts) = observed_row_watts else {
            return Vec::new();
        };
        let u = watts / ctx.provisioned_watts;
        let before = (self.braked, self.capped);
        let mut cmds = Vec::new();
        if self.gov.brake_toggles(self.braked, u, &mut cmds) {
            self.braked = !self.braked;
        }
        let p = &self.gov.policy;
        let capped = if self.capped {
            u >= p.t2_uncap_frac()
        } else {
            u >= p.t2_frac
        };
        if !self.braked && capped != self.capped {
            self.capped = capped;
            let mode = if capped {
                PowerMode::T2
            } else {
                PowerMode::Uncapped
            };
            cmds.push(ControlRequest::clock(
                self.target,
                mode.low_priority_clock_mhz(p),
            ));
        }
        let after = (self.braked, self.capped);
        self.gov.transition(now, before, after, baseline_label);
        cmds
    }
}

/// The `No-cap` baseline (§6.6): no proactive capping at all. The only
/// thing standing between the row and a power-safety incident is the
/// involuntary UPS-triggered power brake at the provisioned limit —
/// which is exactly what "lacks power brake protection ... impacts P99
/// and P100 latency" costs.
#[derive(Debug, Clone)]
pub struct NoCapController {
    gov: Governor,
    braked: bool,
}

impl NoCapController {
    /// Creates the baseline with the default brake limits.
    pub fn new(policy: PolcaPolicy) -> Self {
        NoCapController {
            gov: Governor::new(policy),
            braked: false,
        }
    }

    /// Returns the controller with an observability recorder attached.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.gov.recorder = recorder;
        self
    }
}

impl PowerController for NoCapController {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        let Some(watts) = observed_row_watts else {
            return Vec::new();
        };
        let before = (self.braked, false);
        let mut cmds = Vec::new();
        if self
            .gov
            .brake_toggles(self.braked, watts / ctx.provisioned_watts, &mut cmds)
        {
            self.braked = !self.braked;
        }
        let after = (self.braked, false);
        self.gov.transition(now, before, after, baseline_label);
        cmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RowContext {
        RowContext {
            provisioned_watts: 100_000.0,
            n_servers: 40,
        }
    }

    fn tick(c: &mut impl PowerController, t: f64, frac: f64) -> Vec<ControlRequest> {
        c.on_telemetry(SimTime::from_secs(t), Some(frac * 100_000.0), &ctx())
    }

    /// `priority`'s servers set to `mhz` (unlocked when `None`).
    fn clock(priority: Priority, mhz: Option<f64>) -> ControlRequest {
        ControlRequest::clock(ControlTarget::Priority(priority), mhz)
    }

    fn is_lock(cr: &ControlRequest, priority: Priority, mhz: f64) -> bool {
        *cr == clock(priority, Some(mhz))
    }

    #[test]
    fn no_observation_means_no_action() {
        let mut c = PolcaController::new(PolcaPolicy::default());
        assert!(c.on_telemetry(SimTime::ZERO, None, &ctx()).is_empty());
    }

    #[test]
    fn t1_caps_low_priority_at_base_clock() {
        let mut c = PolcaController::new(PolcaPolicy::default());
        assert!(tick(&mut c, 0.0, 0.70).is_empty());
        let cmds = tick(&mut c, 2.0, 0.82);
        assert_eq!(cmds.len(), 1);
        assert!(is_lock(&cmds[0], Priority::Low, 1275.0));
        // Holding above T1 does not re-issue.
        assert!(tick(&mut c, 4.0, 0.83).is_empty());
    }

    #[test]
    fn t2_escalates_low_then_high() {
        let mut c = PolcaController::new(PolcaPolicy::default());
        let cmds = tick(&mut c, 0.0, 0.90);
        assert_eq!(cmds.len(), 1);
        assert!(is_lock(&cmds[0], Priority::Low, 1110.0));
        // Still above T2 on the next tick: gently cap high priority.
        let cmds = tick(&mut c, 2.0, 0.90);
        assert_eq!(cmds.len(), 1);
        assert!(is_lock(&cmds[0], Priority::High, 1305.0));
        // And no further churn while it stays high (short of the brake).
        assert!(tick(&mut c, 4.0, 0.95).is_empty());
    }

    #[test]
    fn hysteresis_prevents_oscillation_at_threshold() {
        // Dwell 0 isolates the *gap* hysteresis under test here.
        let mut c = PolcaController::new(PolcaPolicy::default().with_uncap_dwell(0.0));
        tick(&mut c, 0.0, 0.82); // cap at T1
                                 // Dipping just below T1 must NOT uncap (uncap level is 75 %).
        assert!(tick(&mut c, 2.0, 0.79).is_empty());
        assert!(tick(&mut c, 4.0, 0.78).is_empty());
        // Only below 75 % does it uncap.
        let cmds = tick(&mut c, 6.0, 0.74);
        assert_eq!(cmds, [clock(Priority::Low, None)]);
        assert_eq!(c.transitions(), 2);
    }

    #[test]
    fn t2_deescalates_to_t1_not_straight_to_uncapped() {
        let mut c = PolcaController::new(PolcaPolicy::default().with_uncap_dwell(0.0));
        tick(&mut c, 0.0, 0.90);
        tick(&mut c, 2.0, 0.90); // hp capped
        let cmds = tick(&mut c, 4.0, 0.80); // below T2 uncap (84 %)
                                            // Expect: unlock high, relax low to the T1 clock.
        assert_eq!(
            cmds,
            [
                clock(Priority::High, None),
                clock(Priority::Low, Some(1275.0))
            ]
        );
    }

    #[test]
    fn brake_fires_at_provisioned_limit_and_releases_into_t2() {
        let mut c = PolcaController::new(PolcaPolicy::default());
        let cmds = tick(&mut c, 0.0, 1.01);
        assert_eq!(cmds, [ControlRequest::brake(true)]);
        // Still high: hold the brake.
        assert!(tick(&mut c, 2.0, 0.95).is_empty());
        // Released below 92 %: caps resume at full T2.
        let cmds = tick(&mut c, 4.0, 0.85);
        assert_eq!(
            cmds,
            [
                ControlRequest::brake(false),
                clock(Priority::Low, Some(1110.0)),
                clock(Priority::High, Some(1305.0)),
            ]
        );
    }

    #[test]
    fn every_lock_sets_the_clock_table5_gives_the_mode_entered() {
        // Dwell 0 so each de-escalation lands on the tick that asks.
        let policy = PolcaPolicy::default().with_uncap_dwell(0.0);
        let mut c = PolcaController::new(policy.clone());
        let walk = [
            (0.82, PowerMode::T1, false),
            (0.90, PowerMode::T2, false),
            (0.90, PowerMode::T2, true),
            (1.01, PowerMode::Brake, false),
            (0.85, PowerMode::T2, true), // released
            (0.80, PowerMode::T1, false),
            (0.70, PowerMode::Uncapped, false),
        ];
        let mut clock_cmds = 0;
        for (k, &(u, mode, hp_capped)) in walk.iter().enumerate() {
            let cmds = tick(&mut c, k as f64 * 2.0, u);
            assert_eq!((c.mode, c.hp_capped), (mode, hp_capped), "tick {k}");
            assert!(!cmds.is_empty(), "tick {k} entered a mode silently");
            for cmd in cmds {
                let expected = match cmd.target {
                    ControlTarget::Priority(Priority::Low) => mode.low_priority_clock_mhz(&policy),
                    ControlTarget::Priority(Priority::High) => {
                        mode.high_priority_clock_mhz(&policy)
                    }
                    _ => {
                        assert!(cmd == ControlRequest::brake(mode == PowerMode::Brake));
                        continue;
                    }
                };
                assert_eq!(cmd, ControlRequest::clock(cmd.target, expected), "tick {k}");
                clock_cmds += 1;
            }
        }
        // T1, T2, T2+HP, the two re-locks on release, both classes
        // into T1, and low priority uncapped.
        assert_eq!(clock_cmds, 8);
        assert_eq!(c.transitions(), walk.len() as u64);
    }

    #[test]
    fn zero_gap_ablation_oscillates() {
        // Without the 5 % hysteresis gap, a load hovering at T1 churns.
        // (Dwell 0 on both sides so the gap is the only variable.)
        let gapless = PolcaPolicy::default()
            .with_uncap_gap(0.0)
            .with_uncap_dwell(0.0);
        let mut c = PolcaController::new(gapless);
        let mut churn = 0;
        for k in 0..50 {
            let frac = if k % 2 == 0 { 0.805 } else { 0.795 };
            churn += tick(&mut c, k as f64 * 2.0, frac).len();
        }
        assert!(churn >= 40, "expected churn, got {churn} commands");

        let mut c = PolcaController::new(PolcaPolicy::default().with_uncap_dwell(0.0));
        let mut calm = 0;
        for k in 0..50 {
            let frac = if k % 2 == 0 { 0.805 } else { 0.795 };
            calm += tick(&mut c, k as f64 * 2.0, frac).len();
        }
        assert!(calm <= 1, "hysteresis should suppress churn, got {calm}");
    }

    #[test]
    fn uncap_waits_out_the_dwell() {
        // Default policy: a dip below the uncap level must persist for
        // 60 s (one worst-case OOB round trip) before caps come off —
        // a 2 s dip must NOT trigger de-escalation.
        let mut c = PolcaController::new(PolcaPolicy::default());
        tick(&mut c, 0.0, 0.82); // cap at T1
        assert!(tick(&mut c, 2.0, 0.74).is_empty()); // dip starts
        assert!(tick(&mut c, 30.0, 0.74).is_empty()); // 28 s < dwell
                                                      // A bounce above the uncap level resets the clock…
        assert!(tick(&mut c, 40.0, 0.78).is_empty());
        assert!(tick(&mut c, 42.0, 0.74).is_empty()); // new dip starts
        assert!(tick(&mut c, 100.0, 0.74).is_empty()); // 58 s < dwell
                                                       // …and only a dip that outlasts the dwell uncaps.
        let cmds = tick(&mut c, 104.0, 0.74); // 62 s ≥ dwell
        assert_eq!(cmds, [clock(Priority::Low, None)]);
    }

    #[test]
    fn single_threshold_low_pri_caps_hard_immediately() {
        let mut c = SingleThresholdController::low_priority_only(PolcaPolicy::default());
        assert!(tick(&mut c, 0.0, 0.85).is_empty()); // below 89 %: nothing
        let cmds = tick(&mut c, 2.0, 0.90);
        assert_eq!(cmds.len(), 1);
        assert!(is_lock(&cmds[0], Priority::Low, 1110.0));
    }

    #[test]
    fn single_threshold_all_caps_everyone() {
        let mut c = SingleThresholdController::all_workloads(PolcaPolicy::default());
        let cmds = tick(&mut c, 0.0, 0.90);
        assert_eq!(
            cmds,
            [ControlRequest::clock(ControlTarget::All, Some(1110.0))]
        );
        // Uncap below 84 %.
        let cmds = tick(&mut c, 2.0, 0.83);
        assert_eq!(cmds, [ControlRequest::clock(ControlTarget::All, None)]);
    }

    #[test]
    fn no_cap_only_ever_brakes() {
        let mut c = NoCapController::new(PolcaPolicy::default());
        assert!(tick(&mut c, 0.0, 0.95).is_empty());
        let cmds = tick(&mut c, 2.0, 1.02);
        assert_eq!(cmds, [ControlRequest::brake(true)]);
        let cmds = tick(&mut c, 4.0, 0.80);
        assert_eq!(cmds, [ControlRequest::brake(false)]);
    }

    #[test]
    fn baselines_brake_where_polca_would_have_capped_first() {
        // Ramp the same utilization trajectory through POLCA and No-cap:
        // POLCA starts capping at 80 %, No-cap lets it ride to the limit.
        let trajectory = [0.7, 0.82, 0.9, 0.96, 1.01];
        let mut polca = PolcaController::new(PolcaPolicy::default());
        let mut nocap = NoCapController::new(PolcaPolicy::default());
        let mut polca_caps = 0;
        let mut nocap_braked = false;
        for (k, &f) in trajectory.iter().enumerate() {
            polca_caps += tick(&mut polca, k as f64 * 2.0, f)
                .iter()
                .filter(|c| c.target != ControlTarget::All)
                .count();
            nocap_braked |=
                tick(&mut nocap, k as f64 * 2.0, f).contains(&ControlRequest::brake(true));
        }
        assert!(polca_caps >= 2, "POLCA should have escalated caps");
        assert!(nocap_braked, "No-cap should have hit the UPS brake");
    }
}
