//! The workload-aware POLCA extension (§6.7).
//!
//! "POLCA could be extended to use workload-specific power profiles to
//! reduce the impact on performance, while getting the most power
//! savings." The dual-threshold controller caps *every* low-priority
//! server when a threshold trips; [`SelectiveController`] instead
//! estimates how many watts must be reclaimed and caps only the minimum
//! number of low-priority servers that covers it, expanding or shrinking
//! the capped set as the overshoot evolves. It sits behind the same
//! brake net and transition trace as every other policy.

use polca_cluster::{ControlRequest, ControlTarget, PowerController, RowContext};
use polca_obs::Recorder;
use polca_sim::SimTime;

use crate::controller::{baseline_label, Governor};
use crate::policy::{PolcaPolicy, PowerMode};

/// A proportional, per-server variant of the POLCA controller.
///
/// Above T1 it caps `ceil(overshoot / reclaim_per_server)` low-priority
/// servers at the T1 clock (round-robin over the low-priority pool so the
/// capping burden rotates); the brake safety net is unchanged. High
/// priority is never touched — the selective reclaim happens entirely in
/// the low-priority pool, maximizing power savings per unit of
/// performance impact.
#[derive(Debug, Clone)]
pub struct SelectiveController {
    gov: Governor,
    /// Watts one capped low-priority server reclaims (from the workload
    /// power profile; a BLOOM token-phase server at 1110 MHz sheds
    /// ~600 W).
    reclaim_per_server_watts: f64,
    /// Ids of the row's low-priority servers.
    low_priority_servers: Vec<usize>,
    /// How many of them are currently capped (a prefix of the rotated
    /// pool).
    capped: usize,
    /// Rotation offset so the same servers are not always capped first.
    rotation: usize,
    braked: bool,
}

impl SelectiveController {
    /// Creates the controller for a row whose low-priority servers are
    /// `low_priority_servers`.
    ///
    /// # Panics
    ///
    /// Panics if `reclaim_per_server_watts` is not strictly positive.
    pub fn new(
        policy: PolcaPolicy,
        low_priority_servers: Vec<usize>,
        reclaim_per_server_watts: f64,
    ) -> Self {
        assert!(
            reclaim_per_server_watts > 0.0,
            "per-server reclaim must be positive"
        );
        SelectiveController {
            gov: Governor::new(policy),
            reclaim_per_server_watts,
            low_priority_servers,
            capped: 0,
            rotation: 0,
            braked: false,
        }
    }

    /// Returns the controller with an observability recorder attached:
    /// entering and leaving capping or the brake is traced as a
    /// `controller_transition` event.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.gov.recorder = recorder;
        self
    }

    /// How many low-priority servers are currently capped.
    pub fn capped_servers(&self) -> usize {
        self.capped
    }

    /// Sets the `idx`-th server of the rotated pool to the clock Table 5
    /// gives low priority in `mode`.
    fn set_clock(&self, idx: usize, mode: PowerMode) -> ControlRequest {
        let n = self.low_priority_servers.len();
        let server = self.low_priority_servers[(self.rotation + idx) % n];
        ControlRequest::clock(
            ControlTarget::Server(server),
            mode.low_priority_clock_mhz(&self.gov.policy),
        )
    }

    /// Adjusts the capped prefix to `target`, emitting only the deltas:
    /// a capped server runs at the T1 clock.
    fn resize_capped(&mut self, target: usize, cmds: &mut Vec<ControlRequest>) {
        let target = target.min(self.low_priority_servers.len());
        while self.capped < target {
            cmds.push(self.set_clock(self.capped, PowerMode::T1));
            self.capped += 1;
        }
        while self.capped > target {
            self.capped -= 1;
            cmds.push(self.set_clock(self.capped, PowerMode::Uncapped));
        }
        if target == 0 && !self.low_priority_servers.is_empty() {
            // Rotate the pool so capping burden moves around.
            self.rotation = (self.rotation + 1) % self.low_priority_servers.len();
        }
    }
}

impl PowerController for SelectiveController {
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
        let before = (self.braked, self.capped > 0);
        let mut cmds = Vec::new();
        if self.gov.brake_toggles(self.braked, u, &mut cmds) {
            self.braked = !self.braked;
        }
        // Capping waits while the brake holds.
        if !self.braked {
            let p = &self.gov.policy;
            if u >= p.t1_frac {
                // Cap exactly enough servers to bring power back to the
                // uncap level (hysteresis built into the target).
                let target_watts = p.t1_uncap_frac() * ctx.provisioned_watts;
                let overshoot = watts - target_watts;
                let needed = (overshoot / self.reclaim_per_server_watts).ceil() as usize;
                if needed > self.capped {
                    self.resize_capped(needed, &mut cmds);
                }
            } else if u < p.t1_uncap_frac() && self.capped > 0 {
                // Release one server per tick: gradual uncapping avoids
                // the sawtooth a bulk release would cause.
                let target = self.capped - 1;
                self.resize_capped(target, &mut cmds);
            }
        }
        let after = (self.braked, self.capped > 0);
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
            n_servers: 8,
        }
    }

    fn controller() -> SelectiveController {
        SelectiveController::new(PolcaPolicy::default(), vec![0, 2, 4, 6], 3000.0)
    }

    fn tick(c: &mut SelectiveController, t: f64, frac: f64) -> Vec<ControlRequest> {
        c.on_telemetry(SimTime::from_secs(t), Some(frac * 100_000.0), &ctx())
    }

    #[test]
    fn caps_proportionally_to_the_overshoot() {
        // 82 % observed, target 75 % ⇒ 7 kW overshoot ⇒ 3 servers at
        // 3 kW reclaim each.
        let mut c = controller();
        let cmds = tick(&mut c, 0.0, 0.82);
        assert_eq!(c.capped_servers(), 3);
        assert_eq!(cmds.len(), 3);
        // A smaller overshoot caps fewer…
        let mut c = controller();
        let cmds = tick(&mut c, 0.0, 0.805);
        assert_eq!(c.capped_servers(), 2, "{cmds:?}");
        // …and a huge one saturates at the pool size.
        let mut c = controller();
        tick(&mut c, 0.0, 0.99);
        assert_eq!(c.capped_servers(), 4);
    }

    #[test]
    fn below_threshold_releases_gradually() {
        let mut c = controller();
        tick(&mut c, 0.0, 0.82);
        assert_eq!(c.capped_servers(), 3);
        // Well below the uncap level: one server released per tick.
        tick(&mut c, 2.0, 0.70);
        assert_eq!(c.capped_servers(), 2);
        tick(&mut c, 4.0, 0.70);
        assert_eq!(c.capped_servers(), 1);
    }

    #[test]
    fn hysteresis_band_holds_the_capped_set() {
        let mut c = controller();
        tick(&mut c, 0.0, 0.805);
        let capped = c.capped_servers();
        assert!(capped > 0);
        // Between uncap (75 %) and T1 (80 %): no change either way.
        assert!(tick(&mut c, 2.0, 0.78).is_empty());
        assert!(tick(&mut c, 4.0, 0.76).is_empty());
        assert_eq!(c.capped_servers(), capped);
    }

    #[test]
    fn only_low_priority_servers_are_ever_locked() {
        let mut c = controller();
        for (k, frac) in [0.85, 0.9, 0.7, 0.6, 0.95].iter().enumerate() {
            for cmd in tick(&mut c, k as f64 * 2.0, *frac) {
                match cmd.target {
                    ControlTarget::Server(id) => assert!([0, 2, 4, 6].contains(&id)),
                    ControlTarget::All => {
                        assert!(
                            cmd == ControlRequest::brake(true)
                                || cmd == ControlRequest::brake(false)
                        )
                    }
                    other => panic!("unexpected target {other:?}"),
                }
            }
        }
    }

    #[test]
    fn brake_fires_at_the_limit() {
        let mut c = controller();
        let cmds = tick(&mut c, 0.0, 1.01);
        assert_eq!(cmds, [ControlRequest::brake(true)]);
        // And releases below the release threshold.
        let cmds = tick(&mut c, 2.0, 0.80);
        assert_eq!(cmds[0], ControlRequest::brake(false));
    }

    #[test]
    fn capping_and_the_brake_are_traced_as_transitions() {
        use polca_obs::{Event, ObsLevel};

        let recorder = Recorder::new(ObsLevel::Events);
        let mut c = controller().with_recorder(recorder.clone());
        tick(&mut c, 0.0, 0.82); // caps three servers
        tick(&mut c, 2.0, 0.83); // still three: no transition
        tick(&mut c, 4.0, 1.01); // brakes
        let transitions: Vec<_> = (recorder.artifacts().events.iter())
            .filter_map(|e| match e {
                Event::ControllerTransition { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(transitions, [("Uncapped", "Capped"), ("Capped", "Brake")]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_reclaim_rejected() {
        let _ = SelectiveController::new(PolcaPolicy::default(), vec![0], 0.0);
    }
}
