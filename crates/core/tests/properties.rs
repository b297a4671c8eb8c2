//! Property-based tests for the POLCA controller state machine.

use proptest::prelude::*;

use polca::{
    NoCapController, PolcaController, PolcaPolicy, SelectiveController, SingleThresholdController,
};
use polca_cluster::{ControlRequest, PowerController, RowContext};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

fn ctx() -> RowContext {
    RowContext {
        provisioned_watts: 100_000.0,
        n_servers: 52,
    }
}

/// Runs a utilization trajectory through a controller, returning every
/// command batch.
fn drive(controller: &mut impl PowerController, utils: &[f64]) -> Vec<Vec<ControlRequest>> {
    utils
        .iter()
        .enumerate()
        .map(|(k, &u)| {
            controller.on_telemetry(
                SimTime::from_secs(k as f64 * 2.0),
                Some(u * 100_000.0),
                &ctx(),
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn commands_only_flow_on_transitions(utils in prop::collection::vec(0.0..1.2f64, 1..200)) {
        let mut c = PolcaController::new(PolcaPolicy::default());
        let batches = drive(&mut c, &utils);
        // Total command batches with content never exceed transitions + 1.
        let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
        prop_assert!(non_empty <= c.transitions() + 1);
    }

    #[test]
    fn brake_on_is_always_followed_by_brake_off_before_next_on(utils in prop::collection::vec(0.0..1.3f64, 1..300)) {
        let mut c = PolcaController::new(PolcaPolicy::default());
        let mut braked = false;
        for batch in drive(&mut c, &utils) {
            for cmd in batch {
                if let ControlAction::PowerBrake { on } = cmd.action {
                    prop_assert_ne!(on, braked, "redundant brake command");
                    braked = on;
                }
            }
        }
    }

    #[test]
    fn steady_low_power_eventually_uncaps_everything(high in 0.90..0.99f64) {
        let mut c = PolcaController::new(PolcaPolicy::default());
        // Spike up, then hold far below every threshold.
        let mut utils = vec![high; 5];
        utils.extend(std::iter::repeat_n(0.5, 20));
        let batches = drive(&mut c, &utils);
        // The last batches must contain no new caps, and the state must
        // have fully unwound (nothing more to say at 50 %).
        let trailing: usize = batches[20..].iter().map(Vec::len).sum();
        prop_assert_eq!(trailing, 0, "controller still chattering at idle");
    }

    #[test]
    fn locks_never_target_invalid_frequencies(utils in prop::collection::vec(0.0..1.3f64, 1..200)) {
        let mut c = PolcaController::new(PolcaPolicy::default());
        for batch in drive(&mut c, &utils) {
            for cmd in batch {
                if let ControlAction::LockClock { mhz } = cmd.action {
                    prop_assert!((210.0..=1410.0).contains(&mhz), "lock at {mhz} MHz");
                }
            }
        }
    }

    #[test]
    fn hysteresis_band_produces_no_commands(
        offset in 0.0..0.04f64,
        n in 1usize..50,
    ) {
        // Utilization wandering inside (t1 - gap, t1) after a T1 entry:
        // the controller must hold its state silently.
        let p = PolcaPolicy::default();
        let mut c = PolcaController::new(p.clone());
        let mut utils = vec![p.t1_frac + 0.01]; // enter T1
        utils.extend((0..n).map(|k| {
            let wobble = if k % 2 == 0 { offset } else { -offset };
            (p.t1_frac - p.uncap_gap / 2.0 + wobble).clamp(p.t1_uncap_frac() + 0.001, p.t2_frac - 0.001)
        }));
        let batches = drive(&mut c, &utils);
        let after_entry: usize = batches[1..].iter().map(Vec::len).sum();
        prop_assert_eq!(after_entry, 0, "commands inside the hysteresis band");
    }

    #[test]
    fn nocap_controller_only_ever_brakes(utils in prop::collection::vec(0.0..1.3f64, 1..200)) {
        let mut c = NoCapController::new(PolcaPolicy::default());
        for batch in drive(&mut c, &utils) {
            for cmd in batch {
                prop_assert!(
                    matches!(cmd.action, ControlAction::PowerBrake { .. }),
                    "No-cap issued {cmd:?}"
                );
            }
        }
    }

    #[test]
    fn every_policy_brakes_at_the_same_ticks(
        observed in prop::collection::vec(prop::option::of(0.0..1.3f64), 1..300),
    ) {
        // One brake net serves every policy, so whatever each caps, the
        // brake engages and releases on the same ticks for all five.
        let policy = PolcaPolicy::default();
        let mut controllers: Vec<Box<dyn PowerController>> = vec![
            Box::new(PolcaController::new(policy.clone())),
            Box::new(SingleThresholdController::low_priority_only(policy.clone())),
            Box::new(SingleThresholdController::all_workloads(policy.clone())),
            Box::new(NoCapController::new(policy.clone())),
            Box::new(SelectiveController::new(policy, (0..26).collect(), 600.0)),
        ];
        let brakes: Vec<Vec<(usize, bool)>> = controllers
            .iter_mut()
            .map(|c| {
                let mut brakes = Vec::new();
                for (k, u) in observed.iter().enumerate() {
                    let now = SimTime::from_secs(k as f64 * 2.0);
                    for cmd in c.on_telemetry(now, u.map(|u| u * 100_000.0), &ctx()) {
                        if let ControlAction::PowerBrake { on } = cmd.action {
                            brakes.push((k, on));
                        }
                    }
                }
                brakes
            })
            .collect();
        for other in &brakes[1..] {
            prop_assert_eq!(other, &brakes[0]);
        }
    }

    #[test]
    fn missing_telemetry_is_always_a_noop(n in 1usize..50) {
        let mut c = PolcaController::new(PolcaPolicy::default());
        for k in 0..n {
            let out = c.on_telemetry(SimTime::from_secs(k as f64 * 2.0), None, &ctx());
            prop_assert!(out.is_empty());
        }
        prop_assert_eq!(c.transitions(), 0);
    }
}
