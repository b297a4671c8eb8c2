//! End-to-end integration tests for the POLCA oversubscription pipeline:
//! production trace synthesis → replication → cluster simulation →
//! policy evaluation → SLO checking, spanning every crate in the
//! workspace.

use polca::{OversubscriptionStudy, PolcaPolicy, PolicyKind};
use polca_cluster::{ClusterSim, RowConfig, SimConfig, SimReport};
use polca_obs::Recorder;
use polca_sim::SimTime;
use polca_trace::replicate::{production_reference, ProductionReplicator};
use polca_trace::{ArrivalGenerator, TraceConfig, WorkloadClass};

fn study(days: f64, seed: u64) -> OversubscriptionStudy {
    OversubscriptionStudy::new(
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        days,
        seed,
    )
}

#[test]
fn headline_result_thirty_percent_more_servers_zero_brakes() {
    // §6.5/§6.6: with T1=80 %, T2=89 %, POLCA hosts 30 % more servers
    // under the unchanged row budget, meets every Table 6 SLO and never
    // fires the power brake.
    let mut s = study(2.0, 11);
    let o = s.run(PolicyKind::Polca, 0.30, 1.0);
    assert_eq!(o.brake_engagements, 0, "POLCA must avoid power brakes");
    assert!(o.slo.met, "SLO violations: {:?}", o.slo.violations);
    assert!(o.peak_utilization <= 1.0, "peak {}", o.peak_utilization);
    assert!(
        o.low_throughput_norm > 0.98 && o.high_throughput_norm > 0.98,
        "throughput loss must be minor: {} / {}",
        o.low_throughput_norm,
        o.high_throughput_norm
    );
}

#[test]
fn baselines_brake_where_polca_does_not() {
    // Figure 18's ordering: POLCA has the fewest brake events.
    let mut s = study(2.0, 11);
    s.set_record_power(false);
    let polca = s.run(PolicyKind::Polca, 0.30, 1.0).brake_engagements;
    let no_cap = s.run(PolicyKind::NoCap, 0.30, 1.0).brake_engagements;
    let one_lp = s
        .run(PolicyKind::OneThreshLowPri, 0.30, 1.0)
        .brake_engagements;
    assert_eq!(polca, 0);
    assert!(no_cap > 0, "No-cap must hit the UPS brake at +30 %");
    assert!(polca <= one_lp, "POLCA must not brake more than 1-Thresh");
    assert!(one_lp < no_cap, "capping must reduce brakes vs No-cap");
}

#[test]
fn power_drift_scenario_keeps_polca_most_robust() {
    // §6.6 "+5 % more power-intensive workloads": POLCA incurs the least
    // brake events of all policies.
    let mut s = study(2.0, 13);
    s.set_record_power(false);
    let mut counts = Vec::new();
    for kind in PolicyKind::all() {
        counts.push((kind, s.run(kind, 0.30, 1.05).brake_engagements));
    }
    let polca = counts[0].1;
    for &(kind, brakes) in &counts[1..] {
        assert!(
            polca <= brakes,
            "POLCA ({polca}) should brake no more than {} ({brakes})",
            kind.name()
        );
    }
}

#[test]
fn oversubscribing_raises_power_utilization() {
    // The point of the exercise: the same budget does more work.
    let mut s = study(1.0, 17);
    let base = s.run(PolicyKind::NoCap, 0.0, 1.0);
    let over = s.run(PolicyKind::Polca, 0.30, 1.0);
    assert!(over.mean_utilization > base.mean_utilization * 1.1);
    assert!(over.counts.1 > (base.counts.1 as f64 * 1.2) as u64);
}

#[test]
fn trained_thresholds_reproduce_the_paper_operating_point() {
    let s = study(2.0, 17);
    let trainer = s.trained_thresholds();
    let t1 = trainer.t1();
    let t2 = trainer.t2();
    assert!((0.76..=0.84).contains(&t1), "t1 {t1}");
    assert!((0.85..=0.93).contains(&t2), "t2 {t2}");
}

#[test]
fn runs_are_deterministic_across_identical_studies() {
    let mut a = study(0.5, 3);
    let mut b = study(0.5, 3);
    let oa = a.run(PolicyKind::Polca, 0.30, 1.0);
    let ob = b.run(PolicyKind::Polca, 0.30, 1.0);
    assert_eq!(oa.counts, ob.counts);
    assert_eq!(oa.brake_engagements, ob.brake_engagements);
    assert_eq!(oa.low_raw.p99, ob.low_raw.p99);
    assert_eq!(oa.peak_utilization, ob.peak_utilization);
}

#[test]
fn deeper_oversubscription_eventually_brakes() {
    // Figure 13: the brake wall exists; POLCA cannot stretch forever.
    let mut s = study(1.0, 5);
    s.set_record_power(false);
    let modest = s.run(PolicyKind::Polca, 0.20, 1.0);
    let extreme = s.run(PolicyKind::Polca, 0.60, 1.0);
    assert_eq!(modest.brake_engagements, 0);
    assert!(
        extreme.brake_engagements > 0,
        "+60 % must exceed what capping can absorb"
    );
}

/// One row at +30 % servers under `kind` and `policy`, fed the same
/// 1.3×-scaled production stream for a quarter day.
fn quarter_day(kind: PolicyKind, policy: &PolcaPolicy) -> SimReport {
    let base_row = RowConfig::paper_inference_row();
    let until = SimTime::from_days(0.25);
    let profile = production_reference(&base_row, 0.25, 60.0, 23);
    let schedule = ProductionReplicator::new(&base_row, &WorkloadClass::table6())
        .schedule_from_profile(&profile)
        .expect("synthesized profile is well-formed")
        .scaled(1.3);
    let trace = TraceConfig {
        seed: 23,
        horizon: until,
        schedule,
        mix: WorkloadClass::table6(),
    };
    let config = SimConfig {
        seed: 23,
        record_power_series: false,
        ..SimConfig::default()
    };
    let controller = kind.controller(policy, &Recorder::disabled());
    ClusterSim::new(base_row.with_added_servers(0.30), config, controller)
        .run(ArrivalGenerator::new(&trace), until)
}

#[test]
fn policies_that_never_trip_run_the_same_row() {
    // With every threshold, the brake included, above any power the row
    // can reach, no policy has anything to do: all four issue no
    // command and simulate the same row, bit for bit.
    let unreachable = PolcaPolicy {
        t1_frac: 10.0,
        t2_frac: 10.0,
        brake_frac: 10.0,
        ..PolcaPolicy::default()
    };
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let reports: Vec<SimReport> = PolicyKind::all()
        .into_iter()
        .map(|kind| quarter_day(kind, &unreachable))
        .collect();
    let first = &reports[0];
    assert_eq!(first.commands_issued, 0);
    for (kind, r) in PolicyKind::all().into_iter().zip(&reports).skip(1) {
        let name = kind.name();
        assert_eq!(r.commands_issued, 0, "{name}");
        assert_eq!(r.brake_engagements, 0, "{name}");
        assert_eq!(
            (r.offered, r.completed, r.rejected, r.events_processed),
            (
                first.offered,
                first.completed,
                first.rejected,
                first.events_processed
            ),
            "{name}"
        );
        assert_eq!(
            r.completed_by_priority, first.completed_by_priority,
            "{name}"
        );
        assert_eq!(r.rejected_by_priority, first.rejected_by_priority, "{name}");
        assert_eq!(
            bits(&r.low_latencies_s),
            bits(&first.low_latencies_s),
            "{name}"
        );
        assert_eq!(
            bits(&r.high_latencies_s),
            bits(&first.high_latencies_s),
            "{name}"
        );
        assert_eq!(
            [r.peak_row_watts.to_bits(), r.mean_row_watts.to_bits()],
            [
                first.peak_row_watts.to_bits(),
                first.mean_row_watts.to_bits()
            ],
            "{name}"
        );
    }
    // The same stream does make the paper's POLCA act, so the relation
    // above is not vacuous.
    let polca = quarter_day(PolicyKind::Polca, &PolcaPolicy::default());
    assert!(polca.commands_issued > 0);
}
