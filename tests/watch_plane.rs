//! Watch-plane guarantees (ISSUE 3 acceptance criteria):
//!
//! * watching is *passive* — attaching a [`WatchPlane`] must leave the
//!   simulation's outcomes and event log bit-identical,
//! * the plane fires off *delayed* telemetry only, so every incident
//!   carries a nonzero detection lag attributable to the 2 s row-power
//!   propagation delay (Table 2),
//! * ground truth annotates incidents but can never open one,
//! * with a fixed seed the incident log is byte-identical across runs
//!   and pinned by a golden file for a seeded brake storm.

use polca::{OversubscriptionStudy, PolicyKind, PolicyOutcome, SloTargets};
use polca_cluster::{
    ClusterSim, ControlRequest, NoopController, PowerController, Priority, Request, RowConfig,
    RowContext, SimConfig,
};
use polca_obs::{ObsLevel, Recorder};
use polca_sim::SimTime;
use polca_telemetry::RowPowerTaps;
use polca_watch::{BurnConfig, RuleSet, Severity, WatchArtifacts, WatchConfig, WatchPlane};
use proptest::prelude::*;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// The 4-server variant of the paper inference row used by the
/// cluster-sim unit tests: 2 low-priority servers, 2 high.
fn small_row() -> RowConfig {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    row
}

/// Runs the quick-demo study under POLCA with `recorder`, optionally
/// with a watch plane attached to the OOB taps and the obs event
/// stream.
fn run_study(
    seed: u64,
    recorder: Recorder,
    watch: bool,
) -> (PolicyOutcome, Recorder, Option<WatchArtifacts>) {
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    let plane = if watch {
        let plane = WatchPlane::new(WatchConfig::new(study.row().provisioned_watts()));
        let mut taps = RowPowerTaps::new();
        plane.attach(&mut taps, &recorder);
        study.set_oob_taps(taps);
        Some(plane)
    } else {
        None
    };
    let days = study.days();
    let outcome = study.run(PolicyKind::Polca, 0.30, 1.0);
    recorder.clear_tap();
    let artifacts = plane.map(|p| p.finalize(SimTime::from_days(days)));
    (outcome, recorder, artifacts)
}

fn assert_outcomes_identical(a: &PolicyOutcome, b: &PolicyOutcome) {
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.brake_engagements, b.brake_engagements);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.commands_issued, b.commands_issued);
    for (qa, qb) in [
        (&a.low_normalized, &b.low_normalized),
        (&a.high_normalized, &b.high_normalized),
        (&a.low_raw, &b.low_raw),
        (&a.high_raw, &b.high_raw),
    ] {
        assert_eq!(qa.count, qb.count);
        assert_eq!(qa.p50, qb.p50);
        assert_eq!(qa.p90, qb.p90);
        assert_eq!(qa.p99, qb.p99);
        assert_eq!(qa.min, qb.min);
        assert_eq!(qa.max, qb.max);
        assert_eq!(qa.mean, qb.mean);
    }
    assert_eq!(a.peak_utilization, b.peak_utilization);
    assert_eq!(a.mean_utilization, b.mean_utilization);
    assert_eq!(a.low_throughput_norm, b.low_throughput_norm);
    assert_eq!(a.high_throughput_norm, b.high_throughput_norm);
    assert_eq!(a.slo.met, b.slo.met);
    assert_eq!(a.row_power.values(), b.row_power.values());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Watching is passive: a watched run and an unwatched run of the
    /// same seeded study produce identical outcomes *and* an identical
    /// event log — the plane observes, it never perturbs.
    #[test]
    fn watching_never_perturbs_outcomes(seed in 0u64..1000) {
        let (plain, plain_rec, _) = run_study(seed, Recorder::new(ObsLevel::Full), false);
        let (watched, watched_rec, artifacts) =
            run_study(seed, Recorder::new(ObsLevel::Full), true);
        assert_outcomes_identical(&plain, &watched);
        prop_assert_eq!(
            plain_rec.artifacts().events_jsonl(),
            watched_rec.artifacts().events_jsonl()
        );
        // The plane did observe the run: its burn tracker saw every
        // completed request the recorder logged.
        let artifacts = artifacts.unwrap();
        let watched_total: u64 = artifacts.burn_summaries().iter().map(|s| s.total).sum();
        prop_assert!(watched_total > 0);
    }
}

/// Fixed seed ⇒ byte-identical watch artifacts (incidents.jsonl, the
/// report, the trace annotations) across repeated runs.
#[test]
fn watch_artifacts_are_byte_identical_across_runs() {
    let (_, _, a) = run_study(11, Recorder::new(ObsLevel::Full), true);
    let (_, _, b) = run_study(11, Recorder::new(ObsLevel::Full), true);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a, b);
    assert_eq!(a.incidents_jsonl(), b.incidents_jsonl());
    assert_eq!(a.report_md(), b.report_md());
    assert_eq!(a.annotations().len(), b.annotations().len());
}

/// The headline honesty metric: the watch plane fires off the *delayed*
/// OOB feed, so a power surge is detected exactly one propagation delay
/// (Table 2: 2 s) after ground truth crossed the threshold.
#[test]
fn detection_lag_equals_the_telemetry_propagation_delay() {
    let row = small_row();
    let provisioned = row.provisioned_watts();
    // One zero-hold threshold rule, so the only lag left is the feed's.
    let rules =
        RuleSet::parse("power-up threshold over=0.5 clear=0.45 hold=0s severity=critical").unwrap();
    let config = WatchConfig {
        provisioned_watts: provisioned,
        rules,
        slo: SloTargets::default(),
        burn: BurnConfig::default(),
        escalate_after_alerts: 3,
        resolve_after_s: 300.0,
        energy: None,
    };
    let plane = WatchPlane::new(config);
    let mut sim_config = SimConfig::default();
    sim_config.oob_taps.subscribe(plane.subscriber());
    let delay_s = sim_config.telemetry_delay_s;

    // Saturate all four servers (plus buffers) just before the t=30
    // telemetry tick: truth crosses 50 % at t=30, the delayed view at
    // t=32.
    let reqs: Vec<Request> = (0..8)
        .map(|i| {
            let priority = if i % 2 == 0 {
                Priority::Low
            } else {
                Priority::High
            };
            Request::new(i, t(29.0), 1024, 64, priority)
        })
        .collect();
    let report = ClusterSim::new(row, sim_config, NoopController).run(reqs, t(300.0));
    assert!(
        report.peak_row_watts > 0.5 * provisioned,
        "row never got hot"
    );

    let artifacts = plane.finalize(t(300.0));
    let inc = artifacts
        .incidents()
        .iter()
        .find(|i| i.rule == "power-up")
        .expect("the surge must open an incident");
    assert_eq!(inc.severity, Severity::Critical);
    let lag = inc
        .detection_lag_s
        .expect("truth feed must annotate the lag");
    assert!(lag > 0.0, "detection lag must be nonzero");
    assert_eq!(
        lag, delay_s,
        "with a zero-hold rule the whole lag is the 2 s propagation delay"
    );
}

/// Ground truth is annotation-only: a truth-side excursion that the
/// delayed feed never reports must not open an incident or fire an
/// alert.
#[test]
fn ground_truth_alone_never_fires() {
    let plane = WatchPlane::new(WatchConfig::new(1000.0));
    let sub = plane.subscriber();
    for i in 0..200 {
        let now = t(i as f64 * 2.0);
        // Truth spends 100-300 s far above every threshold...
        let truth = if (50..150).contains(&i) { 990.0 } else { 300.0 };
        // ...but the OOB feed (say, a stuck sensor) keeps reporting calm.
        sub.on_tick(0, now, truth, Some(300.0));
    }
    let artifacts = plane.finalize(t(400.0));
    assert!(artifacts.alerts().is_empty(), "{:?}", artifacts.alerts());
    assert!(artifacts.incidents().is_empty());
}

/// A controller that engages the row power brake in three 10 s bursts —
/// the seeded "brake storm" behind the golden incident log.
struct BrakeStorm;

impl PowerController for BrakeStorm {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        _observed: Option<f64>,
        _ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        let s = now.as_secs().round() as u64;
        let on = matches!(s, 60 | 100 | 140);
        let off = matches!(s, 70 | 110 | 150);
        if on || off {
            vec![ControlRequest::brake(on)]
        } else {
            Vec::new()
        }
    }
}

/// Runs the seeded brake storm with the watch plane on both feeds
/// (delayed power via the OOB taps, brake events via the obs tap).
fn run_brake_storm() -> WatchArtifacts {
    let row = small_row();
    let plane = WatchPlane::new(WatchConfig::new(row.provisioned_watts()));
    let recorder = Recorder::new(ObsLevel::Events);
    let mut config = SimConfig {
        recorder: recorder.clone(),
        ..SimConfig::default()
    };
    plane.attach(&mut config.oob_taps, &recorder);
    let _ = ClusterSim::new(row, config, BrakeStorm).run(std::iter::empty(), t(600.0));
    recorder.clear_tap();
    plane.finalize(t(600.0))
}

/// Golden-file pin of the incident log for the seeded brake storm: the
/// default `brake-storm` count rule (k=2 within 300 s) catches the
/// storm with zero detection lag (brake events are not delayed), and
/// the incident escalates and mitigates deterministically. Regenerate
/// deliberately (and review the postmortem diff) if the format or the
/// lifecycle semantics change.
#[test]
fn brake_storm_incident_log_matches_golden_file() {
    let a = run_brake_storm();
    let b = run_brake_storm();
    assert_eq!(
        a.incidents_jsonl(),
        b.incidents_jsonl(),
        "incident log must be byte-identical under a fixed seed"
    );
    assert!(
        a.incidents().iter().any(|i| i.rule == "brake-storm"),
        "incidents: {}",
        a.incidents_jsonl()
    );
    let golden = include_str!("golden/incidents.jsonl");
    assert_eq!(a.incidents_jsonl(), golden);
    // The postmortem names the storm and accounts for every incident.
    let report = a.report_md();
    assert!(report.contains("brake-storm"), "{report}");
    assert!(report.starts_with("# Watch report"), "{report}");
}
