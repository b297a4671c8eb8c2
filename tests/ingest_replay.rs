//! Integration tests for the real-trace ingestion subsystem:
//! generate → export → ingest → replay round-trips, the bundled
//! Azure-schema sample, and the Figure 17 policy comparison on a
//! replayed (rather than synthesized) trace.

use std::path::Path;

use polca::{OversubscriptionStudy, PolcaController, PolcaPolicy, PolicyKind};
use polca_cluster::{ClusterSim, RowConfig, SimConfig};
use polca_ingest::{
    requests_to_csv, IngestedTrace, ReplayOptions, TraceCalibration, TraceReplay, TraceStats,
};
use polca_obs::{ObsLevel, Recorder};
use polca_sim::{SimRng, SimTime};
use polca_trace::{ArrivalGenerator, DiurnalPattern, RateSchedule, TraceConfig, WorkloadClass};

fn synthetic_requests(seed: u64, horizon_s: f64, rate: f64) -> Vec<polca_cluster::Request> {
    let config = TraceConfig {
        seed,
        horizon: SimTime::from_secs(horizon_s),
        schedule: RateSchedule::constant(rate, horizon_s),
        mix: WorkloadClass::table6(),
    };
    ArrivalGenerator::new(&config).collect()
}

fn sample_path() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sample_trace.csv"
    ))
}

/// The PR's acceptance bar: exporting a seeded synthetic trace to CSV
/// and replaying it through `RequestSource` yields a byte-identical
/// `events.jsonl` versus running the generator directly.
#[test]
fn replayed_trace_reproduces_the_generator_run_byte_for_byte() {
    let requests = synthetic_requests(7, 1_800.0, 1.5);
    let until = SimTime::from_secs(3_600.0);
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 20;
    let row = row.with_added_servers(0.30);

    let run = |arrivals: Vec<polca_cluster::Request>| {
        let recorder = Recorder::new(ObsLevel::Events);
        let config = SimConfig {
            seed: 7,
            recorder: recorder.clone(),
            record_power_series: false,
            ..SimConfig::default()
        };
        let controller =
            PolcaController::new(PolcaPolicy::default()).with_recorder(recorder.clone());
        let sim = ClusterSim::new(row.clone(), config, controller);
        let report = sim.run(arrivals, until);
        (report, recorder.artifacts().events_jsonl())
    };

    // Direct path: the generator's request stream as-is.
    let (direct_report, direct_events) = run(requests.clone());

    // Round trip: export to Azure-schema CSV, ingest, replay.
    let csv = requests_to_csv(&requests);
    let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
    assert_eq!(trace.skipped_rows(), 0);
    let replayed: Vec<polca_cluster::Request> = TraceReplay::new(&trace).collect();
    assert_eq!(replayed, requests, "request streams must match exactly");
    let (replay_report, replay_events) = run(replayed);

    assert_eq!(direct_report.offered, replay_report.offered);
    assert_eq!(direct_report.completed, replay_report.completed);
    assert!(!direct_events.is_empty());
    assert_eq!(
        direct_events, replay_events,
        "events.jsonl must be byte-identical between generate and replay"
    );
}

/// The bundled sample ingests cleanly and its harmonic fit meets the
/// paper's §6.4 replication bound.
#[test]
fn bundled_sample_calibrates_under_the_mape_bound() {
    let trace = IngestedTrace::from_csv_path(sample_path()).unwrap();
    assert!(trace.len() > 10_000, "sample has {} rows", trace.len());
    assert_eq!(trace.skipped_rows(), 0);
    let stats = TraceStats::from_trace(&trace).unwrap();
    assert!(stats.high_priority_share.is_some());
    assert!(
        (5.9..6.1).contains(&(stats.duration_s / 3600.0)),
        "sample spans {:.2} h",
        stats.duration_s / 3600.0
    );
    let calibration = TraceCalibration::fit_with_stats(&trace, &stats).unwrap();
    assert!(
        calibration.mape_pct < 3.0,
        "replication MAPE {:.2}% breaches the paper bound",
        calibration.mape_pct
    );
    // The generation knobs baked into the sample (rate 1.25, peak 03:00)
    // are recovered by the fit.
    assert!(
        (1.0..1.5).contains(&calibration.pattern.base_rate),
        "base {}",
        calibration.pattern.base_rate
    );
    assert!(
        (2.0..5.0).contains(&calibration.pattern.peak_hour),
        "peak {}",
        calibration.pattern.peak_hour
    );
    assert_eq!(calibration.mix.len(), 2);
}

/// Figure 17 on the replayed sample: POLCA never brakes and
/// high-priority p99 orders POLCA ≤ 1-Thresh-Low-Pri ≤ 1-Thresh-All
/// (ties allowed), with No-cap strictly worst.
#[test]
fn replayed_sample_preserves_fig17_policy_ordering() {
    let trace = IngestedTrace::from_csv_path(sample_path()).unwrap();
    let requests: Vec<_> = TraceReplay::new(&trace).collect();
    let row = RowConfig::paper_inference_row().with_added_servers(0.30);
    let mut study = OversubscriptionStudy::from_requests(row, PolcaPolicy::default(), requests, 17);

    let polca = study.run(PolicyKind::Polca, 0.30, 1.0);
    let one_lp = study.run(PolicyKind::OneThreshLowPri, 0.30, 1.0);
    let one_all = study.run(PolicyKind::OneThreshAll, 0.30, 1.0);
    let no_cap = study.run(PolicyKind::NoCap, 0.30, 1.0);

    assert_eq!(polca.brake_engagements, 0, "POLCA must not brake");
    assert!(
        polca.peak_utilization <= 1.0,
        "peak {}",
        polca.peak_utilization
    );
    // Brake ordering (Figure 18): POLCA fewest, No-cap most.
    assert!(polca.brake_engagements <= one_lp.brake_engagements);
    assert!(no_cap.brake_engagements > one_lp.brake_engagements.max(1));
    // High-priority p99, normalized to the un-capped reference. The
    // baselines' brake halts hit high-priority work; POLCA's gentle
    // HP capping does not (tie tolerance covers float noise between
    // the two single-threshold variants).
    let tol = 1e-6;
    assert!(
        polca.high_normalized.p99 <= one_lp.high_normalized.p99 + tol,
        "POLCA HP p99 {} vs 1T-LP {}",
        polca.high_normalized.p99,
        one_lp.high_normalized.p99
    );
    assert!(
        one_lp.high_normalized.p99 <= one_all.high_normalized.p99 + tol,
        "1T-LP HP p99 {} vs 1T-All {}",
        one_lp.high_normalized.p99,
        one_all.high_normalized.p99
    );
    assert!(
        one_all.high_normalized.p99 <= no_cap.high_normalized.p99 + tol,
        "1T-All HP p99 {} vs No-cap {}",
        one_all.high_normalized.p99,
        no_cap.high_normalized.p99
    );
    // Low-priority pays the capping cost but No-cap's brakes cost more.
    assert!(no_cap.low_normalized.p99 > polca.low_normalized.p99);
}

/// The fitted model extrapolates the 6-hour sample to a longer horizon
/// whose generated stream matches the sample's rate and mix.
#[test]
fn sample_extrapolates_to_a_longer_horizon() {
    let trace = IngestedTrace::from_csv_path(sample_path()).unwrap();
    let calibration = TraceCalibration::fit(&trace).unwrap();
    let config = calibration.trace_config(17, SimTime::from_days(2.0));
    let requests: Vec<_> = ArrivalGenerator::new(&config).collect();
    let expected = calibration.pattern.base_rate * 2.0 * 86_400.0;
    let n = requests.len() as f64;
    assert!(
        (n - expected).abs() / expected < 0.15,
        "extrapolated {n} requests, expected ≈{expected:.0}"
    );
    let high = requests
        .iter()
        .filter(|r| r.priority == polca_cluster::Priority::High)
        .count() as f64;
    assert!((high / n - 0.49).abs() < 0.05, "high share {}", high / n);
}

/// Messy real-world CSV: permuted snake_case headers, quoted fields,
/// malformed rows, blank lines — ingestion keeps the good rows and
/// line-numbers the bad ones.
#[test]
fn messy_csv_ingests_with_line_numbered_diagnostics() {
    let csv = "\
generated_tokens,priority,TIMESTAMP,Context Tokens
300,high,2024-05-10 00:00:01.500000,1200
150,low,\"2024-05-10 00:00:02.250000\",800
oops,low,2024-05-10 00:00:03.000000,900

420,,2024-05-10 00:00:04.750000,1500
99,low,not-a-date,700
77,low,2024-05-10 00:00:06.000000,0
";
    let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
    assert_eq!(trace.len(), 3);
    assert_eq!(trace.skipped_rows(), 3);
    assert!(trace.rebased());
    // 2024-05-10 was a Friday; the week phase should say so.
    assert!((trace.week_phase_s() - (4.0 * 86_400.0 + 1.5)).abs() < 1e-6);
    let errors = trace.row_errors();
    assert!(
        errors.iter().any(|e| e.starts_with("line 4:")),
        "{errors:?}"
    );
    assert!(
        errors.iter().any(|e| e.starts_with("line 7:")),
        "{errors:?}"
    );
    assert!(
        errors.iter().any(|e| e.starts_with("line 8:")),
        "{errors:?}"
    );
    // The surviving record with an empty priority field replays with a
    // synthesized priority; the others keep theirs.
    let requests: Vec<_> = TraceReplay::with_options(
        &trace,
        ReplayOptions {
            seed: 3,
            ..ReplayOptions::default()
        },
    )
    .collect();
    assert_eq!(requests.len(), 3);
    assert_eq!(requests[0].arrival, SimTime::from_secs(0.0));
    assert_eq!(requests[1].arrival, SimTime::from_secs(0.75));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Any seeded synthetic trace survives the CSV round trip with
        /// an identical request stream.
        #[test]
        fn csv_round_trip_is_exact(seed in 0u64..1000) {
            let mut rng = SimRng::from_seed_stream(seed, 0xC5F0);
            let pattern = DiurnalPattern {
                base_rate: 0.5 + (seed % 7) as f64 * 0.25,
                ..DiurnalPattern::default()
            };
            let horizon_s = 1_200.0;
            let config = TraceConfig {
                seed,
                horizon: SimTime::from_secs(horizon_s),
                schedule: pattern.schedule(horizon_s, 60.0, &mut rng),
                mix: WorkloadClass::table6(),
            };
            let requests: Vec<_> = ArrivalGenerator::new(&config).collect();
            prop_assert!(!requests.is_empty());
            let csv = requests_to_csv(&requests);
            let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
            let replayed: Vec<_> = TraceReplay::new(&trace).collect();
            prop_assert_eq!(replayed, requests);
        }
    }
}
