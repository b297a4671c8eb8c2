//! Observability-layer guarantees (ISSUE 1 acceptance criteria):
//!
//! * recording is *passive* — attaching a recorder at any level must
//!   not perturb simulation results (same seed ⇒ same
//!   `PolicyOutcome`),
//! * the event log is *deterministic* — with a fixed seed, two runs
//!   emit byte-identical `events.jsonl` and Perfetto traces,
//! * the Chrome trace-event rendering has a stable, golden-file-pinned
//!   shape.

use polca::{OversubscriptionStudy, PolicyKind, PolicyOutcome};
use polca_obs::{Event, ObsLevel, Recorder};
use proptest::prelude::*;

/// Runs the quick-demo study under `kind` with the given recorder.
fn run_with(seed: u64, kind: PolicyKind, recorder: Recorder) -> (PolicyOutcome, Recorder) {
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    (study.run(kind, 0.30, 1.0), recorder)
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

    /// Observation is passive: a fully-instrumented run and an
    /// uninstrumented run of the same seeded study are outcome-equal.
    #[test]
    fn recording_never_perturbs_outcomes(seed in 0u64..1000) {
        let (off, _) = run_with(seed, PolicyKind::Polca, Recorder::disabled());
        let (on, rec) = run_with(seed, PolicyKind::Polca, Recorder::new(ObsLevel::Full));
        assert_outcomes_identical(&off, &on);
        // And the instrumented run actually observed something.
        let artifacts = rec.artifacts();
        prop_assert!(!artifacts.events.is_empty());
        prop_assert!(!artifacts.metrics.is_empty());
    }
}

#[test]
fn event_log_is_byte_identical_across_runs() {
    let (_, rec1) = run_with(11, PolicyKind::Polca, Recorder::new(ObsLevel::Full));
    let (_, rec2) = run_with(11, PolicyKind::Polca, Recorder::new(ObsLevel::Full));
    let (a, b) = (rec1.artifacts(), rec2.artifacts());
    assert!(!a.events.is_empty());
    assert_eq!(a.events_jsonl(), b.events_jsonl());
    assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    assert_eq!(a.metrics_json(), b.metrics_json());
    assert_eq!(a.power_csv(), b.power_csv());
    assert_eq!(a.latency_csv(), b.latency_csv());
}

#[test]
fn instrumented_run_emits_the_advertised_event_taxonomy() {
    let (outcome, rec) = run_with(7, PolicyKind::NoCap, Recorder::new(ObsLevel::Events));
    let kinds: std::collections::BTreeSet<&str> =
        rec.artifacts().events.iter().map(|e| e.kind()).collect();
    assert!(kinds.contains("request_dispatched"), "kinds: {kinds:?}");
    assert!(kinds.contains("request_completed"), "kinds: {kinds:?}");
    assert!(kinds.contains("power_sample"), "kinds: {kinds:?}");
    // The power series in the artifacts matches the outcome's record.
    let csv_lines = rec.artifacts().power_csv().lines().count() - 1;
    assert_eq!(csv_lines, outcome.row_power.len());
}

/// Golden-file pin of the Chrome trace-event JSON shape: a hand-built
/// event list must render exactly as `tests/golden/chrome_trace.json`.
/// Regenerate deliberately (and review the diff in Perfetto) if the
/// format changes.
#[test]
fn chrome_trace_matches_golden_file() {
    let events = vec![
        Event::PowerSample {
            t: 0.0,
            watts: 100_000.0,
        },
        Event::RequestDispatched {
            t: 0.5,
            server: 0,
            request: 1,
            priority: "high",
        },
        Event::CapApplied {
            t: 1.0,
            server: 0,
            mhz: 1110.0,
        },
        Event::RequestCompleted {
            t: 1.5,
            server: 0,
            request: 1,
            priority: "high",
            latency_s: 1.0,
        },
        Event::BrakeEngaged {
            t: 2.0,
            server: 1,
            on: true,
        },
        Event::BrakeEngaged {
            t: 2.5,
            server: 1,
            on: false,
        },
        Event::Uncap { t: 3.0, server: 0 },
    ];
    let rendered = polca_obs::chrome::trace_json(&events);
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(rendered, golden);
}

/// One event of every [`Event`] variant, chosen to reach each branch of
/// the `events.jsonl` and Chrome-trace writers: a `request_completed`
/// with no matching dispatch, request/cap/brake spans still
/// open at the end of the log, an `uncap` with no open cap, a NaN watts
/// reading (which must render as `null`), timestamps that format with
/// long shortest-round-trip digits, and an SLO detail that needs every
/// kind of JSON escape.
fn every_event_variant() -> Vec<Event> {
    vec![
        Event::PowerSample {
            t: 0.0,
            watts: 100_000.0,
        },
        Event::RequestQueued {
            t: 0.3,
            request: 2,
            priority: "low",
        },
        Event::RequestDispatched {
            t: 0.5,
            server: 0,
            request: 1,
            priority: "high",
        },
        Event::RequestDispatched {
            t: 0.7,
            server: 2,
            request: 2,
            priority: "low",
        },
        Event::CapApplied {
            t: 1.0,
            server: 0,
            mhz: 1110.0,
        },
        Event::OobCommandSent {
            t: 1.0,
            server: 1,
            command: 7,
            effective_at: 1.25,
        },
        Event::OobCommandLost {
            t: 1.1,
            server: 3,
            command: 8,
        },
        Event::RequestCompleted {
            t: 1.5,
            server: 0,
            request: 1,
            priority: "high",
            latency_s: 1.0,
        },
        Event::RequestCompleted {
            t: 1.6,
            server: 4,
            request: 99,
            priority: "low",
            latency_s: 0.1 + 0.2,
        },
        Event::RequestRejected {
            t: 1.7,
            request: 3,
            priority: "low",
        },
        Event::BrakeEngaged {
            t: 2.0,
            server: 1,
            on: true,
        },
        Event::BrakeEngaged {
            t: 2.5,
            server: 1,
            on: false,
        },
        Event::BrakeEngaged {
            t: 2.6,
            server: 6,
            on: true,
        },
        Event::ControllerTransition {
            t: 2.7,
            from: "uncapped",
            to: "t1",
        },
        Event::Uncap { t: 3.0, server: 0 },
        Event::CapApplied {
            t: 3.1,
            server: 7,
            mhz: 1305.0,
        },
        Event::Uncap { t: 3.2, server: 8 },
        Event::PowerSample {
            t: 4.0,
            watts: f64::NAN,
        },
        Event::FleetPowerSample {
            t: 4.0,
            row: 2,
            watts: 190_250.5,
        },
        Event::BudgetViolation {
            t: 4.0,
            scope: "pdu",
            unit: 1,
            watts: 250_000.0,
            budget_watts: 240_000.0,
        },
        Event::SloViolation {
            t: 6.125,
            detail: "p50 \"high\" \\ 1.2 > 1.01\nnext\u{1}".to_string(),
        },
    ]
}

fn one_annotation() -> Vec<polca_obs::Annotation> {
    vec![polca_obs::Annotation {
        t: 5.0,
        name: "alert:row-power-high".to_string(),
        detail: "0.97 of \"provisioned\"".to_string(),
    }]
}

/// A `RunArtifacts` carrying [`every_event_variant`], two request
/// records (one with a non-finite field) and one energy-ledger row, so
/// `trace.json` gains the pid-2 request lanes and the pid-3 energy
/// lanes.
fn artifacts_with_lanes() -> polca_obs::RunArtifacts {
    use polca_obs::{
        CarbonSignal, EnergyAccum, EnergyPlan, MetricsRegistry, ProfSnapshot, ReqSpan,
    };

    let mut long = ReqSpan {
        first_token_s: Some(12.0),
        last_token_s: Some(20.0),
        tbt_max_s: 0.5,
        prefill_s: 2.0,
        decode_s: 8.0,
        recompute_s: 0.3,
        recompute_tokens: 128.0,
        preemptions: 1,
        kv_hops: 2,
        kv_ship_s: 0.1 + 0.2,
        joules: 4000.0,
    }
    .finish(7, "high", 3, 9.0, 10.0, 20.0, 1024, 81);
    long.co2e_g = 0.0123;
    long.pue_applied = 1.25;
    let mut short = ReqSpan::default().finish(11, "low", 0, 0.1, 0.2, 0.7, 16, 1);
    short.joules_per_token = f64::INFINITY;

    let plan = EnergyPlan::new(CarbonSignal::diurnal_default()).with_pue(&[1.25]);
    let mut acc = EnergyAccum::new(plan, 0.0, 120.0, 80.0, &[("aggregated", 200.0)]);
    acc.tick(900.0, 150.0, 90.0, &[("aggregated", 240.0)]);
    acc.tick(1800.0, 110.0, 70.0, &[("aggregated", 180.0)]);
    acc.add_tokens(true, 500);
    acc.add_tokens(false, 1500);

    polca_obs::RunArtifacts {
        level: ObsLevel::Full,
        events: every_event_variant(),
        metrics: MetricsRegistry::new(),
        requests: vec![long, short],
        req_trace: true,
        energy_rows: vec![acc.finish(1800.0, 3000.0)],
        prof: ProfSnapshot::default(),
    }
}

/// Byte-for-byte pin of `events.jsonl` and `trace.json` over every
/// event variant (plus one watch-style annotation). The goldens were
/// rendered by an earlier, independent implementation of the writers;
/// regenerate them only for a deliberate format change.
#[test]
fn every_event_variant_matches_golden_files() {
    let run = polca_obs::RunArtifacts {
        events: every_event_variant(),
        req_trace: false,
        requests: Vec::new(),
        energy_rows: Vec::new(),
        ..artifacts_with_lanes()
    };
    assert_eq!(run.events_jsonl(), include_str!("golden/every_event.jsonl"));
    assert_eq!(
        run.chrome_trace_json_with(&one_annotation()),
        include_str!("golden/every_event_trace.json")
    );
}

/// Byte-for-byte pin of `requests.jsonl`, `latency.csv`, `power.csv`
/// and the `trace.json` that carries the request (pid 2) and energy
/// (pid 3) lanes after the annotation.
#[test]
fn run_artifacts_with_lanes_match_golden_files() {
    let run = artifacts_with_lanes();
    assert_eq!(
        run.requests_jsonl(),
        include_str!("golden/lanes_requests.jsonl")
    );
    assert_eq!(run.latency_csv(), include_str!("golden/lanes_latency.csv"));
    assert_eq!(run.power_csv(), include_str!("golden/lanes_power.csv"));
    assert_eq!(
        run.chrome_trace_json_with(&one_annotation()),
        include_str!("golden/lanes_trace.json")
    );
}
