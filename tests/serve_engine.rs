//! Serving-engine guarantees (ISSUE 7 acceptance criteria):
//!
//! * the legacy engine is *untouched* — `EngineKind::Legacy` (the
//!   default) reproduces the pre-serve event log byte-for-byte at a
//!   fixed seed, and selecting it explicitly changes nothing,
//! * the batched engine inherits the determinism contract — same seed
//!   ⇒ byte-identical `events.jsonl`, and the four-policy panel is
//!   byte-identical at `jobs=1` and `jobs=4`,
//! * the full POLCA policy comparison runs end-to-end on the batched
//!   engine, with KV occupancy, batch size, and per-pool power visible
//!   in the obs metrics and the serve prof counters populated,
//! * one short traced run per engine shape (legacy, batched
//!   aggregated, batched split pools) reproduces its events, request
//!   records, energy ledger, metrics and power integrals bit for bit.

use polca::{DisaggregationConfig, OversubscriptionStudy, PolcaPolicy, PolicyKind};
use std::path::Path;

use polca_cluster::{
    ControlRequest, ControlTarget, EngineKind, NoopController, PowerController, Priority, Request,
    RowConfig, RowContext, RowSim, ServerSpec, SimConfig,
};
use polca_obs::{CarbonSignal, EnergyPlan, ObsLevel, ProfCounter, Recorder, ReqTraceConfig};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};
use proptest::prelude::*;

/// Runs the quick-demo study under POLCA on the given engine.
fn run_quick(seed: u64, engine: Option<EngineKind>) -> (polca::PolicyOutcome, Recorder) {
    let recorder = Recorder::new(ObsLevel::Full);
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    if let Some(engine) = engine {
        study.set_engine(engine);
    }
    (study.run(PolicyKind::Polca, 0.30, 1.0), recorder)
}

/// The aggregated batched engine built from the §5.2 constants.
fn batched() -> EngineKind {
    DisaggregationConfig::default().batched_engine(false)
}

/// Golden-file pin of the legacy engine: the exact `polca-cli evaluate
/// --days 0.02 --seed 17` event log committed before the serve engine
/// existed. Any drift here means the default engine's behavior changed
/// — which the engine flag exists to prevent.
#[test]
fn legacy_engine_reproduces_the_pre_serve_event_log() {
    let recorder = Recorder::new(ObsLevel::Full);
    let mut study = OversubscriptionStudy::new(
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        0.02,
        17,
    );
    study.set_record_power(false);
    study.set_recorder(recorder.clone());
    let _ = study.run(PolicyKind::Polca, 0.30, 1.0);
    let golden = include_str!("golden/legacy_events.jsonl");
    assert_eq!(recorder.artifacts().events_jsonl(), golden);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The default engine IS the legacy engine: never touching
    /// `set_engine` and selecting `EngineKind::Legacy` explicitly give
    /// byte-identical event logs and equal outcomes at any seed.
    #[test]
    fn legacy_is_the_default_engine(seed in 0u64..1000) {
        let (a, rec_a) = run_quick(seed, None);
        let (b, rec_b) = run_quick(seed, Some(EngineKind::Legacy));
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.brake_engagements, b.brake_engagements);
        prop_assert_eq!(a.peak_utilization, b.peak_utilization);
        let (a, b) = (rec_a.artifacts(), rec_b.artifacts());
        prop_assert!(!a.events.is_empty());
        prop_assert_eq!(a.events_jsonl(), b.events_jsonl());
        prop_assert_eq!(a.metrics_json(), b.metrics_json());
    }

    /// The batched engine honors the determinism contract: same seed ⇒
    /// byte-identical artifacts, run to run.
    #[test]
    fn batched_engine_event_log_is_deterministic(seed in 0u64..1000) {
        let (o1, rec1) = run_quick(seed, Some(batched()));
        let (o2, rec2) = run_quick(seed, Some(batched()));
        prop_assert_eq!(o1.counts, o2.counts);
        prop_assert!(o1.counts.1 > 0, "batched engine completed nothing");
        let (a, b) = (rec1.artifacts(), rec2.artifacts());
        prop_assert!(!a.events.is_empty());
        prop_assert_eq!(a.events_jsonl(), b.events_jsonl());
        prop_assert_eq!(a.metrics_json(), b.metrics_json());
        prop_assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
    }
}

fn burst_requests(n: u64, gap_s: f64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            Request::new(
                i,
                SimTime::from_secs(i as f64 * gap_s),
                1200,
                400,
                if i % 2 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                },
            )
        })
        .collect()
}

/// The four-policy replay panel on the batched engine is byte-identical
/// at `jobs=1` and `jobs=4` — parallel scheduling stays invisible.
#[test]
fn batched_panel_is_jobs_invariant() {
    let run = |jobs: usize| {
        let recorder = Recorder::new(ObsLevel::Full);
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 20;
        let requests = burst_requests(300, 1.5);
        let mut study =
            OversubscriptionStudy::from_requests(row, PolcaPolicy::default(), requests, 3);
        study.set_engine(batched());
        study.set_recorder(recorder.clone());
        let panel = PolicyKind::all().map(|kind| (kind, 0.0, 1.0));
        (study.sweep(&panel, jobs), recorder)
    };
    let (seq, rec_seq) = run(1);
    let (par, rec_par) = run(4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.1 > 0, "{:?} completed nothing", a.kind);
        assert_eq!(a.commands_issued, b.commands_issued);
        assert_eq!(a.low_normalized.p99, b.low_normalized.p99);
        assert_eq!(a.high_normalized.p99, b.high_normalized.p99);
        assert_eq!(a.peak_utilization, b.peak_utilization);
    }
    let (a, b) = (rec_seq.artifacts(), rec_par.artifacts());
    assert!(!a.events.is_empty());
    assert_eq!(a.events_jsonl(), b.events_jsonl());
    assert_eq!(a.metrics_json(), b.metrics_json());
}

/// The full POLCA policy comparison runs end-to-end on the batched
/// engine, and the serve plane is observable: KV occupancy, batch
/// size, and pool power land in the metrics, the serve phases and
/// counters in the profile.
#[test]
fn polca_policy_comparison_runs_on_the_batched_engine() {
    for kind in PolicyKind::all() {
        let recorder = Recorder::new(ObsLevel::Full);
        let mut study = OversubscriptionStudy::quick_demo(11);
        study.set_recorder(recorder.clone());
        study.set_engine(batched());
        let o = study.run(kind, 0.30, 1.0);
        assert_eq!(o.kind, kind);
        assert!(o.counts.1 > 0, "{kind:?} completed nothing");
        let prom = recorder.artifacts().metrics_prometheus();
        assert!(prom.contains("serve_kv_occupancy"), "{kind:?}: {prom}");
        assert!(prom.contains("serve_batch_size"), "{kind:?}");
        assert!(
            prom.contains("serve_pool_power_w{tag=\"aggregated\"}"),
            "{kind:?}"
        );
        let snap = recorder.prof().snapshot();
        assert!(snap.counter(ProfCounter::ServePeakBatch) > 0, "{kind:?}");
        assert!(snap.counter(ProfCounter::ServeKvPeakBlocks) > 0, "{kind:?}");
    }
}

/// Split pools run the same comparison with per-pool power split into
/// prefill and decode gauges.
#[test]
fn split_pools_expose_per_pool_power() {
    let recorder = Recorder::new(ObsLevel::Full);
    let mut study = OversubscriptionStudy::quick_demo(11);
    study.set_recorder(recorder.clone());
    study.set_engine(DisaggregationConfig::default().batched_engine(true));
    let o = study.run(PolicyKind::Polca, 0.30, 1.0);
    assert!(o.counts.1 > 0, "split pools completed nothing");
    let prom = recorder.artifacts().metrics_prometheus();
    assert!(
        prom.contains("serve_pool_power_w{tag=\"prefill\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_pool_power_w{tag=\"decode\"}"),
        "{prom}"
    );
}

/// A row with no arrivals, stepped by hand.
type IdleRow = RowSim<NoopController, std::iter::Empty<Request>>;

/// Every server's power on a legacy and a batched row, which must be
/// bit-identical; returns server 0's.
fn same_server_watts([legacy, batched]: &[IdleRow; 2]) -> f64 {
    let engine = batched.batched_row().expect("batched engine");
    let legacy: Vec<f64> = legacy.servers().iter().map(|s| s.power_watts()).collect();
    let batched: Vec<f64> = (0..engine.n_servers())
        .map(|i| engine.server_power_watts(i))
        .collect();
    assert_eq!(legacy, batched);
    legacy[0]
}

/// Both engines price a server with one power model: the idle servers
/// of a legacy row and of an aggregated batched row built from the same
/// `RowConfig` draw bit-identical watts at the full clock, after a
/// delivered clock lock and after a delivered brake, on an A100 and an
/// H100 server at a 1.05 power scale.
#[test]
fn idle_servers_draw_the_same_power_on_both_engines() {
    let t = SimTime::from_secs;
    for spec in [ServerSpec::dgx_a100(), ServerSpec::dgx_h100()] {
        let mut row = RowConfig::paper_inference_row();
        row.server_spec = spec;
        let mut sims: [IdleRow; 2] = [EngineKind::Legacy, batched()].map(|engine| {
            let config = SimConfig {
                power_scale: 1.05,
                engine,
                ..SimConfig::default()
            };
            RowSim::new(
                row.clone(),
                config,
                NoopController,
                std::iter::empty(),
                t(120.0),
            )
        });
        let mut watts = vec![same_server_watts(&sims)];
        // The OOB plane delivers a lock within 40 s and a brake within
        // 5 s (Table 2).
        for (at, command) in [
            (1.0, ControlRequest::clock(ControlTarget::All, Some(1110.0))),
            (50.0, ControlRequest::brake(true)),
        ] {
            for sim in &mut sims {
                sim.inject(t(at), command);
                sim.step_until(t(at + 41.0));
            }
            watts.push(same_server_watts(&sims));
        }
        // Full clock > locked > braked: each command was delivered.
        assert!(watts.windows(2).all(|w| w[1] < w[0]), "{watts:?}");
    }
}

/// Commands issued at fixed telemetry ticks: a class lock, a
/// one-server lock, a row brake and its release, and a row unlock, so
/// every kind of delivery lands on both engines mid-request.
const SCRIPT: [(f64, ControlRequest); 5] = [
    (
        10.0,
        ControlRequest::clock(ControlTarget::Priority(Priority::Low), Some(1110.0)),
    ),
    (
        30.0,
        ControlRequest::clock(ControlTarget::Server(3), Some(900.0)),
    ),
    (60.0, ControlRequest::brake(true)),
    (80.0, ControlRequest::brake(false)),
    (100.0, ControlRequest::clock(ControlTarget::All, None)),
];

/// Replays [`SCRIPT`] whatever the row draws.
struct Scripted;

impl PowerController for Scripted {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        _observed: Option<f64>,
        _ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        SCRIPT
            .iter()
            .filter(|(at, _)| now == SimTime::from_secs(*at))
            .map(|&(_, command)| command)
            .collect()
    }
}

/// The files one engine shape's golden run pins: its `events.jsonl`,
/// `requests.jsonl` (every request traced), `energy.json` (diurnal
/// carbon), its `metrics.prom` without the `sim_*` queue series and the
/// `polca_prof_*` lines (they count how the work was scheduled, not
/// what was simulated), and the bits of the row's mean and peak watts.
fn engine_golden_files(engine: EngineKind) -> Vec<(&'static str, String)> {
    let recorder = Recorder::new(ObsLevel::Full)
        .with_req_trace(ReqTraceConfig { sample: 1 })
        .with_energy(EnergyPlan::new(CarbonSignal::diurnal_default()));
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 20;
    let horizon = SimTime::from_secs(150.0);
    let trace = TraceConfig::paper_mix(17, horizon).scaled(1.0);
    let config = SimConfig {
        seed: 17,
        engine,
        recorder: recorder.clone(),
        ..SimConfig::default()
    };
    let requests = ArrivalGenerator::new(&trace);
    let report = RowSim::new(row, config, Scripted, requests, horizon).finish();
    let run = recorder.artifacts();
    let prom: String = run
        .metrics_prometheus()
        .lines()
        .filter(|line| {
            let name = line.strip_prefix("# TYPE ").unwrap_or(line);
            !name.starts_with("sim_") && !name.starts_with("polca_prof_")
        })
        .map(|line| format!("{line}\n"))
        .collect();
    let watts = [
        ("mean_row_watts", report.mean_row_watts),
        ("peak_row_watts", report.peak_row_watts),
    ]
    .map(|(name, w)| format!("{name} {w} {:#018x}\n", w.to_bits()))
    .concat();
    vec![
        ("events.jsonl", run.events_jsonl()),
        ("requests.jsonl", run.requests_jsonl()),
        ("energy.json", run.energy_ledger().to_json()),
        ("metrics.prom", prom),
        ("watts.txt", watts),
    ]
}

/// Each engine shape's short traced run reproduces the files under
/// `tests/golden/engine/<shape>/` byte for byte: the admission, phase,
/// completion and delivery paths of both engines, their request spans
/// and joules, their energy ticks, and the split of the power integral.
#[test]
fn every_engine_shape_matches_its_golden_run() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine");
    for (shape, engine) in [
        ("legacy", EngineKind::Legacy),
        ("batched", batched()),
        (
            "split",
            DisaggregationConfig::default().batched_engine(true),
        ),
    ] {
        for (name, actual) in engine_golden_files(engine) {
            let path = dir.join(shape).join(name);
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let same = actual
                .lines()
                .zip(golden.lines())
                .take_while(|(a, g)| a == g)
                .count();
            assert!(
                actual == golden,
                "{shape} run drifted from tests/golden/engine/{shape}/{name} at line {}",
                same + 1
            );
        }
    }
}
