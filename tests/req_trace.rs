//! polca-req guarantees (ISSUE 8 acceptance criteria):
//!
//! * request tracing is observation, not intervention: turning it on
//!   leaves outcomes and `events.jsonl` byte-identical on both
//!   engines, at any seed, and leaves the whole `SimReport` bit-identical
//!   on batched rows whose KV pools preempt, aggregated or split,
//! * `requests.jsonl` is byte-identical at `jobs=1` and `jobs=4` on
//!   the four-policy panel — the per-cell recorders absorb in
//!   canonical order,
//! * preemption/recompute accounting balances: the global
//!   `serve.preemptions` counter equals the sum of preemption
//!   episodes across all request records, and preempted requests
//!   carry a visible recompute penalty,
//! * the per-request joules ledger is consistent with the aggregate
//!   `energy_per_request_wh` estimator on the golden trace,
//! * the per-priority TTFT/TBT/energy histograms render to a pinned
//!   Prometheus exposition.

use polca::{
    CostModel, DisaggregationConfig, OversubscriptionStudy, PolcaController, PolcaPolicy,
    PolicyKind,
};
use polca_cluster::{ClusterSim, EngineKind, Priority, Request, RowConfig, SimConfig, SimReport};
use polca_ingest::{IngestedTrace, ReplayOptions, TraceReplay};
use polca_obs::{
    CarbonSignal, EnergyPlan, ObsLevel, ProfCounter, Recorder, ReqSpan, ReqTraceConfig,
};
use polca_serve::ServeConfig;
use polca_sim::{SimRng, SimTime};
use proptest::prelude::*;

/// The aggregated batched engine built from the §5.2 constants.
fn batched() -> EngineKind {
    DisaggregationConfig::default().batched_engine(false)
}

/// Runs the quick-demo study under POLCA on the given engine, with or
/// without request tracing.
fn run_quick(seed: u64, engine: EngineKind, traced: bool) -> (polca::PolicyOutcome, Recorder) {
    let mut recorder = Recorder::new(ObsLevel::Full);
    if traced {
        recorder = recorder.with_req_trace(ReqTraceConfig::default());
    }
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    study.set_engine(engine);
    (study.run(PolicyKind::Polca, 0.30, 1.0), recorder)
}

/// A seeded burst of short requests under POLCA on a 4-server batched
/// row (`serve`'s pools, 8 KV blocks of 16 tokens per server), with or
/// without request tracing: a few sequences fill a pool, so the pager
/// preempts. Returns the report and `serve.preemptions`.
fn kv_pressure_report(seed: u64, serve: &ServeConfig, traced: bool) -> (SimReport, u64) {
    let mut recorder = Recorder::new(ObsLevel::Full);
    if traced {
        recorder = recorder.with_req_trace(ReqTraceConfig::default());
    }
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let mut rng = SimRng::from_seed_stream(seed, 0);
    let requests: Vec<Request> = (0..80)
        .map(|i| {
            Request::new(
                i,
                SimTime::from_secs(i as f64 * 0.25),
                rng.uniform_u64(16, 60) as u32,
                rng.uniform_u64(8, 60) as u32,
                if rng.chance(0.5) {
                    Priority::High
                } else {
                    Priority::Low
                },
            )
        })
        .collect();
    let config = SimConfig {
        seed,
        engine: EngineKind::Batched(ServeConfig {
            kv_blocks: Some(8),
            ..serve.clone()
        }),
        recorder: recorder.clone(),
        ..SimConfig::default()
    };
    let controller = PolcaController::new(PolcaPolicy::default());
    let report = ClusterSim::new(row, config, controller).run(requests, SimTime::from_secs(900.0));
    let preemptions = recorder
        .prof()
        .snapshot()
        .counter(ProfCounter::ServePreemptions);
    (report, preemptions)
}

/// Every field of `report`, floats as their bits.
fn report_bits(report: &SimReport) -> Vec<u64> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut all = vec![
        report.offered,
        report.completed,
        report.rejected,
        report.completed_by_priority.0,
        report.completed_by_priority.1,
        report.offered_by_priority.0,
        report.offered_by_priority.1,
        report.rejected_by_priority.0,
        report.rejected_by_priority.1,
        report.peak_row_watts.to_bits(),
        report.mean_row_watts.to_bits(),
        report.brake_engagements,
        report.commands_issued,
        report.events_processed,
        report.duration.as_secs().to_bits(),
    ];
    all.extend(bits(&report.low_latencies_s));
    all.push(u64::MAX);
    all.extend(bits(&report.high_latencies_s));
    all.push(u64::MAX);
    all.extend(bits(report.row_power.values()));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Request tracing on/off is invisible to the simulation: same
    /// outcomes, byte-identical event log, on both engines. The spans
    /// are write-only from the engines' perspective, and this is the
    /// proof.
    #[test]
    fn req_tracing_is_outcome_and_event_invariant(seed in 0u64..1000) {
        for engine in [EngineKind::Legacy, batched()] {
            let (off, rec_off) = run_quick(seed, engine.clone(), false);
            let (on, rec_on) = run_quick(seed, engine.clone(), true);
            prop_assert_eq!(off.counts, on.counts);
            prop_assert_eq!(off.brake_engagements, on.brake_engagements);
            prop_assert_eq!(off.peak_utilization, on.peak_utilization);
            prop_assert_eq!(off.low_normalized.p99, on.low_normalized.p99);
            prop_assert_eq!(off.high_normalized.p99, on.high_normalized.p99);
            let (a, b) = (rec_off.artifacts(), rec_on.artifacts());
            prop_assert!(!a.events.is_empty());
            prop_assert_eq!(a.events_jsonl(), b.events_jsonl());
            // Tracing actually produced records — one per completion.
            prop_assert!(a.requests.is_empty());
            prop_assert_eq!(b.requests.len() as u64, on.counts.1);
        }
        // The quick demo may never preempt. Under KV pressure, with
        // aggregated and with split pools, the whole report matches
        // bit for bit.
        for serve in [ServeConfig::default(), ServeConfig::split_pools(200e9, Some(1110.0))] {
            let (off, preempted_off) = kv_pressure_report(seed, &serve, false);
            let (on, preempted_on) = kv_pressure_report(seed, &serve, true);
            prop_assert!(preempted_off > 0, "{:?} never preempted", serve.pools);
            prop_assert_eq!(preempted_off, preempted_on);
            prop_assert!(off.completed > 0);
            prop_assert_eq!(report_bits(&off), report_bits(&on));
        }
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

/// `requests.jsonl` from the four-policy panel is byte-identical at
/// `jobs=1` and `jobs=4`: each cell records into a fresh recorder that
/// inherits the req-trace config, and absorption happens in canonical
/// panel order.
#[test]
fn requests_jsonl_is_jobs_invariant() {
    let run = |jobs: usize| {
        let recorder = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig::default());
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 20;
        let requests = burst_requests(300, 1.5);
        let mut study =
            OversubscriptionStudy::from_requests(row, PolcaPolicy::default(), requests, 3);
        study.set_engine(batched());
        study.set_recorder(recorder.clone());
        let _ = study.sweep(&PolicyKind::all().map(|kind| (kind, 0.0, 1.0)), jobs);
        recorder.artifacts()
    };
    let (a, b) = (run(1), run(4));
    assert!(!a.requests.is_empty());
    assert_eq!(a.requests_jsonl(), b.requests_jsonl());
    assert_eq!(a.events_jsonl(), b.events_jsonl());
}

/// Small requests on a tiny KV pool: sequences fit one at a time, so
/// the pager preempts under pressure and every preemption must be
/// visible in exactly one request's span.
fn kv_pressure_run() -> (Recorder, u64) {
    let recorder = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig::default());
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 2;
    let requests: Vec<Request> = (0..40)
        .map(|i| {
            Request::new(
                i,
                SimTime::from_secs(i as f64 * 0.5),
                48,
                40,
                if i % 2 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                },
            )
        })
        .collect();
    let mut study = OversubscriptionStudy::from_requests(row, PolcaPolicy::default(), requests, 7);
    study.set_engine(EngineKind::Batched(ServeConfig {
        kv_blocks: Some(8),
        ..ServeConfig::default()
    }));
    study.set_recorder(recorder.clone());
    let o = study.run(PolicyKind::NoCap, 0.0, 1.0);
    (recorder, o.counts.1)
}

/// KV exhaustion shows up in the affected requests' spans, and the
/// books balance: `serve.preemptions` equals the number of preemption
/// episodes summed over all request records.
#[test]
fn preemption_episodes_balance_the_global_counter() {
    let (recorder, completed) = kv_pressure_run();
    let run = recorder.artifacts();
    assert_eq!(run.requests.len() as u64, completed);
    let preempted = recorder
        .prof()
        .snapshot()
        .counter(ProfCounter::ServePreemptions);
    assert!(preempted > 0, "tiny KV pool never preempted");
    let episodes: u64 = run.requests.iter().map(|r| u64::from(r.preemptions)).sum();
    assert_eq!(episodes, preempted, "preemption episodes leaked");
    let victim = run
        .requests
        .iter()
        .find(|r| r.preemptions > 0)
        .expect("no preempted request record");
    assert!(victim.recompute_tokens > 0.0, "{victim:?}");
    assert!(victim.recompute_s > 0.0, "{victim:?}");
    // Recompute time is extra prefill work, not decode time.
    assert!(victim.ttft_s >= victim.recompute_s, "{victim:?}");
}

/// Consistency of the two energy views on the golden trace: the
/// aggregate `energy_per_request_wh` estimator spreads the row's mean
/// draw (hot-idle floor + PUE) over completed requests, so it must
/// upper-bound the mean of the attributed per-request ledger — and
/// stay within the idle/facility overhead factor of it.
#[test]
fn aggregate_energy_estimator_bounds_the_req_ledger() {
    let csv = include_str!("golden/sample_trace.csv");
    let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
    let requests: Vec<Request> =
        TraceReplay::with_options(&trace, ReplayOptions::default()).collect();
    let recorder = Recorder::new(ObsLevel::Full)
        .with_req_trace(ReqTraceConfig::default())
        .with_energy(EnergyPlan::new(CarbonSignal::Constant(400.0)));
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 10;
    let mut study =
        OversubscriptionStudy::from_requests(row.clone(), PolcaPolicy::default(), requests, 17);
    study.set_engine(batched());
    study.set_recorder(recorder.clone());
    let o = study.run(PolicyKind::Polca, 0.0, 1.0);
    assert!(o.counts.1 > 0);

    let run = recorder.artifacts();
    assert_eq!(run.requests.len() as u64, o.counts.1);
    let total_joules: f64 = run.requests.iter().map(|r| r.joules).sum();
    let ledger_mean_wh = total_joules / run.requests.len() as f64 / 3600.0;
    assert!(ledger_mean_wh > 0.0);

    let days = study.horizon().as_secs() / 86_400.0;
    let aggregate_wh = CostModel::default()
        .energy_per_request_wh_raw(o.mean_utilization, o.counts.1, &row, days)
        .unwrap();
    let ratio = aggregate_wh / ledger_mean_wh;
    // The gap is exactly the unattributed overhead: hot-idle floor,
    // idle servers, and the 1.25 PUE factor. It can never dip below
    // 1.0, and on this trace shape it stays well under 10x.
    assert!(
        ratio >= 1.0,
        "aggregate {aggregate_wh} < ledger {ledger_mean_wh}"
    );
    assert!(ratio < 10.0, "overhead factor blew up: {ratio}");

    // With the polca-energy ledger attached to the same run, the
    // *measured* per-request figure (facility Wh over completions)
    // replaces the estimator, and sits between the two views: it
    // includes idle draw and PUE (so it bounds the attributed mean)
    // but spends no margin on the estimator's utilization model.
    let ledger = run.energy_ledger();
    assert!(!ledger.is_empty());
    let measured = CostModel::default()
        .energy_per_request_wh_measured(&ledger, o.counts.1)
        .unwrap();
    assert!(
        measured >= ledger_mean_wh,
        "measured {measured} < attributed mean {ledger_mean_wh}"
    );
    assert!(
        measured <= aggregate_wh * 1.05,
        "measured {measured} blew past estimate {aggregate_wh}"
    );
    // Every record carries the emissions view, stamped with the PUE
    // that was applied: constant 400 g/kWh grid, default 1.25 PUE.
    for r in &run.requests {
        assert!(r.co2e_g > 0.0, "{r:?}");
        assert_eq!(r.pue_applied, 1.25, "{r:?}");
    }
}

/// Golden-file pin of the per-priority request histograms: a
/// hand-built set of records must render exactly as
/// `tests/golden/req_metrics.prom`. Regenerate deliberately if the
/// exposition format or metric names change.
#[test]
fn req_prometheus_matches_golden_file() {
    let recorder = Recorder::new(ObsLevel::Metrics).with_req_trace(ReqTraceConfig::default());
    for i in 0..6u64 {
        let span = ReqSpan {
            first_token_s: Some(2.0 + i as f64),
            last_token_s: Some(8.0 + i as f64),
            tbt_max_s: 0.25,
            prefill_s: 1.5,
            decode_s: 6.0,
            joules: 900.0 + 100.0 * i as f64,
            ..ReqSpan::default()
        };
        let priority = if i % 2 == 0 { "high" } else { "low" };
        let record = span.finish(
            i,
            priority,
            0,
            i as f64,
            1.0 + i as f64,
            9.0 + i as f64,
            512,
            64,
        );
        recorder.record_request(&record);
    }
    let rendered = recorder.artifacts().metrics_prometheus();
    let golden = include_str!("golden/req_metrics.prom");
    assert_eq!(rendered, golden);
    for name in [
        "req_ttft_s",
        "req_tbt_s",
        "req_queue_s",
        "req_joules_per_token",
    ] {
        assert!(rendered.contains(name), "{name} missing:\n{rendered}");
    }
}

/// Sampling thins `requests.jsonl` without touching the histograms:
/// only ids divisible by the stride are stored, but every completion
/// still lands in the per-priority metrics.
#[test]
fn sampling_thins_storage_but_not_histograms() {
    let run = |sample: u64| {
        let recorder = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig { sample });
        let mut study = OversubscriptionStudy::quick_demo(13);
        study.set_recorder(recorder.clone());
        study.set_engine(batched());
        let _ = study.run(PolicyKind::Polca, 0.30, 1.0);
        recorder.artifacts()
    };
    let full = run(1);
    let thinned = run(4);
    assert!(!full.requests.is_empty());
    assert!(thinned.requests.len() < full.requests.len());
    assert!(thinned.requests.iter().all(|r| r.id % 4 == 0));
    // The histograms saw every record either way.
    assert_eq!(full.metrics_prometheus(), thinned.metrics_prometheus());
}
