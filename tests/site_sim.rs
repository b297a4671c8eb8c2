//! Site-simulator refactor guarantees (ISSUE 9 acceptance criteria):
//!
//! * `--fleet-threads K` is invisible in every artifact: a site
//!   stepped on 4 worker threads produces byte-identical
//!   `events.jsonl`, `requests.jsonl`, `metrics.prom`, and
//!   `incidents.jsonl` to the same site stepped sequentially, at any
//!   seed — even with budget enforcement injecting brake commands
//!   mid-run,
//! * hierarchy budget math: a parent-level `BudgetViolation` is never
//!   emitted unless the sum of its children's powers at that sample
//!   actually exceeds the parent cap, for randomized site shapes,
//! * the site lookahead's `PowerCeiling` is sound: a row never draws
//!   more than its ceiling at any boundary the ceiling covers, on
//!   either serving engine, under POLCA and injected brakes.

use polca::{DisaggregationConfig, PolcaController, PolcaPolicy};
use polca_cluster::{
    ControlRequest, ControlTarget, PowerCeiling, Request, RowConfig, RowSim, SimConfig, SiteConfig,
    SiteSim,
};
use polca_obs::{Event, ObsLevel, Recorder, ReqTraceConfig};
use polca_sim::{SimRng, SimTime};
use polca_telemetry::ControlAction;
use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
use polca_trace::{ArrivalGenerator, TraceConfig};
use polca_watch::{WatchConfig, WatchPlane};
use proptest::prelude::*;

/// A small row so the proptest cases stay fast.
fn small_row() -> RowConfig {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 6;
    row
}

/// A dense 20-minute synthetic arrival stream.
fn arrivals(seed: u64) -> Vec<Request> {
    let config = TraceConfig::paper_mix(seed, SimTime::from_mins(20.0)).scaled(0.1);
    ArrivalGenerator::new(&config).collect()
}

const HORIZON: f64 = 20.0 * 60.0 + 600.0;

/// One full site run at `threads` workers: a 2 × 2 site with tight
/// enforced budgets (so OOB brake commands are injected mid-run) and
/// a buffering watch tap. Returns every artifact surface the
/// determinism contract covers.
struct SiteRun {
    site_events: String,
    site_prom: String,
    row_events: Vec<String>,
    row_requests: Vec<String>,
    incidents: Vec<String>,
}

fn run_site(seed: u64, threads: usize) -> SiteRun {
    let recorder = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig { sample: 1 });
    let row = small_row();
    let mut site = SiteConfig {
        datacenters: 2,
        rows_per_datacenter: 2,
        rows_per_pdu: 2,
        // Tight caps at every level so enforcement engages and
        // releases repeatedly during the run.
        pdu_budget_watts: Some(row.provisioned_watts() * 1.1),
        datacenter_budget_watts: Some(row.provisioned_watts() * 1.4),
        site_budget_watts: Some(row.provisioned_watts() * 2.6),
        enforce_budgets: true,
        threads,
        ..SiteConfig::default()
    };
    site.base.seed = seed;
    site.base.recorder = recorder.clone();
    let buffer = RowTickBuffer::new(4);
    let mut taps = RowPowerTaps::new();
    taps.subscribe(buffer.clone());
    site.base.oob_taps = taps;
    let policy = PolcaPolicy::default();
    let until = SimTime::from_secs(HORIZON);
    let report = SiteSim::new(
        row.clone(),
        site,
        |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
        arrivals(seed).into_iter(),
        until,
    )
    .run();

    // Per-datacenter watch replay in canonical row order (what the
    // CLI's `--watch` fleet path does).
    let incidents = (0..report.datacenters)
        .map(|d| {
            let columns: Vec<_> = report
                .rows_in_datacenter(d)
                .map(|r| buffer.take_row(r))
                .collect();
            let plane = WatchPlane::new(WatchConfig::new(2.0 * row.provisioned_watts()));
            let sub = plane.subscriber();
            for tick in merge_tick_columns(&columns) {
                sub.on_tick(tick.t, tick.truth_watts, tick.observed_watts);
            }
            plane.finalize(until).incidents_jsonl()
        })
        .collect();

    SiteRun {
        site_events: recorder.artifacts().events_jsonl(),
        site_prom: recorder.artifacts().metrics_prometheus(),
        row_events: report
            .row_recorders
            .iter()
            .map(|r| r.artifacts().events_jsonl())
            .collect(),
        row_requests: report
            .row_recorders
            .iter()
            .map(|r| r.artifacts().requests_jsonl())
            .collect(),
        incidents,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tentpole invariant: the worker-pool schedule is invisible —
    /// every artifact byte matches between sequential and 4-thread
    /// stepping, with enforcement brakes firing mid-run.
    #[test]
    fn parallel_site_artifacts_are_byte_identical(seed in 0u64..500) {
        let seq = run_site(seed, 1);
        let par = run_site(seed, 4);
        prop_assert!(!seq.site_events.is_empty());
        prop_assert_eq!(&seq.site_events, &par.site_events);
        prop_assert_eq!(&seq.site_prom, &par.site_prom);
        for i in 0..seq.row_events.len() {
            prop_assert!(!seq.row_events[i].is_empty());
            prop_assert_eq!(&seq.row_events[i], &par.row_events[i]);
            prop_assert_eq!(&seq.row_requests[i], &par.row_requests[i]);
        }
        prop_assert_eq!(&seq.incidents, &par.incidents);
    }

    /// Hierarchy budget math: a parent violation is only ever emitted
    /// when its children's summed power at that sample exceeds the
    /// parent cap — across randomized site shapes.
    #[test]
    fn parent_violations_require_child_sums_over_cap(
        seed in 0u64..500,
        datacenters in 1usize..4,
        rows_per_dc in 1usize..4,
        rows_per_pdu in 1usize..3,
    ) {
        let recorder = Recorder::new(ObsLevel::Events);
        let row = small_row();
        let mut site = SiteConfig {
            datacenters,
            rows_per_datacenter: rows_per_dc,
            rows_per_pdu,
            // Caps far below what even lightly loaded rows draw, so
            // violations occur at every shape.
            pdu_budget_watts: Some(row.provisioned_watts() * 0.5),
            datacenter_budget_watts: Some(row.provisioned_watts() * 0.5 * rows_per_dc as f64),
            site_budget_watts: Some(
                row.provisioned_watts() * 0.5 * (rows_per_dc * datacenters) as f64,
            ),
            ..SiteConfig::default()
        };
        site.base.seed = seed;
        site.base.recorder = recorder.clone();
        let policy = PolcaPolicy::default();
        let hierarchy = site.hierarchy(row.provisioned_watts());
        let report = SiteSim::new(
            row,
            site,
            |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
            arrivals(seed).into_iter(),
            SimTime::from_secs(HORIZON),
        )
        .run();
        prop_assert_eq!(report.rows.len(), datacenters * rows_per_dc);

        // Reconstruct each boundary sample's per-row powers from the
        // event stream, then check every violation's roll-up.
        let events = recorder.artifacts().events;
        let mut row_watts = vec![0.0f64; datacenters * rows_per_dc];
        let mut sample_t = f64::NAN;
        let mut violations = 0u64;
        for event in &events {
            match event {
                Event::FleetPowerSample { t, row, watts } => {
                    sample_t = *t;
                    row_watts[*row] = *watts;
                }
                Event::BudgetViolation { t, scope, unit, watts, budget_watts } => {
                    prop_assert_eq!(*t, sample_t, "violation outside a boundary sample");
                    let child_sum: f64 = match *scope {
                        "pdu" => hierarchy.rows_in_pdu(*unit).map(|r| row_watts[r]).sum(),
                        "datacenter" => {
                            hierarchy.rows_in_datacenter(*unit).map(|r| row_watts[r]).sum()
                        }
                        "site" => hierarchy.datacenter_powers(&row_watts).iter().sum(),
                        other => {
                            prop_assert!(false, "unknown scope {}", other);
                            unreachable!()
                        }
                    };
                    prop_assert!(
                        child_sum > *budget_watts,
                        "{scope} {unit} violation at t={t}: child sum {child_sum} \
                         within cap {budget_watts}"
                    );
                    // The reported watts are exactly the child roll-up.
                    prop_assert!((child_sum - watts).abs() <= f64::EPSILON * watts.abs());
                    violations += 1;
                }
                _ => {}
            }
        }
        prop_assert!(violations > 0, "caps this low must be violated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lookahead's ceiling is sound: at random boundaries, take a
    /// row's `PowerCeiling` for horizons 1, 4, 16 and 64 windows out,
    /// then step window by window and check the row's power against
    /// every ceiling whose horizon has not passed. The margin is far
    /// below the one the site applies against budgets.
    #[test]
    fn power_ceiling_bounds_the_row_at_every_boundary(
        seed in 0u64..500,
        batched in any::<bool>(),
        load in 0.02f64..0.6,
    ) {
        let mut cfg = SimConfig {
            seed,
            record_power_series: false,
            ..SimConfig::default()
        };
        if batched {
            cfg.engine = DisaggregationConfig::default().batched_engine(false);
        }
        let trace = TraceConfig::paper_mix(seed, SimTime::from_mins(20.0)).scaled(load);
        let arrivals: Vec<Request> = ArrivalGenerator::new(&trace).collect();
        let until = SimTime::from_secs(HORIZON);
        let controller = PolcaController::new(PolcaPolicy::default());
        let mut row = RowSim::new(small_row(), cfg, controller, arrivals.into_iter(), until);
        let mut rng = SimRng::from_seed_stream(seed, 99);
        let window = SimTime::from_secs(2.0);
        let mut watched: Vec<(SimTime, f64)> = Vec::new();
        let mut braked = false;
        let mut boundary = SimTime::ZERO;
        let mut checks = 0u64;
        while boundary < until {
            if rng.chance(0.05) {
                let mut ceiling = PowerCeiling::new(&row);
                for windows in [1.0, 4.0, 16.0, 64.0] {
                    let u = boundary + SimTime::from_secs(2.0 * windows);
                    watched.push((u, ceiling.at(u)));
                }
            }
            if rng.chance(0.02) {
                braked = !braked;
                row.inject(boundary, ControlRequest {
                    target: ControlTarget::All,
                    action: ControlAction::PowerBrake { on: braked },
                });
            }
            boundary = (boundary + window).min(until);
            row.step_until(boundary);
            let watts = row.row_power_watts();
            watched.retain(|&(u, _)| u >= boundary);
            for &(u, ceiling) in &watched {
                prop_assert!(
                    watts <= ceiling * (1.0 + 1e-9),
                    "row drew {watts} W at t = {} s over its ceiling {ceiling} W for u = {} s",
                    boundary.as_secs(),
                    u.as_secs()
                );
                checks += 1;
            }
        }
        prop_assert!(checks > 0);
    }
}
