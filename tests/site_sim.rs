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
//!   either serving engine, under POLCA and injected brakes,
//! * the site reads its arrival source lazily, at most one epoch ahead
//!   of its rows plus one arrival per row,
//! * a monitor-only site completes exactly what its rows complete
//!   standalone, each on its round-robin share of the stream,
//! * the site-level `events.jsonl` and `metrics.prom` of a site whose
//!   PDU, datacenter and site budgets all brake are pinned byte for
//!   byte against golden files.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use polca::{DisaggregationConfig, PolcaController, PolcaPolicy};
use polca_cluster::{
    row_seed, ControlRequest, NoopController, PowerCeiling, PowerController, Priority, Request,
    RowConfig, RowContext, RowSim, SimConfig, SimReport, SiteConfig, SiteSim,
};
use polca_obs::{Event, ObsLevel, Recorder, ReqTraceConfig};
use polca_sim::{SimRng, SimTime};
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
                sub.on_tick(0, tick.t, tick.truth_watts, tick.observed_watts);
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
                row.inject(boundary, ControlRequest::brake(braked));
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

/// Counts the requests a site draws from its source.
struct CountedSource {
    requests: std::vec::IntoIter<Request>,
    pulls: Arc<AtomicUsize>,
}

impl Iterator for CountedSource {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let next = self.requests.next();
        if next.is_some() {
            self.pulls.fetch_add(1, Ordering::SeqCst);
        }
        next
    }
}

/// A controller that checks, at every telemetry tick, that the site
/// has drawn no more than the arrivals due within one epoch (64
/// windows of 2 s) of the tick plus one per row, and issues nothing.
struct PullBound {
    pulls: Arc<AtomicUsize>,
    arrivals: Arc<Vec<SimTime>>,
    rows: usize,
    ticks: Arc<AtomicUsize>,
}

impl PowerController for PullBound {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        _observed: Option<f64>,
        _ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        let reach = now + SimTime::from_secs(64.0 * 2.0);
        let due = self.arrivals.partition_point(|&at| at <= reach);
        let pulls = self.pulls.load(Ordering::SeqCst);
        assert!(
            pulls <= due + self.rows,
            "at t = {} s the site has drawn {pulls} requests, but only {due} arrive \
             within an epoch ({} rows)",
            now.as_secs(),
            self.rows
        );
        self.ticks.fetch_add(1, Ordering::SeqCst);
        Vec::new()
    }
}

/// The site draws its source lazily: never more than one epoch of
/// arrivals ahead of any row's clock, plus one per row, yet every
/// request by the end. Tight enforced budgets mix one-window epochs
/// around their brakes with full ones.
#[test]
fn the_site_reads_its_source_one_epoch_ahead() {
    for threads in [1, 2] {
        let requests = arrivals(7);
        let total = requests.len();
        let pulls = Arc::new(AtomicUsize::new(0));
        let ticks = Arc::new(AtomicUsize::new(0));
        let due = Arc::new(requests.iter().map(|r| r.arrival).collect::<Vec<_>>());
        let row = small_row();
        let site = SiteConfig {
            datacenters: 2,
            rows_per_datacenter: 2,
            rows_per_pdu: 2,
            pdu_budget_watts: Some(row.provisioned_watts() * 1.1),
            datacenter_budget_watts: Some(row.provisioned_watts() * 1.4),
            site_budget_watts: Some(row.provisioned_watts() * 2.6),
            enforce_budgets: true,
            threads,
            ..SiteConfig::default()
        };
        let rows = site.datacenters * site.rows_per_datacenter;
        let report = SiteSim::new(
            row,
            site,
            |_, _| PullBound {
                pulls: Arc::clone(&pulls),
                arrivals: Arc::clone(&due),
                rows,
                ticks: Arc::clone(&ticks),
            },
            CountedSource {
                requests: requests.into_iter(),
                pulls: Arc::clone(&pulls),
            },
            SimTime::from_secs(HORIZON),
        )
        .run();
        assert!(report.fleet_brake_engagements > 0, "the budgets bind");
        assert!(ticks.load(Ordering::SeqCst) > 0);
        assert_eq!(pulls.load(Ordering::SeqCst), total);
        assert_eq!(report.offered(), total as u64);
    }
}

/// The horizon of the dispatcher-edge streams: not a multiple of the
/// 128 s epoch a monitor-only site runs.
const EDGE_HORIZON: f64 = 900.0;

/// A stream that probes how a site deals arrivals to its rows, on a
/// site of `rows` rows with 2 s windows and 128 s epochs: Poisson
/// arrivals over [0, 200) s and [600, `end`) s, so the gap between
/// them spans three epochs; one request per row exactly on the window
/// boundary 6 s and the epoch boundaries 128 s and 640 s; and, when
/// `end` lies past the horizon, one per row exactly at the horizon and
/// one per row just past it.
fn edge_stream(seed: u64, rows: usize, end: f64) -> Vec<Request> {
    let mut rng = SimRng::from_seed_stream(seed, 7);
    let mut at = Vec::new();
    for (from, to) in [(0.0, 200.0), (600.0, end)] {
        let mut t = from + rng.exponential(0.5);
        while t < to {
            at.push(t);
            t += rng.exponential(0.5);
        }
    }
    for exact in [6.0, 128.0, 640.0, EDGE_HORIZON, EDGE_HORIZON + 1.0] {
        if exact < end {
            at.extend(std::iter::repeat_n(exact, rows));
        }
    }
    at.sort_by(f64::total_cmp);
    at.into_iter()
        .enumerate()
        .map(|(id, t)| {
            let priority = if rng.chance(0.5) {
                Priority::Low
            } else {
                Priority::High
            };
            let input = rng.uniform_u64(256, 4096) as u32;
            let output = rng.uniform_u64(16, 512) as u32;
            Request::new(id as u64, SimTime::from_secs(t), input, output, priority)
        })
        .collect()
}

/// What one row leaves behind that its site must not change.
#[derive(Debug, PartialEq)]
struct RowOutcome {
    offered: u64,
    completed: u64,
    rejected: u64,
    low_latencies_s: Vec<f64>,
    high_latencies_s: Vec<f64>,
    events_processed: u64,
    events: String,
    requests: String,
    metrics: String,
}

impl RowOutcome {
    fn new(report: &SimReport, recorder: &Recorder) -> Self {
        let artifacts = recorder.artifacts();
        RowOutcome {
            offered: report.offered,
            completed: report.completed,
            rejected: report.rejected,
            low_latencies_s: report.low_latencies_s.clone(),
            high_latencies_s: report.high_latencies_s.clone(),
            events_processed: report.events_processed,
            events: artifacts.events_jsonl(),
            requests: artifacts.requests_jsonl(),
            metrics: artifacts.metrics_prometheus(),
        }
    }
}

/// The recorder every row of the run relation records into: events,
/// metrics and request traces, but no wall-clock profile (a site steps
/// a row in slices, which the profile's call counts would show).
fn relation_recorder() -> Recorder {
    Recorder::new(ObsLevel::Events).with_req_trace(ReqTraceConfig { sample: 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Run relation: a monitor-only site completes exactly what its
    /// rows complete standalone. Row `i` of a 2 × 3 site, at 1, 2 and
    /// 4 threads, reports and records what a lone `RowSim` seeded
    /// `row_seed(seed, i)` does over requests `k` with `k % 6 == i`,
    /// on a stream that runs past the horizon and on one that ends
    /// before it. The budgets are far below the rows' draw, so the
    /// site records violations at every boundary but never intervenes.
    #[test]
    fn monitor_only_site_rows_match_standalone_rows(seed in 0u64..500) {
        let row = small_row();
        let policy = PolcaPolicy::default();
        let horizon = SimTime::from_secs(EDGE_HORIZON);
        let n = 6;
        for end in [EDGE_HORIZON + 100.0, 700.0] {
            let stream = edge_stream(seed, n, end);
            let standalone: Vec<RowOutcome> = (0..n)
                .map(|i| {
                    let recorder = relation_recorder();
                    let cfg = SimConfig {
                        seed: row_seed(seed, i),
                        recorder: recorder.clone(),
                        ..SimConfig::default()
                    };
                    let controller =
                        PolcaController::new(policy.clone()).with_recorder(recorder.clone());
                    let feed: Vec<Request> = stream.iter().copied().skip(i).step_by(n).collect();
                    let report =
                        RowSim::new(row.clone(), cfg, controller, feed.into_iter(), horizon)
                            .finish();
                    RowOutcome::new(&report, &recorder)
                })
                .collect();
            for threads in [1, 2, 4] {
                let mut site = SiteConfig {
                    datacenters: 2,
                    rows_per_datacenter: 3,
                    rows_per_pdu: 2,
                    pdu_budget_watts: Some(row.provisioned_watts() * 0.1),
                    site_budget_watts: Some(row.provisioned_watts() * 0.5),
                    threads,
                    ..SiteConfig::default()
                };
                site.base.seed = seed;
                site.base.recorder = relation_recorder();
                let report = SiteSim::new(
                    row.clone(),
                    site,
                    |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
                    stream.clone().into_iter(),
                    horizon,
                )
                .run();
                prop_assert!(report.site_violation_samples > 0);
                prop_assert_eq!(report.fleet_brake_engagements, 0);
                for (i, want) in standalone.iter().enumerate() {
                    let got = RowOutcome::new(&report.rows[i], &report.row_recorders[i]);
                    prop_assert!(
                        &got == want,
                        "row {} of the site at {} threads (stream ending at {} s) \
                         differs from the row run standalone",
                        i,
                        threads,
                        end
                    );
                }
            }
        }
    }
}

/// Fails with the first differing line instead of printing a whole
/// artifact.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    let same = actual
        .lines()
        .zip(golden.lines())
        .take_while(|(a, g)| a == g)
        .count();
    assert!(
        actual == golden,
        "site artifact drifted from tests/golden/{name} at line {}",
        same + 1
    );
}

/// The largest value among `metrics.prom` samples whose line starts
/// with `series` (0 if there is none).
fn max_sample(prom: &str, series: &str) -> u64 {
    prom.lines()
        .filter(|line| line.starts_with(series))
        .filter_map(|line| line.rsplit(' ').next()?.parse().ok())
        .max()
        .unwrap_or(0)
}

/// The site-level artifacts of a 2 × 3 site (PDUs of two rows and of
/// one) whose PDU, datacenter and site budgets each engage, release
/// and re-engage a brake within 200 s are pinned byte for byte, at 1
/// and 2 threads. No CLI flag tightens a PDU budget, so this is the
/// PDU level's only byte-level pin.
#[test]
fn enforced_site_artifacts_match_golden_files() {
    for threads in [1, 2] {
        let recorder = Recorder::new(ObsLevel::Events);
        let row = small_row();
        let p = row.provisioned_watts();
        let mut site = SiteConfig {
            datacenters: 2,
            rows_per_datacenter: 3,
            rows_per_pdu: 2,
            pdu_budget_watts: Some(p * 1.36),
            datacenter_budget_watts: Some(p * 2.0),
            site_budget_watts: Some(p * 3.95),
            enforce_budgets: true,
            threads,
            ..SiteConfig::default()
        };
        site.base.seed = 17;
        site.base.recorder = recorder.clone();
        let trace = TraceConfig::paper_mix(17, SimTime::from_secs(260.0)).scaled(0.5);
        let requests: Vec<Request> = ArrivalGenerator::new(&trace).collect();
        SiteSim::new(
            row,
            site,
            |_, _| NoopController,
            requests.into_iter(),
            SimTime::from_secs(200.0),
        )
        .run();
        let artifacts = recorder.artifacts();
        let (events, prom) = (artifacts.events_jsonl(), artifacts.metrics_prometheus());
        for scope in ["pdu", "datacenter", "site"] {
            assert!(
                events
                    .lines()
                    .any(|line| line.starts_with("{\"ev\":\"budget_violation\"")
                        && line.contains(&format!("\"scope\":\"{scope}\""))),
                "no {scope} budget violation"
            );
        }
        // Two engagements of one unit mean its brake released between.
        for series in [
            "fleet_brake_engagements_total{pdu=",
            "fleet_brake_engagements_total{datacenter=",
            "site_brake_engagements_total ",
        ] {
            assert!(max_sample(&prom, series) >= 2, "{series} engaged < 2 times");
        }
        assert_golden(
            &events,
            include_str!("golden/site_events.jsonl"),
            "site_events.jsonl",
        );
        assert_golden(
            &prom,
            include_str!("golden/site_metrics.prom"),
            "site_metrics.prom",
        );
    }
}
