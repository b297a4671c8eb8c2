//! Multi-datacenter site simulation with deterministic parallel row
//! execution.
//!
//! [`SiteSim`] generalizes the single-datacenter fleet to the scale the
//! provisioning literature targets (~25+ datacenters behind one
//! substation): N datacenters of M rows each under a
//! [`SiteHierarchy`], with budget monitoring — and optional active
//! enforcement — at the PDU, datacenter, *and* site level.
//!
//! # Window/merge protocol
//!
//! Rows are resumable [`RowSim`] engines with fully independent state:
//! their own event queue, RNG stream ([`row_seed`]), recorder cell,
//! and OOB control plane. The site steps them in lockstep telemetry
//! windows:
//!
//! 1. **Plan.** From the cached next-event time of every row, build
//!    the window's work deque: only rows with an event due at or
//!    before the boundary are listed (an idle row costs nothing — see
//!    `ProfCounter::FleetRowsSkipped`).
//! 2. **Step.** Workers on a scoped thread pool claim due rows off an
//!    atomic cursor and run `step_until(boundary)`. Rows share no
//!    mutable state, so any claim order yields the same per-row
//!    result; with `threads == 1` the main thread just walks the
//!    deque in order.
//! 3. **Merge** (`fleet.merge` phase). After a barrier, the main
//!    thread alone refreshes the per-row caches (next event time,
//!    instantaneous power) in canonical row order.
//! 4. **Observe** (`fleet.power_aggregation` / `site.aggregate`
//!    phases). Still single-threaded, aggregate row power up the
//!    hierarchy, record gauges and violation events in canonical
//!    order, and evaluate enforcement; brake commands are injected
//!    back into the affected rows' queues before the next window.
//!
//! # Determinism argument
//!
//! Everything emitted into the *site-level* recorder happens in steps
//! 3–4 on the main thread, in row/PDU/datacenter index order — the
//! thread pool never touches it. Everything a *row* emits goes to that
//! row's private recorder, and a row's trajectory over a window is a
//! pure function of its state at the previous boundary (plus injected
//! commands, which are decided in step 4 from merged state only). So
//! `threads = 1` and `threads = K` produce byte-identical artifacts
//! (pinned by proptests in `tests/site_sim.rs`).
//!
//! # The 1-row site
//!
//! A default [`SiteConfig`] is one datacenter of one row, and that
//! shape is the legacy single-row path:
//!
//! * arrivals are split across rows by a deterministic round-robin
//!   dispatcher that preserves per-row arrival order, so a 1-row site
//!   feeds its single row the unmodified source stream;
//! * per-row seeds come from [`row_seed`], whose row-0 value is the
//!   site seed itself;
//! * budget *monitoring* is passive by default, so a 1-row site run is
//!   bit-identical (events.jsonl and all) to the single-row
//!   [`ClusterSim`] path (pinned by `tests/fleet_sweep.rs`). Active
//!   enforcement is opt-in via [`SiteConfig::enforce_budgets`].

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use polca_obs::{Event, Label, Phase, ProfCounter, Recorder};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::hierarchy::SiteHierarchy;
use crate::request::{Priority, Request};
use crate::row::RowConfig;
use crate::sim::{
    ClusterSim, ControlRequest, ControlTarget, PowerController, RequestSource, RowSim, SimConfig,
    SimReport,
};

/// Aggregate power must fall below this fraction of a budget before an
/// enforcement brake releases (hysteresis against brake/unbrake limit
/// cycles at the breaker threshold). Shared by every hierarchy level.
const RELEASE_FRACTION: f64 = 0.95;

/// Derives the seed for site row `row` (global index) from the site
/// seed.
///
/// The mix is a splitmix64-style finalizer over the row index with no
/// additive constants, so `row_seed(seed, 0) == seed` — the first row
/// of a site replays exactly the RNG streams of a single-row run with
/// the same seed — while distinct rows land on well-separated streams.
pub fn row_seed(site_seed: u64, row: usize) -> u64 {
    let mut x = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    site_seed ^ x
}

/// Each row consumes its pre-split share of the arrival stream: an
/// owned iterator, so rows can step on worker threads without sharing
/// a dispatcher.
type RowFeed = std::vec::IntoIter<Request>;

/// One row engine driving its owned feed.
type RowEngine<P> = RowSim<P, RowFeed>;

/// Splits `source` across `n` rows by strict round-robin: request `k`
/// goes to row `k % n`, preserving per-row arrival order. This is
/// exactly the stream the historical lazy shared dispatcher handed
/// each row, but materialized up front so feeds are independent.
fn split_round_robin<S: RequestSource>(mut source: S, n: usize) -> Vec<RowFeed> {
    let mut buckets: Vec<Vec<Request>> = (0..n).map(|_| Vec::new()).collect();
    let mut next = 0;
    while let Some(req) = source.next_request() {
        buckets[next].push(req);
        next = (next + 1) % n;
    }
    buckets.into_iter().map(Vec::into_iter).collect()
}

/// The brake command a budget enforcer injects into member rows.
fn brake_request(on: bool) -> ControlRequest {
    ControlRequest {
        target: ControlTarget::All,
        action: ControlAction::PowerBrake { on },
    }
}

/// Site-level simulator knobs, wrapping the per-row [`SimConfig`].
///
/// A default config is a 1-datacenter, 1-row, single-threaded site —
/// the degenerate case that reproduces the legacy paths bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteConfig {
    /// Number of datacenters on the site bus.
    pub datacenters: usize,
    /// Rows per datacenter.
    pub rows_per_datacenter: usize,
    /// Rows behind each PDU (the last PDU of a datacenter may feed
    /// fewer).
    pub rows_per_pdu: usize,
    /// Per-PDU budget override in watts (`None`: provisioned, or the
    /// oversubscription-derived budget).
    pub pdu_budget_watts: Option<f64>,
    /// Per-datacenter budget override in watts.
    pub datacenter_budget_watts: Option<f64>,
    /// Site budget override in watts.
    pub site_budget_watts: Option<f64>,
    /// PDU oversubscription fraction `f` (budget = provisioned /
    /// (1 + f)); an absolute override wins.
    pub pdu_oversubscription: Option<f64>,
    /// Datacenter oversubscription fraction.
    pub datacenter_oversubscription: Option<f64>,
    /// Site oversubscription fraction.
    pub site_oversubscription: Option<f64>,
    /// When `true`, actively engage the power brake on every row
    /// behind an overloaded PDU, datacenter, or site (release
    /// hysteresis at [`RELEASE_FRACTION`]); when `false` (default)
    /// budgets are monitored only.
    pub enforce_budgets: bool,
    /// Worker threads for parallel row stepping (clamped to the row
    /// count; `0` or `1` means sequential). Artifacts are
    /// byte-identical at any value.
    pub threads: usize,
    /// The per-row configuration template. `seed` is stream-split per
    /// row via [`row_seed`]; `recorder` becomes the *site-level*
    /// recorder while each row records into a fresh cell of the same
    /// level; `oob_taps` fan out with the global row index attached.
    pub base: SimConfig,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            datacenters: 1,
            rows_per_datacenter: 1,
            rows_per_pdu: 1,
            pdu_budget_watts: None,
            datacenter_budget_watts: None,
            site_budget_watts: None,
            pdu_oversubscription: None,
            datacenter_oversubscription: None,
            site_oversubscription: None,
            enforce_budgets: false,
            threads: 1,
            base: SimConfig::default(),
        }
    }
}

impl SiteConfig {
    /// Whether this config engages the site level at all: more than
    /// one datacenter, or an explicit site budget/oversubscription.
    /// When inactive, no site-scoped gauges or events are emitted.
    pub fn site_active(&self) -> bool {
        self.datacenters > 1
            || self.site_budget_watts.is_some()
            || self.site_oversubscription.is_some()
    }

    /// Builds the [`SiteHierarchy`] this config describes for a row
    /// provisioned at `row_provisioned_watts`.
    pub fn hierarchy(&self, row_provisioned_watts: f64) -> SiteHierarchy {
        let mut h = SiteHierarchy::uniform(
            self.datacenters,
            self.rows_per_datacenter,
            self.rows_per_pdu,
            row_provisioned_watts,
        );
        if let Some(f) = self.pdu_oversubscription {
            h = h.with_pdu_oversubscription(f);
        }
        if let Some(f) = self.datacenter_oversubscription {
            h = h.with_datacenter_oversubscription(f);
        }
        if let Some(f) = self.site_oversubscription {
            h = h.with_site_oversubscription(f);
        }
        if let Some(w) = self.pdu_budget_watts {
            h = h.with_pdu_budget(w);
        }
        if let Some(w) = self.datacenter_budget_watts {
            h = h.with_datacenter_budget(w);
        }
        if let Some(w) = self.site_budget_watts {
            h = h.with_site_budget(w);
        }
        h
    }
}

/// Everything a site run produces.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Per-row reports, in global row order.
    pub rows: Vec<SimReport>,
    /// Per-row recorders (fresh cells at the site config's level; row
    /// 0's event log is bit-identical to a solo run when budgets are
    /// not enforced).
    pub row_recorders: Vec<Recorder>,
    /// Number of datacenters simulated.
    pub datacenters: usize,
    /// Rows per datacenter.
    pub rows_per_datacenter: usize,
    /// Highest aggregate power seen at each PDU (global PDU order).
    pub pdu_peak_watts: Vec<f64>,
    /// Budget of each PDU, in watts.
    pub pdu_budget_watts: Vec<f64>,
    /// Highest aggregate power seen in each datacenter, in watts.
    pub datacenter_peak_watts: Vec<f64>,
    /// The per-datacenter budget, in watts.
    pub datacenter_budget_watts: f64,
    /// Highest site aggregate power seen, in watts.
    pub site_peak_watts: f64,
    /// The site budget, in watts.
    pub site_budget_watts: f64,
    /// Boundary samples at which some PDU exceeded its budget.
    pub pdu_violation_samples: u64,
    /// Boundary samples at which some datacenter exceeded its budget.
    pub datacenter_violation_samples: u64,
    /// Boundary samples at which the site exceeded its budget.
    pub site_violation_samples: u64,
    /// Site-level brake engagements, all levels (enforcement only).
    pub fleet_brake_engagements: u64,
    /// Duration simulated.
    pub duration: SimTime,
}

impl SiteReport {
    /// Total requests offered across rows.
    pub fn offered(&self) -> u64 {
        self.rows.iter().map(|r| r.offered).sum()
    }

    /// Total requests completed across rows.
    pub fn completed(&self) -> u64 {
        self.rows.iter().map(|r| r.completed).sum()
    }

    /// Total requests rejected across rows.
    pub fn rejected(&self) -> u64 {
        self.rows.iter().map(|r| r.rejected).sum()
    }

    /// Total discrete events processed across rows.
    pub fn events_processed(&self) -> u64 {
        self.rows.iter().map(|r| r.events_processed).sum()
    }

    /// All completion latencies for `priority`, concatenated in global
    /// row order (quantiles over the site, not one row).
    pub fn latencies(&self, priority: Priority) -> Vec<f64> {
        let mut all = Vec::new();
        for r in &self.rows {
            all.extend_from_slice(r.latencies(priority));
        }
        all
    }

    /// Global row indices of datacenter `d`.
    pub fn rows_in_datacenter(&self, d: usize) -> Range<usize> {
        d * self.rows_per_datacenter..(d + 1) * self.rows_per_datacenter
    }

    /// Site peak power as a fraction of the site budget.
    pub fn site_peak_utilization(&self) -> f64 {
        self.site_peak_watts / self.site_budget_watts
    }

    /// Peak power of datacenter `d` as a fraction of its budget.
    pub fn datacenter_peak_utilization(&self, d: usize) -> f64 {
        self.datacenter_peak_watts[d] / self.datacenter_budget_watts
    }

    /// Sum of the rows' time-weighted mean powers (the site's mean
    /// aggregate power).
    pub fn mean_site_watts(&self) -> f64 {
        self.rows.iter().map(|r| r.mean_row_watts).sum()
    }
}

/// Boundary-time monitor state: hierarchy roll-up, peaks, violation
/// counters, and per-level brake hysteresis. Only ever touched by the
/// main thread, between windows.
struct SiteMonitor {
    obs: Recorder,
    hierarchy: SiteHierarchy,
    enforce: bool,
    site_active: bool,
    pdu_braked: Vec<bool>,
    dc_braked: Vec<bool>,
    site_braked: bool,
    /// The brake state actually applied to each row (the OR of the
    /// levels above it, tracked explicitly so overlapping engagements
    /// release correctly).
    row_braked: Vec<bool>,
    pdu_peak: Vec<f64>,
    dc_peak: Vec<f64>,
    site_peak: f64,
    pdu_violations: u64,
    dc_violations: u64,
    site_violations: u64,
    brakes: u64,
}

impl SiteMonitor {
    fn new(obs: Recorder, hierarchy: SiteHierarchy, enforce: bool, site_active: bool) -> Self {
        let (n_rows, n_pdus, n_dcs) = (
            hierarchy.n_rows(),
            hierarchy.n_pdus(),
            hierarchy.n_datacenters(),
        );
        SiteMonitor {
            obs,
            hierarchy,
            enforce,
            site_active,
            pdu_braked: vec![false; n_pdus],
            dc_braked: vec![false; n_dcs],
            site_braked: false,
            row_braked: vec![false; n_rows],
            pdu_peak: vec![0.0; n_pdus],
            dc_peak: vec![0.0; n_dcs],
            site_peak: 0.0,
            pdu_violations: 0,
            dc_violations: 0,
            site_violations: 0,
            brakes: 0,
        }
    }

    /// Datacenter metric label: a 1-datacenter site keeps the legacy
    /// unpartitioned series so its artifacts match the historical
    /// fleet byte for byte.
    fn dc_label(&self, d: usize) -> Label {
        if self.hierarchy.n_datacenters() == 1 {
            Label::Global
        } else {
            Label::Datacenter(d)
        }
    }

    /// Aggregates ground-truth power at a window boundary: records
    /// site metrics/events, tracks peaks and violations, and (in
    /// enforcement mode) decides per-row brake toggles, returned in
    /// canonical row order for the caller to inject.
    fn observe(&mut self, now: SimTime, row_watts: &[f64], stepped: usize) -> Vec<(usize, bool)> {
        let _p = self.obs.prof().time(Phase::PowerAggregation);
        self.obs.prof().count(ProfCounter::FleetWindows, 1);
        self.obs
            .prof()
            .count(ProfCounter::FleetRowWindows, stepped as u64);
        self.obs.prof().count(
            ProfCounter::FleetRowsSkipped,
            (row_watts.len() - stepped) as u64,
        );
        let t = now.as_secs();
        let mut toggles = Vec::new();
        for (i, &w) in row_watts.iter().enumerate() {
            self.obs.gauge("fleet.row_power_w", Label::Row(i), w);
            self.obs.record(Event::FleetPowerSample {
                t,
                row: i,
                watts: w,
            });
        }
        let pdu_powers = self.hierarchy.pdu_powers(row_watts);
        let mut any_pdu_violation = false;
        for (pdu, &w) in pdu_powers.iter().enumerate() {
            let budget = self.hierarchy.pdu_budget_watts(pdu);
            self.obs.gauge("fleet.pdu_power_w", Label::Pdu(pdu), w);
            if w > self.pdu_peak[pdu] {
                self.pdu_peak[pdu] = w;
            }
            if w > budget {
                any_pdu_violation = true;
                self.obs.add("fleet.pdu_violations", Label::Pdu(pdu), 1);
                self.obs.record(Event::BudgetViolation {
                    t,
                    scope: "pdu",
                    unit: pdu,
                    watts: w,
                    budget_watts: budget,
                });
            }
            if self.enforce {
                self.enforce_pdu(pdu, w, budget, &mut toggles);
            }
        }
        if any_pdu_violation {
            self.pdu_violations += 1;
        }
        let dc_powers = self.hierarchy.datacenter_powers(row_watts);
        let dc_budget = self.hierarchy.datacenter_budget_watts();
        let _site_phase = if self.site_active {
            self.obs.prof().time(Phase::SiteAggregation)
        } else {
            None
        };
        let mut any_dc_violation = false;
        for (d, &w) in dc_powers.iter().enumerate() {
            let label = self.dc_label(d);
            self.obs.gauge("fleet.datacenter_power_w", label, w);
            if w > self.dc_peak[d] {
                self.dc_peak[d] = w;
            }
            if w > dc_budget {
                any_dc_violation = true;
                self.obs.add("fleet.datacenter_violations", label, 1);
                self.obs.record(Event::BudgetViolation {
                    t,
                    scope: "datacenter",
                    unit: d,
                    watts: w,
                    budget_watts: dc_budget,
                });
            }
            if self.enforce {
                self.enforce_datacenter(d, w, dc_budget, &mut toggles);
            }
        }
        if any_dc_violation {
            self.dc_violations += 1;
        }
        let site_w: f64 = dc_powers.iter().sum();
        if site_w > self.site_peak {
            self.site_peak = site_w;
        }
        if self.site_active {
            let site_budget = self.hierarchy.site_budget_watts();
            self.obs.gauge("site.power_w", Label::Global, site_w);
            if site_w > site_budget {
                self.site_violations += 1;
                self.obs.add("site.budget_violations", Label::Global, 1);
                self.obs.record(Event::BudgetViolation {
                    t,
                    scope: "site",
                    unit: 0,
                    watts: site_w,
                    budget_watts: site_budget,
                });
            }
            if self.enforce {
                self.enforce_site(site_w, site_budget, &mut toggles);
            }
        }
        toggles
    }

    /// PDU-scoped brake with hysteresis: engage above budget, release
    /// below [`RELEASE_FRACTION`] of it.
    fn enforce_pdu(
        &mut self,
        pdu: usize,
        watts: f64,
        budget: f64,
        toggles: &mut Vec<(usize, bool)>,
    ) {
        let engage = watts > budget && !self.pdu_braked[pdu];
        let release = self.pdu_braked[pdu] && watts < budget * RELEASE_FRACTION;
        if !(engage || release) {
            return;
        }
        self.pdu_braked[pdu] = engage;
        if engage {
            self.brakes += 1;
            self.obs.add("fleet.brake_engagements", Label::Pdu(pdu), 1);
        }
        self.toggle_rows(self.hierarchy.rows_in_pdu(pdu), engage, toggles);
    }

    /// Datacenter-scoped brake across every row of the datacenter.
    fn enforce_datacenter(
        &mut self,
        d: usize,
        watts: f64,
        budget: f64,
        toggles: &mut Vec<(usize, bool)>,
    ) {
        let engage = watts > budget && !self.dc_braked[d];
        let release = self.dc_braked[d] && watts < budget * RELEASE_FRACTION;
        if !(engage || release) {
            return;
        }
        self.dc_braked[d] = engage;
        if engage {
            self.brakes += 1;
            let label = self.dc_label(d);
            self.obs.add("fleet.brake_engagements", label, 1);
        }
        self.toggle_rows(self.hierarchy.rows_in_datacenter(d), engage, toggles);
    }

    /// Site-scoped brake across every row on the bus.
    fn enforce_site(&mut self, watts: f64, budget: f64, toggles: &mut Vec<(usize, bool)>) {
        let engage = watts > budget && !self.site_braked;
        let release = self.site_braked && watts < budget * RELEASE_FRACTION;
        if !(engage || release) {
            return;
        }
        self.site_braked = engage;
        if engage {
            self.brakes += 1;
            self.obs.add("site.brake_engagements", Label::Global, 1);
        }
        self.toggle_rows(0..self.hierarchy.n_rows(), engage, toggles);
    }

    /// Applies a level's engage/release decision to its member rows,
    /// emitting a toggle only when the row's *applied* state changes: a
    /// release at one level never lifts a brake another level still
    /// requires.
    fn toggle_rows(&mut self, rows: Range<usize>, on: bool, toggles: &mut Vec<(usize, bool)>) {
        for row in rows {
            if on {
                if !self.row_braked[row] {
                    self.row_braked[row] = true;
                    toggles.push((row, true));
                }
            } else if self.row_braked[row] && !self.any_level_braking(row) {
                self.row_braked[row] = false;
                toggles.push((row, false));
            }
        }
    }

    /// Whether any hierarchy level above `row` currently holds a brake.
    fn any_level_braking(&self, row: usize) -> bool {
        self.pdu_braked[self.hierarchy.pdu_of(row)]
            || self.dc_braked[self.hierarchy.datacenter_of(row)]
            || self.site_braked
    }
}

/// A window's work deque: the boundary time plus the rows with a due
/// event, claimed index-by-index off an atomic cursor by the workers.
struct WindowPlan {
    target: SimTime,
    due: Vec<usize>,
}

/// Claims due rows off the shared cursor and steps each to the window
/// boundary. Runs on every pool thread, main included.
fn drain_due<P: PowerController>(
    cells: &[Mutex<RowEngine<P>>],
    plan: &Mutex<WindowPlan>,
    cursor: &AtomicUsize,
) {
    loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let (target, row) = {
            let p = plan.lock().expect("window plan poisoned");
            match p.due.get(k) {
                Some(&row) => (p.target, row),
                None => break,
            }
        };
        cells[row]
            .lock()
            .expect("row engine poisoned")
            .step_until(target);
    }
}

/// N datacenters of M lockstep row engines under the site power
/// hierarchy, optionally stepped by a scoped worker pool.
///
/// See the [module docs](self) for the window/merge protocol and the
/// determinism contract. Controller construction is a factory so every
/// row gets an independent policy instance (policies carry mutable
/// per-row state).
pub struct SiteSim<P> {
    rows: Vec<RowEngine<P>>,
    row_recorders: Vec<Recorder>,
    monitor: SiteMonitor,
    window: SimTime,
    horizon: SimTime,
    threads: usize,
}

impl<P: PowerController> SiteSim<P> {
    /// Builds a site of `site.datacenters × site.rows_per_datacenter`
    /// copies of `row`, each driven by its round-robin share of
    /// `source` and controlled by its own
    /// `make_controller(global_row_index, row_recorder)` instance, up
    /// to `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if any shape count is zero or the base telemetry
    /// interval is not positive.
    pub fn new<S: RequestSource>(
        row: RowConfig,
        site: SiteConfig,
        mut make_controller: impl FnMut(usize, &Recorder) -> P,
        source: S,
        horizon: SimTime,
    ) -> Self {
        assert!(
            site.base.telemetry_interval_s > 0.0,
            "site stepping needs a positive telemetry interval"
        );
        let hierarchy = site.hierarchy(row.provisioned_watts());
        let site_active = site.site_active();
        let n = hierarchy.n_rows();
        let feeds = split_round_robin(source, n);
        let mut rows = Vec::with_capacity(n);
        let mut row_recorders = Vec::with_capacity(n);
        for (i, feed) in feeds.into_iter().enumerate() {
            let mut recorder = site.base.recorder.fresh_cell();
            // Stamp each row's hierarchy coordinates onto its energy
            // plan so the polca-energy ledger can roll rows up into
            // PDU/datacenter/site levels.
            if let Some(plan) = site.base.recorder.energy_plan() {
                recorder = recorder.with_energy(plan.at_location(
                    i,
                    hierarchy.pdu_of(i),
                    hierarchy.datacenter_of(i),
                ));
            }
            let mut cfg = site.base.clone();
            cfg.seed = row_seed(site.base.seed, i);
            cfg.recorder = recorder.clone();
            cfg.oob_taps = site.base.oob_taps.for_row(i);
            let controller = make_controller(i, &recorder);
            rows.push(ClusterSim::new(row.clone(), cfg, controller).into_row_sim(feed, horizon));
            row_recorders.push(recorder);
        }
        SiteSim {
            rows,
            row_recorders,
            monitor: SiteMonitor::new(
                site.base.recorder,
                hierarchy,
                site.enforce_budgets,
                site_active,
            ),
            window: SimTime::from_secs(site.base.telemetry_interval_s),
            horizon,
            threads: site.threads,
        }
    }

    /// Total rows across the site.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The site power hierarchy (budgets, PDU/datacenter grouping).
    pub fn hierarchy(&self) -> &SiteHierarchy {
        &self.monitor.hierarchy
    }

    /// Runs every row to the horizon, aggregating power at each
    /// telemetry-window boundary, and returns the site report.
    pub fn run(mut self) -> SiteReport {
        let threads = self.threads.clamp(1, self.rows.len());
        if threads > 1 {
            self.run_windows_parallel(threads);
        } else {
            self.run_windows_sequential();
        }
        let h = &self.monitor.hierarchy;
        let pdu_budget_watts: Vec<f64> = (0..h.n_pdus()).map(|p| h.pdu_budget_watts(p)).collect();
        SiteReport {
            datacenters: h.n_datacenters(),
            rows_per_datacenter: h.rows_per_datacenter(),
            pdu_budget_watts,
            datacenter_budget_watts: h.datacenter_budget_watts(),
            site_budget_watts: h.site_budget_watts(),
            rows: self.rows.into_iter().map(RowSim::finish).collect(),
            row_recorders: self.row_recorders,
            pdu_peak_watts: self.monitor.pdu_peak,
            datacenter_peak_watts: self.monitor.dc_peak,
            site_peak_watts: self.monitor.site_peak,
            pdu_violation_samples: self.monitor.pdu_violations,
            datacenter_violation_samples: self.monitor.dc_violations,
            site_violation_samples: self.monitor.site_violations,
            fleet_brake_engagements: self.monitor.brakes,
            duration: self.horizon,
        }
    }

    /// The single-threaded window loop: walk the due deque in row
    /// order, then merge and observe.
    fn run_windows_sequential(&mut self) {
        let n = self.rows.len();
        let mut next_at: Vec<Option<SimTime>> =
            self.rows.iter().map(RowSim::next_event_time).collect();
        let mut row_watts: Vec<f64> = self.rows.iter().map(RowSim::row_power_watts).collect();
        let mut due: Vec<usize> = Vec::with_capacity(n);
        let mut t = SimTime::ZERO;
        loop {
            let target = (t + self.window).min(self.horizon);
            due.clear();
            due.extend((0..n).filter(|&i| next_at[i].is_some_and(|at| at <= target)));
            for &i in &due {
                self.rows[i].step_until(target);
            }
            {
                let _m = self.monitor.obs.prof().time(Phase::FleetMerge);
                for &i in &due {
                    next_at[i] = self.rows[i].next_event_time();
                    row_watts[i] = self.rows[i].row_power_watts();
                }
            }
            t = target;
            for (row, on) in self.monitor.observe(t, &row_watts, due.len()) {
                self.rows[row].inject(t, brake_request(on));
                next_at[row] = self.rows[row].next_event_time();
            }
            if t >= self.horizon {
                break;
            }
        }
    }

    /// The pooled window loop: `threads - 1` persistent scoped workers
    /// plus the main thread claim due rows off an atomic cursor each
    /// window, rendezvousing at barriers so merge/observe stay
    /// single-threaded. Spawning once for the whole run (not per
    /// window) keeps the per-window cost at two barrier waits.
    fn run_windows_parallel(&mut self, threads: usize) {
        let n = self.rows.len();
        let window = self.window;
        let horizon = self.horizon;
        let mut cells: Vec<Mutex<RowEngine<P>>> = self.rows.drain(..).map(Mutex::new).collect();
        let mut next_at: Vec<Option<SimTime>> = cells
            .iter_mut()
            .map(|c| c.get_mut().expect("row engine poisoned").next_event_time())
            .collect();
        let mut row_watts: Vec<f64> = cells
            .iter_mut()
            .map(|c| c.get_mut().expect("row engine poisoned").row_power_watts())
            .collect();
        let plan = Mutex::new(WindowPlan {
            target: SimTime::ZERO,
            due: Vec::new(),
        });
        let cursor = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(threads);
        let monitor = &mut self.monitor;
        {
            let (cells, plan, cursor, done, barrier) = (&cells, &plan, &cursor, &done, &barrier);
            std::thread::scope(|s| {
                for _ in 1..threads {
                    s.spawn(move || loop {
                        barrier.wait();
                        if done.load(Ordering::Acquire) {
                            return;
                        }
                        drain_due(cells, plan, cursor);
                        barrier.wait();
                    });
                }
                let mut due: Vec<usize> = Vec::with_capacity(n);
                let mut t = SimTime::ZERO;
                loop {
                    let target = (t + window).min(horizon);
                    due.clear();
                    due.extend((0..n).filter(|&i| next_at[i].is_some_and(|at| at <= target)));
                    {
                        let mut p = plan.lock().expect("window plan poisoned");
                        p.target = target;
                        p.due.clear();
                        p.due.extend_from_slice(&due);
                    }
                    cursor.store(0, Ordering::Relaxed);
                    barrier.wait();
                    drain_due(cells, plan, cursor);
                    barrier.wait();
                    {
                        let _m = monitor.obs.prof().time(Phase::FleetMerge);
                        for &i in &due {
                            let row = cells[i].lock().expect("row engine poisoned");
                            next_at[i] = row.next_event_time();
                            row_watts[i] = row.row_power_watts();
                        }
                    }
                    t = target;
                    for (row, on) in monitor.observe(t, &row_watts, due.len()) {
                        let mut r = cells[row].lock().expect("row engine poisoned");
                        r.inject(t, brake_request(on));
                        next_at[row] = r.next_event_time();
                    }
                    if t >= horizon {
                        done.store(true, Ordering::Release);
                        barrier.wait();
                        break;
                    }
                }
            });
        }
        self.rows = cells
            .drain(..)
            .map(|m| m.into_inner().expect("row engine poisoned"))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NoopController;
    use polca_obs::ObsLevel;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn small_row() -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 4;
        row
    }

    fn mixed_requests(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i,
                    t(i as f64 * 3.0),
                    1024,
                    64,
                    if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    },
                )
            })
            .collect()
    }

    fn site_config(datacenters: usize, rows_per_datacenter: usize, threads: usize) -> SiteConfig {
        SiteConfig {
            datacenters,
            rows_per_datacenter,
            rows_per_pdu: 2,
            threads,
            base: SimConfig {
                recorder: Recorder::new(ObsLevel::Full),
                ..SimConfig::default()
            },
            ..SiteConfig::default()
        }
    }

    fn run_site(cfg: SiteConfig, horizon: f64) -> SiteReport {
        SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| NoopController,
            mixed_requests(120).into_iter(),
            t(horizon),
        )
        .run()
    }

    #[test]
    fn row_seed_is_identity_for_row_zero() {
        assert_eq!(row_seed(42, 0), 42);
        assert_eq!(row_seed(0, 0), 0);
        assert_eq!(row_seed(u64::MAX, 0), u64::MAX);
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|r| row_seed(42, r)).collect();
        assert_eq!(seeds.len(), 64, "row seeds must be distinct");
    }

    #[test]
    fn one_row_site_is_bit_identical_to_cluster_sim() {
        let reqs = mixed_requests(50);
        let solo_rec = Recorder::new(ObsLevel::Full);
        let solo_cfg = SimConfig {
            recorder: solo_rec.clone(),
            ..SimConfig::default()
        };
        let solo =
            ClusterSim::new(small_row(), solo_cfg, NoopController).run(reqs.clone(), t(1000.0));

        let mut cfg = SiteConfig::default();
        cfg.base.recorder = Recorder::new(ObsLevel::Full);
        let site = SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| NoopController,
            reqs.into_iter(),
            t(1000.0),
        )
        .run();

        assert_eq!(site.rows.len(), 1);
        let row = &site.rows[0];
        assert_eq!(row.offered, solo.offered);
        assert_eq!(row.completed, solo.completed);
        assert_eq!(row.rejected, solo.rejected);
        assert_eq!(row.low_latencies_s, solo.low_latencies_s);
        assert_eq!(row.high_latencies_s, solo.high_latencies_s);
        assert_eq!(row.peak_row_watts, solo.peak_row_watts);
        assert_eq!(row.mean_row_watts, solo.mean_row_watts);
        assert_eq!(row.events_processed, solo.events_processed);
        assert_eq!(row.row_power.values(), solo.row_power.values());
        // The row's event log is byte-for-byte the single-row log.
        assert_eq!(
            site.row_recorders[0].artifacts().events_jsonl(),
            solo_rec.artifacts().events_jsonl()
        );
    }

    #[test]
    fn round_robin_dispatch_splits_arrivals_evenly() {
        let cfg = SiteConfig {
            rows_per_datacenter: 2,
            rows_per_pdu: 2,
            ..SiteConfig::default()
        };
        let site = SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| NoopController,
            mixed_requests(50).into_iter(),
            t(1000.0),
        )
        .run();
        assert_eq!(site.rows[0].offered, 25);
        assert_eq!(site.rows[1].offered, 25);
        assert_eq!(site.offered(), 50);
        assert_eq!(
            site.completed(),
            site.rows[0].completed + site.rows[1].completed
        );
        assert!(site.events_processed() > 0);
        assert_eq!(
            site.latencies(Priority::Low).len(),
            site.rows[0].low_latencies_s.len() + site.rows[1].low_latencies_s.len()
        );
    }

    #[test]
    fn budget_monitoring_counts_violations_without_intervening() {
        let cfg = SiteConfig {
            rows_per_datacenter: 2,
            rows_per_pdu: 2,
            pdu_budget_watts: Some(1.0), // violated at every boundary
            datacenter_budget_watts: Some(1.0),
            base: SimConfig {
                recorder: Recorder::new(ObsLevel::Events),
                ..SimConfig::default()
            },
            ..SiteConfig::default()
        };
        let obs = cfg.base.recorder.clone();
        let monitored = SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| NoopController,
            mixed_requests(50).into_iter(),
            t(100.0),
        );
        assert_eq!(monitored.n_rows(), 2);
        assert_eq!(monitored.hierarchy().n_pdus(), 1);
        let report = monitored.run();
        assert_eq!(report.pdu_violation_samples, 50); // 100 s / 2 s windows
        assert_eq!(report.datacenter_violation_samples, 50);
        assert_eq!(report.fleet_brake_engagements, 0);
        assert_eq!(report.rows[0].brake_engagements, 0);
        assert!(report.datacenter_peak_watts[0] > report.datacenter_budget_watts);
        assert!(report.datacenter_peak_utilization(0) > 1.0);
        let kinds: std::collections::BTreeSet<&str> =
            obs.artifacts().events.iter().map(Event::kind).collect();
        assert!(kinds.contains("fleet_power_sample"), "kinds: {kinds:?}");
        assert!(kinds.contains("budget_violation"), "kinds: {kinds:?}");
    }

    #[test]
    fn enforcement_brakes_rows_behind_an_overloaded_pdu() {
        let reqs = mixed_requests(50);
        let mut cfg = SiteConfig {
            rows_per_datacenter: 2,
            rows_per_pdu: 2,
            pdu_budget_watts: Some(1.0), // always over; brake never releases
            ..SiteConfig::default()
        };
        let free = SiteSim::new(
            small_row(),
            cfg.clone(),
            |_, _: &Recorder| NoopController,
            reqs.clone().into_iter(),
            t(1000.0),
        )
        .run();
        cfg.enforce_budgets = true;
        let braked = SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| NoopController,
            reqs.into_iter(),
            t(1000.0),
        )
        .run();
        assert_eq!(braked.fleet_brake_engagements, 1);
        assert_eq!(braked.rows[0].brake_engagements, 1);
        assert_eq!(braked.rows[1].brake_engagements, 1);
        assert!(
            braked.mean_site_watts() < free.mean_site_watts(),
            "{} vs {}",
            braked.mean_site_watts(),
            free.mean_site_watts()
        );
    }

    #[test]
    fn parallel_stepping_is_byte_identical_to_sequential() {
        let seq_cfg = site_config(2, 2, 1);
        let par_cfg = site_config(2, 2, 4);
        let (seq_obs, par_obs) = (seq_cfg.base.recorder.clone(), par_cfg.base.recorder.clone());
        let seq = run_site(seq_cfg, 900.0);
        let par = run_site(par_cfg, 900.0);
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.mean_row_watts, b.mean_row_watts);
        }
        for (a, b) in seq.row_recorders.iter().zip(&par.row_recorders) {
            assert_eq!(
                a.artifacts().events_jsonl(),
                b.artifacts().events_jsonl(),
                "per-row event logs must not depend on the thread count"
            );
        }
        let (a, b) = (seq_obs.artifacts(), par_obs.artifacts());
        assert!(!a.events.is_empty());
        assert_eq!(a.events_jsonl(), b.events_jsonl());
        assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
    }

    #[test]
    fn one_datacenter_site_without_site_knobs_stays_on_the_fleet_path() {
        let cfg = site_config(1, 2, 1);
        assert!(!cfg.site_active());
        let obs = cfg.base.recorder.clone();
        let report = run_site(cfg, 600.0);
        assert_eq!(report.datacenters, 1);
        assert_eq!(report.site_violation_samples, 0);
        let events = obs.artifacts().events_jsonl();
        assert!(!events.contains("\"site\""), "no site-scoped events");
        assert!(!obs.artifacts().metrics_json().contains("site.power_w"));
        // The site peak is still reported (it equals the datacenter's).
        assert_eq!(report.site_peak_watts, report.datacenter_peak_watts[0]);
    }

    #[test]
    fn site_budget_violations_are_recorded_per_scope() {
        let mut cfg = site_config(3, 2, 2);
        cfg.site_budget_watts = Some(1.0);
        cfg.datacenter_budget_watts = Some(1.0);
        assert!(cfg.site_active());
        let obs = cfg.base.recorder.clone();
        let report = run_site(cfg, 100.0);
        assert_eq!(report.site_violation_samples, 50); // every 2 s window
        assert_eq!(report.datacenter_violation_samples, 50);
        assert_eq!(report.fleet_brake_engagements, 0); // monitoring only
        assert!(report.site_peak_utilization() > 1.0);
        let events = obs.artifacts().events_jsonl();
        assert!(events.contains("\"scope\":\"site\""));
        assert!(events.contains("\"scope\":\"datacenter\""));
        let prom = obs.artifacts().metrics_prometheus();
        assert!(prom.contains("datacenter=\"2\""), "per-dc series:\n{prom}");
    }

    #[test]
    fn datacenter_enforcement_brakes_every_row() {
        // Datacenter-budget enforcement brakes every row of the
        // datacenter, not only the rows behind an overloaded PDU.
        let mut free_cfg = site_config(1, 2, 1);
        free_cfg.datacenter_budget_watts = Some(1.0);
        let free = run_site(free_cfg.clone(), 900.0);
        let mut braked_cfg = free_cfg;
        braked_cfg.enforce_budgets = true;
        braked_cfg.base.recorder = Recorder::new(ObsLevel::Full);
        let braked = run_site(braked_cfg, 900.0);
        assert_eq!(braked.fleet_brake_engagements, 1);
        assert_eq!(braked.rows[0].brake_engagements, 1);
        assert_eq!(braked.rows[1].brake_engagements, 1);
        assert!(braked.mean_site_watts() < free.mean_site_watts());
    }

    #[test]
    fn overlapping_brakes_release_only_when_every_level_clears() {
        let h = SiteHierarchy::uniform(1, 2, 2, 1000.0);
        let mut m = SiteMonitor::new(Recorder::new(ObsLevel::Off), h, true, false);
        let mut toggles = Vec::new();
        // Both the PDU and the datacenter engage on the same sample.
        m.enforce_pdu(0, 2500.0, 2000.0, &mut toggles);
        m.enforce_datacenter(0, 2500.0, 2000.0, &mut toggles);
        assert_eq!(toggles, vec![(0, true), (1, true)]);
        // The PDU releases but the datacenter still holds: no toggle.
        toggles.clear();
        m.enforce_pdu(0, 1800.0, 2000.0, &mut toggles);
        assert!(toggles.is_empty());
        // Only once the datacenter also releases do the rows unbrake.
        m.enforce_datacenter(0, 1800.0, 2000.0, &mut toggles);
        assert_eq!(toggles, vec![(0, false), (1, false)]);
        assert_eq!(m.brakes, 2);
    }

    #[test]
    fn idle_rows_are_skipped_not_scanned() {
        // A horizon that is not a multiple of the 2 s window leaves a
        // trailing fractional window in which no row has a due event —
        // the work deque skips them all.
        let cfg = site_config(1, 2, 1);
        let obs = cfg.base.recorder.clone();
        run_site(cfg, 7.0);
        let skipped = obs
            .prof()
            .snapshot()
            .counter(polca_obs::ProfCounter::FleetRowsSkipped);
        assert!(skipped >= 1, "trailing window skips idle rows: {skipped}");
    }
}
