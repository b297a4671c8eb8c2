//! Multi-datacenter site simulation with deterministic parallel row
//! execution.
//!
//! [`SiteSim`] generalizes the single-datacenter fleet to the scale the
//! provisioning literature targets (~25+ datacenters behind one
//! substation): N datacenters of M rows each under a
//! [`SiteHierarchy`], with budget monitoring — and optional active
//! enforcement — at the PDU, datacenter, *and* site level.
//!
//! # Epoch protocol
//!
//! Rows are resumable [`RowSim`] engines with fully independent state:
//! their own event queue, RNG stream ([`row_seed`]), recorder cell,
//! arrival feed, and OOB control plane. The one thing that couples
//! them is the budget enforcer, which reads every row's power at each
//! telemetry boundary and may inject brake commands there. The site
//! therefore steps rows in *epochs* of K telemetry windows and
//! synchronises once per epoch, not once per window:
//!
//! 1. **Fill** (main thread). A dispatcher deals the source's requests
//!    to the rows' feeds by strict round robin, request `k` to row
//!    `k % n`, until every row holds an arrival later than the furthest
//!    boundary the epoch can reach (64 windows out, capped at the
//!    horizon) or the source is exhausted. Rows, their ceilings and
//!    the epoch loop read only these feeds, and a feed drops what its
//!    row has drawn when it is refilled, so the site holds at most one
//!    epoch of arrivals plus one per row, whatever its horizon. The
//!    same fill runs once in [`SiteSim::new`], before the rows queue
//!    their first arrival.
//! 2. **Plan** (main thread). Pick the largest K ≤ 64 for which every
//!    row's [`PowerCeiling`] proves that no enforced PDU, datacenter or
//!    site budget can be exceeded at any boundary before the epoch's
//!    last one. While a level is braked, or once the headroom is gone,
//!    K = 1: the lockstep protocol.
//! 3. **Step.** Each thread owns a fixed contiguous chunk of rows;
//!    workers are spawned once per run and the main thread steps the
//!    last chunk. A thread walks each of its rows through all K
//!    boundaries, calling `step_until(boundary)` only where the row
//!    has an event due (an idle row costs nothing — see
//!    `ProfCounter::FleetRowsSkipped`), and records the row's power
//!    and due flag at every boundary.
//! 4. **Replay** (main thread, after the epoch's barrier). For every
//!    boundary in order, merge the recorded samples in canonical row
//!    order (`fleet.merge` phase), then observe them
//!    (`fleet.power_aggregation` / `site.aggregate` phases): walk the
//!    PDU, datacenter and site levels under one rule, aggregating up
//!    the hierarchy, recording gauges and violation events and
//!    evaluating enforcement. A row is braked while any level above it
//!    holds a brake. Brake toggles are injected into the affected
//!    rows' queues only at the epoch's last boundary, where lockstep
//!    would inject them too; the replay asserts, in release builds as
//!    well, that no earlier boundary produced one.
//!
//! A panic on any thread is caught there, so every thread still
//! reaches the epoch's barrier, and resumed on the caller's thread.
//!
//! # Determinism argument
//!
//! Everything emitted into the *site-level* recorder happens in the
//! replay on the main thread, in row/PDU/datacenter index order — the
//! workers never touch it. Everything a *row* emits goes to that row's
//! private recorder, and a row's trajectory between two boundaries is
//! a pure function of its state at the first one plus the commands
//! injected there, which are decided from merged state only. Lockstep
//! decides those commands at every boundary; within an epoch the
//! ceiling proves that every boundary but the last decides none, so
//! stepping a row through K boundaries without a stop processes the
//! same events in the same order. Nor does the dispatcher: it deals
//! every row the same requests in the same order at any epoch length
//! and thread count, always before the row's clock reaches them, so a
//! row draws from its feed exactly what it would draw from its whole
//! share of the stream, including the one arrival past its last due
//! one that it queues next. Hence any thread count and any epoch
//! length produce byte-identical artifacts (pinned against the K = 1
//! reference in this module's tests and across thread counts by
//! proptests in `tests/site_sim.rs`).
//!
//! The ceiling is sound because of how rows draw power. A legacy
//! server draws more than hot-idle power only while serving, and it
//! starts serving only from its buffer or on an arrival; phase
//! intensities lie in `[0, 1]` and the DVFS scale never exceeds 1. So
//! counting the servers busy or buffered now, plus the arrivals due by
//! a boundary, bounds how many can be serving there — whatever the
//! row's controller or the OOB plane does. Counting arrivals matters:
//! bounding each row by its provisioned watts would admit no lookahead
//! at all on a 10 %-oversubscribed site. A batched row moves work
//! between servers without arrivals, so every server counts at its
//! peak. Ceilings are compared with budgets under a small relative
//! margin because row power is an incrementally maintained sum. A
//! monitor-only site can never toggle a brake, so its epochs always
//! span 64 windows.
//!
//! # The 1-row site
//!
//! A default [`SiteConfig`] is one datacenter of one row, and that
//! shape is the legacy single-row path:
//!
//! * the dispatcher deals arrivals by strict round robin, which keeps
//!   each row's share in arrival order, so a 1-row site feeds its
//!   single row the unmodified source stream, one epoch at a time;
//! * per-row seeds come from [`row_seed`], whose row-0 value is the
//!   site seed itself;
//! * budget *monitoring* is passive by default, so a 1-row site run is
//!   bit-identical (events.jsonl and all) to the single-row
//!   [`ClusterSim`] path (pinned by `tests/fleet_sweep.rs`). Active
//!   enforcement is opt-in via [`SiteConfig::enforce_budgets`].

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use polca_obs::{Event, Label, Phase, ProfCounter, Recorder};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::hierarchy::{sum_in_order, SiteHierarchy};
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

/// Most telemetry windows one epoch may span. It bounds the per-row
/// tick buffers (a power and a due flag per row and window).
const MAX_EPOCH_WINDOWS: usize = 64;

/// Relative margin between a level's summed ceilings and its budget:
/// row power is an incrementally maintained sum, so it may sit a few
/// ulps above the exact sum of its servers' draws.
const CEILING_MARGIN: f64 = 1e-6;

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

/// A row's share of the site's arrival stream: request `k` of the
/// source goes to row `k % n`. The site's [`Dispatcher`] appends to it
/// on the main thread between epochs and the row draws from its front
/// while stepping, on whichever thread owns it.
#[derive(Default)]
struct RowFeed {
    requests: Vec<Request>,
    /// Requests before this index have been drawn.
    drawn: usize,
    /// Set once the source is exhausted: nothing more will be dealt.
    closed: bool,
}

impl RowFeed {
    /// Appends `req`, first dropping the drawn prefix, so the buffer
    /// holds at most one epoch of arrivals plus one.
    fn push(&mut self, req: Request) {
        if self.drawn > 0 {
            self.requests.drain(..self.drawn);
            self.drawn = 0;
        }
        self.requests.push(req);
    }
}

impl Iterator for RowFeed {
    type Item = Request;

    /// # Panics
    ///
    /// Panics if the feed runs dry while the source may still hold
    /// requests: the dispatcher fell behind the row, which would
    /// silently see the end of its stream.
    fn next(&mut self) -> Option<Request> {
        let Some(&req) = self.requests.get(self.drawn) else {
            assert!(
                self.closed,
                "site dispatch: a row drew past its feed before the source ran dry"
            );
            return None;
        };
        self.drawn += 1;
        Some(req)
    }
}

/// A row's arrival source whose not-yet-drawn requests can be read in
/// place: what a [`PowerCeiling`] counts.
pub trait PendingArrivals {
    /// The requests still to be drawn, in arrival order.
    fn pending(&self) -> &[Request];
}

impl PendingArrivals for std::vec::IntoIter<Request> {
    fn pending(&self) -> &[Request] {
        self.as_slice()
    }
}

impl PendingArrivals for RowFeed {
    fn pending(&self) -> &[Request] {
        &self.requests[self.drawn..]
    }
}

/// One row engine driving its feed.
type RowEngine<P> = RowSim<P, RowFeed>;

/// Deals the site's arrival stream to the rows' feeds by strict round
/// robin, pulling from the source only as far as the next epoch needs.
/// It runs on the main thread, before the rows queue their first
/// arrival and before every epoch is planned.
struct Dispatcher {
    /// The arrival stream; `None` once it is exhausted.
    source: Option<Box<dyn RequestSource>>,
    /// Arrival time of the request last dealt to each row.
    last: Vec<Option<SimTime>>,
    /// The row the next request goes to.
    next: usize,
}

impl Dispatcher {
    fn new(source: Box<dyn RequestSource>, rows: usize) -> Self {
        Dispatcher {
            source: Some(source),
            last: vec![None; rows],
            next: 0,
        }
    }

    /// Deals requests until every row holds one arriving after `until`,
    /// or the source runs dry (then closes every feed). A row stepped
    /// to `until` then never draws from an empty feed, and after its
    /// last arrival due by `until` it queues the next, as a row over
    /// its whole share would.
    ///
    /// Arrivals never decrease, so the rows' last arrivals rise in the
    /// order they were dealt: the row dealt to longest ago, the next
    /// one, holds the earliest.
    ///
    /// # Panics
    ///
    /// Panics if the source yields requests out of order.
    fn fill(&mut self, until: SimTime, feeds: &mut [&mut RowFeed]) {
        let n = feeds.len();
        while let Some(source) = &mut self.source {
            if self.last[self.next].is_some_and(|at| at > until) {
                return;
            }
            let Some(req) = source.next_request() else {
                self.source = None;
                for feed in feeds.iter_mut() {
                    feed.closed = true;
                }
                return;
            };
            let latest = self.last[(self.next + n - 1) % n];
            assert!(
                latest.is_none_or(|at| req.arrival >= at),
                "arrival stream out of order at request {}",
                req.id
            );
            self.last[self.next] = Some(req.arrival);
            feeds[self.next].push(req);
            self.next = (self.next + 1) % n;
        }
    }
}

/// The last boundary an epoch from `t` of at most `windows` telemetry
/// windows can reach, by the boundary arithmetic of
/// [`SiteSim::plan_epoch`] step for step.
fn epoch_reach(t: SimTime, window: SimTime, horizon: SimTime, windows: usize) -> SimTime {
    (0..windows).fold(t, |boundary, _| (boundary + window).min(horizon))
}

/// The brake command a budget enforcer injects into member rows.
fn brake_request(on: bool) -> ControlRequest {
    ControlRequest {
        target: ControlTarget::All,
        action: ControlAction::PowerBrake { on },
    }
}

/// A sound upper bound on one row's power over the coming telemetry
/// windows: the lookahead that lets [`SiteSim`] step rows through a
/// whole epoch between synchronisations.
///
/// Taken from a row at its current instant `t`, [`at(u)`](Self::at)
/// bounds the row's power at every instant in `[t, u]`, whatever the
/// row's controller, its OOB plane or injected brakes do:
///
/// `m·P_max + (n − m)·P_idle` over `n` servers, where
/// `m = min(n, committed + 1 + arrivals due by u)` bounds the servers
/// that can be serving, `P_max` is a server's draw at workload
/// intensity 1 and the full clock, and `P_idle` its hot-idle draw at
/// the full clock. The 1 is the arrival already waiting in the event
/// queue. The legacy engine commits its busy servers and buffered
/// requests (a server leaves hot idle only to serve one of those or a
/// new arrival); the batched engine commits all `n` servers, since its
/// split pools move work between servers without arrivals, so it is
/// bounded at `n·P_max` whatever its feed holds.
#[derive(Debug, Clone)]
pub struct PowerCeiling<'a> {
    servers: usize,
    serving_watts: f64,
    idle_watts: f64,
    /// Servers that may serve before any further arrival.
    committed: usize,
    /// Arrivals still in the row's feed, in arrival order.
    pending: &'a [Request],
    /// How many of `pending` arrive by the latest `u` asked about.
    arrived: usize,
}

impl<'a> PowerCeiling<'a> {
    /// The ceiling of `row` from its current instant on.
    pub fn new<P: PowerController, S: RequestSource + PendingArrivals>(
        row: &'a RowSim<P, S>,
    ) -> Self {
        let (serving_watts, idle_watts) = row.max_server_watts();
        PowerCeiling {
            servers: row.n_servers(),
            serving_watts,
            idle_watts,
            committed: row.committed_servers() + 1,
            pending: row.source().pending(),
            arrived: 0,
        }
    }

    /// Upper bound, in watts, on the row's power at every instant up
    /// to `u`. A `u` earlier than one already asked about gets the
    /// (looser, still sound) bound of the latest.
    pub fn at(&mut self, u: SimTime) -> f64 {
        while self
            .pending
            .get(self.arrived)
            .is_some_and(|r| r.arrival <= u)
        {
            self.arrived += 1;
        }
        let serving = self.servers.min(self.committed + self.arrived);
        serving as f64 * self.serving_watts + (self.servers - serving) as f64 * self.idle_watts
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
    /// Per-PDU budget override in watts (`None`: the provisioned power
    /// of the rows it feeds).
    pub pdu_budget_watts: Option<f64>,
    /// Per-datacenter budget override in watts.
    pub datacenter_budget_watts: Option<f64>,
    /// Site budget override in watts.
    pub site_budget_watts: Option<f64>,
    /// Datacenter oversubscription fraction `f` (budget = provisioned
    /// / (1 + f)); an absolute override wins.
    pub datacenter_oversubscription: Option<f64>,
    /// Site oversubscription fraction.
    pub site_oversubscription: Option<f64>,
    /// When `true`, actively engage the power brake on every row
    /// behind an overloaded PDU, datacenter, or site (release
    /// hysteresis at `RELEASE_FRACTION` of budget); when `false`
    /// (default) budgets are monitored only.
    pub enforce_budgets: bool,
    /// Threads stepping rows, each owning a contiguous chunk of them
    /// (clamped to the row count; `0` or `1` steps every row on the
    /// calling thread). Artifacts are byte-identical at any value.
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

/// One PDU, datacenter or site bus, as the monitor tracks it.
struct Unit {
    /// The rows it feeds, which its brake holds.
    rows: Range<usize>,
    budget: f64,
    label: Label,
    /// Power at the last roll-up, of row powers or of row ceilings.
    watts: f64,
    /// Highest power observed.
    peak: f64,
    braked: bool,
}

impl Unit {
    fn new(rows: Range<usize>, budget: f64, label: Label) -> Self {
        Unit {
            rows,
            budget,
            label,
            watts: 0.0,
            peak: 0.0,
            braked: false,
        }
    }

    /// Brake hysteresis: engages above the budget and releases below
    /// [`RELEASE_FRACTION`] of it. Returns whether the brake toggled.
    fn update_brake(&mut self) -> bool {
        let toggle = if self.braked {
            self.watts < self.budget * RELEASE_FRACTION
        } else {
            self.watts > self.budget
        };
        self.braked ^= toggle;
        toggle
    }
}

/// One level of the hierarchy: its units and the names it records
/// them under.
struct Level {
    /// Event scope, power gauge, violation counter and brake counter.
    names: [&'static str; 4],
    /// Whether it records gauges and violations and enforces budgets
    /// (an inactive site does not). Peaks are tracked either way.
    active: bool,
    units: Vec<Unit>,
    /// Boundary samples at which some unit exceeded its budget.
    violations: u64,
}

impl Level {
    fn new(names: [&'static str; 4], active: bool, units: Vec<Unit>) -> Self {
        Level {
            names,
            active,
            units,
            violations: 0,
        }
    }
}

/// [`Level::names`] of the PDUs, the datacenters and the site.
const LEVEL_NAMES: [[&str; 4]; 3] = [
    [
        "pdu",
        "fleet.pdu_power_w",
        "fleet.pdu_violations",
        "fleet.brake_engagements",
    ],
    [
        "datacenter",
        "fleet.datacenter_power_w",
        "fleet.datacenter_violations",
        "fleet.brake_engagements",
    ],
    [
        "site",
        "site.power_w",
        "site.budget_violations",
        "site.brake_engagements",
    ],
];

/// Indices into [`SiteMonitor::levels`].
const DATACENTERS: usize = 1;
const SITE: usize = 2;

/// Boundary-time monitor state: hierarchy roll-up, peaks, violation
/// counters, and per-level brake hysteresis. Only ever touched by the
/// main thread, between epochs.
struct SiteMonitor {
    obs: Recorder,
    hierarchy: SiteHierarchy,
    enforce: bool,
    /// PDUs, datacenters and the site: the order every boundary walks.
    levels: [Level; 3],
    /// How many levels hold a brake on each row. A row stays braked
    /// while any does, so a release at one level never lifts a brake
    /// another level still requires.
    holds: Vec<u8>,
    /// Brake engagements, all levels.
    brakes: u64,
    /// The last boundary's brake toggles, in canonical row order
    /// (reused, so a boundary does not allocate).
    toggles: Vec<(usize, bool)>,
}

impl SiteMonitor {
    fn new(obs: Recorder, hierarchy: SiteHierarchy, enforce: bool, site_active: bool) -> Self {
        let h = &hierarchy;
        let dc_budget = h.datacenter_budget_watts();
        // A 1-datacenter site keeps the legacy unpartitioned series so
        // its artifacts match the historical fleet byte for byte.
        let dc_label = |d| match h.n_datacenters() {
            1 => Label::Global,
            _ => Label::Datacenter(d),
        };
        let pdus = (0..h.n_pdus())
            .map(|p| Unit::new(h.rows_in_pdu(p), h.pdu_budget_watts(p), Label::Pdu(p)));
        let dcs = (0..h.n_datacenters())
            .map(|d| Unit::new(h.rows_in_datacenter(d), dc_budget, dc_label(d)));
        let site = Unit::new(0..h.n_rows(), h.site_budget_watts(), Label::Global);
        let [pdu_names, dc_names, site_names] = LEVEL_NAMES;
        SiteMonitor {
            obs,
            enforce,
            levels: [
                Level::new(pdu_names, true, pdus.collect()),
                Level::new(dc_names, true, dcs.collect()),
                Level::new(site_names, site_active, vec![site]),
            ],
            holds: vec![0; h.n_rows()],
            brakes: 0,
            toggles: Vec::with_capacity(h.n_rows()),
            hierarchy,
        }
    }

    /// Rolls `row_watts` up into every unit's `watts`: a PDU or a
    /// datacenter folds its rows in row order, and the site adds the
    /// datacenters' sums in order.
    fn roll_up(&mut self, row_watts: &[f64]) {
        let [pdus, dcs, site] = &mut self.levels;
        for unit in pdus.units.iter_mut().chain(&mut dcs.units) {
            unit.watts = sum_in_order(&row_watts[unit.rows.clone()]);
        }
        site.units[0].watts = dcs.units.iter().map(|u| u.watts).sum();
    }

    /// Aggregates ground-truth power at a window boundary: records
    /// site metrics/events, tracks peaks and violations, and (in
    /// enforcement mode) decides per-row brake toggles, returned in
    /// canonical row order for the caller to inject.
    fn observe(&mut self, now: SimTime, row_watts: &[f64], stepped: usize) -> &[(usize, bool)] {
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
        self.toggles.clear();
        for (i, &w) in row_watts.iter().enumerate() {
            self.obs.gauge("fleet.row_power_w", Label::Row(i), w);
            self.obs.record(Event::FleetPowerSample {
                t,
                row: i,
                watts: w,
            });
        }
        self.roll_up(row_watts);
        // `site.aggregate` times the datacenter and site levels of an
        // active site.
        let site_active = self.levels[SITE].active;
        let mut site_phase = None;
        for (l, level) in self.levels.iter_mut().enumerate() {
            if l == DATACENTERS && site_active {
                site_phase = self.obs.prof().time(Phase::SiteAggregation);
            }
            let [scope, power, violations, brakes] = level.names;
            let mut violated = false;
            for (index, unit) in level.units.iter_mut().enumerate() {
                unit.peak = unit.peak.max(unit.watts);
                if !level.active {
                    continue;
                }
                self.obs.gauge(power, unit.label, unit.watts);
                if unit.watts > unit.budget {
                    violated = true;
                    self.obs.add(violations, unit.label, 1);
                    self.obs.record(Event::BudgetViolation {
                        t,
                        scope,
                        unit: index,
                        watts: unit.watts,
                        budget_watts: unit.budget,
                    });
                }
                if !(self.enforce && unit.update_brake()) {
                    continue;
                }
                if unit.braked {
                    self.brakes += 1;
                    self.obs.add(brakes, unit.label, 1);
                }
                // A row's brake toggles when its first hold arrives
                // or its last one leaves.
                for row in unit.rows.clone() {
                    let holds = &mut self.holds[row];
                    *holds = if unit.braked { *holds + 1 } else { *holds - 1 };
                    if *holds == u8::from(unit.braked) {
                        self.toggles.push((row, unit.braked));
                    }
                }
            }
            level.violations += u64::from(violated);
        }
        drop(site_phase);
        &self.toggles
    }

    /// Whether some hierarchy level holds a brake. A held brake may
    /// release at any boundary, so it rules out lookahead.
    fn braking(&self) -> bool {
        self.holds.iter().any(|&h| h > 0)
    }

    /// Rolls the rows' ceilings up the hierarchy and reports whether
    /// every enforced unit stays within its budget, by
    /// [`CEILING_MARGIN`]. With no level braking, a boundary where no
    /// row draws more than its ceiling can toggle no brake.
    fn within_budgets(&mut self, row_ceilings: &[f64]) -> bool {
        self.roll_up(row_ceilings);
        self.levels
            .iter()
            .filter(|level| level.active)
            .flat_map(|level| &level.units)
            .all(|unit| unit.watts * (1.0 + CEILING_MARGIN) <= unit.budget)
    }
}

/// One thread's fixed share of the site: a contiguous run of rows and
/// what each recorded at every boundary of the current epoch.
struct Chunk<P> {
    rows: Vec<RowEngine<P>>,
    /// The current epoch's boundaries, in order.
    bounds: Vec<SimTime>,
    /// Row power after each boundary, row-major with stride
    /// [`MAX_EPOCH_WINDOWS`].
    watts: Vec<f64>,
    /// Whether the row had an event due at each boundary (same layout).
    due: Vec<bool>,
}

impl<P: PowerController> Chunk<P> {
    fn new(rows: Vec<RowEngine<P>>) -> Self {
        let ticks = rows.len() * MAX_EPOCH_WINDOWS;
        Chunk {
            rows,
            bounds: Vec::with_capacity(MAX_EPOCH_WINDOWS),
            watts: vec![0.0; ticks],
            due: vec![false; ticks],
        }
    }

    /// Steps every row through the epoch's boundaries, stepping a row
    /// only where it has an event due, and records its power and due
    /// flag at each boundary.
    fn step_epoch(&mut self) {
        for (r, row) in self.rows.iter_mut().enumerate() {
            for (j, &boundary) in self.bounds.iter().enumerate() {
                let due = row.next_event_time().is_some_and(|at| at <= boundary);
                if due {
                    row.step_until(boundary);
                }
                self.watts[r * MAX_EPOCH_WINDOWS + j] = row.row_power_watts();
                self.due[r * MAX_EPOCH_WINDOWS + j] = due;
            }
        }
    }
}

/// A panic caught on a stepping thread, waiting to be resumed on the
/// caller's thread.
type PanicSlot = Mutex<Option<Box<dyn Any + Send>>>;

/// Steps `chunk` through its epoch. A panic is caught and parked in
/// `panicked`, so this thread still reaches the epoch's barrier (a
/// thread that died before it would leave the others waiting forever).
fn step_chunk<P: PowerController>(chunk: &Mutex<Chunk<P>>, panicked: &PanicSlot) {
    let stepped = panic::catch_unwind(AssertUnwindSafe(|| {
        chunk.lock().expect("row chunk poisoned").step_epoch();
    }));
    if let Err(payload) = stepped {
        panicked
            .lock()
            .expect("panic slot poisoned")
            .get_or_insert(payload);
    }
}

/// Locks every chunk, in order. Only the main thread does, between
/// epochs, so the locks are never contended.
fn lock_all<P>(chunks: &[Mutex<Chunk<P>>]) -> Vec<MutexGuard<'_, Chunk<P>>> {
    chunks
        .iter()
        .map(|c| c.lock().expect("row chunk poisoned"))
        .collect()
}

/// Global row `row` among contiguous chunks.
fn row_mut<'c, P>(
    chunks: &'c mut [MutexGuard<'_, Chunk<P>>],
    mut row: usize,
) -> &'c mut RowEngine<P> {
    for chunk in chunks {
        if row < chunk.rows.len() {
            return &mut chunk.rows[row];
        }
        row -= chunk.rows.len();
    }
    panic!("row index out of range")
}

/// Releases the workers waiting at the epoch-start barrier when the
/// main thread leaves the epoch loop, at the horizon or by unwinding,
/// so the thread scope can join them.
struct ReleaseWorkers<'a> {
    done: &'a AtomicBool,
    barrier: &'a Barrier,
}

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        self.barrier.wait();
    }
}

/// N datacenters of M row engines under the site power hierarchy,
/// stepped in epochs by a fixed set of threads.
///
/// See the [module docs](self) for the epoch protocol and the
/// determinism contract. Controller construction is a factory so every
/// row gets an independent policy instance (policies carry mutable
/// per-row state).
pub struct SiteSim<P> {
    rows: Vec<RowEngine<P>>,
    dispatch: Dispatcher,
    row_recorders: Vec<Recorder>,
    monitor: SiteMonitor,
    window: SimTime,
    horizon: SimTime,
    threads: usize,
    /// Most windows one epoch may span: [`MAX_EPOCH_WINDOWS`], or 1
    /// for the lockstep reference in this module's tests.
    max_epoch_windows: usize,
}

impl<P: PowerController> SiteSim<P> {
    /// Builds a site of `site.datacenters × site.rows_per_datacenter`
    /// copies of `row`, each driven by its round-robin share of
    /// `source` (request `k` goes to row `k % n`) and controlled by its
    /// own `make_controller(global_row_index, row_recorder)` instance,
    /// up to `horizon`. The site owns `source` and reads it lazily, one
    /// epoch ahead of the rows, so its memory follows the epoch and
    /// not the horizon.
    ///
    /// # Panics
    ///
    /// Panics if any shape count is zero or the base telemetry
    /// interval is not positive. The site panics, here or while it
    /// runs, if `source` yields requests out of order.
    pub fn new<S: RequestSource + 'static>(
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
        let window = SimTime::from_secs(site.base.telemetry_interval_s);
        // Each row queues its first arrival as it is built, so the
        // first epoch's arrivals are dealt before any row exists.
        let mut dispatch = Dispatcher::new(Box::new(source), n);
        let mut feeds: Vec<RowFeed> = (0..n).map(|_| RowFeed::default()).collect();
        dispatch.fill(
            epoch_reach(SimTime::ZERO, window, horizon, MAX_EPOCH_WINDOWS),
            &mut feeds.iter_mut().collect::<Vec<_>>(),
        );
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
            dispatch,
            row_recorders,
            monitor: SiteMonitor::new(
                site.base.recorder,
                hierarchy,
                site.enforce_budgets,
                site_active,
            ),
            window,
            horizon,
            threads: site.threads,
            max_epoch_windows: MAX_EPOCH_WINDOWS,
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
    /// telemetry-window boundary, and returns the site report. The
    /// site recorder then also holds each row's energy account and
    /// profile, folded in row order: its energy ledger covers the
    /// whole site, and its profile the whole run.
    pub fn run(mut self) -> SiteReport {
        self.run_epochs();
        self.into_report()
    }

    fn into_report(self) -> SiteReport {
        let SiteMonitor {
            obs,
            hierarchy: h,
            levels: [pdus, dcs, site],
            brakes,
            ..
        } = self.monitor;
        let rows = self.rows.into_iter().map(RowSim::finish).collect();
        for rec in &self.row_recorders {
            obs.absorb_energy(rec);
            obs.prof().merge_from(rec.prof());
        }
        let peaks = |level: &Level| level.units.iter().map(|u| u.peak).collect();
        SiteReport {
            datacenters: h.n_datacenters(),
            rows_per_datacenter: h.rows_per_datacenter(),
            pdu_budget_watts: pdus.units.iter().map(|u| u.budget).collect(),
            datacenter_budget_watts: h.datacenter_budget_watts(),
            site_budget_watts: h.site_budget_watts(),
            rows,
            row_recorders: self.row_recorders,
            pdu_peak_watts: peaks(&pdus),
            datacenter_peak_watts: peaks(&dcs),
            site_peak_watts: site.units[0].peak,
            pdu_violation_samples: pdus.violations,
            datacenter_violation_samples: dcs.violations,
            site_violation_samples: site.violations,
            fleet_brake_engagements: brakes,
            duration: self.horizon,
        }
    }

    /// The epoch loop: plan, step, replay, until the horizon. Spawns
    /// `threads - 1` workers once for the whole run; each epoch costs
    /// every thread two barrier waits. Returns how many epochs spanned
    /// one window and how many spanned more.
    fn run_epochs(&mut self) -> (usize, usize) {
        let n = self.rows.len();
        let threads = self.threads.clamp(1, n);
        let mut rows = std::mem::take(&mut self.rows).into_iter();
        let chunks: Vec<Mutex<Chunk<P>>> = (0..threads)
            .map(|c| {
                let len = (c + 1) * n / threads - c * n / threads;
                Mutex::new(Chunk::new(rows.by_ref().take(len).collect()))
            })
            .collect();
        let (own, workers) = chunks.split_last().expect("a site has at least one row");
        let barrier = Barrier::new(threads);
        let done = AtomicBool::new(false);
        let panicked: PanicSlot = Mutex::new(None);
        let mut bounds = Vec::with_capacity(MAX_EPOCH_WINDOWS);
        let mut row_watts = vec![0.0; n];
        let mut row_ceilings = Vec::with_capacity(n);
        let mut epochs = (0, 0);
        std::thread::scope(|s| {
            for chunk in workers {
                let (barrier, done, panicked) = (&barrier, &done, &panicked);
                s.spawn(move || loop {
                    barrier.wait();
                    // Acquire pairs with the Release store that
                    // `ReleaseWorkers` makes before the same barrier.
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    step_chunk(chunk, panicked);
                    barrier.wait();
                });
            }
            let _release = ReleaseWorkers {
                done: &done,
                barrier: &barrier,
            };
            let mut t = SimTime::ZERO;
            loop {
                {
                    let mut guards = lock_all(&chunks);
                    self.fill_feeds(&mut guards, t);
                    let rows = guards.iter().flat_map(|g| &g.rows);
                    self.plan_epoch(rows, t, &mut bounds, &mut row_ceilings);
                    for g in &mut guards {
                        g.bounds.clone_from(&bounds);
                    }
                }
                barrier.wait();
                step_chunk(own, &panicked);
                barrier.wait();
                let payload = panicked.lock().expect("panic slot poisoned").take();
                if let Some(payload) = payload {
                    panic::resume_unwind(payload);
                }
                self.replay_epoch(&mut lock_all(&chunks), &bounds, &mut row_watts);
                if bounds.len() == 1 {
                    epochs.0 += 1;
                } else {
                    epochs.1 += 1;
                }
                t = *bounds.last().expect("an epoch spans a window");
                if t >= self.horizon {
                    break;
                }
            }
        });
        self.rows = chunks
            .into_iter()
            .flat_map(|c| c.into_inner().expect("row chunk poisoned").rows)
            .collect();
        epochs
    }

    /// Deals the rows every arrival the epoch from `t` can reach, plus
    /// one each.
    fn fill_feeds(&mut self, chunks: &mut [MutexGuard<'_, Chunk<P>>], t: SimTime) {
        let reach = epoch_reach(t, self.window, self.horizon, self.max_epoch_windows);
        let mut feeds: Vec<&mut RowFeed> = chunks
            .iter_mut()
            .flat_map(|c| c.rows.iter_mut())
            .map(RowSim::source_mut)
            .collect();
        self.dispatch.fill(reach, &mut feeds);
    }

    /// Fills `bounds` with the next epoch's boundaries after `t`, each
    /// `(previous + window).min(horizon)`: up to `max_epoch_windows` of
    /// them, ending at the horizon or at the first boundary where the
    /// rows' ceilings no longer prove that every brake stays as it is.
    fn plan_epoch<'r>(
        &mut self,
        rows: impl Iterator<Item = &'r RowEngine<P>>,
        t: SimTime,
        bounds: &mut Vec<SimTime>,
        row_ceilings: &mut Vec<f64>,
    ) where
        P: 'r,
    {
        // Brakes toggle only under enforcement, and a held one may
        // release at any boundary.
        let enforced = self.monitor.enforce;
        let lockstep = enforced && self.monitor.braking();
        let mut ceilings: Vec<PowerCeiling<'r>> = Vec::new();
        if enforced && !lockstep {
            ceilings.extend(rows.map(PowerCeiling::new));
        }
        bounds.clear();
        let mut boundary = t;
        loop {
            boundary = (boundary + self.window).min(self.horizon);
            bounds.push(boundary);
            if lockstep || boundary >= self.horizon || bounds.len() >= self.max_epoch_windows {
                return;
            }
            if !enforced {
                continue;
            }
            // The epoch may run past `boundary` only if no brake can
            // toggle there.
            row_ceilings.clear();
            row_ceilings.extend(ceilings.iter_mut().map(|c| c.at(boundary)));
            if !self.monitor.within_budgets(row_ceilings) {
                return;
            }
        }
    }

    /// Observes every boundary of the epoch just stepped, in order,
    /// from the samples the chunks recorded, then injects the last
    /// boundary's brake toggles.
    ///
    /// # Panics
    ///
    /// Panics if a boundary before the last toggles a brake: the
    /// ceiling that admitted the epoch was wrong, and the run would
    /// silently diverge from lockstep.
    fn replay_epoch(
        &mut self,
        chunks: &mut [MutexGuard<'_, Chunk<P>>],
        bounds: &[SimTime],
        row_watts: &mut [f64],
    ) {
        for (j, &boundary) in bounds.iter().enumerate() {
            let mut stepped = 0;
            {
                let _m = self.monitor.obs.prof().time(Phase::FleetMerge);
                let samples = chunks.iter().flat_map(|c| {
                    (0..c.rows.len()).map(move |r| {
                        let k = r * MAX_EPOCH_WINDOWS + j;
                        (c.watts[k], c.due[k])
                    })
                });
                for (slot, (watts, due)) in row_watts.iter_mut().zip(samples) {
                    *slot = watts;
                    stepped += usize::from(due);
                }
            }
            let toggles = self.monitor.observe(boundary, row_watts, stepped);
            if j + 1 < bounds.len() {
                assert!(
                    toggles.is_empty(),
                    "site lookahead: a brake toggled at t = {} s, inside an epoch",
                    boundary.as_secs()
                );
                continue;
            }
            for &(row, on) in toggles {
                row_mut(chunks, row).inject(boundary, brake_request(on));
            }
        }
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
    fn a_refilled_feed_drops_what_its_row_drew() {
        let reqs = mixed_requests(4);
        let mut feed = RowFeed::default();
        feed.push(reqs[0]);
        feed.push(reqs[1]);
        assert_eq!(feed.next(), Some(reqs[0]));
        assert_eq!(feed.pending(), &reqs[1..2]);
        feed.push(reqs[2]);
        assert_eq!(feed.requests, reqs[1..3]);
        feed.closed = true;
        assert_eq!(feed.by_ref().count(), 2);
        assert_eq!(feed.next(), None);
    }

    #[test]
    #[should_panic(expected = "a row drew past its feed")]
    fn an_open_feed_that_runs_dry_panics() {
        RowFeed::default().next();
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
        // One PDU feeds both rows of the datacenter: 2000 W PDU budget
        // (release below 1900 W), 1800 W datacenter budget (1710 W).
        let h = SiteHierarchy::uniform(1, 2, 2, 1000.0).with_datacenter_budget(1800.0);
        let mut m = SiteMonitor::new(Recorder::new(ObsLevel::Off), h, true, false);
        let mut observe = |watts: f64| m.observe(t(2.0), &[watts / 2.0; 2], 2).to_vec();
        // Both the PDU and the datacenter engage on the same sample.
        assert_eq!(observe(2500.0), vec![(0, true), (1, true)]);
        // The PDU releases but the datacenter still holds: no toggle.
        assert!(observe(1800.0).is_empty());
        // Only once the datacenter also releases do the rows unbrake.
        assert_eq!(observe(1600.0), vec![(0, false), (1, false)]);
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

    /// Brakes its own row while the delayed reading is above `high`
    /// watts and releases it below `low`: row-level control traffic
    /// for the lookahead tests to carry through epochs.
    struct Hysteresis {
        high: f64,
        low: f64,
        braked: bool,
    }

    impl PowerController for Hysteresis {
        fn on_telemetry(
            &mut self,
            _now: SimTime,
            observed: Option<f64>,
            _ctx: &crate::sim::RowContext,
        ) -> Vec<ControlRequest> {
            let Some(watts) = observed else {
                return Vec::new();
            };
            let flip = if self.braked {
                watts < self.low
            } else {
                watts > self.high
            };
            if !flip {
                return Vec::new();
            }
            self.braked = !self.braked;
            vec![brake_request(self.braked)]
        }
    }

    /// A seeded Poisson stream of mixed requests at `rate` per second
    /// up to `until` seconds.
    fn poisson_requests(seed: u64, rate: f64, until: f64) -> Vec<Request> {
        let mut rng = polca_sim::SimRng::from_seed_stream(seed, 0);
        let mut requests = Vec::new();
        let mut at = rng.exponential(rate);
        while at < until {
            let priority = if rng.chance(0.5) {
                Priority::Low
            } else {
                Priority::High
            };
            let input = rng.uniform_u64(256, 4096) as u32;
            let output = rng.uniform_u64(16, 512) as u32;
            requests.push(Request::new(
                requests.len() as u64,
                t(at),
                input,
                output,
                priority,
            ));
            at += rng.exponential(rate);
        }
        requests
    }

    /// Everything a site run leaves behind that the epoch length must
    /// not change.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        site_events: String,
        site_prom: String,
        row_events: Vec<String>,
        row_requests: Vec<String>,
        pdu_peaks: Vec<f64>,
        dc_peaks: Vec<f64>,
        site_peak: f64,
        violations: (u64, u64, u64),
        brakes: u64,
    }

    /// Runs `cfg` at `seed` to `horizon` with epochs of at most
    /// `max_windows`, returning the outcome and how many epochs spanned
    /// one window and how many spanned more.
    fn run_capped(
        cfg: &SiteConfig,
        seed: u64,
        horizon: f64,
        max_windows: usize,
    ) -> (Outcome, (usize, usize)) {
        let mut cfg = cfg.clone();
        cfg.base.seed = seed;
        cfg.base.recorder =
            Recorder::new(ObsLevel::Full).with_req_trace(polca_obs::ReqTraceConfig { sample: 1 });
        let obs = cfg.base.recorder.clone();
        let p = small_row().provisioned_watts();
        let mut sim = SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| Hysteresis {
                high: 0.7 * p,
                low: 0.62 * p,
                braked: false,
            },
            poisson_requests(seed, 0.2, horizon).into_iter(),
            t(horizon),
        );
        sim.max_epoch_windows = max_windows;
        let epochs = sim.run_epochs();
        let report = sim.into_report();
        let outcome = Outcome {
            site_events: obs.artifacts().events_jsonl(),
            site_prom: obs.artifacts().metrics_prometheus(),
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
            pdu_peaks: report.pdu_peak_watts,
            dc_peaks: report.datacenter_peak_watts,
            site_peak: report.site_peak_watts,
            violations: (
                report.pdu_violation_samples,
                report.datacenter_violation_samples,
                report.site_violation_samples,
            ),
            brakes: report.fleet_brake_engagements,
        };
        (outcome, epochs)
    }

    /// The lookahead scenarios on a 2 × 2 site at `threads`: budgets
    /// tight enough that site brakes engage and release over and over,
    /// budgets just above typical load (lookahead between occasional
    /// brakes), and the tight budgets monitored only.
    fn lookahead_scenarios(threads: usize) -> [(&'static str, SiteConfig); 3] {
        let p = small_row().provisioned_watts();
        let mut tight = site_config(2, 2, threads);
        tight.enforce_budgets = true;
        tight.pdu_budget_watts = Some(1.25 * p);
        tight.datacenter_budget_watts = Some(1.3 * p);
        tight.site_budget_watts = Some(2.5 * p);
        let mut edge = tight.clone();
        edge.pdu_budget_watts = Some(1.4 * p);
        edge.datacenter_budget_watts = Some(1.35 * p);
        edge.site_budget_watts = Some(2.68 * p);
        let mut monitor = tight.clone();
        monitor.enforce_budgets = false;
        [("tight", tight), ("edge", edge), ("monitor", monitor)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Epochs are invisible: every artifact and report figure of a
        /// site matches a run of the same site held to K = 1 (the
        /// lockstep protocol), at 1, 2 and 4 threads.
        #[test]
        fn lookahead_matches_the_lockstep_reference(
            seed in 0u64..10_000,
            // Almost never a multiple of the 2 s window.
            horizon in 900.0f64..1300.0,
        ) {
            for threads in [1, 2, 4] {
                for (name, cfg) in lookahead_scenarios(threads) {
                    let (lockstep, lockstep_epochs) = run_capped(&cfg, seed, horizon, 1);
                    let (lookahead, (single, multi)) =
                        run_capped(&cfg, seed, horizon, MAX_EPOCH_WINDOWS);
                    proptest::prop_assert_eq!(lockstep_epochs.1, 0);
                    proptest::prop_assert!(
                        lookahead == lockstep,
                        "{} site at {} threads diverged from lockstep", name, threads
                    );
                    match name {
                        "tight" => proptest::prop_assert!(
                            lookahead.brakes >= 2,
                            "tight budgets must engage, release and re-engage: {}",
                            lookahead.brakes
                        ),
                        "edge" => proptest::prop_assert!(
                            single > 0 && multi > 0,
                            "edge budgets must take both epoch kinds: {} single, {} multi",
                            single,
                            multi
                        ),
                        _ => proptest::prop_assert!(
                            single <= 1,
                            "a monitor-only site runs 64-window epochs: {} single",
                            single
                        ),
                    }
                }
            }
        }
    }

    /// Panics in row 1's telemetry handler once the clock passes 10 s.
    struct FailsInRowOne {
        row: usize,
    }

    impl PowerController for FailsInRowOne {
        fn on_telemetry(
            &mut self,
            now: SimTime,
            _observed: Option<f64>,
            _ctx: &crate::sim::RowContext,
        ) -> Vec<ControlRequest> {
            assert!(self.row != 1 || now < t(10.0), "row 1 controller failed");
            Vec::new()
        }
    }

    /// A 4-row site whose row 1 controller panics mid-run. Row 1 lands
    /// on a worker thread at 2 and at 4 threads (the calling thread
    /// steps the last chunk).
    fn run_failing_site(threads: usize) {
        let cfg = SiteConfig {
            rows_per_datacenter: 4,
            rows_per_pdu: 2,
            threads,
            ..SiteConfig::default()
        };
        SiteSim::new(
            small_row(),
            cfg,
            |row, _: &Recorder| FailsInRowOne { row },
            mixed_requests(50).into_iter(),
            t(100.0),
        )
        .run();
    }

    #[test]
    #[should_panic(expected = "row 1 controller failed")]
    fn worker_panic_reaches_the_caller_at_two_threads() {
        run_failing_site(2);
    }

    #[test]
    #[should_panic(expected = "row 1 controller failed")]
    fn worker_panic_reaches_the_caller_at_four_threads() {
        run_failing_site(4);
    }
}
