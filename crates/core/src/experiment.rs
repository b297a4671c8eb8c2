//! The POLCA oversubscription evaluation driver (§6.4–§6.6).
//!
//! [`OversubscriptionStudy`] reproduces the paper's pipeline end to end:
//!
//! 1. synthesize the production reference power trace (Table 4
//!    statistics),
//! 2. invert it into an arrival-rate schedule (§6.4's synthetic trace,
//!    MAPE ≤ 3 %),
//! 3. replay that trace — scaled up with the added servers — through the
//!    cluster simulator under a policy,
//! 4. normalize per-priority latency quantiles against the un-capped,
//!    un-oversubscribed reference run,
//! 5. check the Table 6 SLOs.
//!
//! [`OversubscriptionStudy::from_requests`] runs the same comparison on
//! a fixed request stream instead — typically `polca-ingest`'s
//! `TraceReplay` of a production CSV — replayed verbatim at every cell.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use polca_cluster::{
    ClusterSim, EngineKind, PowerController, Priority, Request, RowConfig, SimConfig,
};
use polca_obs::{Event, Phase, ProfCounter, Recorder};
use polca_sim::SimTime;
use polca_stats::{Quantiles, TimeSeries};
use polca_telemetry::RowPowerTaps;
use polca_trace::replicate::{production_reference, ProductionReplicator};
use polca_trace::{ArrivalGenerator, RateSchedule, TraceConfig, WorkloadClass};

use crate::controller::{NoCapController, PolcaController, SingleThresholdController};
use crate::policy::PolcaPolicy;
use crate::slo::{SloReport, SloTargets};
use crate::thresholds::ThresholdTrainer;

/// The four policies compared in Figures 17 and 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// The dual-threshold POLCA policy.
    Polca,
    /// `1-Thresh-Low-Pri`: single threshold, low priority capped hard.
    OneThreshLowPri,
    /// `1-Thresh-All`: single threshold, everyone capped hard.
    OneThreshAll,
    /// `No-cap`: nothing but the involuntary UPS brake.
    NoCap,
}

impl PolicyKind {
    /// All policies in figure order.
    pub const fn all() -> [PolicyKind; 4] {
        [
            PolicyKind::Polca,
            PolicyKind::OneThreshLowPri,
            PolicyKind::OneThreshAll,
            PolicyKind::NoCap,
        ]
    }

    /// The label used in the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::Polca => "POLCA",
            PolicyKind::OneThreshLowPri => "1-Thresh-Low-Pri",
            PolicyKind::OneThreshAll => "1-Thresh-All",
            PolicyKind::NoCap => "No-cap",
        }
    }

    /// A fresh controller instance for this policy with `policy`'s
    /// parameters, recording its transitions into `obs`. Single-row
    /// runs, sweep cells, trace replays and every row of a site all
    /// build their controllers here.
    pub fn controller(self, policy: &PolcaPolicy, obs: &Recorder) -> Box<dyn PowerController> {
        let policy = policy.clone();
        let obs = obs.clone();
        match self {
            PolicyKind::Polca => Box::new(PolcaController::new(policy).with_recorder(obs)),
            PolicyKind::OneThreshLowPri => {
                Box::new(SingleThresholdController::low_priority_only(policy).with_recorder(obs))
            }
            PolicyKind::OneThreshAll => {
                Box::new(SingleThresholdController::all_workloads(policy).with_recorder(obs))
            }
            PolicyKind::NoCap => Box::new(NoCapController::new(policy).with_recorder(obs)),
        }
    }
}

/// Everything one policy run produces.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PolicyOutcome {
    /// The policy that ran.
    pub kind: PolicyKind,
    /// Added-server fraction (0.30 = +30 %).
    pub added_fraction: f64,
    /// Workload power multiplier (1.05 = the "+5 %" drift experiment).
    pub power_scale: f64,
    /// Low-priority latency quantiles normalized to the reference run.
    pub low_normalized: Quantiles,
    /// High-priority latency quantiles normalized to the reference run.
    pub high_normalized: Quantiles,
    /// Raw low-priority latency quantiles in seconds.
    pub low_raw: Quantiles,
    /// Raw high-priority latency quantiles in seconds.
    pub high_raw: Quantiles,
    /// Power-brake events during the run.
    pub brake_engagements: u64,
    /// Low-priority goodput normalized to the reference run.
    pub low_throughput_norm: f64,
    /// High-priority goodput normalized to the reference run.
    pub high_throughput_norm: f64,
    /// Peak row power over provisioned power.
    pub peak_utilization: f64,
    /// Mean row power over provisioned power.
    pub mean_utilization: f64,
    /// Row power at the 2 s telemetry cadence (empty if disabled).
    pub row_power: TimeSeries,
    /// Table 6 SLO evaluation.
    pub slo: SloReport,
    /// Requests offered / completed / rejected.
    pub counts: (u64, u64, u64),
    /// OOB control commands issued (capping churn; the hysteresis
    /// ablation tracks this).
    pub commands_issued: u64,
}

/// Drain time appended after a fixed stream's last arrival so
/// in-flight requests finish inside the simulation horizon.
const DRAIN_S: f64 = 1800.0;

/// A cached reference (un-capped) run.
#[derive(Debug, Clone)]
struct Reference {
    low: Quantiles,
    high: Quantiles,
    low_goodput: f64,
    high_goodput: f64,
}

/// Where a study's arrivals come from.
#[derive(Debug, Clone)]
enum Arrivals {
    /// Synthesized from the production profile, one stream per
    /// oversubscription level.
    Synthesized {
        base_schedule: RateSchedule,
        /// Synthesized arrival traces keyed by `added_fraction` bits —
        /// every policy compared at the same oversubscription level
        /// replays the identical stream, so synthesizing it once per
        /// level is both a determinism statement and the dominant
        /// sweep-setup saving. Clones share it: a trace depends only on
        /// the seed, horizon and schedule, which no setter changes.
        cache: Arc<Mutex<HashMap<u64, Arc<Vec<Request>>>>>,
    },
    /// One fixed stream, replayed verbatim at every level.
    Fixed(Arc<Vec<Request>>),
}

/// The end-to-end evaluation pipeline.
///
/// Every `(policy, added_fraction, power_scale)` cell is a *pure* job:
/// [`run_cell`] takes `&self` plus an explicit recorder/tap pair and
/// touches only interior-mutable caches (the reference run and the
/// synthesized arrival traces), so the deterministic sweep runner can
/// execute cells from worker threads while the canonical-order merge
/// keeps artifacts byte-identical to a sequential run.
///
/// [`run_cell`]: OversubscriptionStudy::run_cell
#[derive(Debug, Clone)]
pub struct OversubscriptionStudy {
    row: RowConfig,
    policy: PolcaPolicy,
    days: f64,
    until: SimTime,
    seed: u64,
    slo: SloTargets,
    arrivals: Arrivals,
    record_power: bool,
    engine: EngineKind,
    reference: OnceLock<Reference>,
    recorder: Recorder,
    oob_taps: RowPowerTaps,
}

impl OversubscriptionStudy {
    /// Resolution, in seconds, of the synthesized production profile
    /// that [`new`](Self::new) inverts into the arrival schedule. The
    /// inversion needs two profile samples, so a synthesized study's
    /// horizon must exceed one step.
    pub const PROFILE_STEP_S: f64 = 60.0;

    /// Builds the study: synthesizes the production reference for
    /// `days` days and inverts it into the base arrival schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `days` × 86 400 s exceeds one
    /// [`PROFILE_STEP_S`](Self::PROFILE_STEP_S) profile step, so also
    /// when `days` is not strictly positive.
    pub fn new(row: RowConfig, policy: PolcaPolicy, days: f64, seed: u64) -> Self {
        assert!(
            days * 86_400.0 > Self::PROFILE_STEP_S,
            "study needs a horizon longer than one {} s profile step",
            Self::PROFILE_STEP_S
        );
        let profile = production_reference(&row, days, Self::PROFILE_STEP_S, seed);
        let replicator = ProductionReplicator::new(&row, &WorkloadClass::table6());
        let base_schedule = replicator
            .schedule_from_profile(&profile)
            .expect("synthesized profile is well-formed");
        let arrivals = Arrivals::Synthesized {
            base_schedule,
            cache: Arc::default(),
        };
        Self::with_arrivals(row, policy, days, SimTime::from_days(days), seed, arrivals)
    }

    /// Builds a study that replays `requests` verbatim on `row` as
    /// given, which may already carry added servers. The reference is
    /// that same row, un-capped, on the same stream, and the stream
    /// does not scale with a cell's `added_fraction`: run cells at
    /// `row.added_fraction` to replay on the row as given.
    ///
    /// The horizon is the last arrival plus a 30-minute drain window.
    /// Row-power series are off by default. Unlike a synthesized study,
    /// cells neither synthesize nor cache traces, and SLO misses are
    /// reported in the outcome but not logged as events.
    pub fn from_requests(
        row: RowConfig,
        policy: PolcaPolicy,
        requests: Vec<Request>,
        seed: u64,
    ) -> Self {
        let last_arrival = requests.last().map_or(0.0, |r| r.arrival.as_secs());
        let until = SimTime::from_secs(last_arrival + DRAIN_S);
        let arrivals = Arrivals::Fixed(Arc::new(requests));
        let days = until.as_secs() / 86_400.0;
        let mut study = Self::with_arrivals(row, policy, days, until, seed, arrivals);
        study.record_power = false;
        study
    }

    fn with_arrivals(
        row: RowConfig,
        policy: PolcaPolicy,
        days: f64,
        until: SimTime,
        seed: u64,
        arrivals: Arrivals,
    ) -> Self {
        OversubscriptionStudy {
            row,
            policy,
            days,
            until,
            seed,
            slo: SloTargets::default(),
            arrivals,
            record_power: true,
            engine: EngineKind::Legacy,
            reference: OnceLock::new(),
            recorder: Recorder::disabled(),
            oob_taps: RowPowerTaps::new(),
        }
    }

    /// A small, fast study for demos and doc tests: a 20-server row over
    /// a ~2.4 h trace. (20 servers keep the ±30 % oversubscription steps
    /// evenly divisible between the two priority classes, like the
    /// paper's 40-server row.)
    pub fn quick_demo(seed: u64) -> Self {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 20;
        Self::new(row, PolcaPolicy::default(), 0.1, seed)
    }

    /// The base (non-oversubscribed) arrival-rate schedule.
    ///
    /// # Panics
    ///
    /// Panics on a study built by [`from_requests`](Self::from_requests),
    /// which has no schedule.
    pub fn base_schedule(&self) -> &RateSchedule {
        match &self.arrivals {
            Arrivals::Synthesized { base_schedule, .. } => base_schedule,
            Arrivals::Fixed(_) => panic!("a replayed stream has no arrival schedule"),
        }
    }

    /// The fixed stream a [`from_requests`](Self::from_requests) study
    /// replays, in arrival order; `None` when arrivals are synthesized.
    /// Cloning the handle shares the stream without copying it.
    pub fn requests(&self) -> Option<&Arc<Vec<Request>>> {
        match &self.arrivals {
            Arrivals::Synthesized { .. } => None,
            Arrivals::Fixed(requests) => Some(requests),
        }
    }

    /// The simulation horizon every run ends at.
    pub fn horizon(&self) -> SimTime {
        self.until
    }

    /// The row configuration (base deployment).
    pub fn row(&self) -> &RowConfig {
        &self.row
    }

    /// The policy parameters used for POLCA runs.
    pub fn policy(&self) -> &PolcaPolicy {
        &self.policy
    }

    /// Overrides the policy (threshold sweeps).
    pub fn set_policy(&mut self, policy: PolcaPolicy) {
        self.policy = policy;
    }

    /// Disables row-power recording (large sweeps).
    pub fn set_record_power(&mut self, record: bool) {
        self.record_power = record;
    }

    /// Selects the row serving engine for every subsequent run,
    /// including the cached reference — latencies normalize against an
    /// un-capped reference on the *same* engine, so the comparison
    /// isolates the policy, not the serving model.
    ///
    /// Call before the first run: a reference cached under another
    /// engine is not invalidated.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// The serving engine runs execute on.
    pub fn engine(&self) -> &EngineKind {
        &self.engine
    }

    /// Attaches an observability recorder. Policy runs started after
    /// this call record events, metrics, and profiling spans into it;
    /// the cached reference run stays un-instrumented so the event log
    /// does not depend on whether the reference was already warm.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached recorder (disabled unless [`set_recorder`] was
    /// called).
    ///
    /// [`set_recorder`]: OversubscriptionStudy::set_recorder
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attaches delayed-telemetry subscribers (the online watch plane).
    /// Like the recorder, taps apply to policy runs only — the cached
    /// reference run stays un-instrumented.
    pub fn set_oob_taps(&mut self, taps: RowPowerTaps) {
        self.oob_taps = taps;
    }

    /// The study duration in days (for a replayed stream, its horizon).
    pub fn days(&self) -> f64 {
        self.days
    }

    /// Trains thresholds on the first week (or the whole profile if
    /// shorter), as §6.4 prescribes. The training trace is regenerated
    /// at the 2 s row-telemetry resolution so that 40 s spikes are
    /// visible (the scheduling profile itself is minute-grained).
    pub fn trained_thresholds(&self) -> ThresholdTrainer {
        let _phase = self.recorder.prof().time(Phase::ThresholdTraining);
        let train_days = self.days.min(7.0);
        let fine = production_reference(&self.row, train_days, 2.0, self.seed);
        ThresholdTrainer::from_trace(&fine, self.row.provisioned_watts())
    }

    fn sim_config(&self, power_scale: f64) -> SimConfig {
        SimConfig {
            seed: self.seed,
            power_scale,
            record_power_series: self.record_power,
            engine: self.engine.clone(),
            ..SimConfig::default()
        }
    }

    fn trace(&self, added_fraction: f64) -> TraceConfig {
        TraceConfig {
            seed: self.seed,
            horizon: self.until,
            schedule: self.base_schedule().scaled(1.0 + added_fraction),
            mix: WorkloadClass::table6(),
        }
    }

    fn quantiles_or_unit(samples: &[f64]) -> Quantiles {
        Quantiles::from_samples(samples).unwrap_or(Quantiles {
            p50: 1.0,
            p90: 1.0,
            p99: 1.0,
            max: 1.0,
            min: 1.0,
            mean: 1.0,
            count: 0,
        })
    }

    /// The arrival trace for `added_fraction`. A synthesized trace is
    /// materialized once and shared by every subsequent cell at the
    /// same level. The [`Phase::TraceSynthesis`] phase runs only on cache
    /// misses, so its call count equals the number of *distinct*
    /// oversubscription levels a sweep visits, not the number of cells.
    /// A fixed stream is returned as is, uncounted.
    fn cached_arrivals(&self, added_fraction: f64, obs: &Recorder) -> Arc<Vec<Request>> {
        let cache = match &self.arrivals {
            Arrivals::Synthesized { cache, .. } => cache,
            Arrivals::Fixed(requests) => return Arc::clone(requests),
        };
        let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(trace) = cache.get(&added_fraction.to_bits()) {
            obs.prof().count(ProfCounter::TraceCacheHits, 1);
            return Arc::clone(trace);
        }
        obs.prof().count(ProfCounter::TraceCacheMisses, 1);
        let trace = {
            let _phase = obs.prof().time(Phase::TraceSynthesis);
            Arc::new(ArrivalGenerator::new(&self.trace(added_fraction)).collect::<Vec<Request>>())
        };
        cache.insert(added_fraction.to_bits(), Arc::clone(&trace));
        trace
    }

    /// Runs (and caches) the reference: the study's row with no
    /// policy, on the level-0 arrivals. The run stays un-instrumented so
    /// artifacts never depend on whether the cache was already warm.
    fn reference(&self) -> &Reference {
        self.reference.get_or_init(|| {
            let sim = ClusterSim::new(
                self.row.clone(),
                self.sim_config(1.0),
                polca_cluster::NoopController,
            );
            let arrivals = self.cached_arrivals(0.0, &Recorder::disabled());
            let report = sim.run(arrivals.iter().cloned(), self.until);
            Reference {
                low: Self::quantiles_or_unit(&report.low_latencies_s),
                high: Self::quantiles_or_unit(&report.high_latencies_s),
                low_goodput: report.goodput(Priority::Low),
                high_goodput: report.goodput(Priority::High),
            }
        })
    }

    /// Runs `kind` with `added_fraction` more servers (and a
    /// proportionally scaled workload) at `power_scale` workload power,
    /// recording into the study's attached recorder and taps.
    pub fn run(
        &mut self,
        kind: PolicyKind,
        added_fraction: f64,
        power_scale: f64,
    ) -> PolicyOutcome {
        let obs = self.recorder.clone();
        let taps = self.oob_taps.clone();
        self.run_cell(kind, added_fraction, power_scale, &obs, &taps)
    }

    /// One pure sweep cell: runs `kind` at `added_fraction` /
    /// `power_scale` against the study's cached reference, recording
    /// events and metrics into `obs` and publishing telemetry to
    /// `taps`. Takes `&self` — only the interior-mutable reference and
    /// trace caches are touched — so the sweep runner may call it from
    /// several worker threads at once.
    pub fn run_cell(
        &self,
        kind: PolicyKind,
        added_fraction: f64,
        power_scale: f64,
        obs: &Recorder,
        taps: &RowPowerTaps,
    ) -> PolicyOutcome {
        let reference = self.reference();
        let row = self.row.clone().with_added_servers(added_fraction);
        let provisioned = row.provisioned_watts();
        let mut config = self.sim_config(power_scale);
        config.recorder = obs.clone();
        config.oob_taps = taps.clone();
        let trace = self.cached_arrivals(added_fraction, obs);
        let arrivals = trace.iter().cloned();
        let until = self.until;
        let controller = kind.controller(&self.policy, obs);
        let report = ClusterSim::new(row, config, controller).run(arrivals, until);

        let low_raw = Self::quantiles_or_unit(&report.low_latencies_s);
        let high_raw = Self::quantiles_or_unit(&report.high_latencies_s);
        let low_normalized = low_raw.normalized_to(&reference.low);
        let high_normalized = high_raw.normalized_to(&reference.high);
        let slo = self
            .slo
            .check(&low_normalized, &high_normalized, report.brake_engagements);
        // A replay's reference is its own row un-capped, not Table 6's
        // un-oversubscribed one, so only synthesized studies log misses.
        let logged = match &self.arrivals {
            Arrivals::Synthesized { .. } => &slo.violations[..],
            Arrivals::Fixed(_) => &[],
        };
        for violation in logged {
            obs.record_with(|| Event::SloViolation {
                t: until.as_secs(),
                detail: format!("{}: {violation}", kind.name()),
            });
        }
        PolicyOutcome {
            kind,
            added_fraction,
            power_scale,
            low_normalized,
            high_normalized,
            low_raw,
            high_raw,
            brake_engagements: report.brake_engagements,
            low_throughput_norm: report.goodput(Priority::Low) / reference.low_goodput,
            high_throughput_norm: report.goodput(Priority::High) / reference.high_goodput,
            peak_utilization: report.peak_row_watts / provisioned,
            mean_utilization: report.mean_row_watts / provisioned,
            row_power: report.row_power,
            slo,
            counts: (report.offered, report.completed, report.rejected),
            commands_issued: report.commands_issued,
        }
    }

    /// Executes every `(policy, added_fraction, power_scale)` cell on
    /// `jobs` worker threads and returns the outcomes in cell order.
    ///
    /// Each cell runs against a fresh recorder at the study recorder's
    /// capture level; the per-cell recorders are then absorbed into the
    /// study recorder in canonical cell order, so `events.jsonl` (and
    /// every artifact derived from events and metrics) is byte-for-byte
    /// identical whatever `jobs` is — parallelism changes wall-clock
    /// time, never output.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn sweep(&self, cells: &[(PolicyKind, f64, f64)], jobs: usize) -> Vec<PolicyOutcome> {
        self.sweep_with(cells, jobs, |_, _| self.oob_taps.clone())
    }

    /// [`sweep`](Self::sweep), with `taps(i, obs)` wiring cell `i`'s
    /// telemetry taps given the fresh recorder `obs` it records into —
    /// e.g. one watch plane per cell, attached to both.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn sweep_with(
        &self,
        cells: &[(PolicyKind, f64, f64)],
        jobs: usize,
        taps: impl Fn(usize, &Recorder) -> RowPowerTaps + Sync,
    ) -> Vec<PolicyOutcome> {
        let results = crate::sweep::run_parallel(jobs, cells.len(), |i| {
            let (kind, added_fraction, power_scale) = cells[i];
            let cell_obs = self.recorder.fresh_cell();
            let cell_taps = taps(i, &cell_obs);
            let outcome = self.run_cell(kind, added_fraction, power_scale, &cell_obs, &cell_taps);
            (outcome, cell_obs)
        });
        results
            .into_iter()
            .map(|(outcome, cell_obs)| {
                self.recorder.absorb(&cell_obs);
                outcome
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 base servers so +25 %/+30 % splits evenly between priority
    /// classes (the paper's 40-server row has the same property).
    fn small_row() -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 20;
        row
    }

    fn study() -> OversubscriptionStudy {
        OversubscriptionStudy::new(small_row(), PolcaPolicy::default(), 1.0, 9)
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

    fn replay(requests: Vec<Request>, seed: u64) -> OversubscriptionStudy {
        OversubscriptionStudy::from_requests(small_row(), PolcaPolicy::default(), requests, seed)
    }

    #[test]
    fn nocap_on_reference_stream_normalizes_to_unity() {
        let mut study = replay(burst_requests(400, 2.0), 3);
        let outcome = study.run(PolicyKind::NoCap, 0.0, 1.0);
        assert_eq!(outcome.counts.0, 400);
        assert!((outcome.low_normalized.p99 - 1.0).abs() < 1e-9);
        assert!((outcome.high_normalized.p99 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_policies_run_on_the_same_stream() {
        let mut study = replay(burst_requests(300, 1.5), 3);
        for kind in PolicyKind::all() {
            let outcome = study.run(kind, 0.0, 1.0);
            assert_eq!(outcome.kind, kind);
            assert_eq!(outcome.counts.0, 300);
            assert!(outcome.counts.1 > 0, "{kind:?} completed nothing");
        }
    }

    #[test]
    fn replay_cells_neither_synthesize_nor_log_slo_misses() {
        let mut study = replay(burst_requests(300, 1.5), 3);
        study.set_recorder(Recorder::new(polca_obs::ObsLevel::Full));
        let outcome = study.run(PolicyKind::NoCap, 0.0, 3.0);
        assert!(!outcome.slo.met, "a tripled power draw must brake");
        let run = study.recorder().artifacts();
        assert!(!run
            .events
            .iter()
            .any(|e| matches!(e, Event::SloViolation { .. })));
        assert_eq!(run.prof.get(Phase::TraceSynthesis).calls, 0);
        for counter in [ProfCounter::TraceCacheHits, ProfCounter::TraceCacheMisses] {
            assert_eq!(run.prof.counter(counter), 0);
        }
    }

    #[test]
    fn parallel_policy_panel_matches_sequential_runs() {
        let panel = PolicyKind::all().map(|kind| (kind, 0.0, 1.0));
        let outcomes = replay(burst_requests(300, 1.5), 3).sweep(&panel, 4);
        let mut seq = replay(burst_requests(300, 1.5), 3);
        assert_eq!(outcomes.len(), PolicyKind::all().len());
        for (got, kind) in outcomes.iter().zip(PolicyKind::all()) {
            let want = seq.run(kind, 0.0, 1.0);
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.counts, want.counts);
            assert_eq!(got.commands_issued, want.commands_issued);
            assert_eq!(got.low_normalized.p99, want.low_normalized.p99);
            assert_eq!(got.high_normalized.p99, want.high_normalized.p99);
        }
    }

    #[test]
    fn horizon_covers_the_drain_window() {
        let study = replay(burst_requests(10, 60.0), 1);
        assert!(study.horizon().as_secs() >= 9.0 * 60.0 + 1800.0);
        assert_eq!(study.requests().map(|r| r.len()), Some(10));
    }

    #[test]
    fn reference_run_is_uncapped_and_unit_normalized() {
        let mut s = study();
        let outcome = s.run(PolicyKind::NoCap, 0.0, 1.0);
        assert_eq!(outcome.brake_engagements, 0);
        assert!((outcome.low_normalized.p50 - 1.0).abs() < 1e-9);
        assert!((outcome.high_normalized.p50 - 1.0).abs() < 1e-9);
        assert!(outcome.slo.met, "{:?}", outcome.slo.violations);
        assert!(outcome.peak_utilization < 0.9);
    }

    #[test]
    fn polca_at_thirty_percent_meets_slos_without_brakes() {
        // The headline result (§6.5/§6.6, Table 6).
        let mut s = study();
        let outcome = s.run(PolicyKind::Polca, 0.30, 1.0);
        assert_eq!(outcome.brake_engagements, 0);
        assert!(outcome.slo.met, "violations: {:?}", outcome.slo.violations);
        // High priority is essentially untouched.
        assert!(outcome.high_normalized.p50 < 1.01);
        // Low priority pays a visible but bounded cost.
        assert!(outcome.low_normalized.p99 < 1.5);
        // Throughput loss is minor (< 2 %, Figure 14).
        assert!(outcome.low_throughput_norm > 0.97);
        assert!(outcome.high_throughput_norm > 0.99);
    }

    #[test]
    fn polca_keeps_power_under_the_budget() {
        let mut s = study();
        let outcome = s.run(PolicyKind::Polca, 0.30, 1.0);
        assert!(
            outcome.peak_utilization <= 1.0,
            "peak {:.3}",
            outcome.peak_utilization
        );
        // Oversubscription actually uses the budget harder than baseline.
        let base = s.run(PolicyKind::NoCap, 0.0, 1.0);
        assert!(outcome.mean_utilization > base.mean_utilization);
    }

    #[test]
    fn thresholds_trained_from_the_profile_are_near_the_paper() {
        let s = study();
        let trainer = s.trained_thresholds();
        let t2 = trainer.t2();
        assert!((0.80..=0.95).contains(&t2), "t2 {t2}");
        assert!(trainer.t1() < t2);
    }

    #[test]
    fn threshold_training_is_timed_once_per_call() {
        let mut s = OversubscriptionStudy::quick_demo(4);
        s.set_recorder(Recorder::new(polca_obs::ObsLevel::Full));
        s.trained_thresholds();
        let prof = s.recorder().artifacts().prof;
        assert_eq!(prof.get(Phase::ThresholdTraining).calls, 1);
    }

    #[test]
    fn policy_kinds_enumerate_in_figure_order() {
        let names: Vec<&str> = PolicyKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["POLCA", "1-Thresh-Low-Pri", "1-Thresh-All", "No-cap"]
        );
    }

    #[test]
    fn quick_demo_is_consistent() {
        let mut s = OversubscriptionStudy::quick_demo(3);
        let outcome = s.run(PolicyKind::Polca, 0.30, 1.0);
        assert!(outcome.counts.0 > 0, "demo must offer requests");
    }

    #[test]
    fn trace_synthesis_runs_once_per_oversubscription_level() {
        let mut s = OversubscriptionStudy::quick_demo(5);
        s.set_recorder(polca_obs::Recorder::new(polca_obs::ObsLevel::Full));
        s.run(PolicyKind::Polca, 0.30, 1.0);
        s.run(PolicyKind::NoCap, 0.30, 1.0);
        s.run(PolicyKind::NoCap, 0.30, 1.05);
        // The 0.0 level was already materialized by the (un-instrumented)
        // reference run, so this is a cache hit too.
        s.run(PolicyKind::NoCap, 0.0, 1.0);
        let prof = s.recorder().artifacts().prof;
        let synth = prof.get(Phase::TraceSynthesis);
        assert_eq!(
            synth.calls, 1,
            "one synthesis for four runs at two levels (0.30 cached, 0.0 warmed by the reference)"
        );
    }

    #[test]
    fn cached_trace_reproduces_the_lazy_generator_byte_for_byte() {
        let s = OversubscriptionStudy::quick_demo(6);
        let cached = s.cached_arrivals(0.25, &Recorder::disabled());
        let lazy: Vec<Request> = ArrivalGenerator::new(&s.trace(0.25)).collect();
        assert!(!cached.is_empty());
        assert_eq!(*cached, lazy);
    }

    #[test]
    fn sweep_outcomes_match_individual_runs_in_cell_order() {
        let cells = [
            (PolicyKind::Polca, 0.30, 1.0),
            (PolicyKind::NoCap, 0.30, 1.0),
            (PolicyKind::NoCap, 0.0, 1.0),
        ];
        let s = OversubscriptionStudy::quick_demo(7);
        let swept = s.sweep(&cells, 2);
        let mut seq = OversubscriptionStudy::quick_demo(7);
        for (got, &(kind, added, scale)) in swept.iter().zip(&cells) {
            let want = seq.run(kind, added, scale);
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.counts, want.counts);
            assert_eq!(got.brake_engagements, want.brake_engagements);
            assert_eq!(got.low_normalized.p99, want.low_normalized.p99);
            assert_eq!(got.peak_utilization, want.peak_utilization);
            assert_eq!(got.row_power.values(), want.row_power.values());
        }
    }

    #[test]
    fn parallel_sweep_artifacts_are_byte_identical_to_single_job() {
        let cells = [
            (PolicyKind::Polca, 0.30, 1.0),
            (PolicyKind::OneThreshAll, 0.30, 1.0),
            (PolicyKind::NoCap, 0.30, 1.0),
            (PolicyKind::NoCap, 0.0, 1.0),
        ];
        let run = |jobs: usize| {
            let mut s = OversubscriptionStudy::quick_demo(8);
            s.set_recorder(polca_obs::Recorder::new(polca_obs::ObsLevel::Events));
            s.sweep(&cells, jobs);
            s.recorder().artifacts()
        };
        let (one, four) = (run(1), run(4));
        assert!(!one.events.is_empty());
        assert_eq!(one.events_jsonl(), four.events_jsonl());
        assert_eq!(one.metrics_json(), four.metrics_json());
        assert_eq!(one.chrome_trace_json(), four.chrome_trace_json());
    }
}
