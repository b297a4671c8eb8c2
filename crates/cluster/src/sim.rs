//! The discrete-event inference-cluster simulator (§6.4).
//!
//! The simulator drives a row of inference servers through a request
//! trace: the row manager samples aggregate power every 2 s with a 2 s
//! propagation delay, and a pluggable [`PowerController`] observes the
//! (stale) telemetry and issues control requests that travel the slow
//! OOB plane before landing on devices. Everything is deterministic
//! under a fixed seed, so competing policies can be compared on
//! identical request streams.
//!
//! Two serving engines can carry the traffic, selected via
//! [`EngineKind`]:
//!
//! * **Legacy** (default) — the paper's §6.6 whole-request model:
//!   arrivals are dispatched to idle servers (or a one-request
//!   buffer) and progress through prompt and token phases,
//! * **Batched** — the `polca-serve` continuous-batching engine:
//!   iteration-level scheduling over a paged KV-cache, chunked
//!   prefill, and optionally disaggregated prefill/decode pools.
//!
//! Each engine is a row type — the legacy `LegacyRow` in
//! [`crate::server`], `polca_serve::BatchedRow` — answering with one
//! set of method names. Every operation of either row appends its
//! wakes, completions and preemptions to the run's one outcome buffer
//! (`polca_serve::ServeOutcome`), and each row keeps its power sums in
//! one `polca_serve::RowWatts`. So the simulator keeps one path per
//! event whichever carries the traffic: one arrival path, one
//! per-server wake, one control-delivery path, one energy tick, and
//! one fold that drains the buffer after each operation. Both engines
//! sit below the same telemetry, OOB control, power accounting, and
//! observability planes, so every controller and downstream consumer
//! works unchanged on either.
//!
//! A row's pending events wait in its agenda (`crate::agenda`), one
//! lane per event source: the next arrival, the next telemetry tick,
//! OOB deliveries, KV transfers and server wakes. It pops them in
//! time order, ties in scheduling order, exactly as one heap over all
//! of them would, and keeps every event the simulator schedules.

use polca_gpu::HOT_IDLE_INTENSITY;
use polca_llm::InferenceModel;
use polca_obs::{EnergyAccum, Event, Label, Phase, Recorder, ReqSpan};
use polca_serve::{
    AdmissionKind, BatchedRow, BatchedRowParams, Completion, RowWatts, ServeConfig, ServeOutcome,
    ServeRequest,
};
use polca_sim::SimTime;
use polca_stats::TimeSeries;
use polca_telemetry::{ControlAction, DelayedSignal, OobControlPlane, RowPowerTaps};

use crate::agenda::{Agenda, Ev};
use crate::request::{Priority, Request};
use crate::row::RowConfig;
use crate::server::{InferenceServer, LegacyRow};

/// Who a control request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlTarget {
    /// Every server in the row.
    All,
    /// Every server hosting the given priority class.
    Priority(Priority),
    /// One specific server.
    Server(usize),
}

/// A control decision emitted by a [`PowerController`] or a site's
/// budget enforcer. A policy may ask two things of a row, and these
/// constructors build them: lock (or unlock) a target's GPU clocks, or
/// engage (or release) the power brake on every server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlRequest {
    /// Which servers to touch.
    pub target: ControlTarget,
    /// What to do to them.
    pub action: ControlAction,
}

impl ControlRequest {
    /// Locks `target`'s GPU clocks at `mhz`, or lifts the lock when
    /// `mhz` is `None`.
    pub const fn clock(target: ControlTarget, mhz: Option<f64>) -> Self {
        let action = match mhz {
            Some(mhz) => ControlAction::LockClock { mhz },
            None => ControlAction::UnlockClock,
        };
        ControlRequest { target, action }
    }

    /// Engages (`on`) or releases the power brake on every server.
    pub const fn brake(on: bool) -> Self {
        ControlRequest {
            target: ControlTarget::All,
            action: ControlAction::PowerBrake { on },
        }
    }
}

/// Read-only facts a controller may use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowContext {
    /// The row's provisioned power budget in watts.
    pub provisioned_watts: f64,
    /// Servers in the row.
    pub n_servers: usize,
}

/// A time-ordered stream of requests feeding the simulator.
///
/// The simulator is source-agnostic: the synthetic
/// `polca_trace::ArrivalGenerator`, plain request vectors, and
/// `polca-ingest`'s verbatim replay of an externally captured trace all
/// drive a [`RowSim`] through this trait. Every iterator of
/// [`Request`]s is a source via the blanket impl, so generators stay
/// lazy and replays can stream from disk.
pub trait RequestSource {
    /// The next request in arrival order, or `None` when the source is
    /// exhausted. Requests must be yielded with non-decreasing
    /// `arrival` timestamps.
    fn next_request(&mut self) -> Option<Request>;
}

impl<I: Iterator<Item = Request>> RequestSource for I {
    fn next_request(&mut self) -> Option<Request> {
        self.next()
    }
}

/// A cluster-level power-management policy.
///
/// The simulator invokes the controller at every row-telemetry tick
/// (2 s) with the *delayed* power observation — `None` until the first
/// reading propagates. POLCA and the baseline policies implement this in
/// the `polca` crate.
///
/// Controllers must be [`Send`]: a multi-datacenter
/// [`SiteSim`](crate::site::SiteSim) steps its rows on a scoped thread
/// pool, carrying each row's controller to the worker whose chunk of
/// rows holds it.
/// Controllers are plain decision state (no shared interior
/// mutability), so this is not a restriction in practice.
pub trait PowerController: Send {
    /// Reacts to a telemetry tick, returning control requests to issue
    /// on the OOB plane.
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest>;
}

impl<P: PowerController + ?Sized> PowerController for Box<P> {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        (**self).on_telemetry(now, observed_row_watts, ctx)
    }
}

/// The do-nothing controller (the paper's `No-cap` baseline, §6.6 —
/// "lacks power brake protection").
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopController;

impl PowerController for NoopController {
    fn on_telemetry(
        &mut self,
        _now: SimTime,
        _observed: Option<f64>,
        _ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        Vec::new()
    }
}

/// Which serving engine drives the row.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum EngineKind {
    /// The legacy §6.6 whole-request model: one request in service per
    /// server plus a small buffer. The default; every historical result
    /// reproduces bit-identically on it.
    #[default]
    Legacy,
    /// The `polca-serve` continuous-batching engine: iteration-level
    /// scheduling, paged KV-cache, and optional prefill/decode pools.
    Batched(ServeConfig),
}

/// Simulator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Experiment seed (shared by the OOB plane's latency draws).
    pub seed: u64,
    /// Row telemetry interval in seconds (Table 1: 2 s).
    pub telemetry_interval_s: f64,
    /// Row telemetry propagation delay in seconds (Table 2: 2 s).
    pub telemetry_delay_s: f64,
    /// Probability an OOB capping command silently fails (§3.3).
    pub oob_failure_rate: f64,
    /// Multiplier on all server power (the "+5 %" drift experiment).
    pub power_scale: f64,
    /// Whether to record the row power timeseries (large runs may skip
    /// it to save memory).
    pub record_power_series: bool,
    /// Observability sink for the run (disabled by default; equality on
    /// this field compares the capture *level*, not accumulated data).
    pub recorder: Recorder,
    /// Passive subscribers to the delayed row-power stream (empty by
    /// default; equality compares the subscriber count, not identity).
    /// Subscribers see exactly what the controller sees — the stale
    /// [`DelayedSignal`] read — plus a ground-truth feed reserved for
    /// detection-lag annotation.
    pub oob_taps: RowPowerTaps,
    /// Which serving engine drives the row.
    pub engine: EngineKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            telemetry_interval_s: 2.0,
            telemetry_delay_s: 2.0,
            oob_failure_rate: 0.0,
            power_scale: 1.0,
            record_power_series: true,
            recorder: Recorder::disabled(),
            oob_taps: RowPowerTaps::new(),
            engine: EngineKind::Legacy,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests offered to the cluster.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected (no buffer space anywhere).
    pub rejected: u64,
    /// End-to-end latencies (seconds) of completed low-priority requests.
    pub low_latencies_s: Vec<f64>,
    /// End-to-end latencies (seconds) of completed high-priority requests.
    pub high_latencies_s: Vec<f64>,
    /// Completed requests per priority (low, high).
    pub completed_by_priority: (u64, u64),
    /// Offered requests per priority (low, high).
    pub offered_by_priority: (u64, u64),
    /// Rejected requests per priority (low, high).
    pub rejected_by_priority: (u64, u64),
    /// Row power sampled at the telemetry interval (empty when disabled).
    pub row_power: TimeSeries,
    /// Highest instantaneous row power seen, in watts.
    pub peak_row_watts: f64,
    /// Time-weighted mean row power in watts.
    pub mean_row_watts: f64,
    /// Row-wide power-brake engagements the controller triggered.
    pub brake_engagements: u64,
    /// OOB commands issued on the control plane.
    pub commands_issued: u64,
    /// Discrete events processed by the row engine (arrivals, phase
    /// ends, telemetry ticks, control deliveries).
    pub events_processed: u64,
    /// Duration simulated.
    pub duration: SimTime,
}

impl SimReport {
    /// Latency samples for `priority`.
    pub fn latencies(&self, priority: Priority) -> &[f64] {
        match priority {
            Priority::Low => &self.low_latencies_s,
            Priority::High => &self.high_latencies_s,
        }
    }

    /// Completed-request throughput in requests/s for `priority`.
    pub fn throughput(&self, priority: Priority) -> f64 {
        let n = match priority {
            Priority::Low => self.completed_by_priority.0,
            Priority::High => self.completed_by_priority.1,
        };
        if self.duration == SimTime::ZERO {
            0.0
        } else {
            n as f64 / self.duration.as_secs()
        }
    }

    /// Fraction of offered `priority` requests that completed (goodput
    /// ratio); 1.0 when nothing was offered.
    pub fn goodput(&self, priority: Priority) -> f64 {
        let (completed, offered) = match priority {
            Priority::Low => (self.completed_by_priority.0, self.offered_by_priority.0),
            Priority::High => (self.completed_by_priority.1, self.offered_by_priority.1),
        };
        if offered == 0 {
            1.0
        } else {
            completed as f64 / offered as f64
        }
    }

    /// Peak row power as a fraction of `provisioned_watts`.
    pub fn peak_utilization(&self, provisioned_watts: f64) -> f64 {
        self.peak_row_watts / provisioned_watts
    }
}

/// The serving engine behind a row. Both rows answer with one set of
/// method names, append to one outcome buffer and keep one power
/// ledger, so the simulator keeps one path per event: `each_row!` calls
/// a shared method on whichever row it is, and the methods below hold
/// what differs.
enum Engine {
    Legacy(LegacyRow),
    Batched(BatchedRow<Request>),
}

/// Calls a method that both row types have on whichever row `$engine`
/// holds.
macro_rules! each_row {
    ($engine:expr, $row:ident => $call:expr) => {
        match $engine {
            Engine::Legacy($row) => $call,
            Engine::Batched($row) => $call,
        }
    };
}

impl Engine {
    fn new(row: &RowConfig, config: &SimConfig, priorities: &[Priority], obs: &Recorder) -> Self {
        match &config.engine {
            EngineKind::Legacy => {
                Engine::Legacy(LegacyRow::new(row, config.power_scale, obs.req_enabled()))
            }
            EngineKind::Batched(serve_cfg) => {
                let params = BatchedRowParams {
                    deployment: InferenceModel::new(row.model.clone(), row.server_spec.gpu.clone())
                        .expect("row model must fit its GPU allocation"),
                    classes: priorities.iter().map(|&p| p == Priority::High).collect(),
                    spec: row.server_spec.clone(),
                    power_scale: config.power_scale,
                    trace_requests: obs.req_enabled(),
                };
                Engine::Batched(BatchedRow::new(params, serve_cfg, obs.prof().clone()))
            }
        }
    }

    /// The row's power sums.
    #[inline]
    fn watts(&self) -> &RowWatts {
        each_row!(self, r => r.watts())
    }

    /// Routes an arrival, appending what it caused to `out`. Returns
    /// the admission, its server, and whether the operation splits the
    /// row's energy integrals at `now`: every batched arrival does, a
    /// legacy one only when it starts service (a queued or rejected
    /// legacy arrival changes no server). The integrals' last bits
    /// depend on where they are split.
    #[inline]
    fn on_arrival(
        &mut self,
        now: SimTime,
        req: Request,
        out: &mut ServeOutcome<Request>,
    ) -> (AdmissionKind, usize, bool) {
        let (kind, server) = match self {
            Engine::Legacy(row) => row.on_arrival(now, req, out),
            Engine::Batched(row) => {
                let serve_req = ServeRequest {
                    payload: req,
                    id: req.id,
                    input_tokens: req.input_tokens,
                    output_tokens: req.output_tokens,
                    high_priority: req.priority == Priority::High,
                };
                row.on_arrival(now, serve_req, out)
            }
        };
        let splits = kind == AdmissionKind::Started || matches!(self, Engine::Batched(_));
        (kind, server, splits)
    }

    /// The profiler phase a wake is timed as.
    #[inline]
    fn wake_phase(&self) -> Phase {
        match self {
            Engine::Legacy(_) => Phase::PhaseEnd,
            Engine::Batched(_) => Phase::ServeIteration,
        }
    }

    fn on_transfers_due(&mut self, now: SimTime, out: &mut ServeOutcome<Request>) {
        if let Engine::Batched(row) = self {
            row.on_transfers_due(now, out);
        }
    }

    fn next_transfer_due(&self) -> Option<SimTime> {
        match self {
            Engine::Legacy(_) => None,
            Engine::Batched(row) => row.next_transfer_due(),
        }
    }

    /// Records the batched engine's KV, batch, queue and pool gauges
    /// (the legacy engine has none of these), reading the pools
    /// through `pools`.
    fn record_gauges(&self, obs: &Recorder, pools: &mut Vec<(&'static str, f64)>) {
        if let Engine::Batched(row) = self {
            obs.gauge("serve.kv_occupancy", Label::Global, row.kv_occupancy());
            obs.gauge("serve.batch_size", Label::Global, row.mean_batch());
            obs.gauge(
                "serve.waiting_depth",
                Label::Global,
                row.waiting_depth() as f64,
            );
            row.watts().write_pools(pools);
            for &(tag, watts) in pools.iter() {
                obs.gauge("serve.pool_power_w", Label::Tag(tag), watts);
            }
        }
    }
}

/// The cluster simulator.
pub struct ClusterSim<P> {
    engine: Engine,
    /// Each server's priority class, by server id: what a controller's
    /// class target resolves against.
    priorities: Vec<Priority>,
    ctx: RowContext,
    config: SimConfig,
    controller: P,
    plane: OobControlPlane,
    row_signal: DelayedSignal,
    agenda: Agenda,
    /// What the engine's last operation produced; drained by
    /// [`fold`](Self::fold) after each one, so the run reuses it.
    outcome: ServeOutcome<Request>,
    /// The engine's row power as of the last operation.
    row_power_watts: f64,
    report: SimReport,
    /// Integral bookkeeping for mean power.
    last_power_change: SimTime,
    power_integral: f64,
    /// The engine's power of the servers that are serving, as of the
    /// last operation. Feeds `busy_integral` in the same
    /// `accumulate_power` fold, so the busy energy is exact at event
    /// resolution (not a telemetry-window trapezoid) — that exactness
    /// is what pins the polca-energy reconciliation bound: busy energy
    /// ≥ Σ per-request attributed joules.
    busy_watts: f64,
    /// Exact integral of `busy_watts` over time, in joules.
    busy_integral: f64,
    /// polca-energy row accumulator (present when the recorder carries
    /// an energy plan), ticked on the telemetry grid.
    energy: Option<EnergyAccum>,
    /// Reusable per-pool `(tag, watts)` buffer for energy ticks.
    pool_scratch: Vec<(&'static str, f64)>,
    obs: Recorder,
    /// The most one server can draw while serving and while idle:
    /// the per-server bounds of the site's `PowerCeiling`, fixed once
    /// the power scale is set.
    max_server_watts: (f64, f64),
}

impl<P: PowerController> ClusterSim<P> {
    /// Builds a simulator over `row` with the given `controller`.
    ///
    /// # Panics
    ///
    /// Panics if the row's model does not fit its GPU allocation.
    pub fn new(row: RowConfig, config: SimConfig, controller: P) -> Self {
        let obs = config.recorder.clone();
        let max_server_watts = max_server_watts(&row, config.power_scale);
        let priorities = row.priorities();
        let engine = Engine::new(&row, &config, &priorities, &obs);
        let watts = engine.watts();
        let (row_power_watts, busy_watts) = (watts.total(), watts.busy());
        let mut pool_scratch: Vec<(&'static str, f64)> = Vec::new();
        watts.write_pools(&mut pool_scratch);
        let energy = obs.energy_plan().map(|plan| {
            let [low, high] = watts.class();
            EnergyAccum::new(plan.clone(), 0.0, low, high, &pool_scratch)
        });
        let mut plane =
            OobControlPlane::new(config.seed).with_failure_rate(config.oob_failure_rate);
        plane.set_recorder(obs.clone());
        let ctx = RowContext {
            provisioned_watts: row.provisioned_watts(),
            n_servers: row.total_servers(),
        };
        ClusterSim {
            row_signal: DelayedSignal::new(SimTime::from_secs(config.telemetry_delay_s)),
            plane,
            agenda: Agenda::new(obs.queue_probe()),
            outcome: ServeOutcome::default(),
            report: blank_report(row_power_watts),
            row_power_watts,
            last_power_change: SimTime::ZERO,
            power_integral: 0.0,
            busy_watts,
            busy_integral: 0.0,
            energy,
            pool_scratch,
            obs,
            priorities,
            engine,
            ctx,
            config,
            controller,
            max_server_watts,
        }
    }

    /// Runs the simulation over `arrivals` (which must be ordered by
    /// arrival time) until `until`, consuming the simulator and
    /// returning the report: one [`RowSim`] stepped straight to the
    /// horizon, so the resumable engine and this one-shot entry point
    /// are the same code and produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` yields requests out of order.
    pub fn run(self, arrivals: impl IntoIterator<Item = Request>, until: SimTime) -> SimReport {
        let mut row = self.into_row_sim(arrivals.into_iter(), until);
        // This step and `finish`'s own are the two `row.step` profiler
        // frames a run's `metrics.prom` counts.
        row.step_until(until);
        row.finish()
    }

    /// Converts this simulator into a resumable [`RowSim`] driven by
    /// `arrivals` up to `horizon`. The engine primes the first arrival
    /// and the t = 0 telemetry tick immediately, exactly as
    /// [`run`](Self::run) would.
    pub fn into_row_sim<S: RequestSource>(self, arrivals: S, horizon: SimTime) -> RowSim<P, S> {
        let mut row = RowSim {
            sim: self,
            source: arrivals,
            horizon,
        };
        if let Some(first) = row.source.next_request() {
            row.sim.agenda.schedule(first.arrival, Ev::Arrival(first));
        }
        row.sim.agenda.schedule(SimTime::ZERO, Ev::Telemetry);
        row
    }

    fn accumulate_power(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_power_change).as_secs();
        self.power_integral += self.row_power_watts * dt;
        self.busy_integral += self.busy_watts * dt;
        self.last_power_change = now;
    }

    /// Folds an engine operation at `now` into the row's power
    /// accounts: the integrals close at `now` at the watts the row drew
    /// before the operation, and the cached draw and the peak take the
    /// engine's new watts.
    fn settle_power(&mut self, now: SimTime) {
        self.accumulate_power(now);
        let watts = self.engine.watts();
        self.row_power_watts = watts.total();
        self.busy_watts = watts.busy();
        if self.row_power_watts > self.report.peak_row_watts {
            self.report.peak_row_watts = self.row_power_watts;
        }
    }

    /// Runs `op` on the engine at `now` with the outcome buffer, settles
    /// the row's power accounts (see [`settle_power`](Self::settle_power)),
    /// then folds what the operation produced.
    fn engine_op(
        &mut self,
        now: SimTime,
        op: impl FnOnce(&mut Engine, &mut ServeOutcome<Request>),
    ) {
        op(&mut self.engine, &mut self.outcome);
        self.settle_power(now);
        self.fold(now);
    }

    /// Metric/event label for a priority class.
    fn pri_tag(priority: Priority) -> &'static str {
        match priority {
            Priority::Low => "low",
            Priority::High => "high",
        }
    }

    /// Drains the outcome buffer into the report and the agenda:
    /// the preemption counter, the completions (with their request
    /// spans, when traced), then each server's next wake in the order
    /// the servers ran, and last a transfer event for newly queued KV
    /// hand-offs.
    fn fold(&mut self, now: SimTime) {
        let mut out = std::mem::take(&mut self.outcome);
        if out.preemptions > 0 {
            self.obs
                .add("serve.preemptions", Label::Global, out.preemptions);
            out.preemptions = 0;
        }
        for done in out.completions.drain(..) {
            self.record_completion(now, done);
        }
        for (server, at, version) in out.wakes.drain(..) {
            self.agenda.schedule(at, Ev::Wake { server, version });
        }
        if std::mem::take(&mut out.transfers_queued) {
            self.schedule_transfer(now);
        }
        self.outcome = out;
    }

    /// Arms a transfer event for the earliest KV hand-off still
    /// crossing the interconnect, if any.
    fn schedule_transfer(&mut self, now: SimTime) {
        if let Some(at) = self.engine.next_transfer_due() {
            self.agenda.schedule(at.max(now), Ev::ServeTransfer);
        }
    }

    fn on_wake(&mut self, now: SimTime, server: usize, version: u64) {
        self.engine_op(
            now,
            |e, out| each_row!(e, r => r.on_wake(now, server, version, out)),
        );
    }

    fn on_serve_transfer(&mut self, now: SimTime) {
        self.engine_op(now, |e, out| e.on_transfers_due(now, out));
        // Re-arm for transfers still crossing the interconnect.
        self.schedule_transfer(now);
    }

    /// Records an arrival's admission: the dispatch (onto `server`),
    /// queue or rejection event, and for a rejection the report's and
    /// the metric's counts.
    fn record_admission(
        &mut self,
        now: SimTime,
        req: &Request,
        kind: AdmissionKind,
        server: usize,
    ) {
        let t = now.as_secs();
        let priority = Self::pri_tag(req.priority);
        match kind {
            AdmissionKind::Started => self.obs.record(Event::RequestDispatched {
                t,
                server,
                request: req.id,
                priority,
            }),
            AdmissionKind::Queued => self.obs.record(Event::RequestQueued {
                t,
                request: req.id,
                priority,
            }),
            AdmissionKind::Rejected => {
                self.report.rejected += 1;
                match req.priority {
                    Priority::Low => self.report.rejected_by_priority.0 += 1,
                    Priority::High => self.report.rejected_by_priority.1 += 1,
                }
                self.obs
                    .add("cluster.requests_rejected", Label::Tag(priority), 1);
                self.obs.record(Event::RequestRejected {
                    t,
                    request: req.id,
                    priority,
                });
            }
        }
    }

    fn on_arrival(&mut self, now: SimTime, req: Request) {
        self.report.offered += 1;
        match req.priority {
            Priority::Low => self.report.offered_by_priority.0 += 1,
            Priority::High => self.report.offered_by_priority.1 += 1,
        }
        self.obs.add(
            "cluster.requests_offered",
            Label::Tag(Self::pri_tag(req.priority)),
            1,
        );
        let (kind, server, splits_integrals) = self.engine.on_arrival(now, req, &mut self.outcome);
        if splits_integrals {
            self.settle_power(now);
        }
        self.record_admission(now, &req, kind, server);
        self.fold(now);
    }

    /// Closes `span` against request `done`, completed at `now`, and
    /// lands the derived record in the polca-req plane. The legacy
    /// engine serves the token phase as one fluid span, so its
    /// `tbt_max` falls back to the mean gap; the batched engine reports
    /// real per-iteration gaps.
    fn record_request_span(&self, span: &ReqSpan, done: &Completion<Request>, now: SimTime) {
        let req = done.payload;
        let mut rec = span.finish(
            req.id,
            Self::pri_tag(req.priority),
            done.server,
            req.arrival.as_secs(),
            done.started_at.as_secs(),
            now.as_secs(),
            req.input_tokens,
            req.output_tokens,
        );
        // With the energy ledger attached, convert the attributed
        // joules to facility-level grams at the intensity in force when
        // the request completed.
        if let Some(acc) = self.energy.as_ref() {
            rec.pue_applied = acc.pue();
            rec.co2e_g = rec.joules / 3.6e6 * rec.pue_applied * acc.g_per_kwh(now.as_secs());
        }
        self.obs.record_request(&rec);
    }

    /// Records request `done`, completed at `now`: the report's and the
    /// metrics' counts and latency, its event, and its span when traced.
    fn record_completion(&mut self, now: SimTime, done: Completion<Request>) {
        let req = done.payload;
        self.report.completed += 1;
        if let Some(acc) = self.energy.as_mut() {
            acc.add_tokens(req.priority == Priority::High, u64::from(req.output_tokens));
        }
        let latency = (now - req.arrival).as_secs();
        match req.priority {
            Priority::Low => {
                self.report.completed_by_priority.0 += 1;
                self.report.low_latencies_s.push(latency);
            }
            Priority::High => {
                self.report.completed_by_priority.1 += 1;
                self.report.high_latencies_s.push(latency);
            }
        }
        let tag = Self::pri_tag(req.priority);
        self.obs
            .add("cluster.requests_completed", Label::Tag(tag), 1);
        self.obs
            .observe("cluster.latency_s", Label::Tag(tag), latency);
        self.obs.record(Event::RequestCompleted {
            t: now.as_secs(),
            server: done.server,
            request: req.id,
            priority: tag,
            latency_s: latency,
        });
        if let Some(span) = &done.span {
            self.record_request_span(span, &done, now);
        }
    }

    /// Ticks the polca-energy accumulator with the current per-bucket
    /// ground-truth draw (no-op when no energy plan is attached). Runs
    /// on the row's own telemetry grid — and once more at the horizon —
    /// so the trapezoidal Wh integral covers exactly the windows every
    /// other ground-truth consumer sees. Both engines keep their bucket
    /// sums incrementally, so a tick costs O(buckets), not O(servers).
    fn tick_energy(&mut self, now: SimTime) {
        let Some(acc) = self.energy.as_mut() else {
            return;
        };
        let watts = self.engine.watts();
        let [low, high] = watts.class();
        watts.write_pools(&mut self.pool_scratch);
        acc.tick(now.as_secs(), low, high, &self.pool_scratch);
    }

    fn on_telemetry(&mut self, now: SimTime) {
        self.accumulate_power(now);
        self.tick_energy(now);
        self.row_signal.record(now, self.row_power_watts);
        if self.config.record_power_series {
            self.report
                .row_power
                .push(now.as_secs(), self.row_power_watts);
        }
        self.obs.record(Event::PowerSample {
            t: now.as_secs(),
            watts: self.row_power_watts,
        });
        self.obs
            .gauge("cluster.row_power_w", Label::Global, self.row_power_watts);
        self.obs.observe(
            "cluster.row_utilization",
            Label::Global,
            self.row_power_watts / self.ctx.provisioned_watts,
        );
        self.engine.record_gauges(&self.obs, &mut self.pool_scratch);
        let observed = self.row_signal.read(now);
        // One publish per tick: ground truth plus the delayed view.
        self.config
            .oob_taps
            .publish_tick(now, self.row_power_watts, observed);
        let requests = {
            let _phase = self.obs.prof().time(Phase::ControllerEval);
            self.controller.on_telemetry(now, observed, &self.ctx)
        };
        for cr in requests {
            self.issue(now, cr);
        }
        self.schedule_delivery(now);
    }

    /// Arms a delivery event for the OOB plane's next command, if any.
    fn schedule_delivery(&mut self, now: SimTime) {
        if let Some(at) = self.plane.next_delivery() {
            self.agenda.schedule(at.max(now), Ev::ControlDelivery);
        }
    }

    /// Puts `cr` on the OOB plane: one command per server it targets,
    /// in server order. A server id outside the row targets nothing, so
    /// it issues and counts nothing.
    fn issue(&mut self, now: SimTime, cr: ControlRequest) {
        let n = self.ctx.n_servers;
        let (servers, class) = match cr.target {
            ControlTarget::All => (0..n, None),
            ControlTarget::Priority(p) => (0..n, Some(p)),
            ControlTarget::Server(i) if i < n => (i..i + 1, None),
            ControlTarget::Server(_) => return,
        };
        if matches!(cr.action, ControlAction::PowerBrake { on: true }) {
            self.report.brake_engagements += 1;
            self.obs.add("cluster.brake_engagements", Label::Global, 1);
        }
        let priorities = &self.priorities;
        for i in servers.filter(|&i| class.is_none_or(|p| priorities[i] == p)) {
            self.plane.issue(now, i, cr.action);
            self.report.commands_issued += 1;
        }
    }

    fn on_control_delivery(&mut self, now: SimTime) {
        let due = self.plane.deliver_due(now);
        for cmd in due {
            let idx = cmd.server;
            self.obs.record_with(|| {
                let t = now.as_secs();
                match cmd.action {
                    ControlAction::LockClock { mhz } => Event::CapApplied {
                        t,
                        server: idx,
                        mhz,
                    },
                    ControlAction::UnlockClock => Event::Uncap { t, server: idx },
                    ControlAction::PowerBrake { on } => Event::BrakeEngaged { t, server: idx, on },
                }
            });
            self.engine_op(
                now,
                |e, out| each_row!(e, r => r.apply_action(now, idx, cmd.action, out)),
            );
        }
        self.schedule_delivery(now);
    }
}

/// A resumable row engine: the body of [`ClusterSim::run`] exposed as
/// an incremental `step_until` API.
///
/// A `RowSim` owns one row's complete simulation state — servers,
/// pending events, OOB control plane, delayed telemetry signal, RNG
/// streams — and advances it in bounded time slices instead of straight
/// to the horizon. That is what lets `SiteSim` interleave N rows (stepping
/// each row boundary by boundary through an epoch of telemetry windows
/// and inspecting aggregate power at every boundary) while each row
/// replays *exactly*
/// the event sequence it would have seen in a solo
/// [`ClusterSim::run`]: stepping to `t1` then `t2` processes the same
/// events in the same order as stepping to `t2` directly, so the
/// resumable and one-shot paths are bit-identical.
///
/// The horizon is fixed at construction because it is part of the
/// event schedule itself (the last telemetry tick is the one at or
/// before the horizon); [`finish`](Self::finish) closes the power
/// integral there and yields the [`SimReport`].
pub struct RowSim<P, S> {
    sim: ClusterSim<P>,
    source: S,
    horizon: SimTime,
}

impl<P: PowerController, S: RequestSource> RowSim<P, S> {
    /// Builds a row engine directly from a row description, mirroring
    /// [`ClusterSim::new`] + [`ClusterSim::into_row_sim`].
    pub fn new(
        row: RowConfig,
        config: SimConfig,
        controller: P,
        source: S,
        horizon: SimTime,
    ) -> Self {
        ClusterSim::new(row, config, controller).into_row_sim(source, horizon)
    }

    /// Processes every event at or before `min(t, horizon)`. Calling
    /// with non-increasing `t` is a no-op; the engine never runs past
    /// its horizon.
    ///
    /// # Panics
    ///
    /// Panics if the request source yields requests out of order.
    pub fn step_until(&mut self, t: SimTime) {
        let limit = t.min(self.horizon);
        // One cheap handle clone per slice; `time` is a single branch
        // when profiling is off, so the per-event cost below is nil.
        let prof = self.sim.obs.prof().clone();
        // Outer frame: its self-time is the event loop itself (peek,
        // match dispatch, bookkeeping) net of the per-event phases.
        let _step = prof.time(Phase::RowStep);
        while let Some((now, ev)) = self.sim.agenda.pop_through(limit) {
            self.sim.report.events_processed += 1;
            match ev {
                Ev::Arrival(req) => {
                    let _p = prof.time(Phase::Dispatch);
                    self.sim.on_arrival(now, req);
                    if let Some(next) = self.source.next_request() {
                        assert!(
                            next.arrival >= now,
                            "arrival stream out of order at request {}",
                            next.id
                        );
                        self.sim.agenda.schedule(next.arrival, Ev::Arrival(next));
                    }
                }
                Ev::Wake { server, version } => {
                    let _p = prof.time(self.sim.engine.wake_phase());
                    self.sim.on_wake(now, server, version)
                }
                Ev::Telemetry => {
                    let _p = prof.time(Phase::TelemetryTick);
                    self.sim.on_telemetry(now);
                    let next_tick = now + SimTime::from_secs(self.sim.config.telemetry_interval_s);
                    if next_tick <= self.horizon {
                        self.sim.agenda.schedule(next_tick, Ev::Telemetry);
                    }
                }
                Ev::ControlDelivery => {
                    let _p = prof.time(Phase::ControlDelivery);
                    self.sim.on_control_delivery(now)
                }
                Ev::ServeTransfer => {
                    let _p = prof.time(Phase::ServeIteration);
                    self.sim.on_serve_transfer(now)
                }
            }
        }
    }

    /// Instantaneous ground-truth row power, in watts.
    pub fn row_power_watts(&self) -> f64 {
        self.sim.row_power_watts
    }

    /// The arrival source still to be drawn from (read-only). The next
    /// arrival has already left it: it waits in the agenda. In a
    /// `SiteSim` the source is the row's feed, which holds only what
    /// the site's dispatcher has dealt the row so far: at least its
    /// arrivals up to the end of the current epoch, plus one.
    pub(crate) fn source(&self) -> &S {
        &self.source
    }

    /// The arrival source, for the site's dispatcher to append to
    /// between steps.
    pub(crate) fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Servers in the row.
    pub(crate) fn n_servers(&self) -> usize {
        self.sim.ctx.n_servers
    }

    /// The most one server of the row can draw while serving and while
    /// idle (see [`ClusterSim`]'s `max_server_watts`).
    pub(crate) fn max_server_watts(&self) -> (f64, f64) {
        self.sim.max_server_watts
    }

    /// Servers that may serve before any arrival still in the source
    /// (the arrival already waiting in the agenda is not counted):
    /// the legacy engine's busy servers and buffered requests, or every
    /// server of the batched engine, whose split pools move work
    /// between servers without arrivals.
    pub(crate) fn committed_servers(&self) -> usize {
        match &self.sim.engine {
            Engine::Legacy(row) => row.committed_servers(),
            Engine::Batched(row) => row.n_servers(),
        }
    }

    /// Timestamp of the next queued event, or `None` when the queue is
    /// drained (the row will never act again unless a command is
    /// [`inject`](Self::inject)ed).
    ///
    /// The site stepper uses this to skip idle rows: a row whose next
    /// event lies beyond a window boundary needs no `step_until` call
    /// there at all — by construction it would process zero events.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.sim.agenda.peek_time()
    }

    /// Immutable view of the legacy engine's servers (for tests and
    /// inspection); empty under [`EngineKind::Batched`], whose row
    /// [`batched_row`](Self::batched_row) exposes instead.
    pub fn servers(&self) -> &[InferenceServer] {
        match &self.sim.engine {
            Engine::Legacy(row) => row.servers(),
            Engine::Batched(_) => &[],
        }
    }

    /// The continuous-batching engine, when one is configured.
    pub fn batched_row(&self) -> Option<&BatchedRow<Request>> {
        match &self.sim.engine {
            Engine::Legacy(_) => None,
            Engine::Batched(row) => Some(row),
        }
    }

    /// Issues a control request on the row's OOB plane at `now`, as if
    /// the row's own controller had emitted it — the hook a fleet-level
    /// budget enforcer uses to engage a power brake across rows. The
    /// command pays the same OOB latency (and failure) model as any
    /// controller-issued command.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than events already processed.
    pub fn inject(&mut self, now: SimTime, cr: ControlRequest) {
        self.sim.issue(now, cr);
        self.sim.schedule_delivery(now);
    }

    /// Steps to the horizon if not already there, closes the power
    /// integral, and returns the final report.
    pub fn finish(mut self) -> SimReport {
        self.step_until(self.horizon);
        let sim = &mut self.sim;
        sim.accumulate_power(self.horizon);
        // Seal the polca-energy account: close the last (possibly
        // partial) telemetry window at the horizon, then land the
        // finished row in the recorder for the main-thread ledger.
        sim.tick_energy(self.horizon);
        if let Some(acc) = sim.energy.take() {
            let row = acc.finish(self.horizon.as_secs(), sim.busy_integral);
            sim.obs.record_energy(row);
        }
        sim.report.duration = self.horizon;
        sim.report.mean_row_watts = if self.horizon == SimTime::ZERO {
            sim.row_power_watts
        } else {
            sim.power_integral / self.horizon.as_secs()
        };
        std::mem::replace(&mut sim.report, blank_report(0.0))
    }
}

/// The most one server of `row` draws while serving and while idle, at
/// `power_scale`: workload intensity 1 and hot idle at the full clock.
/// Every server of either engine runs one deployment on one spec, phase
/// and iteration intensities lie in `[0, 1]` and the DVFS scale never
/// exceeds 1, so no request, lock or brake lifts a server above these.
fn max_server_watts(row: &RowConfig, power_scale: f64) -> (f64, f64) {
    let deployment = InferenceModel::new(row.model.clone(), row.server_spec.gpu.clone())
        .expect("row model must fit its GPU allocation");
    let watts = |intensity| {
        row.server_spec
            .power_watts(deployment.n_gpus(), intensity, 1.0)
            * power_scale
    };
    (watts(1.0), watts(HOT_IDLE_INTENSITY))
}

/// An empty [`SimReport`] used to move the real one out of the engine.
fn blank_report(peak: f64) -> SimReport {
    SimReport {
        offered: 0,
        completed: 0,
        rejected: 0,
        low_latencies_s: Vec::new(),
        high_latencies_s: Vec::new(),
        completed_by_priority: (0, 0),
        offered_by_priority: (0, 0),
        rejected_by_priority: (0, 0),
        row_power: TimeSeries::new(),
        peak_row_watts: peak,
        mean_row_watts: 0.0,
        brake_engagements: 0,
        commands_issued: 0,
        events_processed: 0,
        duration: SimTime::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn small_row() -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 4;
        row
    }

    fn mk_request(id: u64, at: f64, priority: Priority) -> Request {
        Request::new(id, t(at), 1024, 64, priority)
    }

    #[test]
    fn empty_run_reports_idle_power() {
        let row = RowSim::new(
            small_row(),
            SimConfig::default(),
            NoopController,
            std::iter::empty(),
            t(100.0),
        );
        let idle = row.servers()[0].power_watts() * 4.0;
        let report = row.finish();
        assert_eq!(report.completed, 0);
        assert_eq!(report.offered, 0);
        assert!((report.mean_row_watts - idle).abs() < 1.0);
        assert!((report.peak_row_watts - idle).abs() < 1.0);
    }

    #[test]
    fn single_request_completes_with_service_latency() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        let reqs = vec![mk_request(1, 0.0, Priority::Low)];
        let report = sim.run(reqs, t(500.0));
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.low_latencies_s.len(), 1);
        // No queueing: latency equals service time, which for a
        // 1024/64 BLOOM request is a few seconds.
        let lat = report.low_latencies_s[0];
        assert!((1.0..30.0).contains(&lat), "latency {lat}");
    }

    #[test]
    fn requests_route_to_matching_priority_servers() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        // 4 servers: 2 low, 2 high. Offer 3 concurrent high requests:
        // two start, one queues (buffers), so all complete eventually.
        let reqs = (0..3)
            .map(|i| mk_request(i, 0.0, Priority::High))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(1000.0));
        assert_eq!(report.completed, 3);
        assert_eq!(report.completed_by_priority, (0, 3));
    }

    #[test]
    fn overload_rejects_when_buffers_full() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        // 2 low servers × (1 active + 1 buffered) = 4 capacity; the 5th
        // concurrent low request is rejected.
        let reqs = (0..5)
            .map(|i| mk_request(i, 0.0, Priority::Low))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(2000.0));
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 4);
    }

    #[test]
    fn queued_request_pays_waiting_latency() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        let reqs = (0..3)
            .map(|i| mk_request(i, 0.0, Priority::Low))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(2000.0));
        let mut lats = report.low_latencies_s.clone();
        lats.sort_by(f64::total_cmp);
        // The buffered request waited for a full service ahead of it.
        assert!(lats[2] > lats[0] * 1.8, "{lats:?}");
    }

    #[test]
    fn power_rises_while_serving() {
        let reqs = (0..4)
            .map(|i| mk_request(i, 10.0, Priority::Low))
            .collect::<Vec<_>>();
        let row = RowSim::new(
            small_row(),
            SimConfig::default(),
            NoopController,
            reqs.into_iter(),
            t(300.0),
        );
        let idle_watts = row.servers().iter().map(|s| s.power_watts()).sum::<f64>();
        let report = row.finish();
        assert!(report.peak_row_watts > idle_watts + 1000.0);
        assert!(!report.row_power.is_empty());
        assert!(report.row_power.peak().unwrap() <= report.peak_row_watts);
    }

    #[test]
    fn controller_commands_reach_servers_and_stretch_latency() {
        // A controller that locks every server to 1110 MHz at t = 0.
        struct LockAll {
            done: bool,
        }
        impl PowerController for LockAll {
            fn on_telemetry(
                &mut self,
                _now: SimTime,
                _obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                if self.done {
                    return Vec::new();
                }
                self.done = true;
                vec![ControlRequest::clock(ControlTarget::All, Some(1110.0))]
            }
        }

        // The lock is issued at t = 0 and lands within 40 s (Table 2),
        // before the requests arrive.
        let reqs = vec![
            mk_request(1, 60.0, Priority::Low),
            mk_request(2, 60.0, Priority::High),
        ];
        let capped = ClusterSim::new(small_row(), SimConfig::default(), LockAll { done: false })
            .run(reqs.clone(), t(2000.0));
        let free =
            ClusterSim::new(small_row(), SimConfig::default(), NoopController).run(reqs, t(2000.0));
        assert_eq!(capped.completed, 2);
        assert!(capped.commands_issued >= 4);
        assert!(
            capped.low_latencies_s[0] > free.low_latencies_s[0],
            "{} vs {}",
            capped.low_latencies_s[0],
            free.low_latencies_s[0]
        );
    }

    #[test]
    fn brake_engagements_are_counted() {
        struct BrakeOnce {
            fired: bool,
        }
        impl PowerController for BrakeOnce {
            fn on_telemetry(
                &mut self,
                _now: SimTime,
                _obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                if self.fired {
                    return Vec::new();
                }
                self.fired = true;
                vec![ControlRequest::brake(true)]
            }
        }
        let report = ClusterSim::new(
            small_row(),
            SimConfig::default(),
            BrakeOnce { fired: false },
        )
        .run(std::iter::empty(), t(100.0));
        assert_eq!(report.brake_engagements, 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let reqs: Vec<Request> = (0..50)
            .map(|i| {
                mk_request(
                    i,
                    i as f64 * 3.0,
                    if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    },
                )
            })
            .collect();
        let a = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .run(reqs.clone(), t(1000.0));
        let b =
            ClusterSim::new(small_row(), SimConfig::default(), NoopController).run(reqs, t(1000.0));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.low_latencies_s, b.low_latencies_s);
        assert_eq!(a.peak_row_watts, b.peak_row_watts);
    }

    /// A mixed 50-request stream exercising queueing and both priorities.
    fn mixed_requests() -> Vec<Request> {
        (0..50)
            .map(|i| {
                mk_request(
                    i,
                    i as f64 * 3.0,
                    if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    },
                )
            })
            .collect()
    }

    #[test]
    fn stepped_rowsim_matches_one_shot_run() {
        let reqs = mixed_requests();
        let one_shot = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .run(reqs.clone(), t(1000.0));
        let mut row = RowSim::new(
            small_row(),
            SimConfig::default(),
            NoopController,
            reqs.into_iter(),
            t(1000.0),
        );
        // Irregular slice boundaries, including repeats and off-grid times.
        for s in [0.0, 1.0, 1.0, 3.7, 250.0, 250.0, 999.9, 1500.0] {
            row.step_until(t(s));
        }
        let stepped = row.finish();
        assert_eq!(stepped.completed, one_shot.completed);
        assert_eq!(stepped.offered, one_shot.offered);
        assert_eq!(stepped.low_latencies_s, one_shot.low_latencies_s);
        assert_eq!(stepped.high_latencies_s, one_shot.high_latencies_s);
        assert_eq!(stepped.peak_row_watts, one_shot.peak_row_watts);
        assert_eq!(stepped.mean_row_watts, one_shot.mean_row_watts);
        assert_eq!(stepped.events_processed, one_shot.events_processed);
        assert_eq!(stepped.row_power.len(), one_shot.row_power.len());
    }

    #[test]
    fn rowsim_exposes_progress_and_state() {
        let mut row = RowSim::new(
            small_row(),
            SimConfig::default(),
            NoopController,
            std::iter::empty(),
            t(100.0),
        );
        assert_eq!(row.servers().len(), 4);
        row.step_until(t(10.0));
        assert!(row.row_power_watts() > 0.0);
        let report = row.finish();
        assert_eq!(report.duration, t(100.0));
    }

    #[test]
    fn injected_brake_engages_servers() {
        let reqs = mixed_requests();
        let free = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .run(reqs.clone(), t(1000.0));
        let mut row = RowSim::new(
            small_row(),
            SimConfig::default(),
            NoopController,
            reqs.into_iter(),
            t(1000.0),
        );
        row.step_until(t(10.0));
        row.inject(t(10.0), ControlRequest::brake(true));
        let braked = row.finish();
        assert_eq!(braked.brake_engagements, 1);
        assert!(braked.commands_issued >= 4);
        // The brake throttles every server for the rest of the run, so
        // time-weighted mean power drops versus the unbraked run of the
        // same stream (the pre-brake peak is unaffected).
        assert!(
            braked.mean_row_watts < free.mean_row_watts,
            "{} vs {}",
            braked.mean_row_watts,
            free.mean_row_watts
        );
    }

    #[test]
    fn a_server_outside_the_row_is_no_target() {
        let mut row = RowSim::new(
            small_row(),
            SimConfig::default(),
            NoopController,
            std::iter::empty(),
            t(100.0),
        );
        let n = row.servers().len();
        row.inject(
            SimTime::ZERO,
            ControlRequest::clock(ControlTarget::Server(n), Some(1110.0)),
        );
        // Every OOB command has landed by 40 s (Table 2).
        row.step_until(t(60.0));
        assert!(row.servers().iter().all(|s| s.locked_mhz().is_none()));
        assert_eq!(row.finish().commands_issued, 0);
    }

    #[test]
    fn telemetry_observation_is_delayed() {
        struct Probe {
            first_observation_at: Option<f64>,
        }
        impl PowerController for Probe {
            fn on_telemetry(
                &mut self,
                now: SimTime,
                obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                if obs.is_some() && self.first_observation_at.is_none() {
                    self.first_observation_at = Some(now.as_secs());
                }
                Vec::new()
            }
        }
        // Run and inspect via a side-channel: the probe mutates itself,
        // so thread it through a report-visible effect instead — issue a
        // brake when first observing, and check the engagement count.
        struct BrakeWhenObserved;
        impl PowerController for BrakeWhenObserved {
            fn on_telemetry(
                &mut self,
                now: SimTime,
                obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                assert!(
                    obs.is_none() || now.as_secs() >= 2.0,
                    "observation available before the 2 s delay"
                );
                Vec::new()
            }
        }
        let _ = Probe {
            first_observation_at: None,
        };
        let report = ClusterSim::new(small_row(), SimConfig::default(), BrakeWhenObserved)
            .run(std::iter::empty(), t(20.0));
        assert_eq!(report.brake_engagements, 0);
    }
}
