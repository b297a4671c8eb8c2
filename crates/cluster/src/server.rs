//! The *legacy* per-server inference state machine (§6.6) and the row
//! it runs in.
//!
//! Each server runs one tensor-parallel model instance across all its
//! GPUs (the POLCA evaluation serves BLOOM-176B on 8×A100-80GB), with a
//! one-request buffer "based on the typical load balanced setup" (§6.6).
//! In-flight requests progress through the prompt and token phases of the
//! `polca-llm` model; frequency locks and the power brake stretch the
//! remaining work of whatever phase is active when they land.
//!
//! A row of these servers is a `LegacyRow`: it dispatches arrivals
//! round-robin to idle servers of the request's class, keeps the row's
//! power sums incrementally and, with request tracing on, the span of
//! each server's request in service. It answers the cluster simulator
//! with the method names and outcome types of `polca-serve`'s
//! `BatchedRow`, so [`crate::sim`] drives both engines through one path
//! per event.
//!
//! This whole-request model is what the paper evaluated and remains the
//! default — every historical result reproduces on it bit-for-bit. The
//! `polca-serve` crate implements the modern alternative (iteration-level
//! continuous batching over a paged KV-cache, optionally split into
//! prefill/decode pools); select between them per run with
//! [`crate::sim::EngineKind`].

use std::collections::VecDeque;

use polca_gpu::{DvfsModel, ServerSpec, HOT_IDLE_INTENSITY};
use polca_llm::{InferenceConfig, InferenceModel, RequestProfile};
use polca_obs::ReqSpan;
use polca_serve::{AdmissionKind, ArrivalOutcome, Completion, ServeOutcome};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::request::{CompletedRequest, Priority, Request};
use crate::row::RowConfig;

/// Which phase the active request is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parallel prompt processing.
    Prompt,
    /// Sequential token generation.
    Token,
}

/// The running phase of the active request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ActivePhase {
    phase: Phase,
    /// Workload intensity for power computation.
    intensity: f64,
    /// Compute-bound fraction for DVFS slowdown.
    compute_fraction: f64,
    /// When the phase completes under the clock at scheduling time.
    end_at: SimTime,
    /// The slowdown factor in force when `end_at` was computed.
    slowdown: f64,
}

/// Public view of a server's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// No request in service.
    Idle,
    /// A request is in the given phase.
    Busy(Phase),
}

/// What happened when a phase-end event fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseOutcome {
    /// The event was stale (the phase had been rescheduled).
    Ignored,
    /// The prompt finished; the token phase runs until the returned time.
    TokenStarted {
        /// Scheduled end of the token phase.
        end_at: SimTime,
        /// Event version to attach.
        version: u64,
    },
    /// The request completed; if the buffer was non-empty the next
    /// request started its prompt phase immediately.
    Completed {
        /// The finished request's record.
        record: CompletedRequest,
        /// Phase end of the next request's prompt, if one started.
        next: Option<(SimTime, u64)>,
    },
}

/// One inference server in the row.
#[derive(Debug, Clone)]
pub struct InferenceServer {
    id: usize,
    priority: Priority,
    spec: ServerSpec,
    deployment: InferenceModel,
    dvfs: DvfsModel,
    locked_mhz: Option<f64>,
    brake: bool,
    /// §5.2 "phase-aware power management": when set, token phases run
    /// at this SM clock while prompt phases keep the full clock —
    /// "using lower frequencies during the token phase could help reduce
    /// power consumption without substantially impacting performance".
    phase_aware_token_mhz: Option<f64>,
    state: Option<(Request, SimTime, ActivePhase, RequestProfile)>,
    buffer: VecDeque<Request>,
    buffer_capacity: usize,
    version: u64,
    /// Multiplier on emitted power (the "+5 % more power-intensive
    /// workloads" experiment of §6.6).
    power_scale: f64,
}

impl InferenceServer {
    /// Creates an idle server serving `deployment`.
    pub fn new(
        id: usize,
        priority: Priority,
        spec: ServerSpec,
        deployment: InferenceModel,
        buffer_capacity: usize,
    ) -> Self {
        InferenceServer {
            id,
            priority,
            spec,
            deployment,
            dvfs: DvfsModel::default(),
            locked_mhz: None,
            brake: false,
            phase_aware_token_mhz: None,
            state: None,
            buffer: VecDeque::new(),
            buffer_capacity,
            version: 0,
            power_scale: 1.0,
        }
    }

    /// Scales all emitted power by `factor` (workload-drift experiments).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn set_power_scale(&mut self, factor: f64) {
        assert!(factor > 0.0, "power scale must be positive");
        self.power_scale = factor;
    }

    /// Server id within the row.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The priority class of workloads routed to this server.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The server's static power characteristics.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Current occupancy.
    pub fn state(&self) -> ServerState {
        match &self.state {
            None => ServerState::Idle,
            Some((_, _, active, _)) => ServerState::Busy(active.phase),
        }
    }

    /// Whether the server can begin a request right now.
    pub fn is_idle(&self) -> bool {
        self.state.is_none()
    }

    /// Whether the buffer can accept another request.
    pub fn has_buffer_space(&self) -> bool {
        self.buffer.len() < self.buffer_capacity
    }

    /// Queued (not yet started) requests.
    pub fn queue_len(&self) -> usize {
        self.buffer.len()
    }

    /// The currently locked SM clock, if any.
    pub fn locked_mhz(&self) -> Option<f64> {
        self.locked_mhz
    }

    /// Whether the power brake is engaged.
    pub fn brake(&self) -> bool {
        self.brake
    }

    /// Enables (or disables, with `None`) §5.2 phase-aware power
    /// management: token phases run at `token_mhz` while prompt phases
    /// keep the full clock. Takes effect from the next phase transition.
    ///
    /// # Panics
    ///
    /// Panics if `token_mhz` is outside the device's clock range.
    pub fn set_phase_aware(&mut self, token_mhz: Option<f64>) {
        if let Some(mhz) = token_mhz {
            assert!(
                self.spec.gpu.clock_in_range(mhz),
                "phase-aware token clock outside device range"
            );
        }
        self.phase_aware_token_mhz = token_mhz;
    }

    /// The configured phase-aware token clock, if any.
    pub fn phase_aware_token_mhz(&self) -> Option<f64> {
        self.phase_aware_token_mhz
    }

    /// The SM clock the GPUs would run at in `phase`, honoring
    /// brake > lock > phase-aware token clock > max.
    pub fn clock_mhz_for_phase(&self, phase: Phase) -> f64 {
        let token_ceiling = self.phase_aware_token_mhz.filter(|_| phase == Phase::Token);
        self.spec
            .gpu
            .clock_mhz(self.brake, self.locked_mhz, token_ceiling)
    }

    /// The SM clock the GPUs run at right now (the active phase's clock;
    /// the prompt clock when idle).
    pub fn effective_clock_mhz(&self) -> f64 {
        let phase = match &self.state {
            Some((_, _, active, _)) => active.phase,
            None => Phase::Prompt,
        };
        self.clock_mhz_for_phase(phase)
    }

    /// The effective clock as a fraction of maximum.
    pub fn clock_ratio(&self) -> f64 {
        self.effective_clock_mhz() / self.spec.gpu.max_sm_clock_mhz
    }

    fn clock_ratio_for_phase(&self, phase: Phase) -> f64 {
        self.clock_mhz_for_phase(phase) / self.spec.gpu.max_sm_clock_mhz
    }

    /// Instantaneous server power in watts.
    pub fn power_watts(&self) -> f64 {
        let intensity = match &self.state {
            None => HOT_IDLE_INTENSITY,
            Some((_, _, active, _)) => active.intensity,
        };
        self.power_at(intensity, self.dvfs.power_scale(self.clock_ratio()))
    }

    /// Server power at workload `intensity` with the GPUs' dynamic
    /// power scaled by `dvfs_scale`, times the study's power scale.
    fn power_at(&self, intensity: f64, dvfs_scale: f64) -> f64 {
        self.spec
            .power_watts(self.deployment.n_gpus(), intensity, dvfs_scale)
            * self.power_scale
    }

    fn slowdown_for(&self, phase: Phase, compute_fraction: f64) -> f64 {
        self.dvfs.slowdown(
            self.clock_ratio_for_phase(phase).max(1e-3),
            compute_fraction,
        )
    }

    /// Begins serving `req` immediately.
    ///
    /// Returns the prompt phase's end time and the event version to
    /// attach to the corresponding phase-end event.
    ///
    /// # Panics
    ///
    /// Panics if the server is not idle.
    pub fn start_request(&mut self, now: SimTime, req: Request) -> (SimTime, u64) {
        assert!(self.is_idle(), "server {} is busy", self.id);
        let profile = self.deployment.profile(&InferenceConfig::new(
            req.input_tokens,
            req.output_tokens,
            1,
        ));
        let slowdown = self.slowdown_for(Phase::Prompt, profile.prompt.compute_fraction);
        let end_at = now + SimTime::from_secs(profile.prompt.duration_s * slowdown);
        self.version += 1;
        self.state = Some((
            req,
            now,
            ActivePhase {
                phase: Phase::Prompt,
                intensity: profile.prompt.intensity,
                compute_fraction: profile.prompt.compute_fraction,
                end_at,
                slowdown,
            },
            profile,
        ));
        (end_at, self.version)
    }

    /// Adds `req` to the buffer. Returns `false` (rejecting the request)
    /// if the buffer is full.
    pub fn enqueue(&mut self, req: Request) -> bool {
        if self.has_buffer_space() {
            self.buffer.push_back(req);
            true
        } else {
            false
        }
    }

    /// Handles a phase-end event with the given version.
    pub fn on_phase_end(&mut self, now: SimTime, version: u64) -> PhaseOutcome {
        if version != self.version || self.state.is_none() {
            return PhaseOutcome::Ignored;
        }
        let (req, started_at, active, profile) = self.state.take().expect("state checked above");
        match active.phase {
            Phase::Prompt => {
                let slowdown = self.slowdown_for(Phase::Token, profile.token.compute_fraction);
                let end_at = now + SimTime::from_secs(profile.token.duration_s * slowdown);
                self.version += 1;
                self.state = Some((
                    req,
                    started_at,
                    ActivePhase {
                        phase: Phase::Token,
                        intensity: profile.token.intensity,
                        compute_fraction: profile.token.compute_fraction,
                        end_at,
                        slowdown,
                    },
                    profile,
                ));
                PhaseOutcome::TokenStarted {
                    end_at,
                    version: self.version,
                }
            }
            Phase::Token => {
                let record = CompletedRequest {
                    request: req,
                    started_at,
                    completed_at: now,
                    server: self.id,
                };
                let next = self
                    .buffer
                    .pop_front()
                    .map(|next_req| self.start_request(now, next_req));
                PhaseOutcome::Completed { record, next }
            }
        }
    }

    /// Applies a delivered control action. If the effective clock changed
    /// while a phase is running, the phase is rescheduled and the new
    /// `(end_at, version)` is returned so the caller can re-arm its event.
    pub fn apply_action(&mut self, now: SimTime, action: ControlAction) -> Option<(SimTime, u64)> {
        let before = self.effective_clock_mhz();
        match action {
            ControlAction::LockClock { mhz } => {
                self.locked_mhz = Some(self.spec.gpu.clamp_clock(mhz));
            }
            ControlAction::UnlockClock => self.locked_mhz = None,
            ControlAction::PowerBrake { on } => self.brake = on,
            // The cluster policies drive frequency, not reactive caps;
            // accept and ignore cap actions for forward compatibility.
            ControlAction::PowerCap { .. } | ControlAction::ClearPowerCap => {}
        }
        if (self.effective_clock_mhz() - before).abs() < f64::EPSILON {
            return None;
        }
        self.reschedule_active_phase(now)
    }

    /// Recomputes the running phase's end time under the current clock.
    fn reschedule_active_phase(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        let phase = self.state.as_ref()?.2.phase;
        let clock_ratio = self.clock_ratio_for_phase(phase).max(1e-3);
        let dvfs = self.dvfs;
        let (_, _, active, _) = self.state.as_mut()?;
        let remaining_actual = active.end_at.saturating_sub(now).as_secs();
        let remaining_work = remaining_actual / active.slowdown;
        let new_slowdown = dvfs.slowdown(clock_ratio, active.compute_fraction);
        let end_at = now + SimTime::from_secs(remaining_work * new_slowdown);
        active.end_at = end_at;
        active.slowdown = new_slowdown;
        self.version += 1;
        Some((end_at, self.version))
    }
}

/// The polca-req span of a request in legacy service. The server runs
/// one request at a time, so its whole draw between power-changing
/// transitions belongs to that request.
#[derive(Debug, Clone)]
struct OpenSpan {
    /// When the request entered service.
    started: SimTime,
    /// When the server's draw was last charged to the span.
    charged_to: SimTime,
    span: ReqSpan,
}

/// The legacy engine's row: its servers, a round-robin dispatch cursor
/// per priority class, the row's power sums (kept incrementally, so
/// reading them costs nothing per event) and, with request tracing on,
/// the span of each server's request in service.
#[derive(Debug)]
pub(crate) struct LegacyRow {
    servers: Vec<InferenceServer>,
    /// Where the next idle-server search starts, `[low, high]`.
    cursors: [usize; 2],
    /// Σ server power.
    total_power: f64,
    /// Σ power of the servers that are serving: the source of the
    /// row's busy energy, which upper-bounds Σ attributed joules.
    busy_power: f64,
    /// Σ server power per priority class, `[low, high]`.
    class_power: [f64; 2],
    /// One slot per server; empty unless request tracing is on.
    spans: Vec<Option<OpenSpan>>,
}

/// Index of `priority` in the `[low, high]` arrays.
fn class(priority: Priority) -> usize {
    usize::from(priority == Priority::High)
}

impl LegacyRow {
    /// The idle servers of `row`, whose power is scaled by
    /// `power_scale`, tracing each request's span when `trace_requests`
    /// is set.
    pub(crate) fn new(row: &RowConfig, power_scale: f64, trace_requests: bool) -> Self {
        let mut servers = row.build_servers();
        let mut total_power = 0.0;
        let mut class_power = [0.0; 2];
        for s in &mut servers {
            s.set_power_scale(power_scale);
            total_power += s.power_watts();
            class_power[class(s.priority())] += s.power_watts();
        }
        let spans = if trace_requests {
            vec![None; servers.len()]
        } else {
            Vec::new()
        };
        LegacyRow {
            servers,
            cursors: [0, 0],
            total_power,
            // Every server starts idle.
            busy_power: 0.0,
            class_power,
            spans,
        }
    }

    /// The row's servers.
    pub(crate) fn servers(&self) -> &[InferenceServer] {
        &self.servers
    }

    /// Instantaneous row power, in watts.
    #[inline]
    pub(crate) fn total_power_watts(&self) -> f64 {
        self.total_power
    }

    /// Instantaneous power of the servers that are serving, in watts.
    #[inline]
    pub(crate) fn busy_power_watts(&self) -> f64 {
        self.busy_power
    }

    /// Instantaneous power per priority class, `[low, high]`.
    #[inline]
    pub(crate) fn class_power_watts(&self) -> [f64; 2] {
        self.class_power
    }

    /// Fills `out` with the row's one pool, `aggregated`.
    #[inline]
    pub(crate) fn write_pool_power(&self, out: &mut Vec<(&'static str, f64)>) {
        out.clear();
        out.push(("aggregated", self.total_power));
    }

    /// Servers that may serve before any further arrival: a server
    /// leaves hot idle only to serve a buffered request or a new
    /// arrival, so each busy server and each buffered request counts.
    pub(crate) fn committed_servers(&self) -> usize {
        self.servers
            .iter()
            .map(|s| usize::from(!s.is_idle()) + s.queue_len())
            .sum()
    }

    /// Dispatches an arriving request: to the next idle server of its
    /// class in round-robin order, else into the shortest buffer of its
    /// class with space, else it is rejected.
    #[inline]
    pub(crate) fn on_arrival(&mut self, now: SimTime, req: Request) -> ArrivalOutcome<Request> {
        let n = self.servers.len();
        let cursor = &mut self.cursors[class(req.priority)];
        let start = *cursor;
        let idle = (0..n)
            .map(|off| (start + off) % n)
            .find(|&i| self.servers[i].priority() == req.priority && self.servers[i].is_idle());
        if let Some(i) = idle {
            *cursor = (i + 1) % n;
            let wake = self.change(now, i, |s| s.start_request(now, req));
            self.open_span(now, i);
            return ArrivalOutcome {
                kind: AdmissionKind::Started,
                outcome: ServeOutcome::new(i, Some(wake), Vec::new()),
            };
        }
        let target = self
            .servers
            .iter()
            .filter(|s| s.priority() == req.priority && s.has_buffer_space())
            .min_by_key(|s| s.queue_len())
            .map(InferenceServer::id);
        let kind = match target {
            Some(i) => {
                let ok = self.servers[i].enqueue(req);
                debug_assert!(ok, "buffer space was checked");
                AdmissionKind::Queued
            }
            None => AdmissionKind::Rejected,
        };
        ArrivalOutcome {
            kind,
            outcome: ServeOutcome::new(target.unwrap_or(0), None, Vec::new()),
        }
    }

    /// Handles server `server`'s phase end; `None` if `version` is
    /// stale (the phase was rescheduled since).
    #[inline]
    pub(crate) fn on_wake(
        &mut self,
        now: SimTime,
        server: usize,
        version: u64,
    ) -> Option<ServeOutcome<Request>> {
        match self.change(now, server, |s| s.on_phase_end(now, version)) {
            PhaseOutcome::Ignored => None,
            PhaseOutcome::TokenStarted { end_at, version } => {
                // Under the whole-request model the first output token
                // becomes available when the prompt phase ends.
                if let Some(Some(open)) = self.spans.get_mut(server) {
                    open.span.prefill_s = now.saturating_sub(open.started).as_secs();
                    open.span.first_token_s = Some(now.as_secs());
                }
                Some(ServeOutcome::new(
                    server,
                    Some((end_at, version)),
                    Vec::new(),
                ))
            }
            PhaseOutcome::Completed { record, next } => {
                let mut span = self
                    .spans
                    .get_mut(server)
                    .and_then(Option::take)
                    .map_or_else(ReqSpan::default, |open| open.span);
                if let Some(first) = span.first_token_s {
                    span.decode_s = (now.as_secs() - first).max(0.0);
                    span.last_token_s = Some(now.as_secs());
                }
                if next.is_some() {
                    // A buffered request was dequeued and started.
                    self.open_span(now, server);
                }
                let done = Completion {
                    payload: record.request,
                    server: record.server,
                    started_at: record.started_at,
                    span,
                };
                Some(ServeOutcome::new(server, next, vec![done]))
            }
        }
    }

    /// Applies a delivered OOB control action to `server`.
    #[inline]
    pub(crate) fn apply_action(
        &mut self,
        now: SimTime,
        server: usize,
        action: ControlAction,
    ) -> ServeOutcome<Request> {
        let wake = self.change(now, server, |s| s.apply_action(now, action));
        ServeOutcome::new(server, wake, Vec::new())
    }

    /// Runs `f` against server `idx`: charges the server's draw since
    /// the last change to its request's span, then folds the power
    /// change into the row's sums.
    fn change<T>(
        &mut self,
        now: SimTime,
        idx: usize,
        f: impl FnOnce(&mut InferenceServer) -> T,
    ) -> T {
        let server = &mut self.servers[idx];
        let before = server.power_watts();
        let busy_before = if server.is_idle() { 0.0 } else { before };
        if let Some(Some(open)) = self.spans.get_mut(idx) {
            open.span.joules += before * now.saturating_sub(open.charged_to).as_secs();
            open.charged_to = now;
        }
        let out = f(server);
        let after = server.power_watts();
        self.total_power += after - before;
        // Class membership is static, so the delta lands in one slot.
        self.class_power[class(server.priority())] += after - before;
        let busy_after = if server.is_idle() { 0.0 } else { after };
        self.busy_power += busy_after - busy_before;
        out
    }

    /// Opens a span for the request that just entered service on
    /// server `idx` (no-op unless request tracing is on).
    fn open_span(&mut self, now: SimTime, idx: usize) {
        if let Some(slot) = self.spans.get_mut(idx) {
            *slot = Some(OpenSpan {
                started: now,
                charged_to: now,
                span: ReqSpan::default(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_gpu::GpuSpec;
    use polca_llm::ModelSpec;

    fn server(priority: Priority) -> InferenceServer {
        let deployment =
            InferenceModel::new(ModelSpec::bloom_176b(), GpuSpec::a100_80gb()).unwrap();
        InferenceServer::new(0, priority, ServerSpec::dgx_a100(), deployment, 1)
    }

    fn req(id: u64, arrival: f64) -> Request {
        Request::new(id, SimTime::from_secs(arrival), 2048, 256, Priority::Low)
    }

    #[test]
    fn lifecycle_prompt_then_token_then_complete() {
        let mut s = server(Priority::Low);
        assert!(s.is_idle());
        let (prompt_end, v1) = s.start_request(SimTime::ZERO, req(1, 0.0));
        assert_eq!(s.state(), ServerState::Busy(Phase::Prompt));

        let out = s.on_phase_end(prompt_end, v1);
        let (token_end, v2) = match out {
            PhaseOutcome::TokenStarted { end_at, version } => (end_at, version),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(s.state(), ServerState::Busy(Phase::Token));
        assert!(token_end > prompt_end);

        match s.on_phase_end(token_end, v2) {
            PhaseOutcome::Completed { record, next } => {
                assert_eq!(record.request.id, 1);
                assert!(next.is_none());
                assert_eq!(record.completed_at, token_end);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.is_idle());
    }

    #[test]
    fn stale_events_are_ignored() {
        let mut s = server(Priority::Low);
        let (end, v) = s.start_request(SimTime::ZERO, req(1, 0.0));
        // A clock change reschedules and bumps the version…
        s.apply_action(
            SimTime::from_secs(0.1),
            ControlAction::LockClock { mhz: 1110.0 },
        );
        // …so the old event must be ignored.
        assert_eq!(s.on_phase_end(end, v), PhaseOutcome::Ignored);
        assert_eq!(s.state(), ServerState::Busy(Phase::Prompt));
    }

    #[test]
    fn buffer_respects_capacity() {
        let mut s = server(Priority::Low);
        s.start_request(SimTime::ZERO, req(1, 0.0));
        assert!(s.enqueue(req(2, 0.1)));
        assert!(!s.enqueue(req(3, 0.2)), "one-request buffer must reject");
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn completion_starts_buffered_request() {
        let mut s = server(Priority::Low);
        let (p_end, v1) = s.start_request(SimTime::ZERO, req(1, 0.0));
        s.enqueue(req(2, 0.1));
        let (t_end, v2) = match s.on_phase_end(p_end, v1) {
            PhaseOutcome::TokenStarted { end_at, version } => (end_at, version),
            other => panic!("unexpected {other:?}"),
        };
        match s.on_phase_end(t_end, v2) {
            PhaseOutcome::Completed { next, .. } => {
                let (next_end, _) = next.expect("buffered request should start");
                assert!(next_end > t_end);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.state(), ServerState::Busy(Phase::Prompt));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn power_reflects_phase() {
        let mut s = server(Priority::Low);
        let idle = s.power_watts();
        let (p_end, v1) = s.start_request(SimTime::ZERO, req(1, 0.0));
        let prompt_power = s.power_watts();
        s.on_phase_end(p_end, v1);
        let token_power = s.power_watts();
        assert!(
            prompt_power > token_power,
            "{prompt_power} vs {token_power}"
        );
        assert!(token_power > idle);
        // Peak server power stays under the §5 bound.
        assert!(prompt_power <= 5700.0);
    }

    #[test]
    fn frequency_lock_stretches_inflight_prompt() {
        let mut s = server(Priority::Low);
        let (end, _) = s.start_request(SimTime::ZERO, req(1, 0.0));
        let (new_end, _) = s
            .apply_action(
                SimTime::from_secs(0.01),
                ControlAction::LockClock { mhz: 1110.0 },
            )
            .expect("clock changed while busy");
        assert!(new_end > end, "prompt should stretch under a lock");
    }

    #[test]
    fn brake_overrides_lock_and_slows_massively() {
        let mut s = server(Priority::Low);
        s.apply_action(SimTime::ZERO, ControlAction::LockClock { mhz: 1305.0 });
        let (end, _) = s.start_request(SimTime::ZERO, req(1, 0.0));
        let (braked_end, _) = s
            .apply_action(
                SimTime::from_secs(0.01),
                ControlAction::PowerBrake { on: true },
            )
            .expect("brake changes clock");
        assert!(
            (braked_end - SimTime::ZERO).as_secs() > 3.0 * (end - SimTime::ZERO).as_secs(),
            "brake should near-halt progress"
        );
        assert_eq!(s.effective_clock_mhz(), 288.0);
        // Releasing the brake restores the lock.
        s.apply_action(
            SimTime::from_secs(0.02),
            ControlAction::PowerBrake { on: false },
        );
        assert_eq!(s.effective_clock_mhz(), 1305.0);
    }

    #[test]
    fn unchanged_clock_does_not_reschedule() {
        let mut s = server(Priority::Low);
        s.start_request(SimTime::ZERO, req(1, 0.0));
        // Locking to the current max is a no-op for the schedule.
        let out = s.apply_action(
            SimTime::from_secs(0.01),
            ControlAction::LockClock { mhz: 1410.0 },
        );
        assert!(out.is_none());
    }

    #[test]
    fn power_scale_multiplies_output() {
        let mut s = server(Priority::Low);
        let base = s.power_watts();
        s.set_power_scale(1.05);
        assert!((s.power_watts() / base - 1.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "is busy")]
    fn starting_on_busy_server_panics() {
        let mut s = server(Priority::Low);
        s.start_request(SimTime::ZERO, req(1, 0.0));
        s.start_request(SimTime::from_secs(0.1), req(2, 0.1));
    }

    #[test]
    fn phase_aware_lowers_token_power_keeps_prompt_fast() {
        // §5.2: lower frequencies during the token phase reduce power
        // without substantially impacting performance.
        let mut plain = server(Priority::Low);
        let mut aware = server(Priority::Low);
        aware.set_phase_aware(Some(1110.0));

        let (p_end_plain, v1) = plain.start_request(SimTime::ZERO, req(1, 0.0));
        let (p_end_aware, v2) = aware.start_request(SimTime::ZERO, req(1, 0.0));
        // Prompt runs at full clock in both cases.
        assert_eq!(p_end_plain, p_end_aware);
        assert_eq!(plain.power_watts(), aware.power_watts());

        let t_plain = match plain.on_phase_end(p_end_plain, v1) {
            PhaseOutcome::TokenStarted { end_at, .. } => end_at,
            other => panic!("unexpected {other:?}"),
        };
        let t_aware = match aware.on_phase_end(p_end_aware, v2) {
            PhaseOutcome::TokenStarted { end_at, .. } => end_at,
            other => panic!("unexpected {other:?}"),
        };
        // Token power drops substantially…
        assert!(
            aware.power_watts() < 0.93 * plain.power_watts(),
            "{} vs {}",
            aware.power_watts(),
            plain.power_watts()
        );
        // …while the token phase barely stretches (memory-bound).
        let stretch = (t_aware - p_end_aware).as_secs() / (t_plain - p_end_plain).as_secs();
        assert!(stretch < 1.05, "token stretch {stretch}");
    }

    #[test]
    fn phase_aware_respects_brake_and_lock_precedence() {
        let mut s = server(Priority::Low);
        s.set_phase_aware(Some(1110.0));
        assert_eq!(s.phase_aware_token_mhz(), Some(1110.0));
        // A deeper lock wins over the phase-aware clock.
        s.apply_action(SimTime::ZERO, ControlAction::LockClock { mhz: 900.0 });
        assert_eq!(s.clock_mhz_for_phase(Phase::Token), 900.0);
        // A shallower lock: token still runs at the phase-aware clock.
        s.apply_action(SimTime::ZERO, ControlAction::LockClock { mhz: 1300.0 });
        assert_eq!(s.clock_mhz_for_phase(Phase::Token), 1110.0);
        assert_eq!(s.clock_mhz_for_phase(Phase::Prompt), 1300.0);
        // The brake wins over everything.
        s.apply_action(SimTime::ZERO, ControlAction::PowerBrake { on: true });
        assert_eq!(s.clock_mhz_for_phase(Phase::Token), 288.0);
        assert_eq!(s.clock_mhz_for_phase(Phase::Prompt), 288.0);
    }

    #[test]
    #[should_panic(expected = "outside device range")]
    fn phase_aware_rejects_invalid_clock() {
        let mut s = server(Priority::Low);
        s.set_phase_aware(Some(50.0));
    }
}
