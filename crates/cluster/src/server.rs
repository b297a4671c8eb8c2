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
//! power sums in `polca-serve`'s `RowWatts` and, with request tracing
//! on, the span of each server's request in service. It answers the
//! cluster simulator with the method names of `polca-serve`'s
//! `BatchedRow`, and each operation appends its wakes and completions
//! to the same `ServeOutcome` buffer, so [`crate::sim`] drives both
//! engines through one path per event.
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
use polca_serve::{AdmissionKind, Completion, PoolRole, RowWatts, ServeOutcome};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::request::{Priority, Request};
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
        /// The finished request.
        request: Request,
        /// When it entered service.
        started_at: SimTime,
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
    /// `dvfs.power_scale` at the current clock ratio, refreshed
    /// whenever the brake, the lock, the phase-aware clock or the
    /// active phase changes the clock.
    dvfs_scale: f64,
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
        let mut server = InferenceServer {
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
            dvfs_scale: 0.0,
            power_scale: 1.0,
        };
        server.refresh_clock();
        server
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
        self.refresh_clock();
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

    /// Re-derives the cached DVFS power scale from the clock inputs
    /// (brake, lock, phase-aware clock, active phase).
    fn refresh_clock(&mut self) {
        self.dvfs_scale = self.dvfs.power_scale(self.clock_ratio());
    }

    /// Instantaneous server power in watts.
    pub fn power_watts(&self) -> f64 {
        let intensity = match &self.state {
            None => HOT_IDLE_INTENSITY,
            Some((_, _, active, _)) => active.intensity,
        };
        self.power_at(intensity, self.dvfs_scale)
    }

    /// The server's class and its `(watts, serving)` draw, as the row's
    /// [`RowWatts`] takes them.
    fn ledger_entry(&self) -> (bool, (f64, bool)) {
        let high = self.priority == Priority::High;
        (high, (self.power_watts(), !self.is_idle()))
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
        // An idle server already runs at the prompt clock, so the
        // cached DVFS scale still holds.
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
        let outcome = match active.phase {
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
                let next = self
                    .buffer
                    .pop_front()
                    .map(|next_req| self.start_request(now, next_req));
                PhaseOutcome::Completed {
                    request: req,
                    started_at,
                    next,
                }
            }
        };
        self.refresh_clock();
        outcome
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
        }
        self.refresh_clock();
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
    span: Box<ReqSpan>,
}

/// The legacy engine's row: its servers, a round-robin dispatch cursor
/// per priority class, the row's power sums (one pool, `aggregated`)
/// and, with request tracing on, the span of each server's request in
/// service.
#[derive(Debug)]
pub(crate) struct LegacyRow {
    servers: Vec<InferenceServer>,
    /// Where the next idle-server search starts, `[low, high]`.
    cursors: [usize; 2],
    watts: RowWatts,
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
        for s in &mut servers {
            s.set_power_scale(power_scale);
        }
        let watts = RowWatts::new(servers.iter().map(|s| {
            let (high, draw) = s.ledger_entry();
            (high, PoolRole::Aggregated, draw)
        }));
        let spans = if trace_requests {
            vec![None; servers.len()]
        } else {
            Vec::new()
        };
        LegacyRow {
            servers,
            cursors: [0, 0],
            watts,
            spans,
        }
    }

    /// The row's servers.
    pub(crate) fn servers(&self) -> &[InferenceServer] {
        &self.servers
    }

    /// The row's power sums.
    #[inline]
    pub(crate) fn watts(&self) -> &RowWatts {
        &self.watts
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
    /// class with space, else it is rejected. Returns the admission and
    /// the server (0 on rejection); a started request's wake goes to
    /// `out`.
    #[inline]
    pub(crate) fn on_arrival(
        &mut self,
        now: SimTime,
        req: Request,
        out: &mut ServeOutcome<Request>,
    ) -> (AdmissionKind, usize) {
        let n = self.servers.len();
        let cursor = &mut self.cursors[class(req.priority)];
        let start = *cursor;
        let idle = (0..n)
            .map(|off| (start + off) % n)
            .find(|&i| self.servers[i].priority() == req.priority && self.servers[i].is_idle());
        if let Some(i) = idle {
            *cursor = (i + 1) % n;
            let (at, version) = self.change(now, i, |s| s.start_request(now, req));
            self.open_span(now, i);
            out.wakes.push((i, at, version));
            return (AdmissionKind::Started, i);
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
        (kind, target.unwrap_or(0))
    }

    /// Handles server `server`'s phase end, appending its completion
    /// and next wake to `out`; a stale `version` (the phase was
    /// rescheduled since) does nothing.
    #[inline]
    pub(crate) fn on_wake(
        &mut self,
        now: SimTime,
        server: usize,
        version: u64,
        out: &mut ServeOutcome<Request>,
    ) {
        match self.change(now, server, |s| s.on_phase_end(now, version)) {
            PhaseOutcome::Ignored => {}
            PhaseOutcome::TokenStarted { end_at, version } => {
                // Under the whole-request model the first output token
                // becomes available when the prompt phase ends.
                if let Some(Some(open)) = self.spans.get_mut(server) {
                    open.span.prefill_s = now.saturating_sub(open.started).as_secs();
                    open.span.first_token_s = Some(now.as_secs());
                }
                out.wakes.push((server, end_at, version));
            }
            PhaseOutcome::Completed {
                request,
                started_at,
                next,
            } => {
                let span = self
                    .spans
                    .get_mut(server)
                    .and_then(Option::take)
                    .map(|open| {
                        let mut span = open.span;
                        if let Some(first) = span.first_token_s {
                            span.decode_s = (now.as_secs() - first).max(0.0);
                            span.last_token_s = Some(now.as_secs());
                        }
                        span
                    });
                out.completions.push(Completion {
                    payload: request,
                    server,
                    started_at,
                    span,
                });
                if let Some((at, version)) = next {
                    // A buffered request was dequeued and started.
                    self.open_span(now, server);
                    out.wakes.push((server, at, version));
                }
            }
        }
    }

    /// Applies a delivered OOB control action to `server`, appending
    /// its rescheduled wake to `out`.
    #[inline]
    pub(crate) fn apply_action(
        &mut self,
        now: SimTime,
        server: usize,
        action: ControlAction,
        out: &mut ServeOutcome<Request>,
    ) {
        if let Some((at, version)) = self.change(now, server, |s| s.apply_action(now, action)) {
            out.wakes.push((server, at, version));
        }
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
        let (high, before) = server.ledger_entry();
        if let Some(Some(open)) = self.spans.get_mut(idx) {
            open.span.joules += before.0 * now.saturating_sub(open.charged_to).as_secs();
            open.charged_to = now;
        }
        let out = f(server);
        let (_, after) = server.ledger_entry();
        self.watts.change(high, PoolRole::Aggregated, before, after);
        out
    }

    /// Opens a span for the request that just entered service on
    /// server `idx` (no-op unless request tracing is on).
    fn open_span(&mut self, now: SimTime, idx: usize) {
        if let Some(slot) = self.spans.get_mut(idx) {
            *slot = Some(OpenSpan {
                started: now,
                charged_to: now,
                span: Box::default(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_gpu::GpuSpec;
    use polca_llm::ModelSpec;
    use polca_sim::SimRng;

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
            PhaseOutcome::Completed {
                request,
                started_at,
                next,
            } => {
                assert_eq!(request.id, 1);
                assert!(next.is_none());
                assert_eq!(started_at, SimTime::ZERO);
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

    /// Seeded arrivals, phase ends (stale ones included), locks,
    /// unlocks and brakes, with the phase-aware clock off, on, and
    /// switched mid-run: after every step the cached DVFS scale equals
    /// a fresh `power_scale` at the current clock, bit for bit.
    #[test]
    fn cached_dvfs_scale_tracks_every_clock_change() {
        let mut rng = SimRng::from_seed_stream(5, 0);
        let mut counts = [0u32; 5];
        for phase_aware in [None, Some(1110.0)] {
            let mut s = server(Priority::Low);
            s.set_phase_aware(phase_aware);
            let mut now = SimTime::ZERO;
            let mut wakes: Vec<(SimTime, u64)> = Vec::new();
            for step in 0..3_000 {
                let kind = rng.uniform_u64(0, 4) as usize;
                match kind {
                    0 => {
                        let request = Request::new(step, now, 512, 64, Priority::Low);
                        if s.is_idle() {
                            wakes.push(s.start_request(now, request));
                        } else {
                            s.enqueue(request);
                        }
                    }
                    1 => {
                        let Some(i) = (0..wakes.len()).min_by_key(|&i| wakes[i].0) else {
                            continue;
                        };
                        let (at, version) = wakes.swap_remove(i);
                        now = now.max(at);
                        match s.on_phase_end(now, version) {
                            PhaseOutcome::TokenStarted { end_at, version } => {
                                wakes.push((end_at, version));
                            }
                            PhaseOutcome::Completed {
                                next: Some(next), ..
                            } => wakes.push(next),
                            _ => {}
                        }
                    }
                    2 => {
                        let action = match rng.uniform_u64(0, 3) {
                            0 => ControlAction::LockClock {
                                mhz: rng.uniform(210.0, 1410.0),
                            },
                            1 => ControlAction::UnlockClock,
                            on => ControlAction::PowerBrake { on: on == 2 },
                        };
                        wakes.extend(s.apply_action(now, action));
                    }
                    3 => s.set_phase_aware(
                        [None, Some(900.0), Some(1110.0)][rng.uniform_u64(0, 2) as usize],
                    ),
                    _ => now += SimTime::from_secs(rng.exponential(0.5)),
                }
                counts[kind] += 1;
                let fresh = s.dvfs.power_scale(s.clock_ratio());
                assert_eq!(s.dvfs_scale.to_bits(), fresh.to_bits(), "step {step}");
            }
        }
        assert!(counts.iter().all(|&n| n > 500), "{counts:?}");
    }

    /// Asserts that `row`'s ledger matches its servers recounted from
    /// scratch, within 1e-9 of the row's total draw.
    fn assert_ledger_matches_servers(row: &LegacyRow, step: u64) {
        let want = RowWatts::new(row.servers.iter().map(|s| {
            let (high, draw) = s.ledger_entry();
            (high, PoolRole::Aggregated, draw)
        }));
        let got = row.watts();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * want.total();
        assert!(
            close(got.total(), want.total()),
            "step {step}: {got:?} vs {want:?}"
        );
        assert!(
            close(got.busy(), want.busy()),
            "step {step}: {got:?} vs {want:?}"
        );
        for (a, b) in got.class().into_iter().zip(want.class()) {
            assert!(close(a, b), "step {step}: {got:?} vs {want:?}");
        }
        let (mut got_pools, mut want_pools) = (Vec::new(), Vec::new());
        got.write_pools(&mut got_pools);
        want.write_pools(&mut want_pools);
        assert_eq!(got_pools.len(), want_pools.len());
        for ((tag_a, a), (tag_b, b)) in got_pools.into_iter().zip(want_pools) {
            assert!(
                tag_a == tag_b && close(a, b),
                "step {step}: {got:?} vs {want:?}"
            );
        }
    }

    /// Seeded random arrivals, phase ends (stale ones included), clock
    /// locks and brakes on a traced 8-server row: after every operation
    /// the incremental ledger equals a recount.
    #[test]
    fn power_ledger_matches_the_servers_after_every_operation() {
        let mut config = RowConfig::paper_inference_row();
        config.base_servers = 8;
        let mut row = LegacyRow::new(&config, 1.05, true);
        let mut rng = SimRng::from_seed_stream(3, 0);
        let mut out = ServeOutcome::default();
        let mut wakes: Vec<(SimTime, usize, u64)> = Vec::new();
        // The time of the next arrival or control action.
        let mut external = SimTime::ZERO;
        let (mut completed, mut actions) = (0, 0);
        for step in 0..4_000 {
            let wake = wakes.iter().map(|w| w.0).min();
            if wake.is_some_and(|w| w <= external) {
                let pos = wakes.iter().position(|w| Some(w.0) == wake).unwrap();
                let (at, server, version) = wakes.swap_remove(pos);
                row.on_wake(at, server, version, &mut out);
            } else {
                if rng.chance(0.8) {
                    let input = rng.uniform_u64(128, 2048) as u32;
                    let output = rng.uniform_u64(16, 256) as u32;
                    let priority = Priority::all()[rng.uniform_u64(0, 1) as usize];
                    let req = Request::new(step, external, input, output, priority);
                    row.on_arrival(external, req, &mut out);
                } else {
                    let action = match rng.uniform_u64(0, 3) {
                        0 => ControlAction::LockClock {
                            mhz: rng.uniform(210.0, 1410.0),
                        },
                        1 => ControlAction::UnlockClock,
                        on => ControlAction::PowerBrake { on: on == 2 },
                    };
                    let server = rng.uniform_u64(0, 7) as usize;
                    row.apply_action(external, server, action, &mut out);
                    actions += 1;
                }
                external += SimTime::from_secs(rng.exponential(1.0));
            }
            wakes.extend(out.wakes.drain(..).map(|(s, at, v)| (at, s, v)));
            completed += out.completions.drain(..).count();
            assert_ledger_matches_servers(&row, step);
        }
        assert!(
            completed > 100 && actions > 100,
            "{completed} completed, {actions} actions"
        );
    }
}
