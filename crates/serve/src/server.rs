//! One batched server: a continuous batch advanced in fluid iteration
//! epochs over a paged KV-cache.
//!
//! Instead of scheduling one event per model iteration (tens of
//! milliseconds of simulated time each), the server computes the
//! current batch composition once, derives the iteration latency,
//! power intensity, and per-sequence progress rates from
//! [`InferenceModel::iteration_profile`], and then advances *fluidly*
//! until the earliest composition change: a prefill chunk finishing, a
//! sequence emitting its last token, or the KV pool running dry. Each
//! of those boundaries is computed in closed form, so the discrete
//! event count stays proportional to requests, not tokens.

use std::collections::VecDeque;

use polca_gpu::{DvfsModel, ServerSpec, HOT_IDLE_INTENSITY};
use polca_llm::{BatchComposition, InferenceModel};
use polca_obs::{Phase, ProfCounter, Profiler, ReqSpan};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::config::ServeConfig;
use crate::pager::{KvPager, TOKEN_EPS};
use crate::row::BatchedRowParams;

/// Which serving phase(s) a server accepts under its row's
/// [`PoolTopology`](crate::PoolTopology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolRole {
    /// Runs prefill and decode on the same machine.
    Aggregated,
    /// Dedicated prefill pool: finished prompts hand their KV-cache
    /// off over the interconnect.
    Prefill,
    /// Dedicated decode pool: receives transferred KV and generates.
    Decode,
}

impl PoolRole {
    /// Stable lowercase tag for metrics labels.
    pub fn tag(self) -> &'static str {
        match self {
            PoolRole::Aggregated => "aggregated",
            PoolRole::Prefill => "prefill",
            PoolRole::Decode => "decode",
        }
    }
}

/// The continuous-batching admission policy: how many sequences may
/// run at once, how prompt prefill is chunked, and how the per-
/// iteration token budget is shared between prefill and decode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchScheduler {
    /// Maximum running sequences per server (prefilling + decoding).
    pub max_batch: usize,
    /// Maximum prompt tokens prefilled per iteration.
    pub chunk_tokens: u32,
    /// Token budget per iteration across prefill and decode.
    pub iteration_budget_tokens: u32,
    /// Waiting-queue depth before arrivals are rejected.
    pub max_waiting: usize,
}

impl BatchScheduler {
    /// The scheduler described by `cfg`.
    pub fn from_config(cfg: &ServeConfig) -> Self {
        BatchScheduler {
            max_batch: cfg.max_batch,
            chunk_tokens: cfg.chunk_tokens,
            iteration_budget_tokens: cfg.iteration_budget_tokens,
            max_waiting: cfg.max_waiting,
        }
    }

    /// Prompt tokens to prefill per iteration given the head
    /// sequence's remaining prompt and the decode batch sharing the
    /// iteration: the chunk size, shrunk so prefill plus one decode
    /// token per running sequence fits the iteration budget (always at
    /// least one token, so prefill cannot starve).
    pub fn chunk_for(&self, prefill_remaining: f64, decode_seqs: u32) -> u32 {
        if prefill_remaining <= TOKEN_EPS {
            return 0;
        }
        let budget_left = self
            .iteration_budget_tokens
            .saturating_sub(decode_seqs)
            .max(1);
        (prefill_remaining.ceil() as u32)
            .min(self.chunk_tokens)
            .min(budget_left)
            .max(1)
    }
}

/// One request's serving state. `payload` is the caller's opaque
/// request record, returned untouched on completion.
#[derive(Debug, Clone)]
pub(crate) struct Seq<T> {
    pub payload: T,
    pub id: u64,
    pub input_tokens: u32,
    pub output_tokens: u32,
    /// Priority class (`true` = high); KV transfers stay in-class.
    pub high_priority: bool,
    /// When the sequence first entered service (its original prefill
    /// admission); preserved across preemption and KV transfer.
    pub started_at: Option<SimTime>,
    /// Prompt tokens this admission must prefill (the full prompt, or
    /// prompt + generated-so-far after a recompute preemption).
    pub prefill_total: f64,
    pub prefill_done: f64,
    /// Tokens generated so far (survives preemption: the recompute
    /// prefill regenerates their KV, then decode resumes here).
    pub decoded: f64,
    /// KV entries resident on this server.
    pub kv_tokens: f64,
    /// KV blocks held from the server's pager.
    pub blocks: u32,
    /// polca-req lifecycle accumulator. Write-only from the engine's
    /// perspective — scheduling never reads it, so tracing cannot
    /// perturb outcomes.
    pub trace: ReqSpan,
}

impl<T> Seq<T> {
    pub fn fresh(
        payload: T,
        id: u64,
        input_tokens: u32,
        output_tokens: u32,
        high_priority: bool,
    ) -> Self {
        Seq {
            payload,
            id,
            input_tokens,
            output_tokens,
            high_priority,
            started_at: None,
            prefill_total: input_tokens as f64,
            prefill_done: 0.0,
            decoded: 0.0,
            kv_tokens: 0.0,
            blocks: 0,
            trace: ReqSpan::default(),
        }
    }

    fn is_prefilling(&self) -> bool {
        self.prefill_done + TOKEN_EPS < self.prefill_total
    }

    /// KV tokens that must be resident once this admission's prefill
    /// completes, plus one decode token — the up-front allocation.
    fn admission_tokens(&self) -> f64 {
        self.prefill_total.max(self.kv_tokens) + 1.0
    }
}

/// A finished request leaving the engine.
#[derive(Debug, Clone)]
pub struct Completion<T> {
    /// The caller's request record, returned untouched.
    pub payload: T,
    /// Server that generated the final token.
    pub server: usize,
    /// When the request first entered service (prefill start).
    pub started_at: SimTime,
    /// The accumulated polca-req lifecycle span.
    pub span: ReqSpan,
}

/// Everything one engine operation produced for one server.
#[derive(Debug)]
pub(crate) struct PumpResult<T> {
    pub completions: Vec<Completion<T>>,
    /// Sequences that finished prefill on a prefill-pool server and
    /// now need a KV transfer to a decode server.
    pub handoffs: Vec<Seq<T>>,
    pub preemptions: u64,
    /// New `(at, version)` wake for this server; `None` keeps any
    /// previously scheduled wake (version unchanged) or means idle.
    pub wake: Option<(SimTime, u64)>,
}

impl<T> Default for PumpResult<T> {
    fn default() -> Self {
        PumpResult {
            completions: Vec::new(),
            handoffs: Vec::new(),
            preemptions: 0,
            wake: None,
        }
    }
}

/// One server of the batched row.
#[derive(Debug, Clone)]
pub(crate) struct BatchServer<T> {
    pub id: usize,
    pub high_priority: bool,
    pub role: PoolRole,
    pub sched: BatchScheduler,
    pager: KvPager,
    waiting: VecDeque<Seq<T>>,
    prefilling: VecDeque<Seq<T>>,
    decoding: Vec<Seq<T>>,

    deployment: InferenceModel,
    spec: ServerSpec,
    dvfs: DvfsModel,
    locked_mhz: Option<f64>,
    pool_clock_mhz: Option<f64>,
    brake: bool,

    /// Start of the current fluid epoch.
    epoch_start: SimTime,
    /// Wall seconds per iteration under the current composition and
    /// clock (infinite when idle).
    iter_s: f64,
    /// Prompt tokens prefilled per iteration in the current epoch.
    prefill_per_iter: f64,
    /// Monotone guard against stale wake events.
    pub version: u64,

    /// Workload intensity of the current composition.
    intensity: f64,
    /// Cached instantaneous server power.
    pub power_watts: f64,
    /// Study-wide power multiplier.
    power_scale: f64,
}

impl<T> BatchServer<T> {
    /// Server `id` of `params`' row, in pool `role` (a decode server
    /// runs under `pool_clock_mhz`, when set).
    pub fn new(
        id: usize,
        role: PoolRole,
        sched: BatchScheduler,
        pager: KvPager,
        pool_clock_mhz: Option<f64>,
        params: &BatchedRowParams,
    ) -> Self {
        let mut server = BatchServer {
            id,
            high_priority: params.classes[id],
            role,
            sched,
            pager,
            waiting: VecDeque::new(),
            prefilling: VecDeque::new(),
            decoding: Vec::new(),
            deployment: params.deployment.clone(),
            spec: params.spec.clone(),
            dvfs: DvfsModel::default(),
            locked_mhz: None,
            pool_clock_mhz,
            brake: false,
            epoch_start: SimTime::ZERO,
            iter_s: f64::INFINITY,
            prefill_per_iter: 0.0,
            version: 0,
            intensity: 0.0,
            power_watts: 0.0,
            power_scale: params.power_scale,
        };
        server.refresh_power();
        server
    }

    pub fn running(&self) -> usize {
        self.prefilling.len() + self.decoding.len()
    }

    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Routing load: everything queued or running here.
    pub fn load(&self) -> usize {
        self.running() + self.waiting.len()
    }

    pub fn has_waiting(&self, id: u64) -> bool {
        self.waiting.iter().any(|s| s.id == id)
    }

    /// Whether a request needing `tokens` KV entries can ever run here.
    pub fn fits(&self, tokens: f64) -> bool {
        self.pager.blocks_for_tokens(tokens) <= self.pager.total_blocks()
    }

    pub fn push_waiting(&mut self, seq: Seq<T>) {
        self.waiting.push_back(seq);
    }

    /// Enqueues a KV-transferred sequence (bypasses the waiting cap:
    /// its prefill work is already spent).
    pub fn push_transfer(&mut self, seq: Seq<T>) {
        self.waiting.push_back(seq);
    }

    /// The SM clock honoring brake > lock > pool clock > max.
    pub fn effective_clock_mhz(&self) -> f64 {
        self.spec
            .gpu
            .clock_mhz(self.brake, self.locked_mhz, self.pool_clock_mhz)
    }

    fn clock_ratio(&self) -> f64 {
        (self.effective_clock_mhz() / self.spec.gpu.max_sm_clock_mhz).clamp(1e-3, 1.0)
    }

    /// Recomputes the cached instantaneous power from the current
    /// composition's intensity (hot-idle when the batch is empty).
    fn refresh_power(&mut self) {
        let intensity = if self.running() == 0 {
            HOT_IDLE_INTENSITY
        } else {
            self.intensity
        };
        let dvfs_scale = self.dvfs.power_scale(self.clock_ratio());
        self.power_watts = self
            .spec
            .power_watts(self.deployment.n_gpus(), intensity, dvfs_scale)
            * self.power_scale;
    }

    /// Advances fluid progress from `epoch_start` to `now` at the
    /// current epoch's rates, growing decode KV allocations and
    /// preempting the youngest sequences if the pool runs dry.
    /// Returns the number of preemptions.
    fn advance_to(&mut self, now: SimTime, prof: &Profiler) -> u64 {
        let t0 = self.epoch_start.as_secs();
        let dt = now.saturating_sub(self.epoch_start).as_secs();
        self.epoch_start = now;
        if dt <= 0.0 || self.running() == 0 || !self.iter_s.is_finite() {
            return 0;
        }
        let iters = dt / self.iter_s;

        // polca-req energy attribution: this epoch burned
        // `power_watts × dt` joules (the power cached at the last
        // recompute, so a capped or braked epoch is priced at its
        // slowed draw). Split it across the batch in proportion to
        // token progress — the requests inside a brake-slowed
        // iteration visibly pay for it.
        let prefill_adv = self
            .prefilling
            .front()
            .map(|h| (iters * self.prefill_per_iter).min(h.prefill_total - h.prefill_done))
            .unwrap_or(0.0);
        let decode_adv: f64 = self
            .decoding
            .iter()
            .map(|s| iters.min((s.output_tokens as f64 - s.decoded).max(0.0)))
            .sum();
        let advanced = prefill_adv + decode_adv;
        let joules_per_token = if advanced > TOKEN_EPS {
            self.power_watts * dt / advanced
        } else {
            0.0
        };

        if let Some(head) = self.prefilling.front_mut() {
            let adv = (iters * self.prefill_per_iter).min(head.prefill_total - head.prefill_done);
            head.prefill_done += adv;
            head.kv_tokens += adv;
            head.trace.joules += adv * joules_per_token;
            if head.trace.preemptions > 0 {
                head.trace.recompute_s += dt;
            } else {
                head.trace.prefill_s += dt;
            }
        }
        for seq in &mut self.decoding {
            let before = seq.decoded;
            let adv = iters.min((seq.output_tokens as f64 - seq.decoded).max(0.0));
            seq.decoded += adv;
            seq.kv_tokens += adv;
            if adv > 0.0 {
                seq.trace.joules += adv * joules_per_token;
                seq.trace.decode_s += dt;
                if seq.trace.first_token_s.is_none() && seq.decoded + TOKEN_EPS >= 1.0 {
                    // The first token crossed inside this epoch; it
                    // completed after the fraction of an iteration it
                    // still needed.
                    seq.trace.first_token_s = Some(t0 + (1.0 - before).max(0.0) * self.iter_s);
                }
                if let Some(prev) = seq.trace.last_token_s {
                    // The gap spanning the epoch boundary: the first
                    // token of this epoch lands one iteration in.
                    seq.trace.tbt_max_s = seq.trace.tbt_max_s.max(t0 + self.iter_s - prev);
                }
                if adv > 1.0 {
                    seq.trace.tbt_max_s = seq.trace.tbt_max_s.max(self.iter_s);
                }
                seq.trace.last_token_s = Some(t0 + adv * self.iter_s);
            }
        }

        let _g = prof.time(Phase::ServeKvAlloc);
        let mut preempted = 0;
        loop {
            let need: u32 = self
                .decoding
                .iter()
                .map(|s| {
                    self.pager
                        .blocks_for_tokens(s.kv_tokens)
                        .saturating_sub(s.blocks)
                })
                .sum();
            if need <= self.pager.free_blocks() {
                break;
            }
            // KV exhaustion: preempt the youngest running sequence —
            // free its blocks, remember its generated tokens, and
            // recompute its prefill when it is next admitted.
            let mut victim = self.decoding.pop().expect("KV exhaustion with empty batch");
            self.pager.free(victim.blocks);
            victim.blocks = 0;
            victim.prefill_total = victim.input_tokens as f64 + victim.decoded;
            victim.prefill_done = 0.0;
            victim.kv_tokens = 0.0;
            victim.trace.preemptions += 1;
            victim.trace.recompute_tokens += victim.prefill_total;
            self.waiting.push_front(victim);
            preempted += 1;
        }
        for seq in &mut self.decoding {
            let need = self
                .pager
                .blocks_for_tokens(seq.kv_tokens)
                .saturating_sub(seq.blocks);
            if need > 0 {
                let ok = self.pager.try_alloc(need);
                debug_assert!(ok, "growth allocation after preemption must fit");
                seq.blocks += need;
            }
        }
        prof.record_max(
            ProfCounter::ServeKvPeakBlocks,
            self.pager.used_blocks() as u64,
        );
        if preempted > 0 {
            prof.count(ProfCounter::ServePreemptions, preempted);
        }
        preempted
    }

    /// Processes composition boundaries reached by `advance_to`:
    /// finished prefills move to decode (or hand off on a prefill-pool
    /// server), finished decodes complete and free their KV.
    fn boundaries(&mut self, result: &mut PumpResult<T>) {
        while let Some(head) = self.prefilling.front() {
            if head.is_prefilling() {
                break;
            }
            let mut seq = self.prefilling.pop_front().expect("checked front");
            seq.prefill_done = seq.prefill_total;
            seq.kv_tokens = seq.kv_tokens.max(seq.prefill_total);
            if self.role == PoolRole::Prefill {
                self.pager.free(seq.blocks);
                seq.blocks = 0;
                result.handoffs.push(seq);
            } else {
                self.decoding.push(seq);
            }
        }
        let mut i = 0;
        while i < self.decoding.len() {
            if self.decoding[i].decoded + TOKEN_EPS >= self.decoding[i].output_tokens as f64 {
                let seq = self.decoding.remove(i);
                self.pager.free(seq.blocks);
                result.completions.push(Completion {
                    payload: seq.payload,
                    server: self.id,
                    started_at: seq.started_at.expect("completed without admission"),
                    span: seq.trace,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Admits waiting sequences FCFS while the batch has a slot and
    /// the pager can hold their admission allocation. The head blocks
    /// the queue when it does not fit (no skipping — FCFS within the
    /// server's priority class).
    fn admit(&mut self, now: SimTime, prof: &Profiler) {
        let _g = prof.time(Phase::ServeSchedule);
        while self.running() < self.sched.max_batch {
            let Some(head) = self.waiting.front() else {
                break;
            };
            let need = self.pager.blocks_for_tokens(head.admission_tokens());
            let allocated = {
                let _a = prof.time(Phase::ServeKvAlloc);
                self.pager.try_alloc(need)
            };
            if !allocated {
                break;
            }
            let mut seq = self.waiting.pop_front().expect("checked front");
            seq.blocks = need;
            seq.started_at.get_or_insert(now);
            if seq.is_prefilling() {
                self.prefilling.push_back(seq);
            } else {
                self.decoding.push(seq);
            }
        }
        prof.record_max(ProfCounter::ServePeakBatch, self.running() as u64);
        prof.record_max(
            ProfCounter::ServeKvPeakBlocks,
            self.pager.used_blocks() as u64,
        );
    }

    /// Recomputes the epoch from the current composition: iteration
    /// profile, DVFS-slowed iteration time, per-sequence rates, cached
    /// power, and the earliest boundary. Always bumps the wake
    /// version, so any previously scheduled wake goes stale.
    fn recompute(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        self.epoch_start = now;
        self.version += 1;
        let d = self.decoding.len() as u32;
        let prefill_remaining = self
            .prefilling
            .front()
            .map(|s| s.prefill_total - s.prefill_done)
            .unwrap_or(0.0);
        let p = self.sched.chunk_for(prefill_remaining, d);
        if p == 0 && d == 0 {
            self.iter_s = f64::INFINITY;
            self.prefill_per_iter = 0.0;
            self.intensity = 0.0;
            self.refresh_power();
            return None;
        }
        let profile = self.deployment.iteration_profile(&BatchComposition {
            prefill_tokens: p,
            decode_seqs: d,
        });
        let slowdown = self
            .dvfs
            .slowdown(self.clock_ratio(), profile.compute_fraction);
        self.iter_s = profile.duration_s * slowdown;
        self.prefill_per_iter = p as f64;
        debug_assert!(
            (0.0..=1.0).contains(&profile.intensity),
            "iteration intensity {} outside [0, 1]",
            profile.intensity
        );
        self.intensity = profile.intensity;
        self.refresh_power();

        let mut iters = f64::INFINITY;
        if p > 0 {
            iters = iters.min(prefill_remaining / p as f64);
        }
        for seq in &self.decoding {
            iters = iters.min((seq.output_tokens as f64 - seq.decoded).max(TOKEN_EPS));
        }
        if d > 0 {
            let bound = iters.ceil().max(1.0) as u64;
            if let Some(n) = self.exhaustion_iters(bound) {
                iters = iters.min(n as f64);
            }
        }
        debug_assert!(iters.is_finite() && iters > 0.0);
        let wake = now + SimTime::from_secs(iters * self.iter_s);
        Some((wake, self.version))
    }

    /// The earliest whole iteration count (≤ `bound`) at which decode
    /// KV growth would exceed the free pool, found by binary search
    /// (block demand is monotone in the iteration count).
    fn exhaustion_iters(&self, bound: u64) -> Option<u64> {
        let free = self.pager.free_blocks();
        let need_at = |n: f64| -> u32 {
            self.decoding
                .iter()
                .map(|s| {
                    let adv = n.min((s.output_tokens as f64 - s.decoded).max(0.0));
                    self.pager
                        .blocks_for_tokens(s.kv_tokens + adv)
                        .saturating_sub(s.blocks)
                })
                .sum()
        };
        if need_at(bound as f64) <= free {
            return None;
        }
        let (mut lo, mut hi) = (1u64, bound);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if need_at(mid as f64) > free {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Full service cycle at `now`: advance fluid progress, process
    /// boundaries, admit from the waiting queue, re-derive the epoch.
    pub fn pump(&mut self, now: SimTime, prof: &Profiler, result: &mut PumpResult<T>) {
        result.preemptions += self.advance_to(now, prof);
        self.boundaries(result);
        self.admit(now, prof);
        result.wake = self.recompute(now);
    }

    /// Whether `version` is the server's live wake.
    pub fn wake_is_live(&self, version: u64) -> bool {
        self.version == version
    }

    /// Applies a delivered OOB control action. Progress is advanced at
    /// the old rates first; if the effective clock changed, the epoch
    /// is re-derived (legacy `remaining-work` rescaling falls out of
    /// the fluid model). Cap actions are accepted and ignored, like
    /// the legacy server.
    pub fn apply_action(
        &mut self,
        now: SimTime,
        action: ControlAction,
        prof: &Profiler,
        result: &mut PumpResult<T>,
    ) {
        result.preemptions += self.advance_to(now, prof);
        let before = self.effective_clock_mhz();
        match action {
            ControlAction::LockClock { mhz } => {
                self.locked_mhz = Some(self.spec.gpu.clamp_clock(mhz));
            }
            ControlAction::UnlockClock => self.locked_mhz = None,
            ControlAction::PowerBrake { on } => self.brake = on,
            ControlAction::PowerCap { .. } | ControlAction::ClearPowerCap => {}
        }
        if (self.effective_clock_mhz() - before).abs() > f64::EPSILON {
            self.boundaries(result);
            self.admit(now, prof);
            result.wake = self.recompute(now);
        }
    }

    /// Mean KV occupancy of this server's pager.
    pub fn kv_occupancy(&self) -> f64 {
        self.pager.occupancy()
    }
}
