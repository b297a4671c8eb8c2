//! One batched server: a continuous batch advanced in fluid iteration
//! epochs over a paged KV-cache.
//!
//! Instead of scheduling one event per model iteration (tens of
//! milliseconds of simulated time each), the server computes the
//! current batch composition once, derives the iteration latency,
//! power intensity, and per-sequence progress rates from
//! [`InferenceModel::iteration_profile`](polca_llm::InferenceModel::iteration_profile),
//! and then advances *fluidly*
//! until the earliest composition change: a prefill chunk finishing, a
//! sequence emitting its last token, or the KV pool running dry. Each
//! of those boundaries is computed in closed form, so the discrete
//! event count stays proportional to requests, not tokens.
//!
//! Each sequence's polca-req span is kept only when the row traces
//! requests (the req plane is on), as the legacy engine's row keeps its
//! per-server spans. Scheduling never reads a span, so with tracing off
//! the engine skips the span arithmetic altogether and every outcome
//! stays bit-identical.

use std::collections::VecDeque;
use std::sync::Arc;

use polca_gpu::{DvfsModel, ServerSpec, HOT_IDLE_INTENSITY};
use polca_obs::{Phase, ProfCounter, Profiler, ReqSpan};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::config::ServeConfig;
use crate::pager::{ceil_u32, KvPager, TOKEN_EPS};
use crate::profile::ProfileTable;
use crate::row::{BatchedRowParams, ServeOutcome};

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
        ceil_u32(prefill_remaining).min(self.full_chunk(decode_seqs))
    }

    /// The chunk a prompt with at least that much left prefills beside
    /// `decode_seqs` decoding sequences (at least one token).
    pub(crate) fn full_chunk(&self, decode_seqs: u32) -> u32 {
        let budget_left = self
            .iteration_budget_tokens
            .saturating_sub(decode_seqs)
            .max(1);
        self.chunk_tokens.min(budget_left).max(1)
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
    /// polca-req lifecycle accumulator, present only when the row
    /// traces requests (boxed, so an untraced sequence stays small for
    /// the per-epoch walks over the batch). Write-only from the
    /// engine's perspective — scheduling never reads it, so tracing
    /// cannot perturb outcomes.
    pub trace: Option<Box<ReqSpan>>,
}

impl<T> Seq<T> {
    /// A sequence that has not entered service, with a span when
    /// `traced`.
    pub fn fresh(
        payload: T,
        id: u64,
        input_tokens: u32,
        output_tokens: u32,
        high_priority: bool,
        traced: bool,
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
            trace: traced.then(Box::default),
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
    /// The accumulated polca-req lifecycle span, present only when the
    /// row traces requests.
    pub span: Option<Box<ReqSpan>>,
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
    /// Sequences that finished prefill on a prefill-pool server, waiting
    /// for the row to ship their KV to a decode server.
    pub handoffs: Vec<Seq<T>>,
    /// Whether the row traces requests: then the epoch's energy is
    /// split across the batch's spans.
    trace_requests: bool,

    /// The row's memoised iteration profiles (and its deployment).
    profiles: Arc<ProfileTable>,
    spec: ServerSpec,
    dvfs: DvfsModel,
    locked_mhz: Option<f64>,
    pool_clock_mhz: Option<f64>,
    brake: bool,
    /// SM clock over the maximum, clamped to `[1e-3, 1]`: a function of
    /// the clock inputs above, refreshed only when they change.
    clock_ratio: f64,
    /// DVFS power multiplier at `clock_ratio`.
    dvfs_scale: f64,

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
    /// runs under `pool_clock_mhz`, when set), reading iteration
    /// profiles from the row's `profiles`.
    pub fn new(
        id: usize,
        role: PoolRole,
        sched: BatchScheduler,
        pager: KvPager,
        pool_clock_mhz: Option<f64>,
        params: &BatchedRowParams,
        profiles: Arc<ProfileTable>,
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
            handoffs: Vec::new(),
            trace_requests: params.trace_requests,
            profiles,
            spec: params.spec.clone(),
            dvfs: DvfsModel::default(),
            locked_mhz: None,
            pool_clock_mhz,
            brake: false,
            clock_ratio: 1.0,
            dvfs_scale: 1.0,
            epoch_start: SimTime::ZERO,
            iter_s: f64::INFINITY,
            prefill_per_iter: 0.0,
            version: 0,
            intensity: 0.0,
            power_watts: 0.0,
            power_scale: params.power_scale,
        };
        server.refresh_clock();
        server.refresh_power();
        server
    }

    pub fn running(&self) -> usize {
        self.prefilling.len() + self.decoding.len()
    }

    /// The server's draw as [`RowWatts::change`](crate::RowWatts::change)
    /// folds it: `(watts, serving)`.
    pub fn draw(&self) -> (f64, bool) {
        (self.power_watts, self.running() > 0)
    }

    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Routing load: everything queued or running here.
    pub fn load(&self) -> usize {
        self.running() + self.waiting.len()
    }

    /// Whether sequence `id` is last in the waiting queue. An arrival
    /// is pushed to the back, and a service cycle only pops the front
    /// (admission) or pushes to it (preemption), so right after one it
    /// says whether that arrival is still waiting.
    pub fn is_last_waiting(&self, id: u64) -> bool {
        self.waiting.back().is_some_and(|s| s.id == id)
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

    /// Re-derives the cached clock ratio and DVFS power scale from the
    /// clock inputs (brake, lock, pool clock).
    fn refresh_clock(&mut self) {
        self.clock_ratio =
            (self.effective_clock_mhz() / self.spec.gpu.max_sm_clock_mhz).clamp(1e-3, 1.0);
        self.dvfs_scale = self.dvfs.power_scale(self.clock_ratio);
    }

    /// Recomputes the cached instantaneous power from the current
    /// composition's intensity (hot-idle when the batch is empty).
    fn refresh_power(&mut self) {
        let intensity = if self.running() == 0 {
            HOT_IDLE_INTENSITY
        } else {
            self.intensity
        };
        self.power_watts = self.spec.power_watts(
            self.profiles.deployment().n_gpus(),
            intensity,
            self.dvfs_scale,
        ) * self.power_scale;
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
        let joules_per_token = if self.trace_requests {
            self.joules_per_token(iters, dt)
        } else {
            0.0
        };

        if let Some(head) = self.prefilling.front_mut() {
            let adv = (iters * self.prefill_per_iter).min(head.prefill_total - head.prefill_done);
            head.prefill_done += adv;
            head.kv_tokens += adv;
            if let Some(span) = head.trace.as_deref_mut() {
                span.joules += adv * joules_per_token;
                if span.preemptions > 0 {
                    span.recompute_s += dt;
                } else {
                    span.prefill_s += dt;
                }
            }
        }
        // Decode progress. A sequence whose KV crossed into new blocks
        // takes them at once while the pool holds them all; from the
        // first that it cannot, the pool is short and the growth waits
        // for the preemptions below. Growing oldest first changes no
        // decision: a victim frees what it grew, so the pool then holds
        // exactly what it would have held had nothing grown yet.
        let mut short = false;
        for seq in &mut self.decoding {
            let before = seq.decoded;
            let adv = iters.min((seq.output_tokens as f64 - seq.decoded).max(0.0));
            seq.decoded += adv;
            seq.kv_tokens += adv;
            let need = self.pager.blocks_to_grow(seq.kv_tokens, seq.blocks);
            if need > 0 {
                if !short && self.pager.try_alloc(need) {
                    seq.blocks += need;
                } else {
                    short = true;
                }
            }
            let Some(span) = seq.trace.as_deref_mut().filter(|_| adv > 0.0) else {
                continue;
            };
            span.joules += adv * joules_per_token;
            span.decode_s += dt;
            if span.first_token_s.is_none() && seq.decoded + TOKEN_EPS >= 1.0 {
                // The first token crossed inside this epoch; it
                // completed after the fraction of an iteration it
                // still needed.
                span.first_token_s = Some(t0 + (1.0 - before).max(0.0) * self.iter_s);
            }
            if let Some(prev) = span.last_token_s {
                // The gap spanning the epoch boundary: the first
                // token of this epoch lands one iteration in.
                span.tbt_max_s = span.tbt_max_s.max(t0 + self.iter_s - prev);
            }
            if adv > 1.0 {
                span.tbt_max_s = span.tbt_max_s.max(self.iter_s);
            }
            span.last_token_s = Some(t0 + adv * self.iter_s);
        }

        let _g = prof.time(Phase::ServeKvAlloc);
        let mut preempted = 0;
        while short && self.decode_need_at(0.0) > self.pager.free_blocks() {
            // KV exhaustion: preempt the youngest running sequence —
            // free its blocks, remember its generated tokens, and
            // recompute its prefill when it is next admitted.
            let mut victim = self.decoding.pop().expect("KV exhaustion with empty batch");
            self.pager.free(victim.blocks);
            victim.blocks = 0;
            victim.prefill_total = victim.input_tokens as f64 + victim.decoded;
            victim.prefill_done = 0.0;
            victim.kv_tokens = 0.0;
            if let Some(span) = victim.trace.as_deref_mut() {
                span.preemptions += 1;
                span.recompute_tokens += victim.prefill_total;
            }
            self.waiting.push_front(victim);
            preempted += 1;
        }
        if short {
            for seq in &mut self.decoding {
                let need = self.pager.blocks_to_grow(seq.kv_tokens, seq.blocks);
                if need > 0 {
                    let ok = self.pager.try_alloc(need);
                    debug_assert!(ok, "growth allocation after preemption must fit");
                    seq.blocks += need;
                }
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

    /// polca-req energy attribution: an epoch of `dt` seconds
    /// (`iters` iterations) burned `power_watts × dt` joules (the power
    /// cached at the last recompute, so a capped or braked epoch is
    /// priced at its slowed draw). It is split across the batch in
    /// proportion to token progress — the requests inside a
    /// brake-slowed iteration visibly pay for it. Returns the joules
    /// per token of progress.
    fn joules_per_token(&self, iters: f64, dt: f64) -> f64 {
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
        if advanced > TOKEN_EPS {
            self.power_watts * dt / advanced
        } else {
            0.0
        }
    }

    /// Processes composition boundaries reached by `advance_to`:
    /// finished prefills move to decode (or to the hand-offs on a
    /// prefill-pool server), finished decodes complete and free their
    /// KV. Completions leave in batch order, and the sequences left
    /// keep theirs (it picks preemption victims).
    fn boundaries(&mut self, out: &mut ServeOutcome<T>) {
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
                self.handoffs.push(seq);
            } else {
                self.decoding.push(seq);
            }
        }
        let finished = self
            .decoding
            .extract_if(.., |s| s.decoded + TOKEN_EPS >= s.output_tokens as f64);
        for seq in finished {
            self.pager.free(seq.blocks);
            out.completions.push(Completion {
                payload: seq.payload,
                server: self.id,
                started_at: seq.started_at.expect("completed without admission"),
                span: seq.trace,
            });
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
        let profile = self.profiles.get(p, d);
        let slowdown = self
            .dvfs
            .slowdown(self.clock_ratio, profile.compute_fraction);
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
            // `iters` is at most a sequence's remaining output tokens.
            let bound = u64::from(ceil_u32(iters)).max(1);
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
        // Every decoding sequence already holds the blocks for its
        // current KV (admission allocates them up front and
        // `advance_to` grows them), and within `bound` iterations its KV
        // grows by at most `bound` tokens: in exact arithmetic, at most
        // ⌈bound / block_tokens⌉ new blocks. `blocks_for_tokens` rounds
        // `kv + adv − ε` and its quotient, and the held count was itself
        // reached through rounded quotients; together those errors are a
        // few ulps of the token count, far below one block, so they can
        // lift the ceiling across one more integer at most: +1. The
        // second +1 is margin, so the test needs no error bound tighter
        // than "under one block". A batch that fits the free pool at
        // that rate cannot run dry within `bound`.
        let per_seq = bound
            .div_ceil(u64::from(self.pager.block_tokens()))
            .saturating_add(2);
        if (self.decoding.len() as u64).saturating_mul(per_seq) <= u64::from(free) {
            debug_assert!(self.decode_need_at(bound as f64) <= free);
            return None;
        }
        if self.decode_need_at(bound as f64) <= free {
            return None;
        }
        let (mut lo, mut hi) = (1u64, bound);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.decode_need_at(mid as f64) > free {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// New KV blocks the decode batch needs after `n` more iterations.
    fn decode_need_at(&self, n: f64) -> u32 {
        self.decoding
            .iter()
            .map(|s| {
                let adv = n.min((s.output_tokens as f64 - s.decoded).max(0.0));
                self.pager.blocks_to_grow(s.kv_tokens + adv, s.blocks)
            })
            .sum()
    }

    /// Full service cycle at `now`: advance fluid progress, then
    /// [`serve`](Self::serve).
    pub fn pump(&mut self, now: SimTime, prof: &Profiler, out: &mut ServeOutcome<T>) {
        out.preemptions += self.advance_to(now, prof);
        self.serve(now, prof, out);
    }

    /// Processes boundaries, admits from the waiting queue and
    /// re-derives the epoch, appending the server's new wake.
    fn serve(&mut self, now: SimTime, prof: &Profiler, out: &mut ServeOutcome<T>) {
        self.boundaries(out);
        self.admit(now, prof);
        if let Some((at, version)) = self.recompute(now) {
            out.wakes.push((self.id, at, version));
        }
    }

    /// Whether `version` is the server's live wake.
    pub fn wake_is_live(&self, version: u64) -> bool {
        self.version == version
    }

    /// Applies a delivered OOB control action. Progress is advanced at
    /// the old rates first; if the effective clock changed, the epoch
    /// is re-derived (legacy `remaining-work` rescaling falls out of
    /// the fluid model).
    pub fn apply_action(
        &mut self,
        now: SimTime,
        action: ControlAction,
        prof: &Profiler,
        out: &mut ServeOutcome<T>,
    ) {
        out.preemptions += self.advance_to(now, prof);
        let before = self.effective_clock_mhz();
        match action {
            ControlAction::LockClock { mhz } => {
                self.locked_mhz = Some(self.spec.gpu.clamp_clock(mhz));
            }
            ControlAction::UnlockClock => self.locked_mhz = None,
            ControlAction::PowerBrake { on } => self.brake = on,
        }
        self.refresh_clock();
        if (self.effective_clock_mhz() - before).abs() > f64::EPSILON {
            self.serve(now, prof, out);
        }
    }

    /// Mean KV occupancy of this server's pager.
    pub fn kv_occupancy(&self) -> f64 {
        self.pager.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_llm::{InferenceModel, ModelSpec};
    use polca_sim::SimRng;

    /// An idle aggregated server over a pool of `kv_blocks` blocks of
    /// `block_tokens` tokens.
    fn server(kv_blocks: u32, block_tokens: u32) -> BatchServer<()> {
        let spec = ServerSpec::dgx_a100();
        let params = BatchedRowParams {
            deployment: InferenceModel::new(ModelSpec::bloom_176b(), spec.gpu.clone()).unwrap(),
            classes: vec![false],
            spec,
            power_scale: 1.0,
            trace_requests: false,
        };
        let sched = BatchScheduler::from_config(&ServeConfig::default());
        let profiles = Arc::new(ProfileTable::new(params.deployment.clone(), &sched));
        let pager = KvPager::new(kv_blocks, block_tokens);
        BatchServer::new(
            0,
            PoolRole::Aggregated,
            sched,
            pager,
            None,
            &params,
            profiles,
        )
    }

    /// The search before the integer bound and the block shortcut: the
    /// sweep at `bound`, then a binary search over whole iterations.
    fn plain_exhaustion_iters(s: &BatchServer<()>, bound: u64) -> Option<u64> {
        let free = s.pager.free_blocks();
        let need_at = |n: f64| -> u32 {
            s.decoding
                .iter()
                .map(|q| {
                    let adv = n.min((q.output_tokens as f64 - q.decoded).max(0.0));
                    s.pager
                        .blocks_for_tokens(q.kv_tokens + adv)
                        .saturating_sub(q.blocks)
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

    /// `advance_to`'s decode step as it ran before growth moved into
    /// the progress pass: progress for every sequence, then the demand
    /// sweep, a preemption while it exceeds the pool, and the growth
    /// pass.
    fn sweep_then_grow(s: &mut BatchServer<()>, iters: f64) -> u64 {
        for seq in &mut s.decoding {
            let adv = iters.min((seq.output_tokens as f64 - seq.decoded).max(0.0));
            seq.decoded += adv;
            seq.kv_tokens += adv;
        }
        let need = |s: &BatchServer<()>| -> u32 {
            s.decoding
                .iter()
                .map(|q| {
                    s.pager
                        .blocks_for_tokens(q.kv_tokens)
                        .saturating_sub(q.blocks)
                })
                .sum()
        };
        let mut preempted = 0;
        while need(s) > s.pager.free_blocks() {
            let mut victim = s.decoding.pop().expect("a victim");
            s.pager.free(victim.blocks);
            victim.blocks = 0;
            victim.prefill_total = victim.input_tokens as f64 + victim.decoded;
            victim.prefill_done = 0.0;
            victim.kv_tokens = 0.0;
            s.waiting.push_front(victim);
            preempted += 1;
        }
        for seq in &mut s.decoding {
            let need = s
                .pager
                .blocks_for_tokens(seq.kv_tokens)
                .saturating_sub(seq.blocks);
            assert!(s.pager.try_alloc(need));
            seq.blocks += need;
        }
        preempted
    }

    /// Every field the decode step writes, floats as bits.
    fn decode_state(s: &BatchServer<()>) -> Vec<[u64; 5]> {
        s.decoding
            .iter()
            .chain(&s.waiting)
            .map(|q| {
                [
                    q.id,
                    q.decoded.to_bits(),
                    q.kv_tokens.to_bits(),
                    q.prefill_total.to_bits(),
                    u64::from(q.blocks),
                ]
            })
            .chain([[u64::from(s.pager.free_blocks()); 5]])
            .collect()
    }

    #[test]
    fn growth_in_the_progress_pass_preempts_as_sweep_then_grow() {
        let mut rng = SimRng::from_seed_stream(7, 0);
        let mut short = 0;
        for case in 0..2_000 {
            let block_tokens = if case % 2 == 0 { 16 } else { 7 };
            let mut s = server(rng.uniform_u64(16, 2048) as u32, block_tokens);
            for id in 0..rng.uniform_u64(1, 32) {
                let input = rng.uniform_u64(1, 512) as u32;
                let output = rng.uniform_u64(1, 512) as u32;
                let mut seq = Seq::fresh((), id, input, output, false, false);
                seq.prefill_done = seq.prefill_total;
                seq.decoded = rng.uniform(0.0, f64::from(output));
                seq.kv_tokens = f64::from(input) + seq.decoded;
                let blocks = s.pager.blocks_for_tokens(seq.kv_tokens);
                if !s.pager.try_alloc(blocks) {
                    break;
                }
                seq.blocks = blocks;
                s.decoding.push(seq);
            }
            if s.decoding.is_empty() {
                continue;
            }
            // An epoch of up to 64 iterations from t = 0.
            s.iter_s = 0.02;
            let dt = rng.uniform(0.001, 1.28);
            let mut want = s.clone();
            let preempted = sweep_then_grow(&mut want, dt / s.iter_s);
            short += usize::from(preempted > 0);
            let got = s.advance_to(SimTime::from_secs(dt), &Profiler::disabled());
            assert_eq!(got, preempted, "case {case}");
            assert_eq!(decode_state(&s), decode_state(&want), "case {case}");
        }
        assert!(short > 100, "only {short} cases ran the pool short");
    }

    #[test]
    fn exhaustion_iters_matches_the_plain_search() {
        let mut rng = SimRng::from_seed_stream(42, 0);
        let (mut bounded, mut exhausted) = (0, 0);
        for case in 0..4_000 {
            let block_tokens = if case % 2 == 0 { 16 } else { 7 };
            let mut s = server(rng.uniform_u64(64, 8192) as u32, block_tokens);
            for id in 0..rng.uniform_u64(1, 32) {
                let input = rng.uniform_u64(1, 2048) as u32;
                let output = rng.uniform_u64(1, 1024) as u32;
                let mut seq = Seq::fresh((), id, input, output, false, false);
                seq.prefill_done = seq.prefill_total;
                seq.decoded = rng.uniform(0.0, f64::from(output));
                seq.kv_tokens = f64::from(input) + seq.decoded;
                if rng.chance(0.25) {
                    // Land the KV within 1e-9 of a block boundary.
                    seq.kv_tokens = (seq.kv_tokens / f64::from(block_tokens)).round()
                        * f64::from(block_tokens)
                        + rng.uniform(-1e-9, 1e-9);
                }
                // Every decoding sequence holds at least the blocks for
                // its current KV (some hold one more, as after an
                // admission's up-front allocation).
                let blocks =
                    s.pager.blocks_for_tokens(seq.kv_tokens) + rng.uniform_u64(0, 1) as u32;
                if !s.pager.try_alloc(blocks) {
                    break;
                }
                seq.blocks = blocks;
                s.decoding.push(seq);
            }
            if s.decoding.is_empty() {
                continue;
            }
            let bound = rng.uniform_u64(1, 1024);
            let per_seq = bound.div_ceil(u64::from(block_tokens)) + 2;
            bounded +=
                usize::from(s.decoding.len() as u64 * per_seq <= u64::from(s.pager.free_blocks()));
            let want = plain_exhaustion_iters(&s, bound);
            exhausted += usize::from(want.is_some());
            assert_eq!(s.exhaustion_iters(bound), want, "case {case}");
        }
        // Both the integer bound and the search were exercised.
        assert!(
            bounded > 100 && exhausted > 100,
            "{bounded} bounded, {exhausted} exhausted"
        );
    }
}
