//! A row of batched servers with class-aware routing, optional
//! prefill/decode pools, and in-flight KV transfers.

use std::sync::Arc;

use polca_gpu::ServerSpec;
use polca_llm::InferenceModel;
use polca_obs::Profiler;
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::config::{PoolTopology, ServeConfig};
use crate::pager::KvPager;
use crate::profile::ProfileTable;
use crate::server::{BatchScheduler, BatchServer, Completion, PoolRole, Seq};

/// GiB in bytes.
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// KV-cache bytes per element (FP16 key + value halves → 2 bytes per
/// element, matching `Disaggregation::plan`).
const KV_BYTES_PER_ELEMENT: f64 = 2.0;

/// A request entering the batched engine. `payload` is opaque to the
/// engine and returned untouched on completion (the cluster layer
/// passes its own `Request` record through).
#[derive(Debug, Clone)]
pub struct ServeRequest<T> {
    /// Caller's request record.
    pub payload: T,
    /// Unique request id (drives deterministic tie-breaks).
    pub id: u64,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Generation length in tokens.
    pub output_tokens: u32,
    /// Routes to the high-priority server class when `true`.
    pub high_priority: bool,
}

/// What happened to an arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Entered service (its prefill started) immediately.
    Started,
    /// Accepted into a server's waiting queue.
    Queued,
    /// Turned away: the class has no servers, the chosen server's
    /// waiting queue is full, or the request can never fit in a KV
    /// pool. The caller keeps its own copy of the request record.
    Rejected,
}

/// What a row's operations produced. Each operation appends to it and
/// the caller drains it after each one, so one buffer serves a run.
#[derive(Debug)]
pub struct ServeOutcome<T> {
    /// `(server, at, version)` wakes to schedule, in the order the
    /// servers ran. A server's new wake makes its earlier ones stale;
    /// a server with no entry keeps the wake it has.
    pub wakes: Vec<(usize, SimTime, u64)>,
    /// Requests that finished, in the order they finished.
    pub completions: Vec<Completion<T>>,
    /// Sequences preempted on KV exhaustion.
    pub preemptions: u64,
    /// Whether new KV transfers were queued (the caller should
    /// re-arm its transfer event at [`BatchedRow::next_transfer_due`]).
    pub transfers_queued: bool,
}

impl<T> Default for ServeOutcome<T> {
    fn default() -> Self {
        ServeOutcome {
            wakes: Vec::new(),
            completions: Vec::new(),
            preemptions: 0,
            transfers_queued: false,
        }
    }
}

/// A row's power sums: the whole row, the servers that are serving,
/// each priority class and each pool role. Both serving engines fold
/// every server change through [`change`](Self::change), so reading a
/// sum costs nothing per event.
#[derive(Debug, Clone, Default)]
pub struct RowWatts {
    total: f64,
    /// Σ power of the servers that are serving: the source of the
    /// row's busy energy, which upper-bounds Σ attributed joules.
    busy: f64,
    /// Per priority class, `[low, high]`.
    class: [f64; 2],
    /// Per pool role, in [`role_slot`] order.
    role: [f64; 3],
    /// Which pool roles the row has.
    present: [bool; 3],
}

/// A pool role's slot in [`RowWatts`], in role-tag order.
fn role_slot(role: PoolRole) -> usize {
    match role {
        PoolRole::Prefill => 0,
        PoolRole::Decode => 1,
        PoolRole::Aggregated => 2,
    }
}

/// The busy share of a server's `(watts, serving)` draw.
fn busy_watts((watts, serving): (f64, bool)) -> f64 {
    if serving {
        watts
    } else {
        0.0
    }
}

impl RowWatts {
    /// The sums over a row, given each server's class (`true` = high),
    /// pool role and `(watts, serving)` draw, in id order.
    pub fn new(servers: impl IntoIterator<Item = (bool, PoolRole, (f64, bool))>) -> Self {
        let mut sums = RowWatts::default();
        for (high, role, draw) in servers {
            sums.total += draw.0;
            sums.busy += busy_watts(draw);
            sums.class[usize::from(high)] += draw.0;
            sums.role[role_slot(role)] += draw.0;
            sums.present[role_slot(role)] = true;
        }
        sums
    }

    /// Folds one server's change, given its class, its role and its
    /// `(watts, serving)` draw before and after. Class and role are
    /// fixed, so the delta lands in one slot of each.
    #[inline]
    pub fn change(&mut self, high: bool, role: PoolRole, before: (f64, bool), after: (f64, bool)) {
        let delta = after.0 - before.0;
        self.total += delta;
        self.class[usize::from(high)] += delta;
        self.role[role_slot(role)] += delta;
        self.busy += busy_watts(after) - busy_watts(before);
    }

    /// Instantaneous row power, in watts.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Instantaneous power of the servers that are serving, in watts.
    #[inline]
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Instantaneous power per priority class, `[low, high]`.
    #[inline]
    pub fn class(&self) -> [f64; 2] {
        self.class
    }

    /// Fills `out` with the power of each pool role the row has, in
    /// role-tag order, without allocating when `out` already has
    /// capacity (the telemetry tick calls this every window).
    pub fn write_pools(&self, out: &mut Vec<(&'static str, f64)>) {
        out.clear();
        for role in [PoolRole::Prefill, PoolRole::Decode, PoolRole::Aggregated] {
            if self.present[role_slot(role)] {
                out.push((role.tag(), self.role[role_slot(role)]));
            }
        }
    }
}

/// Static inputs the cluster layer derives from its `RowConfig` and
/// `SimConfig`.
#[derive(Debug, Clone)]
pub struct BatchedRowParams {
    /// The model deployment every server runs.
    pub deployment: InferenceModel,
    /// Per-server priority class (`true` = high); index = server id.
    pub classes: Vec<bool>,
    /// The server hardware and its power model (the legacy engine's).
    pub spec: ServerSpec,
    /// Study-wide power multiplier.
    pub power_scale: f64,
    /// Whether to keep each request's polca-req span (the req plane's
    /// switch). Off, every [`Completion::span`] is `None` and the engine
    /// skips the span arithmetic; no outcome depends on it.
    pub trace_requests: bool,
}

/// The batched row engine: one `BatchServer` per cluster server,
/// the same priority-class layout as the legacy row, and (under a
/// split topology) per-class prefill/decode pools joined by an
/// interconnect that KV transfers cross at finite bandwidth.
#[derive(Debug)]
pub struct BatchedRow<T> {
    servers: Vec<BatchServer<T>>,
    /// KV hand-offs in flight on the interconnect: `(arrives_at, seq)`.
    in_flight: Vec<(SimTime, Seq<T>)>,
    interconnect_bytes_per_s: Option<f64>,
    kv_bytes_per_token: f64,
    kv_blocks_per_server: u32,
    /// The row's power sums, updated after every server operation.
    watts: RowWatts,
    /// Per class, `[low, high]`: the servers fresh arrivals route to
    /// (aggregated or prefill role), in id order. Roles and classes are
    /// fixed at construction.
    arrival_servers: [Vec<usize>; 2],
    /// Per class, `[low, high]`: the decode-pool servers KV transfers
    /// route to, in id order.
    decode_servers: [Vec<usize>; 2],
    /// Whether arrivals carry a request span.
    trace_requests: bool,
    prof: Profiler,
}

impl<T> BatchedRow<T> {
    /// Builds the row. KV pool size per server defaults to the HBM
    /// left after weights and the runtime reserve, divided into
    /// `block_tokens`-token blocks.
    pub fn new(params: BatchedRowParams, config: &ServeConfig, prof: Profiler) -> Self {
        let kv_bytes_per_token = params
            .deployment
            .model()
            .kv_bytes_per_token(KV_BYTES_PER_ELEMENT);
        let kv_blocks = config.kv_blocks.unwrap_or_else(|| {
            let pool_bytes = params.deployment.free_kv_gib() * GIB;
            (pool_bytes / (kv_bytes_per_token * config.block_tokens as f64)).floor() as u32
        });
        assert!(kv_blocks > 0, "KV pool must hold at least one block");
        let sched = BatchScheduler::from_config(config);

        let (roles, interconnect, decode_clock) = match &config.pools {
            PoolTopology::Aggregated => {
                (vec![PoolRole::Aggregated; params.classes.len()], None, None)
            }
            PoolTopology::Split {
                prefill_fraction,
                interconnect_bytes_per_s,
                decode_clock_mhz,
            } => {
                let mut roles = vec![PoolRole::Aggregated; params.classes.len()];
                for class in [false, true] {
                    let members: Vec<usize> = (0..params.classes.len())
                        .filter(|&i| params.classes[i] == class)
                        .collect();
                    if members.len() < 2 {
                        continue; // degenerate class stays aggregated
                    }
                    let n_prefill = ((members.len() as f64 * prefill_fraction).ceil() as usize)
                        .clamp(1, members.len() - 1);
                    for (k, &i) in members.iter().enumerate() {
                        roles[i] = if k < n_prefill {
                            PoolRole::Prefill
                        } else {
                            PoolRole::Decode
                        };
                    }
                }
                (roles, Some(*interconnect_bytes_per_s), *decode_clock_mhz)
            }
        };

        let profiles = Arc::new(ProfileTable::new(params.deployment.clone(), &sched));
        let servers: Vec<BatchServer<T>> = roles
            .iter()
            .enumerate()
            .map(|(id, &role)| {
                let pool_clock = (role == PoolRole::Decode).then_some(decode_clock).flatten();
                let pager = KvPager::new(kv_blocks, config.block_tokens);
                BatchServer::new(
                    id,
                    role,
                    sched,
                    pager,
                    pool_clock,
                    &params,
                    Arc::clone(&profiles),
                )
            })
            .collect();
        let watts = RowWatts::new(servers.iter().map(|s| (s.high_priority, s.role, s.draw())));
        let mut arrival_servers = [Vec::new(), Vec::new()];
        let mut decode_servers = [Vec::new(), Vec::new()];
        for s in &servers {
            let class = usize::from(s.high_priority);
            if s.role == PoolRole::Decode {
                decode_servers[class].push(s.id);
            } else {
                arrival_servers[class].push(s.id);
            }
        }
        BatchedRow {
            servers,
            in_flight: Vec::new(),
            interconnect_bytes_per_s: interconnect,
            kv_bytes_per_token,
            kv_blocks_per_server: kv_blocks,
            watts,
            arrival_servers,
            decode_servers,
            trace_requests: params.trace_requests,
            prof,
        }
    }

    /// Servers in the row.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// Pool role tag of server `i` (`"aggregated"`, `"prefill"`,
    /// `"decode"`).
    pub fn role_tag(&self, i: usize) -> &'static str {
        self.servers[i].role.tag()
    }

    /// KV blocks in each server's pool.
    pub fn kv_blocks_per_server(&self) -> u32 {
        self.kv_blocks_per_server
    }

    /// The row's power sums (updated on every engine operation).
    #[inline]
    pub fn watts(&self) -> &RowWatts {
        &self.watts
    }

    /// Instantaneous power of one server.
    pub fn server_power_watts(&self, i: usize) -> f64 {
        self.servers[i].power_watts
    }

    /// Mean KV-pool occupancy across servers in `[0, 1]`.
    pub fn kv_occupancy(&self) -> f64 {
        let n = self.servers.len().max(1) as f64;
        self.servers.iter().map(|s| s.kv_occupancy()).sum::<f64>() / n
    }

    /// Mean running batch size (prefilling + decoding) across servers.
    pub fn mean_batch(&self) -> f64 {
        let n = self.servers.len().max(1) as f64;
        self.servers.iter().map(|s| s.running() as f64).sum::<f64>() / n
    }

    /// Requests waiting across all servers (not yet in a batch).
    pub fn waiting_depth(&self) -> u64 {
        self.servers.iter().map(|s| s.waiting_len() as u64).sum()
    }

    /// KV transfers currently crossing the interconnect.
    pub fn transfers_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Earliest in-flight KV transfer arrival, if any.
    pub fn next_transfer_due(&self) -> Option<SimTime> {
        self.in_flight
            .iter()
            .map(|(at, _)| *at)
            .reduce(SimTime::min)
    }

    /// Runs `op` against server `idx`, appending to `out`, folds its
    /// power change into the row's sums and ships its hand-offs onto
    /// the interconnect.
    fn run_on_server(
        &mut self,
        idx: usize,
        now: SimTime,
        out: &mut ServeOutcome<T>,
        op: impl FnOnce(&mut BatchServer<T>, &Profiler, &mut ServeOutcome<T>),
    ) {
        let server = &mut self.servers[idx];
        let before = server.draw();
        op(server, &self.prof, out);
        self.watts
            .change(server.high_priority, server.role, before, server.draw());
        for mut seq in server.handoffs.drain(..) {
            let bytes = seq.kv_tokens * self.kv_bytes_per_token;
            let bandwidth = self
                .interconnect_bytes_per_s
                .expect("hand-off from a prefill pool requires an interconnect");
            if let Some(span) = seq.trace.as_deref_mut() {
                span.kv_hops += 1;
                span.kv_ship_s += bytes / bandwidth;
            }
            let due = now + SimTime::from_secs(bytes / bandwidth);
            self.in_flight.push((due, seq));
            out.transfers_queued = true;
        }
    }

    /// Least-loaded of the servers `ids`, lowest index on ties.
    fn least_loaded(&self, ids: &[usize]) -> Option<usize> {
        ids.iter()
            .copied()
            .min_by_key(|&i| (self.servers[i].load(), i))
    }

    /// Least-loaded server of `class` eligible for fresh arrivals
    /// (aggregated or prefill role), lowest index on ties.
    fn route_arrival(&self, high: bool) -> Option<usize> {
        self.least_loaded(&self.arrival_servers[usize::from(high)])
    }

    /// Least-loaded decode-pool server of `class`, lowest index on
    /// ties.
    fn route_transfer(&self, high: bool) -> Option<usize> {
        self.least_loaded(&self.decode_servers[usize::from(high)])
    }

    /// Routes an arriving request to the least-loaded eligible server
    /// of its class and runs an admission cycle there, appending what
    /// it caused to `out`. Returns the admission and the server (0 when
    /// the class has none).
    pub fn on_arrival(
        &mut self,
        now: SimTime,
        req: ServeRequest<T>,
        out: &mut ServeOutcome<T>,
    ) -> (AdmissionKind, usize) {
        let Some(idx) = self.route_arrival(req.high_priority) else {
            return (AdmissionKind::Rejected, 0);
        };
        // The full context (prompt + generation + the final decode
        // step) must fit a server's KV pool, or the request can never
        // run to completion.
        let lifetime_tokens = (req.input_tokens + req.output_tokens) as f64 + 1.0;
        if !self.servers[idx].fits(lifetime_tokens)
            || self.servers[idx].waiting_len() >= self.servers[idx].sched.max_waiting
        {
            return (AdmissionKind::Rejected, idx);
        }
        let id = req.id;
        let seq = Seq::fresh(
            req.payload,
            id,
            req.input_tokens,
            req.output_tokens,
            req.high_priority,
            self.trace_requests,
        );
        self.servers[idx].push_waiting(seq);
        self.run_on_server(idx, now, out, |s, prof, out| s.pump(now, prof, out));
        let kind = if self.servers[idx].is_last_waiting(id) {
            AdmissionKind::Queued
        } else {
            AdmissionKind::Started
        };
        (kind, idx)
    }

    /// Handles a scheduled wake for `server`, appending what it caused
    /// to `out`; a stale `version` (the composition changed since the
    /// wake was scheduled) does nothing.
    pub fn on_wake(
        &mut self,
        now: SimTime,
        server: usize,
        version: u64,
        out: &mut ServeOutcome<T>,
    ) {
        if self.servers[server].wake_is_live(version) {
            self.run_on_server(server, now, out, |s, prof, out| s.pump(now, prof, out));
        }
    }

    /// Delivers every KV transfer that has arrived by `now` to the
    /// least-loaded decode server of its class, then runs an admission
    /// cycle on each affected server, appending what they caused to
    /// `out`. Transfers are delivered in `(arrival, id)` order for
    /// determinism.
    pub fn on_transfers_due(&mut self, now: SimTime, out: &mut ServeOutcome<T>) {
        let mut due: Vec<(SimTime, Seq<T>)> = self
            .in_flight
            .extract_if(.., |(at, _)| *at <= now)
            .collect();
        due.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        let mut touched: Vec<usize> = Vec::new();
        for (_, seq) in due {
            let idx = self
                .route_transfer(seq.high_priority)
                .expect("transfer with no decode pool");
            self.servers[idx].push_transfer(seq);
            if !touched.contains(&idx) {
                touched.push(idx);
            }
        }
        for idx in touched {
            self.run_on_server(idx, now, out, |s, prof, out| s.pump(now, prof, out));
        }
    }

    /// Applies a delivered OOB control action to `server`, appending
    /// what it caused to `out`.
    pub fn apply_action(
        &mut self,
        now: SimTime,
        server: usize,
        action: ControlAction,
        out: &mut ServeOutcome<T>,
    ) {
        self.run_on_server(server, now, out, |s, prof, out| {
            s.apply_action(now, action, prof, out)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{params, request};
    use polca_sim::SimRng;

    /// Asserts that `row`'s ledger matches its servers recounted from
    /// scratch, within 1e-9 of the row's total draw.
    fn assert_ledger_matches_servers(row: &BatchedRow<u64>, step: u64) {
        let want = RowWatts::new(
            row.servers
                .iter()
                .map(|s| (s.high_priority, s.role, s.draw())),
        );
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

    /// Seeded random arrivals, wakes (stale ones included), KV transfers,
    /// clock locks and brakes on a tight-KV row, aggregated and split:
    /// after every operation the incremental ledger equals a recount.
    #[test]
    fn power_ledger_matches_the_servers_after_every_operation() {
        let split = ServeConfig::split_pools(200e9, Some(1110.0)).pools;
        for (seed, pools) in [(1, PoolTopology::Aggregated), (2, split)] {
            let config = ServeConfig {
                kv_blocks: Some(64),
                pools,
                ..ServeConfig::default()
            };
            let classes = (0..8).map(|i| i % 2 == 1).collect();
            let mut row = BatchedRow::new(params(classes), &config, Profiler::disabled());
            let mut rng = SimRng::from_seed_stream(seed, 0);
            let mut out = ServeOutcome::default();
            let mut wakes: Vec<(SimTime, usize, u64)> = Vec::new();
            // The time of the next arrival or control action.
            let mut external = SimTime::ZERO;
            let (mut completed, mut preempted, mut actions) = (0, 0, 0);
            for step in 0..4_000 {
                let wake = wakes.iter().map(|w| w.0).min();
                let transfer = row.next_transfer_due();
                if let Some(t) = transfer.filter(|&t| t <= external && wake.is_none_or(|w| t <= w))
                {
                    row.on_transfers_due(t, &mut out);
                } else if wake.is_some_and(|w| w <= external) {
                    let pos = wakes.iter().position(|w| Some(w.0) == wake).unwrap();
                    let (at, server, version) = wakes.swap_remove(pos);
                    row.on_wake(at, server, version, &mut out);
                } else {
                    if rng.chance(0.8) {
                        let input = rng.uniform_u64(32, 512) as u32;
                        let output = rng.uniform_u64(16, 256) as u32;
                        let req = request(step, input, output, rng.chance(0.5));
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
                    external += SimTime::from_secs(rng.exponential(2.0));
                }
                wakes.extend(out.wakes.drain(..).map(|(s, at, v)| (at, s, v)));
                completed += out.completions.drain(..).count();
                preempted += std::mem::take(&mut out.preemptions);
                out.transfers_queued = false;
                assert_ledger_matches_servers(&row, step);
            }
            assert!(
                completed > 100 && preempted > 0 && actions > 100,
                "{completed} completed, {preempted} preempted, {actions} actions"
            );
        }
    }
}
