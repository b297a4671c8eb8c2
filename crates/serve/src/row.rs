//! A row of batched servers with class-aware routing, optional
//! prefill/decode pools, and in-flight KV transfers.

use polca_llm::InferenceModel;
use polca_obs::Profiler;
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::config::{PoolTopology, ServeConfig};
use crate::pager::KvPager;
use crate::server::{BatchScheduler, BatchServer, Completion, PoolRole, PumpResult, Seq};

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

/// Everything one engine operation produced for one server.
#[derive(Debug)]
pub struct ServeOutcome<T> {
    /// The affected server.
    pub server: usize,
    /// New `(at, version)` wake to schedule for that server; `None`
    /// leaves any previously scheduled wake in place.
    pub wake: Option<(SimTime, u64)>,
    /// Requests that finished on this operation.
    pub completions: Vec<Completion<T>>,
    /// Sequences preempted on KV exhaustion during this operation.
    pub preemptions: u64,
    /// Whether new KV transfers were queued (the caller should
    /// re-arm its transfer event at [`BatchedRow::next_transfer_due`]).
    pub transfers_queued: bool,
}

/// An arrival's admission decision plus the server activity it caused.
#[derive(Debug)]
pub struct ArrivalOutcome<T> {
    /// What happened to the request.
    pub kind: AdmissionKind,
    /// Server activity (empty and wake-less on rejection).
    pub outcome: ServeOutcome<T>,
}

/// Static inputs the cluster layer derives from its `ServerSpec`,
/// `RowConfig`, and `SimConfig` — kept as plain numbers so the engine
/// does not depend on the cluster crate.
#[derive(Debug, Clone)]
pub struct BatchedRowParams {
    /// The model deployment every server runs.
    pub deployment: InferenceModel,
    /// Per-server priority class (`true` = high); index = server id.
    pub classes: Vec<bool>,
    /// Physical GPUs per chassis (spares beyond the deployment idle).
    pub spec_gpus: usize,
    /// Chassis base power beyond the GPUs, in watts.
    pub non_gpu_base_watts: f64,
    /// Cooling/VRM overhead per GPU watt.
    pub non_gpu_per_gpu_watt: f64,
    /// GPU intensity while hot-idle (model resident, no batch).
    pub hot_idle_intensity: f64,
    /// Study-wide power multiplier.
    pub power_scale: f64,
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
    total_power: f64,
    /// Power drawn by servers with a non-empty running batch (cached
    /// incrementally like `total_power`) — the polca-energy busy
    /// integral's source on this engine.
    busy_power: f64,
    /// Instantaneous power per priority class, `[low, high]` (cached
    /// incrementally; class membership is static, so every power delta
    /// lands in exactly one slot).
    class_power: [f64; 2],
    /// Instantaneous power per pool role, indexed by [`Self::role_idx`]
    /// (cached incrementally; roles are assigned at construction).
    role_power: [f64; 3],
    /// Which pool roles exist in this row (fixed at construction).
    roles_present: [bool; 3],
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

        let servers: Vec<BatchServer<T>> = params
            .classes
            .iter()
            .zip(roles.iter())
            .enumerate()
            .map(|(id, (&high, &role))| {
                let pool_clock = (role == PoolRole::Decode).then_some(decode_clock).flatten();
                BatchServer::new(
                    id,
                    high,
                    role,
                    sched,
                    KvPager::new(kv_blocks, config.block_tokens),
                    params.deployment.clone(),
                    pool_clock,
                    params.spec_gpus,
                    params.non_gpu_base_watts,
                    params.non_gpu_per_gpu_watt,
                    params.hot_idle_intensity,
                    params.power_scale,
                )
            })
            .collect();
        let total_power = servers.iter().map(|s| s.power_watts).sum();
        let busy_power = servers
            .iter()
            .filter(|s| s.running() > 0)
            .map(|s| s.power_watts)
            .sum();
        let mut class_power = [0.0; 2];
        let mut role_power = [0.0; 3];
        let mut roles_present = [false; 3];
        for s in &servers {
            class_power[usize::from(s.high_priority)] += s.power_watts;
            role_power[Self::role_idx(s.role)] += s.power_watts;
            roles_present[Self::role_idx(s.role)] = true;
        }
        BatchedRow {
            servers,
            in_flight: Vec::new(),
            interconnect_bytes_per_s: interconnect,
            kv_bytes_per_token,
            kv_blocks_per_server: kv_blocks,
            total_power,
            busy_power,
            class_power,
            role_power,
            roles_present,
            prof,
        }
    }

    /// Fixed slot of a pool role in the cached [`Self::role_power`]
    /// array; the order matches the role-tag order of
    /// [`pool_power_watts`](Self::pool_power_watts).
    fn role_idx(role: PoolRole) -> usize {
        match role {
            PoolRole::Prefill => 0,
            PoolRole::Decode => 1,
            PoolRole::Aggregated => 2,
        }
    }

    /// Servers in the row.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// The most any one server of the row can draw (workload intensity
    /// 1 at the full clock): an upper bound on every
    /// [`server_power_watts`](Self::server_power_watts) at any time.
    pub fn max_server_power_watts(&self) -> f64 {
        self.servers
            .iter()
            .map(BatchServer::max_power_watts)
            .fold(0.0, f64::max)
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

    /// Instantaneous whole-row power in watts (cached; updated on
    /// every engine operation).
    pub fn total_power_watts(&self) -> f64 {
        self.total_power
    }

    /// Instantaneous power of one server.
    pub fn server_power_watts(&self, i: usize) -> f64 {
        self.servers[i].power_watts
    }

    /// Instantaneous power drawn by servers that are actively serving
    /// (running batch non-empty), in watts. Upper-bounds the power the
    /// iteration loop attributes to requests, since attribution only
    /// charges epochs with token progress.
    pub fn busy_power_watts(&self) -> f64 {
        self.busy_power
    }

    /// Instantaneous power summed per pool role, in role-tag order
    /// (only roles present in the row appear; cached incrementally).
    pub fn pool_power_watts(&self) -> Vec<(&'static str, f64)> {
        let mut pools = Vec::new();
        self.write_pool_power(&mut pools);
        pools
    }

    /// Fills `out` with the cached per-pool power, in role-tag order,
    /// without allocating when `out` already has capacity — the
    /// polca-energy tick path calls this every telemetry window.
    pub fn write_pool_power(&self, out: &mut Vec<(&'static str, f64)>) {
        out.clear();
        for role in [PoolRole::Prefill, PoolRole::Decode, PoolRole::Aggregated] {
            if self.roles_present[Self::role_idx(role)] {
                out.push((role.tag(), self.role_power[Self::role_idx(role)]));
            }
        }
    }

    /// Instantaneous power per priority class, `[low, high]` (cached
    /// incrementally).
    pub fn class_power_watts(&self) -> [f64; 2] {
        self.class_power
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

    /// Runs `op` against server `idx`, folding its power delta into
    /// the cached row total and extracting hand-offs into the
    /// interconnect.
    fn run_on_server(
        &mut self,
        idx: usize,
        now: SimTime,
        op: impl FnOnce(&mut BatchServer<T>, &Profiler, &mut PumpResult<T>),
    ) -> ServeOutcome<T> {
        let before = self.servers[idx].power_watts;
        let busy_before = if self.servers[idx].running() > 0 {
            before
        } else {
            0.0
        };
        let mut result = PumpResult::default();
        op(&mut self.servers[idx], &self.prof, &mut result);
        let delta = self.servers[idx].power_watts - before;
        self.total_power += delta;
        self.class_power[usize::from(self.servers[idx].high_priority)] += delta;
        self.role_power[Self::role_idx(self.servers[idx].role)] += delta;
        let busy_after = if self.servers[idx].running() > 0 {
            self.servers[idx].power_watts
        } else {
            0.0
        };
        self.busy_power += busy_after - busy_before;

        let mut transfers_queued = false;
        for mut seq in result.handoffs.drain(..) {
            let bytes = seq.kv_tokens * self.kv_bytes_per_token;
            let bandwidth = self
                .interconnect_bytes_per_s
                .expect("hand-off from a prefill pool requires an interconnect");
            seq.trace.kv_hops += 1;
            seq.trace.kv_ship_s += bytes / bandwidth;
            let due = now + SimTime::from_secs(bytes / bandwidth);
            self.in_flight.push((due, seq));
            transfers_queued = true;
        }
        ServeOutcome {
            server: idx,
            wake: result.wake,
            completions: result.completions,
            preemptions: result.preemptions,
            transfers_queued,
        }
    }

    /// Least-loaded server of `class` eligible for fresh arrivals
    /// (aggregated or prefill role), lowest index on ties.
    fn route_arrival(&self, high: bool) -> Option<usize> {
        self.servers
            .iter()
            .filter(|s| s.high_priority == high && s.role != PoolRole::Decode)
            .min_by_key(|s| (s.load(), s.id))
            .map(|s| s.id)
    }

    /// Least-loaded decode-pool server of `class`, lowest index on
    /// ties.
    fn route_transfer(&self, high: bool) -> Option<usize> {
        self.servers
            .iter()
            .filter(|s| s.high_priority == high && s.role == PoolRole::Decode)
            .min_by_key(|s| (s.load(), s.id))
            .map(|s| s.id)
    }

    /// Routes an arriving request to the least-loaded eligible server
    /// of its class and runs an admission cycle there.
    pub fn on_arrival(&mut self, now: SimTime, req: ServeRequest<T>) -> ArrivalOutcome<T> {
        let reject = |server| ArrivalOutcome {
            kind: AdmissionKind::Rejected,
            outcome: ServeOutcome {
                server,
                wake: None,
                completions: Vec::new(),
                preemptions: 0,
                transfers_queued: false,
            },
        };
        let Some(idx) = self.route_arrival(req.high_priority) else {
            return reject(0);
        };
        // The full context (prompt + generation + the final decode
        // step) must fit a server's KV pool, or the request can never
        // run to completion.
        let lifetime_tokens = (req.input_tokens + req.output_tokens) as f64 + 1.0;
        if !self.servers[idx].fits(lifetime_tokens)
            || self.servers[idx].waiting_len() >= self.servers[idx].sched.max_waiting
        {
            return reject(idx);
        }
        let id = req.id;
        let seq = Seq::fresh(
            req.payload,
            id,
            req.input_tokens,
            req.output_tokens,
            req.high_priority,
        );
        self.servers[idx].push_waiting(seq);
        let outcome = self.run_on_server(idx, now, |s, prof, r| s.pump(now, prof, r));
        let kind = if self.servers[idx].has_waiting(id) {
            AdmissionKind::Queued
        } else {
            AdmissionKind::Started
        };
        ArrivalOutcome { kind, outcome }
    }

    /// Handles a scheduled wake for `server`; `None` if `version` is
    /// stale (the composition changed since it was scheduled).
    pub fn on_wake(
        &mut self,
        now: SimTime,
        server: usize,
        version: u64,
    ) -> Option<ServeOutcome<T>> {
        if !self.servers[server].wake_is_live(version) {
            return None;
        }
        Some(self.run_on_server(server, now, |s, prof, r| s.pump(now, prof, r)))
    }

    /// Delivers every KV transfer that has arrived by `now` to the
    /// least-loaded decode server of its class, then runs an admission
    /// cycle on each affected server. Transfers are delivered in
    /// `(arrival, id)` order for determinism.
    pub fn on_transfers_due(&mut self, now: SimTime) -> Vec<ServeOutcome<T>> {
        let mut due: Vec<(SimTime, Seq<T>)> = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                due.push(self.in_flight.remove(i));
            } else {
                i += 1;
            }
        }
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
        touched
            .into_iter()
            .map(|idx| self.run_on_server(idx, now, |s, prof, r| s.pump(now, prof, r)))
            .collect()
    }

    /// Applies a delivered OOB control action to `server`.
    pub fn apply_action(
        &mut self,
        now: SimTime,
        server: usize,
        action: ControlAction,
    ) -> ServeOutcome<T> {
        self.run_on_server(server, now, |s, prof, r| {
            s.apply_action(now, action, prof, r)
        })
    }
}
