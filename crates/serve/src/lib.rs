#![deny(missing_docs)]
//! polca-serve: an iteration-level continuous-batching engine.
//!
//! The paper's §6.4 simulator (and `polca-cluster`'s legacy engine)
//! dispatches whole requests to servers with a one-request buffer.
//! Real fleets run *continuous batching*: every model iteration fuses
//! a chunk of prompt prefill with one decode step for every running
//! sequence, KV-cache memory is paged and shared, and increasingly
//! the two phases run on disaggregated server pools (§5.2). This
//! crate simulates that serving model as an alternative row engine:
//!
//! * [`KvPager`] — paged KV-cache memory as a first-class per-server
//!   resource: block allocation, occupancy, and preemption with
//!   recompute when the pool is exhausted,
//! * [`BatchScheduler`] — continuous batching with chunked prefill:
//!   FCFS admission from a waiting queue, a token budget per
//!   iteration shared between prefill and decode,
//! * [`BatchedRow`] — per-iteration latency and power derived from
//!   the live batch composition via
//!   [`InferenceModel::iteration_profile`](polca_llm::InferenceModel::iteration_profile)
//!   (prefill-heavy iterations are compute-bound and draw near TDP;
//!   decode-heavy iterations are memory-bound and draw much less —
//!   which is exactly why power capping interacts differently here),
//! * [`PoolTopology`] — a row runs either aggregated or as
//!   disaggregated prefill/decode pools with KV-transfer cost over
//!   the interconnect.
//!
//! Time is advanced *fluidly* between composition changes rather than
//! one event per iteration, so event counts stay proportional to
//! requests. The engine is deterministic: identical inputs produce
//! identical completions, preemptions, and power trajectories.
//!
//! The cluster crate embeds this engine behind
//! `EngineKind::Batched`; everything above `RowSim` (fleets, the
//! power hierarchy, telemetry/OOB, watch, prof, sweeps) works
//! unchanged on top.

pub mod config;
pub mod pager;
mod profile;
mod row;
mod server;

pub use config::{PoolTopology, ServeConfig};
pub use pager::KvPager;
pub use row::{
    AdmissionKind, ArrivalOutcome, BatchedRow, BatchedRowParams, ServeOutcome, ServeRequest,
};
pub use server::{BatchScheduler, Completion, PoolRole};

#[cfg(test)]
mod tests {
    use super::*;
    use polca_gpu::{ServerSpec, HOT_IDLE_INTENSITY};
    use polca_llm::{InferenceModel, ModelSpec};
    use polca_obs::Profiler;
    use polca_sim::SimTime;
    use polca_telemetry::ControlAction;

    fn params(classes: Vec<bool>) -> BatchedRowParams {
        let spec = ServerSpec::dgx_a100();
        BatchedRowParams {
            deployment: InferenceModel::new(ModelSpec::bloom_176b(), spec.gpu.clone()).unwrap(),
            classes,
            spec,
            power_scale: 1.0,
            trace_requests: true,
        }
    }

    fn request(id: u64, input: u32, output: u32, high: bool) -> ServeRequest<u64> {
        ServeRequest {
            payload: id,
            id,
            input_tokens: input,
            output_tokens: output,
            high_priority: high,
        }
    }

    /// A minimal event loop over a [`BatchedRow`] for unit tests: the
    /// cluster integration plays this role in production.
    struct Harness {
        row: BatchedRow<u64>,
        wakes: Vec<(SimTime, usize, u64)>,
        done: Vec<u64>,
        preemptions: u64,
    }

    impl Harness {
        fn new(row: BatchedRow<u64>) -> Self {
            Harness {
                row,
                wakes: Vec::new(),
                done: Vec::new(),
                preemptions: 0,
            }
        }

        fn absorb(&mut self, o: ServeOutcome<u64>) {
            self.preemptions += o.preemptions;
            self.done
                .extend(o.completions.into_iter().map(|c| c.payload));
            if let Some((at, v)) = o.wake {
                self.wakes.retain(|w| w.1 != o.server);
                self.wakes.push((at, o.server, v));
            }
        }

        fn arrive(&mut self, now: SimTime, req: ServeRequest<u64>) -> AdmissionKind {
            let a = self.row.on_arrival(now, req);
            let kind = a.kind;
            self.absorb(a.outcome);
            kind
        }

        /// Drives every scheduled wake/transfer until the row idles.
        fn drain(&mut self) {
            for _ in 0..100_000 {
                let next_transfer = self.row.next_transfer_due();
                let next_wake = self.wakes.iter().map(|w| w.0).reduce(SimTime::min);
                let (now, is_transfer) = match (next_wake, next_transfer) {
                    (None, None) => return,
                    (Some(w), None) => (w, false),
                    (None, Some(t)) => (t, true),
                    (Some(w), Some(t)) => {
                        if t < w {
                            (t, true)
                        } else {
                            (w, false)
                        }
                    }
                };
                let outcomes = if is_transfer {
                    self.row.on_transfers_due(now)
                } else {
                    let pos = self
                        .wakes
                        .iter()
                        .position(|w| w.0 == now)
                        .expect("wake present");
                    let (_, server, version) = self.wakes.remove(pos);
                    self.row.on_wake(now, server, version).into_iter().collect()
                };
                for o in outcomes {
                    self.absorb(o);
                }
            }
            panic!("row failed to drain");
        }
    }

    #[test]
    fn idle_servers_draw_hot_idle_power_and_serving_stays_under_the_max() {
        let p = params(vec![false, true]);
        // Iteration intensities blend phase intensities in [0, 1] and
        // the DVFS scale never exceeds 1, so no batch, lock or brake
        // lifts a server above intensity 1 at the full clock.
        let [hot_idle, max] = [HOT_IDLE_INTENSITY, 1.0]
            .map(|intensity| p.spec.power_watts(p.deployment.n_gpus(), intensity, 1.0));
        let mut h = Harness::new(BatchedRow::new(
            p,
            &ServeConfig::default(),
            Profiler::disabled(),
        ));
        assert_eq!(h.row.server_power_watts(0), hot_idle);
        assert_eq!(h.row.server_power_watts(1), hot_idle);
        h.arrive(SimTime::ZERO, request(1, 2048, 64, false));
        let serving = h.row.server_power_watts(0);
        assert!(serving > hot_idle && serving <= max);
    }

    #[test]
    fn single_request_runs_to_completion() {
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false]),
            &ServeConfig::default(),
            Profiler::disabled(),
        ));
        let kind = h.arrive(SimTime::ZERO, request(1, 2048, 64, false));
        assert_eq!(kind, AdmissionKind::Started);
        assert!(h.row.kv_occupancy() > 0.0);
        h.drain();
        assert_eq!(h.done, vec![1]);
        assert_eq!(h.preemptions, 0);
        assert_eq!(h.row.kv_occupancy(), 0.0);
        assert_eq!(h.row.mean_batch(), 0.0);
    }

    #[test]
    fn tiny_kv_pool_preempts_and_still_completes_everything() {
        // 8 blocks of 16 tokens = 128 KV tokens per server: two
        // requests of 48 + 40 = 88 lifetime tokens each cannot both
        // stay resident (176 > 128) once decode grows, so the younger
        // one is preempted and recomputed.
        let cfg = ServeConfig {
            kv_blocks: Some(8),
            ..ServeConfig::default()
        };
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false]),
            &cfg,
            Profiler::disabled(),
        ));
        assert_eq!(
            h.arrive(SimTime::ZERO, request(1, 48, 40, false)),
            AdmissionKind::Started
        );
        assert_eq!(
            h.arrive(SimTime::ZERO, request(2, 48, 40, false)),
            AdmissionKind::Started
        );
        h.drain();
        h.done.sort();
        assert_eq!(h.done, vec![1, 2]);
        assert!(h.preemptions > 0, "the pool is too small not to preempt");
        assert_eq!(h.row.kv_occupancy(), 0.0, "all blocks returned");
    }

    #[test]
    fn oversized_request_is_rejected_upfront() {
        let cfg = ServeConfig {
            kv_blocks: Some(8),
            ..ServeConfig::default()
        };
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false]),
            &cfg,
            Profiler::disabled(),
        ));
        // 8 × 16 = 128 tokens of KV; 200 + 100 can never fit.
        assert_eq!(
            h.arrive(SimTime::ZERO, request(1, 200, 100, false)),
            AdmissionKind::Rejected
        );
    }

    #[test]
    fn waiting_queue_rejects_past_capacity() {
        let cfg = ServeConfig {
            max_batch: 1,
            max_waiting: 2,
            ..ServeConfig::default()
        };
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false]),
            &cfg,
            Profiler::disabled(),
        ));
        let kinds: Vec<AdmissionKind> = (1..=4)
            .map(|id| h.arrive(SimTime::ZERO, request(id, 128, 16, false)))
            .collect();
        assert_eq!(
            kinds,
            vec![
                AdmissionKind::Started,
                AdmissionKind::Queued,
                AdmissionKind::Queued,
                AdmissionKind::Rejected,
            ]
        );
    }

    #[test]
    fn chunked_prefill_shares_the_iteration_budget() {
        let sched = BatchScheduler::from_config(&ServeConfig::default());
        // Full chunk when decode is idle.
        assert_eq!(sched.chunk_for(2048.0, 0), 512);
        // Shrinks to what the budget leaves after the decode batch.
        assert_eq!(sched.chunk_for(2048.0, 600), 40);
        // Never starves, even with the budget exhausted by decode.
        assert_eq!(sched.chunk_for(2048.0, 10_000), 1);
        // Last partial chunk.
        assert_eq!(sched.chunk_for(100.0, 0), 100);
        // No prefill pending.
        assert_eq!(sched.chunk_for(0.0, 32), 0);
    }

    #[test]
    fn chunked_admission_interleaves_prefill_and_decode() {
        // One long prompt admitted while another sequence decodes:
        // the long prompt must not stall decode progress (chunked
        // prefill), and both complete.
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false]),
            &ServeConfig::default(),
            Profiler::disabled(),
        ));
        assert_eq!(
            h.arrive(SimTime::ZERO, request(1, 64, 200, false)),
            AdmissionKind::Started
        );
        assert_eq!(
            h.arrive(SimTime::ZERO, request(2, 8192, 8, false)),
            AdmissionKind::Started
        );
        h.drain();
        assert_eq!(h.done.len(), 2);
        // The giant prompt chunk-prefills in ~16 iterations and has
        // only 8 output tokens, so it overtakes the 200-token decode
        // it shares the server with — neither stalls the other.
        assert_eq!(h.done[0], 2);
        assert_eq!(h.preemptions, 0);
    }

    #[test]
    fn split_pools_transfer_kv_and_complete() {
        let cfg = ServeConfig::split_pools(200e9, Some(1110.0));
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false; 4]),
            &cfg,
            Profiler::disabled(),
        ));
        assert_eq!(h.row.role_tag(0), "prefill");
        assert_eq!(h.row.role_tag(1), "decode");
        for id in 1..=3 {
            h.arrive(SimTime::ZERO, request(id, 2048, 32, false));
        }
        h.drain();
        assert_eq!(h.done.len(), 3);
        assert_eq!(h.row.transfers_in_flight(), 0);
        let mut pools = Vec::new();
        h.row.write_pool_power(&mut pools);
        let tags: Vec<&str> = pools.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec!["prefill", "decode"]);
    }

    #[test]
    fn brake_slows_iterations_and_lowers_power() {
        let mut h = Harness::new(BatchedRow::new(
            params(vec![false]),
            &ServeConfig::default(),
            Profiler::disabled(),
        ));
        h.arrive(SimTime::ZERO, request(1, 2048, 256, false));
        let busy_power = h.row.total_power_watts();
        let outcome = h
            .row
            .apply_action(SimTime::ZERO, 0, ControlAction::PowerBrake { on: true });
        assert!(h.row.total_power_watts() < busy_power);
        assert!(outcome.wake.is_some(), "brake reschedules the wake");
        // Unchanged clock (cap actions are ignored) keeps the wake.
        let noop = h
            .row
            .apply_action(SimTime::ZERO, 0, ControlAction::PowerCap { watts: 300.0 });
        assert!(noop.wake.is_none());
    }

    #[test]
    fn identical_runs_are_identical() {
        let run = || {
            let mut h = Harness::new(BatchedRow::new(
                params(vec![false, true]),
                &ServeConfig::default(),
                Profiler::disabled(),
            ));
            for id in 0..20u64 {
                h.arrive(
                    SimTime::from_secs(id as f64 * 0.5),
                    request(
                        id,
                        512 + (id as u32 % 7) * 128,
                        32 + (id as u32 % 5) * 16,
                        id % 3 == 0,
                    ),
                );
            }
            h.drain();
            (h.done, h.preemptions)
        };
        assert_eq!(run(), run());
    }
}
