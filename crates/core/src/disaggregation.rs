//! Phase-splitting deployment analysis (§5.2, Splitwise \[49\]).
//!
//! "It would be interesting to separate prompt computation and token
//! processing on different GPUs, which enables us to only power cap GPUs
//! that run the token phases. Such separation would require transferring
//! intermediate state between the prompt and token GPUs, which is
//! promising given the high-bandwidth Infiniband interconnects in LLM
//! clusters."
//!
//! [`Disaggregation`] sizes the two pools from the workload mix (Little's
//! law on per-phase service times), prices the KV-cache transfer over the
//! interconnect, and compares the power envelope against an aggregated
//! deployment at equal throughput.

use polca_cluster::{EngineKind, RowConfig};
use polca_gpu::{DvfsModel, HOT_IDLE_INTENSITY};
use polca_llm::{InferenceConfig, InferenceModel};
use polca_serve::ServeConfig;
use polca_trace::WorkloadClass;

/// A phase-split deployment plan for one row.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Disaggregation {
    /// Servers dedicated to prompt processing (full clock).
    pub prompt_servers: usize,
    /// Servers dedicated to token generation (permanently capped).
    pub token_servers: usize,
    /// The permanent token-pool SM clock in MHz.
    pub token_clock_mhz: f64,
    /// Mean KV-cache transfer time per request, in seconds.
    pub kv_transfer_s: f64,
    /// Mean end-to-end latency including the transfer, in seconds.
    pub request_latency_s: f64,
    /// Mean latency of the equivalent aggregated deployment, in seconds.
    pub aggregated_latency_s: f64,
    /// Peak row power of the split deployment, in watts.
    pub peak_watts: f64,
    /// Peak row power of the aggregated deployment at the same
    /// throughput, in watts.
    pub aggregated_peak_watts: f64,
}

/// Parameters of the splitting analysis.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DisaggregationConfig {
    /// Interconnect bandwidth for KV shipping, bytes/s (the paper points
    /// at InfiniBand; DGX-A100 has 8×200 Gb/s HCAs ⇒ ~200 GB/s).
    pub interconnect_bytes_per_s: f64,
    /// Target utilization for each pool (headroom against queueing).
    pub pool_utilization: f64,
    /// Token-pool SM clock in MHz (the §5.2 "lower frequencies during
    /// the token phase").
    pub token_clock_mhz: f64,
}

impl Default for DisaggregationConfig {
    fn default() -> Self {
        DisaggregationConfig {
            interconnect_bytes_per_s: 200e9,
            pool_utilization: 0.8,
            token_clock_mhz: 1110.0,
        }
    }
}

impl DisaggregationConfig {
    /// The continuous-batching engine matching this analysis. With
    /// `split_pools`, the row runs disaggregated prefill/decode pools:
    /// KV-cache handoffs ship over this interconnect and the decode
    /// pool holds the §5.2 token clock; otherwise every server serves
    /// both phases (aggregated) under the default [`ServeConfig`].
    pub fn batched_engine(&self, split_pools: bool) -> EngineKind {
        if split_pools {
            EngineKind::Batched(ServeConfig::split_pools(
                self.interconnect_bytes_per_s,
                Some(self.token_clock_mhz),
            ))
        } else {
            EngineKind::Batched(ServeConfig::default())
        }
    }
}

impl Disaggregation {
    /// Plans a phase-split deployment for `row` serving the given mix at
    /// `total_servers` worth of aggregated capacity.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or the row's model does not fit.
    pub fn plan(row: &RowConfig, mix: &[WorkloadClass], config: &DisaggregationConfig) -> Self {
        assert!(!mix.is_empty(), "mix must be non-empty");
        let deployment = InferenceModel::new(row.model.clone(), row.server_spec.gpu.clone())
            .expect("row model must fit");
        let dvfs = DvfsModel::default();
        let spec = &row.server_spec;
        let r_token = config.token_clock_mhz / spec.gpu.max_sm_clock_mhz;

        // Mix-weighted per-phase service times and intensities.
        let mut prompt_s = 0.0;
        let mut token_s = 0.0;
        let mut token_s_capped = 0.0;
        let mut prompt_intensity = 0.0;
        let mut token_intensity = 0.0;
        let mut kv_bytes = 0.0;
        for class in mix {
            let (input, output) = class.mean_shape();
            let profile = deployment.profile(&InferenceConfig::new(input as u32, output as u32, 1));
            prompt_s += class.share * profile.prompt.duration_s;
            token_s += class.share * profile.token.duration_s;
            token_s_capped += class.share * profile.token.duration_at_clock(&dvfs, r_token);
            prompt_intensity += class.share * profile.prompt.intensity;
            token_intensity += class.share * profile.token.intensity;
            kv_bytes += class.share * input * deployment.model().kv_bytes_per_token(2.0);
        }
        let kv_transfer_s = kv_bytes / config.interconnect_bytes_per_s;

        // Size the pools by Little's law at the configured utilization,
        // for the throughput the aggregated row sustains at the same
        // utilization.
        let total = row.total_servers() as f64;
        let aggregated_service = prompt_s + token_s;
        let rate = config.pool_utilization * total / aggregated_service;
        let prompt_pool = (rate * prompt_s / config.pool_utilization).ceil().max(1.0);
        let token_pool = (rate * token_s_capped / config.pool_utilization)
            .ceil()
            .max(1.0);

        // Power: each pool at its own operating point, busy at the pool
        // utilization, hot-idle otherwise; GPUs the deployment leaves
        // spare idle.
        let server_power = |intensity: f64, clock_ratio: f64| {
            spec.power_watts(
                deployment.n_gpus(),
                intensity,
                dvfs.power_scale(clock_ratio),
            )
        };
        let u = config.pool_utilization;
        let prompt_pool_watts = prompt_pool
            * (u * server_power(prompt_intensity, 1.0)
                + (1.0 - u) * server_power(HOT_IDLE_INTENSITY, 1.0));
        let token_pool_watts = token_pool
            * (u * server_power(token_intensity, r_token)
                + (1.0 - u) * server_power(HOT_IDLE_INTENSITY, r_token));
        // Aggregated peak: every server alternates phases at full clock.
        let busy_mix = (prompt_s * server_power(prompt_intensity, 1.0)
            + token_s * server_power(token_intensity, 1.0))
            / aggregated_service;
        let aggregated_watts =
            total * (u * busy_mix + (1.0 - u) * server_power(HOT_IDLE_INTENSITY, 1.0));

        Disaggregation {
            prompt_servers: prompt_pool as usize,
            token_servers: token_pool as usize,
            token_clock_mhz: config.token_clock_mhz,
            kv_transfer_s,
            request_latency_s: prompt_s + kv_transfer_s + token_s_capped,
            aggregated_latency_s: aggregated_service,
            peak_watts: prompt_pool_watts + token_pool_watts,
            aggregated_peak_watts: aggregated_watts,
        }
    }

    /// Power saved relative to the aggregated deployment, as a fraction.
    pub fn power_saving(&self) -> f64 {
        1.0 - self.peak_watts / self.aggregated_peak_watts
    }

    /// Latency overhead relative to the aggregated deployment, as a
    /// fraction (KV transfer plus the capped token pool).
    pub fn latency_overhead(&self) -> f64 {
        self.request_latency_s / self.aggregated_latency_s - 1.0
    }

    /// Total servers in the split deployment.
    pub fn total_servers(&self) -> usize {
        self.prompt_servers + self.token_servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Disaggregation {
        Disaggregation::plan(
            &RowConfig::paper_inference_row(),
            &WorkloadClass::table6(),
            &DisaggregationConfig::default(),
        )
    }

    #[test]
    fn token_pool_dominates_the_deployment() {
        // Prompt phases are a small fraction of request time, so the
        // capped token pool holds most servers — which is exactly why
        // phase splitting saves power.
        let p = plan();
        assert!(p.token_servers >= 8 * p.prompt_servers, "{p:?}");
        assert!(p.total_servers() <= 42, "pool sizing blew up: {p:?}");
    }

    #[test]
    fn splitting_saves_meaningful_power() {
        let p = plan();
        assert!(
            p.power_saving() > 0.05,
            "saving {:.3} ({:.0} W vs {:.0} W)",
            p.power_saving(),
            p.peak_watts,
            p.aggregated_peak_watts
        );
    }

    #[test]
    fn kv_transfer_is_milliseconds_over_infiniband() {
        // "promising given the high-bandwidth Infiniband interconnects":
        // shipping a few GB of KV-cache takes tens of milliseconds
        // against a multi-second prompt phase.
        let p = plan();
        assert!(p.kv_transfer_s < 0.1, "transfer {:.4}s", p.kv_transfer_s);
        assert!(
            p.latency_overhead() < 0.05,
            "overhead {:.3}",
            p.latency_overhead()
        );
    }

    #[test]
    fn slower_interconnect_raises_the_overhead() {
        let row = RowConfig::paper_inference_row();
        let mix = WorkloadClass::table6();
        let fast = Disaggregation::plan(&row, &mix, &DisaggregationConfig::default());
        let slow = Disaggregation::plan(
            &row,
            &mix,
            &DisaggregationConfig {
                interconnect_bytes_per_s: 1e9, // plain 10 GbE
                ..DisaggregationConfig::default()
            },
        );
        assert!(slow.kv_transfer_s > 50.0 * fast.kv_transfer_s);
        assert!(slow.latency_overhead() > fast.latency_overhead());
    }

    #[test]
    fn deeper_token_caps_save_more_power_but_cost_latency() {
        let row = RowConfig::paper_inference_row();
        let mix = WorkloadClass::table6();
        let shallow = Disaggregation::plan(
            &row,
            &mix,
            &DisaggregationConfig {
                token_clock_mhz: 1305.0,
                ..DisaggregationConfig::default()
            },
        );
        let deep = Disaggregation::plan(
            &row,
            &mix,
            &DisaggregationConfig {
                token_clock_mhz: 900.0,
                ..DisaggregationConfig::default()
            },
        );
        assert!(deep.peak_watts < shallow.peak_watts);
        assert!(deep.request_latency_s >= shallow.request_latency_s);
    }

    #[test]
    fn gpus_the_deployment_leaves_spare_idle() {
        // GPT-NeoX-20B occupies 2 of a DGX-A100's 8 GPUs; as on both
        // serving engines, the other six idle in every pool, so no
        // server draws more than its deployment at full intensity.
        let mut row = RowConfig::paper_inference_row();
        row.model = polca_llm::ModelSpec::gpt_neox_20b();
        let spec = &row.server_spec;
        let deployment = InferenceModel::new(row.model.clone(), spec.gpu.clone()).unwrap();
        assert_eq!((deployment.n_gpus(), spec.n_gpus), (2, 8));
        let p = Disaggregation::plan(
            &row,
            &WorkloadClass::table6(),
            &DisaggregationConfig::default(),
        );
        let busiest = spec.power_watts(deployment.n_gpus(), 1.0, 1.0);
        assert!(
            p.peak_watts <= p.total_servers() as f64 * busiest,
            "split {:.0} W over {} servers of at most {busiest:.0} W",
            p.peak_watts,
            p.total_servers()
        );
        assert!(
            p.aggregated_peak_watts <= row.total_servers() as f64 * busiest,
            "aggregated {:.0} W over {} servers of at most {busiest:.0} W",
            p.aggregated_peak_watts,
            row.total_servers()
        );
    }
}
