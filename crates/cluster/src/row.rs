//! Row-level configuration (Table 2 and §6.4).

use polca_gpu::{GpuSpec, ServerSpec};
use polca_llm::{InferenceModel, ModelSpec};

use crate::request::Priority;
use crate::server::InferenceServer;

/// Configuration of one PDU-fed row of inference servers.
///
/// The paper's evaluation row (Table 2) holds 40 DGX-A100 servers, all
/// serving BLOOM-176B, with telemetry every 2 s. Power is provisioned at
/// the servers' rated draw; POLCA's oversubscription adds servers under
/// the *same* row budget. A row is the *bottom* of the power hierarchy,
/// not the top: rows aggregate into PDUs, PDUs into datacenters, and
/// datacenters into a site (see [`crate::hierarchy::SiteHierarchy`] and
/// [`crate::site::SiteSim`]), each level with its own budget knobs.
#[derive(Debug, Clone)]
pub struct RowConfig {
    /// Servers the row was originally provisioned for.
    pub base_servers: usize,
    /// Extra servers deployed via oversubscription, as a fraction of
    /// `base_servers` (0.30 = "30 % more servers").
    pub added_fraction: f64,
    /// The server hardware.
    pub server_spec: ServerSpec,
    /// The model every server serves.
    pub model: ModelSpec,
    /// Fraction of servers dedicated to low-priority workloads.
    pub low_priority_fraction: f64,
    /// Per-server request buffer depth (§6.6: one).
    pub buffer_capacity: usize,
    /// §5.2 phase-aware power management: run token phases at this SM
    /// clock (prompt phases keep the full clock). `None` disables it.
    pub phase_aware_token_mhz: Option<f64>,
}

impl RowConfig {
    /// The production inference row of Table 2 / §6.4: 40 DGX-A100
    /// servers serving BLOOM-176B, 50:50 priority mix, one-request
    /// buffers.
    pub fn paper_inference_row() -> Self {
        RowConfig {
            base_servers: 40,
            added_fraction: 0.0,
            server_spec: ServerSpec::dgx_a100(),
            model: ModelSpec::bloom_176b(),
            low_priority_fraction: 0.5,
            buffer_capacity: 1,
            phase_aware_token_mhz: None,
        }
    }

    /// Enables §5.2 phase-aware power management on every server: token
    /// phases run at `token_mhz`, prompt phases at full clock.
    ///
    /// # Panics
    ///
    /// Panics if `token_mhz` is outside the GPU's clock range.
    pub fn with_phase_aware(mut self, token_mhz: f64) -> Self {
        assert!(
            self.server_spec.gpu.clock_in_range(token_mhz),
            "phase-aware token clock outside device range"
        );
        self.phase_aware_token_mhz = Some(token_mhz);
        self
    }

    /// Returns this configuration with `fraction` more servers deployed
    /// (0.30 = +30 %).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative.
    pub fn with_added_servers(mut self, fraction: f64) -> Self {
        assert!(fraction >= 0.0, "added fraction cannot be negative");
        self.added_fraction = fraction;
        self
    }

    /// Returns this configuration with a different low-priority server
    /// share (Figure 15b sweeps this).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_low_priority_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "low-priority fraction must be in [0, 1]"
        );
        self.low_priority_fraction = fraction;
        self
    }

    /// Total servers deployed (base plus oversubscribed).
    pub fn total_servers(&self) -> usize {
        (self.base_servers as f64 * (1.0 + self.added_fraction)).round() as usize
    }

    /// The row's fixed power budget in watts.
    ///
    /// The row is provisioned for the *base* deployment at the servers'
    /// observed peak draw plus a 5 % safety margin — i.e. after the §5
    /// derating step (rated DGX-A100 power is 6.5 kW but "the peak power
    /// on our machine never exceeded 5700 W"). This is the budget against
    /// which Table 4 reports 79 % peak utilization and POLCA's
    /// oversubscription squeezes in extra servers.
    pub fn provisioned_watts(&self) -> f64 {
        self.base_servers as f64 * self.server_spec.peak_power_watts() * 1.05
    }

    /// Number of low-priority servers in the row.
    pub fn low_priority_servers(&self) -> usize {
        (self.total_servers() as f64 * self.low_priority_fraction).round() as usize
    }

    /// The GPU model in this row.
    pub fn gpu(&self) -> &GpuSpec {
        &self.server_spec.gpu
    }

    /// Each server's priority class, by server id, interleaved so that
    /// both classes spread across the row (the cloud allocator "can make
    /// power-oversubscription aware allocation to ensure a good mix of
    /// high and low-priority jobs in every row", §6.3). Both serving
    /// engines lay their servers out this way.
    pub fn priorities(&self) -> Vec<Priority> {
        let total = self.total_servers();
        let n_low = self.low_priority_servers();
        (0..total)
            .map(|id| {
                // Interleave low-priority servers evenly by accumulating
                // the fraction (Bresenham-style).
                let low_before = (id as f64 * n_low as f64 / total as f64).floor() as usize;
                let low_after = ((id + 1) as f64 * n_low as f64 / total as f64).floor() as usize;
                if low_after > low_before {
                    Priority::Low
                } else {
                    Priority::High
                }
            })
            .collect()
    }

    /// Builds the legacy engine's servers, laid out by
    /// [`priorities`](Self::priorities).
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit its Table 3 GPU allocation on the
    /// row's GPU type.
    pub fn build_servers(&self) -> Vec<InferenceServer> {
        let deployment = InferenceModel::new(self.model.clone(), self.server_spec.gpu.clone())
            .expect("row model must fit its GPU allocation");
        self.priorities()
            .into_iter()
            .enumerate()
            .map(|(id, priority)| {
                let mut server = InferenceServer::new(
                    id,
                    priority,
                    self.server_spec.clone(),
                    deployment.clone(),
                    self.buffer_capacity,
                );
                server.set_phase_aware(self.phase_aware_token_mhz);
                server
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_row_matches_table2() {
        let row = RowConfig::paper_inference_row();
        assert_eq!(row.base_servers, 40);
        assert_eq!(row.total_servers(), 40);
        // Peak-provisioned (post-derating) budget: well under the rated
        // 40 × 6.5 kW = 260 kW, but above 40 × observed peak.
        let budget = row.provisioned_watts();
        assert!(budget < 260_000.0, "budget {budget}");
        assert!(budget > 40.0 * row.server_spec.peak_power_watts());
        assert_eq!(row.buffer_capacity, 1);
    }

    #[test]
    fn thirty_percent_oversubscription_adds_twelve_servers() {
        let row = RowConfig::paper_inference_row().with_added_servers(0.30);
        assert_eq!(row.total_servers(), 52);
        // The budget does not grow with the servers.
        assert_eq!(
            row.provisioned_watts(),
            RowConfig::paper_inference_row().provisioned_watts()
        );
    }

    #[test]
    fn priority_split_is_even_and_interleaved() {
        let row = RowConfig::paper_inference_row();
        let servers = row.build_servers();
        let low = servers
            .iter()
            .filter(|s| s.priority() == Priority::Low)
            .count();
        assert_eq!(low, 20);
        // Interleaving: no run of 4+ same-priority servers for a 50:50 mix.
        let mut run = 1;
        for w in servers.windows(2) {
            if w[0].priority() == w[1].priority() {
                run += 1;
                assert!(run < 4, "priorities are clumped");
            } else {
                run = 1;
            }
        }
    }

    #[test]
    fn low_priority_fraction_extremes() {
        let all_high = RowConfig::paper_inference_row().with_low_priority_fraction(0.0);
        assert!(all_high
            .build_servers()
            .iter()
            .all(|s| s.priority() == Priority::High));
        let all_low = RowConfig::paper_inference_row().with_low_priority_fraction(1.0);
        assert!(all_low
            .build_servers()
            .iter()
            .all(|s| s.priority() == Priority::Low));
    }

    #[test]
    fn server_ids_are_sequential() {
        let servers = RowConfig::paper_inference_row().build_servers();
        for (i, s) in servers.iter().enumerate() {
            assert_eq!(s.id(), i);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_added_fraction_rejected() {
        let _ = RowConfig::paper_inference_row().with_added_servers(-0.1);
    }
}
