//! Server-level power composition (Figures 3 and 11): the one server
//! power model the legacy and batched serving engines, the training row
//! and the analytical figures all call.

use crate::spec::GpuSpec;

/// Workload intensity of a serving-framework-resident GPU with no active
/// request ("hot idle"): the model weights stay loaded, the runtime
/// busy-polls, and memory clocks stay up, so the draw is well above the
/// bare idle floor. The paper's production servers "are serving
/// inference with models loaded" at all times (§6.4).
pub const HOT_IDLE_INTENSITY: f64 = 0.35;

/// Static power characteristics of a GPU server.
///
/// Figure 3 breaks down the 6.5 kW provisioned for a DGX-A100: about half
/// goes to the 8 GPUs, a quarter to fans, the rest to CPUs and other
/// components. At runtime the paper observes that "the peak power on our
/// machine never exceeded 5700 W" (§5) and that GPUs average 60 % of
/// server power (Figure 11) — both reproduced by
/// [`server_power_watts`](ServerSpec::server_power_watts).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Marketing name.
    pub name: &'static str,
    /// GPUs per server.
    pub n_gpus: usize,
    /// The GPU model.
    pub gpu: GpuSpec,
    /// Rated (provisioned) power in watts.
    pub provisioned_watts: f64,
    /// Provisioned fan power in watts (Figure 3: ~25 %).
    pub fans_provisioned_watts: f64,
    /// Provisioned CPU power in watts.
    pub cpu_provisioned_watts: f64,
    /// Provisioned power for everything else (NICs, NVMe, VRs) in watts.
    pub other_provisioned_watts: f64,
    /// Baseline non-GPU draw when the server is powered on, in watts.
    pub non_gpu_base_watts: f64,
    /// Extra non-GPU watts drawn per GPU watt (fan speed-up, VR losses).
    pub non_gpu_per_gpu_watt: f64,
}

impl ServerSpec {
    /// The NVIDIA DGX-A100 of the paper's §3.4 (inference flavor,
    /// 8×A100-80GB).
    pub fn dgx_a100() -> Self {
        let gpu = GpuSpec::a100_80gb();
        ServerSpec {
            name: "DGX-A100",
            n_gpus: 8,
            gpu,
            provisioned_watts: 6500.0,
            fans_provisioned_watts: 1625.0, // 25 % (Figure 3)
            cpu_provisioned_watts: 1000.0,
            other_provisioned_watts: 675.0,
            non_gpu_base_watts: 1200.0,
            non_gpu_per_gpu_watt: 0.25,
        }
    }

    /// The DGX-H100 (8U, 10.2 kW) mentioned in §6.7 for density
    /// comparisons.
    pub fn dgx_h100() -> Self {
        let gpu = GpuSpec::h100_80gb();
        ServerSpec {
            name: "DGX-H100",
            n_gpus: 8,
            gpu,
            provisioned_watts: 10_200.0,
            fans_provisioned_watts: 2550.0,
            cpu_provisioned_watts: 1200.0,
            other_provisioned_watts: 850.0,
            non_gpu_base_watts: 1500.0,
            non_gpu_per_gpu_watt: 0.25,
        }
    }

    /// Provisioned GPU power (GPU TDP × count).
    pub fn gpu_provisioned_watts(&self) -> f64 {
        self.gpu.tdp_watts * self.n_gpus as f64
    }

    /// The Figure 3 provisioned-power breakdown as `(component, watts)`
    /// pairs, in plot order.
    pub fn provisioned_breakdown(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("GPUs", self.gpu_provisioned_watts()),
            ("Fans", self.fans_provisioned_watts),
            ("CPUs", self.cpu_provisioned_watts),
            ("Others", self.other_provisioned_watts),
        ]
    }

    /// Total server power when the GPUs together draw `gpu_watts`.
    ///
    /// Non-GPU power is a base plus a fraction of GPU power (fans track
    /// thermal load).
    #[inline]
    pub fn server_power_watts(&self, gpu_watts: f64) -> f64 {
        gpu_watts + self.non_gpu_base_watts + self.non_gpu_per_gpu_watt * gpu_watts
    }

    /// Server power when a deployment occupying `deployed_gpus` GPUs
    /// runs at workload `intensity` with its dynamic power scaled by
    /// `dvfs_scale` (see [`GpuSpec::power_watts`]): the GPUs the
    /// deployment leaves spare idle, and the chassis adds its non-GPU
    /// draw ([`server_power_watts`](Self::server_power_watts)).
    #[inline]
    pub fn power_watts(&self, deployed_gpus: usize, intensity: f64, dvfs_scale: f64) -> f64 {
        let gpu_watts = self.gpu.power_watts(intensity, dvfs_scale) * deployed_gpus as f64;
        let spare = self.n_gpus.saturating_sub(deployed_gpus) as f64;
        self.server_power_watts(gpu_watts + spare * self.gpu.idle_watts)
    }

    /// The highest power the server can transiently draw (all GPUs at
    /// their transient peak).
    pub fn peak_power_watts(&self) -> f64 {
        self.server_power_watts(self.gpu.transient_peak_watts * self.n_gpus as f64)
    }

    /// Server power with every GPU idle.
    pub fn idle_power_watts(&self) -> f64 {
        self.server_power_watts(self.gpu.idle_watts * self.n_gpus as f64)
    }

    /// How many watts of provisioning the paper's derating argument (§5)
    /// reclaims: rated power minus the observed peak.
    pub fn derating_headroom_watts(&self) -> f64 {
        self.provisioned_watts - self.peak_power_watts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServerSpec {
        ServerSpec::dgx_a100()
    }

    #[test]
    fn figure3_breakdown_sums_to_provisioned_power() {
        let s = spec();
        let total: f64 = s.provisioned_breakdown().iter().map(|(_, w)| w).sum();
        assert!((total - s.provisioned_watts).abs() < 1.0, "total {total}");
    }

    #[test]
    fn gpus_get_about_half_the_provisioned_power() {
        // "around 50 % of the power is provisioned for GPUs" (§3.4).
        let s = spec();
        let frac = s.gpu_provisioned_watts() / s.provisioned_watts;
        assert!((0.45..=0.55).contains(&frac), "gpu frac {frac}");
    }

    #[test]
    fn fans_get_about_a_quarter() {
        // "server fans constitute nearly 25 % of the server power" (§5).
        let s = spec();
        let frac = s.fans_provisioned_watts / s.provisioned_watts;
        assert!((0.23..=0.27).contains(&frac), "fan frac {frac}");
    }

    #[test]
    fn peak_power_never_exceeds_5700w() {
        // §5: derating argument — observed peak ≤ 5700 W on the 6.5 kW
        // rated DGX-A100, reclaiming ~800 W.
        let s = spec();
        assert!(
            s.peak_power_watts() <= 5700.0,
            "peak {}",
            s.peak_power_watts()
        );
        assert!(
            s.derating_headroom_watts() >= 780.0,
            "headroom {}",
            s.derating_headroom_watts()
        );
    }

    #[test]
    fn gpus_are_about_sixty_percent_of_busy_server_power() {
        // Figure 11 / Insight 8, at a token-phase operating point.
        let s = spec();
        let gpu_watts = 8.0 * 290.0; // ~token-phase draw per GPU
        let frac = gpu_watts / s.server_power_watts(gpu_watts);
        assert!((0.55..=0.65).contains(&frac), "gpu frac {frac}");
    }

    #[test]
    fn spare_gpus_idle_beside_the_deployment() {
        let s = spec();
        // A two-GPU deployment at full intensity: six GPUs stay idle.
        assert_eq!(
            s.power_watts(2, 1.0, 1.0),
            s.server_power_watts(2.0 * 425.0 + 6.0 * 80.0)
        );
        assert_eq!(s.power_watts(8, 1.0, 1.0), s.peak_power_watts());
        assert_eq!(s.power_watts(8, 0.0, 1.0), s.idle_power_watts());
    }

    #[test]
    fn idle_power_is_well_below_peak() {
        let s = spec();
        assert!(s.idle_power_watts() < 0.5 * s.peak_power_watts());
    }

    #[test]
    fn h100_is_power_denser() {
        assert!(
            ServerSpec::dgx_h100().provisioned_watts > ServerSpec::dgx_a100().provisioned_watts
        );
    }
}
