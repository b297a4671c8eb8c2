//! Device constants for the GPUs in the study.

/// Static characteristics of one GPU model.
///
/// The A100 numbers follow the public product briefs the paper cites
/// (\[44, 46\]); the transient peak captures the paper's observation that
/// "peak GPU power far exceeds the overall server GPU TDP (by up to
/// 500 W)" across 8 GPUs, i.e. roughly 6 % per GPU above TDP.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-80GB"`.
    pub name: &'static str,
    /// Thermal design power in watts; also the default power cap.
    pub tdp_watts: f64,
    /// Idle power draw in watts (≈20 % of TDP per Figure 4's Flan-T5
    /// synchronization troughs).
    pub idle_watts: f64,
    /// Highest instantaneous power the device can transiently draw, in
    /// watts. Exceeds TDP: prompt-phase spikes go beyond TDP (Insight 4).
    pub transient_peak_watts: f64,
    /// Minimum configurable SM clock in MHz.
    pub min_sm_clock_mhz: f64,
    /// Base (guaranteed) SM clock in MHz — 1275 MHz on A100 (Table 5).
    pub base_sm_clock_mhz: f64,
    /// Maximum boost SM clock in MHz — 1410 MHz on A100.
    pub max_sm_clock_mhz: f64,
    /// HBM capacity in GiB.
    pub memory_gib: f64,
    /// HBM bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Peak dense FP16 tensor throughput in TFLOPS.
    pub peak_fp16_tflops: f64,
    /// Lowest configurable power cap in watts (`nvidia-smi -pl` lower
    /// bound; 300–400 W window in the paper's methodology §3.4).
    pub min_power_cap_watts: f64,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-80GB (the inference machine in §3.4).
    pub const fn a100_80gb() -> Self {
        GpuSpec {
            name: "A100-80GB",
            tdp_watts: 400.0,
            idle_watts: 80.0,
            transient_peak_watts: 425.0,
            min_sm_clock_mhz: 210.0,
            base_sm_clock_mhz: 1275.0,
            max_sm_clock_mhz: 1410.0,
            memory_gib: 80.0,
            mem_bandwidth_gbps: 2039.0,
            peak_fp16_tflops: 312.0,
            min_power_cap_watts: 100.0,
        }
    }

    /// NVIDIA A100-SXM4-40GB (the training machine in §3.4).
    pub const fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-40GB",
            tdp_watts: 400.0,
            idle_watts: 80.0,
            transient_peak_watts: 425.0,
            min_sm_clock_mhz: 210.0,
            base_sm_clock_mhz: 1275.0,
            max_sm_clock_mhz: 1410.0,
            memory_gib: 40.0,
            mem_bandwidth_gbps: 1555.0,
            peak_fp16_tflops: 312.0,
            min_power_cap_watts: 100.0,
        }
    }

    /// NVIDIA H100-SXM5-80GB (mentioned in §4.2/§6.7 as the next
    /// generation; useful for what-if sweeps).
    pub const fn h100_80gb() -> Self {
        GpuSpec {
            name: "H100-80GB",
            tdp_watts: 700.0,
            idle_watts: 110.0,
            transient_peak_watts: 750.0,
            min_sm_clock_mhz: 210.0,
            base_sm_clock_mhz: 1665.0,
            max_sm_clock_mhz: 1980.0,
            memory_gib: 80.0,
            mem_bandwidth_gbps: 3350.0,
            peak_fp16_tflops: 989.0,
            min_power_cap_watts: 200.0,
        }
    }

    /// The SM clock the power brake forces (288 MHz per Table 5 — "brings
    /// all GPUs down to almost a halt").
    pub const fn power_brake_clock_mhz(&self) -> f64 {
        288.0
    }

    /// Power one GPU draws at workload `intensity` (1.0 = prompt-phase
    /// tensor burst, 0.0 = bare idle) with its dynamic power scaled by
    /// `dvfs_scale` ([`DvfsModel::power_scale`](crate::DvfsModel::power_scale)
    /// of the clock ratio; 1.0 at the full clock): `idle + (transient_peak
    /// − idle) · intensity · dvfs_scale`.
    #[inline]
    pub fn power_watts(&self, intensity: f64, dvfs_scale: f64) -> f64 {
        self.idle_watts + (self.transient_peak_watts - self.idle_watts) * intensity * dvfs_scale
    }

    /// The SM clock the device runs at, in MHz: the brake clock when
    /// `brake` is engaged, else the `locked_mhz` lock (the maximum clock
    /// when unlocked) held under the optional `ceiling_mhz` — the cap
    /// controller's limit, a phase-aware token clock or a pool clock.
    #[inline]
    pub fn clock_mhz(&self, brake: bool, locked_mhz: Option<f64>, ceiling_mhz: Option<f64>) -> f64 {
        if brake {
            return self.power_brake_clock_mhz();
        }
        let clock = locked_mhz.unwrap_or(self.max_sm_clock_mhz);
        match ceiling_mhz {
            Some(ceiling) => clock.min(ceiling),
            None => clock,
        }
    }

    /// Fraction of TDP drawn at idle.
    pub fn idle_fraction(&self) -> f64 {
        self.idle_watts / self.tdp_watts
    }

    /// Clamps a requested SM clock into the configurable range.
    pub fn clamp_clock(&self, mhz: f64) -> f64 {
        mhz.clamp(self.min_sm_clock_mhz, self.max_sm_clock_mhz)
    }

    /// Whether `mhz` is a configurable SM clock for this device.
    pub fn clock_in_range(&self, mhz: f64) -> bool {
        (self.min_sm_clock_mhz..=self.max_sm_clock_mhz).contains(&mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants_match_paper() {
        let spec = GpuSpec::a100_80gb();
        assert_eq!(spec.tdp_watts, 400.0);
        assert_eq!(spec.base_sm_clock_mhz, 1275.0); // Table 5 T1 frequency
        assert_eq!(spec.max_sm_clock_mhz, 1410.0);
        assert_eq!(spec.power_brake_clock_mhz(), 288.0); // Table 5 brake
        assert!(spec.transient_peak_watts > spec.tdp_watts); // Insight 4
    }

    #[test]
    fn idle_fraction_near_twenty_percent() {
        let spec = GpuSpec::a100_80gb();
        assert!((spec.idle_fraction() - 0.2).abs() < 0.01);
    }

    #[test]
    fn clock_clamping() {
        let spec = GpuSpec::a100_80gb();
        assert_eq!(spec.clamp_clock(5000.0), 1410.0);
        assert_eq!(spec.clamp_clock(0.0), 210.0);
        assert!(spec.clock_in_range(1275.0));
        assert!(!spec.clock_in_range(100.0));
    }

    #[test]
    fn power_spans_idle_to_transient_peak() {
        let spec = GpuSpec::a100_80gb();
        assert_eq!(spec.power_watts(0.0, 1.0), spec.idle_watts);
        assert_eq!(spec.power_watts(1.0, 1.0), spec.transient_peak_watts);
        // DVFS scales only the dynamic part.
        assert_eq!(spec.power_watts(1.0, 0.5), 80.0 + 345.0 * 0.5);
        assert_eq!(spec.power_watts(0.0, 0.5), spec.idle_watts);
    }

    #[test]
    fn clock_precedence_is_brake_lock_ceiling_max() {
        let spec = GpuSpec::a100_80gb();
        assert_eq!(spec.clock_mhz(false, None, None), 1410.0);
        assert_eq!(spec.clock_mhz(false, None, Some(1110.0)), 1110.0);
        assert_eq!(spec.clock_mhz(false, Some(1300.0), Some(1110.0)), 1110.0);
        assert_eq!(spec.clock_mhz(false, Some(900.0), Some(1110.0)), 900.0);
        assert_eq!(spec.clock_mhz(false, Some(1300.0), None), 1300.0);
        assert_eq!(spec.clock_mhz(true, Some(1300.0), Some(1110.0)), 288.0);
    }

    #[test]
    fn h100_is_denser_than_a100() {
        let a = GpuSpec::a100_80gb();
        let h = GpuSpec::h100_80gb();
        assert!(h.tdp_watts > a.tdp_watts);
        assert!(h.peak_fp16_tflops > a.peak_fp16_tflops);
        assert!(h.mem_bandwidth_gbps > a.mem_bandwidth_gbps);
    }
}
