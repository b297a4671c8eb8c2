//! The POLCA policy parameters and the power modes of Table 5.

use polca_gpu::GpuSpec;

/// The clock Table 5's power brake runs every GPU at: the A100's brake
/// clock, the clock a braked server runs at.
const BRAKE_MHZ: f64 = GpuSpec::a100_80gb().power_brake_clock_mhz();

/// The capping state a server group is in, per the paper's Table 5.
/// [`PolcaController`](crate::PolcaController) steps through these
/// modes and locks each priority class at the clock its mode gives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PowerMode {
    /// No caps anywhere.
    Uncapped,
    /// Threshold T1 breached: low priority frequency-capped (1275 MHz),
    /// high priority untouched.
    T1,
    /// Threshold T2 breached: low priority capped hard (1110 MHz); high
    /// priority gently capped (1305 MHz) if power stays high.
    T2,
    /// Power brake: everything at the GPU's brake clock (288 MHz).
    Brake,
}

impl PowerMode {
    /// The SM clock (MHz) Table 5 assigns to *low-priority* workloads in
    /// this mode, or `None` when uncapped.
    pub fn low_priority_clock_mhz(self, policy: &PolcaPolicy) -> Option<f64> {
        match self {
            PowerMode::Uncapped => None,
            PowerMode::T1 => Some(policy.t1_low_mhz),
            PowerMode::T2 => Some(policy.t2_low_mhz),
            PowerMode::Brake => Some(BRAKE_MHZ),
        }
    }

    /// The SM clock (MHz) Table 5 assigns to *high-priority* workloads in
    /// this mode, or `None` when uncapped. In T2 this applies only after
    /// the low-priority cap alone proved insufficient.
    pub fn high_priority_clock_mhz(self, policy: &PolcaPolicy) -> Option<f64> {
        match self {
            PowerMode::Uncapped | PowerMode::T1 => None,
            PowerMode::T2 => Some(policy.t2_high_mhz),
            PowerMode::Brake => Some(BRAKE_MHZ),
        }
    }
}

/// All tunable parameters of the POLCA dual-threshold policy (§6.3,
/// Table 5), expressed as fractions of the row's provisioned power and
/// A100 clock points.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PolcaPolicy {
    /// Lower capping threshold as a fraction of provisioned power
    /// (paper: 0.80).
    pub t1_frac: f64,
    /// Upper capping threshold (paper: 0.89 — provisioned minus the max
    /// 40 s power spike).
    pub t2_frac: f64,
    /// Hysteresis: uncap this far below the corresponding threshold
    /// (paper: 0.05, "sufficiently below the capping threshold to avoid
    /// hysteresis").
    pub uncap_gap: f64,
    /// Fraction at which the power brake fires (the provisioned limit).
    pub brake_frac: f64,
    /// Fraction at or below which an engaged brake is released.
    pub brake_release_frac: f64,
    /// T1 low-priority clock in MHz (paper: 1275, the A100 base clock).
    pub t1_low_mhz: f64,
    /// T2 low-priority clock in MHz (paper: 1110).
    pub t2_low_mhz: f64,
    /// T2 high-priority clock in MHz (paper: 1305).
    pub t2_high_mhz: f64,
    /// How long observed power must stay below an uncap level before
    /// the controller de-escalates, in seconds.
    ///
    /// The paper's control path is slow — 2 s-stale telemetry and
    /// 20–40 s OOB command latency — so an uncap issued on a transient
    /// dip hands power back exactly when a burst may be starting, and
    /// the corrective re-cap cannot land for another ~40 s. Requiring
    /// the dip to persist for at least the worst-case actuation delay
    /// keeps caps in place through the dip-then-surge pattern that
    /// otherwise walks the row into the power brake ("POLCA
    /// conservatively uncaps", §6.3).
    pub uncap_dwell_s: f64,
}

impl Default for PolcaPolicy {
    /// The configuration the paper selects: T1 = 80 %, T2 = 89 %, 5 %
    /// uncap gap, Table 5 clocks.
    fn default() -> Self {
        PolcaPolicy {
            t1_frac: 0.80,
            t2_frac: 0.89,
            uncap_gap: 0.05,
            brake_frac: 1.0,
            brake_release_frac: 0.92,
            t1_low_mhz: 1275.0,
            t2_low_mhz: 1110.0,
            t2_high_mhz: 1305.0,
            // Worst-case OOB latency (40 s) + telemetry staleness (2 s)
            // with margin: a dip must outlast one full actuation round
            // trip before caps are released.
            uncap_dwell_s: 60.0,
        }
    }
}

impl PolcaPolicy {
    /// Returns the policy with different thresholds (the Figure 13
    /// T1/T2 space search).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < t1 < t2 <= 1`.
    pub fn with_thresholds(mut self, t1: f64, t2: f64) -> Self {
        assert!(
            0.0 < t1 && t1 < t2 && t2 <= 1.0,
            "thresholds must satisfy 0 < t1 < t2 <= 1"
        );
        self.t1_frac = t1;
        self.t2_frac = t2;
        self
    }

    /// Returns the policy with a different T1 low-priority capping
    /// frequency (the Figure 15a sweep).
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive.
    pub fn with_t1_frequency(mut self, mhz: f64) -> Self {
        assert!(mhz > 0.0, "frequency must be positive");
        self.t1_low_mhz = mhz;
        self
    }

    /// Returns the policy with a different hysteresis gap (ablation).
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative.
    pub fn with_uncap_gap(mut self, gap: f64) -> Self {
        assert!(gap >= 0.0, "uncap gap cannot be negative");
        self.uncap_gap = gap;
        self
    }

    /// Returns the policy with a different uncap dwell (ablation; 0
    /// restores instantaneous de-escalation).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative.
    pub fn with_uncap_dwell(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "uncap dwell cannot be negative");
        self.uncap_dwell_s = secs;
        self
    }

    /// The uncap level for T1 (fraction of provisioned power).
    pub fn t1_uncap_frac(&self) -> f64 {
        self.t1_frac - self.uncap_gap
    }

    /// The uncap level for T2 (fraction of provisioned power).
    pub fn t2_uncap_frac(&self) -> f64 {
        self.t2_frac - self.uncap_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table5_and_section63() {
        let p = PolcaPolicy::default();
        assert_eq!(p.t1_frac, 0.80);
        assert_eq!(p.t2_frac, 0.89);
        assert_eq!(p.uncap_gap, 0.05);
        assert_eq!(p.t1_low_mhz, 1275.0);
        assert_eq!(p.t2_low_mhz, 1110.0);
        assert_eq!(p.t2_high_mhz, 1305.0);
        // One worst-case control round trip (40s OOB + 2s telemetry,
        // with margin) before caps are released.
        assert_eq!(p.uncap_dwell_s, 60.0);
    }

    #[test]
    fn table5_mode_clock_assignments() {
        let p = PolcaPolicy::default();
        assert_eq!(PowerMode::Uncapped.low_priority_clock_mhz(&p), None);
        assert_eq!(PowerMode::Uncapped.high_priority_clock_mhz(&p), None);
        assert_eq!(PowerMode::T1.low_priority_clock_mhz(&p), Some(1275.0));
        assert_eq!(PowerMode::T1.high_priority_clock_mhz(&p), None);
        assert_eq!(PowerMode::T2.low_priority_clock_mhz(&p), Some(1110.0));
        assert_eq!(PowerMode::T2.high_priority_clock_mhz(&p), Some(1305.0));
        assert_eq!(PowerMode::Brake.low_priority_clock_mhz(&p), Some(288.0));
        assert_eq!(PowerMode::Brake.high_priority_clock_mhz(&p), Some(288.0));
    }

    #[test]
    fn uncap_levels_sit_below_thresholds() {
        let p = PolcaPolicy::default();
        assert!((p.t1_uncap_frac() - 0.75).abs() < 1e-12);
        assert!((p.t2_uncap_frac() - 0.84).abs() < 1e-12);
    }

    #[test]
    fn threshold_override_validates_ordering() {
        let p = PolcaPolicy::default().with_thresholds(0.75, 0.85);
        assert_eq!(p.t1_frac, 0.75);
        assert_eq!(p.t2_frac, 0.85);
    }

    #[test]
    #[should_panic(expected = "0 < t1 < t2")]
    fn inverted_thresholds_rejected() {
        let _ = PolcaPolicy::default().with_thresholds(0.9, 0.8);
    }

    #[test]
    fn lower_modes_run_faster_clocks() {
        let p = PolcaPolicy::default();
        let t1 = PowerMode::T1.low_priority_clock_mhz(&p).unwrap();
        let t2 = PowerMode::T2.low_priority_clock_mhz(&p).unwrap();
        let brake = PowerMode::Brake.low_priority_clock_mhz(&p).unwrap();
        assert!(t1 > t2 && t2 > brake);
    }
}
