//! Reactive power-cap controller.
//!
//! GPU power capping "limits GPU power consumption to a software-specified
//! value by reactively throttling frequencies" (§3.2). Because the control
//! loop reacts to *measured* power, brief spikes — the prompt phase — can
//! exceed the cap before the controller clamps the clock (Figure 9b,
//! Insight 7). [`CapController`] models that loop as a clock-limit state
//! machine with a finite slew rate.

use crate::spec::GpuSpec;

/// Reactive clock-throttling loop that enforces a power cap.
///
/// Each [`step`](CapController::step) the controller compares the measured
/// power against the cap and slews its internal SM-clock limit down (when
/// over) or up (when comfortably under, with a relax margin to avoid
/// oscillation). The slew rate is finite, so short spikes escape — the
/// defining difference from frequency locking.
#[derive(Debug, Clone, PartialEq)]
pub struct CapController {
    cap_watts: f64,
    limit_mhz: f64,
    min_mhz: f64,
    max_mhz: f64,
    /// Fraction below the cap at which the controller starts raising the
    /// clock limit again.
    relax_margin: f64,
}

impl CapController {
    /// The controller slew rate, in MHz per second the limit can move:
    /// the A100 firmware converges within a few hundred milliseconds,
    /// i.e. ~3 GHz/s over a 1.2 GHz range.
    pub const DEFAULT_SLEW_MHZ_PER_S: f64 = 3000.0;

    /// Creates a controller for `spec` enforcing `cap_watts`.
    ///
    /// # Panics
    ///
    /// Panics if the cap is below the device's minimum configurable cap or
    /// above its transient peak.
    pub fn new(spec: &GpuSpec, cap_watts: f64) -> Self {
        assert!(
            cap_watts >= spec.min_power_cap_watts,
            "cap below device minimum"
        );
        assert!(
            cap_watts <= spec.transient_peak_watts,
            "cap above device transient peak"
        );
        CapController {
            cap_watts,
            limit_mhz: spec.max_sm_clock_mhz,
            min_mhz: spec.min_sm_clock_mhz,
            max_mhz: spec.max_sm_clock_mhz,
            relax_margin: 0.03,
        }
    }

    /// The enforced cap in watts.
    pub fn cap_watts(&self) -> f64 {
        self.cap_watts
    }

    /// The controller's current SM-clock limit in MHz.
    pub fn limit_mhz(&self) -> f64 {
        self.limit_mhz
    }

    /// Advances the control loop by `dt` seconds given the power measured
    /// over that interval, returning the new clock limit.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn step(&mut self, dt: f64, measured_watts: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        let budget = Self::DEFAULT_SLEW_MHZ_PER_S * dt;
        if measured_watts > self.cap_watts {
            // Throttle proportionally to the overshoot, bounded by slew.
            let overshoot = (measured_watts - self.cap_watts) / self.cap_watts;
            let step = (budget * (overshoot * 10.0).min(1.0)).max(budget * 0.1);
            self.limit_mhz = (self.limit_mhz - step).max(self.min_mhz);
        } else if measured_watts < self.cap_watts * (1.0 - self.relax_margin) {
            // Relax fast when far below the cap (communication dips should
            // not stay throttled — Insight 3's "troughs untouched"), but
            // gently when close to it to avoid hunting.
            let gap = (self.cap_watts - measured_watts) / self.cap_watts;
            let step = budget * (gap * 2.0).min(1.0);
            self.limit_mhz = (self.limit_mhz + step).min(self.max_mhz);
        }
        self.limit_mhz
    }

    /// Resets the clock limit to the device maximum (cap removed and
    /// re-armed).
    pub fn reset(&mut self) {
        self.limit_mhz = self.max_mhz;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GpuSpec {
        GpuSpec::a100_80gb()
    }

    #[test]
    fn starts_at_max_clock() {
        let ctrl = CapController::new(&a100(), 325.0);
        assert_eq!(ctrl.limit_mhz(), 1410.0);
        assert_eq!(ctrl.cap_watts(), 325.0);
    }

    #[test]
    #[should_panic(expected = "below device minimum")]
    fn cap_below_minimum_rejected() {
        let _ = CapController::new(&a100(), 50.0);
    }

    #[test]
    #[should_panic(expected = "above device transient peak")]
    fn cap_above_peak_rejected() {
        let _ = CapController::new(&a100(), 500.0);
    }

    #[test]
    fn throttles_when_over_cap() {
        let mut ctrl = CapController::new(&a100(), 325.0);
        let before = ctrl.limit_mhz();
        ctrl.step(0.1, 420.0);
        assert!(ctrl.limit_mhz() < before);
    }

    #[test]
    fn relaxes_when_well_under_cap() {
        let mut ctrl = CapController::new(&a100(), 325.0);
        // Drive it down…
        for _ in 0..20 {
            ctrl.step(0.1, 420.0);
        }
        let throttled = ctrl.limit_mhz();
        assert!(throttled < 1410.0);
        // …then let it recover.
        for _ in 0..50 {
            ctrl.step(0.1, 200.0);
        }
        assert!(ctrl.limit_mhz() > throttled);
        assert!(ctrl.limit_mhz() <= 1410.0);
    }

    #[test]
    fn holds_inside_relax_band() {
        let mut ctrl = CapController::new(&a100(), 325.0);
        for _ in 0..10 {
            ctrl.step(0.1, 420.0);
        }
        let limit = ctrl.limit_mhz();
        // Measured power just under the cap (within the 3 % margin):
        ctrl.step(0.1, 320.0);
        assert_eq!(ctrl.limit_mhz(), limit, "controller should hold, not hunt");
    }

    #[test]
    fn limit_never_leaves_device_range() {
        let spec = a100();
        let mut ctrl = CapController::new(&spec, 150.0);
        for _ in 0..10_000 {
            ctrl.step(0.01, 425.0);
        }
        assert!(ctrl.limit_mhz() >= spec.min_sm_clock_mhz);
        for _ in 0..10_000 {
            ctrl.step(0.01, 0.0);
        }
        assert!(ctrl.limit_mhz() <= spec.max_sm_clock_mhz);
    }

    #[test]
    fn short_spike_escapes_cap() {
        // A 100 ms spike cannot pull the clock limit all the way down:
        // the controller's slew is finite, so the spike escapes (Fig 9b).
        let mut ctrl = CapController::new(&a100(), 325.0);
        ctrl.step(0.1, 425.0);
        assert!(
            ctrl.limit_mhz() > 1000.0,
            "one spike sample should not fully throttle (limit {})",
            ctrl.limit_mhz()
        );
    }

    #[test]
    fn reset_restores_max() {
        let mut ctrl = CapController::new(&a100(), 325.0);
        for _ in 0..20 {
            ctrl.step(0.1, 425.0);
        }
        ctrl.reset();
        assert_eq!(ctrl.limit_mhz(), 1410.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let mut ctrl = CapController::new(&a100(), 325.0);
        ctrl.step(0.0, 300.0);
    }
}
