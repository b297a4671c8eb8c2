//! The stateful GPU device: clocks, caps, brake, power draw.

use std::fmt;

use crate::capping::CapController;
use crate::dvfs::DvfsModel;
use crate::spec::GpuSpec;

/// Error returned when a requested SM clock is outside the device range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockError {
    requested_mhz: f64,
    min_mhz: f64,
    max_mhz: f64,
}

impl fmt::Display for ClockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested SM clock {} MHz outside supported range {}-{} MHz",
            self.requested_mhz, self.min_mhz, self.max_mhz
        )
    }
}

impl std::error::Error for ClockError {}

/// Error returned when a requested power cap is outside the device range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCapError {
    requested_watts: f64,
    min_watts: f64,
    max_watts: f64,
}

impl fmt::Display for PowerCapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested power cap {} W outside supported range {}-{} W",
            self.requested_watts, self.min_watts, self.max_watts
        )
    }
}

impl std::error::Error for PowerCapError {}

/// One simulated GPU.
///
/// The device exposes the paper's three control knobs:
///
/// * **frequency locking** ([`lock_clock`](Gpu::lock_clock)) — immediate,
///   constantly active, lowers power everywhere (Insight 3/7),
/// * **power capping** ([`set_power_cap`](Gpu::set_power_cap)) — reactive,
///   spikes escape (Figure 9b),
/// * **power brake** ([`set_power_brake`](Gpu::set_power_brake)) — forces
///   288 MHz, "brings all GPUs down to almost a halt" (§3.2).
///
/// Power draw is [`GpuSpec::power_watts`] at the workload `intensity ∈
/// [0, 1]` (1.0 = prompt-phase tensor burst) and the DVFS scale of the
/// effective clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpu {
    spec: GpuSpec,
    dvfs: DvfsModel,
    locked_clock_mhz: Option<f64>,
    cap: Option<CapController>,
    brake: bool,
    last_power_watts: f64,
}

impl Gpu {
    /// Creates a GPU in its default state: no lock, cap at TDP-equivalent
    /// disabled, brake off.
    pub fn new(spec: GpuSpec) -> Self {
        Gpu {
            last_power_watts: spec.idle_watts,
            spec,
            dvfs: DvfsModel::default(),
            locked_clock_mhz: None,
            cap: None,
            brake: false,
        }
    }

    /// The device constants.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The DVFS scaling model.
    pub fn dvfs(&self) -> &DvfsModel {
        &self.dvfs
    }

    /// Locks the SM clock to `mhz` (the `nvidia-smi -lgc` knob).
    ///
    /// # Errors
    ///
    /// Returns [`ClockError`] if `mhz` is outside the device range.
    pub fn lock_clock(&mut self, mhz: f64) -> Result<(), ClockError> {
        if !self.spec.clock_in_range(mhz) {
            return Err(ClockError {
                requested_mhz: mhz,
                min_mhz: self.spec.min_sm_clock_mhz,
                max_mhz: self.spec.max_sm_clock_mhz,
            });
        }
        self.locked_clock_mhz = Some(mhz);
        Ok(())
    }

    /// Removes the frequency lock.
    pub fn unlock_clock(&mut self) {
        self.locked_clock_mhz = None;
    }

    /// The currently locked clock, if any.
    pub fn locked_clock_mhz(&self) -> Option<f64> {
        self.locked_clock_mhz
    }

    /// Sets a power cap (the `nvidia-smi -pl` knob).
    ///
    /// # Errors
    ///
    /// Returns [`PowerCapError`] if `watts` is outside the configurable
    /// range.
    pub fn set_power_cap(&mut self, watts: f64) -> Result<(), PowerCapError> {
        if !(self.spec.min_power_cap_watts..=self.spec.transient_peak_watts).contains(&watts) {
            return Err(PowerCapError {
                requested_watts: watts,
                min_watts: self.spec.min_power_cap_watts,
                max_watts: self.spec.transient_peak_watts,
            });
        }
        self.cap = Some(CapController::new(&self.spec, watts));
        Ok(())
    }

    /// Removes the power cap.
    pub fn clear_power_cap(&mut self) {
        self.cap = None;
    }

    /// The configured power cap in watts, if any.
    pub fn power_cap_watts(&self) -> Option<f64> {
        self.cap.as_ref().map(CapController::cap_watts)
    }

    /// Engages or releases the power brake.
    pub fn set_power_brake(&mut self, on: bool) {
        self.brake = on;
    }

    /// Whether the power brake is engaged.
    pub fn power_brake(&self) -> bool {
        self.brake
    }

    /// The SM clock the device actually runs at right now, in MHz: the
    /// brake clock, else the lock held under the cap controller's limit
    /// ([`GpuSpec::clock_mhz`]).
    pub fn effective_clock_mhz(&self) -> f64 {
        self.spec.clock_mhz(
            self.brake,
            self.locked_clock_mhz,
            self.cap.as_ref().map(CapController::limit_mhz),
        )
    }

    /// The effective clock as a fraction of the maximum clock.
    pub fn clock_ratio(&self) -> f64 {
        self.effective_clock_mhz() / self.spec.max_sm_clock_mhz
    }

    /// Instantaneous power draw at the given workload `intensity`
    /// (`0.0..=1.0`) and the current effective clock, without advancing
    /// controller state.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not in `[0, 1]`.
    pub fn power_at(&self, intensity: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0, 1]"
        );
        self.spec
            .power_watts(intensity, self.dvfs.power_scale(self.clock_ratio()))
    }

    /// Advances the device by `dt` seconds at workload `intensity`,
    /// stepping the reactive cap controller, and returns the power drawn
    /// over the interval.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive or `intensity` not in
    /// `[0, 1]`.
    pub fn advance(&mut self, dt: f64, intensity: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        let power = self.power_at(intensity);
        if let Some(cap) = &mut self.cap {
            cap.step(dt, power);
        }
        self.last_power_watts = power;
        power
    }

    /// The power measured at the last [`advance`](Gpu::advance) call.
    pub fn last_power_watts(&self) -> f64 {
        self.last_power_watts
    }

    /// The compute-throughput multiplier (≤ 1) the current effective clock
    /// imposes on a phase with compute-bound fraction `c`.
    pub fn perf_scale(&self, compute_fraction: f64) -> f64 {
        self.dvfs
            .perf_scale(self.clock_ratio().max(1e-6), compute_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::a100_80gb())
    }

    #[test]
    fn default_state_runs_at_max_clock() {
        let g = gpu();
        assert_eq!(g.effective_clock_mhz(), 1410.0);
        assert_eq!(g.clock_ratio(), 1.0);
        assert_eq!(g.locked_clock_mhz(), None);
        assert_eq!(g.power_cap_watts(), None);
        assert!(!g.power_brake());
    }

    #[test]
    fn idle_power_at_zero_intensity() {
        let g = gpu();
        assert_eq!(g.power_at(0.0), 80.0);
    }

    #[test]
    fn full_intensity_exceeds_tdp() {
        let g = gpu();
        assert!(g.power_at(1.0) > g.spec().tdp_watts); // Insight 4 spike
        assert_eq!(g.power_at(1.0), 425.0);
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn intensity_out_of_range_panics() {
        let _ = gpu().power_at(1.5);
    }

    #[test]
    fn lock_clock_validates_range() {
        let mut g = gpu();
        assert!(g.lock_clock(1110.0).is_ok());
        assert_eq!(g.effective_clock_mhz(), 1110.0);
        let err = g.lock_clock(5000.0).unwrap_err();
        assert!(err.to_string().contains("outside supported range"));
        // Lock unchanged after failed request.
        assert_eq!(g.effective_clock_mhz(), 1110.0);
        g.unlock_clock();
        assert_eq!(g.effective_clock_mhz(), 1410.0);
    }

    #[test]
    fn frequency_lock_reduces_peak_power_about_twenty_percent() {
        let mut g = gpu();
        let uncapped = g.power_at(1.0);
        g.lock_clock(1110.0).unwrap(); // the paper's 1.1 GHz lock
        let locked = g.power_at(1.0);
        let reduction = 1.0 - locked / uncapped;
        assert!(
            (0.15..=0.30).contains(&reduction),
            "reduction {reduction:.3}"
        );
    }

    #[test]
    fn power_cap_validates_range() {
        let mut g = gpu();
        assert!(g.set_power_cap(325.0).is_ok());
        assert_eq!(g.power_cap_watts(), Some(325.0));
        let err = g.set_power_cap(10.0).unwrap_err();
        assert!(err.to_string().contains("outside supported range"));
        g.clear_power_cap();
        assert_eq!(g.power_cap_watts(), None);
    }

    #[test]
    fn power_cap_is_reactive_spike_escapes_then_clamps() {
        let mut g = gpu();
        g.set_power_cap(325.0).unwrap();
        // First 100 ms spike escapes the cap (Fig 9b)...
        let first = g.advance(0.1, 1.0);
        assert!(first > 325.0, "first sample {first}");
        // ...but sustained load is eventually clamped near the cap.
        let mut last = first;
        for _ in 0..100 {
            last = g.advance(0.1, 1.0);
        }
        assert!(last <= 325.0 * 1.05, "steady-state {last}");
    }

    #[test]
    fn power_brake_overrides_everything() {
        let mut g = gpu();
        g.lock_clock(1300.0).unwrap();
        g.set_power_brake(true);
        assert_eq!(g.effective_clock_mhz(), 288.0);
        // Near-halt power draw even under a prompt burst.
        let p = g.power_at(1.0);
        assert!(p < 0.35 * g.spec().tdp_watts, "brake power {p}");
        g.set_power_brake(false);
        assert_eq!(g.effective_clock_mhz(), 1300.0);
    }

    #[test]
    fn perf_scale_prefers_memory_bound_phases() {
        let mut g = gpu();
        g.lock_clock(1110.0).unwrap();
        // Token (memory-bound) phases barely slow down; prompt
        // (compute-bound) phases slow roughly with clock.
        assert!(g.perf_scale(0.1) > 0.96);
        assert!(g.perf_scale(0.9) < 0.85);
    }

    #[test]
    fn advance_tracks_last_power() {
        let mut g = gpu();
        let p = g.advance(0.1, 0.6);
        assert_eq!(g.last_power_watts(), p);
    }
}
