//! Production-trace replication (§6.4).
//!
//! The paper regenerates its production power trace as a synthetic
//! request trace: "based on this trace and model characteristics (i.e.,
//! power and time per token), we generate a synthetic trace \[containing\]
//! the arrivals for each inference request along with their input and
//! output sizes. The MAPE between the synthetic and original power
//! timeseries is within 3 %."
//!
//! [`ProductionReplicator`] does the same inversion: from a reference
//! row-power profile it recovers the arrival-rate schedule that, when
//! fed through the cluster model, reproduces that power. Because the
//! real production trace is confidential, [`production_reference`]
//! synthesizes a reference with the Table 4 statistics (diurnal, ~79 %
//! peak utilization, small fast swings).

use std::fmt;

use polca_cluster::{RowConfig, HOT_IDLE_INTENSITY};
use polca_llm::{InferenceConfig, InferenceModel};
use polca_sim::SimRng;
use polca_stats::{mape, TimeSeries};

use crate::pattern::RateSchedule;
use crate::workload::WorkloadClass;

/// Why a reference power series could not be replicated.
///
/// Ingested traces can legitimately be short, flat, or sparse; these
/// errors replace the panics the synthetic-only pipeline used to rely
/// on, so a degenerate input fails with a diagnostic instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicationError {
    /// The reference series has fewer than two samples, so no time step
    /// (and therefore no rate schedule) can be derived from it.
    TooFewSamples(usize),
    /// The reference series is not uniformly sampled: the step between
    /// samples `at` and `at + 1` differs from the first step.
    NonUniformStep {
        /// Index of the first sample whose spacing deviates.
        at: usize,
        /// The expected step in seconds (from the first two samples).
        expected_s: f64,
        /// The step actually found there, in seconds.
        found_s: f64,
    },
    /// A reference sample is NaN, infinite, or negative power.
    NonFiniteSample {
        /// Index of the offending sample.
        at: usize,
    },
    /// The reference and replicated series do not overlap after
    /// resampling, so no error metric can be computed.
    EmptyOverlap,
    /// Every reference point is zero, so percentage error is undefined.
    ZeroReference,
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::TooFewSamples(n) => {
                write!(f, "reference series has {n} sample(s); need at least 2")
            }
            ReplicationError::NonUniformStep {
                at,
                expected_s,
                found_s,
            } => write!(
                f,
                "reference series is not uniformly sampled: step at sample {at} \
                 is {found_s:.3} s, expected {expected_s:.3} s"
            ),
            ReplicationError::NonFiniteSample { at } => {
                write!(f, "reference sample {at} is NaN, infinite, or negative")
            }
            ReplicationError::EmptyOverlap => {
                write!(f, "reference and replicated series do not overlap")
            }
            ReplicationError::ZeroReference => {
                write!(f, "every reference point is zero; MAPE is undefined")
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

/// Inverts the cluster power model to replicate a power profile as an
/// arrival-rate schedule.
#[derive(Debug, Clone)]
pub struct ProductionReplicator {
    n_servers: f64,
    mean_service_s: f64,
    busy_power_w: f64,
    idle_power_w: f64,
}

impl ProductionReplicator {
    /// Builds the replicator for `row` under the given workload mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or the row's model does not fit its
    /// GPU allocation.
    pub fn new(row: &RowConfig, mix: &[WorkloadClass]) -> Self {
        assert!(!mix.is_empty(), "workload mix must be non-empty");
        let deployment = InferenceModel::new(row.model.clone(), row.server_spec.gpu.clone())
            .expect("row model must fit");
        let spec = &row.server_spec;
        let mut mean_service = 0.0;
        let mut mean_busy_power = 0.0;
        let mut share_total = 0.0;
        for class in mix {
            let (input, output) = class.mean_shape();
            let profile = deployment.profile(&InferenceConfig::new(input as u32, output as u32, 1));
            let service = profile.total_time_s();
            // Time-weighted server power over the request's phases.
            let phase_power =
                |intensity: f64| spec.power_watts(deployment.n_gpus(), intensity, 1.0);
            let busy_power = (phase_power(profile.prompt.intensity) * profile.prompt.duration_s
                + phase_power(profile.token.intensity) * profile.token.duration_s)
                / service;
            mean_service += class.share * service;
            mean_busy_power += class.share * busy_power * service;
            share_total += class.share;
        }
        mean_service /= share_total;
        // Busy power weighted by how long each class occupies a server.
        mean_busy_power /= share_total * mean_service;
        // Unoccupied servers sit at hot idle: model loaded, framework
        // busy-polling (§6.4's "all servers serving with models loaded").
        let idle_power_w = spec.power_watts(deployment.n_gpus(), HOT_IDLE_INTENSITY, 1.0);
        ProductionReplicator {
            n_servers: row.total_servers() as f64,
            mean_service_s: mean_service,
            busy_power_w: mean_busy_power,
            idle_power_w,
        }
    }

    /// Mean end-to-end service time of the mix, in seconds.
    pub fn mean_service_s(&self) -> f64 {
        self.mean_service_s
    }

    /// Mean power of a busy server, in watts.
    pub fn busy_power_watts(&self) -> f64 {
        self.busy_power_w
    }

    /// The row power expected at a sustained arrival rate of `rate`
    /// requests/s (offered-load approximation, capped at saturation).
    pub fn predicted_row_power(&self, rate: f64) -> f64 {
        let rho = (rate * self.mean_service_s / self.n_servers).clamp(0.0, 1.0);
        self.n_servers * (rho * self.busy_power_w + (1.0 - rho) * self.idle_power_w)
    }

    /// The arrival rate that produces `watts` of row power — the inverse
    /// of [`predicted_row_power`](Self::predicted_row_power). Clamped to
    /// the feasible `[0, saturation]` range.
    pub fn rate_for_power(&self, watts: f64) -> f64 {
        let per_server = watts / self.n_servers;
        let rho = ((per_server - self.idle_power_w) / (self.busy_power_w - self.idle_power_w))
            .clamp(0.0, 1.0);
        rho * self.n_servers / self.mean_service_s
    }

    /// Inverts a reference power profile into an arrival-rate schedule
    /// with the profile's own time resolution.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplicationError`] if the profile has fewer than two
    /// samples, a non-uniform time step, or a non-finite/negative
    /// sample — all of which an ingested trace can legitimately exhibit.
    pub fn schedule_from_profile(
        &self,
        profile: &TimeSeries,
    ) -> Result<RateSchedule, ReplicationError> {
        if profile.len() < 2 {
            return Err(ReplicationError::TooFewSamples(profile.len()));
        }
        let times = profile.times();
        let step = times[1] - times[0];
        for (i, pair) in times.windows(2).enumerate().skip(1) {
            let found = pair[1] - pair[0];
            // Tolerate float accumulation, not genuinely irregular sampling.
            if (found - step).abs() > 1e-6 * step.max(1.0) {
                return Err(ReplicationError::NonUniformStep {
                    at: i,
                    expected_s: step,
                    found_s: found,
                });
            }
        }
        if let Some(at) = profile
            .values()
            .iter()
            .position(|w| !w.is_finite() || *w < 0.0)
        {
            return Err(ReplicationError::NonFiniteSample { at });
        }
        let rates: Vec<f64> = profile
            .values()
            .iter()
            .map(|&w| self.rate_for_power(w))
            .collect();
        Ok(RateSchedule::new(step, rates))
    }

    /// The power series this replicator predicts for `schedule`
    /// (analytic, no simulation).
    pub fn predicted_power_series(&self, schedule: &RateSchedule) -> TimeSeries {
        schedule
            .rates()
            .iter()
            .enumerate()
            .map(|(k, &r)| (k as f64 * schedule.step_s(), self.predicted_row_power(r)))
            .collect()
    }
}

/// Synthesizes the confidential production reference trace from the
/// Table 4 inference statistics: diurnal with weekend dips, short-term
/// variation, occasional bursts, peak utilization ≈ 79 % of the row's
/// provisioned power.
///
/// Returns row power in watts sampled every `dt_s` seconds for `days`
/// days.
///
/// # Panics
///
/// Panics if `days` or `dt_s` is not strictly positive.
pub fn production_reference(row: &RowConfig, days: f64, dt_s: f64, seed: u64) -> TimeSeries {
    assert!(days > 0.0, "days must be positive");
    assert!(dt_s > 0.0, "dt must be positive");
    let provisioned = row.provisioned_watts();
    let mut rng = SimRng::from_seed_stream(seed, 0x9E0D);
    let horizon = days * 86_400.0;
    let steps = (horizon / dt_s).ceil() as usize;
    // Burst windows that create the fast spikes of Table 4 (§4.3's
    // "short-term variations").
    let n_bursts = (days * 6.0).round() as usize;
    let bursts: Vec<(f64, f64)> = (0..n_bursts)
        .map(|_| {
            let start = rng.uniform(0.0, horizon);
            (start, start + rng.uniform(60.0, 180.0))
        })
        .collect();
    // The interactive service saturates: at the daily peak the cluster
    // is fully busy, so bursts can only push utilization up to this
    // capacity ceiling (bursts express off-peak, where headroom exists).
    const CAPACITY_CEILING: f64 = 0.77;
    let mut noise = 0.0;
    let alpha: f64 = 0.95;
    let mut ts = TimeSeries::new();
    for k in 0..steps {
        let t = k as f64 * dt_s;
        let hour = (t / 3600.0).rem_euclid(24.0);
        let day = ((t / 86_400.0).floor() as i64).rem_euclid(7);
        let daily = 0.64 + 0.06 * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        let weekly = if day >= 5 { 0.97 } else { 1.0 };
        noise = alpha * noise + (1.0 - alpha * alpha).sqrt() * rng.normal(0.0, 0.015);
        let mut util = daily * weekly * (1.0 + noise);
        for &(b0, b1) in &bursts {
            if t >= b0 && t < b1 {
                // Bursts ramp in and out over ~45 s: interactive load
                // surges are fast but not instantaneous.
                let ramp_in = ((t - b0) / 45.0).min(1.0);
                let ramp_out = ((b1 - t) / 45.0).min(1.0);
                util += 0.04 * ramp_in.min(ramp_out);
            }
        }
        ts.push(t, util.clamp(0.0, CAPACITY_CEILING) * provisioned);
    }
    ts
}

/// The MAPE (percent) between a reference and a replicated power
/// series, both resampled to 5-minute means over their overlap — the
/// §6.4 validation metric.
///
/// # Errors
///
/// Returns [`ReplicationError::EmptyOverlap`] if either resampled
/// series is empty, and [`ReplicationError::ZeroReference`] if every
/// overlapping reference point is zero (percentage error undefined).
pub fn replication_mape(
    reference: &TimeSeries,
    replicated: &TimeSeries,
) -> Result<f64, ReplicationError> {
    let ref_rs = reference.resample_mean(300.0);
    let rep_rs = replicated.resample_mean(300.0);
    let n = ref_rs.len().min(rep_rs.len());
    if n == 0 {
        return Err(ReplicationError::EmptyOverlap);
    }
    mape(&ref_rs.values()[..n], &rep_rs.values()[..n]).ok_or(ReplicationError::ZeroReference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_cluster::{ClusterSim, NoopController, SimConfig};
    use polca_sim::SimTime;

    use crate::generator::{ArrivalGenerator, TraceConfig};

    fn row() -> RowConfig {
        RowConfig::paper_inference_row()
    }

    fn replicator() -> ProductionReplicator {
        ProductionReplicator::new(&row(), &WorkloadClass::table6())
    }

    #[test]
    fn mean_service_time_is_tens_of_seconds() {
        // BLOOM chat/search requests generate 1–2k tokens at ~28 tok/s.
        let r = replicator();
        assert!(
            (20.0..90.0).contains(&r.mean_service_s()),
            "mean service {}",
            r.mean_service_s()
        );
    }

    #[test]
    fn power_rate_roundtrip() {
        let r = replicator();
        for rate in [0.1, 0.4, 0.8, 1.0] {
            let p = r.predicted_row_power(rate);
            let back = r.rate_for_power(p);
            assert!((back - rate).abs() < 1e-9, "rate {rate} → {back}");
        }
    }

    #[test]
    fn predicted_power_saturates_at_all_busy() {
        let r = replicator();
        let max = r.predicted_row_power(1e9);
        assert!((max - 40.0 * r.busy_power_watts()).abs() < 1.0);
        // Hot idle (model loaded, busy-polling) sits well above the bare
        // GPU floor but still clearly below a busy server.
        let idle = r.predicted_row_power(0.0);
        assert!(idle < max * 0.8);
        assert!(idle > max * 0.5);
    }

    #[test]
    fn reference_matches_table4_inference_stats() {
        let row = row();
        let reference = production_reference(&row, 7.0, 2.0, 11);
        let provisioned = row.provisioned_watts();
        let peak_util = reference.peak().unwrap() / provisioned;
        // Table 4: ~79 % peak utilization.
        assert!(
            (0.70..=0.88).contains(&peak_util),
            "peak util {peak_util:.3}"
        );
        // Max 2 s swing ≤ ~9 %; max 40 s swing ≤ ~12 %.
        let rise2 = reference.max_rise_within(2.0).unwrap() / provisioned;
        let rise40 = reference.max_rise_within(40.0).unwrap() / provisioned;
        assert!(rise2 < 0.12, "2 s rise {rise2:.3}");
        assert!(rise40 < 0.16, "40 s rise {rise40:.3}");
        assert!(rise40 >= rise2);
        // Diurnal: daytime power exceeds nighttime power.
        let day = reference
            .slice_time(12.0 * 3600.0, 16.0 * 3600.0)
            .mean()
            .unwrap();
        let night = reference.slice_time(0.0, 4.0 * 3600.0).mean().unwrap();
        assert!(day > night * 1.05);
    }

    #[test]
    fn analytic_replication_is_tight() {
        // Round trip: reference → schedule → predicted power. By
        // construction only clamping can introduce error.
        let row = row();
        let reference = production_reference(&row, 1.0, 60.0, 3);
        let r = replicator();
        let schedule = r.schedule_from_profile(&reference).unwrap();
        let predicted = r.predicted_power_series(&schedule);
        let err = replication_mape(&reference, &predicted).unwrap();
        assert!(err < 0.5, "analytic MAPE {err:.3}%");
    }

    #[test]
    fn simulated_replication_is_within_three_percent_mape() {
        // The paper's §6.4 bound, validated through the full simulator
        // on a 6 h window.
        let row = row();
        let reference = production_reference(&row, 0.25, 60.0, 5);
        let r = replicator();
        let schedule = r.schedule_from_profile(&reference).unwrap();
        let config = TraceConfig {
            seed: 5,
            horizon: SimTime::from_hours(6.0),
            schedule,
            mix: WorkloadClass::table6(),
        };
        let arrivals = ArrivalGenerator::new(&config);
        let report = ClusterSim::new(row, SimConfig::default(), NoopController)
            .run(arrivals, SimTime::from_hours(6.0));
        // Skip the first half hour (fill-up transient).
        let sim_power = report.row_power.slice_time(1800.0, f64::INFINITY);
        let ref_power = reference.slice_time(1800.0, f64::INFINITY);
        let err = replication_mape(&ref_power, &sim_power).unwrap();
        assert!(err < 3.0, "simulated MAPE {err:.2}%");
    }

    #[test]
    fn schedule_from_tiny_profile_is_typed_error() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 100.0);
        assert_eq!(
            replicator().schedule_from_profile(&ts),
            Err(ReplicationError::TooFewSamples(1))
        );
    }

    #[test]
    fn schedule_from_irregular_profile_is_typed_error() {
        let r = replicator();
        let ts: TimeSeries = [(0.0, 1e5), (60.0, 1e5), (150.0, 1e5)]
            .into_iter()
            .collect();
        match r.schedule_from_profile(&ts) {
            Err(ReplicationError::NonUniformStep { at, .. }) => assert_eq!(at, 1),
            other => panic!("expected NonUniformStep, got {other:?}"),
        }
        let bad: TimeSeries = [(0.0, 1e5), (60.0, f64::NAN)].into_iter().collect();
        assert_eq!(
            r.schedule_from_profile(&bad),
            Err(ReplicationError::NonFiniteSample { at: 1 })
        );
    }

    #[test]
    fn replication_mape_degenerate_inputs_are_typed_errors() {
        let empty = TimeSeries::new();
        let some: TimeSeries = [(0.0, 1.0), (300.0, 2.0)].into_iter().collect();
        assert_eq!(
            replication_mape(&empty, &some),
            Err(ReplicationError::EmptyOverlap)
        );
        let zeros: TimeSeries = [(0.0, 0.0), (300.0, 0.0)].into_iter().collect();
        assert_eq!(
            replication_mape(&zeros, &some),
            Err(ReplicationError::ZeroReference)
        );
        // Errors render as human-readable diagnostics.
        let msg = ReplicationError::TooFewSamples(1).to_string();
        assert!(msg.contains("at least 2"), "message: {msg}");
    }
}
