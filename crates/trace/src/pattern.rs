//! Arrival-rate shapes: diurnal/weekly patterns and rate schedules.

use polca_sim::SimRng;

/// The diurnal + weekly arrival-rate model behind the production
/// inference trace (Table 4: "diurnal with short-term variations").
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalPattern {
    /// Mean arrival rate in requests/s.
    pub base_rate: f64,
    /// Relative amplitude of the daily sinusoid (`0.0..=1.0`).
    pub daily_amplitude: f64,
    /// Hour of day (0–24) at which traffic peaks.
    pub peak_hour: f64,
    /// Multiplier applied on Saturday/Sunday (`0.0..=1.0`; interactive
    /// traffic dips on weekends).
    pub weekend_factor: f64,
    /// Relative amplitude of short-term (minutes-scale) rate noise.
    pub short_term_noise: f64,
    /// Expected bursts per day (short surges that create the 40 s power
    /// spikes of Table 4).
    pub bursts_per_day: f64,
    /// Relative rate increase during a burst.
    pub burst_magnitude: f64,
    /// Burst duration in seconds.
    pub burst_duration_s: f64,
}

impl Default for DiurnalPattern {
    fn default() -> Self {
        DiurnalPattern {
            base_rate: 1.0,
            daily_amplitude: 0.25,
            peak_hour: 14.0,
            weekend_factor: 0.85,
            short_term_noise: 0.05,
            bursts_per_day: 6.0,
            burst_magnitude: 0.6,
            burst_duration_s: 90.0,
        }
    }
}

impl DiurnalPattern {
    /// The deterministic (noise- and burst-free) rate at `t` seconds
    /// into the trace, which starts at midnight on a Monday.
    pub fn smooth_rate_at(&self, t: f64) -> f64 {
        let hour = (t / 3600.0).rem_euclid(24.0);
        let day = ((t / 86_400.0).floor() as i64).rem_euclid(7);
        let daily = 1.0
            + self.daily_amplitude * ((hour - self.peak_hour) / 24.0 * std::f64::consts::TAU).cos();
        let weekly = if day >= 5 { self.weekend_factor } else { 1.0 };
        (self.base_rate * daily * weekly).max(0.0)
    }

    /// Materializes a stochastic [`RateSchedule`] over `[0, horizon_s)`
    /// with `step_s` resolution: the smooth shape plus minutes-scale
    /// noise plus random bursts.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` or `step_s` is not strictly positive.
    pub fn schedule(&self, horizon_s: f64, step_s: f64, rng: &mut SimRng) -> RateSchedule {
        assert!(horizon_s > 0.0, "horizon must be positive");
        assert!(step_s > 0.0, "step must be positive");
        let steps = (horizon_s / step_s).ceil() as usize;
        let mut rates = Vec::with_capacity(steps);
        // Pre-draw burst windows.
        let n_days = horizon_s / 86_400.0;
        let n_bursts = (self.bursts_per_day * n_days).round() as usize;
        let bursts: Vec<(f64, f64)> = (0..n_bursts)
            .map(|_| {
                let start = rng.uniform(0.0, horizon_s);
                (start, start + self.burst_duration_s)
            })
            .collect();
        // Smooth noise: an AR(1) walk so adjacent steps correlate.
        let mut noise = 0.0;
        let alpha: f64 = 0.9;
        for k in 0..steps {
            let t = k as f64 * step_s;
            noise = alpha * noise
                + (1.0 - alpha * alpha).sqrt() * rng.normal(0.0, self.short_term_noise);
            let mut rate = self.smooth_rate_at(t) * (1.0 + noise);
            for &(b0, b1) in &bursts {
                if t >= b0 && t < b1 {
                    rate *= 1.0 + self.burst_magnitude;
                }
            }
            rates.push(rate.max(0.0));
        }
        RateSchedule::new(step_s, rates)
    }
}

/// A piecewise-constant arrival-rate schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    step_s: f64,
    rates: Vec<f64>,
}

impl RateSchedule {
    /// Creates a schedule with the given step width and per-step rates.
    ///
    /// # Panics
    ///
    /// Panics if `step_s` is not strictly positive, `rates` is empty, or
    /// any rate is negative/NaN.
    pub fn new(step_s: f64, rates: Vec<f64>) -> Self {
        assert!(step_s > 0.0, "step must be positive");
        assert!(!rates.is_empty(), "schedule must have at least one step");
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be non-negative and finite"
        );
        RateSchedule { step_s, rates }
    }

    /// A constant-rate schedule covering `horizon_s`.
    pub fn constant(rate: f64, horizon_s: f64) -> Self {
        Self::new(horizon_s, vec![rate])
    }

    /// Step width in seconds.
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// The schedule's horizon in seconds.
    pub fn horizon_s(&self) -> f64 {
        self.step_s * self.rates.len() as f64
    }

    /// The rate at time `t` (0 beyond the horizon).
    pub fn rate_at(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        // `t / step_s` is not negative (or is NaN) here, so truncating
        // picks the step `floor` would, without the libm call.
        let idx = (t / self.step_s) as usize;
        self.rates.get(idx).copied().unwrap_or(0.0)
    }

    /// The highest rate anywhere in the schedule.
    pub fn max_rate(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// The mean rate over the horizon.
    pub fn mean_rate(&self) -> f64 {
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// The per-step rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Scales every rate by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scaled(&self, factor: f64) -> RateSchedule {
        assert!(factor >= 0.0 && factor.is_finite(), "invalid scale factor");
        RateSchedule {
            step_s: self.step_s,
            rates: self.rates.iter().map(|r| r * factor).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_rate_peaks_at_peak_hour() {
        let p = DiurnalPattern::default();
        let peak = p.smooth_rate_at(14.0 * 3600.0);
        let off_peak = p.smooth_rate_at(2.0 * 3600.0);
        assert!(peak > off_peak);
        assert!((peak - p.base_rate * 1.25).abs() < 0.01);
    }

    #[test]
    fn weekends_dip() {
        let p = DiurnalPattern::default();
        // Monday 14:00 vs Saturday 14:00 (trace starts Monday).
        let monday = p.smooth_rate_at(14.0 * 3600.0);
        let saturday = p.smooth_rate_at(5.0 * 86_400.0 + 14.0 * 3600.0);
        assert!((saturday / monday - p.weekend_factor).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_positive_and_covers_horizon() {
        let p = DiurnalPattern::default();
        let mut rng = SimRng::from_seed_stream(1, 0);
        let s = p.schedule(86_400.0, 60.0, &mut rng);
        assert_eq!(s.rates().len(), 1440);
        assert!((s.horizon_s() - 86_400.0).abs() < 1e-6);
        assert!(s.rates().iter().all(|&r| r >= 0.0));
        // Mean close to the configured base rate.
        assert!((s.mean_rate() - 1.0).abs() < 0.15, "mean {}", s.mean_rate());
    }

    #[test]
    fn bursts_raise_the_max_rate() {
        let calm = DiurnalPattern {
            bursts_per_day: 0.0,
            short_term_noise: 0.0,
            ..Default::default()
        };
        let mut bursty = calm.clone();
        bursty.bursts_per_day = 20.0;
        bursty.burst_magnitude = 1.0;
        let mut rng1 = SimRng::from_seed_stream(2, 0);
        let mut rng2 = SimRng::from_seed_stream(2, 0);
        let s_calm = calm.schedule(86_400.0, 30.0, &mut rng1);
        let s_bursty = bursty.schedule(86_400.0, 30.0, &mut rng2);
        assert!(s_bursty.max_rate() > s_calm.max_rate() * 1.5);
    }

    #[test]
    fn rate_at_is_piecewise_constant_and_zero_beyond_horizon() {
        let s = RateSchedule::new(10.0, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.rate_at(0.0), 1.0);
        assert_eq!(s.rate_at(9.99), 1.0);
        assert_eq!(s.rate_at(10.0), 2.0);
        assert_eq!(s.rate_at(29.99), 3.0);
        assert_eq!(s.rate_at(30.0), 0.0);
        assert_eq!(s.rate_at(-1.0), 0.0);
    }

    #[test]
    fn rate_at_picks_the_step_floor_picks() {
        let floor_form = |s: &RateSchedule, t: f64| {
            if t < 0.0 {
                return 0.0;
            }
            let idx = (t / s.step_s()).floor() as usize;
            s.rates().get(idx).copied().unwrap_or(0.0)
        };
        let mut rng = SimRng::from_seed_stream(9, 0);
        for step in [60.0, 0.1, 7.3] {
            let s = RateSchedule::new(step, (1..=100).map(f64::from).collect());
            let mut times = vec![
                -1.0,
                -0.0,
                0.0,
                f64::NAN,
                f64::MIN_POSITIVE,
                1e300,
                f64::MAX,
                f64::INFINITY,
            ];
            for i in 0..=101 {
                let boundary = f64::from(i) * step;
                times.extend([boundary.next_down(), boundary, boundary.next_up()]);
            }
            times.extend((0..10_000).map(|_| rng.uniform(0.0, 110.0 * step)));
            for t in times {
                assert_eq!(
                    s.rate_at(t).to_bits(),
                    floor_form(&s, t).to_bits(),
                    "step {step}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn scaled_schedule_multiplies_rates() {
        let s = RateSchedule::new(1.0, vec![1.0, 2.0]).scaled(1.3);
        assert_eq!(s.rates(), &[1.3, 2.6]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rates_rejected() {
        let _ = RateSchedule::new(1.0, vec![-1.0]);
    }

    #[test]
    fn constant_schedule() {
        let s = RateSchedule::constant(2.5, 100.0);
        assert_eq!(s.rate_at(50.0), 2.5);
        assert_eq!(s.max_rate(), 2.5);
    }
}
