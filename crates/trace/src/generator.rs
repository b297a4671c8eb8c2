//! Lazy non-homogeneous Poisson request generation.

use polca_cluster::Request;
use polca_sim::{SimRng, SimTime};

use crate::pattern::{DiurnalPattern, RateSchedule};
use crate::workload::{pick_class, WorkloadClass};

/// A complete trace specification: rate schedule plus workload mix.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Experiment seed.
    pub seed: u64,
    /// When the trace ends.
    pub horizon: SimTime,
    /// The arrival-rate schedule.
    pub schedule: RateSchedule,
    /// The request-class mix (Table 6 by default).
    pub mix: Vec<WorkloadClass>,
}

impl TraceConfig {
    /// A trace with the Table 6 mix and the default diurnal pattern at
    /// 1 request/s mean rate.
    pub fn paper_mix(seed: u64, horizon: SimTime) -> Self {
        let mut rng = SimRng::from_seed_stream(seed, 0x5C4ED);
        let schedule = DiurnalPattern::default().schedule(horizon.as_secs(), 60.0, &mut rng);
        TraceConfig {
            seed,
            horizon,
            schedule,
            mix: WorkloadClass::table6(),
        }
    }

    /// Replaces the schedule.
    pub fn with_schedule(mut self, schedule: RateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Scales the arrival rate by `factor` (load sweeps).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.schedule = self.schedule.scaled(factor);
        self
    }
}

/// Lazily yields time-ordered [`Request`]s via Poisson thinning: draw
/// candidate arrivals at the schedule's maximum rate, accept each with
/// probability `rate(t) / max_rate`.
#[derive(Debug, Clone)]
pub struct ArrivalGenerator {
    schedule: RateSchedule,
    mix: Vec<WorkloadClass>,
    /// The classes' shares, in mix order.
    shares: Vec<f64>,
    horizon_s: f64,
    max_rate: f64,
    rng: SimRng,
    t: f64,
    next_id: u64,
}

impl ArrivalGenerator {
    /// Creates a generator over `config`.
    pub fn new(config: &TraceConfig) -> Self {
        ArrivalGenerator {
            schedule: config.schedule.clone(),
            mix: config.mix.clone(),
            shares: config.mix.iter().map(|c| c.share).collect(),
            horizon_s: config.horizon.as_secs().min(config.schedule.horizon_s()),
            max_rate: config.schedule.max_rate(),
            rng: SimRng::from_seed_stream(config.seed, 0xA221),
            t: 0.0,
            next_id: 0,
        }
    }
}

impl Iterator for ArrivalGenerator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.max_rate <= 0.0 {
            return None;
        }
        loop {
            self.t += self.rng.exponential(self.max_rate);
            if self.t >= self.horizon_s {
                return None;
            }
            let accept_p = self.schedule.rate_at(self.t) / self.max_rate;
            if !self.rng.chance(accept_p) {
                continue;
            }
            let class = &self.mix[pick_class(&self.shares, &mut self.rng)];
            let (input, output, priority) = class.sample(&mut self.rng);
            let id = self.next_id;
            self.next_id += 1;
            return Some(Request::new(
                id,
                SimTime::from_secs(self.t),
                input,
                output,
                priority,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(hours: f64, seed: u64) -> TraceConfig {
        TraceConfig::paper_mix(seed, SimTime::from_hours(hours))
    }

    #[test]
    fn arrivals_are_time_ordered_within_horizon() {
        let reqs: Vec<Request> = ArrivalGenerator::new(&config(2.0, 1)).collect();
        assert!(!reqs.is_empty());
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(reqs.iter().all(|r| r.arrival < SimTime::from_hours(2.0)));
    }

    #[test]
    fn request_count_tracks_rate_integral() {
        // The trace starts at midnight where the diurnal shape sits near
        // its trough (~0.8 req/s), so 2 h yield ≈ 5600 requests.
        let reqs: Vec<Request> = ArrivalGenerator::new(&config(2.0, 2)).collect();
        let n = reqs.len() as f64;
        assert!((4500.0..8000.0).contains(&n), "{n} requests");
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let reqs: Vec<Request> = ArrivalGenerator::new(&config(1.0, 3)).collect();
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn same_seed_reproduces_same_trace() {
        let a: Vec<Request> = ArrivalGenerator::new(&config(1.0, 7)).collect();
        let b: Vec<Request> = ArrivalGenerator::new(&config(1.0, 7)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Request> = ArrivalGenerator::new(&config(1.0, 7)).collect();
        let b: Vec<Request> = ArrivalGenerator::new(&config(1.0, 8)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mix_shares_are_respected() {
        use polca_cluster::Priority;

        let reqs: Vec<Request> = ArrivalGenerator::new(&config(4.0, 4)).collect();
        let n = reqs.len() as f64;
        // Prompts above 4096 tokens only come from Summarize, which is
        // uniform over 2048..=8192: expected share 0.25 × (2/3) ≈ 0.167.
        let big_prompt = reqs.iter().filter(|r| r.input_tokens > 4096).count() as f64;
        assert!(
            (big_prompt / n - 0.25 * 2.0 / 3.0).abs() < 0.03,
            "big-prompt share {}",
            big_prompt / n
        );
        let high = reqs.iter().filter(|r| r.priority == Priority::High).count() as f64;
        // Search (25 %) + half of Chat (25 %) = 50 % high priority.
        assert!((high / n - 0.5).abs() < 0.03, "high share {}", high / n);
    }

    #[test]
    fn scaling_changes_volume_proportionally() {
        let base: Vec<Request> = ArrivalGenerator::new(&config(2.0, 5)).collect();
        let scaled: Vec<Request> = ArrivalGenerator::new(&config(2.0, 5).scaled(1.3)).collect();
        let ratio = scaled.len() as f64 / base.len() as f64;
        assert!((ratio - 1.3).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn zero_rate_schedule_yields_nothing() {
        let cfg = config(1.0, 6).with_schedule(RateSchedule::constant(0.0, 3600.0));
        assert_eq!(ArrivalGenerator::new(&cfg).count(), 0);
    }
}
