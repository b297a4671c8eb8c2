//! Cluster-scale training power (Table 4, training column).
//!
//! "In larger-scale training, power swings are correlated across
//! thousands of GPUs running the training job" (§4.1): every server
//! executes the same iteration schedule nearly in lock-step, so the
//! compute/communication alternation appears at full amplitude in the
//! row-level power — unlike inference, where uncorrelated arrivals
//! statistically multiplex the phases away (Insight 9). Training rows
//! are also provisioned much closer to their observed peak ("about 3 %"
//! headroom), which is why Table 4 reports 97 % peak utilization.

use polca_gpu::ServerSpec;
use polca_llm::{ModelSpec, TrainingJob};
use polca_sim::SimRng;
use polca_stats::TimeSeries;

/// A row of servers running one synchronous training job.
#[derive(Debug, Clone)]
pub struct TrainingCluster {
    servers: usize,
    job: TrainingJob,
    spec: ServerSpec,
    /// Standard deviation of per-server phase offset, in seconds
    /// (stragglers and network skew).
    jitter_std_s: f64,
}

impl TrainingCluster {
    /// Creates a training row of `servers` machines fine-tuning `model`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize, model: &ModelSpec, spec: ServerSpec) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        TrainingCluster {
            servers,
            job: TrainingJob::fine_tuning(model),
            spec,
            jitter_std_s: 0.05,
        }
    }

    /// The production-like training row behind Table 4: 40 DGX-A100
    /// servers on a large synchronous decoder job.
    pub fn paper_training_row() -> Self {
        Self::new(40, &ModelSpec::gpt_neox_20b(), ServerSpec::dgx_a100())
    }

    /// Servers in the row.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The training job description.
    pub fn job(&self) -> &TrainingJob {
        &self.job
    }

    /// Training rows are provisioned near their observed peak, not the
    /// rated server power: the row budget is `servers × peak server
    /// power × (1 + headroom)` with the paper's ~3 % headroom.
    pub fn provisioned_watts(&self) -> f64 {
        self.servers as f64 * self.spec.peak_power_watts() * 1.03
    }

    /// Workload intensity of the job at time `t` for a server whose
    /// schedule is shifted by `offset` seconds.
    fn intensity_at(&self, t: f64, offset: f64) -> f64 {
        let iter = self.job.iteration_time_s();
        let pos = (t + offset).rem_euclid(iter) / iter;
        let mut acc = 0.0;
        for phase in self.job.phases() {
            acc += phase.duration_frac;
            if pos < acc {
                return phase.intensity;
            }
        }
        self.job.phases().last().map_or(0.0, |p| p.intensity)
    }

    /// Simulates `duration_s` seconds of synchronized training and
    /// returns the row power sampled every `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `duration_s` is not strictly positive.
    pub fn row_power_series(&self, duration_s: f64, dt: f64, seed: u64) -> TimeSeries {
        assert!(dt > 0.0, "dt must be positive");
        assert!(duration_s > 0.0, "duration must be positive");
        let mut rng = SimRng::from_seed_stream(seed, 0x7124);
        let offsets: Vec<f64> = (0..self.servers)
            .map(|_| rng.normal(0.0, self.jitter_std_s))
            .collect();
        let mut ts = TimeSeries::new();
        let steps = (duration_s / dt).ceil() as usize;
        for k in 0..steps {
            let t = k as f64 * dt;
            let mut row = 0.0;
            for offset in &offsets {
                let intensity =
                    (self.intensity_at(t, *offset) + rng.normal(0.0, 0.01)).clamp(0.0, 1.0);
                row += self.spec.power_watts(self.spec.n_gpus, intensity, 1.0);
            }
            ts.push(t, row);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> TrainingCluster {
        TrainingCluster::paper_training_row()
    }

    #[test]
    fn peak_utilization_is_about_97_percent() {
        // Table 4, training column.
        let c = cluster();
        let ts = c.row_power_series(120.0, 0.1, 7);
        let util = ts.peak().unwrap() / c.provisioned_watts();
        assert!((0.93..=1.0).contains(&util), "peak util {util:.3}");
    }

    #[test]
    fn swings_are_large_and_fast() {
        // Table 4: power can swing ~37.5 % of provisioned capacity
        // within 2 s.
        let c = cluster();
        let ts = c.row_power_series(120.0, 0.1, 7);
        let swing = ts.max_rise_within(2.0).unwrap() / c.provisioned_watts();
        assert!((0.25..=0.50).contains(&swing), "2 s swing {swing:.3}");
    }

    #[test]
    fn training_headroom_is_tiny() {
        // §4.3/Insight 9: about 3 % headroom — far less than inference.
        let c = cluster();
        let ts = c.row_power_series(60.0, 0.1, 1);
        let headroom = 1.0 - ts.peak().unwrap() / c.provisioned_watts();
        assert!(headroom < 0.08, "headroom {headroom:.3}");
    }

    #[test]
    fn swings_repeat_every_iteration() {
        let c = cluster();
        let iter = c.job().iteration_time_s();
        let ts = c.row_power_series(iter * 4.0, 0.05, 3);
        // Compare the first and third iteration's minima: periodic dips.
        let w1 = ts.slice_time(0.0, iter);
        let w3 = ts.slice_time(2.0 * iter, 3.0 * iter);
        let rel = (w1.trough().unwrap() - w3.trough().unwrap()).abs() / w1.trough().unwrap();
        assert!(rel < 0.05, "dips should recur each iteration ({rel:.3})");
    }

    #[test]
    fn jitter_smooths_but_does_not_hide_swings() {
        // The per-seed smoothing ratio is noisy (offsets are a handful of
        // normal draws), so assert on the mean over a few seeds.
        let mut c = cluster();
        const SEEDS: u64 = 6;
        let mut ratio_sum = 0.0;
        for seed in 0..SEEDS {
            c.jitter_std_s = 0.0;
            let sync = c.row_power_series(60.0, 0.1, seed);
            c.jitter_std_s = 0.3;
            let jittered = c.row_power_series(60.0, 0.1, seed);
            let swing_sync = sync.max_rise_within(2.0).unwrap();
            let swing_jit = jittered.max_rise_within(2.0).unwrap();
            assert!(
                swing_jit <= swing_sync * 1.02,
                "seed {seed}: jitter amplified the swing"
            );
            ratio_sum += swing_jit / swing_sync;
        }
        let mean_ratio = ratio_sum / SEEDS as f64;
        assert!(
            (0.15..=0.8).contains(&mean_ratio),
            "jitter should damp but not hide swings (mean ratio {mean_ratio:.3})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = TrainingCluster::new(0, &ModelSpec::gpt_neox_20b(), ServerSpec::dgx_a100());
    }
}
