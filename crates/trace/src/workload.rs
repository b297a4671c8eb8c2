//! The workload classes of Table 6.

use polca_cluster::Priority;
use polca_sim::SimRng;

/// One request class from the paper's Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadClass {
    /// Class name.
    pub name: &'static str,
    /// Prompt-size range in tokens (inclusive).
    pub prompt_range: (u32, u32),
    /// Output-size range in tokens (inclusive).
    pub output_range: (u32, u32),
    /// Share of total request volume (`0.0..=1.0`).
    pub share: f64,
    /// Fraction of this class's requests that are high priority
    /// (Summarize: 0, Search: 1, Chat: 0.5).
    pub high_priority_fraction: f64,
}

impl WorkloadClass {
    /// `Summarize`: long prompts, short outputs, low priority, 25 %.
    pub const fn summarize() -> Self {
        WorkloadClass {
            name: "Summarize",
            prompt_range: (2048, 8192),
            output_range: (256, 512),
            share: 0.25,
            high_priority_fraction: 0.0,
        }
    }

    /// `Search`: short prompts, long outputs, high priority, 25 %.
    pub const fn search() -> Self {
        WorkloadClass {
            name: "Search",
            prompt_range: (512, 2048),
            output_range: (1024, 2048),
            share: 0.25,
            high_priority_fraction: 1.0,
        }
    }

    /// `Chat`: medium prompts, wide output range, 50:50 priority, 50 %.
    pub const fn chat() -> Self {
        WorkloadClass {
            name: "Chat",
            prompt_range: (2048, 4096),
            output_range: (128, 2048),
            share: 0.50,
            high_priority_fraction: 0.5,
        }
    }

    /// The full Table 6 mix.
    pub fn table6() -> Vec<WorkloadClass> {
        vec![Self::summarize(), Self::search(), Self::chat()]
    }

    /// Samples a request shape `(input_tokens, output_tokens, priority)`
    /// from this class. Sizes are uniform over the class range.
    pub fn sample(&self, rng: &mut SimRng) -> (u32, u32, Priority) {
        let input = rng.uniform_u64(self.prompt_range.0 as u64, self.prompt_range.1 as u64) as u32;
        let output = rng.uniform_u64(self.output_range.0 as u64, self.output_range.1 as u64) as u32;
        let priority = if rng.chance(self.high_priority_fraction) {
            Priority::High
        } else {
            Priority::Low
        };
        (input, output, priority)
    }

    /// Mean service shape of this class: `(mean_input, mean_output)`.
    pub fn mean_shape(&self) -> (f64, f64) {
        (
            (self.prompt_range.0 + self.prompt_range.1) as f64 / 2.0,
            (self.output_range.0 + self.output_range.1) as f64 / 2.0,
        )
    }
}

/// Picks a class index according to `shares`, the classes' shares in
/// mix order.
///
/// # Panics
///
/// Panics if `shares` is empty or all zero.
pub fn pick_class(shares: &[f64], rng: &mut SimRng) -> usize {
    rng.weighted_index(shares)
        .expect("workload mix must have positive shares")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_shares_sum_to_one() {
        let total: f64 = WorkloadClass::table6().iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table6_matches_paper_rows() {
        let mix = WorkloadClass::table6();
        assert_eq!(mix[0].name, "Summarize");
        assert_eq!(mix[0].prompt_range, (2048, 8192));
        assert_eq!(mix[0].high_priority_fraction, 0.0);
        assert_eq!(mix[1].name, "Search");
        assert_eq!(mix[1].output_range, (1024, 2048));
        assert_eq!(mix[1].high_priority_fraction, 1.0);
        assert_eq!(mix[2].name, "Chat");
        assert_eq!(mix[2].share, 0.50);
        assert_eq!(mix[2].high_priority_fraction, 0.5);
    }

    #[test]
    fn samples_stay_in_range() {
        let mut rng = SimRng::from_seed_stream(1, 0);
        let c = WorkloadClass::chat();
        for _ in 0..1000 {
            let (input, output, _) = c.sample(&mut rng);
            assert!((2048..=4096).contains(&input));
            assert!((128..=2048).contains(&output));
        }
    }

    #[test]
    fn summarize_is_always_low_priority_search_always_high() {
        let mut rng = SimRng::from_seed_stream(2, 0);
        for _ in 0..100 {
            assert_eq!(WorkloadClass::summarize().sample(&mut rng).2, Priority::Low);
            assert_eq!(WorkloadClass::search().sample(&mut rng).2, Priority::High);
        }
    }

    #[test]
    fn chat_priority_mix_is_roughly_even() {
        let mut rng = SimRng::from_seed_stream(3, 0);
        let c = WorkloadClass::chat();
        let high = (0..10_000)
            .filter(|_| c.sample(&mut rng).2 == Priority::High)
            .count();
        let frac = high as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "high fraction {frac}");
    }

    #[test]
    fn class_mix_follows_shares() {
        let shares: Vec<f64> = WorkloadClass::table6().iter().map(|c| c.share).collect();
        let mut rng = SimRng::from_seed_stream(4, 0);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[pick_class(&shares, &mut rng)] += 1;
        }
        let frac_chat = counts[2] as f64 / 30_000.0;
        assert!((frac_chat - 0.5).abs() < 0.02, "chat frac {frac_chat}");
        let frac_sum = counts[0] as f64 / 30_000.0;
        assert!((frac_sum - 0.25).abs() < 0.02, "summarize frac {frac_sum}");
    }

    #[test]
    fn mean_shape_is_range_midpoint() {
        let (i, o) = WorkloadClass::search().mean_shape();
        assert_eq!(i, 1280.0);
        assert_eq!(o, 1536.0);
    }
}
