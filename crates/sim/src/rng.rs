//! Deterministic random number generation and distribution samplers.
//!
//! Every stochastic component in the workspace (arrival processes, burst
//! models, telemetry jitter, OOB failure injection) draws from a [`SimRng`]
//! derived from a single experiment seed plus a *stream* identifier. Two
//! components with different streams never share state, so adding a new
//! consumer of randomness does not perturb existing ones — essential when
//! comparing power policies on identical request streams.

use crate::chacha::ChaCha8;

/// A seedable, splittable simulation RNG.
///
/// Backed by the in-tree ChaCha8 keystream (the private `chacha`
/// module) so the workspace builds without registry access.
///
/// # Examples
///
/// ```
/// use polca_sim::SimRng;
///
/// let mut a = SimRng::from_seed_stream(42, 0);
/// let mut b = SimRng::from_seed_stream(42, 0);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0)); // deterministic
///
/// let mut c = SimRng::from_seed_stream(42, 1);
/// // different stream, independent sequence
/// let _ = c.uniform(0.0, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8,
}

impl SimRng {
    /// Creates an RNG from an experiment `seed` and a component `stream`.
    pub fn from_seed_stream(seed: u64, stream: u64) -> Self {
        SimRng {
            inner: ChaCha8::new(seed, stream),
        }
    }

    /// Derives a child RNG for a sub-component, keyed by `stream`.
    ///
    /// The child is independent of `self` and of children with other
    /// streams; deriving a child does not advance this RNG.
    pub fn child(&self, stream: u64) -> SimRng {
        SimRng {
            inner: self
                .inner
                .with_stream(self.inner.stream() ^ splitmix(stream)),
        }
    }

    /// The next 32 raw keystream bits.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// The next 64 raw keystream bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples an exponential inter-arrival time with the given `rate`
    /// (events per second). Used by the Poisson request-arrival process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // Inverse CDF; guard the log(0) corner.
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -u.ln() / rate
    }

    /// Samples a standard normal via the Box-Muller transform, scaled to
    /// `mean`/`std_dev`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range");
        let x = lo + self.next_f64() * (hi - lo);
        // Floating-point rounding can land exactly on `hi`; keep the
        // half-open contract.
        if x >= hi {
            hi.next_down().max(lo)
        } else {
            x
        }
    }

    /// Uniform integer sample in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty uniform range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.inner.next_u64();
        }
        // Fixed-point multiply maps the keystream onto [0, span]; the
        // bias is at most (span + 1) / 2^64, far below anything the
        // simulator's statistics can resolve.
        let scaled = (self.inner.next_u64() as u128 * (span as u128 + 1)) >> 64;
        lo + scaled as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.next_f64() < p
    }

    /// Picks an index according to the given non-negative `weights`.
    ///
    /// Returns `None` if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        Some(weights.len() - 1)
    }
}

/// SplitMix64 finalizer — decorrelates sequential stream ids.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::from_seed_stream(7, 3);
        let mut b = SimRng::from_seed_stream(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_are_independent() {
        let mut a = SimRng::from_seed_stream(7, 0);
        let mut b = SimRng::from_seed_stream(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn child_streams_are_stable_and_distinct() {
        let root = SimRng::from_seed_stream(1, 0);
        let mut c1 = root.child(5);
        let mut c1_again = root.child(5);
        let mut c2 = root.child(6);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let mut c1 = root.child(5);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn exponential_mean_approximates_inverse_rate() {
        let mut rng = SimRng::from_seed_stream(11, 0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::from_seed_stream(13, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::from_seed_stream(17, 0);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        // Out-of-range p is clamped, not a panic.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::from_seed_stream(19, 0);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 1.0]).unwrap()] += 1;
        }
        let frac1 = counts[1] as f64 / 30_000.0;
        assert!((frac1 - 0.5).abs() < 0.02, "frac1 = {frac1}");
        assert!(counts[0] > 0 && counts[2] > 0);
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SimRng::from_seed_stream(23, 0);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let u = rng.uniform_u64(5, 7);
            assert!((5..=7).contains(&u));
        }
    }
}
