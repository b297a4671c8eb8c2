//! Paged KV-cache accounting: fixed-size token blocks carved out of
//! the HBM left over after weights and the runtime reserve.
//!
//! The pager is deliberately simple — a block budget and a free count.
//! What makes it interesting is who calls it: the batch engine
//! allocates a sequence's prompt blocks up front at admission
//! (vLLM-style), grows the allocation one block at a time as decode
//! appends tokens, and on exhaustion preempts the youngest running
//! sequence, freeing its blocks for older work and recomputing its
//! prefill later.

/// Tolerance when converting fluid token counts to whole blocks, so a
/// sequence that advanced to exactly a block boundary (modulo float
/// error) does not claim a block for the error term.
pub(crate) const TOKEN_EPS: f64 = 1e-6;

/// `x.ceil() as u32`, bit for bit, without the libm call that baseline
/// x86-64 (no rounding instruction) makes for `ceil`: the saturating
/// truncation, plus one when it fell short of `x`.
#[inline]
pub(crate) fn ceil_u32(x: f64) -> u32 {
    let t = x as u32;
    if f64::from(t) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// A per-server paged KV-cache allocator: `total_blocks` blocks of
/// `block_tokens` tokens each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvPager {
    total_blocks: u32,
    free_blocks: u32,
    block_tokens: u32,
}

impl KvPager {
    /// A pager over `total_blocks` blocks of `block_tokens` tokens.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(total_blocks: u32, block_tokens: u32) -> Self {
        assert!(total_blocks > 0, "KV pool must hold at least one block");
        assert!(block_tokens > 0, "KV blocks must hold at least one token");
        KvPager {
            total_blocks,
            free_blocks: total_blocks,
            block_tokens,
        }
    }

    /// Blocks required to hold `tokens` KV entries (0 for an empty
    /// sequence).
    pub fn blocks_for_tokens(&self, tokens: f64) -> u32 {
        if tokens <= TOKEN_EPS {
            return 0;
        }
        ceil_u32((tokens - TOKEN_EPS) / self.block_tokens as f64)
    }

    /// Blocks a sequence holding `held` must add to hold `tokens` KV
    /// entries: `blocks_for_tokens(tokens).saturating_sub(held)`,
    /// without the division when the held blocks already cover
    /// `tokens`. When `held × block_tokens` fits a `u32` it is exact as
    /// an `f64`, and division rounds monotonically, so
    /// `tokens − ε ≤ held × block_tokens` implies
    /// `⌈(tokens − ε) / block_tokens⌉ ≤ held`.
    #[inline]
    pub(crate) fn blocks_to_grow(&self, tokens: f64, held: u32) -> u32 {
        if let Some(capacity) = held.checked_mul(self.block_tokens) {
            if tokens - TOKEN_EPS <= f64::from(capacity) {
                return 0;
            }
        }
        self.blocks_for_tokens(tokens).saturating_sub(held)
    }

    /// Claims `blocks` from the free pool; `false` (and no change) if
    /// the pool cannot satisfy the request.
    pub fn try_alloc(&mut self, blocks: u32) -> bool {
        if blocks > self.free_blocks {
            return false;
        }
        self.free_blocks -= blocks;
        true
    }

    /// Returns `blocks` to the free pool.
    ///
    /// # Panics
    ///
    /// Panics (debug) on freeing more than is outstanding.
    pub fn free(&mut self, blocks: u32) {
        debug_assert!(blocks <= self.used_blocks(), "double free of KV blocks");
        self.free_blocks = (self.free_blocks + blocks).min(self.total_blocks);
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u32 {
        self.block_tokens
    }

    /// Total blocks in the pool.
    pub fn total_blocks(&self) -> u32 {
        self.total_blocks
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> u32 {
        self.free_blocks
    }

    /// Blocks currently allocated.
    pub fn used_blocks(&self) -> u32 {
        self.total_blocks - self.free_blocks
    }

    /// Allocated fraction of the pool in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.used_blocks() as f64 / self.total_blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_sim::SimRng;

    #[test]
    fn block_math_rounds_up() {
        let p = KvPager::new(10, 16);
        assert_eq!(p.blocks_for_tokens(0.0), 0);
        assert_eq!(p.blocks_for_tokens(1.0), 1);
        assert_eq!(p.blocks_for_tokens(16.0), 1);
        assert_eq!(p.blocks_for_tokens(17.0), 2);
        // Float noise at a block boundary does not claim a block.
        assert_eq!(p.blocks_for_tokens(32.0 + 1e-9), 2);
    }

    #[test]
    fn ceil_u32_is_the_saturating_ceil_cast() {
        let mut rng = SimRng::from_seed_stream(42, 0);
        let edges = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            4_294_967_294.5,
            4_294_967_295.0,
            4_294_967_295.5,
            4_294_967_296.0,
            1e300,
            f64::INFINITY,
        ];
        let random = (0..20_000).map(|i| match i % 3 {
            0 => rng.uniform(0.0, 70_000.0),
            1 => rng.uniform_u64(0, 70_000) as f64 + rng.uniform(-1e-9, 1e-9),
            _ => rng.uniform(-10.0, 10.0),
        });
        for x in edges.into_iter().chain(random) {
            assert_eq!(ceil_u32(x), x.ceil() as u32, "x = {x:e}");
        }
    }

    #[test]
    fn block_shortcut_matches_the_division() {
        let mut rng = SimRng::from_seed_stream(17, 0);
        for block_tokens in [16, 7] {
            let p = KvPager::new(1 << 16, block_tokens);
            let bt = f64::from(block_tokens);
            for _ in 0..20_000 {
                let boundary = rng.uniform_u64(0, 4096) as f64 * bt;
                // Anywhere in a block, or within 1e-9 of its boundary
                // (either side, where TOKEN_EPS decides).
                let tokens = match rng.uniform_u64(0, 2) {
                    0 => rng.uniform(0.0, 4096.0 * bt),
                    1 => boundary + rng.uniform(-1e-9, 1e-9),
                    _ => boundary + TOKEN_EPS + rng.uniform(-1e-9, 1e-9),
                };
                let exact = p.blocks_for_tokens(tokens.max(0.0));
                // Held counts around the exact need, and past it.
                let held = (exact + rng.uniform_u64(0, 2) as u32).saturating_sub(1);
                for held in [held, 0, exact, exact + 1, u32::MAX / 2] {
                    assert_eq!(
                        p.blocks_to_grow(tokens, held),
                        p.blocks_for_tokens(tokens).saturating_sub(held),
                        "tokens {tokens} held {held} block_tokens {block_tokens}"
                    );
                }
            }
        }
    }

    #[test]
    fn alloc_free_cycle_tracks_occupancy() {
        let mut p = KvPager::new(4, 16);
        assert!(p.try_alloc(3));
        assert_eq!(p.used_blocks(), 3);
        assert!((p.occupancy() - 0.75).abs() < 1e-12);
        // Exhaustion: a request past the free count fails atomically.
        assert!(!p.try_alloc(2));
        assert_eq!(p.used_blocks(), 3);
        assert!(p.try_alloc(1));
        p.free(4);
        assert_eq!(p.free_blocks(), 4);
    }
}
