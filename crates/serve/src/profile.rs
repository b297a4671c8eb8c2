//! Iteration profiles memoised per row.

use polca_llm::{BatchComposition, InferenceModel, PhaseProfile};

use crate::server::BatchScheduler;

/// [`InferenceModel::iteration_profile`] memoised over the compositions
/// a row's servers form most: every decode count up to the batch limit,
/// beside no prefill or beside a full prefill chunk. The profile is a
/// pure function of the composition, so a cached entry is bit for bit
/// the call it replaces; any other composition (a prompt's last,
/// partial chunk) is computed on demand.
#[derive(Debug)]
pub(crate) struct ProfileTable {
    deployment: InferenceModel,
    /// The profile of `(0, d)` at index `d − 1`, for `d` in
    /// `1..=max_batch`.
    decode_only: Vec<PhaseProfile>,
    /// The full chunk beside `d` decoding sequences and the profile of
    /// `(chunk, d)`, at index `d`, for `d` in `0..=max_batch`.
    full_chunk: Vec<(u32, PhaseProfile)>,
}

impl ProfileTable {
    /// The table of `deployment` under `sched`'s batch limit and chunk.
    pub fn new(deployment: InferenceModel, sched: &BatchScheduler) -> Self {
        let max_batch = u32::try_from(sched.max_batch).unwrap_or(u32::MAX);
        let profile = |prefill_tokens, decode_seqs| {
            deployment.iteration_profile(&BatchComposition {
                prefill_tokens,
                decode_seqs,
            })
        };
        let decode_only = (1..=max_batch).map(|d| profile(0, d)).collect();
        let full_chunk = (0..=max_batch)
            .map(|d| {
                let chunk = sched.full_chunk(d);
                (chunk, profile(chunk, d))
            })
            .collect();
        ProfileTable {
            deployment,
            decode_only,
            full_chunk,
        }
    }

    /// The model deployment every server of the row runs.
    pub fn deployment(&self) -> &InferenceModel {
        &self.deployment
    }

    /// The profile of an iteration that prefills `prefill_tokens`
    /// beside `decode_seqs` decoding sequences.
    pub fn get(&self, prefill_tokens: u32, decode_seqs: u32) -> PhaseProfile {
        let d = decode_seqs as usize;
        let cached = if prefill_tokens == 0 {
            d.checked_sub(1).and_then(|i| self.decode_only.get(i))
        } else {
            self.full_chunk
                .get(d)
                .filter(|(chunk, _)| *chunk == prefill_tokens)
                .map(|(_, profile)| profile)
        };
        match cached {
            Some(profile) => *profile,
            None => self.deployment.iteration_profile(&BatchComposition {
                prefill_tokens,
                decode_seqs,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use polca_gpu::GpuSpec;
    use polca_llm::ModelSpec;
    use polca_sim::SimRng;

    fn bits(p: PhaseProfile) -> [u64; 3] {
        [p.duration_s, p.intensity, p.compute_fraction].map(f64::to_bits)
    }

    #[test]
    fn every_cached_profile_is_the_direct_call_bit_for_bit() {
        let deployment =
            InferenceModel::new(ModelSpec::bloom_176b(), GpuSpec::a100_80gb()).unwrap();
        let direct = |p, d| {
            deployment.iteration_profile(&BatchComposition {
                prefill_tokens: p,
                decode_seqs: d,
            })
        };
        let mut rng = SimRng::from_seed_stream(17, 0);
        // The default scheduler, and budgets and chunks drawn at random
        // (some budgets below the batch limit, so the full chunk shrinks
        // to one token).
        let mut scheds = vec![BatchScheduler::from_config(&ServeConfig::default())];
        for _ in 0..8 {
            scheds.push(BatchScheduler {
                max_batch: rng.uniform_u64(1, 48) as usize,
                chunk_tokens: rng.uniform_u64(0, 1024) as u32,
                iteration_budget_tokens: rng.uniform_u64(0, 700) as u32,
                max_waiting: 32,
            });
        }
        for sched in scheds {
            let table = ProfileTable::new(deployment.clone(), &sched);
            let max = sched.max_batch as u32;
            assert_eq!(
                table.decode_only.len() + table.full_chunk.len(),
                2 * max as usize + 1
            );
            for d in 0..=max {
                let chunk = sched.full_chunk(d);
                assert_eq!(bits(table.get(chunk, d)), bits(direct(chunk, d)));
                if d > 0 {
                    assert_eq!(bits(table.get(0, d)), bits(direct(0, d)));
                }
                // A partial chunk, and a decode count past the table,
                // fall through to the direct call.
                let partial = rng.uniform_u64(1, u64::from(chunk)) as u32;
                assert_eq!(bits(table.get(partial, d)), bits(direct(partial, d)));
                assert_eq!(
                    bits(table.get(chunk, max + 1 + d)),
                    bits(direct(chunk, max + 1 + d))
                );
            }
        }
    }
}
