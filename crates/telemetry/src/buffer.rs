//! Per-row telemetry tick buffering for deferred, deterministic
//! replay.
//!
//! A multi-datacenter site steps its rows on a worker pool, so
//! subscribers that fold ticks from *different* rows into shared state
//! (the watch plane's burn windows, for example) would observe a
//! thread-dependent interleaving. [`RowTickBuffer`] is the
//! determinism-preserving adapter: it subscribes to the fleet's
//! [`RowPowerTaps`](crate::RowPowerTaps), appends each tick to a
//! per-row vector under a per-row lock — rows never contend, and each
//! row's own ticks arrive in simulation order regardless of which
//! worker stepped it — and after the run hands the buffered columns
//! back so the caller can merge them in canonical row order and replay
//! aggregate ticks into any single-stream subscriber.

use std::sync::{Arc, Mutex};

use polca_sim::SimTime;

use crate::fanout::RowPowerSubscriber;

/// One buffered telemetry tick of one row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferedTick {
    /// Tick time.
    pub t: SimTime,
    /// Ground-truth row power, in watts.
    pub truth_watts: f64,
    /// The delayed observation (`None` before the first reading
    /// propagates).
    pub observed_watts: Option<f64>,
}

/// A [`RowPowerSubscriber`] that records every row's ticks instead of
/// acting on them; see the [module docs](self).
pub struct RowTickBuffer {
    rows: Vec<Mutex<Vec<BufferedTick>>>,
}

impl RowTickBuffer {
    /// A buffer for `rows` fleet rows, ready to subscribe.
    pub fn new(rows: usize) -> Arc<Self> {
        Arc::new(RowTickBuffer {
            rows: (0..rows).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// Number of rows buffered.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Takes row `row`'s buffered ticks (in simulation order), leaving
    /// the slot empty.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn take_row(&self, row: usize) -> Vec<BufferedTick> {
        std::mem::take(&mut self.rows[row].lock().expect("tick buffer poisoned"))
    }
}

impl RowPowerSubscriber for RowTickBuffer {
    fn on_tick(&self, row: usize, now: SimTime, truth_watts: f64, observed: Option<f64>) {
        if let Some(slot) = self.rows.get(row) {
            slot.lock()
                .expect("tick buffer poisoned")
                .push(BufferedTick {
                    t: now,
                    truth_watts,
                    observed_watts: observed,
                });
        }
    }
}

/// Merges equal-length per-row tick columns into one aggregate tick
/// stream: truth is the sum across rows, and the observed value is the
/// sum only when *every* row has one (a single un-propagated row makes
/// the aggregate unobservable, exactly as a site-level meter behind
/// the slowest feed would behave).
///
/// Rows on a lockstep telemetry grid produce identical tick times;
/// ragged columns are truncated to the shortest.
pub fn merge_tick_columns(columns: &[Vec<BufferedTick>]) -> Vec<BufferedTick> {
    let Some(len) = columns.iter().map(Vec::len).min() else {
        return Vec::new();
    };
    (0..len)
        .map(|k| {
            let t = columns[0][k].t;
            let truth_watts = columns.iter().map(|c| c[k].truth_watts).sum();
            let observed_watts = columns
                .iter()
                .map(|c| c[k].observed_watts)
                .sum::<Option<f64>>();
            BufferedTick {
                t,
                truth_watts,
                observed_watts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: f64, truth: f64, obs: Option<f64>) -> BufferedTick {
        BufferedTick {
            t: SimTime::from_secs(t),
            truth_watts: truth,
            observed_watts: obs,
        }
    }

    #[test]
    fn buffers_ticks_per_row_in_order() {
        let buf = RowTickBuffer::new(2);
        buf.on_tick(1, SimTime::from_secs(2.0), 10.0, None);
        buf.on_tick(0, SimTime::from_secs(2.0), 20.0, Some(19.0));
        buf.on_tick(1, SimTime::from_secs(4.0), 11.0, Some(10.0));
        assert_eq!(buf.n_rows(), 2);
        assert_eq!(buf.take_row(0), vec![tick(2.0, 20.0, Some(19.0))]);
        assert_eq!(
            buf.take_row(1),
            vec![tick(2.0, 10.0, None), tick(4.0, 11.0, Some(10.0))]
        );
        assert!(buf.take_row(1).is_empty(), "take drains the slot");
    }

    #[test]
    fn merge_sums_truth_and_gates_observed_on_all_rows() {
        let merged = merge_tick_columns(&[
            vec![tick(2.0, 10.0, None), tick(4.0, 11.0, Some(10.0))],
            vec![tick(2.0, 5.0, Some(5.0)), tick(4.0, 6.0, Some(6.0))],
        ]);
        assert_eq!(
            merged,
            vec![tick(2.0, 15.0, None), tick(4.0, 17.0, Some(16.0))]
        );
        assert!(merge_tick_columns(&[]).is_empty());
    }
}
