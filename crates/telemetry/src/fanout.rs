//! Fan-out subscription for delayed OOB telemetry signals.
//!
//! The row power manager is not the only consumer of the 2 s delayed
//! row-power signal: an online monitoring plane (alerting, SLO burn
//! tracking) must watch the *same* stale readings the operator sees —
//! never the simulator's ground truth. [`RowPowerTaps`] is the
//! publish/subscribe seam: the cluster simulator publishes each
//! telemetry tick to every registered [`RowPowerSubscriber`], carrying
//! the delayed observation (or its absence, before the first reading
//! propagates) plus a separate ground-truth reference feed that
//! subscribers may use **only** for annotation — e.g. measuring how
//! late a delayed-signal detection fired relative to the true event.
//!
//! Subscribers take `&self` and use interior mutability, mirroring the
//! `polca-obs` recorder idiom, so one subscriber handle can sit behind
//! the simulator's cloneable configuration struct.

use std::fmt;
use std::sync::Arc;

use polca_sim::SimTime;

/// A consumer of the row-level OOB power telemetry stream.
///
/// [`on_tick`](Self::on_tick) fires once per row telemetry tick (2 s in
/// the paper's Table 1 configuration). `observed` is what an operator
/// actually sees — the [`DelayedSignal`] read, stale by the Table 2
/// propagation delay. `truth_watts` is the instantaneous ground-truth
/// power and exists solely so monitoring planes can annotate
/// detections with the true event time; acting on it would give a
/// subscriber information no production system has.
///
/// [`DelayedSignal`]: crate::delay::DelayedSignal
pub trait RowPowerSubscriber: Send + Sync {
    /// One telemetry tick of fleet row `row` at `now`: the ground-truth
    /// reading plus the delayed view (`None` while nothing has
    /// propagated). Single-row subscribers ignore `row`; fleet-aware
    /// ones partition their state by it.
    fn on_tick(&self, row: usize, now: SimTime, truth_watts: f64, observed: Option<f64>);
}

/// A cloneable set of [`RowPowerSubscriber`] handles.
///
/// Lives inside the simulator configuration, which derives `Clone` and
/// `PartialEq`; clones share the underlying subscribers (they are
/// `Arc`s), and equality compares only the subscriber *count* — the
/// set is wiring, not data, exactly like the obs recorder's
/// level-only equality.
#[derive(Clone, Default)]
pub struct RowPowerTaps {
    subs: Vec<Arc<dyn RowPowerSubscriber>>,
    row: usize,
}

impl fmt::Debug for RowPowerTaps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowPowerTaps")
            .field("subscribers", &self.subs.len())
            .field("row", &self.row)
            .finish()
    }
}

impl PartialEq for RowPowerTaps {
    fn eq(&self, other: &Self) -> bool {
        self.subs.len() == other.subs.len() && self.row == other.row
    }
}

impl RowPowerTaps {
    /// An empty tap set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber.
    pub fn subscribe(&mut self, sub: Arc<dyn RowPowerSubscriber>) {
        self.subs.push(sub);
    }

    /// A clone of this tap set publishing as fleet row `row`: same
    /// shared subscribers, different row qualifier on every tick. Row
    /// 0 is the default, so a single-row simulator and `for_row(0)`
    /// are indistinguishable.
    pub fn for_row(&self, row: usize) -> Self {
        let mut taps = self.clone();
        taps.row = row;
        taps
    }

    /// The fleet row index this tap set publishes as (0 by default).
    pub fn row(&self) -> usize {
        self.row
    }

    /// Whether any subscriber is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Number of registered subscribers.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Publishes one telemetry tick — ground truth plus the delayed
    /// view — as one [`RowPowerSubscriber::on_tick`] call per
    /// subscriber, qualified by this tap set's row index.
    pub fn publish_tick(&self, now: SimTime, truth_watts: f64, observed: Option<f64>) {
        for sub in &self.subs {
            sub.on_tick(self.row, now, truth_watts, observed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Probe {
        log: Mutex<Vec<String>>,
    }

    impl RowPowerSubscriber for Probe {
        fn on_tick(&self, row: usize, now: SimTime, truth: f64, observed: Option<f64>) {
            self.log.lock().unwrap().push(format!(
                "row{row}@{}: truth={truth} observed={observed:?}",
                now.as_secs()
            ));
        }
    }

    #[test]
    fn publishes_reach_every_subscriber() {
        let a = Arc::new(Probe::default());
        let b = Arc::new(Probe::default());
        let mut taps = RowPowerTaps::new();
        taps.subscribe(a.clone());
        taps.subscribe(b.clone());
        assert_eq!(taps.len(), 2);
        taps.publish_tick(SimTime::from_secs(2.0), 100.0, None);
        taps.publish_tick(SimTime::from_secs(4.0), 101.0, Some(100.0));
        for p in [&a, &b] {
            let log = p.log.lock().unwrap();
            assert_eq!(
                *log,
                vec![
                    "row0@2: truth=100 observed=None",
                    "row0@4: truth=101 observed=Some(100.0)"
                ]
            );
        }
    }

    #[test]
    fn empty_taps_are_cheap_noops() {
        let taps = RowPowerTaps::new();
        assert!(taps.is_empty());
        taps.publish_tick(SimTime::ZERO, 1.0, Some(1.0));
    }

    #[test]
    fn equality_is_by_subscriber_count() {
        let mut a = RowPowerTaps::new();
        let b = RowPowerTaps::new();
        assert_eq!(a, b);
        a.subscribe(Arc::new(Probe::default()));
        assert_ne!(a, b);
        let mut c = RowPowerTaps::new();
        c.subscribe(Arc::new(Probe::default()));
        assert_eq!(a, c);
    }

    #[test]
    fn row_qualifier_reaches_fleet_aware_subscribers() {
        let probe = Arc::new(Probe::default());
        let mut taps = RowPowerTaps::new();
        taps.subscribe(probe.clone());
        assert_eq!(taps.row(), 0);
        taps.publish_tick(SimTime::from_secs(2.0), 100.0, None);
        let row3 = taps.for_row(3);
        assert_eq!(row3.row(), 3);
        row3.publish_tick(SimTime::from_secs(4.0), 100.0, Some(99.0));
        assert_eq!(
            *probe.log.lock().unwrap(),
            vec![
                "row0@2: truth=100 observed=None",
                "row3@4: truth=100 observed=Some(99.0)"
            ]
        );
    }

    #[test]
    fn equality_includes_row_index() {
        let taps = RowPowerTaps::new();
        assert_eq!(taps, taps.for_row(0));
        assert_ne!(taps, taps.for_row(1));
    }

    #[test]
    fn clones_share_subscribers() {
        let probe = Arc::new(Probe::default());
        let mut taps = RowPowerTaps::new();
        taps.subscribe(probe.clone());
        let clone = taps.clone();
        clone.publish_tick(SimTime::from_secs(1.0), 5.0, None);
        assert_eq!(probe.log.lock().unwrap().len(), 1);
    }
}
