//! A general event queue for discrete-event loops.
//!
//! Its order (time, then scheduling order) is the one every event loop
//! here keeps. The cluster row engine keeps its events in one lane per
//! event source instead, and its tests drive those lanes and this
//! queue side by side.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use polca_obs::QueueProbe;

use crate::time::SimTime;

/// A monotonic priority queue of timed events.
///
/// Events scheduled for the same timestamp are delivered in the order they
/// were scheduled (FIFO tie-breaking), which keeps runs deterministic.
/// Popping an event advances the queue's notion of *now*; scheduling in the
/// past is a logic error and panics.
///
/// # Examples
///
/// ```
/// use polca_sim::{EventQueue, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { RequestArrival, TelemetrySample }
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(0.1), Ev::TelemetrySample);
/// q.schedule(SimTime::from_secs(0.1), Ev::RequestArrival);
/// // Same timestamp: FIFO order.
/// assert_eq!(q.pop().unwrap().1, Ev::TelemetrySample);
/// assert_eq!(q.pop().unwrap().1, Ev::RequestArrival);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    probe: Option<QueueProbe>,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with `now == SimTime::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            probe: None,
        }
    }

    /// Attaches an observability probe; subsequent schedule/pop activity
    /// is reported through it. Probes backed by a disabled recorder cost
    /// one branch per operation.
    pub fn set_probe(&mut self, probe: QueueProbe) {
        self.probe = Some(probe);
    }

    /// The timestamp of the most recently popped event (the simulation's
    /// current time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Self::now): the simulator
    /// never travels backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let _t = self.probe.as_ref().and_then(QueueProbe::time_push);
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
        if let Some(p) = &self.probe {
            p.on_schedule(self.heap.len());
        }
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let _t = self.probe.as_ref().and_then(QueueProbe::time_pop);
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        if let Some(p) = &self.probe {
            p.on_pop(self.heap.len());
        }
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_at_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), "a");
        q.pop();
        q.schedule_in(SimTime::from_secs(3.0), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_secs(), 5.0);
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(0.5), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
    }
}
