//! The row engine's agenda: its pending events, one lane per source.
//!
//! A row's events come from five sources, and each has a shape a
//! general heap ignores:
//!
//! * the arrival feed schedules its next request only once the last
//!   one has arrived, so one slot holds it, request and all;
//! * the telemetry grid arms its next tick only when a tick fires, so
//!   one slot holds that too;
//! * the OOB plane arms a delivery for its earliest command on every
//!   telemetry tick while a command is in flight, and after every
//!   delivery, and the KV interconnect arms a transfer after every
//!   operation that ships one. Nearly every such arm lands behind the
//!   ones pending, so each keeps a queue sorted by key, and the rare
//!   arm that does not (a brake issued while slower caps are pending)
//!   is inserted by scanning from the back;
//! * server wakes arrive in any order, so they keep a binary heap,
//!   ordered on the key alone.
//!
//! Every event takes the run's next sequence number, and its key packs
//! its time above that number into one integer, so the agenda pops in
//! exactly `polca_sim::EventQueue`'s order (`SimTime::cmp`, then
//! scheduling order) by comparing at most five lane heads. It keeps
//! every event the simulator schedules, stale wakes and deliveries
//! that find nothing due included, and calls the queue probe where
//! `EventQueue` does, with the length over all lanes, so a run's
//! events, metrics and `sim_*` queue series are the ones the heap
//! produced.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use polca_obs::QueueProbe;
use polca_sim::SimTime;

use crate::request::Request;

/// The row engine's event alphabet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ev {
    Arrival(Request),
    /// A server's next scheduled state change: a legacy phase end or a
    /// batched composition boundary. Stale once the server has been
    /// rescheduled (its version moved on).
    Wake {
        server: usize,
        version: u64,
    },
    Telemetry,
    ControlDelivery,
    /// Batched engine: the earliest in-flight KV transfer lands.
    ServeTransfer,
}

/// An event's place in the run: its time's order bits (see
/// [`time_bits`]) above its sequence number, so integer order is
/// (`SimTime::cmp`, sequence) order.
type Key = u128;

/// The key of an empty lane, above every event's.
const EMPTY: Key = Key::MAX;

/// Maps `at` to bits whose unsigned order is `SimTime::cmp`'s
/// (`f64::total_cmp`): a sign-set float's bits are flipped, any other
/// float's sign bit is set.
fn time_bits(at: SimTime) -> u64 {
    let bits = at.as_secs().to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The time whose [`time_bits`] head `key`.
fn time_of(key: Key) -> SimTime {
    let bits = (key >> 64) as u64;
    let bits = if bits >> 63 == 1 {
        bits & !(1 << 63)
    } else {
        !bits
    };
    SimTime::from_secs(f64::from_bits(bits))
}

/// A pending server wake, ordered on its key alone.
#[derive(Debug)]
struct Wake {
    key: Key,
    server: usize,
    version: u64,
}

impl PartialEq for Wake {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Wake {}
impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Wake {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// The lanes, in the order [`Agenda::head`] reads them.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Arrival,
    Telemetry,
    Delivery,
    Transfer,
    Wake,
}

/// A row's pending events, one lane per source (see the module docs).
#[derive(Debug)]
pub(crate) struct Agenda {
    arrival: Option<(Key, Request)>,
    telemetry: Option<Key>,
    /// Pending OOB deliveries, sorted by key.
    deliveries: VecDeque<Key>,
    /// Pending KV-transfer landings, sorted by key.
    transfers: VecDeque<Key>,
    /// Pending server wakes, stale ones included.
    wakes: BinaryHeap<Reverse<Wake>>,
    /// The sequence number the next event takes.
    seq: u64,
    /// The time of the last event popped.
    now: SimTime,
    /// Pending events over all lanes.
    len: usize,
    probe: QueueProbe,
}

impl Agenda {
    /// An empty agenda at time zero that reports to `probe`.
    pub(crate) fn new(probe: QueueProbe) -> Self {
        Agenda {
            arrival: None,
            telemetry: None,
            deliveries: VecDeque::new(),
            transfers: VecDeque::new(),
            wakes: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            len: 0,
            probe,
        }
    }

    /// Schedules `ev` at `at`, after every event already scheduled for
    /// that instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last event popped, or if an
    /// arrival or telemetry tick is scheduled while one is pending.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Ev) {
        assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let _t = self.probe.time_push();
        let key = Key::from(time_bits(at)) << 64 | Key::from(self.seq);
        self.seq += 1;
        match ev {
            Ev::Arrival(req) => {
                assert!(self.arrival.is_none(), "an arrival is already pending");
                self.arrival = Some((key, req));
            }
            Ev::Telemetry => {
                assert!(self.telemetry.is_none(), "a tick is already pending");
                self.telemetry = Some(key);
            }
            Ev::ControlDelivery => insert_sorted(&mut self.deliveries, key),
            Ev::ServeTransfer => insert_sorted(&mut self.transfers, key),
            Ev::Wake { server, version } => self.wakes.push(Reverse(Wake {
                key,
                server,
                version,
            })),
        }
        self.len += 1;
        self.probe.on_schedule(self.len);
    }

    /// The lane holding the earliest event, and its key ([`EMPTY`]
    /// when every lane is).
    #[inline]
    fn head(&self) -> (Lane, Key) {
        let mut head = (Lane::Arrival, self.arrival.as_ref().map_or(EMPTY, |a| a.0));
        for lane in [
            (Lane::Telemetry, self.telemetry.unwrap_or(EMPTY)),
            (Lane::Delivery, front(&self.deliveries)),
            (Lane::Transfer, front(&self.transfers)),
            (Lane::Wake, self.wakes.peek().map_or(EMPTY, |w| w.0.key)),
        ] {
            if lane.1 < head.1 {
                head = lane;
            }
        }
        head
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `limit`, advancing the agenda's time to it.
    pub(crate) fn pop_through(&mut self, limit: SimTime) -> Option<(SimTime, Ev)> {
        let (lane, key) = self.head();
        if key == EMPTY || (key >> 64) as u64 > time_bits(limit) {
            return None;
        }
        let _t = self.probe.time_pop();
        let ev = match lane {
            Lane::Arrival => Ev::Arrival(self.arrival.take().expect("head lane is full").1),
            Lane::Telemetry => {
                self.telemetry = None;
                Ev::Telemetry
            }
            Lane::Delivery => {
                self.deliveries.pop_front();
                Ev::ControlDelivery
            }
            Lane::Transfer => {
                self.transfers.pop_front();
                Ev::ServeTransfer
            }
            Lane::Wake => {
                let Reverse(w) = self.wakes.pop().expect("head lane is full");
                Ev::Wake {
                    server: w.server,
                    version: w.version,
                }
            }
        };
        self.len -= 1;
        self.now = time_of(key);
        self.probe.on_pop(self.len);
        Some((self.now, ev))
    }

    /// The time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let (_, key) = self.head();
        (key != EMPTY).then(|| time_of(key))
    }

    /// Pending events over all lanes.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }
}

/// The key at the front of a sorted lane ([`EMPTY`] when it is empty).
#[inline]
fn front(lane: &VecDeque<Key>) -> Key {
    lane.front().copied().unwrap_or(EMPTY)
}

/// Inserts `key` into the sorted `lane`, scanning from the back: a new
/// arm nearly always lands there, and among equal times its sequence
/// number puts it last.
fn insert_sorted(lane: &mut VecDeque<Key>, key: Key) {
    let at = lane.iter().rposition(|&k| k < key).map_or(0, |i| i + 1);
    lane.insert(at, key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use polca_obs::{ObsLevel, Recorder};
    use polca_sim::{EventQueue, SimRng};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn time_bits_order_times_as_simtime_does() {
        let times = [
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            2.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &times {
            let key = Key::from(time_bits(t(a))) << 64 | 7;
            assert_eq!(time_of(key).as_secs().to_bits(), a.to_bits());
            for &b in &times {
                assert_eq!(
                    time_bits(t(a)).cmp(&time_bits(t(b))),
                    t(a).cmp(&t(b)),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// Both queues refuse `-0.0` at the start of a run: `SimTime`'s
    /// order puts it before `0.0`, where both start.
    #[test]
    fn negative_zero_is_in_the_past_at_the_start() {
        let refuses = |schedule: &dyn Fn()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(schedule)).is_err()
        };
        let probe = Recorder::disabled().queue_probe();
        assert!(refuses(&|| {
            Agenda::new(probe.clone()).schedule(t(-0.0), Ev::Telemetry)
        }));
        assert!(refuses(
            &|| EventQueue::new().schedule(t(-0.0), Ev::Telemetry)
        ));
    }

    /// The event a random step schedules.
    fn random_event(rng: &mut SimRng, id: u64) -> Ev {
        match rng.uniform_u64(0, 4) {
            0 => Ev::Arrival(Request::new(id, SimTime::ZERO, 64, 16, Priority::Low)),
            1 => Ev::Telemetry,
            2 => Ev::ControlDelivery,
            3 => Ev::ServeTransfer,
            _ => Ev::Wake {
                server: rng.uniform_u64(0, 3) as usize,
                version: rng.uniform_u64(0, 1_000),
            },
        }
    }

    /// A time at or after `now`: often `now` itself or a step on a
    /// coarse grid, so events of different lanes tie, sometimes before
    /// everything pending (a late brake), sometimes far in the future.
    fn random_time(rng: &mut SimRng, now: SimTime) -> SimTime {
        let now = now.as_secs();
        match rng.uniform_u64(0, 9) {
            0..=2 => t(now),
            3..=5 => t(now + rng.uniform_u64(1, 4) as f64 * 0.5),
            6 => t(now + rng.uniform(0.0, 0.25)),
            7 => t(now + rng.uniform(0.0, 50.0)),
            8 => t([1e300, f64::MAX, f64::INFINITY][rng.uniform_u64(0, 2) as usize].max(now)),
            _ => t(now + 2.0),
        }
    }

    /// What a run's metrics say about its queue: the `sim_*` series and
    /// the queue phases' call counts.
    fn queue_series(recorder: &Recorder) -> String {
        recorder
            .artifacts()
            .metrics_prometheus()
            .lines()
            .filter(|line| line.starts_with("sim_") || line.contains("phase=\"queue."))
            .filter(|line| !line.contains("seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Seeded random streams of schedules and pops, through the agenda
    /// and through `polca_sim::EventQueue` side by side: after every
    /// operation both pop the same `(time bits, event)` and report the
    /// same length and next time, and at the end their probes have
    /// recorded the same queue series.
    #[test]
    fn pops_what_the_event_queue_pops() {
        // How often the streams hit each case worth covering.
        let (mut ties, mut early, mut shared, mut far) = (0, 0, 0, 0);
        for seed in 0..200 {
            let (rec_a, rec_q) = (Recorder::new(ObsLevel::Full), Recorder::new(ObsLevel::Full));
            let mut agenda = Agenda::new(rec_a.queue_probe());
            let mut queue = EventQueue::new();
            queue.set_probe(rec_q.queue_probe());
            let mut rng = SimRng::from_seed_stream(seed, 0xA6E);
            let mut now = SimTime::ZERO;
            for step in 0..400 {
                if rng.chance(0.45) {
                    let limit = random_time(&mut rng, now);
                    let want = match queue.peek_time() {
                        Some(at) if at <= limit => queue.pop(),
                        _ => None,
                    };
                    let got = agenda.pop_through(limit);
                    assert_eq!(
                        got.map(|(at, ev)| (at.as_secs().to_bits(), ev)),
                        want.map(|(at, ev)| (at.as_secs().to_bits(), ev)),
                        "seed {seed} step {step}"
                    );
                    if let Some((at, _)) = got {
                        now = at;
                        ties += usize::from(agenda.peek_time() == Some(at));
                    }
                } else {
                    let ev = random_event(&mut rng, step);
                    // The arrival and telemetry lanes hold one event.
                    match ev {
                        Ev::Arrival(_) if agenda.arrival.is_some() => continue,
                        Ev::Telemetry if agenda.telemetry.is_some() => continue,
                        _ => {}
                    }
                    let at = random_time(&mut rng, now);
                    let key = Key::from(time_bits(at)) << 64;
                    match ev {
                        Ev::ControlDelivery => {
                            early += usize::from(agenda.deliveries.back() > Some(&key));
                        }
                        Ev::Wake { server, .. } => {
                            shared +=
                                usize::from(agenda.wakes.iter().any(|w| w.0.server == server));
                        }
                        _ => {}
                    }
                    far += usize::from(at.as_secs() >= 1e300);
                    agenda.schedule(at, ev);
                    queue.schedule(at, ev);
                }
                assert_eq!(agenda.len(), queue.len(), "seed {seed} step {step}");
                assert_eq!(
                    agenda.peek_time().map(|at| at.as_secs().to_bits()),
                    queue.peek_time().map(|at| at.as_secs().to_bits()),
                    "seed {seed} step {step}"
                );
            }
            // Drain what is left, far-future events included.
            while !queue.is_empty() {
                let want = queue.pop().map(|(at, ev)| (at.as_secs().to_bits(), ev));
                let got = agenda.pop_through(t(f64::INFINITY));
                assert_eq!(got.map(|(at, ev)| (at.as_secs().to_bits(), ev)), want);
            }
            assert_eq!(agenda.pop_through(t(f64::INFINITY)), None);
            assert_eq!(queue_series(&rec_a), queue_series(&rec_q), "seed {seed}");
        }
        assert!(
            ties > 1_000 && early > 1_000 && shared > 1_000 && far > 1_000,
            "{ties} ties, {early} early deliveries, {shared} shared wakes, {far} far"
        );
    }
}
