//! The out-of-band control plane.
//!
//! In a virtualized cloud, the provider can only reach GPUs through OOB
//! interfaces like SMBPBI (§3.3). Those interfaces are *slow* — frequency
//! and power capping "can take as long as 40 s to take effect" — and
//! *unreliable* — they "may sometimes fail without signaling completion
//! or errors". Only the power brake is fast (≤ 5 s), at the cost of
//! bringing GPUs "down to almost a halt".
//!
//! [`OobControlPlane`] models command dispatch with per-action latency
//! ranges and silent-failure injection. The POLCA power manager issues
//! commands here; the cluster simulator applies the ones that survive.

use std::collections::VecDeque;

use polca_obs::{Event, Label, ProfCounter, Recorder};
use polca_sim::{SimRng, SimTime};

/// A power-management action targeting one server's GPUs: the three
/// things a power policy may ask of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Lock all GPUs' SM clocks to the given frequency.
    LockClock {
        /// Target SM clock in MHz.
        mhz: f64,
    },
    /// Remove the frequency lock.
    UnlockClock,
    /// Engage or release the power brake.
    PowerBrake {
        /// `true` to engage.
        on: bool,
    },
}

impl ControlAction {
    /// Whether this action travels the fast power-brake path rather than
    /// the slow SMBPBI capping path.
    pub fn is_brake(&self) -> bool {
        matches!(self, ControlAction::PowerBrake { .. })
    }
}

/// A command in flight (or delivered) on the OOB plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlCommand {
    /// Monotonic command id.
    pub id: u64,
    /// Target server index within the row.
    pub server: usize,
    /// The requested action.
    pub action: ControlAction,
    /// When the command was issued.
    pub issued_at: SimTime,
    /// When the command takes effect at the device (if it survives).
    pub effective_at: SimTime,
}

/// Capping-path latency range `[min, max)` in seconds (Table 2: up to
/// 40 s).
const CAP_LATENCY_S: (f64, f64) = (20.0, 40.0);

/// Brake-path latency range `[min, max)` in seconds (Table 2: ≤ 5 s).
const BRAKE_LATENCY_S: (f64, f64) = (2.0, 5.0);

/// The OOB command dispatcher.
///
/// # Examples
///
/// ```
/// use polca_sim::SimTime;
/// use polca_telemetry::{ControlAction, OobControlPlane};
///
/// let mut plane = OobControlPlane::new(42);
/// plane.issue(SimTime::ZERO, 3, ControlAction::LockClock { mhz: 1275.0 });
/// // Nothing lands before the OOB latency window opens.
/// assert!(plane.deliver_due(SimTime::from_secs(10.0)).is_empty());
/// // By 40 s the command (if it didn't silently fail) has landed.
/// let delivered = plane.deliver_due(SimTime::from_secs(40.0));
/// assert!(delivered.len() <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct OobControlPlane {
    /// Probability a capping command silently fails.
    failure_rate: f64,
    rng: SimRng,
    in_flight: VecDeque<ControlCommand>,
    next_id: u64,
    issued: u64,
    silently_failed: u64,
    recorder: Recorder,
}

impl OobControlPlane {
    /// Creates a control plane with the paper's latency envelope:
    /// capping 20–40 s, brake 2–5 s, no failure injection.
    pub fn new(seed: u64) -> Self {
        OobControlPlane {
            failure_rate: 0.0,
            rng: SimRng::from_seed_stream(seed, 0x0C01_1701),
            in_flight: VecDeque::new(),
            next_id: 0,
            issued: 0,
            silently_failed: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: issued and silently lost
    /// commands are traced as `oob_sent` / `oob_lost` events and
    /// counted per command path.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Injects silent command failures with probability `rate` (clamped
    /// to `[0, 1]`). Failed commands consume latency and then simply
    /// never arrive — exactly the failure mode §3.3 describes.
    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        self.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Issues `action` against `server` at time `now`, returning the
    /// command id.
    pub fn issue(&mut self, now: SimTime, server: usize, action: ControlAction) -> u64 {
        let (lo, hi) = if action.is_brake() {
            BRAKE_LATENCY_S
        } else {
            CAP_LATENCY_S
        };
        let latency = self.rng.uniform(lo, hi);
        let id = self.next_id;
        self.next_id += 1;
        self.issued += 1;
        let path = if action.is_brake() { "brake" } else { "cap" };
        self.recorder
            .prof()
            .count(ProfCounter::OobCommandsIssued, 1);
        self.recorder
            .add("oob.commands_issued", Label::Tag(path), 1);
        if self.rng.chance(self.failure_rate) && !action.is_brake() {
            // Silent failure: the command vanishes without an error.
            self.silently_failed += 1;
            self.recorder.add("oob.commands_lost", Label::Tag(path), 1);
            self.recorder.record(Event::OobCommandLost {
                t: now.as_secs(),
                server,
                command: id,
            });
            return id;
        }
        let cmd = ControlCommand {
            id,
            server,
            action,
            issued_at: now,
            effective_at: now + SimTime::from_secs(latency),
        };
        self.recorder
            .observe("oob.latency_s", Label::Tag(path), latency);
        self.recorder.record(Event::OobCommandSent {
            t: now.as_secs(),
            server,
            command: id,
            effective_at: cmd.effective_at.as_secs(),
        });
        // Keep in_flight sorted by effective time (insertion point from
        // the back; queues are short).
        let pos = self
            .in_flight
            .iter()
            .position(|c| c.effective_at > cmd.effective_at)
            .unwrap_or(self.in_flight.len());
        self.in_flight.insert(pos, cmd);
        id
    }

    /// Pops and returns every command whose actuation time has arrived.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<ControlCommand> {
        let mut due = Vec::new();
        while let Some(front) = self.in_flight.front() {
            if front.effective_at <= now {
                due.push(self.in_flight.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        if !due.is_empty() {
            self.recorder
                .prof()
                .count(ProfCounter::OobCommandsDelivered, due.len() as u64);
        }
        due
    }

    /// The actuation time of the next pending command, if any.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.in_flight.front().map(|c| c.effective_at)
    }

    /// Commands currently in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Total commands issued.
    pub fn issued_count(&self) -> u64 {
        self.issued
    }

    /// Commands that silently failed (observable to tests and audits,
    /// not to the manager).
    pub fn silently_failed_count(&self) -> u64 {
        self.silently_failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn capping_commands_take_tens_of_seconds() {
        let mut plane = OobControlPlane::new(1);
        plane.issue(SimTime::ZERO, 0, ControlAction::LockClock { mhz: 1275.0 });
        assert!(plane.deliver_due(t(19.9)).is_empty());
        let delivered = plane.deliver_due(t(40.0));
        assert_eq!(delivered.len(), 1);
        let latency = delivered[0].effective_at - delivered[0].issued_at;
        assert!((20.0..40.0).contains(&latency.as_secs()));
    }

    #[test]
    fn brake_commands_are_fast() {
        let mut plane = OobControlPlane::new(2);
        plane.issue(SimTime::ZERO, 0, ControlAction::PowerBrake { on: true });
        let delivered = plane.deliver_due(t(5.0));
        assert_eq!(delivered.len(), 1);
        assert!(delivered[0].effective_at.as_secs() <= 5.0);
    }

    #[test]
    fn delivery_order_is_by_effective_time() {
        let mut plane = OobControlPlane::new(3);
        for server in 0..20 {
            plane.issue(SimTime::ZERO, server, ControlAction::UnlockClock);
        }
        let delivered = plane.deliver_due(t(100.0));
        assert_eq!(delivered.len(), 20);
        for w in delivered.windows(2) {
            assert!(w[0].effective_at <= w[1].effective_at);
        }
    }

    #[test]
    fn silent_failures_never_deliver() {
        let mut plane = OobControlPlane::new(4).with_failure_rate(1.0);
        for _ in 0..10 {
            plane.issue(SimTime::ZERO, 0, ControlAction::LockClock { mhz: 1110.0 });
        }
        assert!(plane.deliver_due(t(1000.0)).is_empty());
        assert_eq!(plane.silently_failed_count(), 10);
        assert_eq!(plane.issued_count(), 10);
    }

    #[test]
    fn brakes_are_exempt_from_failure_injection() {
        // The brake is the safety net; the paper treats it as reliable.
        let mut plane = OobControlPlane::new(5).with_failure_rate(1.0);
        plane.issue(SimTime::ZERO, 0, ControlAction::PowerBrake { on: true });
        assert_eq!(plane.deliver_due(t(10.0)).len(), 1);
    }

    #[test]
    fn command_ids_are_unique_and_monotonic() {
        let mut plane = OobControlPlane::new(6);
        let a = plane.issue(SimTime::ZERO, 0, ControlAction::UnlockClock);
        let b = plane.issue(SimTime::ZERO, 1, ControlAction::UnlockClock);
        assert!(b > a);
    }

    #[test]
    fn next_delivery_tracks_front() {
        let mut plane = OobControlPlane::new(7);
        assert_eq!(plane.next_delivery(), None);
        plane.issue(SimTime::ZERO, 0, ControlAction::PowerBrake { on: true });
        let next = plane.next_delivery().unwrap();
        assert!(next.as_secs() <= 5.0);
        assert_eq!(plane.in_flight_len(), 1);
    }
}
