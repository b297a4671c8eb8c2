//! The structured event alphabet emitted by the simulation stack.
//!
//! Every event carries a simulation-time timestamp `t` in seconds.
//! Events are intentionally *sim-deterministic*: they never embed
//! wall-clock time, pointers, or any other run-to-run varying data, so
//! a fixed seed produces a byte-identical event log.

use std::fmt::Write;

use crate::json::{push_esc, push_num, push_num_field};

/// One structured trace event.
///
/// Variants are cheap to construct (the only allocating variant is
/// [`Event::SloViolation`], which is emitted at most a handful of times
/// per run, at evaluation time).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A request started executing on a server.
    RequestDispatched {
        /// Simulation time in seconds.
        t: f64,
        /// Destination server index.
        server: usize,
        /// Monotonic request id.
        request: u64,
        /// Priority class name (`"high"` / `"low"`).
        priority: &'static str,
    },
    /// A request could not start immediately and was queued.
    RequestQueued {
        /// Simulation time in seconds.
        t: f64,
        /// Monotonic request id.
        request: u64,
        /// Priority class name.
        priority: &'static str,
    },
    /// A request was rejected (admission control / capacity).
    RequestRejected {
        /// Simulation time in seconds.
        t: f64,
        /// Monotonic request id.
        request: u64,
        /// Priority class name.
        priority: &'static str,
    },
    /// A request finished all phases and left the system.
    RequestCompleted {
        /// Simulation time in seconds.
        t: f64,
        /// Server that executed the request.
        server: usize,
        /// Monotonic request id.
        request: u64,
        /// Priority class name.
        priority: &'static str,
        /// End-to-end latency in seconds.
        latency_s: f64,
    },
    /// A frequency cap (GPU clock lock) took effect on a server.
    CapApplied {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Locked clock in MHz.
        mhz: f64,
    },
    /// A frequency cap was lifted on a server.
    Uncap {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
    },
    /// The hardware power brake was asserted or released on a server.
    BrakeEngaged {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// `true` when the brake engages, `false` when it releases.
        on: bool,
    },
    /// An out-of-band control command was put on the wire.
    OobCommandSent {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Command id from the control plane.
        command: u64,
        /// Scheduled delivery time in seconds.
        effective_at: f64,
    },
    /// An out-of-band control command was silently dropped.
    OobCommandLost {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Command id from the control plane.
        command: u64,
    },
    /// A delayed telemetry power reading for the whole row/cluster.
    PowerSample {
        /// Simulation time in seconds.
        t: f64,
        /// Observed aggregate power in watts.
        watts: f64,
    },
    /// The policy controller changed mode (e.g. `Uncapped -> T1`).
    ControllerTransition {
        /// Simulation time in seconds.
        t: f64,
        /// Mode being left.
        from: &'static str,
        /// Mode being entered.
        to: &'static str,
    },
    /// An SLO check failed at evaluation time.
    SloViolation {
        /// Simulation time in seconds (end of run).
        t: f64,
        /// Human-readable violation, e.g. `"high-priority p50: 1.2 > 1.01"`.
        detail: String,
    },
    /// Ground-truth power of one fleet row, sampled by the fleet
    /// composition layer at its aggregation boundary.
    FleetPowerSample {
        /// Simulation time in seconds.
        t: f64,
        /// Fleet row index.
        row: usize,
        /// Instantaneous row power in watts.
        watts: f64,
    },
    /// Aggregate power exceeded a budget in the distribution hierarchy.
    BudgetViolation {
        /// Simulation time in seconds.
        t: f64,
        /// Hierarchy level (`"pdu"`, `"datacenter"`, or `"site"`).
        scope: &'static str,
        /// Index of the violated unit (PDU or datacenter index; 0 for
        /// the site).
        unit: usize,
        /// Aggregate power at the sample, in watts.
        watts: f64,
        /// The violated budget, in watts.
        budget_watts: f64,
    },
}

impl Event {
    /// The event's simulation timestamp in seconds.
    pub fn t(&self) -> f64 {
        match self {
            Event::RequestDispatched { t, .. }
            | Event::RequestQueued { t, .. }
            | Event::RequestRejected { t, .. }
            | Event::RequestCompleted { t, .. }
            | Event::CapApplied { t, .. }
            | Event::Uncap { t, .. }
            | Event::BrakeEngaged { t, .. }
            | Event::OobCommandSent { t, .. }
            | Event::OobCommandLost { t, .. }
            | Event::PowerSample { t, .. }
            | Event::ControllerTransition { t, .. }
            | Event::SloViolation { t, .. }
            | Event::FleetPowerSample { t, .. }
            | Event::BudgetViolation { t, .. } => *t,
        }
    }

    /// A stable machine-readable kind tag (the `"ev"` field in JSONL).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RequestDispatched { .. } => "request_dispatched",
            Event::RequestQueued { .. } => "request_queued",
            Event::RequestRejected { .. } => "request_rejected",
            Event::RequestCompleted { .. } => "request_completed",
            Event::CapApplied { .. } => "cap_applied",
            Event::Uncap { .. } => "uncap",
            Event::BrakeEngaged { .. } => "brake",
            Event::OobCommandSent { .. } => "oob_sent",
            Event::OobCommandLost { .. } => "oob_lost",
            Event::PowerSample { .. } => "power_sample",
            Event::ControllerTransition { .. } => "controller_transition",
            Event::SloViolation { .. } => "slo_violation",
            Event::FleetPowerSample { .. } => "fleet_power_sample",
            Event::BudgetViolation { .. } => "budget_violation",
        }
    }

    /// The server index the event targets, if any.
    pub fn server(&self) -> Option<usize> {
        match self {
            Event::RequestDispatched { server, .. }
            | Event::RequestCompleted { server, .. }
            | Event::CapApplied { server, .. }
            | Event::Uncap { server, .. }
            | Event::BrakeEngaged { server, .. }
            | Event::OobCommandSent { server, .. }
            | Event::OobCommandLost { server, .. } => Some(*server),
            _ => None,
        }
    }

    /// Appends the event to `s` as a single JSON object (one JSONL
    /// line, without the trailing newline).
    pub fn write_json(&self, s: &mut String) {
        s.push_str("{\"ev\":\"");
        s.push_str(self.kind());
        s.push_str("\",\"t\":");
        push_num(s, self.t());
        match self {
            Event::RequestDispatched {
                server,
                request,
                priority,
                ..
            } => {
                push_field_usize(s, "server", *server);
                push_field_u64(s, "request", *request);
                push_field_str(s, "priority", priority);
            }
            Event::RequestQueued {
                request, priority, ..
            }
            | Event::RequestRejected {
                request, priority, ..
            } => {
                push_field_u64(s, "request", *request);
                push_field_str(s, "priority", priority);
            }
            Event::RequestCompleted {
                server,
                request,
                priority,
                latency_s,
                ..
            } => {
                push_field_usize(s, "server", *server);
                push_field_u64(s, "request", *request);
                push_field_str(s, "priority", priority);
                push_num_field(s, "latency_s", *latency_s);
            }
            Event::CapApplied { server, mhz, .. } => {
                push_field_usize(s, "server", *server);
                push_num_field(s, "mhz", *mhz);
            }
            Event::Uncap { server, .. } => {
                push_field_usize(s, "server", *server);
            }
            Event::BrakeEngaged { server, on, .. } => {
                push_field_usize(s, "server", *server);
                s.push_str(",\"on\":");
                s.push_str(if *on { "true" } else { "false" });
            }
            Event::OobCommandSent {
                server,
                command,
                effective_at,
                ..
            } => {
                push_field_usize(s, "server", *server);
                push_field_u64(s, "command", *command);
                push_num_field(s, "effective_at", *effective_at);
            }
            Event::OobCommandLost {
                server, command, ..
            } => {
                push_field_usize(s, "server", *server);
                push_field_u64(s, "command", *command);
            }
            Event::PowerSample { watts, .. } => {
                push_num_field(s, "watts", *watts);
            }
            Event::ControllerTransition { from, to, .. } => {
                push_field_str(s, "from", from);
                push_field_str(s, "to", to);
            }
            Event::SloViolation { detail, .. } => {
                push_field_str(s, "detail", detail);
            }
            Event::FleetPowerSample { row, watts, .. } => {
                push_field_usize(s, "row", *row);
                push_num_field(s, "watts", *watts);
            }
            Event::BudgetViolation {
                scope,
                unit,
                watts,
                budget_watts,
                ..
            } => {
                push_field_str(s, "scope", scope);
                push_field_usize(s, "unit", *unit);
                push_num_field(s, "watts", *watts);
                push_num_field(s, "budget_watts", *budget_watts);
            }
        }
        s.push('}');
    }
}

fn push_field_str(s: &mut String, key: &str, value: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    push_esc(s, value);
    s.push('"');
}

fn push_field_u64(s: &mut String, key: &str, value: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    let _ = write!(s, "{value}");
}

fn push_field_usize(s: &mut String, key: &str, value: usize) {
    push_field_u64(s, key, value as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(e: &Event) -> String {
        let mut s = String::new();
        e.write_json(&mut s);
        s
    }

    #[test]
    fn timestamps_round_trip() {
        let e = Event::CapApplied {
            t: 12.5,
            server: 3,
            mhz: 1110.0,
        };
        assert_eq!(e.t(), 12.5);
        assert_eq!(e.kind(), "cap_applied");
        assert_eq!(e.server(), Some(3));
    }

    #[test]
    fn fleet_event_json_is_stable() {
        let e = Event::FleetPowerSample {
            t: 4.0,
            row: 2,
            watts: 190250.5,
        };
        assert_eq!(
            json(&e),
            r#"{"ev":"fleet_power_sample","t":4,"row":2,"watts":190250.5}"#
        );
        assert_eq!(e.server(), None);

        let e = Event::BudgetViolation {
            t: 6.0,
            scope: "pdu",
            unit: 1,
            watts: 250000.0,
            budget_watts: 240000.0,
        };
        assert_eq!(
            json(&e),
            r#"{"ev":"budget_violation","t":6,"scope":"pdu","unit":1,"watts":250000,"budget_watts":240000}"#
        );
        assert_eq!(e.t(), 6.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let e = Event::PowerSample {
            t: 2.0,
            watts: 180000.0,
        };
        assert_eq!(json(&e), r#"{"ev":"power_sample","t":2,"watts":180000}"#);

        let e = Event::BrakeEngaged {
            t: 0.25,
            server: 7,
            on: true,
        };
        assert_eq!(json(&e), r#"{"ev":"brake","t":0.25,"server":7,"on":true}"#);
    }

    #[test]
    fn slo_detail_is_escaped() {
        let e = Event::SloViolation {
            t: 1.0,
            detail: "p50 \"bad\"\n".to_string(),
        };
        assert_eq!(
            json(&e),
            r#"{"ev":"slo_violation","t":1,"detail":"p50 \"bad\"\n"}"#
        );
    }

    #[test]
    fn global_events_have_no_server() {
        let e = Event::PowerSample { t: 0.0, watts: 1.0 };
        assert_eq!(e.server(), None);
    }
}
