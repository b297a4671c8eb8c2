//! Chrome trace-event JSON synthesis.
//!
//! Converts the structured event log into the trace-event format that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly. Layout:
//!
//! * one *process* (`pid 1`, named `polca-sim`),
//! * `tid 0` is the cluster/controller track (power counter, controller
//!   transitions, SLO violations, queue/reject instants),
//! * `tid N+1` is server `N`'s track, showing request execution spans
//!   and cap / brake spans,
//! * aggregate power becomes a counter (`"C"`) series, so the row power
//!   timeline renders as a graph above the server tracks.
//!
//! Timestamps are microseconds of simulation time. Spans still open at
//! the end of the log are closed at the last observed timestamp.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::Event;
use crate::json::{push_esc, push_num};

/// An extra "instant" marker merged into the trace on the cluster
/// track — how the watch plane overlays alert firings and incident
/// lifecycle transitions onto the Perfetto timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Simulation time in seconds.
    pub t: f64,
    /// Marker name (e.g. `alert:row-power-high`).
    pub name: String,
    /// Free-form detail shown in the args pane.
    pub detail: String,
}

/// Builds a complete Chrome trace JSON document from an event log.
pub fn trace_json(events: &[Event]) -> String {
    trace_json_annotated(events, &[])
}

/// Like [`trace_json`] but appends `annotations` as instant events on
/// the cluster track (tid 0). With an empty slice the output is
/// byte-identical to [`trace_json`].
pub fn trace_json_annotated(events: &[Event], annotations: &[Annotation]) -> String {
    let mut out = String::with_capacity(capacity(events.len()));
    write_trace(&mut out, events, annotations, |_| {});
    out
}

/// A generous estimate of a trace document's size: most events render
/// as one line of roughly a hundred bytes. Capacity that is never
/// written stays untouched virtual memory.
pub(crate) fn capacity(lines: usize) -> usize {
    128 * (lines + 16)
}

/// Appends the whole trace document for `events` to `out`: the
/// `polca-sim` process (pid 1), then `annotations` on the cluster
/// track, then whatever `lanes` appends before the document closes
/// (the polca-req and polca-energy processes). `lanes` starts each
/// event it appends with [`begin_event`].
pub(crate) fn write_trace(
    out: &mut String,
    events: &[Event],
    annotations: &[Annotation],
    lanes: impl FnOnce(&mut String),
) {
    let t_end = events.iter().map(Event::t).fold(0.0_f64, f64::max);

    // Metadata: process name plus one named thread per referenced server.
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"polca-sim\"}}",
    );
    begin_event(out);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"cluster\"}}",
    );
    let mut servers: Vec<usize> = events.iter().filter_map(Event::server).collect();
    servers.sort_unstable();
    servers.dedup();
    for s in servers {
        begin_event(out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"server-{s}\"}}}}",
            tid(s)
        );
    }

    // Open-span state, keyed for deterministic flush order at the end.
    let mut open_requests: BTreeMap<u64, (f64, usize, &'static str)> = BTreeMap::new();
    let mut open_caps: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut open_brakes: BTreeMap<usize, f64> = BTreeMap::new();

    for ev in events {
        match ev {
            Event::RequestDispatched {
                t,
                server,
                request,
                priority,
            } => {
                open_requests.insert(*request, (*t, *server, priority));
            }
            Event::RequestCompleted {
                t,
                server,
                request,
                priority,
                ..
            } => {
                let (t0, srv, pri) = open_requests
                    .remove(request)
                    .unwrap_or((*t, *server, priority));
                request_span(out, tid(srv), t0, *t, *request, pri);
            }
            Event::RequestQueued { t, request, .. } => {
                instant(out, "queued", 0, *t, |out| request_args(out, *request));
            }
            Event::RequestRejected { t, request, .. } => {
                instant(out, "rejected", 0, *t, |out| request_args(out, *request));
            }
            Event::CapApplied { t, server, mhz } => {
                open_caps.entry(*server).or_insert((*t, *mhz));
            }
            Event::Uncap { t, server } => {
                if let Some((t0, mhz)) = open_caps.remove(server) {
                    cap_span(out, *server, t0, *t, mhz);
                }
            }
            Event::BrakeEngaged { t, server, on } => {
                if *on {
                    open_brakes.entry(*server).or_insert(*t);
                } else if let Some(t0) = open_brakes.remove(server) {
                    brake_span(out, *server, t0, *t);
                }
            }
            Event::OobCommandSent {
                t, server, command, ..
            } => {
                instant(out, "oob_sent", tid(*server), *t, |out| {
                    command_args(out, *command)
                });
            }
            Event::OobCommandLost {
                t, server, command, ..
            } => {
                instant(out, "oob_lost", tid(*server), *t, |out| {
                    command_args(out, *command)
                });
            }
            Event::PowerSample { t, watts } => {
                begin_event(out);
                out.push_str("{\"ph\":\"C\",\"pid\":1,\"name\":\"row_power_w\",\"ts\":");
                push_us(out, *t);
                out.push_str(",\"args\":{\"watts\":");
                push_num(out, *watts);
                out.push_str("}}");
            }
            Event::ControllerTransition { t, from, to } => {
                instant(out, "controller", 0, *t, |out| {
                    out.push_str("{\"from\":\"");
                    push_esc(out, from);
                    out.push_str("\",\"to\":\"");
                    push_esc(out, to);
                    out.push_str("\"}");
                });
            }
            Event::SloViolation { t, detail } => {
                instant(out, "slo_violation", 0, *t, |out| detail_args(out, detail));
            }
            Event::FleetPowerSample { t, row, watts } => {
                begin_event(out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"pid\":1,\"name\":\"fleet_row{row}_power_w\",\"ts\":"
                );
                push_us(out, *t);
                out.push_str(",\"args\":{\"watts\":");
                push_num(out, *watts);
                out.push_str("}}");
            }
            Event::BudgetViolation {
                t,
                scope,
                unit,
                watts,
                budget_watts,
            } => {
                instant(out, "budget_violation", 0, *t, |out| {
                    out.push_str("{\"scope\":\"");
                    push_esc(out, scope);
                    let _ = write!(out, "\",\"unit\":{unit},\"watts\":");
                    push_num(out, *watts);
                    out.push_str(",\"budget_watts\":");
                    push_num(out, *budget_watts);
                    out.push('}');
                });
            }
        }
    }

    // Close anything still open at the final timestamp so the spans
    // render instead of vanishing.
    for (request, (t0, srv, pri)) in open_requests {
        request_span(out, tid(srv), t0, t_end, request, pri);
    }
    for (server, (t0, mhz)) in open_caps {
        cap_span(out, server, t0, t_end, mhz);
    }
    for (server, t0) in open_brakes {
        brake_span(out, server, t0, t_end);
    }

    for a in annotations {
        instant(out, &a.name, 0, a.t, |out| detail_args(out, &a.detail));
    }

    lanes(out);

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
}

/// Starts the next trace event of a document [`write_trace`] is
/// writing. Events are separated by `,\n`, and the document's first
/// event (the `polca-sim` process name) is always written before any
/// other, so every later one opens with the separator.
pub(crate) fn begin_event(out: &mut String) {
    out.push_str(",\n");
}

fn tid(server: usize) -> u32 {
    server as u32 + 1
}

/// Appends simulation seconds as trace microseconds.
pub(crate) fn push_us(out: &mut String, t: f64) {
    push_num(out, t * 1e6);
}

fn request_span(out: &mut String, tid: u32, t0: f64, t1: f64, request: u64, priority: &str) {
    complete_span(out, "req", "request", tid, t0, t1, |out| {
        let _ = write!(out, "{{\"request\":{request},\"priority\":\"");
        push_esc(out, priority);
        out.push_str("\"}");
    });
}

fn cap_span(out: &mut String, server: usize, t0: f64, t1: f64, mhz: f64) {
    complete_span(out, "cap", "power", tid(server), t0, t1, |out| {
        out.push_str("{\"mhz\":");
        push_num(out, mhz);
        out.push('}');
    });
}

fn brake_span(out: &mut String, server: usize, t0: f64, t1: f64) {
    complete_span(out, "brake", "power", tid(server), t0, t1, |out| {
        out.push_str("{}")
    });
}

fn request_args(out: &mut String, request: u64) {
    let _ = write!(out, "{{\"request\":{request}}}");
}

fn command_args(out: &mut String, command: u64) {
    let _ = write!(out, "{{\"command\":{command}}}");
}

fn detail_args(out: &mut String, detail: &str) {
    out.push_str("{\"detail\":\"");
    push_esc(out, detail);
    out.push_str("\"}");
}

/// Appends a complete (`"X"`) event on pid 1; `args` writes its args
/// object.
fn complete_span(
    out: &mut String,
    name: &str,
    cat: &str,
    tid: u32,
    t0: f64,
    t1: f64,
    args: impl FnOnce(&mut String),
) {
    begin_event(out);
    let _ = write!(out, "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"");
    push_esc(out, name);
    out.push_str("\",\"cat\":\"");
    push_esc(out, cat);
    out.push_str("\",\"ts\":");
    push_us(out, t0);
    out.push_str(",\"dur\":");
    push_us(out, (t1 - t0).max(0.0));
    out.push_str(",\"args\":");
    args(out);
    out.push('}');
}

/// Appends an instant (`"i"`) event on pid 1; `args` writes its args
/// object.
fn instant(out: &mut String, name: &str, tid: u32, t: f64, args: impl FnOnce(&mut String)) {
    begin_event(out);
    let _ = write!(out, "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"");
    push_esc(out, name);
    out.push_str("\",\"s\":\"t\",\"ts\":");
    push_us(out, t);
    out.push_str(",\"args\":");
    args(out);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_span_pairs_into_complete_event() {
        let events = vec![
            Event::CapApplied {
                t: 1.0,
                server: 2,
                mhz: 1110.0,
            },
            Event::Uncap { t: 3.0, server: 2 },
        ];
        let j = trace_json(&events);
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"name\":\"cap\""), "{j}");
        assert!(j.contains("\"ts\":1000000"), "{j}");
        assert!(j.contains("\"dur\":2000000"), "{j}");
        assert!(j.contains("\"name\":\"server-2\""), "{j}");
    }

    #[test]
    fn unclosed_spans_flush_at_end() {
        let events = vec![
            Event::BrakeEngaged {
                t: 1.0,
                server: 0,
                on: true,
            },
            Event::PowerSample {
                t: 5.0,
                watts: 100.0,
            },
        ];
        let j = trace_json(&events);
        assert!(j.contains("\"name\":\"brake\""), "{j}");
        assert!(j.contains("\"dur\":4000000"), "{j}");
    }

    #[test]
    fn power_samples_become_counters() {
        let events = vec![Event::PowerSample {
            t: 2.0,
            watts: 180.0,
        }];
        let j = trace_json(&events);
        assert!(j.contains("\"ph\":\"C\""), "{j}");
        assert!(j.contains("row_power_w"), "{j}");
    }

    #[test]
    fn annotations_merge_as_cluster_instants() {
        let events = vec![Event::PowerSample {
            t: 5.0,
            watts: 100.0,
        }];
        let notes = vec![Annotation {
            t: 3.0,
            name: "alert:row-power-high".to_string(),
            detail: "0.97 of provisioned".to_string(),
        }];
        let j = trace_json_annotated(&events, &notes);
        assert!(j.contains("\"name\":\"alert:row-power-high\""), "{j}");
        assert!(j.contains("\"detail\":\"0.97 of provisioned\""), "{j}");
        assert!(j.contains("\"ts\":3000000"), "{j}");
        // An empty annotation set reproduces the plain export exactly.
        assert_eq!(trace_json_annotated(&events, &[]), trace_json(&events));
    }

    #[test]
    fn output_is_deterministic() {
        let events = vec![
            Event::CapApplied {
                t: 0.5,
                server: 1,
                mhz: 900.0,
            },
            Event::OobCommandSent {
                t: 0.75,
                server: 1,
                command: 42,
                effective_at: 1.0,
            },
        ];
        assert_eq!(trace_json(&events), trace_json(&events));
    }
}
