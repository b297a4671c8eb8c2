//! polca-req: per-request lifecycle tracing.
//!
//! Aggregate metrics (fleet power, per-class SLO burn, a single
//! fleet-average energy-per-request estimate) cannot answer the
//! question the paper keeps asking: *what did that power action do to
//! the requests that were running?* This module gives every request a
//! span record covering its whole life — admit → queue → chunked
//! prefill → first token → decode → preemption/recompute episodes →
//! KV-shipping hops → completion — with the Splitwise-style phase
//! metrics (TTFT, mean/max time-between-tokens, queue time) and a
//! joules ledger that attributes each iteration's power draw across
//! the batch composition, so a power-capped, brake-slowed iteration
//! visibly taxes the requests inside it.
//!
//! Two types split the work:
//!
//! * [`ReqSpan`] — the engine-side accumulator threaded through a
//!   sequence's serving state. It is pure arithmetic: the engines add
//!   time, tokens, and joules to it but never read it back, so tracing
//!   cannot perturb scheduling decisions and the event log stays
//!   byte-identical with tracing on or off.
//! * [`ReqRecord`] — the finished, derived record
//!   ([`ReqSpan::finish`]) that lands in `requests.jsonl`, feeds the
//!   per-priority-class TTFT/TBT/energy histograms, streams to
//!   [`EventTap::on_request`](crate::EventTap::on_request), and renders
//!   as Chrome-trace request lanes.
//!
//! Determinism contract: records are appended in completion order and
//! [`Recorder::absorb`](crate::Recorder::absorb) concatenates them in
//! canonical cell order, so `requests.jsonl` is byte-identical at a
//! fixed seed regardless of `--jobs`.

use std::fmt::Write;

use crate::chrome::{begin_event, push_us};
use crate::json::{push_esc, push_num_field};

/// Request-tracing configuration carried by a
/// [`Recorder`](crate::Recorder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqTraceConfig {
    /// Keep one in `sample` completed records in `requests.jsonl`
    /// (by request id; 1 keeps everything). Histograms and streaming
    /// taps always see every record — sampling only bounds the stored
    /// log.
    pub sample: u64,
}

impl Default for ReqTraceConfig {
    fn default() -> Self {
        ReqTraceConfig { sample: 1 }
    }
}

/// The in-flight accumulator an engine threads through one request's
/// serving state.
///
/// All fields are plain sums the engine writes and never reads, which
/// is what makes req-tracing outcome-invariant by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReqSpan {
    /// When the first output token became available (absolute
    /// simulation seconds).
    pub first_token_s: Option<f64>,
    /// When the most recent output token was emitted.
    pub last_token_s: Option<f64>,
    /// Largest observed gap between consecutive output tokens.
    pub tbt_max_s: f64,
    /// Wall seconds spent in (first-admission) prefill iterations.
    pub prefill_s: f64,
    /// Wall seconds spent in decode iterations.
    pub decode_s: f64,
    /// Wall seconds spent re-prefilling after a preemption — the
    /// recompute penalty.
    pub recompute_s: f64,
    /// Prompt + generated tokens whose KV had to be recomputed.
    pub recompute_tokens: f64,
    /// KV-exhaustion preemption episodes this request suffered.
    pub preemptions: u32,
    /// KV-shipping hops across the prefill→decode interconnect.
    pub kv_hops: u32,
    /// Wall seconds the KV spent crossing the interconnect.
    pub kv_ship_s: f64,
    /// Energy attributed to this request: each iteration's
    /// `power × dt` shared across the batch in proportion to token
    /// progress. Idle (hot-idle floor) power is deliberately *not*
    /// attributed — see `CostModel::energy_per_request_wh` for the
    /// aggregate estimator that includes it.
    pub joules: f64,
}

impl ReqSpan {
    /// Closes the span into a derived [`ReqRecord`].
    ///
    /// The identity and boundary timestamps come from the caller (the
    /// cluster layer owns arrival/admission/completion times); the
    /// phase splits, token gaps, and the energy ledger come from the
    /// accumulated span. A request that never emitted a tracked first
    /// token (e.g. zero output tokens) falls back to its completion
    /// time.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        id: u64,
        priority: &'static str,
        server: usize,
        arrival_s: f64,
        started_s: f64,
        completed_s: f64,
        input_tokens: u32,
        output_tokens: u32,
    ) -> ReqRecord {
        let first_token_s = self.first_token_s.unwrap_or(completed_s);
        let gen_tokens = output_tokens.max(1) as f64;
        let tbt_mean_s = ((completed_s - first_token_s) / (gen_tokens - 1.0).max(1.0)).max(0.0);
        ReqRecord {
            id,
            priority,
            server,
            arrival_s,
            started_s,
            first_token_s,
            completed_s,
            input_tokens,
            output_tokens,
            queue_s: (started_s - arrival_s).max(0.0),
            ttft_s: (first_token_s - arrival_s).max(0.0),
            tbt_mean_s,
            tbt_max_s: self.tbt_max_s.max(tbt_mean_s),
            prefill_s: self.prefill_s,
            decode_s: self.decode_s,
            preemptions: self.preemptions,
            recompute_tokens: self.recompute_tokens,
            recompute_s: self.recompute_s,
            kv_hops: self.kv_hops,
            kv_ship_s: self.kv_ship_s,
            joules: self.joules,
            joules_per_token: self.joules / gen_tokens,
            co2e_g: 0.0,
            pue_applied: 1.0,
        }
    }
}

/// One completed request's derived lifecycle record — one line of
/// `requests.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReqRecord {
    /// Request id.
    pub id: u64,
    /// Priority-class tag (`"low"` / `"high"`).
    pub priority: &'static str,
    /// Server that generated the final token.
    pub server: usize,
    /// Arrival time (simulation seconds).
    pub arrival_s: f64,
    /// When service (first prefill) began.
    pub started_s: f64,
    /// When the first output token became available.
    pub first_token_s: f64,
    /// Completion time.
    pub completed_s: f64,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Generation length in tokens.
    pub output_tokens: u32,
    /// Seconds between arrival and first admission.
    pub queue_s: f64,
    /// Time to first token, measured from arrival.
    pub ttft_s: f64,
    /// Mean time between output tokens.
    pub tbt_mean_s: f64,
    /// Largest gap between consecutive output tokens (a preemption or
    /// a braked iteration shows up here).
    pub tbt_max_s: f64,
    /// Wall seconds in first-admission prefill.
    pub prefill_s: f64,
    /// Wall seconds in decode.
    pub decode_s: f64,
    /// KV-exhaustion preemption episodes.
    pub preemptions: u32,
    /// Tokens whose KV had to be recomputed after preemption.
    pub recompute_tokens: f64,
    /// Wall seconds of recompute prefill — the preemption penalty.
    pub recompute_s: f64,
    /// KV-shipping hops (split prefill/decode pools).
    pub kv_hops: u32,
    /// Wall seconds of KV interconnect transfer.
    pub kv_ship_s: f64,
    /// Busy-iteration energy attributed to this request, in joules.
    pub joules: f64,
    /// `joules / output_tokens` — the per-generated-token ledger.
    pub joules_per_token: f64,
    /// Facility-level emissions attributed to this request, in grams
    /// CO2e: `joules` converted to kWh, multiplied by the datacenter
    /// PUE and the grid carbon intensity at completion time. Zero when
    /// no energy ledger is attached.
    pub co2e_g: f64,
    /// The PUE multiplier used for `co2e_g` (1.0 when no energy ledger
    /// is attached).
    pub pue_applied: f64,
}

impl ReqRecord {
    /// Appends the record to `s` as a single JSON object (one
    /// `requests.jsonl` line, without the trailing newline).
    pub fn write_json(&self, s: &mut String) {
        let _ = write!(s, "{{\"id\":{},\"priority\":\"", self.id);
        push_esc(s, self.priority);
        let _ = write!(s, "\",\"server\":{}", self.server);
        push_num_field(s, "arrival_s", self.arrival_s);
        push_num_field(s, "started_s", self.started_s);
        push_num_field(s, "first_token_s", self.first_token_s);
        push_num_field(s, "completed_s", self.completed_s);
        let _ = write!(
            s,
            ",\"input_tokens\":{},\"output_tokens\":{}",
            self.input_tokens, self.output_tokens
        );
        push_num_field(s, "queue_s", self.queue_s);
        push_num_field(s, "ttft_s", self.ttft_s);
        push_num_field(s, "tbt_mean_s", self.tbt_mean_s);
        push_num_field(s, "tbt_max_s", self.tbt_max_s);
        push_num_field(s, "prefill_s", self.prefill_s);
        push_num_field(s, "decode_s", self.decode_s);
        let _ = write!(s, ",\"preemptions\":{}", self.preemptions);
        push_num_field(s, "recompute_tokens", self.recompute_tokens);
        push_num_field(s, "recompute_s", self.recompute_s);
        let _ = write!(s, ",\"kv_hops\":{}", self.kv_hops);
        push_num_field(s, "kv_ship_s", self.kv_ship_s);
        push_num_field(s, "joules", self.joules);
        push_num_field(s, "joules_per_token", self.joules_per_token);
        push_num_field(s, "co2e_g", self.co2e_g);
        push_num_field(s, "pue_applied", self.pue_applied);
        s.push('}');
    }
}

/// Renders records as JSON Lines (the `requests.jsonl` body).
pub fn requests_jsonl(records: &[ReqRecord]) -> String {
    let mut s = String::with_capacity(512 * records.len());
    for r in records {
        r.write_json(&mut s);
        s.push('\n');
    }
    s
}

/// Appends records as Chrome trace-event lines on a dedicated
/// `polca-req` process (pid 2): one lane per serving server, a
/// complete span per request from admission to completion, and an
/// instant marker at the first token. These are the lanes
/// [`RunArtifacts`](crate::RunArtifacts) adds to `trace.json` when
/// request tracing is on; no records append nothing.
pub(crate) fn write_chrome_request_lanes(records: &[ReqRecord], out: &mut String) {
    if records.is_empty() {
        return;
    }
    begin_event(out);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"polca-req\"}}",
    );
    let mut servers: Vec<usize> = records.iter().map(|r| r.server).collect();
    servers.sort_unstable();
    servers.dedup();
    for s in servers {
        begin_event(out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":2,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"req-server-{s}\"}}}}",
            s + 1
        );
    }
    for r in records {
        let tid = r.server + 1;
        begin_event(out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"name\":\"req-{}\",\"cat\":\"request\",\"ts\":",
            r.id
        );
        push_us(out, r.started_s);
        out.push_str(",\"dur\":");
        push_us(out, (r.completed_s - r.started_s).max(0.0));
        out.push_str(",\"args\":{\"priority\":\"");
        push_esc(out, r.priority);
        out.push('"');
        push_num_field(out, "ttft_s", r.ttft_s);
        push_num_field(out, "tbt_mean_s", r.tbt_mean_s);
        push_num_field(out, "tbt_max_s", r.tbt_max_s);
        let _ = write!(out, ",\"preemptions\":{}", r.preemptions);
        push_num_field(out, "joules", r.joules);
        push_num_field(out, "joules_per_token", r.joules_per_token);
        out.push_str("}}");
        begin_event(out);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":2,\"tid\":{tid},\"name\":\"first_token\",\"s\":\"t\",\"ts\":"
        );
        push_us(out, r.first_token_s);
        let _ = write!(out, ",\"args\":{{\"request\":{}}}}}", r.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> ReqSpan {
        ReqSpan {
            first_token_s: Some(12.0),
            last_token_s: Some(20.0),
            tbt_max_s: 0.5,
            prefill_s: 2.0,
            decode_s: 8.0,
            recompute_s: 0.0,
            recompute_tokens: 0.0,
            preemptions: 0,
            kv_hops: 0,
            kv_ship_s: 0.0,
            joules: 4000.0,
        }
    }

    #[test]
    fn finish_derives_phase_metrics() {
        let r = span().finish(7, "high", 3, 9.0, 10.0, 20.0, 1024, 81);
        assert_eq!(r.queue_s, 1.0);
        assert_eq!(r.ttft_s, 3.0);
        assert!((r.tbt_mean_s - 0.1).abs() < 1e-12, "{}", r.tbt_mean_s);
        assert_eq!(r.tbt_max_s, 0.5);
        assert_eq!(r.joules_per_token, 4000.0 / 81.0);
    }

    #[test]
    fn missing_first_token_falls_back_to_completion() {
        let mut sp = span();
        sp.first_token_s = None;
        let r = sp.finish(1, "low", 0, 0.0, 0.0, 5.0, 16, 1);
        assert_eq!(r.first_token_s, 5.0);
        assert_eq!(r.ttft_s, 5.0);
        assert_eq!(r.tbt_mean_s, 0.0);
    }

    #[test]
    fn tbt_max_never_undercuts_the_mean() {
        let mut sp = span();
        sp.tbt_max_s = 0.0;
        let r = sp.finish(1, "low", 0, 0.0, 0.0, 20.0, 16, 11);
        assert_eq!(r.tbt_max_s, r.tbt_mean_s);
    }

    #[test]
    fn json_has_the_schema_fields_in_order() {
        let r = span().finish(7, "high", 3, 9.0, 10.0, 20.0, 1024, 81);
        let mut j = String::new();
        r.write_json(&mut j);
        assert!(j.starts_with("{\"id\":7,\"priority\":\"high\",\"server\":3,"));
        for field in [
            "arrival_s",
            "ttft_s",
            "tbt_mean_s",
            "tbt_max_s",
            "queue_s",
            "preemptions",
            "recompute_tokens",
            "kv_hops",
            "joules_per_token",
            "co2e_g",
            "pue_applied",
        ] {
            assert!(j.contains(&format!("\"{field}\":")), "{field} in {j}");
        }
        // The carbon fields sit last, in stable order, with ledger-off
        // defaults.
        assert!(j.ends_with(",\"co2e_g\":0,\"pue_applied\":1}"), "{j}");
        assert_eq!(requests_jsonl(&[r]), j + "\n");
    }

    #[test]
    fn chrome_lanes_pair_span_and_first_token() {
        let r = span().finish(7, "high", 3, 9.0, 10.0, 20.0, 1024, 81);
        let mut out = String::new();
        write_chrome_request_lanes(&[r], &mut out);
        // Every lane event is appended after a `,\n` separator.
        let lanes: Vec<&str> = out.strip_prefix(",\n").unwrap().split(",\n").collect();
        assert_eq!(lanes.len(), 4, "{out}");
        assert!(lanes.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lanes[0].contains("\"name\":\"polca-req\""));
        assert!(lanes[1].contains("\"name\":\"req-server-3\""));
        assert!(lanes[2].contains("\"name\":\"req-7\""));
        assert!(lanes[3].contains("\"name\":\"first_token\""));
        let mut none = String::new();
        write_chrome_request_lanes(&[], &mut none);
        assert!(none.is_empty());
    }
}
