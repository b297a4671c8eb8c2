//! The benchmark's own tracing: coarse spans around its calls into the
//! simulator, per-call timing histograms, and a controller wrapper that
//! times every policy decision. Nothing here reaches inside the
//! simulator; every number is taken at a public-API boundary.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use polca_cluster::{
    ControlRequest, PowerController, RequestSource, RowContext, RowSim, SimConfig,
};
use polca_sim::SimTime;

use crate::json::{esc, num};
use crate::stats::LogHist;

/// Span category for set-up work (outside the timed run).
pub const SETUP: &str = "setup";
/// Span categories for the timed run; together they tile the run
/// interval. `EXPORT` covers closing the watch plane and rendering
/// artifacts, `RUN` the rest.
pub const RUN: &str = "run";
pub const EXPORT: &str = "export";

/// Coarse run spans per row run: the window loop is cut into this many
/// slices so the Chrome trace stays small on a six-week horizon.
const STEP_SLICES: usize = 64;

/// One finished span, in microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub cat: &'static str,
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Spans, per-window timings and per-window samples of one traced run.
/// A tracer that is off records nothing and costs nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    /// Every row window's `step_until` time.
    pub window_ns: LogHist,
    /// Batched-engine state after each window, by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::default()
    }

    pub fn on() -> Self {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Runs `f`, recording it as a span when the tracer is on.
    pub fn span<T>(&mut self, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(cat, name, start, Instant::now());
        out
    }

    fn record(&mut self, cat: &'static str, name: &str, start: Instant, end: Instant) {
        let Some(epoch) = self.epoch else {
            return;
        };
        self.spans.push(Span {
            cat,
            name: name.to_string(),
            start_us: start.duration_since(epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        });
    }

    /// Summed duration of the spans in `cat`, in seconds.
    pub fn total_s(&self, cat: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// The spans as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`), one track per category.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match s.cat {
                SETUP => 1,
                RUN | EXPORT => 2,
                _ => 3,
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}{}",
                esc(&s.name),
                s.cat,
                num(s.start_us),
                num(s.dur_us),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{}\"}}}}",
            esc(workload)
        );
        out
    }
}

/// Steps `row` to `horizon` one telemetry window at a time — the same
/// boundaries a site steps its rows on — timing every `step_until`
/// call into `window_ns` and sampling the batched engine (when there
/// is one) after each window.
pub fn step_windows<P: PowerController, S: RequestSource>(
    tracer: &mut Tracer,
    row: &mut RowSim<P, S>,
    horizon: SimTime,
) {
    let window = SimConfig::default().telemetry_interval_s;
    let n = (horizon.as_secs() / window).ceil().max(1.0) as usize;
    let mut k = 0;
    for slice in 0..STEP_SLICES {
        let end = n * (slice + 1) / STEP_SLICES;
        if end == k {
            continue;
        }
        let slice_start = Instant::now();
        while k < end {
            k += 1;
            let target = SimTime::from_secs((k as f64 * window).min(horizon.as_secs()));
            let t = Instant::now();
            row.step_until(target);
            let ns = t.elapsed().as_nanos() as u64;
            tracer.window_ns.record(ns);
            if let Some(engine) = row.batched_row() {
                let (batch, kv, waiting) = (
                    engine.mean_batch(),
                    engine.kv_occupancy(),
                    engine.waiting_depth() as f64,
                );
                tracer
                    .samples
                    .entry("serve.mean_batch")
                    .or_default()
                    .push(batch);
                tracer
                    .samples
                    .entry("serve.kv_occupancy")
                    .or_default()
                    .push(kv);
                tracer
                    .samples
                    .entry("serve.waiting_depth")
                    .or_default()
                    .push(waiting);
            }
        }
        tracer.record(RUN, "cluster.step_until", slice_start, Instant::now());
    }
}

/// Per-call timings of one controller, shared with the benchmark so
/// they survive the simulator consuming the controller.
pub type CallStats = Arc<Mutex<LogHist>>;

/// Wraps a controller and times every `on_telemetry` call.
pub struct Timed<P> {
    inner: P,
    stats: CallStats,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> (Self, CallStats) {
        let stats = CallStats::default();
        (
            Timed {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl<P: PowerController> PowerController for Timed<P> {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        let t = Instant::now();
        let out = self.inner.on_telemetry(now, observed_row_watts, ctx);
        let ns = t.elapsed().as_nanos() as u64;
        self.stats
            .lock()
            .expect("controller stats lock poisoned by a panicking row")
            .record(ns);
        out
    }
}
