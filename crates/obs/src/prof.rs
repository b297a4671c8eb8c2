//! polca-prof: lock-free self-profiling of the simulator's own work.
//!
//! This is the simulator's one in-process profiler. A fixed alphabet of
//! [`Phase`]s (event-queue push/pop, request dispatch, telemetry ticks,
//! controller evaluation, power aggregation, trace synthesis, threshold
//! training, CSV ingestion, recorder I/O, …) accumulates into plain
//! atomics, so an enabled profiler costs two `Instant::now()` calls and
//! a handful of relaxed atomic adds per phase entry, and a disabled one
//! costs a single branch. Coarse one-off phases (synthesis, training,
//! ingestion) and per-event ones share the same accumulators.
//!
//! Accounting is *self-time* based: a thread-local stack of guard
//! frames subtracts time spent in nested phases from the enclosing
//! phase, so the attribution table sums to (at most) wall time instead
//! of double-counting queue operations inside event handlers.
//!
//! Next to the phase timers sit a few derived internal counters
//! ([`ProfCounter`]): events scheduled/popped, peak event-queue depth,
//! event-log allocations, and fleet window occupancy.
//!
//! Exports ([`ProfSnapshot`]):
//!
//! * `prof.json` — machine-readable per-phase totals and counters,
//! * a per-component attribution table for the terminal
//!   ([`ProfSnapshot::attribution_table`]),
//! * collapsed/folded stacks ([`ProfSnapshot::folded`]) loadable in
//!   speedscope (<https://speedscope.app>) or `flamegraph.pl`,
//! * a Chrome trace-event document ([`ProfSnapshot::chrome_trace_json`])
//!   that opens in Perfetto alongside the simulation trace,
//! * deterministic counter series appended to `metrics.prom`
//!   ([`ProfSnapshot::to_prometheus`]).
//!
//! Wall-clock phase data is non-deterministic and lives strictly
//! outside the event log; the Prometheus export only
//! includes call/occupancy counters, which are a pure function of the
//! seed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::json::esc;

/// The fixed alphabet of profiled hot-path phases.
///
/// Each variant names one self-contained slice of simulator work; the
/// enum discriminant indexes a fixed accumulator array, so entering a
/// phase never allocates or hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Phase {
    /// One `RowSim::step_until` slice: the event loop itself (peek,
    /// match dispatch, bookkeeping), net of the per-event phases below.
    RowStep,
    /// `EventQueue::schedule` — heap push plus probe bookkeeping.
    QueuePush,
    /// `EventQueue::pop` — heap pop plus probe bookkeeping.
    QueuePop,
    /// Arrival handling: server selection, dispatch or queue/reject.
    Dispatch,
    /// Request phase completion: latency accounting, next-phase issue.
    PhaseEnd,
    /// Telemetry tick: power accumulation, signal windows, OOB publish.
    TelemetryTick,
    /// Policy controller evaluation (nested inside a telemetry tick).
    ControllerEval,
    /// Delivery of delayed OOB control commands to servers.
    ControlDelivery,
    /// Fleet window boundary: hierarchy power aggregation and budgets.
    PowerAggregation,
    /// Synthetic arrival-trace generation (once per cache miss).
    TraceSynthesis,
    /// Recorder artifact rendering and file I/O (`write_dir`).
    RecorderIo,
    /// One batched-engine iteration epoch: fluid progress, boundary
    /// transitions, and wake rescheduling (polca-serve).
    ServeIteration,
    /// Paged KV-cache block accounting: allocation, growth, frees, and
    /// preemption on exhaustion (polca-serve).
    ServeKvAlloc,
    /// Continuous-batching admission: chunked-prefill selection and
    /// waiting-queue scheduling (polca-serve).
    ServeSchedule,
    /// Site window boundary: canonical-order merge of per-row state
    /// (next event times, instantaneous powers) after the parallel
    /// step, before budgets are evaluated.
    FleetMerge,
    /// Site-level aggregation: datacenter/site power roll-up and
    /// budget checks above the single-datacenter fleet path.
    SiteAggregation,
    /// Threshold training: the 2 s-resolution training trace and the
    /// T1/T2 fit over it (once per `trained_thresholds` call).
    ThresholdTraining,
    /// Reading and parsing a request-log CSV (once per ingested file).
    IngestRead,
}

/// Number of [`Phase`] variants (the accumulator array length).
pub const PHASE_COUNT: usize = 18;

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::RowStep,
        Phase::QueuePush,
        Phase::QueuePop,
        Phase::Dispatch,
        Phase::PhaseEnd,
        Phase::TelemetryTick,
        Phase::ControllerEval,
        Phase::ControlDelivery,
        Phase::PowerAggregation,
        Phase::TraceSynthesis,
        Phase::RecorderIo,
        Phase::ServeIteration,
        Phase::ServeKvAlloc,
        Phase::ServeSchedule,
        Phase::FleetMerge,
        Phase::SiteAggregation,
        Phase::ThresholdTraining,
        Phase::IngestRead,
    ];

    /// Short dotted name used in tables, JSON, and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::RowStep => "row.step",
            Phase::QueuePush => "queue.push",
            Phase::QueuePop => "queue.pop",
            Phase::Dispatch => "row.dispatch",
            Phase::PhaseEnd => "row.phase_end",
            Phase::TelemetryTick => "row.telemetry",
            Phase::ControllerEval => "row.controller_eval",
            Phase::ControlDelivery => "row.control_delivery",
            Phase::PowerAggregation => "fleet.power_aggregation",
            Phase::TraceSynthesis => "study.trace_synthesis",
            Phase::RecorderIo => "obs.recorder_io",
            Phase::ServeIteration => "serve.iteration",
            Phase::ServeKvAlloc => "serve.kv_alloc",
            Phase::ServeSchedule => "serve.schedule",
            Phase::FleetMerge => "fleet.merge",
            Phase::SiteAggregation => "site.aggregate",
            Phase::ThresholdTraining => "study.threshold_training",
            Phase::IngestRead => "ingest.read",
        }
    }

    /// Canonical semicolon-separated stack for the folded export.
    ///
    /// Folded stacks are keyed by a static call path; phases that can
    /// run under several parents (the queue operations) are attributed
    /// to their dominant caller, the event loop.
    pub fn stack(self) -> &'static str {
        match self {
            Phase::RowStep => "row.step",
            Phase::QueuePush => "row.step;queue.push",
            Phase::QueuePop => "row.step;queue.pop",
            Phase::Dispatch => "row.step;dispatch",
            Phase::PhaseEnd => "row.step;phase_end",
            Phase::TelemetryTick => "row.step;telemetry",
            Phase::ControllerEval => "row.step;telemetry;controller_eval",
            Phase::ControlDelivery => "row.step;control_delivery",
            Phase::PowerAggregation => "fleet.window;power_aggregation",
            Phase::TraceSynthesis => "study;trace_synthesis",
            Phase::RecorderIo => "obs;recorder_io",
            Phase::ServeIteration => "row.step;serve.iteration",
            Phase::ServeKvAlloc => "row.step;serve.iteration;kv_alloc",
            Phase::ServeSchedule => "row.step;serve.iteration;schedule",
            Phase::FleetMerge => "fleet.window;merge",
            Phase::SiteAggregation => "fleet.window;site_aggregate",
            Phase::ThresholdTraining => "study;threshold_training",
            Phase::IngestRead => "ingest;read",
        }
    }
}

/// Derived internal counters kept beside the phase timers.
///
/// All of these are a pure function of the simulation seed (never of
/// wall-clock), so unlike phase times they may appear in deterministic
/// artifacts such as `metrics.prom`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum ProfCounter {
    /// Events pushed onto the discrete-event queue.
    EventsScheduled,
    /// Events popped off the discrete-event queue.
    EventsPopped,
    /// High-water mark of the event-queue depth (merged by max).
    PeakQueueDepth,
    /// Structured events appended to the recorder log (one allocation
    /// each — the event log is the dominant arena).
    EventsRecorded,
    /// Fleet telemetry-window boundaries observed.
    FleetWindows,
    /// Row-windows actually *stepped* (rows with a due event) across
    /// all boundaries; divided by [`FleetWindows`](Self::FleetWindows)
    /// this is the batched-tick occupancy (rows advanced per lockstep
    /// window).
    FleetRowWindows,
    /// Arrival-trace cache misses (full synthesis runs).
    TraceCacheMisses,
    /// Arrival-trace cache hits (reused synthesis output).
    TraceCacheHits,
    /// Commands issued on the OOB control plane.
    OobCommandsIssued,
    /// Commands actually delivered by the OOB control plane (issued
    /// minus silent failures and still-in-flight).
    OobCommandsDelivered,
    /// High-water mark of KV-cache blocks in use on any one server of
    /// the batched engine (merged by max).
    ServeKvPeakBlocks,
    /// Sequences preempted by the batched engine on KV-cache
    /// exhaustion (each restarts with a recompute prefill).
    ServePreemptions,
    /// High-water mark of running sequences (prefilling + decoding) on
    /// any one server of the batched engine (merged by max).
    ServePeakBatch,
    /// Row-windows *skipped* by the site stepper: rows whose next
    /// queued event lies beyond the window boundary pay nothing instead
    /// of a no-op scan.
    FleetRowsSkipped,
}

/// Number of [`ProfCounter`] variants.
pub const COUNTER_COUNT: usize = 14;

impl ProfCounter {
    /// Every counter, in discriminant order.
    pub const ALL: [ProfCounter; COUNTER_COUNT] = [
        ProfCounter::EventsScheduled,
        ProfCounter::EventsPopped,
        ProfCounter::PeakQueueDepth,
        ProfCounter::EventsRecorded,
        ProfCounter::FleetWindows,
        ProfCounter::FleetRowWindows,
        ProfCounter::TraceCacheMisses,
        ProfCounter::TraceCacheHits,
        ProfCounter::OobCommandsIssued,
        ProfCounter::OobCommandsDelivered,
        ProfCounter::ServeKvPeakBlocks,
        ProfCounter::ServePreemptions,
        ProfCounter::ServePeakBatch,
        ProfCounter::FleetRowsSkipped,
    ];

    /// Snake-case name used in JSON and Prometheus output.
    pub fn name(self) -> &'static str {
        match self {
            ProfCounter::EventsScheduled => "events_scheduled",
            ProfCounter::EventsPopped => "events_popped",
            ProfCounter::PeakQueueDepth => "peak_queue_depth",
            ProfCounter::EventsRecorded => "events_recorded",
            ProfCounter::FleetWindows => "fleet_windows",
            ProfCounter::FleetRowWindows => "fleet_row_windows",
            ProfCounter::TraceCacheMisses => "trace_cache_misses",
            ProfCounter::TraceCacheHits => "trace_cache_hits",
            ProfCounter::OobCommandsIssued => "oob_commands_issued",
            ProfCounter::OobCommandsDelivered => "oob_commands_delivered",
            ProfCounter::ServeKvPeakBlocks => "serve_kv_peak_blocks",
            ProfCounter::ServePreemptions => "serve_preemptions",
            ProfCounter::ServePeakBatch => "serve_peak_batch",
            ProfCounter::FleetRowsSkipped => "fleet_rows_skipped",
        }
    }

    /// Whether merging two profiles takes the max (high-water marks)
    /// instead of the sum.
    pub fn merges_by_max(self) -> bool {
        matches!(
            self,
            ProfCounter::PeakQueueDepth
                | ProfCounter::ServeKvPeakBlocks
                | ProfCounter::ServePeakBatch
        )
    }
}

/// One phase's accumulators. Relaxed ordering everywhere: the counters
/// are statistics, not synchronization, and are only read after the
/// threads that wrote them have been joined.
#[derive(Debug, Default)]
struct PhaseCell {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Shared accumulator storage behind an enabled [`Profiler`].
#[derive(Debug)]
pub(crate) struct ProfCore {
    phases: [PhaseCell; PHASE_COUNT],
    counters: [AtomicU64; COUNTER_COUNT],
}

impl ProfCore {
    fn new() -> Self {
        ProfCore {
            phases: std::array::from_fn(|_| PhaseCell::default()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

thread_local! {
    /// Per-thread stack of child-time accumulators: one frame per live
    /// [`ProfGuard`], holding the nanoseconds its nested phases spent.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, cloneable handle to the lock-free phase accumulators.
///
/// Disabled profilers (the default) carry no storage: every call is a
/// single branch. Clones share one accumulator core, mirroring
/// [`Recorder`](crate::Recorder) semantics.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    core: Option<Arc<ProfCore>>,
}

impl Profiler {
    /// An enabled profiler with fresh accumulators when `enabled`,
    /// otherwise the zero-cost disabled handle.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            core: enabled.then(|| Arc::new(ProfCore::new())),
        }
    }

    /// A profiler that records nothing (one branch per call).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// Whether this handle accumulates anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Starts timing `phase`; the returned guard records on drop.
    /// Returns `None` when disabled, so the idiom is
    /// `let _p = prof.time(Phase::Dispatch);`.
    #[inline]
    pub fn time(&self, phase: Phase) -> Option<ProfGuard> {
        let core = self.core.as_ref()?;
        CHILD_NS.with(|s| s.borrow_mut().push(0));
        Some(ProfGuard {
            core: Arc::clone(core),
            phase,
            start: Instant::now(),
        })
    }

    /// Adds `by` to a derived counter (no-op when disabled).
    #[inline]
    pub fn count(&self, counter: ProfCounter, by: u64) {
        if let Some(core) = &self.core {
            core.counters[counter as usize].fetch_add(by, Relaxed);
        }
    }

    /// Raises a high-water-mark counter to at least `value`.
    #[inline]
    pub fn record_max(&self, counter: ProfCounter, value: u64) {
        if let Some(core) = &self.core {
            core.counters[counter as usize].fetch_max(value, Relaxed);
        }
    }

    /// Folds `other`'s accumulated totals into this profiler: calls and
    /// times add, maxima take the larger, counters add (or max, per
    /// [`ProfCounter::merges_by_max`]). Merging a profiler into itself
    /// (same shared core) or across a disabled side is a no-op.
    pub fn merge_from(&self, other: &Profiler) {
        let (Some(own), Some(theirs)) = (self.core.as_ref(), other.core.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(own, theirs) {
            return;
        }
        for i in 0..PHASE_COUNT {
            let (dst, src) = (&own.phases[i], &theirs.phases[i]);
            dst.calls.fetch_add(src.calls.load(Relaxed), Relaxed);
            dst.total_ns.fetch_add(src.total_ns.load(Relaxed), Relaxed);
            dst.self_ns.fetch_add(src.self_ns.load(Relaxed), Relaxed);
            dst.max_ns.fetch_max(src.max_ns.load(Relaxed), Relaxed);
        }
        for (i, c) in ProfCounter::ALL.iter().enumerate() {
            let v = theirs.counters[i].load(Relaxed);
            if c.merges_by_max() {
                own.counters[i].fetch_max(v, Relaxed);
            } else {
                own.counters[i].fetch_add(v, Relaxed);
            }
        }
    }

    /// Snapshots the accumulators into an owned, exportable value.
    pub fn snapshot(&self) -> ProfSnapshot {
        let mut snap = ProfSnapshot::default();
        if let Some(core) = &self.core {
            for (i, agg) in snap.phases.iter_mut().enumerate() {
                let cell = &core.phases[i];
                agg.calls = cell.calls.load(Relaxed);
                agg.total_ns = cell.total_ns.load(Relaxed);
                agg.self_ns = cell.self_ns.load(Relaxed);
                agg.max_ns = cell.max_ns.load(Relaxed);
            }
            for (i, c) in snap.counters.iter_mut().enumerate() {
                *c = core.counters[i].load(Relaxed);
            }
        }
        snap
    }
}

/// RAII guard returned by [`Profiler::time`]; records elapsed and
/// self time (elapsed minus nested phase time) on drop.
///
/// Guards must drop in LIFO order on the thread that created them —
/// guaranteed when they live in local scopes, which is the only
/// supported idiom.
#[derive(Debug)]
pub struct ProfGuard {
    core: Arc<ProfCore>,
    phase: Phase,
    start: Instant,
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        let child = CHILD_NS.with(|s| {
            let mut stack = s.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed;
            }
            child
        });
        let cell = &self.core.phases[self.phase as usize];
        cell.calls.fetch_add(1, Relaxed);
        cell.total_ns.fetch_add(elapsed, Relaxed);
        cell.self_ns
            .fetch_add(elapsed.saturating_sub(child), Relaxed);
        cell.max_ns.fetch_max(elapsed, Relaxed);
    }
}

/// Aggregate timing for one [`Phase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds, including nested phases.
    pub total_ns: u64,
    /// Wall-clock nanoseconds net of nested phases (sums to ≤ wall).
    pub self_ns: u64,
    /// Longest single entry in nanoseconds.
    pub max_ns: u64,
}

impl PhaseAgg {
    /// Mean self-time per call in nanoseconds (0 when never entered).
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// An owned snapshot of everything a [`Profiler`] accumulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfSnapshot {
    phases: [PhaseAgg; PHASE_COUNT],
    counters: [u64; COUNTER_COUNT],
}

impl Default for ProfSnapshot {
    fn default() -> Self {
        ProfSnapshot {
            phases: [PhaseAgg::default(); PHASE_COUNT],
            counters: [0; COUNTER_COUNT],
        }
    }
}

/// Renders nanoseconds as a human-scaled duration (`1.23 s`, `45 us`).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl ProfSnapshot {
    /// Aggregate for one phase.
    pub fn get(&self, phase: Phase) -> PhaseAgg {
        self.phases[phase as usize]
    }

    /// Overrides one phase's aggregate (golden-file tests and
    /// hand-built fixtures; the simulator always goes through guards).
    pub fn set(&mut self, phase: Phase, agg: PhaseAgg) {
        self.phases[phase as usize] = agg;
    }

    /// Value of one derived counter.
    pub fn counter(&self, counter: ProfCounter) -> u64 {
        self.counters[counter as usize]
    }

    /// Overrides one counter (fixtures, as with [`set`](Self::set)).
    pub fn set_counter(&mut self, counter: ProfCounter, value: u64) {
        self.counters[counter as usize] = value;
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.calls == 0) && self.counters.iter().all(|&c| c == 0)
    }

    /// Sum of self-time across all phases — the profiler's account of
    /// where wall time went.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Folds `other` into `self` with [`Profiler::merge_from`]
    /// semantics.
    pub fn merge_from(&mut self, other: &ProfSnapshot) {
        for (dst, src) in self.phases.iter_mut().zip(other.phases.iter()) {
            dst.calls += src.calls;
            dst.total_ns += src.total_ns;
            dst.self_ns += src.self_ns;
            dst.max_ns = dst.max_ns.max(src.max_ns);
        }
        for (i, c) in ProfCounter::ALL.iter().enumerate() {
            if c.merges_by_max() {
                self.counters[i] = self.counters[i].max(other.counters[i]);
            } else {
                self.counters[i] += other.counters[i];
            }
        }
    }

    /// Batched-tick occupancy: mean rows advanced per fleet lockstep
    /// window (`None` outside fleet runs).
    pub fn batched_tick_occupancy(&self) -> Option<f64> {
        let windows = self.counter(ProfCounter::FleetWindows);
        (windows > 0).then(|| self.counter(ProfCounter::FleetRowWindows) as f64 / windows as f64)
    }

    /// The `prof.json` body: per-phase totals (entered phases only)
    /// plus every derived counter. Wall-clock values, so
    /// non-deterministic — kept out of the event log.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"phases\": [");
        let mut first = true;
        for phase in Phase::ALL {
            let a = self.get(phase);
            if a.calls == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"phase\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"mean_self_ns\":{:.1},\"max_ns\":{}}}",
                esc(phase.name()),
                a.calls,
                a.total_ns,
                a.self_ns,
                a.mean_self_ns(),
                a.max_ns,
            ));
        }
        s.push_str("\n  ],\n  \"counters\": {");
        for (i, counter) in ProfCounter::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {}",
                counter.name(),
                self.counter(*counter)
            ));
        }
        s.push_str("\n  }");
        if let Some(occ) = self.batched_tick_occupancy() {
            s.push_str(&format!(
                ",\n  \"derived\": {{\n    \"batched_tick_occupancy\": {occ:.3}\n  }}"
            ));
        }
        s.push_str("\n}\n");
        s
    }

    /// Collapsed-stack ("folded") output: one `path count` line per
    /// entered phase, weighted by self-nanoseconds. Loads directly in
    /// speedscope (<https://speedscope.app>) or through
    /// `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut s = String::new();
        for phase in Phase::ALL {
            let a = self.get(phase);
            if a.calls == 0 {
                continue;
            }
            s.push_str(&format!("{} {}\n", phase.stack(), a.self_ns));
        }
        s
    }

    /// A Chrome trace-event document laying the phases out as
    /// contiguous spans on a `polca-prof` track, sized by self-time —
    /// an at-a-glance breakdown that opens in Perfetto next to the
    /// simulation's own `trace.json`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out: Vec<String> = Vec::new();
        out.push(
            "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"polca-prof\"}}"
                .to_string(),
        );
        out.push(
            "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"self-time\"}}"
                .to_string(),
        );
        let mut ts_us = 0.0_f64;
        for phase in Phase::ALL {
            let a = self.get(phase);
            if a.calls == 0 {
                continue;
            }
            let dur_us = a.self_ns as f64 / 1e3;
            out.push(format!(
                "{{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"name\":\"{}\",\"cat\":\"prof\",\
                 \"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"args\":{{\"calls\":{},\"total_ns\":{},\"max_ns\":{}}}}}",
                esc(phase.name()),
                a.calls,
                a.total_ns,
                a.max_ns,
            ));
            ts_us += dur_us;
        }
        let mut doc = String::from("{\"traceEvents\":[\n");
        doc.push_str(&out.join(",\n"));
        doc.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        doc
    }

    /// Prometheus text-exposition lines for the *deterministic* subset
    /// of the profile: phase call counts and the derived counters.
    /// Wall-clock nanoseconds stay out so `metrics.prom` remains a pure
    /// function of the seed. Empty string when nothing was recorded.
    pub fn to_prometheus(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut s = String::new();
        s.push_str("# TYPE polca_prof_phase_calls_total counter\n");
        for phase in Phase::ALL {
            let a = self.get(phase);
            if a.calls == 0 {
                continue;
            }
            s.push_str(&format!(
                "polca_prof_phase_calls_total{{phase=\"{}\"}} {}\n",
                phase.name(),
                a.calls
            ));
        }
        for counter in ProfCounter::ALL {
            let v = self.counter(counter);
            if v == 0 {
                continue;
            }
            if counter.merges_by_max() {
                s.push_str(&format!(
                    "# TYPE polca_prof_{} gauge\npolca_prof_{} {v}\n",
                    counter.name(),
                    counter.name()
                ));
            } else {
                s.push_str(&format!(
                    "# TYPE polca_prof_{}_total counter\npolca_prof_{}_total {v}\n",
                    counter.name(),
                    counter.name()
                ));
            }
        }
        if let Some(occ) = self.batched_tick_occupancy() {
            s.push_str(&format!(
                "# TYPE polca_prof_batched_tick_occupancy gauge\n\
                 polca_prof_batched_tick_occupancy {occ:.3}\n"
            ));
        }
        s
    }

    /// Renders the per-component attribution table against a measured
    /// wall time, phases sorted by descending self-time, with a
    /// trailing coverage line (`accounted: NN.N% of wall`).
    pub fn attribution_table(&self, wall_ns: u64) -> String {
        let mut rows: Vec<(Phase, PhaseAgg)> = Phase::ALL
            .iter()
            .map(|&p| (p, self.get(p)))
            .filter(|(_, a)| a.calls > 0)
            .collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));

        let mut s = String::new();
        s.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>12} {:>8}\n",
            "phase", "calls", "self", "mean/call", "% wall"
        ));
        for (phase, a) in &rows {
            let pct = if wall_ns > 0 {
                100.0 * a.self_ns as f64 / wall_ns as f64
            } else {
                0.0
            };
            s.push_str(&format!(
                "{:<24} {:>12} {:>12} {:>12} {:>7.1}%\n",
                phase.name(),
                a.calls,
                fmt_ns(a.self_ns),
                fmt_ns(a.mean_self_ns() as u64),
                pct,
            ));
        }
        let accounted = self.total_self_ns();
        let coverage = if wall_ns > 0 {
            100.0 * accounted as f64 / wall_ns as f64
        } else {
            0.0
        };
        s.push_str(&format!(
            "accounted: {} of {} wall ({coverage:.1}%)\n",
            fmt_ns(accounted),
            fmt_ns(wall_ns),
        ));
        s
    }

    /// Fraction of `wall_ns` the profiled phases account for (0 when
    /// wall is zero).
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.total_self_ns() as f64 / wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(p.time(Phase::Dispatch).is_none());
        p.count(ProfCounter::EventsScheduled, 5);
        p.record_max(ProfCounter::PeakQueueDepth, 9);
        assert!(p.snapshot().is_empty());
        assert!(!p.is_enabled());
    }

    #[test]
    fn guards_accumulate_calls_and_time() {
        let p = Profiler::new(true);
        for _ in 0..3 {
            let _g = p.time(Phase::Dispatch);
        }
        let snap = p.snapshot();
        let agg = snap.get(Phase::Dispatch);
        assert_eq!(agg.calls, 3);
        assert!(agg.total_ns >= agg.self_ns);
        assert!(!snap.is_empty());
    }

    #[test]
    fn nested_guards_attribute_self_time_to_the_inner_phase() {
        let p = Profiler::new(true);
        {
            let _outer = p.time(Phase::TelemetryTick);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = p.time(Phase::ControllerEval);
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let snap = p.snapshot();
        let outer = snap.get(Phase::TelemetryTick);
        let inner = snap.get(Phase::ControllerEval);
        // Outer total includes the nested sleep; outer self does not.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns < outer.total_ns);
        assert!(outer.self_ns < inner.self_ns);
        // Self-times sum to no more than the outer total (no double
        // counting).
        assert!(outer.self_ns + inner.self_ns <= outer.total_ns);
    }

    #[test]
    fn counters_add_and_peak_tracks_max() {
        let p = Profiler::new(true);
        p.count(ProfCounter::EventsScheduled, 2);
        p.count(ProfCounter::EventsScheduled, 3);
        p.record_max(ProfCounter::PeakQueueDepth, 7);
        p.record_max(ProfCounter::PeakQueueDepth, 4);
        let snap = p.snapshot();
        assert_eq!(snap.counter(ProfCounter::EventsScheduled), 5);
        assert_eq!(snap.counter(ProfCounter::PeakQueueDepth), 7);
    }

    #[test]
    fn merge_adds_and_respects_max_semantics() {
        let a = Profiler::new(true);
        let b = Profiler::new(true);
        {
            let _g = a.time(Phase::Dispatch);
        }
        {
            let _g = b.time(Phase::Dispatch);
        }
        a.count(ProfCounter::EventsPopped, 1);
        b.count(ProfCounter::EventsPopped, 2);
        a.record_max(ProfCounter::PeakQueueDepth, 9);
        b.record_max(ProfCounter::PeakQueueDepth, 5);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.get(Phase::Dispatch).calls, 2);
        assert_eq!(snap.counter(ProfCounter::EventsPopped), 3);
        assert_eq!(snap.counter(ProfCounter::PeakQueueDepth), 9);
        // Self-merge and disabled-merge are no-ops.
        let clone = a.clone();
        a.merge_from(&clone);
        assert_eq!(a.snapshot().get(Phase::Dispatch).calls, 2);
        a.merge_from(&Profiler::disabled());
        assert_eq!(a.snapshot().get(Phase::Dispatch).calls, 2);
    }

    #[test]
    fn snapshot_merge_matches_profiler_merge() {
        let a = Profiler::new(true);
        let b = Profiler::new(true);
        {
            let _g = a.time(Phase::QueuePush);
        }
        {
            let _g = b.time(Phase::QueuePop);
        }
        a.record_max(ProfCounter::PeakQueueDepth, 3);
        b.record_max(ProfCounter::PeakQueueDepth, 8);
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        a.merge_from(&b);
        assert_eq!(merged, a.snapshot());
    }

    #[test]
    fn json_and_folded_list_entered_phases_only() {
        let mut snap = ProfSnapshot::default();
        snap.set(
            Phase::Dispatch,
            PhaseAgg {
                calls: 10,
                total_ns: 1_000,
                self_ns: 800,
                max_ns: 200,
            },
        );
        let json = snap.to_json();
        assert!(json.contains("\"row.dispatch\""), "{json}");
        assert!(!json.contains("\"queue.push\""), "{json}");
        assert!(json.contains("\"events_scheduled\": 0"), "{json}");
        let folded = snap.folded();
        assert_eq!(folded, "row.step;dispatch 800\n");
    }

    #[test]
    fn chrome_trace_lays_phases_end_to_end() {
        let mut snap = ProfSnapshot::default();
        snap.set(
            Phase::QueuePush,
            PhaseAgg {
                calls: 1,
                total_ns: 2_000,
                self_ns: 2_000,
                max_ns: 2_000,
            },
        );
        snap.set(
            Phase::Dispatch,
            PhaseAgg {
                calls: 1,
                total_ns: 3_000,
                self_ns: 3_000,
                max_ns: 3_000,
            },
        );
        let j = snap.chrome_trace_json();
        assert!(j.contains("\"name\":\"polca-prof\""), "{j}");
        // Second span starts where the first ends (2 us in).
        assert!(j.contains("\"ts\":0.000,\"dur\":2.000"), "{j}");
        assert!(j.contains("\"ts\":2.000,\"dur\":3.000"), "{j}");
    }

    #[test]
    fn prometheus_export_is_deterministic_subset() {
        let mut snap = ProfSnapshot::default();
        snap.set(
            Phase::QueuePop,
            PhaseAgg {
                calls: 42,
                total_ns: 999,
                self_ns: 999,
                max_ns: 10,
            },
        );
        snap.set_counter(ProfCounter::EventsPopped, 42);
        snap.set_counter(ProfCounter::PeakQueueDepth, 6);
        let p = snap.to_prometheus();
        assert!(
            p.contains("polca_prof_phase_calls_total{phase=\"queue.pop\"} 42"),
            "{p}"
        );
        assert!(p.contains("polca_prof_events_popped_total 42"), "{p}");
        assert!(
            p.contains("# TYPE polca_prof_peak_queue_depth gauge"),
            "{p}"
        );
        assert!(p.contains("polca_prof_peak_queue_depth 6"), "{p}");
        // No wall-clock values leak into the exposition.
        assert!(!p.contains("999"), "{p}");
        assert_eq!(ProfSnapshot::default().to_prometheus(), "");
    }

    #[test]
    fn attribution_table_reports_coverage() {
        let mut snap = ProfSnapshot::default();
        snap.set(
            Phase::Dispatch,
            PhaseAgg {
                calls: 100,
                total_ns: 900,
                self_ns: 900,
                max_ns: 20,
            },
        );
        let table = snap.attribution_table(1_000);
        assert!(table.contains("row.dispatch"), "{table}");
        assert!(table.contains("90.0%"), "{table}");
        assert!((snap.coverage(1_000) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(4_500), "4.5 us");
        assert_eq!(fmt_ns(3_200_000), "3.20 ms");
        assert_eq!(fmt_ns(1_230_000_000), "1.23 s");
    }
}
