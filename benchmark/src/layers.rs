//! The traced pass: per-layer metrics, each taken from outside a layer
//! by timing or counting calls into its public functions.
//!
//! One traced child per workload runs, in order:
//!
//! 1. the workload with the tracer on — spans around each stage, a
//!    timed controller, and window-by-window stepping — which must
//!    reproduce the untraced digest;
//! 2. a counts pass at `ObsLevel::Full` that reads profiler counters
//!    only, never their nanoseconds (`replay_obs` already runs at that
//!    level and reads its own);
//! 3. `site_day` only: the site's rows stepped as standalone `RowSim`s;
//! 4. `replay_obs` only: the planes stacked one at a time;
//! 5. microbenchmarks of single calls into the queue, GPU, LLM,
//!    recorder and ingest layers.
//!
//! Metrics of a layer a workload does not run read 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use polca_cluster::{row_seed, Request, RowSim};
use polca_gpu::{Gpu, GpuSpec};
use polca_ingest::IngestedTrace;
use polca_llm::{BatchComposition, InferenceModel, ModelSpec};
use polca_obs::{Label, ObsLevel, ProfCounter, ProfSnapshot, Recorder};
use polca_sim::{EventQueue, SimTime};

use crate::spans::{Timed, Tracer, EXPORT, RUN};
use crate::stats::{median, quantiles, Better, LogHist};
use crate::workload::{
    build, polca, row_config, run_rep, sim_config, site_config, synthesize, Outcome, Planes, Rep,
    Sim, Spec, Workload, SAMPLE_CSV,
};

/// Span category for the passes after the traced run.
const PROBE: &str = "probe";

/// Schedule+pop pairs in the event-queue hold model.
const HOLD_PAIRS: usize = 1_000_000;

/// Standalone site rows whose every window is timed (the rest are timed
/// per row, so clock reads do not inflate the summed row work).
const HIST_EVERY: usize = 10;

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("sim.events", "count", Better::Lower),
    ("sim.ns_per_event", "ns", Better::Lower),
    ("sim.peak_queue_depth", "count", Better::Lower),
    ("sim.queue_hold_ns", "ns", Better::Lower),
    ("telemetry.oob_issued", "count", Better::Lower),
    ("telemetry.oob_delivered", "count", Better::Lower),
    ("controller.calls", "count", Better::Lower),
    ("controller.ns_per_call", "ns", Better::Lower),
    ("controller.share_pct", "%", Better::Lower),
    ("cluster.windows", "count", Better::Lower),
    ("cluster.window_us_p50", "us", Better::Lower),
    ("cluster.window_us_p99", "us", Better::Lower),
    ("cluster.step_share_pct", "%", Better::Lower),
    ("gpu.power_at_ns", "ns", Better::Lower),
    ("llm.iteration_profile_ns", "ns", Better::Lower),
    ("serve.mean_batch_p50", "seqs", Better::Higher),
    ("serve.kv_occupancy_p50", "fraction", Better::Higher),
    ("serve.kv_occupancy_max", "fraction", Better::Higher),
    ("serve.waiting_depth_p99", "requests", Better::Lower),
    ("serve.peak_batch", "seqs", Better::Higher),
    ("serve.preemptions", "count", Better::Lower),
    ("serve.kv_peak_blocks", "blocks", Better::Higher),
    ("serve.recompute_share", "fraction", Better::Lower),
    ("site.wall_1t_s", "s", Better::Lower),
    ("site.speedup", "x", Better::Higher),
    ("site.row_work_s", "s", Better::Lower),
    ("site.serial_overhead_s", "s", Better::Lower),
    ("site.parallel_overhead_s", "s", Better::Lower),
    ("site.rows_stepped_share", "fraction", Better::Lower),
    ("obs.overhead_pct.metrics", "%", Better::Lower),
    ("obs.overhead_pct.events", "%", Better::Lower),
    ("obs.overhead_pct.full", "%", Better::Lower),
    ("obs.overhead_pct.req", "%", Better::Lower),
    ("obs.overhead_pct.energy", "%", Better::Lower),
    ("obs.overhead_pct.watch", "%", Better::Lower),
    ("obs.export_s", "s", Better::Lower),
    ("obs.export_mib", "MiB", Better::Lower),
    ("obs.events_logged", "count", Better::Lower),
    ("obs.recorder_ns_per_call", "ns", Better::Lower),
    ("watch.alerts", "count", Better::Lower),
    ("watch.incidents", "count", Better::Lower),
    ("ingest.rows", "count", Better::Higher),
    ("ingest.parse_ns_per_row", "ns", Better::Lower),
    ("trace.synthesis_s", "s", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
    ("bench.trace_coverage_pct", "%", Better::Higher),
];

/// What the traced child learns from the untraced reps before it runs.
#[derive(Debug, Clone, Copy)]
pub struct TraceArgs {
    /// Median untraced `wall_s` at the workload's thread count.
    pub wall_median: f64,
    /// Untraced `wall_s` at one thread (`site_day`; otherwise the same
    /// as `wall_median`).
    pub wall_1t: f64,
}

/// The traced run and every per-layer metric.
pub struct Traced {
    pub rep: Rep,
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .expect("every metric set is listed in PER_LAYER");
        *slot = value;
    }
}

pub fn traced(spec: &Spec, args: &TraceArgs) -> Result<Traced, String> {
    let mut tracer = Tracer::on();
    let mut stats = Vec::new();
    let rep = run_rep(spec, &mut tracer, |_| {
        let (controller, s) = Timed::new(polca());
        stats.push(s);
        controller
    })?;
    let mut m = Layers(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect());
    let threads = if spec.workload == Workload::SiteDay {
        spec.threads.max(1)
    } else {
        1
    };

    let mut calls = LogHist::default();
    for s in &stats {
        calls.merge(&s.lock().expect("controller stats lock poisoned"));
    }
    m.set("controller.calls", calls.count() as f64);
    m.set("controller.ns_per_call", calls.mean_ns());
    m.set(
        "controller.share_pct",
        calls.sum_ns() / 1e9 / (rep.wall_s * threads as f64) * 100.0,
    );

    let counts = match spec.workload {
        Workload::ReplayObs => rep.outcome.prof.clone(),
        Workload::SiteDay => {
            let timed = tracer.span(PROBE, "standalone rows", || {
                standalone_rows(spec, ObsLevel::Off)
            });
            let completed = Outcome::total(&rep.outcome.completed);
            if timed.completed != completed {
                return Err(format!(
                    "standalone rows completed {} requests, the site {completed}",
                    timed.completed
                ));
            }
            let row_work = timed.row_work_s;
            m.set("site.wall_1t_s", args.wall_1t);
            m.set("site.speedup", args.wall_1t / args.wall_median);
            m.set("site.row_work_s", row_work);
            m.set("site.serial_overhead_s", args.wall_1t - row_work);
            m.set(
                "site.parallel_overhead_s",
                args.wall_median - row_work / threads as f64,
            );
            m.set(
                "site.rows_stepped_share",
                timed.stepped as f64 / timed.windows as f64,
            );
            m.set("cluster.windows", timed.stepped as f64);
            m.set("cluster.window_us_p50", timed.hist.quantile_ns(0.5) / 1e3);
            m.set("cluster.window_us_p99", timed.hist.quantile_ns(0.99) / 1e3);
            m.set("cluster.step_share_pct", row_work / args.wall_1t * 100.0);
            tracer
                .span(PROBE, "counts pass", || {
                    standalone_rows(spec, ObsLevel::Full)
                })
                .counts
        }
        _ => tracer.span(PROBE, "counts pass", || row_counts(spec, rep.digest()))?,
    };
    if spec.workload != Workload::SiteDay {
        let h = &tracer.window_ns;
        m.set("cluster.windows", h.count() as f64);
        m.set("cluster.window_us_p50", h.quantile_ns(0.5) / 1e3);
        m.set("cluster.window_us_p99", h.quantile_ns(0.99) / 1e3);
        m.set(
            "cluster.step_share_pct",
            h.sum_ns() / 1e9 / rep.wall_s * 100.0,
        );
    }

    let events = rep.outcome.events_processed;
    let peak_depth = counts.counter(ProfCounter::PeakQueueDepth);
    m.set("sim.events", events as f64);
    m.set(
        "sim.ns_per_event",
        args.wall_median * 1e9 / events.max(1) as f64,
    );
    m.set("sim.peak_queue_depth", peak_depth as f64);
    m.set(
        "sim.queue_hold_ns",
        tracer.span(PROBE, "queue hold model", || {
            queue_hold_ns(peak_depth as usize)
        }),
    );
    m.set(
        "telemetry.oob_issued",
        counts.counter(ProfCounter::OobCommandsIssued) as f64,
    );
    m.set(
        "telemetry.oob_delivered",
        counts.counter(ProfCounter::OobCommandsDelivered) as f64,
    );

    let sample = |name: &str, q: f64| {
        tracer
            .samples
            .get(name)
            .map_or(0.0, |v| quantiles(v, &[q])[0])
    };
    let serve = [
        ("serve.mean_batch_p50", sample("serve.mean_batch", 0.5)),
        ("serve.kv_occupancy_p50", sample("serve.kv_occupancy", 0.5)),
        ("serve.kv_occupancy_max", sample("serve.kv_occupancy", 1.0)),
        (
            "serve.waiting_depth_p99",
            sample("serve.waiting_depth", 0.99),
        ),
    ];
    for (name, v) in serve {
        m.set(name, v);
    }
    let preemptions = counts.counter(ProfCounter::ServePreemptions);
    m.set(
        "serve.peak_batch",
        counts.counter(ProfCounter::ServePeakBatch) as f64,
    );
    m.set("serve.preemptions", preemptions as f64);
    m.set(
        "serve.kv_peak_blocks",
        counts.counter(ProfCounter::ServeKvPeakBlocks) as f64,
    );
    m.set(
        "serve.recompute_share",
        preemptions as f64 / Outcome::total(&rep.outcome.completed).max(1) as f64,
    );

    if spec.workload == Workload::ReplayObs {
        let overheads = tracer.span(PROBE, "plane stacking", || plane_overheads(spec));
        for (planes, pct) in overheads {
            m.set(&format!("obs.overhead_pct.{}", planes.name()), pct);
        }
        m.set("obs.export_s", tracer.total_s(EXPORT));
        m.set(
            "obs.export_mib",
            rep.outcome.rendered_bytes() as f64 / (1 << 20) as f64,
        );
        m.set("obs.events_logged", rep.outcome.events_logged as f64);
        m.set("watch.alerts", rep.outcome.alerts as f64);
        m.set("watch.incidents", rep.outcome.incidents as f64);
    }

    m.set(
        "obs.recorder_ns_per_call",
        tracer.span(PROBE, "recorder calls", recorder_ns_per_call),
    );
    m.set(
        "gpu.power_at_ns",
        tracer.span(PROBE, "gpu power_at", gpu_power_at_ns),
    );
    m.set(
        "llm.iteration_profile_ns",
        tracer.span(PROBE, "llm iteration_profile", llm_iteration_profile_ns),
    );
    let (rows, parse_ns) = tracer.span(PROBE, "ingest parse", ingest_parse_ns_per_row);
    m.set("ingest.rows", rows as f64);
    m.set("ingest.parse_ns_per_row", parse_ns);
    m.set("trace.synthesis_s", rep.synthesis_s);
    m.set(
        "bench.trace_overhead_pct",
        (rep.wall_s / args.wall_median - 1.0) * 100.0,
    );
    m.set(
        "bench.trace_coverage_pct",
        (tracer.total_s(RUN) + tracer.total_s(EXPORT)) / rep.wall_s * 100.0,
    );
    Ok(Traced {
        rep,
        layers: m.0,
        tracer,
    })
}

/// Re-runs a one-row workload with a `Full` recorder and returns its
/// profiler counters, checking that recording left the outcome alone.
fn row_counts(spec: &Spec, digest: u64) -> Result<ProfSnapshot, String> {
    let inputs = synthesize(spec);
    let mut cfg = sim_config(spec);
    cfg.recorder = Recorder::new(ObsLevel::Full);
    let recorder = cfg.recorder.clone();
    let row = RowSim::new(
        row_config(spec.workload),
        cfg,
        polca(),
        inputs.requests.into_iter(),
        inputs.horizon,
    );
    let report = row.finish();
    if Outcome::from_row(&report).digest() != digest {
        return Err("the counts pass changed the simulated outcome".into());
    }
    Ok(recorder.prof().snapshot())
}

/// `site_day`'s rows stepped one after another as standalone engines,
/// each with its site seed and round-robin feed, on the site's window
/// boundaries and due-event rule. While no site brake fires this is
/// exactly the row work inside the site run.
#[derive(Debug, Default)]
pub struct Standalone {
    /// Summed `step_until` time over all rows.
    pub row_work_s: f64,
    /// Row-windows considered, and the ones with a due event (stepped).
    pub windows: u64,
    pub stepped: u64,
    pub completed: u64,
    /// Per-window `step_until` times of every `HIST_EVERY`-th row.
    pub hist: LogHist,
    pub counts: ProfSnapshot,
}

pub fn standalone_rows(spec: &Spec, level: ObsLevel) -> Standalone {
    let inputs = synthesize(spec);
    let site = site_config(spec);
    let n = site.datacenters * site.rows_per_datacenter;
    let mut feeds: Vec<Vec<Request>> = vec![Vec::new(); n];
    for (k, r) in inputs.requests.into_iter().enumerate() {
        feeds[k % n].push(r);
    }
    let window = SimTime::from_secs(site.base.telemetry_interval_s);
    let horizon = inputs.horizon;
    let mut out = Standalone::default();
    for (i, feed) in feeds.into_iter().enumerate() {
        let mut cfg = site.base.clone();
        cfg.seed = row_seed(spec.seed, i);
        cfg.recorder = Recorder::new(level);
        let recorder = cfg.recorder.clone();
        let mut row = RowSim::new(
            row_config(spec.workload),
            cfg,
            polca(),
            feed.into_iter(),
            horizon,
        );
        let sampled = i % HIST_EVERY == 0;
        let start = Instant::now();
        let mut t = SimTime::ZERO;
        loop {
            let target = (t + window).min(horizon);
            out.windows += 1;
            if row.next_event_time().is_some_and(|at| at <= target) {
                out.stepped += 1;
                if sampled {
                    let w = Instant::now();
                    row.step_until(target);
                    out.hist.record(w.elapsed().as_nanos() as u64);
                } else {
                    row.step_until(target);
                }
            }
            t = target;
            if t >= horizon {
                break;
            }
        }
        out.row_work_s += start.elapsed().as_secs_f64();
        out.completed += row.finish().completed;
        out.counts.merge_from(&recorder.prof().snapshot());
    }
    out
}

/// Planes-on run time over planes-off run time, as a percentage
/// overhead, for each cumulative stack on the same inputs. Only the
/// simulation is timed; rendering is `obs.export_s`.
fn plane_overheads(spec: &Spec) -> Vec<(Planes, f64)> {
    let run = |planes: Planes| {
        let Sim::Row {
            mut row, horizon, ..
        } = build(spec, planes, synthesize(spec), |_| polca())
        else {
            unreachable!("only one-row workloads stack planes")
        };
        let t = Instant::now();
        row.step_until(horizon);
        black_box(row.finish());
        t.elapsed().as_secs_f64()
    };
    let off = run(Planes::Off);
    Planes::STACK
        .into_iter()
        .map(|p| (p, (run(p) / off - 1.0) * 100.0))
        .collect()
}

/// The classic hold model on `EventQueue<u64>`: keep `depth` events
/// pending and time `HOLD_PAIRS` pop-then-schedule pairs.
pub fn queue_hold_ns(depth: usize) -> f64 {
    let depth = depth.max(1) as f64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut q = EventQueue::new();
    for i in 0..depth as u64 {
        q.schedule(SimTime::from_secs(uniform() * depth), i);
    }
    let t = Instant::now();
    for _ in 0..HOLD_PAIRS {
        let (now, ev) = q.pop().expect("the hold model never drains");
        q.schedule(
            SimTime::from_secs(now.as_secs() + 2.0 * uniform() * depth),
            black_box(ev),
        );
    }
    t.elapsed().as_nanos() as f64 / HOLD_PAIRS as f64
}

/// `Gpu::power_at` over an intensity sweep.
fn gpu_power_at_ns() -> f64 {
    const CALLS: usize = 2_000_000;
    let gpu = Gpu::new(GpuSpec::a100_80gb());
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..CALLS {
        acc += gpu.power_at(black_box((i % 1001) as f64 / 1000.0));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

/// `InferenceModel::iteration_profile` over prefill 0–640 × decode
/// 0–32 batch compositions.
fn llm_iteration_profile_ns() -> f64 {
    const SWEEPS: usize = 150;
    let model = InferenceModel::new(ModelSpec::bloom_176b(), GpuSpec::a100_80gb())
        .expect("BLOOM-176B fits its Table 3 allocation");
    let comps: Vec<BatchComposition> = (0..=640)
        .step_by(16)
        .flat_map(|p| (0..=32).map(move |d| (p, d)))
        .filter(|&(p, d)| p + d > 0)
        .map(|(prefill_tokens, decode_seqs)| BatchComposition {
            prefill_tokens,
            decode_seqs,
        })
        .collect();
    let t = Instant::now();
    for _ in 0..SWEEPS {
        for c in &comps {
            black_box(model.iteration_profile(black_box(c)));
        }
    }
    t.elapsed().as_nanos() as f64 / (SWEEPS * comps.len()) as f64
}

/// One `Recorder` counter, gauge or histogram call at `Metrics` level.
fn recorder_ns_per_call() -> f64 {
    const ROUNDS: usize = 200_000;
    let rec = Recorder::new(ObsLevel::Metrics);
    let t = Instant::now();
    for i in 0..ROUNDS {
        rec.add("bench.counter", Label::Global, 1);
        rec.gauge("bench.gauge", Label::Global, i as f64);
        rec.observe("bench.histogram", Label::Global, black_box(i as f64));
    }
    t.elapsed().as_nanos() as f64 / (3 * ROUNDS) as f64
}

/// Rows in the bundled CSV and the median parse time per row of three
/// ingests.
fn ingest_parse_ns_per_row() -> (usize, f64) {
    let mut rows = 0;
    let per_row: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let trace = IngestedTrace::from_reader(black_box(SAMPLE_CSV).as_bytes())
                .expect("the bundled sample trace parses");
            rows = trace.len();
            t.elapsed().as_nanos() as f64 / rows as f64
        })
        .collect();
    (rows, median(&per_row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;

    fn smoke(workload: Workload, threads: usize) -> Spec {
        Spec {
            workload,
            seed: 17,
            threads,
            smoke: true,
        }
    }

    #[test]
    fn standalone_rows_reconcile_with_the_site() {
        let spec = smoke(Workload::SiteDay, 2);
        let site = run_rep(&spec, &mut Tracer::off(), |_| polca()).unwrap();
        assert_eq!(
            site.outcome.brakes, 0,
            "reconciliation needs a brake-free site"
        );
        let rows = standalone_rows(&spec, ObsLevel::Off);
        assert_eq!(rows.completed, Outcome::total(&site.outcome.completed));
        assert!(rows.stepped > 0 && rows.stepped <= rows.windows);
        assert!(rows.hist.count() > 0);
        let counted = standalone_rows(&spec, ObsLevel::Full);
        assert_eq!(counted.completed, rows.completed);
        assert!(counted.counts.counter(ProfCounter::PeakQueueDepth) > 0);
    }

    #[test]
    fn every_workload_reports_every_layer_metric() {
        for w in Workload::ALL {
            let spec = smoke(w, 2);
            let plain = run_rep(&spec, &mut Tracer::off(), |_| polca()).unwrap();
            let args = TraceArgs {
                wall_median: plain.wall_s,
                wall_1t: plain.wall_s,
            };
            let t = traced(&spec, &args).unwrap();
            assert_eq!(t.rep.digest(), plain.digest(), "{}", w.name());
            assert_eq!(t.layers.len(), PER_LAYER.len());
            assert!(t.layers.values().all(|v| v.is_finite()), "{}", w.name());
            for name in [
                "sim.events",
                "controller.calls",
                "cluster.windows",
                "gpu.power_at_ns",
            ] {
                assert!(t.layers[name] > 0.0, "{} {name}", w.name());
            }
        }
    }

    #[test]
    fn hold_model_times_something() {
        assert!(queue_hold_ns(16) > 0.0);
    }
}
