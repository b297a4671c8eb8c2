//! The four workloads: how each makes its inputs from the seed, sets up
//! the simulator, runs it, and folds the simulated outcome into the
//! 64-bit digest that pins it.
//!
//! Every workload is an open loop: arrivals are an arrival schedule in
//! simulated time, generated in full before the run, and the simulator
//! only ever receives the generated `Vec<Request>`.

use std::time::Instant;

use polca::{DisaggregationConfig, OversubscriptionStudy, PolcaController, PolcaPolicy};
use polca_cluster::{
    PowerController, Priority, Request, RowConfig, RowSim, SimConfig, SimReport, SiteConfig,
    SiteReport, SiteSim,
};
use polca_ingest::{IngestedTrace, ReplayOptions, TraceReplay};
use polca_obs::{CarbonSignal, EnergyPlan, ObsLevel, ProfSnapshot, Recorder, ReqTraceConfig};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig, WorkloadClass};
use polca_watch::{WatchConfig, WatchPlane};

use crate::host;
use crate::spans::{step_windows, Tracer, EXPORT, RUN, SETUP};
use crate::stats::quantiles;

/// The 32,835-row request log `replay_obs` ingests, built into the
/// binary so the benchmark reads no files at run time.
pub const SAMPLE_CSV: &str = include_str!("../../tests/golden/sample_trace.csv");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six-week row replay (Fig 16/17) on the legacy engine.
    Row6wk,
    /// A 100-row site, the only multithreaded workload.
    SiteDay,
    /// The continuous-batching engine under KV pressure.
    ServeDay,
    /// An ingested CSV replayed with every observability plane on.
    ReplayObs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Row6wk,
        Workload::SiteDay,
        Workload::ServeDay,
        Workload::ReplayObs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Row6wk => "row_6wk",
            Workload::SiteDay => "site_day",
            Workload::ServeDay => "serve_day",
            Workload::ReplayObs => "replay_obs",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Worker threads; only `site_day` uses more than one.
    pub threads: usize,
    /// Shrinks every horizon so a run takes milliseconds (tests).
    pub smoke: bool,
}

/// The observability planes attached to a row, stacked cumulatively in
/// this order. `replay_obs` runs with all of them; the other workloads
/// run with none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Planes {
    Off,
    Metrics,
    Events,
    Full,
    Req,
    Energy,
    Watch,
}

impl Planes {
    /// The planes stacked on top of `Off`, in stacking order.
    pub const STACK: [Planes; 6] = [
        Planes::Metrics,
        Planes::Events,
        Planes::Full,
        Planes::Req,
        Planes::Energy,
        Planes::Watch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Planes::Off => "off",
            Planes::Metrics => "metrics",
            Planes::Events => "events",
            Planes::Full => "full",
            Planes::Req => "req",
            Planes::Energy => "energy",
            Planes::Watch => "watch",
        }
    }

    /// The planes `workload` runs with.
    pub fn of(workload: Workload) -> Planes {
        match workload {
            Workload::ReplayObs => Planes::Watch,
            _ => Planes::Off,
        }
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub requests: Vec<Request>,
    pub horizon: SimTime,
}

impl Inputs {
    /// FNV-1a digest of the arrival schedule: every request's id,
    /// arrival time, token counts and priority.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.requests {
            h.u64(r.id);
            h.f64(r.arrival.as_secs());
            h.u64(u64::from(r.input_tokens));
            h.u64(u64::from(r.output_tokens));
            h.u64(u64::from(r.priority == Priority::High));
        }
        h.finish()
    }

    /// Requests due at or before the horizon: every one of them must be
    /// offered to the simulator.
    pub fn due(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.arrival <= self.horizon)
            .count() as u64
    }
}

/// Generates `spec`'s inputs from its seed.
pub fn synthesize(spec: &Spec) -> Inputs {
    let (seed, smoke) = (spec.seed, spec.smoke);
    let day = SimTime::from_days(1.0);
    let short = SimTime::from_hours(1.0);
    let paper_mix = |horizon: SimTime, scale: f64| {
        let cfg = TraceConfig::paper_mix(seed, horizon).scaled(scale);
        Inputs {
            requests: ArrivalGenerator::new(&cfg).collect(),
            horizon,
        }
    };
    match spec.workload {
        Workload::Row6wk => {
            let days = if smoke { 0.25 } else { 42.0 };
            let study = OversubscriptionStudy::new(
                RowConfig::paper_inference_row(),
                PolcaPolicy::default(),
                days,
                seed,
            );
            let horizon = SimTime::from_days(days);
            let cfg = TraceConfig {
                seed,
                horizon,
                schedule: study.base_schedule().scaled(1.3),
                mix: WorkloadClass::table6(),
            };
            Inputs {
                requests: ArrivalGenerator::new(&cfg).collect(),
                horizon,
            }
        }
        Workload::SiteDay => paper_mix(if smoke { short } else { day }, 4.0),
        Workload::ServeDay => paper_mix(if smoke { short } else { day }, 9.0),
        Workload::ReplayObs => {
            let trace = IngestedTrace::from_reader(SAMPLE_CSV.as_bytes())
                .expect("the bundled sample trace parses");
            let options = ReplayOptions {
                time_scale: 8.0,
                rate_scale: if smoke { 0.25 } else { 6.0 },
                seed,
            };
            Inputs {
                requests: TraceReplay::with_options(&trace, options).collect(),
                horizon: SimTime::from_hours(48.0),
            }
        }
    }
}

/// The row each row-based workload runs on.
pub fn row_config(workload: Workload) -> RowConfig {
    let paper = RowConfig::paper_inference_row();
    match workload {
        Workload::Row6wk | Workload::ReplayObs => paper.with_added_servers(0.30),
        Workload::ServeDay => paper,
        Workload::SiteDay => RowConfig {
            base_servers: 4,
            ..paper
        },
    }
}

/// The per-row simulator config (no planes attached).
pub fn sim_config(spec: &Spec) -> SimConfig {
    SimConfig {
        seed: spec.seed,
        record_power_series: false,
        engine: match spec.workload {
            Workload::ServeDay => DisaggregationConfig::default().batched_engine(false),
            _ => SimConfig::default().engine,
        },
        ..SimConfig::default()
    }
}

/// `site_day`'s topology: 25 datacenters × 4 rows, two rows per PDU,
/// budgets enforced with 10 % site oversubscription.
pub fn site_config(spec: &Spec) -> SiteConfig {
    SiteConfig {
        datacenters: 25,
        rows_per_datacenter: 4,
        rows_per_pdu: 2,
        enforce_budgets: true,
        site_oversubscription: Some(0.10),
        threads: spec.threads,
        base: sim_config(spec),
        ..SiteConfig::default()
    }
}

/// The controller every row runs.
pub fn polca() -> PolcaController {
    PolcaController::new(PolcaPolicy::default())
}

/// Attaches `planes` to `cfg`, returning the watch plane when one is
/// part of the stack.
pub fn attach_planes(
    planes: Planes,
    provisioned_watts: f64,
    cfg: &mut SimConfig,
) -> Option<WatchPlane> {
    let level = match planes {
        Planes::Off => ObsLevel::Off,
        Planes::Metrics => ObsLevel::Metrics,
        Planes::Events => ObsLevel::Events,
        _ => ObsLevel::Full,
    };
    let mut recorder = Recorder::new(level);
    if planes >= Planes::Req {
        recorder = recorder.with_req_trace(ReqTraceConfig { sample: 16 });
    }
    if planes >= Planes::Energy {
        recorder = recorder.with_energy(EnergyPlan::new(CarbonSignal::diurnal_default()));
    }
    let watch = (planes >= Planes::Watch).then(|| {
        let plane = WatchPlane::new(WatchConfig::new(provisioned_watts));
        plane.attach(&mut cfg.oob_taps, &recorder);
        plane
    });
    cfg.recorder = recorder;
    watch
}

type Feed = std::vec::IntoIter<Request>;

/// A simulator ready to run.
pub enum Sim<P> {
    Row {
        row: Box<RowSim<P, Feed>>,
        recorder: Recorder,
        watch: Option<WatchPlane>,
        horizon: SimTime,
    },
    Site(Box<SiteSim<P>>),
}

/// Builds `spec`'s simulator over `inputs` with the given planes; each
/// row's controller comes from `make(row_index)`.
pub fn build<P: PowerController>(
    spec: &Spec,
    planes: Planes,
    inputs: Inputs,
    mut make: impl FnMut(usize) -> P,
) -> Sim<P> {
    let row = row_config(spec.workload);
    if spec.workload == Workload::SiteDay {
        return Sim::Site(Box::new(SiteSim::new(
            row,
            site_config(spec),
            |i, _| make(i),
            inputs.requests.into_iter(),
            inputs.horizon,
        )));
    }
    let mut cfg = sim_config(spec);
    let watch = attach_planes(planes, row.provisioned_watts(), &mut cfg);
    let recorder = cfg.recorder.clone();
    Sim::Row {
        row: Box::new(RowSim::new(
            row,
            cfg,
            make(0),
            inputs.requests.into_iter(),
            inputs.horizon,
        )),
        recorder,
        watch,
        horizon: inputs.horizon,
    }
}

impl<P: PowerController> Sim<P> {
    /// Runs to the horizon and produces the finished report, rendering
    /// every artifact when planes are attached. With the tracer on, a
    /// row is stepped window by window and each stage is a span.
    pub fn run(self, tracer: &mut Tracer) -> Outcome {
        match self {
            Sim::Site(site) => {
                let report = tracer.span(RUN, "site.run", || site.run());
                Outcome::from_site(&report)
            }
            Sim::Row {
                mut row,
                recorder,
                watch,
                horizon,
            } => {
                if tracer.is_on() {
                    step_windows(tracer, &mut row, horizon);
                } else {
                    row.step_until(horizon);
                }
                let report = tracer.span(RUN, "cluster.finish", || row.finish());
                let mut outcome = Outcome::from_row(&report);
                if recorder.is_enabled() {
                    outcome.render(tracer, &recorder, watch.as_ref(), horizon);
                }
                outcome
            }
        }
    }
}

/// The simulated outcome of a run, plus the host-work count
/// `events_processed`, which stays out of the digest.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub offered: [u64; 2],
    pub completed: [u64; 2],
    pub rejected: [u64; 2],
    pub brakes: u64,
    pub commands: u64,
    pub peak_watts: f64,
    pub mean_watts: f64,
    pub latencies: [Vec<f64>; 2],
    /// `site_day` only: per-PDU, per-datacenter and site peaks, and
    /// brakes the site enforcer engaged.
    pub site: Option<(Vec<f64>, Vec<f64>, f64, u64)>,
    /// `replay_obs` only: every rendered artifact, by file name.
    pub artifacts: Vec<(&'static str, String)>,
    pub alerts: usize,
    pub incidents: usize,
    pub events_logged: usize,
    /// The recorder's profiler counters (planes-on runs only).
    pub prof: ProfSnapshot,
    pub events_processed: u64,
}

/// Artifacts whose bytes are pinned. `metrics.prom` is pinned minus
/// its `polca_prof_*` series, which count how the benchmark drove the
/// engine (one `step_until` per window when traced), not what it
/// simulated.
const PINNED_ARTIFACTS: [&str; 5] = [
    "events.jsonl",
    "requests.jsonl",
    "energy.json",
    "incidents.jsonl",
    "metrics.prom",
];

impl Outcome {
    fn add_row(&mut self, r: &SimReport) {
        let pairs = [
            r.offered_by_priority,
            r.completed_by_priority,
            r.rejected_by_priority,
        ];
        for (dst, (low, high)) in [&mut self.offered, &mut self.completed, &mut self.rejected]
            .into_iter()
            .zip(pairs)
        {
            dst[0] += low;
            dst[1] += high;
        }
        self.brakes += r.brake_engagements;
        self.commands += r.commands_issued;
        self.latencies[0].extend_from_slice(r.latencies(Priority::Low));
        self.latencies[1].extend_from_slice(r.latencies(Priority::High));
        self.events_processed += r.events_processed;
    }

    pub fn from_row(r: &SimReport) -> Outcome {
        let mut o = Outcome {
            peak_watts: r.peak_row_watts,
            mean_watts: r.mean_row_watts,
            ..Outcome::default()
        };
        o.add_row(r);
        o
    }

    fn from_site(s: &SiteReport) -> Outcome {
        let mut o = Outcome {
            peak_watts: s.site_peak_watts,
            mean_watts: s.mean_site_watts(),
            site: Some((
                s.pdu_peak_watts.clone(),
                s.datacenter_peak_watts.clone(),
                s.site_peak_watts,
                s.fleet_brake_engagements,
            )),
            ..Outcome::default()
        };
        for r in &s.rows {
            o.add_row(r);
        }
        o
    }

    /// Closes the watch plane and renders every artifact to memory, one
    /// span per artifact.
    fn render(
        &mut self,
        tracer: &mut Tracer,
        recorder: &Recorder,
        watch: Option<&WatchPlane>,
        horizon: SimTime,
    ) {
        let watch = watch.map(|w| tracer.span(EXPORT, "watch.finalize", || w.finalize(horizon)));
        let run = tracer.span(EXPORT, "obs.snapshot", || recorder.artifacts());
        self.events_logged = run.events.len();
        self.prof = run.prof.clone();
        let ledger = run.energy_ledger();
        let annotations = watch.as_ref().map(|w| w.annotations()).unwrap_or_default();
        let mut put = |name: &'static str, render: &dyn Fn() -> String| {
            let body = tracer.span(EXPORT, &format!("render {name}"), render);
            self.artifacts.push((name, body));
        };
        put("metrics.json", &|| run.metrics_json());
        put("metrics.prom", &|| run.metrics_prometheus());
        if !run.energy_rows.is_empty() {
            put("energy.json", &|| ledger.to_json());
            put("energy.csv", &|| ledger.series_csv());
        }
        if run.level.events_enabled() {
            put("events.jsonl", &|| run.events_jsonl());
            if run.req_trace {
                put("requests.jsonl", &|| run.requests_jsonl());
            }
            put("power.csv", &|| run.power_csv());
            put("latency.csv", &|| run.latency_csv());
            put("trace.json", &|| run.chrome_trace_json_with(&annotations));
        }
        if run.level.profiling_enabled() {
            put("profile.json", &|| run.profile_json());
            put("prof.json", &|| run.prof_json());
            put("prof.folded", &|| run.prof_folded());
            put("prof.trace.json", &|| run.prof_chrome_json());
        }
        if let Some(w) = &watch {
            put("incidents.jsonl", &|| w.incidents_jsonl());
            put("report.md", &|| w.report_md());
            self.alerts = w.alerts().len();
            self.incidents = w.incidents().len();
        }
    }

    /// Bytes rendered to memory.
    pub fn rendered_bytes(&self) -> usize {
        self.artifacts.iter().map(|(_, body)| body.len()).sum()
    }

    pub fn total(v: &[u64; 2]) -> u64 {
        v[0] + v[1]
    }

    /// The FNV-1a digest of everything simulated: per-priority offered,
    /// completed and rejected counts, brakes, commands, peak and mean
    /// watts, latency quantiles, the site's per-level peaks, and the
    /// pinned artifacts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for counts in [&self.offered, &self.completed, &self.rejected] {
            h.u64(counts[0]);
            h.u64(counts[1]);
        }
        h.u64(self.brakes);
        h.u64(self.commands);
        h.f64(self.peak_watts);
        h.f64(self.mean_watts);
        for lat in &self.latencies {
            for q in quantiles(lat, &[0.5, 0.9, 0.99, 1.0]) {
                h.f64(q);
            }
        }
        if let Some((pdu, dc, site, brakes)) = &self.site {
            for &w in pdu.iter().chain(dc) {
                h.f64(w);
            }
            h.f64(*site);
            h.u64(*brakes);
        }
        for (name, body) in &self.artifacts {
            if !PINNED_ARTIFACTS.contains(name) {
                continue;
            }
            h.bytes(name.as_bytes());
            for line in body.lines().filter(|l| !l.contains("polca_prof_")) {
                h.bytes(line.as_bytes());
                h.bytes(b"\n");
            }
        }
        h.finish()
    }

    /// Conservation checks that hold for any seed: every due request
    /// was offered, each was completed, rejected or still in flight,
    /// and every completion has one finite latency.
    pub fn check(&self, due: u64) -> Result<(), String> {
        let offered = Outcome::total(&self.offered);
        if offered != due {
            return Err(format!("{offered} requests offered, {due} were due"));
        }
        let settled = Outcome::total(&self.completed) + Outcome::total(&self.rejected);
        if settled > offered {
            return Err(format!(
                "{settled} requests settled, only {offered} offered"
            ));
        }
        for p in 0..2 {
            if self.latencies[p].len() as u64 != self.completed[p] {
                return Err("latency samples do not match completions".into());
            }
        }
        if self
            .latencies
            .iter()
            .flatten()
            .any(|l| !l.is_finite() || *l < 0.0)
        {
            return Err("a latency is negative or not finite".into());
        }
        if !(self.peak_watts >= self.mean_watts && self.mean_watts > 0.0) {
            return Err(format!(
                "peak {} W below mean {} W",
                self.peak_watts, self.mean_watts
            ));
        }
        Ok(())
    }
}

/// One measured repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds to synthesize the inputs and construct the sim.
    pub setup_s: f64,
    /// The synthesis part of `setup_s`.
    pub synthesis_s: f64,
    /// Host seconds from the first event to the finished report.
    pub wall_s: f64,
    /// User plus system CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    pub requests: usize,
    pub inputs_digest: u64,
    pub outcome: Outcome,
}

impl Rep {
    pub fn digest(&self) -> u64 {
        self.outcome.digest()
    }
}

/// Synthesizes, builds and runs `spec` once, checking the outcome's
/// conservation laws.
pub fn run_rep<P: PowerController>(
    spec: &Spec,
    tracer: &mut Tracer,
    make: impl FnMut(usize) -> P,
) -> Result<Rep, String> {
    let t = Instant::now();
    let inputs = tracer.span(SETUP, "setup.synthesize", || synthesize(spec));
    let synthesis_s = t.elapsed().as_secs_f64();
    let (requests, inputs_digest, due) = (inputs.requests.len(), inputs.digest(), inputs.due());
    let sim_s = inputs.horizon.as_secs();
    let t = Instant::now();
    let sim = tracer.span(SETUP, "setup.construct", || {
        build(spec, Planes::of(spec.workload), inputs, make)
    });
    let setup_s = synthesis_s + t.elapsed().as_secs_f64();
    let cpu0 = host::cpu_s()?;
    let t = Instant::now();
    let outcome = sim.run(tracer);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_s()? - cpu0;
    outcome.check(due)?;
    Ok(Rep {
        setup_s,
        synthesis_s,
        wall_s,
        cpu_s,
        sim_s,
        requests,
        inputs_digest,
        outcome,
    })
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn smoke(workload: Workload, seed: u64, threads: usize) -> Spec {
        Spec {
            workload,
            seed,
            threads,
            smoke: true,
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = synthesize(&smoke(w, 17, 1));
            let b = synthesize(&smoke(w, 17, 1));
            let c = synthesize(&smoke(w, 42, 1));
            assert!(!a.requests.is_empty(), "{}", w.name());
            assert_eq!(a.requests, b.requests, "{}", w.name());
            assert_eq!(a.digest(), b.digest());
            assert_ne!(a.digest(), c.digest(), "{}", w.name());
        }
    }

    #[test]
    fn digests_are_stable_across_in_process_runs() {
        for w in Workload::ALL {
            let spec = smoke(w, 17, 1);
            let a = run_rep(&spec, &mut Tracer::off(), |_| polca()).unwrap();
            let b = run_rep(&spec, &mut Tracer::off(), |_| polca()).unwrap();
            assert_eq!(a.digest(), b.digest(), "{}", w.name());
            assert!(Outcome::total(&a.outcome.completed) > 0, "{}", w.name());
        }
    }

    #[test]
    fn site_digest_does_not_depend_on_the_thread_count() {
        let one = run_rep(&smoke(Workload::SiteDay, 17, 1), &mut Tracer::off(), |_| {
            polca()
        })
        .unwrap();
        let two = run_rep(&smoke(Workload::SiteDay, 17, 2), &mut Tracer::off(), |_| {
            polca()
        })
        .unwrap();
        assert_eq!(one.digest(), two.digest());
    }

    #[test]
    fn the_traced_run_reproduces_the_untraced_digest() {
        for w in Workload::ALL {
            let spec = smoke(w, 42, 2);
            let plain = run_rep(&spec, &mut Tracer::off(), |_| polca()).unwrap();
            let mut tracer = Tracer::on();
            let traced =
                run_rep(&spec, &mut tracer, |_| crate::spans::Timed::new(polca()).0).unwrap();
            assert_eq!(plain.digest(), traced.digest(), "{}", w.name());
            assert!(tracer.total_s(RUN) > 0.0);
        }
    }

    #[test]
    fn replay_obs_pins_its_rendered_artifacts() {
        let rep = run_rep(
            &smoke(Workload::ReplayObs, 17, 1),
            &mut Tracer::off(),
            |_| polca(),
        )
        .unwrap();
        let names: Vec<&str> = rep.outcome.artifacts.iter().map(|(n, _)| *n).collect();
        for pinned in PINNED_ARTIFACTS {
            assert!(names.contains(&pinned), "{pinned} missing from {names:?}");
        }
        let mut changed = rep.outcome.clone();
        let events = changed
            .artifacts
            .iter_mut()
            .find(|(n, _)| *n == "events.jsonl")
            .unwrap();
        events.1.push_str("{}\n");
        assert_ne!(changed.digest(), rep.digest());
        // Profiling series are wall-clock adjacent and stay out.
        let mut prof = rep.outcome.clone();
        let prom = prof
            .artifacts
            .iter_mut()
            .find(|(n, _)| *n == "metrics.prom")
            .unwrap();
        prom.1
            .push_str("polca_prof_phase_calls_total{phase=\"x\"} 1\n");
        assert_eq!(prof.digest(), rep.digest());
    }

    #[test]
    fn conservation_check_catches_a_lost_request() {
        let rep = run_rep(
            &smoke(Workload::ServeDay, 17, 1),
            &mut Tracer::off(),
            |_| polca(),
        )
        .unwrap();
        let due = Outcome::total(&rep.outcome.offered);
        assert!(rep.outcome.check(due).is_ok());
        assert!(rep.outcome.check(due + 1).is_err());
    }
}
