//! Orchestration. Every rep is a fresh child process (the binary
//! re-invoked as `child`), so each pays its own set-up and reports its
//! own peak RSS; children never run concurrently.
//!
//! * [`measure`] — one workload for a fixed time, the interface
//!   `BENCHMARK.json` describes (`--workload W --seed S --seconds N
//!   --trace 0|1`);
//! * [`run_set`] — every workload in rotating rounds plus a traced pass,
//!   written as a result file;
//! * [`compare`] — verdicts between two result files;
//! * [`repin`] — regenerates the pinned digests.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::{obj, Json};
use crate::layers::{self, TraceArgs, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{iqr, median, verdict, MetricDef, Verdict, END_TO_END};
use crate::workload::{polca, run_rep, Spec, Workload};

/// Fewest untraced reps a measurement takes, however short its budget.
const MIN_REPS: usize = 3;

/// Seeds whose digests are pinned.
pub const PINNED_SEEDS: [u64; 2] = [17, 42];

/// The pinned digests, compiled in so a run reads no files.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `repin` writes the pinned digests.
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// Where [`measure`] writes the traced pass's Chrome trace, relative to
/// the working directory.
const TRACE_DIR: &str = ".bench_out";

/// `site_day` runs at `min(2, nproc)` threads; everything else on one.
pub fn site_threads(w: Workload) -> usize {
    if w == Workload::SiteDay {
        host::nproc().min(2)
    } else {
        1
    }
}

/// The pinned digest of `w` at `seed`, if there is one.
pub fn pinned(seed: u64, w: Workload) -> Option<String> {
    Json::parse(EXPECTED)
        .ok()?
        .get(&seed.to_string())?
        .get(w.name())?
        .as_str()
        .map(str::to_string)
}

pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// The `child` subcommand: one rep (traced when `trace` is given),
/// reported as one JSON line.
pub fn child(spec: &Spec, trace: Option<(TraceArgs, PathBuf)>) -> ExitCode {
    let result = (|| -> Result<Json, String> {
        let (rep, layers) = match &trace {
            None => (run_rep(spec, &mut Tracer::off(), |_| polca())?, None),
            Some((args, path)) => {
                let t = layers::traced(spec, args)?;
                fs::write(path, t.tracer.chrome_json(spec.workload.name()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                (t.rep, Some(t.layers))
            }
        };
        // Read before the digest, whose sorting allocates.
        let peak_rss_mib = host::peak_rss_mib()?;
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("digest", hex(rep.digest()).into()),
            ("inputs_digest", hex(rep.inputs_digest).into()),
            ("requests", (rep.requests as f64).into()),
            ("brakes", (rep.outcome.brakes as f64).into()),
            ("wall_s", rep.wall_s.into()),
            ("sim_rate", (rep.sim_s / rep.wall_s).into()),
            ("cpu_s", rep.cpu_s.into()),
            ("setup_s", rep.setup_s.into()),
            ("peak_rss_mib", peak_rss_mib.into()),
        ];
        if let Some(layers) = layers {
            fields.push((
                "layers",
                obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
            ));
        }
        Ok(obj(fields))
    })();
    match result {
        Ok(j) => {
            println!("{}", j.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!(
                "{}",
                obj([("ok", Json::Bool(false)), ("error", e.into())]).render()
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs one child to completion and returns its report.
fn spawn(spec: &Spec, trace: Option<(TraceArgs, &Path)>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--threads", &spec.threads.to_string()]);
    if spec.smoke {
        cmd.arg("--smoke");
    }
    if let Some((args, path)) = trace {
        cmd.args(["--trace-wall", &args.wall_median.to_string()])
            .args(["--trace-wall-1t", &args.wall_1t.to_string()])
            .arg("--trace-out")
            .arg(path);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("child exited with {} and no report", out.status))?;
    if !out.status.success() || report.get("ok").and_then(Json::as_bool) != Some(true) {
        let why = report
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error given");
        return Err(format!("child exited with {}: {why}", out.status));
    }
    Ok(report)
}

/// The reps of one workload: samples, and the operations attempted and
/// failed. A failed operation is a child that panicked, broke a
/// conservation check, or reproduced another digest than the pinned
/// one (or, for an unpinned seed, than its first rep).
#[derive(Debug)]
struct Reps {
    spec: Spec,
    digest: Option<String>,
    inputs: Option<(f64, String)>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: usize,
    failed: usize,
}

impl Reps {
    fn new(spec: Spec) -> Reps {
        let digest = (!spec.smoke)
            .then(|| pinned(spec.seed, spec.workload))
            .flatten();
        Reps {
            spec,
            digest,
            inputs: None,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one child at `threads` and checks it; returns its report
    /// when it passed.
    fn attempt(&mut self, threads: usize, trace: Option<(TraceArgs, &Path)>) -> Option<Json> {
        self.attempted += 1;
        let spec = Spec {
            threads,
            ..self.spec
        };
        match spawn(&spec, trace).and_then(|r| self.check(r)) {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                eprintln!("{} seed {}: FAILED: {e}", spec.workload.name(), spec.seed);
                None
            }
        }
    }

    fn check(&mut self, r: Json) -> Result<Json, String> {
        let digest = r
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let inputs = (
            r.num_at("requests")?,
            r.get("inputs_digest")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        );
        match &self.digest {
            Some(want) if *want != digest => {
                return Err(format!("digest {digest}, expected {want}"));
            }
            Some(_) => {}
            None => self.digest = Some(digest),
        }
        match &self.inputs {
            Some(want) if *want != inputs => return Err("inputs differ between reps".into()),
            Some(_) => {}
            None => self.inputs = Some(inputs),
        }
        Ok(r)
    }

    /// One untraced rep at the workload's own thread count.
    fn rep(&mut self) {
        if let Some(r) = self.attempt(self.spec.threads, None) {
            for def in END_TO_END {
                if let Some(v) = r.get(def.name).and_then(Json::as_f64) {
                    self.samples.entry(def.name).or_default().push(v);
                }
            }
        }
    }

    fn wall_median(&self) -> Option<f64> {
        self.samples.get("wall_s").map(|v| median(v))
    }

    /// `site_day` only: one rep at the other thread count, which must
    /// reproduce the digest. Returns the one-thread wall time.
    fn cross_thread_check(&mut self) -> Option<f64> {
        let wall = self.wall_median()?;
        if self.spec.workload != Workload::SiteDay {
            return Some(wall);
        }
        let other = if self.spec.threads > 1 { 1 } else { 2 };
        let r = self.attempt(other, None)?;
        if other == 1 {
            r.num_at("wall_s").ok()
        } else {
            Some(wall)
        }
    }

    /// The traced pass; returns the per-layer metrics.
    fn traced(&mut self, wall_1t: f64, out: &Path) -> Option<BTreeMap<String, f64>> {
        let args = TraceArgs {
            wall_median: self.wall_median()?,
            wall_1t,
        };
        let r = self.attempt(self.spec.threads, Some((args, out)))?;
        let layers = r.get("layers")?.as_obj()?;
        Some(
            layers
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        )
    }
}

/// The `BENCHMARK.json` interface: measures `w` for about `seconds`
/// (at least [`MIN_REPS`] reps) and prints one JSON line with the
/// end-to-end metrics. With `trace`, it takes only [`MIN_REPS`] untraced reps —
/// enough for the untraced median the traced pass is compared with —
/// and prints the per-layer metrics of one traced pass instead.
pub fn measure(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let spec = Spec {
        workload: w,
        seed,
        threads: site_threads(w),
        smoke: false,
    };
    let mut reps = Reps::new(spec);
    let start = Instant::now();
    loop {
        reps.rep();
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.attempted as f64;
        if reps.attempted >= MIN_REPS && (trace || elapsed + per_rep > seconds) {
            break;
        }
    }
    let wall_1t = reps.cross_thread_check();
    let mut metrics = BTreeMap::new();
    if trace {
        let dir = Path::new(TRACE_DIR);
        let layers = match fs::create_dir_all(dir) {
            Ok(()) => wall_1t
                .and_then(|w1| reps.traced(w1, &dir.join(format!("trace_{}.json", w.name())))),
            Err(e) => {
                eprintln!("{TRACE_DIR}: {e}");
                None
            }
        };
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = layers.as_ref().and_then(|l| l.get(name)) {
                metrics.insert(name.to_string(), value(*v, unit));
            }
        }
    } else {
        for def in END_TO_END {
            if let Some(v) = reps.samples.get(def.name) {
                metrics.insert(def.name.to_string(), value(median(v), def.unit));
            }
        }
    }
    let complete = metrics.len()
        == if trace {
            PER_LAYER.len()
        } else {
            END_TO_END.len()
        };
    for (name, v) in &metrics {
        eprintln!("{} {name} = {}", w.name(), v.render());
    }
    let result = obj([
        ("correct", Json::Bool(reps.failed == 0 && complete)),
        ("attempted", (reps.attempted as f64).into()),
        ("failed", (reps.failed as f64).into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn value(v: f64, unit: &str) -> Json {
    obj([("value", Json::Num(v)), ("unit", unit.into())])
}

/// The full set: `rounds` rounds over every workload, each round
/// rotating the order so host drift spreads evenly, then the site's
/// cross-thread check and one traced pass per workload. Prints every
/// metric and writes `DIR/result.json` plus `DIR/trace_<workload>.json`.
pub fn run_set(seed: u64, rounds: usize, out: &Path, smoke: bool) -> ExitCode {
    if let Err(e) = fs::create_dir_all(out) {
        eprintln!("{}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let mut sets: Vec<Reps> = Workload::ALL
        .iter()
        .map(|&workload| {
            Reps::new(Spec {
                workload,
                seed,
                threads: site_threads(workload),
                smoke,
            })
        })
        .collect();
    for round in 0..rounds {
        for k in 0..sets.len() {
            let i = (k + round) % sets.len();
            sets[i].rep();
            eprintln!(
                "round {}/{rounds}: {} done",
                round + 1,
                sets[i].spec.workload.name()
            );
        }
    }
    let mut workloads = BTreeMap::new();
    for reps in &mut sets {
        let name = reps.spec.workload.name();
        let wall_1t = reps.cross_thread_check();
        let trace_path = out.join(format!("trace_{name}.json"));
        let layers = wall_1t
            .and_then(|w1| reps.traced(w1, &trace_path))
            .unwrap_or_default();
        workloads.insert(name.to_string(), workload_result(reps, &layers));
    }
    let attempted: usize = sets.iter().map(|r| r.attempted).sum();
    let failed: usize = sets.iter().map(|r| r.failed).sum();
    let result = obj([
        ("provenance", provenance(seed, rounds, smoke, &sets)),
        ("attempted_ops", (attempted as f64).into()),
        ("failed_ops", (failed as f64).into()),
        ("workloads", Json::Obj(workloads)),
    ]);
    print_result(&result);
    let path = out.join("result.json");
    if let Err(e) = fs::write(&path, result.render() + "\n") {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "failed_ops/attempted_ops: {failed}/{attempted}; wrote {}",
        path.display()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_result(reps: &Reps, layers: &BTreeMap<String, f64>) -> Json {
    let mut e2e = Vec::new();
    let mut samples = Vec::new();
    for def in END_TO_END {
        let Some(v) = reps.samples.get(def.name) else {
            continue;
        };
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
        e2e.push((
            def.name,
            obj([
                ("median", median(v).into()),
                ("min", lo.into()),
                ("max", hi.into()),
                ("unit", def.unit.into()),
            ]),
        ));
        samples.push((def.name, Json::from(v.clone())));
    }
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|&(name, unit, _)| Some((name, value(*layers.get(name)?, unit))));
    obj([
        ("digest", reps.digest.clone().unwrap_or_default().into()),
        ("attempted_ops", (reps.attempted as f64).into()),
        ("failed_ops", (reps.failed as f64).into()),
        ("samples", obj(samples)),
        ("end_to_end", obj(e2e)),
        ("per_layer", obj(per_layer)),
    ])
}

/// Which host, toolchain, code and inputs produced a result.
fn provenance(seed: u64, rounds: usize, smoke: bool, sets: &[Reps]) -> Json {
    let inputs = sets.iter().map(|r| {
        let (requests, digest) = r.inputs.clone().unwrap_or_default();
        (
            r.spec.workload.name(),
            obj([("requests", requests.into()), ("digest", digest.into())]),
        )
    });
    obj([
        ("nproc", (host::nproc() as f64).into()),
        ("rustc", host::first_line_of("rustc", &["-V"]).into()),
        (
            "git_rev",
            host::first_line_of("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("seed", (seed as f64).into()),
        ("reps", (rounds as f64).into()),
        (
            "site_day_threads",
            (site_threads(Workload::SiteDay) as f64).into(),
        ),
        ("smoke", smoke.into()),
        ("inputs", obj(inputs)),
    ])
}

/// Prints every metric by name with its unit: the end-to-end medians
/// with their range, then the per-layer values, one column per
/// workload.
fn print_result(result: &Json) {
    let workload = |w: Workload| result.get("workloads").and_then(|ws| ws.get(w.name()));
    println!(
        "{:<11} {:<13} {:>14} {:>14} {:>14}  unit (better)",
        "workload", "metric", "median", "min", "max"
    );
    for w in Workload::ALL {
        for def in END_TO_END {
            let Some(m) = workload(w).and_then(|r| r.get("end_to_end")?.get(def.name)) else {
                continue;
            };
            let n = |k| m.num_at(k).unwrap_or(f64::NAN);
            println!(
                "{:<11} {:<13} {:>14.6} {:>14.6} {:>14.6}  {} ({})",
                w.name(),
                def.name,
                n("median"),
                n("min"),
                n("max"),
                def.unit,
                def.better.tag()
            );
        }
    }
    print!("\n{:<26}", "per-layer metric (traced)");
    for w in Workload::ALL {
        print!(" {:>14}", w.name());
    }
    println!("  unit");
    for (name, unit, _) in PER_LAYER {
        print!("{name:<26}");
        for w in Workload::ALL {
            let v = workload(w).and_then(|r| r.get("per_layer")?.get(name)?.num_at("value").ok());
            print!(" {:>14.6}", v.unwrap_or(f64::NAN));
        }
        println!("  {unit}");
    }
}

/// Prints a verdict for every (end-to-end metric, workload) pair of two
/// result files, `parent` first. Fails when a file cannot be read.
pub fn compare(parent: &Path, change: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(parent), load(change)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<11} {:<13} {:>12} {:>12} {:>8} {:>9}  verdict",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for w in Workload::ALL {
        for def in END_TO_END {
            let samples = |r: &Json| -> Vec<f64> {
                r.get("workloads")
                    .and_then(|x| x.get(w.name()))
                    .and_then(|x| x.get("samples"))
                    .and_then(|x| x.get(def.name))
                    .map(|x| x.as_arr().iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default()
            };
            let (pa, pb) = (samples(&a), samples(&b));
            if pa.is_empty() || pb.is_empty() {
                println!("{:<11} {:<13} missing on one side", w.name(), def.name);
                *tally.entry("missing").or_default() += 1;
                continue;
            }
            let v = verdict(&def, &pa, &pb);
            *tally.entry(v.tag()).or_default() += 1;
            print_pair(w, &def, &pa, &pb, v);
        }
    }
    for (side, r) in [("parent", &a), ("change", &b)] {
        let n = |k| r.num_at(k).unwrap_or(f64::NAN);
        println!(
            "{side}: failed_ops/attempted_ops {}/{}",
            n("failed_ops"),
            n("attempted_ops")
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("pairs: {}", summary.join(", "));
    ExitCode::SUCCESS
}

fn print_pair(w: Workload, def: &MetricDef, pa: &[f64], pb: &[f64], v: Verdict) {
    let (ma, mb) = (median(pa), median(pb));
    let bound = (def.rel * ma).max(def.floor);
    println!(
        "{:<11} {:<13} {:>12.6} {:>12.6} {:>+7.2}% {:>8.2}%  {} (spread {:.2}% / {:.2}%)",
        w.name(),
        def.name,
        ma,
        mb,
        (mb / ma - 1.0) * 100.0,
        bound / ma * 100.0,
        v.tag(),
        iqr(pa) / ma * 100.0,
        iqr(pb) / mb * 100.0,
    );
}

/// Regenerates `expected.json`: the digest of every workload at each
/// pinned seed, with `site_day` required to agree at one and two
/// threads.
pub fn repin() -> ExitCode {
    let mut text = String::from("{\n");
    for (si, seed) in PINNED_SEEDS.iter().enumerate() {
        text.push_str(&format!("  \"{seed}\": {{\n"));
        for (wi, &w) in Workload::ALL.iter().enumerate() {
            let mut digests = Vec::new();
            let threads: &[usize] = if w == Workload::SiteDay {
                &[1, 2]
            } else {
                &[1]
            };
            for &t in threads {
                let spec = Spec {
                    workload: w,
                    seed: *seed,
                    threads: t,
                    smoke: false,
                };
                match spawn(&spec, None) {
                    Ok(r) => digests.push(
                        r.get("digest")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    ),
                    Err(e) => {
                        eprintln!("{} seed {seed}: {e}", w.name());
                        return ExitCode::FAILURE;
                    }
                }
            }
            if digests.iter().any(|d| *d != digests[0]) {
                eprintln!(
                    "{} seed {seed}: digest depends on the thread count: {digests:?}",
                    w.name()
                );
                return ExitCode::FAILURE;
            }
            let comma = if wi + 1 < Workload::ALL.len() {
                ","
            } else {
                ""
            };
            text.push_str(&format!(
                "    \"{}\": \"{}\"{comma}\n",
                w.name(),
                digests[0]
            ));
            eprintln!("{} seed {seed}: {}", w.name(), digests[0]);
        }
        let comma = if si + 1 < PINNED_SEEDS.len() { "," } else { "" };
        text.push_str(&format!("  }}{comma}\n"));
    }
    text.push_str("}\n");
    match fs::write(EXPECTED_PATH, text) {
        Ok(()) => {
            println!("wrote {EXPECTED_PATH}; rebuild to compile the new pins in");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{EXPECTED_PATH}: {e}");
            ExitCode::FAILURE
        }
    }
}
