//! Command-line interface for the polca toolkit.
//!
//! Five subcommands cover the workflows a capacity engineer needs:
//!
//! * `characterize` — profile one model/request shape on a simulated
//!   A100 group, optionally under a frequency lock or power cap (§4.2),
//! * `trace` — synthesize and summarize a production-shaped power trace
//!   (§6.4), optionally exporting the request stream as Azure-schema
//!   CSV,
//! * `ingest` — read an Azure-2024-style request log, report its
//!   statistics, and fit the generator's diurnal model to it,
//! * `evaluate` — run one policy at one oversubscription level and
//!   report latency/brake/SLO outcomes (§6.5–6.6), or replay an
//!   ingested trace through all four Figure 17 policies
//!   (`--trace-csv`),
//! * `plan` — sweep oversubscription levels and report the SLO-safe
//!   maximum (Figure 13's workflow),
//! * `profile` — self-profile the simulator with polca-prof on the
//!   quick-demo study and print the per-component attribution table.
//!
//! The parser is hand-rolled (`--flag value` pairs plus positional
//! arguments) to keep the dependency set minimal; [`parse_args`] is
//! exposed for testing. [`run`] rejects any flag its subcommand does
//! not read, and every numeric value a library constructor would
//! refuse is caught here as a [`CliError::BadValue`] first.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::time::Instant;

use polca::{
    CostModel, DisaggregationConfig, OversubscriptionStudy, PolcaPolicy, PolicyKind,
    TraceEvaluation,
};
use polca_cluster::{EngineKind, RowConfig, SiteConfig, SiteReport, SiteSim};
use polca_gpu::{Gpu, GpuSpec};
use polca_ingest::{
    requests_to_csv, IngestedTrace, ReplayOptions, TraceCalibration, TraceReplay, TraceStats,
};
use polca_llm::{InferenceConfig, InferenceModel, ModelSpec};
use polca_obs::{
    CarbonSignal, CarbonTrace, EnergyLedger, EnergyPlan, ObsLevel, ProfCounter, Recorder,
    ReqTraceConfig,
};
use polca_sim::{SimRng, SimTime};
use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
use polca_trace::replicate::production_reference;
use polca_trace::{ArrivalGenerator, DiurnalPattern, TraceConfig, WorkloadClass};
use polca_watch::{
    IncidentState, RuleSet, WatchArtifacts, WatchConfig, WatchEnergyConfig, WatchPlane,
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand name.
    pub command: String,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Arguments that are not `--flag value` pairs (e.g. the CSV path
    /// in `polca-cli ingest trace.csv`), in order.
    pub positionals: Vec<String>,
}

/// Errors surfaced to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A flag the subcommand does not read.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The flag, without its leading `--`.
        flag: String,
    },
    /// A `--flag` had no value.
    MissingValue(String),
    /// A value failed to parse or lies outside what the flag accepts.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
    },
    /// Unknown model name.
    UnknownModel(String),
    /// Writing observability artifacts failed.
    Io(String),
    /// Reading, calibrating, or replaying a trace CSV failed.
    Ingest(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand; try `polca-cli help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "`{command}` has no flag `--{flag}`")
            }
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for `--{flag}`")
            }
            CliError::UnknownModel(m) => write!(f, "unknown model `{m}`; see `tab03_model_zoo`"),
            CliError::Io(e) => write!(f, "cannot write artifacts: {e}"),
            CliError::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `argv[1..]` into an [`Invocation`].
///
/// # Errors
///
/// Returns [`CliError`] when no subcommand is present or a flag is
/// missing its value.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, CliError> {
    /// Flags that take no value; their presence stores `"true"`.
    const BOOL_FLAGS: &[&str] = &[
        "watch",
        "enforce-budgets",
        "profile",
        "split-pools",
        "req-trace",
        "carbon-diurnal",
    ];
    let mut iter = args.into_iter();
    let command = iter.next().ok_or(CliError::MissingCommand)?;
    let mut options = HashMap::new();
    let mut positionals = Vec::new();
    let mut pending: Option<String> = None;
    for arg in iter {
        match pending.take() {
            Some(flag) => {
                options.insert(flag, arg);
            }
            None if arg.starts_with("--") => {
                let flag = arg.trim_start_matches("--").to_string();
                if BOOL_FLAGS.contains(&flag.as_str()) {
                    options.insert(flag, "true".to_string());
                } else {
                    pending = Some(flag);
                }
            }
            None => positionals.push(arg),
        }
    }
    if let Some(flag) = pending {
        return Err(CliError::MissingValue(flag));
    }
    Ok(Invocation {
        command,
        options,
        positionals,
    })
}

impl Invocation {
    /// Reads an option with a default, parsing it as `T`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] on parse failure.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.options.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Reads an optional option, parsing it as `T`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] on parse failure.
    pub fn get_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.options.get(flag) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| CliError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Reads an option with a default like [`get`](Self::get), and
    /// also rejects a given value that `valid` refuses.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] on parse failure or an invalid
    /// value.
    fn get_valid<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, CliError> {
        Ok(self.get_opt_valid(flag, valid)?.unwrap_or(default))
    }

    /// Reads an optional option like [`get_opt`](Self::get_opt), and
    /// also rejects a value that `valid` refuses.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] on parse failure or an invalid
    /// value.
    fn get_opt_valid<T: std::str::FromStr>(
        &self,
        flag: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        match self.get_opt(flag)? {
            Some(v) if !valid(&v) => Err(CliError::BadValue {
                flag: flag.to_string(),
                value: self.options[flag].clone(),
            }),
            v => Ok(v),
        }
    }
}

/// Valid durations and scale factors: finite and above zero.
fn positive(x: &f64) -> bool {
    x.is_finite() && *x > 0.0
}

/// Valid added-server, oversubscription, and noise amounts: finite and
/// not below zero.
fn non_negative(x: &f64) -> bool {
    x.is_finite() && *x >= 0.0
}

/// Resolves a model by (case-insensitive) name.
pub fn find_model(name: &str) -> Result<ModelSpec, CliError> {
    ModelSpec::all()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::UnknownModel(name.to_string()))
}

/// Parses `--engine legacy|batched` plus `--split-pools` into the row
/// serving engine. The batched configuration reuses the §5.2
/// disaggregation constants (interconnect bandwidth, token-pool
/// clock) from [`DisaggregationConfig`].
fn parse_engine(inv: &Invocation) -> Result<EngineKind, CliError> {
    let name: String = inv.get("engine", "legacy".to_string())?;
    let split = inv.options.contains_key("split-pools");
    match name.to_ascii_lowercase().as_str() {
        "legacy" => {
            if split {
                return Err(CliError::BadValue {
                    flag: "split-pools".into(),
                    value: "requires --engine batched".into(),
                });
            }
            Ok(EngineKind::Legacy)
        }
        "batched" => Ok(DisaggregationConfig::default().batched_engine(split)),
        other => Err(CliError::BadValue {
            flag: "engine".into(),
            value: other.to_string(),
        }),
    }
}

/// Human-readable tag for the engine in run headers.
fn engine_tag(engine: &EngineKind) -> &'static str {
    match engine {
        EngineKind::Legacy => "legacy",
        EngineKind::Batched(cfg) if cfg.pools.is_split() => "batched/split-pools",
        EngineKind::Batched(_) => "batched",
    }
}

/// Resolves a policy by name.
pub fn find_policy(name: &str) -> Result<PolicyKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "polca" => Ok(PolicyKind::Polca),
        "1t-lp" | "one-thresh-low-pri" => Ok(PolicyKind::OneThreshLowPri),
        "1t-all" | "one-thresh-all" => Ok(PolicyKind::OneThreshAll),
        "nocap" | "no-cap" => Ok(PolicyKind::NoCap),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The help text.
pub const HELP: &str = "\
polca-cli — power management for LLM clusters (ASPLOS'24 reproduction)

USAGE: polca-cli <command> [--flag value]...

COMMANDS
  characterize  profile one request shape on a simulated A100 group
                --model BLOOM --input 2048 --output 256 --batch 1
                [--lock MHZ] [--cap WATTS]
  trace         synthesize a production-shaped power trace
                [--days 1] [--seed 17]
                [--csv-out FILE] export the request stream as
                Azure-schema CSV; generation knobs: [--rate REQ_S]
                [--amplitude 0.25] [--peak-hour 14] [--noise 0.05]
                [--bursts-per-day 6]
  ingest        read an Azure-2024-style request log (CSV), report its
                statistics, and fit the synthetic generator to it
                polca-cli ingest trace.csv  (or --csv trace.csv)
                [--seed 17] [--extrapolate-days 42]
  evaluate      run one policy at one oversubscription level
                [--policy polca|1t-lp|1t-all|nocap] [--added 30]
                [--days 2] [--seed 17] [--power-scale 1.0]
                [--obs-out DIR] [--obs-level off|metrics|events|full]
                (--obs-out writes events.jsonl, metrics.json,
                 metrics.prom, power.csv, latency.csv, trace.json —
                 open trace.json in Perfetto; at the full level also
                 prof.json, prof.folded, prof.trace.json)
                [--engine legacy|batched] row serving engine: the
                default legacy whole-request model (§6.6), or the
                polca-serve continuous-batching engine (iteration-level
                scheduling, paged KV-cache, chunked prefill);
                [--split-pools] with the batched engine runs
                disaggregated prefill/decode pools (§5.2) with KV
                transfer over the interconnect
                [--profile] print the polca-prof attribution table for
                the run (forces obs level full)
                [--req-trace] trace every request's lifecycle with
                polca-req: TTFT/TBT/queue-time histograms per priority
                class land in metrics.prom, and per-request records
                (phase breakdown, preemption/recompute episodes, KV
                hops, joules and joules-per-token) land in
                requests.jsonl plus per-request lanes in trace.json
                (forces obs level >= events)
                [--req-sample N] keep every Nth request record in
                requests.jsonl (histograms still see all requests;
                implies --req-trace)
                [--carbon-trace FILE | --carbon-diurnal] attach the
                polca-energy ledger: trapezoid-integrate ground-truth
                power into Wh / gCO2e rollups per row, PDU, datacenter,
                and site, per priority class, and per prefill/decode
                pool, and print the per-datacenter ledger table; the
                grid carbon-intensity signal comes from a CSV
                (hour,carbon_g_per_kwh; sample-and-hold, wraps) or the
                built-in diurnal model; with --obs-out also writes
                energy.json + energy.csv, energy_*/carbon_* gauges in
                metrics.prom, and counter lanes in trace.json
                [--pue X[,Y,...]] per-datacenter PUE table (default
                1.25; implies --carbon-diurnal when no signal is given)
                [--carbon-budget G_PER_H] / [--carbon-per-token G]
                with --watch, arm the built-in carbon-budget-burn /
                co2e-per-token-high rules on the delayed OOB feed
                [--watch] run the online alerting/incident plane on the
                delayed OOB telemetry (forces obs level >= events; with
                --obs-out also writes incidents.jsonl, report.md, and
                alert markers merged into trace.json)
                [--watch-rules FILE] override the built-in alert rules
                [--rows N] simulate a multi-row fleet (round-robin
                dispatch under per-PDU, datacenter, and site power
                budgets) and print the per-row + aggregate table;
                --rows sizes one *datacenter*, no longer the top of
                the hierarchy — [--datacenters D] simulates a
                D-datacenter site of N rows each;
                [--rows-per-pdu 2] sets the PDU fan-in,
                [--enforce-budgets] brakes every row behind an
                overloaded PDU, datacenter, or site,
                [--fleet-threads K] steps rows on K threads, each
                owning a chunk of rows (0 = all cores); artifacts are
                byte-identical whatever K is;
                [--site-budget-mw X] caps the site at X megawatts,
                [--oversub-dc PCT] / [--oversub-site PCT] derive the
                datacenter / site budget from an oversubscription
                percentage (budget = provisioned / (1 + PCT/100));
                with --obs-out, site artifacts land in DIR/, each
                row's in DIR/rowN/ (global row index), and with
                --watch each datacenter's incident set in DIR/dcD/
                [--jobs N] worker threads for multi-cell runs (the
                four-policy --trace-csv panel); artifacts and tables
                are byte-identical whatever N is
                with --trace-csv FILE: replay an ingested trace through
                all four Figure 17 policies instead of synthesizing;
                [--rate-scale 1.0] [--time-scale 1.0] [--servers 40]
                [--added 30] (--rows N / --datacenters D replays the
                stream across a site fleet under one policy instead;
                all site flags above apply)
  plan          find the SLO-safe oversubscription maximum
                [--days 2] [--seed 17] [--servers 40] [--jobs N]
  profile       self-profile the simulator (polca-prof) on the
                quick-demo study and print the per-component
                attribution table
                [--seed 17] [--reps 3] best-of-N timing repetitions
                [--out DIR] write the full obs artifact set including
                prof.json, prof.folded (load in speedscope), and
                prof.trace.json (open in Perfetto)
                (simulator speed is measured by polca-benchmark; see
                benchmark/README.md)
  help          print this text
";

/// A subcommand's entry point.
type Handler = fn(&Invocation) -> Result<(), CliError>;

/// Every subcommand with its entry point and the flags it reads (the
/// ones [`HELP`] documents), space-separated.
const COMMANDS: &[(&str, Handler, &str)] = &[
    (
        "characterize",
        characterize,
        "model input output batch lock cap",
    ),
    (
        "trace",
        trace,
        "days seed csv-out rate amplitude peak-hour noise bursts-per-day",
    ),
    ("ingest", ingest, "csv seed extrapolate-days"),
    (
        "evaluate",
        evaluate,
        "policy added days seed power-scale obs-out obs-level engine split-pools profile \
         req-trace req-sample carbon-trace carbon-diurnal pue carbon-budget carbon-per-token \
         watch watch-rules rows datacenters rows-per-pdu enforce-budgets fleet-threads \
         site-budget-mw oversub-dc oversub-site jobs trace-csv rate-scale time-scale servers",
    ),
    ("plan", plan, "days seed servers jobs"),
    ("profile", profile, "seed reps out"),
];

/// Runs an invocation, writing human-readable output to stdout.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, flags the command does not
/// read, or malformed values.
pub fn run(inv: &Invocation) -> Result<(), CliError> {
    if matches!(inv.command.as_str(), "help" | "--help" | "-h") {
        print!("{HELP}");
        return Ok(());
    }
    let &(command, handler, flags) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == inv.command)
        .ok_or_else(|| CliError::UnknownCommand(inv.command.clone()))?;
    // The smallest unknown flag, so the error does not depend on the
    // option map's iteration order.
    if let Some(flag) = inv
        .options
        .keys()
        .filter(|f| !flags.split_whitespace().any(|known| known == f.as_str()))
        .min()
    {
        return Err(CliError::UnknownFlag {
            command: command.to_string(),
            flag: flag.clone(),
        });
    }
    handler(inv)
}

fn characterize(inv: &Invocation) -> Result<(), CliError> {
    let model_name: String = inv.get("model", "BLOOM".to_string())?;
    let model = find_model(&model_name)?;
    let input: u32 = inv.get_valid("input", 2048, |n| *n > 0)?;
    let output: u32 = inv.get_valid("output", 256, |n| *n > 0)?;
    let batch: u32 = inv.get_valid("batch", 1, |n| *n > 0)?;
    let lock: Option<f64> = inv.get_opt("lock")?;
    let cap: Option<f64> = inv.get_opt("cap")?;

    let deployment = InferenceModel::new(model, GpuSpec::a100_80gb())
        .expect("zoo models fit their Table 3 allocations");
    let cfg = InferenceConfig::new(input, output, batch);
    let profile = deployment.profile(&cfg);
    let mut gpu = Gpu::new(GpuSpec::a100_80gb());
    if let Some(mhz) = lock {
        gpu.lock_clock(mhz).map_err(|_| CliError::BadValue {
            flag: "lock".into(),
            value: mhz.to_string(),
        })?;
    }
    if let Some(watts) = cap {
        gpu.set_power_cap(watts).map_err(|_| CliError::BadValue {
            flag: "cap".into(),
            value: watts.to_string(),
        })?;
    }
    let series = deployment.power_series(&cfg, 1, &mut gpu, 0.05);
    let tdp = gpu.spec().tdp_watts;
    println!(
        "{} on {} × {}:",
        deployment.model().name,
        deployment.n_gpus(),
        gpu.spec().name
    );
    println!(
        "  prompt {:>6.2}s at {:.2}/TDP | token {:>7.2}s at {:.2}/TDP",
        profile.prompt.duration_s,
        gpu.power_at(profile.prompt.intensity) / tdp,
        profile.token.duration_s,
        gpu.power_at(profile.token.intensity) / tdp
    );
    println!(
        "  run {:.1}s  peak {:.2}/TDP  mean {:.2}/TDP",
        series.times().last().unwrap_or(&0.0),
        series.peak().unwrap_or(0.0) / tdp,
        series.mean().unwrap_or(0.0) / tdp
    );
    Ok(())
}

fn trace(inv: &Invocation) -> Result<(), CliError> {
    let days: f64 = inv.get_valid("days", 1.0, positive)?;
    let seed: u64 = inv.get("seed", 17)?;
    if let Some(path) = inv.get_opt::<String>("csv-out")? {
        return trace_csv_out(inv, &path, days, seed);
    }
    let row = RowConfig::paper_inference_row();
    let profile = production_reference(&row, days, 2.0, seed);
    let provisioned = row.provisioned_watts();
    println!("production-shaped trace, {days} day(s), seed {seed}:");
    println!(
        "  peak {:.1}%  mean {:.1}%  trough {:.1}% of {:.0} kW provisioned",
        profile.peak().unwrap() / provisioned * 100.0,
        profile.mean().unwrap() / provisioned * 100.0,
        profile.trough().unwrap() / provisioned * 100.0,
        provisioned / 1000.0
    );
    println!(
        "  max rise in 2s {:.1}%, in 40s {:.1}%",
        profile.max_rise_within(2.0).unwrap() / provisioned * 100.0,
        profile.max_rise_within(40.0).unwrap() / provisioned * 100.0
    );
    Ok(())
}

/// RNG stream for the `trace --csv-out` schedule synthesis; fixed so a
/// given seed always exports the same CSV (this is how the bundled
/// `tests/golden/sample_trace.csv` was produced).
const CSV_OUT_STREAM: u64 = 0xC5F0;

fn trace_csv_out(inv: &Invocation, path: &str, days: f64, seed: u64) -> Result<(), CliError> {
    let pattern = DiurnalPattern {
        base_rate: inv.get_valid("rate", DiurnalPattern::default().base_rate, non_negative)?,
        daily_amplitude: inv.get("amplitude", DiurnalPattern::default().daily_amplitude)?,
        peak_hour: inv.get("peak-hour", DiurnalPattern::default().peak_hour)?,
        short_term_noise: inv.get_valid(
            "noise",
            DiurnalPattern::default().short_term_noise,
            non_negative,
        )?,
        bursts_per_day: inv.get("bursts-per-day", DiurnalPattern::default().bursts_per_day)?,
        ..DiurnalPattern::default()
    };
    let horizon = SimTime::from_days(days);
    let mut rng = SimRng::from_seed_stream(seed, CSV_OUT_STREAM);
    let config = TraceConfig {
        seed,
        horizon,
        schedule: pattern.schedule(horizon.as_secs(), 60.0, &mut rng),
        mix: WorkloadClass::table6(),
    };
    let requests: Vec<_> = ArrivalGenerator::new(&config).collect();
    let csv = requests_to_csv(&requests);
    std::fs::write(path, &csv).map_err(|e| CliError::Io(e.to_string()))?;
    println!(
        "wrote {} requests over {days} day(s) (seed {seed}, base rate {:.2} req/s) to {path}",
        requests.len(),
        pattern.base_rate
    );
    Ok(())
}

fn ingest(inv: &Invocation) -> Result<(), CliError> {
    let path = inv
        .positionals
        .first()
        .cloned()
        .or_else(|| inv.options.get("csv").cloned())
        .ok_or_else(|| CliError::Ingest("usage: polca-cli ingest <trace.csv>".into()))?;
    let seed: u64 = inv.get("seed", 17)?;
    let days: f64 = inv.get_valid("extrapolate-days", 42.0, positive)?;
    let trace = IngestedTrace::from_csv_path(Path::new(&path))
        .map_err(|e| CliError::Ingest(e.to_string()))?;
    println!("ingested {path}:");
    if trace.skipped_rows() > 0 {
        println!(
            "  skipped {} malformed row(s); first: {}",
            trace.skipped_rows(),
            trace
                .row_errors()
                .first()
                .map(String::as_str)
                .unwrap_or("?")
        );
    }
    let stats = TraceStats::from_trace(&trace).map_err(|e| CliError::Ingest(e.to_string()))?;
    print!("{}", stats.report());
    let calibration = TraceCalibration::fit_with_stats(&trace, &stats)
        .map_err(|e| CliError::Ingest(e.to_string()))?;
    print!("{}", calibration.report());
    let config = calibration.trace_config(seed, SimTime::from_days(days));
    println!(
        "  extrapolated schedule: {days:.1} day(s), mean {:.3} req/s, max {:.3} req/s",
        config.schedule.mean_rate(),
        config.schedule.max_rate()
    );
    Ok(())
}

/// Parses `--req-trace` / `--req-sample N` into the polca-req
/// configuration. `--req-sample` alone implies tracing; the stride is
/// floored at 1 so `--req-sample 0` means "keep everything".
fn parse_req_trace(inv: &Invocation) -> Result<Option<ReqTraceConfig>, CliError> {
    let sample: Option<u64> = inv.get_opt("req-sample")?;
    if !inv.options.contains_key("req-trace") && sample.is_none() {
        return Ok(None);
    }
    Ok(Some(ReqTraceConfig {
        sample: sample.unwrap_or(1).max(1),
    }))
}

/// Builds the run recorder, attaching the polca-req trace config and
/// the polca-energy plan when requested.
fn build_recorder(
    obs_level: ObsLevel,
    req: Option<ReqTraceConfig>,
    energy: Option<EnergyPlan>,
) -> Recorder {
    let mut recorder = Recorder::new(obs_level);
    if let Some(cfg) = req {
        recorder = recorder.with_req_trace(cfg);
    }
    if let Some(plan) = energy {
        recorder = recorder.with_energy(plan);
    }
    recorder
}

/// Parses `--carbon-trace CSV | --carbon-diurnal [--pue X[,Y,…]]` into
/// the polca-energy plan. `--pue` alone implies the built-in diurnal
/// grid signal (like `--req-sample` implies `--req-trace`); a
/// comma-separated `--pue` list sets per-datacenter PUEs, clamped to
/// the last entry for higher datacenter indices.
fn parse_energy(inv: &Invocation) -> Result<Option<EnergyPlan>, CliError> {
    let trace_path = inv.options.get("carbon-trace");
    let diurnal = inv.options.contains_key("carbon-diurnal");
    let pue_raw = inv.options.get("pue");
    if trace_path.is_none() && !diurnal && pue_raw.is_none() {
        return Ok(None);
    }
    let signal = match trace_path {
        Some(path) => {
            if diurnal {
                return Err(CliError::BadValue {
                    flag: "carbon-diurnal".into(),
                    value: "conflicts with --carbon-trace".into(),
                });
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            let trace = CarbonTrace::from_csv_str(&text).map_err(|e| CliError::BadValue {
                flag: "carbon-trace".into(),
                value: e.to_string(),
            })?;
            CarbonSignal::Trace(trace)
        }
        None => CarbonSignal::diurnal_default(),
    };
    let mut plan = EnergyPlan::new(signal);
    if let Some(raw) = pue_raw {
        let pue: Vec<f64> = raw
            .split(',')
            .map(|p| p.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| CliError::BadValue {
                flag: "pue".into(),
                value: raw.clone(),
            })?;
        if pue.is_empty() || pue.iter().any(|p| !p.is_finite() || *p < 1.0) {
            return Err(CliError::BadValue {
                flag: "pue".into(),
                value: raw.clone(),
            });
        }
        plan = plan.with_pue(&pue);
    }
    Ok(Some(plan))
}

/// Prints the per-datacenter energy/carbon ledger table for a finished
/// run, if an energy plan was attached and produced any rows.
fn print_energy_summary(recorder: &Recorder, completed: u64, indent: &str) {
    let run = recorder.artifacts();
    let ledger = run.energy_ledger();
    if ledger.is_empty() {
        return;
    }
    print_energy_ledger(&ledger, completed, indent);
}

/// The ledger table itself (split out so the fleet path can print from
/// an explicitly merged ledger).
fn print_energy_ledger(ledger: &EnergyLedger, completed: u64, indent: &str) {
    println!(
        "{indent}energy ledger (grid mean {:.0} gCO2e/kWh):",
        ledger.mean_g_per_kwh()
    );
    println!(
        "{indent}  {:<6} {:>5} {:>10} {:>12} {:>10} {:>10}",
        "dc", "pue", "IT Wh", "facility Wh", "gCO2e", "rows"
    );
    for &(dc, ref level, pue) in &ledger.datacenters {
        let rows = ledger.rows.iter().filter(|r| r.dc == dc).count();
        println!(
            "{indent}  {:<6} {:>5.2} {:>10.1} {:>12.1} {:>10.1} {:>10}",
            dc, pue, level.it_wh, level.facility_wh, level.co2e_g, rows
        );
    }
    let site = &ledger.site;
    println!(
        "{indent}  site: {:.1} IT Wh ({:.1} busy), {:.1} facility Wh, {:.1} gCO2e",
        site.it_wh, site.busy_wh, site.facility_wh, site.co2e_g
    );
    if site.tokens > 0 {
        println!(
            "{indent}  per token: {:.2} J (busy {:.2} J), {:.4} gCO2e over {} token(s)",
            site.joules_per_token(),
            site.busy_wh * 3600.0 / site.tokens as f64,
            site.co2e_g_per_token(),
            site.tokens
        );
    }
    if completed > 0 {
        println!(
            "{indent}  per request: {:.2} Wh facility (measured, supersedes the \
             utilization-model estimate) over {completed} completed",
            CostModel::default()
                .energy_per_request_wh_measured(ledger, completed)
                .unwrap_or(0.0)
        );
    }
}

/// One-line digest of a finished req-trace run.
fn print_req_summary(recorder: &Recorder, indent: &str) {
    let run = recorder.artifacts();
    if !run.req_trace {
        return;
    }
    let n = run.requests.len();
    if n == 0 {
        println!("{indent}req-trace: 0 request record(s) sampled");
        return;
    }
    let joules: f64 = run.requests.iter().map(|r| r.joules).sum();
    let tokens: f64 = run
        .requests
        .iter()
        .map(|r| f64::from(r.output_tokens.max(1)))
        .sum();
    println!(
        "{indent}req-trace: {n} request record(s) sampled, \
         {:.1} J/request, {:.2} J/token (busy power, sampled set)",
        joules / n as f64,
        joules / tokens
    );
}

/// Builds the watch plane when `--watch` was given, loading
/// `--watch-rules` if present. When an energy plan is active and a
/// carbon threshold (`--carbon-budget` gCO2e/h or `--carbon-per-token`
/// gCO2e) was supplied, the built-in carbon rules ride along on the
/// same delayed OOB feed.
fn build_watch_plane(
    inv: &Invocation,
    provisioned_watts: f64,
    energy: Option<&EnergyPlan>,
) -> Result<Option<WatchPlane>, CliError> {
    if !inv.options.contains_key("watch") {
        return Ok(None);
    }
    let mut cfg = WatchConfig::new(provisioned_watts);
    if let Some(path) = inv.options.get("watch-rules") {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        cfg.rules = RuleSet::parse(&text).map_err(|e| CliError::BadValue {
            flag: "watch-rules".into(),
            value: e.to_string(),
        })?;
    }
    if let Some(plan) = energy {
        let budget: Option<f64> = inv.get_opt("carbon-budget")?;
        let per_token: Option<f64> = inv.get_opt("carbon-per-token")?;
        if budget.is_some() || per_token.is_some() {
            cfg = cfg.with_energy(WatchEnergyConfig {
                signal: plan.signal.clone(),
                pue: plan.pue_for_dc(),
                budget_g_per_h: budget.unwrap_or(f64::INFINITY),
                co2e_per_token_g: per_token.unwrap_or(f64::INFINITY),
                window_s: 600.0,
            });
        }
    }
    Ok(Some(WatchPlane::new(cfg)))
}

/// One-line digest of a finished watch run, plus a line per incident.
fn print_watch_summary(artifacts: &WatchArtifacts, indent: &str) {
    let unresolved = artifacts
        .incidents()
        .iter()
        .filter(|i| i.state != IncidentState::Resolved)
        .count();
    println!(
        "{indent}watch: {} alert(s), {} incident(s) ({unresolved} unresolved at end of run)",
        artifacts.alerts().len(),
        artifacts.incidents().len(),
    );
    for inc in artifacts.incidents() {
        let lag = match inc.detection_lag_s {
            Some(lag) => format!("{lag:.1}s detection lag"),
            None => "onset unknown".to_string(),
        };
        println!(
            "{indent}  #{} {} [{}] {} — {lag}",
            inc.id,
            inc.rule,
            inc.severity,
            inc.state.tag(),
        );
    }
}

/// Writes `incidents.jsonl` + `report.md` into `dir` and re-renders
/// `trace.json` with the watch plane's alert/incident instant markers.
fn write_watch_artifacts(
    recorder: &Recorder,
    artifacts: &WatchArtifacts,
    dir: &str,
) -> Result<(), CliError> {
    let dir_path = Path::new(dir);
    let files = artifacts
        .write_dir(dir_path)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let run = recorder.artifacts();
    let annotated = run.level.events_enabled();
    if annotated {
        std::fs::write(
            dir_path.join("trace.json"),
            run.chrome_trace_json_with(&artifacts.annotations()),
        )
        .map_err(|e| CliError::Io(e.to_string()))?;
    }
    println!(
        "  watch artifacts: {} file(s) in {}/{}",
        files.len(),
        dir.trim_end_matches('/'),
        if annotated {
            " (alert markers merged into trace.json)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Flags that, when present, show the caller is aware of the site
/// level; their absence on a multi-row run triggers the
/// compatibility note in [`parse_site_config`].
const SITE_FLAGS: &[&str] = &[
    "datacenters",
    "fleet-threads",
    "site-budget-mw",
    "oversub-dc",
    "oversub-site",
];

/// Parses the site-shape flags shared by the synthetic and
/// trace-replay fleet paths into a [`SiteConfig`] (shape, budgets, and
/// threading; the caller fills `base`). `--fleet-threads 0` means
/// "all cores".
fn parse_site_config(
    inv: &Invocation,
    rows: usize,
    datacenters: usize,
) -> Result<SiteConfig, CliError> {
    if datacenters == 0 {
        return Err(CliError::BadValue {
            flag: "datacenters".into(),
            value: "0".into(),
        });
    }
    if rows == 0 {
        return Err(CliError::BadValue {
            flag: "rows".into(),
            value: "0".into(),
        });
    }
    let mut site = SiteConfig {
        datacenters,
        rows_per_datacenter: rows,
        rows_per_pdu: inv.get_valid("rows-per-pdu", 2, |n| *n > 0)?,
        enforce_budgets: inv.options.contains_key("enforce-budgets"),
        ..SiteConfig::default()
    };
    let threads: usize = inv.get("fleet-threads", 1)?;
    site.threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    if let Some(mw) = inv.get_opt::<f64>("site-budget-mw")? {
        site.site_budget_watts = Some(mw * 1e6);
    }
    if let Some(pct) = inv.get_opt_valid("oversub-dc", non_negative)? {
        site.datacenter_oversubscription = Some(pct / 100.0);
    }
    if let Some(pct) = inv.get_opt_valid("oversub-site", non_negative)? {
        site.site_oversubscription = Some(pct / 100.0);
    }
    if rows > 1 && datacenters == 1 && !SITE_FLAGS.iter().any(|f| inv.options.contains_key(*f)) {
        println!(
            "note: --rows now sizes one datacenter, not the whole hierarchy; \
             defaulting to a 1-datacenter site (add --datacenters N to scale out)"
        );
    }
    Ok(site)
}

/// Prints the site table: one line per row, an aggregate line, the
/// PDU budget summary, and one line per datacenter (plus the site
/// line when the site level is active).
fn print_site_table(report: &SiteReport, site_active: bool) {
    println!(
        "  {:<6} {:>8} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "row", "offered", "completed", "rejected", "peak kW", "mean kW", "brakes"
    );
    for (i, r) in report.rows.iter().enumerate() {
        println!(
            "  {:<6} {:>8} {:>10} {:>9} {:>9.1} {:>9.1} {:>7}",
            i,
            r.offered,
            r.completed,
            r.rejected,
            r.peak_row_watts / 1000.0,
            r.mean_row_watts / 1000.0,
            r.brake_engagements
        );
    }
    println!(
        "  {:<6} {:>8} {:>10} {:>9} {:>9.1} {:>9.1} {:>7}",
        "fleet",
        report.offered(),
        report.completed(),
        report.rejected(),
        report.site_peak_watts / 1000.0,
        report.mean_site_watts() / 1000.0,
        report.fleet_brake_engagements
    );
    for (pdu, (&peak, &budget)) in report
        .pdu_peak_watts
        .iter()
        .zip(&report.pdu_budget_watts)
        .enumerate()
    {
        println!(
            "  PDU {pdu}: peak {:.1} kW / budget {:.1} kW",
            peak / 1000.0,
            budget / 1000.0
        );
    }
    if report.datacenters == 1 {
        println!(
            "  datacenter: peak {:.1} kW / budget {:.1} kW (util {:.1}%), \
             {} PDU / {} datacenter violation sample(s)",
            report.datacenter_peak_watts[0] / 1000.0,
            report.datacenter_budget_watts / 1000.0,
            report.datacenter_peak_utilization(0) * 100.0,
            report.pdu_violation_samples,
            report.datacenter_violation_samples
        );
    } else {
        for d in 0..report.datacenters {
            println!(
                "  datacenter {d}: peak {:.1} kW / budget {:.1} kW (util {:.1}%)",
                report.datacenter_peak_watts[d] / 1000.0,
                report.datacenter_budget_watts / 1000.0,
                report.datacenter_peak_utilization(d) * 100.0
            );
        }
    }
    if site_active {
        println!(
            "  site: peak {:.2} MW / budget {:.2} MW (util {:.1}%), \
             {} PDU / {} datacenter / {} site violation sample(s)",
            report.site_peak_watts / 1e6,
            report.site_budget_watts / 1e6,
            report.site_peak_utilization() * 100.0,
            report.pdu_violation_samples,
            report.datacenter_violation_samples,
            report.site_violation_samples
        );
    }
}

/// Writes the site-level artifacts into `dir` and each row's
/// artifacts into `dir/rowN/` (global row index, flat across
/// datacenters).
///
/// Each row's `prof.json` lands in its own `rowN/` directory, and the
/// site-level `prof.json` aggregates every row's profile (plus the
/// window loop's own merge and power-aggregation phases) so one file
/// answers "where did the whole site run spend its time".
fn write_site_artifacts(
    recorder: &Recorder,
    report: &SiteReport,
    dir: &str,
    obs_level: ObsLevel,
) -> Result<(), CliError> {
    let dir_path = Path::new(dir);
    for rec in &report.row_recorders {
        recorder.absorb_profiling(rec);
    }
    let mut total = recorder
        .write_dir(dir_path)
        .map_err(|e| CliError::Io(e.to_string()))?
        .len();
    for (i, rec) in report.row_recorders.iter().enumerate() {
        total += rec
            .write_dir(&dir_path.join(format!("row{i}")))
            .map_err(|e| CliError::Io(e.to_string()))?
            .len();
    }
    println!(
        "  obs artifacts ({obs_level}): {total} file(s) in {}/ (site level) and row0..row{}/",
        dir.trim_end_matches('/'),
        report.rows.len() - 1
    );
    Ok(())
}

/// When `--watch` was given on a fleet path, subscribes a per-row
/// tick buffer to `taps` and returns it; the buffered ticks are
/// replayed per datacenter after the run by [`finalize_site_watch`].
fn site_watch_buffer(
    inv: &Invocation,
    taps: &mut RowPowerTaps,
    n_rows: usize,
) -> std::sync::Arc<RowTickBuffer> {
    debug_assert!(inv.options.contains_key("watch"));
    let buffer = RowTickBuffer::new(n_rows);
    taps.subscribe(buffer.clone());
    buffer
}

/// Replays each datacenter's buffered, canonically-merged OOB power
/// stream through its own watch plane and prints/writes the per-DC
/// incident artifacts (`DIR/dcD/`). Replay order is global row order
/// within each datacenter, so the incident set is byte-identical
/// whatever `--fleet-threads` was.
///
/// Fleet watch planes ride the power telemetry only (the event-stream
/// rules stay a single-row feature: row event logs are per-recorder
/// and would interleave across datacenters).
fn finalize_site_watch(
    inv: &Invocation,
    buffer: &RowTickBuffer,
    report: &SiteReport,
    dc_provisioned_watts: f64,
    horizon: SimTime,
    obs_out: Option<&str>,
    energy: Option<&EnergyPlan>,
) -> Result<(), CliError> {
    for d in 0..report.datacenters {
        let columns: Vec<_> = report
            .rows_in_datacenter(d)
            .map(|row| buffer.take_row(row))
            .collect();
        let merged = merge_tick_columns(&columns);
        let plane =
            build_watch_plane(inv, dc_provisioned_watts, energy)?.expect("watch flag checked");
        let sub = plane.subscriber();
        for tick in &merged {
            sub.on_tick(tick.t, tick.truth_watts, tick.observed_watts);
        }
        let artifacts = plane.finalize(horizon);
        println!("  datacenter {d}:");
        print_watch_summary(&artifacts, "    ");
        if let Some(dir) = obs_out {
            let dc_dir = Path::new(dir).join(format!("dc{d}"));
            let files = artifacts
                .write_dir(&dc_dir)
                .map_err(|e| CliError::Io(e.to_string()))?;
            println!(
                "    watch artifacts: {} file(s) in {}/dc{d}/",
                files.len(),
                dir.trim_end_matches('/')
            );
        }
    }
    Ok(())
}

fn evaluate(inv: &Invocation) -> Result<(), CliError> {
    if inv.options.contains_key("trace-csv") {
        return evaluate_trace(inv);
    }
    let rows: usize = inv.get("rows", 1)?;
    let datacenters: usize = inv.get("datacenters", 1)?;
    if rows > 1 || datacenters > 1 {
        return evaluate_fleet(inv, rows, datacenters);
    }
    let policy_name: String = inv.get("policy", "polca".to_string())?;
    let kind = find_policy(&policy_name)?;
    let added: f64 = inv.get_valid("added", 30.0, non_negative)?;
    let days: f64 = inv.get_valid("days", 2.0, positive)?;
    let seed: u64 = inv.get("seed", 17)?;
    let power_scale: f64 = inv.get_valid("power-scale", 1.0, positive)?;
    let obs_out: Option<String> = inv.get_opt("obs-out")?;
    let profiling = inv.options.contains_key("profile");
    // The watch plane's count rules and burn tracker ride the event
    // stream, so `--watch` needs at least the events level; polca-prof
    // accumulators only exist at the full level.
    let mut obs_level = parse_obs_level(inv, &obs_out)?;
    let req_trace = parse_req_trace(inv)?;
    let energy = parse_energy(inv)?;
    if inv.options.contains_key("watch") || req_trace.is_some() {
        obs_level = obs_level.max(ObsLevel::Events);
    }
    if energy.is_some() {
        // The ledger records through the metrics gate.
        obs_level = obs_level.max(ObsLevel::Metrics);
    }
    if profiling {
        obs_level = obs_level.max(ObsLevel::Full);
    }
    let recorder = build_recorder(obs_level, req_trace, energy.clone());

    let mut study = OversubscriptionStudy::new(
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        days,
        seed,
    );
    study.set_record_power(false);
    study.set_recorder(recorder.clone());
    let engine = parse_engine(inv)?;
    study.set_engine(engine.clone());
    let watch = build_watch_plane(inv, study.row().provisioned_watts(), energy.as_ref())?;
    if let Some(plane) = &watch {
        let mut taps = RowPowerTaps::new();
        taps.subscribe(plane.subscriber());
        study.set_oob_taps(taps);
        recorder.set_tap(plane.event_tap());
    }
    let run_start = Instant::now();
    let o = study.run(kind, added / 100.0, power_scale);
    let run_wall_ns = run_start.elapsed().as_nanos() as u64;
    println!(
        "{} at +{added:.0}% servers, power×{power_scale}, {days} day(s), engine {}:",
        kind.name(),
        engine_tag(&engine)
    );
    println!(
        "  normalized latency  LP p50 {:.3} p99 {:.3} | HP p50 {:.3} p99 {:.3}",
        o.low_normalized.p50, o.low_normalized.p99, o.high_normalized.p50, o.high_normalized.p99
    );
    println!(
        "  peak util {:.1}%  brakes {}  SLO {}",
        o.peak_utilization * 100.0,
        o.brake_engagements,
        if o.slo.met { "met" } else { "MISSED" }
    );
    let cost = CostModel::default();
    let value = cost.oversubscription_value(study.row(), added / 100.0);
    println!(
        "  capacity value: {} extra servers ≈ ${:.2}M of avoided datacenter build-out",
        value.extra_servers,
        value.avoided_capex_usd / 1e6
    );
    print_req_summary(&recorder, "  ");
    print_energy_summary(&recorder, o.counts.1, "  ");
    if profiling {
        // Snapshot before artifact I/O so the table accounts against
        // the run's wall time only.
        let snap = recorder.prof().snapshot();
        println!("  self-profile (polca-prof):");
        for line in snap.attribution_table(run_wall_ns).lines() {
            println!("    {line}");
        }
    }
    if let Some(dir) = &obs_out {
        let files = recorder
            .write_dir(Path::new(dir))
            .map_err(|e| CliError::Io(e.to_string()))?;
        println!(
            "  obs artifacts ({obs_level}): {} file(s) in {}/",
            files.len(),
            dir.trim_end_matches('/')
        );
    }
    if let Some(plane) = &watch {
        recorder.clear_tap();
        let artifacts = plane.finalize(SimTime::from_days(days));
        print_watch_summary(&artifacts, "  ");
        if let Some(dir) = &obs_out {
            write_watch_artifacts(&recorder, &artifacts, dir)?;
        }
    }
    Ok(())
}

/// Parses `--obs-level`, defaulting to `Full` when `--obs-out` is set.
fn parse_obs_level(inv: &Invocation, obs_out: &Option<String>) -> Result<ObsLevel, CliError> {
    match inv.options.get("obs-level") {
        Some(v) => v.parse::<ObsLevel>().map_err(|_| CliError::BadValue {
            flag: "obs-level".into(),
            value: v.clone(),
        }),
        // `--obs-out` without an explicit level means "give me everything".
        None if obs_out.is_some() => Ok(ObsLevel::Full),
        None => Ok(ObsLevel::Off),
    }
}

/// The `evaluate --rows N [--datacenters D]` path: a site fleet on
/// the synthetic production-shaped workload, dispatched round-robin
/// across all rows under per-PDU, datacenter, and site power budgets.
fn evaluate_fleet(inv: &Invocation, rows: usize, datacenters: usize) -> Result<(), CliError> {
    let policy_name: String = inv.get("policy", "polca".to_string())?;
    let kind = find_policy(&policy_name)?;
    let added: f64 = inv.get_valid("added", 30.0, non_negative)?;
    let days: f64 = inv.get_valid("days", 2.0, positive)?;
    let seed: u64 = inv.get("seed", 17)?;
    let power_scale: f64 = inv.get_valid("power-scale", 1.0, positive)?;
    let mut site = parse_site_config(inv, rows, datacenters)?;
    let obs_out: Option<String> = inv.get_opt("obs-out")?;
    let req_trace = parse_req_trace(inv)?;
    let energy = parse_energy(inv)?;
    let mut obs_level = parse_obs_level(inv, &obs_out)?;
    if req_trace.is_some() {
        obs_level = obs_level.max(ObsLevel::Events);
    }
    if energy.is_some() {
        obs_level = obs_level.max(ObsLevel::Metrics);
    }
    let recorder = build_recorder(obs_level, req_trace, energy.clone());

    // The site serves the same production-shaped workload as the
    // single-row study, scaled so each of the rows sees the
    // oversubscribed per-row offered load after round-robin dispatch.
    let total_rows = rows * datacenters;
    let base_row = RowConfig::paper_inference_row();
    let study = OversubscriptionStudy::new(base_row.clone(), PolcaPolicy::default(), days, seed);
    let horizon = SimTime::from_days(days);
    let config = TraceConfig {
        seed,
        horizon,
        schedule: study
            .base_schedule()
            .scaled((1.0 + added / 100.0) * total_rows as f64),
        mix: WorkloadClass::table6(),
    };
    let source = ArrivalGenerator::new(&config);
    let row = base_row.with_added_servers(added / 100.0);

    site.base.seed = seed;
    site.base.power_scale = power_scale;
    site.base.record_power_series = false;
    site.base.recorder = recorder.clone();
    let engine = parse_engine(inv)?;
    site.base.engine = engine.clone();
    let watch_buffer = if inv.options.contains_key("watch") {
        let mut taps = RowPowerTaps::new();
        let buffer = site_watch_buffer(inv, &mut taps, total_rows);
        site.base.oob_taps = taps;
        Some(buffer)
    } else {
        None
    };
    let site_active = site.site_active();
    let enforce = site.enforce_budgets;
    let policy = PolcaPolicy::default();
    let sim = SiteSim::new(
        row.clone(),
        site,
        |_, rec| kind.controller(&policy, rec),
        source,
        horizon,
    );
    let report = sim.run();
    if datacenters > 1 {
        println!(
            "{} site: {datacenters} datacenters × {rows} rows (+{added:.0}% servers each), \
             {} PDU(s), {days} day(s), engine {}, budgets {}:",
            kind.name(),
            report.pdu_budget_watts.len(),
            engine_tag(&engine),
            if enforce { "enforced" } else { "monitored" }
        );
    } else {
        println!(
            "{} fleet: {rows} rows (+{added:.0}% servers each), {} PDU(s), \
             {days} day(s), engine {}, budgets {}:",
            kind.name(),
            report.pdu_budget_watts.len(),
            engine_tag(&engine),
            if enforce { "enforced" } else { "monitored" }
        );
    }
    print_site_table(&report, site_active);
    if energy.is_some() {
        // Row energy accounts live in the row-private recorders; merge
        // them into the site recorder in canonical row order so the
        // site-level ledger (table, energy.json) covers the fleet.
        for rec in &report.row_recorders {
            recorder.absorb_energy(rec);
        }
        print_energy_summary(&recorder, report.completed(), "  ");
    }
    if let Some(dir) = &obs_out {
        write_site_artifacts(&recorder, &report, dir, obs_level)?;
    }
    if let Some(buffer) = &watch_buffer {
        finalize_site_watch(
            inv,
            buffer,
            &report,
            rows as f64 * row.provisioned_watts(),
            horizon,
            obs_out.as_deref(),
            energy.as_ref(),
        )?;
    }
    Ok(())
}

/// Drain window appended after the last replayed arrival in the fleet
/// replay path, matching `TraceEvaluation`'s horizon rule.
const FLEET_DRAIN_S: f64 = 1800.0;

fn evaluate_trace(inv: &Invocation) -> Result<(), CliError> {
    let path = inv.options.get("trace-csv").cloned().expect("checked");
    let seed: u64 = inv.get("seed", 17)?;
    let rate_scale: f64 = inv.get_valid("rate-scale", 1.0, positive)?;
    let time_scale: f64 = inv.get_valid("time-scale", 1.0, positive)?;
    let servers: usize = inv.get_valid("servers", 40, |n| *n > 0)?;
    let added: f64 = inv.get_valid("added", 30.0, non_negative)?;
    let rows: usize = inv.get("rows", 1)?;
    let datacenters: usize = inv.get("datacenters", 1)?;
    let jobs: usize = inv.get_valid("jobs", 1, |n| *n > 0)?;
    let obs_out: Option<String> = inv.get_opt("obs-out")?;
    let req_trace = parse_req_trace(inv)?;
    let energy = parse_energy(inv)?;
    let mut obs_level = parse_obs_level(inv, &obs_out)?;
    if inv.options.contains_key("watch") || req_trace.is_some() {
        obs_level = obs_level.max(ObsLevel::Events);
    }
    if energy.is_some() {
        obs_level = obs_level.max(ObsLevel::Metrics);
    }
    let recorder = build_recorder(obs_level, req_trace, energy.clone());

    let trace = IngestedTrace::from_csv_path_observed(Path::new(&path), &recorder)
        .map_err(|e| CliError::Ingest(e.to_string()))?;
    let replay = TraceReplay::with_options(
        &trace,
        ReplayOptions {
            time_scale,
            rate_scale,
            seed,
        },
    );
    let requests: Vec<_> = replay.collect();
    let n = requests.len();
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = servers;
    let row = row.with_added_servers(added / 100.0);
    let deployed = row.total_servers();
    let eval_row_provisioned = row.provisioned_watts();
    let engine = parse_engine(inv)?;

    if rows > 1 || datacenters > 1 {
        // Site replay: the ingested stream fans out round-robin
        // across all `rows × datacenters` identical rows under one
        // policy.
        let mut site = parse_site_config(inv, rows, datacenters)?;
        let total_rows = rows * datacenters;
        let kind = match inv.get_opt::<String>("policy")? {
            Some(name) => find_policy(&name)?,
            None => PolicyKind::Polca,
        };
        let last_arrival = requests.last().map(|r| r.arrival.as_secs()).unwrap_or(0.0);
        let horizon = SimTime::from_secs(last_arrival + FLEET_DRAIN_S);
        println!(
            "replaying {path} across {total_rows} rows: {n} requests over {:.1} h on \
             {deployed} servers/row (+{added:.0}% oversubscribed, rate ×{rate_scale}, \
             time ×{time_scale})",
            trace.duration_s() * time_scale / 3600.0
        );
        site.base.seed = seed;
        site.base.record_power_series = false;
        site.base.recorder = recorder.clone();
        site.base.engine = engine.clone();
        let watch_buffer = if inv.options.contains_key("watch") {
            let mut taps = RowPowerTaps::new();
            let buffer = site_watch_buffer(inv, &mut taps, total_rows);
            site.base.oob_taps = taps;
            Some(buffer)
        } else {
            None
        };
        let site_active = site.site_active();
        let enforce = site.enforce_budgets;
        let policy = PolcaPolicy::default();
        let sim = SiteSim::new(
            row.clone(),
            site,
            |_, rec| kind.controller(&policy, rec),
            requests.into_iter(),
            horizon,
        );
        let report = sim.run();
        println!(
            "{} fleet: {} PDU(s), budgets {}:",
            kind.name(),
            report.pdu_budget_watts.len(),
            if enforce { "enforced" } else { "monitored" }
        );
        print_site_table(&report, site_active);
        if energy.is_some() {
            for rec in &report.row_recorders {
                recorder.absorb_energy(rec);
            }
            print_energy_summary(&recorder, report.completed(), "  ");
        }
        if let Some(dir) = &obs_out {
            write_site_artifacts(&recorder, &report, dir, obs_level)?;
        }
        if let Some(buffer) = &watch_buffer {
            finalize_site_watch(
                inv,
                buffer,
                &report,
                rows as f64 * row.provisioned_watts(),
                horizon,
                obs_out.as_deref(),
                energy.as_ref(),
            )?;
        }
        return Ok(());
    }

    let mut eval = TraceEvaluation::new(row, PolcaPolicy::default(), requests, seed);
    eval.set_recorder(recorder.clone());
    eval.set_engine(engine.clone());

    println!(
        "replaying {path}: {n} requests over {:.1} h on {deployed} servers \
         (+{added:.0}% oversubscribed, rate ×{rate_scale}, time ×{time_scale}, engine {})",
        trace.duration_s() * time_scale / 3600.0,
        engine_tag(&engine)
    );
    let kinds: Vec<PolicyKind> = match inv.get_opt::<String>("policy")? {
        Some(name) => vec![find_policy(&name)?],
        None => PolicyKind::all().to_vec(),
    };
    println!(
        "  {:<18} {:>8} {:>8} {:>10} {:>7}",
        "policy", "LP p99", "HP p99", "peak util", "brakes"
    );
    let watch_on = inv.options.contains_key("watch");
    let mut first_watch: Option<(PolicyKind, WatchArtifacts)> = None;
    if !watch_on && kinds.len() > 1 {
        // Full Figure 17 panel with no watch plane: every cell is
        // pure, so run them on `--jobs` worker threads. Outcomes and
        // per-cell recorders come back in canonical panel order, so
        // the table and the absorbed artifacts are byte-identical to
        // a sequential run whatever `jobs` is.
        for o in eval.run_all(jobs) {
            println!(
                "  {:<18} {:>8.3} {:>8.3} {:>9.1}% {:>7}",
                o.kind.name(),
                o.low_normalized.p99,
                o.high_normalized.p99,
                o.peak_utilization * 100.0,
                o.brake_engagements
            );
        }
    } else {
        if jobs > 1 {
            println!("  note: --watch and single-policy runs are sequential; ignoring --jobs");
        }
        // Each policy run gets its own watch plane: the replay clock
        // restarts per run, and a shared engine would see time jump
        // backwards. The obs-out incident artifacts come from the
        // first policy's plane (POLCA when running the full
        // comparison).
        let provisioned = eval_row_provisioned;
        for kind in kinds {
            let watch = build_watch_plane(inv, provisioned, energy.as_ref())?;
            if let Some(plane) = &watch {
                let mut taps = RowPowerTaps::new();
                taps.subscribe(plane.subscriber());
                eval.set_oob_taps(taps);
                recorder.set_tap(plane.event_tap());
            }
            let o = eval.run(kind);
            println!(
                "  {:<18} {:>8.3} {:>8.3} {:>9.1}% {:>7}",
                kind.name(),
                o.low_normalized.p99,
                o.high_normalized.p99,
                o.peak_utilization * 100.0,
                o.brake_engagements
            );
            if let Some(plane) = watch {
                recorder.clear_tap();
                let artifacts = plane.finalize(eval.horizon());
                print_watch_summary(&artifacts, "    ");
                if first_watch.is_none() {
                    first_watch = Some((kind, artifacts));
                }
            }
        }
    }
    print_req_summary(&recorder, "  ");
    // On the multi-policy panel the ledger aggregates every cell (each
    // run contributes one row-0 account, merged in canonical order).
    print_energy_summary(&recorder, 0, "  ");
    if let Some(dir) = &obs_out {
        let files = recorder
            .write_dir(Path::new(dir))
            .map_err(|e| CliError::Io(e.to_string()))?;
        println!(
            "  obs artifacts ({obs_level}): {} file(s) in {}/",
            files.len(),
            dir.trim_end_matches('/')
        );
        if let Some((kind, artifacts)) = &first_watch {
            println!("  watch artifacts below are from the {} run", kind.name());
            write_watch_artifacts(&recorder, artifacts, dir)?;
        }
    }
    Ok(())
}

fn plan(inv: &Invocation) -> Result<(), CliError> {
    let days: f64 = inv.get_valid("days", 2.0, positive)?;
    let seed: u64 = inv.get("seed", 17)?;
    let servers: usize = inv.get_valid("servers", 40, |n| *n > 0)?;
    let jobs: usize = inv.get_valid("jobs", 1, |n| *n > 0)?;
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = servers;
    let mut study = OversubscriptionStudy::new(row, PolcaPolicy::default(), days, seed);
    study.set_record_power(false);
    let trainer = study.trained_thresholds();
    study.set_policy(trainer.train());
    println!(
        "trained thresholds: T1 {:.0}% T2 {:.0}% (40s spike {:.1}%)",
        trainer.t1() * 100.0,
        trainer.t2() * 100.0,
        trainer.max_spike_40s_frac * 100.0
    );
    // The sweep runner executes the levels on `--jobs` worker threads
    // and hands back outcomes in level order, so the printed table is
    // byte-identical whatever `jobs` is.
    const LEVELS: [u32; 7] = [0, 10, 20, 25, 30, 35, 40];
    let cells: Vec<(PolicyKind, f64, f64)> = LEVELS
        .iter()
        .map(|&pct| (PolicyKind::Polca, pct as f64 / 100.0, 1.0))
        .collect();
    let outcomes = study.sweep(&cells, jobs);
    let mut best = 0.0;
    for (&pct, o) in LEVELS.iter().zip(&outcomes) {
        let added = pct as f64 / 100.0;
        let ok = o.slo.met;
        println!(
            "  +{pct:>2}%: brakes {:>4}, LP p99 {:.3}, HP p99 {:.3} — {}",
            o.brake_engagements,
            o.low_normalized.p99,
            o.high_normalized.p99,
            if ok { "SLO met" } else { "SLO MISSED" }
        );
        if ok && added > best {
            best = added;
        }
    }
    println!("plan: deploy up to +{:.0}% servers.", best * 100.0);
    Ok(())
}

/// The `profile` subcommand: self-profiles the simulator with
/// polca-prof on the quick-demo oversubscription study, prints the
/// per-component attribution table, and (on request) writes the
/// profiling artifact set. Simulator speed itself is measured by
/// `polca-benchmark` (see `benchmark/README.md`).
///
/// The reference run and the arrival-trace cache are warmed by an
/// un-instrumented run first, so the timed repetitions measure
/// simulation work rather than one-off synthesis, and the attribution
/// table can account for ≥90 % of the measured wall time.
fn profile(inv: &Invocation) -> Result<(), CliError> {
    let seed: u64 = inv.get("seed", 17)?;
    let reps: usize = inv.get("reps", 3)?.max(1);
    let out: Option<String> = inv.get_opt("out")?;

    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_record_power(false);
    let _ = study.run(PolicyKind::Polca, 0.30, 1.0); // warm caches
    let recorder = Recorder::new(ObsLevel::Full);
    study.set_recorder(recorder.clone());
    let start = Instant::now();
    for _ in 0..reps {
        let _ = study.run(PolicyKind::Polca, 0.30, 1.0);
    }
    let wall = start.elapsed();
    let wall_ns = wall.as_nanos() as u64;
    let snap = recorder.prof().snapshot();
    let sim_s = study.days() * 86_400.0 * reps as f64;
    let events = snap.counter(ProfCounter::EventsPopped);
    let wall_s = wall.as_secs_f64();
    let sim_rate = sim_s / wall_s;
    let event_rate = events as f64 / wall_s;
    println!(
        "profiled quick-demo study (seed {seed}, {reps} rep(s)): \
         {sim_s:.0} simulated s, {events} events in {wall_s:.3} s wall"
    );
    println!(
        "  {sim_rate:.0} simulated-seconds/sec  {event_rate:.0} events/sec  \
         peak queue depth {}",
        snap.counter(ProfCounter::PeakQueueDepth)
    );
    print!("{}", snap.attribution_table(wall_ns));

    if let Some(dir) = &out {
        let files = recorder
            .write_dir(Path::new(dir))
            .map_err(|e| CliError::Io(e.to_string()))?;
        println!(
            "profiling artifacts: {} file(s) in {}/ (prof.json, prof.folded, prof.trace.json, …)",
            files.len(),
            dir.trim_end_matches('/')
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let inv = parse_args(args(&["evaluate", "--added", "30", "--policy", "polca"])).unwrap();
        assert_eq!(inv.command, "evaluate");
        assert_eq!(inv.get::<f64>("added", 0.0).unwrap(), 30.0);
        assert_eq!(inv.options.get("policy").unwrap(), "polca");
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse_args(args(&[])), Err(CliError::MissingCommand));
    }

    #[test]
    fn dangling_flag_is_an_error() {
        assert_eq!(
            parse_args(args(&["plan", "--days"])),
            Err(CliError::MissingValue("days".into()))
        );
    }

    #[test]
    fn watch_is_a_boolean_flag() {
        // `--watch` consumes no value, even mid-argv or trailing.
        let inv = parse_args(args(&["evaluate", "--watch", "--days", "1"])).unwrap();
        assert_eq!(inv.options.get("watch").unwrap(), "true");
        assert_eq!(inv.get::<f64>("days", 0.0).unwrap(), 1.0);
        let inv = parse_args(args(&["evaluate", "--watch"])).unwrap();
        assert!(inv.options.contains_key("watch"));
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let inv = parse_args(args(&["trace"])).unwrap();
        assert_eq!(inv.get::<u64>("seed", 17).unwrap(), 17);
        assert_eq!(inv.get_opt::<f64>("lock").unwrap(), None);
    }

    #[test]
    fn bad_values_are_reported_with_flag_names() {
        let inv = parse_args(args(&["trace", "--days", "soon"])).unwrap();
        let err = inv.get::<f64>("days", 1.0).unwrap_err();
        assert_eq!(
            err,
            CliError::BadValue {
                flag: "days".into(),
                value: "soon".into()
            }
        );
    }

    #[test]
    fn model_lookup_is_case_insensitive() {
        assert_eq!(find_model("bloom").unwrap().name, "BLOOM");
        assert_eq!(find_model("flan-t5").unwrap().name, "Flan-T5");
        assert!(find_model("gpt5").is_err());
    }

    #[test]
    fn policy_aliases_resolve() {
        assert_eq!(find_policy("POLCA").unwrap(), PolicyKind::Polca);
        assert_eq!(find_policy("1t-lp").unwrap(), PolicyKind::OneThreshLowPri);
        assert_eq!(find_policy("no-cap").unwrap(), PolicyKind::NoCap);
        assert!(find_policy("magic").is_err());
    }

    #[test]
    fn unknown_command_errors_cleanly() {
        let inv = parse_args(args(&["frobnicate"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn characterize_runs_end_to_end() {
        let inv = parse_args(args(&[
            "characterize",
            "--model",
            "GPT-NeoX",
            "--input",
            "512",
            "--output",
            "32",
        ]))
        .unwrap();
        assert!(run(&inv).is_ok());
    }

    #[test]
    fn help_prints() {
        let inv = parse_args(args(&["help"])).unwrap();
        assert!(run(&inv).is_ok());
        assert!(HELP.contains("characterize"));
        assert!(HELP.contains("ingest"));
        assert!(HELP.contains("--trace-csv"));
        assert!(HELP.contains("--datacenters"));
        assert!(HELP.contains("--fleet-threads"));
        assert!(HELP.contains("polca-benchmark"));
    }

    #[test]
    fn out_of_domain_values_and_unknown_flags_are_typed_errors() {
        let csv = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/sample_trace.csv"
        );
        let csv_out =
            std::env::temp_dir().join(format!("polca-cli-domain-{}.csv", std::process::id()));
        let csv_out = csv_out.to_str().unwrap();
        // Every argv ends in the offending `--flag value` pair. Each
        // value here reaches a library assert if the CLI lets it
        // through.
        let bad_values: &[&[&str]] = &[
            &["evaluate", "--rows", "2", "--rows-per-pdu", "0"],
            &["evaluate", "--rows", "2", "--oversub-dc", "-150"],
            &["evaluate", "--rows", "2", "--oversub-site", "-150"],
            &["plan", "--jobs", "0"],
            &["evaluate", "--trace-csv", csv, "--jobs", "0"],
            &["evaluate", "--days", "0"],
            &["evaluate", "--rows", "2", "--days", "0"],
            &["evaluate", "--added", "-200"],
            &["evaluate", "--power-scale", "nan"],
            &["evaluate", "--trace-csv", csv, "--time-scale", "0"],
            &["evaluate", "--trace-csv", csv, "--rate-scale", "-1"],
            &["trace", "--days", "0"],
            &["trace", "--days", "inf"],
            &["trace", "--csv-out", csv_out, "--noise", "nan"],
            &["trace", "--csv-out", csv_out, "--rate", "inf"],
            &["ingest", csv, "--extrapolate-days", "0"],
            &["plan", "--servers", "0"],
            &["characterize", "--batch", "0"],
            &["characterize", "--input", "0"],
            &["characterize", "--output", "0"],
        ];
        // Each flag here is one its subcommand does not read.
        let unknown_flags: &[&[&str]] = &[
            &["characterize", "--modle", "BLOOM"],
            &["trace", "--dayz", "1"],
            &["ingest", csv, "--extrapolate", "3"],
            &["evaluate", "--polcy", "nocap"],
            &["plan", "--day", "0.01"],
            &["profile", "--rep", "1"],
            &["profile", "--bench-out", "x"],
        ];
        let check = |argv: &[&str], unknown: bool| {
            let [command, .., flag, value] = argv else {
                panic!("{argv:?} ends in a flag and its value")
            };
            let expected = if unknown {
                CliError::UnknownFlag {
                    command: command.to_string(),
                    flag: flag[2..].to_string(),
                }
            } else {
                CliError::BadValue {
                    flag: flag[2..].to_string(),
                    value: value.to_string(),
                }
            };
            let err = run(&parse_args(args(argv)).unwrap()).unwrap_err();
            assert!(err.to_string().contains(flag), "{err}");
            assert_eq!(err, expected, "{argv:?}");
        };
        for argv in bad_values {
            check(argv, false);
        }
        for argv in unknown_flags {
            check(argv, true);
        }
        assert!(!Path::new(csv_out).exists(), "a refused run wrote no CSV");
    }

    #[test]
    fn profile_prints_the_table_and_writes_prof_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("polca-cli-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&["profile", "--reps", "1", "--out", &out])).unwrap();
        run(&inv).unwrap();
        for file in ["prof.json", "prof.folded", "prof.trace.json"] {
            assert!(dir.join(file).exists(), "{file} missing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn site_flags_parse_into_the_site_config() {
        let inv = parse_args(args(&[
            "evaluate",
            "--rows",
            "3",
            "--datacenters",
            "4",
            "--fleet-threads",
            "2",
            "--site-budget-mw",
            "1.5",
            "--oversub-dc",
            "25",
            "--oversub-site",
            "10",
            "--enforce-budgets",
        ]))
        .unwrap();
        let site = parse_site_config(&inv, 3, 4).unwrap();
        assert_eq!(site.datacenters, 4);
        assert_eq!(site.rows_per_datacenter, 3);
        assert_eq!(site.threads, 2);
        assert_eq!(site.site_budget_watts, Some(1.5e6));
        assert_eq!(site.datacenter_oversubscription, Some(0.25));
        assert_eq!(site.site_oversubscription, Some(0.10));
        assert!(site.enforce_budgets);
        assert!(site.site_active());
        // --fleet-threads 0 means "all cores" (at least one).
        let inv = parse_args(args(&["evaluate", "--rows", "2", "--fleet-threads", "0"])).unwrap();
        assert!(parse_site_config(&inv, 2, 1).unwrap().threads >= 1);
        // A zero-datacenter or zero-row site is a clean CLI error, not
        // a hierarchy panic.
        assert!(matches!(
            parse_site_config(&inv, 2, 0),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_site_config(&inv, 0, 2),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn positionals_coexist_with_flags() {
        let inv = parse_args(args(&["ingest", "trace.csv", "--seed", "3"])).unwrap();
        assert_eq!(inv.positionals, vec!["trace.csv".to_string()]);
        assert_eq!(inv.get::<u64>("seed", 0).unwrap(), 3);
        let inv = parse_args(args(&["ingest"])).unwrap();
        assert!(inv.positionals.is_empty());
    }

    #[test]
    fn ingest_without_a_path_is_an_error() {
        let inv = parse_args(args(&["ingest"])).unwrap();
        assert_eq!(
            run(&inv),
            Err(CliError::Ingest(
                "usage: polca-cli ingest <trace.csv>".into()
            ))
        );
    }

    #[test]
    fn ingest_reports_missing_files_cleanly() {
        let inv = parse_args(args(&["ingest", "/nonexistent/trace.csv"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::Ingest(_))));
    }

    #[test]
    fn evaluate_with_watch_writes_incident_artifacts() {
        let dir = std::env::temp_dir().join(format!("polca-cli-watch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--watch",
            "--days",
            "0.05",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        for file in ["incidents.jsonl", "report.md", "metrics.prom", "trace.json"] {
            assert!(dir.join(file).exists(), "{file} missing");
        }
        let report = std::fs::read_to_string(dir.join("report.md")).unwrap();
        assert!(report.contains("# Watch report"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_watch_rules_file_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("polca-cli-rules-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.txt");
        std::fs::write(&rules, "bad nonsense x=1\n").unwrap();
        let rules_str = rules.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--watch",
            "--watch-rules",
            &rules_str,
            "--days",
            "0.05",
        ]))
        .unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(args(&[
            "evaluate",
            "--watch",
            "--watch-rules",
            "/nonexistent/rules.txt",
            "--days",
            "0.05",
        ]))
        .unwrap();
        assert!(matches!(run(&inv), Err(CliError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enforce_budgets_is_a_boolean_flag() {
        let inv = parse_args(args(&["evaluate", "--enforce-budgets", "--rows", "4"])).unwrap();
        assert_eq!(inv.options.get("enforce-budgets").unwrap(), "true");
        assert_eq!(inv.get::<usize>("rows", 1).unwrap(), 4);
    }

    #[test]
    fn req_trace_is_a_boolean_flag() {
        let inv = parse_args(args(&["evaluate", "--req-trace", "--req-sample", "4"])).unwrap();
        assert_eq!(inv.options.get("req-trace").unwrap(), "true");
        assert_eq!(inv.get::<u64>("req-sample", 1).unwrap(), 4);
        // --req-sample alone implies tracing; bare --req-trace samples
        // every request.
        let inv = parse_args(args(&["evaluate", "--req-sample", "4"])).unwrap();
        assert_eq!(parse_req_trace(&inv).unwrap().unwrap().sample, 4);
        let inv = parse_args(args(&["evaluate", "--req-trace"])).unwrap();
        assert_eq!(parse_req_trace(&inv).unwrap().unwrap().sample, 1);
        let inv = parse_args(args(&["evaluate"])).unwrap();
        assert!(parse_req_trace(&inv).unwrap().is_none());
    }

    #[test]
    fn evaluate_req_trace_writes_requests_jsonl() {
        let dir = std::env::temp_dir().join(format!("polca-cli-req-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--engine",
            "batched",
            "--req-trace",
            "--days",
            "0.02",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        let body = std::fs::read_to_string(dir.join("requests.jsonl")).unwrap();
        let first = body.lines().next().expect("at least one record");
        for field in ["\"ttft_s\":", "\"tbt_mean_s\":", "\"joules_per_token\":"] {
            assert!(first.contains(field), "{field} missing from {first}");
        }
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("req_ttft_s"), "TTFT histogram missing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_fleet_writes_per_row_artifacts() {
        let dir = std::env::temp_dir().join(format!("polca-cli-fleet-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--rows",
            "3",
            "--rows-per-pdu",
            "2",
            "--days",
            "0.02",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        assert!(dir.join("metrics.json").exists(), "fleet metrics missing");
        for row in 0..3 {
            let row_dir = dir.join(format!("row{row}"));
            for file in ["events.jsonl", "metrics.json", "prof.json", "prof.folded"] {
                assert!(row_dir.join(file).exists(), "row{row}/{file} missing");
            }
        }
        // The fleet-level prof.json aggregates the absorbed per-row
        // profiles (row phases present) on top of the fleet recorder's
        // own aggregation phase and occupancy gauge.
        let fleet_prof = std::fs::read_to_string(dir.join("prof.json")).unwrap();
        assert!(fleet_prof.contains("\"row.step\""), "{fleet_prof}");
        assert!(
            fleet_prof.contains("\"fleet.power_aggregation\""),
            "{fleet_prof}"
        );
        assert!(
            fleet_prof.contains("\"batched_tick_occupancy\""),
            "{fleet_prof}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_site_writes_per_datacenter_artifacts() {
        let dir = std::env::temp_dir().join(format!("polca-cli-site-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--rows",
            "2",
            "--datacenters",
            "2",
            "--fleet-threads",
            "2",
            "--watch",
            "--days",
            "0.02",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        assert!(dir.join("metrics.json").exists(), "site metrics missing");
        for row in 0..4 {
            assert!(
                dir.join(format!("row{row}/events.jsonl")).exists(),
                "row{row} artifacts missing"
            );
        }
        for d in 0..2 {
            for file in ["incidents.jsonl", "report.md"] {
                assert!(
                    dir.join(format!("dc{d}/{file}")).exists(),
                    "dc{d}/{file} missing"
                );
            }
        }
        // The site-level prom export partitions datacenter gauges.
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("datacenter=\"1\""), "{prom}");
        assert!(prom.contains("site_power_w"), "{prom}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_csv_fleet_replay_runs_on_the_golden_trace() {
        let csv = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/sample_trace.csv"
        );
        let inv = parse_args(args(&[
            "evaluate",
            "--trace-csv",
            csv,
            "--rows",
            "2",
            "--servers",
            "10",
            "--time-scale",
            "0.05",
        ]))
        .unwrap();
        run(&inv).unwrap();
    }

    #[test]
    fn plan_accepts_a_jobs_flag() {
        let inv = parse_args(args(&["plan", "--jobs", "4"])).unwrap();
        assert_eq!(inv.get::<usize>("jobs", 1).unwrap(), 4);
    }

    #[test]
    fn trace_export_then_ingest_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("polca-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("exported.csv");
        let csv_str = csv.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "trace",
            "--csv-out",
            &csv_str,
            "--days",
            "0.02",
            "--rate",
            "1.0",
            "--seed",
            "5",
        ]))
        .unwrap();
        run(&inv).unwrap();
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("timestamp_s,context_tokens,generated_tokens,priority\n"));
        assert!(body.lines().count() > 100);
        // The exported file ingests back without losing a single row.
        let trace = IngestedTrace::from_csv_path(&csv).unwrap();
        assert_eq!(trace.len(), body.lines().count() - 1);
        assert_eq!(trace.skipped_rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
