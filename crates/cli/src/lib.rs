//! Command-line interface for the polca toolkit.
//!
//! Seven subcommands cover the workflows a capacity engineer needs:
//!
//! * `characterize` — profile one model/request shape on a simulated
//!   A100 group, optionally under a frequency lock or power cap (§4.2),
//! * `trace` — synthesize and summarize a production-shaped power trace
//!   (§6.4), optionally exporting the request stream as Azure-schema
//!   CSV,
//! * `ingest` — read an Azure-2024-style request log, report its
//!   statistics, and fit the generator's diurnal model to it,
//! * `evaluate` — run one policy at one oversubscription level and
//!   report latency/brake/SLO outcomes (§6.5–6.6), replay an ingested
//!   trace through all four Figure 17 policies (`--trace-csv`), or run
//!   either workload on a site (`--rows`, `--datacenters`); see the
//!   `evaluate` module,
//! * `plan` — sweep oversubscription levels and report the SLO-safe
//!   maximum (Figure 13's workflow),
//! * `profile` — self-profile the simulator with polca-prof on the
//!   quick-demo study and print the per-component attribution table,
//! * `figures` — regenerate the paper's tables and figures, plus the
//!   ablations and extensions, by id (`figures fig17_policy_comparison`)
//!   or all of them; `results/<id>.txt` holds each one's output at the
//!   defaults.
//!
//! The parser is hand-rolled (`--flag value` pairs plus positional
//! arguments) to keep the dependency set minimal; [`parse_args`] is
//! exposed for testing. [`run`] rejects any flag its subcommand does
//! not read and any positional argument it does not take, and every
//! numeric value a library constructor would refuse is caught here as a
//! [`CliError::BadValue`] first.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::time::Instant;

use polca::{OversubscriptionStudy, PolcaPolicy, PolicyKind};
use polca_cluster::RowConfig;
use polca_gpu::{Gpu, GpuSpec};
use polca_ingest::{requests_to_csv, IngestedTrace, TraceCalibration, TraceStats};
use polca_llm::{InferenceConfig, InferenceModel, ModelSpec};
use polca_obs::{ObsLevel, ProfCounter, Recorder};
use polca_sim::{SimRng, SimTime};
use polca_trace::replicate::production_reference;
use polca_trace::{ArrivalGenerator, DiurnalPattern, TraceConfig, WorkloadClass};

mod evaluate;
mod figures;

use evaluate::evaluate;
use figures::figures;

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
    /// A positional argument the subcommand does not take, such as a
    /// figure id `figures` does not know.
    UnexpectedArgument {
        /// The subcommand.
        command: String,
        /// The argument.
        arg: String,
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
    /// A horizon no longer than one step of the profile the run samples.
    ShortHorizon {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
        /// The profile step, in seconds, the horizon must exceed.
        min_s: f64,
    },
    /// Unknown model name.
    UnknownModel(String),
    /// A file a flag names could not be read.
    Read {
        /// The flag, without its leading `--`.
        flag: String,
        /// The path the flag named.
        path: String,
        /// Why the read failed.
        error: String,
    },
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
            CliError::UnexpectedArgument { command, arg } => write!(
                f,
                "unexpected argument `{arg}` to `{command}`; try `polca-cli help`"
            ),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for `--{flag}`")
            }
            CliError::ShortHorizon { flag, value, min_s } => write!(
                f,
                "invalid value `{value}` for `--{flag}`: the horizon must be longer than {min_s} s"
            ),
            CliError::UnknownModel(m) => {
                write!(
                    f,
                    "unknown model `{m}`; see `polca-cli figures tab03_model_zoo`"
                )
            }
            CliError::Read { flag, path, error } => {
                write!(f, "cannot read `--{flag}` file {path}: {error}")
            }
            CliError::Io(e) => write!(f, "cannot write artifacts: {e}"),
            CliError::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

/// Formatting into a `String` cannot fail; this lets a figure's
/// `writeln!` share `?` with its artifact writes.
impl From<fmt::Error> for CliError {
    fn from(e: fmt::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

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
            Some(v) => v.parse().map_err(|_| bad_value(flag, v)),
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
            Some(v) => v.parse().map(Some).map_err(|_| bad_value(flag, v)),
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
            Some(v) if !valid(&v) => Err(bad_value(flag, &self.options[flag])),
            v => Ok(v),
        }
    }

    /// Reads `--days` for a run that samples a profile every `step_s`
    /// seconds, so the profile holds the two samples its statistics and
    /// schedule inversion need.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] unless the value is positive and
    /// finite, and [`CliError::ShortHorizon`] unless it is longer than
    /// one step.
    fn get_days(&self, default: f64, step_s: f64) -> Result<f64, CliError> {
        Ok(self.get_opt_days(step_s)?.unwrap_or(default))
    }

    /// Reads an optional `--days` like [`get_days`](Self::get_days).
    ///
    /// # Errors
    ///
    /// As [`get_days`](Self::get_days).
    fn get_opt_days(&self, step_s: f64) -> Result<Option<f64>, CliError> {
        match self.get_opt_valid("days", positive)? {
            Some(days) if days * 86_400.0 <= step_s => Err(CliError::ShortHorizon {
                flag: "days".to_string(),
                value: self.options["days"].clone(),
                min_s: step_s,
            }),
            days => Ok(days),
        }
    }

    /// Refuses the first of `flags` (space-separated) given, for a run
    /// that would not read it: a [`CliError::BadValue`] naming the
    /// flag, with `why` as its value.
    fn refuse(&self, flags: &str, why: &str) -> Result<(), CliError> {
        match flags
            .split_whitespace()
            .find(|f| self.options.contains_key(*f))
        {
            Some(flag) => Err(bad_value(flag, why)),
            None => Ok(()),
        }
    }
}

/// A [`CliError::BadValue`] for `--flag`.
fn bad_value(flag: &str, value: impl ToString) -> CliError {
    CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
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

/// Resolves a policy by name.
pub fn find_policy(name: &str) -> Result<PolicyKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "polca" => Ok(PolicyKind::Polca),
        "1t-lp" | "one-thresh-low-pri" => Ok(PolicyKind::OneThreshLowPri),
        "1t-all" | "one-thresh-all" => Ok(PolicyKind::OneThreshAll),
        "nocap" | "no-cap" => Ok(PolicyKind::NoCap),
        _ => Err(bad_value("policy", name)),
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
                [--days 1] (longer than 2 s; any positive value with
                --csv-out) [--seed 17]
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
                [--servers 40] [--days 2] (longer than 60 s) [--seed 17]
                [--power-scale 1.0]
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
                a synthesized single-row run (forces obs level full)
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
                with --watch and an energy plan, arm the built-in
                carbon-budget-burn / co2e-per-token-high rules on the
                delayed OOB feed; the per-token rule counts output
                tokens from polca-req records, so it needs a single
                row with --req-trace
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
                [--rate-scale 1.0] [--time-scale 1.0] (--policy runs
                one; --rows N / --datacenters D replays the stream
                across a site fleet under one policy instead; all site
                flags above apply)
                Which runs read which flags (others are refused):
                  synthesized arrivals: --days
                  --trace-csv arrivals: --rate-scale --time-scale
                  a synthesized single row: --profile
                  the four-policy --trace-csv panel: --jobs
                  a site (--rows or --datacenters above 1):
                    --rows-per-pdu --enforce-budgets --fleet-threads
                    --site-budget-mw --oversub-dc --oversub-site
                  --watch: --watch-rules, and with an energy plan
                    --carbon-budget, plus --carbon-per-token on a
                    single row with --req-trace
                  every run: every other evaluate flag above
  plan          find the SLO-safe oversubscription maximum
                [--days 2] (longer than 60 s) [--seed 17] [--servers 40]
                [--jobs N]
  profile       self-profile the simulator (polca-prof) on the
                quick-demo study and print the per-component
                attribution table
                [--seed 17] [--reps 3] best-of-N timing repetitions
                [--out DIR] write the full obs artifact set including
                prof.json, prof.folded (load in speedscope), and
                prof.trace.json (open in Perfetto)
                (simulator speed is measured by polca-benchmark; see
                benchmark/README.md)
  figures       regenerate the paper's tables and figures
                polca-cli figures [ID...]  runs the figures the ids name,
                or all of them; the ids are the stems of results/*.txt
                (fig03_power_breakdown … fig18_power_brakes,
                tab01_interfaces … tab06_workload_slos, ablation_*,
                extension_*, serve_policy_comparison)
                [--days D] (longer than 60 s) replaces the horizon of
                every evaluation figure (2 or 7 days; 42 is the paper's)
                [--seed 17] [--obs-out DIR] figure ID saves its printed
                tables or series as CSV (fig16 and fig18 also their
                recorder artifacts) in DIR/ID/
  help          print this text
";

/// A subcommand's entry point.
type Handler = fn(&Invocation) -> Result<(), CliError>;

/// Every subcommand with its entry point, the flags it reads (the ones
/// [`HELP`] documents), space-separated, and how many positional
/// arguments it takes.
const COMMANDS: &[(&str, Handler, &str, usize)] = &[
    (
        "characterize",
        characterize,
        "model input output batch lock cap",
        0,
    ),
    (
        "trace",
        trace,
        "days seed csv-out rate amplitude peak-hour noise bursts-per-day",
        0,
    ),
    ("ingest", ingest, "csv seed extrapolate-days", 1),
    (
        "evaluate",
        evaluate,
        "policy added days seed power-scale obs-out obs-level engine split-pools profile \
         req-trace req-sample carbon-trace carbon-diurnal pue carbon-budget carbon-per-token \
         watch watch-rules rows datacenters rows-per-pdu enforce-budgets fleet-threads \
         site-budget-mw oversub-dc oversub-site jobs trace-csv rate-scale time-scale servers",
        0,
    ),
    ("plan", plan, "days seed servers jobs", 0),
    ("profile", profile, "seed reps out", 0),
    ("figures", figures, "days seed obs-out", usize::MAX),
];

/// Runs an invocation, writing human-readable output to stdout.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, flags the command does not
/// read, positional arguments it does not take, or malformed values.
pub fn run(inv: &Invocation) -> Result<(), CliError> {
    if matches!(inv.command.as_str(), "help" | "--help" | "-h") {
        print!("{HELP}");
        return Ok(());
    }
    let &(command, handler, flags, positionals) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == inv.command)
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
    if let Some(arg) = inv.positionals.get(positionals) {
        return Err(CliError::UnexpectedArgument {
            command: command.to_string(),
            arg: arg.clone(),
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

/// Resolution, in seconds, of the profile `trace` summarizes: the row
/// telemetry's 2 s step, so the rise statistics see 2 s spikes.
const TRACE_STEP_S: f64 = 2.0;

fn trace(inv: &Invocation) -> Result<(), CliError> {
    let seed: u64 = inv.get("seed", 17)?;
    if let Some(path) = inv.get_opt::<String>("csv-out")? {
        let days: f64 = inv.get_valid("days", 1.0, positive)?;
        return trace_csv_out(inv, &path, days, seed);
    }
    let days = inv.get_days(1.0, TRACE_STEP_S)?;
    let row = RowConfig::paper_inference_row();
    let profile = production_reference(&row, days, TRACE_STEP_S, seed);
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

fn plan(inv: &Invocation) -> Result<(), CliError> {
    let days = inv.get_days(2.0, OversubscriptionStudy::PROFILE_STEP_S)?;
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
    use evaluate::{parse_req_trace, RunSpec, Shape};
    use polca_cluster::SiteConfig;
    use polca_stats::TimeSeries;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The site config `argv` resolves to.
    fn site_config(argv: &[&str]) -> Result<SiteConfig, CliError> {
        match RunSpec::from_invocation(&parse_args(args(argv)).unwrap())?.shape {
            Shape::Site { config, .. } => Ok(*config),
            Shape::Row { .. } => panic!("{argv:?} resolves to one row"),
        }
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
        assert!(HELP.contains("figures"));
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
            &["evaluate", "--rows", "2", "--site-budget-mw", "-1"],
            &["evaluate", "--rows", "2", "--site-budget-mw", "nan"],
            &["evaluate", "--rows", "2", "--site-budget-mw", "0"],
            &[
                "evaluate",
                "--watch",
                "--carbon-diurnal",
                "--carbon-budget",
                "-5",
            ],
            &[
                "evaluate",
                "--watch",
                "--carbon-diurnal",
                "--carbon-per-token",
                "nan",
            ],
            &["evaluate", "--policy", "foo"],
            &["figures", "--days", "nan"],
            &["figures", "--days", "inf"],
            &["figures", "--days", "-1"],
            &["figures", "--days", "abc"],
            &["figures", "--seed", "-1"],
        ];
        // Each horizon here is positive but no longer than one step of
        // the profile the run samples (in seconds).
        let short_horizons: &[(&[&str], f64)] = &[
            (&["evaluate", "--days", "0.00069"], 60.0),
            (&["evaluate", "--rows", "2", "--days", "0.00069"], 60.0),
            (&["plan", "--days", "0.00069"], 60.0),
            (&["trace", "--days", "0.00002"], 2.0),
            (&["figures", "--days", "0.0001"], 60.0),
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
            &["figures", "--only", "fig18_power_brakes"],
        ];
        // The last positional argument of each argv is one its
        // subcommand does not take.
        let stray_arguments: &[&[&str]] = &[
            &["characterize", "bogus"],
            &["trace", "5", "--days", "0.01"],
            &["evaluate", "fig17_policy_comparison"],
            &["ingest", csv, "second.csv"],
            &["figures", "fig03_power_breakdown", "fig99_nope"],
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
        for argv in stray_arguments {
            let inv = parse_args(args(argv)).unwrap();
            let err = run(&inv).unwrap_err();
            let arg = inv.positionals.last().unwrap().clone();
            assert!(err.to_string().contains(&format!("`{arg}`")), "{err}");
            let command = inv.command.clone();
            assert_eq!(err, CliError::UnexpectedArgument { command, arg });
        }
        let argv = ["figures", "tab02_row_params", "--obs-out", "/dev/null/x"];
        let err = run(&parse_args(args(&argv)).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        for &(argv, min_s) in short_horizons {
            let err = run(&parse_args(args(argv)).unwrap()).unwrap_err();
            let message = format!("`--days`: the horizon must be longer than {min_s} s");
            assert!(err.to_string().ends_with(&message), "{err}");
            let value = argv[argv.len() - 1].to_string();
            let flag = "days".to_string();
            assert_eq!(err, CliError::ShortHorizon { flag, value, min_s });
        }
        assert!(!Path::new(csv_out).exists(), "a refused run wrote no CSV");
    }

    /// Every `evaluate` flag takes effect on the resolved run or is
    /// refused with a `BadValue` naming it — never silently ignored.
    #[test]
    fn flags_the_resolved_run_would_not_read_are_refused() {
        let csv = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/sample_trace.csv"
        );
        // `CSV` stands for the bundled trace.
        let cases = [
            ("--trace-csv CSV --days 0.001", "days"),
            ("--rate-scale 2", "rate-scale"),
            ("--time-scale 2", "time-scale"),
            (
                "--enforce-budgets --site-budget-mw 0.001",
                "enforce-budgets",
            ),
            ("--rows-per-pdu 2", "rows-per-pdu"),
            ("--fleet-threads 2", "fleet-threads"),
            ("--site-budget-mw 1", "site-budget-mw"),
            ("--trace-csv CSV --oversub-dc 10", "oversub-dc"),
            ("--oversub-site 10", "oversub-site"),
            ("--jobs 2", "jobs"),
            ("--trace-csv CSV --policy polca --jobs 2", "jobs"),
            ("--trace-csv CSV --rows 4 --jobs 2", "jobs"),
            ("--rows 2 --jobs 2", "jobs"),
            ("--rows 2 --profile", "profile"),
            ("--trace-csv CSV --policy polca --profile", "profile"),
            ("--watch-rules rules.txt", "watch-rules"),
            ("--days 0.02 --carbon-budget 1", "carbon-budget"),
            ("--carbon-diurnal --carbon-per-token 1", "carbon-per-token"),
            ("--watch --carbon-budget 1", "carbon-budget"),
            ("--watch --carbon-per-token 1", "carbon-per-token"),
            (
                "--watch --carbon-diurnal --carbon-per-token 1",
                "carbon-per-token",
            ),
            (
                "--rows 2 --watch --req-trace --carbon-diurnal --carbon-per-token 1",
                "carbon-per-token",
            ),
        ];
        for (flags, flag) in cases {
            let argv = format!("evaluate {}", flags.replace("CSV", csv));
            let err =
                run(&parse_args(argv.split_whitespace().map(String::from)).unwrap()).unwrap_err();
            assert!(
                matches!(&err, CliError::BadValue { flag: f, .. } if f == flag),
                "{argv}: {err:?}"
            );
            assert!(err.to_string().contains(&format!("--{flag}")), "{err}");
        }
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
        let site = site_config(&[
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
        ])
        .unwrap();
        assert_eq!(site.datacenters, 4);
        assert_eq!(site.rows_per_datacenter, 3);
        assert_eq!(site.threads, 2);
        assert_eq!(site.site_budget_watts, Some(1.5e6));
        assert_eq!(site.datacenter_oversubscription, Some(0.25));
        assert_eq!(site.site_oversubscription, Some(0.10));
        assert!(site.enforce_budgets);
        assert!(site.site_active());
        // --fleet-threads 0 means "all cores" (at least one).
        let site = site_config(&["evaluate", "--rows", "2", "--fleet-threads", "0"]).unwrap();
        assert!(site.threads >= 1);
        // A zero-datacenter or zero-row site is a clean CLI error, not
        // a hierarchy panic.
        assert!(matches!(
            site_config(&["evaluate", "--rows", "2", "--datacenters", "0"]),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            site_config(&["evaluate", "--rows", "0", "--datacenters", "2"]),
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
        assert!(matches!(run(&inv), Err(CliError::Read { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file a flag names that cannot be read is a read error naming
    /// the flag and the path, not an artifact-write failure.
    #[test]
    fn unreadable_flag_files_are_read_errors() {
        let dir = std::env::temp_dir();
        let dir = dir.to_str().unwrap();
        let cases: &[&[&str]] = &[
            &["--watch", "--watch-rules", "/nonexistent/rules.txt"],
            &["--carbon-trace", "/nonexistent/carbon.csv"],
            &["--carbon-trace", dir],
        ];
        for case in cases {
            let [.., flag, path] = case else {
                panic!("{case:?} ends in a flag and its path")
            };
            let mut argv = vec!["evaluate", "--days", "0.01"];
            argv.extend_from_slice(case);
            let err = run(&parse_args(args(&argv)).unwrap()).unwrap_err();
            assert!(
                matches!(&err, CliError::Read { flag: f, path: p, .. }
                    if *f == flag[2..] && p == path),
                "{argv:?}: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains(flag) && msg.contains(path), "{msg}");
            assert!(!msg.contains("write"), "{msg}");
        }
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

    /// Every registered figure runs at a short horizon, and at the
    /// shortest `--days` accepts, and prints more than its header; the
    /// registry's ids are exactly the stems of `results/*.txt`.
    #[test]
    fn every_figure_runs_and_has_a_result_file() {
        for days in [0.05, 0.0007] {
            for figure @ (id, header, _) in figures::FIGURES {
                let out = figures::render(figure, Some(days), 17, None).unwrap();
                let head = format!("== {header} ==\n");
                assert!(
                    out.starts_with(&head) && out.len() > head.len(),
                    "{id}: {out}"
                );
                // An unguarded ratio prints `inf`, or `infx`/`NaNx` as a
                // factor.
                for word in out.split_whitespace() {
                    let factor = word.strip_suffix('x').and_then(|w| w.parse().ok());
                    assert!(
                        !word.parse().is_ok_and(f64::is_infinite)
                            && factor.is_none_or(f64::is_finite),
                        "{id} printed {word}"
                    );
                }
                // The selective-capping caption claims a brake only when
                // its table row shows one.
                if *id == "extension_selective" {
                    let brakes = out
                        .lines()
                        .find_map(|line| line.strip_prefix("selective "))
                        .and_then(|row| row.split_whitespace().nth(1))
                        .expect("selective row");
                    assert!(
                        brakes != "0" || !out.contains("brake slips through"),
                        "{id} at {days} days claims a brake with 0 in its table: {out}"
                    );
                }
            }
        }
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut stems: Vec<String> = std::fs::read_dir(results)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        let ids: Vec<&str> = figures::FIGURES.iter().map(|(id, ..)| *id).collect();
        assert_eq!(ids, stems);
    }

    #[test]
    fn sparkline_has_requested_width() {
        let ts: TimeSeries = (0..100).map(|i| (i as f64, (i as f64).sin())).collect();
        let s = figures::sparkline(&ts, 20);
        assert_eq!(s.chars().count(), 20);
    }

    #[test]
    fn sparkline_of_empty_series_is_empty() {
        assert_eq!(figures::sparkline(&TimeSeries::new(), 10), "");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(figures::pct(0.305), "30.5%");
    }

    #[test]
    fn table_renders_csv_through_obs_exporter() {
        let mut t = figures::Table::new(&["policy", "brakes"]);
        t.row(vec!["POLCA".into(), "0".into()]);
        t.row(vec!["No-cap".into(), "12".into()]);
        assert_eq!(t.csv(), "policy,brakes\nPOLCA,0\nNo-cap,12\n");
    }

    #[test]
    fn series_csv_round_trips_points() {
        let ts: TimeSeries = [(0.0, 1.0), (2.0, 3.5)].into_iter().collect();
        let body = figures::series_csv("t_s", "watts", &ts);
        assert_eq!(body, "t_s,watts\n0,1\n2,3.5\n");
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
