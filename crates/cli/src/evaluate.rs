//! The `evaluate` subcommand: one resolver and one runner.
//!
//! [`RunSpec::from_invocation`] reads every `evaluate` flag once into a
//! [`RunSpec`]: the arrival source, the row, the shape (one row under
//! one policy, one row under the Figure 17 panel, or a site), the
//! engine and the observability planes. Each flag either takes effect
//! on the resolved run or is refused with a [`CliError::BadValue`] that
//! names it. [`RunSpec::run`] builds the recorder once, runs the row
//! harness ([`OversubscriptionStudy`]) or [`SiteSim`], and prints and
//! writes each shape's output through one path.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use polca::{CostModel, DisaggregationConfig, OversubscriptionStudy, PolcaPolicy, PolicyKind};
use polca_cluster::{EngineKind, Request, RowConfig, SimConfig, SiteConfig, SiteReport, SiteSim};
use polca_ingest::{IngestedTrace, ReplayOptions, TraceReplay};
use polca_obs::{
    Annotation, CarbonSignal, CarbonTrace, EnergyPlan, ObsLevel, Phase, Recorder, ReqTraceConfig,
    RunArtifacts,
};
use polca_sim::SimTime;
use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
use polca_trace::{ArrivalGenerator, TraceConfig, WorkloadClass};
use polca_watch::{
    IncidentState, RuleSet, WatchArtifacts, WatchConfig, WatchEnergyConfig, WatchPlane,
};

use crate::{bad_value, find_policy, non_negative, positive, CliError, Invocation};

/// The `evaluate` entry point.
pub(crate) fn evaluate(inv: &Invocation) -> Result<(), CliError> {
    RunSpec::from_invocation(inv)?.run()
}

/// Where a run's requests come from.
enum Source {
    /// Synthesized from the production profile over `--days`.
    Synthesized { days: f64 },
    /// The `--trace-csv` stream after `--rate-scale` and `--time-scale`.
    Trace { path: String, replay: ReplayOptions },
}

/// What runs on the arrivals.
pub(crate) enum Shape {
    /// One row under each of `kinds`: one policy, or the Figure 17
    /// panel on `jobs` workers.
    Row { kinds: Vec<PolicyKind>, jobs: usize },
    /// A site of identical rows under one policy.
    Site {
        kind: PolicyKind,
        config: Box<SiteConfig>,
    },
}

/// A resolved `evaluate` invocation.
pub(crate) struct RunSpec {
    source: Source,
    /// The row before `--added`: `--servers` servers.
    row: RowConfig,
    /// `--added`, in percent.
    added: f64,
    pub(crate) shape: Shape,
    engine: EngineKind,
    /// The observability planes, all captured at `level`.
    level: ObsLevel,
    req: Option<ReqTraceConfig>,
    energy: Option<EnergyPlan>,
    /// Sized for one row, or for one datacenter of a site.
    watch: Option<WatchConfig>,
    profile: bool,
    seed: u64,
    power_scale: f64,
    obs_out: Option<String>,
    /// Print the `--rows` compatibility note before the run.
    site_note: bool,
}

/// Flags only a site reads.
const SITE_ONLY: &str =
    "rows-per-pdu enforce-budgets fleet-threads site-budget-mw oversub-dc oversub-site";

/// Flags that, when present, show the caller is aware of the site
/// level; their absence on a multi-row run triggers the compatibility
/// note.
const SITE_FLAGS: &str = "datacenters fleet-threads site-budget-mw oversub-dc oversub-site";

impl RunSpec {
    /// Resolves every `evaluate` flag.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] for a malformed or out-of-range
    /// value, or for a flag the resolved run would not read.
    pub(crate) fn from_invocation(inv: &Invocation) -> Result<RunSpec, CliError> {
        let has = |flag: &str| inv.options.contains_key(flag);
        let seed: u64 = inv.get("seed", 17)?;
        let source = match inv.get_opt::<String>("trace-csv")? {
            Some(path) => {
                inv.refuse("days", "conflicts with --trace-csv")?;
                let replay = ReplayOptions {
                    time_scale: inv.get_valid("time-scale", 1.0, positive)?,
                    rate_scale: inv.get_valid("rate-scale", 1.0, positive)?,
                    seed,
                };
                Source::Trace { path, replay }
            }
            None => {
                inv.refuse("rate-scale time-scale", "requires --trace-csv")?;
                let days = inv.get_days(2.0, OversubscriptionStudy::PROFILE_STEP_S)?;
                Source::Synthesized { days }
            }
        };
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = inv.get_valid("servers", 40, |n| *n > 0)?;
        let added = inv.get_valid("added", 30.0, non_negative)?;
        let power_scale = inv.get_valid("power-scale", 1.0, positive)?;
        let engine = parse_engine(inv)?;
        let policy = inv.get_opt::<String>("policy")?;
        let policy = policy.map(|name| find_policy(&name)).transpose()?;
        let kind = policy.unwrap_or(PolicyKind::Polca);
        let rows: usize = inv.get_valid("rows", 1, |n| *n > 0)?;
        let datacenters: usize = inv.get_valid("datacenters", 1, |n| *n > 0)?;
        let site = rows > 1 || datacenters > 1;
        let synthesized = matches!(source, Source::Synthesized { .. });
        let panel = !site && !synthesized && policy.is_none();
        let jobs = if panel {
            inv.get_valid("jobs", 1, |n| *n > 0)?
        } else {
            inv.refuse("jobs", "requires the four-policy --trace-csv panel")?;
            1
        };
        if site || !synthesized {
            inv.refuse("profile", "requires a synthesized single row")?;
        }
        let shape = if site {
            let base = SimConfig {
                seed,
                power_scale,
                record_power_series: false,
                engine: engine.clone(),
                ..SimConfig::default()
            };
            let config = SiteConfig {
                base,
                ..site_config(inv, rows, datacenters)?
            };
            Shape::Site {
                kind,
                config: Box::new(config),
            }
        } else {
            inv.refuse(SITE_ONLY, "requires --rows or --datacenters above 1")?;
            let kinds = if panel {
                PolicyKind::all().to_vec()
            } else {
                vec![kind]
            };
            Shape::Row { kinds, jobs }
        };
        // A watch plane watches one row, or one datacenter of a site.
        let watch_watts = rows as f64 * row.provisioned_watts();
        let obs_out: Option<String> = inv.get_opt("obs-out")?;
        let req = parse_req_trace(inv)?;
        let energy = parse_energy(inv)?;
        let watch = if has("watch") {
            let cfg = watch_config(inv, watch_watts, energy.as_ref())?;
            // The per-token rule counts output tokens from polca-req
            // records, and only a row's plane receives them: a site's
            // planes replay each datacenter's power ticks alone.
            if site {
                inv.refuse("carbon-per-token", "requires a single row")?;
            } else if req.is_none() {
                inv.refuse("carbon-per-token", "requires --req-trace")?;
            }
            Some(cfg)
        } else {
            let watch_only = "watch-rules carbon-budget carbon-per-token";
            inv.refuse(watch_only, "requires --watch")?;
            None
        };
        // `--obs-out` without an explicit level means "give me everything".
        let default_level = if obs_out.is_some() {
            ObsLevel::Full
        } else {
            ObsLevel::Off
        };
        // The watch plane's count rules and burn tracker ride the event
        // stream, the energy ledger records through the metrics gate,
        // and polca-prof accumulators only exist at the full level.
        let mut level = inv.get("obs-level", default_level)?;
        if watch.is_some() || req.is_some() {
            level = level.max(ObsLevel::Events);
        }
        if energy.is_some() {
            level = level.max(ObsLevel::Metrics);
        }
        let profile = has("profile");
        if profile {
            level = level.max(ObsLevel::Full);
        }
        Ok(RunSpec {
            source,
            row,
            added,
            shape,
            engine,
            level,
            req,
            energy,
            watch,
            profile,
            seed,
            power_scale,
            obs_out,
            site_note: rows > 1 && datacenters == 1 && !SITE_FLAGS.split(' ').any(has),
        })
    }

    /// Runs the resolved invocation, printing to stdout and writing
    /// `--obs-out` artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the trace cannot be ingested or an
    /// artifact cannot be written.
    pub(crate) fn run(&self) -> Result<(), CliError> {
        if self.site_note {
            println!(
                "note: --rows now sizes one datacenter, not the whole hierarchy; \
                 defaulting to a 1-datacenter site (add --datacenters N to scale out)"
            );
        }
        let mut recorder = Recorder::new(self.level);
        if let Some(cfg) = self.req {
            recorder = recorder.with_req_trace(cfg);
        }
        if let Some(plan) = &self.energy {
            recorder = recorder.with_energy(plan.clone());
        }
        let study = self.study(&recorder)?;
        match &self.shape {
            Shape::Row { kinds, jobs } => self.run_row(&study, kinds, *jobs, &recorder),
            Shape::Site { kind, config } => self.run_site(&study, *kind, config, &recorder),
        }
    }

    /// The row harness: synthesized, or replaying the ingested stream
    /// on the oversubscribed row. A replay prints its header here, once
    /// the stream is known.
    fn study(&self, recorder: &Recorder) -> Result<OversubscriptionStudy, CliError> {
        let policy = PolcaPolicy::default();
        let mut study = match &self.source {
            Source::Synthesized { days } => {
                OversubscriptionStudy::new(self.row.clone(), policy, *days, self.seed)
            }
            Source::Trace { path, replay } => {
                let trace = IngestedTrace::from_csv_path_observed(Path::new(path), recorder)
                    .map_err(|e| CliError::Ingest(e.to_string()))?;
                let requests: Vec<_> = TraceReplay::with_options(&trace, *replay).collect();
                let row = self.row.clone().with_added_servers(self.added / 100.0);
                let (n, deployed, added) = (requests.len(), row.total_servers(), self.added);
                let hours = trace.duration_s() * replay.time_scale / 3600.0;
                let (rate, time) = (replay.rate_scale, replay.time_scale);
                match &self.shape {
                    Shape::Row { .. } => println!(
                        "replaying {path}: {n} requests over {hours:.1} h on {deployed} servers \
                         (+{added:.0}% oversubscribed, rate ×{rate}, time ×{time}, engine {})",
                        engine_tag(&self.engine)
                    ),
                    Shape::Site { config, .. } => println!(
                        "replaying {path} across {} rows: {n} requests over {hours:.1} h on \
                         {deployed} servers/row (+{added:.0}% oversubscribed, rate ×{rate}, \
                         time ×{time})",
                        config.datacenters * config.rows_per_datacenter
                    ),
                }
                OversubscriptionStudy::from_requests(row, policy, requests, self.seed)
            }
        };
        study.set_record_power(false);
        study.set_recorder(recorder.clone());
        study.set_engine(self.engine.clone());
        Ok(study)
    }

    /// One row under each of `kinds`, run as one sweep on `jobs`
    /// workers. Each cell gets its own recorder and watch plane: the
    /// clock restarts per run, and a shared engine would see time jump
    /// backwards.
    fn run_row(
        &self,
        study: &OversubscriptionStudy,
        kinds: &[PolicyKind],
        jobs: usize,
        recorder: &Recorder,
    ) -> Result<(), CliError> {
        let replay = matches!(self.source, Source::Trace { .. });
        if replay {
            println!(
                "  {:<18} {:>8} {:>8} {:>10} {:>7}",
                "policy", "LP p99", "HP p99", "peak util", "brakes"
            );
        }
        let planes: Vec<Option<WatchPlane>> = kinds
            .iter()
            .map(|_| self.watch.clone().map(WatchPlane::new))
            .collect();
        let cells: Vec<_> = kinds
            .iter()
            .map(|&kind| (kind, self.added / 100.0, self.power_scale))
            .collect();
        let run_start = Instant::now();
        let outcomes = study.sweep_with(&cells, jobs, |i, obs| {
            let mut taps = RowPowerTaps::new();
            if let Some(plane) = &planes[i] {
                plane.attach(&mut taps, obs);
            }
            taps
        });
        let run_wall_ns = run_start.elapsed().as_nanos() as u64;
        let watch: Vec<Option<WatchArtifacts>> = planes
            .iter()
            .map(|plane| plane.as_ref().map(|p| p.finalize(study.horizon())))
            .collect();

        let (added, power_scale) = (self.added, self.power_scale);
        let mut completed = 0;
        if let Source::Synthesized { days } = self.source {
            let o = &outcomes[0];
            completed = o.counts.1;
            println!(
                "{} at +{added:.0}% servers, power×{power_scale}, {days} day(s), engine {}:",
                o.kind.name(),
                engine_tag(&self.engine)
            );
            println!(
                "  normalized latency  LP p50 {:.3} p99 {:.3} | HP p50 {:.3} p99 {:.3}",
                o.low_normalized.p50,
                o.low_normalized.p99,
                o.high_normalized.p50,
                o.high_normalized.p99
            );
            println!(
                "  peak util {:.1}%  brakes {}  SLO {}",
                o.peak_utilization * 100.0,
                o.brake_engagements,
                if o.slo.met { "met" } else { "MISSED" }
            );
            let value = CostModel::default().oversubscription_value(study.row(), added / 100.0);
            println!(
                "  capacity value: {} extra servers ≈ ${:.2}M of avoided datacenter build-out",
                value.extra_servers,
                value.avoided_capex_usd / 1e6
            );
        } else {
            for (o, artifacts) in outcomes.iter().zip(&watch) {
                println!(
                    "  {:<18} {:>8.3} {:>8.3} {:>9.1}% {:>7}",
                    o.kind.name(),
                    o.low_normalized.p99,
                    o.high_normalized.p99,
                    o.peak_utilization * 100.0,
                    o.brake_engagements
                );
                if let Some(artifacts) = artifacts {
                    print_watch_summary(artifacts, "    ");
                }
            }
        }
        // One snapshot for every printer and the writer, taken before
        // artifact I/O so the profile accounts for the run only.
        let run = recorder.artifacts();
        print_req_summary(&run, "  ");
        // A replay prints no per-request figure: on the panel the
        // ledger aggregates every cell (each run contributes one row-0
        // account, merged in canonical order).
        print_energy_summary(&run, completed, "  ");
        if self.profile {
            println!("  self-profile (polca-prof):");
            for line in run.prof.attribution_table(run_wall_ns).lines() {
                println!("    {line}");
            }
        }
        // The first policy's plane supplies incidents and trace markers.
        let first_watch = watch.first().and_then(Option::as_ref);
        if let Some(dir) = &self.obs_out {
            let annotations = first_watch.map_or_else(Vec::new, WatchArtifacts::annotations);
            write_artifacts(recorder, &run, &annotations, &[], dir)?;
        }
        let Some(artifacts) = first_watch else {
            return Ok(());
        };
        if !replay {
            print_watch_summary(artifacts, "  ");
        }
        if let Some(dir) = &self.obs_out {
            if replay {
                println!(
                    "  watch artifacts below are from the {} run",
                    kinds[0].name()
                );
            }
            write_watch_artifacts(artifacts, dir)?;
        }
        Ok(())
    }

    /// A site fed round-robin: the ingested stream as is, or the
    /// synthesized workload scaled so each row sees the oversubscribed
    /// per-row load after dispatch.
    fn run_site(
        &self,
        study: &OversubscriptionStudy,
        kind: PolicyKind,
        config: &SiteConfig,
        recorder: &Recorder,
    ) -> Result<(), CliError> {
        let total_rows = config.datacenters * config.rows_per_datacenter;
        let horizon = study.horizon();
        let source: Box<dyn Iterator<Item = Request>> = match study.requests() {
            Some(requests) => {
                let requests = Arc::clone(requests);
                Box::new((0..requests.len()).map(move |k| requests[k]))
            }
            None => Box::new(ArrivalGenerator::new(&TraceConfig {
                seed: self.seed,
                horizon,
                schedule: study
                    .base_schedule()
                    .scaled((1.0 + self.added / 100.0) * total_rows as f64),
                mix: WorkloadClass::table6(),
            })),
        };
        let mut site = config.clone();
        site.base.recorder = recorder.clone();
        let watch_buffer = self.watch.as_ref().map(|_| {
            let buffer = RowTickBuffer::new(total_rows);
            site.base.oob_taps.subscribe(buffer.clone());
            buffer
        });
        let policy = PolcaPolicy::default();
        let row = self.row.clone().with_added_servers(self.added / 100.0);
        let report = SiteSim::new(
            row,
            site,
            |_, rec| kind.controller(&policy, rec),
            source,
            horizon,
        )
        .run();
        let pdus = report.pdu_budget_watts.len();
        let budgets = if config.enforce_budgets {
            "enforced"
        } else {
            "monitored"
        };
        let (added, rows) = (self.added, config.rows_per_datacenter);
        let engine = engine_tag(&self.engine);
        match self.source {
            Source::Trace { .. } => {
                println!("{} fleet: {pdus} PDU(s), budgets {budgets}:", kind.name());
            }
            Source::Synthesized { days } if config.datacenters > 1 => println!(
                "{} site: {} datacenters × {rows} rows (+{added:.0}% servers each), \
                 {pdus} PDU(s), {days} day(s), engine {engine}, budgets {budgets}:",
                kind.name(),
                config.datacenters
            ),
            Source::Synthesized { days } => println!(
                "{} fleet: {rows} rows (+{added:.0}% servers each), {pdus} PDU(s), \
                 {days} day(s), engine {engine}, budgets {budgets}:",
                kind.name()
            ),
        }
        print_site_table(&report, config.site_active());
        // The site recorder holds every row's energy account and
        // profile: the ledger (table, energy.json) covers the fleet, and
        // one `prof.json` answers "where did the whole site run spend
        // its time". Only the energy table and the writer read a site's
        // snapshot.
        if self.energy.is_some() || self.obs_out.is_some() {
            let run = recorder.artifacts();
            print_energy_summary(&run, report.completed(), "  ");
            if let Some(dir) = &self.obs_out {
                write_artifacts(recorder, &run, &[], &report.row_recorders, dir)?;
            }
        }
        if let (Some(buffer), Some(cfg)) = (&watch_buffer, &self.watch) {
            finalize_site_watch(cfg, buffer, &report, horizon, self.obs_out.as_deref())?;
        }
        Ok(())
    }
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
            inv.refuse("split-pools", "requires --engine batched")?;
            Ok(EngineKind::Legacy)
        }
        "batched" => Ok(DisaggregationConfig::default().batched_engine(split)),
        other => Err(bad_value("engine", other)),
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

/// Parses `--req-trace` / `--req-sample N` into the polca-req
/// configuration. `--req-sample` alone implies tracing; the stride is
/// floored at 1 so `--req-sample 0` means "keep everything".
pub(crate) fn parse_req_trace(inv: &Invocation) -> Result<Option<ReqTraceConfig>, CliError> {
    let sample: Option<u64> = inv.get_opt("req-sample")?;
    if !inv.options.contains_key("req-trace") && sample.is_none() {
        return Ok(None);
    }
    Ok(Some(ReqTraceConfig {
        sample: sample.unwrap_or(1).max(1),
    }))
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
            inv.refuse("carbon-diurnal", "conflicts with --carbon-trace")?;
            let text = read_flag_file("carbon-trace", path)?;
            let trace =
                CarbonTrace::from_csv_str(&text).map_err(|e| bad_value("carbon-trace", e))?;
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
            .map_err(|_| bad_value("pue", raw))?;
        if pue.is_empty() || pue.iter().any(|p| !p.is_finite() || *p < 1.0) {
            return Err(bad_value("pue", raw));
        }
        plan = plan.with_pue(&pue);
    }
    Ok(Some(plan))
}

/// The watch plane's config for a row or datacenter provisioned at
/// `provisioned_watts`, with `--watch-rules` if given. A carbon
/// threshold (`--carbon-budget` gCO2e/h or `--carbon-per-token` gCO2e)
/// arms the built-in carbon rules on the same delayed OOB feed, and
/// needs the energy plan's grid signal.
fn watch_config(
    inv: &Invocation,
    provisioned_watts: f64,
    energy: Option<&EnergyPlan>,
) -> Result<WatchConfig, CliError> {
    let mut cfg = WatchConfig::new(provisioned_watts);
    if let Some(path) = inv.options.get("watch-rules") {
        let text = read_flag_file("watch-rules", path)?;
        cfg.rules = RuleSet::parse(&text).map_err(|e| bad_value("watch-rules", e))?;
    }
    let budget: Option<f64> = inv.get_opt_valid("carbon-budget", positive)?;
    let per_token: Option<f64> = inv.get_opt_valid("carbon-per-token", positive)?;
    let Some(plan) = energy else {
        inv.refuse(
            "carbon-budget carbon-per-token",
            "requires --carbon-trace, --carbon-diurnal or --pue",
        )?;
        return Ok(cfg);
    };
    if budget.is_none() && per_token.is_none() {
        return Ok(cfg);
    }
    Ok(cfg.with_energy(WatchEnergyConfig {
        signal: plan.signal.clone(),
        pue: plan.pue_for_dc(),
        budget_g_per_h: budget.unwrap_or(f64::INFINITY),
        co2e_per_token_g: per_token.unwrap_or(f64::INFINITY),
        window_s: 600.0,
    }))
}

/// The text of the file at `path`, which `--flag` named.
fn read_flag_file(flag: &str, path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Read {
        flag: flag.to_string(),
        path: path.to_string(),
        error: e.to_string(),
    })
}

/// Parses the site-shape flags into a [`SiteConfig`] (shape, budgets,
/// and threading; the caller fills `base`). `--fleet-threads 0` means
/// "all cores".
fn site_config(inv: &Invocation, rows: usize, datacenters: usize) -> Result<SiteConfig, CliError> {
    let threads: usize = inv.get("fleet-threads", 1)?;
    Ok(SiteConfig {
        datacenters,
        rows_per_datacenter: rows,
        rows_per_pdu: inv.get_valid("rows-per-pdu", 2, |n| *n > 0)?,
        enforce_budgets: inv.options.contains_key("enforce-budgets"),
        threads: if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        },
        site_budget_watts: inv
            .get_opt_valid("site-budget-mw", positive)?
            .map(|mw: f64| mw * 1e6),
        datacenter_oversubscription: inv
            .get_opt_valid("oversub-dc", non_negative)?
            .map(|pct: f64| pct / 100.0),
        site_oversubscription: inv
            .get_opt_valid("oversub-site", non_negative)?
            .map(|pct: f64| pct / 100.0),
        ..SiteConfig::default()
    })
}

/// Prints the per-datacenter energy/carbon ledger table for a finished
/// run, if an energy plan was attached and produced any rows.
fn print_energy_summary(run: &RunArtifacts, completed: u64, indent: &str) {
    let ledger = run.energy_ledger();
    if ledger.is_empty() {
        return;
    }
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
                .energy_per_request_wh_measured(&ledger, completed)
                .unwrap_or(0.0)
        );
    }
}

/// One-line digest of a finished req-trace run.
fn print_req_summary(run: &RunArtifacts, indent: &str) {
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

/// Writes `incidents.jsonl` + `report.md` into `dir`. The plane's
/// alert markers are already in `trace.json`: a watched run records
/// events, so `write_artifacts` wrote it.
fn write_watch_artifacts(artifacts: &WatchArtifacts, dir: &str) -> Result<(), CliError> {
    let files = artifacts.write_dir(Path::new(dir))?;
    println!(
        "  watch artifacts: {} file(s) in {}/ (alert markers merged into trace.json)",
        files.len(),
        dir.trim_end_matches('/'),
    );
    Ok(())
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

/// Writes `run`, the snapshot of `recorder`, into `dir` (timed as
/// [`Phase::RecorderIo`]; a disabled recorder writes nothing) with
/// `annotations` merged into `trace.json`, and each site row's artifacts
/// into `dir/rowN/` (global row index, flat across datacenters).
fn write_artifacts(
    recorder: &Recorder,
    run: &RunArtifacts,
    annotations: &[Annotation],
    rows: &[Recorder],
    dir: &str,
) -> Result<(), CliError> {
    let dir_path = Path::new(dir);
    let mut total = 0;
    if recorder.is_enabled() {
        let _io = recorder.prof().time(Phase::RecorderIo);
        total += run.write_dir_with(dir_path, annotations)?.len();
    }
    for (i, rec) in rows.iter().enumerate() {
        total += rec.write_dir(&dir_path.join(format!("row{i}")))?.len();
    }
    let dir = dir.trim_end_matches('/');
    let level = run.level;
    match rows.len() {
        0 => println!("  obs artifacts ({level}): {total} file(s) in {dir}/"),
        n => println!(
            "  obs artifacts ({level}): {total} file(s) in {dir}/ (site level) and row0..row{}/",
            n - 1
        ),
    }
    Ok(())
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
    cfg: &WatchConfig,
    buffer: &RowTickBuffer,
    report: &SiteReport,
    horizon: SimTime,
    obs_out: Option<&str>,
) -> Result<(), CliError> {
    for d in 0..report.datacenters {
        let columns: Vec<_> = report
            .rows_in_datacenter(d)
            .map(|row| buffer.take_row(row))
            .collect();
        let plane = WatchPlane::new(cfg.clone());
        let sub = plane.subscriber();
        // One plane watches one stream, so it reads no row index.
        for tick in &merge_tick_columns(&columns) {
            sub.on_tick(0, tick.t, tick.truth_watts, tick.observed_watts);
        }
        let artifacts = plane.finalize(horizon);
        println!("  datacenter {d}:");
        print_watch_summary(&artifacts, "    ");
        if let Some(dir) = obs_out {
            let files = artifacts.write_dir(&Path::new(dir).join(format!("dc{d}")))?;
            println!(
                "    watch artifacts: {} file(s) in {}/dc{d}/",
                files.len(),
                dir.trim_end_matches('/')
            );
        }
    }
    Ok(())
}
