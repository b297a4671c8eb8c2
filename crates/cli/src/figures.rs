//! `polca-cli figures`: every table and figure of the paper's
//! evaluation, plus the ablations and extensions, one function each in
//! the [`FIGURES`] registry.
//!
//! Each function writes the rows or series the paper reports into the
//! `String` the command prints, so a figure's output is the same
//! whether it runs alone or with the others. `results/<id>.txt` holds
//! each figure's output at the defaults (seed 17, the horizon each
//! figure picks); `EXPERIMENTS.md` records paper-vs-measured values.
//! `--days` replaces every evaluation figure's own horizon. With
//! `--obs-out DIR`, the figures that save their printed tables or
//! series as CSV (and, for Figures 16 and 18, their recorder artifacts)
//! write them into `DIR/<id>/`.

use std::fmt::{self, Write};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use polca::{
    Disaggregation, DisaggregationConfig, OversubscriptionStudy, PolcaController, PolcaPolicy,
    PolicyKind, PolicyOutcome, PowerMode, SelectiveController, SloTargets,
};
use polca_cluster::{ClusterSim, Priority, RowConfig, SimConfig, TrainingCluster};
use polca_gpu::{CounterSample, DvfsModel, Gpu, GpuSpec, PhaseKind, ServerSpec};
use polca_llm::{DType, InferenceConfig, InferenceModel, ModelSpec, TrainingJob};
use polca_obs::{ObsLevel, Recorder};
use polca_sim::{SimRng, SimTime};
use polca_stats::{pearson, CorrelationMatrix, Quantiles, Summary, TimeSeries};
use polca_telemetry::{MonitorInterface, RowParameters};
use polca_trace::replicate::{production_reference, ProductionReplicator};
use polca_trace::{ArrivalGenerator, TraceConfig, WorkloadClass};

use crate::{CliError, Invocation};

/// What a figure reads besides its id.
pub(crate) struct Ctx {
    /// `--days`, in place of the horizon an evaluation figure picks.
    days: Option<f64>,
    /// `--seed`.
    seed: u64,
    /// `DIR/<id>` under `--obs-out DIR`.
    obs_dir: Option<PathBuf>,
}

impl Ctx {
    /// The evaluation horizon: `--days`, else the figure's `default`.
    fn days(&self, default: f64) -> f64 {
        self.days.unwrap_or(default)
    }

    /// Writes `body` as `name` into the figure's `--obs-out` directory,
    /// if there is one.
    fn save(&self, name: &str, body: &str) -> io::Result<()> {
        if let Some(dir) = &self.obs_dir {
            fs::create_dir_all(dir)?;
            fs::write(dir.join(name), body)?;
        }
        Ok(())
    }
}

/// A figure: its id (the stem of its `results/` file), its header, and
/// the function that writes the rest of its output.
pub(crate) type Figure = (&'static str, &'static str, Run);

/// A figure's function.
type Run = fn(&Ctx, &mut String) -> Result<(), CliError>;

/// Registers `id: header` pairs; each id is its figure's function.
macro_rules! registry {
    ($($id:ident: $header:literal,)*) => {
        &[$((stringify!($id), $header, $id as Run)),*]
    };
}

/// Every figure, by id. Each function below writes what its figure
/// prints after the header line.
pub(crate) const FIGURES: &[Figure] = registry![
    ablation_buffer: "Ablation: Per-server buffer depth under POLCA at +30% servers",
    ablation_hysteresis: "Ablation: Uncap hysteresis gap: OOB command volume and SLO outcome at +30% servers",
    ablation_oob_failures: "Ablation (§3.3): Silent OOB capping-command failures under POLCA at +30% servers",
    extension_disaggregation: "Extension (§5.2): Prompt/token disaggregation with token-pool frequency capping",
    extension_phase_aware: "Extension (§5.2): Phase-aware power management: token phases at 1110 MHz, prompts at full clock",
    extension_selective: "Extension (§6.7): Selective (workload-aware) capping vs uniform dual-threshold POLCA at +30%",
    fig03_power_breakdown: "Figure 3: Provisioned power (8xA100-80GB server)",
    fig04_training_timeseries: "Figure 4: Power usage time-series for training workloads under no cap, power cap, and frequency cap",
    fig05_training_capping: "Figure 5: Peak power vs. performance reduction for training",
    fig06_inference_timeseries: "Figure 6: GPU power usage timeseries for multiple inference models (3 requests each)",
    fig07_counter_correlation: "Figure 7: Pairwise correlations of GPU counters for prompt and token phases (BLOOM)",
    fig08_config_sensitivity: "Figure 8: Power (peak/mean, normalized to TDP) and latency sensitivity to request shape",
    fig09_bloom_capping: "Figure 9: GPU power capping and frequency locking on BLOOM inference (8192/128/1)",
    fig10_freq_sensitivity: "Figure 10: Peak power reduction vs. performance reduction varying GPU SM frequencies",
    fig11_server_peaks: "Figure 11: Server and GPU peak power normalized to TDP (40 servers)",
    fig13_threshold_search: "Figure 13: Threshold space search (T1/T2); gray line = max servers without power brakes",
    fig14_throughput: "Figure 14: Server throughput for POLCA",
    fig15_parameter_sweeps: "Figure 15: Parameter sweeps for POLCA (+30% servers)",
    fig16_six_week_power: "Figure 16: Row-level power utilization, default vs +30% servers (2s and 5min averages)",
    fig17_policy_comparison: "Figure 17: Performance impact of dual-threshold POLCA vs other policies at 30% oversubscription",
    fig18_power_brakes: "Figure 18: Number of power brake events per policy at 30% oversubscription",
    serve_policy_comparison: "Serve policy comparison: POLCA vs thresholding baselines at +30% on the continuous-batching engine",
    tab01_interfaces: "Table 1: Power monitoring interfaces in an LLM cluster",
    tab02_row_params: "Table 2: Row-level parameters in our study",
    tab03_model_zoo: "Table 3: LLM workloads that we characterize (* inference only)",
    tab04_production_stats: "Table 4: LLM cluster power usage in production",
    tab05_power_modes: "Table 5: Power modes for low and high priority workloads",
    tab06_workload_slos: "Table 6: Workload distribution and SLOs",
];

/// The `figures` subcommand: runs the figures its positional ids name
/// (all of them when none is given), in that order, and prints each
/// one's output once it has run.
pub(crate) fn figures(inv: &Invocation) -> Result<(), CliError> {
    let selected: Vec<&Figure> = if inv.positionals.is_empty() {
        FIGURES.iter().collect()
    } else {
        inv.positionals
            .iter()
            .map(|id| {
                FIGURES.iter().find(|(name, ..)| name == id).ok_or_else(|| {
                    CliError::UnexpectedArgument {
                        command: inv.command.clone(),
                        arg: id.clone(),
                    }
                })
            })
            .collect::<Result<_, _>>()?
    };
    let days = inv.get_opt_days(OversubscriptionStudy::PROFILE_STEP_S)?;
    let seed: u64 = inv.get("seed", 17)?;
    let obs_out: Option<PathBuf> = inv.get_opt("obs-out")?;
    for figure in selected {
        print!("{}", render(figure, days, seed, obs_out.as_deref())?);
    }
    Ok(())
}

/// Runs one figure and returns its output, header first.
pub(crate) fn render(
    &(id, header, run): &Figure,
    days: Option<f64>,
    seed: u64,
    obs_out: Option<&Path>,
) -> Result<String, CliError> {
    let ctx = Ctx {
        days,
        seed,
        obs_dir: obs_out.map(|dir| dir.join(id)),
    };
    let mut out = format!("== {header} ==\n");
    run(&ctx, &mut out)?;
    Ok(out)
}

/// Renders a small ASCII sparkline of a timeseries (for power traces in
/// terminal output).
pub(crate) fn sparkline(ts: &TimeSeries, width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if ts.is_empty() || width == 0 {
        return String::new();
    }
    let (lo, hi) = (ts.trough().unwrap_or(0.0), ts.peak().unwrap_or(1.0));
    let span = (hi - lo).max(f64::EPSILON);
    let values = ts.values();
    let chunk = (values.len() as f64 / width as f64).max(1.0);
    (0..width.min(values.len()))
        .map(|i| {
            let start = (i as f64 * chunk) as usize;
            let end = (((i + 1) as f64 * chunk) as usize)
                .min(values.len())
                .max(start + 1);
            let mean: f64 = values[start..end].iter().sum::<f64>() / (end - start) as f64;
            let idx = ((mean - lo) / span * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

/// Formats a fraction as a percent string with one decimal.
pub(crate) fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// A timeseries as a two-column CSV (`t_name,v_name`).
pub(crate) fn series_csv(t_name: &str, v_name: &str, ts: &TimeSeries) -> String {
    let rows: Vec<Vec<String>> = ts
        .times()
        .iter()
        .zip(ts.values())
        .map(|(t, v)| vec![format!("{t}"), format!("{v}")])
        .collect();
    polca_obs::export::csv_table(&[t_name, v_name], &rows)
}

/// The shared table writer: labelled rows rendered as an aligned text
/// table (first column left-aligned, the rest right-aligned) and, for
/// `--obs-out`, as CSV via the obs exporter.
pub(crate) struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub(crate) fn new(columns: &[&str]) -> Self {
        Table {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are kept.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Writes the aligned text table to `out`.
    fn write(&self, out: &mut String) -> fmt::Result {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.columns.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in [&self.columns].into_iter().chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        for row in [&self.columns].into_iter().chain(self.rows.iter()) {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = " ".repeat(w.saturating_sub(cell.chars().count()));
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&pad);
                } else {
                    line.push_str(&pad);
                    line.push_str(cell);
                }
            }
            writeln!(out, "{}", line.trim_end())?;
        }
        Ok(())
    }

    /// The table as CSV (header plus rows), via the obs exporter.
    pub(crate) fn csv(&self) -> String {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        polca_obs::export::csv_table(&cols, &self.rows)
    }
}

/// `"met"` or `"MISS"` for an outcome's SLO verdict.
fn slo_word(o: &PolicyOutcome) -> &'static str {
    if o.slo.met {
        "met"
    } else {
        "MISS"
    }
}

/// A study of `row` under `policy`, seeded from `ctx`, that keeps no
/// power series.
fn study(ctx: &Ctx, row: RowConfig, policy: PolcaPolicy, days: f64) -> OversubscriptionStudy {
    let mut study = OversubscriptionStudy::new(row, policy, days, ctx.seed);
    study.set_record_power(false);
    study
}

/// The production-shaped arrival trace at +30 % servers that the
/// controller-level figures replay, and its horizon.
fn oversubscribed_trace(ctx: &Ctx, row: &RowConfig, days: f64) -> (TraceConfig, SimTime) {
    let profile = production_reference(row, days, 60.0, ctx.seed);
    let replicator = ProductionReplicator::new(row, &WorkloadClass::table6());
    let schedule = replicator
        .schedule_from_profile(&profile)
        .expect("synthesized profile is well-formed")
        .scaled(1.3);
    let until = SimTime::from_days(days);
    let trace = TraceConfig {
        seed: ctx.seed,
        horizon: until,
        schedule,
        mix: WorkloadClass::table6(),
    };
    (trace, until)
}

/// Ablation: per-server request buffer depth (§6.6). "Our simulator
/// assumes a one-request buffer per server to simulate queueing
/// delays."
fn ablation_buffer(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    writeln!(
        out,
        "{:>7} {:>9} {:>7} {:>7} {:>7} {:>9} {:>6}",
        "buffer", "rejected", "LP p50", "LP p99", "HP p99", "LP tput", "SLO"
    )?;
    for depth in [0usize, 1, 2, 4, 8] {
        let mut row = RowConfig::paper_inference_row();
        row.buffer_capacity = depth;
        let o = study(ctx, row, PolcaPolicy::default(), days).run(PolicyKind::Polca, 0.30, 1.0);
        writeln!(
            out,
            "{:>7} {:>9} {:>7.3} {:>7.3} {:>7.3} {:>9.4} {:>6}",
            depth,
            o.counts.2,
            o.low_normalized.p50,
            o.low_normalized.p99,
            o.high_normalized.p99,
            o.low_throughput_norm,
            slo_word(&o)
        )?;
    }
    writeln!(
        out,
        "\ndeeper buffers trade rejected requests for queueing latency: depth 1 \
         (the paper's choice) keeps both tails and goodput inside the SLOs"
    )?;
    Ok(())
}

/// Ablation: the 5 % uncap hysteresis gap (§6.3), which keeps the
/// controller from flapping and flooding the OOB plane.
fn ablation_hysteresis(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    writeln!(
        out,
        "{:>6} {:>14} {:>8} {:>7} {:>7} {:>6}",
        "gap%", "OOB commands", "brakes", "LP p99", "HP p99", "SLO"
    )?;
    for gap in [0.0, 0.01, 0.03, 0.05, 0.08] {
        let policy = PolcaPolicy::default().with_uncap_gap(gap);
        let o = study(ctx, RowConfig::paper_inference_row(), policy, days).run(
            PolicyKind::Polca,
            0.30,
            1.0,
        );
        writeln!(
            out,
            "{:>6.0} {:>14} {:>8} {:>7.3} {:>7.3} {:>6}",
            gap * 100.0,
            o.commands_issued,
            o.brake_engagements,
            o.low_normalized.p99,
            o.high_normalized.p99,
            slo_word(&o)
        )?;
    }
    writeln!(
        out,
        "\nwithout the gap the controller flaps between capped and uncapped every \
         few ticks at the threshold, flooding the 40s-latency OOB plane"
    )?;
    Ok(())
}

/// Ablation: silent OOB capping-command failures (§3.3). The brake
/// safety net is exempt from failures, per the paper's treatment of it
/// as the reliable last line.
fn ablation_oob_failures(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    let base_row = RowConfig::paper_inference_row();
    let (trace, until) = oversubscribed_trace(ctx, &base_row, days);
    writeln!(
        out,
        "{:>13} {:>8} {:>8} {:>10}",
        "failure rate", "brakes", "peak%", "commands"
    )?;
    for failure_rate in [0.0, 0.05, 0.10, 0.20, 0.40] {
        let config = SimConfig {
            seed: ctx.seed,
            oob_failure_rate: failure_rate,
            record_power_series: false,
            ..SimConfig::default()
        };
        let report = ClusterSim::new(
            base_row.clone().with_added_servers(0.30),
            config,
            PolcaController::new(PolcaPolicy::default()),
        )
        .run(ArrivalGenerator::new(&trace), until);
        writeln!(
            out,
            "{:>12.0}% {:>8} {:>8.1} {:>10}",
            failure_rate * 100.0,
            report.brake_engagements,
            report.peak_row_watts / base_row.provisioned_watts() * 100.0,
            report.commands_issued
        )?;
    }
    writeln!(
        out,
        "\nthe dual-threshold design turns out to be fail-safe under silent \
         losses: a lost CAP gets a second chance at the T2 escalation, while a \
         lost UNCAP just leaves a server capped (safe but slow) — power peaks \
         actually drop as losses rise, at the cost of low-priority performance. \
         The paper's call for better OOB interfaces (§5) is about that \
         performance tax and about debuggability, not about safety"
    )?;
    Ok(())
}

/// Extension: §5.2 prompt/token phase splitting (Splitwise \[49\]):
/// pool sizes for the Table 6 mix on BLOOM-176B, the KV-cache transfer
/// cost, and the power envelope against the aggregated deployment.
fn extension_disaggregation(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let row = RowConfig::paper_inference_row();
    let mix = WorkloadClass::table6();
    writeln!(
        out,
        "{:>10} {:>8} {:>8} {:>10} {:>11} {:>11} {:>9}",
        "token MHz", "prompt", "token", "KV xfer", "latency +", "row power", "saving"
    )?;
    for token_mhz in [1410.0, 1305.0, 1110.0, 900.0] {
        let config = DisaggregationConfig {
            token_clock_mhz: token_mhz,
            ..DisaggregationConfig::default()
        };
        let plan = Disaggregation::plan(&row, &mix, &config);
        writeln!(
            out,
            "{:>10.0} {:>8} {:>8} {:>9.0}ms {:>10.1}% {:>9.0}kW {:>8.1}%",
            token_mhz,
            plan.prompt_servers,
            plan.token_servers,
            plan.kv_transfer_s * 1000.0,
            plan.latency_overhead() * 100.0,
            plan.peak_watts / 1000.0,
            plan.power_saving() * 100.0
        )?;
    }
    writeln!(out, "\ninterconnect sensitivity (token pool at 1110 MHz):")?;
    for (label, bw) in [
        ("InfiniBand 200 GB/s", 200e9),
        ("100 GbE      12 GB/s", 12e9),
        ("10 GbE      1.2 GB/s", 1.2e9),
    ] {
        let config = DisaggregationConfig {
            interconnect_bytes_per_s: bw,
            ..DisaggregationConfig::default()
        };
        let plan = Disaggregation::plan(&row, &mix, &config);
        writeln!(
            out,
            "  {label}: KV transfer {:>7.1} ms, latency overhead {:>5.1}%",
            plan.kv_transfer_s * 1000.0,
            plan.latency_overhead() * 100.0
        )?;
    }
    writeln!(
        out,
        "\nthe token pool holds ~90% of servers and can run permanently capped; \
         shipping the KV cache costs milliseconds over InfiniBand — the premise \
         the authors later built out as Splitwise"
    )?;
    Ok(())
}

/// Extension: §5.2 phase-aware power management — POLCA with and
/// without a lower token-phase clock, and how much further each row can
/// be oversubscribed.
fn extension_phase_aware(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    writeln!(
        out,
        "{:<14} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "mode", "mean%", "peak%", "LP p99", "HP p99", "brakes", "SLO"
    )?;
    let mut studies = Vec::new();
    for (label, row) in [
        ("baseline", RowConfig::paper_inference_row()),
        (
            "phase-aware",
            RowConfig::paper_inference_row().with_phase_aware(1110.0),
        ),
    ] {
        let mut study = study(ctx, row, PolcaPolicy::default(), days);
        let o = study.run(PolicyKind::Polca, 0.30, 1.0);
        writeln!(
            out,
            "{:<14} {:>7.1} {:>7.1} {:>7.3} {:>7.3} {:>7} {:>6}",
            label,
            o.mean_utilization * 100.0,
            o.peak_utilization * 100.0,
            o.low_normalized.p99,
            o.high_normalized.p99,
            o.brake_engagements,
            slo_word(&o)
        )?;
        studies.push((label, study));
    }
    writeln!(out, "\nmaximum SLO-safe oversubscription:")?;
    for (label, mut study) in studies {
        let mut best = 0.0;
        for pct in [0u32, 10, 20, 30, 35, 40, 45, 50] {
            let added = pct as f64 / 100.0;
            if study.run(PolicyKind::Polca, added, 1.0).slo.met {
                best = added;
            }
        }
        writeln!(out, "  {label:<14} +{:.0}% servers", best * 100.0)?;
    }
    writeln!(
        out,
        "\ntoken phases dominate request time but are memory-bound, so running \
         them at 1110 MHz sheds power almost for free and buys extra headroom \
         beyond POLCA's reactive capping"
    )?;
    Ok(())
}

/// Extension: the §6.7 workload-aware (selective) controller, which
/// caps only as many low-priority servers as the measured overshoot
/// requires, against the standard dual-threshold POLCA at +30 %.
fn extension_selective(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    let base_row = RowConfig::paper_inference_row();
    let (trace, until) = oversubscribed_trace(ctx, &base_row, days);
    let row = base_row.with_added_servers(0.30);
    // Per-server reclaim estimate: a busy low-priority server dropping
    // from max clock to the T1 clock sheds roughly this many watts.
    let reclaim = 250.0;
    let low_ids: Vec<usize> = row
        .priorities()
        .into_iter()
        .enumerate()
        .filter(|&(_, priority)| priority == Priority::Low)
        .map(|(id, _)| id)
        .collect();
    writeln!(
        out,
        "{:<12} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "controller", "commands", "brakes", "peak%", "LP p99s", "HP p99s"
    )?;
    let config = SimConfig {
        seed: ctx.seed,
        record_power_series: false,
        ..SimConfig::default()
    };
    let selective = SelectiveController::new(PolcaPolicy::default(), low_ids, reclaim);
    let report_sel = ClusterSim::new(row.clone(), config.clone(), selective)
        .run(ArrivalGenerator::new(&trace), until);
    let polca = PolcaController::new(PolcaPolicy::default());
    let report_std = ClusterSim::new(row, config, polca).run(ArrivalGenerator::new(&trace), until);
    // NaN when a horizon too short to complete a request left no sample.
    let p99 = |samples: &[f64]| Quantiles::from_samples(samples).map_or(f64::NAN, |q| q.p99);
    for (name, report) in [("selective", &report_sel), ("dual-thresh", &report_std)] {
        writeln!(
            out,
            "{:<12} {:>9} {:>8} {:>8.1} {:>8.1} {:>8.1}",
            name,
            report.commands_issued,
            report.brake_engagements,
            report.peak_row_watts / RowConfig::paper_inference_row().provisioned_watts() * 100.0,
            p99(&report.low_latencies_s),
            p99(&report.high_latencies_s)
        )?;
    }
    // The caption claims only what the table shows: a horizon too short
    // to cap leaves both controllers with no command and no brake.
    let (selective, uniform) = (report_sel.commands_issued, report_std.commands_issued);
    let mut caption = if 0 < selective && selective < uniform {
        format!(
            "cuts OOB command traffic {:.1}x and spreads the burden",
            uniform as f64 / selective as f64
        )
    } else {
        format!("issues {selective} OOB commands (dual-threshold: {uniform})")
    };
    if report_sel.peak_row_watts > report_std.peak_row_watts {
        caption += ", but without the T2 escalation stage it contains peaks less firmly";
        if report_sel.brake_engagements > 0 {
            caption += " (an occasional brake slips through)";
        }
        caption += " — evidence for the paper's preference for the simple, aggressive \
                    dual-threshold design (§6.2)";
    }
    writeln!(out, "\nselective capping {caption}")?;
    Ok(())
}

fn fig03_power_breakdown(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let spec = ServerSpec::dgx_a100();
    writeln!(
        out,
        "{} rated at {:.1} kW:",
        spec.name,
        spec.provisioned_watts / 1000.0
    )?;
    for (component, watts) in spec.provisioned_breakdown() {
        let frac = watts / spec.provisioned_watts;
        let bar = "█".repeat((frac * 50.0).round() as usize);
        writeln!(
            out,
            "{component:<8} {watts:>6.0} W  {:>5.1}%  {bar}",
            frac * 100.0
        )?;
    }
    writeln!(
        out,
        "\nobserved peak {:.0} W — derating headroom {:.0} W per server (§5)",
        spec.peak_power_watts(),
        spec.derating_headroom_watts()
    )?;
    writeln!(
        out,
        "paper: GPUs ~50%, fans ~25%, CPUs+others the rest; peak never above 5700 W"
    )?;
    Ok(())
}

/// A GPU with an optional power cap and an optional clock lock.
fn capped_gpu(cap: Option<f64>, lock: Option<f64>) -> Gpu {
    let mut gpu = Gpu::new(GpuSpec::a100_80gb());
    if let Some(w) = cap {
        gpu.set_power_cap(w).unwrap();
    }
    if let Some(mhz) = lock {
        gpu.lock_clock(mhz).unwrap();
    }
    gpu
}

fn fig04_training_timeseries(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let tdp = GpuSpec::a100_80gb().tdp_watts;
    for model in ModelSpec::training_lineup() {
        let job = TrainingJob::fine_tuning(&model);
        writeln!(
            out,
            "\n{} (iteration {:.1} s):",
            model.name,
            job.iteration_time_s()
        )?;
        for (label, cap, lock) in [
            ("no cap ", None, None),
            ("325W   ", Some(325.0), None),
            ("1.1GHz ", None, Some(1110.0)),
        ] {
            let mut gpu = capped_gpu(cap, lock);
            let ts = job.power_series(&mut gpu, 5, 0.01).resample_mean(0.1);
            writeln!(
                out,
                "  {label} peak {:>4.2}/TDP trough {:>4.2}/TDP  {}",
                ts.peak().unwrap() / tdp,
                ts.trough().unwrap() / tdp,
                sparkline(&ts, 60)
            )?;
        }
    }
    writeln!(
        out,
        "\npaper: peaks reach/exceed TDP (except RoBERTa); troughs 75%/50%/20% of TDP; \
         capping clips peaks, locking lowers everything"
    )?;
    Ok(())
}

fn fig05_training_capping(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let peak = |job: &TrainingJob, gpu: &mut Gpu| {
        job.power_series(gpu, 3, 0.01)
            .resample_mean(0.1)
            .peak()
            .unwrap()
    };
    let dvfs = DvfsModel::default();
    writeln!(out, "(a) frequency locking:")?;
    writeln!(
        out,
        "{:<10} {:>9} {:>16} {:>16}",
        "model", "SM MHz", "peak power red.", "perf reduction"
    )?;
    for model in ModelSpec::training_lineup() {
        let job = TrainingJob::fine_tuning(&model);
        let base_peak = peak(&job, &mut capped_gpu(None, None));
        for mhz in [1400.0, 1300.0, 1200.0, 1100.0] {
            let p = peak(&job, &mut capped_gpu(None, Some(mhz)));
            let perf = 1.0 - job.throughput_scale(&dvfs, mhz / 1410.0);
            writeln!(
                out,
                "{:<10} {:>9.0} {:>15.1}% {:>15.1}%",
                model.name,
                mhz,
                (1.0 - p / base_peak) * 100.0,
                perf * 100.0
            )?;
        }
    }
    writeln!(out, "\n(b) power capping:")?;
    writeln!(
        out,
        "{:<10} {:>9} {:>16} {:>16}",
        "model", "cap W", "peak power red.", "perf reduction"
    )?;
    for model in ModelSpec::training_lineup() {
        let job = TrainingJob::fine_tuning(&model);
        let base = job.power_series(&mut capped_gpu(None, None), 3, 0.01);
        let base_peak = base.resample_mean(0.1).peak().unwrap();
        let base_time = *base.times().last().unwrap();
        for cap in [400.0, 375.0, 350.0, 325.0] {
            let ts = job.power_series(&mut capped_gpu(Some(cap), None), 3, 0.01);
            let p = ts.resample_mean(0.1).peak().unwrap();
            let perf = 1.0 - base_time / ts.times().last().unwrap();
            writeln!(
                out,
                "{:<10} {:>9.0} {:>15.1}% {:>15.1}%",
                model.name,
                cap,
                (1.0 - p / base_peak) * 100.0,
                perf * 100.0
            )?;
        }
    }
    writeln!(
        out,
        "\npaper: ~20-22% peak power reduction at ≤10% perf loss for GPT-NeoX/Flan-T5; \
         power capping is noisier (reactive) than locking"
    )?;
    Ok(())
}

fn fig06_inference_timeseries(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let tdp = GpuSpec::a100_80gb().tdp_watts;
    for model in ModelSpec::inference_lineup() {
        let deployment = InferenceModel::new(model.clone(), GpuSpec::a100_80gb()).unwrap();
        let cfg = InferenceConfig::new(2048, 128, 1);
        let mut gpu = Gpu::new(GpuSpec::a100_80gb());
        let ts = deployment.power_series(&cfg, 3, &mut gpu, 0.1);
        let profile = deployment.profile(&cfg);
        writeln!(
            out,
            "{:<10} ({} GPUs)  prompt {:>4.1}s @ {:>4.2}/TDP | token {:>5.1}s @ {:>4.2}/TDP",
            model.name,
            deployment.n_gpus(),
            profile.prompt.duration_s,
            gpu.power_at(profile.prompt.intensity) / tdp,
            profile.token.duration_s,
            gpu.power_at(profile.token.intensity) / tdp,
        )?;
        writeln!(out, "           {}", sparkline(&ts, 66))?;
    }
    writeln!(
        out,
        "\npaper: spiky prompt phase at/above TDP at every request start, then a \
         longer, stable, lower token plateau; larger models draw more"
    )?;
    Ok(())
}

fn fig07_counter_correlation(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let mut rng = SimRng::from_seed_stream(ctx.seed, 0xF167);
    for (title, phase) in [
        ("prompt phase:", PhaseKind::Prompt),
        ("\ntoken phase:", PhaseKind::Token),
    ] {
        let samples: Vec<CounterSample> = (0..4000)
            .map(|_| CounterSample::sample(phase, 400.0, 400.0, &mut rng))
            .collect();
        let columns: Vec<Vec<f64>> = (0..7)
            .map(|i| samples.iter().map(|s| s.as_vec()[i]).collect())
            .collect();
        let series: Vec<(&str, &[f64])> = CounterSample::NAMES
            .iter()
            .zip(&columns)
            .map(|(name, col)| (*name, col.as_slice()))
            .collect();
        let m = CorrelationMatrix::from_series(&series);
        writeln!(out, "{title}")?;
        write!(out, "{:<22}", "")?;
        for name in m.names() {
            write!(out, "{:>7}", name.split_whitespace().next().unwrap_or(name))?;
        }
        writeln!(out)?;
        for i in 0..m.len() {
            write!(out, "{:<22}", m.names()[i])?;
            for j in 0..m.len() {
                write!(out, "{:>7.2}", m.get(i, j))?;
            }
            writeln!(out)?;
        }
        writeln!(
            out,
            "\n  power-vs-SM {:+.2}, power-vs-tensor {:+.2}, power-vs-memory {:+.2}",
            m.by_name("Power", "SM Activity").unwrap(),
            m.by_name("Power", "Tensor Core Activity").unwrap(),
            m.by_name("Power", "Memory Activity").unwrap()
        )?;
    }
    writeln!(
        out,
        "\npaper: prompt power strongly correlated with SM/tensor activity and \
         inversely with memory activity; token counters largely uncorrelated"
    )?;
    Ok(())
}

fn fig08_config_sensitivity(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let ds: Vec<InferenceModel> = ModelSpec::inference_lineup()
        .into_iter()
        .map(|m| InferenceModel::new(m, GpuSpec::a100_80gb()).unwrap())
        .collect();
    let gpu = Gpu::new(GpuSpec::a100_80gb());
    let tdp = gpu.spec().tdp_watts;
    type Sweep = (&'static str, &'static [u32], fn(u32) -> InferenceConfig);
    let sweeps: [Sweep; 3] = [
        (
            "(a,b) input size (output=128, batch=1)",
            &[256, 512, 1024, 2048, 4096, 8192],
            |i| InferenceConfig::new(i, 128, 1),
        ),
        (
            "(c,d) batch size (input=1024, output=128)",
            &[1, 2, 4, 8, 16],
            |b| InferenceConfig::new(1024, 128, b),
        ),
        (
            "(e,f) output size (input=1024, batch=1)",
            &[128, 256, 512, 1024, 2048, 4096],
            |o| InferenceConfig::new(1024, o, 1),
        ),
    ];
    for (title, sizes, cfg) in sweeps {
        writeln!(out, "\n{title}:")?;
        write!(out, "{:>6}", "")?;
        for d in &ds {
            write!(out, " | {:^16}", d.model().name)?;
        }
        writeln!(out)?;
        write!(out, "{:>6}", "size")?;
        for _ in &ds {
            write!(out, " | {:>9} {:>6}", "peak/mean", "lat")?;
        }
        writeln!(out)?;
        for &size in sizes {
            write!(out, "{size:>6}")?;
            for d in &ds {
                let p = d.profile(&cfg(size));
                write!(
                    out,
                    " | {:>4.2}/{:>4.2} {:>6.1}s",
                    gpu.power_at(p.peak_intensity()) / tdp,
                    gpu.power_at(p.mean_intensity()) / tdp,
                    p.total_time_s()
                )?;
            }
            writeln!(out)?;
        }
    }
    writeln!(
        out,
        "\npaper: peak power rises with input and batch size; mean power stays flat; \
         output size only stretches latency linearly (Insight 5)"
    )?;
    Ok(())
}

fn fig09_bloom_capping(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    let deployment = InferenceModel::new(ModelSpec::bloom_176b(), GpuSpec::a100_80gb()).unwrap();
    let cfg = InferenceConfig::new(8192, 128, 1);
    let tdp = GpuSpec::a100_80gb().tdp_watts;
    for (label, cap, lock) in [
        ("(a) no cap      ", None, None),
        ("(b) 325W cap    ", Some(325.0), None),
        ("(c) 1.1GHz clock", None, Some(1110.0)),
    ] {
        let mut gpu = capped_gpu(cap, lock);
        let ts = deployment.power_series(&cfg, 3, &mut gpu, 0.05);
        writeln!(
            out,
            "{label}  peak {:>4.2}/TDP  mean {:>4.2}/TDP  run {:>5.1}s",
            ts.peak().unwrap() / tdp,
            ts.mean().unwrap() / tdp,
            ts.times().last().unwrap()
        )?;
        writeln!(
            out,
            "                  {}",
            sparkline(&ts.resample_mean(0.2), 64)
        )?;
    }
    writeln!(
        out,
        "\npaper: the reactive cap lets prompt peaks escape above 325 W; the \
         frequency lock removes the peaks entirely but slows the whole run"
    )?;
    Ok(())
}

fn fig10_freq_sensitivity(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    const FREQS: [f64; 7] = [1410.0, 1360.0, 1310.0, 1260.0, 1210.0, 1160.0, 1110.0];
    // (peak power reduction, performance reduction) at `mhz`.
    let reductions = |deployment: &InferenceModel, cfg: &InferenceConfig, mhz: f64| {
        let profile = deployment.profile(cfg);
        let mut gpu = Gpu::new(GpuSpec::a100_80gb());
        let base_peak = gpu.power_at(profile.peak_intensity());
        let base_time = profile.total_time_s();
        gpu.lock_clock(mhz).unwrap();
        let peak = gpu.power_at(profile.peak_intensity());
        let time = profile.total_time_at_clock(&DvfsModel::default(), mhz / 1410.0);
        (1.0 - peak / base_peak, time / base_time - 1.0)
    };
    let sweep = |out: &mut String, label: &str, d: &InferenceModel, cfg: &InferenceConfig| {
        write!(out, "{label:<10}")?;
        for mhz in FREQS {
            let (power, perf) = reductions(d, cfg, mhz);
            write!(out, " {:>4.1}→{:<4.1}", power * 100.0, perf * 100.0)?;
        }
        writeln!(out)
    };
    writeln!(out, "(a) all models (input=2048, output=256, batch=1):")?;
    writeln!(
        out,
        "{:<10} peak-power-red% → perf-red% per frequency step",
        "model"
    )?;
    for model in ModelSpec::inference_lineup() {
        let d = InferenceModel::new(model, GpuSpec::a100_80gb()).unwrap();
        sweep(out, d.model().name, &d, &InferenceConfig::new(2048, 256, 1))?;
    }
    writeln!(out, "\n(b) BLOOM request shapes:")?;
    let bloom = InferenceModel::new(ModelSpec::bloom_176b(), GpuSpec::a100_80gb()).unwrap();
    for (label, cfg) in [
        ("b=1 i=512 ", InferenceConfig::new(512, 256, 1)),
        ("b=1 i=2048", InferenceConfig::new(2048, 256, 1)),
        ("b=1 i=8192", InferenceConfig::new(8192, 256, 1)),
        ("b=16 i=512", InferenceConfig::new(512, 256, 16)),
    ] {
        sweep(out, label, &bloom, &cfg)?;
    }
    writeln!(out, "\n(c) performance vs SM frequency (BLOOM b=1 i=2048):")?;
    let cfg = InferenceConfig::new(2048, 256, 1);
    for mhz in FREQS {
        let (_, perf) = reductions(&bloom, &cfg, mhz);
        writeln!(
            out,
            "  {:>6.0} MHz  perf {:>5.1}% of max",
            mhz,
            (1.0 / (1.0 + perf)) * 100.0
        )?;
    }
    writeln!(
        out,
        "\npaper: superlinear trade-off — up to 20% peak power reclaimed for ≤7% \
         perf loss; bigger prompts/batches are hurt more; <2% loss ~100 MHz below max"
    )?;
    Ok(())
}

fn fig11_server_peaks(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let spec = ServerSpec::dgx_a100();
    let deployment = InferenceModel::new(ModelSpec::bloom_176b(), spec.gpu.clone()).unwrap();
    let gpu_tdp_total = spec.gpu.tdp_watts * spec.n_gpus as f64;
    let mut rng = SimRng::from_seed_stream(ctx.seed, 0xF11);
    let mut gpu_peaks = Vec::new();
    let mut server_peaks = Vec::new();
    let mut gpu_share = Summary::new();
    writeln!(
        out,
        "{:>6} {:>14} {:>16} {:>10}",
        "server", "GPU peak/TDP", "server peak/6.5kW", "GPU share"
    )?;
    for s in 0..40 {
        // Each server's peak is set by the heaviest prompt it served.
        let input = rng.uniform_u64(2048, 8192) as u32;
        let profile = deployment.profile(&InferenceConfig::new(input, 256, 1));
        let jitter = 1.0 + rng.normal(0.0, 0.01);
        let gpu_watts = spec.gpu.power_watts(profile.peak_intensity(), jitter) * spec.n_gpus as f64;
        let server_watts = spec.server_power_watts(gpu_watts);
        gpu_peaks.push(gpu_watts / gpu_tdp_total);
        server_peaks.push(server_watts / spec.provisioned_watts);
        // Mean GPU share measured at the token-phase operating point.
        let token_gpu = spec.gpu.power_watts(profile.token.intensity, 1.0) * spec.n_gpus as f64;
        gpu_share.record(token_gpu / spec.server_power_watts(token_gpu));
        if s < 8 {
            writeln!(
                out,
                "{:>6} {:>14.3} {:>16.3} {:>9.1}%",
                s,
                gpu_watts / gpu_tdp_total,
                server_watts / spec.provisioned_watts,
                token_gpu / spec.server_power_watts(token_gpu) * 100.0
            )?;
        }
    }
    writeln!(out, "   ... ({} servers total)", gpu_peaks.len())?;
    let corr = pearson(&gpu_peaks, &server_peaks).unwrap();
    let gpu_peak_summary: Summary = gpu_peaks.iter().copied().collect();
    writeln!(
        out,
        "\nGPU peak/TDP range: {:.3}..{:.3} (above 1.0 ⇒ beyond TDP, up to +{:.0} W/server)",
        gpu_peak_summary.min().unwrap(),
        gpu_peak_summary.max().unwrap(),
        (gpu_peak_summary.max().unwrap() - 1.0) * gpu_tdp_total
    )?;
    writeln!(out, "server-vs-GPU peak correlation: {corr:.3}")?;
    writeln!(
        out,
        "GPU share of server power: {:.1}% on average",
        gpu_share.mean().unwrap() * 100.0
    )?;
    writeln!(
        out,
        "\npaper: GPU ≈60% of server power; GPU peaks exceed aggregate TDP by up to \
         500 W; server and GPU peaks highly correlated"
    )?;
    Ok(())
}

fn fig13_threshold_search(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    let added_steps = [0.0, 0.10, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];
    for (t1, t2) in [(0.75, 0.85), (0.80, 0.89), (0.85, 0.95)] {
        writeln!(out, "\n(T1={:.0}%, T2={:.0}%):", t1 * 100.0, t2 * 100.0)?;
        writeln!(
            out,
            "{:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "added%", "LP p50", "LP p99", "HP p50", "HP p99", "brakes"
        )?;
        let policy = PolcaPolicy::default().with_thresholds(t1, t2);
        let mut study = study(ctx, RowConfig::paper_inference_row(), policy, days);
        let mut max_no_brake = 0.0;
        for &added in &added_steps {
            let o = study.run(PolicyKind::Polca, added, 1.0);
            if o.brake_engagements == 0 {
                max_no_brake = added;
            }
            writeln!(
                out,
                "{:>7.0} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7}",
                added * 100.0,
                o.low_normalized.p50,
                o.low_normalized.p99,
                o.high_normalized.p50,
                o.high_normalized.p99,
                o.brake_engagements
            )?;
        }
        writeln!(
            out,
            "  max servers without power brake: +{:.0}%",
            max_no_brake * 100.0
        )?;
    }
    writeln!(
        out,
        "\npaper: 75-85 and 80-89 allow ~35% more servers brake-free, 85-95 only \
         ~32.5%; 75-85 hurts low-priority latency most; POLCA selects 80-89 and \
         deploys +30% to stay strictly within SLOs"
    )?;
    Ok(())
}

fn fig14_throughput(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    let row = RowConfig::paper_inference_row();
    let mut study = study(ctx, row, PolcaPolicy::default(), days);
    writeln!(
        out,
        "{:>7} {:>16} {:>16} {:>10}",
        "added%", "LP throughput", "HP throughput", "brakes"
    )?;
    for added in [0.0, 0.10, 0.20, 0.25, 0.30, 0.35, 0.40] {
        let o = study.run(PolicyKind::Polca, added, 1.0);
        writeln!(
            out,
            "{:>7.0} {:>16.4} {:>16.4} {:>10}",
            added * 100.0,
            o.low_throughput_norm,
            o.high_throughput_norm,
            o.brake_engagements
        )?;
    }
    writeln!(
        out,
        "\npaper: high-priority throughput unaffected; low-priority sees a minor \
         <2% decline at the chosen +30% configuration"
    )?;
    Ok(())
}

fn fig15_parameter_sweeps(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    writeln!(out, "(a) T1 low-priority capping frequency:")?;
    writeln!(
        out,
        "{:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "SM MHz", "LP p50", "LP p99", "HP p50", "HP p99", "brakes"
    )?;
    for mhz in [1350.0, 1305.0, 1275.0, 1200.0, 1150.0] {
        let policy = PolcaPolicy::default().with_t1_frequency(mhz);
        let o = study(ctx, RowConfig::paper_inference_row(), policy, days).run(
            PolicyKind::Polca,
            0.30,
            1.0,
        );
        writeln!(
            out,
            "{:>9.0} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7}",
            mhz,
            o.low_normalized.p50,
            o.low_normalized.p99,
            o.high_normalized.p50,
            o.high_normalized.p99,
            o.brake_engagements
        )?;
    }
    writeln!(out, "\n(b) low-priority server fraction:")?;
    writeln!(
        out,
        "{:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "LP frac", "LP p50", "LP p99", "HP p50", "HP p99", "brakes", "SLO"
    )?;
    for lp_frac in [0.25, 0.40, 0.50, 0.60, 0.75] {
        let row = RowConfig::paper_inference_row().with_low_priority_fraction(lp_frac);
        let o = study(ctx, row, PolcaPolicy::default(), days).run(PolicyKind::Polca, 0.30, 1.0);
        writeln!(
            out,
            "{:>8.0}% {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7} {:>6}",
            lp_frac * 100.0,
            o.low_normalized.p50,
            o.low_normalized.p99,
            o.high_normalized.p50,
            o.high_normalized.p99,
            o.brake_engagements,
            slo_word(&o)
        )?;
    }
    writeln!(
        out,
        "\npaper: below 1275 MHz the low-priority SLO breaks (hence 1275 at T1); \
         shrinking the low-priority pool pushes capping onto high-priority work \
         and can violate its P99 SLO"
    )?;
    Ok(())
}

/// The recorder an observed figure runs under: full artifacts with
/// `--obs-out`, none without.
fn figure_recorder(ctx: &Ctx) -> Recorder {
    if ctx.obs_dir.is_some() {
        Recorder::new(ObsLevel::Full)
    } else {
        Recorder::disabled()
    }
}

/// Figure 16: row-level power utilization — default servers vs +30 %
/// servers, at 2 s and 5 min averaging. With `--obs-out`, the 5-minute
/// series printed as sparklines are saved as `fig16_util_default.csv`
/// and `fig16_util_oversub.csv`, beside the recorder's artifacts.
fn fig16_six_week_power(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(7.0);
    let recorder = figure_recorder(ctx);
    let row = RowConfig::paper_inference_row();
    let mut study = OversubscriptionStudy::new(row, PolcaPolicy::default(), days, ctx.seed);
    study.set_recorder(recorder.clone());
    let provisioned = study.row().provisioned_watts();
    let base = study.run(PolicyKind::NoCap, 0.0, 1.0);
    let over = study.run(PolicyKind::Polca, 0.30, 1.0);
    for (label, slug, o) in [
        ("default servers", "fig16_util_default.csv", &base),
        ("+30% servers   ", "fig16_util_oversub.csv", &over),
    ] {
        let five_min = o.row_power.resample_mean(300.0).scaled(1.0 / provisioned);
        writeln!(out, "\n{label}:")?;
        writeln!(out, "  5min avg  {}", sparkline(&five_min, 70))?;
        writeln!(
            out,
            "  mean {:>6}  peak(2s) {:>6}  max 2s rise {:>6}  max 40s rise {:>6}  brakes {}",
            pct(o.mean_utilization),
            pct(o.peak_utilization),
            pct(o.row_power.max_rise_within(2.0).unwrap() / provisioned),
            pct(o.row_power.max_rise_within(40.0).unwrap() / provisioned),
            o.brake_engagements
        )?;
        ctx.save(slug, &series_csv("t_s", "utilization", &five_min))?;
    }
    if let Some(dir) = &ctx.obs_dir {
        let files = recorder.write_dir(dir)?;
        writeln!(
            out,
            "\nobs artifacts: {} file(s) in {}",
            files.len() + 2,
            dir.display()
        )?;
    }
    writeln!(
        out,
        "\npaper: the 5min average follows the same diurnal pattern with a higher \
         offset; spikes grow because more workloads can trigger together"
    )?;
    Ok(())
}

/// Every policy at +30 % servers, then all of them again under the +5 %
/// power drift, labelled as Figures 17 and 18 print them.
fn drift_panel(study: &mut OversubscriptionStudy) -> Vec<(String, PolicyOutcome)> {
    let mut outcomes = Vec::new();
    for (power_scale, suffix) in [(1.0, ""), (1.05, "+5%")] {
        for kind in PolicyKind::all() {
            let o = study.run(kind, 0.30, power_scale);
            outcomes.push((format!("{}{suffix}", kind.name()), o));
        }
    }
    outcomes
}

/// `a` relative to POLCA's `b` (1.0 when POLCA's is zero).
fn rel(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        1.0
    } else {
        a / b
    }
}

/// Figure 17: performance impact of POLCA vs the thresholding baselines
/// at 30 % oversubscription, with and without the +5 % power drift. As
/// in the paper, latencies are normalized against POLCA (lower is
/// better; 1.0 = POLCA).
fn fig17_policy_comparison(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(7.0);
    let mut study = study(
        ctx,
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        days,
    );
    let outcomes = drift_panel(&mut study);
    let polca = outcomes[0].1.clone();
    let mut table = Table::new(&[
        "policy (vs POLCA)",
        "LP p50",
        "HP p50",
        "LP p99",
        "HP p99",
        "LP max",
        "HP max",
    ]);
    for (name, o) in &outcomes {
        table.row(vec![
            name.clone(),
            format!("{:.3}", rel(o.low_raw.p50, polca.low_raw.p50)),
            format!("{:.3}", rel(o.high_raw.p50, polca.high_raw.p50)),
            format!("{:.3}", rel(o.low_raw.p99, polca.low_raw.p99)),
            format!("{:.3}", rel(o.high_raw.p99, polca.high_raw.p99)),
            format!("{:.3}", rel(o.low_raw.max, polca.low_raw.max)),
            format!("{:.3}", rel(o.high_raw.max, polca.high_raw.max)),
        ]);
    }
    table.write(out)?;
    ctx.save("fig17_policy_comparison.csv", &table.csv())?;
    writeln!(
        out,
        "\npaper: POLCA meets all SLOs; 1-Thresh-Low-Pri misses low-priority SLOs; \
         1-Thresh-All breaches P99 for both classes; No-cap matches POLCA on \
         medians but its unprotected brakes blow up max/P100 latency — most \
         visibly in the +5% drift scenario, where POLCA is the most robust"
    )?;
    Ok(())
}

/// Figure 18: power-brake event counts per policy, for nominal and +5 %
/// power-intensive workloads. With `--obs-out`, the table is saved as
/// `fig18_power_brakes.csv` beside the instrumented runs' artifacts.
fn fig18_power_brakes(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(7.0);
    let recorder = figure_recorder(ctx);
    let mut study = study(
        ctx,
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        days,
    );
    study.set_recorder(recorder.clone());
    let mut table = Table::new(&["policy", "brakes", "brakes/day"]);
    for (name, o) in drift_panel(&mut study) {
        table.row(vec![
            name,
            o.brake_engagements.to_string(),
            format!("{:.2}", o.brake_engagements as f64 / days),
        ]);
    }
    table.write(out)?;
    ctx.save("fig18_power_brakes.csv", &table.csv())?;
    if let Some(dir) = &ctx.obs_dir {
        let files = recorder.write_dir(dir)?;
        writeln!(
            out,
            "\nobs artifacts: {} file(s) in {}",
            files.len() + 1,
            dir.display()
        )?;
    }
    writeln!(
        out,
        "\npaper: POLCA incurs zero brakes in the standard scenario and the fewest \
         when workloads become 5% more power-intensive; No-cap incurs the most"
    )?;
    Ok(())
}

/// Figure 17 re-run on the continuous-batching engine: the four capping
/// policies at 30 % oversubscription, on aggregated and on
/// disaggregated (split prefill/decode) pool topologies. Latencies are
/// normalized against POLCA *within the same topology*, so the table
/// isolates what each policy costs on top of the serving model rather
/// than the raw speed difference between topologies.
fn serve_policy_comparison(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let days = ctx.days(2.0);
    let mut table = Table::new(&[
        "pools",
        "policy (vs POLCA)",
        "LP p50",
        "HP p50",
        "LP p99",
        "HP p99",
        "peak util",
        "brakes",
    ]);
    let mut peaks = Vec::new();
    for split in [false, true] {
        let label = if split { "split" } else { "aggregated" };
        let row = RowConfig::paper_inference_row();
        let mut study = study(ctx, row, PolcaPolicy::default(), days);
        study.set_engine(DisaggregationConfig::default().batched_engine(split));
        let outcomes: Vec<(&str, PolicyOutcome)> = PolicyKind::all()
            .iter()
            .map(|kind| (kind.name(), study.run(*kind, 0.30, 1.0)))
            .collect();
        let polca = outcomes[0].1.clone();
        peaks.push(polca.peak_utilization);
        for (name, o) in &outcomes {
            table.row(vec![
                label.to_string(),
                name.to_string(),
                format!("{:.3}", rel(o.low_raw.p50, polca.low_raw.p50)),
                format!("{:.3}", rel(o.high_raw.p50, polca.high_raw.p50)),
                format!("{:.3}", rel(o.low_raw.p99, polca.low_raw.p99)),
                format!("{:.3}", rel(o.high_raw.p99, polca.high_raw.p99)),
                format!("{:.1}%", o.peak_utilization * 100.0),
                format!("{}", o.brake_engagements),
            ]);
        }
    }
    table.write(out)?;
    ctx.save("serve_policy_comparison.csv", &table.csv())?;
    writeln!(
        out,
        "\nreading: the Fig 17 ordering survives the engine swap — POLCA holds \
         the tightest tails on both topologies. Splitting the pools lowers peak \
         row utilization ({:.1}% -> {:.1}% here) because the decode pool runs at \
         a locked memory-bound clock, so capping policies have less overshoot to \
         police in the first place",
        peaks[0] * 100.0,
        peaks[1] * 100.0,
    )?;
    Ok(())
}

fn tab01_interfaces(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<14} {:<14} {:<5} {:<12}",
        "Mechanism", "Granularity", "Path", "Interval"
    )?;
    for i in MonitorInterface::table1() {
        let interval = if i.min_interval_s == i.max_interval_s {
            format!("{:.0}s", i.min_interval_s)
        } else if i.max_interval_s < 1.0 {
            format!(
                "{:.0}-{:.0}ms",
                i.min_interval_s * 1000.0,
                i.max_interval_s * 1000.0
            )
        } else if i.min_interval_s < 1.0 {
            format!("{:.0}ms+", i.min_interval_s * 1000.0)
        } else {
            format!("{:.0}-{:.0}s", i.min_interval_s, i.max_interval_s)
        };
        writeln!(
            out,
            "{:<14} {:<14} {:<5} {:<12}",
            i.name,
            format!("{:?}", i.granularity),
            match i.path {
                polca_telemetry::Path::InBand => "IB",
                polca_telemetry::Path::OutOfBand => "OOB",
            },
            interval
        )?;
    }
    writeln!(
        out,
        "\npaper: RAPL 1-10ms IB | DCGM 100ms+ IB | SMBPBI 5s+ OOB | \
         IPMI 1-5s OOB | Row manager 2s OOB"
    )?;
    Ok(())
}

fn tab02_row_params(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let p = RowParameters::default();
    let row = RowConfig::paper_inference_row();
    let mut table = Table::new(&["Parameter", "Value"]);
    table.row(vec!["Number of servers".into(), p.servers.to_string()]);
    table.row(vec!["Server type".into(), p.server_type.to_string()]);
    table.row(vec![
        "Power telemetry delay".into(),
        format!("{}s", p.power_telemetry_delay_s),
    ]);
    table.row(vec![
        "Power brake latency".into(),
        format!("{}s", p.power_brake_latency_s),
    ]);
    table.row(vec![
        "OOB control latency".into(),
        format!("{}s", p.oob_control_latency_s),
    ]);
    table.row(vec![
        "Row power budget (derived)".into(),
        format!("{:.0} kW", row.provisioned_watts() / 1000.0),
    ]);
    table.row(vec![
        "UPS capping deadline".into(),
        format!("{}s", RowParameters::UPS_CAPPING_DEADLINE_S),
    ]);
    table.write(out)?;
    ctx.save("tab02_row_params.csv", &table.csv())?;
    writeln!(
        out,
        "\npaper: 40 DGX-A100 servers, 2s telemetry, 5s brake, 40s OOB control"
    )?;
    Ok(())
}

/// Table 3, with the §4.2 quantization footprint check for the Llama2
/// models.
fn tab03_model_zoo(_: &Ctx, out: &mut String) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<17} {:<12} {:>9} {:>16}",
        "Category", "Model", "#Params", "#Inference GPUs"
    )?;
    let gpu = GpuSpec::a100_80gb();
    for m in ModelSpec::all() {
        let params = if m.params_b < 1.0 {
            format!("{:.0}M", m.params_b * 1000.0)
        } else {
            format!("{:.0}B", m.params_b)
        };
        writeln!(
            out,
            "{:<17} {:<12} {:>9} {:>16}",
            format!("{:?}", m.architecture),
            format!("{}{}", m.name, if m.inference_only { "*" } else { "" }),
            params,
            m.inference_gpus
        )?;
        if m.name.starts_with("Llama2") {
            for dt in DType::all() {
                writeln!(
                    out,
                    "{:<17}   {} needs {} GPU(s)",
                    "",
                    dt.name(),
                    dt.gpus_required(&m, &gpu)
                )?;
            }
        }
    }
    writeln!(
        out,
        "\npaper: RoBERTa 355M/1, Llama2 13B+70B/1-4, GPT-NeoX 20B/2, OPT 30B/4, BLOOM 176B/8, \
         Flan-T5 11B/1"
    )?;
    Ok(())
}

/// Table 4: LLM cluster power usage in production — a synchronized
/// 40-server training row against the production-shaped inference row
/// at its base deployment.
fn tab04_production_stats(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let training = TrainingCluster::paper_training_row();
    let t_series = training.row_power_series(600.0, 0.1, ctx.seed);
    let t_prov = training.provisioned_watts();
    let t_peak = t_series.peak().unwrap() / t_prov;
    let t_spike2 = t_series.max_rise_within(2.0).unwrap() / t_prov;
    let t_spike40 = t_series.max_rise_within(40.0).unwrap() / t_prov;

    let days = ctx.days(2.0);
    let row = RowConfig::paper_inference_row();
    let mut study = OversubscriptionStudy::new(row, PolcaPolicy::default(), days, ctx.seed);
    let o = study.run(PolicyKind::NoCap, 0.0, 1.0);
    let i_peak = o.peak_utilization;
    let i_spike2 = o.row_power.max_rise_within(2.0).unwrap() / study.row().provisioned_watts();
    let i_spike40 = o.row_power.max_rise_within(40.0).unwrap() / study.row().provisioned_watts();

    for (label, training, inference) in [
        ("", "Training".to_string(), "Inference".to_string()),
        ("Peak power utilization", pct(t_peak), pct(i_peak)),
        (
            "Power usage pattern",
            "coordinated".to_string(),
            "diurnal".to_string(),
        ),
        ("Max. power spike in 2s", pct(t_spike2), pct(i_spike2)),
        ("Max. power spike in 40s", pct(t_spike40), pct(i_spike40)),
        (
            "Oversubscription headroom",
            pct(1.0 - t_peak),
            pct(1.0 - i_peak),
        ),
    ] {
        writeln!(out, "{label:<28} {training:>10} {inference:>10}")?;
    }
    writeln!(
        out,
        "\npaper: peak 97% vs 79% | 2s spike 37.5% vs 9% | 40s spike n/a vs 11.8% \
         | headroom ~3% vs ~21%"
    )?;
    Ok(())
}

fn tab05_power_modes(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    let policy = PolcaPolicy::default();
    let mut table = Table::new(&["Mode", "Low Priority", "High Priority"]);
    let clock = |mhz: Option<f64>| match mhz {
        None => "Uncapped".to_string(),
        Some(mhz) => format!("Frequency capped ({mhz:.0} MHz)"),
    };
    for (mode, label) in [
        (PowerMode::Uncapped, "Uncapped"),
        (PowerMode::T1, "Threshold T1"),
        (PowerMode::T2, "Threshold T2"),
        (PowerMode::Brake, "Power brake"),
    ] {
        table.row(vec![
            label.to_string(),
            clock(mode.low_priority_clock_mhz(&policy)),
            clock(mode.high_priority_clock_mhz(&policy)),
        ]);
    }
    table.write(out)?;
    ctx.save("tab05_power_modes.csv", &table.csv())?;
    writeln!(
        out,
        "\nthresholds: T1 = {:.0} %, T2 = {:.0} % of provisioned power; \
         uncap {:.0} % below each threshold",
        policy.t1_frac * 100.0,
        policy.t2_frac * 100.0,
        policy.uncap_gap * 100.0
    )?;
    writeln!(
        out,
        "paper: T1 1275 MHz LP | T2 1110 MHz LP + 1305 MHz HP | brake 288 MHz"
    )?;
    Ok(())
}

fn tab06_workload_slos(ctx: &Ctx, out: &mut String) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<12} {:<13} {:<13} {:>6} {:>9}",
        "Workload", "Prompt size", "Output size", "Ratio", "Priority"
    )?;
    for c in WorkloadClass::table6() {
        let f = c.high_priority_fraction;
        let priority = if f == 0.0 {
            "Low".to_string()
        } else if f == 1.0 {
            "High".to_string()
        } else {
            format!("{:.0}:{:.0}", f * 100.0, (1.0 - f) * 100.0)
        };
        writeln!(
            out,
            "{:<12} {:<13} {:<13} {:>5.0}% {:>9}",
            c.name,
            format!("{}-{}", c.prompt_range.0, c.prompt_range.1),
            format!("{}-{}", c.output_range.0, c.output_range.1),
            c.share * 100.0,
            priority
        )?;
    }
    let days = ctx.days(2.0);
    let row = RowConfig::paper_inference_row();
    let mut study = OversubscriptionStudy::new(row, PolcaPolicy::default(), days, ctx.seed);
    let o = study.run(PolicyKind::Polca, 0.30, 1.0);
    let slo = SloTargets::default();
    writeln!(out, "\nPOLCA at +30 % servers over {days:.0} days:")?;
    writeln!(
        out,
        "{:<28} {:>13} {:>13}",
        "Metric", "High priority", "Low priority"
    )?;
    for (label, high, low, high_slo, low_slo) in [
        (
            "P50 latency impact",
            o.high_normalized.p50,
            o.low_normalized.p50,
            slo.high_p50,
            slo.low_p50,
        ),
        (
            "P99 latency impact",
            o.high_normalized.p99,
            o.low_normalized.p99,
            slo.high_p99,
            slo.low_p99,
        ),
    ] {
        writeln!(
            out,
            "{:<28} {:>12.1}% {:>12.1}%   (SLO < {:.0}% / < {:.0}%)",
            label,
            (high - 1.0) * 100.0,
            (low - 1.0) * 100.0,
            (high_slo - 1.0) * 100.0,
            (low_slo - 1.0) * 100.0
        )?;
    }
    writeln!(
        out,
        "{:<28} {:>13} {:>13}   (SLO = 0)",
        "Number of power brakes", o.brake_engagements, o.brake_engagements
    )?;
    writeln!(
        out,
        "\nSLOs {}",
        if o.slo.met {
            "met".to_string()
        } else {
            format!("violated: {:?}", o.slo.violations)
        }
    )?;
    Ok(())
}
