//! The exportable bundle a run leaves behind.
//!
//! [`RunArtifacts`] is a snapshot of everything a [`Recorder`] captured
//! and knows how to render each artifact format:
//!
//! | file              | contents                                         |
//! |-------------------|--------------------------------------------------|
//! | `events.jsonl`    | the structured event log, one JSON object/line   |
//! | `requests.jsonl`  | polca-req per-request lifecycle records (only    |
//! |                   | when request tracing is on)                      |
//! | `metrics.json`    | counters, gauges, histogram summaries            |
//! | `metrics.prom`    | registry + deterministic polca-prof counters in  |
//! |                   | Prometheus text exposition                       |
//! | `power.csv`       | `t_s,watts` timeseries from power samples        |
//! | `latency.csv`     | per-request completion latencies                 |
//! | `trace.json`      | Chrome trace-event JSON (Perfetto-loadable)      |
//! | `prof.json`       | polca-prof phase/counter totals (non-determ.)    |
//! | `prof.folded`     | collapsed stacks for speedscope/flamegraph       |
//! | `prof.trace.json` | the phase breakdown as a Perfetto track          |
//!
//! Everything except the wall-clock `prof.*` artifacts is a pure
//! function of the event log and metrics, which
//! are themselves sim-deterministic — so with a fixed seed, re-running
//! a simulation reproduces those files byte-for-byte. (`metrics.prom`
//! keeps that property: it only ever includes the deterministic subset
//! of the profile — call and occupancy counters, never nanoseconds.)
//!
//! [`Recorder`]: crate::Recorder

use std::fmt::Write;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::chrome;
use crate::energy::{EnergyLedger, RowEnergy};
use crate::event::Event;
use crate::json::push_num;
use crate::metrics::MetricsRegistry;
use crate::prof::ProfSnapshot;
use crate::recorder::ObsLevel;
use crate::req::{self, ReqRecord};

/// Renders a table as CSV: a header row followed by one line per row,
/// RFC-4180-quoting any cell containing a comma, quote, or newline.
///
/// This backs the shared table writer of `polca-cli figures`, so the
/// figures' CSV output matches the recorder's own artifact files.
///
/// # Examples
///
/// ```
/// let csv = polca_obs::export::csv_table(
///     &["policy", "brakes"],
///     &[vec!["POLCA".into(), "0".into()]],
/// );
/// assert_eq!(csv, "policy,brakes\nPOLCA,0\n");
/// ```
pub fn csv_table(columns: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut s = String::new();
    s.push_str(
        &columns
            .iter()
            .map(|c| cell(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    s.push('\n');
    for row in rows {
        s.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        s.push('\n');
    }
    s
}

/// Splits one CSV line into its fields, undoing [`csv_table`]'s
/// RFC-4180 quoting: a quoted field may hold commas, and `""` inside
/// quotes is one quote. The trace ingester and the carbon-trace reader
/// share it.
///
/// # Examples
///
/// ```
/// let fields = polca_obs::export::split_csv_line(r#"a,"b,c","say ""hi""""#);
/// assert_eq!(fields, ["a", "b,c", "say \"hi\""]);
/// ```
pub fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// A snapshot of one run's observability output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArtifacts {
    /// The level the recorder captured at.
    pub level: ObsLevel,
    /// The structured event log, in emission order.
    pub events: Vec<Event>,
    /// Final metric series.
    pub metrics: MetricsRegistry,
    /// polca-req lifecycle records for sampled completed requests
    /// (empty unless request tracing was on at [`ObsLevel::Events`]+).
    pub requests: Vec<ReqRecord>,
    /// Whether the recorder had request tracing enabled — gates the
    /// `requests.jsonl` artifact so untraced runs keep their exact
    /// file set.
    pub req_trace: bool,
    /// polca-energy per-row accounts (empty unless the energy ledger
    /// was attached) — gate the `energy.json`/`energy.csv` artifacts
    /// so unmetered runs keep their exact file set.
    pub energy_rows: Vec<RowEnergy>,
    /// polca-prof phase and counter totals (empty below
    /// [`ObsLevel::Full`]).
    pub prof: ProfSnapshot,
}

impl RunArtifacts {
    /// The event log as JSON Lines (one event per line).
    pub fn events_jsonl(&self) -> String {
        let mut s = String::with_capacity(96 * self.events.len());
        for ev in &self.events {
            ev.write_json(&mut s);
            s.push('\n');
        }
        s
    }

    /// The metrics registry as a JSON document.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// The metrics registry in the Prometheus text exposition format,
    /// followed by the deterministic polca-prof counter series (phase
    /// calls, queue depth high-water mark, occupancy) when profiling
    /// captured anything.
    pub fn metrics_prometheus(&self) -> String {
        self.prometheus_with(&self.energy_ledger())
    }

    /// [`metrics_prometheus`](Self::metrics_prometheus) with `ledger`,
    /// the run's already assembled energy ledger.
    fn prometheus_with(&self, ledger: &EnergyLedger) -> String {
        let mut s = self.metrics.to_prometheus();
        s.push_str(&self.prof.to_prometheus());
        s.push_str(&ledger.prometheus());
        s
    }

    /// The polca-energy ledger assembled from the recorded per-row
    /// accounts (empty when the ledger was not attached).
    pub fn energy_ledger(&self) -> EnergyLedger {
        EnergyLedger::from_rows(&self.energy_rows)
    }

    /// The aggregate power timeseries as CSV (`t_s,watts`).
    pub fn power_csv(&self) -> String {
        let rows = self
            .events
            .iter()
            .filter(|ev| matches!(ev, Event::PowerSample { .. }))
            .count();
        let mut s = String::with_capacity(16 + 48 * rows);
        s.push_str("t_s,watts\n");
        for ev in &self.events {
            if let Event::PowerSample { t, watts } = ev {
                push_num(&mut s, *t);
                s.push(',');
                push_num(&mut s, *watts);
                s.push('\n');
            }
        }
        s
    }

    /// Per-request completion latencies as CSV
    /// (`t_s,server,priority,latency_s`).
    pub fn latency_csv(&self) -> String {
        let rows = self
            .events
            .iter()
            .filter(|ev| matches!(ev, Event::RequestCompleted { .. }))
            .count();
        let mut s = String::with_capacity(32 + 64 * rows);
        s.push_str("t_s,server,priority,latency_s\n");
        for ev in &self.events {
            if let Event::RequestCompleted {
                t,
                server,
                priority,
                latency_s,
                ..
            } = ev
            {
                push_num(&mut s, *t);
                let _ = write!(s, ",{server},{priority},");
                push_num(&mut s, *latency_s);
                s.push('\n');
            }
        }
        s
    }

    /// The polca-req request log as JSON Lines (one completed request
    /// per line — the `requests.jsonl` body).
    pub fn requests_jsonl(&self) -> String {
        req::requests_jsonl(&self.requests)
    }

    /// The event log rendered as Chrome trace-event JSON; when request
    /// tracing captured records, per-request lanes ride along on a
    /// dedicated `polca-req` process.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace_json_with(&[])
    }

    /// Chrome trace-event JSON with extra instant markers merged onto
    /// the cluster track (the watch plane's incident annotations).
    pub fn chrome_trace_json_with(&self, annotations: &[chrome::Annotation]) -> String {
        self.chrome_trace(annotations, &self.energy_ledger())
    }

    /// [`chrome_trace_json_with`](Self::chrome_trace_json_with) with
    /// `ledger`, the run's already assembled energy ledger.
    fn chrome_trace(&self, annotations: &[chrome::Annotation], ledger: &EnergyLedger) -> String {
        let lines = self.events.len() + annotations.len() + 2 * self.requests.len();
        let mut out = String::with_capacity(chrome::capacity(lines));
        chrome::write_trace(&mut out, &self.events, annotations, |out| {
            if self.req_trace {
                req::write_chrome_request_lanes(&self.requests, out);
            }
            if !self.energy_rows.is_empty() {
                ledger.write_chrome_counter_lanes(out);
            }
        });
        out
    }

    /// The [`prof_json`](Self::prof_json) body under its former name.
    /// Kept only because the `polca-benchmark` package still renders it
    /// while timing artifact export; nothing writes it to a file. It
    /// goes once that package stops calling it.
    pub fn profile_json(&self) -> String {
        self.prof_json()
    }

    /// polca-prof phase/counter totals as JSON (`prof.json` body).
    pub fn prof_json(&self) -> String {
        self.prof.to_json()
    }

    /// polca-prof collapsed stacks (`prof.folded` body) for
    /// speedscope/flamegraph.
    pub fn prof_folded(&self) -> String {
        self.prof.folded()
    }

    /// polca-prof phase breakdown as Chrome trace-event JSON
    /// (`prof.trace.json` body).
    pub fn prof_chrome_json(&self) -> String {
        self.prof.chrome_trace_json()
    }

    /// Writes the level-appropriate artifact files into `dir`,
    /// creating the directory if needed, and returns the written
    /// paths in a deterministic order.
    ///
    /// * `ObsLevel::Metrics` → `metrics.json`, `metrics.prom` (and
    ///   `energy.json` + `energy.csv` when the energy ledger recorded
    ///   rows)
    /// * `ObsLevel::Events` → plus `events.jsonl`, `power.csv`,
    ///   `latency.csv`, `trace.json` (and `requests.jsonl` when
    ///   request tracing is on)
    /// * `ObsLevel::Full` → plus `prof.json`, `prof.folded`,
    ///   `prof.trace.json`
    pub fn write_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.write_dir_with(dir, &[])
    }

    /// [`write_dir`](Self::write_dir) with `annotations` merged into
    /// `trace.json` as by [`chrome_trace_json_with`](Self::chrome_trace_json_with).
    pub fn write_dir_with(
        &self,
        dir: &Path,
        annotations: &[chrome::Annotation],
    ) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut put = |name: &str, body: String| -> io::Result<()> {
            let path = dir.join(name);
            fs::write(&path, body)?;
            written.push(path);
            Ok(())
        };
        // One ledger for the three artifacts that render it: building it
        // copies every row account's power samples.
        let ledger = self.energy_ledger();
        if self.level.metrics_enabled() {
            put("metrics.json", self.metrics_json())?;
            put("metrics.prom", self.prometheus_with(&ledger))?;
            if !self.energy_rows.is_empty() {
                put("energy.json", ledger.to_json())?;
                put("energy.csv", ledger.series_csv())?;
            }
        }
        if self.level.events_enabled() {
            put("events.jsonl", self.events_jsonl())?;
            if self.req_trace {
                put("requests.jsonl", self.requests_jsonl())?;
            }
            put("power.csv", self.power_csv())?;
            put("latency.csv", self.latency_csv())?;
            put("trace.json", self.chrome_trace(annotations, &ledger))?;
        }
        if self.level.profiling_enabled() {
            put("prof.json", self.prof_json())?;
            put("prof.folded", self.prof_folded())?;
            put("prof.trace.json", self.prof_chrome_json())?;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifacts {
        let mut metrics = MetricsRegistry::new();
        metrics.add("reqs", crate::Label::Global, 2);
        RunArtifacts {
            level: ObsLevel::Events,
            events: vec![
                Event::PowerSample {
                    t: 1.0,
                    watts: 150.0,
                },
                Event::RequestCompleted {
                    t: 2.5,
                    server: 0,
                    request: 7,
                    priority: "high",
                    latency_s: 0.5,
                },
            ],
            metrics,
            requests: Vec::new(),
            req_trace: false,
            energy_rows: Vec::new(),
            prof: ProfSnapshot::default(),
        }
    }

    #[test]
    fn csv_table_quotes_only_when_needed() {
        let csv = csv_table(
            &["name", "note"],
            &[
                vec!["plain".into(), "a,b".into()],
                vec!["quo\"te".into(), "ok".into()],
            ],
        );
        assert_eq!(csv, "name,note\nplain,\"a,b\"\n\"quo\"\"te\",ok\n");
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let a = sample();
        let jsonl = a.events_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"ev\":\"power_sample\""));
    }

    #[test]
    fn csv_exports_extract_their_series() {
        let a = sample();
        assert_eq!(a.power_csv(), "t_s,watts\n1,150\n");
        assert_eq!(
            a.latency_csv(),
            "t_s,server,priority,latency_s\n2.5,0,high,0.5\n"
        );
    }

    #[test]
    fn write_dir_honours_level() {
        let dir = std::env::temp_dir().join(format!(
            "polca-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut a = sample();
        a.level = ObsLevel::Metrics;
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(dir.join("metrics.json").exists());
        assert!(dir.join("metrics.prom").exists());
        assert!(!dir.join("events.jsonl").exists());

        a.level = ObsLevel::Full;
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 9);
        assert!(dir.join("trace.json").exists());
        assert!(!dir.join("profile.json").exists());
        assert!(dir.join("prof.json").exists());
        assert!(dir.join("prof.folded").exists());
        assert!(dir.join("prof.trace.json").exists());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn energy_rows_add_ledger_artifacts_and_counter_lanes() {
        use crate::energy::{CarbonSignal, EnergyAccum, EnergyPlan};

        let dir = std::env::temp_dir().join(format!(
            "polca-energy-export-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut a = sample();
        let without = a.chrome_trace_json();
        assert!(!a.metrics_prometheus().contains("energy_site_wh"));
        let mut acc = EnergyAccum::new(
            EnergyPlan::new(CarbonSignal::Constant(100.0)),
            0.0,
            200.0,
            0.0,
            &[("aggregated", 200.0)],
        );
        acc.tick(1800.0, 200.0, 0.0, &[("aggregated", 200.0)]);
        a.energy_rows.push(acc.finish(1800.0, 3600.0));
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 8);
        let json = fs::read_to_string(dir.join("energy.json")).unwrap();
        assert_eq!(json, a.energy_ledger().to_json());
        assert!(json.contains("\"site\""));
        let csv = fs::read_to_string(dir.join("energy.csv")).unwrap();
        assert!(csv.starts_with("t_s,it_wh,facility_wh,co2e_g,g_per_kwh\n"));
        assert!(a.metrics_prometheus().contains("energy_site_wh"));
        assert!(a.metrics_prometheus().contains("carbon_site_g"));
        let with = a.chrome_trace_json();
        assert_ne!(with, without);
        assert!(with.contains("\"name\":\"polca-energy\""));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn req_trace_adds_requests_jsonl_and_chrome_lanes() {
        let dir = std::env::temp_dir().join(format!(
            "polca-req-export-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut a = sample();
        let without = a.chrome_trace_json();
        a.req_trace = true;
        a.requests
            .push(crate::req::ReqSpan::default().finish(7, "high", 0, 0.0, 1.0, 9.0, 100, 10));
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 7);
        let jsonl = fs::read_to_string(dir.join("requests.jsonl")).unwrap();
        assert_eq!(jsonl, a.requests_jsonl());
        assert!(jsonl.contains("\"ttft_s\":"));
        let with = a.chrome_trace_json();
        assert_ne!(with, without);
        assert!(with.contains("\"name\":\"polca-req\""));

        // req_trace on with no captured records: the lane process is
        // omitted and the trace matches the untraced rendering.
        a.requests.clear();
        assert_eq!(a.chrome_trace_json(), without);

        fs::remove_dir_all(&dir).unwrap();
    }
}
