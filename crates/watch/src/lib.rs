//! polca-watch: an online alerting, SLO-burn, and incident plane driven
//! by delayed out-of-band telemetry.
//!
//! The paper's control loop runs on telemetry that is *late* (2 s
//! propagation), *slow* (2 s interval), and *unreliable* (silent
//! failures). Any real deployment would run an alerting plane on that
//! same degraded feed — and its detection lag is itself a power-safety
//! characteristic worth measuring. This crate provides that plane for
//! the simulator:
//!
//! * [`rules`] — a declarative rule grammar (threshold-with-hysteresis,
//!   rate-of-change, absence/staleness, event-count).
//! * [`burn`] — multi-window SLO burn-rate tracking per priority class.
//! * [`engine`] — the streaming evaluator over the delayed feeds.
//! * [`incident`] — alert correlation and the incident lifecycle
//!   (open → escalated → mitigate-observed → resolved).
//! * [`report`] — Markdown postmortems.
//!
//! The central honesty contract: the watch plane subscribes to exactly
//! what the in-simulation controller can see. Ground truth flows in on
//! a separate feed used *only* to timestamp when conditions actually
//! began, so every incident reports how long the delayed telemetry hid
//! it (`detection_lag_s`). And watching is purely passive — attaching a
//! [`WatchPlane`] must leave the simulation's event log and policy
//! decisions bit-identical.
//!
//! ```
//! use polca_watch::{WatchConfig, WatchPlane};
//!
//! let plane = WatchPlane::new(WatchConfig::new(1000.0));
//! // ... wire plane.subscriber() into SimConfig::oob_taps and
//! // plane.event_tap() into the obs Recorder, run the sim ...
//! let artifacts = plane.finalize(polca_sim::SimTime::from_secs(3600.0));
//! assert!(artifacts.incidents().is_empty());
//! ```

#![deny(missing_docs)]

pub mod burn;
pub mod engine;
pub mod incident;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::{fs, io};

use polca::SloTargets;
use polca_cluster::Priority;
use polca_obs::{Annotation, Event, EventTap, Recorder, ReqRecord};
use polca_sim::SimTime;
use polca_telemetry::{RowPowerSubscriber, RowPowerTaps};

pub use burn::{BurnConfig, BurnSignal, BurnSummary};
pub use engine::{
    Alert, WatchEnergyConfig, WatchEngine, CARBON_BUDGET_RULE, CARBON_PER_TOKEN_RULE,
};
pub use incident::{Incident, IncidentState};
pub use rules::{Rule, RuleKind, RuleParseError, RuleSet, Severity};

/// Everything the watch plane needs to know up front.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Provisioned row power in watts (power rules use fractions of
    /// this, so rule files are row-size independent).
    pub provisioned_watts: f64,
    /// The alerting rules.
    pub rules: RuleSet,
    /// The SLO targets the run will be judged against (kept alongside
    /// the burn config for report context).
    pub slo: SloTargets,
    /// Burn-rate tracking parameters.
    pub burn: BurnConfig,
    /// Correlated alerts before an open incident escalates.
    pub escalate_after_alerts: u64,
    /// Quiet seconds after mitigation before an incident resolves.
    pub resolve_after_s: f64,
    /// Built-in carbon rules (budget burn rate, gCO2e/token), enabled
    /// only when a grid signal and budgets are supplied. They are
    /// constructed programmatically rather than in the default rule
    /// text because they carry a carbon-intensity signal no rule
    /// grammar line can express.
    pub energy: Option<WatchEnergyConfig>,
}

impl WatchConfig {
    /// The default watch configuration for a row provisioned at
    /// `provisioned_watts`: built-in rules, paper SLOs, SRE-style burn
    /// windows.
    pub fn new(provisioned_watts: f64) -> Self {
        WatchConfig {
            provisioned_watts,
            rules: RuleSet::default_rules(),
            slo: SloTargets::default(),
            burn: BurnConfig::default(),
            escalate_after_alerts: 3,
            resolve_after_s: 300.0,
            energy: None,
        }
    }

    /// Enables the built-in carbon rules.
    pub fn with_energy(mut self, energy: WatchEnergyConfig) -> Self {
        self.energy = Some(energy);
        self
    }
}

/// Shared engine cell implementing both feed interfaces.
#[derive(Debug)]
struct WatchShared {
    engine: Mutex<WatchEngine>,
}

impl RowPowerSubscriber for WatchShared {
    /// A plane watches one stream and reads no row index. Truth goes
    /// first, so detection-lag shadows are current, then the delayed
    /// view.
    fn on_tick(&self, _row: usize, now: SimTime, truth_watts: f64, observed: Option<f64>) {
        let mut engine = self.engine.lock().unwrap();
        let t = now.as_secs();
        engine.truth(t, truth_watts);
        match observed {
            Some(watts) => engine.observe(t, watts),
            None => engine.gap(t),
        }
    }
}

impl EventTap for WatchShared {
    fn on_event(&self, event: &Event) {
        // Ground-truth power samples are by far the most frequent event
        // and the engine ignores them by contract — skip them before
        // paying for the engine lock.
        if matches!(event, Event::PowerSample { .. }) {
            return;
        }
        self.engine.lock().unwrap().event(event);
    }

    fn on_request(&self, record: &ReqRecord) {
        // polca-req records stream in regardless of the requests.jsonl
        // sampling rate, so the TTFT/TBT burn windows see the full
        // population.
        let priority = if record.priority == "high" {
            Priority::High
        } else {
            Priority::Low
        };
        let mut engine = self.engine.lock().unwrap();
        engine.request(
            record.completed_s,
            priority,
            record.ttft_s,
            record.tbt_mean_s,
        );
        engine.request_tokens(record.completed_s, u64::from(record.output_tokens));
    }
}

/// The attachable watch plane: a [`WatchEngine`] behind the telemetry
/// fan-out and obs event-tap interfaces.
///
/// Cloning is cheap and all clones share the same engine.
#[derive(Debug, Clone)]
pub struct WatchPlane {
    shared: Arc<WatchShared>,
}

impl WatchPlane {
    /// A fresh plane with no observations yet.
    pub fn new(config: WatchConfig) -> Self {
        WatchPlane {
            shared: Arc::new(WatchShared {
                engine: Mutex::new(WatchEngine::new(&config)),
            }),
        }
    }

    /// The plane as a row-power subscriber, for
    /// `SimConfig::oob_taps.subscribe(..)`.
    pub fn subscriber(&self) -> Arc<dyn RowPowerSubscriber> {
        self.shared.clone()
    }

    /// The plane as an obs event tap, for `Recorder::set_tap(..)`.
    pub fn event_tap(&self) -> Arc<dyn EventTap> {
        self.shared.clone()
    }

    /// Convenience wiring: subscribes to the taps and installs the
    /// event tap on the recorder.
    pub fn attach(&self, taps: &mut RowPowerTaps, recorder: &Recorder) {
        taps.subscribe(self.subscriber());
        recorder.set_tap(self.event_tap());
    }

    /// Closes out the run at `t_end` and snapshots every artifact.
    pub fn finalize(&self, t_end: SimTime) -> WatchArtifacts {
        let mut engine = self.shared.engine.lock().unwrap();
        let t_end = t_end.as_secs();
        engine.finalize(t_end);
        WatchArtifacts {
            incidents: engine.incidents().incidents().to_vec(),
            alerts: engine.alerts().to_vec(),
            burn: engine.burn().summaries(),
            t_end,
        }
    }
}

/// A finished run's watch output.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchArtifacts {
    incidents: Vec<Incident>,
    alerts: Vec<Alert>,
    burn: [BurnSummary; 2],
    t_end: f64,
}

impl WatchArtifacts {
    /// All incidents, in opening order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// All fired alerts, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Per-class burn summaries, high priority first.
    pub fn burn_summaries(&self) -> &[BurnSummary; 2] {
        &self.burn
    }

    /// `incidents.jsonl`: one JSON object per incident.
    pub fn incidents_jsonl(&self) -> String {
        let mut s = String::new();
        for inc in &self.incidents {
            s.push_str(&inc.to_json());
            s.push('\n');
        }
        s
    }

    /// `report.md`: the Markdown postmortem digest.
    pub fn report_md(&self) -> String {
        report::render(&self.incidents, &self.alerts, &self.burn, self.t_end)
    }

    /// Chrome-trace instant annotations: one per alert, plus one per
    /// incident lifecycle transition, for merging onto the cluster
    /// track of the obs `trace.json`.
    pub fn annotations(&self) -> Vec<Annotation> {
        let mut out = Vec::new();
        for a in &self.alerts {
            out.push(Annotation {
                t: a.t,
                name: format!("alert:{}", a.rule),
                detail: a.detail.clone(),
            });
        }
        for inc in &self.incidents {
            let mut push = |t: Option<f64>, phase: &str| {
                if let Some(t) = t {
                    out.push(Annotation {
                        t,
                        name: format!("incident#{}:{phase}", inc.id),
                        detail: inc.rule.clone(),
                    });
                }
            };
            push(Some(inc.opened_t), "open");
            push(inc.escalated_t, "escalated");
            push(inc.mitigated_t, "mitigate_observed");
            push(inc.resolved_t, "resolved");
        }
        out.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.name.cmp(&b.name)));
        out
    }

    /// Writes `incidents.jsonl` and `report.md` into `dir`, creating it
    /// if needed, and returns the written paths.
    pub fn write_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, body) in [
            ("incidents.jsonl", self.incidents_jsonl()),
            ("report.md", self.report_md()),
        ] {
            let path = dir.join(name);
            fs::write(&path, body)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_routes_all_three_feeds_to_the_engine() {
        let plane = WatchPlane::new(WatchConfig::new(1000.0));
        let sub = plane.subscriber();
        let tap = plane.event_tap();
        // Truth crosses the 95% line at t=100; the delayed view crosses
        // at t=102. Default row-power-high has hold=30s.
        for i in 0..120 {
            let t = SimTime::from_secs(i as f64 * 2.0);
            let watts = if i >= 50 { 980.0 } else { 500.0 };
            let delayed = if i >= 51 { 980.0 } else { 500.0 };
            sub.on_tick(0, t, watts, Some(delayed));
        }
        tap.on_event(&Event::CapApplied {
            t: 150.0,
            server: 0,
            mhz: 1200.0,
        });
        let artifacts = plane.finalize(SimTime::from_secs(240.0));
        // The step also trips the spike-rate and approach rules; pick
        // out the critical threshold incident.
        let inc = artifacts
            .incidents()
            .iter()
            .find(|i| i.rule == "row-power-high")
            .expect("row-power-high incident");
        // Truth crossed at t=100; the delayed view crossed at t=102 and
        // had to hold for 30 s, so the alert fired at t=132 — a 32 s
        // detection lag, 2 s of which is pure telemetry delay.
        assert_eq!(inc.truth_t, Some(100.0));
        assert_eq!(inc.detection_lag_s, Some(32.0));
    }

    #[test]
    fn quiet_run_produces_empty_artifacts() {
        let plane = WatchPlane::new(WatchConfig::new(1000.0));
        let sub = plane.subscriber();
        for i in 0..10 {
            let t = SimTime::from_secs(i as f64 * 2.0);
            sub.on_tick(0, t, 300.0, Some(300.0));
        }
        let artifacts = plane.finalize(SimTime::from_secs(20.0));
        assert!(artifacts.incidents().is_empty());
        assert!(artifacts.alerts().is_empty());
        assert_eq!(artifacts.incidents_jsonl(), "");
        assert!(artifacts.report_md().contains("No incidents"));
        assert!(artifacts.annotations().is_empty());
    }

    #[test]
    fn artifacts_write_and_are_deterministic() {
        let mk = || {
            let plane = WatchPlane::new(WatchConfig::new(1000.0));
            let sub = plane.subscriber();
            for i in 0..60 {
                let t = SimTime::from_secs(i as f64 * 2.0);
                let watts = if (20..40).contains(&i) { 990.0 } else { 400.0 };
                let delayed = if (21..41).contains(&i) { 990.0 } else { 400.0 };
                sub.on_tick(0, t, watts, Some(delayed));
            }
            plane.finalize(SimTime::from_secs(120.0))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(a.incidents_jsonl(), b.incidents_jsonl());
        assert_eq!(a.report_md(), b.report_md());

        let dir = std::env::temp_dir().join(format!(
            "polca-watch-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(dir.join("incidents.jsonl").exists());
        assert!(dir.join("report.md").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn annotations_are_time_ordered() {
        let plane = WatchPlane::new(WatchConfig::new(1000.0));
        let tap = plane.event_tap();
        for i in 0..3 {
            tap.on_event(&Event::BrakeEngaged {
                t: 10.0 + i as f64,
                server: 0,
                on: true,
            });
        }
        let artifacts = plane.finalize(SimTime::from_secs(100.0));
        let ann = artifacts.annotations();
        assert!(!ann.is_empty());
        assert!(ann.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(ann.iter().any(|a| a.name == "alert:brake-storm"));
        assert!(ann.iter().any(|a| a.name == "incident#0:open"));
    }
}
