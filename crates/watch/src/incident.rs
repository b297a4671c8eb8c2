//! Incident lifecycle: correlating alerts into trackable incidents.
//!
//! Every firing alert either joins the open incident for its rule or
//! opens a new one. An incident walks a four-state lifecycle:
//!
//! ```text
//! Open ──(repeat alerts / severity upgrade)──▶ Escalated
//!   │                                             │
//!   └────────────(rule clears)────────────────────┤
//!                                                 ▼
//!                                        MitigateObserved
//!                                                 │ (quiet for
//!                                                 ▼  resolve_after_s)
//!                                             Resolved
//! ```
//!
//! A regression (the rule fires again while mitigation is being
//! observed) moves the incident back to `Escalated` — flapping alerts
//! produce one incident with a long tail, not a stack of duplicates.
//!
//! Each incident records the *detection lag*: the gap between the first
//! ground-truth threshold crossing (known only to the simulator) and
//! the moment the watch plane — which sees only the delayed OOB feed —
//! actually fired. With the paper's 2 s telemetry propagation delay and
//! a zero-hold rule, the lag is exactly 2 s.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use polca_obs::json::{esc, num};

use crate::engine::Alert;
use crate::rules::Severity;

/// Where an incident is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentState {
    /// The first alert fired; the condition is live.
    Open,
    /// Repeated alerts or a severity upgrade raised the stakes.
    Escalated,
    /// The rule cleared; watching for the condition to stay gone.
    MitigateObserved,
    /// Quiet for the full cool-down; the incident is closed.
    Resolved,
}

impl IncidentState {
    /// Stable machine-readable tag used in `incidents.jsonl`.
    pub fn tag(self) -> &'static str {
        match self {
            IncidentState::Open => "open",
            IncidentState::Escalated => "escalated",
            IncidentState::MitigateObserved => "mitigate_observed",
            IncidentState::Resolved => "resolved",
        }
    }
}

/// One correlated incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Monotonic incident id (order of opening).
    pub id: u64,
    /// The rule whose alerts this incident correlates.
    pub rule: String,
    /// Highest severity seen across the incident's alerts.
    pub severity: Severity,
    /// Current lifecycle state.
    pub state: IncidentState,
    /// When the opening alert fired (simulation seconds).
    pub opened_t: f64,
    /// Ground-truth time the underlying condition first held, when the
    /// simulator disclosed it for annotation (never used for firing).
    pub truth_t: Option<f64>,
    /// `opened_t - truth_t`: how long the delayed telemetry hid the
    /// condition from the watch plane.
    pub detection_lag_s: Option<f64>,
    /// When the incident escalated, if it did.
    pub escalated_t: Option<f64>,
    /// When the rule last cleared (mitigation observed).
    pub mitigated_t: Option<f64>,
    /// When the incident resolved, if it did.
    pub resolved_t: Option<f64>,
    /// Total alerts correlated into this incident.
    pub alerts: u64,
    /// Most extreme rule value seen (e.g. peak power fraction).
    pub peak_value: f64,
    /// Detail line from the most recent alert.
    pub detail: String,
}

impl Incident {
    /// Serializes the incident as one JSONL line (stable key order,
    /// `null` for absent optionals, no trailing newline).
    pub fn to_json(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map(num).unwrap_or_else(|| "null".to_string())
        }
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"id\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"state\":\"{}\"",
            self.id,
            esc(&self.rule),
            self.severity,
            self.state.tag()
        );
        let _ = write!(
            s,
            ",\"opened_t\":{},\"truth_t\":{},\"detection_lag_s\":{}",
            num(self.opened_t),
            opt(self.truth_t),
            opt(self.detection_lag_s)
        );
        let _ = write!(
            s,
            ",\"escalated_t\":{},\"mitigated_t\":{},\"resolved_t\":{}",
            opt(self.escalated_t),
            opt(self.mitigated_t),
            opt(self.resolved_t)
        );
        let _ = write!(
            s,
            ",\"alerts\":{},\"peak_value\":{},\"detail\":\"{}\"}}",
            self.alerts,
            num(self.peak_value),
            esc(&self.detail)
        );
        s
    }
}

/// The incident store: correlation, escalation, and resolution policy.
#[derive(Debug, Clone)]
pub struct IncidentLog {
    incidents: Vec<Incident>,
    /// rule name → index into `incidents` of the open incident.
    open_by_rule: BTreeMap<String, usize>,
    escalate_after: u64,
    resolve_after_s: f64,
}

impl IncidentLog {
    /// A log that escalates after `escalate_after` correlated alerts
    /// and resolves after `resolve_after_s` quiet seconds.
    pub fn new(escalate_after: u64, resolve_after_s: f64) -> Self {
        IncidentLog {
            incidents: Vec::new(),
            open_by_rule: BTreeMap::new(),
            escalate_after: escalate_after.max(1),
            resolve_after_s,
        }
    }

    /// Folds a firing alert into the open incident for its rule, or
    /// opens a new incident.
    pub fn on_alert(&mut self, alert: &Alert) {
        if let Some(&idx) = self.open_by_rule.get(&alert.rule) {
            let inc = &mut self.incidents[idx];
            inc.alerts += 1;
            inc.peak_value = inc.peak_value.max(alert.value);
            inc.detail = alert.detail.clone();
            let upgraded = alert.severity > inc.severity;
            inc.severity = inc.severity.max(alert.severity);
            match inc.state {
                IncidentState::MitigateObserved => {
                    // Regression: the condition came back during the
                    // cool-down. Escalate rather than reopen quietly.
                    inc.state = IncidentState::Escalated;
                    inc.mitigated_t = None;
                    inc.escalated_t.get_or_insert(alert.t);
                }
                IncidentState::Open => {
                    if upgraded || inc.alerts >= self.escalate_after {
                        inc.state = IncidentState::Escalated;
                        inc.escalated_t = Some(alert.t);
                    }
                }
                IncidentState::Escalated => {}
                IncidentState::Resolved => unreachable!("resolved incidents leave open_by_rule"),
            }
        } else {
            let id = self.incidents.len() as u64;
            self.open_by_rule
                .insert(alert.rule.clone(), self.incidents.len());
            self.incidents.push(Incident {
                id,
                rule: alert.rule.clone(),
                severity: alert.severity,
                state: IncidentState::Open,
                opened_t: alert.t,
                truth_t: alert.truth_t,
                detection_lag_s: alert.truth_t.map(|tt| alert.t - tt),
                escalated_t: None,
                mitigated_t: None,
                resolved_t: None,
                alerts: 1,
                peak_value: alert.value,
                detail: alert.detail.clone(),
            });
        }
    }

    /// Notes that `rule` cleared at `t` (mitigation observed).
    pub fn on_clear(&mut self, rule: &str, t: f64) {
        if let Some(&idx) = self.open_by_rule.get(rule) {
            let inc = &mut self.incidents[idx];
            if inc.state != IncidentState::MitigateObserved {
                inc.state = IncidentState::MitigateObserved;
                inc.mitigated_t = Some(t);
            }
        }
    }

    /// Advances resolution timers: incidents quiet since mitigation for
    /// the full cool-down are resolved.
    pub fn on_tick(&mut self, now: f64) {
        let resolve_after_s = self.resolve_after_s;
        let incidents = &mut self.incidents;
        self.open_by_rule.retain(|_, &mut idx| {
            let inc = &mut incidents[idx];
            match (inc.state, inc.mitigated_t) {
                (IncidentState::MitigateObserved, Some(mt)) if now - mt >= resolve_after_s => {
                    inc.state = IncidentState::Resolved;
                    inc.resolved_t = Some(now);
                    false
                }
                _ => true,
            }
        });
    }

    /// Final resolution pass at the end of the run. Incidents still in
    /// their cool-down or still firing keep their live state — a
    /// truthful postmortem says "unresolved at end of run".
    pub fn finalize(&mut self, t_end: f64) {
        self.on_tick(t_end);
    }

    /// All incidents, in opening order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(t: f64, rule: &str, severity: Severity, truth_t: Option<f64>) -> Alert {
        Alert {
            t,
            rule: rule.to_string(),
            severity,
            value: t / 100.0,
            truth_t,
            detail: format!("{rule} fired"),
        }
    }

    #[test]
    fn lifecycle_walks_open_escalate_mitigate_resolve() {
        let mut log = IncidentLog::new(3, 300.0);
        log.on_alert(&alert(10.0, "hot", Severity::Warning, Some(8.0)));
        assert_eq!(log.incidents()[0].state, IncidentState::Open);
        assert_eq!(log.incidents()[0].detection_lag_s, Some(2.0));

        log.on_alert(&alert(12.0, "hot", Severity::Warning, None));
        log.on_alert(&alert(14.0, "hot", Severity::Warning, None));
        assert_eq!(log.incidents()[0].state, IncidentState::Escalated);
        assert_eq!(log.incidents()[0].escalated_t, Some(14.0));

        log.on_clear("hot", 20.0);
        assert_eq!(log.incidents()[0].state, IncidentState::MitigateObserved);

        log.on_tick(100.0); // too soon
        assert_eq!(log.incidents()[0].state, IncidentState::MitigateObserved);
        log.on_tick(321.0);
        assert_eq!(log.incidents()[0].state, IncidentState::Resolved);
        assert_eq!(log.incidents()[0].resolved_t, Some(321.0));
        assert_eq!(log.incidents()[0].alerts, 3);
    }

    #[test]
    fn severity_upgrade_escalates_immediately() {
        let mut log = IncidentLog::new(10, 300.0);
        log.on_alert(&alert(1.0, "hot", Severity::Warning, None));
        log.on_alert(&alert(2.0, "hot", Severity::Critical, None));
        assert_eq!(log.incidents()[0].state, IncidentState::Escalated);
        assert_eq!(log.incidents()[0].severity, Severity::Critical);
    }

    #[test]
    fn regression_during_cooldown_escalates_not_duplicates() {
        let mut log = IncidentLog::new(5, 300.0);
        log.on_alert(&alert(1.0, "hot", Severity::Warning, None));
        log.on_clear("hot", 5.0);
        log.on_alert(&alert(50.0, "hot", Severity::Warning, None));
        assert_eq!(log.incidents().len(), 1);
        assert_eq!(log.incidents()[0].state, IncidentState::Escalated);
        assert_eq!(log.incidents()[0].mitigated_t, None);
    }

    #[test]
    fn resolved_rule_opens_a_fresh_incident_next_time() {
        let mut log = IncidentLog::new(3, 10.0);
        log.on_alert(&alert(1.0, "hot", Severity::Warning, None));
        log.on_clear("hot", 2.0);
        log.on_tick(20.0);
        log.on_alert(&alert(30.0, "hot", Severity::Warning, None));
        assert_eq!(log.incidents().len(), 2);
        assert_eq!(log.incidents()[1].id, 1);
        assert_eq!(log.incidents()[1].state, IncidentState::Open);
    }

    #[test]
    fn unresolved_incidents_stay_live_at_finalize() {
        let mut log = IncidentLog::new(3, 300.0);
        log.on_alert(&alert(1.0, "hot", Severity::Warning, None));
        log.finalize(100.0);
        assert_eq!(log.incidents()[0].state, IncidentState::Open);
    }

    #[test]
    fn jsonl_is_stable_and_null_safe() {
        let mut log = IncidentLog::new(3, 300.0);
        log.on_alert(&alert(10.0, "hot", Severity::Critical, Some(8.0)));
        let line = log.incidents()[0].to_json();
        assert_eq!(
            line,
            "{\"id\":0,\"rule\":\"hot\",\"severity\":\"critical\",\"state\":\"open\",\
             \"opened_t\":10,\"truth_t\":8,\"detection_lag_s\":2,\
             \"escalated_t\":null,\"mitigated_t\":null,\"resolved_t\":null,\
             \"alerts\":1,\"peak_value\":0.1,\"detail\":\"hot fired\"}"
        );
        assert_eq!(log.incidents()[0].to_json(), line);
    }
}
