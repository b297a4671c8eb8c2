//! The declarative alerting rule grammar.
//!
//! A rule set is a plain-text document, one rule per line:
//!
//! ```text
//! # name    kind       key=value ...
//! row-hot   threshold  over=0.95 clear=0.92 hold=30s severity=critical
//! row-warm  threshold  over=0.88 hold=60s
//! spike     rate       rise=0.05 window=10s
//! oob-stale absence    gap=6s severity=critical
//! cap-storm count      event=cap_applied k=8 window=120s
//! brakes    count      event=brake_on k=2 window=300s severity=critical
//! ```
//!
//! * `#` starts a comment; blank lines are ignored.
//! * Durations accept `s`/`m`/`h` suffixes (`30s`, `5m`, `1h`) or bare
//!   seconds.
//! * Power values (`over`, `clear`, `rise`) are *fractions of the row's
//!   provisioned power*, so rules are row-size independent.
//! * `severity` is `warning` (default) or `critical`.
//!
//! Rule kinds:
//!
//! * `threshold` — the delayed row-power fraction stays at or above
//!   `over` for `hold` (default 0 s); clears below `clear` (default
//!   97 % of `over` — hysteresis so the alert does not flap inside the
//!   noise band).
//! * `rate` — the fraction rose by at least `rise` within `window`.
//! * `absence` — no delayed sample for more than `gap` (staleness: §3.3
//!   notes OOB telemetry "may sometimes fail without signaling").
//! * `count` — at least `k` events with tag `event` within `window`.
//!   Tags are the obs event kinds (`cap_applied`, `uncap`, `oob_lost`,
//!   …) plus `brake_on` / `brake_off` for the two halves of the `brake`
//!   event.

use std::error::Error;
use std::fmt;

/// How urgent an alert (and the incident it opens) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a ticket.
    Warning,
    /// Worth a page.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// The condition half of a rule.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Delayed row-power fraction ≥ `over` sustained for `hold_s`;
    /// clears below `clear`.
    Threshold {
        /// Assert level as a fraction of provisioned power.
        over: f64,
        /// De-assert level (hysteresis), ≤ `over`.
        clear: f64,
        /// How long the signal must stay at/above `over` before firing.
        hold_s: f64,
    },
    /// Delayed row-power fraction rose by ≥ `rise` within `window_s`.
    Rate {
        /// Minimum rise (fraction of provisioned) to fire on.
        rise: f64,
        /// Look-back window in seconds.
        window_s: f64,
    },
    /// No delayed sample for more than `gap_s` seconds.
    Absence {
        /// Maximum tolerated gap between samples in seconds.
        gap_s: f64,
    },
    /// At least `k` events with tag `event` within `window_s`.
    Count {
        /// Event tag to count (obs event kind, or `brake_on` /
        /// `brake_off`).
        event: String,
        /// Firing threshold.
        k: u64,
        /// Sliding window in seconds.
        window_s: f64,
    },
}

/// One named, severity-tagged alerting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Unique rule name (the incident correlation key).
    pub name: String,
    /// Alert severity when the rule fires.
    pub severity: Severity,
    /// The condition.
    pub kind: RuleKind,
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleParseError {
    /// 1-based line number in the rule document.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule line {}: {}", self.line, self.message)
    }
}

impl Error for RuleParseError {}

/// An ordered collection of rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

/// The built-in rule set the watch plane uses when no rule file is
/// given. Thresholds echo the paper's operating points: POLCA's T2 trip
/// level sits at 89 % of provisioned power and the brake at 100 %, so
/// sustained operation above 95 % is genuinely dangerous, and *any*
/// brake engagement violates Table 6.
pub const DEFAULT_RULES: &str = "\
# polca-watch default rules (fractions of provisioned row power)
row-power-high      threshold over=0.95 clear=0.92 hold=30s severity=critical
row-power-approach  threshold over=0.88 clear=0.85 hold=60s severity=warning
row-power-spike     rate      rise=0.08 window=20s severity=warning
oob-telemetry-stale absence   gap=6s severity=critical
cap-storm           count     event=cap_applied k=8 window=120s severity=warning
brake-storm         count     event=brake_on k=2 window=300s severity=critical
";

impl RuleSet {
    /// The built-in [`DEFAULT_RULES`], parsed.
    pub fn default_rules() -> RuleSet {
        RuleSet::parse(DEFAULT_RULES).expect("built-in rules parse")
    }

    /// Parses a rule document (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<RuleSet, RuleParseError> {
        let mut rules: Vec<Rule> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| RuleParseError {
                line: line_no,
                message,
            };
            let mut tokens = line.split_whitespace();
            let name = tokens.next().expect("non-empty line").to_string();
            let kind_word = tokens
                .next()
                .ok_or_else(|| err(format!("rule '{name}' is missing a kind")))?;
            if rules.iter().any(|r| r.name == name) {
                return Err(err(format!("duplicate rule name '{name}'")));
            }
            let mut severity = Severity::Warning;
            let mut args: Vec<(String, String)> = Vec::new();
            for tok in tokens {
                let (key, value) = tok
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, got '{tok}'")))?;
                if key == "severity" {
                    severity = match value {
                        "warning" => Severity::Warning,
                        "critical" => Severity::Critical,
                        other => {
                            return Err(err(format!(
                                "unknown severity '{other}' (expected warning|critical)"
                            )))
                        }
                    };
                } else {
                    args.push((key.to_string(), value.to_string()));
                }
            }
            let take = |args: &mut Vec<(String, String)>, key: &str| -> Option<String> {
                let pos = args.iter().position(|(k, _)| k == key)?;
                Some(args.remove(pos).1)
            };
            let number = |key: &str, value: &str| -> Result<f64, RuleParseError> {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| err(format!("'{key}' is not a number: '{value}'")))
            };
            let duration = |key: &str, value: &str| -> Result<f64, RuleParseError> {
                let (num_part, scale) = match value.as_bytes().last() {
                    Some(b's') => (&value[..value.len() - 1], 1.0),
                    Some(b'm') => (&value[..value.len() - 1], 60.0),
                    Some(b'h') => (&value[..value.len() - 1], 3600.0),
                    _ => (value, 1.0),
                };
                let v = number(key, num_part)?;
                if v < 0.0 {
                    return Err(err(format!("'{key}' must be non-negative")));
                }
                Ok(v * scale)
            };
            let kind = match kind_word {
                "threshold" => {
                    let over_s = take(&mut args, "over")
                        .ok_or_else(|| err("threshold rule needs over=".to_string()))?;
                    let over = number("over", &over_s)?;
                    if over <= 0.0 {
                        return Err(err("'over' must be positive".to_string()));
                    }
                    let clear = match take(&mut args, "clear") {
                        Some(v) => number("clear", &v)?,
                        None => over * 0.97,
                    };
                    if clear > over {
                        return Err(err(format!("clear={clear} must not exceed over={over}")));
                    }
                    let hold_s = match take(&mut args, "hold") {
                        Some(v) => duration("hold", &v)?,
                        None => 0.0,
                    };
                    RuleKind::Threshold {
                        over,
                        clear,
                        hold_s,
                    }
                }
                "rate" => {
                    let rise_s = take(&mut args, "rise")
                        .ok_or_else(|| err("rate rule needs rise=".to_string()))?;
                    let rise = number("rise", &rise_s)?;
                    if rise <= 0.0 {
                        return Err(err("'rise' must be positive".to_string()));
                    }
                    let window_s = duration(
                        "window",
                        &take(&mut args, "window")
                            .ok_or_else(|| err("rate rule needs window=".to_string()))?,
                    )?;
                    if window_s <= 0.0 {
                        return Err(err("'window' must be positive".to_string()));
                    }
                    RuleKind::Rate { rise, window_s }
                }
                "absence" => {
                    let gap_s = duration(
                        "gap",
                        &take(&mut args, "gap")
                            .ok_or_else(|| err("absence rule needs gap=".to_string()))?,
                    )?;
                    if gap_s <= 0.0 {
                        return Err(err("'gap' must be positive".to_string()));
                    }
                    RuleKind::Absence { gap_s }
                }
                "count" => {
                    let event = take(&mut args, "event")
                        .ok_or_else(|| err("count rule needs event=".to_string()))?;
                    let k_s = take(&mut args, "k")
                        .ok_or_else(|| err("count rule needs k=".to_string()))?;
                    let k =
                        k_s.parse::<u64>().ok().filter(|&k| k >= 1).ok_or_else(|| {
                            err(format!("'k' must be a positive integer: '{k_s}'"))
                        })?;
                    let window_s = duration(
                        "window",
                        &take(&mut args, "window")
                            .ok_or_else(|| err("count rule needs window=".to_string()))?,
                    )?;
                    if window_s <= 0.0 {
                        return Err(err("'window' must be positive".to_string()));
                    }
                    RuleKind::Count { event, k, window_s }
                }
                other => {
                    return Err(err(format!(
                        "unknown rule kind '{other}' (expected threshold|rate|absence|count)"
                    )))
                }
            };
            if let Some((key, _)) = args.first() {
                return Err(err(format!("unknown key '{key}' for {kind_word} rule")));
            }
            rules.push(Rule {
                name,
                severity,
                kind,
            });
        }
        Ok(RuleSet { rules })
    }

    /// The rules, in document order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_parse() {
        let set = RuleSet::default_rules();
        assert_eq!(set.len(), 6);
        assert_eq!(set.rules()[0].name, "row-power-high");
        assert_eq!(set.rules()[0].severity, Severity::Critical);
        assert_eq!(
            set.rules()[0].kind,
            RuleKind::Threshold {
                over: 0.95,
                clear: 0.92,
                hold_s: 30.0,
            }
        );
        assert_eq!(
            set.rules()[5].kind,
            RuleKind::Count {
                event: "brake_on".to_string(),
                k: 2,
                window_s: 300.0,
            }
        );
    }

    #[test]
    fn durations_accept_suffixes() {
        let set = RuleSet::parse("a threshold over=0.9 hold=5m\nb absence gap=1h\n").unwrap();
        assert_eq!(
            set.rules()[0].kind,
            RuleKind::Threshold {
                over: 0.9,
                clear: 0.9 * 0.97,
                hold_s: 300.0,
            }
        );
        assert_eq!(set.rules()[1].kind, RuleKind::Absence { gap_s: 3600.0 });
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let set =
            RuleSet::parse("# all comments\n\n  \na threshold over=0.5 # trailing\n").unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = RuleSet::parse("ok threshold over=0.5\nbad nonsense x=1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown rule kind"), "{e}");

        let e = RuleSet::parse("a threshold over=0.5\na threshold over=0.6\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");

        let e = RuleSet::parse("a threshold over=0.5 clear=0.9\n").unwrap_err();
        assert!(e.message.contains("must not exceed"), "{e}");

        let e = RuleSet::parse("a count event=brake_on k=0 window=10s\n").unwrap_err();
        assert!(e.message.contains("positive integer"), "{e}");

        let e = RuleSet::parse("a threshold over=0.5 bogus=1\n").unwrap_err();
        assert!(e.message.contains("unknown key 'bogus'"), "{e}");
    }

    #[test]
    fn severity_parses_and_orders() {
        assert!(Severity::Critical > Severity::Warning);
        assert_eq!(Severity::Critical.to_string(), "critical");
        let e = RuleSet::parse("a threshold over=0.5 severity=meh\n").unwrap_err();
        assert!(e.message.contains("unknown severity"), "{e}");
    }
}
