//! polca-benchmark: the referee for simulator speed.
//!
//! ```text
//! polca-benchmark --workload W --seed S --seconds N --trace 0|1
//!     measure one workload for about N seconds; the last stdout line is
//!     {"correct","attempted","failed","metrics"} with the end-to-end
//!     metrics, or with --trace 1 the per-layer metrics
//! polca-benchmark run --seed S [--reps R (10)] [--out DIR] [--smoke]
//!     every workload, R rotating rounds plus a traced pass; prints every
//!     metric and writes DIR/result.json and DIR/trace_<workload>.json
//! polca-benchmark run --repin
//!     regenerate expected.json, the digests pinned for seeds 17 and 42
//! polca-benchmark compare PARENT.json CHANGE.json
//!     better / worse / unchanged / unresolved per (metric, workload)
//! polca-benchmark child --workload W --seed S --threads T [--smoke]
//!     [--trace-wall X --trace-wall-1t Y --trace-out FILE]
//!     one rep (internal: the other modes re-invoke the binary)
//! ```
//!
//! Workloads: row_6wk, site_day, serve_day, replay_obs. See README.md.

mod harness;
mod host;
mod json;
mod layers;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use layers::TraceArgs;
use workload::{Spec, Workload};

/// Parsed `--name value` options; switches map to `"true"`.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], options: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if switches.contains(&name) {
                map.insert(name.to_string(), "true".to_string());
            } else if options.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("`--{name}` needs a value"))?;
                map.insert(name.to_string(), v.clone());
            } else {
                return Err(format!("unknown flag `--{name}`"));
            }
        }
        Ok(Flags(map))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value `{v}` for `--{name}`"))
            })
            .transpose()
    }

    fn need<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("missing `--{name}`"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.need("workload")?;
        Workload::parse(&name).ok_or_else(|| {
            let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload `{name}` (expected one of {})",
                all.join(", ")
            )
        })
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let f = Flags::parse(&args[1..], &["seed", "reps", "out"], &["smoke", "repin"])?;
            if f.has("repin") {
                return Ok(harness::repin());
            }
            let reps: usize = f.get("reps")?.unwrap_or(10);
            if reps == 0 {
                return Err("`--reps` must be at least 1".into());
            }
            let out: PathBuf = f
                .get("out")?
                .unwrap_or_else(|| PathBuf::from("bench-results"));
            Ok(harness::run_set(
                f.get("seed")?.unwrap_or(17),
                reps,
                &out,
                f.has("smoke"),
            ))
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(harness::compare(a.as_ref(), b.as_ref())),
            _ => Err("usage: compare PARENT.json CHANGE.json".into()),
        },
        Some("child") => {
            let f = Flags::parse(
                &args[1..],
                &[
                    "workload",
                    "seed",
                    "threads",
                    "trace-wall",
                    "trace-wall-1t",
                    "trace-out",
                ],
                &["smoke"],
            )?;
            let spec = Spec {
                workload: f.workload()?,
                seed: f.need("seed")?,
                threads: f.need("threads")?,
                smoke: f.has("smoke"),
            };
            let trace = match f.get::<PathBuf>("trace-out")? {
                Some(path) => Some((
                    TraceArgs {
                        wall_median: f.need("trace-wall")?,
                        wall_1t: f.need("trace-wall-1t")?,
                    },
                    path,
                )),
                None => None,
            };
            Ok(harness::child(&spec, trace))
        }
        Some(flag) if flag.starts_with("--") => {
            let f = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
            let seconds: f64 = f.need("seconds")?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err("`--seconds` must be positive".into());
            }
            let trace = match f.need::<String>("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("`--trace` must be 0 or 1, not `{other}`")),
            };
            Ok(harness::measure(
                f.workload()?,
                f.need("seed")?,
                seconds,
                trace,
            ))
        }
        _ => Err(
            "usage: polca-benchmark --workload W --seed S --seconds N --trace 0|1 \
                  | run [--seed S] [--reps R] [--out DIR] [--smoke] [--repin] \
                  | compare PARENT.json CHANGE.json"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("polca-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_options_and_switches() {
        let f = Flags::parse(&args("--seed 7 --smoke"), &["seed"], &["smoke"]).unwrap();
        assert_eq!(f.need::<u64>("seed").unwrap(), 7);
        assert!(f.has("smoke"));
        assert!(Flags::parse(&args("--bogus 1"), &["seed"], &[]).is_err());
        assert!(Flags::parse(&args("--seed"), &["seed"], &[]).is_err());
        assert!(Flags::parse(&args("seed 1"), &["seed"], &[]).is_err());
    }

    #[test]
    fn bad_measure_arguments_are_rejected_before_running() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload row_6wk --seed 1 --seconds 0 --trace 0",
            "--workload row_6wk --seed 1 --seconds 1 --trace 2",
            "--workload row_6wk --seconds 1 --trace 0",
        ] {
            assert!(dispatch(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// metrics this binary prints.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let spec = json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let e2e = spec.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), stats::END_TO_END.len());
        for (j, def) in e2e.iter().zip(stats::END_TO_END) {
            assert_eq!(j.get("name").and_then(json::Json::as_str), Some(def.name));
            assert_eq!(j.get("unit").and_then(json::Json::as_str), Some(def.unit));
            assert_eq!(
                j.get("better").and_then(json::Json::as_str),
                Some(def.better.tag())
            );
            assert_eq!(j.num_at("bound").unwrap(), def.rel);
        }
        let layers = spec.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), layers::PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(layers::PER_LAYER) {
            assert_eq!(j.get("name").and_then(json::Json::as_str), Some(name));
            assert_eq!(j.get("unit").and_then(json::Json::as_str), Some(unit));
            assert_eq!(
                j.get("better").and_then(json::Json::as_str),
                Some(better.tag())
            );
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
