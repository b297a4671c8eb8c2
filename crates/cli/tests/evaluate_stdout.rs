//! `polca-cli evaluate` stdout, pinned byte for byte.
//!
//! Each case runs the built binary from the workspace root, so the
//! trace CSV is passed by its repo-relative path and no absolute path
//! lands in a golden. The five invocations cover the three run shapes
//! (one row, a site, the four-policy panel) on both arrival sources
//! (synthesized and `--trace-csv`), with the req, energy and watch
//! planes on. Thread counts change wall time only, so the panel also
//! runs at `--jobs 2` and the synthetic site at `--fleet-threads 2`
//! against the same goldens, and the panel with `--watch` prints the
//! same at `--jobs 1` and `--jobs 2`. The last two tests check that
//! `--power-scale` and `--servers` change what a run prints on every
//! arrival source.

use std::path::Path;
use std::process::Command;

const REPLAY: &str = "--trace-csv tests/golden/sample_trace.csv --time-scale 0.05 --servers 10";

/// Runs `polca-cli evaluate <args>` from the workspace root and
/// returns its stdout, failing the test on a non-zero exit.
fn evaluate(args: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_polca-cli"))
        .current_dir(root)
        .arg("evaluate")
        .args(args.split_whitespace())
        .output()
        .expect("polca-cli runs");
    assert!(
        out.status.success(),
        "evaluate {args} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn check(args: &str, golden: &str, name: &str) {
    let actual = evaluate(args);
    assert_eq!(
        actual, golden,
        "evaluate {args} drifted from tests/golden/{name};\nactual:\n{actual}"
    );
}

#[test]
fn synthetic_row_with_every_plane() {
    check(
        "--days 0.02 --engine batched --split-pools --req-trace --carbon-diurnal --watch",
        include_str!("../../../tests/golden/evaluate_row.txt"),
        "evaluate_row.txt",
    );
}

#[test]
fn synthetic_site_under_enforced_budgets() {
    let args = "--rows 2 --datacenters 2 --days 0.02 --enforce-budgets --oversub-site 10 \
                --watch --carbon-diurnal";
    let golden = include_str!("../../../tests/golden/evaluate_site.txt");
    check(args, golden, "evaluate_site.txt");
    check(
        &format!("{args} --fleet-threads 2"),
        golden,
        "evaluate_site.txt",
    );
}

#[test]
fn replayed_four_policy_panel() {
    let golden = include_str!("../../../tests/golden/evaluate_replay_panel.txt");
    check(REPLAY, golden, "evaluate_replay_panel.txt");
    check(
        &format!("{REPLAY} --jobs 2"),
        golden,
        "evaluate_replay_panel.txt",
    );
}

#[test]
fn watched_panel_prints_the_same_at_any_jobs() {
    let args = format!("{REPLAY} --watch");
    let sequential = evaluate(&args);
    assert!(sequential.contains("    watch: "), "{sequential}");
    assert_eq!(evaluate(&format!("{args} --jobs 2")), sequential);
}

#[test]
fn replayed_row_with_every_plane() {
    check(
        &format!("{REPLAY} --policy polca --watch --req-trace --carbon-diurnal"),
        include_str!("../../../tests/golden/evaluate_replay_row.txt"),
        "evaluate_replay_row.txt",
    );
}

#[test]
fn replayed_site_under_a_site_budget() {
    check(
        &format!(
            "{REPLAY} --rows 2 --datacenters 3 --enforce-budgets --site-budget-mw 0.30 --watch"
        ),
        include_str!("../../../tests/golden/evaluate_replay_site.txt"),
        "evaluate_replay_site.txt",
    );
}

#[test]
fn power_scale_changes_a_replayed_run() {
    let last_line = |args: &str| {
        evaluate(args)
            .lines()
            .last()
            .unwrap_or_default()
            .to_string()
    };
    let plain = last_line(&format!("{REPLAY} --policy nocap"));
    let scaled = last_line(&format!("{REPLAY} --policy nocap --power-scale 3"));
    assert!(plain.starts_with("  No-cap "), "{plain}");
    assert_ne!(plain, scaled);
}

#[test]
fn servers_sizes_the_synthesized_row() {
    let out = evaluate("--days 0.02 --servers 20");
    assert!(out.contains("capacity value: 6 extra servers"), "{out}");
}
