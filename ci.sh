#!/usr/bin/env bash
# Local CI gate (GitHub Actions is not available in the offline dev
# environment — run this before pushing). Mirrors the checks a hosted
# workflow would run, entirely offline:
#
#   ./ci.sh          # fmt + clippy + full workspace test suite
#   ./ci.sh quick    # fmt + clippy + unit tests only (skips the
#                    # multi-day end-to-end simulations)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
if [[ "${1:-}" == "quick" ]]; then
    cargo test -q --offline --workspace --lib --bins
else
    cargo test -q --offline --workspace
fi

echo "== bench-digest (polca-benchmark vs benchmark/expected.json) =="
# Every rep of every benchmark workload must reproduce the outcome
# digests pinned in benchmark/expected.json, which cover the simulated
# outcome and the bytes of the pinned artifacts. The last stdout line
# of each run is its verdict.
for workload in row_6wk site_day serve_day replay_obs; do
    verdict="$(cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --bin polca-benchmark -- \
        --workload "$workload" --seed 17 --seconds 1 --trace 0 | tail -n 1)" || :
    [[ "$verdict" == *'"correct":true'* ]] \
        || { echo "bench-digest: $workload drifted from benchmark/expected.json: $verdict"; exit 1; }
    echo "  $workload: correct"
done

echo "== cargo bench --no-run =="
cargo bench --offline --no-run -q

echo "== polca-cli ingest smoke test =="
cargo run -q --offline --release -p polca-cli -- \
    ingest tests/golden/sample_trace.csv

echo "== polca-cli fleet smoke test =="
# One trap for every smoke-test scratch dir: each step registers its
# mktemp dir here instead of re-issuing `trap ... EXIT`, which would
# silently *replace* the previous handler and leak the earlier dirs.
scratch_dirs=()
cleanup() { ((${#scratch_dirs[@]})) && rm -rf "${scratch_dirs[@]}" || :; }
trap cleanup EXIT
scratch() {
    local dir
    dir="$(mktemp -d)"
    scratch_dirs+=("$dir")
    printf '%s' "$dir"
}
fleet_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 4 --jobs 2 --servers 10 --obs-out "$fleet_out"
for row in row0 row1 row2 row3; do
    [[ -f "$fleet_out/$row/events.jsonl" ]] \
        || { echo "missing fleet artifact: $row/events.jsonl"; exit 1; }
done
[[ -f "$fleet_out/metrics.json" ]] \
    || { echo "missing fleet-level metrics.json"; exit 1; }

echo "== polca-cli site smoke test =="
# Determinism gate for the parallel site simulator: a 3-datacenter
# site stepped on 2 worker threads must produce byte-identical
# events.jsonl to the same site stepped sequentially.
site_seq="$(scratch)"
site_par="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --fleet-threads 1 --obs-out "$site_seq" > /dev/null
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --fleet-threads 2 --obs-out "$site_par" > /dev/null
cmp "$site_seq/events.jsonl" "$site_par/events.jsonl" \
    || { echo "site events.jsonl differs across --fleet-threads"; exit 1; }
for row in 0 1 2 3 4 5; do
    cmp "$site_seq/row$row/events.jsonl" "$site_par/row$row/events.jsonl" \
        || { echo "row$row events.jsonl differs across --fleet-threads"; exit 1; }
done
grep -q 'datacenter="2"' "$site_seq/metrics.prom" \
    || { echo "no per-datacenter series in site metrics.prom"; exit 1; }
# --jobs (sweep workers) and --fleet-threads (row workers) nest: the
# four-policy panel path must still run with both set.
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 2 --servers 10 --jobs 2 --fleet-threads 2 \
    > /dev/null

echo "== polca-cli watch smoke test =="
watch_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --policy polca --watch --obs-out "$watch_out"
for f in incidents.jsonl report.md metrics.prom trace.json; do
    [[ -f "$watch_out/$f" ]] || { echo "missing watch artifact: $f"; exit 1; }
done
grep -q '^# Watch report' "$watch_out/report.md"
grep -q '^# TYPE ' "$watch_out/metrics.prom"
# Every incident line must be a JSON object with the lifecycle fields.
if [[ -s "$watch_out/incidents.jsonl" ]]; then
    grep -vq '^{"id":' "$watch_out/incidents.jsonl" \
        && { echo "malformed incidents.jsonl line"; exit 1; }
    grep -q '"detection_lag_s"' "$watch_out/incidents.jsonl"
fi

echo "== polca-cli serve smoke test =="
serve_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --days 0.02 --obs-out "$serve_out/agg"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --split-pools --days 0.02 \
    --obs-out "$serve_out/split"
for d in agg split; do
    for f in events.jsonl metrics.prom prof.json; do
        [[ -f "$serve_out/$d/$f" ]] \
            || { echo "missing serve artifact: $d/$f"; exit 1; }
    done
    grep -q '^serve_kv_occupancy ' "$serve_out/$d/metrics.prom" \
        || { echo "no KV-occupancy gauge in $d/metrics.prom"; exit 1; }
    grep -q '"serve.iteration"' "$serve_out/$d/prof.json" \
        || { echo "no serve.iteration phase in $d/prof.json"; exit 1; }
done
grep -q 'serve_pool_power_w{tag="aggregated"}' "$serve_out/agg/metrics.prom" \
    || { echo "no aggregated pool power gauge"; exit 1; }
grep -q 'serve_pool_power_w{tag="prefill"}' "$serve_out/split/metrics.prom" \
    || { echo "no prefill pool power gauge"; exit 1; }
grep -q 'serve_pool_power_w{tag="decode"}' "$serve_out/split/metrics.prom" \
    || { echo "no decode pool power gauge"; exit 1; }

echo "== polca-cli req-trace smoke test =="
req_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --req-trace --days 0.02 --obs-out "$req_out"
[[ -s "$req_out/requests.jsonl" ]] \
    || { echo "req-trace wrote no requests.jsonl"; exit 1; }
# Every record must carry the lifecycle + energy schema fields.
for field in '"id"' '"priority"' '"queue_s"' '"ttft_s"' '"tbt_mean_s"' \
             '"tbt_max_s"' '"preemptions"' '"joules"' '"joules_per_token"' \
             '"co2e_g"' '"pue_applied"'; do
    grep -vq "$field" "$req_out/requests.jsonl" \
        && { echo "requests.jsonl line missing $field"; exit 1; }
done
# The per-priority TTFT histograms land in the Prometheus export.
grep -q '^# TYPE req_ttft_s summary' "$req_out/metrics.prom" \
    || { echo "no req_ttft_s histogram in metrics.prom"; exit 1; }
grep -q '^req_ttft_s{tag="' "$req_out/metrics.prom" \
    || { echo "req_ttft_s has no per-priority series"; exit 1; }
grep -q '^req_joules_per_token{tag="' "$req_out/metrics.prom" \
    || { echo "no joules-per-token histogram in metrics.prom"; exit 1; }

echo "== polca-cli energy smoke test =="
energy_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --carbon-diurnal --days 0.02 \
    --obs-out "$energy_out" > "$energy_out/summary.txt"
for f in energy.json energy.csv metrics.prom; do
    [[ -s "$energy_out/$f" ]] \
        || { echo "missing energy artifact: $f"; exit 1; }
done
grep -q '^energy_site_wh ' "$energy_out/metrics.prom" \
    || { echo "no energy_site_wh gauge in metrics.prom"; exit 1; }
grep -q '^carbon_site_g ' "$energy_out/metrics.prom" \
    || { echo "no carbon_site_g gauge in metrics.prom"; exit 1; }
grep -q 'gCO2e' "$energy_out/summary.txt" \
    || { echo "evaluate printed no energy ledger table"; exit 1; }
# The bundled grid trace drives the same run (sample-and-hold CSV
# ingestion), and the ledger lands with a non-trivial carbon account.
energy_trace_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --days 0.02 \
    --carbon-trace tests/golden/carbon_intensity_24h.csv \
    --obs-out "$energy_trace_out"
grep -q '^carbon_mean_g_per_kwh ' "$energy_trace_out/metrics.prom" \
    || { echo "carbon trace run emitted no mean intensity"; exit 1; }

echo "== bench-smoke (polca-cli profile vs committed BENCH_*.json) =="
# The committed BENCH_sim.json / BENCH_watch.json / BENCH_ingest.json /
# BENCH_serve.json / BENCH_fleet.json / BENCH_energy.json at the
# repository root are the perf-trajectory baseline, written by:
#
#   cargo run --release -p polca-cli -- profile --bench-out .
#
# The gate re-measures with the same command and fails when a
# throughput metric drops more than POLCA_BENCH_TOLERANCE_PCT below
# its committed value. The default tolerance is 20% — wide enough to
# absorb scheduler noise on a quiet machine (the profile command
# already takes best-of-N internally), tight enough to catch a real
# hot-path regression. Absolute numbers are machine-dependent:
# re-baseline with the command above when CI hardware changes, or
# raise the tolerance via the environment for shared/noisy runners.
bench_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    profile --reps 3 --bench-out "$bench_out" > "$bench_out/profile.txt"
grep -q '^accounted: ' "$bench_out/profile.txt" \
    || { echo "profile printed no attribution table"; exit 1; }
tol="${POLCA_BENCH_TOLERANCE_PCT:-20}"
bench_value() { # <file> <key> — extract one top-level metric
    awk -v key="$2" -F'[:,]' \
        '$0 ~ "\"" key "\":" { gsub(/[ ",]/, "", $2); print $2; exit }' "$1"
}
check_bench() { # <name> <throughput-key>
    local name="$1" key="$2" committed fresh
    [[ -f "BENCH_${name}.json" ]] \
        || { echo "missing committed baseline BENCH_${name}.json"; exit 1; }
    committed="$(bench_value "BENCH_${name}.json" "$key")"
    fresh="$(bench_value "$bench_out/BENCH_${name}.json" "$key")"
    [[ -n "$committed" && -n "$fresh" ]] \
        || { echo "bench-smoke: $key missing from BENCH_${name}.json"; exit 1; }
    if ! awk -v c="$committed" -v f="$fresh" -v t="$tol" \
        'BEGIN { exit !(f >= c * (1 - t / 100)) }'; then
        echo "bench-smoke: ${name}.${key} regressed >${tol}%:" \
             "fresh $fresh vs baseline $committed"
        exit 1
    fi
    echo "  ${name}.${key}: $fresh vs baseline $committed (tolerance ${tol}%)"
}
check_bench sim sim_s_per_s
check_bench watch watch_runs_per_s
check_bench ingest rows_per_s
check_bench serve serve_sim_s_per_s
check_bench fleet fleet_sim_s_per_s
check_bench energy energy_runs_per_s

echo "CI OK"
