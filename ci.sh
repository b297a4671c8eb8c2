#!/usr/bin/env bash
# Local CI gate (GitHub Actions is not available in the offline dev
# environment — run this before pushing). Mirrors the checks a hosted
# workflow would run, entirely offline:
#
#   ./ci.sh          # fmt + clippy + rustdoc + full workspace test suite
#   ./ci.sh quick    # fmt + clippy + rustdoc + unit tests only (skips the
#                    # multi-day end-to-end simulations)
#
# Every cargo build, test and run passes `--locked`, so a change to the
# dependency graph fails here instead of silently rewriting `Cargo.lock`
# or `benchmark/Cargo.lock`.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --locked --offline -- -D warnings

echo "== cargo doc -D warnings =="
# Catches what clippy and the tests do not: an intra-doc link left
# dangling by a rename or a deletion, or a public doc linking a private
# item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline

echo "== cargo test =="
if [[ "${1:-}" == "quick" ]]; then
    cargo test -q --locked --offline --workspace --lib --bins
else
    cargo test -q --locked --offline --workspace
fi

echo "== polca-benchmark tests =="
# The benchmark is a package of its own, outside the workspace: its
# tests (digest stability, traced == untraced digests, the
# conservation check) run against its own manifest.
cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml

echo "== bench-digest (polca-benchmark vs benchmark/expected.json) =="
# Every rep of every benchmark workload must reproduce the outcome
# digests pinned in benchmark/expected.json, at both pinned seeds, which
# cover the simulated outcome and the bytes of the pinned artifacts. The
# last stdout line of each run is its verdict.
for seed in 17 42; do
    for workload in row_6wk site_day serve_day replay_obs; do
        verdict="$(cargo run --release --locked --offline --quiet \
            --manifest-path benchmark/Cargo.toml --bin polca-benchmark -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)" || :
        [[ "$verdict" == *'"correct":true'* ]] \
            || { echo "bench-digest: $workload at seed $seed drifted from benchmark/expected.json: $verdict"; exit 1; }
        echo "  $workload, seed $seed: correct"
    done
done

echo "== polca-cli ingest smoke test =="
cargo run -q --locked --offline --release -p polca-cli -- \
    ingest tests/golden/sample_trace.csv

echo "== polca-cli fleet smoke test =="
# Every smoke-test scratch dir lives under one root that one EXIT trap
# removes. (`scratch` runs inside `$(...)`, a subshell, so it cannot
# record the dirs it makes in a variable of this shell.)
scratch_root="$(mktemp -d)"
trap 'rm -rf "$scratch_root"' EXIT
scratch() { mktemp -d "$scratch_root/XXXXXX"; }
fleet_out="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 4 --servers 10 --obs-out "$fleet_out"
for row in row0 row1 row2 row3; do
    [[ -f "$fleet_out/$row/events.jsonl" ]] \
        || { echo "missing fleet artifact: $row/events.jsonl"; exit 1; }
done
[[ -f "$fleet_out/metrics.json" ]] \
    || { echo "missing fleet-level metrics.json"; exit 1; }

echo "== polca-cli site smoke test =="
# Determinism gate for the parallel site simulator: a 3-datacenter
# site stepped on 2 worker threads must produce byte-identical
# events.jsonl and metrics.prom, at the site level and in every row,
# to the same site stepped sequentially. The hierarchy's gauges and
# brake and violation counters live only in metrics.prom.
same_site_artifacts() {  # SEQ_DIR PAR_DIR WHAT
    local f
    for f in events.jsonl metrics.prom row{0..5}/events.jsonl row{0..5}/metrics.prom; do
        cmp "$1/$f" "$2/$f" \
            || { echo "$3 $f differs across --fleet-threads"; exit 1; }
    done
}
site_seq="$(scratch)"
site_par="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --fleet-threads 1 --obs-out "$site_seq" > /dev/null
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --fleet-threads 2 --obs-out "$site_par" > /dev/null
same_site_artifacts "$site_seq" "$site_par" site
grep -q 'datacenter="2"' "$site_seq/metrics.prom" \
    || { echo "no per-datacenter series in site metrics.prom"; exit 1; }
# The same site under a 0.30 MW site budget, where site brakes fire:
# around every brake the site falls back to one-window epochs
# (lockstep), and the artifacts still must not depend on
# --fleet-threads.
brake_seq="$(scratch)"
brake_par="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --site-budget-mw 0.30 --fleet-threads 1 --obs-out "$brake_seq" > /dev/null
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --site-budget-mw 0.30 --fleet-threads 2 --obs-out "$brake_par" > /dev/null
same_site_artifacts "$brake_seq" "$brake_par" "braked site"
grep -q '"ev":"budget_violation","t":[^,]*,"scope":"site"' "$brake_seq/events.jsonl" \
    || { echo "no site budget violation under --site-budget-mw 0.30"; exit 1; }
# A synthesized site, whose rows are fed from the arrival generator as
# the run goes, under a 30 % oversubscribed site budget where site
# brakes fire: its artifacts must not depend on --fleet-threads either.
synth_seq="$(scratch)"
synth_par="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --rows 2 --datacenters 3 --days 0.05 --enforce-budgets \
    --oversub-site 30 --fleet-threads 1 --obs-out "$synth_seq" > /dev/null
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --rows 2 --datacenters 3 --days 0.05 --enforce-budgets \
    --oversub-site 30 --fleet-threads 2 --obs-out "$synth_par" > /dev/null
same_site_artifacts "$synth_seq" "$synth_par" "synthesized site"
grep -q '"ev":"budget_violation","t":[^,]*,"scope":"site"' "$synth_seq/events.jsonl" \
    || { echo "no site budget violation under --oversub-site 30"; exit 1; }
# The four-policy --trace-csv panel (the one run that reads --jobs)
# must print and write the same bytes at --jobs 1 and 2, its watch
# planes included.
panel_dirs=()
for jobs in 1 2; do
    dir="$(scratch)"
    panel_dirs+=("$dir")
    cargo run -q --locked --offline --release -p polca-cli -- \
        evaluate --trace-csv tests/golden/sample_trace.csv --servers 10 --watch \
        --jobs "$jobs" --obs-out "$dir/out" | sed "s#$dir#DIR#" > "$dir/stdout.txt"
done
for f in stdout.txt out/events.jsonl out/metrics.prom out/incidents.jsonl; do
    cmp "${panel_dirs[0]}/$f" "${panel_dirs[1]}/$f" \
        || { echo "panel $f differs across --jobs"; exit 1; }
done

echo "== polca-cli watch smoke test =="
watch_out="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
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

echo "== polca-cli carbon-rule smoke test =="
# Both built-in carbon rules judge the delayed feed of a synthesized row
# whose requests are traced (the per-token rule counts their output
# tokens); at seed 17 each opens at least one incident.
carbon_out="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --days 0.5 --watch --req-trace --carbon-diurnal \
    --carbon-budget 50000 --carbon-per-token 0.05 --obs-out "$carbon_out" > /dev/null
for rule in carbon-budget-burn co2e-per-token-high; do
    grep -q "\"rule\":\"$rule\"" "$carbon_out/incidents.jsonl" \
        || { echo "no $rule incident in the carbon smoke's incidents.jsonl"; exit 1; }
done

echo "== polca-cli serve smoke test =="
serve_out="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --engine batched --days 0.02 --obs-out "$serve_out/agg"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --engine batched --split-pools --days 0.02 \
    --obs-out "$serve_out/split"
for d in agg split; do
    for f in events.jsonl metrics.prom prof.json; do
        [[ -f "$serve_out/$d/$f" ]] \
            || { echo "missing serve artifact: $d/$f"; exit 1; }
    done
    grep -q '^serve_kv_occupancy ' "$serve_out/$d/metrics.prom" \
        || { echo "no KV-occupancy gauge in $d/metrics.prom"; exit 1; }
    # Batched wakes and transfers are timed as serve.iteration; only
    # legacy phase ends are timed as row.phase_end.
    grep -q '"serve.iteration"' "$serve_out/$d/prof.json" \
        || { echo "no serve.iteration phase in $d/prof.json"; exit 1; }
    grep -q '"row.phase_end"' "$serve_out/$d/prof.json" \
        && { echo "batched $d/prof.json lists row.phase_end"; exit 1; }
done
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --engine legacy --days 0.02 --obs-out "$serve_out/legacy" > /dev/null
grep -q '"row.phase_end"' "$serve_out/legacy/prof.json" \
    || { echo "no row.phase_end phase in legacy/prof.json"; exit 1; }
grep -q '"serve.iteration"' "$serve_out/legacy/prof.json" \
    && { echo "legacy prof.json lists serve.iteration"; exit 1; }
# Every push and pop of a row's event queue passes both of its probe
# hooks, so the profiler's queue.push and queue.pop calls equal the
# scheduled and popped counts: a queue that skips a hook fails here.
for d in agg split legacy; do
    for pair in "queue.push sim_events_scheduled_total" "queue.pop sim_events_popped_total"; do
        read -r phase series <<< "$pair"
        calls="$(awk -v k="polca_prof_phase_calls_total{phase=\"$phase\"}" \
            '$1 == k { print $2 }' "$serve_out/$d/metrics.prom")"
        count="$(awk -v k="$series" '$1 == k { print $2 }' "$serve_out/$d/metrics.prom")"
        [[ -n "$calls" && "$calls" == "$count" ]] \
            || { echo "$d: $phase ran ${calls:-0} times, $series is ${count:-absent}"; exit 1; }
    done
done
grep -q 'serve_pool_power_w{tag="aggregated"}' "$serve_out/agg/metrics.prom" \
    || { echo "no aggregated pool power gauge"; exit 1; }
grep -q 'serve_pool_power_w{tag="prefill"}' "$serve_out/split/metrics.prom" \
    || { echo "no prefill pool power gauge"; exit 1; }
grep -q 'serve_pool_power_w{tag="decode"}' "$serve_out/split/metrics.prom" \
    || { echo "no decode pool power gauge"; exit 1; }

echo "== polca-cli req-trace smoke test =="
# Every engine shape traces request spans (split pools are the one shape
# where an operation touches several servers and where spans record KV
# hops), and tracing is write-only: the same run without --req-trace
# logs the same events.
for engine in batched "batched --split-pools" legacy; do
    read -r -a engine_args <<< "--engine $engine"
    req_out="$(scratch)"
    cargo run -q --locked --offline --release -p polca-cli -- \
        evaluate "${engine_args[@]}" --req-trace --days 0.02 --obs-out "$req_out"
    [[ -s "$req_out/requests.jsonl" ]] \
        || { echo "$engine req-trace wrote no requests.jsonl"; exit 1; }
    untraced_out="$(scratch)"
    cargo run -q --locked --offline --release -p polca-cli -- \
        evaluate "${engine_args[@]}" --days 0.02 --obs-out "$untraced_out" > /dev/null
    cmp "$req_out/events.jsonl" "$untraced_out/events.jsonl" \
        || { echo "$engine events.jsonl differs without --req-trace"; exit 1; }
    # Every record must carry the lifecycle + energy schema fields.
    for field in '"id"' '"priority"' '"queue_s"' '"ttft_s"' '"tbt_mean_s"' \
                 '"tbt_max_s"' '"preemptions"' '"joules"' '"joules_per_token"' \
                 '"co2e_g"' '"pue_applied"' '"kv_hops"' '"kv_ship_s"'; do
        grep -vq "$field" "$req_out/requests.jsonl" \
            && { echo "$engine requests.jsonl line missing $field"; exit 1; }
    done
    # Only split pools ship KV between servers.
    if [[ "$engine" == *--split-pools ]]; then
        grep -q '"kv_hops":[1-9]' "$req_out/requests.jsonl" \
            || { echo "$engine requests.jsonl records no KV hop"; exit 1; }
    fi
    # The per-priority TTFT histograms land in the Prometheus export.
    grep -q '^# TYPE req_ttft_s summary' "$req_out/metrics.prom" \
        || { echo "no req_ttft_s histogram in $engine metrics.prom"; exit 1; }
    grep -q '^req_ttft_s{tag="' "$req_out/metrics.prom" \
        || { echo "$engine req_ttft_s has no per-priority series"; exit 1; }
    grep -q '^req_joules_per_token{tag="' "$req_out/metrics.prom" \
        || { echo "no joules-per-token histogram in $engine metrics.prom"; exit 1; }
done

echo "== polca-cli energy smoke test =="
# Both engines keep an energy ledger, each on its own path.
for engine in batched legacy; do
    energy_out="$(scratch)"
    cargo run -q --locked --offline --release -p polca-cli -- \
        evaluate --engine "$engine" --carbon-diurnal --days 0.02 \
        --obs-out "$energy_out" > "$energy_out/summary.txt"
    for f in energy.json energy.csv metrics.prom; do
        [[ -s "$energy_out/$f" ]] \
            || { echo "missing $engine energy artifact: $f"; exit 1; }
    done
    grep -q '^energy_site_wh ' "$energy_out/metrics.prom" \
        || { echo "no energy_site_wh gauge in $engine metrics.prom"; exit 1; }
    grep -q '^carbon_site_g ' "$energy_out/metrics.prom" \
        || { echo "no carbon_site_g gauge in $engine metrics.prom"; exit 1; }
    grep -q 'gCO2e' "$energy_out/summary.txt" \
        || { echo "$engine evaluate printed no energy ledger table"; exit 1; }
done
# The bundled grid trace drives the same run (sample-and-hold CSV
# ingestion), and the ledger lands with a non-trivial carbon account.
energy_trace_out="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    evaluate --engine batched --days 0.02 \
    --carbon-trace tests/golden/carbon_intensity_24h.csv \
    --obs-out "$energy_trace_out"
grep -q '^carbon_mean_g_per_kwh ' "$energy_trace_out/metrics.prom" \
    || { echo "carbon trace run emitted no mean intensity"; exit 1; }

echo "== polca-cli profile smoke test =="
# The self-profiler must still account for the quick-demo run: the
# attribution table ends in its `accounted:` line. Simulator speed is
# gated by polca-benchmark (see benchmark/README.md), not here.
profile_out="$(scratch)"
cargo run -q --locked --offline --release -p polca-cli -- \
    profile --reps 1 > "$profile_out/profile.txt"
grep -q '^accounted: ' "$profile_out/profile.txt" \
    || { echo "profile printed no attribution table"; exit 1; }

echo "== results/ vs polca-cli figures =="
# Every committed results/<id>.txt must be what `polca-cli figures <id>`
# prints at the defaults (seed 17, each figure's own horizon), so a
# change that moves a figure also re-pins its result file.
for file in results/*.txt; do
    id="$(basename "$file" .txt)"
    cargo run -q --locked --offline --release -p polca-cli -- figures "$id" | cmp - "$file" \
        || { echo "results/$id.txt differs from \`polca-cli figures $id\`"; exit 1; }
done

echo "CI OK"
