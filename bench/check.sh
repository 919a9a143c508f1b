#!/usr/bin/env bash
# One script a CI job can call: builds the benchmark, runs its own tests,
# runs every workload (untraced and traced) on tiny inputs with the output
# check on, and checks BENCHMARK.json against the benchmark's tables.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=bench/Cargo.toml
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"

# BENCHMARK.json is the rendering of bench/src/spec.rs.
bench manifest | diff -u BENCHMARK.json -

out=$(bench run --all --quick)
runs=$(grep -c '^epg-perfbench workload=' <<<"$out")
good=$(grep -c '^{"correct": true, ' <<<"$out")
workloads=$(grep -c '"why":' BENCHMARK.json)
if [ "$runs" -ne $((2 * workloads)) ] || [ "$good" -ne "$runs" ]; then
    echo "check.sh: $good correct results from $runs runs; expected $((2 * workloads))" >&2
    exit 1
fi

# Every name a run printed is declared, and every declared name was printed.
printed=$(grep -oE '^(layer-)?metric [A-Za-z0-9_.-]+' <<<"$out" | awk '{print $2}' | sort -u)
declared=$(grep -oE '"name": "[A-Za-z0-9_.-]+", "unit"' BENCHMARK.json | cut -d'"' -f4 | sort -u)
if [ "$printed" != "$declared" ]; then
    echo "check.sh: printed metric names differ from BENCHMARK.json:" >&2
    diff <(echo "$declared") <(echo "$printed") >&2 || true
    exit 1
fi
echo "check.sh: ok ($runs runs, $(wc -l <<<"$declared") metric names)"
