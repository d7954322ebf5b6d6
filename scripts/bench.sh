#!/usr/bin/env bash
# Runs the data-path perf benches, the operator-space sweep, the streaming
# data-path scaling bench, and the serve-path load generator, and collects
# their machine-readable results (BENCH_micro.json, BENCH_figure4.json,
# BENCH_opspace.json, BENCH_stream.json, BENCH_serve.json) in the repo root.
#
# bench_figure4_training_time runs every (domain, method) cell twice — once
# with the encoding cache on ('[pipeline]'), once with it off ('[serial]') —
# so the steps/sec ratio in its summary table is the cache's speedup. Losses
# are bit-identical between the two configurations.
#
# Usage:
#   scripts/bench.sh            # full budgets (slow)
#   ROTOM_SMOKE=1 scripts/bench.sh   # tiny smoke budgets
#
# Environment:
#   ROTOM_NUM_THREADS  compute pool size (default 4)
#   ROTOM_SEEDS        repeats per cell (default 1)

set -euo pipefail
cd "$(dirname "$0")/.."

build="${BUILD_DIR:-build-bench}"

# Only pick a generator for a fresh tree; an existing cache keeps its own.
generator=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi

cmake -B "$build" -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j \
  --target bench_micro_substrate bench_figure4_training_time bench_opspace \
           bench_stream rotom_serve_bench

export ROTOM_BENCH_DIR="$PWD"
export ROTOM_NUM_THREADS="${ROTOM_NUM_THREADS:-4}"

echo "== bench_micro_substrate (ROTOM_NUM_THREADS=$ROTOM_NUM_THREADS) =="
"$build/bench/bench_micro_substrate"

echo "== bench_figure4_training_time (ROTOM_NUM_THREADS=$ROTOM_NUM_THREADS) =="
"$build/bench/bench_figure4_training_time"

echo "== bench_opspace (ROTOM_NUM_THREADS=$ROTOM_NUM_THREADS) =="
"$build/bench/bench_opspace"

echo "== bench_stream (ROTOM_NUM_THREADS=$ROTOM_NUM_THREADS) =="
"$build/bench/bench_stream"

echo "== rotom_serve_bench (ROTOM_NUM_THREADS=$ROTOM_NUM_THREADS) =="
"$build/tools/rotom_serve_bench"

echo "bench.sh: wrote BENCH_micro.json, BENCH_figure4.json," \
     "BENCH_opspace.json, BENCH_stream.json, BENCH_serve.json"
