#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, regenerate
# every paper figure, and run the examples, archiving the outputs at
# the repository root (test_output.txt / bench_output.txt /
# examples_output.txt / BENCH_<report>.json). Every bench driver
# appends its records to the one report log named by
# RAPID_REPORT_JSON, and scripts/assemble.py turns that log into
# BENCH_{sweeps,serve,resilience,cluster,llm,overload}.json. Fails
# fast: the first failing step aborts the run with that step named.
# See EXPERIMENTS.md for the paper-vs-measured comparison of what
# these outputs should contain.
#
# Environment knobs:
#   RAPID_THREADS  sweep thread count for the figure runs
#                  (default: hardware concurrency)
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
    echo "reproduce.sh: FAILED during $1" >&2
    exit 1
}

cmake -B build -G Ninja || fail "configure"
cmake --build build || fail "build"

ctest --test-dir build 2>&1 | tee test_output.txt || fail "ctest"

# Figure sweeps: every driver appends its wall-clock record, and the
# serving, resilience, fleet, transformer and overload drivers their
# results, to the report log. The sink exits nonzero when it cannot
# append, so a driver that exits 0 has recorded everything.
export RAPID_REPORT_JSON="$PWD/build/report_raw.jsonl"
rm -f "$RAPID_REPORT_JSON"
(for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "===== $b"
    "$b" || exit 1
    echo
 done) 2>&1 | tee bench_output.txt || fail "bench figures"

# Single-thread baselines for the heavier sweeps so the timing report
# can show the parallel speedup, plus an 8-thread serve_sweep point
# for the DES engine's scaling record.
HEAVY_SWEEPS="fig13_inference_latency fig14_inference_efficiency \
fig15_training_throughput fault_sweep serve_sweep resilience_sweep \
cluster_sweep llm_sweep overload_sweep"
for fig in $HEAVY_SWEEPS; do
    build/bench/"$fig" --threads 1 > /dev/null || fail "$fig baseline"
done
build/bench/serve_sweep --threads 8 > /dev/null \
    || fail "serve_sweep 8-thread point"

# One report per schema in scripts/assemble.py; each hard-fails on a
# missing report or section, an open ledger, or a failed headline.
python3 scripts/assemble.py "$RAPID_REPORT_JSON" || fail "bench reports"

(for e in build/examples/*; do
    [ -x "$e" ] && [ -f "$e" ] || continue
    echo "===== $e"
    "$e" || exit 1
    echo
 done) 2>&1 | tee examples_output.txt || fail "examples"
