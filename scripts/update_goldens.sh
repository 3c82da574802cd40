#!/usr/bin/env bash
# Regenerate the golden-figure snapshots in tests/golden/ from the
# current build. Run after an intentional model change, then review
# the diff before committing.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"

for fig in fig10_chip_specs fig13_inference_latency \
           fig14_inference_efficiency fig15_training_throughput \
           fig18_system_scaling serve_sweep resilience_sweep \
           cluster_sweep llm_sweep overload_sweep \
           ablation_design_choices int2_future_work fault_sweep; do
    bin="$build/bench/$fig"
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not built (cmake --build $build)" >&2
        exit 1
    fi
    "$bin" --threads 4 > "$repo/tests/golden/$fig.txt"
    echo "updated tests/golden/$fig.txt"
done
