#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last stdout line is its JSON result
#   benchmark/run.sh [--seed <n>] [--smoke]
#       every workload, each in its own process: untraced for the
#       end-to-end metrics, then traced for the per-layer metrics
#
# Exits non-zero if the build fails or any output is incorrect.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/bows-benchmark"
export BENCH_RUSTC="$(rustc -V)"
export BENCH_GIT_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
status=0
for workload in dense_sync dense_alu sparse_latency serve_mix; do
    for trace in 0 1; do
        "$bin" --out "$here/out" --workload "$workload" --seconds "$seconds" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
