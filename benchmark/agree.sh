#!/usr/bin/env bash
# Two sets of runs of this tree, compared: every workload is run untraced
# 2 x RUNS times, the sets taking turns (a b a b ...) so both see the same
# weather, and per workload x end-to-end metric the two sets' medians are
# printed with how far apart they are and the bound BENCHMARK.json allows.
# Exits non-zero when a pair is further apart than its bound
# (simulated-time metrics must be equal).
#
#   benchmark/agree.sh [--runs <n>] [run.sh arguments: --seed <n>, --smoke]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=3
if [ "${1:-}" = "--runs" ]; then
    runs="$2"
    shift 2
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
rm -rf "$here/out/agree-a" "$here/out/agree-b"
mkdir -p "$here/out/agree-a" "$here/out/agree-b"
for workload in dense_sync dense_alu sparse_latency serve_mix; do
    for i in $(seq "$runs"); do
        for set in a b; do
            "$here/run.sh" --workload "$workload" --seconds "$seconds" --trace 0 "$@" >/dev/null
            cp "$here/out/result-$workload.json" "$here/out/agree-$set/result-$workload.$i.json"
        done
    done
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/bows-benchmark" compare \
    "$here/out/agree-a" "$here/out/agree-b" "$here/../BENCHMARK.json"
