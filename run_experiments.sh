#!/bin/bash
# Regenerate every table and figure. Results land in results/<name>.txt.
#
# Usage: ./run_experiments.sh [--scale tiny|small|full] [--jobs <n>]
#
# The binary list is derived from crates/experiments/src/bin/*.rs so it
# cannot drift from the actual regenerators. Exits non-zero on a
# malformed invocation, a build failure, or any failing experiment
# (failures are listed at the end; the remaining experiments still run).
set -euo pipefail
cd "$(dirname "$0")"

SCALE=small
JOBS=()
usage() {
    echo "usage: $0 [--scale tiny|small|full] [--jobs <n>]" >&2
    exit 2
}
while (($#)); do
    case "$1" in
        --scale)
            [[ $# -ge 2 ]] || { echo "error: --scale requires a value" >&2; usage; }
            case "$2" in
                tiny|small|full) SCALE=$2 ;;
                *) echo "error: unknown scale '$2'" >&2; usage ;;
            esac
            shift 2
            ;;
        --jobs)
            [[ $# -ge 2 && $2 =~ ^[0-9]+$ && $2 -ge 1 ]] \
                || { echo "error: --jobs requires a positive integer" >&2; usage; }
            JOBS=(--jobs "$2")
            shift 2
            ;;
        -h|--help) usage ;;
        *) echo "error: unknown argument '$1'" >&2; usage ;;
    esac
done

bins=()
for src in crates/experiments/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    # crash_drill and snap_fuzz are the CI crash-recovery/fuzz drills
    # (seeded, no --scale), and hotpath_bench is a wall-clock microbenchmark
    # (nondeterministic output that would churn results/); none of them
    # regenerate a figure.
    [[ $bin == crash_drill || $bin == snap_fuzz || $bin == hotpath_bench ]] && continue
    bins+=("$bin")
done
((${#bins[@]} >= 17)) || { echo "error: expected >=17 experiment binaries, found ${#bins[@]}" >&2; exit 1; }

cargo build --release -p experiments
mkdir -p results
failed=()
for bin in "${bins[@]}"; do
    echo "=== $bin ($(date +%H:%M:%S)) ==="
    start=$SECONDS
    if target/release/"$bin" --scale "$SCALE" "${JOBS[@]}" > results/"$bin".txt 2> results/"$bin".err; then
        echo "    ok in $((SECONDS-start))s"
    else
        echo "    $bin FAILED (see results/$bin.err)"
        failed+=("$bin")
    fi
done
if ((${#failed[@]})); then
    echo "FAILED: ${failed[*]}"
    exit 1
fi
echo "ALL DONE"
