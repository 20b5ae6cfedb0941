#!/bin/bash
# Regenerate every table and figure, then run four checking gates.
# Results land in results/<name>.txt.
#
# Usage: ./run_experiments.sh [--scale tiny|small|full] [--jobs <n>]
#
# One `paper --out results` process renders every figure and table (the
# figures that read the same runs share them; `paper <name>` renders one);
# one `check --out results` process then runs the `oracle`, `race_oracle`,
# `differ` and `fuzz` gates. Exits non-zero on a malformed invocation, a
# build failure, or a failing step (failures are listed at the end; the
# second step runs either way).
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

cargo build --release -p experiments
mkdir -p results
failed=()
# step BIN ARGS...: one binary writing results/<name>.txt itself; its
# stderr (each entry's time, and each gate's verdict) goes to
# results/BIN.err.
step() {
    local bin=$1 start=$SECONDS
    shift
    echo "=== $bin ($(date +%H:%M:%S)) ==="
    if target/release/"$bin" --scale "$SCALE" "${JOBS[@]}" --out results "$@" \
        2> results/"$bin".err; then
        echo "    ok in $((SECONDS-start))s"
    else
        echo "    $bin FAILED (see results/$bin.err)"
        failed+=("$bin")
    fi
}
step paper
step check oracle race_oracle differ fuzz
if ((${#failed[@]})); then
    echo "FAILED: ${failed[*]}"
    exit 1
fi
echo "ALL DONE"
