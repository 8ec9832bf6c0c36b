#!/usr/bin/env bash
# Perf gate: re-measure the motion-estimation/rasterizer hot paths, the
# rasterizer backward and the sparse rasterizer, and update
# BENCH_hotpaths.json / BENCH_backward.json / BENCH_sparse.json at the
# repo root.  All three benches run on the shared benchmarks/perf_gate.py
# harness.
#
# If a gated timing regressed by more than 20% against a committed
# BENCH_*.json, or a gated timing is missing from the new run, that bench
# leaves its previous file untouched.  Every bench runs even when an
# earlier one refused; the script then exits non-zero, naming the benches
# that refused — wire it into CI so perf regressions fail PRs.
#
# Usage: scripts/bench_speed.sh [--only <bench>] [extra bench args]
#   e.g. scripts/bench_speed.sh --max-regression 0.1
#        scripts/bench_speed.sh --repeats 9
#        scripts/bench_speed.sh --only sparse
#        scripts/bench_speed.sh --only sparse --repeats 9
#
# --only runs a single benchmark; <bench> is one of:
#   hotpaths backward sparse

set -euo pipefail
cd "$(dirname "$0")/.."

ONLY=""
if [[ "${1:-}" == "--only" ]]; then
    if [[ $# -lt 2 ]]; then
        echo "--only requires a benchmark name" >&2
        exit 2
    fi
    ONLY="$2"
    shift 2
    case "$ONLY" in
        hotpaths|backward|sparse) ;;
        *)
            echo "unknown benchmark: $ONLY" >&2
            echo "expected one of: hotpaths backward sparse" >&2
            exit 2
            ;;
    esac
fi

FAILED=()

run_bench() {
    local name="$1"
    shift
    if [[ -n "$ONLY" && "$ONLY" != "$name" ]]; then
        return 0
    fi
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python "$@" || FAILED+=("$name")
}

run_bench hotpaths benchmarks/bench_speed_hotpaths.py --gate "$@"
run_bench backward benchmarks/bench_speed_backward.py --gate "$@"
run_bench sparse benchmarks/bench_speed_sparse.py --gate "$@"

if [[ ${#FAILED[@]} -gt 0 ]]; then
    echo "bench_speed: refused: ${FAILED[*]}" >&2
    exit 1
fi
