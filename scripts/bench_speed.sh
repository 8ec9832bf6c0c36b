#!/usr/bin/env bash
# Hot-path perf gate: re-measure the motion-estimation, rasterizer,
# rasterizer-backward and sparse-rasterizer benchmarks and update
# BENCH_hotpaths.json / BENCH_backward.json / BENCH_sparse.json (plus the
# correctness-gated BENCH_robustness.json / BENCH_faults.json /
# BENCH_serve.json / BENCH_overload.json) at the repo root.
#
# If a gated hot-path timing regressed by more than 20% against a
# committed BENCH_*.json, the script exits non-zero and leaves that
# previous file untouched — wire it into CI so perf regressions fail PRs.
#
# Usage: scripts/bench_speed.sh [--only <bench>] [extra bench args]
#   e.g. scripts/bench_speed.sh --max-regression 0.1
#        scripts/bench_speed.sh --repeats 9
#        scripts/bench_speed.sh --only sparse
#        scripts/bench_speed.sh --only sparse --repeats 9
#
# --only runs a single benchmark; <bench> is one of:
#   hotpaths backward sparse robustness faults serve overload

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
        hotpaths|backward|sparse|robustness|faults|serve|overload) ;;
        *)
            echo "unknown benchmark: $ONLY" >&2
            echo "expected one of: hotpaths backward sparse robustness faults serve overload" >&2
            exit 2
            ;;
    esac
fi

run_bench() {
    local name="$1"
    shift
    if [[ -n "$ONLY" && "$ONLY" != "$name" ]]; then
        return 0
    fi
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python "$@"
}

run_bench hotpaths benchmarks/bench_speed_hotpaths.py --gate "$@"
run_bench backward benchmarks/bench_speed_backward.py --gate "$@"
run_bench sparse benchmarks/bench_speed_sparse.py --gate "$@"
# Robustness grid: correctness-gated (clean-stream bit-identity and the
# fallback-ablation wins), not timing-gated, so it takes no extra args.
run_bench robustness benchmarks/bench_robustness.py --gate
# Fault-recovery grid: correctness-gated (crash-at-fault + recovery is
# bit-identical to the uninterrupted run, per plan x system).
run_bench faults benchmarks/bench_faults.py --gate
# Serving tier: correctness-gated (async streams over a tiny parking
# budget are bit-identical to a synchronous feed loop); throughput and
# ingest latency are recorded, not gated.
run_bench serve benchmarks/bench_serve.py --gate
# Overload tier: correctness-gated (4x over-capacity chaos storm loses
# no admitted frame, disarmed server matches the PR 9 path bit-exactly,
# graceful drain parks and resumes bit-exactly); admitted-POST p95 is
# bounded, not trend-gated.
run_bench overload benchmarks/bench_overload.py --gate
