#!/usr/bin/env bash
# CI entry point: repo hygiene, the tier-1 test suite and the perf gate
# of the three timing benches (hot paths, backward, sparse rasterizer).
#
#   scripts/ci.sh          # hygiene + tier-1 tests + scripts/bench_speed.sh
#   scripts/ci.sh --slow   # additionally run the weekly `pytest -m slow`
#                          # lane (long randomized equivalence sweeps)
#
# The perf gate fails (exit != 0) on a >20% regression of any gated
# timing, or on a gated timing the bench no longer produces, and keeps
# the previous BENCH_*.json files; on success it refreshes them and
# prints the gated-timings comparison table.
#
# Fault recovery, the robustness grid, serving under parking churn and
# overload storms are checked by the tier-1 suite, e.g.
#   tests/test_faults.py::test_chaos_recovery_is_bit_identical
#   tests/test_robustness.py::test_robustness_smoke_grid_fires_the_ladder
#   tests/test_serve.py::test_async_streams_under_parking_churn_are_bit_identical
#   tests/test_overload.py::test_storm_over_capacity_never_loses_admitted_frames

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_SLOW=0
for arg in "$@"; do
    case "$arg" in
        --slow) RUN_SLOW=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "== repo hygiene =="
TRACKED_BYTECODE=$(git ls-files | grep -E '(^|/)__pycache__/|\.pyc$' || true)
if [[ -n "$TRACKED_BYTECODE" ]]; then
    echo "ERROR: compiled python artifacts are tracked in the index:" >&2
    echo "$TRACKED_BYTECODE" | head -20 >&2
    echo "(git rm -r --cached them; .gitignore should keep them out)" >&2
    exit 1
fi
echo "no tracked __pycache__/*.pyc files"

# BENCH_*.json perf-trajectory files must only be written through
# repro.ioutil.atomic_write_text (tmp file + rename): a benchmark killed
# mid-write must never leave a torn baseline behind for the perf gate to
# diff against.  Flag any direct open(..., "w")-style writer that names a
# BENCH path.  write_text() on a BENCH path is equally torn, so it is
# flagged too; atomic_write_text's own internals live in ioutil and do
# not name BENCH files.
NON_ATOMIC=$(grep -rnE 'open\([^)]*BENCH[^)]*,\s*["'"'"']w|\.write_text\(' \
    --include='*.py' benchmarks src scripts \
    | grep 'BENCH' || true)
if [[ -n "$NON_ATOMIC" ]]; then
    echo "ERROR: BENCH_*.json written without atomic_write_text:" >&2
    echo "$NON_ATOMIC" | head -20 >&2
    echo "(use repro.ioutil.atomic_write_text for perf-trajectory files)" >&2
    exit 1
fi
echo "no non-atomic BENCH_*.json writers"

echo "== tier-1 test suite =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

if [[ "$RUN_SLOW" == "1" ]]; then
    echo "== slow lane (randomized equivalence sweeps, full robustness and fault matrices, serving storms) =="
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -m slow
fi

echo "== perf gate =="
scripts/bench_speed.sh
