"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper via the
experiment functions in :mod:`repro.eval.experiments` and reports the
resulting rows/series with ``print`` (captured by ``pytest -s`` or the
benchmark's ``extra_info``).  The sizes below keep a full
``pytest benchmarks/ --benchmark-only`` run at a few minutes; larger
values produce smoother curves.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.abspath(_SRC) not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

import pytest

from repro.eval.runner import EvalSettings


# Benchmark-sized evaluation settings: two contrasting TUM-like sequences
# (high-covisibility desk orbit, low-covisibility house walk) and short
# runs.  workers=2 routes the experiments' run prefetches through the
# SlamService worker pool, so the independent (algorithm, sequence) runs
# of each figure execute concurrently (results are bit-identical to
# sequential execution — frame rendering is order-deterministic).
BENCH_SETTINGS = EvalSettings(
    num_frames=6,
    sequences=("desk", "house"),
    workers=2,
)

# Sequence set used for the figures that sweep all nine sequences in the
# paper; kept to three here for runtime.
BENCH_ALL_SEQUENCES = ("desk", "house", "room0")


@pytest.fixture(scope="session")
def settings():
    """Benchmark-sized evaluation settings."""
    return BENCH_SETTINGS


def attach(benchmark, data: dict) -> None:
    """Attach experiment output to the benchmark record (and echo it)."""
    benchmark.extra_info.update({"result": repr(data)})
