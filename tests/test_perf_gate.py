"""The timing benches' shared gate (``benchmarks/perf_gate.py``).

A gated timing fails the gate when it regressed past the bound or when
the new run no longer produces it; a key the previous file lacks is new
and passes.  A failed gate exits 1 and leaves the previous file as it
was.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import perf_gate  # noqa: E402

GATED = ["case.a", "case.b"]
PREVIOUS = {"timings_seconds": {"case.a": 1.0, "case.b": 2.0}}


def test_check_gate_names_a_gated_key_missing_from_the_new_run():
    current = {"timings_seconds": {"case.a": 1.0}}
    assert perf_gate.check_gate(PREVIOUS, current, 0.20, GATED) == [
        "case.b: gated timing missing from this run"
    ]
    assert "missing" in perf_gate.gate_table(PREVIOUS, current, GATED).splitlines()[-1]


@pytest.mark.parametrize(
    "timings, exit_code",
    [
        ({"case.a": 1.19, "case.b": 1.5, "case.c": 3.0}, 0),  # within 20 %; case.c new
        ({"case.a": 1.5, "case.b": 2.0, "case.c": 3.0}, 1),  # inflated gated timing
        ({"case.a": 1.0, "case.c": 3.0}, 1),  # gated key dropped
    ],
)
def test_main_writes_only_when_the_gate_passes(tmp_path, timings, exit_code):
    output = tmp_path / "BENCH_stub.json"
    output.write_text(json.dumps(PREVIOUS))
    before = output.read_bytes()

    def measure(repeats):
        return {
            "config": {"cases": sorted(timings)},
            "timings_seconds": dict(timings),
            "speedups": {"case.a": 2.0},
            "targets_met": {"case.a >= 1x": True},
        }

    argv = ["--gate", "--output", str(output), "--repeats", "1"]
    assert perf_gate.main("stub", measure, GATED + ["case.c"], argv=argv) == exit_code
    if exit_code:
        assert output.read_bytes() == before
        return
    written = json.loads(output.read_text())
    assert list(written) == [
        "benchmark", "generated", "config", "timings_seconds", "speedups", "targets_met",
    ]
    assert written["benchmark"] == "stub"
    assert set(written["config"]) == {"cases", "repeats", "cpu_count"}
    assert written["timings_seconds"] == timings
