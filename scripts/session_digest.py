"""Bit-identity digests of the streaming SLAM systems.

Feeds the desk sequence through every ``build_session`` system, clean and
under a scenario, and prints one SHA-256 per (system, scenario) for each
of: the ``FrameResult`` history, the workload traces, the final map and
the perf counters (plus the timer paths and call counts, which carry no
wall-clock time).  Run it on two checkouts; a refactor that must not
change behaviour leaves every line identical::

    PYTHONPATH=src python scripts/session_digest.py [--frames 12]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib

import numpy as np

from repro.datasets import load_sequence
from repro.datasets.scenarios import apply_scenario
from repro.eval.service import build_session
from repro.perf import PerfRecorder

SYSTEMS = ("splatam", "gaussian-slam", "ags", "droid-splatam", "orb", "droid")
SCENARIOS = ("clean", "stress")


def canonical(value):
    """A repr-stable, type-tagged rendering of results, traces and maps."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, hashlib.sha256(value.tobytes()).hexdigest())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (field.name, canonical(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    if hasattr(value, "quat") and hasattr(value, "trans"):
        return ("pose", canonical(value.quat), canonical(value.trans))
    if isinstance(value, dict):
        return tuple((key, canonical(value[key])) for key in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=12)
    args = parser.parse_args(argv)
    clean = load_sequence("desk", num_frames=args.frames)
    print("system scenario frames traces map counters timer_calls")
    for scenario in SCENARIOS:
        source = apply_scenario(clean, None if scenario == "clean" else scenario)
        for algorithm in SYSTEMS:
            perf = PerfRecorder()
            session = build_session(algorithm, clean.intrinsics, perf=perf)
            session.begin(f"desk-{scenario}")
            for index in range(args.frames):
                session.feed(source[index], index)
            result = session.finalize()
            model = result.final_model
            timer_calls = {path: stats["calls"] for path, stats in perf.timers.as_dict().items()}
            print(
                algorithm,
                scenario,
                digest(result.frames),
                digest(result.trace.frames if result.trace is not None else None),
                digest(None if model is None else {
                    name: getattr(model, name) for name in model.PARAM_NAMES
                }),
                digest(perf.counters.as_dict()),
                digest(timer_calls),
                f"fb={result.total_fallbacks}",
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
