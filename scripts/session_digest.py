"""Bit-identity digests of the streaming SLAM systems.

Feeds the desk sequence through every ``build_session`` system, clean and
under a scenario, plus Gaussian-SLAM with a tight sub-map threshold, and
prints one SHA-256 per (system, scenario) for each of: the ``FrameResult``
history, the workload traces, the final map and the perf counters (plus the timer paths and call counts, which carry no
wall-clock time).  A refactor that must not change behaviour leaves
every line identical::

    PYTHONPATH=src python scripts/session_digest.py [--frames 12]

``--against REV`` exports the git revision ``REV`` with ``git archive``
into a temporary directory, runs this same script over its ``src/`` as
well as over the working tree, prints only the lines that differ (``-``
for ``REV``, ``+`` for the working tree) and exits 1 if any does::

    PYTHONPATH=src python scripts/session_digest.py --against HEAD~

The digests hash floats bit for bit, so they are tied to the host's
NumPy and BLAS: compare two trees on one machine, never against hashes
recorded elsewhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

from repro.datasets import load_sequence
from repro.datasets.scenarios import apply_scenario
from repro.eval.service import build_session
from repro.perf import PerfRecorder
from repro.slam import GaussianSlam, GaussianSlamConfig, SplaTam

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


HEADER = "system scenario frames traces map counters timer_calls"


def digest_line(name: str, scenario: str, session, source, perf, num_frames: int) -> str:
    """Feed ``num_frames`` of ``source`` through ``session`` and digest the run."""
    session.begin(f"desk-{scenario}")
    for index in range(num_frames):
        session.feed(source[index], index)
    result = session.finalize()
    model = result.final_model
    timer_calls = {path: stats["calls"] for path, stats in perf.timers.as_dict().items()}
    return " ".join((
        name,
        scenario,
        digest(result.frames),
        digest(result.trace.frames if result.trace is not None else None),
        digest(None if model is None else {
            name: getattr(model, name) for name in model.PARAM_NAMES
        }),
        digest(perf.counters.as_dict()),
        digest(timer_calls),
        f"fb={result.total_fallbacks}",
    ))


def digest_lines(num_frames: int):
    """One line per (system, scenario) of the digest table, then the sub-map row."""
    clean = load_sequence("desk", num_frames=num_frames)
    for scenario in SCENARIOS:
        source = apply_scenario(clean, None if scenario == "clean" else scenario)
        for algorithm in SYSTEMS:
            perf = PerfRecorder()
            session = build_session(algorithm, clean.intrinsics, perf=perf)
            if isinstance(session, SplaTam):
                # Traces are off by default; the trace and counter columns
                # digest the traced run, as the figure path runs it.
                session.collect_trace = True
            yield digest_line(algorithm, scenario, session, source, perf, num_frames)
    # At the default thresholds Gaussian-SLAM opens one sub-map in 12 desk
    # frames; a tight translation threshold opens five, so sub-map opening
    # and the multi-sub-map final map are digested too.
    perf = PerfRecorder()
    session = GaussianSlam(
        clean.intrinsics,
        GaussianSlamConfig(
            tracking_iterations=20, mapping_iterations=5, submap_translation_threshold=0.1,
            collect_trace=True,
        ),
        perf=perf,
    )
    yield digest_line("gaussian-slam-submaps", "clean", session, clean, perf, num_frames)


def start_at_revision(revision: str, num_frames: int, directory: str) -> subprocess.Popen:
    """Export ``revision`` into ``directory`` with ``git archive`` and start
    this script over its ``src/`` (the digest table arrives on stdout)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", revision],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--frames", str(num_frames)],
        stdout=subprocess.PIPE, text=True, cwd=directory,
        env={**os.environ, "PYTHONPATH": os.path.join(directory, "src")},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument(
        "--against", metavar="REV",
        help="print only the lines that differ from git revision REV; exit 1 if any does",
    )
    args = parser.parse_args(argv)
    if args.against is None:
        print(HEADER)
        for line in digest_lines(args.frames):
            print(line, flush=True)
        return 0
    with tempfile.TemporaryDirectory(prefix="session-digest-") as directory:
        # The revision's table is computed alongside the working tree's.
        process = start_at_revision(args.against, args.frames, directory)
        ours = [HEADER, *digest_lines(args.frames)]
        output, _ = process.communicate()
    if process.returncode:
        raise SystemExit(f"the digest of {args.against} failed")
    theirs = output.splitlines()
    differing = [(a, b) for a, b in itertools.zip_longest(theirs, ours) if a != b]
    for a, b in differing:
        print(f"- {a}\n+ {b}")
    print(
        f"{len(differing)} of {len(ours)} lines differ from {args.against}", file=sys.stderr
    )
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
