"""Fault-injection benchmark: crash-recovery bit-identity, gated.

Runs the registered fault plans against every SLAM system through
``SlamService.run`` — every frame fed through
``SessionRunner.retry_frame``, which rolls a failed frame back and
retries it — and records the outcome into the ``BENCH_faults.json``
perf-trajectory file at the repo root.

Three hard invariants are verified before anything is written:

* **Disarmed neutrality** — ``SlamService.run`` with no fault plan
  produces results bit-identical to a direct ``system.run(sequence)``,
  for every system.
* **Recovery bit-identity** — a run whose faulted frames are rolled
  back and retried is bit-identical to the uninterrupted run, for every
  transient plan x system cell, converging within the default per-frame
  retry budget.  A cell that never converges records a miss.
* **Failure semantics** — the fatal ``worker-crash`` plan propagates
  without a single retry.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py            # write
    PYTHONPATH=src python benchmarks/bench_faults.py --gate     # guard
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke    # CI smoke

``--gate`` refuses to overwrite an existing ``BENCH_faults.json`` when a
previously met target is now missed.  ``--smoke`` runs one plan on two
systems (recovery bit-identity only) and writes nothing — the tier-1 CI
lane.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets import load_sequence  # noqa: E402
from repro.errors import InjectedCrashError, ReproError, RetryPolicy  # noqa: E402
from repro.eval.service import RunKey, SlamService, build_session  # noqa: E402
from repro.faults import available_fault_plans  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402
from repro.perf import PerfRecorder  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_faults.json"

SEQUENCE = "desk"
NUM_FRAMES = 8
TRACKING_ITERATIONS = 6
MAPPING_ITERATIONS = 2

SYSTEMS = ("splatam", "gaussian-slam", "orb", "droid", "ags")
SMOKE_PLAN = "chaos"
SMOKE_SYSTEMS = ("splatam", "orb")


def _key(algorithm: str, **overrides) -> RunKey:
    params = dict(
        algorithm=algorithm,
        sequence=SEQUENCE,
        num_frames=NUM_FRAMES,
        tracking_iterations=TRACKING_ITERATIONS,
        mapping_iterations=MAPPING_ITERATIONS,
    )
    params.update(overrides)
    return RunKey(**params)


def _results_identical(a, b) -> bool:
    if len(a.frames) != len(b.frames):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if not np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat):
            return False
        if not np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans):
            return False
        if (
            fa.tracking_loss != fb.tracking_loss
            or fa.mapping_loss != fb.mapping_loss
            or fa.is_keyframe != fb.is_keyframe
            or fa.num_gaussians != fb.num_gaussians
        ):
            return False
    return True


def _clean_reference(algorithm: str):
    """The uninterrupted direct ``system.run`` every cell is compared to."""
    sequence = load_sequence(SEQUENCE, num_frames=NUM_FRAMES)
    system = build_session(
        algorithm,
        sequence.intrinsics,
        tracking_iterations=TRACKING_ITERATIONS,
        mapping_iterations=MAPPING_ITERATIONS,
    )
    return system.run(sequence, num_frames=NUM_FRAMES)


def _recovery_cell(algorithm: str, plan: str | None, clean) -> dict:
    """One (plan, system) cell: run through the service, compare.

    A run that fails anyway (an exhausted retry budget raises
    ``FatalError``) records the error instead of crashing the bench.
    """
    service = SlamService(perf=PerfRecorder())
    start = time.perf_counter()
    try:
        result = service.run(_key(algorithm, faults=plan))
    except ReproError as exc:
        return {"identical": False, "retries": service.retries, "error": repr(exc)}
    return {
        "identical": _results_identical(clean, result),
        "retries": service.retries,
        "elapsed_seconds": round(time.perf_counter() - start, 3),
    }


def build_results() -> dict:
    start = time.perf_counter()
    transient_plans = tuple(
        name for name in available_fault_plans() if name != "worker-crash"
    )
    clean = {algorithm: _clean_reference(algorithm) for algorithm in SYSTEMS}

    targets: dict[str, bool] = {}
    disarmed: dict[str, dict] = {}
    matrix: dict[str, dict[str, dict]] = {}

    # Disarmed neutrality: the per-frame retry loop without a plan
    # changes nothing.
    for algorithm in SYSTEMS:
        cell = _recovery_cell(algorithm, None, clean[algorithm])
        disarmed[algorithm] = cell
        targets[f"disarmed recovery driver bit-identical ({algorithm})"] = bool(
            cell["identical"] and cell["retries"] == 0
        )

    # Recovery bit-identity per transient plan x system.  A cell that
    # exhausts the per-frame budget fails with FatalError, so a cell
    # that converged stayed within it.
    budget = RetryPolicy().max_retries
    for plan in transient_plans:
        matrix[plan] = {}
        for algorithm in SYSTEMS:
            cell = _recovery_cell(algorithm, plan, clean[algorithm])
            matrix[plan][algorithm] = cell
            targets[f"recovery bit-identical ({plan}/{algorithm})"] = cell["identical"]
        targets[f"bounded-retry convergence ({plan})"] = all(
            targets[f"recovery bit-identical ({plan}/{algorithm})"]
            for algorithm in SYSTEMS
        )

    # Fatal plans must propagate unretried.
    fatal_service = SlamService(perf=PerfRecorder())
    try:
        fatal_service.run(_key("splatam", faults="worker-crash"))
        fatal_ok = False
    except InjectedCrashError:
        fatal_ok = fatal_service.retries == 0
    except ReproError:
        fatal_ok = False
    targets["fatal worker-crash propagates without retries"] = fatal_ok

    return {
        "benchmark": "faults",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "sequence": SEQUENCE,
            "num_frames": NUM_FRAMES,
            "tracking_iterations": TRACKING_ITERATIONS,
            "mapping_iterations": MAPPING_ITERATIONS,
            "retry_budget": budget,
            "plans": list(available_fault_plans()),
            "systems": list(SYSTEMS),
        },
        "elapsed_seconds": round(time.perf_counter() - start, 2),
        "disarmed": disarmed,
        "matrix": matrix,
        "targets_met": targets,
    }


def run_smoke() -> int:
    """1 plan x 2 systems recovery bit-identity — the tier-1 CI lane."""
    failures = []
    for algorithm in SMOKE_SYSTEMS:
        clean = _clean_reference(algorithm)
        cell = _recovery_cell(algorithm, SMOKE_PLAN, clean)
        status = "ok" if cell["identical"] else f"MISMATCH {cell.get('error', '')}"
        print(
            f"fault smoke {SMOKE_PLAN}/{algorithm}: {status} "
            f"(retries={cell['retries']}, {cell.get('elapsed_seconds', '-')}s)"
        )
        if not cell["identical"] or cell["retries"] == 0:
            failures.append(algorithm)
    if failures:
        print(f"fault smoke FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("fault smoke passed: retried runs are bit-identical to the clean run")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (and keep the old file) when a previously met target is missed",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the 1-plan x 2-system recovery smoke and write nothing",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    results = build_results()
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")

    missed = [target for target, met in results["targets_met"].items() if not met]
    if missed:
        print(
            "\nFAULT-RECOVERY INVARIANT VIOLATED — refusing to write results",
            file=sys.stderr,
        )
        for target in missed:
            print(f"  missed: {target}", file=sys.stderr)
        return 1

    if args.gate and args.output.exists():
        previous = json.loads(args.output.read_text())
        regressions = [
            target
            for target, met in previous.get("targets_met", {}).items()
            if met and not results["targets_met"].get(target, False)
        ]
        if regressions:
            print(
                "\nFAULT GATE FAILED — keeping previous BENCH_faults.json:",
                file=sys.stderr,
            )
            for target in regressions:
                print(f"  previously met, now missed: {target}", file=sys.stderr)
            return 1
        print("fault gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
