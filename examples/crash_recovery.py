"""Crash-safe recovery: deterministic fault injection + per-frame retry.

Long-running SLAM services hit transient failures: a stage throws, a
sensor read fails.  This example replays the 'desk' sequence under the
composite ``chaos`` fault plan — a seeded, deterministic schedule of
tracking/mapping/source failures — feeding every frame through
``SessionRunner.retry_frame``, exactly as ``SlamService.run`` does: a
frame that fails transiently is rolled back to just before it (in
memory, no disk checkpoint) and re-run after a bounded exponential
backoff.  It shows

  * the exact frames where each fault fires (pure function of the plan
    and the run length — identical on every machine),
  * the frames that were retried, and how often,
  * that the crashed-and-retried run is **bit-identical** to the
    uninterrupted run — the invariant ``tests/test_faults.py`` locks
    in for every registered plan x system cell.

The same plans drive the full recovery matrix:
``PYTHONPATH=src python -m pytest -m slow tests/test_faults.py``.

Run with:  python examples/crash_recovery.py
"""

from __future__ import annotations

import collections

import numpy as np

from repro.datasets import load_sequence
from repro.errors import RetryPolicy
from repro.eval.service import build_session
from repro.faults import FaultInjector, get_fault_plan
from repro.faults.injector import _DOMAIN_MAP, _DOMAIN_SOURCE, _DOMAIN_TRACK

SEQUENCE = "desk"
NUM_FRAMES = 8
PLAN = "chaos"


def _system(intrinsics):
    return build_session(
        "splatam", intrinsics, tracking_iterations=6, mapping_iterations=2
    )


def _identical(a, b) -> bool:
    for fa, fb in zip(a.frames, b.frames, strict=True):
        if not np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat):
            return False
        if not np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans):
            return False
        if fa.tracking_loss != fb.tracking_loss or fa.num_gaussians != fb.num_gaussians:
            return False
    return True


def main() -> None:
    plan = get_fault_plan(PLAN)
    injector = FaultInjector(plan)
    print(f"Fault plan '{PLAN}' (seed {plan.seed}) over {NUM_FRAMES} frames:")
    for label, spec, domain in (
        ("track error", plan.track_errors, _DOMAIN_TRACK),
        ("map error", plan.map_errors, _DOMAIN_MAP),
        ("source error", plan.source_errors, _DOMAIN_SOURCE),
    ):
        if spec is None:
            continue
        frames = sorted(injector.schedule(domain, NUM_FRAMES))
        print(f"  {label}: eligible frames {frames}, max fires {spec.max_fires}")

    sequence = load_sequence(SEQUENCE, num_frames=NUM_FRAMES)
    # The reference: one uninterrupted, fault-free run.
    clean = _system(sequence.intrinsics).run(sequence)

    # The same stream under the plan, fed the way SlamService.run feeds a
    # RunKey(..., faults=PLAN): every frame, source read included, goes
    # through retry_frame.  Rollback has already put the session back at
    # the failed frame when on_retry fires.
    system = _system(sequence.intrinsics)
    injector.arm(system, NUM_FRAMES)
    flaky = injector.wrap_source(sequence)
    retried: collections.Counter = collections.Counter()
    print(f"\nFeeding {NUM_FRAMES} frames with per-frame retry ...")
    system.begin(sequence.name)
    for index in range(NUM_FRAMES):
        system.retry_frame(
            lambda: system.feed(flaky[index], index),
            RetryPolicy(),
            on_retry=lambda: retried.update([system.next_frame_index]),
        )
    recovered = system.finalize()
    print(f"  faults fired: {injector.fired}")
    for frame, count in sorted(retried.items()):
        print(f"  frame {frame}: rolled back in memory and re-run {count}x")

    if not _identical(clean, recovered):
        raise SystemExit("MISMATCH: recovered run diverged from the clean run")
    print(
        f"\nBit-identical: all {NUM_FRAMES} poses, losses and map sizes of the "
        "crashed-and-retried run match the uninterrupted run exactly."
    )


if __name__ == "__main__":
    main()
