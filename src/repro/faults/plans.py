"""The fault-plan registry: named, seeded failure scenarios.

The process-layer mirror of :data:`repro.datasets.scenarios.SCENARIOS`:
each entry is a frozen :class:`~repro.faults.injector.FaultPlan` whose
schedule is a pure function of (plan, run length), so the recovery
matrix (``tests/test_faults.py``, full plan x system grid under
``-m slow``) runs the same failure at the same frame on every machine.

Budgeting convention: every *transient* plan keeps
``plan.max_total_fires <= 3`` — the default per-frame
:class:`~repro.errors.RetryPolicy` budget — so bounded-retry recovery
provably converges for every registered plan, even when all of a plan's
fires land on one frame.  ``worker-crash``
is the deliberate exception: its fault is *fatal*
(:class:`~repro.errors.InjectedCrashError`), asserting that the service
refuses to retry what declares itself unretryable.
"""

from __future__ import annotations

from repro.datasets.scenarios import Window
from repro.faults.injector import FaultPlan, StageFaults

__all__ = [
    "FAULT_PLANS",
    "available_fault_plans",
    "get_fault_plan",
]

FAULT_PLANS: dict[str, FaultPlan] = {
    # One-shot transient crash in each stage, early-to-mid stream: the
    # basic "did recovery resume from the right frame" probes.
    "track-crash": FaultPlan(
        name="track-crash",
        seed=21,
        track_errors=StageFaults(probability=0.25, window=Window(0.2, 0.9), max_fires=2),
    ),
    "map-crash": FaultPlan(
        name="map-crash",
        seed=22,
        map_errors=StageFaults(probability=0.25, window=Window(0.2, 0.9), max_fires=2),
    ),
    # Flaky sensor reads: the frame source itself raises mid-stream.
    "source-flaky": FaultPlan(
        name="source-flaky",
        seed=23,
        source_errors=StageFaults(probability=0.3, window=Window(0.1, 1.0), max_fires=2),
    ),
    # A fatal mid-run crash: must propagate without retries and must not
    # poison sibling keys in run_many.
    "worker-crash": FaultPlan(
        name="worker-crash",
        seed=26,
        map_errors=StageFaults(
            probability=0.3, window=Window(0.3, 0.9), max_fires=1, fatal=True
        ),
    ),
    # Everything transient at once, total fire budget == default retry
    # budget (3): the convergence stress case.
    "chaos": FaultPlan(
        name="chaos",
        seed=27,
        track_errors=StageFaults(probability=0.2, window=Window(0.15, 0.6), max_fires=1),
        map_errors=StageFaults(probability=0.2, window=Window(0.4, 0.9), max_fires=1),
        source_errors=StageFaults(probability=0.2, window=Window(0.1, 1.0), max_fires=1),
    ),
}


def available_fault_plans() -> tuple[str, ...]:
    """Names of the registered fault plans."""
    return tuple(FAULT_PLANS)


def get_fault_plan(name: str) -> FaultPlan:
    """Look up a registered fault plan by name (clear error on a typo)."""
    plan = FAULT_PLANS.get(name)
    if plan is None:
        raise ValueError(
            f"unknown fault plan '{name}'; expected one of {tuple(FAULT_PLANS)}"
        )
    return plan
