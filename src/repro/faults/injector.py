"""Deterministic fault injection for sessions and frame sources.

Robustness claims are only testable if failures are *reproducible*.  This
module injects faults — stage exceptions in ``_track``/``_map`` and flaky
frame-source reads — on a schedule that is a pure function of the fault
plan and the run length, using exactly the
``SeedSequence((seed, domain, index))`` per-index draws of
:mod:`repro.datasets.scenarios`.  Every fault therefore fires at the same
frame index on every run of the same plan, independent of the driving
loop, retry count or process restarts, which is what lets the recovery
invariant be *property-tested*: a run whose faulted frames are rolled
back and retried must be bit-identical to the uninterrupted run.

Two layers with different statefulness:

* The **schedule** (which indices a fault is eligible to fire at) is
  stateless and pure — see :meth:`FaultInjector.schedule`.
* The **firing bookkeeping** is stateful: each fault carries a
  ``max_fires`` budget consumed across every attempt sharing the
  injector.  Once the budget is spent a retried frame no longer
  crashes, so bounded-retry recovery converges; the budget is the
  deterministic analogue of "the fault was transient".

Schedules guarantee at least one eligible index whenever the fault's
window is non-empty (falling back to the window's first frame if no
probability draw fires), so every registered plan exercises its failure
path at any realistic run length.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.datasets.scenarios import Window
from repro.errors import InjectedCrashError, InjectedFaultError

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "StageFaults",
]

# Seed domains, disjoint from the scenario domains (1-4) so a fault plan
# sharing a seed with a scenario could never correlate with its draws.
_DOMAIN_TRACK = 101
_DOMAIN_MAP = 102
_DOMAIN_SOURCE = 103

_DOMAIN_NAMES = {
    _DOMAIN_TRACK: "track",
    _DOMAIN_MAP: "map",
    _DOMAIN_SOURCE: "source",
}


def _rng_at(seed: int, domain: int, index: int) -> np.random.Generator:
    """A fresh generator for (plan, domain, frame) — stateless."""
    return np.random.default_rng(np.random.SeedSequence((seed, domain, index)))


@dataclasses.dataclass(frozen=True)
class StageFaults:
    """Injected exceptions for one stage (track/map/source read).

    ``fatal=True`` raises :class:`~repro.errors.InjectedCrashError` (a
    ``FatalError`` the service must *not* retry) instead of the
    transient :class:`~repro.errors.InjectedFaultError`.
    """

    probability: float = 0.3
    window: Window = Window()
    max_fires: int = 1
    fatal: bool = False


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """One named, seeded bundle of faults (mirror of ``ScenarioSpec``)."""

    name: str
    seed: int = 0
    track_errors: StageFaults | None = None
    map_errors: StageFaults | None = None
    source_errors: StageFaults | None = None

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing at all."""
        return all(
            getattr(self, field) is None
            for field in ("track_errors", "map_errors", "source_errors")
        )

    @property
    def max_total_fires(self) -> int:
        """Upper bound on fires across all domains (sizes retry budgets)."""
        return sum(
            fault.max_fires
            for fault in (
                self.track_errors,
                self.map_errors,
                self.source_errors,
            )
            if fault is not None
        )


class _FlakySource:
    """A frame-source wrapper whose reads fail on the injector's schedule.

    Frame *content* is never altered — a read either raises
    :class:`~repro.errors.InjectedFaultError` or delegates untouched, so
    recovered runs stay bit-identical to clean ones.
    """

    def __init__(self, source, injector: "FaultInjector") -> None:
        self.source = source
        self.injector = injector
        self.intrinsics = source.intrinsics

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def dataset(self) -> str:
        return getattr(self.source, "dataset", "stream")

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def stream(self, start: int = 0, stop: int | None = None):
        stop = len(self) if stop is None else min(stop, len(self))
        for index in range(start, stop):
            yield index, self[index]

    def ground_truth_trajectory(self):
        return self.source.ground_truth_trajectory()

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        self.injector.maybe_raise(
            self.injector.plan.source_errors, _DOMAIN_SOURCE, index, len(self)
        )
        return self.source[index]


class FaultInjector:
    """Fires a :class:`FaultPlan` at deterministic frame indices.

    One injector instance spans *all* attempts of one logical run: the
    schedule is pure, the ``max_fires`` bookkeeping is shared, so a
    bounded number of retries is guaranteed to out-live the plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired: dict[int, int] = {}
        self._schedules: dict[tuple[int, int], frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Pure schedule
    # ------------------------------------------------------------------
    def _fault_for(self, domain: int):
        return {
            _DOMAIN_TRACK: self.plan.track_errors,
            _DOMAIN_MAP: self.plan.map_errors,
            _DOMAIN_SOURCE: self.plan.source_errors,
        }[domain]

    def schedule(self, domain: int, total: int) -> frozenset[int]:
        """Indices in ``[0, total)`` where ``domain`` is eligible to fire.

        A pure function of (plan, total): per-index probability draws
        within the fault's window, with the window's first frame forced
        in when no draw fires (every non-empty window fires somewhere).
        """
        fault = self._fault_for(domain)
        if fault is None or total <= 0:
            return frozenset()
        cached = self._schedules.get((domain, total))
        if cached is not None:
            return cached
        lo, hi = fault.window.bounds(total)
        hi = min(hi, total)
        eligible = {
            index
            for index in range(lo, hi)
            if _rng_at(self.plan.seed, domain, index).random() < fault.probability
        }
        if not eligible and lo < hi:
            eligible = {lo}
        result = frozenset(eligible)
        self._schedules[(domain, total)] = result
        return result

    def fires_at(self, domain: int, index: int, total: int) -> bool:
        """Whether ``domain`` is scheduled at ``index`` (ignores budget)."""
        return index in self.schedule(domain, total)

    # ------------------------------------------------------------------
    # Stateful firing
    # ------------------------------------------------------------------
    @property
    def fired(self) -> dict[str, int]:
        """Fires consumed so far, keyed by domain name (telemetry/tests)."""
        return {_DOMAIN_NAMES[domain]: count for domain, count in sorted(self._fired.items())}

    def reset(self) -> None:
        """Forget all consumed fires (a brand-new logical run)."""
        self._fired.clear()

    def _consume(self, fault, domain: int, index: int, total: int) -> bool:
        if fault is None or not self.fires_at(domain, index, total):
            return False
        if self._fired.get(domain, 0) >= fault.max_fires:
            return False
        self._fired[domain] = self._fired.get(domain, 0) + 1
        return True

    def maybe_raise(self, fault, domain: int, index: int, total: int) -> None:
        """Consume one fire and raise; no-op off-schedule/over-budget."""
        if not self._consume(fault, domain, index, total):
            return
        kind = InjectedCrashError if getattr(fault, "fatal", False) else InjectedFaultError
        raise kind(
            f"injected {_DOMAIN_NAMES[domain]} fault "
            f"(plan '{self.plan.name}', frame {index})"
        )

    # ------------------------------------------------------------------
    # Arming points
    # ------------------------------------------------------------------
    def arm(self, system, total: int) -> None:
        """Wrap ``system._track`` / ``system._map`` with the plan's faults.

        Faults fire *before* the stage body executes, so an injected
        crash never leaves a stage half-run; a ``_map`` fault still
        follows the frame's completed ``_track``, which is why a retry
        rolls the whole frame back.  Idempotent per system instance.
        """
        plan = self.plan
        if getattr(system, "_fault_injector", None) is self:
            return
        if plan.track_errors is not None:
            original_track = system._track

            def _faulted_track(index, frame, __orig=original_track):
                self.maybe_raise(plan.track_errors, _DOMAIN_TRACK, index, total)
                return __orig(index, frame)

            system._track = _faulted_track
        if plan.map_errors is not None:
            original_map = system._map

            def _faulted_map(index, frame, tracked, __orig=original_map):
                self.maybe_raise(plan.map_errors, _DOMAIN_MAP, index, total)
                return __orig(index, frame, tracked)

            system._map = _faulted_map
        system._fault_injector = self

    def wrap_source(self, source):
        """Wrap a frame source with the plan's read faults (if any)."""
        if self.plan.source_errors is None:
            return source
        return _FlakySource(source, self)
