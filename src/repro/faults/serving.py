"""Serving-level fault plans: deterministic client misbehavior.

The HTTP tier's mirror of :mod:`repro.faults.plans`: where those plans
inject failures *inside* the pipeline (stage crashes, flaky reads),
these describe failures *at the network edge* — slow clients stalling
mid-stream, mid-upload disconnects tearing a frame body in half, and
admission storms (which need no schedule at all: the storm driver's
over-capacity concurrency *is* the fault).

Schedules follow the repo's determinism idiom: every decision is a pure
function of ``(plan seed, domain, client index, frame index)`` through a
``SeedSequence``-derived generator, so the same storm client misbehaves
at the same frames on every machine — chaos runs are reproducible, and
the overload benchmark's gate can assert exact invariants on them.

Budgeting mirrors the pipeline plans: each client's fires are capped at
``max_fires`` (the *first* eligible indices win, so trimming the budget
never moves surviving fires), keeping per-client disruption bounded and
storm runtime predictable.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.datasets.scenarios import Window

__all__ = [
    "SERVING_FAULT_PLANS",
    "ClientDisconnects",
    "ClientStalls",
    "ServingFaultPlan",
    "available_serving_fault_plans",
    "get_serving_fault_plan",
]

# Domains 1-4 belong to stream scenarios and 101-103 to pipeline fault
# injection; serving-level faults take the 200 block.
_DOMAIN_STALL = 201
_DOMAIN_DISCONNECT = 202


def _rng_at(seed: int, domain: int, client: int, index: int) -> np.random.Generator:
    """A fresh generator for (plan, domain, client, frame) — stateless."""
    return np.random.default_rng(np.random.SeedSequence((seed, domain, client, index)))


@dataclasses.dataclass(frozen=True)
class ClientStalls:
    """A client that freezes ``delay`` seconds before sending a frame.

    Models the slow-client overload vector: a stalled sender holds its
    server-side resources (admission slot timing, keep-alive thread)
    while contributing no progress.
    """

    delay: float
    probability: float = 0.0
    window: Window = Window()
    max_fires: int | None = 1


@dataclasses.dataclass(frozen=True)
class ClientDisconnects:
    """A client that tears the connection halfway through an upload.

    The driver opens a raw connection, sends the frame's headers plus
    half its body, and slams the socket — then re-sends the frame
    properly.  A correct server answers 400 to the torn half (the frame
    never half-ingests) and 200 to the re-send.
    """

    probability: float = 0.0
    window: Window = Window()
    max_fires: int | None = 1


@dataclasses.dataclass(frozen=True)
class ServingFaultPlan:
    """A named, seeded schedule of client misbehavior for storm runs."""

    name: str
    seed: int
    stalls: ClientStalls | None = None
    disconnects: ClientDisconnects | None = None

    def _schedule(self, fault, domain: int, client: int, total: int) -> frozenset[int]:
        """First ``max_fires`` eligible frame indices for one client.

        Pure in (plan, domain, client, total): per-index probability
        draws inside the window, the window's first frame forced in when
        no draw fires (every non-empty window misbehaves somewhere),
        then truncated to the budget oldest-first.
        """
        if fault is None or fault.probability <= 0 or total <= 0:
            return frozenset()
        lo, hi = fault.window.bounds(total)
        eligible = sorted(
            index
            for index in range(lo, hi)
            if _rng_at(self.seed, domain, client, index).random() < fault.probability
        )
        if not eligible and lo < hi:
            eligible = [lo]
        if fault.max_fires is not None:
            eligible = eligible[: fault.max_fires]
        return frozenset(eligible)

    def stall_at(self, client: int, index: int, total: int) -> float:
        """Seconds client ``client`` stalls before frame ``index`` (0.0: none)."""
        if self.stalls is None:
            return 0.0
        if index in self._schedule(self.stalls, _DOMAIN_STALL, client, total):
            return self.stalls.delay
        return 0.0

    def disconnect_at(self, client: int, index: int, total: int) -> bool:
        """Whether ``client`` tears the upload of frame ``index``."""
        return index in self._schedule(
            self.disconnects, _DOMAIN_DISCONNECT, client, total
        )


SERVING_FAULT_PLANS: dict[str, ServingFaultPlan] = {
    # A client that periodically freezes mid-stream: the slow-loris-ish
    # probe that queued work behind a stalled sender must not starve the
    # other sessions.
    "slow-client": ServingFaultPlan(
        name="slow-client",
        seed=41,
        stalls=ClientStalls(
            delay=0.05, probability=0.4, window=Window(0.1, 0.9), max_fires=2
        ),
    ),
    # Torn uploads: headers plus half a frame body, then a dead socket.
    # Asserts the no-half-ingestion contract end to end.
    "client-disconnect": ServingFaultPlan(
        name="client-disconnect",
        seed=42,
        disconnects=ClientDisconnects(
            probability=0.4, window=Window(0.1, 0.9), max_fires=2
        ),
    ),
    # Pure overload: no per-frame misbehavior at all — the storm
    # driver's over-capacity concurrency is the fault being injected.
    "admission-storm": ServingFaultPlan(name="admission-storm", seed=43),
    # Everything at once: stalls and torn uploads under storm
    # concurrency, the serving convergence stress case.
    "serve-chaos": ServingFaultPlan(
        name="serve-chaos",
        seed=44,
        stalls=ClientStalls(
            delay=0.05, probability=0.25, window=Window(0.1, 0.8), max_fires=1
        ),
        disconnects=ClientDisconnects(
            probability=0.25, window=Window(0.2, 0.9), max_fires=1
        ),
    ),
}


def available_serving_fault_plans() -> tuple[str, ...]:
    """Names of the registered serving-level fault plans."""
    return tuple(SERVING_FAULT_PLANS)


def get_serving_fault_plan(name: str) -> ServingFaultPlan:
    """Look up a serving fault plan by name (clear error on a typo)."""
    plan = SERVING_FAULT_PLANS.get(name)
    if plan is None:
        raise ValueError(
            f"unknown serving fault plan '{name}'; expected one of "
            f"{tuple(SERVING_FAULT_PLANS)}"
        )
    return plan
