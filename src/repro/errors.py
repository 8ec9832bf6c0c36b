"""The repo-wide error taxonomy for fault handling and recovery.

Every layer that can fail mid-run — streaming sessions, disk
checkpoints, the ingestion workers, the evaluation service — raises
errors from this taxonomy so that the recovery layers (the per-frame
retry of :class:`repro.slam.session.SessionRunner`, parking in
:class:`repro.serve.registry.ParkingLot`) can decide *mechanically* what
to do with a failure:

* :class:`TransientError` — the operation may succeed if repeated: a
  flaky frame read, an injected stage crash, an ingest watchdog timeout.
  :meth:`repro.slam.session.SessionRunner.retry_frame` retries these
  under a :class:`RetryPolicy`, rolling the session back to just before
  the failed frame.
* :class:`FatalError` — retrying cannot help: a mis-configured run, a
  deterministic crash, an exhausted retry budget surfacing the last
  transient cause.  The service reports these per key and moves on.
* :class:`CheckpointCorruptError` — a checkpoint on disk is torn,
  truncated, bit-flipped, missing its manifest or written by an
  incompatible format version.  Parking treats the generation as
  invalid and falls back to the next-older one (corruption is fatal for
  *that checkpoint*, not for the session).

Exceptions outside the taxonomy (plain ``ValueError`` etc.) are treated
as fatal: only failures that *declare* themselves transient are retried.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "CheckpointCorruptError",
    "FatalError",
    "InjectedCrashError",
    "InjectedFaultError",
    "OverloadError",
    "ReproError",
    "RetryPolicy",
    "RunManyError",
    "StageTimeoutError",
    "TransientError",
]


class ReproError(Exception):
    """Base class of every error in the taxonomy."""


class TransientError(ReproError):
    """A failure that a bounded retry of the failed frame may fix."""


class FatalError(ReproError):
    """A failure retrying cannot fix; reported, never retried."""


class CheckpointCorruptError(FatalError):
    """A checkpoint is torn/truncated/bit-flipped/version-incompatible.

    Raised by :func:`repro.slam.session.load_session_state` before any
    session state is touched — a corrupt checkpoint can never partially
    restore a session.  :class:`repro.serve.registry.ParkingLot`
    responds by falling back to the next-older parked generation.
    """


class StageTimeoutError(TransientError):
    """The ingest watchdog declared a session's drain stalled.

    Raised by :class:`repro.serve.ingest.AsyncSessionHandle` when a
    blocked ``submit`` or ``flush`` sees no drain progress within
    ``watchdog_timeout`` seconds.  The stalled frame stays queued and
    the session keeps its state, so the caller may simply wait again.
    """


class InjectedFaultError(TransientError):
    """A deterministic *transient* fault fired by the fault injector."""


class OverloadError(TransientError):
    """The serving tier shed this request instead of queueing it.

    Raised by :class:`repro.serve.admission.AdmissionController` when a
    per-client rate limit or the global in-flight-frames budget is
    exceeded, and by a draining server refusing new work.  Transient by
    definition — the same request succeeds once load subsides —
    ``retry_after`` tells the client how long to back off (the HTTP tier
    maps it to a 429/503 response with a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class InjectedCrashError(FatalError):
    """A deterministic *fatal* crash fired by the fault injector."""


class RunManyError(ReproError):
    """One or more keys of a ``run_many`` batch failed after retries.

    Raised only after every surviving key completed (and was stored), so
    a single bad run never poisons the batch.  ``failures`` maps each
    failed :class:`~repro.eval.service.RunKey` to the exception that
    exhausted its retry policy.
    """

    def __init__(self, failures: dict) -> None:
        self.failures = dict(failures)
        lines = ", ".join(f"{key.slug()}: {exc!r}" for key, exc in self.failures.items())
        super().__init__(
            f"{len(self.failures)} run(s) failed after retries ({lines})"
        )


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient frame failures.

    Only errors declaring themselves :class:`TransientError` are
    retried; everything else (``FatalError``, plain exceptions)
    propagates immediately.  ``max_retries`` bounds the *additional*
    attempts of one frame after its first, and the sleep before retry
    ``n`` (0-based) is ``min(backoff * 2**n, backoff_cap)`` seconds.
    """

    max_retries: int = 3
    backoff: float = 0.02
    backoff_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")

    def delay(self, retry_index: int) -> float:
        """Seconds to sleep before 0-based retry ``retry_index``."""
        return min(self.backoff * (2.0 ** retry_index), self.backoff_cap)
