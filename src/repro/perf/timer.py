"""Nested wall-clock timers for the perf subsystem.

:class:`PerfTimers` measures named sections via a context manager; nested
sections are recorded under slash-joined paths (``"ags/tracking/render"``)
so a report can show both a flat table and the call-tree structure.
:class:`NullTimers` is a do-nothing stand-in with the same interface, so
hot paths can take a timer object unconditionally.

Timers are safe to use from several threads at once: the section stack is
per-thread (each thread nests its own call tree) and the accumulated
statistics are guarded by a lock, so concurrent sessions (service
worker pools, serving drain workers) can record into one recorder.
"""

from __future__ import annotations

import contextlib
import threading
import time

__all__ = ["SectionStats", "PerfTimers", "NullTimers"]


class SectionStats:
    """Accumulated statistics of one timed section."""

    __slots__ = ("total_seconds", "calls", "max_seconds")

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.calls = 0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.calls += 1
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def merge(self, other: "SectionStats") -> None:
        """Fold another section's statistics into this one."""
        self.total_seconds += other.total_seconds
        self.calls += other.calls
        if other.max_seconds > self.max_seconds:
            self.max_seconds = other.max_seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "total_seconds": self.total_seconds,
            "calls": self.calls,
            "mean_seconds": self.mean_seconds,
            "max_seconds": self.max_seconds,
        }

    def __repr__(self) -> str:
        return f"SectionStats(total={self.total_seconds:.6f}s, calls={self.calls})"


class PerfTimers:
    """Hierarchical section timers.

    Usage::

        timers = PerfTimers()
        with timers.section("tracking"):
            with timers.section("render"):   # recorded as "tracking/render"
                ...
    """

    def __init__(self) -> None:
        self._stats: dict[str, SectionStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[str]:
        """The calling thread's active-section stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def section(self, name: str):
        """Time a code block under ``name`` (nested under active sections).

        Nesting is tracked per thread, so concurrent stages each record
        their own call tree without corrupting the other's paths.
        """
        stack = self._stack()
        path = "/".join(stack + [name])
        stack.append(name)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                stats = self._stats.get(path)
                if stats is None:
                    stats = self._stats[path] = SectionStats()
                stats.record(elapsed)

    def get(self, path: str) -> SectionStats | None:
        """Stats of a slash-joined section path (None if never entered)."""
        with self._lock:
            return self._stats.get(path)

    def merge(self, other: "PerfTimers") -> None:
        """Fold every section of ``other`` into this instance (additively)."""
        # Copy the field *values* (not the live SectionStats references)
        # under the source lock, so merging a recorder that is still
        # recording can never fold a torn total/calls/max triple.
        with other._lock:
            snapshot = {
                path: (stats.total_seconds, stats.calls, stats.max_seconds)
                for path, stats in other._stats.items()
            }
        with self._lock:
            for path, (total_seconds, calls, max_seconds) in snapshot.items():
                mine = self._stats.get(path)
                if mine is None:
                    mine = self._stats[path] = SectionStats()
                mine.total_seconds += total_seconds
                mine.calls += calls
                if max_seconds > mine.max_seconds:
                    mine.max_seconds = max_seconds

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Snapshot ``{path: {total_seconds, calls, mean, max}}``, sorted."""
        with self._lock:
            return {path: stats.as_dict() for path, stats in sorted(self._stats.items())}

    def reset(self) -> None:
        """Drop all recorded sections (active stacks are preserved)."""
        with self._lock:
            self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)


class _NullSection:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SECTION = _NullSection()


class NullTimers:
    """No-op drop-in for :class:`PerfTimers` (near-zero overhead)."""

    def section(self, name: str) -> _NullSection:
        return _NULL_SECTION

    def get(self, path: str) -> None:
        return None

    def merge(self, other) -> None:
        pass

    def as_dict(self) -> dict:
        return {}

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0
