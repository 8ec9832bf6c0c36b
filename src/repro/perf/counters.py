"""Lightweight operation counters for the perf subsystem.

Counters accumulate named integer/float quantities (SAD evaluations,
blended pairs, frames processed, ...) with dictionary-add overhead — cheap
enough to leave enabled inside per-frame loops.  Updates are guarded by a
lock so concurrent writers (serving drain workers, service worker
merges) never lose increments to interleaved read-modify-write cycles.
"""

from __future__ import annotations

import threading

__all__ = ["PerfCounters"]


class PerfCounters:
    """Named accumulating counters (thread-safe)."""

    __slots__ = ("_counts", "_lock")

    def __init__(self) -> None:
        self._counts: dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + value

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never touched)."""
        with self._lock:
            return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters, sorted by name."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def merge(self, other: "PerfCounters") -> None:
        """Add every counter of ``other`` into this instance."""
        with other._lock:
            snapshot = dict(other._counts)
        for name, value in snapshot.items():
            self.add(name, value)

    def reset(self) -> None:
        """Zero out all counters."""
        with self._lock:
            self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"PerfCounters({self.as_dict()!r})"
