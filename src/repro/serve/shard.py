"""Deterministic session-id sharding across N registries.

A serving deployment runs several :class:`SessionRegistry` shards —
within one process (spreading registry lock contention) or across
processes/hosts.  Sessions are routed by a stable hash of the session
id, so every frontend computes the same shard for the same id with no
coordination; :func:`shard_index` is CRC-32 based (NOT Python's
process-seeded ``hash``), making the routing reproducible across runs,
processes and interpreters — the property test in ``tests/test_serve.py``
pins known id→shard assignments.

All shards of a :class:`ShardedRegistry` share one parking root, so a
session parked on one shard resumes bit-identically on any other —
which is what makes re-sharding (changing ``num_shards``) safe: a
routing change just turns into a cross-shard park/resume.
"""

from __future__ import annotations

import zlib

from repro.perf import PerfRecorder
from repro.serve.registry import OpenedSession, SessionRegistry

__all__ = ["ShardedRegistry", "shard_index"]


def shard_index(session_id: str, num_shards: int) -> int:
    """The shard owning ``session_id`` (stable across processes/runs)."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return zlib.crc32(session_id.encode("utf-8")) % num_shards


class ShardedRegistry:
    """N session registries behind deterministic session-id routing.

    Exposes the same lifecycle surface as one :class:`SessionRegistry`
    (open / checkout / park / result / close / shutdown), delegating each
    call to the shard :func:`shard_index` assigns the id.  ``max_live``
    is the *per-shard* live budget.  All shards share one parking root
    (an owned temporary one when ``park_root`` is None), so parked
    sessions resume on whichever shard next touches them.
    """

    def __init__(
        self,
        num_shards: int = 2,
        max_live: int = 8,
        park_root=None,
        perf: PerfRecorder | None = None,
        max_live_gaussians: int | None = None,
        max_live_bytes: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        # The first shard owns the (possibly temporary) parking root; the
        # rest share it.  The memory-pressure budgets are per shard, like
        # max_live.
        first = SessionRegistry(
            max_live=max_live,
            park_root=park_root,
            perf=perf,
            max_live_gaussians=max_live_gaussians,
            max_live_bytes=max_live_bytes,
        )
        self.shards = [first] + [
            SessionRegistry(
                max_live=max_live,
                park_root=first.lot.root,
                perf=perf,
                max_live_gaussians=max_live_gaussians,
                max_live_bytes=max_live_bytes,
            )
            for _ in range(num_shards - 1)
        ]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def park_root(self):
        return self.shards[0].lot.root

    def shard_for(self, session_id: str) -> SessionRegistry:
        """The registry shard owning ``session_id``."""
        return self.shards[shard_index(session_id, len(self.shards))]

    def __contains__(self, session_id: str) -> bool:
        return session_id in self.shard_for(session_id)

    def open(self, session_id: str, factory, sequence_name: str = "stream") -> OpenedSession:
        return self.shard_for(session_id).open(session_id, factory, sequence_name)

    def checkout(self, session_id: str):
        return self.shard_for(session_id).checkout(session_id)

    def park(self, session_id: str):
        return self.shard_for(session_id).park(session_id)

    def result(self, session_id: str):
        return self.shard_for(session_id).result(session_id)

    def close(self, session_id: str, discard_parked: bool = True) -> None:
        self.shard_for(session_id).close(session_id, discard_parked)

    def live_ids(self) -> list[str]:
        """Live session ids across every shard (shard-major order)."""
        return [sid for shard in self.shards for sid in shard.live_ids()]

    def parked_ids(self) -> list[str]:
        """Parked session ids across every shard (shard-major order)."""
        return [sid for shard in self.shards for sid in shard.parked_ids()]

    def is_parked(self, session_id: str) -> bool:
        return self.shard_for(session_id).is_parked(session_id)

    def stats(self) -> dict:
        """Aggregated telemetry plus the per-shard breakdown."""
        per_shard = [shard.stats() for shard in self.shards]
        totals = {
            key: sum(stats[key] for stats in per_shard) for key in per_shard[0]
        }
        totals["shards"] = per_shard
        return totals

    def shutdown(self, park_live: bool = False) -> None:
        """Shut every shard down (the first owns the temporary root)."""
        for shard in reversed(self.shards):
            shard.shutdown(park_live=park_live)
