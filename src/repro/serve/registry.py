"""The sharded serving tier's session registry and checkpoint parking.

Serving many concurrent camera streams means many live
:class:`~repro.slam.session.SlamSession` objects — each holding a full
Gaussian map — competing for one process's memory.  This module provides
the two mechanisms that bound that footprint:

* :class:`ParkingLot` — gen-numbered on-disk checkpoint parking built on
  the atomic, checksummed :func:`repro.slam.session.save_session_state`
  format (``<root>/<name>/gen-%05d``).  Parking a session and resuming
  it later — in the same registry, a different shard, or a different
  process sharing the parking root — is *bit-exact*: the resumed stream
  reproduces the uninterrupted run bit-for-bit (PR 3's checkpoint
  invariant, property-tested per system in ``tests/test_serve.py``).
  Resuming garbage-collects the parked generations so parking storage
  stays bounded.
* :class:`SessionRegistry` — a bounded, thread-safe registry of live
  sessions keyed by session id.  When the number of live sessions
  exceeds ``max_live``, the least-recently-touched unpinned session is
  transparently *parked* to the lot; the next touch resumes it just as
  transparently.  Pinning (:meth:`SessionRegistry.checkout`) protects a
  session from eviction while a caller feeds it.
* :class:`LruMap` — the minimal bounded LRU map both the registry and
  :class:`repro.eval.service.SlamService` build their eviction on
  (extracted from the service's former inline OrderedDict logic).

Eviction counters ``serve.sessions_parked`` / ``serve.sessions_resumed``
are recorded on the registry's perf recorder and surfaced by
:mod:`repro.perf.report` (explicit zeros when serving never ran).
"""

from __future__ import annotations

import collections
import contextlib
import os
import pathlib
import shutil
import tempfile
import threading
from typing import Callable

from repro.errors import CheckpointCorruptError
from repro.perf import PerfRecorder, global_recorder
from repro.slam.session import SessionState, load_session_state, save_session_state

__all__ = ["LruMap", "ParkingLot", "SessionRegistry"]


class LruMap:
    """A bounded least-recently-used map (not thread-safe: callers lock).

    ``get`` with ``touch=True`` (the default) and ``put`` move the key to
    the most-recently-used end; ``put`` and ``trim`` evict from the LRU
    end down to ``budget``, invoking ``on_evict(key, value)`` per evicted
    entry and returning the eviction count.
    """

    def __init__(self, budget: int, on_evict: Callable | None = None) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.on_evict = on_evict
        self._store: collections.OrderedDict = collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store

    def keys(self) -> list:
        """Retained keys, least- to most-recently used."""
        return list(self._store)

    def get(self, key, touch: bool = True):
        """The stored value (None when absent); touching refreshes LRU."""
        value = self._store.get(key)
        if value is not None and touch:
            self._store.move_to_end(key)
        return value

    def put(self, key, value) -> int:
        """Store (as most-recently-used); returns evictions performed."""
        self._store[key] = value
        self._store.move_to_end(key)
        return self.trim()

    def pop(self, key, default=None):
        """Remove and return ``key`` without invoking ``on_evict``."""
        return self._store.pop(key, default)

    def trim(self, budget: int | None = None) -> int:
        """Evict LRU entries down to ``budget`` (default: the fixed one)."""
        if budget is not None:
            if budget < 1:
                raise ValueError("budget must be >= 1")
            self.budget = budget
        evicted = 0
        while len(self._store) > self.budget:
            key, value = self._store.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(key, value)
            evicted += 1
        return evicted

    def clear(self) -> None:
        """Drop every entry without invoking ``on_evict``."""
        self._store.clear()


class ParkingLot:
    """Gen-numbered checkpoint parking under one root directory.

    Each parked name owns ``<root>/<name>/gen-%05d`` directories in the
    atomic ``state.bin`` + ``manifest.json`` checkpoint format (v3);
    repeated parks of one name append generations.  :meth:`resume` loads
    the newest generation that passes integrity (a corrupt newest
    generation is skipped in favour of the next-older one) and then
    deletes the name's parking directory, so parking storage is bounded
    by the *live* parked population, not its history.  The lot is the one owner of durable session state: the
    registry parks through it, and so does any caller that checkpoints a
    session to disk by name.

    Compound operations (park's read-next-generation-then-write,
    resume's load-then-GC) serialize per ``(root, name)`` through a
    process-wide lock table, so several registries sharing one root —
    the shards of a deployment, or a resume racing an eviction-park —
    interleave whole operations, never their internals.  The lock keys
    on the *absolute* root path: two lots constructed from different
    spellings of the same directory share the lock.
    """

    GEN_PREFIX = "gen-"

    # Process-wide (root, name) -> RLock table serializing compound
    # parking operations across every ParkingLot instance in the process.
    _LOCKS_GUARD = threading.Lock()
    _LOCKS: dict = {}

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)

    def _name_lock(self, name: str) -> threading.RLock:
        key = (os.path.abspath(self.root), name)
        with ParkingLot._LOCKS_GUARD:
            lock = ParkingLot._LOCKS.get(key)
            if lock is None:
                lock = ParkingLot._LOCKS[key] = threading.RLock()
            return lock

    def _session_dir(self, name: str) -> pathlib.Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid parking name {name!r}")
        return self.root / name

    def generations(self, name: str) -> list[pathlib.Path]:
        """Generation directories for ``name``, oldest to newest."""
        directory = self._session_dir(name)
        if not directory.is_dir():
            return []
        return sorted(
            path
            for path in directory.iterdir()
            if path.is_dir() and path.name.startswith(self.GEN_PREFIX)
        )

    def has(self, name: str) -> bool:
        """Whether ``name`` has at least one parked generation."""
        return bool(self.generations(name))

    def park(self, name: str, state: SessionState) -> pathlib.Path:
        """Write ``state`` as the next generation of ``name``."""
        with self._name_lock(name):
            generations = self.generations(name)
            if generations:
                next_gen = int(generations[-1].name[len(self.GEN_PREFIX) :]) + 1
            else:
                next_gen = 0
            return save_session_state(
                state, self._session_dir(name) / f"{self.GEN_PREFIX}{next_gen:05d}"
            )

    def resume(self, name: str) -> SessionState:
        """Load the newest valid generation of ``name``; GC the parking.

        Corrupt generations (torn writes, bit rot) are skipped newest to
        oldest; if none survives, :class:`CheckpointCorruptError`
        propagates.  An unknown name raises :class:`KeyError`.  On
        success the name's parking directory is deleted.
        """
        with self._name_lock(name):
            generations = self.generations(name)
            if not generations:
                raise KeyError(f"no parked session state for {name!r}")
            state = error = None
            for generation in reversed(generations):
                try:
                    state = load_session_state(generation)
                    break
                except CheckpointCorruptError as exc:
                    error = exc
            if state is None:
                raise CheckpointCorruptError(
                    f"every parked generation of {name!r} is corrupt"
                ) from error
            self.discard(name)
            return state

    def discard(self, name: str) -> None:
        """Delete every parked generation of ``name`` (idempotent)."""
        with self._name_lock(name):
            shutil.rmtree(self._session_dir(name), ignore_errors=True)


class _SessionEntry:
    """Registry bookkeeping for one session id."""

    __slots__ = ("session_id", "factory", "session", "pins")

    def __init__(self, session_id: str, factory: Callable) -> None:
        self.session_id = session_id
        self.factory = factory
        self.session = None  # None while parked
        self.pins = 0


class OpenedSession(
    collections.namedtuple("OpenedSession", ["session", "created", "resumed"])
):
    """What :meth:`SessionRegistry.open` returns.

    ``created`` — a fresh session was begun; ``resumed`` — a parked
    session was restored from the lot; neither — the id was already live.
    """


class SessionRegistry:
    """Bounded, thread-safe registry of live sessions with park-eviction.

    Args:
        max_live: budget of concurrently *live* (unparked) sessions.
            Opening or resuming a session beyond the budget parks the
            least-recently-touched unpinned one.  Pinned sessions are
            never evicted, so the bound is soft while more than
            ``max_live`` sessions are simultaneously checked out.
        max_live_gaussians: memory-pressure budget on the *total* live
            Gaussian count (summed over every live session's map).
            Exceeding it parks coldest-first under exactly the
            ``max_live`` victim rules — never the most-recently-touched,
            pinned, or mid-ingest session, and never the only live one
            (a budget one session exceeds alone would otherwise thrash).
            ``None`` (default) disables the budget.
        max_live_bytes: like ``max_live_gaussians`` but budgeting the
            live maps' resident parameter bytes.
        park_root: directory for the :class:`ParkingLot`.  ``None``
            creates a private temporary lot (removed with the registry).
            Several registries — the shards of one deployment, or
            registries in different processes — may share a root: a
            session parked by one is transparently resumed by whichever
            registry its id is next opened on.
        perf: recorder for the ``serve.sessions_parked`` /
            ``serve.sessions_resumed`` counters (default: the
            process-wide recorder).
    """

    def __init__(
        self,
        max_live: int = 8,
        park_root=None,
        perf: PerfRecorder | None = None,
        max_live_gaussians: int | None = None,
        max_live_bytes: int | None = None,
    ) -> None:
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        if max_live_gaussians is not None and max_live_gaussians < 1:
            raise ValueError("max_live_gaussians must be >= 1 (or None to disable)")
        if max_live_bytes is not None and max_live_bytes < 1:
            raise ValueError("max_live_bytes must be >= 1 (or None to disable)")
        self.max_live = max_live
        self.max_live_gaussians = max_live_gaussians
        self.max_live_bytes = max_live_bytes
        self._tmp = None
        if park_root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-park-")
            park_root = self._tmp.name
        self.lot = ParkingLot(park_root)
        self.perf = perf or global_recorder()
        self._entries: dict[str, _SessionEntry] = {}
        # Live LRU order only; parked entries stay in _entries with
        # session=None so their factory survives the round trip.
        self._live: collections.OrderedDict[str, None] = collections.OrderedDict()
        self._lock = threading.RLock()
        self.parks = 0
        self.resumes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._entries

    def live_ids(self) -> list[str]:
        """Live session ids, least- to most-recently touched."""
        with self._lock:
            return list(self._live)

    def parked_ids(self) -> list[str]:
        """Session ids currently parked (known to this registry)."""
        with self._lock:
            return [sid for sid, entry in self._entries.items() if entry.session is None]

    def is_parked(self, session_id: str) -> bool:
        """Whether ``session_id`` is registered here and currently parked."""
        with self._lock:
            entry = self._entries.get(session_id)
            return entry is not None and entry.session is None

    def stats(self) -> dict:
        """Registry telemetry snapshot for reports and benchmarks."""
        with self._lock:
            gaussians, resident_bytes = self._live_footprint()
            return {
                "sessions": len(self._entries),
                "live": len(self._live),
                "parked": sum(1 for e in self._entries.values() if e.session is None),
                "parks": self.parks,
                "resumes": self.resumes,
                "live_gaussians": gaussians,
                "live_bytes": resident_bytes,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self, session_id: str, factory: Callable, sequence_name: str = "stream") -> OpenedSession:
        """Ensure ``session_id`` is live; create, touch or resume it.

        ``factory`` is a zero-argument callable building an identically
        configured system — it is invoked for a fresh session and again
        on every resume (the restored state carries everything
        per-sequence).  A parked state found in the lot — including one
        parked by a *different* registry sharing the root — is resumed
        instead of starting fresh.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                entry = _SessionEntry(session_id, factory)
                self._entries[session_id] = entry
                try:
                    # Resuming is attempted directly rather than gated on
                    # a has() probe: with registries in other threads or
                    # processes sharing the root, a parked state seen by
                    # a probe can be resumed-and-GC'd by a rival before
                    # we load it.  The lot serializes whole resumes, so
                    # exactly one contender wins the parked state; the
                    # losers' KeyError means "nothing parked" and they
                    # fall through to a fresh session.
                    try:
                        self._resume_entry(entry)
                        return OpenedSession(entry.session, created=False, resumed=True)
                    except KeyError:
                        pass
                    entry.session = factory()
                    entry.session.begin(sequence_name)
                except BaseException:
                    # A failed factory/restore must not leave a ghost
                    # entry that later masquerades as a parked session.
                    self._entries.pop(session_id, None)
                    self._live.pop(session_id, None)
                    raise
                self._mark_live(entry)
                return OpenedSession(entry.session, created=True, resumed=False)
            entry.factory = factory
            if entry.session is None:
                self._resume_entry(entry)
                return OpenedSession(entry.session, created=False, resumed=True)
            self._live.move_to_end(session_id)
            return OpenedSession(entry.session, created=False, resumed=False)

    @contextlib.contextmanager
    def checkout(self, session_id: str):
        """Pin ``session_id`` (resuming it if parked) and yield the session.

        While checked out the session cannot be evicted; release
        re-touches it to most-recently-used.  Unknown ids raise
        :class:`KeyError` — register them with :meth:`open` first.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                raise KeyError(f"unknown session {session_id!r}")
            if entry.session is None:
                self._resume_entry(entry)
            else:
                self._live.move_to_end(session_id)
            entry.pins += 1
            session = entry.session
        try:
            yield session
        finally:
            with self._lock:
                entry.pins -= 1
                if session_id in self._live:
                    self._live.move_to_end(session_id)
                # A release may unblock eviction deferred past the soft
                # bound while every live session was pinned.
                self._evict_over_budget()

    def park(self, session_id: str) -> pathlib.Path:
        """Explicitly park a live session to the lot.

        Queued-but-undrained frames are processed first (a park must not
        drop in-flight input), then the session's bit-exact state is
        written as the next parked generation and the live instance is
        released.  Checked-out sessions refuse to park.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                raise KeyError(f"unknown session {session_id!r}")
            if entry.session is None:
                raise ValueError(f"session {session_id!r} is already parked")
            if entry.pins > 0:
                raise ValueError(f"session {session_id!r} is checked out")
            return self._park_entry(entry)

    def result(self, session_id: str):
        """Drain pending frames and return the session's finalized result."""
        with self.checkout(session_id) as session:
            drain = getattr(session, "drain_pending", None)
            if drain is not None:
                drain()
            return session.finalize()

    def close(self, session_id: str, discard_parked: bool = True) -> None:
        """Forget a session entirely (and, by default, its parked state)."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
            if entry is not None and entry.pins > 0:
                self._entries[session_id] = entry
                raise ValueError(f"session {session_id!r} is checked out")
            self._live.pop(session_id, None)
        if discard_parked:
            self.lot.discard(session_id)

    def shutdown(self, park_live: bool = False) -> None:
        """Release every session; optionally park live ones first."""
        with self._lock:
            if park_live:
                for entry in list(self._entries.values()):
                    if entry.session is not None and entry.pins == 0:
                        self._park_entry(entry)
            self._entries.clear()
            self._live.clear()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # ------------------------------------------------------------------
    # Internals (registry lock held)
    # ------------------------------------------------------------------
    def _mark_live(self, entry: _SessionEntry) -> None:
        self._live[entry.session_id] = None
        self._live.move_to_end(entry.session_id)
        self._evict_over_budget()

    def _live_footprint(self) -> tuple[int, int]:
        """Total (gaussians, parameter bytes) across live sessions."""
        gaussians = 0
        resident_bytes = 0
        for sid in self._live:
            for model in self._entries[sid].session.map_models():
                gaussians += len(model)
                resident_bytes += sum(
                    array.nbytes for array in model.parameters().values()
                )
        return gaussians, resident_bytes

    def _over_budget(self) -> bool:
        if len(self._live) > self.max_live:
            return True
        # Memory pressure: park coldest sessions while the *aggregate*
        # live map exceeds the budget — but never down to zero live
        # sessions, since a single map bigger than the budget would
        # otherwise park/resume itself forever.
        if len(self._live) > 1 and (
            self.max_live_gaussians is not None or self.max_live_bytes is not None
        ):
            gaussians, resident_bytes = self._live_footprint()
            if (
                self.max_live_gaussians is not None
                and gaussians > self.max_live_gaussians
            ):
                return True
            if self.max_live_bytes is not None and resident_bytes > self.max_live_bytes:
                return True
        return False

    def _evict_over_budget(self) -> None:
        while self._over_budget():
            # LRU-first among unpinned, quiescent sessions, excluding the
            # one just touched (the MRU tail): a session open() is about
            # to hand out must never be parked in the same breath, or the
            # caller would hold a live-looking reference the registry no
            # longer tracks.  Sessions with queued-but-undrained frames
            # are equally off limits — parking would process them on
            # whichever thread tripped eviction, behind the back of the
            # AsyncSessionHandle whose queue accounting and on_result
            # callbacks own those frames.
            live = list(self._live)
            victim = next(
                (
                    sid
                    for sid in live[:-1]
                    if self._entries[sid].pins == 0
                    and not getattr(self._entries[sid].session, "pending_count", 0)
                ),
                None,
            )
            if victim is None:
                # Everything else live is checked out or mid-ingest: the
                # bound is soft until a pin releases or a queue drains
                # (checkout re-runs eviction on exit).
                return
            self._park_entry(self._entries[victim])

    def _park_entry(self, entry: _SessionEntry) -> pathlib.Path:
        session = entry.session
        drain = getattr(session, "drain_pending", None)
        if drain is not None:
            drain()
        path = self.lot.park(entry.session_id, session.state())
        entry.session = None
        self._live.pop(entry.session_id, None)
        self.parks += 1
        self.perf.count("serve.sessions_parked")
        return path

    def _resume_entry(self, entry: _SessionEntry) -> None:
        state = self.lot.resume(entry.session_id)
        session = entry.factory()
        session.restore(state)
        entry.session = session
        self.resumes += 1
        self.perf.count("serve.sessions_resumed")
        self._mark_live(entry)
