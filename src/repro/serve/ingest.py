"""Asynchronous frame ingestion: producers never block on mapping.

:class:`AsyncSessionHandle` is the serving tier's producer-facing wrapper
around one registered session.  ``submit(frame)`` enqueues the frame on
the session's pending queue (:meth:`SessionRunner.feed_nowait`) and
returns immediately; a worker from the shared :class:`IngestPool` drains
the queue in arrival order through the ordinary ``feed`` path, which is
what makes asynchronous ingestion *bit-identical* to synchronous feeding
by construction (property-tested per system in ``tests/test_serve.py``).
A frame for a parked session waits in the handle instead, and the drain
worker resumes the session and queues it there first, so no producer
waits for parking I/O.

The handle's contract:

* **bounded queue** — at most ``queue_depth`` frames may be in flight
  per session; a ``submit`` beyond the bound blocks the producer
  (back-pressure), counted once per blocking episode as
  ``serve.backpressure_waits``.  The high-water mark of in-flight frames
  is surfaced as ``serve.queue_depth``.
* **watchdog** — with ``watchdog_timeout`` set, a blocked ``submit`` or
  ``flush`` that sees no drain progress for that many seconds raises
  :class:`StageTimeoutError` (a ``TransientError``) instead of hanging,
  counted as ``session.watchdog_timeouts``.
* **frame-granular retry** — every queued frame is drained through
  :meth:`SessionRunner.retry_frame` under the default
  :class:`~repro.errors.RetryPolicy`: a :class:`TransientError` raised
  while draining (an injected stage fault, say) rolls the session back
  to just before the failed frame — the frame itself stays at the queue
  head — and re-feeds it after the policy's backoff, which keeps retried
  ingestion bit-identical to a fault-free run.  An exhausted budget
  fails the handle with :class:`~repro.errors.FatalError`.

All counters land on the handle's perf recorder and are surfaced by
:mod:`repro.perf.report` (explicit zeros when serving never ran).
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

from repro.errors import RetryPolicy, StageTimeoutError
from repro.perf import PerfRecorder, global_recorder
from repro.serve.registry import SessionRegistry
from repro.slam.session import check_frame

__all__ = ["AsyncSessionHandle", "IngestPool"]


class IngestPool:
    """A shared pool of drain workers for asynchronous ingestion.

    One pool serves many :class:`AsyncSessionHandle`\\ s: each handle
    schedules at most one drain job at a time, so ``workers`` bounds how
    many *sessions* make mapping progress concurrently, never how many
    frames one session processes in parallel (per-session processing is
    strictly in order).
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-ingest"
        )

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Schedule one drain job on the pool."""
        return self._executor.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool (idempotent); pending drain jobs finish first."""
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "IngestPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class AsyncSessionHandle:
    """Producer-facing asynchronous handle for one registered session.

    Args:
        registry: the :class:`SessionRegistry` owning the session.
        session_id: id previously registered with ``registry.open``.
        pool: shared :class:`IngestPool` draining the queue.  ``None``
            creates a private single-worker pool owned (and shut down)
            by this handle.
        queue_depth: bound on in-flight (submitted, not yet processed)
            frames; ``submit`` beyond it blocks the producer.
        watchdog_timeout: no-progress bound for blocked ``submit`` /
            ``flush`` waits (None disables).
        perf: recorder for the serving counters (default process-wide).
        on_result: optional callback invoked with each
            :class:`FrameResult` as its frame completes, on the drain
            worker (the benchmark's ingest-latency probe).
        on_reject: optional callback invoked with each frame dropped for
            an expired deadline (on the drain worker), after the
            rejection was counted as ``serve.deadline_rejections`` — the
            server releases the frame's admission slot here.
    """

    def __init__(
        self,
        registry: SessionRegistry,
        session_id: str,
        pool: IngestPool | None = None,
        queue_depth: int = 8,
        watchdog_timeout: float | None = None,
        perf: PerfRecorder | None = None,
        on_result=None,
        on_reject=None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise ValueError("watchdog_timeout must be positive (or None to disable)")
        self.registry = registry
        self.session_id = session_id
        self._own_pool = pool is None
        self.pool = pool or IngestPool(workers=1)
        self.queue_depth = queue_depth
        self.watchdog_timeout = watchdog_timeout
        self.perf = perf or global_recorder()
        self.on_result = on_result
        self.on_reject = on_reject
        self._cond = threading.Condition()
        self._enqueued = 0
        self._processed = 0
        self._depth_high_water = 0
        self._drain_scheduled = False
        self._error: BaseException | None = None
        self._closed = False
        # Frames submitted while the session was parked, oldest first, and
        # what submit needs to queue one without the session: its
        # intrinsics and the index the next frame takes.  Both are learnt
        # from the last submit that reached the session.
        self._backlog: list = []
        self._intrinsics = None
        self._next_index: int | None = None

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Frames submitted but not yet processed."""
        with self._cond:
            return self._enqueued - self._processed

    def submit(self, frame, deadline: float | None = None) -> int:
        """Enqueue one frame for asynchronous processing; return its index.

        Returns as soon as the frame is queued — tracking and mapping run
        on the ingest pool.  Blocks only for back-pressure (the bounded
        queue is full) or a failed session (the drain error re-raises
        here).  Frames are processed strictly in submission order.

        ``deadline`` (absolute, ``time.monotonic`` clock) bounds the
        frame's queue wait: if it expires before the drain worker starts
        the frame, the frame is rejected whole — never half-ingested —
        counted as ``serve.deadline_rejections`` and reported through
        ``on_reject``.  The returned index is provisional when deadlines
        are in play (an earlier rejection shifts later frames down).

        A frame for a parked session waits in the handle's backlog (after
        the same validation ``feed_nowait`` runs), and the drain worker
        resumes the session: the producer never waits for a resume, nor
        for the park of another session that the resume evicts.  A failed
        resume then surfaces from the next ``submit`` or ``flush``, like
        any other drain failure.
        """
        with self._cond:
            self._raise_error()
            if self._closed:
                raise RuntimeError(f"handle for session {self.session_id!r} is closed")
            if self._enqueued - self._processed >= self.queue_depth:
                self.perf.count("serve.backpressure_waits")
                self._wait_for_progress(
                    lambda: self._enqueued - self._processed < self.queue_depth,
                    "the ingestion queue full",
                )
            if self._next_index is not None and (
                self._backlog or self.registry.is_parked(self.session_id)
            ):
                check_frame(frame, self._intrinsics)
                index = self._next_index
                self._backlog.append((frame, deadline))
            else:
                with self.registry.checkout(self.session_id) as session:
                    index = session.feed_nowait(frame, deadline=deadline)
                    self._intrinsics = session.intrinsics
            self._next_index = index + 1
            self._enqueued += 1
            depth = self._enqueued - self._processed
            if depth > self._depth_high_water:
                self.perf.count("serve.queue_depth", depth - self._depth_high_water)
                self._depth_high_water = depth
            if not self._drain_scheduled:
                self._drain_scheduled = True
                self.pool.submit(self._drain)
        return index

    def flush(self) -> None:
        """Block until every submitted frame has been processed.

        Re-raises the first drain failure, if any (after which the
        unprocessed frames stay queued on the session).
        """
        with self._cond:
            self._wait_for_progress(
                lambda: self._enqueued - self._processed == 0,
                "frames still queued",
            )

    def result(self):
        """Flush, then return the session's finalized ``SlamResult``."""
        self.flush()
        return self.registry.result(self.session_id)

    def park(self):
        """Flush, then park the session to the registry's lot."""
        self.flush()
        return self.registry.park(self.session_id)

    def drain_until(self, deadline: float) -> bool:
        """Wait (until the absolute monotonic ``deadline``) for the queue
        to empty; return whether it did.

        The graceful-drain half of ``SlamServer.stop``: unlike
        :meth:`flush` this never raises — a failed session or an expired
        deadline returns ``False``, and the caller decides whether to
        shed what remains.
        """
        with self._cond:
            while self._enqueued - self._processed > 0:
                if self._error is not None:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))
            return True

    def shed_pending(self) -> int:
        """Drop every still-queued frame; return how many were shed.

        Load shedding for a drain past its deadline: queued frames are
        cleared whole (no tracking or mapping state is touched, so the
        session stays checkpointable), counted both as processed — a
        concurrent :meth:`flush` must not wait for frames that will never
        run — and as ``serve.shed_frames``.  A frame the drain worker
        already started is *not* shed; flush afterwards to let that
        straggler finish.
        """
        with self._cond:
            with self.registry.checkout(self.session_id) as session:
                dropped = session.clear_pending()
            shed = len(dropped) + len(self._backlog)
            self._backlog.clear()
            if shed:
                self._processed += shed
                self.perf.count("serve.shed_frames", shed)
                self._cond.notify_all()
            return shed

    def close(self) -> None:
        """Flush and detach (shuts the pool down if the handle owns it)."""
        try:
            self.flush()
        finally:
            with self._cond:
                self._closed = True
            if self._own_pool:
                self.pool.shutdown()

    def __enter__(self) -> "AsyncSessionHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Waiting (condition held)
    # ------------------------------------------------------------------
    def _raise_error(self) -> None:
        if self._error is not None:
            raise self._error

    def _wait_for_progress(self, done, what: str) -> None:
        """Wait until ``done()``; watchdog no-progress raises (cond held)."""
        while not done():
            self._raise_error()
            before = self._processed
            signalled = self._cond.wait(self.watchdog_timeout)
            self._raise_error()
            if (
                self.watchdog_timeout is not None
                and not signalled
                and self._processed == before
            ):
                self.perf.count("session.watchdog_timeouts")
                raise StageTimeoutError(
                    f"ingestion of session {self.session_id!r} made no progress "
                    f"for {self.watchdog_timeout:g}s with {what}"
                )

    # ------------------------------------------------------------------
    # Drain worker (ingest pool)
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Process queued frames until none remain (one worker at a time).

        The ``_drain_scheduled`` flag guarantees a single live drain job
        per handle; the exit check under the condition closes the race
        with a concurrent ``submit`` (either the drain sees the new frame
        and continues, or the submit sees the cleared flag and schedules
        a fresh job — a queued frame is never left without a drainer).
        """
        try:
            while True:
                with self._cond:
                    if self._enqueued - self._processed == 0:
                        self._drain_scheduled = False
                        self._cond.notify_all()
                        return
                done = self._drain_batch()
                with self._cond:
                    if done == 0 and self._enqueued - self._processed > 0:
                        # Queued frames vanished without this worker
                        # processing them: something drained the session
                        # behind the handle's back (e.g. a direct
                        # registry.park on a session with in-flight
                        # frames).  Fail loudly instead of spinning on a
                        # queue that can never empty.
                        raise RuntimeError(
                            f"session {self.session_id!r} was drained outside "
                            f"its AsyncSessionHandle"
                        )
        except BaseException as exc:
            with self._cond:
                self._error = exc
                self._drain_scheduled = False
                self._cond.notify_all()

    def _drain_batch(self) -> int:
        """Drain the session's queue, one retried frame at a time.

        Counts how many queued frames left the queue — completions plus
        deadline rejections — as processed, and returns that count: a
        rejected frame must still unblock ``flush`` and back-pressured
        producers, and frames finished before a failing one still count
        (their results reach ``on_result`` too), so a failed handle can
        still be shed and closed.
        """
        rejected: list = []

        def reject(frame) -> None:
            rejected.append(frame)
            self.perf.count("serve.deadline_rejections")
            if self.on_reject is not None:
                self.on_reject(frame)

        results: list = []
        policy = RetryPolicy()
        try:
            with self.registry.checkout(self.session_id) as session:
                with self._cond:  # submit appends under it: order is kept
                    for frame, deadline in self._backlog:
                        session.feed_nowait(frame, deadline=deadline)
                    self._backlog.clear()
                while session.pending_count > 0:
                    results.extend(
                        session.retry_frame(
                            lambda: session.drain_pending(max_frames=1, on_reject=reject),
                            policy,
                        )
                    )
        finally:
            if self.on_result is not None:
                for frame_result in results:
                    self.on_result(frame_result)
            done = len(results) + len(rejected)
            with self._cond:
                self._processed += done
                self._cond.notify_all()
        return done
