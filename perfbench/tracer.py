"""Outside-in layer tracer: spans around the public entry points of each layer.

Nothing here edits the program.  :meth:`Tracer.installed` swaps each
traced callable for a wrapper *where its caller looks it up* and puts the
original back on exit:

* methods are patched on their class (``GaussianPoseTracker.track``),
  so every instance sees the wrapper;
* functions imported by name are patched in the importing module:
  ``repro.slam.mapper.render`` and ``repro.slam.tracker.render`` are two
  bindings of one function and get two wrappers, so the trace can tell
  map-shaped renders from pose-shaped ones.  The dataset module's own
  ``render`` binding is left alone (frames are materialized in set-up
  anyway).

Each wrapper records a span: name, thread, start, end, parent span and
the frame it belongs to.  Parents come from a span stack kept per
thread, so a span's *self* time is its duration minus the time of its
direct children, and the self times of a tree add up to its root.
Spans of one frame share a ``(session, frame index)`` id: roots take it
from their arguments, children inherit it from their root.  Spans stay
in memory and are written out once, when the run ends
(:meth:`Tracer.write`).

Work counts come from two places: the program's own ``PerfRecorder``
counters (``raster.*``, ``codec.sad_evaluations``, ``serve.*``), passed
in through the public ``perf=`` arguments, and the return values of the
wrapped calls (iterations run, Gaussians skipped or added, bytes
encoded), picked up by each wrapper's ``info`` hook.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import threading
import time


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "start", "end", "child", "frame", "info")

    def __init__(self, sid: int, parent: int, name: str, thread: int) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0
        self.frame = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.queue_waits: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # session label -> FIFO of feed_nowait times, paired with the
        # start of the matching feed (frames drain strictly in order).
        self._enqueued: dict = collections.defaultdict(collections.deque)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, frame=None, info=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``frame(args, kwargs)`` runs before the call and returns the
        span's frame id (roots only; children inherit).  ``info(args,
        kwargs, result)`` runs after a successful call and returns the
        span's work counts; a ``"frame"`` entry in them replaces the frame
        id (for roots whose frame index is only known from the reply).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1].sid if stack else -1, name, threading.get_ident())
            if frame is not None:
                span.frame = frame(args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                self.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
                if "frame" in span.info:
                    span.frame = span.info.pop("frame")
            return result

        return traced

    # ------------------------------------------------------------------
    # Queue wait: feed_nowait -> start of the matching feed
    # ------------------------------------------------------------------
    def enqueued(self, label) -> None:
        with self._lock:
            self._enqueued[label].append(time.perf_counter())

    def dequeued(self, label) -> None:
        now = time.perf_counter()
        with self._lock:
            fifo = self._enqueued.get(label)
            if fifo:
                self.queue_waits.append(now - fifo.popleft())

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, patches):
        """Install ``(owner, attribute, wrapper)`` patches; undo them on exit."""
        saved = []
        try:
            for owner, attribute, wrapper in patches:
                saved.append((owner, attribute, getattr(owner, attribute)))
                setattr(owner, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def resolve_frames(self) -> None:
        """Give every child span the frame id of its nearest labelled ancestor."""
        by_id = {span.sid: span for span in self.spans}
        for span in sorted(self.spans, key=lambda s: s.sid):
            if span.frame is None and span.parent in by_id:
                span.frame = by_id[span.parent].frame

    def self_check(self, root: str) -> float:
        """Largest gap between a ``root`` span and the sum of its tree's self times."""
        children = collections.defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        worst = 0.0
        for span in self.spans:
            if span.name != root:
                continue
            total, todo = 0.0, [span]
            while todo:
                node = todo.pop()
                total += node.self_time
                todo.extend(children.get(node.sid, ()))
            worst = max(worst, abs(total - span.duration))
        return worst

    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds, run-relative)."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(
                    json.dumps(
                        {
                            "id": span.sid,
                            "parent": span.parent,
                            "name": span.name,
                            "thread": span.thread,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "self": span.self_time,
                            "frame": list(span.frame) if span.frame else None,
                            "info": span.info,
                        }
                    )
                    + "\n"
                )
