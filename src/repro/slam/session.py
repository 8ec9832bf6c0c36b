"""Streaming SLAM sessions: the shared frame-ingestion engine.

The paper's AGS pipeline is inherently *streaming* — CODEC motion vectors
arrive frame-by-frame and gate the tracking/mapping work — so every SLAM
system in this repo exposes the same incremental session API instead of
only a batch ``run(sequence)``:

* :class:`SlamSession` — the protocol: ``feed(frame)`` processes one
  RGB-D frame and returns its :class:`~repro.slam.results.FrameResult`;
  ``finalize()`` assembles the :class:`~repro.slam.results.SlamResult`
  accumulated so far; ``state()`` / ``restore(state)`` checkpoint and
  resume a session bit-exactly; ``run(sequence)`` is the batch
  compatibility shim implemented via ``feed``; ``map_models()`` lists
  the Gaussian models that make up the map.
* :class:`SessionRunner` — the shared engine the systems build on.  It
  owns the frame loop, result/trace accumulation, the frame counter and
  the repo's one transient-recovery mechanism (``retry_frame``: roll a
  failed frame back and retry it);
  systems only provide the per-frame sub-stages (``_track`` /
  ``_map``), the models that make up their map (``map_models``) and
  their checkpoint payload (``_state_payload`` / ``_restore_payload``).
  The 3DGS systems (``AgsSlam``, ``GaussianSlam``) do so through
  ``SplaTam``, the odometry systems (``OrbLiteSlam``,
  ``DroidLiteSlam``) through
  :class:`~repro.slam.odometry.OdometrySession`.
* :class:`SessionState` — an in-memory checkpoint;
  :func:`save_session_state` / :func:`load_session_state` persist it as
  a directory with one raw array blob plus a JSON manifest.

Checkpoints restore *bit-exactly*: resuming a session mid-sequence (in
the same or a freshly constructed, identically configured system) yields
the same trajectory, losses, covisibility decisions and traces as the
uninterrupted run.  ``tests/test_session.py`` property-tests this for
all five systems.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import json
import math
import os
import pathlib
import threading
import time
import zlib
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import CheckpointCorruptError, FatalError, RetryPolicy, TransientError
from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.slam.results import FrameResult, SlamResult
from repro.workloads import (
    FrameTrace,
    MappingWorkload,
    RenderWorkload,
    SequenceTrace,
    TrackingWorkload,
)

__all__ = [
    "SessionRunner",
    "SessionState",
    "SlamSession",
    "check_frame",
    "load_session_state",
    "pack_model",
    "pack_pose",
    "pack_rng",
    "restore_rng",
    "save_session_state",
    "unpack_model",
    "unpack_pose",
]

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_ARRAYS = "state.bin"
CHECKPOINT_FORMAT = "repro-slam-session"
# Version 2 added per-array CRC-32 checksums (and made both files atomic
# writes); version 3 replaced the compressed npz with one raw blob laid
# out by the manifest and stores history column by column.  Loading
# verifies the version exactly: a checkpoint from a different format
# generation is rejected as corrupt rather than risking a silently
# wrong partial restore.
CHECKPOINT_VERSION = 3


# ---------------------------------------------------------------------------
# Checkpoint packing helpers shared by the systems' payload builders
# ---------------------------------------------------------------------------
def pack_pose(pose: Pose | None) -> np.ndarray | None:
    """Pack a pose (or None) as a flat 7-vector for a checkpoint payload."""
    return None if pose is None else pose.as_vector()


def unpack_pose(vector: np.ndarray | None) -> Pose | None:
    """Restore a pose packed by :func:`pack_pose` bit-exactly."""
    return None if vector is None else Pose.from_vector(vector)


def pack_model(model: GaussianModel) -> dict:
    """Pack a Gaussian model as a dict of parameter arrays."""
    return {name: getattr(model, name).copy() for name in GaussianModel.PARAM_NAMES}


def unpack_model(payload: dict) -> GaussianModel:
    """Restore a Gaussian model packed by :func:`pack_model`."""
    return GaussianModel(
        **{name: np.asarray(payload[name]).copy() for name in GaussianModel.PARAM_NAMES}
    )


def pack_rng(rng: np.random.Generator) -> dict:
    """Snapshot a NumPy generator's bit-generator state (JSON-able)."""
    return copy.deepcopy(rng.bit_generator.state)


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`pack_rng` snapshot."""
    bit_generator = getattr(np.random, str(state["bit_generator"]))()
    bit_generator.state = copy.deepcopy(state)
    return np.random.Generator(bit_generator)


def check_frame(frame, intrinsics: Intrinsics) -> None:
    """Raise ``ValueError`` unless the frame fits ``intrinsics`` and its
    colour and depth are finite.

    Runs before a frame is queued or tracked, so a wrong-shaped or
    non-finite frame is refused at the boundary instead of failing
    inside the drain loop on every retry and wedging the queue behind
    it (the vectorized motion search assumes finite input).
    """
    height, width = intrinsics.height, intrinsics.width
    color_shape = np.shape(frame.color)
    depth_shape = np.shape(frame.depth)
    if color_shape != (height, width, 3) or depth_shape != (height, width):
        raise ValueError(
            f"frame shape mismatch: got color {color_shape} and depth "
            f"{depth_shape}, session expects {(height, width, 3)} and "
            f"{(height, width)}"
        )
    if not (np.isfinite(frame.color).all() and np.isfinite(frame.depth).all()):
        raise ValueError("frame colour or depth holds a non-finite value")


# ---------------------------------------------------------------------------
# Session state
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class SessionState:
    """A complete checkpoint of a streaming SLAM session.

    Attributes:
        algorithm: the owning system's algorithm name.
        sequence: sequence name the session was started with.
        next_index: index the next fed frame will receive.
        frames: per-frame results accumulated so far.
        traces: per-frame workload traces (None when not collected).
        payload: system-specific state (model, keyframes, optimizer
            moments, RNG states, reference frames, ...) as a nested dict
            of arrays / JSON-able scalars.
    """

    algorithm: str
    sequence: str
    next_index: int
    frames: list[FrameResult]
    traces: list[FrameTrace] | None
    payload: dict


@runtime_checkable
class SlamSession(Protocol):
    """Protocol all streaming SLAM systems implement (duck-typed)."""

    algorithm: str

    def begin(self, sequence_name: str = "stream") -> None: ...

    def feed(self, frame, index: int | None = None) -> FrameResult: ...

    def finalize(self) -> SlamResult: ...

    def state(self) -> SessionState: ...

    def restore(self, state: SessionState) -> None: ...

    def run(self, sequence, num_frames: int | None = None) -> SlamResult: ...

    def map_models(self) -> list[GaussianModel]: ...


class SessionRunner:
    """Shared streaming engine: frame loop, accumulation, checkpoints.

    Subclasses provide:

    * ``algorithm`` — class attribute naming the system.
    * ``reset()`` — clear all per-sequence state.
    * ``_track(index, frame)`` — the tracking sub-stage of one frame,
      returning an opaque system-specific handoff object.  It owns the
      tracking-side state (pose history, previous-frame references,
      velocity priors).
    * ``_map(index, frame, tracked)`` — the mapping/keyframe sub-stage,
      returning ``(FrameResult, FrameTrace | None)``.  It owns the
      mapping-side state and assembles the frame's results.
    * ``map_models()`` — the Gaussian models that make up the map (none
      for the systems that keep no map).
    * ``_state_payload()`` / ``_restore_payload(payload)`` — the
      system-specific checkpoint payload.

    and inherit ``begin`` / ``feed`` / ``finalize`` / ``state`` /
    ``restore`` / ``retry_frame`` plus the ``run(sequence)``
    compatibility shim.

    The ``_track``/``_map`` split is not a concurrency boundary — every
    frame runs both sub-stages back to back on the feeding thread.  It
    exists so fault injection can target one stage; ``retry_frame``
    rolls a frame that failed in either stage back before both re-run.
    """

    algorithm = "slam"

    def __init__(
        self,
        intrinsics: Intrinsics,
        collect_trace: bool = False,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.intrinsics = intrinsics
        self.collect_trace = collect_trace
        self.perf = perf or NULL_RECORDER
        self._session_sequence: str | None = None
        self._session_result: SlamResult | None = None
        self._session_trace: SequenceTrace | None = None
        self._next_index = 0
        # Deferred-ingestion seam (repro.serve): frames queued by
        # feed_nowait, consumed in order by drain_pending.  The lock only
        # guards the deque — producers may enqueue while one drainer
        # processes, which is what lets an ingestion worker overlap
        # mapping with frame arrival.
        self._pending: collections.deque = collections.deque()
        self._pending_lock = threading.Lock()
        self._ingress_index = 0
        self._drain_active = False

    # ------------------------------------------------------------------
    # Hooks implemented by the systems
    # ------------------------------------------------------------------
    def reset(self) -> None:  # pragma: no cover - overridden
        """Clear all per-sequence state (overridden by systems)."""

    def _track(self, index: int, frame):
        """Tracking sub-stage: estimate the frame's pose (overridden)."""
        raise NotImplementedError

    def _map(self, index: int, frame, tracked) -> tuple[FrameResult, FrameTrace | None]:
        """Mapping sub-stage: update the map, assemble results (overridden)."""
        raise NotImplementedError

    def _step(self, index: int, frame) -> tuple[FrameResult, FrameTrace | None]:
        """Process one frame sequentially: track, then map."""
        return self._map(index, frame, self._track(index, frame))

    def map_models(self) -> list[GaussianModel]:
        """The Gaussian models that make up the map (overridden by map-based systems)."""
        return []

    def _final_model(self) -> GaussianModel | None:
        """The map attached to the finalized result: the ``map_models()``
        concatenated, or None for a system that keeps no map."""
        models = self.map_models()
        if not models:
            return None
        model = models[0]
        for extra in models[1:]:
            model = model.extend(extra)
        return model

    def _state_payload(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    def _restore_payload(self, payload: dict) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------
    @property
    def next_frame_index(self) -> int:
        """Index the next fed frame will be processed as."""
        return self._next_index

    def begin(self, sequence_name: str = "stream") -> None:
        """Start a new streaming session (resets all sequence state)."""
        self.reset()
        self._session_sequence = sequence_name
        self._next_index = 0
        with self._pending_lock:
            self._pending.clear()
            self._ingress_index = 0
        self._session_result = SlamResult(algorithm=self.algorithm, sequence=sequence_name)
        self._session_trace = self._new_trace() if self.collect_trace else None

    def _new_trace(self) -> SequenceTrace:
        return SequenceTrace(
            sequence=self._session_sequence or "stream",
            algorithm=self.algorithm,
            width=self.intrinsics.width,
            height=self.intrinsics.height,
        )

    def feed(self, frame, index: int | None = None) -> FrameResult:
        """Ingest one RGB-D frame and return its :class:`FrameResult`.

        Frames must arrive in order; ``index`` (optional) asserts the
        caller and the session agree on the position.  The first ``feed``
        of a fresh system auto-begins a session named ``"stream"``.  A
        frame whose shapes disagree with the intrinsics, or whose colour
        or depth is not finite, raises ``ValueError`` before any work
        runs.
        """
        check_frame(frame, self.intrinsics)
        if self._session_result is None:
            self.begin()
        if index is not None and index != self._next_index:
            raise ValueError(
                f"out-of-order frame: got index {index}, expected {self._next_index}"
            )
        if self._pending and not self._drain_active:
            raise RuntimeError(
                f"{self.pending_count} queued frame(s) pending: a direct feed() would "
                "jump the ingestion queue — call drain_pending() first"
            )
        frame_result, frame_trace = self._step(self._next_index, frame)
        self._session_result.frames.append(frame_result)
        if self._session_trace is not None and frame_trace is not None:
            self._session_trace.frames.append(frame_trace)
        self._next_index += 1
        with self._pending_lock:
            self._ingress_index = self._next_index + len(self._pending)
        return frame_result

    # ------------------------------------------------------------------
    # Deferred ingestion: the async-serving seam (repro.serve.ingest)
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Frames queued by :meth:`feed_nowait` and not yet drained."""
        with self._pending_lock:
            return len(self._pending)

    def feed_nowait(
        self, frame, index: int | None = None, deadline: float | None = None
    ) -> int:
        """Queue one frame for deferred processing; return its index.

        The producer-side half of asynchronous ingestion: the frame is
        appended to the session's pending queue without running any
        tracking or mapping work, so the caller never blocks on the
        mapping stage.  A later :meth:`drain_pending` (typically on an
        ingestion worker) processes queued frames strictly in arrival
        order through the ordinary :meth:`feed` path, which is what makes
        queued ingestion bit-identical to synchronous feeding by
        construction.  ``index``, when given, asserts the producer and
        the session agree on the frame's position (queued frames count).

        ``deadline`` (absolute, on :func:`time.monotonic`'s clock) bounds
        how long the frame may wait in the queue: a frame whose deadline
        has passed when the drainer reaches it is rejected *before* any
        tracking or mapping work, never half-ingested.  Because rejected
        frames vanish from the stream, the returned index is provisional
        under deadline shedding — earlier rejections shift later queued
        frames down.

        A frame whose shapes disagree with the intrinsics, or whose
        colour or depth is not finite, raises ``ValueError`` and is never
        queued.

        Thread-safe against one concurrent drainer; multiple producers
        must serialize among themselves to keep arrival order defined.
        """
        check_frame(frame, self.intrinsics)
        if self._session_result is None:
            self.begin()
        with self._pending_lock:
            expected = self._ingress_index
            if index is not None and index != expected:
                raise ValueError(
                    f"out-of-order frame: got index {index}, expected {expected}"
                )
            self._pending.append((frame, deadline))
            self._ingress_index = expected + 1
        return expected

    def drain_pending(
        self, max_frames: int | None = None, on_reject=None
    ) -> list[FrameResult]:
        """Process queued frames in order; return their results.

        At most one drainer may run at a time (the serving tier's
        per-session ingestion worker enforces this).  If a frame's feed
        raises, the frame is pushed back to the queue head before the
        exception propagates, so a retrying drainer resumes at exactly
        the failed frame.

        A queued frame whose deadline (see :meth:`feed_nowait`) has
        already passed is dropped without feeding — no tracking or
        mapping state is touched, and later queued frames shift down one
        index — and ``on_reject(frame)``, when given, is notified per
        dropped frame (outside the queue lock).  Rejected frames do not
        count toward ``max_frames``.
        """
        results: list[FrameResult] = []
        while max_frames is None or len(results) < max_frames:
            with self._pending_lock:
                if not self._pending:
                    break
                frame, deadline = self._pending.popleft()
                expired = deadline is not None and time.monotonic() >= deadline
                if expired:
                    # The frame leaves the stream before any work ran, so
                    # the next queued frame takes its index.
                    self._ingress_index = self._next_index + len(self._pending)
            if expired:
                if on_reject is not None:
                    on_reject(frame)
                continue
            self._drain_active = True
            try:
                results.append(self.feed(frame))
            except BaseException:
                with self._pending_lock:
                    self._pending.appendleft((frame, deadline))
                raise
            finally:
                self._drain_active = False
        return results

    def clear_pending(self) -> list:
        """Drop every queued frame without feeding it; return the frames.

        The load-shedding half of a graceful drain: callers that must
        stop *now* (a draining server past its drain deadline) shed the
        queue loudly instead of racing the mapping stage.  No tracking or
        mapping state is touched, so the session remains checkpointable
        at its current stream position.
        """
        with self._pending_lock:
            dropped = [frame for frame, _deadline in self._pending]
            self._pending.clear()
            self._ingress_index = self._next_index
        return dropped

    def finalize(self) -> SlamResult:
        """Assemble the :class:`SlamResult` accumulated so far.

        Non-destructive: the session stays live and feeding may continue.
        The returned result is the session's *live* accumulator (further
        ``feed`` calls keep appending to it), not an immutable snapshot —
        use :meth:`state` for a frozen point-in-time copy.
        """
        if self._session_result is None:
            raise RuntimeError("no active session: call begin() or feed() first")
        result = self._session_result
        result.final_model = self._final_model()
        if self._session_trace is not None:
            result.trace = self._session_trace
        return result

    def run(self, sequence, num_frames: int | None = None) -> SlamResult:
        """Batch compatibility shim: feed every frame, then finalize."""
        self.begin(getattr(sequence, "name", "stream"))
        total = len(sequence) if num_frames is None else min(num_frames, len(sequence))
        for index in range(total):
            self.feed(sequence[index])
        return self.finalize()

    # ------------------------------------------------------------------
    # Frame-granular transient retry
    # ------------------------------------------------------------------
    def retry_frame(self, step, policy: RetryPolicy, on_retry=None):
        """Run one frame's work; on a transient failure roll back and retry.

        ``step()`` performs the work of one frame (a ``feed``, a one-frame
        ``drain_pending``, a source read plus ``feed``) and its return
        value is returned.  When it raises :class:`TransientError`, the
        session is rolled back to exactly where it stood before the call
        — a ``_map`` fault fires after ``_track`` already advanced the
        tracking state, so re-running the frame without the rollback
        would track it twice — and ``step`` runs again after
        ``policy.delay(n)`` seconds (``n`` the 0-based retry), calling
        ``on_retry()`` first when given.  Once ``policy.max_retries``
        retries of the frame have failed, :class:`FatalError` is raised
        from the last transient error, with the session rolled back.
        Other exceptions propagate unhandled.

        The rollback point is the history lengths plus the system
        payload, not a :meth:`state` snapshot: rolling back truncates the
        accumulated frames and traces in place (earlier results stay the
        same objects), so arming a frame costs one payload copy instead
        of a copy of the whole history.  The pending queue is left alone:
        :meth:`drain_pending` already pushes a failed frame back to its
        head.
        """
        if self._session_result is None:
            self.begin()
        trace = self._session_trace
        mark = (
            self._next_index,
            len(self._session_result.frames),
            None if trace is None else len(trace.frames),
            self._state_payload(),
        )
        retries = 0
        while True:
            try:
                return step()
            except TransientError as exc:
                self._roll_back(mark)
                if retries >= policy.max_retries:
                    raise FatalError(
                        f"frame {self._next_index} failed after "
                        f"{policy.max_retries} retries: {exc}"
                    ) from exc
            if on_retry is not None:
                on_retry()
            time.sleep(policy.delay(retries))
            retries += 1

    def _roll_back(self, mark) -> None:
        """Return the session to a :meth:`retry_frame` rollback point."""
        next_index, num_frames, num_traces, payload = mark
        del self._session_result.frames[num_frames:]
        if num_traces is not None:
            del self._session_trace.frames[num_traces:]
        self.reset()
        # Every payload restorer copies what it ingests, so the same
        # rollback point stays valid for the next retry.
        self._restore_payload(payload)
        self._next_index = next_index
        with self._pending_lock:
            self._ingress_index = next_index + len(self._pending)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self) -> SessionState:
        """Snapshot the session so it can be resumed later (or elsewhere).

        The snapshot owns copies of everything mutable, so continuing the
        live session does not invalidate it.  Frames queued by
        :meth:`feed_nowait` but not yet drained are in-flight *input*,
        not session state — they are excluded; a parking layer that must
        not drop them (:class:`repro.serve.registry.SessionRegistry`)
        drains the queue before snapshotting.
        """
        if self._session_result is None:
            raise RuntimeError("no active session: call begin() or feed() first")
        return SessionState(
            algorithm=self.algorithm,
            sequence=self._session_sequence or "stream",
            next_index=self._next_index,
            frames=copy.deepcopy(self._session_result.frames),
            traces=(
                copy.deepcopy(self._session_trace.frames)
                if self._session_trace is not None
                else None
            ),
            payload=self._state_payload(),
        )

    def restore(self, state: SessionState) -> None:
        """Resume from a checkpoint taken by :meth:`state`.

        The receiving system must be configured identically to the one
        that produced the checkpoint; subsequent ``feed`` calls then
        reproduce the uninterrupted run bit-for-bit.

        Restoring is a full replacement: any frames or traces this
        session accumulated before the call are discarded and the
        accumulators become exactly the snapshot's copies — restoring
        into a non-fresh session must never duplicate or interleave
        history.  Frames queued by :meth:`feed_nowait` are dropped, as a
        resume into a fresh stream position must.  The session takes the
        snapshot's trace setting (``collect_trace`` is whether the snapshot
        carries traces), so a parked session resumes as it was built.
        """
        if state.algorithm != self.algorithm:
            raise ValueError(
                f"checkpoint belongs to algorithm '{state.algorithm}', "
                f"this system is '{self.algorithm}'"
            )
        self.reset()
        self._session_sequence = state.sequence
        self._session_result = SlamResult(
            algorithm=self.algorithm,
            sequence=state.sequence,
            frames=copy.deepcopy(state.frames),
        )
        self.collect_trace = state.traces is not None
        if self.collect_trace:
            self._session_trace = self._new_trace()
            self._session_trace.frames = (
                [] if state.traces is None else copy.deepcopy(state.traces)
            )
        else:
            self._session_trace = None
        self._next_index = state.next_index
        with self._pending_lock:
            self._pending.clear()
            self._ingress_index = state.next_index
        # No defensive copy of the payload here: every restorer (model /
        # pose unpackers, component load_state_dicts) copies the arrays it
        # ingests, so the checkpoint stays reusable without paying for the
        # full map and keyframe images twice.
        self._restore_payload(state.payload)


# ---------------------------------------------------------------------------
# Disk checkpoint format: one directory with state.bin + manifest.json
# ---------------------------------------------------------------------------
def _plain(value):
    """A history scalar as its JSON-able Python value."""
    return value.item() if isinstance(value, np.generic) else value


def _externalize(value, path: str, arrays: dict):
    """Replace arrays in a nested payload with blob references."""
    if isinstance(value, np.ndarray):
        arrays[path] = value
        return {"__array__": path}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _externalize(v, f"{path}/{k}", arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_externalize(v, f"{path}/{i}", arrays) for i, v in enumerate(value)]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"unsupported checkpoint payload type at {path}: {type(value)!r}")


def _internalize(value, arrays):
    """Inverse of :func:`_externalize`."""
    if isinstance(value, dict):
        if set(value) == {"__array__"}:
            # A view into the loaded blob: every payload restorer copies
            # what it ingests, so the blob is freed once restore returns.
            return arrays[value["__array__"]]
        return {k: _internalize(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_internalize(v, arrays) for v in value]
    return value


# History is stored column by column: one JSON list per scalar field and
# one array per array field, however many frames the session has seen.
_FRAME_COLUMNS = tuple(
    field.name for field in dataclasses.fields(FrameResult) if field.name != "estimated_pose"
)
_TRACE_COLUMNS = tuple(
    field.name
    for field in dataclasses.fields(FrameTrace)
    if field.name not in ("tracking", "mapping")
)
_TRACKING_COLUMNS = tuple(
    field.name for field in dataclasses.fields(TrackingWorkload) if field.name != "refine_renders"
)
_MAPPING_COLUMNS = tuple(
    field.name for field in dataclasses.fields(MappingWorkload) if field.name != "renders"
)
_RENDER_COLUMNS = tuple(
    field.name for field in dataclasses.fields(RenderWorkload) if field.name != "per_tile_gaussians"
)


def _columns(records, names) -> dict:
    return {name: [_plain(getattr(record, name)) for record in records] for name in names}


def _rows(columns: dict, names, count: int) -> list[dict]:
    """Inverse of :func:`_columns`; a missing or short column raises."""
    for name in names:
        if len(columns[name]) != count:
            raise ValueError(f"column {name!r} holds {len(columns[name])} of {count} rows")
    return [{name: columns[name][row] for name in names} for row in range(count)]


def _frames_to_columns(frames: list[FrameResult], arrays: dict) -> dict:
    arrays["frames/estimated_pose"] = np.array(
        [frame.estimated_pose.as_vector() for frame in frames], dtype=np.float64
    ).reshape(len(frames), 7)
    return {"count": len(frames), "columns": _columns(frames, _FRAME_COLUMNS)}


def _frames_from_columns(entry: dict, arrays: dict) -> list[FrameResult]:
    count = entry["count"]
    poses = arrays["frames/estimated_pose"]
    if poses.shape != (count, 7):
        raise ValueError(f"pose column has shape {poses.shape}, expected ({count}, 7)")
    rows = _rows(entry["columns"], _FRAME_COLUMNS, count)
    return [
        FrameResult(estimated_pose=Pose.from_vector(pose), **row)
        for pose, row in zip(poses, rows)
    ]


def _traces_to_columns(traces: list[FrameTrace], arrays: dict) -> dict:
    # Renders of every frame, tracking before mapping, flattened in order.
    renders = [
        render
        for trace in traces
        for render in (*trace.tracking.refine_renders, *trace.mapping.renders)
    ]
    sizes = [len(render.per_tile_gaussians) for render in renders]
    arrays["traces/per_tile_gaussians"] = np.concatenate(
        [np.zeros(0, dtype=np.int64), *(render.per_tile_gaussians for render in renders)]
    )
    arrays["traces/per_tile_offsets"] = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    return {
        "count": len(traces),
        "columns": _columns(traces, _TRACE_COLUMNS),
        "tracking": _columns([trace.tracking for trace in traces], _TRACKING_COLUMNS),
        "mapping": _columns([trace.mapping for trace in traces], _MAPPING_COLUMNS),
        "tracking_renders": [len(trace.tracking.refine_renders) for trace in traces],
        "mapping_renders": [len(trace.mapping.renders) for trace in traces],
        "renders": _columns(renders, _RENDER_COLUMNS),
    }


def _traces_from_columns(entry: dict, arrays: dict) -> list[FrameTrace]:
    count = entry["count"]
    tracking_counts = entry["tracking_renders"]
    mapping_counts = entry["mapping_renders"]
    if len(tracking_counts) != count or len(mapping_counts) != count:
        raise ValueError("render counts do not cover every trace")
    total = sum(tracking_counts) + sum(mapping_counts)
    tiles = arrays["traces/per_tile_gaussians"]
    offsets = arrays["traces/per_tile_offsets"]
    if offsets.shape != (total + 1,) or offsets[0] != 0 or offsets[-1] != len(tiles):
        raise ValueError("per-tile offsets do not partition the per-tile column")
    # One copy of the (small) column, so the renders never pin the blob.
    per_tile = np.split(tiles.copy(), offsets[1:-1])
    renders = iter(
        RenderWorkload(per_tile_gaussians=tiles_of, **row)
        for tiles_of, row in zip(per_tile, _rows(entry["renders"], _RENDER_COLUMNS, total))
    )
    traces = []
    for row, tracking, mapping, n_tracking, n_mapping in zip(
        _rows(entry["columns"], _TRACE_COLUMNS, count),
        _rows(entry["tracking"], _TRACKING_COLUMNS, count),
        _rows(entry["mapping"], _MAPPING_COLUMNS, count),
        tracking_counts,
        mapping_counts,
    ):
        tracking_renders = [next(renders) for _ in range(n_tracking)]
        mapping_renders = [next(renders) for _ in range(n_mapping)]
        traces.append(
            FrameTrace(
                tracking=TrackingWorkload(refine_renders=tracking_renders, **tracking),
                mapping=MappingWorkload(renders=mapping_renders, **mapping),
                **row,
            )
        )
    return traces


def save_session_state(state: SessionState, directory) -> pathlib.Path:
    """Persist a :class:`SessionState` as ``state.bin`` + ``manifest.json``.

    Format v3.  Every array (maps, reference frames, optimizer moments,
    the history columns) goes into one uncompressed blob of raw buffers,
    back to back; the compact JSON manifest holds one
    ``[offset, dtype, shape, crc32]`` entry per array plus everything
    scalar, including the tree that stitches the payload arrays back
    together.  History is columnar: all estimated poses are one
    ``(n, 7)`` array and every trace's ``per_tile_gaussians`` share one
    concatenated array plus offsets, so the array count does not grow
    with the stream.  Both halves round-trip bit-exactly (raw bytes, and
    JSON preserves Python floats via ``repr``).

    The write is crash-safe: each file lands via a temporary sibling and
    :func:`os.replace`, and the manifest — which carries the checksums —
    is written *last*.  A crash at any point leaves either the previous
    complete checkpoint or a state the loader rejects as
    :class:`CheckpointCorruptError` (missing manifest, or a manifest
    whose layout or checksums do not match the blob); a torn checkpoint
    can never be silently restored.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "algorithm": state.algorithm,
        "sequence": state.sequence,
        "next_index": state.next_index,
        "frames": _frames_to_columns(state.frames, arrays),
        "traces": None if state.traces is None else _traces_to_columns(state.traces, arrays),
        "payload": _externalize(state.payload, "payload", arrays),
    }
    table = {}
    chunks = []
    offset = 0
    # Widest items first: with no padding, every array then starts
    # aligned to its own itemsize.
    for key, array in sorted(arrays.items(), key=lambda item: -item[1].dtype.itemsize):
        raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        table[key] = [offset, array.dtype.str, list(array.shape), zlib.crc32(raw)]
        chunks.append(raw)
        offset += raw.nbytes
    manifest["arrays"] = table
    atomic_write_bytes(directory / CHECKPOINT_ARRAYS, b"".join(chunks))
    atomic_write_text(
        directory / CHECKPOINT_MANIFEST, json.dumps(manifest, separators=(",", ":"))
    )
    return directory


def _blob_entries(table, directory) -> list[tuple[str, int, np.dtype, tuple, int, int]]:
    """Validate the manifest's array table; return ``(key, offset, dtype,
    shape, nbytes, crc32)`` per array.  Offsets must tile the blob exactly."""
    if not isinstance(table, dict):
        raise CheckpointCorruptError(f"{directory}: manifest has no array table")
    entries = []
    end = 0
    for key, entry in table.items():
        try:
            offset, dtype, shape, crc = entry
            dtype = np.dtype(dtype)
        except (TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"{directory}: malformed entry for array '{key}' ({exc})"
            ) from None
        if (
            dtype.hasobject
            or dtype.itemsize == 0
            or not isinstance(shape, list)
            or not all(type(n) is int and n >= 0 for n in shape)
        ):
            raise CheckpointCorruptError(f"{directory}: invalid layout for array '{key}'")
        shape = tuple(shape)
        if type(offset) is not int or offset != end:
            raise CheckpointCorruptError(
                f"{directory}: array '{key}' starts at byte {offset}, expected {end} "
                "(overlapping or gapped layout)"
            )
        nbytes = math.prod(shape) * dtype.itemsize
        entries.append((key, offset, dtype, shape, nbytes, crc))
        end += nbytes
    return entries


def load_session_state(directory) -> SessionState:
    """Load a checkpoint written by :func:`save_session_state`.

    Every integrity violation — missing directory or manifest, an
    unknown format or a version mismatch (v2 included), an array table
    whose offsets overlap or leave gaps, a blob that is truncated or has
    trailing bytes, an array failing its CRC-32, or history columns that
    do not fit together — raises
    :class:`repro.errors.CheckpointCorruptError`.  The blob is read once,
    and its layout and every checksum are verified *before* any state is
    built, so a corrupt checkpoint can never partially restore a
    session.  :class:`repro.serve.registry.ParkingLot` responds by
    falling back to an older checkpoint generation.
    """
    directory = pathlib.Path(directory)
    manifest_path = directory / CHECKPOINT_MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise CheckpointCorruptError(f"{directory}: missing {CHECKPOINT_MANIFEST}") from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptError(f"{directory}: unreadable manifest ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(f"{directory} is not a session checkpoint")
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointCorruptError(
            f"{directory}: checkpoint format version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    entries = _blob_entries(manifest.get("arrays"), directory)
    expected = sum(entry[4] for entry in entries)
    try:
        with open(directory / CHECKPOINT_ARRAYS, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size != expected:
                raise CheckpointCorruptError(
                    f"{directory}: {CHECKPOINT_ARRAYS} holds {size} bytes, "
                    f"the manifest lays out {expected}"
                )
            blob = bytearray(size)
            if handle.readinto(blob) != size:
                raise CheckpointCorruptError(f"{directory}: short read of {CHECKPOINT_ARRAYS}")
    except FileNotFoundError:
        raise CheckpointCorruptError(f"{directory}: missing {CHECKPOINT_ARRAYS}") from None
    except OSError as exc:
        raise CheckpointCorruptError(f"{directory}: unreadable {CHECKPOINT_ARRAYS} ({exc})") from exc
    view = memoryview(blob)
    arrays = {}
    for key, offset, dtype, shape, nbytes, expected_crc in entries:
        actual = zlib.crc32(view[offset : offset + nbytes])
        if actual != expected_crc:
            raise CheckpointCorruptError(
                f"{directory}: checksum mismatch for array '{key}' "
                f"({actual:#010x} != {expected_crc!r})"
            )
        arrays[key] = np.frombuffer(
            blob, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
        ).reshape(shape)
    try:
        return SessionState(
            algorithm=manifest["algorithm"],
            sequence=manifest["sequence"],
            next_index=int(manifest["next_index"]),
            frames=_frames_from_columns(manifest["frames"], arrays),
            traces=(
                None
                if manifest["traces"] is None
                else _traces_from_columns(manifest["traces"], arrays)
            ),
            payload=_internalize(manifest["payload"], arrays),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"{directory}: manifest history does not fit together ({exc!r})"
        ) from exc
