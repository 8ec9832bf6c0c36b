"""The network-facing frame-ingestion API (stdlib only).

A thin HTTP layer over the serving tier — ``http.server`` plus JSON and
raw-buffer frame payloads, no dependencies beyond the standard library:

* ``POST /sessions`` — JSON spec ``{"session_id", "algorithm", "width",
  "height", ...}`` opens (or transparently resumes) a session, routed to
  its shard by :func:`repro.serve.shard.shard_index`.
* ``POST /sessions/<id>/frames`` — one RGB-D frame as a raw-buffer
  body (:func:`encode_frame`); enqueued asynchronously, responds with
  the frame's assigned index before tracking/mapping run.
* ``GET /sessions/<id>/result`` — flushes the queue and returns the
  finalized result as JSON (:func:`result_to_payload`).
* ``POST /sessions/<id>/park`` — flushes, then parks the session's
  bit-exact state to the shared lot; the next frame resumes it.
* ``GET /healthz`` — liveness: registry occupancy, queued frames,
  admission/shed tallies, drain status.
* ``GET /sessions`` — live and parked session ids.

Overload taxonomy (PR 10).  The server *sheds* excess work loudly
instead of queueing it:

* ``429`` + ``Retry-After`` — the :class:`AdmissionController` refused
  the frame (per-client rate limit or global in-flight budget).
* ``413`` — the declared ``Content-Length`` exceeds ``max_body_bytes``;
  the body is never read.
* ``503`` + ``Retry-After`` — the server is draining
  (:meth:`SlamServer.stop` with a ``drain_timeout``) and admits no new
  work; reads (``/healthz``, ``/result``) still answer.
* ``400`` — an undecodable frame body (e.g. a mid-upload disconnect
  truncated it, so its length disagrees with its header); the frame was
  never admitted into a session.  A
  malformed ``POST /sessions`` spec (not a JSON object, or a key the
  session builder does not accept) is refused the same way, naming the
  offending key, and registers nothing.

A transient failure while a queued frame is processed (an injected
stage fault, say) never reaches the client: the session's
:class:`AsyncSessionHandle` rolls that one frame back and retries it.
Only an exhausted retry budget fails the session, and its later
requests answer ``500`` with kind ``FatalError``.

Per-frame deadlines ride the ``X-Deadline-Ms`` request header: a frame
whose deadline expires while queued is rejected whole (never
half-ingested), reported in the 200 response of a later request only
via counters — the *submitting* POST already succeeded, which is the
documented at-most-once-ingestion contract of deadline shedding.

Wire format of a frame body (``Content-Type:
application/x-repro-frame``): a 4-byte little-endian header length, a
JSON header carrying ``index``, ``timestamp``, ``pose`` (the 7-vector
of :meth:`Pose.as_vector`) and per-array ``shape`` and ``dtype``, then
the raw C-order ``color`` and ``depth`` buffers.  Only little-endian
float32 and float64 arrays are accepted, and each keeps its dtype.
:func:`decode_frame` checks the header against the body length before
it allocates anything and raises ``ValueError`` on any mismatch, which
the server answers with ``400``.

Bit-identity survives the wire: frames cross as their raw bytes, and
results cross as JSON whose floats round-trip exactly (Python
serializes floats via ``repr``, which is shortest-round-trip), so a
trajectory fetched over HTTP is bit-identical to one computed
in-process — ``tests/test_serve.py`` asserts it.  With
``admission=None`` (the default) and no deadlines the PR 10 layer is
fully disarmed and the server behaves exactly like the PR 9 one.

:class:`SlamClient` is the matching stdlib client
(:mod:`urllib.request`), used by the example and the tests.
"""

from __future__ import annotations

import json
import math
import struct
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.datasets.sequences import RGBDFrame
from repro.errors import OverloadError, ReproError
from repro.gaussians.camera import Pose
from repro.perf import PerfRecorder, global_recorder
from repro.serve.admission import AdmissionController
from repro.serve.ingest import AsyncSessionHandle, IngestPool
from repro.serve.shard import ShardedRegistry, shard_index
from repro.slam.results import SlamResult

__all__ = [
    "SlamClient",
    "SlamClientError",
    "SlamServer",
    "decode_frame",
    "default_session_factory",
    "encode_frame",
    "result_to_payload",
]

# Wire format of one frame: a little-endian uint32 header length, that
# many bytes of ASCII JSON header, then the raw C-order color and depth
# buffers back to back.
_HEADER_LENGTH = struct.Struct("<I")
# The dtypes the systems consume.  A frame keeps its own dtype on the
# wire, so a float32 frame is decoded as float32, never widened.
WIRE_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
FRAME_CONTENT_TYPE = "application/x-repro-frame"
_WIRE_ARRAYS = ("color", "depth")


# ---------------------------------------------------------------------------
# Wire codecs
# ---------------------------------------------------------------------------
def _wire_array(name: str, array) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype.str not in WIRE_DTYPES:
        raise ValueError(
            f"frame {name} has dtype {array.dtype.str}; the wire carries "
            f"only {sorted(WIRE_DTYPES)}"
        )
    return np.ascontiguousarray(array)


def encode_frame(frame: RGBDFrame) -> bytes:
    """Pack one RGB-D frame as a header-plus-raw-buffers payload.

    Lossless: the arrays travel as their raw little-endian bytes (NaN
    payloads and signed zeros included) and the scalars as JSON, whose
    floats round-trip exactly.
    """
    arrays = [_wire_array(name, getattr(frame, name)) for name in _WIRE_ARRAYS]
    header = {
        "index": int(frame.index),
        "timestamp": float(frame.timestamp),
        "pose": frame.gt_pose.as_vector().tolist(),
    }
    for name, array in zip(_WIRE_ARRAYS, arrays):
        header[name] = {"shape": list(array.shape), "dtype": array.dtype.str}
    head = json.dumps(header, separators=(",", ":")).encode("ascii")
    return b"".join([_HEADER_LENGTH.pack(len(head)), head, *arrays])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _array_spec(header: dict, name: str) -> tuple[np.dtype, tuple, int]:
    """Validate one array's declared ``(dtype, shape)``; return its byte size."""
    spec = header.get(name)
    if not isinstance(spec, dict):
        raise ValueError(f"frame header has no {name} spec")
    dtype = spec.get("dtype")
    shape = spec.get("shape")
    if not isinstance(dtype, str) or dtype not in WIRE_DTYPES:
        raise ValueError(f"frame {name} dtype {dtype!r} is not one of {sorted(WIRE_DTYPES)}")
    if not isinstance(shape, list) or not all(_is_int(n) and n >= 0 for n in shape):
        raise ValueError(f"frame {name} shape {shape!r} is not a list of sizes")
    dtype = WIRE_DTYPES[dtype]
    return dtype, tuple(shape), math.prod(shape) * dtype.itemsize


def decode_frame(data: bytes) -> RGBDFrame:
    """Inverse of :func:`encode_frame` (bit-exact round trip).

    Raises ``ValueError`` — and nothing else — on any malformed payload:
    a truncated body, an unreadable header, an unknown dtype, or a body
    whose length disagrees with the header.  The length check runs
    before any array is allocated, so a header declaring a huge shape
    costs nothing.
    """
    view = memoryview(data)
    if len(view) < _HEADER_LENGTH.size:
        raise ValueError(f"frame body of {len(view)} bytes has no header length")
    (head_size,) = _HEADER_LENGTH.unpack_from(view)
    body_start = _HEADER_LENGTH.size + head_size
    if body_start > len(view):
        raise ValueError(
            f"frame header of {head_size} bytes overruns the {len(view)}-byte body"
        )
    try:
        # Malformed JSON or UTF-8 raises ValueError subclasses already.
        header = json.loads(bytes(view[_HEADER_LENGTH.size : body_start]))
    except RecursionError:
        raise ValueError("frame header nests too deeply") from None
    if not isinstance(header, dict):
        raise ValueError("frame header is not a JSON object")
    index, timestamp, pose = header.get("index"), header.get("timestamp"), header.get("pose")
    if not _is_int(index) or not _is_number(timestamp):
        raise ValueError("frame header needs an integer index and a numeric timestamp")
    if not isinstance(pose, list) or len(pose) != 7 or not all(map(_is_number, pose)):
        raise ValueError("frame header pose is not a 7-vector")
    specs = [_array_spec(header, name) for name in _WIRE_ARRAYS]
    expected = body_start + sum(size for _dtype, _shape, size in specs)
    if expected != len(view):
        raise ValueError(
            f"frame body is {len(view)} bytes, its header declares {expected}"
        )
    arrays = []
    offset = body_start
    for dtype, shape, size in specs:
        # Copied out of the request body, so the frame owns aligned,
        # writable memory and the body can be freed.  A bytearray copy
        # holds the GIL throughout, where an ndarray copy would release
        # and re-acquire it behind the busy ingest workers.
        chunk = bytearray(view[offset : offset + size])
        arrays.append(np.frombuffer(chunk, dtype=dtype).reshape(shape))
        offset += size
    color, depth = arrays
    try:
        pose, timestamp = np.array(pose, dtype=np.float64), float(timestamp)
    except OverflowError:
        raise ValueError("frame header holds a number beyond float64") from None
    return RGBDFrame(
        index=index,
        color=color,
        depth=depth,
        gt_pose=Pose.from_vector(pose),
        timestamp=timestamp,
    )


def result_to_payload(result: SlamResult) -> dict:
    """A ``SlamResult`` as a JSON-able dict (floats round-trip exactly).

    Carries the trajectory and the per-frame scalar outcomes; the final
    Gaussian map and workload traces stay server-side (fetch a parked
    checkpoint for those).
    """
    frames = []
    for frame in result.frames:
        frames.append(
            {
                "frame_index": frame.frame_index,
                "estimated_pose": frame.estimated_pose.as_vector().tolist(),
                "tracking_iterations": frame.tracking_iterations,
                "mapping_iterations": frame.mapping_iterations,
                "tracking_loss": frame.tracking_loss,
                "mapping_loss": frame.mapping_loss,
                "used_coarse_only": frame.used_coarse_only,
                "is_keyframe": frame.is_keyframe,
                "covisibility": frame.covisibility,
                "num_gaussians": frame.num_gaussians,
                "gaussians_skipped": frame.gaussians_skipped,
                "degraded": frame.degraded,
                "fallbacks_used": frame.fallbacks_used,
                "relocalized": frame.relocalized,
            }
        )
    return {
        "algorithm": result.algorithm,
        "sequence": result.sequence,
        "num_frames": len(result.frames),
        "frames": frames,
    }


def default_session_factory(spec: dict):
    """Build a zero-arg session factory from a ``POST /sessions`` spec.

    ``spec`` must name the ``algorithm`` and the camera geometry
    (``width``, ``height``, optional ``fov_x_deg``); every remaining key
    is forwarded to :func:`repro.eval.service.build_session` (iteration
    budgets, AGS knobs, ...).  A key ``build_session`` does not accept
    raises ``ValueError`` here, before any session is registered.
    Imported lazily: the service layer itself depends on
    :mod:`repro.serve.registry`.
    """
    from repro.eval.service import SESSION_OPTIONS, build_session
    from repro.gaussians.camera import Intrinsics

    spec = dict(spec)
    spec.pop("session_id", None)
    try:
        algorithm = spec.pop("algorithm")
        width = int(spec.pop("width"))
        height = int(spec.pop("height"))
    except KeyError as exc:
        raise ValueError(f"session spec is missing {exc.args[0]!r}") from None
    fov_x_deg = float(spec.pop("fov_x_deg", 75.0))
    # ``perf`` is a process-side recorder, not something a wire spec can
    # carry, so it is not among the options.
    unknown = sorted(set(spec) - set(SESSION_OPTIONS))
    if unknown:
        raise ValueError(
            f"session spec has unknown key(s) {unknown}; "
            f"accepted: {sorted(SESSION_OPTIONS)}"
        )
    intrinsics = Intrinsics.from_fov(width, height, fov_x_deg)
    return lambda: build_session(algorithm, intrinsics, **spec)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------
class SlamServer:
    """The serving frontend: HTTP ingestion over a sharded registry.

    Args:
        registry: shard set to serve (``None`` builds one from
            ``num_shards`` / ``max_live`` / ``park_root`` and owns it).
        host, port: bind address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        session_factory: maps a ``POST /sessions`` JSON spec to a
            zero-arg session factory (default
            :func:`default_session_factory`).
        queue_depth / watchdog_timeout: per-session
            :class:`AsyncSessionHandle` knobs (every handle retries
            transient drain failures frame by frame).
        pool_workers: drain workers shared by all sessions.
        admission: optional :class:`AdmissionController` shedding frame
            POSTs (429) under per-client rate limits or the global
            in-flight budget.  ``None`` (default) disarms admission
            entirely — the server behaves exactly like the PR 9 one.
        max_body_bytes: declared-``Content-Length`` cap; larger request
            bodies are refused with 413 before a byte is read.
        max_live_gaussians / max_live_bytes: per-shard memory-pressure
            parking budgets forwarded to an owned registry.
    """

    def __init__(
        self,
        registry: ShardedRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int = 2,
        max_live: int = 8,
        park_root=None,
        session_factory=default_session_factory,
        queue_depth: int = 8,
        watchdog_timeout: float | None = None,
        pool_workers: int = 4,
        perf: PerfRecorder | None = None,
        admission: AdmissionController | None = None,
        max_body_bytes: int = 64 * 1024 * 1024,
        max_live_gaussians: int | None = None,
        max_live_bytes: int | None = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self._own_registry = registry is None
        self.registry = registry or ShardedRegistry(
            num_shards=num_shards,
            max_live=max_live,
            park_root=park_root,
            perf=perf,
            max_live_gaussians=max_live_gaussians,
            max_live_bytes=max_live_bytes,
        )
        self.session_factory = session_factory
        self.queue_depth = queue_depth
        self.watchdog_timeout = watchdog_timeout
        self.perf = perf
        self.admission = admission
        self.max_body_bytes = max_body_bytes
        self.drain_retry_after = 0.1
        self.pool = IngestPool(workers=pool_workers)
        self._handles: dict[str, AsyncSessionHandle] = {}
        self._handles_lock = threading.Lock()
        self._draining = False
        self._stats_lock = threading.Lock()
        self._deadline_rejections = 0
        self._drain_report: dict | None = None
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(self))
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> str:
        """Serve on a background thread; returns the base URL."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="slam-server", daemon=True
            )
            self._thread.start()
        return self.address

    def stop(self, park_live: bool = False, drain_timeout: float | None = None) -> dict | None:
        """Stop serving and release every session (idempotent).

        With ``drain_timeout`` set, performs a *graceful drain* first
        and returns a report of what happened:

        1. stop admitting — every new POST answers 503 (+``Retry-After``)
           while reads keep working;
        2. wait up to ``drain_timeout`` seconds (total, across sessions)
           for queued frames to finish through the ordinary drain path;
        3. past the deadline, *shed* whatever is still queued — counted
           loudly as ``serve.shed_frames``, admission slots returned —
           letting only the already-started frame finish;
        4. park every live session through the atomic checkpoint path
           (``serve.drain_parked``), so a restarted server resumes each
           stream bit-identically from the shared lot.

        The report maps ``drained_sessions`` / ``shed_frames`` /
        ``parked_sessions`` / ``failed_sessions``; without
        ``drain_timeout`` the PR 9 behavior (and ``None`` return) is
        unchanged.  Note an owned temporary ``park_root`` is deleted on
        shutdown — point ``park_root`` somewhere durable for the parked
        state to outlive the server.
        """
        report: dict | None = None
        if drain_timeout is not None and self._thread is not None:
            report = self._graceful_drain(drain_timeout)
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self.pool.shutdown()
        if self._own_registry:
            self.registry.shutdown(park_live=park_live)
        return report

    def _graceful_drain(self, drain_timeout: float) -> dict:
        """Drain-then-shed-then-park (the body of a graceful ``stop``)."""
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        self._draining = True
        recorder = self.perf if self.perf is not None else global_recorder()
        report = {
            "drained_sessions": 0,
            "shed_frames": 0,
            "parked_sessions": 0,
            "failed_sessions": 0,
        }
        deadline = time.monotonic() + drain_timeout
        with self._handles_lock:
            handles = dict(self._handles)
        for handle in handles.values():
            if handle.drain_until(deadline):
                report["drained_sessions"] += 1
                continue
            shed = handle.shed_pending()
            report["shed_frames"] += shed
            if self.admission is not None and shed:
                self.admission.release(shed)
            # The drain worker may still be feeding the one frame it had
            # already started when the deadline hit; shedding cleared the
            # queue behind it, so this wait is bounded by a single frame
            # (or returns immediately if the session is failed).
            handle.drain_until(max(deadline, time.monotonic() + 2.0))
        for session_id in list(self.registry.live_ids()):
            try:
                self.registry.park(session_id)
                report["parked_sessions"] += 1
                recorder.count("serve.drain_parked")
            except (KeyError, ValueError, ReproError):
                # Raced an eviction-park, or the session is failed /
                # still pinned: report it rather than abort the drain.
                report["failed_sessions"] += 1
        with self._stats_lock:
            self._drain_report = dict(report)
        return report

    def __enter__(self) -> "SlamServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request handling (called from server threads)
    # ------------------------------------------------------------------
    def _handle(self, session_id: str) -> AsyncSessionHandle:
        with self._handles_lock:
            handle = self._handles.get(session_id)
            if handle is None:
                raise KeyError(f"unknown session {session_id!r}")
            return handle

    def _frame_done(self, frame_result) -> None:
        """Drain-worker callback: a queued frame completed."""
        if self.admission is not None:
            self.admission.release()

    def _frame_rejected(self, frame) -> None:
        """Drain-worker callback: a queued frame missed its deadline."""
        with self._stats_lock:
            self._deadline_rejections += 1
        if self.admission is not None:
            self.admission.release()

    def create_session(self, spec: dict) -> dict:
        if not isinstance(spec, dict):
            raise ValueError(
                f"session spec must be a JSON object, got {type(spec).__name__}"
            )
        session_id = spec.get("session_id")
        if not session_id or not isinstance(session_id, str):
            raise ValueError("session spec needs a non-empty string 'session_id'")
        factory = self.session_factory(spec)
        opened = self.registry.open(session_id, factory, sequence_name=session_id)
        with self._handles_lock:
            if session_id not in self._handles:
                self._handles[session_id] = AsyncSessionHandle(
                    self.registry,
                    session_id,
                    pool=self.pool,
                    queue_depth=self.queue_depth,
                    watchdog_timeout=self.watchdog_timeout,
                    perf=self.perf,
                    on_result=self._frame_done,
                    on_reject=self._frame_rejected,
                )
        return {
            "session_id": session_id,
            "shard": shard_index(session_id, self.registry.num_shards),
            "created": opened.created,
            "resumed": opened.resumed,
        }

    def ingest_frame(
        self,
        session_id: str,
        body: bytes,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        handle = self._handle(session_id)  # unknown session -> 404, no slot taken
        if self.admission is not None:
            self.admission.admit(client_id)
        try:
            # A torn or garbled body raises ValueError (400) before the
            # frame touches a session.
            frame = decode_frame(body)
            deadline = (
                time.monotonic() + deadline_ms / 1000.0
                if deadline_ms is not None
                else None
            )
            index = handle.submit(frame, deadline=deadline)
        except BaseException:
            if self.admission is not None:
                self.admission.release()
            raise
        return {"session_id": session_id, "index": index}

    def session_result(self, session_id: str) -> dict:
        return result_to_payload(self._handle(session_id).result())

    def park_session(self, session_id: str) -> dict:
        path = self._handle(session_id).park()
        return {"session_id": session_id, "parked": True, "generation": path.name}

    def health(self) -> dict:
        """The ``GET /healthz`` payload: occupancy, queues, shed tallies."""
        with self._handles_lock:
            depths = {sid: handle.in_flight for sid, handle in self._handles.items()}
        with self._stats_lock:
            deadline_rejections = self._deadline_rejections
            drain_report = self._drain_report
        return {
            "status": "draining" if self._draining else "ok",
            "registry": self.registry.stats(),
            "queued_frames": sum(depths.values()),
            "queue_depths": depths,
            "deadline_rejections": deadline_rejections,
            "admission": None if self.admission is None else self.admission.stats(),
            "drain": drain_report,
        }

    def list_sessions(self) -> dict:
        """The ``GET /sessions`` payload: live and parked ids."""
        return {
            "live": self.registry.live_ids(),
            "parked": self.registry.parked_ids(),
        }


class _BodyTooLarge(Exception):
    """Declared Content-Length exceeds the server's body cap (-> 413)."""

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"request body of {length} bytes exceeds the {limit}-byte cap"
        )


def _make_handler(server: SlamServer):
    """Bind a ``BaseHTTPRequestHandler`` subclass to one server."""

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # HTTP access logs stay out of test/bench output

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            if length > server.max_body_bytes:
                raise _BodyTooLarge(length, server.max_body_bytes)
            if not length:
                return b""
            body = self.rfile.read(length)
            if len(body) != length:
                # The client disconnected mid-upload; the partial body
                # must never reach a session half-ingested.
                raise ValueError(
                    f"truncated request body ({len(body)}/{length} bytes)"
                )
            return body

        def _reply(
            self,
            status: int,
            payload: dict,
            headers: dict | None = None,
            close: bool = False,
        ) -> None:
            body = json.dumps(payload).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                if close:
                    # An unread request body would bleed into the next
                    # keep-alive request on this connection.
                    self.send_header("Connection", "close")
                    self.close_connection = True
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                # The client is gone (a chaos disconnect); dropping the
                # reply must not take the worker thread down with it.
                self.close_connection = True

        def _dispatch(self, method: str) -> None:
            try:
                parts = [p for p in self.path.split("/") if p]
                if method == "POST" and server.draining:
                    return self._reply(
                        503,
                        {"error": "server is draining, not admitting new work"},
                        headers={"Retry-After": f"{server.drain_retry_after:g}"},
                        close=True,
                    )
                if method == "GET" and parts == ["healthz"]:
                    return self._reply(200, server.health())
                if parts and parts[0] == "sessions":
                    if method == "GET" and len(parts) == 1:
                        return self._reply(200, server.list_sessions())
                    if method == "POST" and len(parts) == 1:
                        spec = json.loads(self._read_body().decode("utf-8"))
                        return self._reply(200, server.create_session(spec))
                    if len(parts) == 3:
                        session_id, action = parts[1], parts[2]
                        if method == "POST" and action == "frames":
                            deadline_ms = self.headers.get("X-Deadline-Ms")
                            return self._reply(
                                200,
                                server.ingest_frame(
                                    session_id,
                                    self._read_body(),
                                    client_id=self._client_id(),
                                    deadline_ms=(
                                        float(deadline_ms)
                                        if deadline_ms is not None
                                        else None
                                    ),
                                ),
                            )
                        if method == "GET" and action == "result":
                            return self._reply(200, server.session_result(session_id))
                        if method == "POST" and action == "park":
                            return self._reply(200, server.park_session(session_id))
                return self._reply(
                    404, {"error": f"no route {method} {self.path}"}
                )
            except _BodyTooLarge as exc:
                return self._reply(413, {"error": str(exc)}, close=True)
            except OverloadError as exc:
                return self._reply(
                    429,
                    {"error": str(exc), "kind": type(exc).__name__},
                    headers={"Retry-After": f"{exc.retry_after:g}"},
                    close=True,
                )
            except KeyError as exc:
                return self._reply(404, {"error": str(exc)}, close=True)
            except (ValueError, json.JSONDecodeError) as exc:
                return self._reply(400, {"error": str(exc)}, close=True)
            except ReproError as exc:
                return self._reply(
                    500, {"error": str(exc), "kind": type(exc).__name__}
                )

        def _client_id(self) -> str:
            """Rate-limiting identity: the X-Client-Id header or peer host."""
            return self.headers.get("X-Client-Id") or self.client_address[0]

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("POST")

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("GET")

    return _Handler


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
class SlamClientError(RuntimeError):
    """A non-2xx server answer, with the status and shed metadata.

    ``code`` is the HTTP status; ``retry_after`` carries the server's
    ``Retry-After`` hint in seconds (None when absent), so overload-aware
    callers (the chaos driver, backoff loops) can honor 429/503 shedding
    without parsing the message.  Subclasses ``RuntimeError`` with the
    same message format the PR 9 client raised.
    """

    def __init__(self, message: str, code: int, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


class SlamClient:
    """Minimal stdlib client for :class:`SlamServer` (urllib-based).

    ``client_id`` names this client to the server's admission controller
    (the ``X-Client-Id`` header); ``deadline_ms`` on :meth:`post_frame`
    bounds the frame's server-side queue wait.
    """

    def __init__(
        self, base_url: str, timeout: float = 60.0, client_id: str | None = None
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client_id = client_id

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None,
        content_type: str,
        extra_headers: dict | None = None,
    ) -> dict:
        headers = {"Content-Type": content_type} if body is not None else {}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        headers.update(extra_headers or {})
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            retry_after = exc.headers.get("Retry-After")
            raise SlamClientError(
                f"{method} {path} -> {exc.code}: {detail}",
                code=exc.code,
                retry_after=float(retry_after) if retry_after is not None else None,
            ) from None

    def create_session(self, session_id: str, algorithm: str, width: int, height: int, **spec) -> dict:
        """``POST /sessions`` — open (or resume) a session."""
        payload = dict(
            session_id=session_id, algorithm=algorithm, width=width, height=height, **spec
        )
        return self._request(
            "POST", "/sessions", json.dumps(payload).encode("utf-8"), "application/json"
        )

    def post_frame(
        self, session_id: str, frame: RGBDFrame, deadline_ms: float | None = None
    ) -> dict:
        """``POST /sessions/<id>/frames`` — enqueue one frame."""
        return self._request(
            "POST",
            f"/sessions/{session_id}/frames",
            encode_frame(frame),
            FRAME_CONTENT_TYPE,
            extra_headers=(
                {"X-Deadline-Ms": f"{deadline_ms:g}"} if deadline_ms is not None else None
            ),
        )

    def result(self, session_id: str) -> dict:
        """``GET /sessions/<id>/result`` — flush and fetch the result."""
        return self._request("GET", f"/sessions/{session_id}/result", None, "")

    def park(self, session_id: str) -> dict:
        """``POST /sessions/<id>/park`` — flush and park the session."""
        return self._request("POST", f"/sessions/{session_id}/park", b"", "application/json")

    def healthz(self) -> dict:
        """``GET /healthz`` — liveness, occupancy and shed tallies."""
        return self._request("GET", "/healthz", None, "")

    def sessions(self) -> dict:
        """``GET /sessions`` — live and parked session ids."""
        return self._request("GET", "/sessions", None, "")
