"""The serving chaos harness: hammer a server with over-capacity storms.

:func:`run_storm` drives ``num_clients`` concurrent HTTP clients against
one :class:`~repro.serve.api.SlamServer`, each streaming the same frame
sequence into its own session while misbehaving on a deterministic
schedule (:class:`~repro.faults.serving.ServingFaultPlan`): stalling
before frames, tearing uploads in half mid-body, and — simply by being
too many for the server's admission budget — triggering 429 shedding
storms.

The driver is the *well-behaved adversary* the overload invariants are
stated against:

* a shed frame (429/503) is retried after the server's ``Retry-After``
  hint until admitted or the attempt budget runs out — so "admitted"
  means *eventually answered 200*, and every admitted frame must land in
  the session exactly once;
* a torn upload is followed by a proper re-send of the same frame — so
  a correct server answers 400 to the torn half (nothing half-ingested)
  and 200 to the re-send, and the session stream stays gapless;
* per-admitted-POST latencies are recorded per client.

``tests/test_overload.py`` asserts on the report: a 3-client storm
against a one-slot budget in tier-1, and 8 clients against two slots on
two shards under ``-m slow``.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
import urllib.parse

from repro.faults.serving import ServingFaultPlan
from repro.serve.api import FRAME_CONTENT_TYPE, SlamClient, SlamClientError, encode_frame

__all__ = ["StormClientReport", "StormReport", "run_storm"]


@dataclasses.dataclass
class StormClientReport:
    """One storm client's outcome."""

    client_id: str
    session_id: str
    frames_admitted: int = 0
    sheds: int = 0  # 429/503 answers absorbed by the retry loop
    stalls: int = 0  # deliberate pre-frame freezes
    disconnects: int = 0  # deliberate torn uploads
    torn_rejections: int = 0  # 400s answered to torn uploads
    latencies: list = dataclasses.field(default_factory=list)
    result: dict | None = None
    error: str | None = None


@dataclasses.dataclass
class StormReport:
    """Aggregate outcome of one storm run."""

    num_clients: int
    num_frames: int
    clients: list = dataclasses.field(default_factory=list)


def _tear_upload(base_url: str, session_id: str, body: bytes, client_id: str) -> None:
    """Send a frame POST's headers plus half its body, then kill the socket.

    The raw-socket half-upload the ``client-disconnect`` plan schedules:
    the server sees a truncated ``Content-Length`` read and must refuse
    the frame whole (400) without crashing the worker thread.
    """
    parts = urllib.parse.urlsplit(base_url)
    with socket.create_connection(
        (parts.hostname, parts.port or 80), timeout=10.0
    ) as sock:
        head = (
            f"POST /sessions/{session_id}/frames HTTP/1.1\r\n"
            f"Host: {parts.hostname}:{parts.port or 80}\r\n"
            f"Content-Type: {FRAME_CONTENT_TYPE}\r\n"
            f"X-Client-Id: {client_id}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        sock.sendall(head.encode("ascii"))
        sock.sendall(body[: max(1, len(body) // 2)])
        # Closing here (the context manager) is the disconnect.


def _post_with_backoff(
    call, report: StormClientReport, max_attempts: int, fallback_wait: float
):
    """Run ``call`` honoring 429/503 Retry-After until admitted."""
    for _attempt in range(max_attempts):
        started = time.monotonic()
        try:
            payload = call()
        except SlamClientError as exc:
            if exc.code in (429, 503):
                report.sheds += 1
                time.sleep(exc.retry_after if exc.retry_after else fallback_wait)
                continue
            raise
        report.latencies.append(time.monotonic() - started)
        return payload
    raise RuntimeError(f"request still shed after {max_attempts} attempts")


def _run_client(
    client_index: int,
    base_url: str,
    frames,
    algorithm: str,
    session_spec: dict,
    plan: ServingFaultPlan | None,
    deadline_ms: float | None,
    max_attempts: int,
    fallback_wait: float,
    report: StormClientReport,
) -> None:
    total = len(frames)
    client = SlamClient(base_url, client_id=report.client_id)
    try:
        height, width = frames[0].color.shape[:2]
        _post_with_backoff(
            lambda: client.create_session(
                report.session_id, algorithm, width, height, **session_spec
            ),
            report,
            max_attempts,
            fallback_wait,
        )
        for index, frame in enumerate(frames):
            if plan is not None:
                stall = plan.stall_at(client_index, index, total)
                if stall > 0:
                    report.stalls += 1
                    time.sleep(stall)
                if plan.disconnect_at(client_index, index, total):
                    report.disconnects += 1
                    _tear_upload(
                        base_url, report.session_id, encode_frame(frame), report.client_id
                    )
                    report.torn_rejections += 1  # the tear never got a 200
            _post_with_backoff(
                lambda: client.post_frame(
                    report.session_id, frame, deadline_ms=deadline_ms
                ),
                report,
                max_attempts,
                fallback_wait,
            )
            report.frames_admitted += 1
        report.result = client.result(report.session_id)
    except Exception as exc:  # noqa: BLE001 - a storm client must report, not raise
        report.error = f"{type(exc).__name__}: {exc}"


def run_storm(
    base_url: str,
    frames,
    num_clients: int,
    algorithm: str = "orb",
    session_spec: dict | None = None,
    plan: ServingFaultPlan | None = None,
    deadline_ms: float | None = None,
    max_attempts: int = 200,
    fallback_wait: float = 0.02,
    client_prefix: str = "storm",
) -> StormReport:
    """Stream ``frames`` from ``num_clients`` concurrent sessions at once.

    Each client ``c`` owns session/client id ``{client_prefix}-{c:02d}``
    and streams the full sequence, misbehaving wherever ``plan``
    schedules it and absorbing 429/503 shedding through bounded
    Retry-After backoff.  Returns the :class:`StormReport`; client
    failures land in their report's ``error`` instead of raising, so one
    dead client never hides what happened to the rest.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if not frames:
        raise ValueError("need at least one frame to storm with")
    report = StormReport(num_clients=num_clients, num_frames=len(frames))
    threads = []
    for client_index in range(num_clients):
        name = f"{client_prefix}-{client_index:02d}"
        client_report = StormClientReport(client_id=name, session_id=name)
        report.clients.append(client_report)
        threads.append(
            threading.Thread(
                target=_run_client,
                args=(
                    client_index,
                    base_url,
                    list(frames),
                    algorithm,
                    dict(session_spec or {}),
                    plan,
                    deadline_ms,
                    max_attempts,
                    fallback_wait,
                    client_report,
                ),
                name=f"storm-client-{client_index}",
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return report
