"""SLAM-as-a-service: two live camera streams over the HTTP API.

Starts the stdlib :class:`repro.serve.SlamServer` — a sharded session
registry with checkpoint-parking eviction behind ``http.server`` — and
drives two concurrent RGB-D streams through it with the matching
:class:`repro.serve.SlamClient`:

  * ``cam-front`` streams the whole 'desk' sequence uninterrupted;
  * ``cam-rear`` streams half of it, is **parked** mid-stream
    (``POST /sessions/<id>/park`` writes its bit-exact state to the
    shared parking lot and releases the live session), then re-opens —
    the registry transparently resumes it from the parked checkpoint,
    possibly on a different shard — and streams the rest.

Frames cross the wire as their raw bytes behind a small JSON header and
results come back as JSON whose floats round-trip exactly, so the
example can end on the serving tier's headline property: the
parked-and-resumed stream and the uninterrupted stream both match an
in-process synchronous ``feed`` loop **bit for bit**.

Run with:  PYTHONPATH=src python examples/streaming_service.py
"""

from __future__ import annotations

import threading

from repro.datasets import load_sequence
from repro.eval.service import build_session
from repro.serve import SlamClient, SlamServer, result_to_payload, shard_index

SEQUENCE = "desk"
NUM_FRAMES = 8
ALGORITHM = "orb"
PARK_AFTER = NUM_FRAMES // 2
SESSION_SPEC = dict(
    algorithm=ALGORITHM,
    tracking_iterations=6,
    mapping_iterations=2,
)


def sync_reference(sequence) -> dict:
    """The in-process feed loop both served streams must reproduce."""
    session = build_session(
        ALGORITHM,
        sequence.intrinsics,
        tracking_iterations=SESSION_SPEC["tracking_iterations"],
        mapping_iterations=SESSION_SPEC["mapping_iterations"],
    )
    session.begin(SEQUENCE)
    for frame in sequence.frames():
        session.feed(frame)
    return result_to_payload(session.finalize())


def stream_uninterrupted(client: SlamClient, session_id: str, frames) -> None:
    created = client.create_session(
        session_id,
        width=frames[0].color.shape[1],
        height=frames[0].color.shape[0],
        **SESSION_SPEC,
    )
    print(f"[{session_id}] opened on shard {created['shard']}")
    for frame in frames:
        client.post_frame(session_id, frame)
    print(f"[{session_id}] streamed {len(frames)} frames")


def stream_with_mid_park(client: SlamClient, session_id: str, frames) -> None:
    geometry = dict(width=frames[0].color.shape[1], height=frames[0].color.shape[0])
    created = client.create_session(session_id, **geometry, **SESSION_SPEC)
    print(f"[{session_id}] opened on shard {created['shard']}")
    for frame in frames[:PARK_AFTER]:
        client.post_frame(session_id, frame)
    parked = client.park(session_id)
    print(
        f"[{session_id}] parked after {PARK_AFTER} frames "
        f"(checkpoint generation {parked['generation']})"
    )
    reopened = client.create_session(session_id, **geometry, **SESSION_SPEC)
    assert reopened["resumed"], "a parked session must resume, not restart"
    print(f"[{session_id}] resumed from the parked checkpoint")
    for frame in frames[PARK_AFTER:]:
        client.post_frame(session_id, frame)
    print(f"[{session_id}] streamed the remaining {len(frames) - PARK_AFTER} frames")


def main() -> int:
    sequence = load_sequence(SEQUENCE, num_frames=NUM_FRAMES)
    frames = list(sequence.frames())
    reference = sync_reference(sequence)

    with SlamServer(num_shards=2, max_live=2) as server:
        print(f"serving on {server.address}")
        client = SlamClient(server.address)
        cameras = ("cam-front", "cam-rear")
        for session_id in cameras:
            print(f"  {session_id} -> shard {shard_index(session_id, 2)}")

        front = threading.Thread(
            target=stream_uninterrupted, args=(client, "cam-front", frames)
        )
        rear = threading.Thread(
            target=stream_with_mid_park, args=(client, "cam-rear", frames)
        )
        front.start()
        rear.start()
        front.join()
        rear.join()

        results = {session_id: client.result(session_id) for session_id in cameras}

    # Served sessions are named after their stream ("cam-front"), the
    # reference after the sequence — the per-frame payloads are what the
    # bit-identity claim covers.
    failures = [
        session_id
        for session_id in cameras
        if results[session_id]["frames"] != reference["frames"]
    ]
    for session_id in cameras:
        status = "bit-identical" if session_id not in failures else "MISMATCH"
        final = results[session_id]["frames"][-1]
        print(
            f"[{session_id}] {final['frame_index'] + 1} frames, "
            f"{final['num_gaussians']} gaussians, vs sync feed: {status}"
        )
    if failures:
        print("served trajectories diverged from the synchronous reference!")
        return 1
    print(
        "both streams — including the one parked and resumed mid-stream — "
        "match the in-process run bit for bit"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
