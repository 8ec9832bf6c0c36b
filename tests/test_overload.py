"""Overload robustness: admission, deadlines, shedding, drain, chaos.

The PR 10 invariants:

1. **Shed, never queue** — past the per-client rate limit or the global
   in-flight budget the server answers 429 (+``Retry-After``)
   immediately; nothing is buffered on behalf of a shed request.
2. **Deadlines never half-ingest** — a queued frame whose deadline
   expires before drain is rejected whole: the surviving stream is
   bit-identical to one that never contained the frame.
3. **Graceful drain** — ``stop(drain_timeout=)`` stops admitting (503),
   drains what it can, sheds loudly what it cannot, and parks every
   live session through the atomic checkpoint path, bit-exactly
   resumable.
4. **Disarmed == PR 9** — with no admission controller and no
   deadlines, served results are bit-identical to an in-process
   synchronous run.
5. **Storms are survivable** — over-capacity concurrent clients (with
   deterministic stalls and torn uploads) never crash the server and
   never lose an admitted frame.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import OverloadError, ReproError, TransientError
from repro.eval.service import build_session
from repro.faults import (
    SERVING_FAULT_PLANS,
    available_serving_fault_plans,
    get_serving_fault_plan,
)
from repro.perf import PerfRecorder
from repro.serve import (
    AdmissionController,
    AsyncSessionHandle,
    IngestPool,
    SessionRegistry,
    SlamClient,
    SlamClientError,
    SlamServer,
    TokenBucket,
    run_storm,
)

CHEAP = dict(tracking_iterations=4, mapping_iterations=2)
NEVER = 1e12  # an absolute monotonic deadline that never expires


def _factory(algorithm, intrinsics, **overrides):
    import functools

    params = dict(CHEAP)
    params.update(overrides)
    return functools.partial(build_session, algorithm, intrinsics, **params)


def _trajectory(result) -> np.ndarray:
    return np.array([f.estimated_pose.as_matrix() for f in result.frames])


def assert_results_identical(a, b):
    assert len(a.frames) == len(b.frames)
    assert np.array_equal(_trajectory(a), _trajectory(b))
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_index == fb.frame_index
        assert fa.tracking_loss == fb.tracking_loss
        assert fa.mapping_loss == fb.mapping_loss
        assert fa.num_gaussians == fb.num_gaussians


def _sync_feed(intrinsics, frames):
    """The synchronous ORB-lite feed every served stream is compared to."""
    reference = build_session("orb", intrinsics, **CHEAP)
    reference.begin("cam")
    for frame in frames:
        reference.feed(frame)
    return reference.finalize()


def assert_payload_matches(payload, expected):
    """A served JSON result vs an in-process result, bit-exactly."""
    assert payload["num_frames"] == len(expected.frames)
    for got, ref in zip(payload["frames"], expected.frames):
        assert got["frame_index"] == ref.frame_index
        assert got["estimated_pose"] == ref.estimated_pose.as_vector().tolist()
        assert got["tracking_loss"] == ref.tracking_loss
        assert got["mapping_loss"] == ref.mapping_loss
        assert got["num_gaussians"] == ref.num_gaussians


# ---------------------------------------------------------------------------
# TokenBucket / AdmissionController
# ---------------------------------------------------------------------------
def test_token_bucket_burst_then_throttle():
    bucket = TokenBucket(rate=2.0, burst=3)
    assert [bucket.try_take(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
    wait = bucket.try_take(0.0)  # bucket empty: nothing taken
    assert wait == pytest.approx(0.5)  # one token at 2/s
    assert bucket.try_take(0.5) == 0.0  # refilled exactly one
    assert bucket.try_take(0.5) > 0.0
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0)


def test_admission_in_flight_budget_sheds_and_releases():
    perf = PerfRecorder()
    admission = AdmissionController(max_in_flight=2, perf=perf)
    admission.admit("a")
    admission.admit("b")
    with pytest.raises(OverloadError) as excinfo:
        admission.admit("c")
    assert excinfo.value.retry_after > 0
    assert isinstance(excinfo.value, TransientError)  # the taxonomy branch
    assert perf.counters.as_dict()["serve.shed_frames"] == 1
    admission.release()
    admission.admit("c")  # the freed slot admits again
    stats = admission.stats()
    assert stats["in_flight"] == 2
    assert stats["shed_in_flight"] == 1 and stats["shed_total"] == 1


def test_admission_per_client_rate_limit_is_per_client():
    clock = [0.0]
    admission = AdmissionController(
        client_rate=1.0, client_burst=1, clock=lambda: clock[0]
    )
    admission.admit("alice")
    with pytest.raises(OverloadError) as excinfo:
        admission.admit("alice")  # alice's bucket is empty
    assert excinfo.value.retry_after == pytest.approx(1.0)
    admission.admit("bob")  # bob has his own bucket
    clock[0] = 1.0
    admission.admit("alice")  # refilled
    assert admission.stats()["shed_rate_limited"] == 1


def test_admission_validates_configuration():
    for kwargs in (
        dict(client_rate=0.0),
        dict(max_in_flight=0),
        dict(retry_after=0.0),
    ):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


# ---------------------------------------------------------------------------
# Deadlines: rejected whole, never half-ingested
# ---------------------------------------------------------------------------
def test_expired_deadline_frame_is_rejected_never_half_ingested(tiny_sequence):
    registry = SessionRegistry(max_live=2)
    registry.open("cam", _factory("orb", tiny_sequence.intrinsics))
    perf = PerfRecorder()
    rejected = []
    handle = AsyncSessionHandle(
        registry, "cam", queue_depth=4, perf=perf, on_reject=rejected.append
    )
    # Hold the single drain worker so all three frames queue first: the
    # middle one's already-expired deadline must reject it before any
    # tracking/mapping work.
    handle.pool.submit(time.sleep, 0.3)
    handle.submit(tiny_sequence[0], deadline=NEVER)
    handle.submit(tiny_sequence[1], deadline=0.0)  # expired on arrival
    handle.submit(tiny_sequence[2], deadline=NEVER)
    handle.flush()  # rejected frames still unblock the flush
    served = registry.result("cam")
    handle.close()
    registry.shutdown()

    assert len(rejected) == 1
    assert perf.counters.as_dict()["serve.deadline_rejections"] == 1
    # The surviving stream is bit-identical to one never containing the
    # rejected frame (its successor takes the freed index).
    reference = build_session("orb", tiny_sequence.intrinsics, **CHEAP)
    reference.begin("cam")
    reference.feed(tiny_sequence[0])
    reference.feed(tiny_sequence[2])
    assert_results_identical(reference.finalize(), served)


def test_clear_pending_drops_queue_without_touching_state(tiny_sequence):
    system = build_session("orb", tiny_sequence.intrinsics, **CHEAP)
    system.begin("cam")
    system.feed(tiny_sequence[0])
    system.feed_nowait(tiny_sequence[1])
    system.feed_nowait(tiny_sequence[2])
    dropped = system.clear_pending()
    assert len(dropped) == 2 and system.pending_count == 0
    assert system.next_frame_index == 1  # processed state untouched
    assert system.feed_nowait(tiny_sequence[1]) == 1  # indices re-anchored


# ---------------------------------------------------------------------------
# HTTP tier: 429 / 413 / 400 / healthz / sessions
# ---------------------------------------------------------------------------
def test_http_rate_limit_sheds_with_retry_after(tiny_sequence):
    admission = AdmissionController(client_rate=0.001, client_burst=1)
    with SlamServer(num_shards=1, pool_workers=1, admission=admission) as server:
        client = SlamClient(server.address, client_id="greedy")
        client.create_session("cam", "orb", 64, 48, **CHEAP)
        client.post_frame("cam", tiny_sequence[0])
        with pytest.raises(SlamClientError, match="429") as excinfo:
            client.post_frame("cam", tiny_sequence[1])
        assert excinfo.value.code == 429
        assert excinfo.value.retry_after and excinfo.value.retry_after > 0
        health = client.healthz()
        assert health["admission"]["shed_total"] == 1
        client.result("cam")  # the admitted frame still lands
        assert health["status"] == "ok"


def test_http_body_cap_answers_413(tiny_sequence):
    with SlamServer(num_shards=1, pool_workers=1, max_body_bytes=64) as server:
        client = SlamClient(server.address)
        with pytest.raises(SlamClientError, match="413") as excinfo:
            client.create_session("cam", "orb", 64, 48, **CHEAP)
        assert excinfo.value.code == 413


def test_http_deadline_header_rejects_stale_frames(tiny_sequence):
    with SlamServer(num_shards=1, pool_workers=1) as server:
        client = SlamClient(server.address)
        client.create_session("cam", "orb", 64, 48, **CHEAP)
        client.post_frame("cam", tiny_sequence[0])
        # An already-expired deadline: admitted at the HTTP layer (202-ish
        # semantics: the POST succeeds), rejected whole at drain time.
        client.post_frame("cam", tiny_sequence[1], deadline_ms=0.0)
        client.post_frame("cam", tiny_sequence[2])
        result = client.result("cam")
        assert result["num_frames"] == 2
        assert client.healthz()["deadline_rejections"] == 1


def test_healthz_and_sessions_endpoints(tiny_sequence):
    with SlamServer(num_shards=2, pool_workers=1) as server:
        client = SlamClient(server.address)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["registry"]["live"] == 0 and health["queued_frames"] == 0
        assert health["admission"] is None  # disarmed by default
        client.create_session("cam", "orb", 64, 48, **CHEAP)
        listing = client.sessions()
        assert listing["live"] == ["cam"] and listing["parked"] == []
        assert client.healthz()["registry"]["live"] == 1


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------
def test_graceful_drain_parks_sessions_bit_exactly(tmp_path, tiny_sequence):
    server = SlamServer(num_shards=1, pool_workers=1, park_root=tmp_path)
    url = server.start()
    client = SlamClient(url)
    client.create_session("cam", "orb", 64, 48, **CHEAP)
    for index in range(3):
        client.post_frame("cam", tiny_sequence[index])
    report = server.stop(drain_timeout=30.0)
    assert report["drained_sessions"] == 1
    assert report["parked_sessions"] == 1
    assert report["shed_frames"] == 0

    # A fresh server on the same parking root resumes the stream and the
    # combined run is bit-identical to an uninterrupted one.
    with SlamServer(num_shards=1, pool_workers=1, park_root=tmp_path) as second:
        client = SlamClient(second.address)
        assert client.create_session("cam", "orb", 64, 48, **CHEAP)["resumed"]
        for index in range(3, 6):
            client.post_frame("cam", tiny_sequence[index])
        served = client.result("cam")
    frames = [tiny_sequence[index] for index in range(6)]
    assert_payload_matches(served, _sync_feed(tiny_sequence.intrinsics, frames))


def test_draining_server_answers_503(tiny_sequence):
    server = SlamServer(num_shards=1, pool_workers=1)
    url = server.start()
    client = SlamClient(url)
    client.create_session("cam", "orb", 64, 48, **CHEAP)
    server._draining = True  # what stop(drain_timeout=) flips first
    try:
        with pytest.raises(SlamClientError, match="503") as excinfo:
            client.post_frame("cam", tiny_sequence[0])
        assert excinfo.value.code == 503 and excinfo.value.retry_after
        assert client.healthz()["status"] == "draining"  # reads still answer
    finally:
        server._draining = False
        server.stop()


def test_drain_past_deadline_sheds_loudly(tiny_sequence):
    registry = SessionRegistry(max_live=2)
    registry.open("cam", _factory("orb", tiny_sequence.intrinsics))
    perf = PerfRecorder()
    handle = AsyncSessionHandle(registry, "cam", queue_depth=4, perf=perf)
    handle.pool.submit(time.sleep, 1.0)  # wedge the drain worker
    for index in range(3):
        handle.submit(tiny_sequence[index])
    assert not handle.drain_until(time.monotonic())  # deadline already past
    shed = handle.shed_pending()
    assert shed == 3
    assert perf.counters.as_dict()["serve.shed_frames"] == 3
    handle.flush()  # shed frames count as progress: no hang
    assert registry.result("cam").frames == []  # nothing half-ingested
    handle.close()
    registry.shutdown()


# ---------------------------------------------------------------------------
# Disarmed == PR 9
# ---------------------------------------------------------------------------
def test_disarmed_server_is_bit_identical_to_sync(tiny_sequence):
    with SlamServer(num_shards=2, pool_workers=2) as server:
        client = SlamClient(server.address)
        client.create_session("cam", "orb", 64, 48, **CHEAP)
        frames = [tiny_sequence[index] for index in range(4)]
        for frame in frames:
            client.post_frame("cam", frame)
        served = client.result("cam")
        assert client.healthz()["admission"] is None  # the machinery is off
    assert_payload_matches(served, _sync_feed(tiny_sequence.intrinsics, frames))


# ---------------------------------------------------------------------------
# Serving fault plans: deterministic, budgeted
# ---------------------------------------------------------------------------
def test_serving_fault_plans_are_deterministic_and_budgeted():
    assert set(available_serving_fault_plans()) == {
        "slow-client",
        "client-disconnect",
        "admission-storm",
        "serve-chaos",
    }
    plan = get_serving_fault_plan("serve-chaos")
    total = 12
    for client in range(4):
        stalls = [
            i for i in range(total) if plan.stall_at(client, i, total) > 0
        ]
        tears = [
            i for i in range(total) if plan.disconnect_at(client, i, total)
        ]
        assert len(stalls) <= plan.stalls.max_fires
        assert len(tears) <= plan.disconnects.max_fires
        # Pure function of (plan, client, total): identical on re-query.
        assert stalls == [
            i for i in range(total) if plan.stall_at(client, i, total) > 0
        ]
    # Different clients misbehave at different frames (seeded per client).
    schedules = {
        tuple(
            i
            for i in range(total)
            if plan.stall_at(client, i, total) > 0
            or plan.disconnect_at(client, i, total)
        )
        for client in range(6)
    }
    assert len(schedules) > 1
    storm = get_serving_fault_plan("admission-storm")
    assert all(
        storm.stall_at(0, i, total) == 0.0 and not storm.disconnect_at(0, i, total)
        for i in range(total)
    )
    with pytest.raises(ValueError, match="unknown serving fault plan"):
        get_serving_fault_plan("nope")


# ---------------------------------------------------------------------------
# Memory-pressure parking
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["splatam", "gaussian-slam", "ags"])
def test_registry_parks_coldest_under_gaussian_budget(algorithm, tiny_sequence):
    perf = PerfRecorder()
    registry = SessionRegistry(max_live=8, max_live_gaussians=1, perf=perf)
    factory = _factory(algorithm, tiny_sequence.intrinsics)
    registry.open("cold", factory)
    with registry.checkout("cold") as session:
        session.feed(tiny_sequence[0], index=0)  # now owns a real map
    registry.open("hot", factory)
    with registry.checkout("hot") as session:
        session.feed(tiny_sequence[0], index=0)
    # Both maps together blow the 1-gaussian budget: the coldest parks,
    # the most-recently-touched survives.
    assert registry.live_ids() == ["hot"]
    assert registry.parked_ids() == ["cold"]
    assert perf.counters.as_dict()["serve.sessions_parked"] == 1
    stats = registry.stats()
    assert stats["live_gaussians"] > 0 and stats["live_bytes"] > 0
    registry.shutdown()


def test_memory_budget_never_parks_the_only_session(tiny_sequence):
    registry = SessionRegistry(max_live=8, max_live_bytes=1)
    factory = _factory("splatam", tiny_sequence.intrinsics)
    registry.open("solo", factory)
    with registry.checkout("solo") as session:
        session.feed(tiny_sequence[0], index=0)
    # One session exceeding the budget alone must stay live (parking it
    # would thrash park/resume forever).
    assert registry.live_ids() == ["solo"]
    registry.shutdown()


def test_registry_budget_validation():
    with pytest.raises(ValueError):
        SessionRegistry(max_live_gaussians=0)
    with pytest.raises(ValueError):
        SessionRegistry(max_live_bytes=0)


# ---------------------------------------------------------------------------
# Chaos: over-capacity storms survive with nothing lost
# ---------------------------------------------------------------------------
def _storm(tiny_sequence, num_clients, max_in_flight, num_shards, pool_workers, num_frames):
    """Over-capacity chaos clients: loud sheds, nothing lost, exact streams."""
    frames = [tiny_sequence[i] for i in range(num_frames)]
    admission = AdmissionController(max_in_flight=max_in_flight)
    with SlamServer(
        num_shards=num_shards, max_live=2, pool_workers=pool_workers, admission=admission
    ) as server:
        report = run_storm(
            server.address,
            frames,
            num_clients=num_clients,
            algorithm="orb",
            session_spec=CHEAP,
            plan=get_serving_fault_plan("serve-chaos"),
        )
        assert [c.error for c in report.clients] == [None] * num_clients
        assert all(c.result is not None for c in report.clients)
        assert sum(c.sheds for c in report.clients) > 0  # the storm really overloaded it
        # Overload slows admitted posts down (back-off); it never wedges
        # them.  SlamClient's 60 s socket timeout would surface as an error.
        assert max(latency for c in report.clients for latency in c.latencies) < 60.0
        # Every admitted frame landed exactly once, in order, and every
        # stream is bit-identical to a synchronous feed.
        expected = _sync_feed(tiny_sequence.intrinsics, frames)
        for client_report in report.clients:
            assert_payload_matches(client_report.result, expected)
        health = SlamClient(server.address).healthz()
        assert health["admission"]["in_flight"] == 0  # every slot returned


def test_storm_over_capacity_never_loses_admitted_frames(tiny_sequence):
    _storm(  # 3x the in-flight budget
        tiny_sequence, num_clients=3, max_in_flight=1, num_shards=1, pool_workers=1, num_frames=3
    )


@pytest.mark.slow
def test_storm_four_times_over_capacity_on_two_shards(tiny_sequence):
    _storm(  # the two shards also churn the parking lot (max_live=2 each)
        tiny_sequence, num_clients=8, max_in_flight=2, num_shards=2, pool_workers=2, num_frames=6
    )
