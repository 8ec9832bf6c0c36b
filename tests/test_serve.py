"""The serving tier: registry parking, async ingestion, shards, HTTP.

The headline invariants of the SLAM-as-a-service stack:

1. **Park/resume bit-identity** — a session evicted (parked) from one
   registry and resumed on a *different* registry/shard instance
   produces results bit-identical to the uninterrupted run, for all
   five systems — including under an adversarial stream scenario and a
   transient fault plan with frame-granular retry.
2. **Async == sync** — frames queued through ``feed_nowait`` + the
   ingest worker pool yield results bit-identical to synchronous
   ``feed``, for all five systems.
3. **Deterministic routing** — session-id sharding is a pure CRC-32
   function, stable across processes (pinned assignments).
4. **Wire fidelity** — a trajectory fetched over the stdlib HTTP API is
   bit-identical to one computed in-process (raw-buffer frames in, JSON
   results out), and the frame codec refuses every torn or garbled body
   with ``ValueError`` (HTTP 400) before allocating from its header.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import numpy as np
import pytest

from repro.datasets import load_sequence
from repro.datasets.scenarios import apply_scenario
from repro.errors import CheckpointCorruptError, TransientError
from repro.eval.service import RetryPolicy, build_session
from repro.faults import FaultInjector, get_fault_plan
from repro.perf import PerfRecorder, build_report
from repro.serve import (
    AdmissionController,
    AsyncSessionHandle,
    IngestPool,
    LruMap,
    ParkingLot,
    SessionRegistry,
    ShardedRegistry,
    SlamClient,
    SlamServer,
    shard_index,
)
from repro.slam import OrbLiteSlam
from repro.slam.session import CHECKPOINT_ARRAYS

CHEAP = dict(tracking_iterations=4, mapping_iterations=2)
SYSTEMS = ("splatam", "gaussian-slam", "orb", "droid", "ags")
NUM_FRAMES = 6


def _trajectory(result) -> np.ndarray:
    return np.array([f.estimated_pose.as_matrix() for f in result.frames])


def assert_results_identical(a, b):
    """Bit-identity over everything a parked/resumed run must reproduce."""
    assert len(a.frames) == len(b.frames)
    assert np.array_equal(_trajectory(a), _trajectory(b))
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_index == fb.frame_index
        assert fa.tracking_loss == fb.tracking_loss
        assert fa.mapping_loss == fb.mapping_loss
        assert fa.is_keyframe == fb.is_keyframe
        assert fa.num_gaussians == fb.num_gaussians


def _factory(algorithm, intrinsics, **overrides):
    params = dict(CHEAP)
    params.update(overrides)
    return functools.partial(build_session, algorithm, intrinsics, **params)


# ---------------------------------------------------------------------------
# LruMap
# ---------------------------------------------------------------------------
def test_lru_map_evicts_least_recently_used():
    evicted = []
    lru = LruMap(2, on_evict=lambda k, v: evicted.append(k))
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # touch: "b" becomes LRU
    lru.put("c", 3)
    assert evicted == ["b"]
    assert lru.keys() == ["a", "c"]


def test_lru_map_pop_and_trim():
    evicted = []
    lru = LruMap(4, on_evict=lambda k, v: evicted.append(k))
    for key in "abcd":
        lru.put(key, key)
    assert lru.pop("b") == "b" and evicted == []  # pop never fires on_evict
    assert lru.trim(1) == 2
    assert evicted == ["a", "c"] and lru.keys() == ["d"]
    with pytest.raises(ValueError):
        LruMap(0)


# ---------------------------------------------------------------------------
# ParkingLot
# ---------------------------------------------------------------------------
def _park_two_generations(lot, name, sequence):
    """Park ``name`` after frame 0 and again after frame 1."""
    system = OrbLiteSlam(sequence.intrinsics)
    system.begin(sequence.name)
    system.feed(sequence[0], index=0)
    oldest = lot.park(name, system.state())
    system.feed(sequence[1], index=1)
    return oldest, lot.park(name, system.state())


def test_parking_lot_generations_and_gc(tmp_path, tiny_sequence):
    lot = ParkingLot(tmp_path)
    first, second = _park_two_generations(lot, "cam", tiny_sequence)
    assert [p.name for p in lot.generations("cam")] == ["gen-00000", "gen-00001"]
    assert first.name == "gen-00000" and second.name == "gen-00001"

    state = lot.resume("cam")
    assert state.next_index == 2  # newest generation wins
    assert not lot.has("cam")  # resume GCs the parking
    with pytest.raises(KeyError):
        lot.resume("cam")


def test_parking_lot_skips_corrupt_newest_generation(tmp_path, tiny_sequence):
    lot = ParkingLot(tmp_path)
    _, newest = _park_two_generations(lot, "cam", tiny_sequence)
    (newest / CHECKPOINT_ARRAYS).write_bytes(b"torn")
    assert lot.resume("cam").next_index == 1  # fell back to gen-00000
    oldest, newest = _park_two_generations(lot, "cam", tiny_sequence)
    for generation in (oldest, newest):
        (generation / CHECKPOINT_ARRAYS).write_bytes(b"torn")
    with pytest.raises(CheckpointCorruptError, match="every parked generation"):
        lot.resume("cam")


def test_parking_lot_rejects_path_escaping_names(tmp_path):
    lot = ParkingLot(tmp_path)
    for name in ("", "a/b", "../up", ".hidden"):
        with pytest.raises(ValueError, match="invalid parking name"):
            lot.has(name)


# ---------------------------------------------------------------------------
# Session-level ingestion seam
# ---------------------------------------------------------------------------
def test_feed_nowait_queues_and_drain_preserves_order(tiny_sequence):
    system = OrbLiteSlam(tiny_sequence.intrinsics)
    system.begin(tiny_sequence.name)
    assert system.feed_nowait(tiny_sequence[0], index=0) == 0
    assert system.feed_nowait(tiny_sequence[1]) == 1  # queued frames count
    assert system.pending_count == 2
    with pytest.raises(RuntimeError, match="queued frame"):
        system.feed(tiny_sequence[0])  # a direct feed would jump the queue
    results = system.drain_pending()
    assert [r.frame_index for r in results] == [0, 1]
    assert system.pending_count == 0

    reference = OrbLiteSlam(tiny_sequence.intrinsics)
    reference.begin(tiny_sequence.name)
    queued = [reference.feed(tiny_sequence[i], index=i) for i in range(2)]
    assert np.array_equal(
        results[1].estimated_pose.as_vector(), queued[1].estimated_pose.as_vector()
    )


def test_state_excludes_pending_frames(tiny_sequence):
    system = OrbLiteSlam(tiny_sequence.intrinsics)
    system.feed(tiny_sequence[0], index=0)
    system.feed_nowait(tiny_sequence[1])
    state = system.state()
    assert state.next_index == 1  # the queued frame is input, not state
    system.restore(state)
    assert system.pending_count == 0  # a plain restore clears the queue


# ---------------------------------------------------------------------------
# SessionRegistry: LRU bounds, pinning, races
# ---------------------------------------------------------------------------
def test_registry_parks_lru_session_beyond_budget(tiny_sequence):
    perf = PerfRecorder()
    registry = SessionRegistry(max_live=2, perf=perf)
    factory = _factory("orb", tiny_sequence.intrinsics)
    for sid in ("a", "b", "c"):
        registry.open(sid, factory)
    assert len(registry.live_ids()) == 2
    assert registry.parked_ids() == ["a"]  # least-recently touched
    assert registry.live_ids() == ["b", "c"]
    assert perf.counters.as_dict()["serve.sessions_parked"] == 1
    registry.open("a", factory)  # transparent resume re-parks "b"
    assert registry.parked_ids() == ["b"]
    assert perf.counters.as_dict()["serve.sessions_resumed"] == 1
    registry.shutdown()


def test_registry_checkout_pins_against_eviction(tiny_sequence):
    registry = SessionRegistry(max_live=1)
    factory = _factory("orb", tiny_sequence.intrinsics)
    registry.open("pinned", factory)
    with registry.checkout("pinned"):
        registry.open("other", factory)
        # Both live: the pinned session cannot be parked (soft bound).
        assert set(registry.live_ids()) == {"pinned", "other"}
        with pytest.raises(ValueError, match="checked out"):
            registry.park("pinned")
    # Pin released: eviction resumes; the LRU entry ("other") parks.
    assert len(registry.live_ids()) == 1
    assert registry.parked_ids() == ["other"]
    registry.shutdown()


def test_registry_park_drains_queued_frames_first(tiny_sequence):
    registry = SessionRegistry(max_live=4)
    factory = _factory("orb", tiny_sequence.intrinsics)
    session = registry.open("cam", factory, sequence_name=tiny_sequence.name).session
    session.feed(tiny_sequence[0], index=0)
    session.feed_nowait(tiny_sequence[1])
    registry.park("cam")  # must not drop the queued in-flight frame
    with registry.checkout("cam") as resumed:
        assert resumed.next_frame_index == 2
    registry.shutdown()


def test_registry_concurrent_touch_evict_hammer(tiny_sequence):
    """Eviction racing checkout across threads never corrupts a stream."""
    registry = SessionRegistry(max_live=2)
    factory = _factory("orb", tiny_sequence.intrinsics)
    ids = [f"cam-{i}" for i in range(6)]
    for sid in ids:
        registry.open(sid, factory, sequence_name=tiny_sequence.name)
    errors = []

    def stream(sid: str) -> None:
        try:
            for index in range(4):
                with registry.checkout(sid) as session:
                    session.feed(tiny_sequence[index], index=index)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append((sid, exc))

    threads = [threading.Thread(target=stream, args=(sid,)) for sid in ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(registry.live_ids()) <= 2
    reference = build_session("orb", tiny_sequence.intrinsics, **CHEAP).run(
        tiny_sequence, num_frames=4
    )
    for sid in ids:
        assert_results_identical(reference, registry.result(sid))
    assert registry.stats()["parks"] >= 4  # budget 2, six streams: real churn
    registry.shutdown()


# ---------------------------------------------------------------------------
# Park/resume bit-identity matrix (cross-registry == cross-shard)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_cross_registry_park_resume_is_bit_identical(tmp_path, tiny_sequence, algorithm):
    factory = _factory(algorithm, tiny_sequence.intrinsics)
    first = SessionRegistry(max_live=2, park_root=tmp_path / "lot")
    session = first.open(
        algorithm, factory, sequence_name=tiny_sequence.name
    ).session
    for index in range(3):
        session.feed(tiny_sequence[index], index=index)
    first.park(algorithm)
    first.shutdown()

    # A different registry instance sharing the lot — another shard, or
    # another process after a redeploy — resumes transparently.
    second = SessionRegistry(max_live=2, park_root=tmp_path / "lot")
    opened = second.open(algorithm, factory, sequence_name=tiny_sequence.name)
    assert opened.resumed and not opened.created
    for index in range(3, NUM_FRAMES):
        opened.session.feed(tiny_sequence[index], index=index)
    resumed_result = second.result(algorithm)

    reference = factory().run(tiny_sequence, num_frames=NUM_FRAMES)
    assert_results_identical(reference, resumed_result)
    second.shutdown()


@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_park_resume_under_scenario_and_faults_is_bit_identical(
    tmp_path, algorithm
):
    """Scenario stream + chaos fault plan + frame retry + cross-shard park/resume."""
    base = load_sequence("desk", num_frames=NUM_FRAMES)
    stream = apply_scenario(base, "burst")
    reference = _factory(algorithm, base.intrinsics)().run(
        stream, num_frames=NUM_FRAMES
    )

    injector = FaultInjector(get_fault_plan("chaos"))
    flaky = injector.wrap_source(stream)

    def factory():
        system = _factory(algorithm, base.intrinsics)()
        injector.arm(system, NUM_FRAMES)  # shared fire budget across resumes
        return system

    def read_frame(index):
        for _ in range(1 + RetryPolicy().max_retries):
            try:
                return flaky[index]
            except TransientError:
                continue
        raise AssertionError("source retries exhausted")

    def run_half(registry, sid, start, stop):
        handle = AsyncSessionHandle(registry, sid, queue_depth=2)
        for index in range(start, stop):
            handle.submit(read_frame(index))
        handle.flush()
        return handle

    shards = [
        SessionRegistry(max_live=1, park_root=tmp_path / "lot") for _ in range(2)
    ]
    shards[0].open("cam", factory, sequence_name=stream.name)
    first_half = run_half(shards[0], "cam", 0, 3)
    first_half.park()
    first_half.close()
    shards[0].shutdown()
    shards[1].open("cam", factory, sequence_name=stream.name)
    handle = run_half(shards[1], "cam", 3, NUM_FRAMES)
    served = handle.result()
    handle.close()

    assert_results_identical(reference, served)
    assert sum(injector.fired.values()) >= 1  # the run really crossed fault points
    shards[1].shutdown()


# ---------------------------------------------------------------------------
# Async ingestion == synchronous feed
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_async_ingestion_is_bit_identical_to_feed(tiny_sequence, algorithm):
    perf = PerfRecorder()
    registry = SessionRegistry(max_live=2, perf=perf)
    registry.open(algorithm, _factory(algorithm, tiny_sequence.intrinsics))
    with IngestPool(workers=2) as pool:
        handle = AsyncSessionHandle(
            registry, algorithm, pool=pool, queue_depth=2, perf=perf
        )
        indices = [handle.submit(tiny_sequence[i]) for i in range(NUM_FRAMES)]
        served = handle.result()
    assert indices == list(range(NUM_FRAMES))

    reference = _factory(algorithm, tiny_sequence.intrinsics)()
    reference.begin(tiny_sequence.name)
    for index in range(NUM_FRAMES):
        reference.feed(tiny_sequence[index], index=index)
    assert_results_identical(reference.finalize(), served)
    # The high-water counter saw at least one in-flight frame.
    assert perf.counters.as_dict()["serve.queue_depth"] >= 1
    registry.shutdown()


def test_async_results_stream_in_order(tiny_sequence):
    registry = SessionRegistry(max_live=2)
    registry.open("cam", _factory("orb", tiny_sequence.intrinsics))
    seen = []
    handle = AsyncSessionHandle(
        registry, "cam", queue_depth=3, on_result=lambda r: seen.append(r.frame_index)
    )
    for index in range(NUM_FRAMES):
        handle.submit(tiny_sequence[index])
    handle.flush()
    assert seen == list(range(NUM_FRAMES))
    handle.close()


class _HeldPool:
    """An ingest pool that runs drain jobs only when told to."""

    def __init__(self) -> None:
        self.jobs = []

    def submit(self, fn, *args) -> None:
        self.jobs.append((fn, args))

    def run(self) -> None:
        while self.jobs:
            fn, args = self.jobs.pop(0)
            fn(*args)

    def shutdown(self, wait: bool = True) -> None:
        self.run()


def test_submit_to_a_parked_session_leaves_the_resume_to_the_drain(tmp_path, tiny_sequence):
    registry = SessionRegistry(max_live=1, park_root=tmp_path / "lot")
    factory = _factory("orb", tiny_sequence.intrinsics)
    registry.open("cam", factory)
    pool = _HeldPool()
    handle = AsyncSessionHandle(registry, "cam", pool=pool)
    assert handle.submit(tiny_sequence[0]) == 0  # live: queued on the session
    pool.run()
    registry.open("other", factory)  # one live slot: parks "cam"
    assert registry.parked_ids() == ["cam"]

    resumes = registry.resumes
    assert [handle.submit(tiny_sequence[i]) for i in (1, 2)] == [1, 2]
    nan_depth = np.full_like(tiny_sequence[3].depth, np.nan)
    nan_frame = dataclasses.replace(tiny_sequence[3], depth=nan_depth)
    with pytest.raises(ValueError):
        handle.submit(nan_frame)  # refused at submit, as for a live session
    assert registry.parked_ids() == ["cam"] and registry.resumes == resumes
    assert handle.in_flight == 2

    pool.run()  # the drain worker resumes "cam" and feeds the backlog in order
    assert registry.resumes == resumes + 1 and handle.in_flight == 0
    for index in range(3, NUM_FRAMES):
        assert handle.submit(tiny_sequence[index]) == index
    pool.run()
    reference = factory().run(tiny_sequence, num_frames=NUM_FRAMES)
    assert_results_identical(reference, handle.result())
    registry.shutdown()
    registry.shutdown()


@pytest.mark.parametrize("num_streams", [4, pytest.param(16, marks=pytest.mark.slow)])
def test_async_streams_under_parking_churn_are_bit_identical(tiny_sequence, num_streams):
    """Async handles over one-slot shards sharing an ingest pool.

    Round-robin submission keeps every shard's single live slot
    contended, so sessions are parked and resumed mid-stream; every
    stream still finishes bit-identical to a synchronous feed.
    """
    factory = _factory("orb", tiny_sequence.intrinsics)
    reference = factory()
    reference.begin(tiny_sequence.name)
    for index in range(NUM_FRAMES):
        reference.feed(tiny_sequence[index], index=index)
    expected = reference.finalize()

    registry = ShardedRegistry(num_shards=2, max_live=1)
    served = []
    with IngestPool(workers=2) as pool:
        handles = []
        for stream in range(num_streams):
            session_id = f"cam-{stream:02d}"
            registry.open(session_id, factory, sequence_name=session_id)
            handles.append(AsyncSessionHandle(registry, session_id, pool=pool, queue_depth=2))
        for index in range(NUM_FRAMES):
            for handle in handles:
                handle.submit(tiny_sequence[index])
        for handle in handles:
            served.append(handle.result())
            handle.close()
    stats = registry.stats()
    registry.shutdown()
    for result in served:
        assert_results_identical(expected, result)
    assert stats["parks"] >= 1 and stats["resumes"] >= 1


# ---------------------------------------------------------------------------
# Shard routing
# ---------------------------------------------------------------------------
def test_shard_routing_is_deterministic_and_pinned():
    # CRC-32 routing is stable across processes and runs: these exact
    # assignments must never change (they are a wire-compatibility
    # contract between frontends).
    assert shard_index("cam-0", 4) == 2
    assert shard_index("cam-1", 4) == 0
    assert shard_index("cam-2", 3) == 1
    assert shard_index("desk", 4) == 2
    for sid in ("a", "b", "cam-0", "stream/7"):
        assert shard_index(sid, 3) == shard_index(sid, 3)
        assert 0 <= shard_index(sid, 3) < 3
    with pytest.raises(ValueError):
        shard_index("x", 0)


def test_sharded_registry_routes_and_shares_the_lot(tiny_sequence):
    sharded = ShardedRegistry(num_shards=3, max_live=2)
    factory = _factory("orb", tiny_sequence.intrinsics)
    ids = [f"cam-{i}" for i in range(5)]
    for sid in ids:
        sharded.open(sid, factory, sequence_name=tiny_sequence.name)
        with sharded.checkout(sid) as session:
            session.feed(tiny_sequence[0], index=0)
    for sid in ids:
        owner = sharded.shard_for(sid)
        assert sid in owner
        assert owner is sharded.shards[shard_index(sid, 3)]
    stats = sharded.stats()
    assert stats["sessions"] == 5 and len(stats["shards"]) == 3
    sharded.shutdown()


# ---------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------
def test_http_round_trip_with_midstream_park(tiny_sequence):
    reference = _factory("orb", tiny_sequence.intrinsics)().run(
        tiny_sequence, num_frames=NUM_FRAMES
    )
    with SlamServer(num_shards=2, max_live=2) as server:
        client = SlamClient(server.address)
        info = client.create_session(
            "cam-http",
            "orb",
            tiny_sequence.intrinsics.width,
            tiny_sequence.intrinsics.height,
            **CHEAP,
        )
        assert info["created"] and info["shard"] == shard_index("cam-http", 2)
        for index in range(3):
            assert client.post_frame("cam-http", tiny_sequence[index])["index"] == index
        assert client.park("cam-http")["parked"]
        for index in range(3, NUM_FRAMES):  # transparent resume on next frame
            client.post_frame("cam-http", tiny_sequence[index])
        payload = client.result("cam-http")

    assert payload["algorithm"] == "orb-lite"
    assert payload["num_frames"] == NUM_FRAMES
    for index, frame in enumerate(payload["frames"]):
        # JSON floats round-trip exactly: the wire result is bit-identical.
        assert frame["estimated_pose"] == (
            reference.frames[index].estimated_pose.as_vector().tolist()
        )
        assert frame["tracking_loss"] == reference.frames[index].tracking_loss


def test_http_errors_map_to_status_codes(tiny_sequence):
    with SlamServer(num_shards=1, max_live=2) as server:
        client = SlamClient(server.address)
        with pytest.raises(RuntimeError, match="404"):
            client.result("nobody")
        with pytest.raises(RuntimeError, match="400"):
            client.create_session("bad", "magic", 8, 8)  # unknown algorithm
        with pytest.raises(RuntimeError, match="400"):
            client._request("POST", "/sessions", b"not json", "application/json")
        with pytest.raises(RuntimeError, match="404"):
            client._request("POST", "/nowhere", b"{}", "application/json")
        # A malformed session spec is a client error answered with 400 —
        # never a dropped connection — and registers nothing.
        with pytest.raises(RuntimeError, match="400.*bogus"):
            client.create_session("bad-key", "orb", 8, 8, bogus=1)
        with pytest.raises(RuntimeError, match="400.*JSON object"):
            client._request("POST", "/sessions", b"[1, 2]", "application/json")
        assert client.sessions() == {"live": [], "parked": []}

        # A wrong-shaped frame is refused with 400 before it is queued, so
        # it cannot wedge the session: later valid frames still finish
        # bit-identical to a synchronous feed.
        intr = tiny_sequence.intrinsics
        poison = dataclasses.replace(
            tiny_sequence[0], color=np.zeros((10, 10, 3)), depth=np.zeros((10, 10))
        )
        client.create_session("cam", "splatam", intr.width, intr.height, **CHEAP)
        client.post_frame("cam", tiny_sequence[0])
        with pytest.raises(RuntimeError, match="400.*shape mismatch"):
            client.post_frame("cam", poison)
        for index in range(1, 3):
            assert client.post_frame("cam", tiny_sequence[index])["index"] == index
        payload = client.result("cam")
    reference = _factory("splatam", intr)().run(tiny_sequence, num_frames=3)
    assert payload["num_frames"] == 3
    for index, frame in enumerate(payload["frames"]):
        assert frame["estimated_pose"] == (
            reference.frames[index].estimated_pose.as_vector().tolist()
        )
        assert frame["tracking_loss"] == reference.frames[index].tracking_loss
    # In-process, ORB-lite no longer silently "tracks" the poison frame.
    with pytest.raises(ValueError, match="shape mismatch"):
        OrbLiteSlam(intr).feed(poison)


def test_http_non_finite_frame_is_refused_without_wedging(tiny_sequence):
    """One NaN colour pixel gets 400 and never reaches the drain loop.

    AGS's vectorized motion search assumes finite input, so an admitted
    NaN frame used to fail every later drain and leave the queue stuck.
    Refused at the boundary, it releases its admission slot, later
    frames take the next indices, and the stream finishes bit-identical
    to a synchronous feed of the valid frames.
    """
    intr = tiny_sequence.intrinsics
    color = np.array(tiny_sequence[2].color, dtype=np.float64)
    color[5, 7, 0] = np.nan
    poison = dataclasses.replace(tiny_sequence[2], color=color)
    admission = AdmissionController(max_in_flight=8)
    with SlamServer(num_shards=1, max_live=2, admission=admission) as server:
        client = SlamClient(server.address)
        client.create_session("cam", "ags", intr.width, intr.height, **CHEAP)
        for index in range(2):
            assert client.post_frame("cam", tiny_sequence[index])["index"] == index
        with pytest.raises(RuntimeError, match="400.*non-finite"):
            client.post_frame("cam", poison)
        for index in range(2, 4):
            assert client.post_frame("cam", tiny_sequence[index])["index"] == index
        payload = client.result("cam")
        health = client.healthz()
    assert health["queue_depths"] == {"cam": 0}
    assert health["admission"]["in_flight"] == 0
    reference = _factory("ags", intr)().run(tiny_sequence, num_frames=4)
    assert payload["num_frames"] == 4
    for index, frame in enumerate(payload["frames"]):
        assert frame["estimated_pose"] == (
            reference.frames[index].estimated_pose.as_vector().tolist()
        )


# ---------------------------------------------------------------------------
# Perf report surfacing
# ---------------------------------------------------------------------------
def test_serving_counters_surface_as_explicit_zeros():
    report = build_report(PerfRecorder())
    assert report["serving"] == {
        "serve.queue_depth": 0,
        "serve.backpressure_waits": 0,
        "serve.sessions_parked": 0,
        "serve.sessions_resumed": 0,
        "serve.shed_frames": 0,
        "serve.deadline_rejections": 0,
        "serve.drain_parked": 0,
    }


# ---------------------------------------------------------------------------
# Concurrent resume-vs-evict across registries sharing one park root
# ---------------------------------------------------------------------------
def test_shared_root_concurrent_open_races_cleanly(tmp_path, tiny_sequence):
    """Two registries opening one parked id at once: exactly one resumes.

    The parking lot serializes whole resume operations per (root, name),
    so the loser sees "nothing parked" and starts fresh — never a torn
    read, never a double resume of the same generation.
    """
    factory = _factory("orb", tiny_sequence.intrinsics)
    seeder = SessionRegistry(max_live=2, park_root=tmp_path)
    seeder.open("cam", factory)
    with seeder.checkout("cam") as session:
        for index in range(3):
            session.feed(tiny_sequence[index], index=index)
    seeder.park("cam")

    registries = [SessionRegistry(max_live=2, park_root=tmp_path) for _ in range(2)]
    barrier = threading.Barrier(2)
    outcomes = [None, None]
    failures = []

    def racer(slot):
        try:
            barrier.wait()
            outcomes[slot] = registries[slot].open("cam", factory)
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            failures.append(exc)

    threads = [threading.Thread(target=racer, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures
    resumed = [o for o in outcomes if o.resumed]
    created = [o for o in outcomes if o.created]
    assert len(resumed) == 1 and len(created) == 1
    assert resumed[0].session.next_frame_index == 3
    assert created[0].session.next_frame_index == 0
    for registry in registries:
        registry.shutdown()


def test_shared_root_park_resume_hammer_never_corrupts(tmp_path, tiny_sequence):
    """Interleaved park/resume through a shared root never tears state.

    Resume GCs the parked generations, so while one registry is between
    resume and re-park the other's ``open`` may legitimately create a
    *fresh* session (the one-resumes-one-creates split asserted above).
    Each hammer therefore feeds frame 0 on the create path: every parked
    generation carries the same 1-frame state whichever writer lands
    last, and the final assertion stays exact.
    """
    factory = _factory("orb", tiny_sequence.intrinsics)
    seeder = SessionRegistry(max_live=2, park_root=tmp_path)
    seeder.open("cam", factory)
    with seeder.checkout("cam") as session:
        session.feed(tiny_sequence[0], index=0)
    seeder.park("cam")
    seeder.close("cam", discard_parked=False)

    failures = []

    def hammer(registry):
        try:
            for _ in range(4):
                opened = registry.open("cam", factory)
                if opened.created:
                    with registry.checkout("cam") as session:
                        session.feed(tiny_sequence[0], index=0)
                registry.park("cam")
                registry.close("cam", discard_parked=False)
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            failures.append(exc)

    registries = [SessionRegistry(max_live=2, park_root=tmp_path) for _ in range(2)]
    threads = [
        threading.Thread(target=hammer, args=(registry,)) for registry in registries
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures  # in particular, never a CheckpointCorruptError
    # The survivor of all that churn still resumes cleanly.
    final = SessionRegistry(max_live=2, park_root=tmp_path)
    opened = final.open("cam", factory)
    assert opened.resumed and opened.session.next_frame_index == 1
    final.shutdown()
    for registry in registries:
        registry.shutdown()
