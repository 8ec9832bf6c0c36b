"""Tests for the bounded, concurrent SLAM evaluation service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.runner import EvalSettings, run_slam
from repro.eval.service import KNOWN_ALGORITHMS, RunKey, SlamService, default_service
from repro.perf import PerfRecorder
from repro.serve import ParkingLot
from repro.slam import OrbLiteSlam
from repro.slam.session import CHECKPOINT_ARRAYS, CHECKPOINT_MANIFEST

CHEAP = dict(num_frames=4, tracking_iterations=4, mapping_iterations=2)


def _cheap_keys():
    return [
        RunKey("orb", "desk", **CHEAP),
        RunKey("droid", "desk", **CHEAP),
        RunKey("orb", "house", **CHEAP),
        RunKey("droid", "house", **CHEAP),
    ]


def assert_same_trajectories(a, b):
    assert len(a) == len(b)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat)
        assert np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans)


# ---------------------------------------------------------------------------
# RunKey
# ---------------------------------------------------------------------------
def test_run_key_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        RunKey("magic", "desk")


def test_run_key_from_settings_centralizes_num_frames():
    settings = EvalSettings(num_frames=7)
    key = RunKey.from_settings("ags", "desk", settings, iter_t=2)
    assert key.num_frames == 7
    assert key.iter_t == 2
    assert key.algorithm == "ags"


def test_run_key_slug_is_filesystem_safe():
    for algorithm in KNOWN_ALGORITHMS:
        slug = RunKey(algorithm, "desk").slug()
        assert "/" not in slug and " " not in slug


# ---------------------------------------------------------------------------
# Bounded store
# ---------------------------------------------------------------------------
def test_store_returns_the_same_instance_on_hits():
    service = SlamService(max_entries=8, perf=PerfRecorder(enabled=False))
    key = RunKey("orb", "desk", **CHEAP)
    first = service.run(key)
    second = service.run(key)
    assert first is second
    assert service.hits == 1 and service.misses == 1


def test_store_evicts_least_recently_used_beyond_budget():
    service = SlamService(max_entries=2, perf=PerfRecorder(enabled=False))
    keys = _cheap_keys()[:3]
    for key in keys:
        service.run(key)
    assert len(service) == 2
    assert service.evictions == 1
    assert keys[0] not in service  # oldest evicted
    assert keys[1] in service and keys[2] in service
    # An evicted key re-executes and produces an equal (fresh) result.
    revived = service.run(keys[0])
    assert keys[0] in service
    assert len(revived) == CHEAP["num_frames"]


def test_store_rejects_non_positive_budget():
    with pytest.raises(ValueError):
        SlamService(max_entries=0)


# ---------------------------------------------------------------------------
# Concurrent batch execution
# ---------------------------------------------------------------------------
def test_run_many_workers_match_sequential_results():
    keys = _cheap_keys()
    sequential = SlamService(max_entries=16, perf=PerfRecorder(enabled=False))
    concurrent = SlamService(max_entries=16, perf=PerfRecorder(enabled=False))
    results_seq = sequential.run_many(keys, workers=1)
    results_par = concurrent.run_many(keys, workers=3)
    for a, b in zip(results_seq, results_par):
        assert_same_trajectories(a, b)


def test_run_many_deduplicates_and_preserves_order():
    service = SlamService(max_entries=16, perf=PerfRecorder(enabled=False))
    key_a, key_b = _cheap_keys()[:2]
    results = service.run_many([key_a, key_b, key_a], workers=2)
    assert results[0] is results[2]
    assert results[0].algorithm == "orb-lite"
    assert service.misses == 2


def test_run_many_merges_worker_perf_into_service_recorder():
    recorder = PerfRecorder()
    service = SlamService(max_entries=16, perf=recorder)
    service.run_many(_cheap_keys()[:2], workers=2)
    timers = recorder.timers.as_dict()
    assert any(path.startswith("eval/orb/") for path in timers)
    assert any(path.startswith("eval/droid/") for path in timers)
    assert recorder.counters.get("frames.processed") > 0


# ---------------------------------------------------------------------------
# run_slam shim over the default service
# ---------------------------------------------------------------------------
def test_run_slam_delegates_to_the_default_service():
    result = run_slam("orb", "desk", **CHEAP)
    key = RunKey("orb", "desk", **CHEAP)
    assert default_service().run(key) is result


def test_run_slam_supports_the_droid_session():
    result = run_slam("droid", "desk", **CHEAP)
    assert result.algorithm == "droid-lite"
    assert len(result) == CHEAP["num_frames"]


# ---------------------------------------------------------------------------
# Session checkpoint parking
# ---------------------------------------------------------------------------
def test_service_parks_and_resumes_session_checkpoints(tmp_path, tiny_sequence):
    """A run key's slug names its parked checkpoint in the ``ParkingLot``,
    the one owner of durable session state."""
    lot = ParkingLot(tmp_path)
    key = RunKey("orb", "desk", **CHEAP)

    system = OrbLiteSlam(tiny_sequence.intrinsics)
    system.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=2):
        system.feed(frame, index=index)
    path = lot.park(key.slug(), system.state())
    assert (path / CHECKPOINT_MANIFEST).exists() and (path / CHECKPOINT_ARRAYS).exists()

    resumed_state = lot.resume(key.slug())
    resumed = OrbLiteSlam(tiny_sequence.intrinsics)
    resumed.restore(resumed_state)
    for index, frame in tiny_sequence.stream(start=2, stop=4):
        resumed.feed(frame, index=index)

    reference = OrbLiteSlam(tiny_sequence.intrinsics).run(tiny_sequence, num_frames=4)
    assert_same_trajectories(reference, resumed.finalize())


def test_run_many_batch_larger_than_budget_executes_each_run_once():
    """Eviction limits retention, not execution: no silent re-runs."""
    service = SlamService(max_entries=2, perf=PerfRecorder(enabled=False))
    keys = _cheap_keys()  # 4 distinct keys > budget of 2
    results = service.run_many(keys, workers=2)
    assert len(results) == len(keys)
    assert service.misses == len(keys)  # each executed exactly once
    assert service.hits == 0
    assert len(service) == 2  # only the budget is retained
    for key, result in zip(keys, results):
        assert len(result) == CHEAP["num_frames"]
        assert result.sequence == key.sequence


def test_concurrent_run_calls_keep_perf_sections_well_formed():
    """Direct run() calls from multiple threads must not interleave on one
    recorder's section stack (each execution merges a private recorder)."""
    from concurrent.futures import ThreadPoolExecutor

    recorder = PerfRecorder()
    service = SlamService(max_entries=8, perf=recorder)
    keys = _cheap_keys()
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(service.run, keys))
    for path in recorder.timers.as_dict():
        # A corrupted stack would produce paths with two eval/ segments.
        assert path.count("eval/") == 1, path


def test_two_services_sharing_one_recorder_do_not_drop_merges(monkeypatch):
    """Concurrent merges from several services must serialize.

    Regression test: two service instances defaulting to the same
    (process-wide) recorder used to interleave ``merge`` read-modify-
    write cycles under their *own* store locks, double-counting or
    dropping timings/counters.  Merges now serialize on the receiving
    recorder itself, so every increment survives any interleaving.
    """
    import threading

    import repro.eval.service as service_module

    def stub_execute(key, perf, *_policy_and_hook):
        with perf.section("eval/stub"):
            perf.count("stub.runs")
        from repro.slam.results import SlamResult

        return SlamResult(algorithm=key.algorithm, sequence=key.sequence)

    monkeypatch.setattr(service_module, "_execute_run", stub_execute)

    shared = PerfRecorder()
    services = [SlamService(max_entries=256, perf=shared) for _ in range(2)]
    runs_per_service = 100
    key_batches = [
        [RunKey("orb", f"svc{i}-seq{j}", **CHEAP) for j in range(runs_per_service)]
        for i in range(2)
    ]

    threads = [
        threading.Thread(target=service.run_many, args=(batch,), kwargs={"workers": 4})
        for service, batch in zip(services, key_batches)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = 2 * runs_per_service
    assert shared.counters.get("stub.runs") == total
    assert shared.timers.get("eval/stub").calls == total


def test_configure_default_service_is_atomic_under_concurrency():
    """Regression: a racing caller could observe a half-configured
    default service (budget updated, trim not yet applied).  The module
    lock makes configure/lookup atomic; the store lock commits the
    budget and its trim together."""
    import threading

    from repro.eval.service import configure_default_service

    service = configure_default_service(max_entries=8)
    original_budget = service.max_entries
    stop = threading.Event()
    errors = []

    def flip():
        try:
            while not stop.is_set():
                configure_default_service(max_entries=1)
                configure_default_service(max_entries=8)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def observe():
        try:
            while not stop.is_set():
                seen = default_service()
                assert seen is service
                assert len(seen) <= max(seen.max_entries, 8)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=t) for t in (flip, flip, observe, observe)]
    for t in threads:
        t.start()
    import time

    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert not errors
    configure_default_service(max_entries=original_budget)
