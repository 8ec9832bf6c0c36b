"""Fault injection + frame-granular recovery: the headline invariants.

1. **Determinism** — a fault plan's schedule is a pure function of
   (plan, run length): same indices on every run, independent of firing
   bookkeeping or retries.
2. **Disarmed bit-identity** — the service's per-frame retry loop
   without any fault plan produces results bit-identical to a direct
   ``system.run``.
3. **Recovery bit-identity** — a run whose faulted frames are rolled
   back and retried is bit-identical to the uninterrupted run, for all
   five systems.
4. **Retry semantics** — ``SessionRunner.retry_frame`` rolls a failed
   frame back in place (earlier results stay the same objects) without
   going through ``state()``/``restore()``; transient faults are retried
   within the per-frame budget; fatal faults propagate immediately;
   exhaustion raises ``FatalError`` from the last transient cause and
   leaves the session parkable at the failed frame; ``run_many``
   isolates per-key failures.

The full transient plan × system matrix runs in the slow lane (a cell
that exhausted the per-frame retry budget would raise ``FatalError``,
so a passing cell also converged within it); tier-1 covers disarmed
bit-identity and the composite ``chaos`` plan on every system, the
rollback primitive itself on every system, the fatal crash on one
system, and the serving tier's ingest watchdog on a stalled map stage.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import load_sequence
from repro.errors import (
    FatalError,
    InjectedCrashError,
    InjectedFaultError,
    RunManyError,
    StageTimeoutError,
    TransientError,
)
from repro.eval.service import RetryPolicy, RunKey, SlamService, build_session
from repro.faults import FaultInjector, available_fault_plans, get_fault_plan
from repro.faults.injector import _DOMAIN_MAP, _DOMAIN_SOURCE, _DOMAIN_TRACK
from repro.perf import PerfRecorder, build_report
from repro.serve import AsyncSessionHandle, SessionRegistry

CHEAP = dict(
    sequence="desk", num_frames=6, tracking_iterations=4, mapping_iterations=2
)
SYSTEMS = ("splatam", "gaussian-slam", "orb", "droid", "ags")
TRANSIENT_PLANS = tuple(
    name for name in available_fault_plans() if name != "worker-crash"
)


def _key(algorithm: str, **overrides) -> RunKey:
    params = dict(CHEAP)
    params.update(overrides)
    return RunKey(algorithm=algorithm, **params)


def _trajectory(result) -> np.ndarray:
    return np.array([f.estimated_pose.as_matrix() for f in result.frames])


def _session(algorithm: str, intrinsics):
    return build_session(
        algorithm,
        intrinsics,
        tracking_iterations=CHEAP["tracking_iterations"],
        mapping_iterations=CHEAP["mapping_iterations"],
    )


def _fail_map_at(session, index: int, times: int | None) -> None:
    """Make ``session._map`` raise a transient fault at ``index``.

    The fault fires ``times`` times (``None``: on every attempt), after
    the frame's ``_track`` already ran — the case a rollback must undo.
    """
    original = session._map
    left = [times]

    def faulted(i, frame, tracked):
        if i == index and left[0] != 0:
            if left[0] is not None:
                left[0] -= 1
            raise InjectedFaultError(f"test map fault (frame {i})")
        return original(i, frame, tracked)

    session._map = faulted


def _forbid_snapshots(session) -> None:
    """Fail the test if anything takes a ``state()``/``restore()`` copy."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the rollback point must not go through state()/restore()")

    session.state = session.restore = forbidden


def assert_results_identical(a, b):
    """Bit-identity over everything a recovered run must reproduce."""
    assert len(a.frames) == len(b.frames)
    assert np.array_equal(_trajectory(a), _trajectory(b))
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_index == fb.frame_index
        assert fa.tracking_loss == fb.tracking_loss
        assert fa.mapping_loss == fb.mapping_loss
        assert fa.is_keyframe == fb.is_keyframe
        assert fa.num_gaussians == fb.num_gaussians


@pytest.fixture(scope="module")
def clean_results():
    """One uninterrupted (fault-free, plain-path) run per system."""
    service = SlamService(perf=PerfRecorder())
    return {algo: service.run(_key(algo)) for algo in SYSTEMS}


ROLLBACK_FRAMES, ROLLBACK_AT = 5, 2


@pytest.fixture(scope="module")
def tiny_references(tiny_sequence):
    """Fault-free traced synchronous feeds of the tiny sequence, per system."""
    references = {}
    for algorithm in SYSTEMS:
        session = _session(algorithm, tiny_sequence.intrinsics)
        session.collect_trace = True
        references[algorithm] = session.run(tiny_sequence, num_frames=ROLLBACK_FRAMES)
    return references


# ---------------------------------------------------------------------------
# Plan determinism
# ---------------------------------------------------------------------------
def test_fault_schedule_is_pure_and_repeatable():
    plan = get_fault_plan("chaos")
    first = FaultInjector(plan)
    second = FaultInjector(plan)
    for domain in (_DOMAIN_TRACK, _DOMAIN_MAP, _DOMAIN_SOURCE):
        assert first.schedule(domain, 20) == second.schedule(domain, 20)
    # Consuming fires does not perturb the schedule.
    index = min(first.schedule(_DOMAIN_TRACK, 20))
    with pytest.raises(InjectedFaultError):
        first.maybe_raise(plan.track_errors, _DOMAIN_TRACK, index, 20)
    assert first.schedule(_DOMAIN_TRACK, 20) == second.schedule(_DOMAIN_TRACK, 20)


def test_every_registered_plan_fires_and_fits_the_retry_budget():
    for name in available_fault_plans():
        plan = get_fault_plan(name)
        injector = FaultInjector(plan)
        scheduled = any(
            injector.schedule(domain, 10)
            for domain in (_DOMAIN_TRACK, _DOMAIN_MAP, _DOMAIN_SOURCE)
        )
        assert scheduled, f"plan '{name}' never fires at 10 frames"
        if name != "worker-crash":
            assert plan.max_total_fires <= RetryPolicy().max_retries, name


def test_fire_budget_is_shared_across_attempts():
    plan = get_fault_plan("track-crash")
    injector = FaultInjector(plan)
    total_budget = plan.track_errors.max_fires
    fires = 0
    for _attempt in range(total_budget + 3):
        for index in range(10):
            try:
                injector.maybe_raise(plan.track_errors, _DOMAIN_TRACK, index, 10)
            except InjectedFaultError:
                fires += 1
    assert fires == total_budget
    assert sum(injector.fired.values()) == total_budget


# ---------------------------------------------------------------------------
# Bit-identity invariants
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_disarmed_recovery_driver_is_bit_identical(algorithm):
    """Service runs feed frame by frame through ``retry_frame``; with no
    fault plan that is bit-identical to a direct ``system.run``."""
    sequence = load_sequence(CHEAP["sequence"], num_frames=CHEAP["num_frames"])
    direct = _session(algorithm, sequence.intrinsics).run(
        sequence, num_frames=CHEAP["num_frames"]
    )
    service = SlamService(perf=PerfRecorder())
    assert_results_identical(direct, service.run(_key(algorithm)))
    assert service.retries == 0


@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_chaos_recovery_is_bit_identical(algorithm, clean_results):
    service = SlamService(perf=PerfRecorder())
    result = service.run(_key(algorithm, faults="chaos"))
    assert_results_identical(clean_results[algorithm], result)
    assert service.retries > 0  # the plan actually crashed the run
    counters = service.perf.counters.as_dict()
    assert counters.get("service.retries") == service.retries


@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_retry_frame_rolls_back_a_map_fault_in_place(
    algorithm, tiny_sequence, tiny_references
):
    """Mid-stream faults are rolled back and the frame re-run.

    The first attempt hits a ``_map`` fault (after ``_track`` ran); the
    second completes the feed and then fails, so its result and trace
    must be truncated away.  Earlier results stay the very same objects
    (history is truncated in place, never copied), and the finished
    stream — traces included — is bit-identical to a fault-free
    synchronous feed.
    """
    num_frames, fail_at = ROLLBACK_FRAMES, ROLLBACK_AT
    reference = tiny_references[algorithm]
    session = _session(algorithm, tiny_sequence.intrinsics)
    session.collect_trace = True
    session.begin(tiny_sequence.name)
    for index in range(fail_at):
        session.feed(tiny_sequence[index], index)
    earlier = list(session.finalize().frames)

    _fail_map_at(session, fail_at, times=1)
    _forbid_snapshots(session)
    attempts = []

    def step():
        attempts.append(fail_at)
        result = session.feed(tiny_sequence[fail_at], fail_at)
        if len(attempts) == 2:
            raise InjectedFaultError("fault after the frame was fed")
        return result

    retries = []
    session.retry_frame(
        step,
        RetryPolicy(backoff=0.0),
        on_retry=lambda: retries.append(session.next_frame_index),
    )
    assert retries == [fail_at, fail_at]  # rolled back before each retry
    for index in range(fail_at + 1, num_frames):
        session.feed(tiny_sequence[index], index)
    result = session.finalize()

    assert all(a is b for a, b in zip(earlier, result.frames))
    assert_results_identical(reference, result)
    assert [t.frame_index for t in result.trace.frames] == [
        t.frame_index for t in reference.trace.frames
    ]


@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_retry_exhaustion_through_ingest_is_fatal_and_resumable(
    algorithm, tiny_sequence, tiny_references, tmp_path
):
    """A frame that keeps failing fails the handle with ``FatalError``.

    The error chains the transient cause, the session stays positioned
    at the failed frame, and parking it and resuming on another registry
    finishes the stream bit-identical to a fault-free feed.
    """
    num_frames, fail_at = ROLLBACK_FRAMES, ROLLBACK_AT
    reference = tiny_references[algorithm]

    def factory():
        return _session(algorithm, tiny_sequence.intrinsics)

    lot = tmp_path / "lot"
    registry = SessionRegistry(max_live=1, park_root=lot)
    session = registry.open("cam", factory, sequence_name=tiny_sequence.name).session
    _fail_map_at(session, fail_at, times=None)
    handle = AsyncSessionHandle(registry, "cam")
    for index in range(num_frames):
        handle.submit(tiny_sequence[index])
    with pytest.raises(FatalError) as excinfo:
        handle.flush()
    assert isinstance(excinfo.value.__cause__, InjectedFaultError)
    with registry.checkout("cam") as failed:
        assert failed.next_frame_index == fail_at
        assert len(failed.finalize().frames) == fail_at
    assert handle.shed_pending() == num_frames - fail_at
    handle.close()
    registry.park("cam")
    registry.shutdown()

    resumed = SessionRegistry(max_live=1, park_root=lot)
    resumed.open("cam", factory, sequence_name=tiny_sequence.name)
    with resumed.checkout("cam") as live:
        for index in range(fail_at, num_frames):
            live.feed(tiny_sequence[index], index)
    assert_results_identical(reference, resumed.result("cam"))
    resumed.shutdown()


def test_watchdog_converts_stall_and_recovers(tiny_sequence):
    """The ingest watchdog turns a stalled ``_map`` into a timeout.

    A flush blocked on a drain that makes no progress raises
    :class:`StageTimeoutError` instead of hanging.  The stalled frame
    stays queued and the session keeps its state, so once the stall ends
    the stream finishes bit-identical to a synchronous ``feed``.
    """
    num_frames, stall_at = 5, 2
    perf = PerfRecorder()
    registry = SessionRegistry(max_live=1)
    session = registry.open(
        "cam",
        lambda: build_session("orb", tiny_sequence.intrinsics),
        sequence_name=tiny_sequence.name,
    ).session
    stall_over = threading.Event()
    original_map = session._map

    def stalled_map(index, frame, tracked):
        if index == stall_at:
            stall_over.wait(timeout=30.0)  # sleeps until the test ends the stall
        return original_map(index, frame, tracked)

    session._map = stalled_map
    handle = AsyncSessionHandle(registry, "cam", watchdog_timeout=0.2, perf=perf)
    for index in range(num_frames):
        handle.submit(tiny_sequence[index])
    with pytest.raises(StageTimeoutError, match="no progress"):
        handle.flush()
    assert perf.counters.as_dict()["session.watchdog_timeouts"] >= 1

    stall_over.set()
    served = handle.result()
    handle.close()
    registry.shutdown()

    reference = build_session("orb", tiny_sequence.intrinsics)
    reference.begin(tiny_sequence.name)
    for index in range(num_frames):
        reference.feed(tiny_sequence[index], index=index)
    assert_results_identical(reference.finalize(), served)


# ---------------------------------------------------------------------------
# Retry semantics
# ---------------------------------------------------------------------------
def test_fatal_fault_is_not_retried():
    service = SlamService(perf=PerfRecorder())
    with pytest.raises(InjectedCrashError):
        service.run(_key("splatam", faults="worker-crash"))
    assert service.retries == 0


def test_retry_exhaustion_surfaces_the_transient_cause():
    service = SlamService(
        perf=PerfRecorder(), retry=RetryPolicy(max_retries=0, backoff=0.0)
    )
    with pytest.raises(FatalError) as excinfo:
        service.run(_key("splatam", faults="track-crash"))
    assert isinstance(excinfo.value.__cause__, InjectedFaultError)
    assert service.retries == 0


def test_retry_policy_backoff_is_bounded():
    policy = RetryPolicy(max_retries=5, backoff=0.1, backoff_cap=0.3)
    delays = [policy.delay(i) for i in range(5)]
    assert delays[0] == pytest.approx(0.1)
    assert max(delays) == pytest.approx(0.3)
    assert delays == sorted(delays)


def test_stage_timeout_is_transient():
    # The service retries exactly the errors that declare themselves so.
    assert issubclass(StageTimeoutError, TransientError)
    assert issubclass(InjectedFaultError, TransientError)
    assert not issubclass(InjectedCrashError, TransientError)


# ---------------------------------------------------------------------------
# run_many isolation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_run_many_isolates_injected_worker_crash(workers, clean_results):
    service = SlamService(perf=PerfRecorder())
    healthy_a = _key("splatam")
    poisoned = _key("splatam", faults="worker-crash")
    healthy_b = _key("orb")
    with pytest.raises(RunManyError) as excinfo:
        service.run_many([healthy_a, poisoned, healthy_b], workers=workers)
    assert set(excinfo.value.failures) == {poisoned}
    assert isinstance(excinfo.value.failures[poisoned], InjectedCrashError)
    # The surviving keys completed and were stored despite the crash.
    assert healthy_a in service and healthy_b in service
    assert_results_identical(clean_results["splatam"], service.run(healthy_a))


def test_run_many_return_exceptions_keeps_order(clean_results):
    service = SlamService(perf=PerfRecorder())
    keys = [_key("splatam"), _key("splatam", faults="worker-crash"), _key("orb")]
    out = service.run_many(keys, workers=2, return_exceptions=True)
    assert len(out) == 3
    assert isinstance(out[1], InjectedCrashError)
    assert_results_identical(clean_results["splatam"], out[0])
    assert_results_identical(clean_results["orb"], out[2])


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------
def test_run_key_validates_fault_plan_names():
    with pytest.raises(ValueError, match="unknown fault plan"):
        _key("splatam", faults="no-such-plan")
    assert "fl-chaos" in _key("splatam", faults="chaos").slug()


def test_run_slam_threads_faults_through(clean_results):
    from repro.eval.runner import run_slam

    result = run_slam(
        "splatam",
        "desk",
        num_frames=CHEAP["num_frames"],
        tracking_iterations=CHEAP["tracking_iterations"],
        mapping_iterations=CHEAP["mapping_iterations"],
        faults="track-crash",
    )
    assert_results_identical(clean_results["splatam"], result)


def test_reports_surface_fault_counters_as_zero_when_silent():
    report = build_report(PerfRecorder())
    robustness = report["robustness"]
    for counter in (
        "session.watchdog_timeouts",
        "service.retries",
    ):
        assert robustness[counter] == 0


# ---------------------------------------------------------------------------
# Full matrix (slow lane)
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("algorithm", SYSTEMS)
@pytest.mark.parametrize("plan", sorted(TRANSIENT_PLANS))
def test_full_fault_matrix_recovery_bit_identity(plan, algorithm, clean_results):
    service = SlamService(perf=PerfRecorder())
    result = service.run(_key(algorithm, faults=plan))
    assert_results_identical(clean_results[algorithm], result)
