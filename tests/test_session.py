"""Streaming session tests: feed/run equivalence and checkpoints.

Two properties anchor the session architecture:

1. ``run(sequence)`` (the compatibility shim) and frame-by-frame
   ``feed`` produce identical results — the refactor onto
   :class:`~repro.slam.session.SessionRunner` changed no numbers.
2. ``state()`` → ``restore()`` mid-sequence (through the disk format,
   into a freshly constructed system) reproduces the uninterrupted run
   *bit-identically*: trajectory, losses, covisibility decisions,
   key-frame designations, final map and traces — for all five systems.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AGSConfig, AgsSlam
from repro.eval.service import KNOWN_ALGORITHMS, build_session
from repro.perf import PerfRecorder
from repro.slam import (
    DroidLiteSlam,
    GaussianSlam,
    GaussianSlamConfig,
    OrbLiteSlam,
    SlamSession,
    SplaTam,
    SplaTamConfig,
    evaluate_mapping_quality,
    load_session_state,
    save_session_state,
)

NUM_FRAMES = 5


def _make_splatam(sequence, **kwargs):
    return SplaTam(
        sequence.intrinsics,
        SplaTamConfig(tracking_iterations=5, mapping_iterations=3, collect_trace=True),
        **kwargs,
    )


def _make_ags(sequence, **kwargs):
    return AgsSlam(
        sequence.intrinsics,
        AGSConfig(iter_t=2, baseline_tracking_iterations=5),
        mapping_iterations=3,
        collect_trace=True,
        **kwargs,
    )


def _make_gaussian_slam(sequence, **kwargs):
    return GaussianSlam(
        sequence.intrinsics,
        GaussianSlamConfig(tracking_iterations=4, mapping_iterations=3, collect_trace=True),
        **kwargs,
    )


def _make_orb(sequence, **kwargs):
    return OrbLiteSlam(sequence.intrinsics, **kwargs)


def _make_droid(sequence, **kwargs):
    return DroidLiteSlam(sequence.intrinsics, **kwargs)


FACTORIES = {
    "splatam": _make_splatam,
    "ags": _make_ags,
    "gaussian-slam": _make_gaussian_slam,
    "orb-lite": _make_orb,
    "droid-lite": _make_droid,
}
CHECKPOINTED = ("ags", "splatam", "gaussian-slam", "orb-lite", "droid-lite")


def assert_results_identical(a, b):
    """Assert two SlamResults are bit-identical in every recorded field."""
    assert a.algorithm == b.algorithm
    assert a.sequence == b.sequence
    assert len(a) == len(b)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_index == fb.frame_index
        assert np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat)
        assert np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans)
        assert fa.tracking_iterations == fb.tracking_iterations
        assert fa.mapping_iterations == fb.mapping_iterations
        assert fa.tracking_loss == fb.tracking_loss
        assert fa.mapping_loss == fb.mapping_loss
        assert fa.used_coarse_only == fb.used_coarse_only
        assert fa.is_keyframe == fb.is_keyframe
        assert fa.covisibility == fb.covisibility
        assert fa.num_gaussians == fb.num_gaussians
        assert fa.gaussians_skipped == fb.gaussians_skipped
    if a.final_model is None or b.final_model is None:
        assert a.final_model is None and b.final_model is None
    else:
        for name in type(a.final_model).PARAM_NAMES:
            assert np.array_equal(getattr(a.final_model, name), getattr(b.final_model, name))
    if a.trace is None or b.trace is None:
        assert a.trace is None and b.trace is None
    else:
        assert len(a.trace.frames) == len(b.trace.frames)
        for fa, fb in zip(a.trace.frames, b.trace.frames):
            assert fa.tracking.total_pairs == fb.tracking.total_pairs
            assert fa.mapping.total_pairs == fb.mapping.total_pairs


@pytest.fixture(scope="module")
def reference_runs(tiny_sequence):
    """One uninterrupted run per system, shared by the equivalence tests."""
    return {
        name: factory(tiny_sequence).run(tiny_sequence, num_frames=NUM_FRAMES)
        for name, factory in FACTORIES.items()
    }


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_feed_matches_run(name, tiny_sequence, reference_runs):
    system = FACTORIES[name](tiny_sequence)
    assert isinstance(system, SlamSession)
    system.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=NUM_FRAMES):
        frame_result = system.feed(frame, index=index)
        assert frame_result.frame_index == index
    assert_results_identical(reference_runs[name], system.finalize())


@pytest.mark.parametrize("name", CHECKPOINTED)
@pytest.mark.parametrize("checkpoint_at", [1, 3])
def test_checkpoint_resume_is_bit_identical(
    name, checkpoint_at, tiny_sequence, reference_runs, tmp_path
):
    """state() -> disk -> restore() into a fresh system == uninterrupted."""
    factory = FACTORIES[name]
    interrupted = factory(tiny_sequence)
    interrupted.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=checkpoint_at):
        interrupted.feed(frame, index=index)

    save_session_state(interrupted.state(), tmp_path / "checkpoint")
    state = load_session_state(tmp_path / "checkpoint")

    resumed = factory(tiny_sequence)
    resumed.restore(state)
    assert resumed.next_frame_index == checkpoint_at
    for index, frame in tiny_sequence.stream(start=checkpoint_at, stop=NUM_FRAMES):
        resumed.feed(frame, index=index)
    result = resumed.finalize()
    assert_results_identical(reference_runs[name], result)

    # Mapping quality (PSNR) is a pure function of the final map and the
    # frames, so bit-identical maps imply bit-identical PSNR.  The
    # map-free odometry systems have no final model to evaluate.
    if result.final_model is not None:
        reference_quality = evaluate_mapping_quality(reference_runs[name], tiny_sequence)
        resumed_quality = evaluate_mapping_quality(result, tiny_sequence)
        assert reference_quality.mean_psnr == resumed_quality.mean_psnr


def test_restore_into_nonfresh_session_resets_to_snapshot(tiny_sequence, reference_runs):
    """Restoring must replace accumulated history, never extend it.

    Regression test: a session that already ingested frames and then
    restores an earlier checkpoint has to end up with *exactly* the
    snapshot's frames/traces — duplicated or interleaved history would
    silently corrupt every downstream consumer.
    """
    donor = _make_splatam(tiny_sequence)
    donor.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=2):
        donor.feed(frame, index=index)
    state = donor.state()

    receiver = _make_splatam(tiny_sequence)
    receiver.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=4):
        receiver.feed(frame, index=index)

    receiver.restore(state)
    assert receiver.next_frame_index == 2
    partial = receiver.finalize()
    assert [f.frame_index for f in partial.frames] == [0, 1]
    assert partial.trace is None or [t.frame_index for t in partial.trace.frames] == [0, 1]

    for index, frame in tiny_sequence.stream(start=2, stop=NUM_FRAMES):
        receiver.feed(frame, index=index)
    assert_results_identical(reference_runs["splatam"], receiver.finalize())


def test_checkpoint_does_not_alias_the_live_session(tiny_sequence):
    """Continuing the live session must not corrupt an earlier snapshot."""
    system = _make_splatam(tiny_sequence)
    system.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=2):
        system.feed(frame, index=index)
    state = system.state()
    snapshot_means = state.payload["model"]["means"].copy()
    for index, frame in tiny_sequence.stream(start=2, stop=4):
        system.feed(frame, index=index)
    assert np.array_equal(state.payload["model"]["means"], snapshot_means)
    assert len(state.frames) == 2


def test_feed_rejects_out_of_order_frames(tiny_sequence):
    system = _make_orb(tiny_sequence)
    system.begin(tiny_sequence.name)
    system.feed(tiny_sequence[0], index=0)
    with pytest.raises(ValueError, match="out-of-order"):
        system.feed(tiny_sequence[2], index=2)


def test_state_requires_an_active_session(tiny_sequence):
    system = _make_orb(tiny_sequence)
    with pytest.raises(RuntimeError):
        system.state()
    with pytest.raises(RuntimeError):
        system.finalize()


def test_restore_rejects_foreign_algorithm(tiny_sequence):
    splatam = _make_splatam(tiny_sequence)
    splatam.begin(tiny_sequence.name)
    splatam.feed(tiny_sequence[0])
    state = splatam.state()
    orb = _make_orb(tiny_sequence)
    with pytest.raises(ValueError, match="algorithm"):
        orb.restore(state)


def test_feed_auto_begins_a_stream_session(tiny_sequence):
    system = _make_orb(tiny_sequence)
    system.feed(tiny_sequence[0])
    result = system.finalize()
    assert result.sequence == "stream"
    assert len(result) == 1


@pytest.mark.parametrize("algorithm", KNOWN_ALGORITHMS)
def test_every_system_counts_each_fed_frame_once(algorithm, tiny_sequence):
    perf = PerfRecorder()
    session = build_session(
        algorithm,
        tiny_sequence.intrinsics,
        tracking_iterations=2,
        mapping_iterations=1,
        iter_t=1,
        perf=perf,
    )
    for index in range(3):
        session.feed(tiny_sequence[index], index)
    assert perf.counters.get("frames.processed") == 3
