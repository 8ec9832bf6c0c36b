"""Adversarial stream scenario tests (repro.datasets.scenarios).

The load-bearing property is *statelessness per frame index*: frame ``i``
of a scenario is a pure function of ``i`` and the underlying source, so
scenario streams are independent of access order, of sharing, of
batch ``run`` vs streaming ``feed``, and of checkpoint/resume into a
fresh process.  The SLAM-facing tests at the bottom verify those session-level
consequences for all five systems.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AGSConfig, AgsSlam
from repro.datasets.scenarios import (
    SCENARIOS,
    FrameDrops,
    FrameDuplicates,
    ScenarioSource,
    ScenarioSpec,
    Window,
    apply_scenario,
    available_scenarios,
    get_scenario,
)
from repro.slam import (
    DroidLiteSlam,
    GaussianSlam,
    GaussianSlamConfig,
    OrbLiteSlam,
    SplaTam,
    SplaTamConfig,
    load_session_state,
    save_session_state,
)

NUM_FRAMES = 5
SCENARIO = "stress"


def _frames_equal(a, b) -> bool:
    return (
        np.array_equal(a.color, b.color)
        and np.array_equal(a.depth, b.depth)
        and np.array_equal(a.gt_pose.quat, b.gt_pose.quat)
        and np.array_equal(a.gt_pose.trans, b.gt_pose.trans)
    )


# ---------------------------------------------------------------------------
# Spec / registry basics
# ---------------------------------------------------------------------------
def test_registry_scenarios_are_resolvable():
    assert "clean" in available_scenarios()
    for name in available_scenarios():
        spec = get_scenario(name)
        assert spec.name == name


def test_unknown_scenario_raises_with_choices():
    with pytest.raises(ValueError, match="unknown scenario 'typo'"):
        get_scenario("typo")


def test_clean_scenario_passes_source_through(tiny_sequence):
    assert apply_scenario(tiny_sequence, None) is tiny_sequence
    assert apply_scenario(tiny_sequence, "clean") is tiny_sequence
    assert apply_scenario(tiny_sequence, ScenarioSpec(name="noop")) is tiny_sequence


def test_scenario_source_is_a_frame_source(tiny_sequence):
    source = apply_scenario(tiny_sequence, SCENARIO)
    assert isinstance(source, ScenarioSource)
    assert len(source) == len(tiny_sequence)
    assert source.intrinsics is tiny_sequence.intrinsics
    assert tiny_sequence.name in source.name
    streamed = list(source.stream(stop=3))
    assert [index for index, _ in streamed] == [0, 1, 2]
    frame = source[1]
    assert frame.color.shape == tiny_sequence[1].color.shape
    assert frame.depth.shape == tiny_sequence[1].depth.shape


def test_ground_truth_is_untouched(tiny_sequence):
    source = apply_scenario(tiny_sequence, SCENARIO)
    for index in range(len(source)):
        clean = tiny_sequence[index]
        degraded = source[index]
        assert np.array_equal(degraded.gt_pose.quat, clean.gt_pose.quat)
        assert np.array_equal(degraded.gt_pose.trans, clean.gt_pose.trans)
        assert degraded.timestamp == clean.timestamp


# ---------------------------------------------------------------------------
# Determinism: stateless per frame index
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(set(available_scenarios()) - {"clean"}))
def test_scenario_frames_are_order_independent(name, tiny_sequence):
    """Forward, backward and random access deliver identical frames."""
    spec = get_scenario(name)
    forward = ScenarioSource(tiny_sequence, spec)
    backward = ScenarioSource(tiny_sequence, spec)
    frames_fwd = [forward[i] for i in range(len(forward))]
    frames_bwd = [backward[i] for i in reversed(range(len(backward)))][::-1]
    for a, b in zip(frames_fwd, frames_bwd):
        assert _frames_equal(a, b)


def test_scenario_frames_are_reproducible_across_instances(tiny_sequence):
    a = ScenarioSource(tiny_sequence, SCENARIOS[SCENARIO])
    b = ScenarioSource(tiny_sequence, SCENARIOS[SCENARIO])
    for index in range(len(a)):
        assert _frames_equal(a[index], b[index])


def test_scenario_seed_changes_the_stream(tiny_sequence):
    base = SCENARIOS["noise"]
    a = ScenarioSource(tiny_sequence, base)
    b = ScenarioSource(tiny_sequence, ScenarioSpec(
        name=base.name, seed=base.seed + 1, noise=base.noise,
    ))
    assert any(
        not np.array_equal(a[i].color, b[i].color) for i in range(len(a))
    )


def test_windows_bound_the_degradation(tiny_sequence):
    spec = ScenarioSpec(
        name="windowed", seed=5,
        drops=FrameDrops(probability=1.0, window=Window(0.5, 0.75)),
    )
    source = ScenarioSource(tiny_sequence, spec)
    length = len(source)
    lo, hi = spec.drops.window.bounds(length)
    assert 0 < lo < hi <= length
    for index in range(length):
        if lo <= index < hi:
            assert source.content_index(index) < index
        else:
            # Outside the window content is delivered unmodified.
            assert source.content_index(index) == index
            assert _frames_equal(source[index], tiny_sequence[index])


def test_frame_zero_is_never_dropped_or_duplicated(tiny_sequence):
    spec = ScenarioSpec(
        name="hostile", seed=6,
        drops=FrameDrops(probability=1.0),
        duplicates=FrameDuplicates(probability=1.0),
    )
    source = ScenarioSource(tiny_sequence, spec)
    assert source.content_index(0) == 0
    assert _frames_equal(source[0], tiny_sequence[0])


# ---------------------------------------------------------------------------
# Session-level consequences, for all five systems
# ---------------------------------------------------------------------------
def _make_splatam(sequence, **kwargs):
    return SplaTam(
        sequence.intrinsics,
        SplaTamConfig(tracking_iterations=5, mapping_iterations=3),
        **kwargs,
    )


def _make_ags(sequence, **kwargs):
    return AgsSlam(
        sequence.intrinsics,
        AGSConfig(iter_t=2, baseline_tracking_iterations=5),
        mapping_iterations=3,
        **kwargs,
    )


def _make_gaussian_slam(sequence, **kwargs):
    return GaussianSlam(
        sequence.intrinsics,
        GaussianSlamConfig(tracking_iterations=4, mapping_iterations=3),
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


def _poses_identical(a, b) -> bool:
    return len(a.frames) == len(b.frames) and all(
        np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat)
        and np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans)
        and fa.tracking_loss == fb.tracking_loss
        for fa, fb in zip(a.frames, b.frames)
    )


# Case -> (system, scenario, checkpoint index).  On the ``stress``
# prefix no ladder fires; the ``-ladder`` cases run ``burst``, where the
# fallback ladder fires on frame 3 for all three monitored systems and
# again on frame 4 for SplaTAM and Gaussian-SLAM, so the checkpoint at
# frame 4 lands right after a firing.
CHECKPOINT_CASES = {name: (name, SCENARIO, 3) for name in FACTORIES}
CHECKPOINT_CASES.update(
    {f"{name}-ladder": (name, "burst", 4) for name in ("splatam", "gaussian-slam", "ags")}
)


def _feed(system, source, start, stop):
    for index, frame in source.stream(start=start, stop=stop):
        system.feed(frame, index=index)
    return system


@pytest.fixture(scope="module")
def scenario_reference_runs(tiny_sequence):
    runs = {}
    for case, (name, scenario, _) in CHECKPOINT_CASES.items():
        source = apply_scenario(tiny_sequence, scenario)
        runs[case] = FACTORIES[name](source).run(source, num_frames=NUM_FRAMES)
    return runs


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
def test_checkpoint_resume_under_scenario_is_bit_identical(
    case, tiny_sequence, scenario_reference_runs, tmp_path
):
    """Mid-stream checkpoint/resume with an active scenario == uninterrupted.

    The resumed session re-wraps the source in a *fresh* ScenarioSource
    (a fresh process would), so this also property-tests that scenario
    frames do not depend on the wrapper instance that produced the
    earlier frames.  The ``-ladder`` cases hold the tracking-health
    ladder's state (rolling baseline, previous observation, AGS's
    corrected velocity prior) to the same bar.
    """
    name, scenario, checkpoint_at = CHECKPOINT_CASES[case]
    factory = FACTORIES[name]
    reference = scenario_reference_runs[case]
    if case.endswith("-ladder"):
        assert reference.total_fallbacks > 0
    source = apply_scenario(tiny_sequence, scenario)
    interrupted = factory(source)
    interrupted.begin(source.name)
    _feed(interrupted, source, 0, checkpoint_at)
    save_session_state(interrupted.state(), tmp_path / "checkpoint")

    fresh_wrap = ScenarioSource(source.source, source.spec)
    resumed = factory(fresh_wrap)
    resumed.restore(load_session_state(tmp_path / "checkpoint"))
    result = _feed(resumed, fresh_wrap, checkpoint_at, NUM_FRAMES).finalize()
    assert _poses_identical(reference, result)
    assert [
        (f.degraded, f.fallbacks_used, f.relocalized) for f in result.frames
    ] == [(f.degraded, f.fallbacks_used, f.relocalized) for f in reference.frames]
