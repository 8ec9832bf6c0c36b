"""Tests for CODEC-assisted covisibility detection and the contribution table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AGSConfig,
    CovisibilityConfig,
    FrameCovisibilityDetector,
    GaussianContributionTable,
    covisibility_level,
)


# ----------------------------- config ----------------------------------------
def test_default_hyperparameters_match_paper():
    config = AGSConfig()
    assert config.thresh_t == pytest.approx(0.9)
    assert config.thresh_m == pytest.approx(0.5)
    assert config.thresh_alpha == pytest.approx(1.0 / 255.0)


def test_thresh_n_scales_with_resolution():
    config = AGSConfig()
    small = config.thresh_n_for_resolution(64, 48)
    large = config.thresh_n_for_resolution(640, 480)
    assert large == 450
    assert small < large
    assert small >= 1


def test_explicit_thresh_n_is_respected():
    assert AGSConfig(thresh_n=99).thresh_n_for_resolution(640, 480) == 99


# ----------------------------- covisibility ----------------------------------
def test_covisibility_level_boundaries():
    assert covisibility_level(0.0) == 1
    assert covisibility_level(0.5) == 3
    assert covisibility_level(1.0) == 5
    assert covisibility_level(2.0) == 5


def test_detector_first_frame_has_no_measurement(tiny_sequence):
    detector = FrameCovisibilityDetector()
    assert detector.observe(0, tiny_sequence[0].gray) is None


def test_detector_identical_frames_have_full_covisibility(tiny_sequence):
    detector = FrameCovisibilityDetector()
    gray = tiny_sequence[0].gray
    detector.observe(0, gray)
    measurement = detector.observe(1, gray)
    assert measurement.value == pytest.approx(1.0)
    assert measurement.level == 5


def test_detector_covisibility_decreases_with_frame_distance(tiny_sequence):
    detector = FrameCovisibilityDetector()
    near = detector._measure(tiny_sequence[1].gray, tiny_sequence[0].gray)
    far = detector._measure(tiny_sequence[6].gray, tiny_sequence[0].gray)
    assert far.value <= near.value


def test_detector_keyframe_comparison(tiny_sequence):
    detector = FrameCovisibilityDetector()
    assert detector.compare_with_keyframe(tiny_sequence[1].gray) is None
    detector.register_keyframe(0, tiny_sequence[0].gray)
    measurement = detector.compare_with_keyframe(tiny_sequence[1].gray)
    assert measurement is not None
    assert measurement == detector._measure(tiny_sequence[1].gray, tiny_sequence[0].gray)


def test_detector_measures_every_frame_after_the_first(tiny_sequence):
    detector = FrameCovisibilityDetector()
    measurements = [detector.observe(index, tiny_sequence[index].gray) for index in range(4)]
    assert measurements[0] is None
    for measurement in measurements[1:]:
        assert 0.0 <= measurement.value <= 1.0
        assert measurement.level == covisibility_level(measurement.value)
        assert measurement.sad_evaluations > 0
    # Nothing per frame is kept: the checkpoint is the reference frames.
    assert sorted(detector.state_dict()) == ["keyframe_gray", "previous_gray"]
    # A snapshot from before the per-frame fields were dropped still loads.
    older = FrameCovisibilityDetector()
    older.load_state_dict(
        {**detector.state_dict(), "keyframe_index": 0, "history": [], "previous_index": 3}
    )
    assert older.observe(4, tiny_sequence[4].gray) == detector.observe(4, tiny_sequence[4].gray)


def test_detector_reset(tiny_sequence):
    detector = FrameCovisibilityDetector()
    detector.observe(0, tiny_sequence[0].gray)
    detector.register_keyframe(0, tiny_sequence[0].gray)
    detector.reset()
    assert detector.observe(5, tiny_sequence[5].gray) is None
    assert detector.compare_with_keyframe(tiny_sequence[5].gray) is None


def test_sad_scale_controls_sensitivity(tiny_sequence):
    strict = FrameCovisibilityDetector(CovisibilityConfig(sad_scale=10.0))
    loose = FrameCovisibilityDetector(CovisibilityConfig(sad_scale=200.0))
    strict_value = strict._measure(tiny_sequence[3].gray, tiny_sequence[0].gray).value
    loose_value = loose._measure(tiny_sequence[3].gray, tiny_sequence[0].gray).value
    assert strict_value <= loose_value


# ----------------------------- contribution table ----------------------------
def test_contribution_table_empty_predicts_all_active():
    table = GaussianContributionTable()
    prediction = table.predict_active_mask(10, thresh_n=5)
    assert prediction.active_mask.all()
    assert prediction.num_skipped == 0


def test_contribution_table_skips_noncontributory():
    table = GaussianContributionTable()
    noncontrib = np.array([100, 2, 50, 0])
    contrib = np.array([0, 30, 0, 40])
    table.record(3, noncontrib, contrib)
    prediction = table.predict_active_mask(4, thresh_n=10)
    # Gaussian 0 and 2: no contribution and many non-contributory pixels.
    assert list(prediction.active_mask) == [False, True, False, True]
    assert prediction.num_skipped == 2
    assert prediction.skip_fraction == pytest.approx(0.5)


def test_contribution_table_new_gaussians_stay_active():
    table = GaussianContributionTable()
    table.record(0, np.array([100]), np.array([0]))
    prediction = table.predict_active_mask(3, thresh_n=10)
    assert list(prediction.active_mask) == [False, True, True]


def test_contribution_table_thresh_n_monotonicity():
    table = GaussianContributionTable()
    rng = np.random.default_rng(0)
    noncontrib = rng.integers(0, 200, size=50)
    table.record(0, noncontrib, np.zeros(50, dtype=int))
    skipped = [
        table.predict_active_mask(50, thresh_n=t).num_skipped for t in (0, 50, 150, 300)
    ]
    assert skipped == sorted(skipped, reverse=True)


def test_contribution_table_mismatched_lengths_raise():
    table = GaussianContributionTable()
    with pytest.raises(ValueError):
        table.record(0, np.zeros(3), np.zeros(4))


def test_contribution_table_clear():
    table = GaussianContributionTable()
    table.record(1, np.array([5]), np.array([0]))
    table.clear()
    assert len(table) == 0
    assert table.keyframe_index is None


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 100), st.integers(0, 300))
def test_contribution_table_skip_never_exceeds_known(count, thresh_n):
    table = GaussianContributionTable()
    rng = np.random.default_rng(count)
    table.record(0, rng.integers(0, 400, size=count), rng.integers(0, 2, size=count))
    prediction = table.predict_active_mask(count + 5, thresh_n=thresh_n)
    assert prediction.num_skipped <= count
    assert prediction.active_mask[count:].all()
