"""Tests for the video CODEC substrate (macro-blocks, motion estimation)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import (
    StreamingEncoder,
    diamond_search,
    full_search,
    motion_estimate,
    sad,
    split_into_macroblocks,
)


def _textured_frame(height=32, width=48, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=(height, width))
    # Smooth it a little so block matching has structure to latch onto.
    return 0.5 * base + 0.5 * np.roll(base, 1, axis=1)


def test_sad_zero_for_identical_blocks():
    block = np.random.default_rng(0).uniform(size=(8, 8))
    assert sad(block, block) == 0.0


def test_sad_positive_for_different_blocks():
    rng = np.random.default_rng(1)
    assert sad(rng.uniform(size=(8, 8)), rng.uniform(size=(8, 8))) > 0


def test_sad_shape_mismatch_raises():
    with pytest.raises(ValueError):
        sad(np.zeros((8, 8)), np.zeros((4, 4)))


def test_split_into_macroblocks_shape():
    grid = split_into_macroblocks(np.zeros((48, 64)), block_size=8)
    assert grid.blocks_x == 8 and grid.blocks_y == 6
    assert grid.blocks.shape == (6, 8, 8, 8)
    assert grid.num_blocks == 48


def test_split_pads_non_multiple_sizes():
    grid = split_into_macroblocks(np.zeros((30, 50)), block_size=8)
    assert grid.blocks_x == 7 and grid.blocks_y == 4


def test_split_rejects_color_images():
    with pytest.raises(ValueError):
        split_into_macroblocks(np.zeros((16, 16, 3)))


def test_motion_estimate_identical_frames_zero_sad():
    frame = _textured_frame()
    result = motion_estimate(frame, frame)
    assert result.total_sad == 0.0
    assert np.all(result.motion_vectors == 0)


def test_motion_estimate_recovers_known_translation():
    frame = _textured_frame(seed=2)
    shifted = np.roll(frame, 2, axis=1)  # content moves 2 px right
    result = motion_estimate(shifted, frame, search_range=3)
    inner_vectors = result.motion_vectors[1:-1, 1:-1]
    dx_mode = np.median(inner_vectors[..., 0])
    assert dx_mode == -2  # best match found 2 px to the left in the reference
    # Interior blocks (no roll wrap-around) match almost perfectly.
    inner_sads = result.min_sads[1:-1, 1:-1]
    assert inner_sads.mean() / result.block_size**2 < 1.0


def test_motion_estimate_sad_grows_with_dissimilarity():
    frame = _textured_frame(seed=3)
    slightly_different = np.clip(frame + 0.02, 0, 1)
    very_different = _textured_frame(seed=99)
    small = motion_estimate(slightly_different, frame).total_sad
    large = motion_estimate(very_different, frame).total_sad
    assert small < large


def test_full_and_diamond_search_agree_for_small_motion():
    frame = (_textured_frame(seed=4) * 255).astype(np.float64)
    shifted = np.roll(frame, 1, axis=0)
    block = shifted[8:16, 8:16]
    best_full, mv_full, _ = full_search(frame, block, 8, 8, search_range=3)
    best_diamond, mv_diamond, evals_diamond = diamond_search(frame, block, 8, 8, search_range=3)
    assert best_diamond <= best_full * 1.5 + 1e-9
    assert evals_diamond > 0


def test_diamond_search_uses_fewer_evaluations():
    frame = (_textured_frame(seed=5) * 255).astype(np.float64)
    block = frame[8:16, 8:16]
    _, _, full_evals = full_search(frame, block, 8, 8, search_range=4)
    _, _, diamond_evals = diamond_search(frame, block, 8, 8, search_range=4)
    assert diamond_evals < full_evals


def test_invalid_search_method_raises():
    frame = _textured_frame()
    with pytest.raises(ValueError):
        motion_estimate(frame, frame, method="hexagon")


def test_streaming_encoder_inter_frames_produce_sad():
    encoder = StreamingEncoder()
    frame = _textured_frame(seed=6)
    metadata = encoder.encode_pair(np.roll(frame, 1, axis=1), frame)
    expected = motion_estimate(np.roll(frame, 1, axis=1), frame, search_range=encoder.search_range)
    assert metadata.total_min_sad == expected.total_sad
    assert metadata.mean_sad_per_pixel >= 0.0
    assert metadata.estimated_bits == pytest.approx(0.08 * expected.total_sad)


def test_encode_pair_does_not_disturb_stream():
    encoder = StreamingEncoder()
    frame_a = _textured_frame(seed=8)
    frame_b = _textured_frame(seed=9)
    encoder.encode_pair(frame_b, frame_a)
    # The encoder keeps no reference of its own: each call codes against
    # the frame it is given, so frame_a against itself has zero SAD.
    assert encoder.encode_pair(frame_a, frame_a).total_min_sad == 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 3))
def test_motion_estimate_sad_nonnegative_property(shift):
    frame = _textured_frame(seed=11)
    moved = np.roll(frame, shift, axis=0)
    result = motion_estimate(moved, frame, search_range=2)
    assert result.total_sad >= 0.0
    assert result.min_sads.min() >= 0.0
