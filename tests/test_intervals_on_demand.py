"""Per-pair pixel intervals are computed only when a render reads them.

A render reads the intervals when it records workloads (every pair) or
when a chunk takes the masked schedule (that chunk's pairs, rows only).
Reading them, or not, must change no result: images, every retained
``ForwardCache`` array and both backward passes are bit-identical across
the two schedules and with or without workload recording.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import (
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    pose_backward,
    render,
    render_backward,
)
from repro.gaussians import rasterizer as rasterizer_module
from repro.gaussians import tiles as tiles_module
from repro.gaussians.projection import project_gaussians
from repro.gaussians.rasterizer import TRANSMITTANCE_EPS
from repro.gaussians.tiles import assign_tiles

WIDTH, HEIGHT = 64, 48
# Density thresholds that force one schedule on every chunk.
SCHEDULES = {"masked": 2.0, "dense": -1.0}
IMAGES = ("color", "depth", "silhouette", "final_transmittance")
CACHE_ARRAYS = ("alpha", "t_before", "weights", "clamped", "dx", "dy", "active", "active_tg")


def _scene(count: int, seed: int, opacity_shift: float, scale_shift: float):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    model.opacities = model.opacities + opacity_shift
    model.log_scales = model.log_scales + scale_shift
    camera = Camera(Intrinsics.from_fov(WIDTH, HEIGHT, 60.0), Pose.identity())
    return model, camera


@contextlib.contextmanager
def _forced(schedule: str, calls: list[int]):
    """Force one schedule on every chunk and count the pairs of every interval scan."""
    threshold, scan = rasterizer_module._SPARSE_DENSITY_FALLBACK, tiles_module._active_intervals

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return scan(*args, **kwargs)

    rasterizer_module._SPARSE_DENSITY_FALLBACK = SCHEDULES[schedule]
    tiles_module._active_intervals = counted
    try:
        yield
    finally:
        rasterizer_module._SPARSE_DENSITY_FALLBACK = threshold
        tiles_module._active_intervals = scan


def _run(model, camera, schedule, record_workloads, calls):
    """Render + both backward passes with the schedule forced."""
    with _forced(schedule, calls):
        return _render_and_backward(model, camera, record_workloads)


def _render_and_backward(model, camera, record_workloads):
    cache = ForwardCache()
    result = render(
        model, camera, record_workloads=record_workloads, record_contributions=False, cache=cache
    )
    rng = np.random.default_rng(0)
    grad_color = rng.normal(size=(HEIGHT, WIDTH, 3))
    grad_depth = rng.normal(size=(HEIGHT, WIDTH))
    grads, pose = render_backward(
        model, camera, result, grad_color, grad_depth, compute_pose_gradient=True
    )
    pose_only = pose_backward(model, camera, result, grad_color, grad_depth)
    return result, cache, grads, pose, pose_only


def _assert_same_outputs(a, b, same_schedule: bool):
    (res_a, cache_a, grads_a, pose_a, only_a), (res_b, cache_b, grads_b, pose_b, only_b) = a, b
    for name in IMAGES:
        np.testing.assert_array_equal(getattr(res_a, name), getattr(res_b, name), err_msg=name)
    assert len(cache_a.chunks) == len(cache_b.chunks)
    # Schedules differ only in how the pixel offsets are retained.
    names = CACHE_ARRAYS if same_schedule else ("alpha", "t_before", "weights", "clamped")
    for chunk_a, chunk_b in zip(cache_a.chunks, cache_b.chunks):
        for name in names:
            value_a, value_b = getattr(chunk_a, name), getattr(chunk_b, name)
            if value_a is None or value_b is None:
                assert value_a is None and value_b is None, name
            else:
                np.testing.assert_array_equal(value_a, value_b, err_msg=name)
    for name, value in grads_a.as_dict().items():
        np.testing.assert_array_equal(value, grads_b.as_dict()[name], err_msg=name)
    np.testing.assert_array_equal(pose_a.vector, pose_b.vector)
    np.testing.assert_array_equal(only_a.vector, only_b.vector)
    np.testing.assert_array_equal(only_a.vector, pose_a.vector)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dense=st.booleans(),
)
def test_reading_intervals_changes_nothing(seed, dense):
    # Dense: many bright splats (near-full-tile intervals, early
    # termination).  Sparse: weak, small splats (sub-tile intervals).
    if dense:
        model, camera = _scene(300, seed, opacity_shift=4.0, scale_shift=0.0)
    else:
        model, camera = _scene(80, seed, opacity_shift=-1.5, scale_shift=-0.7)
    runs = {}
    for schedule in SCHEDULES:
        for record in (False, True):
            calls: list[int] = []
            runs[schedule, record] = _run(model, camera, schedule, record, calls)
            pairs = sum(len(t) for t in runs[schedule, record][0].tile_grid.tables)
            if schedule == "dense" and not record:
                # Nothing read them, so nothing computed them.
                assert calls == []
            elif record:
                assert calls == [pairs]
            else:
                # One rows-only scan per masked chunk, over its pairs.
                assert sum(calls) == pairs
    base = runs["dense", False]
    for (schedule, record), run in runs.items():
        _assert_same_outputs(base, run, same_schedule=schedule == "dense")
    _assert_same_outputs(runs["masked", False], runs["masked", True], same_schedule=True)


def test_grid_intervals_computed_on_first_read_only():
    model, camera = _scene(80, 3, opacity_shift=-1.5, scale_shift=-0.7)
    grid = assign_tiles(project_gaussians(model, camera), WIDTH, HEIGHT)
    assert grid.pair_intervals is None
    some = [table for table in grid.tables if len(table)][:3]
    gids = np.concatenate([table.gaussian_ids for table in some])
    tile_x = np.repeat([table.tile_x for table in some], [len(table) for table in some])
    tile_y = np.repeat([table.tile_y for table in some], [len(table) for table in some])
    partial = grid.intervals_at(gids, tile_x, tile_y)
    assert grid.pair_intervals is None  # computing some pairs keeps nothing
    everything = grid.intervals
    assert grid.pair_intervals is everything
    np.testing.assert_array_equal(grid.intervals_of(some), partial)
    area = (everything[:, 1] - everything[:, 0]) * (everything[:, 3] - everything[:, 2])
    assert grid.pixels_culled == grid.pixels_total - int(area.sum()) > 0
    # Rows-only intervals carry the exact rows and keep every column.
    rows = grid.intervals_at(gids, tile_x, tile_y, rows_only=True)
    np.testing.assert_array_equal(rows[:, :2], partial[:, :2])
    assert (rows[:, 2] == 0).all() and (rows[:, 3] == grid.tile_size).all()


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_early_termination_keeps_the_reference_transmittance(schedule):
    """A terminating scene: the last-column test sees it, and the final
    transmittance derived from the running product equals the reference
    backend's product over every entry, bit for bit."""
    model, camera = _scene(400, 9, opacity_shift=6.0, scale_shift=0.0)
    reference = render(model, camera, backend="reference", record_contributions=False)
    assert reference.final_transmittance.min() < TRANSMITTANCE_EPS
    # Some pixels keep transmittance above the threshold, so chunks take
    # both sides of the shortcut.
    assert reference.final_transmittance.max() >= TRANSMITTANCE_EPS
    with _forced(schedule, []):
        bucketed = render(model, camera, record_contributions=False, cache=ForwardCache())
    np.testing.assert_array_equal(bucketed.final_transmittance, reference.final_transmittance)
    for ref_tile, tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        assert (ref_tile.pairs_computed, ref_tile.pairs_blended) == (
            tile.pairs_computed, tile.pairs_blended
        )
    # Every entry past a pixel's termination carries zero alpha.
    for chunk in bucketed.forward_cache.chunks:
        assert not chunk.alpha[chunk.t_before < TRANSMITTANCE_EPS].any()
