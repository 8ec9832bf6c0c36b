"""Equivalence tests for the bucketed statistics-recording render path.

PR 1 left the fast bucketed renderer stats-free; the bucketed engine now
also serves ``record_workloads=True`` / ``record_contributions=True``.
The per-element operation order matches the per-tile reference loop, so
the derived statistics — integer workload counts, contribution counters,
per-Gaussian alpha maxima — must be *exactly* equal, and the images equal
to float64 round-off.
"""

import numpy as np
import pytest

from repro.gaussians import Camera, ForwardCache, GaussianModel, Intrinsics, Pose, render
from repro.gaussians.rasterizer import TRANSMITTANCE_EPS


def _scene(count=80, seed=3, width=48, height=36, fov=60.0):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    camera = Camera(Intrinsics.from_fov(width, height, fov), Pose.identity())
    return model, camera


def _assert_workloads_equal(reference, bucketed):
    assert len(bucketed.tile_workloads) == len(reference.tile_workloads)
    for ref_tile, fast_tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        assert fast_tile.tile_index == ref_tile.tile_index
        assert fast_tile.num_gaussians == ref_tile.num_gaussians
        assert fast_tile.pairs_computed == ref_tile.pairs_computed
        assert fast_tile.pairs_blended == ref_tile.pairs_blended
        np.testing.assert_array_equal(fast_tile.per_pixel_counts, ref_tile.per_pixel_counts)


def _assert_stats_equal(reference, bucketed):
    np.testing.assert_allclose(bucketed.color, reference.color, atol=1e-9, rtol=0)
    np.testing.assert_allclose(bucketed.depth, reference.depth, atol=1e-8, rtol=0)
    np.testing.assert_allclose(bucketed.silhouette, reference.silhouette, atol=1e-9, rtol=0)
    np.testing.assert_allclose(
        bucketed.final_transmittance, reference.final_transmittance, atol=1e-9, rtol=0
    )
    np.testing.assert_array_equal(
        bucketed.gaussian_noncontrib_pixels, reference.gaussian_noncontrib_pixels
    )
    np.testing.assert_array_equal(
        bucketed.gaussian_pixels_touched, reference.gaussian_pixels_touched
    )
    np.testing.assert_array_equal(bucketed.gaussian_max_alpha, reference.gaussian_max_alpha)
    _assert_workloads_equal(reference, bucketed)


def test_bucketed_stats_match_reference():
    model, camera = _scene()
    reference = render(model, camera, backend="reference")
    bucketed = render(model, camera, backend="bucketed")
    _assert_stats_equal(reference, bucketed)


def test_bucketed_stats_non_multiple_tile_image():
    model, camera = _scene(count=60, seed=5, width=49, height=37)
    _assert_stats_equal(
        render(model, camera, backend="reference"), render(model, camera)
    )


def test_bucketed_stats_dense_scene():
    model, camera = _scene(count=400, seed=9, width=64, height=48)
    _assert_stats_equal(
        render(model, camera, backend="reference"), render(model, camera)
    )


def test_bucketed_stats_contribution_threshold():
    model, camera = _scene(seed=4)
    reference = render(model, camera, backend="reference", contribution_threshold=0.25)
    bucketed = render(model, camera, contribution_threshold=0.25)
    _assert_stats_equal(reference, bucketed)


def test_bucketed_stats_active_mask():
    model, camera = _scene(seed=6)
    mask = np.zeros(len(model), dtype=bool)
    mask[: len(model) // 2] = True
    reference = render(model, camera, backend="reference", active_mask=mask)
    bucketed = render(model, camera, active_mask=mask)
    _assert_stats_equal(reference, bucketed)


def test_bucketed_workloads_only():
    """record_workloads without record_contributions (the tracker's mode)."""
    model, camera = _scene(seed=8)
    reference = render(model, camera, backend="reference", record_contributions=False)
    bucketed = render(model, camera, record_contributions=False)
    _assert_stats_equal(reference, bucketed)


def test_workloads_exact_without_early_termination():
    """Sparse, translucent scene: every chunk takes the interval-area count."""
    model, camera = _scene(count=60, seed=12, width=64, height=48)
    model.log_scales = model.log_scales - 0.5
    model.opacities = model.opacities - 1.0
    reference = render(model, camera, backend="reference", record_contributions=False)
    bucketed = render(model, camera, record_contributions=False)
    # No pixel reaches the termination threshold, and some pairs have
    # sub-tile intervals, so the area formula is exercised non-trivially.
    assert reference.final_transmittance.min() >= TRANSMITTANCE_EPS
    intervals = np.concatenate([t.intervals for t in bucketed.tile_grid.tables if len(t)])
    area = (intervals[:, 1] - intervals[:, 0]) * (intervals[:, 3] - intervals[:, 2])
    assert (area < 16 * 16).any() and bucketed.total_pairs_computed > 0
    _assert_workloads_equal(reference, bucketed)


def test_workloads_exact_with_early_termination():
    """Dense, high-opacity scene: chunks terminate early and keep the mask count."""
    model, camera = _scene(count=400, seed=9, width=64, height=48)
    model.opacities = model.opacities + 6.0
    reference = render(model, camera, backend="reference", record_contributions=False)
    bucketed = render(model, camera, record_contributions=False)
    assert reference.final_transmittance.min() < TRANSMITTANCE_EPS
    _assert_workloads_equal(reference, bucketed)


@pytest.mark.parametrize("backend", ["bucketed", "reference"])
@pytest.mark.parametrize("record_workloads", [False, True])
def test_unrecorded_contributions_are_zero_filled(backend, record_workloads):
    model, camera = _scene(seed=8)
    result = render(
        model, camera, backend=backend,
        record_workloads=record_workloads, record_contributions=False,
    )
    for stats, dtype in (
        (result.gaussian_max_alpha, np.float64),
        (result.gaussian_noncontrib_pixels, np.int64),
        (result.gaussian_pixels_touched, np.int64),
    ):
        assert stats.shape == (len(model),) and stats.dtype == dtype
        assert not stats.any()
    assert bool(result.tile_workloads) == record_workloads


def test_bucketed_contributions_only_has_empty_workloads():
    model, camera = _scene(seed=8)
    reference = render(model, camera, backend="reference", record_workloads=False)
    bucketed = render(model, camera, record_workloads=False)
    assert reference.tile_workloads == [] and bucketed.tile_workloads == []
    np.testing.assert_array_equal(
        bucketed.gaussian_noncontrib_pixels, reference.gaussian_noncontrib_pixels
    )
    np.testing.assert_array_equal(bucketed.gaussian_max_alpha, reference.gaussian_max_alpha)


def test_bucketed_stats_empty_model():
    _, camera = _scene()
    result = render(GaussianModel.empty(), camera)
    assert np.allclose(result.color, 0.0)
    assert len(result.tile_workloads) == len(result.tile_grid.tables)
    assert result.total_pairs_computed == 0


def test_stats_render_can_retain_cache():
    model, camera = _scene(seed=3)
    cache = ForwardCache()
    result = render(model, camera, cache=cache)
    assert result.forward_cache is cache
    assert result.forward_cache_generation == cache.generation
    assert cache.num_tiles == sum(1 for t in result.tile_grid.tables if len(t))


def test_cache_requires_bucketed_backend():
    model, camera = _scene(seed=3)
    with pytest.raises(ValueError):
        render(model, camera, backend="reference", cache=ForwardCache())


def test_unknown_render_backend_rejected():
    model, camera = _scene(seed=3)
    with pytest.raises(ValueError):
        render(model, camera, backend="cuda")


def test_pixel_center_cache_matches_meshgrid():
    model, camera = _scene(seed=3)
    result = render(model, camera, record_workloads=False, record_contributions=False)
    grid = result.tile_grid
    for table in grid.tables[:8]:
        x0, x1, y0, y1 = grid.pixel_bounds(table)
        xs = np.arange(x0, x1) + 0.5
        ys = np.arange(y0, y1) + 0.5
        gx, gy = np.meshgrid(xs, ys)
        expected = np.stack([gx.ravel(), gy.ravel()], axis=1)
        np.testing.assert_array_equal(grid.pixel_centers(table), expected)
    # The per-shape offsets are cached and shared between lookups.
    shape = grid.tile_shape(grid.tables[0])
    assert grid.tile_offsets(*shape)[0] is grid.tile_offsets(*shape)[0]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6))
def test_bucketed_stats_sweep_randomized_scenes(seed):
    rng = np.random.default_rng(2000 + seed)
    count = int(rng.integers(5, 300))
    width = int(rng.integers(17, 100))
    height = int(rng.integers(17, 100))
    fov = float(rng.uniform(40.0, 90.0))
    model, camera = _scene(count=count, seed=seed, width=width, height=height, fov=fov)
    reference = render(model, camera, backend="reference")
    bucketed = render(model, camera)
    _assert_stats_equal(reference, bucketed)
