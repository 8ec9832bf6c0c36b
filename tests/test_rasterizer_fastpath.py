"""Tests for the stats-free rasterizer fast path.

The fast path (``record_workloads=False, record_contributions=False``)
must match the statistics-recording path on the rendered ``color`` /
``depth`` / ``silhouette`` (and ``final_transmittance``) images to 1e-9.
"""

import numpy as np

from repro.gaussians import Camera, GaussianModel, Intrinsics, Pose, render
from repro.gaussians.rasterizer import tile_forward
from repro.gaussians.scratch import ScratchPool


def _scene(count=80, seed=3, width=48, height=36, fov=60.0):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    camera = Camera(Intrinsics.from_fov(width, height, fov), Pose.identity())
    return model, camera


def _fast(model, camera, **kwargs):
    return render(
        model, camera, record_workloads=False, record_contributions=False, **kwargs
    )


def _assert_images_match(full, fast, atol):
    np.testing.assert_allclose(fast.color, full.color, atol=atol, rtol=0)
    np.testing.assert_allclose(fast.depth, full.depth, atol=10 * atol, rtol=0)
    np.testing.assert_allclose(fast.silhouette, full.silhouette, atol=atol, rtol=0)
    np.testing.assert_allclose(
        fast.final_transmittance, full.final_transmittance, atol=atol, rtol=0
    )


def test_fast_path_matches_full_path_float64():
    model, camera = _scene()
    full = render(model, camera)
    fast = _fast(model, camera)
    _assert_images_match(full, fast, atol=1e-9)


def test_fast_path_non_multiple_tile_image():
    # 49x37 is not a multiple of the tile size: exercises edge tiles.
    model, camera = _scene(count=60, seed=5, width=49, height=37)
    full = render(model, camera)
    fast = _fast(model, camera)
    _assert_images_match(full, fast, atol=1e-9)


def test_fast_path_dense_scene_many_gaussians():
    model, camera = _scene(count=600, seed=9, width=64, height=48)
    full = render(model, camera)
    fast = _fast(model, camera)
    _assert_images_match(full, fast, atol=1e-9)


def test_fast_path_empty_model():
    _, camera = _scene()
    fast = _fast(GaussianModel.empty(), camera)
    assert np.allclose(fast.color, 0.0)
    assert np.allclose(fast.final_transmittance, 1.0)


def test_fast_path_respects_active_mask():
    model = GaussianModel.from_points(
        np.array([[0.0, 0.0, 2.0], [0.3, 0.0, 2.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        scale=0.3,
        opacity=0.95,
    )
    camera = Camera(Intrinsics.from_fov(48, 36, 60.0), Pose.identity())
    full = render(model, camera, active_mask=np.array([True, False]))
    fast = _fast(model, camera, active_mask=np.array([True, False]))
    _assert_images_match(full, fast, atol=1e-9)


def test_fast_path_skips_statistics():
    model, camera = _scene()
    fast = _fast(model, camera)
    assert fast.tile_workloads == []
    assert fast.gaussian_max_alpha.sum() == 0.0
    assert fast.gaussian_pixels_touched.sum() == 0
    assert fast.total_pairs_computed == 0


def test_fast_path_reuses_projection_and_tile_grid():
    model, camera = _scene()
    first = _fast(model, camera)
    second = _fast(model, camera, projection=first.projection, tile_grid=first.tile_grid)
    np.testing.assert_array_equal(first.color, second.color)


def test_fast_path_is_deterministic():
    model, camera = _scene()
    a = _fast(model, camera)
    b = _fast(model, camera)
    np.testing.assert_array_equal(a.color, b.color)


def test_final_transmittance_is_post_termination_product():
    """final_t must equal the product of (1 - alpha) over blended entries."""
    model, camera = _scene(count=40, seed=2)
    full = render(model, camera)
    grid = full.tile_grid
    opac = model.alphas
    for table in grid.tables[:6]:
        if len(table) == 0:
            continue
        x0, x1, y0, y1 = grid.pixel_bounds(table)
        xs = np.arange(x0, x1) + 0.5
        ys = np.arange(y0, y1) + 0.5
        gx, gy = np.meshgrid(xs, ys)
        pixels = np.stack([gx.ravel(), gy.ravel()], axis=1)
        data = tile_forward(table, pixels, full.projection, model.colors, opac)
        expected = np.prod(1.0 - data["alpha"], axis=1)
        np.testing.assert_allclose(data["final_t"], expected, atol=1e-12)
        # Consistency with the early-stopping rule: final_t equals the
        # transmittance after the last blended Gaussian.
        last_t = data["t_before"][:, -1] * (1.0 - data["alpha"][:, -1])
        np.testing.assert_allclose(data["final_t"], last_t, atol=1e-12)


def test_scratch_pool_reuses_backing_memory():
    pool = ScratchPool()
    first = pool.take("buf", (4, 8))
    first.fill(1.0)
    second = pool.take("buf", (2, 8))
    assert np.shares_memory(first, second)
    third = pool.take("buf", (100, 100))  # forces a grow
    assert third.shape == (100, 100)
    assert not np.shares_memory(first, third)


def test_cached_alphas_track_inplace_mutation():
    model, _ = _scene(count=10)
    before = model.alphas.copy()
    model.opacities[:5] = -10.0  # in-place edit must invalidate the cache
    after = model.alphas
    assert (after[:5] < 1e-3).all()
    assert np.allclose(after[5:], before[5:])
