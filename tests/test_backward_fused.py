"""Equivalence tests for the fused/bucketed backward pass.

``render_backward(backend="bucketed")`` — with or without a retained
:class:`ForwardCache` — must reproduce the per-tile reference backward
(``backend="reference"``, the executable specification) to <= 1e-9 on
every Gaussian parameter gradient and on the pose gradient, across
randomized scenes and all gradient branches (color / depth / silhouette,
clamped alphas, active masks).
"""

import numpy as np
import pytest

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
from repro.gaussians.rasterizer import ALPHA_MAX, build_forward_cache
from repro.perf import PerfRecorder

GRAD_TOL = dict(rtol=1e-9, atol=1e-9)


def _scene(count=80, seed=3, width=48, height=36, fov=60.0, opacity_shift=0.0, scale_shift=0.0):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    if opacity_shift:
        model.opacities = model.opacities + opacity_shift
    if scale_shift:
        model.log_scales = model.log_scales + scale_shift
    camera = Camera(Intrinsics.from_fov(width, height, fov), Pose.identity())
    return model, camera


def _image_grads(result, seed=0, with_depth=True, with_silhouette=True):
    rng = np.random.default_rng(seed)
    grad_color = rng.normal(size=result.color.shape)
    grad_depth = rng.normal(size=result.depth.shape) if with_depth else None
    grad_sil = rng.normal(size=result.silhouette.shape) if with_silhouette else None
    return grad_color, grad_depth, grad_sil


def _assert_grads_match(reference, candidate, tol=GRAD_TOL):
    ref_grads, ref_pose = reference
    cand_grads, cand_pose = candidate
    for name, value in ref_grads.as_dict().items():
        np.testing.assert_allclose(
            cand_grads.as_dict()[name], value, err_msg=f"gradient {name}", **tol
        )
    if ref_pose is None:
        assert cand_pose is None
    else:
        np.testing.assert_allclose(cand_pose.vector, ref_pose.vector, **tol)


def _both_backends(model, camera, result, grads, fused_result=None):
    grad_color, grad_depth, grad_sil = grads
    reference = render_backward(
        model, camera, result, grad_color, grad_depth, grad_sil,
        compute_pose_gradient=True, backend="reference",
    )
    bucketed = render_backward(
        model, camera, fused_result or result, grad_color, grad_depth, grad_sil,
        compute_pose_gradient=True, backend="bucketed",
    )
    return reference, bucketed


def test_bucketed_matches_reference_all_branches():
    model, camera = _scene()
    result = render(model, camera)
    reference, bucketed = _both_backends(model, camera, result, _image_grads(result))
    _assert_grads_match(reference, bucketed)


def test_bucketed_matches_reference_color_only():
    model, camera = _scene(seed=7)
    result = render(model, camera)
    grads = _image_grads(result, with_depth=False, with_silhouette=False)
    reference, bucketed = _both_backends(model, camera, result, grads)
    _assert_grads_match(reference, bucketed)


def test_bucketed_matches_reference_depth_branch_only():
    model, camera = _scene(seed=11)
    result = render(model, camera)
    grads = _image_grads(result, with_depth=True, with_silhouette=False)
    reference, bucketed = _both_backends(model, camera, result, grads)
    _assert_grads_match(reference, bucketed)


def test_fused_cache_matches_reference():
    """Backward consuming the cache retained by the forward render."""
    model, camera = _scene(seed=5)
    cache = ForwardCache()
    fused = render(model, camera, record_workloads=False, record_contributions=False, cache=cache)
    assert fused.forward_cache is cache and len(cache) > 0
    plain = render(model, camera, backend="reference")
    grads = _image_grads(fused)
    reference, bucketed = _both_backends(model, camera, plain, grads, fused_result=fused)
    _assert_grads_match(reference, bucketed)


def test_fused_cache_on_stats_render_matches_reference():
    """The stats-recording bucketed render can retain the cache too."""
    model, camera = _scene(seed=13)
    cache = ForwardCache()
    result = render(model, camera, cache=cache)
    assert len(cache) > 0
    grads = _image_grads(result)
    reference, bucketed = _both_backends(model, camera, result, grads, fused_result=result)
    _assert_grads_match(reference, bucketed)


def test_clamped_alpha_masking_matches_reference():
    # Push opacities and footprints up so raw alphas exceed ALPHA_MAX and
    # the clamp mask actually gates gradient flow.
    model, camera = _scene(count=30, seed=2, opacity_shift=6.0, scale_shift=0.8)
    result = render(model, camera)
    assert result.gaussian_max_alpha.max() >= ALPHA_MAX - 1e-9
    reference, bucketed = _both_backends(model, camera, result, _image_grads(result))
    _assert_grads_match(reference, bucketed)


def test_active_mask_matches_reference():
    model, camera = _scene(seed=17)
    mask = np.zeros(len(model), dtype=bool)
    mask[::2] = True
    result = render(model, camera, active_mask=mask)
    reference, bucketed = _both_backends(model, camera, result, _image_grads(result))
    _assert_grads_match(reference, bucketed)
    # Masked-out Gaussians receive no gradient from either backend.
    assert np.abs(reference[0].colors[~mask]).sum() == 0.0
    assert np.abs(bucketed[0].colors[~mask]).sum() == 0.0


def test_empty_model_backward():
    _, camera = _scene()
    model = GaussianModel.empty()
    result = render(model, camera)
    grads, pose = render_backward(
        model, camera, result, np.zeros_like(result.color), compute_pose_gradient=True
    )
    assert grads.norm() == 0.0
    assert pose.norm() == 0.0


def test_stale_cache_is_rebuilt():
    """A cache overwritten by a later render must not corrupt gradients."""
    model_a, camera = _scene(seed=3)
    model_b, _ = _scene(count=50, seed=4)
    cache = ForwardCache()
    result_a = render(model_a, camera, record_workloads=False, record_contributions=False, cache=cache)
    # Re-populating the cache for another model invalidates result_a's stamp.
    render(model_b, camera, record_workloads=False, record_contributions=False, cache=cache)
    assert cache.generation != result_a.forward_cache_generation
    grads = _image_grads(result_a)
    reference, bucketed = _both_backends(model_a, camera, result_a, grads, fused_result=result_a)
    _assert_grads_match(reference, bucketed)


def test_build_forward_cache_writes_no_images():
    model, camera = _scene(seed=3)
    result = render(model, camera, record_workloads=False, record_contributions=False)
    cache = build_forward_cache(
        result.projection, result.tile_grid, model.colors, model.alphas,
        camera.intrinsics.height, camera.intrinsics.width,
    )
    assert len(cache) > 0
    assert cache.num_pairs > 0
    assert cache.num_tiles == sum(1 for t in result.tile_grid.tables if len(t))


def test_backward_perf_counters():
    model, camera = _scene(seed=3)
    perf = PerfRecorder()
    cache = ForwardCache()
    fused = render(model, camera, record_workloads=False, record_contributions=False, cache=cache)
    grads = _image_grads(fused)
    render_backward(model, camera, fused, grads[0], grads[1], perf=perf)
    counters = perf.counters.as_dict()
    assert counters["raster.backward_calls"] == 1
    assert counters["raster.backward_cache_hits"] == 1
    assert counters["raster.backward_pairs"] > 0
    # Without a cache the intermediates are rebuilt (and counted as such).
    plain = render(model, camera, record_workloads=False, record_contributions=False)
    render_backward(model, camera, plain, grads[0], perf=perf)
    assert perf.counters.as_dict()["raster.backward_cache_builds"] == 1


# ----------------------------------------------------------------------
# Pose-only backward (the tracker's entry point)
# ----------------------------------------------------------------------
def _assert_pose_only_exact(model, camera, result, grads, backend="bucketed"):
    grad_color, grad_depth, grad_sil = grads
    _, full = render_backward(
        model, camera, result, grad_color, grad_depth, grad_sil,
        compute_pose_gradient=True, backend=backend,
    )
    pose = pose_backward(
        model, camera, result, grad_color, grad_depth, grad_sil, backend=backend
    )
    np.testing.assert_array_equal(pose.translation, full.translation)
    np.testing.assert_array_equal(pose.rotation, full.rotation)


@pytest.mark.parametrize("with_silhouette", [False, True])
def test_pose_backward_cache_hit_is_exact(with_silhouette):
    model, camera = _scene(seed=5)
    cache = ForwardCache()
    fused = render(model, camera, record_workloads=False, record_contributions=False, cache=cache)
    perf = PerfRecorder()
    grads = _image_grads(fused, with_silhouette=with_silhouette)
    pose_backward(model, camera, fused, *grads, perf=perf)
    assert perf.counters.as_dict()["raster.backward_cache_hits"] == 1
    _assert_pose_only_exact(model, camera, fused, grads)


def test_pose_backward_cache_rebuild_is_exact():
    model, camera = _scene(seed=9)
    plain = render(model, camera, record_workloads=False, record_contributions=False)
    perf = PerfRecorder()
    grads = _image_grads(plain)
    pose_backward(model, camera, plain, *grads, perf=perf)
    assert perf.counters.as_dict()["raster.backward_cache_builds"] == 1
    _assert_pose_only_exact(model, camera, plain, grads)


@pytest.mark.parametrize("threshold", [-1.0, 2.0])
def test_pose_backward_dense_and_masked_chunks_are_exact(monkeypatch, threshold):
    """``-1.0`` forces every chunk dense, ``2.0`` forces the masked path."""
    monkeypatch.setattr(rasterizer_module, "_SPARSE_DENSITY_FALLBACK", threshold)
    model, camera = _scene(count=120, seed=21, scale_shift=-0.4)
    cache = ForwardCache()
    fused = render(model, camera, cache=cache)
    masked = [chunk.active is not None for chunk in cache.chunks]
    assert all(masked) if threshold > 1.0 else not any(masked)
    _assert_pose_only_exact(model, camera, fused, _image_grads(fused, with_silhouette=False))


def test_pose_backward_reference_backend_is_exact():
    model, camera = _scene(seed=13)
    result = render(model, camera)
    _assert_pose_only_exact(model, camera, result, _image_grads(result), backend="reference")
    with pytest.raises(ValueError):
        pose_backward(model, camera, result, np.zeros_like(result.color), backend="gpu")


def test_scatter_add_matches_add_at():
    from repro.gaussians.scratch import scatter_add

    rng = np.random.default_rng(0)
    ids = rng.integers(0, 7, size=(4, 5))
    values = rng.normal(size=(4, 5, 3))
    expected = np.zeros((7, 3))
    np.add.at(expected, ids, values)
    target = np.zeros((7, 3))
    scatter_add(target, ids, values)
    np.testing.assert_allclose(target, expected, rtol=1e-12, atol=0)
    # Integer targets and scalar values (the stats-path usage).
    int_target = np.zeros(7, dtype=np.int64)
    scatter_add(int_target, ids, 3)
    int_expected = np.zeros(7, dtype=np.int64)
    np.add.at(int_expected, ids.ravel(), 3)
    np.testing.assert_array_equal(int_target, int_expected)


def test_unknown_backend_rejected():
    model, camera = _scene(seed=3)
    result = render(model, camera)
    with pytest.raises(ValueError):
        render_backward(model, camera, result, np.zeros_like(result.color), backend="gpu")


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_equivalence_sweep_randomized_scenes(seed):
    """Property sweep: random scene geometry, image sizes and branches."""
    rng = np.random.default_rng(1000 + seed)
    count = int(rng.integers(10, 200))
    width = int(rng.integers(24, 96))
    height = int(rng.integers(24, 96))
    fov = float(rng.uniform(40.0, 90.0))
    opacity_shift = float(rng.uniform(-1.0, 4.0))
    scale_shift = float(rng.uniform(-0.3, 0.6))
    model, camera = _scene(
        count=count, seed=seed, width=width, height=height, fov=fov,
        opacity_shift=opacity_shift, scale_shift=scale_shift,
    )
    with_depth = bool(rng.integers(0, 2))
    with_sil = bool(rng.integers(0, 2))
    use_cache = bool(rng.integers(0, 2))
    if use_cache:
        result = render(model, camera, cache=ForwardCache())
    else:
        result = render(model, camera)
    grads = _image_grads(result, seed=seed, with_depth=with_depth, with_silhouette=with_sil)
    reference, bucketed = _both_backends(model, camera, result, grads, fused_result=result)
    _assert_grads_match(reference, bucketed)
