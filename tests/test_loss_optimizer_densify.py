"""Tests for losses, the Adam optimizer and densification / pruning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gaussians import Adam, Camera, GaussianModel, Intrinsics, Pose, render
from repro.gaussians.densify import (
    DensificationConfig,
    backproject_pixels,
    densify_from_frame,
    prune_gaussians,
)
from repro.gaussians.loss import l1_loss, masked_l1_loss, mse_loss, psnr, ssim
from repro.gaussians.optimizer import DEFAULT_LEARNING_RATES


# ----------------------------- losses ---------------------------------------
def test_l1_loss_zero_for_identical_images():
    image = np.random.default_rng(0).uniform(size=(8, 8, 3))
    loss, grad = l1_loss(image, image)
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_l1_gradient_sign():
    rendered = np.ones((4, 4)) * 0.7
    target = np.ones((4, 4)) * 0.3
    _, grad = l1_loss(rendered, target)
    assert (grad > 0).all()


def test_mse_loss_value():
    rendered = np.zeros((2, 2))
    target = np.ones((2, 2)) * 2.0
    loss, _ = mse_loss(rendered, target)
    assert np.isclose(loss, 4.0)


def test_masked_l1_ignores_outside_mask():
    rendered = np.zeros((4, 4, 3))
    target = np.ones((4, 4, 3))
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    loss, grad = masked_l1_loss(rendered, target, mask)
    assert np.isclose(loss, 1.0)
    assert np.count_nonzero(grad) == 3


def test_psnr_increases_with_similarity():
    rng = np.random.default_rng(1)
    target = rng.uniform(size=(16, 16, 3))
    close = np.clip(target + 0.01, 0, 1)
    far = np.clip(target + 0.3, 0, 1)
    assert psnr(close, target) > psnr(far, target)
    assert psnr(target, target) == 100.0


def test_ssim_bounds_and_identity():
    rng = np.random.default_rng(2)
    image = rng.uniform(size=(16, 16, 3))
    assert np.isclose(ssim(image, image), 1.0, atol=1e-6)
    noisy = np.clip(image + rng.normal(scale=0.3, size=image.shape), 0, 1)
    assert ssim(noisy, image) < 1.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0))
def test_psnr_nonnegative_property(offset):
    target = np.full((8, 8), 0.5)
    rendered = np.clip(target + offset * 0.3, 0, 1)
    assert psnr(rendered, target) >= 0.0


# ----------------------------- optimizer ------------------------------------
def test_adam_reduces_quadratic_loss():
    optimizer = Adam(default_lr=0.1)
    params = {"x": np.array([5.0, -3.0])}
    for _ in range(200):
        grads = {"x": 2.0 * params["x"]}
        params = optimizer.step(params, grads)
    assert np.abs(params["x"]).max() < 0.1


def test_adam_per_parameter_learning_rates():
    optimizer = Adam(learning_rates={"fast": 0.5, "slow": 0.001})
    params = {"fast": np.array([1.0]), "slow": np.array([1.0])}
    grads = {"fast": np.array([1.0]), "slow": np.array([1.0])}
    updated = optimizer.step(params, grads)
    assert (1.0 - updated["fast"][0]) > (1.0 - updated["slow"][0])


def test_adam_missing_gradient_leaves_parameter_unchanged():
    optimizer = Adam()
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    updated = optimizer.step(params, {"a": np.array([0.5])})
    assert updated["b"][0] == 2.0


def test_adam_shape_mismatch_raises():
    optimizer = Adam()
    with pytest.raises(ValueError):
        optimizer.step({"a": np.zeros(3)}, {"a": np.zeros(4)})


def test_adam_state_resize_after_pruning():
    optimizer = Adam(default_lr=0.1)
    params = {"means": np.random.default_rng(0).normal(size=(6, 3))}
    grads = {"means": np.ones((6, 3))}
    optimizer.step(params, grads)
    optimizer.resize_state("means", np.array([0, 2, 4]), 5)
    shrunk = {"means": np.zeros((5, 3))}
    updated = optimizer.step(shrunk, {"means": np.ones((5, 3))})
    assert updated["means"].shape == (5, 3)


def test_default_learning_rates_cover_all_parameters():
    assert set(DEFAULT_LEARNING_RATES) == set(GaussianModel.PARAM_NAMES)


# ----------------------------- densification --------------------------------
def _camera():
    return Camera(Intrinsics.from_fov(48, 36, 60.0), Pose.identity())


def test_backproject_pixels_roundtrip():
    camera = _camera()
    pixels = np.array([[10, 12], [30, 20]], dtype=np.float64)
    depths = np.array([2.0, 3.0])
    points = backproject_pixels(camera, pixels, depths)
    reprojected, z = camera.project(points)
    assert np.allclose(z, depths)
    assert np.allclose(reprojected, pixels + 0.5, atol=1e-9)


def test_densify_adds_gaussians_for_unobserved_pixels():
    camera = _camera()
    model = GaussianModel.empty()
    empty_render = render(model, camera)
    target_color = np.full((36, 48, 3), 0.5)
    target_depth = np.full((36, 48), 2.0)
    extended, report = densify_from_frame(model, camera, empty_render, target_color, target_depth)
    assert report.num_added > 0
    assert len(extended) == report.num_added


def test_densify_respects_max_new_cap():
    camera = _camera()
    model = GaussianModel.empty()
    empty_render = render(model, camera)
    config = DensificationConfig(max_new_per_frame=10, subsample=1)
    extended, report = densify_from_frame(
        model, camera, empty_render,
        np.full((36, 48, 3), 0.5), np.full((36, 48), 2.0), config=config,
    )
    assert report.num_added <= 10


def test_densify_no_candidates_when_scene_covered():
    camera = _camera()
    model = GaussianModel.from_points(
        np.array([[0.0, 0.0, 2.0]]), np.array([[0.5, 0.5, 0.5]]), scale=3.0, opacity=0.99
    )
    result = render(model, camera)
    target_depth = result.depth.copy()
    extended, report = densify_from_frame(model, camera, result, result.color, target_depth)
    assert report.num_added <= report.num_candidates


def test_prune_removes_transparent_gaussians():
    model = GaussianModel.random(10, seed=0)
    model.opacities[:5] = -10.0  # sigmoid ~ 0
    pruned, keep = prune_gaussians(model, min_opacity=0.05)
    assert len(pruned) == 5
    assert keep.sum() == 5


def test_prune_keeps_all_when_opaque():
    model = GaussianModel.random(5, seed=1)
    model.opacities[:] = 3.0
    pruned, keep = prune_gaussians(model, min_opacity=0.05)
    assert len(pruned) == 5
    assert keep.all()
