"""Tests for camera, pose and quaternion math."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gaussians.camera import (
    Camera,
    Intrinsics,
    Pose,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
    rotmat_to_quat,
    se3_exp,
    skew,
    so3_exp,
)


def test_quat_identity_is_identity_rotation():
    assert np.allclose(quat_to_rotmat([1, 0, 0, 0]), np.eye(3))


def test_quat_roundtrip_through_rotmat():
    rng = np.random.default_rng(0)
    for _ in range(20):
        quat = quat_normalize(rng.normal(size=4))
        recovered = rotmat_to_quat(quat_to_rotmat(quat))
        # q and -q encode the same rotation.
        assert np.allclose(recovered, quat, atol=1e-8) or np.allclose(recovered, -quat, atol=1e-8)


def test_rotation_matrix_is_orthonormal():
    rot = quat_to_rotmat(quat_normalize([0.3, -0.5, 0.7, 0.1]))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-10)
    assert np.isclose(np.linalg.det(rot), 1.0)


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(1)
    q1 = quat_normalize(rng.normal(size=4))
    q2 = quat_normalize(rng.normal(size=4))
    combined = quat_to_rotmat(quat_multiply(q1, q2))
    assert np.allclose(combined, quat_to_rotmat(q1) @ quat_to_rotmat(q2), atol=1e-10)


def test_so3_exp_small_angle():
    omega = np.array([1e-9, 0, 0])
    assert np.allclose(so3_exp(omega), np.eye(3) + skew(omega), atol=1e-12)


def test_so3_exp_quarter_turn():
    rot = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(rot @ np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), atol=1e-9)


def test_se3_exp_returns_rotation_and_translation():
    rot, trans = se3_exp(np.array([0.1, 0.2, 0.3, 0.0, 0.0, 0.0]))
    assert np.allclose(rot, np.eye(3))
    assert np.allclose(trans, [0.1, 0.2, 0.3])


def test_pose_identity_transform_is_noop():
    points = np.random.default_rng(2).normal(size=(5, 3))
    assert np.allclose(Pose.identity().transform(points), points)


def test_pose_camera_center_maps_to_origin():
    pose = Pose(quat=[0.8, 0.2, 0.1, -0.3], trans=[0.4, 0.2, -1.0])
    assert np.allclose(pose.transform(pose.camera_center[None]), np.zeros((1, 3)), atol=1e-10)


def test_pose_compose_and_relative_to_are_inverse():
    a = Pose(quat=[0.9, 0.1, 0.2, 0.0], trans=[1.0, 0.0, 2.0])
    b = Pose(quat=[0.7, -0.3, 0.1, 0.2], trans=[-0.5, 1.0, 0.0])
    relative = a.relative_to(b)
    recomposed = relative.compose(b)
    assert np.allclose(recomposed.as_matrix(), a.as_matrix(), atol=1e-9)


def test_pose_perturbed_small_delta_moves_little():
    pose = Pose.identity()
    perturbed = pose.perturbed(np.array([1e-4, 0, 0, 0, 0, 1e-4]))
    assert pose.translation_distance_to(perturbed) < 1e-3
    assert pose.rotation_angle_to(perturbed) < 1e-3


def test_look_at_points_camera_toward_target():
    pose = Pose.look_at(eye=np.array([0.0, -2.0, 1.0]), target=np.zeros(3))
    camera_space_target = pose.transform(np.zeros((1, 3)))[0]
    # Target must be in front of the camera (positive z) and centered.
    assert camera_space_target[2] > 0
    assert abs(camera_space_target[0]) < 1e-9
    assert abs(camera_space_target[1]) < 1e-9


def test_intrinsics_from_fov_center():
    intr = Intrinsics.from_fov(64, 48, 90.0)
    assert intr.cx == 32.0 and intr.cy == 24.0
    assert np.isclose(intr.fx, 32.0)


def test_intrinsics_scaled():
    intr = Intrinsics.from_fov(64, 48, 60.0).scaled(0.5)
    assert intr.width == 32 and intr.height == 24


def test_camera_project_known_point():
    camera = Camera(Intrinsics.from_fov(64, 48, 90.0), Pose.identity())
    pixels, depths = camera.project(np.array([[0.0, 0.0, 2.0]]))
    assert np.allclose(pixels[0], [32.0, 24.0])
    assert np.isclose(depths[0], 2.0)


def test_camera_project_offset_point_direction():
    camera = Camera(Intrinsics.from_fov(64, 48, 90.0), Pose.identity())
    pixels, _ = camera.project(np.array([[0.5, -0.5, 2.0]]))
    assert pixels[0, 0] > 32.0
    assert pixels[0, 1] < 24.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_quat_normalize_is_unit_or_identity(values):
    quat = quat_normalize(np.array(values))
    assert np.isclose(np.linalg.norm(quat), 1.0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6),
)
def test_pose_perturbation_roundtrip_property(delta):
    """Perturbing by delta then measuring distance stays bounded by |delta|."""
    delta = np.array(delta)
    pose = Pose(quat=[0.9, 0.1, -0.1, 0.2], trans=[0.5, -0.3, 1.0])
    perturbed = pose.perturbed(delta)
    assert pose.rotation_angle_to(perturbed) <= np.linalg.norm(delta[3:]) + 1e-8
