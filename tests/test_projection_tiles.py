"""Tests for projection, tile assignment and per-tile depth order."""

import numpy as np

from repro.gaussians import Camera, GaussianModel, Intrinsics, Pose
from repro.gaussians.projection import batch_quat_to_rotmat, project_gaussians
from repro.gaussians.tiles import assign_tiles, build_tile_grid
from repro.gaussians.camera import quat_to_rotmat


def _frontal_model(count=50, seed=0, depth=3.0):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += depth
    return model


def _camera(width=48, height=36):
    return Camera(Intrinsics.from_fov(width, height, 60.0), Pose.identity())


def test_batch_quat_to_rotmat_matches_scalar():
    quats = np.random.default_rng(0).normal(size=(10, 4))
    batch = batch_quat_to_rotmat(quats)
    for i in range(10):
        assert np.allclose(batch[i], quat_to_rotmat(quats[i]), atol=1e-12)


def test_projection_depths_match_camera_space_z():
    model = _frontal_model()
    camera = _camera()
    projection = project_gaussians(model, camera)
    cam_points = camera.pose.transform(model.means)
    assert np.allclose(projection.depths, cam_points[:, 2])


def test_projection_center_gaussian_lands_at_principal_point():
    model = GaussianModel.from_points(np.array([[0.0, 0.0, 2.0]]), np.array([[1.0, 0, 0]]))
    camera = _camera()
    projection = project_gaussians(model, camera)
    assert np.allclose(projection.means2d[0], [camera.intrinsics.cx, camera.intrinsics.cy])


def test_projection_culls_behind_camera():
    model = GaussianModel.from_points(
        np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]]), np.ones((2, 3)) * 0.5
    )
    projection = project_gaussians(model, _camera())
    assert projection.visible[0]
    assert not projection.visible[1]


def test_projection_culls_far_offscreen():
    model = GaussianModel.from_points(
        np.array([[100.0, 0.0, 2.0], [0.0, 0.0, 2.0]]), np.ones((2, 3)) * 0.5
    )
    projection = project_gaussians(model, _camera())
    assert not projection.visible[0]
    assert projection.visible[1]


def test_projection_covariance_is_positive_definite():
    model = _frontal_model(30, seed=1)
    projection = project_gaussians(model, _camera())
    determinants = np.linalg.det(projection.cov2d[projection.visible])
    assert (determinants > 0).all()


def test_conics_are_inverse_of_cov2d():
    model = _frontal_model(20, seed=2)
    projection = project_gaussians(model, _camera())
    for index in np.nonzero(projection.visible)[0][:10]:
        product = projection.cov2d[index] @ projection.conics[index]
        assert np.allclose(product, np.eye(2), atol=1e-6)


def test_larger_scale_gives_larger_radius():
    small = GaussianModel.from_points(np.array([[0.0, 0.0, 2.0]]), np.ones((1, 3)) * 0.5, scale=0.02)
    large = GaussianModel.from_points(np.array([[0.0, 0.0, 2.0]]), np.ones((1, 3)) * 0.5, scale=0.3)
    camera = _camera()
    assert (
        project_gaussians(large, camera).radii[0] > project_gaussians(small, camera).radii[0]
    )


def test_build_tile_grid_dimensions():
    assert build_tile_grid(64, 48, 8) == (8, 6)
    assert build_tile_grid(65, 48, 8) == (9, 6)


def test_assign_tiles_tables_are_depth_sorted():
    model = _frontal_model(80, seed=3)
    camera = _camera()
    projection = project_gaussians(model, camera)
    grid = assign_tiles(projection, camera.width, camera.height)
    assert len(grid) == grid.tiles_x * grid.tiles_y
    for table in grid.tables:
        assert (np.diff(table.depths) >= 0).all()


def test_assign_tiles_only_visible_gaussians():
    model = _frontal_model(40, seed=4)
    model.means[:10, 2] = -5.0  # behind the camera
    camera = _camera()
    projection = project_gaussians(model, camera)
    grid = assign_tiles(projection, camera.width, camera.height)
    listed = np.concatenate([t.gaussian_ids for t in grid.tables if len(t)])
    assert not np.isin(np.arange(10), listed).any()


def test_tile_grid_occupancy_and_assignments_consistent():
    model = _frontal_model(60, seed=5)
    camera = _camera()
    grid = assign_tiles(project_gaussians(model, camera), camera.width, camera.height)
    # One table per tile in row-major order, and every listed pair is one
    # the culling kept.
    assert [(t.tile_y, t.tile_x) for t in grid.tables] == [
        (y, x) for y in range(grid.tiles_y) for x in range(grid.tiles_x)
    ]
    assert sum(len(t) for t in grid.tables) == grid.pairs_total - grid.pairs_culled > 0
