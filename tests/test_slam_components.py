"""Tests for SLAM components: metrics, tracker, mapper, keyframes, droid, orb."""

import numpy as np
import pytest

from repro.gaussians import GaussianModel, Pose, psnr, render, Camera
from repro.slam import (
    GaussianMapper,
    GaussianPoseTracker,
    KeyframeManager,
    MapperConfig,
    OrbLiteSlam,
    TrackerConfig,
    align_trajectories,
    ate_rmse,
    rpe_rmse,
)
from repro.slam.droid import DroidLiteConfig, DroidLiteTracker
from repro.slam.orb import (
    OrbLiteConfig,
    detect_corners,
    estimate_relative_rigid,
    extract_descriptors,
    match_descriptors,
)


# ----------------------------- trajectory metrics ----------------------------
def _shifted_trajectory(poses, offset):
    """Rigidly translate every camera center by ``offset``."""
    offset = np.asarray(offset)
    shifted = []
    for pose in poses:
        moved = pose.copy()
        # center' = -R^T (t - R offset) = center + offset
        moved.trans = moved.trans - moved.rotation @ offset
        shifted.append(moved)
    return shifted


def test_ate_zero_for_identical_trajectories(tiny_sequence):
    poses = tiny_sequence.ground_truth_trajectory()
    assert ate_rmse(poses, poses) < 1e-9


def test_ate_invariant_to_rigid_offset(tiny_sequence):
    poses = tiny_sequence.ground_truth_trajectory()
    shifted = _shifted_trajectory(poses, [0.5, -0.2, 0.1])
    assert ate_rmse(shifted, poses) < 1e-6


def test_ate_detects_noise(tiny_sequence):
    rng = np.random.default_rng(0)
    poses = tiny_sequence.ground_truth_trajectory()
    noisy = []
    for pose in poses:
        perturbed = pose.copy()
        perturbed.trans = perturbed.trans + rng.normal(scale=0.05, size=3)
        noisy.append(perturbed)
    assert ate_rmse(noisy, poses) > 1.0  # several cm


def test_ate_length_mismatch_raises(tiny_sequence):
    poses = tiny_sequence.ground_truth_trajectory()
    with pytest.raises(ValueError):
        ate_rmse(poses[:-1], poses)


def test_rpe_zero_for_identical(tiny_sequence):
    poses = tiny_sequence.ground_truth_trajectory()
    assert rpe_rmse(poses, poses) < 1e-9


def test_align_trajectories_output_shape(tiny_sequence):
    poses = tiny_sequence.ground_truth_trajectory()
    aligned = align_trajectories(poses, poses)
    assert aligned.shape == (len(poses), 3)


# ----------------------------- 3DGS pose tracker ----------------------------
@pytest.fixture(scope="module")
def tracking_setup():
    model = GaussianModel.random(250, extent=1.5, seed=1)
    model.means[:, 2] += 3.0
    from repro.gaussians import Intrinsics

    intrinsics = Intrinsics.from_fov(64, 48, 60.0)
    camera = Camera(intrinsics, Pose.identity())
    observation = render(model, camera, record_workloads=False)
    depth = np.where(observation.silhouette > 0.5, observation.depth / np.maximum(observation.silhouette, 1e-6), 0.0)
    return model, intrinsics, observation.color, depth


def test_tracker_recovers_small_perturbation(tracking_setup):
    model, intrinsics, color, depth = tracking_setup
    tracker = GaussianPoseTracker(intrinsics, TrackerConfig(num_iterations=40))
    true_pose = Pose.identity()
    start = true_pose.perturbed(np.array([0.02, -0.015, 0.01, 0.008, -0.01, 0.006]))
    start_error = start.translation_distance_to(true_pose)
    outcome = tracker.track(model, color, depth, start)
    final_error = outcome.pose.translation_distance_to(true_pose)
    assert final_error < 0.5 * start_error
    assert outcome.final_loss < outcome.loss_history[0]


def test_tracker_zero_iterations_keeps_pose(tracking_setup):
    model, intrinsics, color, depth = tracking_setup
    tracker = GaussianPoseTracker(intrinsics)
    start = Pose.identity().perturbed(np.array([0.05, 0, 0, 0, 0, 0]))
    outcome = tracker.track(model, color, depth, start, num_iterations=0)
    assert outcome.iterations_run == 0
    assert np.allclose(outcome.pose.trans, start.trans)


def test_tracker_empty_model_is_noop(tracking_setup):
    _, intrinsics, color, depth = tracking_setup
    tracker = GaussianPoseTracker(intrinsics)
    outcome = tracker.track(GaussianModel.empty(), color, depth, Pose.identity())
    assert outcome.converged
    assert outcome.iterations_run == 0


def test_tracker_initial_guess_constant_velocity(tracking_setup):
    _, intrinsics, _, _ = tracking_setup
    tracker = GaussianPoseTracker(intrinsics)
    first = Pose.identity()
    second = first.perturbed(np.array([0.1, 0, 0, 0, 0, 0]))
    guess = tracker.initial_guess([first, second])
    # Extrapolation continues the motion beyond the last pose.
    assert guess.translation_distance_to(second) > 0.01


def test_tracker_records_workloads(tracking_setup):
    model, intrinsics, color, depth = tracking_setup
    tracker = GaussianPoseTracker(intrinsics)
    outcome = tracker.track(model, color, depth, Pose.identity(), num_iterations=2)
    assert len(outcome.workload.refine_renders) == outcome.iterations_run
    assert outcome.workload.total_pairs > 0


# ----------------------------- mapper ---------------------------------------
def test_mapper_bootstrap_and_loss_decreases(tiny_sequence):
    mapper = GaussianMapper(tiny_sequence.intrinsics, MapperConfig(num_iterations=6))
    frame = tiny_sequence[0]
    outcome = mapper.map_frame(
        GaussianModel.empty(), frame.color, frame.depth, frame.gt_pose
    )
    assert len(outcome.model) > 0
    assert outcome.loss_history[-1] <= outcome.loss_history[0]
    # The mapped model reproduces the frame it was mapped from.
    camera = Camera(tiny_sequence.intrinsics, frame.gt_pose)
    rendered = render(outcome.model, camera, record_workloads=False, record_contributions=False)
    assert psnr(rendered.color, frame.color) > 10.0


def test_mapper_active_mask_skips_work(tiny_sequence, baseline_run):
    mapper = GaussianMapper(tiny_sequence.intrinsics, MapperConfig(num_iterations=2, densify=False))
    frame = tiny_sequence[3]
    model = baseline_run.final_model
    mask = np.ones(len(model), dtype=bool)
    mask[: len(model) // 2] = False
    full = mapper.map_frame(model, frame.color, frame.depth, frame.gt_pose, allow_prune=False)
    mapper.reset()
    selective = mapper.map_frame(
        model, frame.color, frame.depth, frame.gt_pose, active_mask=mask, allow_prune=False
    )
    assert selective.workload.total_pairs < full.workload.total_pairs
    assert selective.workload.gaussians_skipped == (~mask).sum()


def test_mapper_contribution_recording(tiny_sequence, baseline_run):
    mapper = GaussianMapper(tiny_sequence.intrinsics, MapperConfig(num_iterations=2, densify=False))
    frame = tiny_sequence[2]
    outcome = mapper.map_frame(
        baseline_run.final_model, frame.color, frame.depth, frame.gt_pose,
        record_contributions=True, allow_prune=False,
    )
    assert outcome.noncontrib_counts.shape == (len(outcome.model),)
    assert outcome.noncontrib_counts.sum() > 0
    assert (outcome.contrib_counts >= 0).all()


# ----------------------------- keyframes -------------------------------------
def test_keyframe_manager_adds_first_frame():
    manager = KeyframeManager()
    assert manager.should_add(0, Pose.identity())


def test_keyframe_manager_every_n():
    manager = KeyframeManager(every_n=3, min_translation=100.0, min_rotation_deg=360.0)
    manager.add(0, np.zeros((2, 2, 3)), np.zeros((2, 2)), Pose.identity())
    assert not manager.should_add(1, Pose.identity())
    assert manager.should_add(3, Pose.identity())


def test_keyframe_manager_translation_trigger():
    manager = KeyframeManager(every_n=100, min_translation=0.1)
    manager.add(0, np.zeros((2, 2, 3)), np.zeros((2, 2)), Pose.identity())
    far = Pose(quat=[1, 0, 0, 0], trans=[0.5, 0, 0])
    assert manager.should_add(1, far)


def test_keyframe_manager_eviction_keeps_anchor():
    manager = KeyframeManager(max_keyframes=3)
    for index in range(6):
        manager.add(index, np.zeros((2, 2, 3)), np.zeros((2, 2)), Pose.identity())
    assert len(manager) == 3
    assert manager.keyframes[0].frame_index == 0


# ----------------------------- droid lite -------------------------------------
def test_droid_tracks_adjacent_frames(tiny_sequence):
    tracker = DroidLiteTracker(tiny_sequence.intrinsics)
    prev, cur = tiny_sequence[1], tiny_sequence[2]
    outcome = tracker.track(prev.gray, prev.depth, prev.gt_pose, cur.gray)
    motion = prev.gt_pose.translation_distance_to(cur.gt_pose)
    error = outcome.pose.translation_distance_to(cur.gt_pose)
    assert error < max(0.6 * motion, 0.01)
    assert outcome.flops > 0


def test_droid_identical_frames_stay_put(tiny_sequence):
    tracker = DroidLiteTracker(tiny_sequence.intrinsics)
    frame = tiny_sequence[0]
    outcome = tracker.track(frame.gray, frame.depth, frame.gt_pose, frame.gray)
    assert outcome.pose.translation_distance_to(frame.gt_pose) < 1e-3


def test_droid_falls_back_without_depth(tiny_sequence):
    tracker = DroidLiteTracker(tiny_sequence.intrinsics, DroidLiteConfig(min_valid_pixels=10))
    frame = tiny_sequence[0]
    outcome = tracker.track(frame.gray, np.zeros_like(frame.depth), frame.gt_pose, frame.gray)
    assert outcome.fell_back_to_prior


def test_droid_feature_extractor_shape(tiny_sequence):
    tracker = DroidLiteTracker(tiny_sequence.intrinsics)
    frame = tiny_sequence[0]
    # 4 fixed + 4 mixing 3x3 convolutions over every pixel, 2 FLOPs a MAC.
    billed = tracker.extractor_flops(frame.gray)
    assert billed == tiny_sequence.spec.height * tiny_sequence.spec.width * 9 * 2 * (4 + 4)
    # With no depth the coarse tracker stops before aligning, so it bills
    # exactly both frames' extraction (without computing the maps).
    outcome = tracker.track(frame.gray, np.zeros_like(frame.depth), frame.gt_pose, frame.gray)
    assert outcome.fell_back_to_prior
    assert outcome.flops == 2 * billed > 0


def test_droid_sanity_gate_rejects_huge_motion(tiny_sequence):
    tracker = DroidLiteTracker(tiny_sequence.intrinsics)
    prev = tiny_sequence[0]
    # A completely unrelated image forces a nonsensical estimate.
    unrelated = np.random.default_rng(0).uniform(size=prev.gray.shape)
    outcome = tracker.track(prev.gray, prev.depth, prev.gt_pose, unrelated)
    assert outcome.pose.translation_distance_to(prev.gt_pose) <= 0.3 + 1e-6


# ----------------------------- orb lite ---------------------------------------
def test_orb_detects_corners(tiny_sequence):
    corners = detect_corners(tiny_sequence[0].gray, OrbLiteConfig())
    assert len(corners) > 5
    assert corners[:, 0].max() < tiny_sequence.spec.width


def test_orb_descriptors_are_normalized(tiny_sequence):
    config = OrbLiteConfig()
    corners = detect_corners(tiny_sequence[0].gray, config)
    descriptors = extract_descriptors(tiny_sequence[0].gray, corners, config.patch_size)
    norms = np.linalg.norm(descriptors, axis=1)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-6)


def test_orb_matches_identical_frames(tiny_sequence):
    config = OrbLiteConfig()
    gray = tiny_sequence[0].gray
    corners = detect_corners(gray, config)
    descriptors = extract_descriptors(gray, corners, config.patch_size)
    matches = match_descriptors(descriptors, descriptors, config.match_ratio)
    assert (matches[:, 0] == matches[:, 1]).all()


def test_orb_relative_pose_identical_frames_is_identity(tiny_sequence):
    frame = tiny_sequence[0]
    relative, inliers = estimate_relative_rigid(
        frame.gray,
        frame.depth,
        frame.gray,
        frame.depth,
        tiny_sequence.intrinsics,
        OrbLiteConfig(),
        np.random.default_rng(OrbLiteConfig().seed),
    )
    assert relative is not None
    assert np.linalg.norm(relative.trans) < 1e-3
    assert inliers >= OrbLiteConfig().min_matches


def test_orb_full_run_produces_reasonable_trajectory(tiny_sequence):
    orb = OrbLiteSlam(tiny_sequence.intrinsics)
    result = orb.run(tiny_sequence, num_frames=6)
    gt = [tiny_sequence[i].gt_pose for i in range(6)]
    assert len(result.frames) == 6
    assert ate_rmse(result.estimated_trajectory, gt) < 30.0
