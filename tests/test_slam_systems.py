"""Tests for the full SLAM systems (SplaTAM baseline, Gaussian-SLAM, results)."""

import numpy as np

from repro.slam import GaussianSlam, GaussianSlamConfig, ate_rmse, evaluate_mapping_quality


def test_baseline_tracks_all_frames(baseline_run):
    assert len(baseline_run) == 6
    assert [f.frame_index for f in baseline_run.frames] == list(range(6))


def test_baseline_builds_a_map(baseline_run):
    assert baseline_run.final_model is not None
    assert len(baseline_run.final_model) > 100


def test_baseline_trajectory_accuracy(baseline_run, tiny_sequence):
    gt = [tiny_sequence[i].gt_pose for i in range(6)]
    assert ate_rmse(baseline_run.estimated_trajectory, gt) < 10.0


def test_baseline_mapping_quality(baseline_run, tiny_sequence):
    report = evaluate_mapping_quality(baseline_run, tiny_sequence)
    assert report.mean_psnr > 20.0
    assert 0.0 <= report.mean_ssim <= 1.0
    assert len(report.per_frame_psnr) == len(baseline_run)


def test_baseline_first_frame_has_no_tracking(baseline_run):
    assert baseline_run.frames[0].tracking_iterations == 0
    assert all(f.tracking_iterations > 0 for f in baseline_run.frames[1:])


def test_baseline_trace_matches_frames(baseline_run):
    assert baseline_run.trace is not None
    assert len(baseline_run.trace.frames) == len(baseline_run)
    assert sum(frame.tracking.total_pairs for frame in baseline_run.trace.frames) > 0
    assert sum(frame.mapping.total_pairs for frame in baseline_run.trace.frames) > 0


def test_baseline_result_summaries(baseline_run):
    assert baseline_run.total_tracking_iterations == sum(
        f.tracking_iterations for f in baseline_run.frames
    )
    assert baseline_run.keyframe_fraction == 1.0  # baseline maps every frame fully
    assert baseline_run.coarse_only_fraction == 0.0
    assert all(frame.covisibility is None for frame in baseline_run.frames)


def test_baseline_mapping_reduces_loss(baseline_run):
    losses = [f.mapping_loss for f in baseline_run.frames]
    assert losses[-1] < losses[0]


def test_gaussian_slam_runs_and_builds_submaps(tiny_sequence):
    config = GaussianSlamConfig(
        tracking_iterations=6, mapping_iterations=3, submap_translation_threshold=0.3
    )
    system = GaussianSlam(tiny_sequence.intrinsics, config)
    result = system.run(tiny_sequence, num_frames=5)
    assert len(result.frames) == 5
    assert len(system.submaps) >= 1
    assert len(result.final_model) > 0
    assert len(result.final_model) == sum(len(model) for model in system.map_models())
    assert result.frames[-1].num_gaussians == len(result.final_model)
    gt = [tiny_sequence[i].gt_pose for i in range(5)]
    assert ate_rmse(result.estimated_trajectory, gt) < 20.0


def test_gaussian_slam_scale_regularization_shrinks_anisotropy(tiny_sequence):
    config = GaussianSlamConfig(tracking_iterations=2, mapping_iterations=2, scale_regularization=0.5)
    system = GaussianSlam(tiny_sequence.intrinsics, config)
    model = system.run(tiny_sequence, num_frames=2).final_model
    anisotropy = model.log_scales.max(axis=1) - model.log_scales.min(axis=1)
    assert anisotropy.mean() < 1.0


def test_frame_trace_accessor(baseline_run):
    trace = baseline_run.frame_trace(1)
    assert trace.frame_index == 1
    assert trace.tracking.refine_iterations == baseline_run.frames[1].tracking_iterations
