"""Tests for movement-adaptive tracking, contribution-aware mapping and the AGS pipeline."""

import numpy as np
import pytest

from repro.core import AGSConfig, AgsSlam, ContributionAwareMapper, MovementAdaptiveTracker
from repro.slam import ate_rmse, evaluate_mapping_quality
from repro.slam.mapper import GaussianMapper
from repro.slam.tracker import GaussianPoseTracker


# ----------------------------- movement-adaptive tracking --------------------
def _track(sequence, model, prev_index, covisibility, iter_t):
    """One MAT step between two frames, refining with a fresh backbone tracker."""
    tracker = MovementAdaptiveTracker(sequence.intrinsics, AGSConfig(iter_t=iter_t))
    prev, cur = sequence[prev_index], sequence[prev_index + 1]
    return tracker.track(
        model,
        prev.gray, prev.depth, prev.gt_pose,
        cur.color, cur.depth, cur.gray,
        covisibility=covisibility,
        tracker=GaussianPoseTracker(sequence.intrinsics),
    )


def test_high_covisibility_skips_refinement(tiny_sequence, baseline_run):
    outcome = _track(tiny_sequence, baseline_run.final_model, 1, covisibility=0.98, iter_t=3)
    assert outcome.used_coarse_only
    assert outcome.refine_iterations == 0
    assert outcome.workload.coarse_flops > 0


def test_low_covisibility_triggers_refinement(tiny_sequence, baseline_run):
    outcome = _track(tiny_sequence, baseline_run.final_model, 1, covisibility=0.2, iter_t=3)
    assert not outcome.used_coarse_only
    assert outcome.refine_iterations > 0
    assert len(outcome.workload.refine_renders) == outcome.refine_iterations


def test_unknown_covisibility_forces_refinement(tiny_sequence, baseline_run):
    outcome = _track(tiny_sequence, baseline_run.final_model, 0, covisibility=None, iter_t=2)
    assert not outcome.used_coarse_only


# ----------------------------- contribution-aware mapping --------------------
def test_keyframe_designation_rules():
    mapper = ContributionAwareMapper(AGSConfig(thresh_m=0.5))
    assert mapper.designate_keyframe(None)
    assert mapper.designate_keyframe(0.3)
    assert not mapper.designate_keyframe(0.8)


def test_keyframe_records_contribution_table(tiny_sequence, baseline_run):
    mapper = ContributionAwareMapper(AGSConfig())
    frame = tiny_sequence[2]
    outcome = mapper.map_frame(
        baseline_run.final_model, 2, frame.color, frame.depth, frame.gt_pose,
        covisibility_with_keyframe=None,
        mapper=GaussianMapper(tiny_sequence.intrinsics),
    )
    assert outcome.is_keyframe
    assert len(mapper.contribution_table) == len(outcome.mapping.model)
    assert mapper.contribution_table.keyframe_index == 2


def test_nonkeyframe_uses_selective_mapping(tiny_sequence, baseline_run):
    mapper = ContributionAwareMapper(AGSConfig())
    backbone = GaussianMapper(tiny_sequence.intrinsics)
    key = tiny_sequence[2]
    mapper.map_frame(
        baseline_run.final_model, 2, key.color, key.depth, key.gt_pose,
        covisibility_with_keyframe=None, mapper=backbone,
    )
    nonkey = tiny_sequence[3]
    outcome = mapper.map_frame(
        baseline_run.final_model, 3, nonkey.color, nonkey.depth, nonkey.gt_pose,
        covisibility_with_keyframe=0.95, mapper=backbone,
    )
    assert not outcome.is_keyframe
    assert not outcome.mapping.workload.is_keyframe
    assert outcome.gaussians_skipped == outcome.mapping.workload.gaussians_skipped >= 0


# ----------------------------- full pipeline ----------------------------------
def test_thresh_alpha_reaches_the_backbone_mapper(tiny_sequence):
    system = AgsSlam(tiny_sequence.intrinsics, AGSConfig(thresh_alpha=0.05))
    assert system.mapper.config.contribution_threshold == 0.05


def test_ags_pipeline_produces_full_trajectory(ags_run, tiny_sequence):
    assert len(ags_run) == 6
    gt = [tiny_sequence[i].gt_pose for i in range(6)]
    assert ate_rmse(ags_run.estimated_trajectory, gt) < 10.0


def test_ags_reduces_tracking_iterations_vs_baseline(ags_run, baseline_run):
    assert ags_run.total_tracking_iterations < baseline_run.total_tracking_iterations


def test_ags_records_covisibility(ags_run):
    values = [f.covisibility for f in ags_run.frames[1:]]
    assert all(v is not None and 0.0 <= v <= 1.0 for v in values)


def test_ags_designates_keyframes(ags_run):
    assert ags_run.frames[0].is_keyframe
    assert 0.0 < ags_run.keyframe_fraction <= 1.0


def test_ags_uses_coarse_only_on_high_covisibility(ags_run):
    coarse_only = [f for f in ags_run.frames[1:] if f.used_coarse_only]
    for frame in coarse_only:
        assert frame.covisibility >= AGSConfig().thresh_t
        assert frame.tracking_iterations == 0


def test_ags_walk_sequence_refines_low_covisibility_frames(ags_walk_run):
    refined = [f for f in ags_walk_run.frames[1:] if not f.used_coarse_only]
    assert refined, "a low-covisibility walking sequence must trigger refinement"
    for frame in refined:
        assert frame.tracking_iterations > 0


def test_ags_mapping_quality_close_to_baseline(ags_run, baseline_run, tiny_sequence):
    ags_psnr = evaluate_mapping_quality(ags_run, tiny_sequence).mean_psnr
    base_psnr = evaluate_mapping_quality(baseline_run, tiny_sequence).mean_psnr
    assert ags_psnr > base_psnr - 3.0  # paper: ~2.4% PSNR loss


def test_ags_trace_contains_codec_and_workloads(ags_run):
    trace = ags_run.trace
    assert trace is not None
    assert any(f.codec_sad_evaluations > 0 for f in trace.frames[1:])
    assert any(f.tracking.coarse_flops > 0 for f in trace.frames[1:])
    assert all(f.mapping.iterations > 0 for f in trace.frames)


def test_ags_tracking_workload_smaller_than_baseline(ags_run, baseline_run):
    def tracking_pairs(run):
        return sum(frame.tracking.total_pairs for frame in run.trace.frames)

    assert tracking_pairs(ags_run) < tracking_pairs(baseline_run)


def test_ags_reset_allows_second_run(tiny_sequence):
    config = AGSConfig(iter_t=2, baseline_tracking_iterations=6)
    system = AgsSlam(tiny_sequence.intrinsics, config, mapping_iterations=2)
    first = system.run(tiny_sequence, num_frames=3)
    second = system.run(tiny_sequence, num_frames=3)
    assert len(first) == len(second) == 3
    assert np.isclose(
        first.frames[-1].estimated_pose.trans, second.frames[-1].estimated_pose.trans
    ).all()
