"""Tracking-health monitor and robustness-grid tests.

Covers the monitor's unit behavior (baseline arming, assessment
reasons, ladder accept/reject rules, checkpoint round-trip), the two
system-level invariants — clean-stream neutrality for every monitored
system and degraded-stream improvement — and, under ``-m slow``, the full
robustness matrix: every degraded scenario on every system, with the
fallback ladder beating its disarmed arm on at least two scenarios for
both SplaTAM and AGS.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AGSConfig, AgsSlam
from repro.gaussians import Pose
from repro.perf import PerfRecorder
from repro.slam import (
    GaussianSlam,
    GaussianSlamConfig,
    HealthConfig,
    SplaTam,
    SplaTamConfig,
    TrackedFrame,
    TrackingHealthMonitor,
)
from repro.workloads import TrackingWorkload


def _workload(iters=3):
    return TrackingWorkload(coarse_flops=0.0, refine_iterations=iters)


def _tracked(loss, iters, pose=None):
    """A primary tracking outcome, as a system hands it to ``moderate``."""
    return TrackedFrame(
        pose=Pose.identity() if pose is None else pose,
        workload=_workload(iters), loss=loss, iterations=iters,
    )


# ---------------------------------------------------------------------------
# Monitor unit behavior
# ---------------------------------------------------------------------------
def test_baseline_arms_after_min_history():
    monitor = TrackingHealthMonitor(HealthConfig(min_history=2, window=3))
    assert monitor.baseline() is None
    monitor.record(0.10)
    assert monitor.baseline() is None
    monitor.record(0.20)
    assert monitor.baseline() == pytest.approx(0.15)
    # The window trims oldest-first.
    monitor.record(0.30)
    monitor.record(0.40)
    assert monitor.state_dict()["losses"] == [0.20, 0.30, 0.40]


def test_record_ignores_empty_losses():
    monitor = TrackingHealthMonitor(HealthConfig())
    monitor.record(0.0)
    monitor.record(-1.0)
    assert monitor.state_dict()["losses"] == []


def test_assess_flags_loss_spikes_and_pose_jumps():
    config = HealthConfig(
        min_history=2, loss_ratio_threshold=2.0, loss_floor=0.01,
        translation_jump=0.10, rotation_jump_deg=10.0,
    )
    monitor = TrackingHealthMonitor(config)
    monitor.record(0.05)
    monitor.record(0.05)
    prev = Pose.identity()

    healthy = monitor.assess(0.06, prev, prev)
    assert healthy.healthy and healthy.reasons == ()

    spiked = monitor.assess(0.25, prev, prev)
    assert not spiked.healthy and spiked.reasons == ("loss",)
    assert spiked.loss_ratio == pytest.approx(5.0)

    jumped_pose = Pose.identity()
    jumped_pose.trans = np.array([0.5, 0.0, 0.0])
    jumped = monitor.assess(0.06, jumped_pose, prev)
    assert not jumped.healthy and jumped.reasons == ("translation",)


def test_assess_is_silent_below_loss_floor():
    monitor = TrackingHealthMonitor(HealthConfig(min_history=1, loss_floor=0.5))
    monitor.record(0.001)
    # Huge ratio, but below the absolute floor: not a fault.
    assert monitor.assess(0.01, None, None).healthy


def test_state_dict_round_trip():
    monitor = TrackingHealthMonitor(HealthConfig())
    for loss in (0.1, 0.2, 0.3):
        monitor.record(loss)
    clone = TrackingHealthMonitor(HealthConfig())
    clone.load_state_dict(monitor.state_dict())
    assert clone.baseline() == monitor.baseline()


def test_moderate_passes_healthy_frames_through_untouched():
    monitor = TrackingHealthMonitor(HealthConfig())
    pose = Pose.identity()
    calls = []
    moderated = monitor.moderate(
        1, _tracked(0.05, 7, pose=pose),
        prev_pose=Pose.identity(),
        retrack=lambda seed: calls.append("retrack"),
        feature_pose=lambda: calls.append("feature"),
    )
    assert moderated.pose is pose
    assert moderated.loss == 0.05
    assert moderated.iterations == 7
    assert not moderated.degraded and moderated.fallbacks_used == 0
    assert calls == []  # no fallback computation ran


def test_moderate_disabled_skips_everything():
    monitor = TrackingHealthMonitor(HealthConfig(enabled=False))
    moderated = monitor.moderate(
        1, _tracked(99.0, 1),
        prev_pose=Pose.identity(),
    )
    assert not moderated.degraded and moderated.health_events == []
    assert monitor.state_dict()["losses"] == []  # not even recorded


def _degraded_monitor():
    config = HealthConfig(min_history=2, loss_ratio_threshold=2.0, loss_floor=0.01)
    monitor = TrackingHealthMonitor(config)
    monitor.record(0.05)
    monitor.record(0.05)
    return monitor


def test_reseed_retry_needs_a_decisive_improvement():
    monitor = _degraded_monitor()
    prev = Pose.identity()
    better = Pose.identity()
    better.trans = np.array([0.01, 0.0, 0.0])

    # A near-tie (loss within retry_margin of the primary) is rejected.
    tied = monitor.moderate(
        2, _tracked(0.30, 5),
        prev_pose=prev,
        retrack=lambda seed: (better, 0.29, 5, _workload(5)),
    )
    assert tied.degraded and tied.fallbacks_used >= 1
    assert "reseed:improved" not in tied.health_events
    assert np.array_equal(tied.pose.trans, Pose.identity().trans)

    monitor = _degraded_monitor()
    decisive = monitor.moderate(
        2, _tracked(0.30, 5),
        prev_pose=prev,
        retrack=lambda seed: (better, 0.10, 5, _workload(5)),
    )
    assert "reseed:improved" in decisive.health_events
    assert np.array_equal(decisive.pose.trans, better.trans)
    # The retry's work is accounted on top of the primary pass.
    assert decisive.iterations == 10
    assert decisive.workload.refine_iterations == 10


def test_feature_fallback_is_polished_and_loss_arbitrated():
    monitor = _degraded_monitor()
    prev = Pose.identity()
    feature = Pose.identity()
    feature.trans = np.array([0.05, 0.0, 0.0])

    def retrack(seed):
        # The reseed retry (seeded at prev) stays bad; the polish pass
        # (seeded at the feature pose) converges well.
        if np.array_equal(seed.trans, prev.trans):
            return seed, 0.31, 5, _workload(5)
        return seed, 0.12, 5, _workload(5)

    moderated = monitor.moderate(
        2, _tracked(0.30, 5),
        prev_pose=prev, retrack=retrack, feature_pose=lambda: feature,
        perf=PerfRecorder(),
    )
    assert moderated.relocalized
    assert "fallback:feature" in moderated.health_events
    assert np.array_equal(moderated.pose.trans, feature.trans)
    assert moderated.fallbacks_used == 2


def test_implausible_feature_pose_is_never_substituted():
    monitor = _degraded_monitor()
    prev = Pose.identity()
    wild = Pose.identity()
    wild.trans = np.array([5.0, 0.0, 0.0])  # far beyond translation_jump
    moderated = monitor.moderate(
        2, _tracked(0.30, 5),
        prev_pose=prev,
        retrack=lambda seed: (seed, 0.31, 5, _workload(5)),
        feature_pose=lambda: wild,
    )
    assert "feature:unavailable" in moderated.health_events
    assert not moderated.relocalized
    assert np.array_equal(moderated.pose.trans, prev.trans)


def test_degraded_losses_never_enter_the_baseline():
    monitor = _degraded_monitor()
    before = list(monitor.state_dict()["losses"])
    monitor.moderate(
        2, _tracked(0.30, 5),
        prev_pose=Pose.identity(),
    )
    assert monitor.state_dict()["losses"] == before


def test_moderate_counts_into_perf():
    monitor = _degraded_monitor()
    perf = PerfRecorder()
    monitor.moderate(
        2, _tracked(0.30, 5),
        prev_pose=Pose.identity(),
        retrack=lambda seed: (seed, 0.31, 5, _workload(5)),
        perf=perf,
    )
    assert perf.counters.get("session.frames_degraded") == 1
    assert perf.counters.get("session.tracking_fallbacks") == 1


# ---------------------------------------------------------------------------
# System-level invariants
# ---------------------------------------------------------------------------
def _poses_identical(a, b) -> bool:
    return len(a.frames) == len(b.frames) and all(
        np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat)
        and np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans)
        and fa.tracking_loss == fb.tracking_loss
        for fa, fb in zip(a.frames, b.frames)
    )


def _make_system(name, intrinsics, enabled):
    health = HealthConfig(enabled=enabled)
    if name == "splatam":
        return SplaTam(
            intrinsics,
            SplaTamConfig(tracking_iterations=5, mapping_iterations=3, health=health),
        )
    if name == "gaussian-slam":
        return GaussianSlam(
            intrinsics,
            GaussianSlamConfig(tracking_iterations=5, mapping_iterations=3, health=health),
        )
    return AgsSlam(
        intrinsics,
        AGSConfig(iter_t=2, baseline_tracking_iterations=5),
        mapping_iterations=3,
        health_config=health,
    )


@pytest.mark.parametrize("name", ["splatam", "gaussian-slam", "ags"])
def test_clean_stream_with_monitor_is_bit_identical(name, tiny_sequence):
    """Armed vs disarmed monitor on the clean stream: same trajectory.

    Covers every system with a tracking-health monitor.
    """
    armed = _make_system(name, tiny_sequence.intrinsics, True).run(
        tiny_sequence, num_frames=5
    )
    disarmed = _make_system(name, tiny_sequence.intrinsics, False).run(
        tiny_sequence, num_frames=5
    )
    assert _poses_identical(armed, disarmed)
    assert armed.frames_degraded == 0
    assert armed.total_fallbacks == 0
    assert armed.total_relocalizations == 0


def test_robustness_smoke_grid_fires_the_ladder():
    """The CI-sized robustness grid and ablation: stress, SplaTAM and AGS.

    At 10 frames the stress scenario's faults land inside the stream (at
    6 they do not), so the ladder fires for both systems and the armed
    arm of the ablation beats the disarmed one.  AGS's coarse tracker
    diverges at the fault onset; pose-jump detection catches it and the
    re-seed retry recovers decisively.  The slow lane asserts the
    ablation wins over every degraded scenario.
    """
    from repro.eval.robustness import (
        fallback_ablation,
        format_robustness_report,
        robustness_grid,
    )

    grid = robustness_grid(
        num_frames=10, scenarios=("stress",), systems=("splatam", "ags"), workers=2
    )
    ablation = fallback_ablation(num_frames=10, scenarios=("stress",), workers=2)
    for system in ("splatam", "ags"):
        entry = ablation["rows"]["stress"][system]
        assert entry["frames_degraded"] > 0 and entry["fallbacks"] > 0
        assert entry["ate_improvement_cm"] > 0
    assert ablation["rows"]["stress"]["ags"]["ate_improvement_cm"] > 1.0  # centimeters
    report = format_robustness_report(grid, ablation)
    assert "Robustness grid (desk, 10 frames)" in report
    assert "Fallback ablation" in report


def _grid_run(algorithm, scenario, **overrides):
    """A run of the robustness grid's configuration, through the shared store
    (the smoke grid above leaves its runs there)."""
    from repro.eval.robustness import (
        GRID_FRAMES,
        GRID_MAPPING_ITERATIONS,
        GRID_SEQUENCE,
        GRID_TRACKING_ITERATIONS,
    )
    from repro.eval.service import RunKey, default_service

    key = RunKey(
        algorithm=algorithm,
        sequence=GRID_SEQUENCE,
        num_frames=GRID_FRAMES,
        tracking_iterations=GRID_TRACKING_ITERATIONS,
        mapping_iterations=GRID_MAPPING_ITERATIONS,
        scenario=scenario,
        **overrides,
    )
    return key, default_service().run(key)


@pytest.mark.parametrize("scenario", [None, "stress"], ids=["clean", "stress"])
def test_ags_with_both_switches_off_is_splatam(scenario):
    """MAT and GCM only override SplaTAM's hooks, so with both off AGS is
    SplaTAM: the same poses, losses, iteration counts and final map.  On
    ``stress`` the ladder fires, so its retries match too."""
    _, splatam = _grid_run("splatam", scenario)
    _, ags = _grid_run("ags", scenario, enable_mat=False, enable_gcm=False)
    if scenario is not None:
        assert splatam.total_fallbacks > 0

    def observed(result):
        return [
            (
                frame.estimated_pose.as_vector().tobytes(),
                frame.tracking_loss,
                frame.mapping_loss,
                frame.tracking_iterations,
                frame.mapping_iterations,
                frame.fallbacks_used,
            )
            for frame in result.frames
        ]

    assert observed(ags) == observed(splatam)
    for name in splatam.final_model.PARAM_NAMES:
        assert np.array_equal(getattr(ags.final_model, name), getattr(splatam.final_model, name))


def test_ags_ladder_retry_runs_the_run_tracking_budget():
    """Each ladder pass of AGS runs the run's ``tracking_iterations`` plus
    ``retry_iterations``, not a fixed tracker default of its own."""
    key, result = _grid_run("ags", "stress")
    retried = [frame for frame in result.frames if frame.fallbacks_used]
    assert retried
    per_pass = key.tracking_iterations + HealthConfig().retry_iterations
    for frame in retried:
        assert frame.tracking_iterations <= key.iter_t + frame.fallbacks_used * per_pass


# ---------------------------------------------------------------------------
# Full robustness matrix (slow lane)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_full_robustness_matrix_targets():
    from repro.eval.robustness import fallback_ablation, robustness_grid

    grid = robustness_grid()
    ablation = fallback_ablation()

    # Every registered degraded scenario ran for every system.
    assert set(grid["rows"]) == set(
        s for s in __import__("repro.datasets.scenarios", fromlist=["available_scenarios"]).available_scenarios()
        if s != "clean"
    )

    # The acceptance property: each fallback-capable system beats its
    # disarmed arm on at least two scenarios.
    for system in ("splatam", "ags"):
        wins = [
            scenario
            for scenario, entries in ablation["rows"].items()
            if entries[system]["ate_improvement_cm"] > 0.25
        ]
        assert len(wins) >= 2, f"{system} wins only on {wins}"
