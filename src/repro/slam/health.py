"""Tracking-health monitoring and the graceful-degradation fallback ladder.

Photometric 3DGS tracking fails quietly: under exposure drift, stale
frames or burst corruption the pose optimizer still converges — to the
wrong pose — and the only witnesses are a residual that no longer looks
like its recent history and a pose update far larger than the motion
model predicts.  :class:`TrackingHealthMonitor` scores exactly those two
signals per frame and, when a frame looks degraded, drives a bounded
*fallback ladder*:

1. **Re-seed retry** — re-run photometric tracking from the previous
   pose (zero velocity).  Constant-velocity warm starts are the first
   casualty of stream faults (a dropped frame makes the extrapolated
   seed overshoot by one frame of motion); re-seeding recovers those
   cases at the cost of one extra tracking pass.
2. **Feature fallback** — estimate the pose geometrically with the
   ORB-lite pipeline (:func:`repro.slam.orb.estimate_relative_rigid`)
   against the previous observation.  Normalized patch descriptors are
   invariant to affine intensity change and the alignment uses depth,
   not photometry — the standard recovery for exactly the conditions
   that break photometric tracking.

Invariants (property-tested in ``tests/test_robustness.py``):

* **Observation-only on healthy frames.**  A healthy frame's pose, loss
  and workload pass through unchanged and no extra computation that
  could perturb downstream state runs — clean-stream sessions with the
  monitor attached are bit-identical to sessions without it.
* **Stateless fallback randomness.**  The feature fallback's RANSAC
  generator is freshly seeded per frame index, so the ladder is
  checkpoint/resume-safe without carrying RNG state.
* **Bounded work.**  At most ``max_fallbacks`` ladder rungs run per
  frame; every rung is counted (``session.tracking_fallbacks``,
  ``session.frames_degraded``, ``session.relocalizations``) and recorded
  as health events in the frame's trace.
* **Degraded losses never poison the baseline.**  The rolling loss
  baseline only ingests healthy frames, so a long degradation window
  keeps being detected instead of being normalized away.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.slam.orb import OrbLiteConfig, estimate_relative_rigid
from repro.slam.tracker import GaussianPoseTracker
from repro.workloads import TrackingWorkload

__all__ = [
    "HealthConfig",
    "HealthReport",
    "TrackedFrame",
    "TrackingHealthMonitor",
    "merge_tracking_workloads",
]


@dataclasses.dataclass(frozen=True)
class HealthConfig:
    """Thresholds and budgets of the tracking-health monitor.

    Attributes:
        enabled: master switch for the fallback ladder (the monitor
            itself is always safe to attach; disabling skips assessment
            entirely so behavior is byte-for-byte the pre-monitor one).
        window: rolling-baseline length (healthy losses retained).
        min_history: healthy frames required before the loss test arms.
        loss_ratio_threshold: loss above ``threshold x`` the rolling
            median baseline flags the frame (with the floor below).
        loss_floor: absolute loss below which a frame is never flagged —
            guards against ratio blowups on near-zero clean baselines.
        retry_margin: a re-seed retry replaces the primary pose only when
            its loss is below ``retry_margin x`` the primary loss.  Under
            sensor corruption both candidate losses are inflated by the
            fault itself, so near-ties are noise — overriding on them
            swaps poses essentially at random.  Requiring a decisive
            improvement keeps the ladder no-worse-than-baseline.
        translation_jump: frame-to-frame translation (meters) beyond
            which the pose update is implausible for a handheld stream.
        rotation_jump_deg: frame-to-frame rotation bound in degrees.
        max_fallbacks: ladder rungs allowed per frame.
        retry_iterations: iterations the ladder's photometric passes run
            on top of the tracker's configured budget.
        orb: feature-extraction configuration of the feature fallback.
        orb_seed: base seed of the per-frame-index RANSAC generators.
    """

    enabled: bool = True
    window: int = 6
    min_history: int = 2
    loss_ratio_threshold: float = 2.5
    loss_floor: float = 0.03
    translation_jump: float = 0.15
    rotation_jump_deg: float = 15.0
    max_fallbacks: int = 2
    retry_iterations: int = 10
    retry_margin: float = 0.90
    orb: OrbLiteConfig = dataclasses.field(default_factory=OrbLiteConfig)
    orb_seed: int = 7001


@dataclasses.dataclass(frozen=True)
class HealthReport:
    """Outcome of assessing one tracked frame."""

    healthy: bool
    reasons: tuple[str, ...] = ()
    loss_ratio: float = 0.0


@dataclasses.dataclass
class TrackedFrame:
    """The ``_track`` → ``_map`` handoff of the three 3DGS systems.

    A system builds it from its primary tracking pass and
    :meth:`TrackingHealthMonitor.moderate` returns it, carrying the
    monitor's verdict (``health_events`` … ``relocalized``) to the
    result and trace assembly in ``_map``.  The covisibility evidence
    (``used_coarse_only`` … ``sad_evaluations``) is AGS's and keeps its
    defaults on SplaTAM and Gaussian-SLAM.
    """

    pose: Pose
    workload: TrackingWorkload
    loss: float = 0.0
    iterations: int = 0
    health_events: list = dataclasses.field(default_factory=list)
    degraded: bool = False
    fallbacks_used: int = 0
    relocalized: bool = False
    used_coarse_only: bool = False
    covisibility: float | None = None
    sad_evaluations: int = 0


def merge_tracking_workloads(
    base: TrackingWorkload, extra: TrackingWorkload
) -> TrackingWorkload:
    """Account a fallback retry's tracking work on top of the base pass."""
    return TrackingWorkload(
        coarse_flops=base.coarse_flops + extra.coarse_flops,
        refine_iterations=base.refine_iterations + extra.refine_iterations,
        refine_renders=list(base.refine_renders) + list(extra.refine_renders),
    )


class TrackingHealthMonitor:
    """Per-frame tracking-health scoring plus the fallback ladder.

    One monitor instance lives inside each map-based system and is part
    of its checkpoint payload (:meth:`state_dict` /
    :meth:`load_state_dict`): the rolling baseline is the only state, so
    checkpoints stay tiny and resume bit-exactly.
    """

    def __init__(self, config: HealthConfig | None = None, intrinsics: Intrinsics | None = None) -> None:
        self.config = config or HealthConfig()
        self.intrinsics = intrinsics
        self._losses: list[float] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the rolling baseline (new sequence)."""
        self._losses = []

    def state_dict(self) -> dict:
        """Snapshot the rolling baseline (the monitor's only state)."""
        return {"losses": [float(value) for value in self._losses]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._losses = [float(value) for value in state["losses"]]

    # ------------------------------------------------------------------
    def baseline(self) -> float | None:
        """Rolling median of recent healthy losses (None until armed)."""
        if len(self._losses) < self.config.min_history:
            return None
        return float(np.median(self._losses))

    def record(self, loss: float) -> None:
        """Ingest a healthy frame's loss into the rolling baseline."""
        if loss is None or loss <= 0.0:
            return
        self._losses.append(float(loss))
        if len(self._losses) > self.config.window:
            del self._losses[: len(self._losses) - self.config.window]

    def assess(self, loss: float, pose: Pose | None, prev_pose: Pose | None) -> HealthReport:
        """Score one tracked frame; pure (no state is mutated)."""
        config = self.config
        reasons: list[str] = []
        loss_ratio = 0.0
        if loss is not None and loss > 0.0:
            baseline = self.baseline()
            if baseline is not None:
                loss_ratio = float(loss) / max(baseline, 1e-12)
                if loss > config.loss_floor and loss_ratio > config.loss_ratio_threshold:
                    reasons.append("loss")
        if pose is not None and prev_pose is not None:
            translation = pose.translation_distance_to(prev_pose)
            rotation = float(np.degrees(pose.rotation_angle_to(prev_pose)))
            if translation > config.translation_jump:
                reasons.append("translation")
            if rotation > config.rotation_jump_deg:
                reasons.append("rotation")
        return HealthReport(healthy=not reasons, reasons=tuple(reasons), loss_ratio=loss_ratio)

    # ------------------------------------------------------------------
    def feature_pose(
        self,
        index: int,
        prev_gray: np.ndarray | None,
        prev_depth: np.ndarray | None,
        cur_gray: np.ndarray,
        cur_depth: np.ndarray,
        prev_pose: Pose | None,
        perf: PerfRecorder | None = None,
    ) -> Pose | None:
        """Absolute feature-based pose estimate for frame ``index``.

        Runs the ORB-lite relative-motion pipeline between the previous
        and current observations and composes onto the previous pose.
        The RANSAC generator is seeded by ``(orb_seed, index)`` — a pure
        function of the frame index, never checkpointed.
        """
        if prev_gray is None or prev_depth is None or prev_pose is None:
            return None
        if self.intrinsics is None:
            return None
        rng = np.random.default_rng(np.random.SeedSequence((self.config.orb_seed, index)))
        relative, _ = estimate_relative_rigid(
            np.asarray(prev_gray),
            np.asarray(prev_depth),
            np.asarray(cur_gray),
            np.asarray(cur_depth),
            self.intrinsics,
            self.config.orb,
            rng,
            perf=perf,
        )
        if relative is None:
            return None
        return relative.compose(prev_pose)

    def photometric_retry(
        self,
        tracker: GaussianPoseTracker,
        model: GaussianModel,
        frame,
        collect_workload: bool,
        perf: PerfRecorder,
        section: str,
    ) -> Callable[[Pose], tuple[Pose, float, int, TrackingWorkload]]:
        """The ladder's photometric pass, as :meth:`moderate`'s ``retrack``.

        Re-runs ``tracker`` against ``model`` on ``frame`` from a seed
        pose, with the tracker's configured budget plus
        ``retry_iterations``: a flagged frame is worth extra convergence
        effort, and a retry that merely ties the primary pass is rejected
        by the ladder anyway.  On AGS the tracker is the backbone's, so
        the budget is ``baseline_tracking_iterations``, not the
        covisibility-scaled ``IterT`` — a flagged frame is exactly the
        kind the movement-adaptive schedule under-provisioned.  Each pass is timed under ``section``, as the
        system's primary pass is.
        """
        iterations = tracker.config.num_iterations + self.config.retry_iterations

        def retrack(seed_pose: Pose) -> tuple[Pose, float, int, TrackingWorkload]:
            with perf.section(section):
                outcome = tracker.track(
                    model, frame.color, frame.depth, seed_pose,
                    num_iterations=iterations,
                    collect_workload=collect_workload,
                )
            return outcome.pose, outcome.final_loss, outcome.iterations_run, outcome.workload

        return retrack

    # ------------------------------------------------------------------
    def moderate(
        self,
        index: int,
        tracked: TrackedFrame,
        prev_pose: Pose | None,
        retrack: Callable[[Pose], tuple[Pose, float, int, TrackingWorkload]] | None = None,
        feature_pose: Callable[[], Pose | None] | None = None,
        perf: PerfRecorder | None = None,
    ) -> TrackedFrame:
        """Run one tracked frame through assessment and (if needed) the ladder.

        Args:
            index: frame index (events/labels only; randomness is owned
                by the ``feature_pose`` closure).
            tracked: the system's primary tracking outcome.
            prev_pose: previous frame's accepted pose (assessment
                reference and retry seed).
            retrack: re-run photometric tracking from a seed pose,
                returning ``(pose, loss, iterations, workload)``
                (see :meth:`photometric_retry`).
            feature_pose: produce the feature-based absolute pose (or
                None when unavailable).
            perf: counter sink for the ``session.*`` robustness counters.

        Returns:
            ``tracked`` itself on healthy frames (and when the monitor is
            disabled); otherwise a copy carrying the ladder's pose, loss,
            summed iterations and workload, and its verdict.
        """
        perf = perf or NULL_RECORDER
        config = self.config
        if not config.enabled:
            return tracked
        pose, loss = tracked.pose, tracked.loss
        report = self.assess(loss, pose, prev_pose)
        if report.healthy:
            self.record(loss)
            return tracked

        perf.count("session.frames_degraded")
        events = [f"degraded:{reason}" for reason in report.reasons]
        best_pose, best_loss = pose, loss
        total_iterations = tracked.iterations
        merged_workload = tracked.workload
        fallbacks = 0
        relocalized = False

        # Rung 1: photometric retry re-seeded at the previous pose.
        if retrack is not None and prev_pose is not None and fallbacks < config.max_fallbacks:
            fallbacks += 1
            perf.count("session.tracking_fallbacks")
            events.append("fallback:reseed")
            retry_pose, retry_loss, retry_iterations, retry_workload = retrack(prev_pose.copy())
            total_iterations += retry_iterations
            merged_workload = merge_tracking_workloads(merged_workload, retry_workload)
            if retry_iterations > 0 and (
                best_loss <= 0.0 or (0.0 < retry_loss < config.retry_margin * best_loss)
            ):
                best_pose, best_loss = retry_pose, retry_loss
                events.append("reseed:improved")

        # Rung 2: feature-based relocalization if still unhealthy.  The
        # ORB pose is never substituted blindly: it re-seeds one more
        # photometric pass (GSORB-style feature/photometric fusion) and
        # the polished candidate must win the loss comparison.  Both
        # candidates converged photometrically, so comparing their losses
        # is fair even when a fault inflates the absolute level.
        still_degraded = not self.assess(best_loss, best_pose, prev_pose).healthy
        if still_degraded and feature_pose is not None and fallbacks < config.max_fallbacks:
            fallbacks += 1
            perf.count("session.tracking_fallbacks")
            estimate = feature_pose()
            # A feature pose is dead reckoning from the previous frame:
            # consider it only when it is itself a plausible inter-frame
            # motion, otherwise a mismatched RANSAC fit would replace a
            # merely-degraded pose with a catastrophic one.
            plausible = (
                estimate is not None
                and prev_pose is not None
                and estimate.translation_distance_to(prev_pose) <= config.translation_jump
                and float(np.degrees(estimate.rotation_angle_to(prev_pose)))
                <= config.rotation_jump_deg
            )
            if plausible:
                candidate_pose, candidate_loss = estimate, 0.0
                if retrack is not None:
                    polish_pose, polish_loss, polish_iterations, polish_workload = retrack(
                        estimate.copy()
                    )
                    total_iterations += polish_iterations
                    merged_workload = merge_tracking_workloads(merged_workload, polish_workload)
                    if polish_iterations > 0:
                        candidate_pose, candidate_loss = polish_pose, polish_loss
                accept = (
                    best_loss <= 0.0
                    or (0.0 < candidate_loss < best_loss)
                    # An unpolished feature pose carries no loss evidence;
                    # take it only on faith that geometry beats a diverged
                    # photometric fit.
                    or (candidate_loss <= 0.0 and retrack is None)
                )
                if accept:
                    relocalized = True
                    perf.count("session.relocalizations")
                    events.append("fallback:feature")
                    best_pose, best_loss = candidate_pose, candidate_loss
                else:
                    events.append("feature:rejected")
            else:
                events.append("feature:unavailable")

        return dataclasses.replace(
            tracked,
            pose=best_pose,
            loss=best_loss,
            iterations=total_iterations,
            workload=merged_workload,
            health_events=events,
            degraded=True,
            fallbacks_used=fallbacks,
            relocalized=relocalized,
        )
