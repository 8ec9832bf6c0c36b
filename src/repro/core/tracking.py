"""Movement-adaptive tracking (Section 4.2 of the paper).

Every frame first receives a coarse pose estimate from the lightweight
neural-style tracker (:class:`repro.slam.droid.DroidLiteTracker`).  The
frame's covisibility with the previous frame then decides whether that
estimate is good enough (high covisibility, small motion) or whether a
fine-grained refinement — ``IterT`` 3DGS training iterations of the
backbone's tracker, far fewer than the baseline's ``N_T`` — is required.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import AGSConfig
from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.slam.droid import DroidLiteTracker
from repro.slam.tracker import GaussianPoseTracker
from repro.workloads import TrackingWorkload

__all__ = ["AdaptiveTrackingOutcome", "MovementAdaptiveTracker"]


@dataclasses.dataclass
class AdaptiveTrackingOutcome:
    """Result of movement-adaptive tracking for one frame."""

    pose: Pose
    used_coarse_only: bool
    refine_iterations: int
    tracking_loss: float
    workload: TrackingWorkload


class MovementAdaptiveTracker:
    """Coarse-then-fine pose tracking driven by frame covisibility.

    The fine-grained refinement runs the backbone's
    :class:`~repro.slam.tracker.GaussianPoseTracker`, passed to
    :meth:`track`; this class owns only the coarse tracker, the
    refinement decision and the velocity prior.
    """

    def __init__(self, intrinsics: Intrinsics, config: AGSConfig | None = None) -> None:
        self.config = config or AGSConfig()
        self.coarse_tracker = DroidLiteTracker(intrinsics)
        self._last_relative: Pose | None = None

    def reset(self) -> None:
        """Forget the velocity prior (new sequence)."""
        self._last_relative = None

    def state_dict(self) -> dict:
        """Snapshot the velocity prior (the tracker's only sequence state)."""
        from repro.slam.session import pack_pose

        return {"last_relative": pack_pose(self._last_relative)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        from repro.slam.session import unpack_pose

        self._last_relative = unpack_pose(state["last_relative"])

    def update_velocity_prior(self, pose: Pose, prev_pose: Pose) -> None:
        """Re-derive the velocity prior after a fallback corrected the pose.

        The prior is normally updated inside :meth:`track`; when the
        tracking-health ladder overrides the pose afterwards, the stored
        relative motion would extrapolate from the rejected estimate.
        Only called when a fallback fired, so clean runs are untouched.
        """
        self._last_relative = pose.relative_to(prev_pose)

    # ------------------------------------------------------------------
    def track(
        self,
        model: GaussianModel,
        prev_gray: np.ndarray,
        prev_depth: np.ndarray,
        prev_pose: Pose,
        cur_color: np.ndarray,
        cur_depth: np.ndarray,
        cur_gray: np.ndarray,
        covisibility: float | None,
        tracker: GaussianPoseTracker,
        collect_workload: bool = True,
    ) -> AdaptiveTrackingOutcome:
        """Track one frame.

        Args:
            model: the current Gaussian map (used only by the refinement).
            prev_gray / prev_depth / prev_pose: previous frame observation
                and its estimated pose.
            cur_color / cur_depth / cur_gray: current frame observation.
            covisibility: covisibility with the previous frame (None means
                unknown and forces a refinement, e.g. for the very first
                tracked frame).
            tracker: the backbone's photometric tracker, which runs the
                ``IterT``-iteration refinement.
            collect_workload: record per-iteration render workloads.

        Returns:
            An :class:`AdaptiveTrackingOutcome`.
        """
        config = self.config

        # ---------------- Coarse-grained pose estimation -----------------
        coarse = self.coarse_tracker.track(
            prev_gray, prev_depth, prev_pose, cur_gray, velocity_prior=self._last_relative
        )
        pose = coarse.pose
        workload = TrackingWorkload(coarse_flops=coarse.flops, refine_iterations=0)

        needs_refinement = covisibility is None or covisibility < config.thresh_t
        tracking_loss = 0.0
        iterations_run = 0
        if needs_refinement and config.iter_t > 0 and len(model) > 0:
            outcome = tracker.track(
                model,
                cur_color,
                cur_depth,
                coarse.pose,
                num_iterations=config.iter_t,
                collect_workload=collect_workload,
            )
            pose = outcome.pose
            tracking_loss = outcome.final_loss
            iterations_run = outcome.iterations_run
            workload = TrackingWorkload(
                coarse_flops=coarse.flops,
                refine_iterations=iterations_run,
                refine_renders=outcome.workload.refine_renders,
            )

        self._last_relative = pose.relative_to(prev_pose)
        return AdaptiveTrackingOutcome(
            pose=pose,
            used_coarse_only=not needs_refinement,
            refine_iterations=iterations_run,
            tracking_loss=tracking_loss,
            workload=workload,
        )
