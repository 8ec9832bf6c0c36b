"""The complete AGS SLAM pipeline.

Combines CODEC-assisted covisibility detection, movement-adaptive tracking
and Gaussian contribution-aware mapping into a drop-in replacement for the
baseline :class:`repro.slam.splatam.SplaTam` pipeline, and records the
frame traces the hardware simulator consumes.

Execution model.  As in Fig. 9 of the paper, AGS's coarse pose estimation
does not depend on the Gaussians being updated by mapping, so on hardware
the tracking of frame ``t+1`` overlaps the mapping of frame ``t``.  The
software runs the two sub-stages back to back — ``_track`` (CODEC
covisibility against the previous frame + movement-adaptive tracking),
then ``_map`` (keyframe covisibility, contribution-aware mapping,
keyframe registration) — and the overlap is accounted for by the
hardware timing model (:mod:`repro.hardware.accelerator`), which
receives both workloads in the trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AGSConfig
from repro.core.covisibility import CovisibilityConfig, FrameCovisibilityDetector
from repro.core.mapping import ContributionAwareMapper
from repro.core.tracking import MovementAdaptiveTracker
from repro.gaussians.camera import Intrinsics
from repro.gaussians.model import GaussianModel
from repro.perf import PerfRecorder
from repro.slam.health import HealthConfig, TrackedFrame, TrackingHealthMonitor
from repro.slam.keyframes import KeyframeManager
from repro.slam.mapper import MapperConfig
from repro.slam.results import FrameResult
from repro.slam.session import SessionRunner, pack_model, pack_pose, unpack_model, unpack_pose
from repro.workloads import FrameTrace, TrackingWorkload

__all__ = ["AgsSlam"]


class AgsSlam(SessionRunner):
    """AGS-accelerated 3DGS-SLAM (a streaming :class:`SlamSession`)."""

    algorithm = "ags"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: AGSConfig | None = None,
        mapping_iterations: int = 6,
        collect_trace: bool = True,
        perf: PerfRecorder | None = None,
        health_config: HealthConfig | None = None,
    ) -> None:
        self.config = config or AGSConfig()
        super().__init__(intrinsics, collect_trace=collect_trace, perf=perf)
        self.covisibility = FrameCovisibilityDetector(
            CovisibilityConfig(sad_scale=self.config.covisibility_sad_scale)
        )
        self.tracking = MovementAdaptiveTracker(intrinsics, self.config, perf=self.perf)
        self.mapping = ContributionAwareMapper(
            intrinsics,
            self.config,
            MapperConfig(num_iterations=mapping_iterations),
            perf=self.perf,
        )
        self.keyframes = KeyframeManager(max_keyframes=8)
        self.health = TrackingHealthMonitor(health_config or HealthConfig(), intrinsics)
        self.model = GaussianModel.empty()
        self._prev_frame = None
        self._prev_pose = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all state for a new sequence."""
        self.model = GaussianModel.empty()
        self.covisibility.reset()
        self.tracking.reset()
        self.mapping.reset()
        self.keyframes.reset()
        self.health.reset()
        self._prev_frame = None
        self._prev_pose = None

    # ------------------------------------------------------------------
    def _state_payload(self) -> dict:
        prev_frame = self._prev_frame
        return {
            "model": pack_model(self.model),
            "keyframes": self.keyframes.state_dict(),
            "covisibility": self.covisibility.state_dict(),
            "tracking": self.tracking.state_dict(),
            "mapping": self.mapping.state_dict(),
            "health": self.health.state_dict(),
            "prev_pose": pack_pose(self._prev_pose),
            "prev_frame": (
                None
                if prev_frame is None
                else {
                    "index": prev_frame.index,
                    "color": np.asarray(prev_frame.color).copy(),
                    "depth": np.asarray(prev_frame.depth).copy(),
                    "gt_pose": pack_pose(prev_frame.gt_pose),
                    "timestamp": prev_frame.timestamp,
                }
            ),
        }

    def _restore_payload(self, payload: dict) -> None:
        from repro.datasets.sequences import RGBDFrame

        self.model = unpack_model(payload["model"])
        self.keyframes.load_state_dict(payload["keyframes"])
        self.covisibility.load_state_dict(payload["covisibility"])
        self.tracking.load_state_dict(payload["tracking"])
        self.mapping.load_state_dict(payload["mapping"])
        self.health.load_state_dict(payload["health"])
        self._prev_pose = unpack_pose(payload["prev_pose"])
        prev_frame = payload["prev_frame"]
        self._prev_frame = (
            None
            if prev_frame is None
            else RGBDFrame(
                index=int(prev_frame["index"]),
                color=np.asarray(prev_frame["color"]).copy(),
                depth=np.asarray(prev_frame["depth"]).copy(),
                gt_pose=unpack_pose(prev_frame["gt_pose"]),
                timestamp=float(prev_frame["timestamp"]),
            )
        )

    # ------------------------------------------------------------------
    def _track(self, index: int, frame) -> TrackedFrame:
        """Tracking sub-stage: frame covisibility + movement-adaptive pose.

        Everything here is independent of the previous frame's mapping —
        CODEC covisibility compares gray frames and the coarse tracker
        aligns against the previous observation — except the fine-grained
        refinement of low-covisibility frames, which renders the map.
        """
        gray = frame.gray
        perf = self.perf

        # -------- Step 1: CODEC-assisted frame covisibility detection ----
        with perf.section("ags/covisibility"):
            measurement = self.covisibility.observe(index, gray)
        covisibility = measurement.value if measurement else None
        sad_evaluations = measurement.sad_evaluations if measurement else 0

        # -------- Step 2: movement-adaptive tracking ----------------------
        if index == 0 or self._prev_frame is None:
            tracked = TrackedFrame(
                pose=frame.gt_pose.copy(),
                workload=TrackingWorkload(coarse_flops=0.0, refine_iterations=0),
                covisibility=covisibility,
                sad_evaluations=sad_evaluations,
            )
        else:
            prev_frame = self._prev_frame
            prev_pose = self._prev_pose
            with perf.section("ags/tracking"):
                outcome = self.tracking.track(
                    self.model,
                    prev_frame.gray,
                    prev_frame.depth,
                    prev_pose,
                    frame.color,
                    frame.depth,
                    gray,
                    covisibility=covisibility,
                    collect_workload=self.collect_trace,
                )
            tracked = self.health.moderate(
                index,
                TrackedFrame(
                    pose=outcome.pose,
                    workload=outcome.workload,
                    loss=outcome.tracking_loss,
                    iterations=outcome.refine_iterations,
                    used_coarse_only=outcome.used_coarse_only,
                    covisibility=covisibility,
                    sad_evaluations=sad_evaluations,
                ),
                prev_pose,
                retrack=self.health.photometric_retry(
                    self.tracking.fine_tracker, self.model, frame,
                    self.collect_trace, perf, "ags/tracking",
                ),
                feature_pose=lambda: self.health.feature_pose(
                    index,
                    prev_frame.gray,
                    prev_frame.depth,
                    gray,
                    frame.depth,
                    prev_pose,
                    perf=perf,
                ),
                perf=perf,
            )
            if tracked.fallbacks_used:
                # The coarse estimate was overruled: the frame can no
                # longer claim the skip, and the velocity prior must
                # extrapolate from the corrected pose, not the rejected one.
                tracked.used_coarse_only = False
                self.tracking.update_velocity_prior(tracked.pose, prev_pose)
        perf.count("tracking.refine_iterations", tracked.iterations)

        self._prev_frame = frame
        self._prev_pose = tracked.pose.copy()
        return tracked

    def _map(self, index: int, frame, tracked: TrackedFrame) -> tuple[FrameResult, FrameTrace]:
        """Mapping sub-stage: keyframe covisibility + contribution-aware mapping.

        The keyframe comparison lives here (not in ``_track``) because
        its reference is registered by the mapping stage itself, making
        it mapping-owned state.
        """
        gray = frame.gray
        perf = self.perf
        pose = tracked.pose

        with perf.section("ags/covisibility"):
            mapping_measurement = self.covisibility.compare_with_keyframe(gray)
        mapping_cov = mapping_measurement.value if mapping_measurement else None
        sad_evaluations = tracked.sad_evaluations + (
            mapping_measurement.sad_evaluations if mapping_measurement else 0
        )
        perf.count("codec.sad_evaluations", sad_evaluations)

        # -------- Step 3: Gaussian contribution-aware mapping -------------
        with perf.section("ags/mapping"):
            mapping_outcome = self.mapping.map_frame(
                self.model,
                index,
                frame.color,
                frame.depth,
                pose,
                covisibility_with_keyframe=mapping_cov,
                keyframes=self.keyframes.mapping_views(),
                collect_workload=self.collect_trace,
            )
        self.model = mapping_outcome.model
        perf.count("frames.processed")
        perf.count("mapping.iterations", mapping_outcome.mapping.iterations_run)
        perf.count("mapping.gaussians_skipped", mapping_outcome.gaussians_skipped)
        if mapping_outcome.is_keyframe:
            self.covisibility.register_keyframe(index, gray)
            self.keyframes.add(index, frame.color, frame.depth, pose)

        frame_result = FrameResult(
            frame_index=index,
            estimated_pose=pose.copy(),
            tracking_iterations=tracked.iterations,
            mapping_iterations=mapping_outcome.mapping.iterations_run,
            tracking_loss=tracked.loss,
            mapping_loss=mapping_outcome.mapping.final_loss,
            used_coarse_only=tracked.used_coarse_only,
            is_keyframe=mapping_outcome.is_keyframe,
            covisibility=tracked.covisibility,
            num_gaussians=len(self.model),
            gaussians_skipped=mapping_outcome.gaussians_skipped,
            degraded=tracked.degraded,
            fallbacks_used=tracked.fallbacks_used,
            relocalized=tracked.relocalized,
        )
        frame_trace = FrameTrace(
            frame_index=index,
            tracking=tracked.workload,
            mapping=mapping_outcome.mapping.workload,
            covisibility=tracked.covisibility,
            codec_sad_evaluations=sad_evaluations,
            num_gaussians=len(self.model),
            health_events=list(tracked.health_events),
        )
        return frame_result, frame_trace
