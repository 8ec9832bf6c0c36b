"""The complete AGS SLAM pipeline.

AGS is a drop-in accelerator for a 3DGS-SLAM backbone: :class:`AgsSlam`
is :class:`repro.slam.splatam.SplaTam` plus CODEC-assisted covisibility
detection and two switches that override the backbone's hooks.

* **MAT** (movement-adaptive tracking, ``enable_movement_adaptive_tracking``)
  replaces the primary tracking pass (``_primary_track``): a coarse pose
  for every frame, refined by ``IterT`` iterations of the backbone's
  tracker only when covisibility with the previous frame is below
  ``ThreshT``.
* **GCM** (Gaussian contribution-aware mapping,
  ``enable_contribution_mapping``) replaces the mapper call
  (``_map_frame``) and the keyframe policy (``_register_keyframe``):
  full mapping on key frames, selective mapping on non-key frames, and a
  key frame stored only when GCM designates one.

With a switch off, its stage is SplaTAM's; with both off, AGS is
SplaTAM.  Keyframes, the tracking-health ladder (whose retries run the
backbone tracker's ``baseline_tracking_iterations`` budget), the result
and trace assembly and the rest of the checkpoint payload are the
backbone's.

Execution model.  As in Fig. 9 of the paper, AGS's coarse pose estimation
does not depend on the Gaussians being updated by mapping, so on hardware
the tracking of frame ``t+1`` overlaps the mapping of frame ``t``.  The
software runs the two sub-stages back to back — ``_track`` (CODEC
covisibility against the previous frame + tracking), then ``_map``
(keyframe covisibility, mapping, keyframe registration) — and the
overlap is accounted for by the hardware timing model
(:mod:`repro.hardware.accelerator`), which receives both workloads in
the trace.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import AGSConfig
from repro.core.covisibility import CovisibilityConfig, FrameCovisibilityDetector
from repro.core.mapping import ContributionAwareMapper
from repro.core.tracking import MovementAdaptiveTracker
from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.perf import PerfRecorder
from repro.slam.health import HealthConfig, TrackedFrame
from repro.slam.mapper import MapperConfig, MappingOutcome
from repro.slam.results import FrameResult
from repro.slam.splatam import SplaTam, SplaTamConfig
from repro.workloads import FrameTrace

__all__ = ["AgsSlam"]


class AgsSlam(SplaTam):
    """AGS-accelerated SplaTAM (a streaming :class:`SlamSession`)."""

    algorithm = "ags"
    _timer_prefix = "ags"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: AGSConfig | None = None,
        mapping_iterations: int = 6,
        collect_trace: bool = False,
        perf: PerfRecorder | None = None,
        health_config: HealthConfig | None = None,
    ) -> None:
        self.ags_config = config or AGSConfig()
        self.covisibility = FrameCovisibilityDetector(
            CovisibilityConfig(sad_scale=self.ags_config.covisibility_sad_scale)
        )
        self.tracking = MovementAdaptiveTracker(intrinsics, self.ags_config)
        self.mapping = ContributionAwareMapper(self.ags_config)
        super().__init__(
            intrinsics,
            SplaTamConfig(
                tracking_iterations=self.ags_config.baseline_tracking_iterations,
                mapping_iterations=mapping_iterations,
                mapper=MapperConfig(contribution_threshold=self.ags_config.thresh_alpha),
                collect_trace=collect_trace,
                health=health_config or HealthConfig(),
            ),
            perf,
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all state for a new sequence."""
        super().reset()
        self.covisibility.reset()
        self.tracking.reset()
        self.mapping.reset()

    def _state_payload(self) -> dict:
        return {
            **super()._state_payload(),
            "covisibility": self.covisibility.state_dict(),
            "tracking": self.tracking.state_dict(),
            "mapping": self.mapping.state_dict(),
        }

    def _restore_payload(self, payload: dict) -> None:
        super()._restore_payload(payload)
        self.covisibility.load_state_dict(payload["covisibility"])
        self.tracking.load_state_dict(payload["tracking"])
        self.mapping.load_state_dict(payload["mapping"])

    # ------------------------------------------------------------------
    def _track(self, index: int, frame) -> TrackedFrame:
        """Tracking sub-stage: frame covisibility, then the backbone's tracking.

        Everything here is independent of the previous frame's mapping —
        CODEC covisibility compares gray frames and the coarse tracker
        aligns against the previous observation — except the fine-grained
        refinement of low-covisibility frames, which renders the map.
        """
        gray = np.asarray(frame.gray)
        with self.perf.section("ags/covisibility"):
            measurement = self.covisibility.observe(index, gray)
        self._frame_covisibility = measurement.value if measurement else None
        prev_pose = self._pose_history[-1] if self._pose_history else None
        tracked = super()._track(index, frame, gray)
        tracked.covisibility = self._frame_covisibility
        tracked.sad_evaluations = measurement.sad_evaluations if measurement else 0
        if tracked.fallbacks_used:
            # The coarse estimate was overruled: the frame can no longer
            # claim the skip, and the velocity prior must extrapolate from
            # the corrected pose, not the rejected one.
            tracked.used_coarse_only = False
            self.tracking.update_velocity_prior(tracked.pose, prev_pose)
        return tracked

    def _primary_track(self, frame, model: GaussianModel, gray: np.ndarray) -> TrackedFrame:
        """MAT: a coarse pose, refined only on low-covisibility frames."""
        if not self.ags_config.enable_movement_adaptive_tracking:
            return super()._primary_track(frame, model, gray)
        outcome = self.tracking.track(
            model,
            self._prev_gray,
            self._prev_depth,
            self._pose_history[-1],
            frame.color,
            frame.depth,
            gray,
            covisibility=self._frame_covisibility,
            tracker=self.tracker,
            collect_workload=self.collect_trace,
        )
        return TrackedFrame(
            pose=outcome.pose,
            workload=outcome.workload,
            loss=outcome.tracking_loss,
            iterations=outcome.refine_iterations,
            used_coarse_only=outcome.used_coarse_only,
        )

    def _map(self, index: int, frame, tracked: TrackedFrame) -> tuple[FrameResult, FrameTrace]:
        """Mapping sub-stage: keyframe covisibility, then the backbone's mapping.

        The keyframe comparison lives here (not in ``_track``) because
        its reference is registered by the mapping stage itself, making
        it mapping-owned state.
        """
        gray = np.asarray(frame.gray)
        with self.perf.section("ags/covisibility"):
            measurement = self.covisibility.compare_with_keyframe(gray)
        self._keyframe_covisibility = measurement.value if measurement else None
        if measurement:
            tracked = dataclasses.replace(
                tracked, sad_evaluations=tracked.sad_evaluations + measurement.sad_evaluations
            )
        self.perf.count("codec.sad_evaluations", tracked.sad_evaluations)
        frame_result, frame_trace = super()._map(index, frame, tracked)
        self.perf.count("mapping.gaussians_skipped", frame_result.gaussians_skipped)
        if frame_result.is_keyframe:
            self.covisibility.register_keyframe(index, gray)
        return frame_result, frame_trace

    def _map_frame(self, index: int, frame, pose: Pose) -> MappingOutcome:
        """GCM: full mapping on key frames, selective mapping on the rest."""
        if not self.ags_config.enable_contribution_mapping:
            return super()._map_frame(index, frame, pose)
        return self.mapping.map_frame(
            self.model,
            index,
            frame.color,
            frame.depth,
            pose,
            covisibility_with_keyframe=self._keyframe_covisibility,
            mapper=self.mapper,
            keyframes=self.keyframes.mapping_views(),
            collect_workload=self.collect_trace,
        ).mapping

    def _register_keyframe(self, index: int, frame, pose: Pose, mapped: MappingOutcome) -> None:
        """GCM: store exactly the frames it designated key frames."""
        if not self.ags_config.enable_contribution_mapping:
            super()._register_keyframe(index, frame, pose, mapped)
        elif mapped.workload.is_keyframe:
            self.keyframes.add(index, frame.color, frame.depth, pose)
