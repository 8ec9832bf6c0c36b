"""Gaussian-SLAM-like backbone (used for the generality study, Fig. 23).

Gaussian-SLAM differs from SplaTAM mainly in how it organizes the map:
the scene is split into *sub-maps* that are frozen once the camera leaves
them (preventing catastrophic forgetting), and the mapping loss adds a
scale regularization term that keeps Gaussians from growing into elongated
ellipsoids.  Tracking still optimizes the camera pose against the active
sub-map with 3DGS gradients, so AGS's covisibility-driven optimizations
apply unchanged — which is exactly the point of the paper's generality
experiment.  The tracking stage is SplaTAM's, inherited: this module
only swaps the map (sub-maps) and the mapping step.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.perf import PerfRecorder
from repro.slam.health import TrackedFrame
from repro.slam.results import FrameResult
from repro.slam.session import pack_model, pack_pose, unpack_model, unpack_pose
from repro.slam.splatam import SplaTam, SplaTamConfig
from repro.workloads import FrameTrace

__all__ = ["GaussianSlamConfig", "GaussianSlam", "SubMap"]


@dataclasses.dataclass
class SubMap:
    """One sub-map: a Gaussian model anchored at the pose that created it."""

    anchor_pose: Pose
    model: GaussianModel
    frozen: bool = False
    frame_indices: list[int] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class GaussianSlamConfig(SplaTamConfig):
    """Configuration of the Gaussian-SLAM-like backbone.

    SplaTAM's configuration with its own defaults, plus the sub-map
    thresholds and the scale-regularization weight.
    """

    tracking_iterations: int = 24
    max_keyframes: int = 6
    submap_translation_threshold: float = 0.6
    submap_rotation_threshold_deg: float = 35.0
    scale_regularization: float = 1e-3


class GaussianSlam(SplaTam):
    """Sub-map based 3DGS-SLAM backbone (a streaming :class:`SlamSession`)."""

    algorithm = "gaussian-slam"
    _timer_prefix = "gaussian_slam"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: GaussianSlamConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        super().__init__(intrinsics, config or GaussianSlamConfig(), perf)

    @property
    def active_submap(self) -> SubMap | None:
        """The sub-map currently being extended."""
        return self.submaps[-1] if self.submaps else None

    def global_model(self) -> GaussianModel:
        """Concatenate all sub-maps into one model (for evaluation)."""
        if not self.submaps:
            return GaussianModel.empty()
        model = self.submaps[0].model
        for submap in self.submaps[1:]:
            model = model.extend(submap.model)
        return model

    def _needs_new_submap(self, pose: Pose) -> bool:
        active = self.active_submap
        if active is None:
            return True
        translation = pose.translation_distance_to(active.anchor_pose)
        rotation = np.degrees(pose.rotation_angle_to(active.anchor_pose))
        return (
            translation > self.config.submap_translation_threshold
            or rotation > self.config.submap_rotation_threshold_deg
        )

    def _apply_scale_regularization(self, model: GaussianModel) -> None:
        """Shrink Gaussians toward isotropy (Gaussian-SLAM's scale loss)."""
        weight = self.config.scale_regularization
        if weight <= 0 or len(model) == 0:
            return
        mean_log_scale = model.log_scales.mean(axis=1, keepdims=True)
        model.log_scales = (1.0 - weight) * model.log_scales + weight * mean_log_scale

    # ------------------------------------------------------------------
    # The map: sub-maps instead of SplaTAM's one model
    # ------------------------------------------------------------------
    def _reset_map(self) -> None:
        self.submaps: list[SubMap] = []

    def _tracking_model(self) -> GaussianModel:
        """Tracking renders the active sub-map only."""
        active = self.active_submap
        return active.model if active else GaussianModel.empty()

    def _final_model(self) -> GaussianModel:
        return self.global_model()

    def _map_payload(self) -> dict:
        return {
            "submaps": [
                {
                    "anchor_pose": pack_pose(submap.anchor_pose),
                    "model": pack_model(submap.model),
                    "frozen": submap.frozen,
                    "frame_indices": list(submap.frame_indices),
                }
                for submap in self.submaps
            ]
        }

    def _restore_map_payload(self, payload: dict) -> None:
        self.submaps = [
            SubMap(
                anchor_pose=unpack_pose(entry["anchor_pose"]),
                model=unpack_model(entry["model"]),
                frozen=bool(entry["frozen"]),
                frame_indices=[int(i) for i in entry["frame_indices"]],
            )
            for entry in payload["submaps"]
        ]

    # ------------------------------------------------------------------
    def _map(self, index: int, frame, tracked: TrackedFrame) -> tuple[FrameResult, FrameTrace]:
        """Mapping sub-stage: sub-map management, mapping, keyframes."""
        pose = tracked.pose
        if self._needs_new_submap(pose):
            if self.active_submap is not None:
                self.active_submap.frozen = True
            self.submaps.append(
                SubMap(anchor_pose=pose.copy(), model=GaussianModel.empty())
            )
            self.keyframes.reset()
            self.perf.count("gaussian_slam.submaps_created")

        submap = self.active_submap
        with self.perf.section(f"{self._timer_prefix}/mapping"):
            mapping_outcome = self.mapper.map_frame(
                submap.model,
                frame.color,
                frame.depth,
                pose,
                keyframes=self.keyframes.mapping_views(),
                collect_workload=self.collect_trace,
            )
        self.perf.count("frames.processed")
        self.perf.count("mapping.iterations", mapping_outcome.iterations_run)
        submap.model = mapping_outcome.model
        self._apply_scale_regularization(submap.model)
        submap.frame_indices.append(index)

        if self.keyframes.should_add(index, pose):
            self.keyframes.add(index, frame.color, frame.depth, pose)

        num_gaussians = sum(len(entry.model) for entry in self.submaps)
        frame_result = FrameResult(
            frame_index=index,
            estimated_pose=pose.copy(),
            tracking_iterations=tracked.iterations,
            mapping_iterations=mapping_outcome.iterations_run,
            tracking_loss=tracked.loss,
            mapping_loss=mapping_outcome.final_loss,
            num_gaussians=num_gaussians,
            degraded=tracked.degraded,
            fallbacks_used=tracked.fallbacks_used,
            relocalized=tracked.relocalized,
        )
        frame_trace = FrameTrace(
            frame_index=index,
            tracking=tracked.workload,
            mapping=mapping_outcome.workload,
            num_gaussians=num_gaussians,
            health_events=list(tracked.health_events),
        )
        return frame_result, frame_trace
