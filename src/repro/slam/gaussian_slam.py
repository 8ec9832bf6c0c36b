"""Gaussian-SLAM-like backbone (used for the generality study, Fig. 23).

Gaussian-SLAM differs from SplaTAM mainly in how it organizes the map:
the scene is split into *sub-maps*.  A new one opens whenever the camera
moves far enough from the active one's anchor, and only the active one
is tracked against and optimized, so the sub-maps the camera left stay
as they were (preventing catastrophic forgetting).  The mapping loss adds
a scale regularization term that keeps Gaussians from growing into
elongated ellipsoids.  Tracking still optimizes the camera pose with 3DGS
gradients, so AGS's covisibility-driven optimizations apply unchanged —
which is exactly the point of the paper's generality experiment.

Everything but the map is SplaTAM's, inherited: ``model`` is the active
sub-map's model, ``map_models()`` lists one model per sub-map, and the
mapper call (``_map_frame``) opens sub-maps and regularizes scales
around SplaTAM's.  Tracking, the health ladder, keyframes and the result
assembly are :class:`~repro.slam.splatam.SplaTam`'s.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.perf import PerfRecorder
from repro.slam.mapper import MappingOutcome
from repro.slam.session import pack_model, pack_pose, unpack_model, unpack_pose
from repro.slam.splatam import SplaTam, SplaTamConfig

__all__ = ["GaussianSlamConfig", "GaussianSlam", "SubMap"]


@dataclasses.dataclass
class SubMap:
    """One sub-map: a Gaussian model anchored at the pose that created it."""

    anchor_pose: Pose
    model: GaussianModel


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

    @property
    def model(self) -> GaussianModel:
        """The active sub-map's model: the map tracking and mapping work on."""
        active = self.active_submap
        return active.model if active else GaussianModel.empty()

    @model.setter
    def model(self, model: GaussianModel) -> None:
        self.active_submap.model = model

    def map_models(self) -> list[GaussianModel]:
        return [submap.model for submap in self.submaps]

    def _map_payload(self) -> dict:
        return {
            "submaps": [
                {"anchor_pose": pack_pose(submap.anchor_pose), "model": pack_model(submap.model)}
                for submap in self.submaps
            ]
        }

    def _restore_map_payload(self, payload: dict) -> None:
        # Other sub-map keys (older checkpoints carry ``frozen`` and
        # ``frame_indices``) are ignored.
        self.submaps = [
            SubMap(
                anchor_pose=unpack_pose(entry["anchor_pose"]),
                model=unpack_model(entry["model"]),
            )
            for entry in payload["submaps"]
        ]

    def _map_frame(self, index: int, frame, pose: Pose) -> MappingOutcome:
        """Open a sub-map if the camera left the active one, map, regularize scales."""
        if self._needs_new_submap(pose):
            self.submaps.append(SubMap(anchor_pose=pose.copy(), model=GaussianModel.empty()))
            self.keyframes.reset()
            self.perf.count("gaussian_slam.submaps_created")
        mapped = super()._map_frame(index, frame, pose)
        self._apply_scale_regularization(mapped.model)
        return mapped
