"""Gaussian-SLAM-like backbone (used for the generality study, Fig. 23).

Gaussian-SLAM differs from SplaTAM mainly in how it organizes the map:
the scene is split into *sub-maps* that are frozen once the camera leaves
them (preventing catastrophic forgetting), and the mapping loss adds a
scale regularization term that keeps Gaussians from growing into elongated
ellipsoids.  Tracking still optimizes the camera pose against the active
sub-map with 3DGS gradients, so AGS's covisibility-driven optimizations
apply unchanged — which is exactly the point of the paper's generality
experiment.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.perf import PerfRecorder
from repro.slam.health import HealthConfig, TrackingHealthMonitor
from repro.slam.keyframes import KeyframeManager
from repro.slam.mapper import GaussianMapper, MapperConfig
from repro.slam.results import FrameResult
from repro.slam.session import (
    SessionRunner,
    TrackedFrame,
    pack_model,
    pack_pose,
    unpack_model,
    unpack_pose,
)
from repro.slam.tracker import GaussianPoseTracker, TrackerConfig
from repro.workloads import FrameTrace, TrackingWorkload

__all__ = ["GaussianSlamConfig", "GaussianSlam", "SubMap"]


@dataclasses.dataclass
class SubMap:
    """One sub-map: a Gaussian model anchored at the pose that created it."""

    anchor_pose: Pose
    model: GaussianModel
    frozen: bool = False
    frame_indices: list[int] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class GaussianSlamConfig:
    """Configuration of the Gaussian-SLAM-like backbone."""

    tracking_iterations: int = 24
    mapping_iterations: int = 6
    tracker: TrackerConfig = dataclasses.field(default_factory=TrackerConfig)
    mapper: MapperConfig = dataclasses.field(default_factory=MapperConfig)
    submap_translation_threshold: float = 0.6
    submap_rotation_threshold_deg: float = 35.0
    scale_regularization: float = 1e-3
    keyframe_every: int = 4
    max_keyframes: int = 6
    anchor_first_pose_to_gt: bool = True
    collect_trace: bool = True
    health: HealthConfig = dataclasses.field(default_factory=HealthConfig)


class GaussianSlam(SessionRunner):
    """Sub-map based 3DGS-SLAM backbone (a streaming :class:`SlamSession`)."""

    algorithm = "gaussian-slam"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: GaussianSlamConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.config = config or GaussianSlamConfig()
        super().__init__(
            intrinsics,
            collect_trace=self.config.collect_trace,
            perf=perf,
        )
        tracker_config = dataclasses.replace(
            self.config.tracker, num_iterations=self.config.tracking_iterations
        )
        mapper_config = dataclasses.replace(
            self.config.mapper, num_iterations=self.config.mapping_iterations
        )
        self.tracker = GaussianPoseTracker(intrinsics, tracker_config, perf=self.perf)
        self.mapper = GaussianMapper(intrinsics, mapper_config, perf=self.perf)
        self.keyframes = KeyframeManager(
            every_n=self.config.keyframe_every, max_keyframes=self.config.max_keyframes
        )
        self.health = TrackingHealthMonitor(self.config.health, intrinsics)
        self.submaps: list[SubMap] = []
        self._pose_history: list[Pose] = []
        self._prev_gray: np.ndarray | None = None
        self._prev_depth: np.ndarray | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all state for a new sequence."""
        self.submaps = []
        self._pose_history = []
        self.mapper.reset()
        self.keyframes.reset()
        self.health.reset()
        self._prev_gray = None
        self._prev_depth = None

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
    def _final_model(self) -> GaussianModel:
        return self.global_model()

    def _state_payload(self) -> dict:
        return {
            "submaps": [
                {
                    "anchor_pose": pack_pose(submap.anchor_pose),
                    "model": pack_model(submap.model),
                    "frozen": submap.frozen,
                    "frame_indices": list(submap.frame_indices),
                }
                for submap in self.submaps
            ],
            "pose_history": [pack_pose(pose) for pose in self._pose_history],
            "keyframes": self.keyframes.state_dict(),
            "mapper": self.mapper.state_dict(),
            "health": self.health.state_dict(),
            "prev_gray": None if self._prev_gray is None else self._prev_gray.copy(),
            "prev_depth": None if self._prev_depth is None else self._prev_depth.copy(),
        }

    def _restore_payload(self, payload: dict) -> None:
        self.submaps = [
            SubMap(
                anchor_pose=unpack_pose(entry["anchor_pose"]),
                model=unpack_model(entry["model"]),
                frozen=bool(entry["frozen"]),
                frame_indices=[int(i) for i in entry["frame_indices"]],
            )
            for entry in payload["submaps"]
        ]
        self._pose_history = [unpack_pose(vector) for vector in payload["pose_history"]]
        self.keyframes.load_state_dict(payload["keyframes"])
        self.mapper.load_state_dict(payload["mapper"])
        self.health.load_state_dict(payload["health"])
        prev_gray, prev_depth = payload["prev_gray"], payload["prev_depth"]
        self._prev_gray = None if prev_gray is None else np.asarray(prev_gray).copy()
        self._prev_depth = None if prev_depth is None else np.asarray(prev_depth).copy()

    # ------------------------------------------------------------------
    def process_frame(self, index: int, frame) -> tuple[FrameResult, FrameTrace]:
        """Process one frame sequentially: track, then map."""
        return self._step(index, frame)

    def _track(self, index: int, frame) -> TrackedFrame:
        """Tracking sub-stage: optimize the pose against the active sub-map."""
        health_events: list = []
        degraded = False
        fallbacks_used = 0
        relocalized = False
        if index == 0:
            pose = frame.gt_pose.copy() if self.config.anchor_first_pose_to_gt else Pose.identity()
            tracking_workload = TrackingWorkload(coarse_flops=0.0, refine_iterations=0)
            tracking_loss, tracking_iterations = 0.0, 0
        else:
            prev_pose = self._pose_history[-1]
            initial = self.tracker.initial_guess(self._pose_history)
            active_model = self.active_submap.model if self.active_submap else GaussianModel.empty()
            with self.perf.section("gaussian_slam/tracking"):
                outcome = self.tracker.track(
                    active_model, frame.color, frame.depth, initial,
                    collect_workload=self.config.collect_trace,
                )
            moderated = self.health.moderate(
                index,
                pose=outcome.pose,
                loss=outcome.final_loss,
                iterations=outcome.iterations_run,
                workload=outcome.workload,
                prev_pose=prev_pose,
                retrack=lambda seed: self._retrack(active_model, frame, seed),
                feature_pose=lambda: self.health.feature_pose(
                    index,
                    self._prev_gray,
                    self._prev_depth,
                    frame.gray,
                    frame.depth,
                    prev_pose,
                    perf=self.perf,
                ),
                perf=self.perf,
            )
            pose = moderated.pose
            tracking_workload = moderated.workload
            tracking_loss = moderated.loss
            tracking_iterations = moderated.iterations
            health_events = moderated.events
            degraded = moderated.degraded
            fallbacks_used = moderated.fallbacks_used
            relocalized = moderated.relocalized
        self._pose_history.append(pose.copy())
        if self.health.config.enabled:
            self._prev_gray = np.asarray(frame.gray)
            self._prev_depth = np.asarray(frame.depth)
        self.perf.count("tracking.refine_iterations", tracking_iterations)
        return TrackedFrame(
            pose=pose,
            workload=tracking_workload,
            loss=tracking_loss,
            iterations=tracking_iterations,
            health_events=health_events,
            degraded=degraded,
            fallbacks_used=fallbacks_used,
            relocalized=relocalized,
        )

    def _retrack(self, model: GaussianModel, frame, seed_pose):
        """Fallback retry: re-run photometric tracking from ``seed_pose``.

        Runs with the primary budget plus ``retry_iterations`` — a flagged
        frame is worth extra convergence effort, and a retry that merely
        ties the primary pass is rejected by the ladder anyway.
        """
        iterations = self.config.tracking_iterations + self.health.config.retry_iterations
        with self.perf.section("gaussian_slam/tracking"):
            outcome = self.tracker.track(
                model, frame.color, frame.depth, seed_pose,
                num_iterations=iterations,
                collect_workload=self.config.collect_trace,
            )
        return outcome.pose, outcome.final_loss, outcome.iterations_run, outcome.workload

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
        with self.perf.section("gaussian_slam/mapping"):
            mapping_outcome = self.mapper.map_frame(
                submap.model,
                frame.color,
                frame.depth,
                pose,
                keyframes=self.keyframes.mapping_views(),
                collect_workload=self.config.collect_trace,
            )
        self.perf.count("frames.processed")
        self.perf.count("mapping.iterations", mapping_outcome.iterations_run)
        submap.model = mapping_outcome.model
        self._apply_scale_regularization(submap.model)
        submap.frame_indices.append(index)

        if self.keyframes.should_add(index, pose):
            self.keyframes.add(index, frame.color, frame.depth, pose)

        frame_result = FrameResult(
            frame_index=index,
            estimated_pose=pose.copy(),
            tracking_iterations=tracked.iterations,
            mapping_iterations=mapping_outcome.iterations_run,
            tracking_loss=tracked.loss,
            mapping_loss=mapping_outcome.final_loss,
            num_gaussians=len(self.global_model()),
            degraded=tracked.degraded,
            fallbacks_used=tracked.fallbacks_used,
            relocalized=tracked.relocalized,
        )
        frame_trace = FrameTrace(
            frame_index=index,
            tracking=tracked.workload,
            mapping=mapping_outcome.workload,
            covisibility=None,
            num_gaussians=len(self.global_model()),
            health_events=list(tracked.health_events),
        )
        return frame_result, frame_trace
