"""SplaTAM-like baseline 3DGS-SLAM system.

This is the baseline the paper profiles and accelerates: for every frame,

1. **Tracking** — hold the map fixed, warm-start the pose with constant
   velocity, and run ``N_T`` 3DGS training iterations optimizing the pose
   against a silhouette-masked color + depth loss (paper baseline:
   ``N_T = 200``).
2. **Densification** — add Gaussians for unobserved / poorly-explained
   pixels.
3. **Mapping** — hold the pose fixed and run ``N_M`` 3DGS iterations
   updating Gaussian parameters, mixing in previous keyframes (paper
   baseline: ``N_M = 30``).

The run produces a :class:`repro.slam.results.SlamResult` with the
estimated trajectory, the final map, per-frame statistics and — when
requested — a full workload trace for the hardware simulator.
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
from repro.workloads import FrameTrace, MappingWorkload, TrackingWorkload

__all__ = ["SplaTamConfig", "SplaTam"]


@dataclasses.dataclass(frozen=True)
class SplaTamConfig:
    """Configuration of the baseline system.

    The paper's GPU baseline uses 200 tracking and 30 mapping iterations
    per frame on 640x480 frames.  The NumPy substrate defaults to a
    scaled-down 30 / 6 split, which preserves the paper's roughly 6.7:1
    tracking-to-mapping iteration ratio (and hence the time-breakdown
    shape of Fig. 3) at tractable runtimes.
    """

    tracking_iterations: int = 30
    mapping_iterations: int = 6
    tracker: TrackerConfig = dataclasses.field(default_factory=TrackerConfig)
    mapper: MapperConfig = dataclasses.field(default_factory=MapperConfig)
    keyframe_every: int = 4
    max_keyframes: int = 8
    anchor_first_pose_to_gt: bool = True
    collect_trace: bool = True
    health: HealthConfig = dataclasses.field(default_factory=HealthConfig)


class SplaTam(SessionRunner):
    """The baseline 3DGS-SLAM pipeline (a streaming :class:`SlamSession`)."""

    algorithm = "splatam"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: SplaTamConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.config = config or SplaTamConfig()
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
        self.model = GaussianModel.empty()
        self._pose_history: list = []
        self._prev_gray: np.ndarray | None = None
        self._prev_depth: np.ndarray | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset the system for a new sequence."""
        self.model = GaussianModel.empty()
        self.mapper.reset()
        self.keyframes.reset()
        self.health.reset()
        self._pose_history = []
        self._prev_gray = None
        self._prev_depth = None

    # ------------------------------------------------------------------
    def _state_payload(self) -> dict:
        return {
            "model": pack_model(self.model),
            "keyframes": self.keyframes.state_dict(),
            "pose_history": [pack_pose(pose) for pose in self._pose_history],
            "mapper": self.mapper.state_dict(),
            "health": self.health.state_dict(),
            "prev_gray": None if self._prev_gray is None else self._prev_gray.copy(),
            "prev_depth": None if self._prev_depth is None else self._prev_depth.copy(),
        }

    def _restore_payload(self, payload: dict) -> None:
        self.model = unpack_model(payload["model"])
        self.keyframes.load_state_dict(payload["keyframes"])
        self._pose_history = [unpack_pose(vector) for vector in payload["pose_history"]]
        self.mapper.load_state_dict(payload["mapper"])
        self.health.load_state_dict(payload["health"])
        prev_gray, prev_depth = payload["prev_gray"], payload["prev_depth"]
        self._prev_gray = None if prev_gray is None else np.asarray(prev_gray).copy()
        self._prev_depth = None if prev_depth is None else np.asarray(prev_depth).copy()

    # ------------------------------------------------------------------
    def process_frame(self, index: int, frame) -> tuple[FrameResult, FrameTrace]:
        """Process one frame sequentially: track, densify, map."""
        return self._step(index, frame)

    def _track(self, index: int, frame) -> TrackedFrame:
        """Tracking sub-stage: optimize the pose against the current map.

        SplaTAM's tracker renders the Gaussian map, so past the trivial
        warm start this stage depends on the previous frame's mapping.
        """
        config = self.config
        health_events: list = []
        degraded = False
        fallbacks_used = 0
        relocalized = False
        if index == 0:
            pose = frame.gt_pose.copy() if config.anchor_first_pose_to_gt else self.tracker.initial_guess([])
            tracking_workload = TrackingWorkload(coarse_flops=0.0, refine_iterations=0)
            tracking_loss = 0.0
            tracking_iterations = 0
        else:
            prev_pose = self._pose_history[-1]
            initial = self.tracker.initial_guess(self._pose_history)
            with self.perf.section("splatam/tracking"):
                outcome = self.tracker.track(
                    self.model, frame.color, frame.depth, initial,
                    collect_workload=config.collect_trace,
                )
            moderated = self.health.moderate(
                index,
                pose=outcome.pose,
                loss=outcome.final_loss,
                iterations=outcome.iterations_run,
                workload=outcome.workload,
                prev_pose=prev_pose,
                retrack=lambda seed: self._retrack(frame, seed),
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

    def _retrack(self, frame, seed_pose):
        """Fallback retry: re-run photometric tracking from ``seed_pose``.

        The retry gets the primary budget plus ``retry_iterations`` — a
        flagged frame is worth extra convergence effort, and a retry that
        merely ties the primary pass is rejected by the ladder anyway.
        """
        iterations = self.config.tracking_iterations + self.health.config.retry_iterations
        with self.perf.section("splatam/tracking"):
            outcome = self.tracker.track(
                self.model, frame.color, frame.depth, seed_pose,
                num_iterations=iterations,
                collect_workload=self.config.collect_trace,
            )
        return outcome.pose, outcome.final_loss, outcome.iterations_run, outcome.workload

    def _map(self, index: int, frame, tracked: TrackedFrame) -> tuple[FrameResult, FrameTrace]:
        """Mapping sub-stage: densify, optimize the map, manage keyframes."""
        config = self.config
        pose = tracked.pose
        with self.perf.section("splatam/mapping"):
            mapping_outcome = self.mapper.map_frame(
                self.model,
                frame.color,
                frame.depth,
                pose,
                keyframes=self.keyframes.mapping_views(),
                collect_workload=config.collect_trace,
            )
        self.model = mapping_outcome.model
        self.perf.count("frames.processed")
        self.perf.count("mapping.iterations", mapping_outcome.iterations_run)

        if self.keyframes.should_add(index, pose):
            self.keyframes.add(index, frame.color, frame.depth, pose)

        frame_result = FrameResult(
            frame_index=index,
            estimated_pose=pose.copy(),
            tracking_iterations=tracked.iterations,
            mapping_iterations=mapping_outcome.iterations_run,
            tracking_loss=tracked.loss,
            mapping_loss=mapping_outcome.final_loss,
            is_keyframe=True,
            num_gaussians=len(self.model),
            degraded=tracked.degraded,
            fallbacks_used=tracked.fallbacks_used,
            relocalized=tracked.relocalized,
        )
        frame_trace = FrameTrace(
            frame_index=index,
            tracking=tracked.workload,
            mapping=mapping_outcome.workload
            if config.collect_trace
            else MappingWorkload(iterations=mapping_outcome.iterations_run),
            covisibility=None,
            codec_sad_evaluations=0,
            num_gaussians=len(self.model),
            health_events=list(tracked.health_events),
        )
        return frame_result, frame_trace
