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

The tracking stage (step 1, moderated by the tracking-health ladder) and
the result assembly are shared: :class:`repro.slam.gaussian_slam.GaussianSlam`
subclasses :class:`SplaTam` and overrides only the map (sub-maps) and the
mapper call, and :class:`repro.core.pipeline.AgsSlam` subclasses it and
overrides only the primary tracking pass, the mapper call and the
keyframe policy.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.perf import PerfRecorder
from repro.slam.health import HealthConfig, TrackedFrame, TrackingHealthMonitor
from repro.slam.keyframes import KeyframeManager
from repro.slam.mapper import GaussianMapper, MapperConfig, MappingOutcome
from repro.slam.results import FrameResult
from repro.slam.session import (
    SessionRunner,
    pack_model,
    pack_pose,
    unpack_model,
    unpack_pose,
)
from repro.slam.tracker import GaussianPoseTracker, TrackerConfig
from repro.workloads import FrameTrace, TrackingWorkload

__all__ = ["SplaTamConfig", "SplaTam"]


@dataclasses.dataclass(frozen=True)
class SplaTamConfig:
    """Configuration of the baseline system.

    The paper's GPU baseline uses 200 tracking and 30 mapping iterations
    per frame on 640x480 frames.  The NumPy substrate defaults to a
    scaled-down 30 / 6 split, which preserves the paper's roughly 6.7:1
    tracking-to-mapping iteration ratio (and hence the time-breakdown
    shape of Fig. 3) at tractable runtimes.

    ``collect_trace`` is the session's initial ``collect_trace``; the
    system reads the session attribute, so setting it before ``begin``
    takes effect.  Traces are off by default: only the hardware
    simulators and the figure path read them, and that path
    (:func:`repro.eval.service._build_system`) turns them on.
    """

    tracking_iterations: int = 30
    mapping_iterations: int = 6
    tracker: TrackerConfig = dataclasses.field(default_factory=TrackerConfig)
    mapper: MapperConfig = dataclasses.field(default_factory=MapperConfig)
    keyframe_every: int = 4
    max_keyframes: int = 8
    collect_trace: bool = False
    health: HealthConfig = dataclasses.field(default_factory=HealthConfig)


class SplaTam(SessionRunner):
    """The baseline 3DGS-SLAM pipeline (a streaming :class:`SlamSession`).

    Subclasses swap the map through ``model`` (the model tracking renders
    and mapping updates) and four hooks: ``_reset_map``, ``map_models``,
    ``_map_payload`` and ``_restore_map_payload``.  They swap the frame's
    work through three more: the primary tracking pass
    (``_primary_track``), the mapper call (``_map_frame``) and the
    keyframe policy (``_register_keyframe``).  The health ladder, the
    checkpoint payload and the result assembly stay this one.
    """

    algorithm = "splatam"
    # Root of the ``<prefix>/tracking`` and ``<prefix>/mapping`` timers.
    _timer_prefix = "splatam"

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
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset the system for a new sequence."""
        self._reset_map()
        self.mapper.reset()
        self.keyframes.reset()
        self.health.reset()
        # The last two accepted poses: all the constant-velocity warm
        # start reads, so the checkpoint does not grow with the stream.
        self._pose_history: list = []
        self._prev_gray: np.ndarray | None = None
        self._prev_depth: np.ndarray | None = None

    # ------------------------------------------------------------------
    # The map (one model here; Gaussian-SLAM's sub-maps override these)
    # ------------------------------------------------------------------
    def _reset_map(self) -> None:
        self.model = GaussianModel.empty()

    def map_models(self) -> list[GaussianModel]:
        return [self.model]

    def _map_payload(self) -> dict:
        return {"model": pack_model(self.model)}

    def _restore_map_payload(self, payload: dict) -> None:
        self.model = unpack_model(payload["model"])

    # ------------------------------------------------------------------
    def _state_payload(self) -> dict:
        return {
            **self._map_payload(),
            "keyframes": self.keyframes.state_dict(),
            "pose_history": [pack_pose(pose) for pose in self._pose_history],
            "mapper": self.mapper.state_dict(),
            "health": self.health.state_dict(),
            "prev_gray": None if self._prev_gray is None else self._prev_gray.copy(),
            "prev_depth": None if self._prev_depth is None else self._prev_depth.copy(),
        }

    def _restore_payload(self, payload: dict) -> None:
        self._restore_map_payload(payload)
        self.keyframes.load_state_dict(payload["keyframes"])
        self._pose_history = [unpack_pose(vector) for vector in payload["pose_history"]]
        self.mapper.load_state_dict(payload["mapper"])
        self.health.load_state_dict(payload["health"])
        prev_gray, prev_depth = payload["prev_gray"], payload["prev_depth"]
        self._prev_gray = None if prev_gray is None else np.asarray(prev_gray).copy()
        self._prev_depth = None if prev_depth is None else np.asarray(prev_depth).copy()

    # ------------------------------------------------------------------
    def _track(self, index: int, frame, gray: np.ndarray | None = None) -> TrackedFrame:
        """Tracking sub-stage: optimize the pose against the current map.

        Frame 0 is anchored at its ground-truth pose.  Later frames run
        the primary pass (:meth:`_primary_track`) and then the
        tracking-health ladder, whose retries use the same tracker and
        budget.  The tracker renders the map, so past frame 0 this stage
        depends on the previous frame's mapping.

        ``gray`` is the frame's luma when the caller already read it
        (``RGBDFrame.gray`` recomputes it on every read).
        """
        if gray is None:
            gray = np.asarray(frame.gray)
        if index == 0:
            tracked = TrackedFrame(
                pose=frame.gt_pose.copy(),
                workload=TrackingWorkload(coarse_flops=0.0, refine_iterations=0),
            )
        else:
            prev_pose = self._pose_history[-1]
            model = self.model
            section = f"{self._timer_prefix}/tracking"
            with self.perf.section(section):
                tracked = self._primary_track(frame, model, gray)
            tracked = self.health.moderate(
                index,
                tracked,
                prev_pose,
                retrack=self.health.photometric_retry(
                    self.tracker, model, frame, self.collect_trace, self.perf, section
                ),
                feature_pose=lambda: self.health.feature_pose(
                    index,
                    self._prev_gray,
                    self._prev_depth,
                    gray,
                    frame.depth,
                    prev_pose,
                    perf=self.perf,
                ),
                perf=self.perf,
            )
        self._pose_history = [*self._pose_history[-1:], tracked.pose.copy()]
        self._prev_gray = gray
        self._prev_depth = np.asarray(frame.depth)
        self.perf.count("tracking.refine_iterations", tracked.iterations)
        return tracked

    def _primary_track(self, frame, model: GaussianModel, gray: np.ndarray) -> TrackedFrame:
        """The primary pass: constant-velocity warm start plus ``N_T`` iterations."""
        initial = self.tracker.initial_guess(self._pose_history)
        outcome = self.tracker.track(
            model, frame.color, frame.depth, initial, collect_workload=self.collect_trace
        )
        return TrackedFrame(
            pose=outcome.pose,
            workload=outcome.workload,
            loss=outcome.final_loss,
            iterations=outcome.iterations_run,
        )

    def _map(self, index: int, frame, tracked: TrackedFrame) -> tuple[FrameResult, FrameTrace]:
        """Mapping sub-stage: densify, optimize the map, manage keyframes."""
        pose = tracked.pose
        with self.perf.section(f"{self._timer_prefix}/mapping"):
            mapped = self._map_frame(index, frame, pose)
        self.model = mapped.model
        self.perf.count("frames.processed")
        self.perf.count("mapping.iterations", mapped.iterations_run)
        self._register_keyframe(index, frame, pose, mapped)

        num_gaussians = sum(len(model) for model in self.map_models())
        frame_result = FrameResult(
            frame_index=index,
            estimated_pose=pose.copy(),
            tracking_iterations=tracked.iterations,
            mapping_iterations=mapped.iterations_run,
            tracking_loss=tracked.loss,
            mapping_loss=mapped.final_loss,
            used_coarse_only=tracked.used_coarse_only,
            is_keyframe=mapped.workload.is_keyframe,
            covisibility=tracked.covisibility,
            num_gaussians=num_gaussians,
            gaussians_skipped=mapped.workload.gaussians_skipped,
            degraded=tracked.degraded,
            fallbacks_used=tracked.fallbacks_used,
            relocalized=tracked.relocalized,
        )
        frame_trace = FrameTrace(
            frame_index=index,
            tracking=tracked.workload,
            mapping=mapped.workload,
            covisibility=tracked.covisibility,
            codec_sad_evaluations=tracked.sad_evaluations,
            num_gaussians=num_gaussians,
            health_events=list(tracked.health_events),
        )
        return frame_result, frame_trace

    def _map_frame(self, index: int, frame, pose: Pose) -> MappingOutcome:
        """The mapper call: full mapping of every frame against the keyframe window."""
        return self.mapper.map_frame(
            self.model,
            frame.color,
            frame.depth,
            pose,
            keyframes=self.keyframes.mapping_views(),
            collect_workload=self.collect_trace,
        )

    def _register_keyframe(self, index: int, frame, pose: Pose, mapped: MappingOutcome) -> None:
        """Keyframe policy: every ``keyframe_every``-th frame or a large motion."""
        if self.keyframes.should_add(index, pose):
            self.keyframes.add(index, frame.color, frame.depth, pose)
