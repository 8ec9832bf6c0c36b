"""Map-free frame-to-frame odometry: the session both odometry baselines share.

ORB-lite (Table 2's ORB-SLAM2-like baseline) and DROID-lite (Table 4's
Droid-only coarse tracker) keep no map: each frame's pose is its relative
motion from the previously fed frame composed onto that frame's pose.
:class:`OdometrySession` owns that chain — the previous frame, its pose,
the last relative motion (the constant-velocity prior, identity until a
motion is measured), the ground-truth anchor of the first frame, the
frame count and the checkpoint payload — and a system supplies only
:meth:`OdometrySession._relative`.
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.camera import Intrinsics, Pose
from repro.perf import PerfRecorder
from repro.slam.results import FrameResult
from repro.slam.session import SessionRunner, pack_pose, unpack_pose

__all__ = ["OdometrySession"]


class OdometrySession(SessionRunner):
    """A :class:`SessionRunner` that chains relative motions frame to frame.

    Subclasses provide ``algorithm`` and :meth:`_relative`; a subclass
    with state of its own extends ``reset`` (which ``__init__`` runs, so
    set what it reads first) and the checkpoint payload.
    """

    def __init__(self, intrinsics: Intrinsics, perf: PerfRecorder | None = None) -> None:
        super().__init__(intrinsics, collect_trace=False, perf=perf)
        self.reset()

    def reset(self) -> None:
        """Forget the previous frame and the velocity prior."""
        self._prev_gray: np.ndarray | None = None
        self._prev_depth: np.ndarray | None = None
        self._prev_pose: Pose | None = None
        self._prev_relative = Pose.identity()

    def _relative(self, frame, gray: np.ndarray) -> Pose:
        """The motion from the previous frame to ``frame`` (overridden).

        Reads ``_prev_gray``/``_prev_depth``/``_prev_pose`` and the last
        relative motion ``_prev_relative``; ``gray`` is ``frame.gray``,
        read once.
        """
        raise NotImplementedError

    def _track(self, index: int, frame) -> FrameResult:
        """Estimate one frame's pose against the previously fed frame.

        The first frame's pose is anchored to the ground truth (standard
        practice: SLAM trajectories are defined up to a global transform).
        Odometry has no mapping stage, so everything happens here and
        :meth:`_map` passes the result through.
        """
        gray = np.asarray(frame.gray)  # a property: computed on every read
        if index == 0 or self._prev_gray is None:
            pose = frame.gt_pose.copy()
        else:
            self._prev_relative = self._relative(frame, gray)
            pose = self._prev_relative.compose(self._prev_pose)
        self.perf.count("frames.processed")
        self._prev_gray = gray
        self._prev_depth = np.asarray(frame.depth)
        self._prev_pose = pose
        return FrameResult(frame_index=index, estimated_pose=pose.copy())

    def _map(self, index: int, frame, tracked: FrameResult) -> tuple[FrameResult, None]:
        """Degenerate mapping sub-stage: odometry builds no map."""
        return tracked, None

    def _state_payload(self) -> dict:
        return {
            "prev_gray": None if self._prev_gray is None else self._prev_gray.copy(),
            "prev_depth": None if self._prev_depth is None else self._prev_depth.copy(),
            "prev_pose": pack_pose(self._prev_pose),
            "prev_relative": pack_pose(self._prev_relative),
        }

    def _restore_payload(self, payload: dict) -> None:
        prev_gray = payload["prev_gray"]
        prev_depth = payload["prev_depth"]
        self._prev_gray = None if prev_gray is None else np.asarray(prev_gray).copy()
        self._prev_depth = None if prev_depth is None else np.asarray(prev_depth).copy()
        self._prev_pose = unpack_pose(payload["prev_pose"])
        self._prev_relative = unpack_pose(payload["prev_relative"])
