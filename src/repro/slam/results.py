"""Result containers for SLAM runs."""

from __future__ import annotations

import dataclasses

from repro.gaussians.camera import Pose
from repro.gaussians.model import GaussianModel
from repro.workloads import FrameTrace, SequenceTrace

__all__ = ["FrameResult", "SlamResult"]


@dataclasses.dataclass
class FrameResult:
    """Per-frame outcome of a SLAM system.

    Attributes:
        frame_index: frame index in the sequence.
        estimated_pose: the pose the system settled on.
        tracking_iterations: 3DGS refinement iterations spent on tracking.
        mapping_iterations: mapping iterations spent on the frame.
        tracking_loss: final tracking loss value.
        mapping_loss: final mapping loss value.
        used_coarse_only: True when AGS skipped the fine-grained refinement.
        is_keyframe: True when the frame ran full mapping.
        covisibility: detected covisibility (None for the baseline).
        num_gaussians: map size after processing the frame.
        gaussians_skipped: Gaussians skipped by selective mapping.
        degraded: True when the tracking-health monitor flagged the frame.
        fallbacks_used: fallback-ladder rungs taken for the frame.
        relocalized: True when the pose came from the feature fallback.
    """

    frame_index: int
    estimated_pose: Pose
    tracking_iterations: int = 0
    mapping_iterations: int = 0
    tracking_loss: float = 0.0
    mapping_loss: float = 0.0
    used_coarse_only: bool = False
    is_keyframe: bool = True
    covisibility: float | None = None
    num_gaussians: int = 0
    gaussians_skipped: int = 0
    degraded: bool = False
    fallbacks_used: int = 0
    relocalized: bool = False


@dataclasses.dataclass
class SlamResult:
    """Outcome of running a SLAM system over a sequence."""

    algorithm: str
    sequence: str
    frames: list[FrameResult] = dataclasses.field(default_factory=list)
    final_model: GaussianModel | None = None
    trace: SequenceTrace | None = None

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def estimated_trajectory(self) -> list[Pose]:
        """Return the per-frame estimated poses."""
        return [frame.estimated_pose for frame in self.frames]

    @property
    def total_tracking_iterations(self) -> int:
        """Total 3DGS tracking iterations across the run."""
        return int(sum(frame.tracking_iterations for frame in self.frames))

    @property
    def keyframe_fraction(self) -> float:
        """Fraction of frames that ran full mapping."""
        if not self.frames:
            return 0.0
        return sum(frame.is_keyframe for frame in self.frames) / len(self.frames)

    @property
    def frames_degraded(self) -> int:
        """Frames the tracking-health monitor flagged as degraded."""
        return int(sum(frame.degraded for frame in self.frames))

    @property
    def total_fallbacks(self) -> int:
        """Fallback-ladder rungs taken across the run."""
        return int(sum(frame.fallbacks_used for frame in self.frames))

    @property
    def total_relocalizations(self) -> int:
        """Frames whose pose came from the feature fallback."""
        return int(sum(frame.relocalized for frame in self.frames))

    @property
    def coarse_only_fraction(self) -> float:
        """Fraction of frames tracked with the coarse estimate only."""
        if not self.frames:
            return 0.0
        return sum(frame.used_coarse_only for frame in self.frames) / len(self.frames)

    def frame_trace(self, index: int) -> FrameTrace:
        """Return the workload trace of one frame (requires a trace)."""
        if self.trace is None:
            raise ValueError("this SLAM run was executed without trace collection")
        return self.trace.frames[index]
