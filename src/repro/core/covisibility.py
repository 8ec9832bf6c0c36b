"""CODEC-assisted frame covisibility detection.

The FC detection path of the paper (Section 4.1): the CODEC's motion
estimation produces, for every macro-block of the incoming frame, the
minimum SAD against the reference frame.  Accumulating those minima over
the frame gives a scalar that grows with scene change; AGS normalizes it
into a covisibility value in [0, 1] (1 = identical frames) and compares it
against ``ThreshT`` (tracking) and ``ThreshM`` (mapping).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.codec.encoder import StreamingEncoder
from repro.codec.macroblock import MACROBLOCK_SIZE

__all__ = [
    "CovisibilityConfig",
    "CovisibilityMeasurement",
    "FrameCovisibilityDetector",
    "covisibility_level",
    "NUM_COVISIBILITY_LEVELS",
]

NUM_COVISIBILITY_LEVELS = 5


@dataclasses.dataclass(frozen=True)
class CovisibilityConfig:
    """Configuration of the covisibility detector.

    Attributes:
        block_size: macro-block edge length used by the CODEC.
        search_range: motion-estimation search range in pixels.
        method: block-matching search strategy (``"full"`` / ``"diamond"``).
        sad_scale: per-pixel mean SAD (on the 0-255 luma scale) that maps
            to covisibility 0.  Consecutive SLAM frames produce per-pixel
            SADs far below 255, so normalizing by the full luma range would
            compress all frames into a narrow band near 1; the scale
            constant stretches the useful range so that the paper's
            percentage thresholds (90 % / 50 %) are meaningful.
    """

    block_size: int = MACROBLOCK_SIZE
    search_range: int = 2
    method: str = "full"
    sad_scale: float = 40.0


@dataclasses.dataclass
class CovisibilityMeasurement:
    """One covisibility measurement between two frames."""

    value: float
    sad_evaluations: int

    @property
    def level(self) -> int:
        """Discrete covisibility level (1 = lowest, 5 = highest)."""
        return covisibility_level(self.value)


def covisibility_level(value: float, num_levels: int = NUM_COVISIBILITY_LEVELS) -> int:
    """Map a covisibility value in [0, 1] to a discrete level 1..num_levels."""
    clipped = min(max(value, 0.0), 1.0)
    level = int(np.floor(clipped * num_levels)) + 1
    return min(level, num_levels)


class FrameCovisibilityDetector:
    """Streaming covisibility detector backed by the CODEC model.

    The detector keeps the previously seen frame (for tracking
    covisibility) and an explicitly registered reference key frame (for
    mapping covisibility), mirroring the two comparisons the AGS pipeline
    performs per frame.
    """

    def __init__(self, config: CovisibilityConfig | None = None) -> None:
        self.config = config or CovisibilityConfig()
        self._encoder = StreamingEncoder(
            block_size=self.config.block_size,
            search_range=self.config.search_range,
            method=self.config.method,
        )
        self._previous_gray: np.ndarray | None = None
        self._keyframe_gray: np.ndarray | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all reference frames (new sequence)."""
        self._previous_gray = None
        self._keyframe_gray = None

    def _sad_to_covisibility(self, mean_sad_per_pixel: float) -> float:
        value = 1.0 - mean_sad_per_pixel / self.config.sad_scale
        return float(min(max(value, 0.0), 1.0))

    def _measure(self, gray: np.ndarray, reference: np.ndarray) -> CovisibilityMeasurement:
        metadata = self._encoder.encode_pair(gray, reference)
        return CovisibilityMeasurement(
            value=self._sad_to_covisibility(metadata.mean_sad_per_pixel),
            sad_evaluations=metadata.motion.sad_evaluations,
        )

    # ------------------------------------------------------------------
    def observe(self, frame_index: int, gray: np.ndarray) -> CovisibilityMeasurement | None:
        """Measure covisibility of the new frame against the previous frame.

        Returns None for the first frame of a sequence (no reference yet).
        The frame becomes the new "previous frame" afterwards.  The
        detector keeps no per-frame record: the caller owns the returned
        measurement, so ``frame_index`` is not stored.
        """
        gray = np.asarray(gray, dtype=np.float64)
        measurement: CovisibilityMeasurement | None = None
        if self._previous_gray is not None:
            measurement = self._measure(gray, self._previous_gray)
        self._previous_gray = gray.copy()
        return measurement

    def compare_with_keyframe(self, gray: np.ndarray) -> CovisibilityMeasurement | None:
        """Measure covisibility against the registered key frame (if any)."""
        if self._keyframe_gray is None:
            return None
        return self._measure(np.asarray(gray, dtype=np.float64), self._keyframe_gray)

    def register_keyframe(self, frame_index: int, gray: np.ndarray) -> None:
        """Register the reference key frame used for mapping covisibility.

        Only the frame is kept; as in :meth:`observe`, ``frame_index`` is
        not stored.
        """
        self._keyframe_gray = np.asarray(gray, dtype=np.float64).copy()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the reference frames.

        The CODEC encoder is stateless, so the detector's own fields are
        the complete checkpoint.
        """
        return {
            "previous_gray": None if self._previous_gray is None else self._previous_gray.copy(),
            "keyframe_gray": None if self._keyframe_gray is None else self._keyframe_gray.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        Other keys (older snapshots carry ``history``, ``previous_index``
        and ``keyframe_index``) are ignored.
        """
        previous = state["previous_gray"]
        keyframe = state["keyframe_gray"]
        self._previous_gray = None if previous is None else np.asarray(previous).copy()
        self._keyframe_gray = None if keyframe is None else np.asarray(keyframe).copy()
