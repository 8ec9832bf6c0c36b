"""Streaming encoder front-end producing per-frame motion metadata.

A real SLAM-on-SoC deployment streams camera frames through the hardware
encoder for logging/telemetry; AGS taps the encoder's motion-estimation
metadata.  :class:`StreamingEncoder` models that flow: it keeps the
previously encoded frame, runs motion estimation for every new frame, and
emits a :class:`CodecFrameMetadata` record containing exactly what the AGS
FC detection engine reads from DRAM (the per macro-block minimum SADs),
plus a rough compressed-size estimate so the encoder model is usable as a
stand-alone component.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.codec.macroblock import MACROBLOCK_SIZE
from repro.codec.motion_estimation import MotionEstimationResult, motion_estimate

__all__ = ["CodecFrameMetadata", "StreamingEncoder"]


@dataclasses.dataclass
class CodecFrameMetadata:
    """Metadata emitted by the encoder for one frame.

    Attributes:
        frame_index: index in the stream.
        is_keyframe: True for intra-coded frames (no previous reference).
        motion: motion-estimation result (None for the first frame).
        estimated_bits: rough size of the encoded frame in bits.
    """

    frame_index: int
    is_keyframe: bool
    motion: MotionEstimationResult | None
    estimated_bits: float

    @property
    def total_min_sad(self) -> float:
        """Accumulated minimum SAD (0 for intra frames)."""
        if self.motion is None:
            return 0.0
        return self.motion.total_sad

    @property
    def mean_sad_per_pixel(self) -> float:
        """Per-pixel mean of the minimum SADs (0 for intra frames)."""
        if self.motion is None:
            return 0.0
        return self.motion.mean_sad_per_pixel


class StreamingEncoder:
    """Streaming video encoder model with an inspectable ME stage.

    Args:
        block_size: macro-block edge length.
        search_range: ME search range in pixels.
        method: ``"full"`` or ``"diamond"`` block search.
        gop_length: distance between intra (key) frames; intra frames do
            not produce SAD metadata, matching real encoders.

    Motion estimation runs on the vectorized backend;
    :func:`~repro.codec.motion_estimation.motion_estimate`'s
    ``backend="reference"`` is its executable specification.
    """

    # Bits-per-pixel constants of a crude rate model: intra frames cost a
    # fixed budget; inter frames cost proportional to the residual energy.
    _INTRA_BITS_PER_PIXEL = 1.2
    _INTER_BITS_PER_SAD = 0.08

    def __init__(
        self,
        block_size: int = MACROBLOCK_SIZE,
        search_range: int = 4,
        method: str = "full",
        gop_length: int = 0,
    ) -> None:
        self.block_size = block_size
        self.search_range = search_range
        self.method = method
        self.gop_length = gop_length
        self._previous_frame: np.ndarray | None = None
        self._frame_index = 0
        self.history: list[CodecFrameMetadata] = []

    def reset(self) -> None:
        """Forget the reference frame and start a new stream."""
        self._previous_frame = None
        self._frame_index = 0
        self.history.clear()

    def encode(self, gray_frame: np.ndarray) -> CodecFrameMetadata:
        """Encode the next frame of the stream and return its metadata."""
        gray_frame = np.asarray(gray_frame, dtype=np.float64)
        force_intra = (
            self.gop_length > 0 and self._frame_index % self.gop_length == 0
        )
        is_keyframe = self._previous_frame is None or force_intra

        if is_keyframe:
            motion = None
            bits = self._INTRA_BITS_PER_PIXEL * gray_frame.size
        else:
            motion = motion_estimate(
                gray_frame,
                self._previous_frame,
                block_size=self.block_size,
                search_range=self.search_range,
                method=self.method,
            )
            bits = self._INTER_BITS_PER_SAD * motion.total_sad + 0.02 * gray_frame.size

        metadata = CodecFrameMetadata(
            frame_index=self._frame_index,
            is_keyframe=is_keyframe,
            motion=motion,
            estimated_bits=float(bits),
        )
        self.history.append(metadata)
        self._previous_frame = gray_frame.copy()
        self._frame_index += 1
        return metadata

    def encode_pair(self, current: np.ndarray, previous: np.ndarray) -> CodecFrameMetadata:
        """Encode ``current`` against an explicit ``previous`` reference.

        AGS compares the incoming frame against the *previous key frame*
        for mapping (not necessarily the immediately preceding frame), so
        the FC detection path sometimes needs ME against an arbitrary
        reference.  This helper performs that without disturbing the
        streaming state.
        """
        motion = motion_estimate(
            np.asarray(current, dtype=np.float64),
            np.asarray(previous, dtype=np.float64),
            block_size=self.block_size,
            search_range=self.search_range,
            method=self.method,
        )
        bits = self._INTER_BITS_PER_SAD * motion.total_sad
        return CodecFrameMetadata(
            frame_index=self._frame_index,
            is_keyframe=False,
            motion=motion,
            estimated_bits=float(bits),
        )
