"""Streaming encoder front-end producing per-frame motion metadata.

A real SLAM-on-SoC deployment streams camera frames through the hardware
encoder for logging/telemetry; AGS taps the encoder's motion-estimation
metadata.  :class:`StreamingEncoder` models that flow: it runs motion
estimation of a frame against a reference frame and emits a
:class:`CodecFrameMetadata` record containing exactly what the AGS FC
detection engine reads from DRAM (the per macro-block minimum SADs), plus
a rough compressed-size estimate so the encoder model is usable as a
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
    """Metadata emitted by the encoder for one inter-coded frame.

    Attributes:
        motion: motion-estimation result against the reference frame.
        estimated_bits: rough size of the encoded frame in bits.
    """

    motion: MotionEstimationResult
    estimated_bits: float

    @property
    def total_min_sad(self) -> float:
        """Accumulated minimum SAD."""
        return self.motion.total_sad

    @property
    def mean_sad_per_pixel(self) -> float:
        """Per-pixel mean of the minimum SADs."""
        return self.motion.mean_sad_per_pixel


class StreamingEncoder:
    """Video encoder model with an inspectable ME stage.

    Args:
        block_size: macro-block edge length.
        search_range: ME search range in pixels.
        method: ``"full"`` or ``"diamond"`` block search.

    The encoder keeps no stream state: each :meth:`encode_pair` call
    codes one frame against an explicit reference.  Motion estimation
    runs on the vectorized backend;
    :func:`~repro.codec.motion_estimation.motion_estimate`'s
    ``backend="reference"`` is its executable specification.
    """

    # Bits per unit of SAD of a crude rate model: inter frames cost
    # proportional to the residual energy.
    _INTER_BITS_PER_SAD = 0.08

    def __init__(
        self,
        block_size: int = MACROBLOCK_SIZE,
        search_range: int = 4,
        method: str = "full",
    ) -> None:
        self.block_size = block_size
        self.search_range = search_range
        self.method = method

    def encode_pair(self, current: np.ndarray, previous: np.ndarray) -> CodecFrameMetadata:
        """Encode ``current`` against an explicit ``previous`` reference.

        AGS compares the incoming frame against the previous frame for
        tracking and against the *previous key frame* for mapping (not
        necessarily the immediately preceding frame), so the FC detection
        path supplies the reference with every call.
        """
        motion = motion_estimate(
            np.asarray(current, dtype=np.float64),
            np.asarray(previous, dtype=np.float64),
            block_size=self.block_size,
            search_range=self.search_range,
            method=self.method,
        )
        return CodecFrameMetadata(
            motion=motion, estimated_bits=float(self._INTER_BITS_PER_SAD * motion.total_sad)
        )
