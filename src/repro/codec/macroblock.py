"""Macro-block partitioning of frames for motion estimation."""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["MACROBLOCK_SIZE", "MacroBlockGrid", "split_into_macroblocks"]

# The paper uses 8x8-pixel macro-blocks in its example (Section 2.3).
MACROBLOCK_SIZE = 8


@dataclasses.dataclass
class MacroBlockGrid:
    """A frame partitioned into macro-blocks.

    Attributes:
        block_size: macro-block edge length in pixels.
        blocks_x, blocks_y: grid dimensions.
        blocks: (blocks_y, blocks_x, block_size, block_size) pixel data.
        origins: (blocks_y, blocks_x, 2) top-left pixel coordinate (x, y)
            of every block.
    """

    block_size: int
    blocks_x: int
    blocks_y: int
    blocks: np.ndarray
    origins: np.ndarray

    @property
    def num_blocks(self) -> int:
        """Total number of macro-blocks in the frame."""
        return self.blocks_x * self.blocks_y


def split_into_macroblocks(frame: np.ndarray, block_size: int = MACROBLOCK_SIZE) -> MacroBlockGrid:
    """Partition a grayscale frame into non-overlapping macro-blocks.

    The frame is padded (edge replication) so its size becomes a multiple
    of the block size, matching how hardware encoders handle non-aligned
    resolutions.

    Args:
        frame: (H, W) grayscale image, any float or integer dtype.
        block_size: macro-block edge length.

    Returns:
        A :class:`MacroBlockGrid`.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ValueError(f"expected a 2D grayscale frame, got shape {frame.shape}")
    height, width = frame.shape
    pad_y = (-height) % block_size
    pad_x = (-width) % block_size
    if pad_x or pad_y:
        frame = np.pad(frame, ((0, pad_y), (0, pad_x)), mode="edge")
    height, width = frame.shape
    blocks_y = height // block_size
    blocks_x = width // block_size
    blocks = (
        frame.reshape(blocks_y, block_size, blocks_x, block_size)
        .transpose(0, 2, 1, 3)
        .copy()
    )
    origin_x, origin_y = np.meshgrid(
        np.arange(blocks_x) * block_size, np.arange(blocks_y) * block_size
    )
    origins = np.stack([origin_x, origin_y], axis=-1)
    return MacroBlockGrid(
        block_size=block_size,
        blocks_x=blocks_x,
        blocks_y=blocks_y,
        blocks=blocks,
        origins=origins,
    )
