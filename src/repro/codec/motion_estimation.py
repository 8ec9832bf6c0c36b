"""Block-matching motion estimation with SAD, full and diamond search.

For every macro-block of the current frame, motion estimation searches a
window of the previous frame for the most similar block, measured by the
Sum of Absolute Differences (SAD).  The minimum SAD per macro-block is the
quantity AGS extracts from the CODEC: summed over the frame it measures
how much image content changed, i.e. the (inverse of) frame covisibility.

Two interchangeable backends are provided (``backend=`` argument of
:func:`motion_estimate`):

* ``"vectorized"`` (default) — batched NumPy search over all blocks and
  candidates at once (:mod:`repro.codec.motion_search`), the hot-path
  implementation.
* ``"reference"`` — the original scalar per-block loop, kept as the
  readable specification and as the equivalence oracle for tests.

Both return identical SADs, motion vectors and ``sad_evaluations``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.codec.macroblock import MACROBLOCK_SIZE, split_into_macroblocks

__all__ = [
    "MotionEstimationResult",
    "sad",
    "full_search",
    "diamond_search",
    "motion_estimate",
    "SEARCH_METHODS",
    "SEARCH_BACKENDS",
]

# Pixel values are treated as 8-bit for SAD so the magnitudes match what a
# hardware encoder would report.
PIXEL_SCALE = 255.0
DEFAULT_SEARCH_RANGE = 4
SEARCH_METHODS = ("full", "diamond")
SEARCH_BACKENDS = ("vectorized", "reference")


def sad(block_a: np.ndarray, block_b: np.ndarray) -> float:
    """Sum of absolute differences between two equally sized blocks."""
    block_a = np.asarray(block_a, dtype=np.float64)
    block_b = np.asarray(block_b, dtype=np.float64)
    if block_a.shape != block_b.shape:
        raise ValueError(f"block shapes differ: {block_a.shape} vs {block_b.shape}")
    return float(np.abs(block_a - block_b).sum())


@dataclasses.dataclass
class MotionEstimationResult:
    """Per-frame motion estimation output.

    Attributes:
        block_size: macro-block edge length.
        min_sads: (blocks_y, blocks_x) minimum SAD per macro-block.
        motion_vectors: (blocks_y, blocks_x, 2) integer displacement
            ``(dx, dy)`` of the best match.
        sad_evaluations: number of SAD computations performed (hardware
            cost proxy used by the FC detection engine model).
    """

    block_size: int
    min_sads: np.ndarray
    motion_vectors: np.ndarray
    sad_evaluations: int

    @property
    def total_sad(self) -> float:
        """Accumulated minimum SAD over the frame (the AGS covisibility raw signal)."""
        return float(self.min_sads.sum())

    @property
    def mean_sad_per_pixel(self) -> float:
        """Minimum SAD normalized by the number of pixels (0..255 scale)."""
        num_pixels = self.min_sads.size * self.block_size**2
        return float(self.total_sad / max(num_pixels, 1))


def _search_positions_full(search_range: int) -> list[tuple[int, int]]:
    return [
        (dx, dy)
        for dy in range(-search_range, search_range + 1)
        for dx in range(-search_range, search_range + 1)
    ]


def _block_sad(previous: np.ndarray, block: np.ndarray, x0: int, y0: int) -> float | None:
    """SAD of ``block`` against the previous frame at top-left ``(x0, y0)``.

    Returns None when the candidate block falls outside the frame.
    """
    size = block.shape[0]
    height, width = previous.shape
    if x0 < 0 or y0 < 0 or x0 + size > width or y0 + size > height:
        return None
    candidate = previous[y0 : y0 + size, x0 : x0 + size]
    return float(np.abs(candidate - block).sum())


def full_search(
    previous: np.ndarray,
    block: np.ndarray,
    origin_x: int,
    origin_y: int,
    search_range: int = DEFAULT_SEARCH_RANGE,
) -> tuple[float, tuple[int, int], int]:
    """Exhaustive search in a ``(2R+1)^2`` window.

    Returns:
        ``(min_sad, (dx, dy), evaluations)``.
    """
    best_sad = np.inf
    best_mv = (0, 0)
    evaluations = 0
    for dx, dy in _search_positions_full(search_range):
        value = _block_sad(previous, block, origin_x + dx, origin_y + dy)
        if value is None:
            continue
        evaluations += 1
        if value < best_sad:
            best_sad = value
            best_mv = (dx, dy)
    if not np.isfinite(best_sad):
        best_sad = float(np.abs(block).sum())
    return float(best_sad), best_mv, evaluations


_DIAMOND_LARGE = [(0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1)]
_DIAMOND_SMALL = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]


def diamond_search(
    previous: np.ndarray,
    block: np.ndarray,
    origin_x: int,
    origin_y: int,
    search_range: int = DEFAULT_SEARCH_RANGE,
    max_steps: int = 8,
) -> tuple[float, tuple[int, int], int]:
    """Diamond search: the fast ME pattern used by practical encoders.

    Returns the same tuple as :func:`full_search`.  The result is an
    approximation of the full-search minimum (usually identical for the
    small displacements seen between consecutive SLAM frames).
    """
    center = (0, 0)
    evaluations = 0
    best_sad = np.inf
    for _ in range(max_steps):
        improved = False
        for dx, dy in _DIAMOND_LARGE:
            mv = (center[0] + dx, center[1] + dy)
            if abs(mv[0]) > search_range or abs(mv[1]) > search_range:
                continue
            value = _block_sad(previous, block, origin_x + mv[0], origin_y + mv[1])
            if value is None:
                continue
            evaluations += 1
            if value < best_sad:
                best_sad = value
                center = mv
                improved = True
        if not improved:
            break
    best_mv = center
    for dx, dy in _DIAMOND_SMALL:
        mv = (center[0] + dx, center[1] + dy)
        if abs(mv[0]) > search_range or abs(mv[1]) > search_range:
            continue
        value = _block_sad(previous, block, origin_x + mv[0], origin_y + mv[1])
        if value is None:
            continue
        evaluations += 1
        if value < best_sad:
            best_sad = value
            best_mv = mv
    if not np.isfinite(best_sad):
        best_sad = float(np.abs(block).sum())
    return float(best_sad), best_mv, evaluations


def motion_estimate(
    current: np.ndarray,
    previous: np.ndarray,
    block_size: int = MACROBLOCK_SIZE,
    search_range: int = DEFAULT_SEARCH_RANGE,
    method: str = "full",
    backend: str = "vectorized",
) -> MotionEstimationResult:
    """Run block-matching motion estimation between two grayscale frames.

    Args:
        current: (H, W) grayscale frame in [0, 1] or [0, 255].
        previous: reference frame with the same shape.
        block_size: macro-block edge length.
        search_range: maximum displacement searched in each direction.
        method: ``"full"`` or ``"diamond"``.
        backend: ``"vectorized"`` (batched hot path) or ``"reference"``
            (scalar per-block loop).  Results are identical on finite
            frames.  The vectorized backend assumes finite input: with a
            NaN pixel its full search raises ``ValueError`` and its
            diamond search can count different ``sad_evaluations`` than
            the reference.  SLAM sessions refuse non-finite frames before
            tracking (``SessionRunner.feed`` / ``feed_nowait``).

    Returns:
        A :class:`MotionEstimationResult` with per-block minimum SADs.
    """
    # Validate the configuration before any work happens.
    if method not in SEARCH_METHODS:
        raise ValueError(f"unknown search method '{method}' (expected one of {SEARCH_METHODS})")
    if backend not in SEARCH_BACKENDS:
        raise ValueError(f"unknown backend '{backend}' (expected one of {SEARCH_BACKENDS})")

    current = np.asarray(current, dtype=np.float64)
    previous = np.asarray(previous, dtype=np.float64)
    if current.shape != previous.shape:
        raise ValueError(f"frame shapes differ: {current.shape} vs {previous.shape}")
    if current.max() <= 1.0 + 1e-9:
        current = current * PIXEL_SCALE
        previous = previous * PIXEL_SCALE

    grid = split_into_macroblocks(current, block_size)
    padded_prev = previous
    pad_y = (-previous.shape[0]) % block_size
    pad_x = (-previous.shape[1]) % block_size
    if pad_x or pad_y:
        padded_prev = np.pad(previous, ((0, pad_y), (0, pad_x)), mode="edge")

    if backend == "vectorized":
        from repro.codec.motion_search import diamond_search_batched, full_search_batched

        batched_fn = full_search_batched if method == "full" else diamond_search_batched
        min_sads, motion_vectors, evaluations = batched_fn(padded_prev, grid, search_range)
        motion_vectors = motion_vectors.astype(np.int64, copy=False)
    else:
        search_fn = full_search if method == "full" else diamond_search
        min_sads = np.zeros((grid.blocks_y, grid.blocks_x))
        motion_vectors = np.zeros((grid.blocks_y, grid.blocks_x, 2), dtype=np.int64)
        evaluations = 0
        for by in range(grid.blocks_y):
            for bx in range(grid.blocks_x):
                block = grid.blocks[by, bx]
                origin_x, origin_y = grid.origins[by, bx]
                best_sad, best_mv, evals = search_fn(
                    padded_prev, block, int(origin_x), int(origin_y), search_range
                )
                min_sads[by, bx] = best_sad
                motion_vectors[by, bx] = best_mv
                evaluations += evals

    return MotionEstimationResult(
        block_size=block_size,
        min_sads=min_sads,
        motion_vectors=motion_vectors,
        sad_evaluations=int(evaluations),
    )
