"""Tile-based forward rasterizer for 3D Gaussian Splatting.

Implements step 3 of the pipeline in the paper (Fig. 2): alpha-blended
front-to-back compositing of depth-sorted Gaussians per tile, with the
standard early-termination rule (stop once transmittance drops below
``TRANSMITTANCE_EPS``).

Besides color, the rasterizer renders the expected depth and a silhouette
(accumulated opacity) channel — both are used by SplaTAM-style losses —
and can optionally record per-Gaussian contribution statistics (the alpha
values that AGS's Gaussian contribution-aware mapping consumes) and
per-tile workload statistics (consumed by the hardware simulator).

Two execution backends share the same semantics:

* ``backend="bucketed"`` (the default) groups non-empty tiles into padded
  size buckets and renders each bucket as one vectorized 3-D pass over
  ``(tiles, pixels, gaussians)``.  It serves every combination of the
  statistics flags, and can additionally retain the per-bucket blending
  intermediates in a :class:`ForwardCache` so the backward pass
  (:func:`repro.gaussians.gradients.render_backward`) reuses them instead
  of re-running the forward per tile.
* ``backend="reference"`` is the original per-tile loop built on
  :func:`tile_forward` — the executable specification the bucketed engine
  is property-tested against (``tests/test_rasterizer_bucketed_stats.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import ALPHA_MIN, ProjectionResult, project_gaussians
from repro.gaussians.scratch import ScratchPool, scatter_add
from repro.gaussians.tiles import TILE_SIZE, GaussianTable, TileGrid, assign_tiles

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "TRANSMITTANCE_EPS",
    "ForwardCache",
    "RasterizationResult",
    "TileWorkload",
    "build_forward_cache",
    "render",
    "tile_forward",
]

# ALPHA_MIN (1/255, the cut-off below which a splat's alpha is zeroed by
# the blending loop) is defined in repro.gaussians.projection — the
# opacity-aware splat radius is its support — and re-exported here, its
# historical home.
# Alpha is clamped to this maximum to keep the blending numerically stable.
ALPHA_MAX = 0.99
# Early termination threshold on the transmittance T (paper: 1e-4).
TRANSMITTANCE_EPS = 1e-4

_RENDER_BACKENDS = ("bucketed", "reference")

# The masked (gather/scatter) pixel-sparse compute path wins when the
# active fraction of a chunk's (tile, pixel, gaussian) lattice is low;
# near-dense chunks fall back to the straight dense kernels, which carry
# no indexing overhead.  Both paths produce bit-identical outputs — the
# threshold only selects the faster execution schedule, never semantics.
# On this NumPy backend the row-segment gathers/scatters plus the bincount
# gradient reductions cost roughly 2-3x the dense per-element stream, so
# masked execution only pays off once >~70 % of the padded lattice is
# culled (measured crossover on the bench scenes; near-dense chunks lose).
_SPARSE_DENSITY_FALLBACK = 0.30


@dataclasses.dataclass
class TileWorkload:
    """Workload statistics of one tile, consumed by the hardware simulator.

    Attributes:
        tile_index: flat tile index in the tile grid.
        num_gaussians: Gaussians listed in the tile's Gaussian table.
        pairs_computed: (pixel, Gaussian) pairs whose alpha was evaluated.
        pairs_blended: pairs that actually contributed to blending
            (alpha above ``ALPHA_MIN`` and not cut by early termination).
        per_pixel_counts: per-pixel number of blended Gaussians, used to
            model GPE load imbalance.
    """

    tile_index: int
    num_gaussians: int
    pairs_computed: int
    pairs_blended: int
    per_pixel_counts: np.ndarray


@dataclasses.dataclass
class _CachedChunk:
    """Forward intermediates of one bucketed chunk, retained for backward.

    Arrays of shape ``(tiles, pixels, padded)`` are views into the owning
    :class:`ForwardCache`'s scratch pool; padding entries carry zero
    opacity and therefore zero ``alpha`` / ``weights``, so the backward
    accumulation needs no padding mask (their gradient terms vanish).

    When the chunk was rendered through the masked pixel-sparse path, the
    computed entries are the full active *rows* of every pair's interval:
    ``active`` holds their flat lattice indices as an (S, tile_w) block
    (one row segment per line), ``active_tg`` the per-entry flat (tile,
    Gaussian) index ``t * G + g``, ``dx`` the (S, tile_w) offsets and
    ``dy`` the per-segment (S,) offsets (constant along a pixel row); the
    backward's mean/conic reductions then touch only those entries.
    ``active is None`` means the chunk was rendered dense (the density
    fallback) and ``dx`` / ``dy`` are the full (T, P, G) lattices.
    """

    tile_indices: np.ndarray  # (T,) flat tile indices in the grid
    tile_w: int
    tile_h: int
    lengths: np.ndarray  # (T,) real (unpadded) table lengths
    ids: np.ndarray  # (T, G) Gaussian ids, zero-padded
    opac: np.ndarray  # (T, G) sigmoid opacities, zero-padded
    origin_x: np.ndarray  # (T,) tile pixel origins
    origin_y: np.ndarray
    flat_index: np.ndarray  # (T * P,) flat image pixel indices
    alpha: np.ndarray  # (T, P, G) clamped, termination-zeroed alphas
    t_before: np.ndarray  # (T, P, G) exclusive transmittances
    weights: np.ndarray  # (T, P, G) blending weights T * alpha
    clamped: np.ndarray  # (T, P, G) bool: raw alpha exceeded ALPHA_MAX
    dx: np.ndarray  # (T, P, G) — or (S, tile_w) compressed — pixel-minus-mean x offsets
    dy: np.ndarray  # (T, P, G) — or (S,) per-segment — pixel-minus-mean y offsets
    active: np.ndarray | None = None  # (S, tile_w) flat indices into (T*P*G,)
    active_tg: np.ndarray | None = None  # (S * tile_w,) flat (tile, Gaussian) index t*G+g


class ForwardCache:
    """Retained per-bucket forward intermediates for the fused backward pass.

    The cache owns a :class:`ScratchPool`; every ``render(..., cache=...)``
    call (or :func:`build_forward_cache`) overwrites the pool's buffers in
    place, so one cache instance can be reused across optimizer iterations
    without reallocating — which is exactly how the SLAM tracker and mapper
    use it (one forward per iteration, backward consumes the cache).

    A cache is only valid for the *most recent* render that populated it:
    ``generation`` is bumped on every populate and stamped onto the
    :class:`RasterizationResult`, and the backward pass rebuilds the
    intermediates when the stamps (or the image shape) disagree rather
    than silently reading overwritten buffers.  Intermediates are stored
    in the forward compute dtype, so the fused backward is bit-for-bit
    independent of caching.
    """

    def __init__(self, pool: ScratchPool | None = None) -> None:
        self.pool = pool or ScratchPool()
        self.chunks: list[_CachedChunk] = []
        self.height = 0
        self.width = 0
        self.dtype: np.dtype | None = None
        self.generation = 0

    def begin(self, height: int, width: int, dtype: np.dtype) -> None:
        """Start a new populate: invalidate previous contents."""
        self.chunks.clear()
        self.height = int(height)
        self.width = int(width)
        self.dtype = np.dtype(dtype)
        self.generation += 1

    def __len__(self) -> int:
        return len(self.chunks)

    @property
    def num_pairs(self) -> int:
        """Total retained (tile, pixel, Gaussian) blending entries."""
        return int(sum(chunk.alpha.size for chunk in self.chunks))

    @property
    def num_tiles(self) -> int:
        """Number of non-empty tiles covered by the cache."""
        return int(sum(len(chunk.tile_indices) for chunk in self.chunks))

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing scratch pool."""
        return self.pool.nbytes


@dataclasses.dataclass
class RasterizationResult:
    """Output of a forward rendering pass.

    Attributes:
        color: (H, W, 3) rendered image in [0, 1].
        depth: (H, W) expected depth (0 where nothing was hit).
        silhouette: (H, W) accumulated opacity in [0, 1].
        final_transmittance: (H, W) remaining transmittance per pixel.
        projection: per-Gaussian projection data (for the backward pass).
        tile_grid: the tile grid / Gaussian tables used for rendering.
        gaussian_max_alpha: (N,) maximum alpha each Gaussian reached.
        gaussian_noncontrib_pixels: (N,) number of pixels for which the
            Gaussian's alpha stayed below the contribution threshold.
        gaussian_pixels_touched: (N,) pixels for which alpha was evaluated.
        tile_workloads: per-tile workload statistics.
        active_mask: the Gaussian mask that was rendered (None = all).
        forward_cache: the :class:`ForwardCache` populated by this render
            (None unless ``render(..., cache=...)`` was used); consumed by
            the fused backward pass.
        forward_cache_generation: the cache generation this result belongs
            to — the backward pass rebuilds when the cache moved on.
    """

    color: np.ndarray
    depth: np.ndarray
    silhouette: np.ndarray
    final_transmittance: np.ndarray
    projection: ProjectionResult
    tile_grid: TileGrid
    gaussian_max_alpha: np.ndarray
    gaussian_noncontrib_pixels: np.ndarray
    gaussian_pixels_touched: np.ndarray
    tile_workloads: list[TileWorkload]
    active_mask: np.ndarray | None = None
    forward_cache: "ForwardCache | None" = None
    forward_cache_generation: int = -1

    @property
    def total_pairs_computed(self) -> int:
        """Total number of alpha evaluations across the frame."""
        return int(sum(w.pairs_computed for w in self.tile_workloads))

    @property
    def total_pairs_blended(self) -> int:
        """Total number of blended (pixel, Gaussian) pairs across the frame."""
        return int(sum(w.pairs_blended for w in self.tile_workloads))


def _tile_pixel_centers(grid: TileGrid, table: GaussianTable) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Return (P, 2) pixel-center coordinates of a tile and its bounds."""
    return grid.pixel_centers(table), grid.pixel_bounds(table)


def tile_forward(
    table: GaussianTable,
    pixels: np.ndarray,
    projection: ProjectionResult,
    colors: np.ndarray,
    opacities_sigmoid: np.ndarray,
) -> dict[str, np.ndarray]:
    """Compute the blending intermediates of one tile.

    This helper is shared by the reference forward renderer and the
    reference backward pass so that both operate on identical quantities.

    Args:
        table: the tile's depth-sorted Gaussian table.
        pixels: (P, 2) pixel-center coordinates.
        projection: projection data of the full model.
        colors: (N, 3) Gaussian colors.
        opacities_sigmoid: (N,) Gaussian opacities after the sigmoid.

    Returns:
        A dict with per-(pixel, Gaussian) arrays: offsets ``d`` (P, G, 2),
        Gaussian kernel values ``gvals`` (P, G), clamped alphas ``alpha``
        (P, G), exclusive transmittances ``t_before`` (P, G), blending
        weights ``weights`` (P, G), a boolean ``clamped`` mask, plus the
        per-pixel outputs ``color`` (P, 3), ``depth`` (P,), ``silhouette``
        (P,) and ``final_t`` (P,).
    """
    ids = table.gaussian_ids
    means = projection.means2d[ids]
    conics = projection.conics[ids]
    g_colors = colors[ids]
    g_opacity = opacities_sigmoid[ids]
    g_depths = projection.depths[ids]

    d = pixels[:, None, :] - means[None, :, :]
    a00 = conics[:, 0, 0]
    a01 = conics[:, 0, 1]
    a11 = conics[:, 1, 1]
    power = -0.5 * (
        a00[None, :] * d[:, :, 0] ** 2
        + 2.0 * a01[None, :] * d[:, :, 0] * d[:, :, 1]
        + a11[None, :] * d[:, :, 1] ** 2
    )
    power = np.minimum(power, 0.0)
    gvals = np.exp(power)
    raw_alpha = g_opacity[None, :] * gvals
    clamped = raw_alpha > ALPHA_MAX
    alpha = np.minimum(raw_alpha, ALPHA_MAX)
    alpha = np.where(alpha < ALPHA_MIN, 0.0, alpha)

    one_minus = 1.0 - alpha
    # Exclusive cumulative product: transmittance before blending Gaussian i.
    t_before = np.cumprod(one_minus, axis=1)
    t_before = np.concatenate([np.ones((len(pixels), 1)), t_before[:, :-1]], axis=1)
    # Early termination: once T falls below the epsilon, later Gaussians
    # are skipped entirely.
    terminated = t_before < TRANSMITTANCE_EPS
    alpha = np.where(terminated, 0.0, alpha)
    weights = t_before * alpha

    color = weights @ g_colors
    depth = weights @ g_depths
    silhouette = weights.sum(axis=1)
    # Remaining transmittance after the blending loop.  ``alpha`` is
    # already zeroed past the early-termination point, so the product over
    # ``1 - alpha`` is exactly the post-termination transmittance the
    # early-stopping rule left behind.
    if len(ids) > 0:
        final_t = np.prod(1.0 - alpha, axis=1)
    else:
        final_t = np.ones(len(pixels))

    return {
        "ids": ids,
        "d": d,
        "gvals": gvals,
        "alpha": alpha,
        "raw_alpha": raw_alpha,
        "clamped": clamped,
        "terminated": terminated,
        "t_before": t_before,
        "weights": weights,
        "color": color,
        "depth": depth,
        "silhouette": silhouette,
        "final_t": final_t,
        "g_colors": g_colors,
        "g_depths": g_depths,
        "g_opacity": g_opacity,
    }


# Upper bound on (tiles * pixels * gaussians) elements processed per
# batched chunk; bounds transient scratch memory at a few tens of MB.
_FAST_CHUNK_ELEMENTS = 2_000_000


@dataclasses.dataclass
class _BucketedStats:
    """Statistics of the bucketed engine; zero-filled / empty unless recorded."""

    max_alpha: np.ndarray
    noncontrib: np.ndarray
    touched: np.ndarray
    workloads: list[TileWorkload]


def _bucket_tables(tile_grid: TileGrid) -> dict[tuple[int, int, int], list[GaussianTable]]:
    """Group non-empty tiles by (tile shape, padded table length).

    Table lengths are rounded up to quarter-power-of-two steps: few enough
    distinct buckets to amortize dispatch, at most ~25 % padding.
    """
    buckets: dict[tuple[int, int, int], list[GaussianTable]] = {}
    for table in tile_grid.tables:
        num_gaussians = len(table)
        if num_gaussians == 0:
            continue
        tile_w, tile_h = tile_grid.tile_shape(table)
        if num_gaussians <= 16:
            padded = 16
        else:
            step = max((1 << (num_gaussians - 1).bit_length()) // 4, 1)
            padded = ((num_gaussians + step - 1) // step) * step
        buckets.setdefault((tile_w, tile_h, padded), []).append(table)
    return buckets


def _render_bucketed(
    projection: ProjectionResult,
    tile_grid: TileGrid,
    colors: np.ndarray,
    opacities_sigmoid: np.ndarray,
    height: int,
    width: int,
    dtype: np.dtype,
    record_workloads: bool = False,
    record_contributions: bool = False,
    contribution_threshold: float = ALPHA_MIN,
    cache: ForwardCache | None = None,
    write_images: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, np.ndarray | None, _BucketedStats]:
    """Bucketed tile engine: images, optional statistics, optional cache.

    Tiles are grouped into buckets of equal pixel count and similar
    Gaussian-table length (next quarter-power-of-two); each bucket is
    padded to a common length with zero-opacity entries — numerically
    exact, since a zero alpha neither blends nor attenuates — and rendered
    as one 3-D vectorized pass over ``(tiles, pixels, gaussians)``.  The
    per-element operation order matches :func:`tile_forward`, so blended
    values agree with the reference path bit-for-bit and the derived
    statistics (integer counts, thresholds, maxima) are exact; only
    reduction blocking of the final matmuls differs (float64 round-off on
    the images).

    When ``cache`` is given, the clamp mask and the post-termination
    ``alpha`` / ``t_before`` / ``weights`` of every chunk are written to
    persistent pool buffers and recorded as :class:`_CachedChunk`s for the
    fused backward pass; otherwise the blending temporaries live in
    reusable per-call scratch.  ``write_images=False`` skips the image
    compositing entirely (used when only the cache is needed).
    """
    count = len(opacities_sigmoid)
    num_tiles_total = len(tile_grid.tables)

    color = depth = silhouette = final_t = None
    color_flat = depth_flat = silhouette_flat = final_t_flat = None
    if write_images:
        color = np.zeros((height, width, 3), dtype=dtype)
        depth = np.zeros((height, width), dtype=dtype)
        silhouette = np.zeros((height, width), dtype=dtype)
        final_t = np.ones((height, width), dtype=dtype)
        color_flat = color.reshape(-1, 3)
        depth_flat = depth.reshape(-1)
        silhouette_flat = silhouette.reshape(-1)
        final_t_flat = final_t.reshape(-1)

    # Per-Gaussian quantities gathered once per frame, flat and contiguous
    # in the rendering dtype (per-bucket work then only fancy-indexes them).
    means_x = np.ascontiguousarray(projection.means2d[:, 0], dtype=dtype)
    means_y = np.ascontiguousarray(projection.means2d[:, 1], dtype=dtype)
    conic00 = np.ascontiguousarray(projection.conics[:, 0, 0], dtype=dtype)
    conic01 = np.ascontiguousarray(projection.conics[:, 0, 1], dtype=dtype)
    conic11 = np.ascontiguousarray(projection.conics[:, 1, 1], dtype=dtype)
    g_colors_all = np.ascontiguousarray(colors, dtype=dtype)
    g_depths_all = np.ascontiguousarray(projection.depths, dtype=dtype)
    g_opac_all = np.ascontiguousarray(opacities_sigmoid, dtype=dtype)

    # Contribution statistics stay zero-filled unless requested.
    max_alpha = np.zeros(count)
    noncontrib = np.zeros(count, dtype=np.int64)
    touched = np.zeros(count, dtype=np.int64)
    if record_workloads:
        pairs_computed = np.zeros(num_tiles_total, dtype=np.int64)
        pairs_blended = np.zeros(num_tiles_total, dtype=np.int64)
        tile_lengths = np.zeros(num_tiles_total, dtype=np.int64)
        per_pixel_counts: dict[int, np.ndarray] = {}
    thresh = dtype.type(contribution_threshold)

    if cache is not None:
        cache.begin(height, width, dtype)
        pool = cache.pool
    else:
        pool = ScratchPool()
    eps = dtype.type(TRANSMITTANCE_EPS)

    chunk_index = 0
    for (tile_w, tile_h, padded), tables in _bucket_tables(tile_grid).items():
        num_pixels = tile_w * tile_h
        col_off, row_off, _ = tile_grid.tile_offsets(tile_w, tile_h)
        max_tiles = max(_FAST_CHUNK_ELEMENTS // (num_pixels * padded), 1)
        for chunk_start in range(0, len(tables), max_tiles):
            chunk = tables[chunk_start : chunk_start + max_tiles]
            num_tiles = len(chunk)

            ids = np.zeros((num_tiles, padded), dtype=np.int64)
            if cache is not None:
                opac = np.zeros((num_tiles, padded), dtype=dtype)
            else:
                opac = pool.take("opac", (num_tiles, padded), dtype)
                opac[:] = 0.0  # zero-opacity padding: exact no-op entries
            lengths = np.empty(num_tiles, dtype=np.int64)
            tile_indices = np.empty(num_tiles, dtype=np.int64)
            origin_x = np.empty(num_tiles, dtype=np.int64)
            origin_y = np.empty(num_tiles, dtype=np.int64)
            # Active-pixel intervals (r0, r1, c0, c1) of every pair;
            # zero-filled padding entries contribute empty intervals.
            iv = pool.take("iv", (num_tiles, padded, 4), np.int64)
            iv[...] = 0
            for slot, table in enumerate(chunk):
                table_ids = table.gaussian_ids
                ids[slot, : len(table_ids)] = table_ids
                opac[slot, : len(table_ids)] = g_opac_all[table_ids]
                lengths[slot] = len(table_ids)
                tile_indices[slot] = table.tile_y * tile_grid.tiles_x + table.tile_x
                origin_x[slot] = table.tile_x * tile_grid.tile_size
                origin_y[slot] = table.tile_y * tile_grid.tile_size
                iv[slot, : len(table_ids)] = table.intervals

            # Pixel centers (tiles, pixels) and flat image indices.
            px = (origin_x[:, None] + col_off[None, :] + 0.5).astype(dtype)
            py = (origin_y[:, None] + row_off[None, :] + 0.5).astype(dtype)
            flat_index = ((origin_y[:, None] + row_off[None, :]) * width
                          + origin_x[:, None] + col_off[None, :]).reshape(-1)

            shape = (num_tiles, num_pixels, padded)
            active = active_tg = e_dx = e_dy = None
            row_counts = (iv[:, :, 1] - iv[:, :, 0]).reshape(-1)
            num_segments = int(row_counts.sum())
            total_active = num_segments * tile_w
            use_masked = total_active <= _SPARSE_DENSITY_FALLBACK * (num_tiles * num_pixels * padded)

            if use_masked:
                # Masked pixel-sparse path: enumerate the *active rows* of
                # every pair's interval as (segment, column) blocks — the
                # excluded rows provably never reach ALPHA_MIN — evaluate
                # alpha on the (segments, tile_w) block with the exact
                # op/association order of the dense kernels below, and
                # scatter into a zero-filled dense alpha lattice —
                # compositing, early termination and statistics then run
                # unchanged, so outputs stay bit-identical.  Row blocks
                # keep the per-entry bookkeeping at the segment level:
                # ``dy`` (and everything derived from it alone) is constant
                # along a pixel row, and the per-entry flat indices are a
                # single broadcast add away from the per-segment bases.
                r0 = iv[:, :, 0].reshape(-1)
                starts = np.cumsum(row_counts) - row_counts
                seg_tg = np.repeat(np.arange(num_tiles * padded, dtype=np.int64), row_counts)
                seg_row = np.arange(num_segments, dtype=np.int64)
                seg_row -= np.repeat(starts - r0, row_counts)
                tile_slot = seg_tg // padded
                gcol = seg_tg - tile_slot * padded
                gids = ids.reshape(-1)[seg_tg]
                base = (tile_slot * num_pixels + seg_row * tile_w) * padded + gcol
                active = base[:, None] + np.arange(tile_w, dtype=np.int64)[None, :] * padded
                active_tg = np.repeat(seg_tg, tile_w)

                sshape = (num_segments, tile_w)
                if cache is not None:
                    # Retained compressed for the fused backward pass
                    # (``dy`` at segment granularity).
                    e_dx = pool.take(f"cache.dx.{chunk_index}", sshape, dtype)
                    e_dy = pool.take(f"cache.dy.{chunk_index}", (num_segments,), dtype)
                else:
                    e_dx = pool.take("entry.dx", sshape, dtype)
                    e_dy = pool.take("entry.dy", (num_segments,), dtype)
                e_power = pool.take("entry.power", sshape, dtype)
                e_cross = pool.take("entry.cross", sshape, dtype)
                cols = np.arange(tile_w, dtype=np.int64)
                np.subtract(
                    (origin_x[tile_slot][:, None] + cols[None, :] + 0.5).astype(dtype),
                    means_x[gids][:, None],
                    out=e_dx,
                )
                np.subtract(
                    (origin_y[tile_slot] + seg_row + 0.5).astype(dtype),
                    means_y[gids],
                    out=e_dy,
                )
                np.multiply(e_dx, e_dx, out=e_power)
                np.multiply(conic00[gids][:, None], e_power, out=e_power)
                np.multiply((dtype.type(2.0) * conic01[gids])[:, None], e_dx, out=e_cross)
                np.multiply(e_cross, e_dy[:, None], out=e_cross)
                np.add(e_power, e_cross, out=e_power)
                seg_cross = e_dy * e_dy
                np.multiply(conic11[gids], seg_cross, out=seg_cross)
                np.add(e_power, seg_cross[:, None], out=e_power)
                np.multiply(e_power, dtype.type(-0.5), out=e_power)
                np.minimum(e_power, dtype.type(0.0), out=e_power)
                e_alpha = np.exp(e_power, out=e_power)
                np.multiply(opac.reshape(-1)[seg_tg][:, None], e_alpha, out=e_alpha)

                e_clamped = None
                if cache is not None:
                    e_clamped = pool.take("entry.clamped", sshape, np.bool_)
                    np.greater(e_alpha, dtype.type(ALPHA_MAX), out=e_clamped)
                np.minimum(e_alpha, dtype.type(ALPHA_MAX), out=e_alpha)
                e_alpha[e_alpha < dtype.type(ALPHA_MIN)] = 0.0

                # Scatter into the dense lattice; inactive entries are an
                # exact zero in the dense path too, since the intervals are
                # conservative supersets of the alpha >= ALPHA_MIN support.
                if cache is not None:
                    alpha = pool.take(f"cache.alpha.{chunk_index}", shape, dtype)
                    t_before = pool.take(f"cache.t_before.{chunk_index}", shape, dtype)
                    clamped = pool.take(f"cache.clamped.{chunk_index}", shape, np.bool_)
                    weights_out = pool.take(f"cache.weights.{chunk_index}", shape, dtype)
                else:
                    alpha = pool.take("power", shape, dtype)
                    t_before = pool.take("t_before", shape, dtype)
                    clamped = None
                    weights_out = pool.take("cross", shape, dtype)
                alpha[...] = 0.0
                alpha.reshape(-1)[active] = e_alpha
                if clamped is not None:
                    clamped[...] = False
                    clamped.reshape(-1)[active] = e_clamped
                one_minus_out = pool.take("one_minus", shape, dtype)
                dx = dy = None
            else:
                if cache is not None:
                    # The pixel offsets are retained for the fused backward
                    # pass (dpower/dmean and dpower/dconic both need them),
                    # so the backward skips recomputing them per chunk.
                    dx = pool.take(f"cache.dx.{chunk_index}", shape, dtype)
                    dy = pool.take(f"cache.dy.{chunk_index}", shape, dtype)
                else:
                    dx = pool.take("dx", shape, dtype)
                    dy = pool.take("dy", shape, dtype)
                power = pool.take("power", shape, dtype)
                cross = pool.take("cross", shape, dtype)
                np.subtract(px[:, :, None], means_x[ids][:, None, :], out=dx)
                np.subtract(py[:, :, None], means_y[ids][:, None, :], out=dy)

                # power = -0.5 * (a00 dx^2 + 2 a01 dx dy + a11 dy^2), built
                # with the same association order as tile_forward.
                np.multiply(dx, dx, out=power)
                np.multiply(conic00[ids][:, None, :], power, out=power)
                np.multiply(dtype.type(2.0) * conic01[ids][:, None, :], dx, out=cross)
                np.multiply(cross, dy, out=cross)
                np.add(power, cross, out=power)
                np.multiply(dy, dy, out=cross)
                np.multiply(conic11[ids][:, None, :], cross, out=cross)
                np.add(power, cross, out=power)
                np.multiply(power, dtype.type(-0.5), out=power)
                np.minimum(power, dtype.type(0.0), out=power)

                if cache is not None:
                    alpha = pool.take(f"cache.alpha.{chunk_index}", shape, dtype)
                    np.exp(power, out=alpha)
                    t_before = pool.take(f"cache.t_before.{chunk_index}", shape, dtype)
                    clamped = pool.take(f"cache.clamped.{chunk_index}", shape, np.bool_)
                    weights_out = pool.take(f"cache.weights.{chunk_index}", shape, dtype)
                else:
                    alpha = np.exp(power, out=power)
                    t_before = pool.take("t_before", shape, dtype)
                    clamped = None
                    weights_out = dy
                np.multiply(opac[:, None, :], alpha, out=alpha)
                if clamped is not None:
                    np.greater(alpha, dtype.type(ALPHA_MAX), out=clamped)
                np.minimum(alpha, dtype.type(ALPHA_MAX), out=alpha)
                alpha[alpha < dtype.type(ALPHA_MIN)] = 0.0
                one_minus_out = (
                    pool.take("one_minus", shape, dtype) if cache is not None else dx
                )

            one_minus = np.subtract(dtype.type(1.0), alpha, out=one_minus_out)
            np.cumprod(one_minus, axis=2, out=t_before)
            t_before[:, :, 1:] = t_before[:, :, :-1]
            t_before[:, :, 0] = 1.0
            terminated = t_before < eps
            alpha[terminated] = 0.0
            weights = np.multiply(t_before, alpha, out=weights_out)

            if write_images:
                # Color, depth and silhouette composited by one batched
                # matmul against [colors | depths | 1].  Besides fusing
                # three kernels, the matmul reduces each pixel's Gaussian
                # axis through a single sequential accumulation chain per
                # output, so exact-zero (culled) entries drop out of the
                # sums without perturbing a bit — the invariant the pair-
                # culling exactness tests pin down.
                gpar = pool.take("gpar", (num_tiles, padded, 5), dtype)
                gpar[:, :, :3] = g_colors_all[ids]
                gpar[:, :, 3] = g_depths_all[ids]
                gpar[:, :, 4] = 1.0
                composite = pool.take("composite", (num_tiles, num_pixels, 5), dtype)
                np.matmul(weights, gpar, out=composite)
                color_flat[flat_index] = composite[:, :, :3].reshape(-1, 3)
                depth_flat[flat_index] = composite[:, :, 3].reshape(-1)
                silhouette_flat[flat_index] = composite[:, :, 4].reshape(-1)
                np.subtract(dtype.type(1.0), alpha, out=one_minus)
                final_t_flat[flat_index] = np.prod(one_minus, axis=2).reshape(-1)

            if record_contributions:
                # Padding columns carry zero alpha/weights but their ids
                # alias Gaussian 0, so every per-Gaussian scatter is
                # restricted to the real (unpadded) table entries.
                real = np.arange(padded)[None, :] < lengths[:, None]
                real_ids = ids[real]
                np.maximum.at(
                    max_alpha, real_ids, alpha.max(axis=1)[real].astype(np.float64)
                )
                noncontrib_tile = (weights < thresh).sum(axis=1)
                scatter_add(noncontrib, real_ids, noncontrib_tile[real])
                scatter_add(touched, real_ids, num_pixels)
            if record_workloads:
                # Alphas are non-negative, so the blended pairs are the
                # nonzero ones.
                blended_per_pixel = np.count_nonzero(alpha, axis=2).astype(np.int64, copy=False)
                pairs_blended[tile_indices] = blended_per_pixel.sum(axis=1)
                # Only entries inside the rectangular active interval count
                # as evaluated — the workload semantics, not the execution
                # schedule (the masked row-block schedule computes full
                # active rows, the fallback computes everything; both are
                # schedules over the same logical sparse workload) — and
                # none past a pixel's early termination.  Padding entries
                # carry empty intervals.
                if terminated.any():
                    computed = ~terminated
                    act = pool.take("act_mask", shape, np.bool_)
                    act_tmp = pool.take("act_tmp", shape, np.bool_)
                    np.greater_equal(row_off[None, :, None], iv[:, None, :, 0], out=act)
                    np.less(row_off[None, :, None], iv[:, None, :, 1], out=act_tmp)
                    act &= act_tmp
                    np.greater_equal(col_off[None, :, None], iv[:, None, :, 2], out=act_tmp)
                    act &= act_tmp
                    np.less(col_off[None, :, None], iv[:, None, :, 3], out=act_tmp)
                    act &= act_tmp
                    computed &= act
                    pairs_computed[tile_indices] = computed.sum(axis=(1, 2))
                else:
                    # Nothing terminated: every pair computes its whole
                    # interval.
                    area = row_counts.reshape(num_tiles, padded) * (iv[:, :, 3] - iv[:, :, 2])
                    pairs_computed[tile_indices] = area.sum(axis=1)
                tile_lengths[tile_indices] = lengths
                for slot in range(num_tiles):
                    per_pixel_counts[int(tile_indices[slot])] = blended_per_pixel[slot]

            if cache is not None:
                if use_masked:
                    dx, dy = e_dx, e_dy
                cache.chunks.append(
                    _CachedChunk(
                        tile_indices=tile_indices,
                        tile_w=tile_w,
                        tile_h=tile_h,
                        lengths=lengths,
                        ids=ids,
                        opac=opac,
                        origin_x=origin_x,
                        origin_y=origin_y,
                        flat_index=flat_index,
                        alpha=alpha,
                        t_before=t_before,
                        weights=weights,
                        clamped=clamped,
                        dx=dx,
                        dy=dy,
                        active=active,
                        active_tg=active_tg,
                    )
                )
            chunk_index += 1

    workloads: list[TileWorkload] = []
    if record_workloads:
        empty_counts = np.zeros(0, dtype=np.int64)
        workloads = [
            TileWorkload(
                tile_index=tile_index,
                num_gaussians=int(tile_lengths[tile_index]),
                pairs_computed=int(pairs_computed[tile_index]),
                pairs_blended=int(pairs_blended[tile_index]),
                per_pixel_counts=per_pixel_counts.get(tile_index, empty_counts),
            )
            for tile_index in range(num_tiles_total)
        ]
    stats = _BucketedStats(
        max_alpha=max_alpha, noncontrib=noncontrib, touched=touched, workloads=workloads
    )
    return color, depth, silhouette, final_t, stats


def build_forward_cache(
    projection: ProjectionResult,
    tile_grid: TileGrid,
    colors: np.ndarray,
    opacities_sigmoid: np.ndarray,
    height: int,
    width: int,
    dtype=np.float64,
    cache: ForwardCache | None = None,
) -> ForwardCache:
    """Populate a :class:`ForwardCache` without compositing any images.

    Used by the bucketed backward pass when its ``RasterizationResult``
    does not carry a (still valid) cache: the blending intermediates are
    recomputed once, bucketed, which is still far cheaper than the
    reference backward's per-tile re-runs of :func:`tile_forward`.
    """
    cache = cache or ForwardCache()
    _render_bucketed(
        projection,
        tile_grid,
        colors,
        opacities_sigmoid,
        height,
        width,
        np.dtype(dtype),
        cache=cache,
        write_images=False,
    )
    return cache


def _add_back_culled_stats(
    tile_grid: TileGrid,
    touched: np.ndarray,
    noncontrib: np.ndarray,
    contribution_threshold: float,
) -> None:
    """Fold culled pairs back into the per-Gaussian contribution statistics.

    Every pair the tile assignment culled has exactly-zero blending weight
    at each of its pixels, so in the classic sigma-radius tables it would
    have counted every tile pixel as touched and (for any positive
    threshold) as non-contributory.  Adding those pixels back makes
    ``gaussian_pixels_touched`` / ``gaussian_noncontrib_pixels`` — and
    therefore AGS's contribution-aware skipping decisions — invariant to
    culling, keeping culling a pure speedup.
    """
    culled = tile_grid.culled_pixels
    touched += culled
    if contribution_threshold > 0.0:
        noncontrib += culled


def render(
    model: GaussianModel,
    camera: Camera,
    active_mask: np.ndarray | None = None,
    contribution_threshold: float = ALPHA_MIN,
    record_workloads: bool = True,
    tile_size: int = TILE_SIZE,
    projection: ProjectionResult | None = None,
    tile_grid: TileGrid | None = None,
    record_contributions: bool = True,
    dtype=None,
    backend: str | None = None,
    cache: ForwardCache | None = None,
    perf=None,
) -> RasterizationResult:
    """Render ``model`` from ``camera``.

    Args:
        model: the Gaussian model.
        camera: the viewpoint to render.
        active_mask: optional (N,) boolean mask; Gaussians with a False
            entry are skipped entirely (AGS selective mapping).
        contribution_threshold: alpha threshold below which a Gaussian is
            counted as non-contributory for a pixel (paper's ThreshAlpha).
        record_workloads: collect per-tile workload statistics.
        tile_size: tile edge length in pixels.
        projection: optionally reuse a precomputed projection.
        tile_grid: optionally reuse a precomputed tile grid.
        record_contributions: collect the per-Gaussian contribution
            statistics (``gaussian_max_alpha`` / ``gaussian_noncontrib_pixels``
            / ``gaussian_pixels_touched``, culled pairs added back).  Both
            backends honour it independently of ``record_workloads``: when
            False the three arrays come back zero-filled.  Only AGS's
            key-frame mapping reads them.
        dtype: floating dtype of the bucketed backend (default float64);
            ``np.float32`` roughly halves time and memory at ~1e-4 image
            error (statistics counts may shift at threshold boundaries in
            float32).  The reference backend always computes in float64.
        backend: ``"bucketed"`` (default) or ``"reference"`` — the
            original per-tile loop kept as the executable specification.
        cache: optional :class:`ForwardCache` to fill with the blending
            intermediates (bucketed backend only); the fused backward pass
            then reuses them instead of re-running the forward.
        perf: optional :class:`repro.perf.PerfRecorder`; tile assignment
            feeds it the ``raster.pairs_total`` / ``raster.pairs_culled``
            and ``raster.pixels_total`` / ``raster.pixels_culled``
            counters.

    Returns:
        A :class:`RasterizationResult`.
    """
    backend = backend or "bucketed"
    if backend not in _RENDER_BACKENDS:
        raise ValueError(f"unknown render backend {backend!r}; expected one of {_RENDER_BACKENDS}")
    if cache is not None and backend != "bucketed":
        raise ValueError("cache= requires backend='bucketed'")

    intr = camera.intrinsics
    height, width = intr.height, intr.width
    if projection is None:
        projection = project_gaussians(model, camera)
    if active_mask is not None:
        projection = dataclasses.replace(
            projection, visible=projection.visible & np.asarray(active_mask, dtype=bool)
        )
    if tile_grid is None:
        tile_grid = assign_tiles(projection, width, height, tile_size, perf=perf)

    count = len(model)
    opac = model.alphas
    mask_out = None if active_mask is None else np.asarray(active_mask, dtype=bool)

    if backend == "bucketed":
        color, depth, silhouette, final_t, stats = _render_bucketed(
            projection,
            tile_grid,
            model.colors,
            opac,
            height,
            width,
            np.dtype(np.float64 if dtype is None else dtype),
            record_workloads=record_workloads,
            record_contributions=record_contributions,
            contribution_threshold=contribution_threshold,
            cache=cache,
        )
        if record_contributions:
            _add_back_culled_stats(
                tile_grid, stats.touched, stats.noncontrib, contribution_threshold
            )
        return RasterizationResult(
            color=color,
            depth=depth,
            silhouette=silhouette,
            final_transmittance=final_t,
            projection=projection,
            tile_grid=tile_grid,
            gaussian_max_alpha=stats.max_alpha,
            gaussian_noncontrib_pixels=stats.noncontrib,
            gaussian_pixels_touched=stats.touched,
            tile_workloads=stats.workloads,
            active_mask=mask_out,
            forward_cache=cache,
            forward_cache_generation=cache.generation if cache is not None else -1,
        )

    color = np.zeros((height, width, 3))
    depth = np.zeros((height, width))
    silhouette = np.zeros((height, width))
    final_t = np.ones((height, width))

    max_alpha = np.zeros(count)
    noncontrib = np.zeros(count, dtype=np.int64)
    touched = np.zeros(count, dtype=np.int64)
    workloads = []

    for tile_index, table in enumerate(tile_grid.tables):
        if len(table) == 0:
            if record_workloads:
                workloads.append(
                    TileWorkload(
                        tile_index=tile_index,
                        num_gaussians=0,
                        pairs_computed=0,
                        pairs_blended=0,
                        per_pixel_counts=np.zeros(0, dtype=np.int64),
                    )
                )
            continue
        pixels, (x0, x1, y0, y1) = _tile_pixel_centers(tile_grid, table)
        data = tile_forward(table, pixels, projection, model.colors, opac)

        tile_h, tile_w = y1 - y0, x1 - x0
        color[y0:y1, x0:x1] = data["color"].reshape(tile_h, tile_w, 3)
        depth[y0:y1, x0:x1] = data["depth"].reshape(tile_h, tile_w)
        silhouette[y0:y1, x0:x1] = data["silhouette"].reshape(tile_h, tile_w)
        final_t[y0:y1, x0:x1] = data["final_t"].reshape(tile_h, tile_w)

        ids = table.gaussian_ids
        alpha = data["alpha"]
        if record_contributions:
            # Contribution is judged on the blending weight T * alpha (the
            # actual influence on the pixel color), which also captures
            # occlusion by closer Gaussians — the quantity the paper's GS
            # logging table extracts from the GPEs.
            weights = data["weights"]
            np.maximum.at(max_alpha, ids, alpha.max(axis=0))
            noncontrib_tile = (weights < contribution_threshold).sum(axis=0)
            np.add.at(noncontrib, ids, noncontrib_tile)
            np.add.at(touched, ids, alpha.shape[0])

        if record_workloads:
            blended_mask = alpha > 0.0
            # Only entries inside the pair's active interval count as
            # evaluated (matches the bucketed engine's accounting; pixels
            # are row-major in the tile).
            rows = np.arange(alpha.shape[0]) // tile_w
            cols = np.arange(alpha.shape[0]) % tile_w
            table_iv = table.intervals
            computed_mask = (
                ~data["terminated"]
                & (rows[:, None] >= table_iv[None, :, 0])
                & (rows[:, None] < table_iv[None, :, 1])
                & (cols[:, None] >= table_iv[None, :, 2])
                & (cols[:, None] < table_iv[None, :, 3])
            )
            workloads.append(
                TileWorkload(
                    tile_index=tile_index,
                    num_gaussians=len(ids),
                    pairs_computed=int(computed_mask.sum()),
                    pairs_blended=int(blended_mask.sum()),
                    per_pixel_counts=blended_mask.sum(axis=1).astype(np.int64),
                )
            )

    if record_contributions:
        _add_back_culled_stats(tile_grid, touched, noncontrib, contribution_threshold)
    return RasterizationResult(
        color=color,
        depth=depth,
        silhouette=silhouette,
        final_transmittance=final_t,
        projection=projection,
        tile_grid=tile_grid,
        gaussian_max_alpha=max_alpha,
        gaussian_noncontrib_pixels=noncontrib,
        gaussian_pixels_touched=touched,
        tile_workloads=workloads,
        active_mask=mask_out,
    )
