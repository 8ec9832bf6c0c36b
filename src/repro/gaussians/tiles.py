"""Tile assignment: map projected Gaussians to screen tiles.

The rasterizer processes the image in square tiles (``TILE_SIZE`` pixels on
a side).  Every visible Gaussian is assigned to all tiles its bounding box
overlaps; the per-tile Gaussian lists are the "Gaussian tables" of the
paper (Fig. 2, step 2) and are also the unit of workload the AGS hardware
simulator reasons about.

Tile assignment is an exact sparse engine with two culling stages; the
classic 3-sigma bounding-box expansion survives only as the workload
baseline the removed work is measured against.

Pair culling: the (opacity-aware) bounding-box expansion still
over-approximates each splat's support, so many candidate (tile,
Gaussian) pairs have an alpha below ``ALPHA_MIN`` at *every* pixel center
of the tile — the rasterizer would zero them all, making the pair pure
overhead.  A vectorized conic-vs-tile test removes exactly those pairs:
it minimizes the convex conic quadratic ``q`` over the tile's
pixel-center rectangle (closed form — zero if the splat center lies
inside, otherwise the minimum over the four clamped edge parabolas) and
drops the pair when even that lower bound keeps alpha below
``ALPHA_MIN``.  The cull is provably conservative, so rendered images,
gradients and contribution statistics are bit-identical to the classic
sigma-radius tables; only the workload shrinks.  The removed workload is
reported via ``TileGrid.pairs_total`` / ``TileGrid.pairs_culled`` (and the
``raster.pairs_total`` / ``raster.pairs_culled`` perf counters), and
``TileGrid.culled_pixels`` records, per Gaussian, how many would-have-been
touched pixels the cull removed relative to the sigma-radius tables — the
rasterizer adds these back into the contribution statistics so AGS's
contribution-aware decisions are unchanged by culling.

Pixel-level sparsity: the second, sub-tile culling stage.  For every
*retained* (tile, Gaussian) pair the same closed-form conic minimization
is applied per pixel row and per pixel column of the tile: minimizing the convex
quadratic ``q`` over one row (column) strip is exactly the clamped edge
parabola of the rectangle test, evaluated at that row's (column's) pixel
centers.  Rows/columns whose strip minimum keeps alpha below
``ALPHA_MIN`` are provably all-zero in the blending loop, and because a
partial minimum of a convex function is convex in the remaining
variable, the surviving rows (columns) form one contiguous interval —
each pair's active pixels are the ``[r0, r1) x [c0, c1)`` sub-rectangle
stored in ``GaussianTable.intervals``.  The rasterizer evaluates only
those (pair, pixel) entries (every excluded pixel would have been zeroed
by the alpha cut-off anyway, so images, statistics and gradients are
bit-identical); the removed per-pixel workload is reported via
``TileGrid.pixels_total`` / ``TileGrid.pixels_culled`` and the
``raster.pixels_total`` / ``raster.pixels_culled`` perf counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.projection import ProjectionResult, conic_strip_min

__all__ = [
    "TILE_SIZE",
    "TileGrid",
    "GaussianTable",
    "build_tile_grid",
    "assign_tiles",
]

TILE_SIZE = 8

# Slack (in log-alpha) subtracted from the cull comparison so float
# round-off in the closed-form minimum can never drop a pair whose alpha
# sits exactly on the ALPHA_MIN boundary: a pair is culled only when its
# best-case alpha is below ALPHA_MIN * (1 - ~2e-9).
_CULL_SLACK = 4e-9


@dataclasses.dataclass
class GaussianTable:
    """Gaussians assigned to one tile, ordered by increasing depth.

    Attributes:
        tile_x, tile_y: tile coordinates in the tile grid.
        gaussian_ids: indices into the Gaussian model, sorted by depth.
        depths: camera-space depths matching ``gaussian_ids``.
        intervals: (len, 4) int64 per-pair active-pixel intervals
            ``(r0, r1, c0, c1)`` (half-open, tile-local rows and columns,
            within the tile), aligned with ``gaussian_ids``.  Outside the
            ``[r0, r1) x [c0, c1)`` sub-rectangle the pair's alpha is
            provably below ``ALPHA_MIN``.
    """

    tile_x: int
    tile_y: int
    gaussian_ids: np.ndarray
    depths: np.ndarray
    intervals: np.ndarray

    def __len__(self) -> int:
        return len(self.gaussian_ids)


@dataclasses.dataclass
class TileGrid:
    """The image partitioned into tiles with per-tile Gaussian tables.

    Besides the tables, a grid records what culling removed:
    ``pairs_total`` counts the (tile, Gaussian) pairs of the classic
    sigma-radius bounding-box expansion (the workload baseline),
    ``pairs_culled`` how many of them opacity-aware radii and the conic
    tile test dropped, and ``culled_pixels`` the per-Gaussian pixel counts
    of the dropped pairs (all provably zero-alpha) that the
    statistics-recording render adds back so contribution statistics are
    invariant to culling.

    ``pixels_total`` counts the (pair, pixel) blending entries of the
    *retained* pairs (the per-pixel workload the tables imply after pair
    culling) and ``pixels_culled`` how many of them the sub-tile interval
    stage removed.
    """

    width: int
    height: int
    tile_size: int
    tiles_x: int
    tiles_y: int
    tables: list[GaussianTable]
    pairs_total: int
    pairs_culled: int
    culled_pixels: np.ndarray = dataclasses.field(repr=False)
    pixels_total: int
    pixels_culled: int
    # Per-shape pixel-offset cache shared by every consumer of this grid
    # (forward tiles, bucketed backward, stats recording).  A grid only has
    # a handful of distinct tile shapes (interior + ragged edge tiles), so
    # the meshgrid work happens once per shape instead of once per tile per
    # render/backward call.
    _shape_cache: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tables)

    def tile_offsets(self, tile_w: int, tile_h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached row-major local pixel offsets for a ``tile_w`` x ``tile_h`` tile.

        Returns ``(col_off, row_off, centers)``: (P,) int64 column/row
        offsets of each pixel inside the tile and the matching (P, 2)
        float64 local pixel-center coordinates (offset + 0.5).  The arrays
        are cached per shape and shared — treat them as read-only.
        """
        key = (tile_w, tile_h)
        cached = self._shape_cache.get(key)
        if cached is None:
            col_off = np.tile(np.arange(tile_w, dtype=np.int64), tile_h)
            row_off = np.repeat(np.arange(tile_h, dtype=np.int64), tile_w)
            centers = np.stack([col_off + 0.5, row_off + 0.5], axis=1)
            cached = (col_off, row_off, centers)
            self._shape_cache[key] = cached
        return cached

    def pixel_centers(self, table: GaussianTable) -> np.ndarray:
        """Return (P, 2) row-major pixel-center coordinates of a tile.

        Equivalent to the per-tile ``meshgrid`` construction the renderer
        and backward pass used to repeat for every tile on every call, but
        built from the per-shape offset cache (only the origin shift is
        computed per tile).
        """
        x0, _, y0, _ = self.pixel_bounds(table)
        _, _, centers = self.tile_offsets(*self.tile_shape(table))
        return centers + np.array([float(x0), float(y0)])

    def tile_shape(self, table: GaussianTable) -> tuple[int, int]:
        """Return ``(tile_w, tile_h)`` of a tile (edge tiles may be ragged)."""
        x0, x1, y0, y1 = self.pixel_bounds(table)
        return x1 - x0, y1 - y0

    def table_at(self, tile_x: int, tile_y: int) -> GaussianTable:
        """Return the Gaussian table of tile ``(tile_x, tile_y)``."""
        return self.tables[tile_y * self.tiles_x + tile_x]

    def pixel_bounds(self, table: GaussianTable) -> tuple[int, int, int, int]:
        """Return ``(x0, x1, y0, y1)`` pixel bounds of a tile (x1/y1 exclusive)."""
        x0 = table.tile_x * self.tile_size
        y0 = table.tile_y * self.tile_size
        x1 = min(x0 + self.tile_size, self.width)
        y1 = min(y0 + self.tile_size, self.height)
        return x0, x1, y0, y1

    def total_assignments(self) -> int:
        """Total number of (Gaussian, tile) pairs — the rendering workload."""
        return int(sum(len(table) for table in self.tables))

    def occupancy(self) -> np.ndarray:
        """Return per-tile Gaussian counts as a (tiles_y, tiles_x) array."""
        counts = np.array([len(table) for table in self.tables])
        return counts.reshape(self.tiles_y, self.tiles_x)


def build_tile_grid(width: int, height: int, tile_size: int = TILE_SIZE) -> tuple[int, int]:
    """Return the number of tiles ``(tiles_x, tiles_y)`` covering the image."""
    tiles_x = (width + tile_size - 1) // tile_size
    tiles_y = (height + tile_size - 1) // tile_size
    return tiles_x, tiles_y


def _tile_aabb_spans(
    cx: np.ndarray,
    cy: np.ndarray,
    radius: np.ndarray,
    tile_size: int,
    tiles_x: int,
    tiles_y: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clipped per-Gaussian tile ranges of the ``radius`` bounding boxes."""
    tx0 = np.maximum(np.floor_divide(cx - radius, tile_size), 0).astype(np.int64)
    tx1 = np.minimum(np.floor_divide(cx + radius, tile_size), tiles_x - 1).astype(np.int64)
    ty0 = np.maximum(np.floor_divide(cy - radius, tile_size), 0).astype(np.int64)
    ty1 = np.minimum(np.floor_divide(cy + radius, tile_size), tiles_y - 1).astype(np.int64)
    return tx0, tx1, ty0, ty1


def _precise_keep_mask(
    projection: ProjectionResult,
    gid_pairs: np.ndarray,
    tile_pairs: np.ndarray,
    tiles_x: int,
    width: int,
    height: int,
    tile_size: int,
) -> np.ndarray:
    """True for candidate pairs whose splat can reach ``ALPHA_MIN`` in the tile.

    Minimizes the conic quadratic ``q(d) = a00 dx^2 + 2 a01 dx dy +
    a11 dy^2`` (``d`` = pixel center minus splat center) over the tile's
    pixel-center rectangle.  ``q`` is convex, so the minimum is zero when
    the center lies inside the rectangle and otherwise sits on one of the
    four edges, where it is a clamped 1-D parabola with a closed form.
    The continuous minimum lower-bounds ``q`` at every pixel center, so
    dropping pairs with ``q_min > tau`` (best-case alpha below
    ``ALPHA_MIN``) is exact: no surviving-alpha pair is ever dropped.
    """
    conics = projection.conics
    a00 = conics[gid_pairs, 0, 0]
    a01 = conics[gid_pairs, 0, 1]
    a11 = conics[gid_pairs, 1, 1]
    cx = projection.means2d[gid_pairs, 0]
    cy = projection.means2d[gid_pairs, 1]
    tau_pairs = projection.tau[gid_pairs]

    tile_x = tile_pairs % tiles_x
    tile_y = tile_pairs // tiles_x
    x0 = tile_x * tile_size
    y0 = tile_y * tile_size
    # Pixel-center rectangle of the tile, in splat-offset coordinates.
    lx = x0 + 0.5 - cx
    ux = np.minimum(x0 + tile_size, width) - 0.5 - cx
    ly = y0 + 0.5 - cy
    uy = np.minimum(y0 + tile_size, height) - 0.5 - cy

    inside = (lx <= 0.0) & (ux >= 0.0) & (ly <= 0.0) & (uy >= 0.0)

    # Minimum over the rectangle boundary: the least of the four clamped
    # edge parabolas (vertical edges dx = lx/ux, horizontal edges dy = ly/uy).
    q_min = np.minimum(
        np.minimum(
            conic_strip_min(a00, a01, a11, lx, ly, uy, fixed="x"),
            conic_strip_min(a00, a01, a11, ux, ly, uy, fixed="x"),
        ),
        np.minimum(
            conic_strip_min(a00, a01, a11, ly, lx, ux, fixed="y"),
            conic_strip_min(a00, a01, a11, uy, lx, ux, fixed="y"),
        ),
    )
    q_min = np.where(inside, 0.0, q_min)
    # Degenerate conics (non-positive diagonal, non-finite entries) fall
    # back to keeping the pair — conservative, never changes output.
    well_posed = (a00 > 0.0) & (a11 > 0.0) & np.isfinite(q_min)
    return ~well_posed | (q_min <= tau_pairs + 2.0 * _CULL_SLACK)


def _active_intervals(
    projection: ProjectionResult,
    gid_pairs: np.ndarray,
    tile_x: np.ndarray,
    tile_y: np.ndarray,
    tile_w: np.ndarray,
    tile_h: np.ndarray,
    tile_size: int,
) -> np.ndarray:
    """Per-pair active row/column intervals ``(r0, r1, c0, c1)``, half-open.

    For every retained (tile, Gaussian) pair the conic quadratic is
    minimized over each pixel *row strip* (``dy`` fixed at the row center,
    ``dx`` ranging over the tile's pixel-center columns) and each pixel
    *column strip* — the same clamped-parabola closed form as the
    tile-rectangle cull, applied per strip.  A strip whose minimum keeps
    ``q > tau`` (plus the same float-safety slack as the pair cull)
    contains no pixel with alpha >= ``ALPHA_MIN``, so excluding it cannot
    change rendered output.  Because a partial minimum of a convex
    function is convex, the surviving rows (columns) are contiguous; the
    interval is taken from first to last surviving strip, which remains a
    conservative superset even for ill-conditioned conics.  Degenerate
    conics (non-positive diagonal, non-finite minima) keep the full tile.

    Pairs with no surviving row or column (the tile test keeps a pair
    whose continuous minimum reaches the cut-off between pixel centers)
    get the empty interval ``(0, 0, 0, 0)``.

    Pairs whose inscribed active circle (``sqrt(limit / lambda_max)``)
    provably covers every pixel center of the tile take a closed-form
    full-tile fast path and skip the strip scan entirely — in dense maps
    that is most pairs, and keeping the full tile is always conservative.
    """
    conics = projection.conics
    a00 = conics[gid_pairs, 0, 0]
    a01 = conics[gid_pairs, 0, 1]
    a11 = conics[gid_pairs, 1, 1]
    cx = projection.means2d[gid_pairs, 0]
    cy = projection.means2d[gid_pairs, 1]
    limit = projection.tau[gid_pairs] + 2.0 * _CULL_SLACK

    x0 = tile_x * tile_size
    y0 = tile_y * tile_size
    # Pixel-center rectangle of the tile, in splat-offset coordinates.
    lx = x0 + 0.5 - cx
    ux = x0 + tile_w - 0.5 - cx
    ly = y0 + 0.5 - cy
    uy = y0 + tile_h - 0.5 - cy

    # Full-tile fast path: q(d) <= lambda_max |d|^2, so every pixel within
    # distance sqrt(limit / lambda_max) of the splat center is provably
    # active.  A pair whose farthest tile pixel center sits inside that
    # inscribed circle is active on its whole tile — the dominant case in
    # dense maps — and needs no strip scan.  Keeping the full tile is
    # always a conservative superset, so float rounding here can only
    # trade culling opportunity, never correctness; NaN/inf comparisons
    # evaluate False and drop to the exact strip scan below.
    lam_max = 0.5 * (a00 + a11) + np.sqrt(0.25 * (a00 - a11) ** 2 + a01 * a01)
    far_x = np.maximum(np.abs(lx), np.abs(ux))
    far_y = np.maximum(np.abs(ly), np.abs(uy))
    with np.errstate(invalid="ignore"):
        full = (far_x * far_x + far_y * far_y) * lam_max <= limit
    intervals = np.empty((len(gid_pairs), 4), dtype=np.int64)
    intervals[:, 0] = 0
    intervals[:, 1] = tile_h
    intervals[:, 2] = 0
    intervals[:, 3] = tile_w
    if full.all():
        return intervals
    idx = np.flatnonzero(~full)
    a00 = a00[idx]
    a01 = a01[idx]
    a11 = a11[idx]
    limit = limit[idx]
    lx = lx[idx]
    ux = ux[idx]
    ly = ly[idx]
    uy = uy[idx]
    x0 = x0[idx]
    y0 = y0[idx]
    cx = cx[idx]
    cy = cy[idx]
    tile_w = tile_w[idx]
    tile_h = tile_h[idx]

    n = len(idx)
    steps = np.arange(tile_size)
    # Both axes in one stacked (pair, axis, strip) evaluation: axis slot 0
    # holds row strips (dy fixed, minimize over dx in [lx, ux]), slot 1
    # column strips (dx fixed, minimize over dy in [ly, uy]).  The column
    # case is the row formula with the conic diagonal swapped, so a single
    # conic_strip_min call covers both — half the NumPy kernel dispatches
    # of two per-axis passes.  The column sum reassociates (a11 dy^2 first
    # instead of last); any rounding difference is within the _CULL_SLACK
    # margin already carried by ``limit``, so the interval stays a
    # conservative superset of the alpha >= ALPHA_MIN support.
    amin = np.empty((n, 2, 1))
    amin[:, 0, 0] = a00
    amin[:, 1, 0] = a11
    aoth = np.empty((n, 2, 1))
    aoth[:, 0, 0] = a11
    aoth[:, 1, 0] = a00
    lo = np.empty((n, 2, 1))
    lo[:, 0, 0] = lx
    lo[:, 1, 0] = ly
    hi = np.empty((n, 2, 1))
    hi[:, 0, 0] = ux
    hi[:, 1, 0] = uy
    origin = np.empty((n, 2, 1))
    origin[:, 0, 0] = y0
    origin[:, 1, 0] = x0
    center = np.empty((n, 2, 1))
    center[:, 0, 0] = cy
    center[:, 1, 0] = cx
    c_strips = origin + (steps + 0.5) - center
    with np.errstate(divide="ignore", invalid="ignore"):
        q = conic_strip_min(amin, a01[:, None, None], aoth, c_strips, lo, hi, fixed="y")

    real = np.empty((n, 2, tile_size), dtype=bool)
    real[:, 0, :] = steps[None, :] < tile_h[:, None]
    real[:, 1, :] = steps[None, :] < tile_w[:, None]
    act = real & (q <= limit[:, None, None])
    # A non-finite strip sum implies a non-finite (or overflowed) strip
    # minimum somewhere — conservative either way, since degenerate pairs
    # keep the full tile.
    degenerate = ~((a00 > 0.0) & (a11 > 0.0) & np.isfinite(q.sum(axis=(1, 2))))
    if degenerate.any():
        act[degenerate] = real[degenerate]

    # First/last active strip per axis (a conservative hull even if float
    # round-off ever nicked a middle strip out of the convex run); an
    # all-false axis yields first = 0 and, via the any-mask product,
    # last = 0 — the canonical empty interval.
    first = act.argmax(axis=2)
    last = (tile_size - act[:, :, ::-1].argmax(axis=2)) * act.any(axis=2)
    sub = np.empty((n, 4), dtype=np.int64)
    sub[:, 0] = first[:, 0]
    sub[:, 1] = last[:, 0]
    sub[:, 2] = first[:, 1]
    sub[:, 3] = last[:, 1]
    # An empty axis means the pair touches nothing: normalize both axes to
    # the canonical empty interval so active-pixel counts multiply cleanly.
    empty = (sub[:, 1] == sub[:, 0]) | (sub[:, 3] == sub[:, 2])
    sub[empty] = 0
    intervals[idx] = sub
    return intervals


def assign_tiles(
    projection: ProjectionResult,
    width: int,
    height: int,
    tile_size: int = TILE_SIZE,
    perf=None,
) -> TileGrid:
    """Assign projected Gaussians to tiles and depth-sort every table.

    Candidate pairs come from the opacity-aware bounding boxes; the conic
    tile test then removes every pair whose alpha is provably below
    ``ALPHA_MIN`` at all pixel centers of the tile, and every retained
    pair gets its active row/column interval.  Both stages are exact:
    rendered output is unchanged, only the workload shrinks.

    Args:
        projection: output of :func:`repro.gaussians.projection.project_gaussians`.
        width, height: image size in pixels.
        tile_size: tile edge length in pixels.
        perf: optional :class:`repro.perf.PerfRecorder`; receives the
            ``raster.pairs_total`` / ``raster.pairs_culled`` and
            ``raster.pixels_total`` / ``raster.pixels_culled`` counters.

    Returns:
        A :class:`TileGrid` whose tables list the overlapping Gaussians of
        each tile sorted front-to-back.
    """
    tiles_x, tiles_y = build_tile_grid(width, height, tile_size)
    num_tiles = tiles_x * tiles_y
    visible_ids = np.nonzero(projection.visible)[0]
    depths = projection.depths
    culled_pixels = np.zeros(len(projection.visible), dtype=np.int64)
    pairs_total = pairs_culled = pixels_total = pixels_culled = 0
    gid_sorted = np.zeros(0, dtype=np.int64)
    depths_sorted = np.zeros(0)
    intervals_sorted = np.zeros((0, 4), dtype=np.int64)
    bounds = np.zeros(num_tiles + 1, dtype=np.int64)

    # Vectorized (Gaussian, tile) pair expansion: per-Gaussian tile ranges,
    # one flat pair list, then a stable sort by tile.  Pairs are generated
    # in ascending Gaussian order, so the stable sort preserves the
    # ascending-id order inside every tile that the per-Gaussian append
    # loop used to produce.
    if len(visible_ids):
        cx = projection.means2d[visible_ids, 0]
        cy = projection.means2d[visible_ids, 1]
        radius = projection.radii[visible_ids]
        tx0, tx1, ty0, ty1 = _tile_aabb_spans(cx, cy, radius, tile_size, tiles_x, tiles_y)
        span_x = np.maximum(tx1 - tx0 + 1, 0)
        span_y = np.maximum(ty1 - ty0 + 1, 0)
        counts = span_x * span_y
        total = int(counts.sum())

        gid_pairs = np.repeat(visible_ids, counts)
        pair_starts = np.cumsum(counts) - counts
        local = np.arange(total) - np.repeat(pair_starts, counts)
        span_x_rep = np.repeat(span_x, counts)
        tile_pairs = (
            (np.repeat(ty0, counts) + local // span_x_rep) * tiles_x
            + np.repeat(tx0, counts)
            + local % span_x_rep
        )

        # Workload baseline: the classic sigma-radius expansion.  Its
        # per-Gaussian pair and pixel counts have closed forms (the tile
        # columns/rows of a clipped AABB are contiguous).
        sx0, sx1, sy0, sy1 = _tile_aabb_spans(
            cx, cy, projection.radii_sigma[visible_ids], tile_size, tiles_x, tiles_y
        )
        base_counts = np.maximum(sx1 - sx0 + 1, 0) * np.maximum(sy1 - sy0 + 1, 0)
        base_width = np.maximum(np.minimum((sx1 + 1) * tile_size, width) - sx0 * tile_size, 0)
        base_height = np.maximum(np.minimum((sy1 + 1) * tile_size, height) - sy0 * tile_size, 0)
        base_pixels = np.where(base_counts > 0, base_width * base_height, 0)
        pairs_total = int(base_counts.sum())

        keep = _precise_keep_mask(
            projection, gid_pairs, tile_pairs, tiles_x, width, height, tile_size
        )
        gid_pairs = gid_pairs[keep]
        tile_pairs = tile_pairs[keep]
        pairs_culled = pairs_total - len(gid_pairs)

        # Per-pair tile shapes of the *retained* pairs (edge tiles ragged).
        tile_x = tile_pairs % tiles_x
        tile_y = tile_pairs // tiles_x
        tile_w_pairs = np.minimum((tile_x + 1) * tile_size, width) - tile_x * tile_size
        tile_h_pairs = np.minimum((tile_y + 1) * tile_size, height) - tile_y * tile_size
        tile_pix = tile_w_pairs * tile_h_pairs
        pixels_total = int(tile_pix.sum())

        # Pixels of the dropped (all provably zero-alpha) pairs, per
        # Gaussian: the stats render adds them back so contribution
        # statistics match the sigma-radius tables exactly.
        survived = np.bincount(gid_pairs, weights=tile_pix, minlength=len(culled_pixels))
        culled_pixels[visible_ids] = base_pixels
        culled_pixels -= survived.astype(np.int64)

        intervals = _active_intervals(
            projection, gid_pairs, tile_x, tile_y, tile_w_pairs, tile_h_pairs, tile_size
        )
        active_pix = (intervals[:, 1] - intervals[:, 0]) * (intervals[:, 3] - intervals[:, 2])
        pixels_culled = pixels_total - int(active_pix.sum())

        # One global stable sort by (tile, depth): per-table id/depth/interval
        # arrays then fall out as contiguous zero-copy slices.  Tie-breaking
        # matches the former per-tile stable depth argsort exactly (lexsort is
        # stable, primary key last), so table order — and therefore every
        # downstream image and statistic — is bit-identical.
        order = np.lexsort((depths[gid_pairs], tile_pairs))
        tile_sorted = tile_pairs[order]
        gid_sorted = gid_pairs[order]
        depths_sorted = depths[gid_sorted]
        intervals_sorted = intervals[order]
        bounds = np.searchsorted(tile_sorted, np.arange(num_tiles + 1))

    if perf is not None:
        perf.count("raster.pairs_total", pairs_total)
        perf.count("raster.pairs_culled", pairs_culled)
        perf.count("raster.pixels_total", pixels_total)
        perf.count("raster.pixels_culled", pixels_culled)

    bounds = bounds.tolist()
    tables = [
        GaussianTable(
            tile_x=tile_index % tiles_x,
            tile_y=tile_index // tiles_x,
            gaussian_ids=gid_sorted[start:end],
            depths=depths_sorted[start:end],
            intervals=intervals_sorted[start:end],
        )
        for tile_index, (start, end) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    return TileGrid(
        width=width,
        height=height,
        tile_size=tile_size,
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        tables=tables,
        pairs_total=pairs_total,
        pairs_culled=pairs_culled,
        culled_pixels=culled_pixels,
        pixels_total=pixels_total,
        pixels_culled=pixels_culled,
    )
