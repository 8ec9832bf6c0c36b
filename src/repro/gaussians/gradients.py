"""Analytic backward pass for the 3DGS rasterizer.

Implements step 4 of the pipeline in the paper (Fig. 2): given gradients
of a loss with respect to the rendered color / depth / silhouette images,
compute gradients with respect to every Gaussian parameter (means,
log-scales, quaternions, opacity logits, colors) and, optionally, with
respect to the camera pose (used by tracking, which holds the Gaussians
fixed and updates the pose).

The derivation follows the reference 3DGS implementation.  Two standard
simplifications are made and documented here:

* the dependence of the perspective Jacobian ``J`` on the Gaussian mean is
  ignored in the covariance chain (second-order effect);
* the camera-pose gradient flows through the projected means and depths
  (the dominant path) but not through the projected covariances.

Both approximations preserve descent directions, which is what the SLAM
optimizers need; the unit tests verify agreement with finite differences
for the exact paths and descent-direction consistency for the approximate
ones.

Two accumulation backends produce the image-space gradient sums:

* ``backend="bucketed"`` consumes the padded size-bucket intermediates of
  the forward pass — either the :class:`~repro.gaussians.rasterizer.ForwardCache`
  attached to the ``RasterizationResult`` (the fused fast path used by
  tracking and mapping: one forward per optimizer iteration, backward
  reuses its cache) or, when no valid cache is present, a cache rebuilt
  once via :func:`~repro.gaussians.rasterizer.build_forward_cache`.  The
  per-pixel suffix sums collapse to a single exclusive suffix-cumsum of
  ``weights * u`` where ``u`` folds the color/depth/silhouette chain
  terms, and per-Gaussian accumulation uses ``bincount`` scatter-adds.
* ``backend="reference"`` is the original per-tile loop that re-runs
  :func:`~repro.gaussians.rasterizer.tile_forward` for every tile — the
  executable specification, property-tested against the bucketed engine
  in ``tests/test_backward_fused.py`` (agreement to <= 1e-9).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import (
    RasterizationResult,
    build_forward_cache,
    tile_forward,
)
from repro.perf import NULL_RECORDER, PerfRecorder

__all__ = ["GaussianGradients", "PoseGradients", "pose_backward", "render_backward"]

_BACKWARD_BACKENDS = ("bucketed", "reference")


@dataclasses.dataclass
class GaussianGradients:
    """Gradients with respect to the Gaussian parameters."""

    means: np.ndarray
    log_scales: np.ndarray
    quats: np.ndarray
    opacities: np.ndarray
    colors: np.ndarray

    @classmethod
    def zeros(cls, count: int) -> "GaussianGradients":
        """Return zero gradients for ``count`` Gaussians."""
        return cls(
            means=np.zeros((count, 3)),
            log_scales=np.zeros((count, 3)),
            quats=np.zeros((count, 4)),
            opacities=np.zeros(count),
            colors=np.zeros((count, 3)),
        )

    def as_dict(self) -> dict[str, np.ndarray]:
        """Return the gradients as a name -> array dict (optimizer input)."""
        return {
            "means": self.means,
            "log_scales": self.log_scales,
            "quats": self.quats,
            "opacities": self.opacities,
            "colors": self.colors,
        }

    def norm(self) -> float:
        """Return the total L2 norm across all parameter gradients."""
        total = 0.0
        for value in self.as_dict().values():
            total += float(np.sum(value**2))
        return float(np.sqrt(total))


@dataclasses.dataclass
class PoseGradients:
    """Gradient with respect to a left SE(3) perturbation of the camera pose.

    The 6-vector ``(rho, omega)`` matches the convention of
    :meth:`repro.gaussians.camera.Pose.perturbed`: applying
    ``pose.perturbed(-lr * vector)`` performs a gradient-descent step.
    """

    translation: np.ndarray
    rotation: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        """Return the stacked 6-vector ``(rho, omega)``."""
        return np.concatenate([self.translation, self.rotation])

    def norm(self) -> float:
        """Return the L2 norm of the 6-vector."""
        return float(np.linalg.norm(self.vector))


def _quat_rotmat_jacobians(quats: np.ndarray) -> np.ndarray:
    """Return (N, 4, 3, 3) derivatives of R(q) w.r.t. the unit quaternion."""
    quats = np.asarray(quats, dtype=np.float64)
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    norms = np.where(norms < 1e-12, 1.0, norms)
    w, x, y, z = (quats / norms).T
    zeros = np.zeros_like(w)
    d_w = 2.0 * np.stack(
        [
            np.stack([zeros, -z, y], axis=-1),
            np.stack([z, zeros, -x], axis=-1),
            np.stack([-y, x, zeros], axis=-1),
        ],
        axis=-2,
    )
    d_x = 2.0 * np.stack(
        [
            np.stack([zeros, y, z], axis=-1),
            np.stack([y, -2 * x, -w], axis=-1),
            np.stack([z, w, -2 * x], axis=-1),
        ],
        axis=-2,
    )
    d_y = 2.0 * np.stack(
        [
            np.stack([-2 * y, x, w], axis=-1),
            np.stack([x, zeros, z], axis=-1),
            np.stack([-w, z, -2 * y], axis=-1),
        ],
        axis=-2,
    )
    d_z = 2.0 * np.stack(
        [
            np.stack([-2 * z, -w, x], axis=-1),
            np.stack([w, -2 * z, y], axis=-1),
            np.stack([x, y, zeros], axis=-1),
        ],
        axis=-2,
    )
    return np.stack([d_w, d_x, d_y, d_z], axis=1)


@dataclasses.dataclass
class _BackwardAccumulators:
    """Image-space gradient sums shared by both accumulation backends."""

    colors: np.ndarray  # (N, 3)
    d_mean2d: np.ndarray  # (N, 2)
    d_cov2d: np.ndarray  # (N, 2, 2)
    d_depth_per_gaussian: np.ndarray  # (N,)
    d_opacity_sigmoid: np.ndarray  # (N,)

    @classmethod
    def zeros(cls, count: int) -> "_BackwardAccumulators":
        return cls(
            colors=np.zeros((count, 3)),
            d_mean2d=np.zeros((count, 2)),
            d_cov2d=np.zeros((count, 2, 2)),
            d_depth_per_gaussian=np.zeros(count),
            d_opacity_sigmoid=np.zeros(count),
        )


def _accumulate_reference(
    model: GaussianModel,
    result: RasterizationResult,
    grad_color: np.ndarray,
    grad_depth: np.ndarray | None,
    grad_silhouette: np.ndarray | None,
    acc: _BackwardAccumulators,
) -> None:
    """Per-tile accumulation re-running ``tile_forward`` (the executable spec)."""
    projection = result.projection
    grid = result.tile_grid
    opac = model.alphas

    for table in grid.tables:
        if len(table) == 0:
            continue
        x0, x1, y0, y1 = grid.pixel_bounds(table)
        pixels = grid.pixel_centers(table)

        data = tile_forward(table, pixels, projection, model.colors, opac)
        ids = data["ids"]
        alpha = data["alpha"]
        t_before = data["t_before"]
        weights = data["weights"]
        g_colors = data["g_colors"]
        g_depths = data["g_depths"]
        gvals = data["gvals"]
        clamped = data["clamped"]

        num_pixels = len(pixels)
        dl_dc_pix = grad_color[y0:y1, x0:x1].reshape(num_pixels, 3)
        dl_dd_pix = (
            grad_depth[y0:y1, x0:x1].reshape(num_pixels)
            if grad_depth is not None
            else np.zeros(num_pixels)
        )
        dl_ds_pix = (
            grad_silhouette[y0:y1, x0:x1].reshape(num_pixels)
            if grad_silhouette is not None
            else np.zeros(num_pixels)
        )

        # Gradient w.r.t. Gaussian colors: dC/dc_i = w_pi.
        acc.colors[ids] += weights.T @ dl_dc_pix

        # Gradient w.r.t. rendered per-Gaussian depth (through the depth map).
        acc.d_depth_per_gaussian[ids] += weights.T @ dl_dd_pix

        # Suffix sums over Gaussians behind i (exclusive, from the back).
        weighted_colors = weights[:, :, None] * g_colors[None, :, :]
        suffix_colors = np.flip(np.cumsum(np.flip(weighted_colors, axis=1), axis=1), axis=1)
        suffix_colors = suffix_colors - weighted_colors
        weighted_depths = weights * g_depths[None, :]
        suffix_depths = np.flip(np.cumsum(np.flip(weighted_depths, axis=1), axis=1), axis=1)
        suffix_depths = suffix_depths - weighted_depths
        suffix_weights = np.flip(np.cumsum(np.flip(weights, axis=1), axis=1), axis=1) - weights

        one_minus_alpha = np.maximum(1.0 - alpha, 1e-6)
        dcolor_dalpha = (
            t_before[:, :, None] * g_colors[None, :, :]
            - suffix_colors / one_minus_alpha[:, :, None]
        )
        ddepth_dalpha = t_before * g_depths[None, :] - suffix_depths / one_minus_alpha
        dsil_dalpha = t_before - suffix_weights / one_minus_alpha

        dl_dalpha = (
            np.einsum("pc,pgc->pg", dl_dc_pix, dcolor_dalpha)
            + dl_dd_pix[:, None] * ddepth_dalpha
            + dl_ds_pix[:, None] * dsil_dalpha
        )
        # Gradient flows only through alphas that actually participated and
        # were not clamped at ALPHA_MAX.
        valid = (alpha > 0.0) & (~clamped)
        dl_dalpha = np.where(valid, dl_dalpha, 0.0)

        # alpha = opacity * gval
        g_opacity = data["g_opacity"]
        acc.d_opacity_sigmoid[ids] += (dl_dalpha * gvals).sum(axis=0)
        dl_dgval = dl_dalpha * g_opacity[None, :]
        dl_dpower = dl_dgval * gvals

        conics = projection.conics[ids]
        d = data["d"]
        # dpower/dmean2d = A @ d  (for d = pixel - mean2d)
        a_d = np.einsum("gij,pgj->pgi", conics, d)
        d_mean2d_tile = np.einsum("pg,pgi->gi", dl_dpower, a_d)
        acc.d_mean2d[ids] += d_mean2d_tile

        # dpower/dSigma2D^-1 = -0.5 d d^T ; chain to Sigma2D via -A dA A.
        outer = d[:, :, :, None] * d[:, :, None, :]
        d_conic = np.einsum("pg,pgij->gij", dl_dpower, -0.5 * outer)
        d_cov2d_tile = -np.einsum("gij,gjk,gkl->gil", conics, d_conic, conics)
        acc.d_cov2d[ids] += d_cov2d_tile


def _accumulate_bucketed(
    model: GaussianModel,
    result: RasterizationResult,
    grad_color: np.ndarray,
    grad_depth: np.ndarray | None,
    grad_silhouette: np.ndarray | None,
    acc: _BackwardAccumulators,
    perf: PerfRecorder,
    pose_only: bool,
) -> None:
    """Bucketed accumulation over retained (or rebuilt) forward intermediates.

    For every padded chunk of shape ``(tiles, pixels, gaussians)`` the
    three chain terms of the reference backward collapse to one exclusive
    suffix-cumsum: with ``u = dL/dC . c_g + dL/dD * z_g + dL/dS``,

        dL/dalpha = T_before * u - suffix_g(weights * u) / (1 - alpha)

    which is the reference expression with the per-channel suffix sums
    distributed through the (Gaussian-independent) pixel gradients —
    algebraically identical, so the two backends agree to float64
    round-off.  Padding entries have zero ``alpha``/``weights`` and
    contribute exactly zero to every scatter, so no masking is needed.

    Accumulation order is *canonical*: each chunk writes its per-(tile,
    Gaussian) partial gradients into a flat pair table laid out in global
    (tile index, table position) order, and one ``bincount`` per component
    folds the table into the per-Gaussian accumulators at the end.  The
    result therefore does not depend on how tiles were grouped into size
    buckets — and since pair culling only removes exact-zero rows from the
    table, culled and un-culled runs produce bit-identical gradients even
    though culling reshuffles the buckets.

    ``pose_only`` accumulates only what the camera-pose gradient reads:
    the per-Gaussian depth and ``d_mean2d`` sums.  The color, opacity and
    ``d_cov2d`` columns (and the conic pixel sums feeding the latter) are
    skipped; the kept columns run the very same operations in the same
    order, so they are bit-identical to the full accumulation.
    """
    projection = result.projection
    grid = result.tile_grid
    cache = result.forward_cache
    height, width = grad_color.shape[:2]
    if (
        cache is None
        or cache.generation != result.forward_cache_generation
        or cache.height != height
        or cache.width != width
    ):
        # No (valid) retained intermediates: rebuild them once, bucketed.
        # The rebuild runs the same float64 kernels as the forward render,
        # so gradients do not depend on whether the cache was hit.
        perf.count("raster.backward_cache_builds")
        with perf.section("raster/backward_cache_build"):
            cache = build_forward_cache(
                projection,
                grid,
                model.colors,
                model.alphas,
                height,
                width,
            )
    else:
        perf.count("raster.backward_cache_hits")
    perf.count("raster.backward_pairs", cache.num_pairs)
    perf.count("raster.backward_tiles", cache.num_tiles)

    grad_color_flat = grad_color.reshape(-1, 3)
    grad_depth_flat = grad_depth.reshape(-1) if grad_depth is not None else None
    grad_sil_flat = grad_silhouette.reshape(-1) if grad_silhouette is not None else None
    # Pixel-gradient channels folded into one matmul: color (3), then the
    # optional depth and silhouette channels.
    num_channels = 3 + (grad_depth_flat is not None) + (grad_sil_flat is not None)
    depth_col = 3 if grad_depth_flat is not None else -1
    sil_col = 3 + (grad_depth_flat is not None) if grad_sil_flat is not None else -1

    colors = model.colors
    depths = projection.depths
    conic00 = projection.conics[:, 0, 0]
    conic01 = projection.conics[:, 0, 1]
    conic11 = projection.conics[:, 1, 1]

    # Canonical flat pair table in global (tile index, table position)
    # order.  Chunks write their per-pair partial gradients into it; the
    # per-Gaussian fold happens once at the end, in pair order, making the
    # accumulation independent of the bucket grouping.
    table_lengths = np.fromiter(
        (len(table) for table in grid.tables), dtype=np.int64, count=len(grid.tables)
    )
    pair_starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(table_lengths)])
    total_pairs = int(pair_starts[-1])
    if total_pairs == 0:
        return
    pair_gids = np.concatenate([table.gaussian_ids for table in grid.tables if len(table)])

    # Backward temporaries share the cache's scratch pool, so repeated
    # backward passes (one per optimizer iteration) allocate nothing.
    # Pair-value columns: colors (3), depth (1), opacity (1), mean2d (2),
    # cov2d (4) — or, pose-only, depth (1) and mean2d (2).
    if pose_only:
        num_cols, depth_val, mean_val = 3, 0, 1
    else:
        num_cols, depth_val, mean_val = 11, 3, 5
    pool = cache.pool
    pair_vals = pool.take("bwd.pair_vals", (total_pairs, num_cols), np.float64)
    for chunk in cache.chunks:
        num_tiles, num_pixels, padded = chunk.alpha.shape
        shape = chunk.alpha.shape
        ids = chunk.ids
        weights = chunk.weights
        alpha = chunk.alpha

        # Gather the per-pixel loss gradients and the per-Gaussian chain
        # parameters as (T, P, C) / (T, G, C) matrices; one batched matmul
        # then yields both the weight contraction (colors / depth grads)
        # and the folded chain coefficient u = dL/dC.c_g + dL/dD z_g + dL/dS.
        pix = pool.take("bwd.pix", (num_tiles, num_pixels, num_channels), np.float64)
        pix[:, :, :3] = grad_color_flat[chunk.flat_index].reshape(num_tiles, num_pixels, 3)
        gpar = pool.take("bwd.gpar", (num_tiles, padded, num_channels), np.float64)
        gpar[:, :, :3] = colors[ids]
        if depth_col >= 0:
            pix[:, :, depth_col] = grad_depth_flat[chunk.flat_index].reshape(
                num_tiles, num_pixels
            )
            gpar[:, :, depth_col] = depths[ids]
        if sil_col >= 0:
            pix[:, :, sil_col] = grad_sil_flat[chunk.flat_index].reshape(
                num_tiles, num_pixels
            )
            gpar[:, :, sil_col] = 1.0

        weight_sums = np.matmul(weights.transpose(0, 2, 1), pix)  # (T, G, C)
        contrib = pool.take("bwd.contrib", (num_tiles, padded, num_cols), np.float64)
        if not pose_only:
            contrib[:, :, :3] = weight_sums[:, :, :3]
        if depth_col >= 0:
            contrib[:, :, depth_val] = weight_sums[:, :, depth_col]
        u = pool.take("bwd.u", shape, np.float64)
        np.matmul(pix, gpar.transpose(0, 2, 1), out=u)

        # Exclusive suffix sum over Gaussians behind i (front-to-back order),
        # divided by (1 - alpha):  dL/dalpha = T_before u - suffix / (1 - a).
        weighted_u = pool.take("bwd.weighted_u", shape, np.float64)
        np.multiply(weights, u, out=weighted_u)
        suffix = pool.take("bwd.suffix", shape, np.float64)
        np.cumsum(weighted_u[:, :, ::-1], axis=2, out=suffix[:, :, ::-1])
        np.subtract(suffix, weighted_u, out=suffix)
        one_minus_alpha = weighted_u  # buffer reuse: weighted_u is dead
        np.subtract(1.0, alpha, out=one_minus_alpha)
        np.maximum(one_minus_alpha, 1e-6, out=one_minus_alpha)
        np.divide(suffix, one_minus_alpha, out=suffix)
        dl_dalpha = u  # buffer reuse: becomes T_before * u - suffix in place
        np.multiply(chunk.t_before, u, out=dl_dalpha)
        np.subtract(dl_dalpha, suffix, out=dl_dalpha)

        # Gradient flows only through alphas that actually participated and
        # were not clamped at ALPHA_MAX.
        valid = pool.take("bwd.valid", shape, np.bool_)
        np.greater(alpha, 0.0, out=valid)
        not_clamped = pool.take("bwd.not_clamped", shape, np.bool_)
        np.logical_not(chunk.clamped, out=not_clamped)
        np.logical_and(valid, not_clamped, out=valid)
        np.multiply(dl_dalpha, valid, out=dl_dalpha)

        # alpha = opacity * gval, so on the valid support gval = alpha /
        # opacity and dL/dpower = dL/dalpha * alpha exactly.
        dl_dpower = dl_dalpha
        np.multiply(dl_dalpha, alpha, out=dl_dpower)
        if not pose_only:
            opac_safe = np.where(chunk.opac > 0.0, chunk.opac, 1.0)
            contrib[:, :, 4] = dl_dpower.sum(axis=1) / opac_safe

        # Pixel offsets d = pixel - mean2d, retained by the forward pass
        # (the cache trades two more arrays for skipping this rebuild on
        # every backward call).  Masked pixel-sparse chunks retain them
        # *compressed* over the active row blocks only — ``dx`` per entry
        # as (S, tile_w), ``dy`` per row segment as (S,) — and the per-
        # (tile, Gaussian) pixel sums below then run on that flat entry
        # list via ``bincount``, which — like ``einsum`` — accumulates
        # each bin strictly sequentially in entry order (ascending pixel
        # within a pair).  Entries outside the blocks carry an exactly-
        # zero dl/dpower (their alpha is an exact zero), so dropping them
        # from the sums leaves every gradient bit-identical to the dense
        # reduction.
        d_conic = None if pose_only else np.empty((num_tiles, padded, 2, 2))
        if chunk.active is not None:
            dl_flat = dl_dpower.reshape(-1)[chunk.active]
            tg = chunk.active_tg
            bins = num_tiles * padded

            def _tg_sum(vals: np.ndarray) -> np.ndarray:
                return np.bincount(
                    tg, weights=vals.reshape(-1), minlength=bins
                ).reshape(num_tiles, padded)

            seg_dy = chunk.dy[:, None]
            prod_x = dl_flat * chunk.dx
            prod_y = dl_flat * seg_dy
            sum_x = _tg_sum(prod_x)
            sum_y = _tg_sum(prod_y)
            if d_conic is not None:
                d_conic[..., 0, 0] = _tg_sum(prod_x * chunk.dx)
                d_conic[..., 0, 1] = _tg_sum(prod_x * seg_dy)
                d_conic[..., 1, 1] = _tg_sum(prod_y * seg_dy)
        else:
            dx = chunk.dx
            dy = chunk.dy
            # dpower/dmean2d = A @ d: per-Gaussian pixel sums of
            # dL/dpower * d, contracted with the (symmetric) conic outside
            # the pixel sum.
            sum_x = np.einsum("tpg,tpg->tg", dl_dpower, dx)
            sum_y = np.einsum("tpg,tpg->tg", dl_dpower, dy)
            if d_conic is not None:
                d_conic[..., 0, 0] = np.einsum("tpg,tpg,tpg->tg", dl_dpower, dx, dx)
                d_conic[..., 0, 1] = np.einsum("tpg,tpg,tpg->tg", dl_dpower, dx, dy)
                d_conic[..., 1, 1] = np.einsum("tpg,tpg,tpg->tg", dl_dpower, dy, dy)
        c00 = conic00[ids]
        c01 = conic01[ids]
        c11 = conic11[ids]
        contrib[:, :, mean_val] = c00 * sum_x + c01 * sum_y
        contrib[:, :, mean_val + 1] = c01 * sum_x + c11 * sum_y

        if d_conic is not None:
            # dpower/dSigma2D^-1 = -0.5 d d^T ; chain to Sigma2D via -A dA A.
            d_conic[..., 1, 0] = d_conic[..., 0, 1]
            d_conic *= -0.5
            conics_g = projection.conics[ids]
            d_cov2d_chunk = -np.einsum("tgij,tgjk,tgkl->tgil", conics_g, d_conic, conics_g)
            contrib[:, :, 7:] = d_cov2d_chunk.reshape(num_tiles, padded, 4)

        # Route the chunk's real (unpadded) rows to their canonical slots.
        real = np.arange(padded)[None, :] < chunk.lengths[:, None]
        dest = pair_starts[chunk.tile_indices][:, None] + np.arange(padded)[None, :]
        pair_vals[dest[real]] = contrib[real]

    # Fold the pair table into the per-Gaussian accumulators.  bincount
    # accumulates strictly sequentially over the table, i.e. in canonical
    # pair order for every Gaussian.
    count = len(acc.d_opacity_sigmoid)

    def _fold(column: int) -> np.ndarray:
        return np.bincount(pair_gids, weights=pair_vals[:, column], minlength=count)

    if depth_col >= 0:
        acc.d_depth_per_gaussian += _fold(depth_val)
    acc.d_mean2d[:, 0] += _fold(mean_val)
    acc.d_mean2d[:, 1] += _fold(mean_val + 1)
    if not pose_only:
        for component in range(3):
            acc.colors[:, component] += _fold(component)
        acc.d_opacity_sigmoid += _fold(4)
        cov_flat = acc.d_cov2d.reshape(count, 4)
        for component in range(4):
            cov_flat[:, component] += _fold(7 + component)


def _accumulate(
    model: GaussianModel,
    result: RasterizationResult,
    grad_color: np.ndarray,
    grad_depth: np.ndarray | None,
    grad_silhouette: np.ndarray | None,
    backend: str,
    perf: PerfRecorder,
    pose_only: bool,
) -> _BackwardAccumulators:
    """Run the image-space accumulation of either backward entry point."""
    if backend not in _BACKWARD_BACKENDS:
        raise ValueError(
            f"unknown backward backend {backend!r}; expected one of {_BACKWARD_BACKENDS}"
        )
    grad_color = np.asarray(grad_color, dtype=np.float64)
    acc = _BackwardAccumulators.zeros(len(model))

    perf.count("raster.backward_calls")
    with perf.section("raster/backward_accumulate"):
        if backend == "reference":
            _accumulate_reference(model, result, grad_color, grad_depth, grad_silhouette, acc)
        else:
            _accumulate_bucketed(
                model, result, grad_color, grad_depth, grad_silhouette, acc, perf, pose_only
            )
    return acc


def _cam_point_gradient(projection, acc: _BackwardAccumulators) -> np.ndarray:
    """Camera-space point gradient: through the projected mean and the depth."""
    d_cam_point = np.einsum("gij,gi->gj", projection.proj_jacobians, acc.d_mean2d)
    d_cam_point[:, 2] += acc.d_depth_per_gaussian
    return d_cam_point


def _pose_gradient(projection, d_cam_point: np.ndarray) -> PoseGradients:
    """Left SE(3) pose gradient from the camera-space point gradients."""
    d_translation = d_cam_point.sum(axis=0)
    d_rotation = np.cross(projection.cam_points, d_cam_point).sum(axis=0)
    return PoseGradients(translation=d_translation, rotation=d_rotation)


def render_backward(
    model: GaussianModel,
    camera: Camera,
    result: RasterizationResult,
    grad_color: np.ndarray,
    grad_depth: np.ndarray | None = None,
    grad_silhouette: np.ndarray | None = None,
    compute_pose_gradient: bool = False,
    backend: str = "bucketed",
    perf: PerfRecorder | None = None,
) -> tuple[GaussianGradients, PoseGradients | None]:
    """Back-propagate image-space gradients to Gaussian and pose parameters.

    Callers that read only the pose gradient (the tracker) should use
    :func:`pose_backward`, which skips every Gaussian-parameter term.

    Args:
        model: the Gaussian model that produced ``result``.
        camera: the camera that produced ``result``.
        result: the forward :class:`RasterizationResult`.
        grad_color: (H, W, 3) gradient of the loss w.r.t. the rendered color.
        grad_depth: optional (H, W) gradient w.r.t. the rendered depth.
        grad_silhouette: optional (H, W) gradient w.r.t. the silhouette.
        compute_pose_gradient: also compute the camera-pose gradient.
        backend: ``"bucketed"`` runs the bucketed accumulator (reusing
            ``result.forward_cache`` when it is still valid, rebuilding
            the intermediates once otherwise); ``"reference"`` runs the
            original per-tile loop.
        perf: optional :class:`repro.perf.PerfRecorder` fed the
            ``raster/backward*`` timers and ``raster.backward_*`` counters.

    Returns:
        ``(gaussian_gradients, pose_gradients)``; the second element is
        None unless ``compute_pose_gradient`` is True.
    """
    perf = perf or NULL_RECORDER
    acc = _accumulate(
        model, result, grad_color, grad_depth, grad_silhouette, backend, perf, pose_only=False
    )
    grads = GaussianGradients.zeros(len(model))
    projection = result.projection
    d_cov2d = acc.d_cov2d
    grads.colors += acc.colors

    # ------------------------------------------------------------------
    # Chain the 2D gradients back to 3D Gaussian parameters.
    # ------------------------------------------------------------------
    with perf.section("raster/backward_chain"):
        jac = projection.proj_jacobians
        view_rot = projection.view_rotation

        d_cam_point = _cam_point_gradient(projection, acc)
        grads.means += d_cam_point @ view_rot

        # Covariance chain: Sigma2D = T Sigma3D T^T with T = J W.
        t_mats = jac @ view_rot[None, :, :]
        d_cov3d = np.einsum("gji,gjk,gkl->gil", t_mats, d_cov2d, t_mats)
        m_mats = projection.m_mats
        d_m = 2.0 * np.einsum("gij,gjk->gik", d_cov3d, m_mats)

        rotmats = projection.rotmats
        scales = model.scales
        # M = R diag(s):   dL/ds_k = column_k(R) . column_k(dL/dM)
        d_scales = np.einsum("gik,gik->gk", rotmats, d_m)
        grads.log_scales += d_scales * scales

        # dL/dR = dL/dM diag(s)
        d_rot = d_m * scales[:, None, :]
        dr_dq = _quat_rotmat_jacobians(model.quats)
        d_quat_unit = np.einsum("gqij,gij->gq", dr_dq, d_rot)
        # Project through the quaternion normalization q = q_raw / |q_raw|.
        q_raw = model.quats
        norms = np.linalg.norm(q_raw, axis=1, keepdims=True)
        norms = np.where(norms < 1e-12, 1.0, norms)
        q_unit = q_raw / norms
        grads.quats += (
            d_quat_unit - q_unit * np.sum(d_quat_unit * q_unit, axis=1, keepdims=True)
        ) / norms

        # Opacity logits.
        sig = model.alphas
        grads.opacities += acc.d_opacity_sigmoid * sig * (1.0 - sig)

        pose_grads = _pose_gradient(projection, d_cam_point) if compute_pose_gradient else None

    return grads, pose_grads


def pose_backward(
    model: GaussianModel,
    camera: Camera,
    result: RasterizationResult,
    grad_color: np.ndarray,
    grad_depth: np.ndarray | None = None,
    grad_silhouette: np.ndarray | None = None,
    backend: str = "bucketed",
    perf: PerfRecorder | None = None,
) -> PoseGradients:
    """Back-propagate image-space gradients to the camera pose only.

    The tracking entry point: it holds the Gaussians fixed, so it
    accumulates only the depth and projected-mean sums the pose gradient
    reads and skips the color, opacity and covariance terms and the 3-D
    parameter chain.  Arguments are those of :func:`render_backward`; the
    result is bit-identical to
    ``render_backward(..., compute_pose_gradient=True)[1]`` on the same
    backend (``backend="reference"`` runs the full per-tile specification).
    """
    perf = perf or NULL_RECORDER
    acc = _accumulate(
        model, result, grad_color, grad_depth, grad_silhouette, backend, perf, pose_only=True
    )
    with perf.section("raster/backward_chain"):
        return _pose_gradient(result.projection, _cam_point_gradient(result.projection, acc))
