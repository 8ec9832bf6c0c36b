"""Differentiable 3D Gaussian Splatting engine (NumPy).

This subpackage implements the full 3DGS training pipeline the paper's
SLAM systems are built on: projection of anisotropic 3D Gaussians to the
image plane, tile assignment, depth sorting, alpha-blended rasterization
with early termination, an analytic backward pass for both Gaussian
parameters and camera poses, an Adam optimizer, and densification /
pruning heuristics.

The public entry points are:

* :class:`repro.gaussians.camera.Camera` -- pinhole camera with an SE(3) pose.
* :class:`repro.gaussians.model.GaussianModel` -- the Gaussian parameter set.
* :func:`repro.gaussians.rasterizer.render` -- forward rendering.
* :func:`repro.gaussians.gradients.render_backward` -- analytic gradients.
* :func:`repro.gaussians.gradients.pose_backward` -- the pose gradient only
  (tracking: the map is fixed, so no Gaussian gradient is computed).
* :class:`repro.gaussians.optimizer.Adam` -- parameter updates.

Rendering hot-path knobs (``render`` / ``render_backward``):

* ``render(..., backend="bucketed")`` (the default) batches tiles into
  padded size buckets, blends each bucket in one vectorized pass, and
  serves both the stats-free fast path and the statistics-recording path
  (workloads + contributions) via bucketed scatter-adds.
  ``backend="reference"`` keeps the original per-tile loop as the
  executable specification (equivalence verified by
  ``tests/test_rasterizer_fastpath.py`` and
  ``tests/test_rasterizer_bucketed_stats.py``).
* ``render(..., cache=ForwardCache())`` additionally retains the
  per-bucket blending intermediates; ``render_backward`` (default
  ``backend="bucketed"``) then consumes them with bucketed einsum /
  ``bincount`` accumulation instead of re-running the forward per tile —
  the fused forward/backward path tracking and mapping run on.
  ``render_backward(..., backend="reference")`` keeps the per-tile
  backward as the executable spec (``tests/test_backward_fused.py``).
  ``pose_backward`` (same arguments, minus ``compute_pose_gradient``)
  accumulates only the depth / projected-mean sums the pose reads; its
  result is bit-identical to ``render_backward(...,
  compute_pose_gradient=True)[1]``.
* Tile assignment is one exact sparse engine (no mode knobs).
  Opacity-aware splat radii plus a conic-vs-tile test drop every
  (tile, Gaussian) pair whose alpha is provably below ``ALPHA_MIN``
  across the tile, and every retained pair has a conservative active
  row/column interval (closed-form conic strip minima with a
  spectral-bound full-tile fast path), computed by the ``TileGrid`` only
  when read: by renders that record workloads and by masked chunks.  Images, integer contribution
  statistics and gradients are bit-identical to brute-force classic
  3-sigma tables (``tests/test_pair_culling.py``); only the workload
  shrinks.  ``TileGrid.pairs_total`` / ``pairs_culled`` measure the pair
  reduction against that baseline and ``pixels_total`` /
  ``pixels_culled`` the sub-tile reduction within the retained pairs
  (also emitted as ``raster.pairs_*`` counters via ``render(..., perf=)``,
  and ``raster.pixels_*`` for renders that record workloads); the
  hardware simulators consume the latter (``hw.pixels_total`` /
  ``hw.pixels_culled``, GSCore's measured sub-tile skipping).  Per chunk,
  the bucketed forward and fused backward pick a masked row-segment
  schedule or the dense kernels from a radius-box bound on the active
  lattice — a schedule, never semantics.

``GaussianModel.alphas`` memoizes the sigmoid of the opacity logits,
:class:`repro.gaussians.scratch.ScratchPool` provides the reusable
scratch buffers (one pool backs each :class:`ForwardCache`, so reusing a
cache across optimizer iterations allocates nothing), and
``TileGrid.pixel_centers`` / ``TileGrid.tile_offsets`` cache the per-tile
pixel-center grids every consumer used to rebuild with ``meshgrid``.
"""

from repro.gaussians.camera import Camera, Intrinsics, Pose
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import (
    ForwardCache,
    RasterizationResult,
    build_forward_cache,
    render,
)
from repro.gaussians.gradients import (
    GaussianGradients,
    PoseGradients,
    pose_backward,
    render_backward,
)
from repro.gaussians.optimizer import Adam
from repro.gaussians.loss import l1_loss, mse_loss, psnr, ssim

__all__ = [
    "Adam",
    "Camera",
    "ForwardCache",
    "GaussianGradients",
    "GaussianModel",
    "Intrinsics",
    "Pose",
    "PoseGradients",
    "RasterizationResult",
    "build_forward_cache",
    "l1_loss",
    "mse_loss",
    "pose_backward",
    "psnr",
    "render",
    "render_backward",
    "ssim",
]
