"""EWA projection of 3D Gaussians to the image plane.

The projection step (step 1 of the 3DGS pipeline in the paper, Fig. 2)
transforms every Gaussian into camera space, projects its mean through the
pinhole model and approximates the projected footprint by a 2D Gaussian
whose covariance is obtained from the local affine (EWA) approximation:

    Sigma_2D = J W Sigma_3D W^T J^T + blur * I

where ``W`` is the world-to-camera rotation and ``J`` is the Jacobian of
the perspective projection at the Gaussian mean.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel

__all__ = [
    "ALPHA_MIN",
    "ProjectionResult",
    "conic_strip_min",
    "project_gaussians",
    "batch_quat_to_rotmat",
]

# Low-pass filter added to the 2D covariance (in pixel^2), as in the
# reference 3DGS implementation, to guarantee a minimum splat footprint.
COV2D_BLUR = 0.3
# Gaussians closer than this to the camera plane are culled.
NEAR_CLIP = 0.05
# Number of standard deviations used for the splat bounding radius.
RADIUS_SIGMA = 3.0
# A Gaussian whose alpha at a pixel falls below this value is zeroed by the
# rasterizer's blending loop (1/255, the reference implementation cut-off).
# Defined here — not in the rasterizer, which imports this module — because
# the opacity-aware radius is exactly the support of that cut-off;
# :mod:`repro.gaussians.rasterizer` re-exports it unchanged.
ALPHA_MIN = 1.0 / 255.0
# Inflation applied before the ceil of the opacity-aware radius so that
# floating-point round-off in sqrt(tau * lambda_max) can never shave a
# pixel whose alpha is exactly at the ALPHA_MIN boundary.
_RADIUS_EPS = 1e-6


def conic_strip_min(a00, a01, a11, c, lo, hi, fixed: str = "x"):
    """Closed-form minimum of the conic quadratic over one axis-aligned strip.

    With ``q(dx, dy) = a00 dx^2 + 2 a01 dx dy + a11 dy^2`` (``(dx, dy)``
    the pixel-center offset from the splat center), returns the minimum of
    ``q`` over the segment where the *fixed* coordinate equals ``c`` and
    the free coordinate ranges over ``[lo, hi]``: ``fixed="x"`` minimizes
    over ``dy`` on the vertical line ``dx = c``, ``fixed="y"`` over ``dx``
    on the horizontal line ``dy = c``.  ``q`` is convex for a well-posed
    conic, so the minimizer is the unconstrained stationary point of the
    1-D parabola clamped to ``[lo, hi]``.  All inputs broadcast; callers
    are responsible for falling back conservatively when the conic is
    degenerate (non-positive diagonal yields non-finite results).

    This single closed form is the whole sparse-culling geometry: the
    tile-rectangle minimum (PR 5's pair cull) is the least of the four
    edge strips, and the per-row/per-column strip minima (pixel-level
    sparsity) are the same expression evaluated per pixel row/column.
    """
    # np.minimum/np.maximum instead of np.clip (identical results, including
    # NaN propagation) — clip dispatches noticeably slower on small arrays.
    if fixed == "x":
        dy = np.minimum(np.maximum(-a01 * c / a11, lo), hi)
        return a00 * c * c + 2.0 * a01 * c * dy + a11 * dy * dy
    dx = np.minimum(np.maximum(-a01 * c / a00, lo), hi)
    return a00 * dx * dx + 2.0 * a01 * dx * c + a11 * c * c


def batch_quat_to_rotmat(quats: np.ndarray) -> np.ndarray:
    """Convert (N, 4) quaternions ``(w, x, y, z)`` to (N, 3, 3) matrices."""
    quats = np.asarray(quats, dtype=np.float64)
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    norms = np.where(norms < 1e-12, 1.0, norms)
    w, x, y, z = (quats / norms).T
    rot = np.empty((len(quats), 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def batch_covariances(model: GaussianModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return world covariances plus intermediates used by the backward pass.

    Returns:
        A tuple ``(cov3d, rotmats, m_mats)`` where ``m_mats = R @ diag(s)``
        so that ``cov3d = m_mats @ m_mats^T``.
    """
    rotmats = batch_quat_to_rotmat(model.quats)
    scales = model.scales
    m_mats = rotmats * scales[:, None, :]
    cov3d = m_mats @ np.transpose(m_mats, (0, 2, 1))
    return cov3d, rotmats, m_mats


@dataclasses.dataclass
class ProjectionResult:
    """Per-Gaussian projection outputs consumed by the rasterizer and backward.

    Attributes:
        means2d: (N, 2) projected pixel centers.
        depths: (N,) camera-space depths.
        cov2d: (N, 2, 2) projected covariances (with blur).
        conics: (N, 2, 2) inverses of ``cov2d``.
        radii: (N,) opacity-aware splat bounding radii in pixels: the
            support of the conic sublevel set ``q <= tau`` (outside it the
            splat's alpha is provably below ``ALPHA_MIN``), capped at
            ``radii_sigma`` because the rasterizer's reference semantics
            never evaluate beyond the 3-sigma bounding box.
        visible: (N,) boolean visibility mask (in front of camera and on
            screen, judged against ``radii_sigma``).
        cam_points: (N, 3) Gaussian means in camera coordinates.
        proj_jacobians: (N, 2, 3) perspective Jacobians ``J``.
        view_rotation: (3, 3) world-to-camera rotation ``W``.
        cov3d: (N, 3, 3) world covariances.
        rotmats: (N, 3, 3) Gaussian local rotations.
        m_mats: (N, 3, 3) ``R @ diag(scale)`` factors.
        radii_sigma: (N,) the classic RADIUS_SIGMA-standard-deviation radii
            (the workload baseline tile assignment measures culling against).
        tau: (N,) conic support thresholds ``2 ln(opacity / ALPHA_MIN)``;
            wherever the conic quadratic ``q(p)`` exceeds ``tau`` the
            splat's alpha is provably below ``ALPHA_MIN``.
    """

    means2d: np.ndarray
    depths: np.ndarray
    cov2d: np.ndarray
    conics: np.ndarray
    radii: np.ndarray
    visible: np.ndarray
    cam_points: np.ndarray
    proj_jacobians: np.ndarray
    view_rotation: np.ndarray
    cov3d: np.ndarray
    rotmats: np.ndarray
    m_mats: np.ndarray
    radii_sigma: np.ndarray
    tau: np.ndarray


def project_gaussians(model: GaussianModel, camera: Camera) -> ProjectionResult:
    """Project all Gaussians of ``model`` into ``camera``.

    Gaussians behind the near plane or whose splat lies entirely outside
    the image are marked invisible but keep placeholder entries so that
    indices remain aligned with the model.  Splat radii are opacity-aware:
    low-opacity splats shrink to the support of ``alpha >= ALPHA_MIN``, so
    every (tile, Gaussian) pair this drops relative to the classic 3-sigma
    box is one the rasterizer's alpha cut-off would zero anyway.
    """
    count = len(model)
    intr = camera.intrinsics
    rotation = camera.pose.rotation
    cam_points = model.means @ rotation.T + camera.pose.trans
    depths = cam_points[:, 2]

    safe_z = np.where(np.abs(depths) < 1e-8, 1e-8, depths)
    u = intr.fx * cam_points[:, 0] / safe_z + intr.cx
    v = intr.fy * cam_points[:, 1] / safe_z + intr.cy
    means2d = np.stack([u, v], axis=1)

    # Perspective Jacobian evaluated at the Gaussian mean.
    jac = np.zeros((count, 2, 3))
    jac[:, 0, 0] = intr.fx / safe_z
    jac[:, 0, 2] = -intr.fx * cam_points[:, 0] / (safe_z**2)
    jac[:, 1, 1] = intr.fy / safe_z
    jac[:, 1, 2] = -intr.fy * cam_points[:, 1] / (safe_z**2)

    cov3d, rotmats, m_mats = batch_covariances(model)
    # T = J @ W ; cov2d = T cov3d T^T + blur I
    t_mats = jac @ rotation[None, :, :]
    cov2d = t_mats @ cov3d @ np.transpose(t_mats, (0, 2, 1))
    cov2d[:, 0, 0] += COV2D_BLUR
    cov2d[:, 1, 1] += COV2D_BLUR

    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] * cov2d[:, 1, 0]
    det = np.where(np.abs(det) < 1e-12, 1e-12, det)
    conics = np.empty_like(cov2d)
    conics[:, 0, 0] = cov2d[:, 1, 1] / det
    conics[:, 0, 1] = -cov2d[:, 0, 1] / det
    conics[:, 1, 0] = -cov2d[:, 1, 0] / det
    conics[:, 1, 1] = cov2d[:, 0, 0] / det

    # Bounding radius from the largest eigenvalue of cov2d.
    mid = 0.5 * (cov2d[:, 0, 0] + cov2d[:, 1, 1])
    disc = np.sqrt(np.maximum(mid * mid - det, 1e-12))
    lambda_max = np.maximum(mid + disc, 1e-12)
    radii_sigma = np.ceil(RADIUS_SIGMA * np.sqrt(lambda_max))

    # Opacity-aware support threshold: alpha = opacity * exp(-q / 2) drops
    # below ALPHA_MIN exactly where q > tau.  The extent of the sublevel
    # ellipse {q <= tau} along any axis is at most sqrt(tau * lambda_max).
    alphas = model.alphas
    tau = 2.0 * (np.log(np.maximum(alphas, 1e-300)) - np.log(ALPHA_MIN))
    radii_opacity = np.ceil(np.sqrt(np.maximum(tau, 0.0) * lambda_max) + _RADIUS_EPS)
    radii = np.minimum(radii_sigma, radii_opacity)

    in_front = depths > NEAR_CLIP
    # On-screen test against the sigma radii, so the per-Gaussian workload
    # baseline tile assignment derives from the mask covers the classic
    # 3-sigma boxes.  A visible Gaussian whose tight box lies fully
    # off-screen simply produces an empty tile range downstream.
    on_screen = (
        (means2d[:, 0] + radii_sigma >= 0)
        & (means2d[:, 0] - radii_sigma < intr.width)
        & (means2d[:, 1] + radii_sigma >= 0)
        & (means2d[:, 1] - radii_sigma < intr.height)
    )
    visible = in_front & on_screen

    return ProjectionResult(
        means2d=means2d,
        depths=depths,
        cov2d=cov2d,
        conics=conics,
        radii=radii,
        visible=visible,
        cam_points=cam_points,
        proj_jacobians=jac,
        view_rotation=rotation,
        cov3d=cov3d,
        rotmats=rotmats,
        m_mats=m_mats,
        radii_sigma=radii_sigma,
        tau=tau,
    )
