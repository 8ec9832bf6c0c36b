"""Image losses and quality metrics used by 3DGS-SLAM.

SplaTAM optimizes a weighted sum of an L1 color loss and an L1 depth loss
(masked by the rendered silhouette during tracking); mapping quality is
reported as PSNR and SSIM.  Each loss returns both the scalar loss and its
gradient with respect to the rendered image so the caller can feed the
gradient straight into :func:`repro.gaussians.gradients.render_backward`;
the metrics return a scalar.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter

__all__ = [
    "l1_loss",
    "mse_loss",
    "masked_l1_loss",
    "psnr",
    "ssim",
]


def l1_loss(rendered: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its gradient w.r.t. ``rendered``."""
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = rendered - target
    loss = float(np.abs(diff).mean())
    grad = np.sign(diff) / diff.size
    return loss, grad


def mse_loss(rendered: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``rendered``."""
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = rendered - target
    loss = float((diff**2).mean())
    grad = 2.0 * diff / diff.size
    return loss, grad


def masked_l1_loss(
    rendered: np.ndarray, target: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """L1 loss restricted to pixels where ``mask`` is True.

    Used by SplaTAM's tracking loss, which only penalizes pixels inside
    the rendered silhouette (well-observed regions of the map).
    """
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == rendered.ndim - 1:
        mask = mask[..., None]
    mask = np.broadcast_to(mask, rendered.shape)
    denom = max(int(mask.sum()), 1)
    diff = np.where(mask, rendered - target, 0.0)
    loss = float(np.abs(diff).sum() / denom)
    grad = np.sign(diff) / denom
    return loss, grad


def psnr(rendered: np.ndarray, target: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in decibels."""
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    mse = float(((rendered - target) ** 2).mean())
    if mse <= 1e-12:
        return 100.0
    return float(10.0 * np.log10(data_range**2 / mse))


def _channel_ssim(img1: np.ndarray, img2: np.ndarray, window: int, c1: float, c2: float) -> float:
    mu1 = uniform_filter(img1, size=window)
    mu2 = uniform_filter(img2, size=window)
    sigma1 = uniform_filter(img1 * img1, size=window) - mu1 * mu1
    sigma2 = uniform_filter(img2 * img2, size=window) - mu2 * mu2
    sigma12 = uniform_filter(img1 * img2, size=window) - mu1 * mu2
    numerator = (2 * mu1 * mu2 + c1) * (2 * sigma12 + c2)
    denominator = (mu1 * mu1 + mu2 * mu2 + c1) * (sigma1 + sigma2 + c2)
    return float((numerator / np.maximum(denominator, 1e-12)).mean())


def ssim(rendered: np.ndarray, target: np.ndarray, window: int = 7, data_range: float = 1.0) -> float:
    """Structural similarity index (mean over channels)."""
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    if rendered.ndim == 2:
        return _channel_ssim(rendered, target, window, c1, c2)
    values = [
        _channel_ssim(rendered[..., ch], target[..., ch], window, c1, c2)
        for ch in range(rendered.shape[-1])
    ]
    return float(np.mean(values))
