"""OrbLite: a traditional sparse-feature RGB-D odometry baseline.

Table 2 of the paper compares AGS's tracking accuracy against ORB-SLAM2,
a classical feature-based system.  OrbLite reproduces the character of
that baseline with the same building blocks at a small scale: corner
detection (Shi-Tomasi response), binary-ish patch descriptors, descriptor
matching between consecutive frames, back-projection of matches to 3D
using the depth channel, and a RANSAC-wrapped Horn alignment to estimate
the relative camera motion.  Its accuracy is geometry-driven, so — as in
the paper — it tends to beat photometric 3DGS tracking on trajectories
while offering no photorealistic map.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.ndimage import maximum_filter, uniform_filter

from repro.gaussians.camera import Intrinsics, Pose, rotmat_to_quat
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.slam.odometry import OdometrySession
from repro.slam.session import pack_rng, restore_rng

__all__ = [
    "OrbFeatures",
    "OrbLiteConfig",
    "OrbLiteSlam",
    "detect_corners",
    "estimate_relative_rigid",
    "extract_descriptors",
    "frame_features",
    "match_descriptors",
    "relative_rigid_from_features",
]


@dataclasses.dataclass(frozen=True)
class OrbLiteConfig:
    """Configuration of the sparse-feature odometry baseline.

    Attributes:
        max_features: corners kept per frame.
        corner_quality: minimum corner response relative to the maximum.
        patch_size: descriptor patch edge length.
        match_ratio: Lowe-style ratio test threshold.
        ransac_iterations: RANSAC hypotheses for relative pose estimation.
        ransac_threshold: inlier distance threshold in meters.
        min_matches: below this the frame falls back to constant velocity.
    """

    max_features: int = 80
    corner_quality: float = 0.05
    patch_size: int = 5
    match_ratio: float = 0.85
    ransac_iterations: int = 40
    ransac_threshold: float = 0.05
    min_matches: int = 6
    seed: int = 3


def detect_corners(gray: np.ndarray, config: OrbLiteConfig) -> np.ndarray:
    """Detect up to ``max_features`` corners; returns (N, 2) integer (x, y)."""
    gray = np.asarray(gray, dtype=np.float64)
    grad_y, grad_x = np.gradient(gray)
    ixx = uniform_filter(grad_x * grad_x, size=3)
    iyy = uniform_filter(grad_y * grad_y, size=3)
    ixy = uniform_filter(grad_x * grad_y, size=3)
    # Shi-Tomasi response: smaller eigenvalue of the structure tensor.
    trace = ixx + iyy
    det = ixx * iyy - ixy * ixy
    disc = np.sqrt(np.maximum(trace**2 / 4.0 - det, 0.0))
    response = trace / 2.0 - disc
    if response.max() <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    threshold = config.corner_quality * response.max()
    local_max = response == maximum_filter(response, size=3)
    ys, xs = np.nonzero(local_max & (response > threshold))
    if len(xs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    order = np.argsort(response[ys, xs])[::-1][: config.max_features]
    return np.stack([xs[order], ys[order]], axis=1)


def extract_descriptors(gray: np.ndarray, corners: np.ndarray, patch_size: int) -> np.ndarray:
    """Extract normalized patch descriptors at the given corners."""
    gray = np.asarray(gray, dtype=np.float64)
    half = patch_size // 2
    padded = np.pad(gray, half, mode="edge")
    descriptors = np.zeros((len(corners), patch_size * patch_size))
    for i, (x, y) in enumerate(corners):
        patch = padded[y : y + patch_size, x : x + patch_size]
        patch = patch - patch.mean()
        norm = np.linalg.norm(patch)
        descriptors[i] = (patch / norm).ravel() if norm > 1e-9 else patch.ravel()
    return descriptors


def match_descriptors(desc_a: np.ndarray, desc_b: np.ndarray, ratio: float) -> np.ndarray:
    """Mutual nearest-neighbour matching with a ratio test.

    Returns an (M, 2) array of index pairs ``(index_a, index_b)``.
    """
    if len(desc_a) == 0 or len(desc_b) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    # Distance matrix of normalized descriptors: smaller = more similar.
    similarity = desc_a @ desc_b.T
    distances = 2.0 - 2.0 * similarity
    best_b = distances.argmin(axis=1)
    keep = distances.argmin(axis=0)[best_b] == np.arange(len(desc_a))  # mutual check
    if distances.shape[1] > 1:
        nearest = np.partition(distances, 1, axis=1)
        keep &= ~(nearest[:, 0] > ratio * nearest[:, 1])
    return np.stack([np.flatnonzero(keep), best_b[keep]], axis=1).astype(np.int64)


def _horn_alignments(points_a: np.ndarray, points_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form rigid transforms mapping ``points_a[k]`` onto ``points_b[k]``.

    Takes (K, M, 3) stacks and returns (K, 3, 3) rotations and (K, 3)
    translations.  Every operation is per-stack-entry, so entry ``k`` is
    bit for bit what a (1, M, 3) call on it returns.  Raises
    ``LinAlgError`` when any entry's SVD does not converge.
    """
    mu_a = points_a.mean(axis=1)
    mu_b = points_b.mean(axis=1)
    covariance = np.matmul(
        (points_b - mu_b[:, None]).transpose(0, 2, 1), points_a - mu_a[:, None]
    )
    u, _, vt = np.linalg.svd(covariance)
    sign_fix = np.tile(np.eye(3), (len(points_a), 1, 1))
    sign_fix[np.linalg.det(u) * np.linalg.det(vt) < 0, 2, 2] = -1.0
    rotation = u @ sign_fix @ vt
    # matmul, not einsum: einsum's reduction order is not the 2-D product's.
    translation = mu_b - np.matmul(rotation, mu_a[..., None])[..., 0]
    return rotation, translation


def _ransac_inliers(
    points_prev: np.ndarray,
    points_cur: np.ndarray,
    config: OrbLiteConfig,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Inlier mask of the best of ``config.ransac_iterations`` minimal hypotheses.

    Draws every 3-point sample first (one ``rng.choice`` per hypothesis,
    in order), then aligns, predicts and scores all hypotheses in one
    batched pass.  The winner is the first hypothesis with the most
    inliers; a hypothesis whose SVD fails is skipped.  Returns None when
    every hypothesis failed.
    """
    count = len(points_prev)
    draws = [rng.choice(count, size=3, replace=False) for _ in range(config.ransac_iterations)]
    samples = np.array(draws, dtype=np.int64).reshape(-1, 3)
    sample_prev, sample_cur = points_prev[samples], points_cur[samples]
    solved = np.ones(len(samples), dtype=bool)
    try:
        rotations, translations = _horn_alignments(sample_prev, sample_cur)
    except np.linalg.LinAlgError:
        # Rare (non-finite points): find which hypotheses fail on their own.
        rotations = np.tile(np.eye(3), (len(samples), 1, 1))
        translations = np.zeros((len(samples), 3))
        for k in range(len(samples)):
            try:
                rotations[k : k + 1], translations[k : k + 1] = _horn_alignments(
                    sample_prev[k : k + 1], sample_cur[k : k + 1]
                )
            except np.linalg.LinAlgError:
                solved[k] = False
    if not solved.any():
        return None
    predicted = np.matmul(points_prev, rotations.transpose(0, 2, 1)) + translations[:, None, :]
    inliers = np.linalg.norm(predicted - points_cur, axis=2) < config.ransac_threshold
    # argmax takes the first maximum: the loop's strict ``>`` over hypotheses.
    return inliers[np.where(solved, inliers.sum(axis=1), -1).argmax()]


def _ransac_rigid(
    points_prev: np.ndarray,
    points_cur: np.ndarray,
    config: OrbLiteConfig,
    rng: np.random.Generator,
    perf: PerfRecorder = NULL_RECORDER,
) -> tuple[Pose | None, int]:
    """RANSAC, then a Horn fit on the winner's inliers: ``(pose, inliers)``.

    ``(None, 0)`` when fewer than ``config.min_matches`` inliers survive.
    """
    with perf.section("orb/pose"):
        best_inliers = _ransac_inliers(points_prev, points_cur, config, rng)
        if best_inliers is None or best_inliers.sum() < config.min_matches:
            return None, 0
        rotation, translation = _horn_alignments(
            points_prev[best_inliers][None], points_cur[best_inliers][None]
        )
    inliers = int(best_inliers.sum())
    perf.count("orb.inliers", inliers)
    return Pose(quat=rotmat_to_quat(rotation[0]), trans=translation[0]), inliers


def _backproject_corners(
    corners: np.ndarray, depth: np.ndarray, intrinsics: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Back-project corners with valid depth; returns (points, valid_mask)."""
    xs, ys = corners[:, 0], corners[:, 1]
    z = depth[ys, xs]
    valid = z > 1e-6
    points = np.stack(
        [
            (xs + 0.5 - intrinsics.cx) / intrinsics.fx * z,
            (ys + 0.5 - intrinsics.cy) / intrinsics.fy * z,
            z,
        ],
        axis=1,
    )
    return points, valid


@dataclasses.dataclass(frozen=True)
class OrbFeatures:
    """One frame's corners (N, 2) integer (x, y) and their (N, D) descriptors."""

    corners: np.ndarray
    descriptors: np.ndarray


def frame_features(gray: np.ndarray, config: OrbLiteConfig) -> OrbFeatures:
    """The features step: detect one frame's corners and describe them."""
    corners = detect_corners(gray, config)
    return OrbFeatures(corners, extract_descriptors(gray, corners, config.patch_size))


def relative_rigid_from_features(
    prev: OrbFeatures,
    prev_depth: np.ndarray,
    cur: OrbFeatures,
    cur_depth: np.ndarray,
    intrinsics: Intrinsics,
    config: OrbLiteConfig,
    rng: np.random.Generator,
    perf: PerfRecorder | None = None,
) -> tuple[Pose | None, int]:
    """The pose step: match, back-project, RANSAC, then a final Horn fit.

    Returns what :func:`estimate_relative_rigid` returns for the frames
    ``prev`` and ``cur`` were computed from.
    """
    perf = perf or NULL_RECORDER
    matches = match_descriptors(prev.descriptors, cur.descriptors, config.match_ratio)
    perf.count("orb.matches", len(matches))
    if len(matches) < config.min_matches:
        return None, 0

    points_prev, valid_prev = _backproject_corners(
        prev.corners[matches[:, 0]], prev_depth, intrinsics
    )
    points_cur, valid_cur = _backproject_corners(cur.corners[matches[:, 1]], cur_depth, intrinsics)
    valid = valid_prev & valid_cur
    points_prev, points_cur = points_prev[valid], points_cur[valid]
    if len(points_prev) < config.min_matches:
        return None, 0
    return _ransac_rigid(points_prev, points_cur, config, rng, perf)


def estimate_relative_rigid(
    prev_gray: np.ndarray,
    prev_depth: np.ndarray,
    cur_gray: np.ndarray,
    cur_depth: np.ndarray,
    intrinsics: Intrinsics,
    config: OrbLiteConfig,
    rng: np.random.Generator,
    perf: PerfRecorder | None = None,
) -> tuple[Pose | None, int]:
    """Feature-based relative motion between two RGB-D frames.

    The sparse pipeline of :class:`OrbLiteSlam` as a free function —
    detect corners, match normalized patch descriptors (invariant to
    affine intensity change, which is what makes this the right fallback
    under exposure drift), back-project through the depth channel and
    RANSAC a Horn alignment.  Returns the relative pose (previous-camera
    to current-camera) and the inlier count, or ``(None, 0)`` when not
    enough geometry survives.  It is :func:`frame_features` on both
    frames followed by :func:`relative_rigid_from_features`.

    ``rng`` drives RANSAC sampling; callers that need statelessness (the
    tracking-health fallback ladder) pass a generator freshly seeded per
    frame index.
    """
    perf = perf or NULL_RECORDER
    with perf.section("orb/features"):
        prev = frame_features(prev_gray, config)
        cur = frame_features(cur_gray, config)
    return relative_rigid_from_features(
        prev, prev_depth, cur, cur_depth, intrinsics, config, rng, perf=perf
    )


class OrbLiteSlam(OdometrySession):
    """Frame-to-frame sparse feature odometry with depth.

    A streaming :class:`SlamSession`: ``feed`` consumes one RGB-D frame
    and estimates its pose against the previously fed frame.  When too
    little geometry survives, the frame keeps the last relative motion
    (constant velocity) and counts ``orb.fallbacks``.

    Each frame's features (:func:`frame_features`) are computed once:
    the session keeps the last frame's in memory for the next frame's
    pose step.  They are a cache of ``_prev_gray``, not state: never
    checkpointed, dropped by ``reset`` (which ``restore`` and a
    ``retry_frame`` rollback run first), and recomputed from
    ``_prev_gray`` when absent.
    """

    algorithm = "orb-lite"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: OrbLiteConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.config = config or OrbLiteConfig()
        super().__init__(intrinsics, perf=perf)

    def reset(self) -> None:
        """Reset all state (including the RANSAC RNG) for a new sequence."""
        super().reset()
        self._rng = np.random.default_rng(self.config.seed)
        self._prev_features: OrbFeatures | None = None

    def _relative(self, frame, gray: np.ndarray) -> Pose:
        with self.perf.section("orb/features"):
            prev_features = self._prev_features
            if prev_features is None:
                prev_features = frame_features(self._prev_gray, self.config)
            features = frame_features(gray, self.config)
        relative, _ = relative_rigid_from_features(
            prev_features,
            self._prev_depth,
            features,
            frame.depth,
            self.intrinsics,
            self.config,
            self._rng,
            perf=self.perf,
        )
        self._prev_features = features
        if relative is None:
            self.perf.count("orb.fallbacks")
            return self._prev_relative
        return relative

    def _state_payload(self) -> dict:
        return {"rng": pack_rng(self._rng), **super()._state_payload()}

    def _restore_payload(self, payload: dict) -> None:
        super()._restore_payload(payload)
        self._rng = restore_rng(payload["rng"])
