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
from repro.slam.results import FrameResult
from repro.slam.session import SessionRunner, pack_pose, pack_rng, restore_rng, unpack_pose

__all__ = [
    "OrbLiteConfig",
    "OrbLiteSlam",
    "detect_corners",
    "estimate_relative_rigid",
    "extract_descriptors",
    "match_descriptors",
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
    matches = []
    best_b = distances.argmin(axis=1)
    for index_a, index_b in enumerate(best_b):
        row = distances[index_a]
        sorted_row = np.sort(row)
        if len(sorted_row) > 1 and sorted_row[0] > ratio * sorted_row[1]:
            continue
        # Mutual check.
        if distances[:, index_b].argmin() != index_a:
            continue
        matches.append((index_a, index_b))
    return np.asarray(matches, dtype=np.int64).reshape(-1, 2)


def _horn_alignment(points_a: np.ndarray, points_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form rigid transform mapping points_a onto points_b."""
    mu_a = points_a.mean(axis=0)
    mu_b = points_b.mean(axis=0)
    covariance = (points_b - mu_b).T @ (points_a - mu_a)
    u, _, vt = np.linalg.svd(covariance)
    sign_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign_fix[2, 2] = -1.0
    rotation = u @ sign_fix @ vt
    translation = mu_b - rotation @ mu_a
    return rotation, translation


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
    enough geometry survives.

    ``rng`` drives RANSAC sampling; callers that need statelessness (the
    tracking-health fallback ladder) pass a generator freshly seeded per
    frame index.
    """
    perf = perf or NULL_RECORDER
    with perf.section("orb/features"):
        corners_prev = detect_corners(prev_gray, config)
        corners_cur = detect_corners(cur_gray, config)
        desc_prev = extract_descriptors(prev_gray, corners_prev, config.patch_size)
        desc_cur = extract_descriptors(cur_gray, corners_cur, config.patch_size)
        matches = match_descriptors(desc_prev, desc_cur, config.match_ratio)
    perf.count("orb.matches", len(matches))
    if len(matches) < config.min_matches:
        return None, 0

    points_prev, valid_prev = _backproject_corners(
        corners_prev[matches[:, 0]], prev_depth, intrinsics
    )
    points_cur, valid_cur = _backproject_corners(
        corners_cur[matches[:, 1]], cur_depth, intrinsics
    )
    valid = valid_prev & valid_cur
    points_prev, points_cur = points_prev[valid], points_cur[valid]
    if len(points_prev) < config.min_matches:
        return None, 0

    best_inliers: np.ndarray | None = None
    with perf.section("orb/pose"):
        for _ in range(config.ransac_iterations):
            sample = rng.choice(len(points_prev), size=3, replace=False)
            try:
                rotation, translation = _horn_alignment(points_prev[sample], points_cur[sample])
            except np.linalg.LinAlgError:
                continue
            predicted = points_prev @ rotation.T + translation
            errors = np.linalg.norm(predicted - points_cur, axis=1)
            inliers = errors < config.ransac_threshold
            if best_inliers is None or inliers.sum() > best_inliers.sum():
                best_inliers = inliers
        if best_inliers is None or best_inliers.sum() < config.min_matches:
            return None, 0

        rotation, translation = _horn_alignment(
            points_prev[best_inliers], points_cur[best_inliers]
        )
    perf.count("orb.inliers", int(best_inliers.sum()))
    relative = Pose(quat=rotmat_to_quat(rotation), trans=translation)
    return relative, int(best_inliers.sum())


class OrbLiteSlam(SessionRunner):
    """Frame-to-frame sparse feature odometry with depth.

    A streaming :class:`SlamSession`: ``feed`` consumes one RGB-D frame
    and estimates its pose against the previously fed frame.
    """

    algorithm = "orb-lite"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: OrbLiteConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.config = config or OrbLiteConfig()
        super().__init__(
            intrinsics,
            collect_trace=False,
            perf=perf,
        )
        self._rng = np.random.default_rng(self.config.seed)
        self._prev_gray: np.ndarray | None = None
        self._prev_depth: np.ndarray | None = None
        self._prev_pose: Pose | None = None
        self._prev_relative = Pose.identity()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all state (including the RANSAC RNG) for a new sequence."""
        self._rng = np.random.default_rng(self.config.seed)
        self._prev_gray = None
        self._prev_depth = None
        self._prev_pose = None
        self._prev_relative = Pose.identity()

    # ------------------------------------------------------------------
    def estimate_relative_pose(
        self,
        prev_gray: np.ndarray,
        prev_depth: np.ndarray,
        cur_gray: np.ndarray,
        cur_depth: np.ndarray,
    ) -> tuple[Pose | None, int]:
        """Estimate the motion between two RGB-D frames.

        Returns the relative pose (mapping previous-camera coordinates to
        current-camera coordinates) and the number of inlier matches, or
        ``(None, 0)`` when not enough geometry is available.  Thin wrapper
        over :func:`estimate_relative_rigid` bound to this session's
        intrinsics, RANSAC RNG stream and perf recorder.
        """
        return estimate_relative_rigid(
            prev_gray,
            prev_depth,
            cur_gray,
            cur_depth,
            self.intrinsics,
            self.config,
            self._rng,
            perf=self.perf,
        )

    # ------------------------------------------------------------------
    def _track(self, index: int, frame) -> FrameResult:
        """Estimate one frame's pose against the previously fed frame.

        The first frame's pose is anchored to the ground truth (standard
        practice: SLAM trajectories are defined up to a global transform).
        Pure odometry has no mapping stage, so the track/map split is
        degenerate: everything happens here and :meth:`_map` passes the
        result through.
        """
        if index == 0 or self._prev_gray is None:
            estimated = frame.gt_pose.copy()
            frame_result = FrameResult(frame_index=index, estimated_pose=estimated.copy())
        else:
            relative, _ = self.estimate_relative_pose(
                self._prev_gray, self._prev_depth, frame.gray, frame.depth
            )
            self.perf.count("frames.processed")
            if relative is None:
                relative = self._prev_relative  # constant velocity fallback
                self.perf.count("orb.fallbacks")
            estimated = relative.compose(self._prev_pose)
            frame_result = FrameResult(
                frame_index=index,
                estimated_pose=estimated.copy(),
                tracking_iterations=0,
                mapping_iterations=0,
            )
            self._prev_relative = relative
        self._prev_gray = np.asarray(frame.gray)
        self._prev_depth = np.asarray(frame.depth)
        self._prev_pose = estimated
        return frame_result

    def _map(self, index: int, frame, tracked: FrameResult) -> tuple[FrameResult, None]:
        """Degenerate mapping sub-stage: odometry produces no map."""
        return tracked, None

    def _state_payload(self) -> dict:
        return {
            "rng": pack_rng(self._rng),
            "prev_gray": None if self._prev_gray is None else self._prev_gray.copy(),
            "prev_depth": None if self._prev_depth is None else self._prev_depth.copy(),
            "prev_pose": pack_pose(self._prev_pose),
            "prev_relative": pack_pose(self._prev_relative),
        }

    def _restore_payload(self, payload: dict) -> None:
        self._rng = restore_rng(payload["rng"])
        prev_gray = payload["prev_gray"]
        prev_depth = payload["prev_depth"]
        self._prev_gray = None if prev_gray is None else np.asarray(prev_gray).copy()
        self._prev_depth = None if prev_depth is None else np.asarray(prev_depth).copy()
        self._prev_pose = unpack_pose(payload["prev_pose"])
        self._prev_relative = unpack_pose(payload["prev_relative"])
