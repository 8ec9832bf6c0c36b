"""3DGS mapping: updating the Gaussian map from posed RGB-D frames.

Mapping (Fig. 2 (b), right) fixes the camera poses and runs ``N_M``
training iterations of 3DGS per frame, alternating between the current
frame and previously selected keyframes so older parts of the scene are
not forgotten.  The mapper also performs SplaTAM-style densification
before optimization and exposes the two hooks AGS needs:

* an ``active_mask`` to skip Gaussians during selective mapping, and
* per-Gaussian contribution recording (non-contributory pixel counts)
  during full mapping of key frames.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Camera, Intrinsics, Pose
from repro.gaussians.densify import DensificationConfig, densify_from_frame
from repro.gaussians.gradients import render_backward
from repro.gaussians.loss import l1_loss
from repro.gaussians.model import GaussianModel
from repro.gaussians.optimizer import DEFAULT_LEARNING_RATES, Adam
from repro.gaussians.rasterizer import ALPHA_MIN, ForwardCache, render
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.workloads import MappingWorkload, RenderWorkload

__all__ = ["MapperConfig", "MappingOutcome", "GaussianMapper"]


@dataclasses.dataclass(frozen=True)
class MapperConfig:
    """Configuration of the Gaussian mapper.

    Attributes:
        num_iterations: mapping iterations per frame (paper baseline: 30).
        depth_weight: weight of the depth L1 loss term.
        keyframe_sample_size: how many previous keyframes participate in
            each frame's mapping alongside the current frame.
        densify: enable densification from unexplained pixels.
        densification: densification parameters.
        prune_min_opacity: opacity below which Gaussians are pruned after
            mapping a frame (0 disables pruning).
        contribution_threshold: alpha below which a Gaussian counts as
            non-contributory for a pixel (paper's ThreshAlpha = 1/255).
        learning_rates: per-attribute Adam learning rates.
    """

    num_iterations: int = 8
    depth_weight: float = 0.3
    keyframe_sample_size: int = 2
    densify: bool = True
    densification: DensificationConfig = dataclasses.field(default_factory=DensificationConfig)
    prune_min_opacity: float = 0.02
    contribution_threshold: float = ALPHA_MIN
    learning_rates: dict | None = None


@dataclasses.dataclass
class MappingOutcome:
    """Result of mapping one frame."""

    model: GaussianModel
    iterations_run: int
    final_loss: float
    loss_history: list[float]
    workload: MappingWorkload
    noncontrib_counts: np.ndarray
    contrib_counts: np.ndarray
    max_alphas: np.ndarray
    num_densified: int


class GaussianMapper:
    """Runs 3DGS map optimization for posed frames.

    Each optimization iteration runs one fused forward/backward: the
    forward render retains its bucketed blending intermediates in a
    :class:`ForwardCache` (reused across the frame's iterations) and the
    backward pass consumes them instead of re-running the forward per tile.
    """

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: MapperConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.intrinsics = intrinsics
        self.config = config or MapperConfig()
        self.perf = perf or NULL_RECORDER
        self.optimizer = Adam(learning_rates=self.config.learning_rates or DEFAULT_LEARNING_RATES)
        # One cache for the mapper's lifetime: its scratch pool is sized by
        # the largest frame seen, so per-frame mapping allocates nothing.
        self._cache = ForwardCache()
        self._rng = np.random.default_rng(0)

    def reset(self) -> None:
        """Clear optimizer state (when starting a new sequence)."""
        self.optimizer.reset()
        self._rng = np.random.default_rng(0)

    def state_dict(self) -> dict:
        """Snapshot the optimizer moments and the sampling RNG."""
        from repro.slam.session import pack_rng

        return {"optimizer": self.optimizer.state_dict(), "rng": pack_rng(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        from repro.slam.session import restore_rng

        self.optimizer.load_state_dict(state["optimizer"])
        self._rng = restore_rng(state["rng"])

    # ------------------------------------------------------------------
    def map_frame(
        self,
        model: GaussianModel,
        frame_color: np.ndarray,
        frame_depth: np.ndarray,
        pose: Pose,
        keyframes: list[tuple[np.ndarray, np.ndarray, Pose]] | None = None,
        num_iterations: int | None = None,
        active_mask: np.ndarray | None = None,
        record_contributions: bool = False,
        collect_workload: bool = True,
        allow_densify: bool = True,
        allow_prune: bool = True,
    ) -> MappingOutcome:
        """Update the map from one posed frame.

        Args:
            model: current Gaussian map (modified copy is returned).
            frame_color / frame_depth: the current observation.
            pose: the (fixed) camera pose of the observation.
            keyframes: optional list of ``(color, depth, pose)`` tuples of
                previous keyframes to co-optimize against.
            num_iterations: override of the configured iteration count.
            active_mask: optional (N,) mask; inactive Gaussians are skipped
                entirely (AGS selective mapping).  The mask refers to the
                model *before* densification; newly densified Gaussians are
                always active.
            record_contributions: accumulate per-Gaussian non-contributory
                pixel counts (AGS full mapping on key frames).
            collect_workload: record per-iteration render workloads.
            allow_densify: permit densification for this frame.
            allow_prune: permit opacity-based pruning after optimization
                (AGS disables this on non-key frames so that Gaussian
                indices stay aligned with the recorded contribution table).

        Returns:
            A :class:`MappingOutcome`; ``outcome.model`` is the updated map.
        """
        config = self.config
        iterations = config.num_iterations if num_iterations is None else num_iterations
        keyframes = keyframes or []
        camera = Camera(intrinsics=self.intrinsics, pose=pose)

        model = model.copy()
        num_densified = 0
        if config.densify and allow_densify:
            seed_result = (
                render(model, camera, record_workloads=False, record_contributions=False)
                if len(model)
                else None
            )
            if seed_result is None:
                model = self._bootstrap_model(camera, frame_color, frame_depth)
                num_densified = len(model)
            else:
                model, report = densify_from_frame(
                    model, camera, seed_result, frame_color, frame_depth,
                    config=config.densification, rng=self._rng,
                )
                num_densified = report.num_added

        if active_mask is not None:
            mask = np.ones(len(model), dtype=bool)
            mask[: len(active_mask)] = np.asarray(active_mask, dtype=bool)
        else:
            mask = None

        noncontrib = np.zeros(len(model), dtype=np.int64)
        contrib = np.zeros(len(model), dtype=np.int64)
        max_alphas = np.zeros(len(model))
        renders: list[RenderWorkload] = []
        loss_history: list[float] = []
        final_loss = 0.0
        skipped = int((~mask).sum()) if mask is not None else 0

        views = [(frame_color, frame_depth, pose)]
        if keyframes:
            sample = min(config.keyframe_sample_size, len(keyframes))
            picks = self._rng.choice(len(keyframes), size=sample, replace=False)
            views.extend(keyframes[int(i)] for i in picks)

        cache = self._cache
        for iteration in range(iterations):
            view_color, view_depth, view_pose = views[iteration % len(views)]
            view_camera = Camera(intrinsics=self.intrinsics, pose=view_pose)
            # Contribution statistics are only consumed on iteration 0 (the
            # key frame's own view); later iterations can take the
            # stats-free fast path when no workload trace is requested.
            want_contributions = record_contributions and iteration == 0
            with self.perf.section("mapper/forward"):
                result = render(
                    model,
                    view_camera,
                    active_mask=mask,
                    contribution_threshold=config.contribution_threshold,
                    record_workloads=collect_workload,
                    record_contributions=want_contributions,
                    cache=cache,
                    perf=self.perf,
                )
            color_loss, color_grad = l1_loss(result.color, view_color)
            valid = view_depth > 1e-6
            # Compare the opacity-weighted rendered depth against the
            # observed depth scaled by the rendered silhouette (see
            # GaussianPoseTracker for the rationale).
            depth_diff = np.where(valid, result.depth - view_depth * result.silhouette, 0.0)
            depth_loss = float(np.abs(depth_diff).sum() / max(valid.sum(), 1))
            depth_grad = np.sign(depth_diff) / max(int(valid.sum()), 1)
            loss = color_loss + config.depth_weight * depth_loss

            with self.perf.section("mapper/backward"):
                grads, _ = render_backward(
                    model,
                    view_camera,
                    result,
                    grad_color=color_grad,
                    grad_depth=config.depth_weight * depth_grad,
                    perf=self.perf,
                )
            params = self.optimizer.step(model.parameters(), grads.as_dict())
            model.set_parameters(params)
            model.normalize_quaternions()

            if record_contributions and iteration == 0:
                # Contribution statistics are recorded from the key frame's
                # own view (the first mapping iteration), matching the
                # paper's "record during full mapping of the key frame".
                noncontrib += result.gaussian_noncontrib_pixels
                contrib += result.gaussian_pixels_touched - result.gaussian_noncontrib_pixels
                # Gaussians culled during preprocessing (outside the view
                # frustum of the key frame) contributed to nothing: record
                # them as non-contributory for every pixel so selective
                # mapping can skip their preprocessing work too.
                untouched = result.gaussian_pixels_touched == 0
                noncontrib[untouched] = frame_depth.size
                max_alphas = np.maximum(max_alphas, result.gaussian_max_alpha)
            if collect_workload:
                renders.append(RenderWorkload.from_result(result, includes_backward=True))
            loss_history.append(float(loss))
            final_loss = float(loss)

        if allow_prune and config.prune_min_opacity > 0 and len(model):
            keep = model.alphas >= config.prune_min_opacity
            if not keep.all():
                keep_idx = np.nonzero(keep)[0]
                model = model.subset(keep_idx)
                noncontrib = noncontrib[keep_idx]
                contrib = contrib[keep_idx]
                max_alphas = max_alphas[keep_idx]
                for name in GaussianModel.PARAM_NAMES:
                    self.optimizer.resize_state(name, keep_idx, len(keep_idx))

        workload = MappingWorkload(
            iterations=len(loss_history),
            renders=renders,
            is_keyframe=not bool(mask is not None),
            gaussians_skipped=skipped,
            gaussians_considered=len(model),
            contribution_entries_written=int((noncontrib > 0).sum()) if record_contributions else 0,
            contribution_entries_read=skipped,
        )
        return MappingOutcome(
            model=model,
            iterations_run=len(loss_history),
            final_loss=final_loss,
            loss_history=loss_history,
            workload=workload,
            noncontrib_counts=noncontrib,
            contrib_counts=contrib,
            max_alphas=max_alphas,
            num_densified=num_densified,
        )

    # ------------------------------------------------------------------
    def _bootstrap_model(
        self, camera: Camera, frame_color: np.ndarray, frame_depth: np.ndarray
    ) -> GaussianModel:
        """Initialize the map from the first frame's back-projected pixels."""
        from repro.gaussians.densify import backproject_pixels

        height, width = frame_depth.shape
        ys, xs = np.nonzero(frame_depth > 1e-6)
        if len(ys) == 0:
            return GaussianModel.empty()
        stride = max(len(ys) // 400, 1)
        ys, xs = ys[::stride], xs[::stride]
        depths = frame_depth[ys, xs]
        pixels = np.stack([xs, ys], axis=1).astype(np.float64)
        points = backproject_pixels(camera, pixels, depths)
        colors = frame_color[ys, xs]
        scales = depths / camera.intrinsics.fx * 1.5
        return GaussianModel.from_points(points, colors, scale=np.maximum(scales, 1e-4), opacity=0.8)
