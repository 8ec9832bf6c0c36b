"""3DGS gradient-descent pose tracking (the fine-grained tracker).

This is the tracking stage of SplaTAM (Fig. 2 (b) of the paper): the map
is held fixed and the camera pose of the current frame is optimized by
rendering the map, comparing against the observed color and depth, and
descending the pose gradient for ``N_T`` iterations.  SplaTAM masks the
losses with the rendered silhouette so only well-reconstructed regions
constrain the pose.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gaussians.camera import Camera, Intrinsics, Pose
from repro.gaussians.gradients import pose_backward
from repro.gaussians.loss import masked_l1_loss
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import ForwardCache, render
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.workloads import RenderWorkload, TrackingWorkload

__all__ = ["TrackerConfig", "TrackingOutcome", "GaussianPoseTracker"]

# The tracker's backward pass is the pose-only entry point.  It is bound
# under the name the perfbench layer tracer wraps for its ``backward.pose``
# span (``repro.slam.tracker.render_backward``), so the traced runs keep
# timing it.
render_backward = pose_backward


@dataclasses.dataclass(frozen=True)
class TrackerConfig:
    """Configuration of the 3DGS pose tracker.

    Attributes:
        num_iterations: tracking iterations per frame (paper baseline: 200;
            the NumPy substrate scales this down while keeping the
            tracking-to-mapping ratio of the paper).
        learning_rate: Adam learning rate on the SE(3) perturbation.
        depth_weight: weight of the depth L1 term relative to color.
        silhouette_threshold: pixels with a rendered silhouette below this
            value are excluded from the loss (SplaTAM's presence mask).
        convergence_tol: early stop when the pose update norm falls below
            this threshold.
        use_constant_velocity_init: initialize the pose by extrapolating
            the previous relative motion (standard SplaTAM warm start).
    """

    num_iterations: int = 30
    learning_rate: float = 2e-3
    depth_weight: float = 0.5
    silhouette_threshold: float = 0.5
    convergence_tol: float = 1e-5
    use_constant_velocity_init: bool = True


@dataclasses.dataclass
class TrackingOutcome:
    """Result of tracking one frame."""

    pose: Pose
    iterations_run: int
    final_loss: float
    loss_history: list[float]
    workload: TrackingWorkload
    converged: bool


class GaussianPoseTracker:
    """Optimizes camera poses against a fixed Gaussian map.

    Each iteration runs one fused forward/backward: the forward render
    retains its bucketed blending intermediates in a :class:`ForwardCache`
    (one cache reused across iterations, so the scratch memory is
    allocated once per tracked frame) and the backward pass consumes them
    instead of re-running the forward per tile.  The map is held fixed, so
    the backward is :func:`~repro.gaussians.gradients.pose_backward`: it
    computes the camera-pose gradient and no Gaussian gradient.
    """

    def __init__(
        self,
        intrinsics: Intrinsics,
        config: TrackerConfig | None = None,
        perf: PerfRecorder | None = None,
    ) -> None:
        self.intrinsics = intrinsics
        self.config = config or TrackerConfig()
        self.perf = perf or NULL_RECORDER
        # One cache for the tracker's lifetime: its scratch pool is sized by
        # the largest frame seen, so per-frame tracking allocates nothing.
        self._cache = ForwardCache()

    def initial_guess(self, previous_poses: list[Pose]) -> Pose:
        """Warm-start pose: constant-velocity extrapolation of recent motion."""
        if not previous_poses:
            return Pose.identity()
        if len(previous_poses) == 1 or not self.config.use_constant_velocity_init:
            return previous_poses[-1].copy()
        last, before = previous_poses[-1], previous_poses[-2]
        velocity = last.relative_to(before)
        return velocity.compose(last)

    def track(
        self,
        model: GaussianModel,
        target_color: np.ndarray,
        target_depth: np.ndarray,
        initial_pose: Pose,
        num_iterations: int | None = None,
        collect_workload: bool = True,
    ) -> TrackingOutcome:
        """Optimize the pose of one frame.

        Args:
            model: the (fixed) Gaussian map.
            target_color: observed (H, W, 3) image.
            target_depth: observed (H, W) depth.
            initial_pose: starting pose.
            num_iterations: override for the configured iteration count
                (AGS's movement-adaptive tracking passes ``IterT`` here).
            collect_workload: record per-iteration render workloads.

        Returns:
            A :class:`TrackingOutcome`.
        """
        config = self.config
        iterations = config.num_iterations if num_iterations is None else num_iterations
        pose = initial_pose.copy()
        loss_history: list[float] = []
        renders: list[RenderWorkload] = []
        converged = False

        if len(model) == 0 or iterations <= 0:
            workload = TrackingWorkload(coarse_flops=0.0, refine_iterations=0, refine_renders=[])
            return TrackingOutcome(
                pose=pose, iterations_run=0, final_loss=0.0,
                loss_history=[], workload=workload, converged=True,
            )

        # Adam state on the 6-vector SE(3) perturbation.
        first_moment = np.zeros(6)
        second_moment = np.zeros(6)
        iterations_run = 0
        final_loss = 0.0

        cache = self._cache
        for iteration in range(iterations):
            camera = Camera(intrinsics=self.intrinsics, pose=pose)
            with self.perf.section("tracker/forward"):
                result = render(
                    model,
                    camera,
                    record_workloads=collect_workload,
                    record_contributions=False,
                    cache=cache,
                    perf=self.perf,
                )
            mask = result.silhouette > config.silhouette_threshold

            color_loss, color_grad = masked_l1_loss(result.color, target_color, mask)
            valid_depth = mask & (target_depth > 1e-6)
            # The rasterizer's depth channel is opacity weighted
            # (D = sum w_i z_i with sum w_i = silhouette); comparing it
            # against silhouette * observed depth measures the metric depth
            # error scaled by the local opacity while keeping the gradient
            # with respect to the raw rendered depth exact.
            depth_loss, depth_grad = masked_l1_loss(
                result.depth, target_depth * result.silhouette, valid_depth
            )
            loss = color_loss + config.depth_weight * depth_loss
            with self.perf.section("tracker/backward"):
                pose_grad = render_backward(
                    model,
                    camera,
                    result,
                    grad_color=color_grad,
                    grad_depth=config.depth_weight * depth_grad,
                    perf=self.perf,
                )

            gradient = pose_grad.vector
            first_moment = 0.9 * first_moment + 0.1 * gradient
            second_moment = 0.999 * second_moment + 0.001 * gradient**2
            m_hat = first_moment / (1.0 - 0.9 ** (iteration + 1))
            v_hat = second_moment / (1.0 - 0.999 ** (iteration + 1))
            update = config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            pose = pose.perturbed(-update)

            loss_history.append(float(loss))
            final_loss = float(loss)
            iterations_run = iteration + 1
            if collect_workload:
                renders.append(RenderWorkload.from_result(result, includes_backward=True))
            if float(np.linalg.norm(update)) < config.convergence_tol:
                converged = True
                break

        workload = TrackingWorkload(
            coarse_flops=0.0, refine_iterations=iterations_run, refine_renders=renders
        )
        return TrackingOutcome(
            pose=pose,
            iterations_run=iterations_run,
            final_loss=final_loss,
            loss_history=loss_history,
            workload=workload,
            converged=converged,
        )
