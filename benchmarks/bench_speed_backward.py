"""Backward-pass micro-benchmark: fused vs reference rasterizer gradients.

Times the backward pass — the inner loop of tracking and mapping — in
four configurations at each scene scale:

* ``reference``: the per-tile executable spec that re-runs ``tile_forward``
  for every tile;
* ``bucketed``: the bucketed accumulator rebuilding the forward
  intermediates once (no retained cache);
* ``fused``: the bucketed accumulator consuming the ``ForwardCache``
  retained by the forward render — the path the mapper runs (one
  forward per iteration, backward reuses its cache);
* ``pose``: ``pose_backward`` on the same retained cache — the tracker's
  path, which computes only the camera-pose gradient (checked
  bit-identical to the ``fused`` pose gradient before timing);

plus ``iteration.fused``: one full optimizer iteration (forward render
retaining the cache + fused backward), the end-to-end quantity tracking
and mapping pay per iteration.

Results (with speedups) go to the ``BENCH_backward.json`` perf-trajectory
file at the repo root through the shared ``perf_gate`` harness (CLI,
gate and file format are documented there)::

    PYTHONPATH=src python benchmarks/bench_speed_backward.py --gate
"""

from __future__ import annotations

import numpy as np

from perf_gate import best_of, main  # also puts src/ on sys.path

from repro.gaussians import (
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    pose_backward,
    render,
    render_backward,
)

# (height, width, gaussians): a small tracking-scale scene and the paper's
# full 480x640 frame size at two map densities.
SCENES = [(120, 160, 200), (480, 640, 200), (480, 640, 500)]

# Timings gated by --gate: the bucketed/fused hot paths (the quantities
# this repo promises to keep fast).  Reference timings are informational.
GATED_KEYS = [
    "backward.120x160.n200.fused",
    "backward.120x160.n200.pose",
    "backward.480x640.n200.bucketed",
    "backward.480x640.n200.fused",
    "backward.480x640.n200.pose",
    "backward.480x640.n500.fused",
    "iteration.480x640.n200.fused",
]


def _scene(height: int, width: int, count: int):
    model = GaussianModel.random(count, extent=1.0, seed=3)
    model.means[:, 2] += 3.0
    camera = Camera(Intrinsics.from_fov(width, height, 60.0), Pose.identity())
    rng = np.random.default_rng(0)
    grad_color = rng.normal(size=(height, width, 3))
    grad_depth = rng.normal(size=(height, width))
    return model, camera, grad_color, grad_depth


def bench_backward(repeats: int) -> dict[str, float]:
    timings: dict[str, float] = {}
    for height, width, count in SCENES:
        label = f"{height}x{width}.n{count}"
        model, camera, grad_color, grad_depth = _scene(height, width, count)

        cache = ForwardCache()
        fused_result = render(
            model, camera, record_workloads=False, record_contributions=False, cache=cache
        )
        plain_result = render(model, camera, record_workloads=False, record_contributions=False)

        timings[f"backward.{label}.reference"] = best_of(
            lambda: render_backward(
                model, camera, plain_result, grad_color, grad_depth,
                compute_pose_gradient=True, backend="reference",
            ),
            1,
        )
        # No retained cache: the bucketed backward rebuilds the forward
        # intermediates itself.
        timings[f"backward.{label}.bucketed"] = best_of(
            lambda: render_backward(
                model, camera, plain_result, grad_color, grad_depth,
                compute_pose_gradient=True,
            ),
            repeats,
        )
        # Fused: forward already retained the cache; backward only consumes.
        timings[f"backward.{label}.fused"] = best_of(
            lambda: render_backward(
                model, camera, fused_result, grad_color, grad_depth,
                compute_pose_gradient=True,
            ),
            repeats,
        )
        _, full_pose = render_backward(
            model, camera, fused_result, grad_color, grad_depth, compute_pose_gradient=True
        )
        pose = pose_backward(model, camera, fused_result, grad_color, grad_depth)
        if not np.array_equal(pose.vector, full_pose.vector):
            raise AssertionError(f"{label}: pose_backward differs from render_backward")
        timings[f"backward.{label}.pose"] = best_of(
            lambda: pose_backward(model, camera, fused_result, grad_color, grad_depth),
            repeats,
        )

        def one_iteration():
            result = render(
                model, camera, record_workloads=False, record_contributions=False, cache=cache
            )
            render_backward(
                model, camera, result, grad_color, grad_depth, compute_pose_gradient=True
            )

        timings[f"iteration.{label}.fused"] = best_of(one_iteration, repeats)
    return timings


def measure(repeats: int) -> dict:
    timings = bench_backward(repeats)

    speedups = {}
    for height, width, count in SCENES:
        label = f"{height}x{width}.n{count}"
        reference = timings[f"backward.{label}.reference"]
        speedups[f"backward.{label}.bucketed"] = reference / timings[f"backward.{label}.bucketed"]
        speedups[f"backward.{label}.fused"] = reference / timings[f"backward.{label}.fused"]
        speedups[f"backward.{label}.pose"] = reference / timings[f"backward.{label}.pose"]

    targets = {
        # Tentpole target: >=3x on the fused backward at the paper's frame
        # size with a 200-Gaussian map.
        "backward.480x640.n200.fused >= 3x": speedups["backward.480x640.n200.fused"] >= 3.0,
    }
    return {
        "config": {"scenes": [list(scene) for scene in SCENES]},
        "timings_seconds": timings,
        "speedups": speedups,
        "targets_met": targets,
    }


if __name__ == "__main__":
    raise SystemExit(main("backward", measure, GATED_KEYS, description=__doc__))
