"""Sparse-rasterizer micro-benchmark: the one tile-assignment path.

Times the forward render and the fused forward/backward iteration — the
inner loops of tracking and mapping — on a SLAM-like Gaussian population
in which roughly half the splats are weak (the post-densification,
pre-pruning regime AGS's contribution statistics target).  Before timing
anything, the bucketed engine is verified against its executable
specification, ``backend="reference"`` (exact integer statistics, images
and gradients to float64 round-off), and the masked and dense execution
schedules are verified bit-identical.

Two more things are recorded:

* the work the sparse engine removes, read from the grid counters: the
  (tile, Gaussian) pairs culled against the classic 3-sigma tables, and
  the sub-tile pixel entries culled by the active intervals.  The
  hardware simulators consume that reduction.
* the masked row-segment schedule against the dense kernels at n200,
  timed by forcing the density threshold.  The per-chunk schedule choice
  is justified only while a bench scene sits on each side of it.

The results go to the ``BENCH_sparse.json`` perf-trajectory file at the
repo root through the shared ``perf_gate`` harness (CLI, gate and file
format are documented there)::

    PYTHONPATH=src python benchmarks/bench_speed_sparse.py --gate
    scripts/bench_speed.sh --only sparse                  # same, via the gate script
"""

from __future__ import annotations

import numpy as np

from perf_gate import best_of_each, main  # also puts src/ on sys.path

from repro.gaussians import (
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    render,
    render_backward,
)
from repro.gaussians import rasterizer as rasterizer_module

IMAGE = (120, 160)  # (height, width), matching the hot-path render bench
MODEL_SIZES = [200, 800]
# Density thresholds that force one execution schedule on every chunk.
FORCE_MASKED = 2.0
FORCE_DENSE = -1.0

GATED_KEYS = [
    "sparse.n200.iteration",
    "sparse.n800.render",
    "sparse.n800.iteration",
]


def _forced(threshold: float | None, fn):
    """Run ``fn()`` with the masked/dense density threshold overridden."""
    saved = rasterizer_module._SPARSE_DENSITY_FALLBACK
    if threshold is not None:
        rasterizer_module._SPARSE_DENSITY_FALLBACK = threshold
    try:
        return fn()
    finally:
        rasterizer_module._SPARSE_DENSITY_FALLBACK = saved


def _scene(count: int):
    """A SLAM-like map: half the splats weak (near/below the alpha cut-off)."""
    height, width = IMAGE
    model = GaussianModel.random(count, extent=1.0, seed=3)
    model.means[:, 2] += 3.0
    rng = np.random.default_rng(7)
    weak = rng.random(count) < 0.5
    model.opacities[weak] -= rng.uniform(4.0, 10.0, size=int(weak.sum()))
    camera = Camera(Intrinsics.from_fov(width, height, 60.0), Pose.identity())
    rng = np.random.default_rng(0)
    grad_color = rng.normal(size=(height, width, 3))
    grad_depth = rng.normal(size=(height, width))
    return model, camera, grad_color, grad_depth


def _verify(model, camera, grad_color, grad_depth) -> None:
    """Abort unless bucketed matches reference and both schedules agree."""
    reference = render(model, camera, backend="reference")
    bucketed = render(model, camera)
    for name in ("gaussian_pixels_touched", "gaussian_noncontrib_pixels", "gaussian_max_alpha"):
        if not np.array_equal(getattr(reference, name), getattr(bucketed, name)):
            raise SystemExit(f"bucketed != reference on {name}")
    for ref_tile, tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        if (ref_tile.pairs_computed, ref_tile.pairs_blended) != (tile.pairs_computed, tile.pairs_blended):
            raise SystemExit(f"bucketed != reference on tile {tile.tile_index} workload")
    if not np.allclose(bucketed.color, reference.color, rtol=0, atol=1e-9):
        raise SystemExit("bucketed != reference on color")
    ref_grads, _ = render_backward(model, camera, bucketed, grad_color, grad_depth, backend="reference")

    def forward_backward(threshold):
        result = _forced(threshold, lambda: render(model, camera, cache=ForwardCache()))
        return result, render_backward(model, camera, result, grad_color, grad_depth)[0]

    masked, masked_grads = forward_backward(FORCE_MASKED)
    dense, dense_grads = forward_backward(FORCE_DENSE)
    for name, value in ref_grads.as_dict().items():
        if not np.allclose(dense_grads.as_dict()[name], value, rtol=1e-9, atol=1e-9):
            raise SystemExit(f"bucketed != reference on gradient {name}")
        if not np.array_equal(dense_grads.as_dict()[name], masked_grads.as_dict()[name]):
            raise SystemExit(f"masked != dense schedule on gradient {name}")
    for name in ("color", "depth", "silhouette", "final_transmittance"):
        if not np.array_equal(getattr(masked, name), getattr(dense, name)):
            raise SystemExit(f"masked != dense schedule on {name}")


def bench_sparse(repeats: int) -> tuple[dict[str, float], dict[str, dict]]:
    timings: dict[str, float] = {}
    reductions: dict[str, dict] = {}
    for count in MODEL_SIZES:
        label = f"n{count}"
        model, camera, grad_color, grad_depth = _scene(count)
        _verify(model, camera, grad_color, grad_depth)

        grid = render(model, camera).tile_grid
        reductions[label] = {
            "pairs_total": grid.pairs_total,
            "pairs_culled": grid.pairs_culled,
            "pairs_culled_fraction": round(grid.pairs_culled / max(grid.pairs_total, 1), 4),
            "pixels_total": grid.pixels_total,
            "pixels_culled": grid.pixels_culled,
            "pixels_culled_fraction": round(grid.pixels_culled / max(grid.pixels_total, 1), 4),
        }

        cache = ForwardCache()

        def one_render():
            render(model, camera, record_workloads=False, record_contributions=False)

        def one_iteration(threshold=None):
            def run():
                result = render(
                    model, camera, record_workloads=False,
                    record_contributions=False, cache=cache,
                )
                render_backward(
                    model, camera, result, grad_color, grad_depth,
                    compute_pose_gradient=True,
                )
            _forced(threshold, run)

        cases = {"render": one_render, "iteration": one_iteration}
        if count == MODEL_SIZES[0]:
            cases["iteration.masked"] = lambda: one_iteration(FORCE_MASKED)
            cases["iteration.dense"] = lambda: one_iteration(FORCE_DENSE)
        for key, value in best_of_each(cases, repeats).items():
            timings[f"sparse.{label}.{key}"] = value
    return timings, reductions


def measure(repeats: int) -> dict:
    timings, reductions = bench_sparse(repeats)
    masked_speedup = timings["sparse.n200.iteration.dense"] / timings["sparse.n200.iteration.masked"]
    targets = {
        "sparse.n800 culls >= 25% of pairs": reductions["n800"]["pairs_culled_fraction"] >= 0.25,
        "sparse.n800 culls >= 40% of pixels": reductions["n800"]["pixels_culled_fraction"] >= 0.40,
        "sparse.n200.iteration masked >= 1.0x dense": masked_speedup >= 1.0,
    }
    return {
        "config": {
            "image": list(IMAGE),
            "model_sizes": MODEL_SIZES,
            "verified": "bucketed == reference, masked == dense",
        },
        "timings_seconds": timings,
        "speedups": {"sparse.n200.iteration.masked_vs_dense": masked_speedup},
        "reduction": reductions,
        "targets_met": targets,
    }


if __name__ == "__main__":
    raise SystemExit(main("sparse", measure, GATED_KEYS, description=__doc__))
