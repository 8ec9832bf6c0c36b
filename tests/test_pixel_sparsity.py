"""Exactness and robustness tests for pixel-level sparse rasterization.

``sparsity="pixel"`` (the default) attaches conservative per-pair active
row/column intervals to every tile table — closed-form conic strip minima,
the same math as the PR 5 pair cull applied per pixel row/column — and the
bucketed engine consumes them both for accounting (``pairs_computed``,
``raster.pixels_*``) and, on sufficiently sparse chunks, for a masked
row-segment execution schedule.  All of it must be *pure*: relative to
``sparsity="tile"`` the images, integer contribution statistics and fused
backward gradients are bit-identical, across every knob combination and
both execution schedules.

These tests pin that down, plus the supporting machinery:

* intervals are conservative supersets of the alpha >= ALPHA_MIN support;
* the ``raster.pixels_total`` / ``raster.pixels_culled`` counters, the
  ``RenderWorkload`` pixel fields and the hardware models' consumption of
  them (no double-discounting in GSCore) are consistent;
* ``ForwardCache`` / ``ScratchPool`` stay correct and bounded under
  alternating ``mode_tag`` s (sparsity flips, masked/fallback flips);
* checkpoint/resume stays bit-identical under the new default.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import AGSConfig, AgsSlam
from repro.gaussians import (
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    render,
    render_backward,
)
from repro.gaussians.projection import ALPHA_MIN, RADIUS_MODES, project_gaussians
from repro.gaussians import rasterizer as rasterizer_module
from repro.gaussians.rasterizer import DEFAULT_SPARSITY_MODE
from repro.gaussians.tiles import CULL_MODES, SPARSITY_MODES, assign_tiles
from repro.hardware.accelerator import record_trace_counters
from repro.hardware.config import JETSON_XAVIER
from repro.hardware.gscore_model import GsCorePlatform
from repro.perf import PerfRecorder
from repro.slam import load_session_state, save_session_state
from repro.workloads import (
    FrameTrace,
    MappingWorkload,
    RenderWorkload,
    SequenceTrace,
    TrackingWorkload,
)

ALL_KNOBS = [
    (radius, cull, sparsity)
    for radius in RADIUS_MODES
    for cull in CULL_MODES
    for sparsity in SPARSITY_MODES
]


def _scene(count=120, seed=3, width=72, height=56, fov=60.0):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    camera = Camera(Intrinsics.from_fov(width, height, fov), Pose.identity())
    return model, camera


def _mixed_opacity_scene(**kwargs):
    """A SLAM-like population: many weak splats below/near the cut-off."""
    model, camera = _scene(**kwargs)
    rng = np.random.default_rng(7)
    low = rng.random(len(model)) < 0.5
    model.opacities[low] -= rng.uniform(4.0, 10.0, size=int(low.sum()))
    return model, camera


def _grads(width=72, height=56, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(height, width, 3)), rng.normal(size=(height, width))


def _assert_renders_bit_identical(a, b):
    np.testing.assert_array_equal(a.color, b.color)
    np.testing.assert_array_equal(a.depth, b.depth)
    np.testing.assert_array_equal(a.silhouette, b.silhouette)
    np.testing.assert_array_equal(a.final_transmittance, b.final_transmittance)


def _assert_contrib_stats_equal(a, b):
    np.testing.assert_array_equal(a.gaussian_pixels_touched, b.gaussian_pixels_touched)
    np.testing.assert_array_equal(
        a.gaussian_noncontrib_pixels, b.gaussian_noncontrib_pixels
    )
    np.testing.assert_array_equal(a.gaussian_max_alpha, b.gaussian_max_alpha)


def _assert_grads_bit_identical(a, b):
    for name, value in a.as_dict().items():
        np.testing.assert_array_equal(value, b.as_dict()[name], err_msg=name)


# ----------------------------------------------------------------------
# Bit-identity across every knob combination and both schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("radius,cull,sparsity", ALL_KNOBS)
def test_render_bit_identical_across_all_knob_combinations(radius, cull, sparsity):
    model, camera = _mixed_opacity_scene()
    legacy = render(model, camera, radius="sigma", cull="aabb", sparsity="tile")
    other = render(model, camera, radius=radius, cull=cull, sparsity=sparsity)
    _assert_renders_bit_identical(legacy, other)
    _assert_contrib_stats_equal(legacy, other)
    assert other.total_pairs_blended == legacy.total_pairs_blended


@pytest.mark.parametrize("use_cache", [True, False])
def test_fused_backward_bit_identical_pixel_vs_tile(use_cache):
    model, camera = _mixed_opacity_scene()
    grad_color, grad_depth = _grads()
    grads = {}
    for sparsity in SPARSITY_MODES:
        cache = ForwardCache() if use_cache else None
        result = render(model, camera, cache=cache, sparsity=sparsity)
        grads[sparsity], _ = render_backward(
            model, camera, result, grad_color, grad_depth, compute_pose_gradient=True
        )
    _assert_grads_bit_identical(grads["pixel"], grads["tile"])


@pytest.mark.parametrize("threshold", [-1.0, 2.0])
def test_masked_and_fallback_schedules_bit_identical(monkeypatch, threshold):
    """Forcing either execution schedule changes nothing but wall-clock.

    ``threshold = -1.0`` forces the dense fallback on every chunk,
    ``2.0`` forces the masked row-segment path; both must match the
    tile-granular render and gradients bit for bit.
    """
    model, camera = _mixed_opacity_scene()
    grad_color, grad_depth = _grads()
    baseline = render(model, camera, cache=ForwardCache(), sparsity="tile")
    base_grads, _ = render_backward(model, camera, baseline, grad_color, grad_depth)

    monkeypatch.setattr(rasterizer_module, "_SPARSE_DENSITY_FALLBACK", threshold)
    forced = render(model, camera, cache=ForwardCache(), sparsity="pixel")
    _assert_renders_bit_identical(baseline, forced)
    _assert_contrib_stats_equal(baseline, forced)
    forced_grads, _ = render_backward(model, camera, forced, grad_color, grad_depth)
    _assert_grads_bit_identical(base_grads, forced_grads)


def test_bucketed_matches_reference_stats_under_pixel():
    model, camera = _mixed_opacity_scene()
    reference = render(model, camera, backend="reference", sparsity="pixel")
    bucketed = render(model, camera, backend="bucketed", sparsity="pixel")
    _assert_contrib_stats_equal(reference, bucketed)
    np.testing.assert_allclose(bucketed.color, reference.color, atol=1e-9, rtol=0)
    for ref_tile, fast_tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        assert fast_tile.pairs_computed == ref_tile.pairs_computed
        assert fast_tile.pairs_blended == ref_tile.pairs_blended


def test_float32_cache_keeps_images_bit_identical_under_pixel(monkeypatch):
    # Force the masked schedule so the compressed (segments, tile_w)
    # cache storage is the variant exercised.
    monkeypatch.setattr(rasterizer_module, "_SPARSE_DENSITY_FALLBACK", 2.0)
    model, camera = _mixed_opacity_scene()
    grad_color, grad_depth = _grads()
    plain = render(model, camera, sparsity="pixel")
    f64 = render(model, camera, cache=ForwardCache(), sparsity="pixel")
    f32 = render(model, camera, cache=ForwardCache(dtype=np.float32), sparsity="pixel")
    _assert_renders_bit_identical(plain, f32)
    grads64, _ = render_backward(model, camera, f64, grad_color, grad_depth)
    grads32, _ = render_backward(model, camera, f32, grad_color, grad_depth)
    for name, value in grads64.as_dict().items():
        np.testing.assert_allclose(
            grads32.as_dict()[name], value, rtol=1e-4, atol=1e-7, err_msg=name
        )


# ----------------------------------------------------------------------
# Intervals are conservative; counters are consistent
# ----------------------------------------------------------------------
def test_intervals_are_conservative_supersets():
    model, camera = _mixed_opacity_scene()
    result = render(model, camera, sparsity="pixel")
    grid = result.tile_grid
    projection = result.projection
    opac = model.alphas
    ts = grid.tile_size

    checked_partial = 0
    for table in grid.tables:
        if not len(table.gaussian_ids):
            continue
        iv = table.intervals
        assert iv is not None and iv.shape == (len(table.gaussian_ids), 4)
        x0, y0 = table.tile_x * ts, table.tile_y * ts
        tile_w = min(ts, grid.width - x0)
        tile_h = min(ts, grid.height - y0)
        cols, rows = np.meshgrid(np.arange(tile_w), np.arange(tile_h))
        px = x0 + cols + 0.5
        py = y0 + rows + 0.5
        for i, gid in enumerate(table.gaussian_ids):
            r0, r1, c0, c1 = iv[i]
            assert 0 <= r0 <= r1 <= tile_h
            assert 0 <= c0 <= c1 <= tile_w
            dx = px - projection.means2d[gid, 0]
            dy = py - projection.means2d[gid, 1]
            conic = projection.conics[gid]
            q = (
                conic[0, 0] * dx * dx
                + 2.0 * conic[0, 1] * dx * dy
                + conic[1, 1] * dy * dy
            )
            alpha = opac[gid] * np.exp(np.minimum(-0.5 * q, 0.0))
            outside = np.ones((tile_h, tile_w), dtype=bool)
            outside[r0:r1, c0:c1] = False
            assert not np.any(alpha[outside] >= ALPHA_MIN)
            if (r1 - r0) * (c1 - c0) < tile_h * tile_w:
                checked_partial += 1
    # The mixed-opacity scene must actually exercise partial intervals.
    assert checked_partial > 0


def test_pixel_counters_consistent_with_grid_and_perf():
    model, camera = _mixed_opacity_scene()
    recorder = PerfRecorder()
    result = render(model, camera, sparsity="pixel", perf=recorder)
    grid = result.tile_grid
    assert grid.sparsity == "pixel"
    assert grid.pixels_total > 0
    assert 0 < grid.pixels_culled < grid.pixels_total
    # Counter values match the grid exactly.
    assert recorder.counters.get("raster.pixels_total") == grid.pixels_total
    assert recorder.counters.get("raster.pixels_culled") == grid.pixels_culled
    # The kept entries are exactly the summed interval areas.
    kept = 0
    for table in grid.tables:
        iv = table.intervals
        if iv is not None and len(iv):
            kept += int(((iv[:, 1] - iv[:, 0]) * (iv[:, 3] - iv[:, 2])).sum())
    assert kept == grid.pixels_total - grid.pixels_culled

    tile_grid = render(model, camera, sparsity="tile").tile_grid
    assert tile_grid.pixels_culled == 0
    assert tile_grid.pixels_total == grid.pixels_total
    for table in tile_grid.tables:
        assert table.intervals is None


def test_pixel_sparsity_reduces_alpha_evaluations_not_blending():
    model, camera = _mixed_opacity_scene()
    tile = render(model, camera, sparsity="tile")
    pixel = render(model, camera, sparsity="pixel")
    assert pixel.total_pairs_computed < tile.total_pairs_computed
    assert pixel.total_pairs_blended == tile.total_pairs_blended


# ----------------------------------------------------------------------
# Workload records and hardware-model consumption
# ----------------------------------------------------------------------
def test_workload_records_and_scales_pixel_reduction():
    model, camera = _mixed_opacity_scene()
    result = render(model, camera, sparsity="pixel")
    workload = RenderWorkload.from_result(result)
    grid = result.tile_grid
    assert workload.pixels_total == grid.pixels_total
    assert workload.pixels_culled == grid.pixels_culled
    half = workload.scaled(0.5)
    assert half.pixels_total == int(workload.pixels_total * 0.5)
    assert half.pixels_culled == int(workload.pixels_culled * 0.5)


def test_trace_counters_include_pixel_work():
    model, camera = _mixed_opacity_scene()
    workload = RenderWorkload.from_result(render(model, camera, sparsity="pixel"))
    trace = SequenceTrace(sequence="synthetic", algorithm="ags", width=72, height=56)
    trace.frames.append(
        FrameTrace(
            frame_index=0,
            tracking=TrackingWorkload(
                coarse_flops=0.0, refine_iterations=1, refine_renders=[workload]
            ),
            mapping=MappingWorkload(iterations=1, renders=[workload]),
        )
    )
    recorder = PerfRecorder()
    record_trace_counters(recorder, trace)
    assert recorder.counters.get("hw.pixels_total") == 2 * workload.pixels_total
    assert recorder.counters.get("hw.pixels_culled") == 2 * workload.pixels_culled
    assert recorder.counters.get("hw.render_pairs") == 2 * workload.pairs_computed


def test_gscore_does_not_double_discount_measured_pixel_culling():
    model, camera = _mixed_opacity_scene()
    workload = RenderWorkload.from_result(render(model, camera, sparsity="pixel"))
    assert workload.pixels_culled > 0
    platform = GsCorePlatform(JETSON_XAVIER)
    measured = platform.forward_seconds(workload)
    # Strip the measured culling: the model then applies its static
    # sub-tile skip estimate to pairs_computed, which must cost *less*
    # than the measured variant (same pairs, no extra discount).
    static = platform.forward_seconds(dataclasses.replace(workload, pixels_culled=0))
    assert static < measured
    # With the static estimate disabled the two agree exactly.
    flat = GsCorePlatform(JETSON_XAVIER, subtile_skip_fraction=0.0)
    assert flat.forward_seconds(workload) == flat.forward_seconds(
        dataclasses.replace(workload, pixels_culled=0)
    )


# ----------------------------------------------------------------------
# ForwardCache / ScratchPool churn under alternating mode tags
# ----------------------------------------------------------------------
def test_cache_stale_after_sparsity_flip_rebuilds_bit_identically():
    model, camera = _mixed_opacity_scene()
    grad_color, grad_depth = _grads()
    cache = ForwardCache()
    res_pixel = render(model, camera, cache=cache, sparsity="pixel")
    res_tile = render(model, camera, cache=cache, sparsity="tile")
    # The stamp includes the sparsity mode, so the two results can never
    # share cache contents.
    assert res_pixel.forward_cache_mode != res_tile.forward_cache_mode
    assert res_pixel.forward_cache_mode.endswith(":pixel")
    assert res_tile.forward_cache_mode.endswith(":tile")
    assert cache.mode == res_tile.tile_grid.mode_tag
    # Consuming the stale pixel result must rebuild rather than read the
    # pool buffers the tile render overwrote.
    reference, _ = render_backward(
        model, camera, render(model, camera, sparsity="pixel"), grad_color, grad_depth
    )
    stale, _ = render_backward(model, camera, res_pixel, grad_color, grad_depth)
    _assert_grads_bit_identical(reference, stale)


def test_scratch_pool_bounded_under_alternating_mode_tags(monkeypatch):
    """Alternating sparsity modes and schedules neither corrupts gradients
    nor grows the pool without bound (satellite of the sub-tile engine)."""
    model, camera = _mixed_opacity_scene(count=80)
    grad_color, grad_depth = _grads()
    reference = {
        sparsity: render_backward(
            model, camera, render(model, camera, sparsity=sparsity),
            grad_color, grad_depth,
        )[0]
        for sparsity in SPARSITY_MODES
    }
    cache = ForwardCache()
    sizes = []
    # (sparsity, forced threshold): tile-dense, pixel-masked and
    # pixel-fallback all churn through the same cache and pool.
    configurations = [("tile", 0.3), ("pixel", 2.0), ("pixel", -1.0)]
    for _ in range(6):
        for sparsity, threshold in configurations:
            monkeypatch.setattr(
                rasterizer_module, "_SPARSE_DENSITY_FALLBACK", threshold
            )
            result = render(model, camera, cache=cache, sparsity=sparsity)
            grads, _ = render_backward(
                model, camera, result, grad_color, grad_depth
            )
            _assert_grads_bit_identical(reference[sparsity], grads)
        sizes.append(cache.pool.nbytes)
    # The pool reaches steady state after the first full cycle: every
    # later cycle re-takes the same named buffers at the same high-water
    # shapes.
    assert sizes[-1] == sizes[0]


# ----------------------------------------------------------------------
# Knob validation
# ----------------------------------------------------------------------
def test_unknown_sparsity_rejected():
    model, camera = _scene(count=8)
    with pytest.raises(ValueError, match="sparsity"):
        render(model, camera, sparsity="subpixel")
    projection = project_gaussians(model, camera)
    with pytest.raises(ValueError, match="sparsity"):
        assign_tiles(projection, 72, 56, sparsity="subpixel")


def test_default_sparsity_is_pixel():
    assert DEFAULT_SPARSITY_MODE == "pixel"
    model, camera = _scene(count=8)
    grid = render(model, camera).tile_grid
    assert grid.sparsity == "pixel"
    assert grid.mode_tag.endswith(":pixel")


# ----------------------------------------------------------------------
# Session-level invariants under the new default
# ----------------------------------------------------------------------
NUM_FRAMES = 4


def _make_ags(sequence, **kwargs):
    return AgsSlam(
        sequence.intrinsics,
        AGSConfig(iter_t=2, baseline_tracking_iterations=4),
        mapping_iterations=2,
        **kwargs,
    )


def _assert_runs_identical(a, b):
    assert len(a) == len(b)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat)
        assert np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans)
        assert fa.tracking_loss == fb.tracking_loss
        assert fa.mapping_loss == fb.mapping_loss
        assert fa.num_gaussians == fb.num_gaussians
    assert (a.final_model is None) == (b.final_model is None)
    if a.final_model is not None:
        for name in type(a.final_model).PARAM_NAMES:
            assert np.array_equal(
                getattr(a.final_model, name), getattr(b.final_model, name)
            )


def test_checkpoint_resume_under_pixel_default(tiny_sequence, tmp_path):
    reference = _make_ags(tiny_sequence).run(tiny_sequence, num_frames=NUM_FRAMES)

    interrupted = _make_ags(tiny_sequence)
    interrupted.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=2):
        interrupted.feed(frame, index=index)
    save_session_state(interrupted.state(), tmp_path / "checkpoint")
    state = load_session_state(tmp_path / "checkpoint")

    resumed = _make_ags(tiny_sequence)
    resumed.restore(state)
    for index, frame in tiny_sequence.stream(start=2, stop=NUM_FRAMES):
        resumed.feed(frame, index=index)
    _assert_runs_identical(reference, resumed.finalize())
