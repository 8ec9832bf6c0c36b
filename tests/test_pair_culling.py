"""Exactness tests for the sparse tile-assignment engine.

``assign_tiles`` culls in two stages: opacity-aware radii plus a
conic-vs-tile test drop (tile, Gaussian) pairs whose alpha is below
``ALPHA_MIN`` at every pixel center of the tile, and every retained pair
gets a conservative active-pixel interval.  The bucketed engine consumes
the intervals for accounting (``pairs_computed``, ``raster.pixels_*``)
and, on sparse enough chunks, for a masked row-segment schedule.

All of it must be a pure speedup.  The oracle is
:func:`_brute_force_grid`: by default the classic 3-sigma bounding-box
tables with full-tile intervals, optionally tightened by direct per-pixel
evaluation (opacity radii, exact tile cull, tight intervals), fed through
``render(tile_grid=)``.  Against every such grid the images, the integer
contribution statistics and the fused backward gradients are
bit-identical.  Also pinned down here:

* dropped pairs are zero-alpha and intervals are conservative supersets
  of the ``alpha >= ALPHA_MIN`` support;
* the masked and dense execution schedules agree bit for bit;
* the ``raster.pairs_*`` / ``raster.pixels_*`` counters, the
  ``RenderWorkload`` pixel fields and the hardware models' use of them
  (no double discounting in GSCore) are consistent;
* checkpoint/resume stays bit-identical.

The ``-m slow`` entry sweeps randomized opacities / scales / poses.
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
from repro.gaussians import rasterizer as rasterizer_module
from repro.gaussians.projection import ALPHA_MIN, project_gaussians
from repro.gaussians.tiles import TILE_SIZE, GaussianTable, TileGrid, build_tile_grid
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

WIDTH, HEIGHT = 72, 56


def _scene(count=120, seed=3, width=WIDTH, height=HEIGHT, fov=60.0, opacity_shift=0.0,
           scale_shift=0.0, pose=None):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    if opacity_shift:
        model.opacities = model.opacities + opacity_shift
    if scale_shift:
        model.log_scales = model.log_scales + scale_shift
    camera = Camera(Intrinsics.from_fov(width, height, fov), pose or Pose.identity())
    return model, camera


def _mixed_opacity_scene(**kwargs):
    """A SLAM-like population: many weak splats below/near the cut-off."""
    model, camera = _scene(**kwargs)
    rng = np.random.default_rng(7)
    low = rng.random(len(model)) < 0.5
    model.opacities[low] -= rng.uniform(4.0, 10.0, size=int(low.sum()))
    return model, camera


MODES = [(radius, cull) for radius in ("sigma", "opacity") for cull in ("aabb", "precise")]
KNOBS = [(radius, cull, sparsity) for radius, cull in MODES for sparsity in ("tile", "pixel")]


def _brute_force_grid(model, camera, active_mask=None, radius="sigma", cull="aabb",
                      sparsity="tile") -> TileGrid:
    """Brute-force tile tables: the exactness oracle.

    By default every visible Gaussian is listed in every tile its 3-sigma
    bounding box overlaps, depth-sorted with ties in id order, and every
    pair keeps its full tile as active interval — no culling of any kind.
    The knobs apply each tightening of the engine by direct per-pixel
    evaluation instead of closed forms: ``radius="opacity"`` bounds the box
    with ``projection.radii``, ``cull="precise"`` keeps a pair only if its
    alpha reaches ``ALPHA_MIN`` at some pixel center of the tile, and
    ``sparsity="pixel"`` shrinks each interval to the bounding rectangle of
    those pixels.  Pairs of the 3-sigma baseline that a knob drops are
    recorded in ``culled_pixels`` like the engine does.
    """
    projection = project_gaussians(model, camera)
    visible = projection.visible
    if active_mask is not None:
        visible = visible & active_mask
    ids_visible = np.flatnonzero(visible)
    cx, cy = projection.means2d[ids_visible].T
    radii = {"sigma": projection.radii_sigma, "opacity": projection.radii}[radius]

    def box_hits(tx, ty, r):
        r = r[ids_visible]
        return ids_visible[
            (np.floor_divide(cx - r, TILE_SIZE) <= tx)
            & (tx <= np.floor_divide(cx + r, TILE_SIZE))
            & (np.floor_divide(cy - r, TILE_SIZE) <= ty)
            & (ty <= np.floor_divide(cy + r, TILE_SIZE))
        ]

    width, height = camera.width, camera.height
    tiles_x, tiles_y = build_tile_grid(width, height, TILE_SIZE)
    culled_pixels = np.zeros(len(model), dtype=np.int64)
    tables, table_intervals = [], []
    pairs_total = pixels_total = 0
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            tile_w = min(TILE_SIZE, width - tx * TILE_SIZE)
            tile_h = min(TILE_SIZE, height - ty * TILE_SIZE)
            baseline = box_hits(tx, ty, projection.radii_sigma)
            ids = box_hits(tx, ty, radii)
            ids = ids[np.argsort(projection.depths[ids], kind="stable")]
            rows, cols = np.mgrid[0:tile_h, 0:tile_w]
            # The tiny margin keeps the support a superset of what the
            # rasterizer's own alpha test (with its round-off) blends.
            support = [
                _alpha_on_pixels(
                    model, projection, gid, tx * TILE_SIZE + cols + 0.5,
                    ty * TILE_SIZE + rows + 0.5,
                ) >= ALPHA_MIN * (1.0 - 1e-9)
                for gid in ids
            ]
            if cull == "precise":
                keep = np.array([s.any() for s in support], dtype=bool)
                ids = ids[keep]
                support = [s for s, k in zip(support, keep) if k]
            intervals = np.tile(np.array([0, tile_h, 0, tile_w], dtype=np.int64), (len(ids), 1))
            if sparsity == "pixel":
                for i, s in enumerate(support):
                    r, c = np.flatnonzero(s.any(axis=1)), np.flatnonzero(s.any(axis=0))
                    intervals[i] = (r[0], r[-1] + 1, c[0], c[-1] + 1) if len(r) else 0
            culled_pixels[np.setdiff1d(baseline, ids)] += tile_w * tile_h
            pairs_total += len(baseline)
            pixels_total += len(ids) * tile_w * tile_h
            tables.append(GaussianTable(tx, ty, ids, projection.depths[ids]))
            table_intervals.append(intervals)
    return TileGrid(
        width=width, height=height, tile_size=TILE_SIZE, tiles_x=tiles_x,
        tiles_y=tiles_y, tables=tables, pairs_total=pairs_total,
        pairs_culled=pairs_total - sum(len(table) for table in tables),
        culled_pixels=culled_pixels, pixels_total=pixels_total,
        pair_intervals=np.concatenate(table_intervals),
    )


def _with_tile_intervals(grid) -> TileGrid:
    """``grid``'s own tables with every interval widened to the full tile."""
    full = [
        np.tile(np.array([0, tile_h, 0, tile_w], dtype=np.int64), (len(table), 1))
        for table in grid.tables
        for tile_w, tile_h in [grid.tile_shape(table)]
    ]
    return dataclasses.replace(grid, projection=None, pair_intervals=np.concatenate(full))


def _grads(width=WIDTH, height=HEIGHT, seed=0):
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


def _alpha_on_pixels(model, projection, gid, px, py):
    dx = px - projection.means2d[gid, 0]
    dy = py - projection.means2d[gid, 1]
    conic = projection.conics[gid]
    q = conic[0, 0] * dx * dx + 2.0 * conic[0, 1] * dx * dy + conic[1, 1] * dy * dy
    return model.alphas[gid] * np.exp(np.minimum(-0.5 * q, 0.0))


# ----------------------------------------------------------------------
# Culling drops only provably zero-alpha work
# ----------------------------------------------------------------------
def test_culled_tables_are_subsets_dropping_only_zero_alpha_pairs():
    model, camera = _mixed_opacity_scene()
    oracle = _brute_force_grid(model, camera)
    culled = render(model, camera)
    grid = culled.tile_grid

    assert grid.pairs_culled > 0
    dropped_pairs = 0
    for table_o, table_c in zip(oracle.tables, grid.tables):
        kept = set(table_c.gaussian_ids.tolist())
        assert kept <= set(table_o.gaussian_ids.tolist())
        dropped = [g for g in table_o.gaussian_ids.tolist() if g not in kept]
        dropped_pairs += len(dropped)
        pixels = oracle.pixel_centers(table_o)
        for gid in dropped:
            alpha = _alpha_on_pixels(model, culled.projection, gid, pixels[:, 0], pixels[:, 1])
            assert alpha.max() < ALPHA_MIN
    assert dropped_pairs == grid.pairs_culled


def test_intervals_are_conservative_supersets():
    model, camera = _mixed_opacity_scene()
    result = render(model, camera)
    grid = result.tile_grid
    ts = grid.tile_size

    checked_partial = 0
    for table in grid.tables:
        iv = grid.intervals_of([table])
        assert iv.shape == (len(table.gaussian_ids), 4)
        x0, y0 = table.tile_x * ts, table.tile_y * ts
        tile_w, tile_h = grid.tile_shape(table)
        cols, rows = np.meshgrid(np.arange(tile_w), np.arange(tile_h))
        for i, gid in enumerate(table.gaussian_ids):
            r0, r1, c0, c1 = iv[i]
            assert 0 <= r0 <= r1 <= tile_h
            assert 0 <= c0 <= c1 <= tile_w
            alpha = _alpha_on_pixels(
                model, result.projection, gid, x0 + cols + 0.5, y0 + rows + 0.5
            )
            outside = np.ones((tile_h, tile_w), dtype=bool)
            outside[r0:r1, c0:c1] = False
            assert not np.any(alpha[outside] >= ALPHA_MIN)
            if (r1 - r0) * (c1 - c0) < tile_h * tile_w:
                checked_partial += 1
    # The mixed-opacity scene must actually exercise partial intervals.
    assert checked_partial > 0


def test_opacity_radii_never_exceed_sigma_radii():
    model, camera = _mixed_opacity_scene()
    projection = project_gaussians(model, camera)
    assert (projection.radii <= projection.radii_sigma).all()
    # Weak splats get strictly tighter radii.
    weak = model.alphas < 0.1
    assert (projection.radii[weak] < projection.radii_sigma[weak]).any()


def test_sub_alpha_min_opacity_gaussians_fully_culled():
    model, camera = _scene(count=8)
    model.opacities[:] = -8.0  # sigmoid ~3.4e-4 < 1/255: invisible everywhere
    result = render(model, camera)
    assert sum(len(t) for t in result.tile_grid.tables) == 0
    assert np.array_equal(result.color, np.zeros_like(result.color))


# ----------------------------------------------------------------------
# Bit-identity against the brute-force oracle grids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("radius,cull", MODES)
def test_render_bit_identical_across_modes(radius, cull):
    model, camera = _mixed_opacity_scene()
    oracle = render(
        model, camera, tile_grid=_brute_force_grid(model, camera, radius=radius, cull=cull)
    )
    culled = render(model, camera)
    _assert_renders_bit_identical(oracle, culled)
    _assert_contrib_stats_equal(oracle, culled)
    assert culled.total_pairs_blended == oracle.total_pairs_blended


@pytest.mark.parametrize("radius,cull,sparsity", KNOBS)
def test_gradients_bit_identical_across_knobs(radius, cull, sparsity):
    model, camera = _mixed_opacity_scene()
    grad_color, grad_depth = _grads()
    grid = _brute_force_grid(model, camera, radius=radius, cull=cull, sparsity=sparsity)
    oracle = render(model, camera, cache=ForwardCache(), tile_grid=grid)
    culled = render(model, camera, cache=ForwardCache())
    _assert_renders_bit_identical(oracle, culled)
    oracle_grads, _ = render_backward(model, camera, oracle, grad_color, grad_depth)
    culled_grads, _ = render_backward(model, camera, culled, grad_color, grad_depth)
    _assert_grads_bit_identical(oracle_grads, culled_grads)


def test_active_mask_culling_bit_identical():
    model, camera = _mixed_opacity_scene()
    mask = np.zeros(len(model), dtype=bool)
    mask[::2] = True
    oracle = render(
        model, camera, active_mask=mask, tile_grid=_brute_force_grid(model, camera, mask)
    )
    culled = render(model, camera, active_mask=mask)
    _assert_renders_bit_identical(oracle, culled)
    _assert_contrib_stats_equal(oracle, culled)


def test_reference_backend_stats_invariant_across_modes():
    model, camera = _mixed_opacity_scene()
    oracle = render(
        model, camera, backend="reference", tile_grid=_brute_force_grid(model, camera)
    )
    culled = render(model, camera, backend="reference")
    _assert_contrib_stats_equal(oracle, culled)
    # The per-tile reference loop sums each pixel over its own table, so
    # removing exact-zero entries leaves the images equal to round-off.
    np.testing.assert_allclose(culled.color, oracle.color, atol=1e-12, rtol=0)
    np.testing.assert_allclose(culled.silhouette, oracle.silhouette, atol=1e-12, rtol=0)


def test_stats_render_integer_equality_bucketed_vs_reference_on_culled_grid():
    model, camera = _mixed_opacity_scene()
    reference = render(model, camera, backend="reference")
    bucketed = render(model, camera, backend="bucketed")
    _assert_contrib_stats_equal(reference, bucketed)
    np.testing.assert_allclose(bucketed.color, reference.color, atol=1e-9, rtol=0)
    for ref_tile, fast_tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        assert fast_tile.pairs_computed == ref_tile.pairs_computed
        assert fast_tile.pairs_blended == ref_tile.pairs_blended
        assert fast_tile.num_gaussians == ref_tile.num_gaussians


def test_bucketed_matches_reference_stats_on_tight_interval_grid():
    model, camera = _mixed_opacity_scene()
    grid = _brute_force_grid(model, camera, radius="opacity", cull="precise", sparsity="pixel")
    reference = render(model, camera, backend="reference", tile_grid=grid)
    bucketed = render(model, camera, backend="bucketed", tile_grid=grid)
    _assert_contrib_stats_equal(reference, bucketed)
    np.testing.assert_allclose(bucketed.color, reference.color, atol=1e-9, rtol=0)
    for ref_tile, fast_tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        assert fast_tile.pairs_computed == ref_tile.pairs_computed
        assert fast_tile.pairs_blended == ref_tile.pairs_blended


def test_workload_shrinks_but_blended_pairs_invariant():
    model, camera = _mixed_opacity_scene()
    oracle = render(model, camera, tile_grid=_brute_force_grid(model, camera))
    culled = render(model, camera)
    assert culled.total_pairs_computed < oracle.total_pairs_computed
    assert culled.total_pairs_blended == oracle.total_pairs_blended


def test_intervals_reduce_alpha_evaluations_not_blending():
    model, camera = _mixed_opacity_scene()
    pixel = render(model, camera)
    tile = render(model, camera, tile_grid=_with_tile_intervals(pixel.tile_grid))
    assert pixel.total_pairs_computed < tile.total_pairs_computed
    assert pixel.total_pairs_blended == tile.total_pairs_blended


def _assert_fused_backward_matches_default(model, camera, tile_grid, use_cache):
    """Fused gradients (with pose) through ``tile_grid`` equal the default grid's."""
    grad_color, grad_depth = _grads()
    grads = []
    for grid in (tile_grid, None):
        result = render(
            model, camera, record_workloads=False, record_contributions=False,
            cache=ForwardCache() if use_cache else None, tile_grid=grid,
        )
        grads.append(render_backward(
            model, camera, result, grad_color, grad_depth, compute_pose_gradient=True
        ))
    (oracle_grads, oracle_pose), (culled_grads, culled_pose) = grads
    _assert_grads_bit_identical(oracle_grads, culled_grads)
    np.testing.assert_array_equal(culled_pose.vector, oracle_pose.vector)


@pytest.mark.parametrize("use_cache", [True, False])
def test_fused_backward_bit_identical_across_modes(use_cache):
    model, camera = _mixed_opacity_scene()
    _assert_fused_backward_matches_default(
        model, camera, _brute_force_grid(model, camera), use_cache
    )


@pytest.mark.parametrize("use_cache", [True, False])
def test_fused_backward_bit_identical_pixel_vs_tile(use_cache):
    """The engine's own tables with and without their sub-tile intervals."""
    model, camera = _mixed_opacity_scene()
    tile_grid = _with_tile_intervals(render(model, camera).tile_grid)
    _assert_fused_backward_matches_default(model, camera, tile_grid, use_cache)


def test_fused_backward_matches_reference_on_culled_grid():
    model, camera = _mixed_opacity_scene()
    rng = np.random.default_rng(1)
    result = render(model, camera, cache=ForwardCache())
    grad_color = rng.normal(size=result.color.shape)
    reference = render_backward(model, camera, result, grad_color, backend="reference")
    bucketed = render_backward(model, camera, result, grad_color, backend="bucketed")
    for name, value in reference[0].as_dict().items():
        np.testing.assert_allclose(
            bucketed[0].as_dict()[name], value, rtol=1e-9, atol=1e-9, err_msg=name
        )


# ----------------------------------------------------------------------
# Masked vs dense execution schedule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threshold", [-1.0, 2.0])
def test_masked_and_fallback_schedules_bit_identical(monkeypatch, threshold):
    """Forcing either execution schedule changes nothing but wall-clock.

    ``threshold = -1.0`` forces the dense fallback on every chunk,
    ``2.0`` forces the masked row-segment path; both must match the
    oracle render and gradients bit for bit.
    """
    model, camera = _mixed_opacity_scene()
    grad_color, grad_depth = _grads()
    oracle = render(
        model, camera, cache=ForwardCache(), tile_grid=_brute_force_grid(model, camera)
    )
    oracle_grads, _ = render_backward(model, camera, oracle, grad_color, grad_depth)

    monkeypatch.setattr(rasterizer_module, "_SPARSE_DENSITY_FALLBACK", threshold)
    forced = render(model, camera, cache=ForwardCache())
    _assert_renders_bit_identical(oracle, forced)
    _assert_contrib_stats_equal(oracle, forced)
    forced_grads, _ = render_backward(model, camera, forced, grad_color, grad_depth)
    _assert_grads_bit_identical(oracle_grads, forced_grads)


def test_scratch_pool_bounded_under_alternating_schedules(monkeypatch):
    """Flipping between the masked and dense schedules through one cache
    neither corrupts gradients nor grows the pool without bound."""
    model, camera = _mixed_opacity_scene(count=80)
    grad_color, grad_depth = _grads()
    reference, _ = render_backward(
        model, camera, render(model, camera), grad_color, grad_depth
    )
    cache = ForwardCache()
    sizes = []
    for _ in range(6):
        for threshold in (2.0, -1.0):
            monkeypatch.setattr(rasterizer_module, "_SPARSE_DENSITY_FALLBACK", threshold)
            result = render(model, camera, cache=cache)
            grads, _ = render_backward(model, camera, result, grad_color, grad_depth)
            _assert_grads_bit_identical(reference, grads)
        sizes.append(cache.pool.nbytes)
    # The pool reaches steady state after the first cycle: every later
    # cycle re-takes the same named buffers at the same high-water shapes.
    assert sizes[-1] == sizes[0]


# ----------------------------------------------------------------------
# Counters, workload records and hardware-model consumption
# ----------------------------------------------------------------------
def test_tile_grid_pair_accounting_consistent():
    model, camera = _mixed_opacity_scene()
    grid = render(model, camera).tile_grid
    assert grid.pairs_total - grid.pairs_culled == sum(len(t) for t in grid.tables)
    # The baseline is exactly the classic sigma-AABB pair count.
    brute = _brute_force_grid(model, camera)
    assert grid.pairs_total == sum(len(t) for t in brute.tables)


def test_pair_counters_recorded():
    model, camera = _mixed_opacity_scene()
    perf = PerfRecorder()
    result = render(model, camera, perf=perf)
    counters = perf.counters.as_dict()
    assert counters["raster.pairs_total"] == result.tile_grid.pairs_total
    assert counters["raster.pairs_culled"] == result.tile_grid.pairs_culled
    assert counters["raster.pairs_culled"] > 0


def test_pixel_counters_consistent_with_grid_and_perf():
    model, camera = _mixed_opacity_scene()
    recorder = PerfRecorder()
    grid = render(model, camera, perf=recorder).tile_grid
    assert 0 < grid.pixels_culled < grid.pixels_total
    assert recorder.counters.get("raster.pixels_total") == grid.pixels_total
    assert recorder.counters.get("raster.pixels_culled") == grid.pixels_culled
    # pixels_total is the full-tile area of the retained pairs and the
    # kept entries are exactly the summed interval areas.
    tile_area = sum(
        len(table) * int(np.prod(grid.tile_shape(table))) for table in grid.tables
    )
    iv = grid.intervals
    kept = int(((iv[:, 1] - iv[:, 0]) * (iv[:, 3] - iv[:, 2])).sum())
    assert tile_area == grid.pixels_total
    assert kept == grid.pixels_total - grid.pixels_culled


def test_workload_records_and_scales_pixel_reduction():
    model, camera = _mixed_opacity_scene()
    result = render(model, camera)
    workload = RenderWorkload.from_result(result)
    grid = result.tile_grid
    assert workload.pixels_total == grid.pixels_total
    assert workload.pixels_culled == grid.pixels_culled
    half = workload.scaled(0.5)
    assert half.pixels_total == int(workload.pixels_total * 0.5)
    assert half.pixels_culled == int(workload.pixels_culled * 0.5)


def test_trace_counters_include_pixel_work():
    model, camera = _mixed_opacity_scene()
    workload = RenderWorkload.from_result(render(model, camera))
    trace = SequenceTrace(sequence="synthetic", algorithm="ags", width=WIDTH, height=HEIGHT)
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
    workload = RenderWorkload.from_result(render(model, camera))
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
# Session-level invariant
# ----------------------------------------------------------------------
NUM_FRAMES = 4


def _make_ags(sequence):
    return AgsSlam(
        sequence.intrinsics,
        AGSConfig(iter_t=2, baseline_tracking_iterations=4),
        mapping_iterations=2,
    )


def test_checkpoint_resume_is_bit_identical(tiny_sequence, tmp_path):
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
    result = resumed.finalize()

    assert len(reference) == len(result)
    for fa, fb in zip(reference.frames, result.frames):
        assert np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat)
        assert np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans)
        assert fa.tracking_loss == fb.tracking_loss
        assert fa.mapping_loss == fb.mapping_loss
        assert fa.num_gaussians == fb.num_gaussians
    for name in type(reference.final_model).PARAM_NAMES:
        assert np.array_equal(
            getattr(reference.final_model, name), getattr(result.final_model, name)
        )


# ----------------------------------------------------------------------
# Slow randomized sweep
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_culling_exactness_sweep_randomized_scenes(seed):
    """Random opacities, scales, poses and image sizes: culled == oracle."""
    rng = np.random.default_rng(4000 + seed)
    count = int(rng.integers(10, 250))
    width = int(rng.integers(24, 96))
    height = int(rng.integers(24, 96))
    fov = float(rng.uniform(40.0, 90.0))
    opacity_shift = float(rng.uniform(-6.0, 4.0))
    scale_shift = float(rng.uniform(-0.5, 0.8))
    pose = Pose.identity().perturbed(rng.normal(scale=0.03, size=6))
    model, camera = _scene(
        count=count, seed=seed, width=width, height=height, fov=fov,
        opacity_shift=opacity_shift, scale_shift=scale_shift, pose=pose,
    )
    oracle = render(
        model, camera, cache=ForwardCache(), tile_grid=_brute_force_grid(model, camera)
    )
    culled = render(model, camera, cache=ForwardCache())
    _assert_renders_bit_identical(oracle, culled)
    _assert_contrib_stats_equal(oracle, culled)
    grad_color = np.random.default_rng(seed).normal(size=oracle.color.shape)
    oracle_grads, _ = render_backward(model, camera, oracle, grad_color)
    culled_grads, _ = render_backward(model, camera, culled, grad_color)
    _assert_grads_bit_identical(oracle_grads, culled_grads)
