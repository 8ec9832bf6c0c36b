"""Tests for the hardware models: memories, engines, platforms, area, energy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    AGS_EDGE,
    AGS_SERVER,
    AgsAccelerator,
    GpuPlatform,
    GsCorePlatform,
    JETSON_XAVIER,
    NVIDIA_A100,
    area_report,
    energy_report,
)
from repro.hardware.config import HBM2, LPDDR4_3200
from repro.hardware.dram import DramModel
from repro.hardware.fc_engine import FcDetectionEngine
from repro.hardware.costs import CYCLES_ALPHA_STAGE, CYCLES_BLEND_STAGE, CYCLES_GRADIENT_STAGE
from repro.hardware.gpe import GpeWork
from repro.hardware.gpe_scheduler import simulate_tile_schedule, utilization_factor
from repro.hardware.gs_array import GsArray
from repro.hardware.logging_table import GsLoggingTable
from repro.hardware.skipping_table import GsSkippingTable
from repro.hardware.sram import SramBuffer
from repro.hardware.systolic import SystolicArray
from repro.workloads import RenderWorkload, scale_trace


def _workload(pairs=10000, gaussians=500, backward=True):
    return RenderWorkload(
        num_gaussians=gaussians,
        gaussians_rendered=gaussians * 3,
        pairs_computed=pairs,
        pairs_blended=pairs // 4,
        num_tiles=48,
        num_pixels=3072,
        per_tile_gaussians=np.full(48, gaussians * 3 // 48),
        per_pixel_mean=2.0,
        per_pixel_max=8.0,
        includes_backward=backward,
    )


# ----------------------------- memories ---------------------------------------
def test_dram_hbm2_faster_than_lpddr4():
    assert DramModel(HBM2).transfer_seconds(1e6) < DramModel(LPDDR4_3200).transfer_seconds(1e6)


def test_dram_random_traffic_slower_than_sequential():
    dram = DramModel(LPDDR4_3200)
    assert dram.transfer_seconds(1e6, sequential_fraction=0.0) > dram.transfer_seconds(
        1e6, sequential_fraction=1.0
    )


def test_dram_records_traffic_and_energy():
    dram = DramModel(LPDDR4_3200)
    dram.access(bytes_read=1000, bytes_written=500)
    assert dram.stats.total_bytes == 1500
    assert dram.energy_joules() > 0


def test_sram_capacity_and_area():
    buffer = SramBuffer(name="test", capacity_kb=64, entry_bytes=8)
    assert buffer.capacity_entries == 64 * 1024 // 8
    assert buffer.fits(100)
    assert not buffer.fits(10**7)
    assert buffer.area_mm2 > 0
    buffer.read(128)
    buffer.write(64)
    assert (buffer.read_bytes, buffer.write_bytes) == (128, 64)


# ----------------------------- GPE / scheduler --------------------------------
def test_gpe_work_cycles_split():
    work = GpeWork(alpha_evaluations=10, blend_operations=5, gradient_operations=2)
    assert work.cycles() == pytest.approx(
        10 * CYCLES_ALPHA_STAGE + 5 * CYCLES_BLEND_STAGE + 2 * CYCLES_GRADIENT_STAGE
    )


def test_scheduler_improves_unbalanced_tile():
    counts = np.array([40] + [2] * 15)
    without = simulate_tile_schedule(counts, num_gpes=16, enable_scheduler=False)
    with_sched = simulate_tile_schedule(counts, num_gpes=16, enable_scheduler=True)
    assert with_sched.makespan_cycles < without.makespan_cycles
    assert with_sched.utilization > without.utilization


def test_scheduler_no_gain_on_balanced_tile():
    counts = np.full(16, 10)
    without = simulate_tile_schedule(counts, num_gpes=16, enable_scheduler=False)
    with_sched = simulate_tile_schedule(counts, num_gpes=16, enable_scheduler=True)
    assert with_sched.makespan_cycles == pytest.approx(without.makespan_cycles)


def test_scheduler_makespan_never_below_ideal():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 50, size=64)
    result = simulate_tile_schedule(counts, num_gpes=16, enable_scheduler=True)
    assert result.makespan_cycles >= result.ideal_cycles - 1e-9


def test_utilization_factor_bounds_and_ordering():
    low = utilization_factor(per_pixel_mean=1.0, per_pixel_max=10.0, enable_scheduler=False)
    high = utilization_factor(per_pixel_mean=1.0, per_pixel_max=10.0, enable_scheduler=True)
    assert 0 < low < high <= 1.0
    assert utilization_factor(5.0, 0.0, True) == 1.0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=64))
def test_scheduler_property_never_worse(counts):
    counts = np.array(counts)
    without = simulate_tile_schedule(counts, enable_scheduler=False)
    with_sched = simulate_tile_schedule(counts, enable_scheduler=True)
    assert with_sched.makespan_cycles <= without.makespan_cycles + 1e-9


# ----------------------------- arrays and engines ------------------------------
def test_gs_array_more_groups_fewer_cycles():
    small = GsArray(num_groups=8).iteration_timing(_workload())
    large = GsArray(num_groups=32).iteration_timing(_workload())
    assert large.total_cycles < small.total_cycles


def test_gs_array_backward_adds_cycles():
    array = GsArray(num_groups=16)
    forward_only = array.iteration_timing(_workload(backward=False))
    with_backward = array.iteration_timing(_workload(backward=True))
    assert with_backward.total_cycles > forward_only.total_cycles
    assert with_backward.dram_bytes > forward_only.dram_bytes


def test_systolic_array_scales_with_arrays():
    two = SystolicArray(2).flops_timing(1e9).total_cycles
    four = SystolicArray(4).flops_timing(1e9).total_cycles
    assert four < two
    assert SystolicArray(2).flops_timing(0.0).total_cycles == 0.0


def test_fc_engine_cost_is_small():
    dram = DramModel(LPDDR4_3200)
    engine = FcDetectionEngine(AGS_EDGE, dram)
    timing = engine.detect(num_macroblocks=4800)
    assert timing.total_seconds(AGS_EDGE.frequency_hz) < 1e-3


def test_logging_table_hot_cold_saves_traffic():
    table = GsLoggingTable(AGS_EDGE)
    per_tile = np.full(64, 200)
    traffic = table.record_traffic(per_tile)
    assert traffic.dram_bytes < traffic.dram_bytes_naive
    assert 0.0 < traffic.traffic_saving <= 1.0


def test_skipping_table_avoided_bytes_scale_with_skips():
    table = GsSkippingTable(AGS_EDGE)
    few = table.prepare_frame(num_gaussians=1000, num_skipped=10, mapping_iterations=5)
    many = table.prepare_frame(num_gaussians=1000, num_skipped=500, mapping_iterations=5)
    assert many.feature_bytes_avoided > few.feature_bytes_avoided


# ----------------------------- platforms ---------------------------------------
def test_gpu_iteration_seconds_positive_and_ordered():
    a100 = GpuPlatform(NVIDIA_A100)
    xavier = GpuPlatform(JETSON_XAVIER)
    workload = _workload(pairs=int(1e7), gaussians=200000)
    assert xavier.iteration_seconds(workload) > a100.iteration_seconds(workload) > 0


def test_platform_simulations_on_traces(baseline_run, ags_run):
    baseline_trace = baseline_run.trace
    ags_trace = ags_run.trace
    a100 = GpuPlatform(NVIDIA_A100).simulate(baseline_trace)
    gscore = GsCorePlatform(NVIDIA_A100).simulate(baseline_trace)
    ags_server = AgsAccelerator(AGS_SERVER).simulate(ags_trace)
    ags_edge = AgsAccelerator(AGS_EDGE).simulate(ags_trace)
    assert a100.total_seconds > 0
    assert len(a100.frames) == len(baseline_trace.frames)
    # The accelerator running the AGS algorithm must beat the GPU baseline.
    assert a100.total_seconds / ags_server.total_seconds > 1.0
    # The server configuration must not be slower than the edge one.
    assert ags_server.total_seconds <= ags_edge.total_seconds
    assert gscore.total_seconds > 0


def test_overlap_reduces_frame_latency(ags_run):
    ags_trace = ags_run.trace
    with_overlap = AgsAccelerator(AGS_SERVER).simulate(ags_trace)
    no_overlap_config = dataclasses.replace(AGS_SERVER, enable_overlap=False)
    without_overlap = AgsAccelerator(no_overlap_config).simulate(ags_trace)
    assert with_overlap.total_seconds < without_overlap.total_seconds


def test_scheduler_config_reduces_latency(ags_run):
    trace = ags_run.trace
    with_sched = AgsAccelerator(AGS_SERVER).simulate(trace)
    no_sched = AgsAccelerator(
        dataclasses.replace(AGS_SERVER, enable_gpe_scheduler=False)
    ).simulate(trace)
    assert with_sched.total_seconds <= no_sched.total_seconds


def test_scale_trace_magnifies_workloads(baseline_run):
    trace = baseline_run.trace
    scaled = scale_trace(trace, pixel_factor=100.0, gaussian_factor=50.0)
    assert scaled.frames[1].tracking.total_pairs > trace.frames[1].tracking.total_pairs
    assert scaled.frames[1].num_gaussians > trace.frames[1].num_gaussians
    assert len(scaled.frames) == len(trace.frames)


# ----------------------------- area and energy ---------------------------------
def test_area_report_matches_paper_totals():
    edge = area_report(AGS_EDGE)
    server = area_report(AGS_SERVER)
    assert edge.total_mm2 == pytest.approx(7.25, rel=0.05)
    assert server.total_mm2 == pytest.approx(14.38, rel=0.05)
    # Tracking + mapping engines dominate (paper: > 90 % of area).
    engines = sum(
        c.area_mm2 for c in edge.components if c.engine in ("Pose Tracking Engine", "Mapping Engine")
    )
    assert engines / edge.total_mm2 > 0.9


def test_area_report_rows_are_printable():
    rows = area_report(AGS_EDGE).as_rows()
    assert all(len(row) == 4 for row in rows)
    assert any("Systolic" in row[1] for row in rows)


def test_energy_report_positive_and_edge_uses_less_power(ags_run):
    trace = ags_run.trace
    server_result = AgsAccelerator(AGS_SERVER).simulate(trace)
    edge_result = AgsAccelerator(AGS_EDGE).simulate(trace)
    server_energy = energy_report(AGS_SERVER, trace, server_result)
    edge_energy = energy_report(AGS_EDGE, trace, edge_result)
    assert server_energy.total_joules > 0
    assert edge_energy.total_joules > 0


def test_gpu_energy_exceeds_accelerator_energy(baseline_run, ags_run):
    a100 = GpuPlatform(NVIDIA_A100)
    gpu_result = a100.simulate(baseline_run.trace)
    ags_result = AgsAccelerator(AGS_SERVER).simulate(ags_run.trace)
    ags_energy = energy_report(AGS_SERVER, ags_run.trace, ags_result)
    assert a100.energy_joules(gpu_result) > ags_energy.total_joules


# --------------------------- perf instrumentation -----------------------------
def test_simulators_record_perf_timers_and_counters(baseline_run, ags_run):
    from repro.perf import PerfRecorder

    perf = PerfRecorder()
    GpuPlatform(NVIDIA_A100, perf=perf).simulate(baseline_run.trace)
    GsCorePlatform(NVIDIA_A100, perf=perf).simulate(baseline_run.trace)
    AgsAccelerator(AGS_SERVER, perf=perf).simulate(ags_run.trace)

    timers = perf.timers.as_dict()
    for path in ("hw/gpu", "hw/gscore", "hw/ags", "hw/ags/fc_engine",
                 "hw/ags/tracking_engine", "hw/ags/mapping_engine"):
        assert path in timers, path

    counters = perf.counters.as_dict()
    assert counters["hw.frames"] == 2 * len(baseline_run.trace.frames) + len(
        ags_run.trace.frames
    )
    assert counters["hw.render_pairs"] > 0
    assert counters["hw.table_entries"] > 0
    assert counters["hw.dram_bytes"] > 0


def test_pair_culling_shrinks_simulated_workload(ags_run):
    """The hardware model's cost is monotone in the Gaussian-table size."""
    from repro.perf import PerfRecorder

    trace = ags_run.trace
    shrunk = scale_trace(trace, pixel_factor=1.0, gaussian_factor=0.6)
    perf_full, perf_shrunk = PerfRecorder(), PerfRecorder()
    full = AgsAccelerator(AGS_SERVER, perf=perf_full).simulate(trace)
    less = AgsAccelerator(AGS_SERVER, perf=perf_shrunk).simulate(shrunk)
    assert less.total_seconds <= full.total_seconds
    assert (
        perf_shrunk.counters.as_dict()["hw.table_entries"]
        < perf_full.counters.as_dict()["hw.table_entries"]
    )
