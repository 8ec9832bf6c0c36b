"""Tests for the perf subsystem (timers, counters, reports, threading)."""

import json

import numpy as np

from repro.core import AGSConfig, AgsSlam
from repro.slam import GaussianSlam, GaussianSlamConfig, OrbLiteSlam, SplaTam, SplaTamConfig
from repro.perf import (
    NULL_RECORDER,
    PerfCounters,
    PerfRecorder,
    PerfTimers,
    build_report,
    format_report,
    write_json_report,
)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_counters_accumulate():
    counters = PerfCounters()
    counters.add("a")
    counters.add("a", 4)
    counters.add("b", 2.5)
    assert counters.get("a") == 5
    assert counters.get("b") == 2.5
    assert counters.get("missing") == 0


def test_counters_merge_and_reset():
    a = PerfCounters()
    b = PerfCounters()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 3)
    a.merge(b)
    assert a.as_dict() == {"x": 3, "y": 3}
    a.reset()
    assert len(a) == 0


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------
def test_timers_merge_adds_sections():
    a = PerfTimers()
    b = PerfTimers()
    with a.section("shared"):
        pass
    with b.section("shared"):
        pass
    with b.section("only_b"):
        pass
    a.merge(b)
    assert a.get("shared").calls == 2
    assert a.get("only_b").calls == 1


def test_recorder_merge_combines_timers_and_counters():
    a = PerfRecorder()
    b = PerfRecorder()
    with b.section("eval/worker"):
        b.count("frames.processed", 3)
    a.merge(b)
    assert a.timers.get("eval/worker").calls == 1
    assert a.counters.get("frames.processed") == 3


def test_timers_record_nested_paths():
    timers = PerfTimers()
    with timers.section("outer"):
        with timers.section("inner"):
            pass
        with timers.section("inner"):
            pass
    assert timers.get("outer").calls == 1
    assert timers.get("outer/inner").calls == 2
    assert timers.get("outer").total_seconds >= timers.get("outer/inner").total_seconds
    assert timers.get("inner") is None  # only recorded under its full path


def test_timers_survive_exceptions():
    timers = PerfTimers()
    try:
        with timers.section("risky"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert timers.get("risky").calls == 1
    # The stack unwound properly: new sections are recorded at top level.
    with timers.section("after"):
        pass
    assert timers.get("after") is not None


def test_null_recorder_is_inert():
    with NULL_RECORDER.section("anything"):
        NULL_RECORDER.count("anything", 1e9)
    assert NULL_RECORDER.timers.as_dict() == {}
    assert NULL_RECORDER.counters.as_dict() == {}


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_build_and_format_report():
    recorder = PerfRecorder()
    with recorder.section("stage"):
        recorder.count("ops", 7)
    report = build_report(recorder, extra={"label": "unit"})
    assert report["label"] == "unit"
    assert report["counters"] == {"ops": 7}
    assert "stage" in report["timers"]
    text = format_report(recorder)
    assert "stage" in text and "ops" in text


def test_write_json_report_round_trips(tmp_path):
    recorder = PerfRecorder()
    with recorder.section("a"):
        with recorder.section("b"):
            recorder.count("n", 2)
    path = tmp_path / "perf.json"
    write_json_report(recorder, path, extra={"k": 1})
    loaded = json.loads(path.read_text())
    assert loaded["k"] == 1
    assert loaded["timers"]["a/b"]["calls"] == 1
    assert loaded["counters"]["n"] == 2


# ----------------------------------------------------------------------
# Threading through the SLAM pipelines
# ----------------------------------------------------------------------
def test_ags_pipeline_records_perf(tiny_sequence):
    perf = PerfRecorder()
    config = AGSConfig(iter_t=2, baseline_tracking_iterations=4)
    system = AgsSlam(tiny_sequence.intrinsics, config, mapping_iterations=2, perf=perf)
    system.run(tiny_sequence, num_frames=3)
    timers = perf.timers.as_dict()
    assert "ags/covisibility" in timers
    assert "ags/mapping" in timers
    assert timers["ags/mapping"]["calls"] == 3
    counts = perf.counters.as_dict()
    assert counts["frames.processed"] == 3
    assert counts["codec.sad_evaluations"] > 0


def test_ags_pipeline_without_perf_still_runs(tiny_sequence):
    config = AGSConfig(iter_t=2, baseline_tracking_iterations=4)
    system = AgsSlam(tiny_sequence.intrinsics, config, mapping_iterations=2)
    result = system.run(tiny_sequence, num_frames=2)
    assert len(result.frames) == 2
    assert system.perf is NULL_RECORDER


def test_splatam_records_fused_backward_perf(tiny_sequence):
    perf = PerfRecorder()
    config = SplaTamConfig(tracking_iterations=3, mapping_iterations=2)
    system = SplaTam(tiny_sequence.intrinsics, config, perf=perf)
    system.run(tiny_sequence, num_frames=3)
    timers = perf.timers.as_dict()
    # The fused forward/backward sections nest under tracking and mapping.
    assert "splatam/tracking/tracker/forward" in timers
    assert "splatam/tracking/tracker/backward" in timers
    assert "splatam/mapping/mapper/backward" in timers
    counts = perf.counters.as_dict()
    assert counts["raster.backward_calls"] > 0
    # Every tracker/mapper backward consumed the retained forward cache.
    assert counts["raster.backward_cache_hits"] == counts["raster.backward_calls"]
    assert counts.get("raster.backward_cache_builds", 0) == 0
    assert counts["raster.backward_pairs"] > 0


def test_gaussian_slam_records_perf(tiny_sequence):
    perf = PerfRecorder()
    config = GaussianSlamConfig(tracking_iterations=3, mapping_iterations=2)
    system = GaussianSlam(tiny_sequence.intrinsics, config, perf=perf)
    result = system.run(tiny_sequence, num_frames=3)
    assert len(result.frames) == 3
    timers = perf.timers.as_dict()
    assert "gaussian_slam/tracking" in timers
    assert "gaussian_slam/mapping" in timers
    assert timers["gaussian_slam/mapping"]["calls"] == 3
    counts = perf.counters.as_dict()
    assert counts["frames.processed"] == 3
    assert counts["gaussian_slam.submaps_created"] >= 1
    assert counts["raster.backward_calls"] > 0


def test_gaussian_slam_without_perf_still_runs(tiny_sequence):
    system = GaussianSlam(
        tiny_sequence.intrinsics, GaussianSlamConfig(tracking_iterations=2, mapping_iterations=1)
    )
    result = system.run(tiny_sequence, num_frames=2)
    assert len(result.frames) == 2
    assert system.perf is NULL_RECORDER


def test_orb_lite_records_perf(tiny_sequence):
    perf = PerfRecorder()
    system = OrbLiteSlam(tiny_sequence.intrinsics, perf=perf)
    result = system.run(tiny_sequence, num_frames=4)
    assert len(result.frames) == 4
    timers = perf.timers.as_dict()
    assert "orb/features" in timers
    assert timers["orb/features"]["calls"] == 3
    counts = perf.counters.as_dict()
    assert counts["frames.processed"] == 4  # the anchored frame 0 counts too
    assert counts["orb.matches"] > 0
