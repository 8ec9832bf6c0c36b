"""Workload traces are opt-in, and turning them on or off changes no result.

``build_session`` builds the 3DGS systems with traces off; the figure and
experiment path (``SlamService`` / ``run_slam``) turns them on, and a
parked session resumes with the setting it was built with.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval.service import RunKey, SlamService, build_session
from repro.perf import PerfRecorder
from repro.slam import load_session_state, save_session_state

SYSTEMS = ("splatam", "gaussian-slam", "ags")
NUM_FRAMES = 6
CHEAP = {"tracking_iterations": 4, "mapping_iterations": 2}


def _frames(result) -> list:
    """Every ``FrameResult`` field, poses as bytes."""
    return [
        tuple(
            getattr(frame, field.name).as_vector().tobytes()
            if field.name == "estimated_pose"
            else getattr(frame, field.name)
            for field in dataclasses.fields(frame)
        )
        for frame in result.frames
    ]


def _map(result) -> dict:
    model = result.final_model
    return {name: getattr(model, name).tobytes() for name in model.PARAM_NAMES}


def _feed(session, sequence, start, stop):
    for index in range(start, stop):
        session.feed(sequence[index], index)


@pytest.fixture(scope="module")
def runs(tiny_sequence):
    """One untraced (the default) and one traced feed per system."""
    results = {}
    for algorithm in SYSTEMS:
        for traced in (False, True):
            session = build_session(algorithm, tiny_sequence.intrinsics, **CHEAP)
            assert session.collect_trace is False
            session.collect_trace = traced
            session.begin(tiny_sequence.name)
            _feed(session, tiny_sequence, 0, NUM_FRAMES)
            results[algorithm, traced] = session.finalize()
    return results


@pytest.mark.parametrize("algorithm", SYSTEMS)
def test_traces_off_changes_no_result(runs, algorithm):
    untraced, traced = runs[algorithm, False], runs[algorithm, True]
    assert untraced.trace is None
    assert traced.trace is not None and len(traced.trace.frames) == NUM_FRAMES
    assert _frames(untraced) == _frames(traced)
    assert _map(untraced) == _map(traced)


@pytest.mark.parametrize("traced", [False, True])
def test_park_resume_keeps_the_trace_setting(tiny_sequence, tmp_path, runs, traced):
    algorithm, park_at = "ags", 3
    session = build_session(algorithm, tiny_sequence.intrinsics, **CHEAP)
    session.collect_trace = traced
    session.begin(tiny_sequence.name)
    _feed(session, tiny_sequence, 0, park_at)
    save_session_state(session.state(), tmp_path / "parked")

    # The serving tier resumes into a session built with the defaults.
    resumed = build_session(algorithm, tiny_sequence.intrinsics, **CHEAP)
    resumed.restore(load_session_state(tmp_path / "parked"))
    assert resumed.collect_trace is traced
    _feed(resumed, tiny_sequence, park_at, NUM_FRAMES)
    result = resumed.finalize()
    reference = runs[algorithm, traced]
    assert _frames(result) == _frames(reference)
    assert _map(result) == _map(reference)
    if traced:
        assert [t.frame_index for t in result.trace.frames] == list(range(NUM_FRAMES))
    else:
        assert result.trace is None


def test_experiment_path_turns_traces_on():
    service = SlamService(perf=PerfRecorder())
    for algorithm in ("splatam", "ags"):
        result = service.run(RunKey(algorithm, "desk", num_frames=2, **CHEAP))
        assert result.trace is not None and len(result.trace.frames) == 2
        assert sum(frame.mapping.total_pairs for frame in result.trace.frames) > 0
    # Map-free systems record no workload trace on any path.
    assert service.run(RunKey("orb", "desk", num_frames=2)).trace is None


def test_untraced_render_counters_skip_pixel_intervals(tiny_sequence):
    """Only renders that record workloads read the pixel intervals."""
    counts = {}
    for traced in (False, True):
        perf = PerfRecorder()
        session = build_session("splatam", tiny_sequence.intrinsics, perf=perf, **CHEAP)
        session.collect_trace = traced
        _feed(session, tiny_sequence, 0, 2)
        counts[traced] = perf.counters.as_dict()
    assert "raster.pixels_total" not in counts[False]
    assert counts[True]["raster.pixels_total"] > counts[True]["raster.pixels_culled"] > 0
    for name in ("raster.pairs_total", "raster.pairs_culled"):
        assert counts[False][name] == counts[True][name]
