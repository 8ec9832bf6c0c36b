"""Eager validation of string-valued knobs across the stack.

Every user-facing mode knob must reject a typo at the call boundary
with a ValueError naming the allowed set — not fall back silently to a
default or fail deep inside a compute loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.scenarios import get_scenario
from repro.eval.service import RunKey
from repro.gaussians import render
from repro.gaussians.gradients import render_backward


def test_render_rejects_unknown_backend(small_model, small_camera):
    with pytest.raises(ValueError, match="backend.*reference"):
        render(small_model, small_camera, backend="cuda")


def test_render_backward_rejects_unknown_backend(small_model, small_camera):
    result = render(small_model, small_camera)
    intr = small_camera.intrinsics
    grad = np.zeros((intr.height, intr.width, 3))
    with pytest.raises(ValueError, match="backend.*bucketed"):
        render_backward(small_model, small_camera, result, grad, backend="triton")


def test_run_key_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="algorithm.*splatam"):
        RunKey(algorithm="slam9000", sequence="desk")


def test_run_key_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="scenario 'glitch'.*stress"):
        RunKey(algorithm="ags", sequence="desk", scenario="glitch")


def test_run_key_rejects_bad_numerics():
    with pytest.raises(ValueError, match="num_frames"):
        RunKey(algorithm="ags", sequence="desk", num_frames=0)
    with pytest.raises(ValueError, match="iteration counts"):
        RunKey(algorithm="ags", sequence="desk", tracking_iterations=-1)


def test_run_key_scenario_and_fallbacks_shape_the_slug():
    key = RunKey(algorithm="ags", sequence="desk", scenario="stress", fallbacks=False)
    assert "sc-stress" in key.slug()
    assert "nofb" in key.slug()
    clean = RunKey(algorithm="ags", sequence="desk")
    assert "sc-" not in clean.slug()
    assert "nofb" not in clean.slug()


def test_get_scenario_error_lists_registry():
    with pytest.raises(ValueError, match="clean"):
        get_scenario("nope")
