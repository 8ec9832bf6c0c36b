"""Shared fixtures for the test suite.

The expensive objects (synthetic sequences, SLAM runs) are created once
per session and shared by all tests that need them; individual tests make
assertions against different aspects of the same runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AGSConfig, AgsSlam
from repro.datasets import load_sequence
from repro.gaussians import Camera, GaussianModel, Intrinsics, Pose, render
from repro.slam import SplaTam, SplaTamConfig


@pytest.fixture(scope="session")
def tiny_sequence():
    """A short desk sequence shared across tests."""
    return load_sequence("desk", num_frames=8)


@pytest.fixture(scope="session")
def walk_sequence():
    """A short walking sequence (lower covisibility) shared across tests."""
    return load_sequence("house", num_frames=8)


@pytest.fixture(scope="session")
def small_model():
    """A small random Gaussian model positioned in front of the camera."""
    model = GaussianModel.random(80, extent=1.0, seed=3)
    model.means[:, 2] += 3.0
    return model


@pytest.fixture(scope="session")
def small_camera():
    """A small camera looking down +z."""
    return Camera(Intrinsics.from_fov(48, 36, 60.0), Pose.identity())


@pytest.fixture(scope="session")
def small_render(small_model, small_camera):
    """A rendered view of the small model."""
    return render(small_model, small_camera)


@pytest.fixture(scope="session")
def baseline_run(tiny_sequence):
    """A cached baseline (SplaTAM) run on the tiny sequence."""
    config = SplaTamConfig(tracking_iterations=8, mapping_iterations=4, collect_trace=True)
    return SplaTam(tiny_sequence.intrinsics, config).run(tiny_sequence, num_frames=6)


@pytest.fixture(scope="session")
def ags_run(tiny_sequence):
    """A cached AGS run on the tiny sequence."""
    config = AGSConfig(iter_t=3, baseline_tracking_iterations=8)
    system = AgsSlam(tiny_sequence.intrinsics, config, mapping_iterations=4, collect_trace=True)
    return system.run(tiny_sequence, num_frames=6)


@pytest.fixture(scope="session")
def ags_walk_run(walk_sequence):
    """A cached AGS run on the walking sequence (exercises refinement)."""
    config = AGSConfig(iter_t=3, baseline_tracking_iterations=8)
    system = AgsSlam(walk_sequence.intrinsics, config, mapping_iterations=4, collect_trace=True)
    return system.run(walk_sequence, num_frames=6)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
