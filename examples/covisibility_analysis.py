"""CODEC covisibility analysis across the synthetic sequence zoo.

Streams every registered sequence through the CODEC model, extracts the
per-frame minimum-SAD covisibility signal AGS relies on, and prints the
distribution of covisibility levels plus the resulting AGS decisions
(which frames would skip fine-grained tracking, which frames would be key
frames) — the analysis behind Fig. 22 of the paper.

Run with:  python examples/covisibility_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.core import AGSConfig, FrameCovisibilityDetector
from repro.core.covisibility import (
    NUM_COVISIBILITY_LEVELS,
    CovisibilityConfig,
    covisibility_level,
)
from repro.datasets import available_sequences, load_sequence
from repro.eval.report import format_table


def main() -> None:
    num_frames = 10
    config = AGSConfig()
    rows = []
    for name in available_sequences():
        sequence = load_sequence(name, num_frames=num_frames)
        detector = FrameCovisibilityDetector(
            CovisibilityConfig(sad_scale=config.covisibility_sad_scale)
        )
        values = []
        for index in range(num_frames):
            measurement = detector.observe(index, sequence[index].gray)
            if measurement is not None:
                values.append(measurement.value)
        histogram = np.zeros(NUM_COVISIBILITY_LEVELS, dtype=np.int64)
        for value in values:
            histogram[covisibility_level(value) - 1] += 1
        values = np.array(values)
        rows.append(
            [
                name,
                sequence.dataset,
                round(float(values.mean()), 3),
                round(float(values.min()), 3),
                f"{(values >= config.thresh_t).mean():.0%}",
                f"{(values < config.thresh_m).mean():.0%}",
                "/".join(str(int(c)) for c in histogram),
            ]
        )
    print(
        format_table(
            [
                "sequence",
                "dataset",
                "mean FC",
                "min FC",
                "coarse-only frames",
                "forced key frames",
                "level histogram (1..5)",
            ],
            rows,
            title="CODEC-assisted frame covisibility across sequences",
        )
    )
    print(
        "\nFrames above ThreshT "
        f"({config.thresh_t:.0%}) skip fine-grained tracking; frames whose "
        f"covisibility with the last key frame drops below ThreshM ({config.thresh_m:.0%}) "
        "become new key frames."
    )


if __name__ == "__main__":
    main()
