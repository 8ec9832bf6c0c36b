"""Quickstart: stream frames through SplaTAM and AGS sessions.

Every SLAM system in this repo is a *streaming session*: frames are fed
one at a time (``session.feed(frame)``), the accumulated result can be
assembled at any point (``session.finalize()``), and a session can be
checkpointed mid-sequence (``session.state()`` /
``save_session_state``) and resumed later — in the same process or a
fresh one — bit-exactly.

This example

1. runs the SplaTAM baseline by feeding frames one at a time,
2. runs AGS the same way, but checkpoints it halfway to disk, restores
   the checkpoint into a *fresh* AGS system and finishes the run there,
3. compares tracking accuracy (ATE RMSE), mapping quality (PSNR),
   tracking iterations spent, and the simulated latency on the A100
   baseline vs the AGS-Server accelerator.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

from repro.core import AGSConfig, AgsSlam
from repro.datasets import load_sequence
from repro.eval.report import format_table
from repro.eval.runner import collect_platform_results
from repro.slam import (
    SplaTam,
    SplaTamConfig,
    ate_rmse,
    evaluate_mapping_quality,
    load_session_state,
    save_session_state,
)


def main() -> None:
    num_frames = 10
    sequence = load_sequence("desk", num_frames=num_frames)
    ground_truth = [sequence[i].gt_pose for i in range(num_frames)]

    print(f"Sequence 'desk': {num_frames} frames at "
          f"{sequence.spec.width}x{sequence.spec.height}, "
          f"{len(sequence.scene)} ground-truth Gaussians\n")

    # ---------------- Baseline: SplaTAM-like 3DGS-SLAM -------------------
    baseline = SplaTam(
        sequence.intrinsics,
        SplaTamConfig(tracking_iterations=20, mapping_iterations=5, collect_trace=True),
    )
    print("Streaming the SplaTAM baseline (one feed() per frame) ...")
    baseline.begin("desk")
    for index, frame in sequence.stream(stop=num_frames):
        frame_result = baseline.feed(frame, index=index)
        print(f"  frame {index}: loss={frame_result.mapping_loss:.4f} "
              f"gaussians={frame_result.num_gaussians}")
    baseline_result = baseline.finalize()

    # ---------------- AGS, with a mid-sequence checkpoint -----------------
    def make_ags() -> AgsSlam:
        return AgsSlam(
            sequence.intrinsics,
            AGSConfig(iter_t=4, baseline_tracking_iterations=20),
            mapping_iterations=5,
            collect_trace=True,
        )

    halfway = num_frames // 2
    ags = make_ags()
    print(f"\nStreaming AGS; checkpointing after frame {halfway - 1} ...")
    ags.begin("desk")
    for index, frame in sequence.stream(stop=halfway):
        ags.feed(frame, index=index)

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        save_session_state(ags.state(), checkpoint_dir)
        print(f"  checkpoint written to {checkpoint_dir} (state.bin + manifest.json)")

        # A *fresh* identically configured system resumes the checkpoint;
        # the continued run is bit-identical to an uninterrupted one.
        resumed = make_ags()
        resumed.restore(load_session_state(checkpoint_dir))

    for index, frame in sequence.stream(start=halfway, stop=num_frames):
        resumed.feed(frame, index=index)
    ags_result = resumed.finalize()

    # ---------------- Compare -------------------------------------------
    platforms = collect_platform_results(baseline_result, ags_result)
    rows = []
    for name, result, platform in (
        ("SplaTAM (baseline)", baseline_result, platforms["GPU-Server"]),
        ("AGS (resumed)", ags_result, platforms["AGS-Server"]),
    ):
        quality = evaluate_mapping_quality(result, sequence)
        rows.append(
            [
                name,
                ate_rmse(result.estimated_trajectory, ground_truth),
                quality.mean_psnr,
                result.total_tracking_iterations,
                platform.total_seconds,
            ]
        )
    print()
    print(
        format_table(
            ["system", "ATE (cm)", "PSNR (dB)", "tracking iters", "simulated time (s)"],
            rows,
            title="Baseline vs AGS on 'desk'",
        )
    )
    speedup = platforms["GPU-Server"].total_seconds / platforms["AGS-Server"].total_seconds
    print(f"\nAGS-Server speedup over the A100 baseline: {speedup:.2f}x")
    print(f"Frames tracked with the coarse estimate only: {ags_result.coarse_only_fraction:.0%}")
    print(f"Frames designated as key frames: {ags_result.keyframe_fraction:.0%}")


if __name__ == "__main__":
    main()
