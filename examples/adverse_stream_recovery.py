"""Adverse-stream recovery: the tracking-health monitor under stream faults.

Real robot streams are not the clean recordings SLAM papers evaluate on:
frames drop under radio contention, auto-exposure steps mid-sweep, sensor
noise climbs with temperature.  This example replays the 'desk' sequence
through a deterministic fault-injection scenario ("stress": frame drops
plus an exposure step plus noise), runs SplaTAM with the tracking-health
monitor armed and disarmed, and shows

  * which frames the monitor flagged and which fallback-ladder rungs it
    took (re-seeded photometric retry, feature-based relocalization),
  * the trajectory error with and without the fallback ladder — the
    measurable win ``tests/test_robustness.py`` locks in.

The same scenarios drive the full eval grid:
``python -m repro.eval.robustness``.

Run with:  python examples/adverse_stream_recovery.py
"""

from __future__ import annotations

from repro.datasets import apply_scenario, available_scenarios, load_sequence
from repro.eval.report import format_table
from repro.slam import HealthConfig, SplaTam, SplaTamConfig, ate_rmse

SEQUENCE = "desk"
NUM_FRAMES = 10
SCENARIO = "stress"


def run(sequence, degraded, *, fallbacks: bool):
    config = SplaTamConfig(
        tracking_iterations=10,
        mapping_iterations=3,
        health=HealthConfig(enabled=fallbacks),
        collect_trace=True,
    )
    system = SplaTam(sequence.intrinsics, config)
    return system.run(degraded, num_frames=NUM_FRAMES)


def main() -> None:
    print(f"Registered scenarios: {', '.join(available_scenarios())}")
    sequence = load_sequence(SEQUENCE, num_frames=NUM_FRAMES)
    degraded = apply_scenario(sequence, SCENARIO)
    print(f"Replaying '{SEQUENCE}' through the '{SCENARIO}' scenario ...\n")

    armed = run(sequence, degraded, fallbacks=True)
    disarmed = run(sequence, degraded, fallbacks=False)

    print("Per-frame health log (monitor armed):")
    for frame, trace in zip(armed.frames, armed.trace.frames):
        source = degraded.content_index(frame.frame_index)
        stream = "" if source == frame.frame_index else f"  [stream replayed frame {source}]"
        events = ", ".join(trace.health_events) if trace.health_events else "healthy"
        print(f"  frame {frame.frame_index}: {events}{stream}")
    print(
        f"\n  degraded frames: {armed.frames_degraded}"
        f"   fallback rungs: {armed.total_fallbacks}"
        f"   relocalizations: {armed.total_relocalizations}"
    )

    gt = degraded.ground_truth_trajectory()[:NUM_FRAMES]
    rows = []
    for label, result in (("monitor armed", armed), ("monitor disarmed", disarmed)):
        rows.append(
            [
                label,
                f"{ate_rmse(result.estimated_trajectory, gt):.2f}",
                f"{ate_rmse(result.estimated_trajectory, gt, align=False):.2f}",
                result.total_fallbacks,
            ]
        )
    print()
    print(
        format_table(
            ["run", "ATE (cm)", "drift (cm)", "fallbacks"],
            rows,
            title=f"SplaTAM on '{SEQUENCE}' + '{SCENARIO}'",
        )
    )


if __name__ == "__main__":
    main()
