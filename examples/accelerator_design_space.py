"""Design-space exploration of the AGS accelerator.

Sweeps the number of GPE groups in the mapping engine, the off-chip
memory technology and the GPE scheduler, and reports the resulting area
and per-frame latency on a recorded AGS workload trace — the kind of
exploration an architect would run before freezing the AGS-Edge /
AGS-Server design points of Table 3.

Run with:  python examples/accelerator_design_space.py
"""

from __future__ import annotations

import dataclasses

from repro.core import AGSConfig, AgsSlam
from repro.datasets import load_sequence
from repro.eval.report import format_table
from repro.eval.runner import scaled_trace_for_platforms
from repro.hardware import AGS_EDGE, AgsAccelerator, area_report
from repro.hardware.config import HBM2, LPDDR4_3200


def main() -> None:
    sequence = load_sequence("desk", num_frames=8)
    system = AgsSlam(
        sequence.intrinsics,
        AGSConfig(iter_t=4, baseline_tracking_iterations=16),
        mapping_iterations=4,
        collect_trace=True,
    )
    print("Collecting an AGS workload trace on 'desk' ...")
    result = system.run(sequence, num_frames=8)
    trace = scaled_trace_for_platforms(result)

    rows = []
    for num_groups in (8, 16, 32):
        for dram in (LPDDR4_3200, HBM2):
            for scheduler in (False, True):
                config = dataclasses.replace(
                    AGS_EDGE,
                    name=f"{num_groups}xGPE/{dram.name}/{'sched' if scheduler else 'nosched'}",
                    num_gpe_groups=num_groups,
                    dram=dram,
                    enable_gpe_scheduler=scheduler,
                )
                simulation = AgsAccelerator(config).simulate(trace)
                rows.append(
                    [
                        num_groups,
                        dram.name,
                        "yes" if scheduler else "no",
                        round(area_report(config).total_mm2, 2),
                        round(simulation.mean_frame_seconds * 1e3, 3),
                    ]
                )

    print()
    print(
        format_table(
            ["GPE groups", "DRAM", "scheduler", "area (mm^2)", "frame latency (ms)"],
            rows,
            title="AGS design-space sweep (per-frame latency on the scaled 'desk' trace)",
        )
    )
    print("\nThe AGS-Edge / AGS-Server design points of Table 3 correspond to "
          "16 groups + LPDDR4 and 32 groups + HBM2 with the scheduler enabled.")


if __name__ == "__main__":
    main()
