"""Robustness evaluation: systems × adversarial stream scenarios.

Two grids built on the same cached run store as every other experiment
(:mod:`repro.eval.service`):

* :func:`robustness_grid` — every SLAM system on every registered
  adversarial scenario (:mod:`repro.datasets.scenarios`), reporting the
  trajectory and mapping-quality deltas against the clean stream plus
  the tracking-health counters (degraded frames, fallbacks fired,
  relocalizations accepted).
* :func:`fallback_ablation` — the health-monitor ablation: the
  fallback-capable systems run each degraded scenario twice, with the
  fallback ladder armed and disarmed, isolating exactly what the
  monitor buys.

ATE is reported both Umeyama-aligned (the standard protocol) and
unaligned (raw drift against the ground-truth-anchored start).  The two
can disagree under degradation: a fallback that reduces every per-frame
error can still score a *worse* aligned ATE when the uncorrected run
drifts smoothly enough for the alignment to absorb — the unaligned
number is the honest measure of absolute drift for runs anchored at the
ground-truth first pose, so the ablation records improvements under
both metrics.

Run as a script for the text report::

    python -m repro.eval.robustness [--workers N]

``tests/test_robustness.py`` runs a CI-sized slice (stress, SplaTAM and
AGS, 10 frames) in tier-1 and the full grids in the slow lane.
"""

from __future__ import annotations

import argparse

from repro.eval.report import format_table
from repro.eval.service import RunKey, default_service

__all__ = [
    "ABLATION_SCENARIOS",
    "DEGRADED_SCENARIOS",
    "FALLBACK_SYSTEMS",
    "ROBUST_SYSTEMS",
    "fallback_ablation",
    "format_robustness_report",
    "robustness_grid",
    "main",
]

# Every streaming system in the repo participates in the grid; only the
# map-based systems with a tracking-health monitor have an ablation arm.
ROBUST_SYSTEMS = ("splatam", "gaussian-slam", "orb", "droid", "ags")
FALLBACK_SYSTEMS = ("splatam", "ags")

# Scenarios whose degradation the fallback ladder is expected to engage
# on (detection fires on the benchmark sequence).  The full grid still
# covers every registered scenario.
ABLATION_SCENARIOS = ("exposure", "burst", "flicker", "stress")

# The benchmark-sized configuration of every robustness run: matches the
# scaled-down iteration budgets the health thresholds were calibrated on.
GRID_SEQUENCE = "desk"
GRID_FRAMES = 10
GRID_TRACKING_ITERATIONS = 10
GRID_MAPPING_ITERATIONS = 3


def DEGRADED_SCENARIOS() -> tuple[str, ...]:
    """All registered scenarios except the clean pass-through."""
    from repro.datasets.scenarios import available_scenarios

    return tuple(s for s in available_scenarios() if s != "clean")


def _grid_key(algorithm: str, scenario: str | None, *, sequence: str,
              num_frames: int, fallbacks: bool = True) -> RunKey:
    return RunKey(
        algorithm=algorithm,
        sequence=sequence,
        num_frames=num_frames,
        tracking_iterations=GRID_TRACKING_ITERATIONS,
        mapping_iterations=GRID_MAPPING_ITERATIONS,
        scenario=scenario,
        fallbacks=fallbacks,
    )


def _trajectory_metrics(result, sequence, num_frames: int) -> dict:
    from repro.slam import ate_rmse, evaluate_mapping_quality

    gt = [sequence[i].gt_pose for i in range(num_frames)]
    metrics = {
        "ate_cm": ate_rmse(result.estimated_trajectory, gt),
        "drift_cm": ate_rmse(result.estimated_trajectory, gt, align=False),
        "frames_degraded": result.frames_degraded,
        "fallbacks": result.total_fallbacks,
        "relocalizations": result.total_relocalizations,
    }
    # Mapping quality is rendered against the *clean* frames: the ground
    # truth is untouched by scenarios, so the PSNR drop measures exactly
    # the map damage the degraded stream caused.
    if result.final_model is not None and len(result.final_model) > 0:
        metrics["psnr_db"] = evaluate_mapping_quality(result, sequence).mean_psnr
    else:
        metrics["psnr_db"] = None
    return metrics


def robustness_grid(
    sequence: str = GRID_SEQUENCE,
    num_frames: int = GRID_FRAMES,
    scenarios: tuple[str, ...] | None = None,
    systems: tuple[str, ...] = ROBUST_SYSTEMS,
    workers: int = 1,
) -> dict:
    """Run every system on the clean stream and on each scenario.

    Returns ``{"rows": {scenario: {system: metrics}}, ...}`` where each
    metrics dict carries absolute ATE / drift / PSNR, their deltas
    against the same system's clean run, and the health counters.
    """
    from repro.datasets import load_sequence

    scenarios = tuple(scenarios) if scenarios is not None else DEGRADED_SCENARIOS()
    service = default_service()
    clean_seq = load_sequence(sequence, num_frames=num_frames)

    keys = [
        _grid_key(system, scen, sequence=sequence, num_frames=num_frames)
        for scen in (None,) + scenarios
        for system in systems
    ]
    service.run_many(keys, workers=workers)

    clean = {
        system: _trajectory_metrics(
            service.run(_grid_key(system, None, sequence=sequence, num_frames=num_frames)),
            clean_seq,
            num_frames,
        )
        for system in systems
    }
    rows: dict[str, dict] = {}
    for scen in scenarios:
        entries = {}
        for system in systems:
            metrics = _trajectory_metrics(
                service.run(_grid_key(system, scen, sequence=sequence, num_frames=num_frames)),
                clean_seq,
                num_frames,
            )
            metrics["ate_delta_cm"] = metrics["ate_cm"] - clean[system]["ate_cm"]
            metrics["drift_delta_cm"] = metrics["drift_cm"] - clean[system]["drift_cm"]
            if metrics["psnr_db"] is not None and clean[system]["psnr_db"] is not None:
                metrics["psnr_delta_db"] = metrics["psnr_db"] - clean[system]["psnr_db"]
            else:
                metrics["psnr_delta_db"] = None
            entries[system] = metrics
        rows[scen] = entries
    return {
        "sequence": sequence,
        "num_frames": num_frames,
        "systems": list(systems),
        "clean": clean,
        "rows": rows,
    }


def fallback_ablation(
    sequence: str = GRID_SEQUENCE,
    num_frames: int = GRID_FRAMES,
    scenarios: tuple[str, ...] = ABLATION_SCENARIOS,
    systems: tuple[str, ...] = FALLBACK_SYSTEMS,
    workers: int = 1,
) -> dict:
    """Degraded scenarios with the fallback ladder armed vs disarmed.

    Returns per (scenario, system) the aligned-ATE and unaligned-drift
    numbers of both arms plus the improvements (positive = the armed
    monitor reduced the error).
    """
    from repro.datasets import load_sequence

    service = default_service()
    clean_seq = load_sequence(sequence, num_frames=num_frames)
    gt = [clean_seq[i].gt_pose for i in range(num_frames)]

    keys = [
        _grid_key(system, scen, sequence=sequence, num_frames=num_frames, fallbacks=fb)
        for scen in scenarios
        for system in systems
        for fb in (True, False)
    ]
    service.run_many(keys, workers=workers)

    from repro.slam import ate_rmse

    rows: dict[str, dict] = {}
    for scen in scenarios:
        entries = {}
        for system in systems:
            on = service.run(
                _grid_key(system, scen, sequence=sequence, num_frames=num_frames, fallbacks=True)
            )
            off = service.run(
                _grid_key(system, scen, sequence=sequence, num_frames=num_frames, fallbacks=False)
            )
            entry = {
                "ate_on_cm": ate_rmse(on.estimated_trajectory, gt),
                "ate_off_cm": ate_rmse(off.estimated_trajectory, gt),
                "drift_on_cm": ate_rmse(on.estimated_trajectory, gt, align=False),
                "drift_off_cm": ate_rmse(off.estimated_trajectory, gt, align=False),
                "frames_degraded": on.frames_degraded,
                "fallbacks": on.total_fallbacks,
                "relocalizations": on.total_relocalizations,
            }
            entry["ate_improvement_cm"] = entry["ate_off_cm"] - entry["ate_on_cm"]
            entry["drift_improvement_cm"] = entry["drift_off_cm"] - entry["drift_on_cm"]
            entries[system] = entry
        rows[scen] = entries
    return {
        "sequence": sequence,
        "num_frames": num_frames,
        "systems": list(systems),
        "rows": rows,
    }


def format_robustness_report(grid: dict, ablation: dict | None = None) -> str:
    """Render the grids as fixed-width text tables."""
    blocks = []
    headers = ["scenario", "system", "ate_cm", "Δate", "drift_cm", "Δdrift",
               "psnr_db", "Δpsnr", "dg", "fb", "rl"]
    rows = []
    for system, metrics in grid["clean"].items():
        rows.append([
            "clean", system, metrics["ate_cm"], 0.0, metrics["drift_cm"], 0.0,
            metrics["psnr_db"] if metrics["psnr_db"] is not None else "-", 0.0,
            metrics["frames_degraded"], metrics["fallbacks"], metrics["relocalizations"],
        ])
    for scen, entries in grid["rows"].items():
        for system, m in entries.items():
            rows.append([
                scen, system, m["ate_cm"], m["ate_delta_cm"], m["drift_cm"],
                m["drift_delta_cm"],
                m["psnr_db"] if m["psnr_db"] is not None else "-",
                m["psnr_delta_db"] if m["psnr_delta_db"] is not None else "-",
                m["frames_degraded"], m["fallbacks"], m["relocalizations"],
            ])
    blocks.append(format_table(
        headers, rows,
        title=f"Robustness grid ({grid['sequence']}, {grid['num_frames']} frames)",
    ))
    if ablation is not None:
        headers = ["scenario", "system", "ate on", "ate off", "Δate",
                   "drift on", "drift off", "Δdrift", "dg", "fb", "rl"]
        rows = []
        for scen, entries in ablation["rows"].items():
            for system, m in entries.items():
                rows.append([
                    scen, system, m["ate_on_cm"], m["ate_off_cm"], m["ate_improvement_cm"],
                    m["drift_on_cm"], m["drift_off_cm"], m["drift_improvement_cm"],
                    m["frames_degraded"], m["fallbacks"], m["relocalizations"],
                ])
        blocks.append(format_table(
            headers, rows,
            title="Fallback ablation (positive Δ = armed monitor reduced error)",
        ))
    return "\n\n".join(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    grid = robustness_grid(workers=args.workers)
    ablation = fallback_ablation(workers=args.workers)
    print(format_robustness_report(grid, ablation))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
