"""One function per table / figure of the paper's evaluation section.

Every function returns a plain dictionary with the same rows or series the
paper reports, so benchmarks, tests and EXPERIMENTS.md generation all
consume the same data.  SLAM runs are cached in the process-default
:class:`repro.eval.service.SlamService` (a bounded LRU store), so
experiments sharing a configuration share the cost; each experiment
prefetches its (algorithm x sequence) grid through
``SlamService.run_many``, which executes the independent runs on a
worker pool when ``settings.workers > 1``.
"""

from __future__ import annotations

import numpy as np

from repro.core import FrameCovisibilityDetector
from repro.core.covisibility import CovisibilityConfig
from repro.datasets import load_sequence
from repro.gaussians.camera import Camera
from repro.gaussians.rasterizer import render, tile_forward
from repro.hardware import (
    AGS_EDGE,
    AGS_SERVER,
    AgsAccelerator,
    GpuPlatform,
    NVIDIA_A100,
    area_report,
    energy_report,
)
from repro.hardware.config import AgsHardwareConfig
import dataclasses

from repro.eval.report import geomean
from repro.eval.runner import (
    DEFAULT_SETTINGS,
    EvalSettings,
    collect_platform_results,
    run_slam,
    scaled_trace_for_platforms,
)
from repro.eval.service import RunKey, default_service
from repro.slam import ate_rmse, evaluate_mapping_quality
from repro.slam.tracker import GaussianPoseTracker, TrackerConfig

__all__ = [
    "table1_category_comparison",
    "fig3_time_breakdown",
    "fig4_iteration_sensitivity",
    "fig5_contribution_breakdown",
    "fig6_contribution_similarity",
    "table2_tracking_accuracy",
    "fig14_psnr",
    "fig15_speedup",
    "table3_area",
    "fig16_energy",
    "fig17_task_speedup",
    "fig18_ablation",
    "table4_droid_comparison",
    "fig19_iter_t_sensitivity",
    "fig20_thresh_m_sensitivity",
    "fig21_thresh_n_sensitivity",
    "fig22_covisibility_levels",
    "fig23_gaussian_slam",
]


def _gt_poses(sequence, count):
    return [sequence[i].gt_pose for i in range(count)]


def _prefetch(settings: EvalSettings, algorithms, sequences=None, **overrides) -> None:
    """Warm the run store for an experiment's (algorithm x sequence) grid.

    The independent runs go through :meth:`SlamService.run_many`, so a
    ``settings.workers > 1`` configuration executes them concurrently;
    the experiment bodies below then consume pure cache hits.  Key
    construction is centralized in :meth:`RunKey.from_settings` — no
    call site re-derives ``num_frames``.
    """
    sequences = settings.sequences if sequences is None else sequences
    keys = [
        RunKey.from_settings(algorithm, name, settings, **overrides)
        for name in sequences
        for algorithm in algorithms
    ]
    default_service().run_many(keys, workers=settings.workers)


# ---------------------------------------------------------------------------
# Accuracy-side experiments
# ---------------------------------------------------------------------------
def table2_tracking_accuracy(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Table 2: ATE RMSE (cm) of SplaTAM, AGS and ORB-lite per sequence."""
    _prefetch(settings, ("splatam", "ags", "orb"))
    rows = {}
    for name in settings.sequences:
        sequence = load_sequence(name, num_frames=settings.num_frames)
        gt = _gt_poses(sequence, settings.num_frames)
        entries = {}
        for algorithm in ("splatam", "ags", "orb"):
            result = run_slam(algorithm, name, num_frames=settings.num_frames)
            entries[algorithm] = ate_rmse(result.estimated_trajectory, gt)
        rows[name] = entries
    geo = {
        algo: geomean([rows[name][algo] for name in rows]) for algo in ("splatam", "ags", "orb")
    }
    return {"rows": rows, "geomean": geo}


def fig14_psnr(settings: EvalSettings = DEFAULT_SETTINGS, sequences=None) -> dict:
    """Fig. 14: mapping PSNR of the baseline and AGS per sequence."""
    sequences = sequences or settings.sequences
    _prefetch(settings, ("splatam", "ags"), sequences=sequences)
    rows = {}
    for name in sequences:
        sequence = load_sequence(name, num_frames=settings.num_frames)
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        ags = run_slam("ags", name, num_frames=settings.num_frames)
        rows[name] = {
            "baseline": evaluate_mapping_quality(baseline, sequence).mean_psnr,
            "ags": evaluate_mapping_quality(ags, sequence).mean_psnr,
        }
    geo = {
        "baseline": geomean([rows[n]["baseline"] for n in rows]),
        "ags": geomean([rows[n]["ags"] for n in rows]),
    }
    return {"rows": rows, "geomean": geo}


def table4_droid_comparison(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Table 4: PSNR of AGS vs directly composing Droid tracking with SplaTAM."""
    _prefetch(settings, ("ags", "droid-splatam"))
    rows = {}
    for name in settings.sequences:
        sequence = load_sequence(name, num_frames=settings.num_frames)
        ags = run_slam("ags", name, num_frames=settings.num_frames)
        droid = run_slam("droid-splatam", name, num_frames=settings.num_frames)
        rows[name] = {
            "ags": evaluate_mapping_quality(ags, sequence).mean_psnr,
            "droid+splatam": evaluate_mapping_quality(droid, sequence).mean_psnr,
        }
    geo = {
        "ags": geomean([rows[n]["ags"] for n in rows]),
        "droid+splatam": geomean([rows[n]["droid+splatam"] for n in rows]),
    }
    return {"rows": rows, "geomean": geo}


def table1_category_comparison(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Table 1: qualitative comparison of SLAM categories on one sequence."""
    name = settings.sequences[0]
    _prefetch(settings, ("splatam", "orb", "gaussian-slam"), sequences=(name,))
    sequence = load_sequence(name, num_frames=settings.num_frames)
    gt = _gt_poses(sequence, settings.num_frames)
    splatam = run_slam("splatam", name, num_frames=settings.num_frames)
    orb = run_slam("orb", name, num_frames=settings.num_frames)
    gslam = run_slam("gaussian-slam", name, num_frames=settings.num_frames)
    gpu = GpuPlatform(NVIDIA_A100)
    rows = {
        "SplaTAM (3DGS)": {
            "ate_cm": ate_rmse(splatam.estimated_trajectory, gt),
            "psnr_db": evaluate_mapping_quality(splatam, sequence).mean_psnr,
            "latency_s_per_frame": gpu.simulate(scaled_trace_for_platforms(splatam)).mean_frame_seconds,
        },
        "Gaussian-SLAM (3DGS)": {
            "ate_cm": ate_rmse(gslam.estimated_trajectory, gt),
            "psnr_db": evaluate_mapping_quality(gslam, sequence).mean_psnr,
            "latency_s_per_frame": gpu.simulate(scaled_trace_for_platforms(gslam)).mean_frame_seconds,
        },
        "Orb-SLAM2 (Trad)": {
            "ate_cm": ate_rmse(orb.estimated_trajectory, gt),
            "psnr_db": 0.0,
            "latency_s_per_frame": 0.002,
        },
    }
    return {"sequence": name, "rows": rows}


# ---------------------------------------------------------------------------
# Motivation experiments (Figs. 3-6)
# ---------------------------------------------------------------------------
def fig3_time_breakdown(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 3: baseline time per frame split into tracking and mapping."""
    _prefetch(settings, ("splatam",))
    gpu = GpuPlatform(NVIDIA_A100)
    rows = {}
    for name in settings.sequences:
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        sim = gpu.simulate(scaled_trace_for_platforms(baseline))
        frames = max(len(sim.frames), 1)
        rows[name] = {
            "tracking_s": sim.tracking_seconds / frames,
            "mapping_s": sim.mapping_seconds / frames,
            "tracking_share": sim.tracking_seconds / max(sim.total_seconds, 1e-12),
        }
    return {"rows": rows}


def fig4_iteration_sensitivity(
    sequence_name: str = "desk",
    num_frames: int = 10,
    iteration_counts=(20, 15, 10, 5, 3),
) -> dict:
    """Fig. 4: tracking accuracy vs reduced iterations for high / low FC frames."""
    sequence = load_sequence(sequence_name, num_frames=num_frames)
    detector = FrameCovisibilityDetector(CovisibilityConfig())
    covisibilities = []
    for index in range(num_frames):
        measurement = detector.observe(index, sequence[index].gray)
        covisibilities.append(measurement.value if measurement else 1.0)
    order = np.argsort(covisibilities[1:])
    low_index = int(order[0]) + 1
    high_index = int(order[-1]) + 1

    baseline = run_slam("splatam", sequence_name, num_frames=num_frames)
    model = baseline.final_model
    tracker = GaussianPoseTracker(sequence.intrinsics, TrackerConfig())

    def accuracy_curve(frame_index: int) -> list[float]:
        frame = sequence[frame_index]
        start = sequence[frame_index - 1].gt_pose
        errors = []
        for iterations in iteration_counts:
            outcome = tracker.track(
                model, frame.color, frame.depth, start.copy(),
                num_iterations=iterations, collect_workload=False,
            )
            errors.append(outcome.pose.translation_distance_to(frame.gt_pose) * 100.0)
        reference = max(errors[0], 1e-6)
        return [100.0 * min(reference / max(err, 1e-6), 1.0) for err in errors]

    return {
        "iteration_counts": list(iteration_counts),
        "high_covisibility": accuracy_curve(high_index),
        "low_covisibility": accuracy_curve(low_index),
        "high_frame": high_index,
        "low_frame": low_index,
    }


def fig5_contribution_breakdown(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 5: fraction of non-contributory Gaussian-tile assignments."""
    _prefetch(settings, ("splatam",))
    rows = {}
    for name in settings.sequences:
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        sequence = load_sequence(name, num_frames=settings.num_frames)
        model = baseline.final_model
        camera = Camera(sequence.intrinsics, baseline.frames[-1].estimated_pose)
        result = render(model, camera, record_workloads=False, record_contributions=False)
        total, noncontrib = 0, 0
        for table in result.tile_grid.tables:
            if len(table) == 0:
                continue
            pixels = result.tile_grid.pixel_centers(table)
            data = tile_forward(table, pixels, result.projection, model.colors, model.alphas)
            contrib_per_gaussian = (data["weights"] >= 1.0 / 255.0).sum(axis=0)
            total += len(table)
            noncontrib += int((contrib_per_gaussian == 0).sum())
        rows[name] = {
            "noncontributory_pct": 100.0 * noncontrib / max(total, 1),
            "contributory_pct": 100.0 * (total - noncontrib) / max(total, 1),
        }
    geo = geomean([rows[n]["noncontributory_pct"] for n in rows])
    return {"rows": rows, "geomean_noncontributory_pct": geo}


def fig6_contribution_similarity(
    sequence_names=("desk", "desk2"), num_frames: int = 10
) -> dict:
    """Fig. 6: similarity of non-contributory Gaussian sets vs covisibility level."""
    results = {}
    for name in sequence_names:
        sequence = load_sequence(name, num_frames=num_frames)
        baseline = run_slam("splatam", name, num_frames=num_frames)
        model = baseline.final_model
        detector = FrameCovisibilityDetector(CovisibilityConfig())

        def noncontrib_set(index: int) -> np.ndarray:
            camera = Camera(sequence.intrinsics, sequence[index].gt_pose)
            result = render(model, camera, record_workloads=False)
            contrib = result.gaussian_pixels_touched - result.gaussian_noncontrib_pixels
            return contrib == 0

        level_similarities: dict[int, list[float]] = {level: [] for level in range(1, 6)}
        reference_sets = {i: noncontrib_set(i) for i in range(num_frames)}
        for i in range(num_frames):
            for j in range(i + 1, num_frames):
                measurement = detector._measure(sequence[j].gray, sequence[i].gray)
                level = measurement.level
                set_i, set_j = reference_sets[i], reference_sets[j]
                if set_i.sum() == 0:
                    continue
                similarity = 100.0 * float((set_i & set_j).sum()) / float(set_i.sum())
                level_similarities[level].append(similarity)
        results[name] = {
            level: float(np.mean(values)) if values else float("nan")
            for level, values in level_similarities.items()
        }
    return {"rows": results}


# ---------------------------------------------------------------------------
# Performance experiments (Figs. 15-18, 23, Table 3, Fig. 16)
# ---------------------------------------------------------------------------
def fig15_speedup(settings: EvalSettings = DEFAULT_SETTINGS, sequences=None) -> dict:
    """Fig. 15: speedups of GSCore and AGS over the GPU baselines."""
    sequences = sequences or settings.sequences
    _prefetch(settings, ("splatam", "ags"), sequences=sequences)
    server_rows, edge_rows = {}, {}
    for name in sequences:
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        ags = run_slam("ags", name, num_frames=settings.num_frames)
        platforms = collect_platform_results(baseline, ags)
        gpu_server = platforms["GPU-Server"].total_seconds
        gpu_edge = platforms["GPU-Edge"].total_seconds
        server_rows[name] = {
            "GPU-Server": 1.0,
            "GSCore-Server": gpu_server / platforms["GSCore-Server"].total_seconds,
            "AGS-Server": gpu_server / platforms["AGS-Server"].total_seconds,
        }
        edge_rows[name] = {
            "GPU-Edge": 1.0,
            "GSCore-Edge": gpu_edge / platforms["GSCore-Edge"].total_seconds,
            "AGS-Edge": gpu_edge / platforms["AGS-Edge"].total_seconds,
        }
    geo_server = {
        key: geomean([server_rows[n][key] for n in server_rows]) for key in ("GSCore-Server", "AGS-Server")
    }
    geo_edge = {
        key: geomean([edge_rows[n][key] for n in edge_rows]) for key in ("GSCore-Edge", "AGS-Edge")
    }
    return {"server": server_rows, "edge": edge_rows, "geomean_server": geo_server, "geomean_edge": geo_edge}


def fig17_task_speedup(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 17: per-task (tracking / mapping) speedups of AGS over GPUs."""
    _prefetch(settings, ("splatam", "ags"))
    rows = {}
    for name in settings.sequences:
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        ags = run_slam("ags", name, num_frames=settings.num_frames)
        platforms = collect_platform_results(baseline, ags)
        rows[name] = {
            "tracking_server": platforms["GPU-Server"].tracking_seconds
            / max(platforms["AGS-Server"].tracking_seconds, 1e-12),
            "tracking_edge": platforms["GPU-Edge"].tracking_seconds
            / max(platforms["AGS-Edge"].tracking_seconds, 1e-12),
            "mapping_server": platforms["GPU-Server"].mapping_seconds
            / max(platforms["AGS-Server"].mapping_seconds, 1e-12),
            "mapping_edge": platforms["GPU-Edge"].mapping_seconds
            / max(platforms["AGS-Edge"].mapping_seconds, 1e-12),
        }
    geo = {
        key: geomean([rows[n][key] for n in rows])
        for key in ("tracking_server", "tracking_edge", "mapping_server", "mapping_edge")
    }
    return {"rows": rows, "geomean": geo}


def fig16_energy(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 16: energy efficiency of AGS over the GPUs."""
    _prefetch(settings, ("splatam", "ags"))
    rows = {}
    for name in settings.sequences:
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        ags = run_slam("ags", name, num_frames=settings.num_frames)
        platforms = collect_platform_results(baseline, ags)
        ags_server_trace = scaled_trace_for_platforms(ags)
        server_energy = energy_report(AGS_SERVER, ags_server_trace, platforms["AGS-Server"])
        edge_energy = energy_report(AGS_EDGE, ags_server_trace, platforms["AGS-Edge"])
        gpu_server_energy = GpuPlatform(NVIDIA_A100).energy_joules(platforms["GPU-Server"])
        from repro.hardware import JETSON_XAVIER as _XAVIER

        gpu_edge_energy = GpuPlatform(_XAVIER).energy_joules(platforms["GPU-Edge"])
        rows[name] = {
            "AGS-Server": gpu_server_energy / max(server_energy.total_joules, 1e-12),
            "AGS-Edge": gpu_edge_energy / max(edge_energy.total_joules, 1e-12),
        }
    geo = {key: geomean([rows[n][key] for n in rows]) for key in ("AGS-Server", "AGS-Edge")}
    return {"rows": rows, "geomean": geo}


def table3_area() -> dict:
    """Table 3: area breakdown of AGS-Edge and AGS-Server."""
    edge = area_report(AGS_EDGE)
    server = area_report(AGS_SERVER)
    return {
        "edge": {"total_mm2": edge.total_mm2, "rows": edge.as_rows()},
        "server": {"total_mm2": server.total_mm2, "rows": server.as_rows()},
    }


def fig18_ablation(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 18: stepwise contribution of the algorithm and architecture."""
    _prefetch(settings, ("splatam", "ags"))
    _prefetch(settings, ("ags",), enable_gcm=False)
    gpu = GpuPlatform(NVIDIA_A100)
    no_scheduler_server = dataclasses.replace(AGS_SERVER, enable_gpe_scheduler=False)
    rows = {}
    for name in settings.sequences:
        baseline = run_slam("splatam", name, num_frames=settings.num_frames)
        ags_full = run_slam("ags", name, num_frames=settings.num_frames)
        ags_mat_only = run_slam("ags", name, num_frames=settings.num_frames, enable_gcm=False)
        base_trace = scaled_trace_for_platforms(baseline)
        full_trace = scaled_trace_for_platforms(ags_full)
        mat_trace = scaled_trace_for_platforms(ags_mat_only)

        gpu_base = gpu.simulate(base_trace).total_seconds
        gpu_ags = gpu.simulate(full_trace).total_seconds
        ags_mat = AgsAccelerator(no_scheduler_server).simulate(mat_trace).total_seconds
        ags_mat_gcm = AgsAccelerator(no_scheduler_server).simulate(full_trace).total_seconds
        ags_all = AgsAccelerator(AGS_SERVER).simulate(full_trace).total_seconds
        rows[name] = {
            "GPU-Base": 1.0,
            "GPU-AGS": gpu_base / gpu_ags,
            "AGS-MAT": gpu_base / ags_mat,
            "AGS-MAT+GCM": gpu_base / ags_mat_gcm,
            "AGS-Full": gpu_base / ags_all,
        }
    keys = ("GPU-AGS", "AGS-MAT", "AGS-MAT+GCM", "AGS-Full")
    geo = {key: geomean([rows[n][key] for n in rows]) for key in keys}
    geo["GPU-Base"] = 1.0
    return {"rows": rows, "geomean": geo}


def fig23_gaussian_slam(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 23: generality — Gaussian-SLAM accelerated by the AGS hardware."""
    _prefetch(settings, ("gaussian-slam",))
    rows = {}
    for name in settings.sequences:
        gslam = run_slam("gaussian-slam", name, num_frames=settings.num_frames)
        trace = scaled_trace_for_platforms(gslam)
        gpu_seconds = GpuPlatform(NVIDIA_A100).simulate(trace).total_seconds
        ags_seconds = AgsAccelerator(AGS_SERVER).simulate(trace).total_seconds
        rows[name] = {"GPU-Server": 1.0, "AGS-Server": gpu_seconds / max(ags_seconds, 1e-12)}
    geo = geomean([rows[n]["AGS-Server"] for n in rows])
    return {"rows": rows, "geomean": geo}


# ---------------------------------------------------------------------------
# Sensitivity studies (Figs. 19-21) and covisibility statistics (Fig. 22)
# ---------------------------------------------------------------------------
def fig19_iter_t_sensitivity(
    sequence_name: str = "desk", num_frames: int = 10, iter_values=(2, 3, 4, 6, 8)
) -> dict:
    """Fig. 19: PSNR and speedup vs the refinement iteration count IterT."""
    sequence = load_sequence(sequence_name, num_frames=num_frames)
    baseline = run_slam("splatam", sequence_name, num_frames=num_frames)
    gpu = GpuPlatform(NVIDIA_A100)
    gpu_seconds = gpu.simulate(scaled_trace_for_platforms(baseline)).total_seconds
    points = []
    for iter_t in iter_values:
        ags = run_slam("ags", sequence_name, num_frames=num_frames, iter_t=iter_t)
        quality = evaluate_mapping_quality(ags, sequence).mean_psnr
        ags_seconds = AgsAccelerator(AGS_SERVER).simulate(scaled_trace_for_platforms(ags)).total_seconds
        points.append({"iter_t": iter_t, "psnr": quality, "speedup": gpu_seconds / ags_seconds})
    return {"points": points}


def fig20_thresh_m_sensitivity(
    sequence_name: str = "desk", num_frames: int = 10, thresh_values=(0.4, 0.45, 0.5, 0.55, 0.6)
) -> dict:
    """Fig. 20: PSNR and theoretical savings vs the key-frame threshold ThreshM."""
    sequence = load_sequence(sequence_name, num_frames=num_frames)
    points = []
    for thresh_m in thresh_values:
        ags = run_slam("ags", sequence_name, num_frames=num_frames, thresh_m=thresh_m)
        quality = evaluate_mapping_quality(ags, sequence).mean_psnr
        skipped = sum(f.gaussians_skipped for f in ags.frames)
        considered = sum(f.num_gaussians for f in ags.frames)
        nonkey_fraction = 1.0 - ags.keyframe_fraction
        points.append(
            {
                "thresh_m": thresh_m,
                "psnr": quality,
                "theoretical_saving_pct": 100.0 * skipped / max(considered, 1),
                "nonkey_fraction": nonkey_fraction,
            }
        )
    return {"points": points}


def fig21_thresh_n_sensitivity(
    sequence_name: str = "desk", num_frames: int = 10, thresh_values=(1, 4, 16, 64, 256)
) -> dict:
    """Fig. 21: PSNR and theoretical savings vs the skip threshold ThreshN."""
    sequence = load_sequence(sequence_name, num_frames=num_frames)
    points = []
    for thresh_n in thresh_values:
        ags = run_slam("ags", sequence_name, num_frames=num_frames, thresh_n=thresh_n)
        quality = evaluate_mapping_quality(ags, sequence).mean_psnr
        skipped = sum(f.gaussians_skipped for f in ags.frames)
        considered = sum(f.num_gaussians for f in ags.frames)
        points.append(
            {
                "thresh_n": thresh_n,
                "psnr": quality,
                "theoretical_saving_pct": 100.0 * skipped / max(considered, 1),
            }
        )
    return {"points": points}


def fig22_covisibility_levels(settings: EvalSettings = DEFAULT_SETTINGS) -> dict:
    """Fig. 22: proportion of adjacent frames at high / medium / low covisibility."""
    _prefetch(settings, ("ags",))
    rows = {}
    for name in settings.sequences:
        ags = run_slam("ags", name, num_frames=settings.num_frames)
        values = [f.covisibility for f in ags.frames if f.covisibility is not None]
        values = np.asarray(values)
        high = float((values >= 0.9).mean()) if len(values) else 0.0
        low = float((values < 0.75).mean()) if len(values) else 0.0
        rows[name] = {
            "high_pct": 100.0 * high,
            "medium_pct": 100.0 * (1.0 - high - low),
            "low_pct": 100.0 * low,
        }
    geo = {
        key: float(np.mean([rows[n][key] for n in rows])) for key in ("high_pct", "medium_pct", "low_pct")
    }
    return {"rows": rows, "mean": geo}
