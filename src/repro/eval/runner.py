"""Shared experiment infrastructure: cached SLAM runs and platform sims.

Running the NumPy SLAM systems is the expensive part of every experiment,
so runs are cached by :class:`repro.eval.service.RunKey` in the
process-default :class:`repro.eval.service.SlamService` — a *bounded*
LRU store that all experiments and benchmarks share, and whose
``run_many(keys, workers=N)`` batch API executes independent runs
concurrently.  :func:`run_slam` is the compatibility shim over it.

Every uncached run records wall-clock sections and op counters into the
process-wide :func:`repro.perf.global_recorder` (under
``eval/<algorithm>/<sequence>``), which the speed benchmarks serialize
into the repo's ``BENCH_*.json`` perf-trajectory files; concurrent
workers record into per-session recorders merged into the global one.
"""

from __future__ import annotations

import dataclasses

from repro.eval.service import RunKey, default_service
from repro.perf import global_recorder
from repro.hardware import (
    AGS_EDGE,
    AGS_SERVER,
    AgsAccelerator,
    GpuPlatform,
    GsCorePlatform,
    JETSON_XAVIER,
    NVIDIA_A100,
)
from repro.workloads import scale_trace

__all__ = [
    "EvalSettings",
    "run_slam",
    "collect_platform_results",
    "scaled_trace_for_platforms",
]

# Full-scale workload the traces are extrapolated to before platform
# simulation (the paper's 640x480 frames and a SplaTAM-sized map).
FULL_SCALE_PIXELS = 640 * 480
FULL_SCALE_GAUSSIANS = 250_000


@dataclasses.dataclass(frozen=True)
class EvalSettings:
    """Size of the evaluation runs.

    The defaults are sized for interactive use and the benchmark suite;
    larger values reproduce smoother curves at proportionally larger cost.
    """

    num_frames: int = 10
    sequences: tuple[str, ...] = ("desk", "desk2", "room", "xyz", "house")
    # Worker threads the experiment functions hand to SlamService.run_many;
    # 1 keeps everything on the caller's thread.
    workers: int = 1


DEFAULT_SETTINGS = EvalSettings()


def run_slam(algorithm: str, sequence_name: str, **overrides):
    """Run (and cache) one SLAM configuration on one sequence.

    Compatibility shim over the process-default
    :class:`repro.eval.service.SlamService`: returns the run of
    ``RunKey(algorithm, sequence_name, **overrides)``, so every keyword
    is a :class:`repro.eval.service.RunKey` field (``num_frames``,
    iteration budgets, AGS knobs, ``scenario``, ``fallbacks``,
    ``faults``) with RunKey's default, and an unknown or invalid one
    raises.  Repeated calls return the stored result instance (bounded
    LRU).

    Returns:
        The :class:`repro.slam.results.SlamResult` of the run.
    """
    return default_service().run(RunKey(algorithm, sequence_name, **overrides))


def scaled_trace_for_platforms(result):
    """Extrapolate a run's trace to the full-scale workload regime."""
    trace = result.trace
    pixel_factor = FULL_SCALE_PIXELS / max(trace.num_pixels, 1)
    mean_gaussians = max(
        sum(f.num_gaussians for f in trace.frames) / max(len(trace.frames), 1), 1.0
    )
    gaussian_factor = FULL_SCALE_GAUSSIANS / mean_gaussians
    return scale_trace(trace, pixel_factor, gaussian_factor)


def collect_platform_results(baseline_result, ags_result, perf=None):
    """Simulate the standard platform set on a (baseline, AGS) result pair.

    Returns a dict with the six platforms of Fig. 15: GPU-Server (A100),
    GPU-Edge (Xavier), GSCore-Server/Edge (baseline traces) and
    AGS-Server/Edge (AGS traces).  All six simulators record their
    ``hw/<component>`` timers and ``hw.*`` workload counters into
    ``perf`` (default: the process-wide recorder); pass a per-run
    recorder to keep concurrent evaluations attributable.
    """
    recorder = perf or global_recorder()
    baseline_trace = scaled_trace_for_platforms(baseline_result)
    ags_trace = scaled_trace_for_platforms(ags_result)
    return {
        "GPU-Server": GpuPlatform(NVIDIA_A100, perf=recorder).simulate(baseline_trace),
        "GPU-Edge": GpuPlatform(JETSON_XAVIER, perf=recorder).simulate(baseline_trace),
        "GSCore-Server": GsCorePlatform(NVIDIA_A100, perf=recorder).simulate(baseline_trace),
        "GSCore-Edge": GsCorePlatform(JETSON_XAVIER, perf=recorder).simulate(baseline_trace),
        "AGS-Server": AgsAccelerator(AGS_SERVER, perf=recorder).simulate(ags_trace),
        "AGS-Edge": AgsAccelerator(AGS_EDGE, perf=recorder).simulate(ags_trace),
    }
