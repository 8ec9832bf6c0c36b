"""The repo benchmark: per-frame latency and serving throughput, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ags-desk --seed 11 --seconds 35 --trace 0

Workloads: ``ags-desk``, ``splatam-desk``, ``serve-orb-churn`` (why each
exists: ``workloads.py`` and ``README.md``).

``--trace 0`` times the workload with nothing attached and prints every
end-to-end metric; ``--trace 1`` first runs it untraced for half of
``--seconds``, then wraps each layer's entry points (``layers.py``) and
runs it again, and prints every per-layer metric, including the tracing
overhead.  Both check the outputs:

* in-process workloads: each stream's trajectory/map digest (and so its
  ATE) and ``psnr_db`` must equal those of any earlier run of the same
  workload, seed and source tree (kept in
  ``.perfbench_out/digests.json``);
* ``serve-orb-churn``: every stream fetched with ``GET
  /sessions/<id>/result`` must equal an in-process ``feed`` of the same
  frames, run untimed after the timed region; any 4xx/5xx or timeout
  fails;
* traced runs: traced results equal the untraced ones, and the self
  times of every ``session.feed`` span tree add up to the span.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment and the sample count behind each
percentile.  A failed check exits with code 1; a checkout without the
program's sources exits with code 2 before running anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOADS = ("ags-desk", "splatam-desk", "serve-orb-churn")

# (name, unit): the end-to-end metrics every untraced run reports.
END_TO_END = [
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("frame_p50_ms", "ms"),
    ("frame_p90_ms", "ms"),
    ("ate_cm", "cm"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_hash() -> str:
    """Hash of the program's sources, keying the cross-run digests."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def make_workload(name: str):
    import workloads

    if name == "ags-desk":
        return workloads.InProcess("ags", workloads.AGS_FRAMES)
    if name == "splatam-desk":
        return workloads.InProcess("splatam", workloads.SPLATAM_FRAMES)
    return workloads.ServeChurn(OUT)


def check_against_earlier_runs(key: str, outputs: dict, problems: list) -> None:
    """Compare this run's per-stream outputs with any stored for the same key."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    known = store.setdefault(key, {})
    for name, value in outputs.items():
        if known.setdefault(name, value) != value:
            problems.append(f"{name} of {key} differs from an earlier run")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)


def traced_run(workload, seconds: float, problems: list):
    """Untraced half, then the traced half; returns (untraced, traced, tracer, counters)."""
    import layers
    from repro.perf import PerfRecorder, global_recorder
    from tracer import Tracer

    untraced = workload.run(seconds / 2)
    recorder = PerfRecorder()
    tracer = Tracer()
    before = global_recorder().counters.as_dict()
    with tracer.installed(layers.patches(tracer, recorder)):
        traced = workload.run(max(seconds - untraced.wall, 0.0), perf=recorder)
    after = global_recorder().counters.as_dict()
    counters = recorder.counters.as_dict()
    for name, value in after.items():
        if name.startswith("serve."):
            counters[name] = value - before.get(name, 0)

    common = min(len(traced.digests), len(untraced.digests))
    if traced.digests[:common] != untraced.digests[:common]:
        problems.append("traced results differ from untraced results")
    gap = tracer.self_check("session.feed")
    if gap > 1e-6:
        problems.append(f"self times miss their root span by {gap:.3g} s")
    tracer.resolve_frames()
    return untraced, traced, tracer, counters


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    import numpy as np

    import layers

    workload = make_workload(args.workload)
    setup_times = []
    problems: list = []
    try:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - began)

        if args.trace:
            untraced, phase, tracer, counters = traced_run(workload, args.seconds, problems)
            phases = [untraced, phase]
        else:
            phase = workload.run(args.seconds)
            phases = [phase]
        for each in phases:
            problems.extend(each.problems)

        outputs = {f"stream {k}": digest for k, digest in enumerate(phase.digests)}
        psnr = None
        if phase.result is not None:
            psnr = workload.psnr_db(phase)
            outputs["psnr_db"] = repr(psnr)
        check_against_earlier_runs(
            f"{args.workload}|seed={args.seed}|src={source_hash()}", outputs, problems
        )
    finally:
        workload.close()

    latencies_ms = [1e3 * value for value in phase.latencies]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "episodes": phase.episodes,
        "frames": phase.frames,
        "samples": {
            "frame_p50_ms": len(latencies_ms),
            "frame_p90_ms": len(latencies_ms),
            "beyond_p90": len(latencies_ms) - int(np.ceil(0.9 * len(latencies_ms))),
            "setup_s": len(setup_times),
            "ate_cm": len(phase.ates),
        },
        "psnr_db": psnr,
        "problems": problems,
    }

    if args.trace:
        untraced_fps = untraced.frames_per_s
        extra = {
            "map.gaussians_final": (
                phase.result.frames[-1].num_gaussians if phase.result is not None else 0
            ),
            "map.psnr_db": psnr or 0.0,
            "trace.overhead_frac": untraced_fps / phase.frames_per_s - 1.0,
        }
        metrics = layers.layer_metrics(tracer, counters, phase.frames, extra)
        info["trace_overhead"] = {
            "untraced_frames_per_s": untraced_fps,
            "traced_frames_per_s": phase.frames_per_s,
        }
        info["spans"] = len(tracer.spans)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": phase.frames_per_s,
            "frame_p50_ms": statistics.median(latencies_ms),
            "frame_p90_ms": p90(latencies_ms),
            "ate_cm": phase.ate_cm,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        fig15(args, values, info)

    for name, metric in metrics.items():
        samples = info["samples"].get(name, "")
        print(f"{name:<32} {metric['value']:>14.4f} {metric['unit']:<9} {f'n={samples}' if samples else ''}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps(info))

    failed = sum(each.failed for each in phases)
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(each.attempted for each in phases),
                # A failed whole-run check (digest, self-check) counts once.
                "failed": failed or (0 if correct else 1),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def fig15(args, values: dict, info: dict) -> None:
    """Keep this run's p50 and print SplaTAM p50 / AGS p50 when both are known."""
    if args.workload == "serve-orb-churn":
        return
    path = OUT / f"p50-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(values["frame_p50_ms"]))
    other = "splatam-desk" if args.workload == "ags-desk" else "ags-desk"
    other_path = OUT / f"p50-{other}-seed{args.seed}.json"
    if other_path.exists():
        p50 = {args.workload: values["frame_p50_ms"], other: json.loads(other_path.read_text())}
        ratio = p50["splatam-desk"] / p50["ags-desk"]
        info["software_fig15_speedup"] = ratio
        print(f"software Fig. 15: SplaTAM frame_p50 / AGS frame_p50 = {ratio:.2f}x (not gated)")


if __name__ == "__main__":
    sys.exit(main())
