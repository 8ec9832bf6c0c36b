"""Rendering and serialization of perf-recorder contents.

``format_report`` produces the human-readable text table (indented by
section nesting); ``build_report`` / ``write_json_report`` produce the
JSON structure the benchmark tooling appends to the repo's perf
trajectory files (``BENCH_*.json``).
"""

from __future__ import annotations

import json
import pathlib

from repro.ioutil import atomic_write_text

__all__ = [
    "RASTERIZER_COUNTERS",
    "ROBUSTNESS_COUNTERS",
    "SERVING_COUNTERS",
    "build_report",
    "format_report",
    "write_json_report",
]

# The session-health counters every report surfaces explicitly (zero
# when they never fired): a clean run *showing* zero degraded frames is
# evidence, a missing key is just ambiguity.  The fault-tolerance
# counters (ingest watchdog trips, service frame retries) follow the same
# rule: silent runs report them as explicit zeros.
ROBUSTNESS_COUNTERS = (
    "session.frames_degraded",
    "session.tracking_fallbacks",
    "session.relocalizations",
    "session.watchdog_timeouts",
    "service.retries",
)

# The rasterizer sparsity counters, surfaced the same way: pair-level
# culling (PR 5's exact tile tables) and pixel-level culling (the
# active-interval masks) are the two workload reductions every perf
# report should quantify, as explicit zeros when rendering never ran.
RASTERIZER_COUNTERS = (
    "raster.pairs_total",
    "raster.pairs_culled",
    "raster.pixels_total",
    "raster.pixels_culled",
)

# The serving-tier counters (repro.serve), explicit zeros when serving
# never ran: the ingestion queue's high-water depth, producer blocking
# episodes on the bounded queue, registry checkpoint-parking churn, and
# the PR 10 overload tallies — admission/drain shedding, per-frame
# deadline rejections, and sessions parked by a graceful drain.
SERVING_COUNTERS = (
    "serve.queue_depth",
    "serve.backpressure_waits",
    "serve.sessions_parked",
    "serve.sessions_resumed",
    "serve.shed_frames",
    "serve.deadline_rejections",
    "serve.drain_parked",
)


def _culling_ratios(counters: dict) -> dict:
    """Pair/pixel culled fractions from the raster counters (0 when idle)."""
    ratios = {}
    for kind in ("pairs", "pixels"):
        total = float(counters.get(f"raster.{kind}_total", 0) or 0)
        culled = float(counters.get(f"raster.{kind}_culled", 0) or 0)
        ratios[f"{kind}_culled_fraction"] = round(culled / total, 6) if total else 0.0
    return ratios


def build_report(recorder, extra: dict | None = None) -> dict:
    """Return timers/counters plus the robustness, rasterizer and serving sections."""
    counters = recorder.counters.as_dict()
    rasterizer = {name: counters.get(name, 0) for name in RASTERIZER_COUNTERS}
    rasterizer.update(_culling_ratios(counters))
    report = {
        "timers": recorder.timers.as_dict(),
        "counters": counters,
        "robustness": {name: counters.get(name, 0) for name in ROBUSTNESS_COUNTERS},
        "rasterizer": rasterizer,
        "serving": {name: counters.get(name, 0) for name in SERVING_COUNTERS},
    }
    if extra:
        report.update(extra)
    return report


def format_report(recorder, title: str = "perf report") -> str:
    """Render a recorder as an aligned text table, indented by nesting."""
    timers = recorder.timers.as_dict()
    counters = recorder.counters.as_dict()
    lines = [title, "-" * len(title)]
    if timers:
        name_width = max(len(path) + 2 * path.count("/") for path in timers) + 2
        lines.append(f"{'section'.ljust(name_width)}{'total':>10}  {'calls':>7}  {'mean':>10}")
        for path, stats in timers.items():
            # Strip the longest timed ancestor so nested sections show only
            # their relative path; indent one level per stripped ancestor.
            label, depth = path, 0
            parent = path
            while "/" in parent:
                parent = parent.rpartition("/")[0]
                if parent in timers:
                    if depth == 0:
                        label = path[len(parent) + 1 :]
                    depth += 1
            lines.append(
                f"{('  ' * depth + label).ljust(name_width)}{stats['total_seconds']:>9.4f}s  "
                f"{stats['calls']:>7d}  {stats['mean_seconds'] * 1e3:>8.3f}ms"
            )
    else:
        lines.append("(no timed sections)")
    if counters:
        lines.append("")
        name_width = max(len(name) for name in counters) + 2
        for name, value in counters.items():
            rendered = f"{value:,.0f}" if float(value).is_integer() else f"{value:,.3f}"
            lines.append(f"{name.ljust(name_width)}{rendered:>16}")
    shown = set(counters)
    missing = [
        name
        for name in ROBUSTNESS_COUNTERS + RASTERIZER_COUNTERS + SERVING_COUNTERS
        if name not in shown
    ]
    if missing:
        lines.append("")
        name_width = max(len(name) for name in missing) + 2
        for name in missing:
            lines.append(f"{name.ljust(name_width)}{'0':>16}")
    ratios = _culling_ratios(counters)
    lines.append("")
    name_width = max(len(name) for name in ratios) + 2
    for name, value in sorted(ratios.items()):
        lines.append(f"{name.ljust(name_width)}{value:>16.4f}")
    return "\n".join(lines)


def write_json_report(recorder, path, extra: dict | None = None) -> dict:
    """Serialize ``build_report`` output to ``path``; returns the report."""
    report = build_report(recorder, extra=extra)
    target = pathlib.Path(path)
    atomic_write_text(target, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
