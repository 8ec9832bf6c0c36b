"""The one harness of the timing benchmarks: timing, printout, gate, write.

``bench_speed_hotpaths.py``, ``bench_speed_backward.py`` and
``bench_speed_sparse.py`` each declare only their cases, their
verification and their ``GATED_KEYS``, then hand a ``measure(repeats)``
callable to :func:`main`.  ``measure`` returns the bench's ``config``,
``timings_seconds``, ``speedups`` and ``targets_met`` (plus any extra
sections, such as sparse's ``reduction``); this module adds the envelope
(``benchmark``, ``generated``, ``repeats``, ``cpu_count``), prints it,
guards the gated timings against the committed ``BENCH_<name>.json``
and writes the new file atomically.

Every bench shares one CLI::

    PYTHONPATH=src python benchmarks/bench_speed_<name>.py           # write
    PYTHONPATH=src python benchmarks/bench_speed_<name>.py --gate    # guard

``--gate`` refuses to overwrite an existing ``--output`` file when a
gated timing regressed by more than ``--max-regression`` (default 20 %)
or is missing from the new run, exiting 1 — run it from
``scripts/bench_speed.sh``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ioutil import atomic_write_text  # noqa: E402

__all__ = ["REPO_ROOT", "best_of", "best_of_each", "check_gate", "gate_table", "main"]


def best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()`` (after warmup)."""
    return best_of_each({"fn": fn}, repeats)["fn"]


def best_of_each(fns: dict, repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` seconds per entry, repeats interleaved.

    Alternating the entries inside one repeat loop keeps ratios between
    them honest under machine phase drift.
    """
    for fn in fns.values():  # warmup
        fn()
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def check_gate(previous: dict, current: dict, max_regression: float, gated_keys) -> list[str]:
    """Return gate failures (empty = pass).

    A gated key fails when its timing regressed by more than
    ``max_regression`` or when the current run no longer produces it (a
    renamed or dropped case must not silently stop being gated).  A key
    only the current run has is new and passes.
    """
    failures = []
    old = previous.get("timings_seconds", {})
    new = current["timings_seconds"]
    for key in gated_keys:
        if key not in new:
            failures.append(f"{key}: gated timing missing from this run")
            continue
        if key not in old:
            continue
        limit = old[key] * (1.0 + max_regression)
        if new[key] > limit:
            failures.append(
                f"{key}: {new[key]:.4f}s vs previous {old[key]:.4f}s "
                f"(+{100.0 * (new[key] / old[key] - 1.0):.1f}% > {100.0 * max_regression:.0f}%)"
            )
    return failures


def gate_table(previous: dict, current: dict, gated_keys) -> str:
    """Format the gated timings, previous vs new, as a comparison table."""
    old = previous.get("timings_seconds", {})
    new = current["timings_seconds"]
    lines = [f"  {'gated timing':<38}{'previous':>12}{'new':>12}{'delta':>9}"]
    for key in gated_keys:
        before = f"{old[key] * 1e3:>10.2f}ms" if key in old else f"{'-':>12}"
        if key not in new:
            lines.append(f"  {key:<38}{before}{'-':>12}{'missing':>9}")
        elif key in old:
            delta = 100.0 * (new[key] / old[key] - 1.0)
            lines.append(f"  {key:<38}{before}{new[key] * 1e3:>10.2f}ms{delta:>+8.1f}%")
        else:
            lines.append(f"  {key:<38}{before}{new[key] * 1e3:>10.2f}ms{'new':>9}")
    return "\n".join(lines)


_ENVELOPE_KEYS = ("benchmark", "generated", "config", "timings_seconds", "speedups", "targets_met")


def _envelope(name: str, repeats: int, measured: dict) -> dict:
    measured = dict(measured)
    config = dict(measured.pop("config"), repeats=repeats, cpu_count=os.cpu_count())
    timings = measured.pop("timings_seconds")
    speedups = measured.pop("speedups")
    targets = measured.pop("targets_met")
    return {
        "benchmark": name,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config,
        "timings_seconds": {key: timings[key] for key in sorted(timings)},
        "speedups": {key: round(value, 2) for key, value in sorted(speedups.items())},
        **measured,
        "targets_met": targets,
    }


def _print_results(results: dict, repeats: int) -> None:
    print(f"{results['benchmark']} benchmark ({repeats} repeats, best-of):")
    for key, value in results["timings_seconds"].items():
        print(f"  {key:<38}{value * 1e3:>10.2f} ms")
    print("speedups:")
    for key, value in results["speedups"].items():
        print(f"  {key:<38}{value:>9.2f}x")
    for section in (key for key in results if key not in _ENVELOPE_KEYS):
        print(f"{section}:")
        for label, row in results[section].items():
            print(f"  {label}: " + "  ".join(f"{k}={v}" for k, v in row.items()))
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")


def main(name: str, measure, gated_keys, description: str | None = None, argv=None) -> int:
    """Run one timing bench end to end: measure, print, gate, write.

    ``measure(repeats)`` returns a dict with ``config``,
    ``timings_seconds`` (seconds per case), ``speedups`` and
    ``targets_met``; any further keys are written as extra sections.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--output", type=pathlib.Path, default=REPO_ROOT / f"BENCH_{name}.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (and keep the old file) on a gated regression or a missing gated key",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional slowdown per gated timing (default 0.20)",
    )
    args = parser.parse_args(argv)

    results = _envelope(name, args.repeats, measure(args.repeats))
    _print_results(results, args.repeats)

    if args.gate and args.output.exists():
        previous = json.loads(args.output.read_text())
        failures = check_gate(previous, results, args.max_regression, gated_keys)
        print(f"\ngated timings vs previous {args.output.name}:")
        print(gate_table(previous, results, gated_keys))
        if failures:
            print(f"\nPERF GATE FAILED — keeping previous {args.output.name}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("perf gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0
