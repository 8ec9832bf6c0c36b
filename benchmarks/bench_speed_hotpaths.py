"""Hot-path micro-benchmarks: motion estimation, rasterization, serving bytes.

Times the hottest paths of the reproduction —

* CODEC motion estimation: full search at three frame sizes and diamond
  search at the largest, for both the ``reference`` (scalar loop) and
  ``vectorized`` (batched) backends;
* 3DGS rasterization: three model sizes through the per-tile ``reference``
  backend, the bucketed statistics-recording path (``full``), the
  stats-free fast path (float64) and the float32 fast path;
* the serving tier's bytes layers: the frame wire codec on one 64x48
  ``desk`` frame (``wire.64x48.encode`` / ``.decode``) and the v3 disk
  checkpoint of ORB-lite and AGS sessions after 30 frames
  (``ckpt.{orb,ags}.f30.save`` / ``.load``), each round trip checked
  bit for bit before it is timed —

and writes the results (with backend/fast-path speedups) to the
``BENCH_hotpaths.json`` perf-trajectory file at the repo root, so every
future PR is accountable to the measured trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed_hotpaths.py           # write
    PYTHONPATH=src python benchmarks/bench_speed_hotpaths.py --gate    # guard

``--gate`` refuses to overwrite an existing ``BENCH_hotpaths.json`` when
any gated hot-path timing regressed by more than ``--max-regression``
(default 20 %), exiting non-zero — run it from ``scripts/bench_speed.sh``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf_gate import check_gate, gate_table  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402

from repro.codec import motion_estimate  # noqa: E402
from repro.datasets import load_sequence  # noqa: E402
from repro.eval.service import build_session  # noqa: E402
from repro.gaussians import Camera, GaussianModel, Intrinsics, Pose, render  # noqa: E402
from repro.serve.api import decode_frame, encode_frame  # noqa: E402
from repro.slam.session import load_session_state, save_session_state  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpaths.json"

MOTION_FRAME_SIZES = [(120, 160), (240, 320), (480, 640)]
MOTION_SEARCH_RANGE = 4
RENDER_MODEL_SIZES = [50, 200, 800]
RENDER_IMAGE = (120, 160)  # (height, width)
CKPT_SYSTEMS = ("orb", "ags")
CKPT_FRAMES = 30

# Timings gated by --gate: the vectorized/fast hot paths (the quantities
# this repo promises to keep fast).  Reference timings are informational.
GATED_KEYS = [
    "motion.full.480x640.vectorized",
    "motion.diamond.480x640.vectorized",
    "render.n50.fast64",
    "render.n200.fast64",
    "render.n200.full",
    "render.n800.fast32",
    "wire.64x48.encode",
    "wire.64x48.decode",
    "ckpt.orb.f30.save",
    "ckpt.orb.f30.load",
    "ckpt.ags.f30.save",
    "ckpt.ags.f30.load",
]


def _best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()`` (after warmup)."""
    fn()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def _motion_frames(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    base = rng.uniform(size=(height, width))
    current = 0.5 * base + 0.5 * np.roll(base, 1, axis=1)
    previous = np.roll(current, 2, axis=1)
    return current, previous


def bench_motion(repeats: int) -> dict[str, float]:
    timings: dict[str, float] = {}
    for height, width in MOTION_FRAME_SIZES:
        current, previous = _motion_frames(height, width)
        label = f"{height}x{width}"
        for backend in ("reference", "vectorized"):
            reps = 1 if backend == "reference" else repeats
            timings[f"motion.full.{label}.{backend}"] = _best_of(
                lambda b=backend: motion_estimate(
                    current, previous, search_range=MOTION_SEARCH_RANGE, method="full", backend=b
                ),
                reps,
            )
    height, width = MOTION_FRAME_SIZES[-1]
    current, previous = _motion_frames(height, width)
    for backend in ("reference", "vectorized"):
        timings[f"motion.diamond.{height}x{width}.{backend}"] = _best_of(
            lambda b=backend: motion_estimate(
                current, previous, search_range=MOTION_SEARCH_RANGE, method="diamond", backend=b
            ),
            1 if backend == "reference" else repeats,
        )
    return timings


def bench_render(repeats: int) -> dict[str, float]:
    height, width = RENDER_IMAGE
    camera = Camera(Intrinsics.from_fov(width, height, 60.0), Pose.identity())
    timings: dict[str, float] = {}
    for count in RENDER_MODEL_SIZES:
        model = GaussianModel.random(count, extent=1.0, seed=3)
        model.means[:, 2] += 3.0
        timings[f"render.n{count}.reference"] = _best_of(
            lambda: render(model, camera, backend="reference"), repeats
        )
        timings[f"render.n{count}.full"] = _best_of(lambda: render(model, camera), repeats)
        timings[f"render.n{count}.fast64"] = _best_of(
            lambda: render(model, camera, record_workloads=False, record_contributions=False),
            repeats,
        )
        timings[f"render.n{count}.fast32"] = _best_of(
            lambda: render(
                model,
                camera,
                record_workloads=False,
                record_contributions=False,
                dtype=np.float32,
            ),
            repeats,
        )
    return timings


def _same(a, b) -> bool:
    """Bit-exact equality of nested checkpoint values (arrays by bytes)."""
    if isinstance(a, Pose):
        return isinstance(b, Pose) and _same(a.as_vector(), b.as_vector())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(dataclasses.asdict(a), dataclasses.asdict(b))
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.generic):
        a = a.item()  # the disk format stores numpy scalars as Python ones
    if isinstance(a, float):
        return type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def bench_serving_bytes(repeats: int) -> dict[str, float]:
    sequence = load_sequence("desk", num_frames=CKPT_FRAMES)
    frame = sequence[0]
    body = encode_frame(frame)
    decoded = decode_frame(body)
    if not all(
        _same(getattr(decoded, name), getattr(frame, name))
        for name in ("index", "color", "depth", "gt_pose", "timestamp")
    ):
        raise AssertionError("wire codec round trip is not bit-exact")
    label = f"{frame.color.shape[1]}x{frame.color.shape[0]}"
    timings = {
        f"wire.{label}.encode": _best_of(lambda: encode_frame(frame), repeats),
        f"wire.{label}.decode": _best_of(lambda: decode_frame(body), repeats),
    }
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as root:
        for algorithm in CKPT_SYSTEMS:
            session = build_session(algorithm, sequence.intrinsics)
            session.begin(sequence.name)
            for index in range(CKPT_FRAMES):
                session.feed(sequence[index])
            state = session.state()
            directory = pathlib.Path(root) / algorithm
            save_session_state(state, directory)
            if not _same(load_session_state(directory), state):
                raise AssertionError(f"{algorithm} checkpoint round trip is not bit-exact")
            key = f"ckpt.{algorithm}.f{CKPT_FRAMES}"
            timings[f"{key}.save"] = _best_of(lambda: save_session_state(state, directory), repeats)
            timings[f"{key}.load"] = _best_of(lambda: load_session_state(directory), repeats)
    return timings


def build_results(repeats: int) -> dict:
    timings = {}
    timings.update(bench_motion(repeats))
    timings.update(bench_render(repeats))
    timings.update(bench_serving_bytes(repeats))

    speedups = {}
    for height, width in MOTION_FRAME_SIZES:
        label = f"{height}x{width}"
        speedups[f"motion.full.{label}"] = (
            timings[f"motion.full.{label}.reference"] / timings[f"motion.full.{label}.vectorized"]
        )
    tall = f"{MOTION_FRAME_SIZES[-1][0]}x{MOTION_FRAME_SIZES[-1][1]}"
    speedups[f"motion.diamond.{tall}"] = (
        timings[f"motion.diamond.{tall}.reference"] / timings[f"motion.diamond.{tall}.vectorized"]
    )
    for count in RENDER_MODEL_SIZES:
        # All render speedups are measured against the per-tile reference
        # backend (the executable spec); "full" is the bucketed
        # statistics-recording path introduced in PR 2.
        reference = timings[f"render.n{count}.reference"]
        speedups[f"render.n{count}.full"] = reference / timings[f"render.n{count}.full"]
        speedups[f"render.n{count}.fast64"] = reference / timings[f"render.n{count}.fast64"]
        speedups[f"render.n{count}.fast32"] = reference / timings[f"render.n{count}.fast32"]

    targets = {
        # Tentpole targets: >=20x on full-search ME at 480x640/R=4, >=2x on
        # the 50-Gaussian benchmark render.
        "motion.full.480x640 >= 20x": speedups["motion.full.480x640"] >= 20.0,
        "render.n50 >= 2x": max(
            speedups["render.n50.fast64"], speedups["render.n50.fast32"]
        )
        >= 2.0,
    }
    return {
        "benchmark": "hotpaths",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "motion_frame_sizes": [list(size) for size in MOTION_FRAME_SIZES],
            "motion_search_range": MOTION_SEARCH_RANGE,
            "render_model_sizes": RENDER_MODEL_SIZES,
            "render_image": list(RENDER_IMAGE),
            "checkpoint_systems": list(CKPT_SYSTEMS),
            "checkpoint_frames": CKPT_FRAMES,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
        },
        "timings_seconds": {key: timings[key] for key in sorted(timings)},
        "speedups": {key: round(value, 2) for key, value in sorted(speedups.items())},
        "targets_met": targets,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (and keep the old file) on a hot-path regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional slowdown per gated timing (default 0.20)",
    )
    args = parser.parse_args(argv)

    results = build_results(args.repeats)
    print(f"hot-path benchmark ({args.repeats} repeats, best-of):")
    for key, value in results["timings_seconds"].items():
        print(f"  {key:<38}{value * 1e3:>10.2f} ms")
    print("speedups:")
    for key, value in results["speedups"].items():
        print(f"  {key:<38}{value:>9.1f}x")
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")

    if args.gate and args.output.exists():
        previous = json.loads(args.output.read_text())
        failures = check_gate(previous, results, args.max_regression, GATED_KEYS)
        print("\ngated timings vs previous BENCH_hotpaths.json:")
        print(gate_table(previous, results, GATED_KEYS))
        if failures:
            print("\nPERF GATE FAILED — keeping previous BENCH_hotpaths.json:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("perf gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
