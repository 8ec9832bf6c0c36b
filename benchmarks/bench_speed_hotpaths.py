"""Hot-path micro-benchmarks: motion estimation, rasterization, serving bytes.

Times the hottest paths of the reproduction —

* CODEC motion estimation: full search at three frame sizes and diamond
  search at the largest, for both the ``reference`` (scalar loop) and
  ``vectorized`` (batched) backends;
* 3DGS rasterization: three model sizes through the per-tile ``reference``
  backend, the bucketed statistics-recording path (``full``) and the
  stats-free fast path (``fast64``);
* the serving tier's bytes layers: the frame wire codec on one 64x48
  ``desk`` frame (``wire.64x48.encode`` / ``.decode``) and the v3 disk
  checkpoint of ORB-lite and AGS sessions after 30 frames
  (``ckpt.{orb,ags}.f30.save`` / ``.load``), each round trip checked
  bit for bit before it is timed;
* ORB-lite odometry: 30 ``desk`` frames fed through one session
  (``orb.64x48.feed``), its poses first checked bit for bit against
  ``tests/test_orb_lite.py``'s oracle, which recomputes every frame pair
  with the per-row matcher and the per-hypothesis RANSAC;
* one SLAM optimizer iteration at SLAM resolution, on the map a SplaTAM
  session builds from 10 ``desk`` frames: a tracking iteration (render +
  ``pose_backward``, ``slam.64x48.track_iteration``) and a mapping
  iteration (render + ``render_backward``, ``slam.64x48.map_iteration``),
  each first checked against ``backend="reference"`` —

and writes the results (with backend/fast-path speedups) to the
``BENCH_hotpaths.json`` perf-trajectory file at the repo root through the
shared ``perf_gate`` harness (CLI, gate and file format are documented
there)::

    PYTHONPATH=src python benchmarks/bench_speed_hotpaths.py --gate
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import tempfile

import numpy as np

from perf_gate import REPO_ROOT, best_of, main  # also puts src/ on sys.path

from repro.codec import motion_estimate
from repro.datasets import load_sequence
from repro.eval.service import build_session
from repro.gaussians import (
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    pose_backward,
    render,
    render_backward,
)
from repro.serve.api import decode_frame, encode_frame
from repro.slam.session import load_session_state, save_session_state

sys.path.insert(0, str(REPO_ROOT / "tests"))
from test_orb_lite import oracle_poses  # noqa: E402

MOTION_FRAME_SIZES = [(120, 160), (240, 320), (480, 640)]
MOTION_SEARCH_RANGE = 4
RENDER_MODEL_SIZES = [50, 200, 800]
RENDER_IMAGE = (120, 160)  # (height, width)
CKPT_SYSTEMS = ("orb", "ags")
CKPT_FRAMES = 30
ORB_FRAMES = 30
SLAM_MAP_FRAMES = 10

# Timings gated by --gate: the vectorized/fast hot paths (the quantities
# this repo promises to keep fast).  Reference timings are informational.
GATED_KEYS = [
    "motion.full.480x640.vectorized",
    "motion.diamond.480x640.vectorized",
    "render.n50.fast64",
    "render.n200.fast64",
    "render.n200.full",
    "wire.64x48.encode",
    "wire.64x48.decode",
    "ckpt.orb.f30.save",
    "ckpt.orb.f30.load",
    "ckpt.ags.f30.save",
    "ckpt.ags.f30.load",
    "orb.64x48.feed",
    "slam.64x48.track_iteration",
    "slam.64x48.map_iteration",
]


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
            timings[f"motion.full.{label}.{backend}"] = best_of(
                lambda b=backend: motion_estimate(
                    current, previous, search_range=MOTION_SEARCH_RANGE, method="full", backend=b
                ),
                reps,
            )
    height, width = MOTION_FRAME_SIZES[-1]
    current, previous = _motion_frames(height, width)
    for backend in ("reference", "vectorized"):
        timings[f"motion.diamond.{height}x{width}.{backend}"] = best_of(
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
        timings[f"render.n{count}.reference"] = best_of(
            lambda: render(model, camera, backend="reference"), repeats
        )
        timings[f"render.n{count}.full"] = best_of(lambda: render(model, camera), repeats)
        timings[f"render.n{count}.fast64"] = best_of(
            lambda: render(model, camera, record_workloads=False, record_contributions=False),
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
        f"wire.{label}.encode": best_of(lambda: encode_frame(frame), repeats),
        f"wire.{label}.decode": best_of(lambda: decode_frame(body), repeats),
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
            timings[f"{key}.save"] = best_of(lambda: save_session_state(state, directory), repeats)
            timings[f"{key}.load"] = best_of(lambda: load_session_state(directory), repeats)
    return timings


def bench_orb_feed(repeats: int) -> dict[str, float]:
    sequence = load_sequence("desk", num_frames=ORB_FRAMES)
    frames = [sequence[index] for index in range(ORB_FRAMES)]

    def feed():
        session = build_session("orb", sequence.intrinsics)
        session.begin(sequence.name)
        for index, frame in enumerate(frames):
            session.feed(frame, index)
        return session.finalize()

    poses = [frame.estimated_pose.as_vector().tobytes() for frame in feed().frames]
    if poses != oracle_poses(frames, sequence.intrinsics):
        raise AssertionError("ORB-lite feed differs from the per-hypothesis oracle")
    label = f"{sequence.intrinsics.width}x{sequence.intrinsics.height}"
    return {f"orb.{label}.feed": best_of(feed, repeats)}


def bench_slam_iterations(repeats: int) -> dict[str, float]:
    """One tracking and one mapping iteration, rendered the way the SLAM loop does."""
    sequence = load_sequence("desk", num_frames=SLAM_MAP_FRAMES + 1)
    session = build_session("splatam", sequence.intrinsics)
    session.begin(sequence.name)
    for index in range(SLAM_MAP_FRAMES):
        session.feed(sequence[index], index)
    model = session.model
    frame = sequence[SLAM_MAP_FRAMES]
    camera = Camera(sequence.intrinsics, frame.gt_pose)
    rng = np.random.default_rng(0)
    grad_color = rng.normal(size=frame.color.shape)
    grad_depth = rng.normal(size=frame.depth.shape)
    cache = ForwardCache()

    def forward(backend="bucketed"):
        return render(
            model, camera, record_workloads=False, record_contributions=False,
            backend=backend, cache=cache if backend == "bucketed" else None,
        )

    def track(backend="bucketed"):
        return pose_backward(model, camera, forward(backend), grad_color, grad_depth, backend=backend)

    def map_iteration(backend="bucketed"):
        return render_backward(
            model, camera, forward(backend), grad_color, grad_depth, backend=backend
        )[0]

    result, reference = forward(), forward("reference")
    for name in ("color", "depth", "silhouette"):
        if not np.allclose(getattr(result, name), getattr(reference, name), rtol=0, atol=1e-9):
            raise AssertionError(f"bucketed != reference on {name}")
    if not np.allclose(track().vector, track("reference").vector, rtol=1e-9, atol=1e-12):
        raise AssertionError("bucketed != reference on the pose gradient")
    reference_grads = map_iteration("reference").as_dict()
    for name, value in map_iteration().as_dict().items():
        if not np.allclose(value, reference_grads[name], rtol=1e-9, atol=1e-9):
            raise AssertionError(f"bucketed != reference on gradient {name}")
    label = f"{sequence.intrinsics.width}x{sequence.intrinsics.height}"
    return {
        f"slam.{label}.track_iteration": best_of(track, repeats),
        f"slam.{label}.map_iteration": best_of(map_iteration, repeats),
    }


def measure(repeats: int) -> dict:
    timings = {}
    timings.update(bench_motion(repeats))
    timings.update(bench_render(repeats))
    timings.update(bench_serving_bytes(repeats))
    timings.update(bench_orb_feed(repeats))
    timings.update(bench_slam_iterations(repeats))

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
        # statistics-recording path.
        reference = timings[f"render.n{count}.reference"]
        speedups[f"render.n{count}.full"] = reference / timings[f"render.n{count}.full"]
        speedups[f"render.n{count}.fast64"] = reference / timings[f"render.n{count}.fast64"]

    targets = {
        # Tentpole targets: >=20x on full-search ME at 480x640/R=4, >=2x on
        # the 50-Gaussian benchmark render.
        "motion.full.480x640 >= 20x": speedups["motion.full.480x640"] >= 20.0,
        "render.n50 >= 2x": speedups["render.n50.fast64"] >= 2.0,
    }
    return {
        "config": {
            "motion_frame_sizes": [list(size) for size in MOTION_FRAME_SIZES],
            "motion_search_range": MOTION_SEARCH_RANGE,
            "render_model_sizes": RENDER_MODEL_SIZES,
            "render_image": list(RENDER_IMAGE),
            "checkpoint_systems": list(CKPT_SYSTEMS),
            "checkpoint_frames": CKPT_FRAMES,
            "orb_frames": ORB_FRAMES,
            "slam_map_frames": SLAM_MAP_FRAMES,
        },
        "timings_seconds": timings,
        "speedups": speedups,
        "targets_met": targets,
    }


if __name__ == "__main__":
    raise SystemExit(main("hotpaths", measure, GATED_KEYS, description=__doc__))
