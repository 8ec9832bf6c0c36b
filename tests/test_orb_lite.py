"""ORB-lite's batched RANSAC and its frame-to-frame feature hand-off.

1. **Batched RANSAC == the per-hypothesis loop.**  ``_ransac_inliers``
   scores every hypothesis in one batched pass; the loop it replaced is
   kept here as the oracle.  Over random and degenerate point sets both
   give the same inlier mask, pose bits and inlier count and leave the
   RANSAC generator in the same state, and a hypothesis whose SVD fails
   is skipped by both.  The per-row descriptor matcher is kept as the
   oracle of the array one, and :func:`oracle_poses` composes both
   oracles into the whole odometry, each frame pair from scratch
   (``benchmarks/bench_speed_hotpaths.py`` checks ``orb.64x48.feed``
   against it before timing).
2. **The feature hand-off cannot leak.**  ``feed`` reuses the previous
   frame's features; a ``restore``, a ``retry_frame`` rollback or a
   park/resume must leave every later feed bit-identical to an
   uninterrupted one, and the handed-off features never reach the
   checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.service import RunKey, SlamService
from repro.gaussians.camera import Pose, rotmat_to_quat
from repro.serve import SessionRegistry
from repro.slam import OrbLiteConfig, OrbLiteSlam
from repro.slam.orb import (
    _backproject_corners,
    _ransac_inliers,
    _ransac_rigid,
    frame_features,
    match_descriptors,
)
from repro.slam.session import CHECKPOINT_ARRAYS, save_session_state

CONFIG = OrbLiteConfig()
NUM_FRAMES = 8


# ---------------------------------------------------------------------------
# The oracle: RANSAC as one Horn alignment per hypothesis
# ---------------------------------------------------------------------------
def _loop_horn(points_a: np.ndarray, points_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu_a = points_a.mean(axis=0)
    mu_b = points_b.mean(axis=0)
    covariance = (points_b - mu_b).T @ (points_a - mu_a)
    u, _, vt = np.linalg.svd(covariance)
    sign_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign_fix[2, 2] = -1.0
    rotation = u @ sign_fix @ vt
    return rotation, mu_b - rotation @ mu_a


def _loop_ransac(points_prev, points_cur, config, rng) -> tuple[np.ndarray | None, int]:
    """The best inlier mask (None if every hypothesis failed) and the failure count."""
    best_inliers, failures = None, 0
    for _ in range(config.ransac_iterations):
        sample = rng.choice(len(points_prev), size=3, replace=False)
        try:
            rotation, translation = _loop_horn(points_prev[sample], points_cur[sample])
        except np.linalg.LinAlgError:
            failures += 1
            continue
        predicted = points_prev @ rotation.T + translation
        inliers = np.linalg.norm(predicted - points_cur, axis=1) < config.ransac_threshold
        if best_inliers is None or inliers.sum() > best_inliers.sum():
            best_inliers = inliers
    return best_inliers, failures


def _loop_rigid(points_prev, points_cur, config, rng) -> tuple[Pose | None, int]:
    best_inliers, _ = _loop_ransac(points_prev, points_cur, config, rng)
    if best_inliers is None or best_inliers.sum() < config.min_matches:
        return None, 0
    rotation, translation = _loop_horn(points_prev[best_inliers], points_cur[best_inliers])
    return Pose(quat=rotmat_to_quat(rotation), trans=translation), int(best_inliers.sum())


def _loop_match(desc_a: np.ndarray, desc_b: np.ndarray, ratio: float) -> np.ndarray:
    if len(desc_a) == 0 or len(desc_b) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    distances = 2.0 - 2.0 * (desc_a @ desc_b.T)
    matches = []
    for index_a, index_b in enumerate(distances.argmin(axis=1)):
        sorted_row = np.sort(distances[index_a])
        if len(sorted_row) > 1 and sorted_row[0] > ratio * sorted_row[1]:
            continue
        if distances[:, index_b].argmin() != index_a:
            continue
        matches.append((index_a, index_b))
    return np.asarray(matches, dtype=np.int64).reshape(-1, 2)


def oracle_poses(frames, intrinsics, config=CONFIG) -> list[bytes]:
    """ORB-lite's pose bits per frame, every pair recomputed with the oracles.

    Both frames' features are detected afresh for every pair, matched by
    the per-row matcher and fitted by the per-hypothesis RANSAC; a frame
    without a fit keeps the previous relative motion, as ``feed`` does.
    """
    rng = np.random.default_rng(config.seed)
    poses = [frames[0].gt_pose.copy()]
    relative = Pose.identity()
    for prev, cur in zip(frames, frames[1:]):
        prev_features = frame_features(prev.gray, config)
        cur_features = frame_features(cur.gray, config)
        matches = _loop_match(
            prev_features.descriptors, cur_features.descriptors, config.match_ratio
        )
        fitted = None
        if len(matches) >= config.min_matches:
            points_prev, valid_prev = _backproject_corners(
                prev_features.corners[matches[:, 0]], prev.depth, intrinsics
            )
            points_cur, valid_cur = _backproject_corners(
                cur_features.corners[matches[:, 1]], cur.depth, intrinsics
            )
            valid = valid_prev & valid_cur
            if valid.sum() >= config.min_matches:
                fitted, _ = _loop_rigid(points_prev[valid], points_cur[valid], config, rng)
        relative = fitted or relative
        poses.append(relative.compose(poses[-1]))
    return [pose.as_vector().tobytes() for pose in poses]


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------
KINDS = ("rigid", "collinear", "duplicates", "few-inliers", "non-finite", "all-non-finite")


def _point_set(kind: str, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Matched 3-D points (previous, current) of one kind."""
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        points = rng.normal(size=3) + rng.uniform(-1, 1, size=(count, 1)) * rng.normal(size=3)
    elif kind == "duplicates":
        points = rng.uniform(-1, 1, size=(3, 3))[rng.integers(0, 3, size=count)]
    else:
        points = rng.uniform(-1, 1, size=(count, 3)) + [0.0, 0.0, 2.0]
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = points @ rotation.T + rng.normal(scale=0.1, size=3)
    moved += rng.normal(scale=0.01, size=moved.shape)
    if kind == "few-inliers":
        moved = rng.uniform(-1, 1, size=(count, 3))
    else:
        outliers = rng.random(count) < 0.3
        moved[outliers] += rng.normal(scale=0.5, size=(int(outliers.sum()), 3))
    if kind == "non-finite":
        bad = rng.choice(count, size=max(1, count // 4), replace=False)
        points[bad[::2]] = np.nan
        moved[bad[1::2]] = np.inf
    elif kind == "all-non-finite":
        points[:] = np.nan
    return points, moved


def _assert_same_pose(a: tuple[Pose | None, int], b: tuple[Pose | None, int]) -> None:
    (pose_a, count_a), (pose_b, count_b) = a, b
    assert count_a == count_b
    assert (pose_a is None) == (pose_b is None)
    if pose_a is not None:
        assert pose_a.quat.tobytes() == pose_b.quat.tobytes()
        assert pose_a.trans.tobytes() == pose_b.trans.tobytes()


def _assert_matches_oracle(points_prev, points_cur, seed: int, config=CONFIG) -> int:
    """Batched vs loop on one point set; returns the oracle's SVD failures."""
    with np.errstate(invalid="ignore", over="ignore"):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mask = _ransac_inliers(points_prev, points_cur, config, rng)
        oracle_mask, failures = _loop_ransac(points_prev, points_cur, config, oracle_rng)
        assert (mask is None) == (oracle_mask is None)
        if mask is not None:
            assert np.array_equal(mask, oracle_mask)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _assert_same_pose(
            _ransac_rigid(points_prev, points_cur, config, rng),
            _loop_rigid(points_prev, points_cur, config, oracle_rng),
        )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return failures


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    count=st.integers(CONFIG.min_matches, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_ransac_matches_the_per_hypothesis_loop(kind, count, seed):
    _assert_matches_oracle(*_point_set(kind, count, seed), seed=seed)


def test_ransac_skips_a_hypothesis_whose_svd_fails():
    points_prev, points_cur = _point_set("non-finite", 12, seed=5)
    failures = _assert_matches_oracle(points_prev, points_cur, seed=5)
    assert 0 < failures < CONFIG.ransac_iterations  # some, not all, hypotheses failed
    with np.errstate(invalid="ignore"):
        mask = _ransac_inliers(points_prev, points_cur, CONFIG, np.random.default_rng(5))
    assert mask is not None
    # Every hypothesis failing, or none drawn, leaves no winner, as in the loop.
    points_prev, points_cur = _point_set("all-non-finite", 12, seed=5)
    assert _assert_matches_oracle(points_prev, points_cur, seed=5) == CONFIG.ransac_iterations
    with np.errstate(invalid="ignore"):
        assert _ransac_inliers(points_prev, points_cur, CONFIG, np.random.default_rng(5)) is None
    no_draws = OrbLiteConfig(ransac_iterations=0)
    _assert_matches_oracle(*_point_set("rigid", 12, seed=5), seed=5, config=no_draws)


def test_a_failed_hypothesis_never_wins_a_tie():
    # Two equal groups, one still and one translated, plus non-finite
    # points: a failed hypothesis scored as, say, the identity would tie
    # the still group's hypotheses and could win before them.
    points_prev, _ = _point_set("rigid", 24, seed=3)
    points_cur = points_prev.copy()
    points_cur[9:18] += [0.0, 0.5, 0.0]
    points_prev[18:] = np.nan
    for seed in range(10):
        _assert_matches_oracle(points_prev, points_cur, seed=seed)


def test_ransac_ties_go_to_the_first_hypothesis():
    # Two equal groups under two exact translations: a hypothesis drawn
    # within either group finds exactly its group, so the winner's mask
    # shows which of the tied hypotheses won.
    points_prev, _ = _point_set("rigid", 20, seed=9)
    points_cur = points_prev + [0.01, 0.0, 0.0]
    points_cur[10:] += [0.0, 0.5, 0.0]
    for seed in range(5):
        _assert_matches_oracle(points_prev, points_cur, seed=seed)
        mask = _ransac_inliers(points_prev, points_cur, CONFIG, np.random.default_rng(seed))
        assert mask.sum() == 10


@settings(max_examples=40, deadline=None)
@given(
    rows=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    repeats=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_matcher_matches_the_per_row_loop(rows, repeats, seed):
    rng = np.random.default_rng(seed)
    desc_a, desc_b = (rng.normal(size=(count, 25)) for count in rows)
    desc_a /= np.maximum(np.linalg.norm(desc_a, axis=1, keepdims=True), 1e-12)
    desc_b /= np.maximum(np.linalg.norm(desc_b, axis=1, keepdims=True), 1e-12)
    if len(desc_a) and len(desc_b):
        # Repeated rows tie distances, in rows and in columns.
        desc_b[rng.integers(0, len(desc_b), size=repeats)] = desc_a[0]
        desc_a[rng.integers(0, len(desc_a), size=repeats)] = desc_a[0]
    for ratio in (0.85, 1.0):
        matches = match_descriptors(desc_a, desc_b, ratio)
        expected = _loop_match(desc_a, desc_b, ratio)
        assert matches.dtype == expected.dtype and np.array_equal(matches, expected)


# ---------------------------------------------------------------------------
# The feature hand-off
# ---------------------------------------------------------------------------
def _pose_bits(result) -> list[bytes]:
    return [frame.estimated_pose.as_vector().tobytes() for frame in result.frames]


@pytest.fixture(scope="module")
def reference(tiny_sequence):
    """An uninterrupted ORB-lite feed of the tiny sequence."""
    session = OrbLiteSlam(tiny_sequence.intrinsics)
    return _pose_bits(session.run(tiny_sequence, num_frames=NUM_FRAMES))


def test_feed_matches_the_oracle_pipeline(tiny_sequence, reference):
    frames = [tiny_sequence[index] for index in range(NUM_FRAMES)]
    assert oracle_poses(frames, tiny_sequence.intrinsics) == reference


def _feed(session, sequence, indices) -> None:
    for index in indices:
        session.feed(sequence[index], index)


def test_restoring_an_earlier_state_drops_the_handed_off_features(tiny_sequence, reference):
    session = OrbLiteSlam(tiny_sequence.intrinsics)
    session.begin(tiny_sequence.name)
    _feed(session, tiny_sequence, range(3))
    earlier = session.state()
    _feed(session, tiny_sequence, range(3, 6))
    session.restore(earlier)  # the live session holds frame 5's features
    _feed(session, tiny_sequence, range(3, NUM_FRAMES))
    assert _pose_bits(session.finalize()) == reference


def test_retry_rollback_drops_the_handed_off_features():
    # map-crash faults ``_map`` after ``_track`` handed the frame's features
    # on; the rollback must not let them stand in for the previous frame's.
    key = dict(algorithm="orb", sequence="desk", num_frames=12)
    service = SlamService()
    clean = service.run(RunKey(**key))
    faulted = service.run(RunKey(**key, faults="map-crash"))
    assert service.retries > 0
    assert _pose_bits(faulted) == _pose_bits(clean)


def test_park_resume_every_frame_matches_an_uninterrupted_feed(tmp_path, tiny_sequence, reference):
    # One live slot and two sessions: every open parks the other one.
    registry = SessionRegistry(max_live=1, park_root=tmp_path / "lot")
    factory = lambda: OrbLiteSlam(tiny_sequence.intrinsics)  # noqa: E731
    resumes = 0
    for index in range(NUM_FRAMES):
        for name in ("a", "b"):
            opened = registry.open(name, factory, sequence_name=tiny_sequence.name)
            resumes += opened.resumed
            opened.session.feed(tiny_sequence[index], index)
    assert resumes >= 2 * (NUM_FRAMES - 1)
    assert _pose_bits(registry.result("a")) == _pose_bits(registry.result("b")) == reference
    registry.shutdown()


def test_checkpoint_carries_no_features(tmp_path, tiny_sequence):
    session = OrbLiteSlam(tiny_sequence.intrinsics)
    session.begin(tiny_sequence.name)
    _feed(session, tiny_sequence, range(5))
    assert session._prev_features is not None
    state = session.state()
    assert sorted(state.payload) == ["prev_depth", "prev_gray", "prev_pose", "prev_relative", "rng"]
    # A session restored from that state holds no features, yet writes the
    # same checkpoint bytes.
    restored = OrbLiteSlam(tiny_sequence.intrinsics)
    restored.restore(state)
    assert restored._prev_features is None
    written = [
        (save_session_state(s.state(), tmp_path / name) / CHECKPOINT_ARRAYS).read_bytes()
        for name, s in (("live", session), ("restored", restored))
    ]
    assert written[0] == written[1]
