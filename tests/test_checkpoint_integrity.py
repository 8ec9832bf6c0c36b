"""Checkpoint integrity: atomic writes, checksums, corruption detection.

Session parking (``ParkingLot``) leans entirely on two properties of
the disk checkpoint format (v3: a raw ``state.bin`` blob plus a
``manifest.json`` laying it out):

1. **Writes are atomic** — an interrupted ``save_session_state`` (or any
   ``atomic_write_*`` user) leaves either the previous complete file or
   the new complete file, never a torn one.
2. **Corruption is detected before restore** — a truncated blob, a
   blob with trailing bytes, a bit-flipped array, an array table whose
   offsets overlap or leave gaps, a missing or unreadable manifest, and
   a format version mismatch (a v2 npz checkpoint included) each raise
   :class:`repro.errors.CheckpointCorruptError` *before* any session
   state is touched, so a corrupt checkpoint can never partially restore
   a session.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CheckpointCorruptError,
    FatalError,
    InjectedFaultError,
    ReproError,
    StageTimeoutError,
    TransientError,
)
from repro.datasets import load_sequence
from repro.eval.service import build_session
from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.gaussians.camera import Pose
from repro.slam import SplaTam, SplaTamConfig, load_session_state, save_session_state
from repro.slam.results import FrameResult
from repro.slam.session import CHECKPOINT_ARRAYS, CHECKPOINT_MANIFEST, SessionState
from repro.workloads import FrameTrace, MappingWorkload, RenderWorkload, TrackingWorkload

NUM_FRAMES = 4


@pytest.fixture(scope="module")
def session_state(tiny_sequence):
    """A mid-stream traced SplaTAM session state shared by the corruption tests."""
    system = SplaTam(
        tiny_sequence.intrinsics,
        SplaTamConfig(tracking_iterations=4, mapping_iterations=2, collect_trace=True),
    )
    system.begin(tiny_sequence.name)
    for index, frame in tiny_sequence.stream(stop=NUM_FRAMES):
        system.feed(frame, index=index)
    return system.state()


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------
def test_atomic_write_replaces_complete_content(tmp_path):
    target = tmp_path / "report.json"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    # No tmp siblings linger after successful writes.
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_atomic_write_failure_preserves_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "baseline.json"
    atomic_write_bytes(target, b"valid baseline")

    import repro.ioutil as ioutil

    def exploding_replace(src, dst):
        raise OSError("simulated crash at rename")

    monkeypatch.setattr(ioutil.os, "replace", exploding_replace)
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"torn write")
    monkeypatch.undo()
    # The previous complete file survives and the tmp file is cleaned up.
    assert target.read_bytes() == b"valid baseline"
    assert [p.name for p in tmp_path.iterdir()] == ["baseline.json"]


# ---------------------------------------------------------------------------
# Corruption detection
# ---------------------------------------------------------------------------
def test_clean_checkpoint_roundtrips(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    loaded = load_session_state(path)
    assert loaded.algorithm == session_state.algorithm
    assert loaded.next_index == session_state.next_index
    assert len(loaded.frames) == len(session_state.frames)


def test_truncated_npz_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    blob = path / CHECKPOINT_ARRAYS
    blob.write_bytes(blob.read_bytes()[:120])
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_bit_flipped_array_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    blob = path / CHECKPOINT_ARRAYS
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0xFF
    blob.write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_missing_manifest_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    (path / "manifest.json").unlink()
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_unparseable_manifest_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    (path / "manifest.json").write_text('{"format": "repro-sess')  # torn JSON
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_version_mismatch_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["version"] = 1  # pre-checksum format
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_missing_checksum_table_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["arrays"]  # the per-array offset/dtype/shape/CRC-32 table
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_nonexistent_directory_raises_corrupt(tmp_path):
    with pytest.raises(CheckpointCorruptError):
        load_session_state(tmp_path / "never-written")


def test_corrupt_checkpoint_never_partially_restores(session_state, tmp_path, tiny_sequence):
    """A failed load leaves a live session completely untouched."""
    path = save_session_state(session_state, tmp_path / "ckpt")
    blob = path / CHECKPOINT_ARRAYS
    blob.write_bytes(blob.read_bytes()[:64])

    system = SplaTam(
        tiny_sequence.intrinsics,
        SplaTamConfig(tracking_iterations=4, mapping_iterations=2),
    )
    system.begin("live")
    system.feed(tiny_sequence[0], index=0)
    before_index = system.next_frame_index
    before_poses = [np.array(f.estimated_pose.quat) for f in system.finalize().frames]

    with pytest.raises(CheckpointCorruptError):
        system.restore(load_session_state(path))

    assert system.next_frame_index == before_index
    after_poses = [np.array(f.estimated_pose.quat) for f in system.finalize().frames]
    assert len(after_poses) == len(before_poses)
    for a, b in zip(after_poses, before_poses):
        assert np.array_equal(a, b)


def test_manifest_written_after_arrays(session_state, tmp_path, monkeypatch):
    """A crash between the blob and the manifest leaves a detectable state.

    Simulated by failing the manifest write: the directory then holds a
    fresh ``state.bin`` but no manifest — which the loader rejects —
    instead of a silently inconsistent pair.
    """
    import repro.slam.session as session_module

    def exploding_manifest(path, text, encoding="utf-8"):
        raise OSError("simulated crash before manifest landed")

    monkeypatch.setattr(session_module, "atomic_write_text", exploding_manifest)
    with pytest.raises(OSError):
        save_session_state(session_state, tmp_path / "ckpt")
    monkeypatch.undo()
    with pytest.raises(CheckpointCorruptError):
        load_session_state(tmp_path / "ckpt")


def _rewrite_manifest(path, edit):
    manifest = json.loads((path / CHECKPOINT_MANIFEST).read_text())
    edit(manifest)
    (path / CHECKPOINT_MANIFEST).write_text(json.dumps(manifest))


def test_v2_layout_is_rejected(session_state, tmp_path):
    """A v2 checkpoint (``state.npz`` + a checksum-table manifest) is a
    version mismatch, refused like any other."""
    path = tmp_path / "v2"
    path.mkdir()
    np.savez(path / "state.npz", **{"frames/0/estimated_pose": np.zeros(7)})
    (path / CHECKPOINT_MANIFEST).write_text(
        json.dumps(
            {
                "format": "repro-slam-session",
                "version": 2,
                "algorithm": session_state.algorithm,
                "sequence": session_state.sequence,
                "next_index": 1,
                "frames": [],
                "traces": None,
                "payload": {},
                "checksums": {"frames/0/estimated_pose": 0},
            }
        )
    )
    with pytest.raises(CheckpointCorruptError, match="version 2"):
        load_session_state(path)


def test_blob_with_trailing_bytes_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    blob = path / CHECKPOINT_ARRAYS
    blob.write_bytes(blob.read_bytes() + b"\0")
    with pytest.raises(CheckpointCorruptError, match="lays out"):
        load_session_state(path)


@pytest.mark.parametrize("shift", [-1, 1], ids=["overlap", "gap"])
def test_overlapping_or_gapped_offsets_raise_corrupt(session_state, tmp_path, shift):
    path = save_session_state(session_state, tmp_path / "ckpt")

    def move_second_array(manifest):
        key = list(manifest["arrays"])[1]
        manifest["arrays"][key][0] += shift

    _rewrite_manifest(path, move_second_array)
    with pytest.raises(CheckpointCorruptError, match="overlapping or gapped"):
        load_session_state(path)


def test_manifest_declaring_a_huge_array_raises_corrupt(session_state, tmp_path):
    """The layout is checked against the blob's size before reading it."""
    path = save_session_state(session_state, tmp_path / "ckpt")

    def inflate_last_array(manifest):
        key = list(manifest["arrays"])[-1]
        manifest["arrays"][key][2] = [2**40, 2**20]

    _rewrite_manifest(path, inflate_last_array)
    with pytest.raises(CheckpointCorruptError, match="lays out"):
        load_session_state(path)


def test_history_columns_of_different_lengths_raise_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    _rewrite_manifest(path, lambda m: m["frames"]["columns"]["tracking_loss"].pop())
    with pytest.raises(CheckpointCorruptError, match="does not fit"):
        load_session_state(path)


# ---------------------------------------------------------------------------
# Columnar history
# ---------------------------------------------------------------------------
_floats = st.floats(allow_nan=False, width=64)
_counts = st.integers(min_value=0, max_value=10**9)


@st.composite
def _renders(draw):
    return RenderWorkload(
        num_gaussians=draw(_counts),
        gaussians_rendered=draw(_counts),
        pairs_computed=draw(_counts),
        pairs_blended=draw(_counts),
        num_tiles=draw(_counts),
        num_pixels=draw(_counts),
        # Zero-length tables included: a render that touched no tile.
        per_tile_gaussians=np.array(
            draw(st.lists(st.integers(0, 2**40), max_size=5)), dtype=np.int64
        ),
        per_pixel_mean=draw(_floats),
        per_pixel_max=draw(_floats),
        includes_backward=draw(st.booleans()),
        pixels_total=draw(_counts),
        pixels_culled=draw(_counts),
    )


@st.composite
def _frames(draw, index):
    # A nonzero quaternion component keeps normalization clean.
    pose = [draw(st.floats(1, 10))] + draw(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    return FrameResult(
        frame_index=index,
        estimated_pose=Pose.from_vector(np.array(pose)),
        tracking_iterations=draw(_counts),
        mapping_iterations=draw(_counts),
        tracking_loss=draw(_floats),
        mapping_loss=draw(_floats),
        used_coarse_only=draw(st.booleans()),
        is_keyframe=draw(st.booleans()),
        covisibility=draw(st.none() | _floats),
        num_gaussians=draw(_counts),
        gaussians_skipped=draw(_counts),
        degraded=draw(st.booleans()),
        fallbacks_used=draw(_counts),
        relocalized=draw(st.booleans()),
    )


@st.composite
def _traces(draw, index):
    return FrameTrace(
        frame_index=index,
        tracking=TrackingWorkload(
            coarse_flops=draw(_floats),
            refine_iterations=draw(_counts),
            refine_renders=draw(st.lists(_renders(), max_size=3)),
        ),
        mapping=MappingWorkload(
            iterations=draw(_counts),
            renders=draw(st.lists(_renders(), max_size=3)),
            is_keyframe=draw(st.booleans()),
            gaussians_skipped=draw(_counts),
            gaussians_considered=draw(_counts),
            contribution_entries_written=draw(_counts),
            contribution_entries_read=draw(_counts),
        ),
        covisibility=draw(st.none() | _floats),
        codec_sad_evaluations=draw(_counts),
        num_gaussians=draw(_counts),
        health_events=draw(st.lists(st.sampled_from(["degraded:loss", "fallback:reseed"]), max_size=2)),
    )


@st.composite
def _histories(draw):
    """Session states with random history, empty and trace-free ones included."""
    count = draw(st.integers(0, 4))
    frames = [draw(_frames(index)) for index in range(count)]
    traces = None if draw(st.booleans()) else [draw(_traces(index)) for index in range(count)]
    return SessionState(
        algorithm="splatam",
        sequence="columns",
        next_index=count,
        frames=frames,
        traces=traces,
        payload={"vector": np.arange(3.0), "flag": True},
    )


def _as_comparable(record):
    """A dataclass tree as nested plain values; arrays keep dtype and bits."""
    if dataclasses.is_dataclass(record):
        return {
            field.name: _as_comparable(getattr(record, field.name))
            for field in dataclasses.fields(record)
        }
    if isinstance(record, Pose):
        return _as_comparable(record.as_vector())
    if isinstance(record, np.ndarray):
        return (record.dtype.str, record.shape, record.tobytes())
    if isinstance(record, list):
        return [_as_comparable(item) for item in record]
    return (type(record), record)


@settings(max_examples=40, deadline=None)
@given(state=_histories())
def test_columnar_history_round_trips_exactly(tmp_path_factory, state):
    path = save_session_state(state, tmp_path_factory.mktemp("columns"))
    loaded = load_session_state(path)
    assert loaded.next_index == state.next_index
    assert _as_comparable(loaded.frames) == _as_comparable(state.frames)
    if state.traces is None:
        assert loaded.traces is None
    else:
        assert _as_comparable(loaded.traces) == _as_comparable(state.traces)
    assert loaded.payload["flag"] is True
    assert np.array_equal(loaded.payload["vector"], state.payload["vector"])


def test_history_is_stored_column_by_column(session_state, tmp_path):
    """The array count does not grow with the number of frames."""
    path = save_session_state(session_state, tmp_path / "ckpt")
    manifest = json.loads((path / CHECKPOINT_MANIFEST).read_text())
    history = [key for key in manifest["arrays"] if not key.startswith("payload/")]
    assert sorted(history) == [
        "frames/estimated_pose",
        "traces/per_tile_gaussians",
        "traces/per_tile_offsets",
    ]
    assert manifest["arrays"]["frames/estimated_pose"][2] == [NUM_FRAMES, 7]


def _list_lengths(value, path="payload") -> dict:
    """The length of every list in a nested payload, keyed by its path."""
    lengths = {}
    if isinstance(value, dict):
        for key, item in value.items():
            lengths.update(_list_lengths(item, f"{path}/{key}"))
    elif isinstance(value, list):
        lengths[path] = len(value)
        for position, item in enumerate(value):
            lengths.update(_list_lengths(item, f"{path}/{position}"))
    return lengths


@pytest.mark.parametrize("algorithm", ["splatam", "gaussian-slam", "ags"])
def test_array_count_does_not_grow_with_the_stream(algorithm, tmp_path):
    """The payload keeps no per-frame arrays or list entries either (e.g.
    one pose per frame).  Both snapshots come after the health monitor's
    loss window has filled (it holds 5 losses at frame 6)."""
    sequence = load_sequence("desk", num_frames=12)
    session = build_session(
        algorithm, sequence.intrinsics, tracking_iterations=2, mapping_iterations=1
    )
    session.begin(sequence.name)
    counts, lengths = [], []
    for index, frame in sequence.stream():
        session.feed(frame, index=index)
        if index + 1 in (7, 12):
            state = session.state()
            path = save_session_state(state, tmp_path / f"at-{index + 1}")
            counts.append(len(json.loads((path / CHECKPOINT_MANIFEST).read_text())["arrays"]))
            lengths.append(_list_lengths(state.payload))
    assert counts[0] == counts[1]
    assert lengths[0] == lengths[1]


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
def test_error_taxonomy_hierarchy():
    assert issubclass(CheckpointCorruptError, FatalError)
    assert issubclass(FatalError, ReproError)
    assert issubclass(TransientError, ReproError)
    assert issubclass(StageTimeoutError, TransientError)
    assert issubclass(InjectedFaultError, TransientError)
    # Transient and fatal are disjoint: retry decisions are unambiguous.
    assert not issubclass(FatalError, TransientError)
    assert not issubclass(TransientError, FatalError)
