"""Checkpoint integrity: atomic writes, checksums, corruption detection.

Session parking (``ParkingLot``, ``SlamService.checkpoint/resume``)
leans entirely on two properties of the disk checkpoint format:

1. **Writes are atomic** — an interrupted ``save_session_state`` (or any
   ``atomic_write_*`` user) leaves either the previous complete file or
   the new complete file, never a torn one.
2. **Corruption is detected before restore** — a truncated ``state.npz``,
   a bit-flipped array, a missing or unreadable manifest, and a format
   version mismatch each raise
   :class:`repro.errors.CheckpointCorruptError` *before* any session
   state is touched, so a corrupt checkpoint can never partially restore
   a session.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    CheckpointCorruptError,
    FatalError,
    InjectedFaultError,
    ReproError,
    StageTimeoutError,
    TransientError,
)
from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.slam import SplaTam, SplaTamConfig, load_session_state, save_session_state

NUM_FRAMES = 4


@pytest.fixture(scope="module")
def session_state(tiny_sequence):
    """A mid-stream SplaTAM session state shared by the corruption tests."""
    system = SplaTam(
        tiny_sequence.intrinsics,
        SplaTamConfig(tracking_iterations=4, mapping_iterations=2),
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
    npz = path / "state.npz"
    npz.write_bytes(npz.read_bytes()[:120])
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_bit_flipped_array_raises_corrupt(session_state, tmp_path):
    path = save_session_state(session_state, tmp_path / "ckpt")
    npz = path / "state.npz"
    data = bytearray(npz.read_bytes())
    data[len(data) // 2] ^= 0xFF
    npz.write_bytes(bytes(data))
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
    del manifest["checksums"]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointCorruptError):
        load_session_state(path)


def test_nonexistent_directory_raises_corrupt(tmp_path):
    with pytest.raises(CheckpointCorruptError):
        load_session_state(tmp_path / "never-written")


def test_corrupt_checkpoint_never_partially_restores(session_state, tmp_path, tiny_sequence):
    """A failed load leaves a live session completely untouched."""
    path = save_session_state(session_state, tmp_path / "ckpt")
    npz = path / "state.npz"
    npz.write_bytes(npz.read_bytes()[:64])

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
    """A crash between the npz and the manifest leaves a detectable state.

    Simulated by failing the manifest write: the directory then holds a
    fresh ``state.npz`` but no manifest — which the loader rejects —
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
