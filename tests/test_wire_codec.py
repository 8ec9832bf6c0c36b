"""The serving tier's frame wire codec (``encode_frame`` / ``decode_frame``).

A frame body is a 4-byte little-endian header length, a JSON header
(index, timestamp, pose, per-array shape and dtype), then the raw
``color`` and ``depth`` buffers.  The properties held here:

1. **Bit-exact round trip** for random shapes, both accepted dtypes
   (float32 stays float32), non-contiguous inputs, NaN payloads and
   signed zeros.
2. **Refusal is ``ValueError`` only** — every truncation, every byte
   flip of the length field or header, and a header declaring more
   bytes than the body holds — and nothing is allocated from a declared
   shape before the length check.
3. **Over HTTP a torn body is a 400**, never a 500, and the session
   keeps accepting valid frames.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.sequences import RGBDFrame
from repro.gaussians.camera import Pose
from repro.serve import SlamClient, SlamClientError, SlamServer, decode_frame, encode_frame
from repro.serve.api import FRAME_CONTENT_TYPE

DTYPES = (np.float32, np.float64)
# Bit patterns the codec must carry untouched: quiet and signalling NaNs
# with payloads, both zeros and both infinities.
SPECIAL_BITS = {
    np.float32: [0x7FC00001, 0x7F800001, 0xFFC12345, 0x80000000, 0x7F800000, 0xFF800000],
    np.float64: [
        0x7FF8000000000001,
        0x7FF0000000000001,
        0xFFF8DEADBEEF0000,
        0x8000000000000000,
        0x7FF0000000000000,
        0xFFF0000000000000,
    ],
}


def _raw_array(draw, shape, dtype, layout):
    """An array of arbitrary bits (special values included) in ``layout``."""
    itemsize = np.dtype(dtype).itemsize
    uint = np.uint32 if itemsize == 4 else np.uint64
    size = int(np.prod(shape))
    bits = draw(
        st.lists(
            st.sampled_from(SPECIAL_BITS[dtype]) | st.integers(0, 2 ** (8 * itemsize) - 1),
            min_size=size,
            max_size=size,
        )
    )
    array = np.array(bits, dtype=uint).view(dtype).reshape(shape)
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided":
        # Every other element of a twice-as-wide parent: no contiguity.
        parent = np.zeros(shape[:1] + (2 * shape[1],) + shape[2:], dtype=dtype)
        parent[:, ::2] = array
        return parent[:, ::2]
    return array


@st.composite
def frames(draw):
    height = draw(st.integers(0, 5))
    width = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from(DTYPES))
    color_layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    color = _raw_array(draw, (height, width, 3), dtype, color_layout)
    depth_dtype = draw(st.sampled_from(DTYPES))
    depth = _raw_array(draw, (height, width), depth_dtype, draw(st.sampled_from(["c", "strided"])))
    # Signed zeros included; bounded, with a nonzero quaternion, so the
    # pose normalizes cleanly.
    finite = st.floats(-1e6, 1e6)
    vector = [draw(st.floats(1.0, 1e6))] + draw(st.lists(finite, min_size=6, max_size=6))
    pose = Pose.from_vector(np.array(vector))
    return RGBDFrame(
        index=draw(st.integers(0, 2**40)),
        color=color,
        depth=depth,
        gt_pose=pose,
        timestamp=draw(finite),
    )


def _assert_same_bits(decoded: np.ndarray, original: np.ndarray) -> None:
    assert decoded.dtype == original.dtype
    assert decoded.shape == original.shape
    assert decoded.tobytes() == np.ascontiguousarray(original).tobytes()


@settings(max_examples=60, deadline=None)
@given(frame=frames())
def test_round_trip_is_bit_exact(frame):
    decoded = decode_frame(encode_frame(frame))
    _assert_same_bits(decoded.color, frame.color)
    _assert_same_bits(decoded.depth, frame.depth)
    assert decoded.index == frame.index
    assert struct.pack("<d", decoded.timestamp) == struct.pack("<d", frame.timestamp)
    assert decoded.gt_pose.as_vector().tobytes() == frame.gt_pose.as_vector().tobytes()
    assert decoded.color.flags.writeable and decoded.color.flags.c_contiguous


def _header_size(body: bytes) -> int:
    return 4 + struct.unpack_from("<I", body)[0]


@settings(max_examples=25, deadline=None)
@given(frame=frames())
def test_every_truncation_raises_value_error(frame):
    body = encode_frame(frame)
    for cut in range(len(body)):
        with pytest.raises(ValueError):
            decode_frame(body[:cut])


@settings(max_examples=25, deadline=None)
@given(frame=frames(), mask=st.integers(1, 255))
def test_header_and_length_byte_flips_raise_value_error(frame, mask):
    body = encode_frame(frame)
    for position in range(_header_size(body)):
        flipped = bytearray(body)
        flipped[position] ^= mask
        if position < 4 or mask & 0x80:
            # A changed length field never matches the body again, and
            # a high bit turns the ASCII header into invalid UTF-8.
            with pytest.raises(ValueError):
                decode_frame(bytes(flipped))
        else:
            # A low-bit flip may still be a well-formed header (a digit
            # of the timestamp, say); it decodes or raises ValueError.
            try:
                decode_frame(bytes(flipped))
            except ValueError:
                pass


def _with_header(body: bytes, edit) -> bytes:
    size = _header_size(body)
    header = json.loads(body[4:size])
    edit(header)
    head = json.dumps(header).encode("ascii")
    return struct.pack("<I", len(head)) + head + body[size:]


def test_declared_shape_beyond_the_body_raises_before_allocating():
    frame = RGBDFrame(0, np.zeros((2, 2, 3)), np.zeros((2, 2)), Pose.identity(), 0.0)

    def huge(header):
        header["color"]["shape"] = [4096, 4096, 3]  # 384 MiB of float64

    body = _with_header(encode_frame(frame), huge)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="header declares"):
            decode_frame(body)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h["depth"].update(dtype="<i8"),
        lambda h: h["depth"].update(dtype=[1]),
        lambda h: h["color"].update(shape=[2, -2, 3]),
        lambda h: h["color"].update(shape="223"),
        lambda h: h.update(pose=[0.0] * 6),
        lambda h: h.update(index=True),
        lambda h: h.pop("timestamp"),
        lambda h: h.pop("depth"),
        lambda h: h.update(timestamp=10**400),
    ],
    ids=[
        "dtype",
        "dtype-type",
        "negative-dim",
        "shape-type",
        "pose",
        "index",
        "timestamp",
        "array",
        "overflow",
    ],
)
def test_malformed_headers_raise_value_error(edit):
    frame = RGBDFrame(0, np.zeros((2, 2, 3)), np.zeros((2, 2)), Pose.identity(), 0.0)
    with pytest.raises(ValueError):
        decode_frame(_with_header(encode_frame(frame), edit))


def test_encode_refuses_dtypes_the_systems_do_not_consume():
    frame = RGBDFrame(
        0, np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((2, 2)), Pose.identity(), 0.0
    )
    with pytest.raises(ValueError, match="dtype"):
        encode_frame(frame)
    with pytest.raises(ValueError, match="dtype"):
        encode_frame(dataclasses.replace(frame, color=np.zeros((2, 2, 3), dtype=">f8")))


def test_torn_bodies_get_400_over_http(tiny_sequence):
    intr = tiny_sequence.intrinsics
    body = encode_frame(tiny_sequence[0])
    with SlamServer(num_shards=1, pool_workers=1) as server:
        client = SlamClient(server.address)
        client.create_session("cam", "orb", intr.width, intr.height)
        path = "/sessions/cam/frames"
        torn_bodies = (
            body[:3],
            body[: _header_size(body) - 1],
            body[:-1],
            body + b"\0",
            b"\xff" * 64,
        )
        for torn in torn_bodies:
            with pytest.raises(SlamClientError) as excinfo:
                client._request("POST", path, torn, FRAME_CONTENT_TYPE)
            assert excinfo.value.code == 400
        # Nothing was admitted: the next valid frame is frame 0.
        assert client.post_frame("cam", tiny_sequence[0])["index"] == 0
        assert client.result("cam")["num_frames"] == 1
