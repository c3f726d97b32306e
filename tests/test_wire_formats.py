"""Wire framing: one versioned frame, raw or deflated, auto-detected.

The engine speaks two self-describing framings of one frame layout — raw,
and zlib (paper-faithful: a zlib stream of the frame, zero-heavy and
large noisy float arrays in the ``zp`` layout and large integer arrays in
the ``bp`` layout, or the ``dp`` one when their rows are sorted, inside
it) — distinguished by their first byte.  These
tests pin the bit-exact round trip of both, that the zlib framing
inflates to the frame (and is exactly the deflated raw frame when no
array is planed), that each large byte plane travels run-length deflated
or, when it does not deflate, as stored blocks — in one stream that stock
zlib and the capped receiver both read — that the numpy probe picks the
coding a ``Z_RLE`` deflate of the same sample would, the versioning of
the layout, the single-serializer size accounting (``compressed_size``
can never drift from the real wire), and the end-to-end behavior of
mixed-framing clients against one server.

The hostile-input half (``TestHostileFrames`` down) treats every byte of
the frame as peer-controlled, in either framing: garbage streams, lying
headers (shapes, dtypes, lengths that don't match the payload — more
bytes than declared too; fields of the wrong JSON type), truncated
frames, zlib bombs, bytes after the zlib stream, ``zp``, ``bp`` and
``dp`` arrays that decode past the cap or lie about their layout, and absurd
length prefixes must all surface as a clean ``ValueError`` /
``ConnectionError`` — never a hang, a blind allocation, or an array the
sender never sent — and a server fed such a frame must drop *that
connection only* and keep serving everyone else.
"""

from __future__ import annotations

import io
import json
import re
import socket
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_specs
from repro.core import Architecture, ArchitectureModel
from repro.core.executor import _wire_state
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.serving import ClientConfig, ServerConfig, build_callables
from repro.system import (DeviceClient, EdgeServer, Message,
                          WIRE_FORMAT_RAW, WIRE_FORMAT_ZLIB, WIRE_FORMATS,
                          compressed_size, deserialize_message,
                          serialize_message)
from repro.system.messages import (_BP_MIN_ELEMENTS, _DEFAULT,
                                   _LENGTH_FORMAT, _LENGTH_SIZE, _RAW_MAGIC,
                                   _RAW_VERSION, _RLE, _STORED,
                                   MAX_MESSAGE_BYTES, _byte_planes,
                                   _pieced_zlib, _planed, _plane_codings,
                                   recv_message, send_payload)


def _sample_message(**overrides) -> Message:
    rng = np.random.default_rng(0)
    fields = dict(
        kind="frame", frame_id=7,
        arrays={
            "x": rng.standard_normal((12, 5)),
            "x32": rng.standard_normal((3, 4)).astype(np.float32),
            "batch": np.zeros(12, dtype=np.int64),
            "edge_index": rng.integers(0, 12, size=(2, 30)),
            "empty": np.zeros((0, 8)),
        },
        meta={"num_graphs": 1, "pooled": False, "nested": {"a": [1, 2]}},
        batch_index=2)
    fields.update(overrides)
    return Message(**fields)


class TestRawFormat:
    def test_roundtrip_preserves_arrays_and_metadata(self):
        message = _sample_message()
        blob = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
        decoded = deserialize_message(blob)
        assert decoded.kind == message.kind
        assert decoded.frame_id == message.frame_id
        assert decoded.meta == message.meta
        assert decoded.batch_index == message.batch_index
        assert decoded.wire_format == WIRE_FORMAT_RAW
        assert set(decoded.arrays) == set(message.arrays)
        for name, original in message.arrays.items():
            received = decoded.arrays[name]
            assert received.dtype == original.dtype  # dtype survives the wire
            assert received.shape == original.shape
            np.testing.assert_array_equal(received, original)

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_raw_arrays_are_zero_copy_views(self, wire_format):
        """Dense arrays view the received (or inflated) bytes: no
        per-array copy, in either framing."""
        blob = serialize_message(_sample_message(), wire_format=wire_format)
        decoded = deserialize_message(blob)
        for array in decoded.arrays.values():
            assert not array.flags.writeable  # view over immutable bytes
            assert array.base is not None

    def test_formats_are_auto_detected(self):
        message = _sample_message()
        for wire_format in WIRE_FORMATS:
            blob = serialize_message(message, wire_format=wire_format)
            decoded = deserialize_message(blob)
            assert decoded.wire_format == wire_format
            np.testing.assert_array_equal(decoded.arrays["x"],
                                          message.arrays["x"])

    def test_zlib_framing_is_the_deflated_raw_frame(self):
        """A frame with no planed array deflates as is: the zlib framing
        is exactly the raw frame, deflated."""
        message = _sample_message()
        deflated = serialize_message(message, wire_format=WIRE_FORMAT_ZLIB)
        raw = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
        assert deflated == zlib.compress(raw, 6)

    def test_message_wire_format_attribute_drives_serialization(self):
        """With no explicit format, the message's own attribute decides —
        this is how server replies mirror their request's framing."""
        message = _sample_message(wire_format=WIRE_FORMAT_RAW)
        blob = serialize_message(message)
        assert blob[0] == _RAW_MAGIC
        assert deserialize_message(blob).wire_format == WIRE_FORMAT_RAW

    def test_unknown_raw_version_raises(self):
        blob = serialize_message(_sample_message(),
                                 wire_format=WIRE_FORMAT_RAW)
        tampered = bytes([blob[0], _RAW_VERSION + 1]) + blob[2:]
        with pytest.raises(ValueError, match="version"):
            deserialize_message(tampered)

    def test_unknown_wire_format_rejected(self):
        with pytest.raises(ValueError, match="unknown wire format"):
            serialize_message(_sample_message(), wire_format="gzip")

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_object_arrays_refused_at_the_sender(self, wire_format):
        """An object array's buffer is pointers: neither framing may ship
        it (the raw framing used to, leaking addresses onto the wire)."""
        message = Message(kind="frame",
                          arrays={"x": np.zeros(3),
                                  "boxes": np.array([{"a": 1}, None])})
        with pytest.raises(ValueError, match="'boxes'.*object dtype"):
            serialize_message(message, wire_format=wire_format)

    def test_non_contiguous_arrays_serialize_correctly(self):
        strided = np.arange(24, dtype=np.float64).reshape(6, 4)[:, ::2]
        blob = serialize_message(Message(kind="frame",
                                         arrays={"x": strided}),
                                 wire_format=WIRE_FORMAT_RAW)
        np.testing.assert_array_equal(deserialize_message(blob).arrays["x"],
                                      strided)


def _nan_with_payload(dtype) -> np.ndarray:
    bits = {np.float32: np.uint32(0x7FC01234),
            np.float64: np.uint64(0x7FF8000000001234)}[dtype]
    return np.array([bits]).view(dtype)


def _bit_exact_cases(dtype):
    """Float arrays whose bytes must survive the wire verbatim."""
    info = np.finfo(dtype)
    rng = np.random.default_rng(1)
    relu = np.maximum(rng.standard_normal((16, 8)), 0).astype(dtype)
    specials = np.concatenate([
        np.array([-0.0, 0.0, np.inf, -np.inf, 0.0, info.smallest_subnormal,
                  -info.smallest_subnormal, 0.0], dtype=dtype),
        _nan_with_payload(dtype), np.zeros(3, dtype)])
    return {
        "specials": specials,
        "negative_zeros": np.full(9, -0.0, dtype),
        "relu": relu,
        "all_zero": np.zeros((4, 5), dtype),
        "zero_free": rng.standard_normal((6, 7)).astype(dtype),
        "empty": np.zeros((0, 8), dtype),
        "zero_d": np.array(0.0, dtype),
        "zero_d_nonzero": np.array(2.5, dtype),
        "strided": relu[:, ::3],
        "big_endian": relu.astype(relu.dtype.newbyteorder(">")),
    }


class TestZeroPlanedLayout:
    """The zlib framing's second array layout: lossless, bitwise."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_round_trip_is_bit_exact(self, dtype, wire_format):
        cases = _bit_exact_cases(dtype)
        blob = serialize_message(Message(kind="frame", arrays=cases),
                                 wire_format=wire_format)
        decoded = deserialize_message(blob).arrays
        for name, original in cases.items():
            received = decoded[name]
            assert received.dtype == original.dtype, name
            assert received.shape == original.shape, name
            assert received.tobytes() == original.tobytes(), name
            assert not received.flags.writeable, name

    def test_only_zero_heavy_floats_use_zp_and_only_in_zlib(self):
        cases = {**_bit_exact_cases(np.float64),
                 "ints": np.zeros(16, np.int64),
                 "half": np.zeros(16, np.float16)}
        message = Message(kind="frame", arrays=cases)
        planed = {spec[0] for spec in frame_specs(
            serialize_message(message, wire_format=WIRE_FORMAT_ZLIB))
            if len(spec) == 4}
        # -0.0 is not bitwise zero: "negative_zeros" stays dense.
        assert planed == {"specials", "relu", "all_zero", "zero_d",
                          "strided", "big_endian", "half"}
        assert all(len(spec) == 3 for spec in frame_specs(
            serialize_message(message, wire_format=WIRE_FORMAT_RAW)))

    @pytest.mark.parametrize("array, planed", [
        (np.r_[0.0, np.ones(7)], True),    # 1 zero in 8
        (np.r_[0.0, np.ones(8)], False),   # 1 zero in 9
        (np.ones(8), False)])
    def test_one_zero_in_eight_is_the_threshold(self, array, planed):
        (spec,) = frame_specs(serialize_message(
            Message(kind="frame", arrays={"x": array})))
        assert (len(spec) == 4) == planed

    def test_zlib_inflates_to_the_frame_with_zp_arrays(self):
        """Restated invariant: the zlib framing is a zlib stream of the
        frame in which zero-heavy float arrays use the zp layout — every
        other byte is the raw frame's, and one parser reads both.  Planes
        shorter than the probe deflate with the frame: the stream is then
        exactly ``zlib.compress`` of it."""
        relu = np.maximum(np.random.default_rng(2).standard_normal((32, 4)), 0)
        message = _sample_message()
        message.arrays["relu"] = relu
        deflated = serialize_message(message, wire_format=WIRE_FORMAT_ZLIB)
        inflated = zlib.decompress(deflated)
        assert zlib.compress(inflated, 6) == deflated
        assert [spec[0] for spec in frame_specs(inflated)
                if len(spec) == 4] == ["relu"]
        assert inflated != serialize_message(message,
                                             wire_format=WIRE_FORMAT_RAW)
        decoded = deserialize_message(inflated)  # the raw-framed parse
        np.testing.assert_array_equal(decoded.arrays["relu"], relu)

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    @pytest.mark.parametrize("extra", [None, "integer_valued_cloud"])
    def test_zero_free_frame_keeps_the_version_1_layout(self, wire_format,
                                                        extra):
        """What pins ``small_*`` uplink: a frame with no zero-heavy float
        array, and no zero-light one of 2048+ elements with a plane the
        probe stores, is the version-1 layout byte for byte, apart from
        the version byte (deflated, that one literal can move the size by
        a byte or two).  A zero-free cloud of integer-valued floats is
        2048+ elements whose planes all deflate: it stays dense too."""
        message = _sample_message()
        if extra is not None:
            rng = np.random.default_rng(10)
            message.arrays[extra] = rng.integers(1, 100, (1024, 3)).astype(
                np.float64)
        header = json.dumps({
            "kind": message.kind, "frame_id": message.frame_id,
            "meta": message.meta, "batch_index": message.batch_index,
            "arrays": [[name, array.dtype.str, list(array.shape)]
                       for name, array in message.arrays.items()],
        }).encode("utf-8")
        version_1 = b"".join(
            [bytes((_RAW_MAGIC, 1)), struct.pack(_LENGTH_FORMAT, len(header)),
             header] + [array.tobytes() for array in message.arrays.values()])
        frame = serialize_message(message, wire_format=wire_format)
        if wire_format == WIRE_FORMAT_ZLIB:
            frame = zlib.decompress(frame)
        assert len(frame) == len(version_1)
        assert frame[:2] == bytes((_RAW_MAGIC, _RAW_VERSION))
        assert frame[2:] == version_1[2:]


def _bp_cases(dtype) -> dict:
    """Integer arrays whose bytes must survive the wire verbatim: the
    ``bp`` layout starts at 4096 elements."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(6)
    values = rng.integers(info.min, info.max, size=(64, 128), dtype=dtype,
                          endpoint=True)
    values[0, :4] = [info.min, info.max, 0, 1]
    return {
        "extremes": values,  # negative values too, for the signed dtypes
        "big_endian": values.astype(values.dtype.newbyteorder(">")),
        "strided": np.repeat(values, 2, axis=1)[:, ::2],  # a view
        "n4095": values.reshape(-1)[:4095],
        "n4096": values.reshape(-1)[:4096],
        "small_sorted": np.sort(values.reshape(-1)[:100]),
    }


class TestBytePlanedLayout:
    """The zlib framing's third array layout: large 2/4/8-byte integer
    arrays (the ``nbr`` table, an irregular ``edge_index``) byte-planed,
    so the low-byte noise and the high-byte runs of an index table are
    coded apart."""

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.int64])
    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_round_trip_is_bit_exact(self, dtype, wire_format):
        cases = _bp_cases(dtype)
        blob = serialize_message(Message(kind="frame", arrays=cases),
                                 wire_format=wire_format)
        planed = {spec[0] for spec in frame_specs(blob)
                  if spec[3:] == ["bp"]}
        assert planed == ({"extremes", "big_endian", "strided", "n4096"}
                          if wire_format == WIRE_FORMAT_ZLIB else set())
        decoded = deserialize_message(blob).arrays
        for name, original in cases.items():
            received = decoded[name]
            assert received.dtype == original.dtype, name
            assert received.shape == original.shape, name
            assert received.tobytes() == original.tobytes(), name
            assert not received.flags.writeable, name

    def test_floats_and_bytes_never_use_bp(self):
        arrays = {"f8": np.arange(4096.0), "u1": np.zeros(8192, np.uint8),
                  "bool": np.zeros(8192, bool)}
        assert [spec[3:] for spec in frame_specs(serialize_message(
            Message(kind="frame", arrays=arrays)))] == [[], [], []]


#: Every dtype the ``dp`` layout holds, in both byte orders.
_DP_DTYPES = [np.dtype(f"{order}{kind}{size}") for kind in "iu"
              for size in (2, 4, 8) for order in "<>"]


@st.composite
def _integer_arrays(draw):
    """A 2/4/8-byte integer array of at least ``_BP_MIN_ELEMENTS``
    elements: rows sorted or not, full-range values (negative ones in the
    signed dtypes), and rows whose gaps wrap the dtype."""
    dtype = draw(st.sampled_from(_DP_DTYPES))
    width = draw(st.integers(1, 48))
    rows = -(-_BP_MIN_ELEMENTS // width) + draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(rows, width), (1, rows, width),
                                  (rows * width,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    info = np.iinfo(dtype)
    values = rng.integers(info.min, info.max, size=shape, endpoint=True,
                          dtype=dtype.newbyteorder("="))
    rows_are = draw(st.sampled_from(["sorted", "unsorted", "wrapping",
                                     "one_swap", "small_gaps"]))
    if rows_are == "small_gaps":
        steps = rng.integers(0, 3, size=shape)
        values = (info.min // 2 + np.cumsum(steps, axis=-1)).astype(
            values.dtype)
    if rows_are != "unsorted":
        values.sort(axis=-1)
    if rows_are == "wrapping":  # min to max: a gap past the dtype's range
        values[..., 0], values[..., -1] = info.min, info.max
    table = values.reshape(-1, width)
    row = rng.integers(len(table))
    if rows_are == "one_swap" and width > 1 and (
            table[row, -2] < table[row, -1]):
        table[row, -2:] = table[row, -2:][::-1].copy()
    return values.astype(dtype)


class TestGapPlanedLayout:
    """The zlib framing's fourth array layout: a large integer array whose
    every row along the last axis is non-decreasing (the device's sorted
    ``nbr`` table) ships each row's first value and then its gaps,
    byte-planed.  The gaps are modular in the array's own dtype, so any
    array round-trips exactly."""

    @settings(max_examples=60, deadline=None)
    @given(_integer_arrays())
    def test_round_trip_is_bit_exact_and_dp_iff_rows_sorted(self, values):
        rows_sorted = bool(np.all(values[..., 1:] >= values[..., :-1]))
        for wire_format in WIRE_FORMATS:
            blob = serialize_message(Message(kind="frame",
                                             arrays={"v": values}),
                                     wire_format=wire_format)
            [spec] = frame_specs(blob)
            expected = (["dp" if rows_sorted else "bp"]
                        if wire_format == WIRE_FORMAT_ZLIB else [])
            assert spec[3:] == expected
            received = deserialize_message(blob).arrays["v"]
            assert received.dtype == values.dtype
            assert received.shape == values.shape
            assert received.tobytes() == values.tobytes()
            assert not received.flags.writeable

    def test_sorted_index_table_ships_smaller_than_bp(self):
        rows = np.sort(np.random.default_rng(2).integers(
            0, 1024, size=(1024, 20), dtype=np.uint16), axis=1)
        dp = len(serialize_message(Message(kind="frame",
                                           arrays={"nbr": rows})))
        shuffled = rows.copy()
        shuffled[:, [0, 1]] = shuffled[:, [1, 0]]
        assert frame_specs(serialize_message(Message(
            kind="frame", arrays={"nbr": shuffled})))[0][3:] == ["bp"]
        bp = len(serialize_message(Message(kind="frame",
                                           arrays={"nbr": shuffled})))
        assert dp < 0.8 * bp

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    @pytest.mark.parametrize("dtype, gap, named", [
        ("<u2", 400, "node 407"),   # row 7 runs past the 300 nodes
        ("<i2", -8, "node -1")])    # a gap that wraps below node 0
    def test_gaps_outside_the_frame_are_refused_by_the_schema(
            self, wire_format, dtype, gap, named):
        nodes, k = 300, 20
        gaps = np.zeros((nodes, k), dtype)
        gaps[:, 0] = np.arange(nodes)
        gaps[7, 5] = gap
        x, batch = np.zeros((nodes, 3)), np.zeros(nodes, np.int64)
        frame = _raw_frame(
            {"kind": "frame", "frame_id": 0, "meta": {"num_graphs": 1},
             "arrays": [["x", "<f8", [nodes, 3]], ["batch", "<i8", [nodes]],
                        ["nbr", dtype, [nodes, k], "dp"]]},
            x.tobytes() + batch.tobytes()
            + _byte_planes(gaps.reshape(-1)).tobytes())
        if wire_format == WIRE_FORMAT_ZLIB:
            frame = zlib.compress(frame)
        message = deserialize_message(frame)
        with pytest.raises(ValueError,
                           match=f"names {named}, outside the frame"):
            _wire_state(message.arrays, message.meta)


def _noisy_planes_message(rows: int = 2048) -> Message:
    """A post-ReLU float64 ``(rows, 80)`` feature: its low mantissa planes
    are noise, so they travel in stored blocks (two per plane at 2048
    rows, ~82 KB each)."""
    relu = np.maximum(np.random.default_rng(4).standard_normal((rows, 80)), 0)
    return Message(kind="frame", frame_id=3,
                   arrays={"x": relu, "batch": np.zeros(rows, np.int64)},
                   meta={"num_graphs": 1})


def _stored_block_boundaries(blob: bytes, message: Message) -> list:
    """Offsets in ``blob`` where a stored block of ``message``'s ``x``
    planes starts, where its data starts and where it ends."""
    kept = int(np.count_nonzero(message.arrays["x"]))
    sizes = [0xFFFF] * (kept // 0xFFFF) + [kept % 0xFFFF]
    boundaries = set()
    for size in sizes:
        header = struct.pack("<BHH", 0, size, size ^ 0xFFFF)
        for found in re.finditer(re.escape(header), blob):
            boundaries.update((found.start(), found.end(),
                               found.end() + size))
    return sorted(boundaries)


class TestPiecedStream:
    """Byte planes that do not deflate travel as stored blocks inside the
    one zlib stream: stock zlib reads it, and so does the capped receiver."""

    def test_incompressible_planes_travel_stored(self):
        message = _noisy_planes_message()
        blob = serialize_message(message)
        frame = zlib.decompress(blob)
        assert blob[:2] == zlib.compress(b"", 6)[:2]
        assert blob != zlib.compress(frame, 6)  # the pieced stream
        # Six noise planes of two blocks each, back to back: a header and
        # a data start per block, and the end of the last.
        assert len(_stored_block_boundaries(blob, message)) == 2 * 12 + 1
        # Stored costs 5 bytes a block where deflate saved under 1 %.
        assert len(blob) <= 1.01 * len(zlib.compress(frame, 6))

    def test_pieced_stream_inflates_bit_exact(self):
        message = _noisy_planes_message()
        blob = serialize_message(message)
        frame = zlib.decompress(blob)
        inflater = zlib.decompressobj()
        assert inflater.decompress(blob) + inflater.flush() == frame
        assert inflater.eof and not inflater.unused_data
        # The cap bounds the inflated frame and what the zp arrays decode to.
        cap = message.arrays["x"].nbytes
        assert len(frame) < cap
        decoded = deserialize_message(blob, max_bytes=cap)
        assert decoded.wire_format == WIRE_FORMAT_ZLIB
        assert decoded.meta == message.meta and decoded.frame_id == 3
        for name, array in message.arrays.items():
            assert decoded.arrays[name].tobytes() == array.tobytes()
        with pytest.raises(ValueError, match="cap"):
            deserialize_message(blob, max_bytes=len(frame) - 1)

    def test_truncation_at_every_stored_block_boundary_raises(self):
        message = _noisy_planes_message()
        blob = serialize_message(message)
        boundaries = _stored_block_boundaries(blob, message)
        assert boundaries and boundaries[-1] < len(blob)
        for cut in boundaries:
            with pytest.raises(ValueError):
                deserialize_message(blob[:cut])

    def test_frame_without_zp_arrays_is_plain_zlib(self):
        """What pins ``small_*`` uplink: no plane, no pieces."""
        message = _sample_message()
        raw = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
        assert serialize_message(message) == zlib.compress(raw, 6)

    def test_integer_valued_feature_still_deflates(self):
        """Integer-valued floats have all-zero low mantissa planes: the
        probe must keep them deflated, never stored."""
        rng = np.random.default_rng(5)
        counts = np.maximum(rng.integers(-8, 24, (1024, 64)), 0)
        message = Message(kind="frame",
                          arrays={"x": counts.astype(np.float64)})
        blob = serialize_message(message)
        frame = zlib.decompress(blob)
        assert [spec[3] for spec in frame_specs(blob)] == ["zp"]
        assert len(blob) <= len(zlib.compress(frame, 6))
        assert len(blob) < counts.size  # < 1 byte a value: planes deflated


def _coding(plane: np.ndarray) -> int:
    """The coding the probe picks for one byte plane."""
    (coding,) = _plane_codings(plane[None])
    return coding


def _mixed_chunks():
    """A raw frame cut into chunks, each with the coding it travels in:
    every switch between the default deflater, the ``Z_RLE`` one and
    stored blocks occurs, and the default chunks repeat each other, so a
    deflater whose history survived a switch would emit matches into
    bytes it never saw."""
    rng = np.random.default_rng(7)
    text = np.frombuffer(b"the default deflater's text " * 40, np.uint8)
    runs = np.repeat(rng.integers(0, 4, 512), 16).astype(np.uint8)
    noise = rng.integers(0, 256, 70000, dtype=np.uint8)  # two blocks
    arrays = {"a": text, "b": runs, "c": noise, "d": text, "e": noise[:5000],
              "f": runs, "g": text, "h": runs, "i": noise[:4096]}
    codings = [_DEFAULT, _RLE, _STORED, _DEFAULT, _STORED, _RLE, _DEFAULT,
               _RLE, _STORED]
    frame = serialize_message(Message(kind="frame", arrays=arrays),
                              wire_format=WIRE_FORMAT_RAW)
    header = len(frame) - sum(array.nbytes for array in arrays.values())
    return (frame, arrays, [frame[:header]] + list(arrays.values()),
            [_DEFAULT] + codings)


class TestCodingPerPlane:
    """Each byte plane of 2 KB or more gets the coding it pays for: runs
    and skewed bytes the run-length deflater, noise stored blocks."""

    @pytest.mark.parametrize("last", [_DEFAULT, _RLE, _STORED])
    def test_mixed_stream_inflates_identically(self, last):
        frame, arrays, chunks, codings = _mixed_chunks()
        codings[-1] = last  # the stream ends in each coding
        blob = _pieced_zlib(chunks, codings)
        assert blob[:2] == zlib.compress(b"", 6)[:2]
        assert zlib.decompress(blob) == frame
        inflater = zlib.decompressobj()
        assert inflater.decompress(blob) + inflater.flush() == frame
        assert inflater.eof and not inflater.unused_data
        decoded = deserialize_message(blob, max_bytes=len(frame))
        for name, array in arrays.items():
            assert decoded.arrays[name].tobytes() == array.tobytes()
        with pytest.raises(ValueError, match="cap"):
            deserialize_message(blob, max_bytes=len(frame) - 1)

    def test_probe_picks_each_coding(self):
        rng = np.random.default_rng(8)
        noise = rng.integers(0, 256, 8192, dtype=np.uint8)
        skewed = rng.integers(0, 4, 8192).astype(np.uint8)  # ~2 bits/byte
        assert _coding(noise[:2047]) == _DEFAULT
        assert _coding(noise[:2048]) == _STORED  # sampled whole
        assert _coding(noise) == _STORED
        assert _coding(skewed) == _RLE
        assert _coding(np.zeros(4096, np.uint8)) == _RLE
        # One pass over the planes of an array: each gets its own coding.
        assert _plane_codings(np.stack([noise, skewed, noise])) == [
            _STORED, _RLE, _STORED]

    def test_edge_list_with_a_noisy_head_is_run_length_coded(self):
        """Plane 0 of an irregular int64 ``edge_index``: the sources' low
        bytes are noise, the sorted targets' are runs.  A probe of the
        plane's head alone would store it."""
        rng = np.random.default_rng(9)
        edges = 20 * 1024
        edge_index = np.stack([rng.integers(0, 1024, edges),
                               np.repeat(np.arange(1024), 20)])
        message = Message(kind="frame", arrays={"edge_index": edge_index})
        plane = edge_index.reshape(-1).view(np.uint8)[::8].copy()
        assert _coding(plane[:4096]) == _STORED  # its head is noise
        assert _coding(plane) == _RLE
        blob = serialize_message(message)
        assert [spec[3:] for spec in frame_specs(blob)] == [["bp"]]
        assert struct.pack("<BHH", 0, plane.size,
                           plane.size ^ 0xFFFF) not in blob
        assert deserialize_message(blob).arrays["edge_index"].tobytes() == (
            edge_index.tobytes())
        # Never larger than the deflated dense frame, which every integer
        # array was before it was byte-planed.
        raw = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
        assert len(blob) <= len(zlib.compress(raw, 6))


def _deflate_probe(plane: np.ndarray) -> int:
    """The coding a ``Z_RLE`` deflate of the probe's sample picks: what
    the wire ran before the numpy estimate, kept here as its reference."""
    if plane.size < 2048:
        return _DEFAULT
    windows = [plane]
    if plane.size > 4096:
        step = (plane.size - 1024) // 3
        windows = [plane[start:start + 1024]
                   for start in range(0, 4 * step, step)]
    probe = zlib.compressobj(1, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
    deflated = sum(len(probe.compress(window)) for window in windows)
    deflated += len(probe.flush())
    sampled = sum(window.size for window in windows)
    return _STORED if deflated > 0.97 * sampled else _RLE


def _paper_pool_frames(split: int, seed: int) -> list:
    """The device's arrays for the benchmark's 1024-point, k = 20 pool of
    ``seed`` (40 one-graph frames), cut before op ``split``."""
    ops = [OpSpec(OpType.SAMPLE, "knn", k=20), OpSpec(OpType.AGGREGATE, "max"),
           OpSpec(OpType.COMBINE, 64), OpSpec(OpType.AGGREGATE, "max"),
           OpSpec(OpType.COMBINE, 64), OpSpec(OpType.GLOBAL_POOL, "max||mean")]
    ops.insert(split, OpSpec(OpType.COMMUNICATE, "uplink"))
    model = ArchitectureModel(Architecture(ops=tuple(ops), name="e2blk"),
                              in_dim=3, num_classes=10, seed=0)
    device_fn = build_callables(model).device_fn
    graphs = SyntheticModelNet40(num_points=1024, samples_per_class=4,
                                 num_classes=10, seed=seed).generate()
    return [device_fn(Batch.from_graphs([graph]))[0] for graph in graphs]


class TestProbeEstimate:
    """The probe estimates a ``Z_RLE`` deflate of each plane's sample in
    numpy — histogram, runs, tree — instead of running it, and picks the
    coding the deflate would."""

    @pytest.mark.parametrize("split, planed", [
        (0, {"x"}),            # paper_edge: the zero-free cloud
        (3, {"x", "nbr"})])    # paper_split: post-ReLU x, the nbr table
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_deflate_on_the_paper_pools(self, split, planed,
                                                    seed):
        decisions = 0
        for arrays in _paper_pool_frames(split, seed):
            found = set()
            for name, array in arrays.items():
                result = _planed(np.asarray(array, order="C"))
                if result is None:
                    continue
                found.add(name)
                _, _, planes, codings = result
                assert codings == [_deflate_probe(plane)
                                   for plane in planes], name
                decisions += len(planes)
            assert found == planed
        assert decisions == 40 * (8 if split == 0 else 10)

    def test_agrees_with_deflate_on_the_edge_list(self):
        rng = np.random.default_rng(9)
        edge_index = np.stack([rng.integers(0, 1024, 20 * 1024),
                               np.repeat(np.arange(1024), 20)])
        _, _, planes, codings = _planed(edge_index)
        assert codings == [_deflate_probe(plane) for plane in planes]
        assert codings[0] == _RLE  # near-uniform bytes, runs of 20

    def test_agrees_with_deflate_on_an_integer_valued_feature(self):
        counts = np.maximum(np.random.default_rng(5).integers(
            -8, 24, (1024, 64)), 0).astype(np.float64)
        _, _, planes, codings = _planed(counts)
        assert codings == [_deflate_probe(plane) for plane in planes]
        assert _STORED not in codings

    @pytest.mark.parametrize("size", [2048, 3072, 4096, 8192, 50000])
    def test_agrees_with_deflate_on_noise_skewed_and_zero_planes(self, size):
        rng = np.random.default_rng(size)
        planes = np.stack([
            rng.integers(0, 256, size, dtype=np.uint8),
            rng.integers(0, 4, size).astype(np.uint8),
            rng.integers(0, 64, size).astype(np.uint8),
            np.clip(rng.normal(128, 20, size), 0, 255).astype(np.uint8),
            np.repeat(rng.integers(0, 256, size, dtype=np.uint8), 5)[:size],
            np.zeros(size, np.uint8)])
        assert _plane_codings(planes) == [
            _deflate_probe(plane) for plane in planes]
        assert _plane_codings(planes)[0] == _STORED

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_zero_free_cloud_rides_zp(self, wire_format):
        """``paper_edge``'s request: a 1024 x 3 float64 cloud with no zero.
        Its low mantissa planes are noise, so it is planed and they go
        stored; bit-exact and read-only either way."""
        cloud = np.random.default_rng(11).standard_normal((1024, 3))
        message = Message(kind="frame", arrays={"x": cloud})
        blob = serialize_message(message, wire_format=wire_format)
        (spec,) = frame_specs(blob)
        assert spec[3:] == (["zp"] if wire_format == WIRE_FORMAT_ZLIB
                            else [])
        received = deserialize_message(blob).arrays["x"]
        assert received.dtype == cloud.dtype and received.shape == cloud.shape
        assert received.tobytes() == cloud.tobytes()
        assert not received.flags.writeable
        if wire_format == WIRE_FORMAT_ZLIB:
            raw = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
            assert len(blob) < len(zlib.compress(raw, 6))

    @pytest.mark.parametrize("array", [
        np.tile(np.random.default_rng(12).standard_normal(16), 256),
        # Not bitwise periodic: its planes read as noise, but a third of
        # its values repeat, which the dense deflate codes as matches.
        np.sin(np.arange(4096) * (2 * np.pi / 64)),
        np.tile(np.random.default_rng(13).standard_normal(1000), 4),
        np.full(4096, 0.1),
        np.arange(1, 4097, dtype=np.float64)],
        ids=["periodic", "sine", "long_period", "constant", "integer_valued"])
    def test_zero_light_arrays_deflate_dense(self, array):
        """A zero-light array whose planes all deflate, or whose values
        repeat, stays dense: the stream is plain ``zlib.compress``."""
        message = Message(kind="frame", arrays={"x": array})
        blob = serialize_message(message)
        (spec,) = frame_specs(blob)
        assert len(spec) == 3
        raw = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
        assert blob == zlib.compress(raw, 6)


class TestSizeAccounting:
    def test_compressed_size_matches_actual_wire_bytes(self):
        """The size estimate is produced by the one true serializer."""
        arrays = _sample_message().arrays
        for wire_format in WIRE_FORMATS:
            expected = len(serialize_message(Message(kind="frame",
                                                     arrays=dict(arrays)),
                                             wire_format=wire_format))
            assert compressed_size(arrays,
                                   wire_format=wire_format) == expected

    def test_raw_size_is_payload_plus_header(self):
        array = np.zeros((16, 8))
        size = compressed_size({"x": array}, wire_format=WIRE_FORMAT_RAW)
        assert size > array.nbytes  # header on top of the raw payload
        assert size < array.nbytes + 256  # ... and nothing else


class TestEngineWireFormats:
    @pytest.fixture()
    def serving(self):
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.AGGREGATE, "mean"),
            OpSpec(OpType.GLOBAL_POOL, "max||mean"),
        ), name="wire-test")
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        serving = build_callables(model)
        device_fn, edge_fn = serving.device_fn, serving.edge_fn
        graphs = SyntheticModelNet40(num_points=24, samples_per_class=1,
                                     num_classes=4, seed=0).generate()
        frames = [Batch.from_graphs([graph]) for graph in graphs[:4]]
        server = EdgeServer(edge_fn).start()
        yield server, device_fn, frames
        server.stop()

    def test_raw_client_matches_zlib_client(self, serving):
        server, device_fn, frames = serving
        zlib_client = DeviceClient(server.host, server.port)
        raw_client = DeviceClient(server.host, server.port,
                                  ClientConfig(wire_format=WIRE_FORMAT_RAW))
        try:
            zlib_results, _ = zlib_client.run_pipeline(frames, device_fn)
            raw_results, _ = raw_client.run_pipeline(frames, device_fn)
        finally:
            zlib_client.close()
            raw_client.close()
        for a, b in zip(zlib_results, raw_results):
            np.testing.assert_array_equal(a.arrays["logits"],
                                          b.arrays["logits"])

    def test_wire_dtype_halves_traffic_within_tolerance(self, serving):
        server, device_fn, frames = serving
        full = DeviceClient(server.host, server.port,
                            ClientConfig(wire_format=WIRE_FORMAT_RAW))
        half = DeviceClient(server.host, server.port,
                            ClientConfig(wire_format=WIRE_FORMAT_RAW,
                                         wire_dtype=np.float32))
        try:
            full_results, full_stats = full.run_pipeline(frames, device_fn)
            half_results, half_stats = half.run_pipeline(frames, device_fn)
        finally:
            full.close()
            half.close()
        assert half_stats.bytes_sent < full_stats.bytes_sent
        for a, b in zip(full_results, half_results):
            np.testing.assert_allclose(a.arrays["logits"],
                                       b.arrays["logits"], atol=1e-3, rtol=0)

    def test_error_replies_arrive_on_raw_connections(self, serving):
        server, device_fn, frames = serving
        client = DeviceClient(server.host, server.port,
                              ClientConfig(wire_format=WIRE_FORMAT_RAW))
        try:
            def broken_device_fn(frame):
                arrays, meta = device_fn(frame)
                bad = dict(arrays)
                bad["x"] = np.asarray(arrays["x"])[:, :1]  # wrong feature dim
                return bad, meta
            with pytest.raises(RuntimeError, match="edge execution failed"):
                client.run_pipeline(frames[:1], broken_device_fn,
                                    timeout_s=20.0)
        finally:
            client.close()

    def test_invalid_client_knobs_rejected(self, serving):
        server, _, _ = serving
        with pytest.raises(ValueError, match="wire format"):
            DeviceClient(server.host, server.port,
                         ClientConfig(wire_format="gzip"))
        with pytest.raises(ValueError, match="floating"):
            DeviceClient(server.host, server.port,
                         ClientConfig(wire_dtype=np.int32))


# ----------------------------------------------------------------------
# Hostile frames: every header field is peer-controlled
# ----------------------------------------------------------------------
def _raw_parts(message: Message):
    """Split a serialized raw frame into (header dict, payload bytes)."""
    blob = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
    (header_len,) = struct.unpack_from(_LENGTH_FORMAT, blob, 2)
    start = 2 + _LENGTH_SIZE
    header = json.loads(blob[start:start + header_len].decode("utf-8"))
    return header, blob[start + header_len:]


def _raw_frame(header: dict, payload: bytes) -> bytes:
    """Reassemble a raw frame from a (possibly lying) header + payload."""
    header_bytes = json.dumps(header).encode("utf-8")
    return b"".join([bytes((_RAW_MAGIC, _RAW_VERSION)),
                     struct.pack(_LENGTH_FORMAT, len(header_bytes)),
                     header_bytes, payload])


def _legacy_zlib_blob(message: Message) -> bytes:
    """``message`` in the pre-PR-17 zlib layout (``np.save`` blobs)."""
    header = json.dumps({"kind": message.kind, "frame_id": message.frame_id,
                         "meta": message.meta,
                         "arrays": list(message.arrays)}).encode("utf-8")
    parts = [struct.pack(_LENGTH_FORMAT, len(header)), header]
    for array in message.arrays.values():
        buffer = io.BytesIO()
        np.save(buffer, array, allow_pickle=False)
        parts += [struct.pack(_LENGTH_FORMAT, buffer.tell()),
                  buffer.getvalue()]
    return zlib.compress(b"".join(parts))


def _zp_payload(values: np.ndarray) -> bytes:
    """A well-formed zp payload of a float64 vector (mask, then planes)."""
    bits = values.view(np.uint64)
    nonzero = bits != 0
    planes = bits[nonzero].view(np.uint8).reshape(-1, 8).T
    return np.packbits(nonzero).tobytes() + planes.tobytes()


_VALUES = np.array([0.0, 1.5, 0.0, -2.0, 0.0, 0.0, 3.0, 0.0, 0.0])
#: The receiver cap every zp attack is decoded under.
_ZP_CAP = 1 << 20

#: One hostile frame per check: ``(array specs, payload, error match)``.
#: Each would decode (or fail with a foreign exception) without the check
#: it targets.
FRAME_ATTACKS = {
    # 128 KiB of mask expands to 8 MiB of float64: past the 1 MiB cap.
    "decodes_past_the_cap": ([["x", "<f8", [1 << 20], "zp"]],
                             bytes(1 << 17), "message cap"),
    # Each fits; together they do not.
    "together_past_the_cap": ([["a", "<f8", [96 << 10], "zp"],
                               ["b", "<f8", [96 << 10], "zp"]],
                              bytes(24 << 10), "message cap"),
    "unknown_layout": ([["x", "<f8", [9], "zq"]], _zp_payload(_VALUES),
                       "unknown layout"),
    "non_float_dtype": ([["x", "<i8", [9], "zp"]], _zp_payload(_VALUES),
                        "floats only"),
    "wrong_arity": ([["x", "<f8", [9], "zp", "extra"]], _VALUES.tobytes(),
                    "fields"),
    "short_mask": ([["x", "<f8", [100], "zp"]], bytes(5), "mask"),
    "values_overrun": ([["x", "<f8", [16], "zp"]], b"\xff\xff" + bytes(24),
                       "non-zero values"),
    "bp_float_dtype": ([["x", "<f8", [4096], "bp"]], bytes(8 * 4096),
                       "integers only"),
    "bp_one_byte_dtype": ([["x", "|u1", [4096], "bp"]], bytes(4096),
                          "integers only"),
    "bp_truncated_planes": ([["x", "<u2", [4096], "bp"]], bytes(8191),
                            "truncated"),
    "bp_wrong_arity": ([["x", "<u2", [4096], "bp", "extra"]], bytes(8192),
                       "fields"),
    "dp_float_dtype": ([["x", "<f8", [4096], "dp"]], bytes(8 * 4096),
                       "integers only"),
    "dp_one_byte_dtype": ([["x", "|u1", [4096], "dp"]], bytes(4096),
                          "integers only"),
    "dp_truncated_planes": ([["x", "<u2", [64, 64], "dp"]], bytes(8191),
                            "truncated"),
    "dp_zero_d_shape": ([["x", "<u2", [], "dp"]], bytes(2), "last axis"),
    # A header that under-declares its payload: the bytes past its last
    # array are inside the frame (and the zlib stream).
    "bytes_after_the_last_array": ([["x", "<f8", [9], "zp"]],
                                   _zp_payload(_VALUES) + b"tail",
                                   "trailing bytes"),
    # A well-formed frame, then bytes after it: past the raw frame's last
    # array, or after the end of the zlib stream (its ``unused_data``).
    "bytes_after_the_end": ([["x", "<f8", [9], "zp"]], _zp_payload(_VALUES),
                            "trailing bytes"),
}
#: What follows the frame, in either framing, for the attacks that need it.
_AFTER_THE_END = {"bytes_after_the_end": b"tail"}


def _attack_blob(attack: str, wire_format: str) -> bytes:
    specs, payload, _ = FRAME_ATTACKS[attack]
    frame = _raw_frame({"kind": "frame", "frame_id": 0, "meta": {},
                        "arrays": specs}, payload)
    if wire_format == WIRE_FORMAT_ZLIB:
        frame = zlib.compress(frame)
    return frame + _AFTER_THE_END.get(attack, b"")


class TestHostileFrames:
    @pytest.fixture(params=WIRE_FORMATS)
    def deserialize(self, request):
        """Decode a crafted raw frame as it would arrive in each framing:
        the one parser's checks must guard the deflated frame too."""
        if request.param == WIRE_FORMAT_ZLIB:
            return lambda frame: deserialize_message(zlib.compress(frame))
        return deserialize_message

    def test_garbage_bytes_are_a_clean_value_error(self, deserialize):
        for blob in (b"\x00" * 64, b"not a frame at all", b"\xff\xfe\xfd",
                     bytes((_RAW_MAGIC,))):  # magic byte alone, no version
            with pytest.raises(ValueError, match="undecodable"):
                deserialize(blob)

    def test_truncated_zlib_stream_rejected(self):
        blob = serialize_message(_sample_message(),
                                 wire_format=WIRE_FORMAT_ZLIB)
        with pytest.raises(ValueError, match="truncated"):
            deserialize_message(blob[:-5])

    def test_legacy_np_save_layout_rejected(self):
        """A peer still speaking the old zlib layout fails cleanly."""
        with pytest.raises(ValueError, match="undecodable"):
            deserialize_message(_legacy_zlib_blob(_sample_message()))

    def test_zlib_bomb_rejected_at_the_cap(self):
        """The length prefix bounds only the deflated size: 8 MiB of
        zeros is ~8 KB on the wire, and must not be inflated past the
        receiver's cap."""
        bomb = zlib.compress(bytes(8 << 20))
        assert len(bomb) < 1 << 16
        with pytest.raises(ValueError, match="cap"):
            deserialize_message(bomb, max_bytes=1 << 20)

    def test_header_length_beyond_blob_rejected(self, deserialize):
        header, payload = _raw_parts(_sample_message())
        frame = _raw_frame(header, payload)
        # Rewrite the header-length word to claim more bytes than exist.
        lying = frame[:2] + struct.pack(_LENGTH_FORMAT,
                                        len(frame) * 2) + frame[6:]
        with pytest.raises(ValueError, match="truncated"):
            deserialize(lying)

    def test_header_overclaiming_shape_rejected(self, deserialize):
        """A shape larger than the payload must fail, not read past it."""
        header, payload = _raw_parts(_sample_message())
        name, dtype, shape = header["arrays"][0]
        header["arrays"][0] = [name, dtype, [shape[0] * 1000] + shape[1:]]
        with pytest.raises(ValueError, match="truncated"):
            deserialize(_raw_frame(header, payload))

    def test_header_lying_dtype_rejected(self, deserialize):
        """A wider dtype than was sent overruns the payload: clean error."""
        header, payload = _raw_parts(
            Message(kind="frame", arrays={"x": np.zeros(8, np.float32)}))
        name, _, shape = header["arrays"][0]
        header["arrays"][0] = [name, "<c16", shape]  # 16B items, 4B sent
        with pytest.raises(ValueError, match="truncated"):
            deserialize(_raw_frame(header, payload))

    def test_overflowing_shape_product_rejected(self, deserialize):
        """A shape whose element product overflows int64 must still fail
        the size check: a wrapped product of 0 (or negative, which
        np.frombuffer reads as 'the whole buffer') would slip past it."""
        for shape in ([2 ** 32, 2 ** 33],   # product 2**65 -> wraps to 0
                      [2 ** 62, 6]):        # wraps negative
            header, payload = _raw_parts(_sample_message())
            name, dtype, _ = header["arrays"][0]
            header["arrays"][0] = [name, dtype, shape]
            with pytest.raises(ValueError, match="truncated"):
                deserialize(_raw_frame(header, payload))

    def test_negative_shape_dimension_rejected(self, deserialize):
        """count=-1 means 'read everything' to np.frombuffer: must never
        reach it from a wire header."""
        header, payload = _raw_parts(_sample_message())
        name, dtype, shape = header["arrays"][0]
        header["arrays"][0] = [name, dtype, [-1] + shape[1:]]
        with pytest.raises(ValueError, match="invalid shape"):
            deserialize(_raw_frame(header, payload))

    def test_non_integer_shape_dimension_rejected(self, deserialize):
        header, payload = _raw_parts(_sample_message())
        name, dtype, shape = header["arrays"][0]
        header["arrays"][0] = [name, dtype, ["12"] + shape[1:]]
        with pytest.raises(ValueError, match="invalid shape"):
            deserialize(_raw_frame(header, payload))

    def test_invalid_json_header_rejected(self, deserialize):
        frame = _raw_frame({}, b"")
        broken = frame[:6] + b"{nope!" + frame[8:]
        with pytest.raises(ValueError):
            deserialize(broken)

    def test_missing_header_keys_rejected(self, deserialize):
        frame = _raw_frame({"arrays": []}, b"")  # no kind/frame_id/meta
        with pytest.raises(ValueError, match="undecodable"):
            deserialize(frame)

    @pytest.mark.parametrize("field, value", [
        ("meta", [1]), ("meta", None), ("kind", 7), ("frame_id", "0"),
        ("frame_id", True), ("batch_index", 1.5), ("batch_index", None)])
    def test_mistyped_header_field_rejected(self, deserialize, field, value):
        header = {"kind": "frame", "frame_id": 0, "meta": {}, "arrays": []}
        header[field] = value
        with pytest.raises(ValueError, match=field):
            deserialize(_raw_frame(header, b""))

    def test_header_that_is_no_object_rejected(self, deserialize):
        with pytest.raises(ValueError, match="not an object"):
            deserialize(_raw_frame([{"kind": "frame"}], b""))

    def test_invalid_dtype_string_rejected(self, deserialize):
        header, payload = _raw_parts(_sample_message())
        name, _, shape = header["arrays"][0]
        header["arrays"][0] = [name, "not-a-dtype", shape]
        with pytest.raises(ValueError):
            deserialize(_raw_frame(header, payload))

    def test_well_formed_zp_frame_decodes(self, deserialize):
        """The attacks below are one field away from this frame."""
        frame = _raw_frame({"kind": "frame", "frame_id": 0, "meta": {},
                            "arrays": [["x", "<f8", [9], "zp"]]},
                           _zp_payload(_VALUES))
        assert deserialize(frame).arrays["x"].tobytes() == _VALUES.tobytes()

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    @pytest.mark.parametrize("attack", sorted(FRAME_ATTACKS))
    def test_hostile_frame_refused(self, attack, wire_format):
        blob = _attack_blob(attack, wire_format)
        assert len(blob) < _ZP_CAP
        with pytest.raises(ValueError, match=FRAME_ATTACKS[attack][2]):
            deserialize_message(blob, max_bytes=_ZP_CAP)


class TestSocketFraming:
    """recv_message against closing, truncating and overclaiming peers."""

    @pytest.fixture
    def pair(self):
        ours, theirs = socket.socketpair()
        ours.settimeout(10.0)
        theirs.settimeout(10.0)
        yield ours, theirs
        ours.close()
        theirs.close()

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_roundtrip_records_wire_bytes(self, pair, wire_format):
        ours, theirs = pair
        blob = serialize_message(_sample_message(), wire_format=wire_format)
        send_payload(theirs, blob)
        message = recv_message(ours)
        assert message.frame_id == 7
        assert message.wire_format == wire_format
        assert message.wire_bytes == len(blob) + _LENGTH_SIZE

    def test_clean_close_returns_none(self, pair):
        ours, theirs = pair
        theirs.close()
        assert recv_message(ours) is None

    def test_close_mid_prefix_raises(self, pair):
        ours, theirs = pair
        theirs.sendall(b"\x00\x00")  # half a length prefix
        theirs.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_message(ours)

    def test_close_mid_payload_raises(self, pair):
        ours, theirs = pair
        theirs.sendall(struct.pack(_LENGTH_FORMAT, 100) + b"x" * 10)
        theirs.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_message(ours)

    def test_oversize_prefix_rejected_before_any_payload(self, pair):
        """The 4-byte prefix can claim 4 GiB; the reader must refuse it
        from the prefix alone — no allocation, no waiting for bytes that
        will never come."""
        ours, theirs = pair
        theirs.sendall(struct.pack(_LENGTH_FORMAT, 0xFFFFFFFF))
        # Deliberately send nothing else: a reader that tried to receive
        # the claimed payload would hang here instead of raising.
        with pytest.raises(ConnectionError, match="cap"):
            recv_message(ours)

    def test_custom_cap_is_enforced(self, pair):
        ours, theirs = pair
        theirs.sendall(struct.pack(_LENGTH_FORMAT, 2048))
        with pytest.raises(ConnectionError, match="cap"):
            recv_message(ours, max_bytes=1024)
        assert 2048 <= MAX_MESSAGE_BYTES  # the default would have allowed it

    def test_cap_also_bounds_what_a_frame_inflates_to(self, pair):
        ours, theirs = pair
        send_payload(theirs, zlib.compress(bytes(8 << 20)))  # ~8 KB sent
        with pytest.raises(ValueError, match="cap"):
            recv_message(ours, max_bytes=1 << 20)


class TestServerSurvivesHostileClients:
    @pytest.fixture(params=["threaded", "async"])
    def serving(self, request):
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.GLOBAL_POOL, "max||mean"),
        ), name="hostile-test")
        model = ArchitectureModel(arch, in_dim=3, num_classes=4, seed=0)
        serving = build_callables(model)
        device_fn, edge_fn = serving.device_fn, serving.edge_fn
        graphs = SyntheticModelNet40(num_points=24, samples_per_class=1,
                                     num_classes=4, seed=0).generate()
        frames = [Batch.from_graphs([graph]) for graph in graphs[:2]]
        server = EdgeServer(edge_fn, config=ServerConfig(
            frontend=request.param)).start()
        yield server, device_fn, frames
        server.stop()

    def _assert_connection_dropped(self, sock):
        """The server must close the hostile connection — not hang it."""
        sock.settimeout(10.0)
        deadline_hit = False
        try:
            while sock.recv(4096):
                pass
        except socket.timeout:  # pragma: no cover - the failure mode
            deadline_hit = True
        except OSError:
            pass
        assert not deadline_hit, "server kept a hostile connection open"

    def _assert_still_serving(self, server, device_fn, frames):
        client = DeviceClient(server.host, server.port)
        try:
            results, _ = client.run_pipeline(frames, device_fn)
        finally:
            client.close()
        assert len(results) == len(frames)

    def test_garbage_payload_drops_connection_only(self, serving):
        server, device_fn, frames = serving
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            send_payload(sock, b"\xde\xad\xbe\xef not a frame")
            self._assert_connection_dropped(sock)
        self._assert_still_serving(server, device_fn, frames)

    def test_lying_raw_header_drops_connection_only(self, serving):
        server, device_fn, frames = serving
        header, payload = _raw_parts(_sample_message())
        name, dtype, shape = header["arrays"][0]
        header["arrays"][0] = [name, dtype, [10 ** 6] + shape[1:]]
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            send_payload(sock, _raw_frame(header, payload))
            self._assert_connection_dropped(sock)
        self._assert_still_serving(server, device_fn, frames)

    @staticmethod
    def _cap_decoders(monkeypatch, cap: int) -> list:
        """Decode at ``cap`` on both frontends; returns the refusals seen.
        Proving a refusal at the 256 MiB default would mean allocating
        that much here."""
        from repro.system import transport

        refusals = []

        def capped(decode):
            def call(*args):
                try:
                    return decode(*args, max_bytes=cap)
                except ValueError as exc:
                    refusals.append(str(exc))
                    raise
            return call

        # The threaded frontend decodes in recv_message, the async one
        # calls deserialize_message itself.
        for name in ("recv_message", "deserialize_message"):
            monkeypatch.setattr(transport, name,
                                capped(getattr(transport, name)))
        return refusals

    def test_zlib_bomb_drops_connection_only(self, serving, monkeypatch):
        """A small frame that inflates past the cap is refused, not
        expanded."""
        refusals = self._cap_decoders(monkeypatch, 1 << 20)
        server, device_fn, frames = serving
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            send_payload(sock, zlib.compress(bytes(8 << 20)))
            self._assert_connection_dropped(sock)
        assert len(refusals) == 1 and "message cap" in refusals[0]
        self._assert_still_serving(server, device_fn, frames)

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    @pytest.mark.parametrize("attack", sorted(FRAME_ATTACKS))
    def test_hostile_frame_drops_connection_only(self, serving, monkeypatch,
                                                 attack, wire_format):
        refusals = self._cap_decoders(monkeypatch, _ZP_CAP)
        server, device_fn, frames = serving
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            send_payload(sock, _attack_blob(attack, wire_format))
            self._assert_connection_dropped(sock)
        assert len(refusals) == 1
        assert re.search(FRAME_ATTACKS[attack][2], refusals[0])
        self._assert_still_serving(server, device_fn, frames)

    @pytest.mark.parametrize("kind, meta", [("hello", [1]), ("frame", None)])
    def test_mistyped_meta_drops_connection_only(self, serving, monkeypatch,
                                                 kind, meta):
        """A ``meta`` that is no object used to pass the parser: a hello
        got its ack and then killed its handler with an uncaught
        ``AttributeError`` (counted nowhere), a frame got an error reply.
        Now the parser refuses it, like every other bad header."""
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        server, device_fn, frames = serving
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            send_payload(sock, zlib.compress(_raw_frame(
                {"kind": kind, "frame_id": 0, "meta": meta, "arrays": []},
                b"")))
            self._assert_connection_dropped(sock)
        assert server.stats().errors == 1
        self._assert_still_serving(server, device_fn, frames)
        assert server.stats().errors == 1
        assert not uncaught

    def test_oversize_prefix_drops_connection_only(self, serving):
        server, device_fn, frames = serving
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall(struct.pack(_LENGTH_FORMAT, 0xFFFFFFF0))
            # No payload follows: the server must reject from the prefix
            # alone rather than buffer toward 4 GiB that never arrives.
            self._assert_connection_dropped(sock)
        self._assert_still_serving(server, device_fn, frames)

    def test_truncated_frame_mid_wire_fails_clean(self, serving):
        """chaosnet's truncate fault: the client sees a connection error
        (never a hang), the server keeps serving other clients."""
        from chaosnet import ChaosProxy

        server, device_fn, frames = serving
        with ChaosProxy(server.host, server.port) as proxy:
            proxy.client_to_server.truncate_next(keep_bytes=6)
            client = DeviceClient(proxy.host, proxy.port)
            try:
                with pytest.raises((ConnectionError, OSError, RuntimeError)):
                    client.run_pipeline(frames, device_fn, timeout_s=20.0)
            finally:
                client.close()
        self._assert_still_serving(server, device_fn, frames)
