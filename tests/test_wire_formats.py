"""Wire framing: one versioned frame, raw or deflated, auto-detected.

The engine speaks two self-describing framings of one frame layout — raw,
and zlib (paper-faithful: the frame deflated, zero-heavy float arrays in
the ``zp`` layout inside it) — distinguished by their first byte.  These
tests pin the bit-exact round trip of both, that the zlib framing is the
deflated frame (exactly the deflated raw frame when no array is
zero-heavy), the versioning of the layout, the single-serializer size
accounting (``compressed_size`` can never drift from the real wire), and
the end-to-end behavior of mixed-framing clients against one server.

The hostile-input half (``TestHostileFrames`` down) treats every byte of
the frame as peer-controlled, in either framing: garbage streams, lying
headers (shapes, dtypes, lengths that don't match the payload), truncated
frames, zlib bombs, ``zp`` arrays that decode past the cap or lie about
their layout, and absurd length prefixes must all surface as a clean
``ValueError`` /
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
import zlib

import numpy as np
import pytest

from repro.core import Architecture, ArchitectureModel, split_callables
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.system import (DeviceClient, EdgeServer, Message,
                          WIRE_FORMAT_RAW, WIRE_FORMAT_ZLIB, WIRE_FORMATS,
                          compressed_size, deserialize_message,
                          serialize_message)
from repro.system.messages import (_LENGTH_FORMAT, _LENGTH_SIZE, _RAW_MAGIC,
                                   _RAW_VERSION, MAX_MESSAGE_BYTES,
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
        """A frame with no zero-heavy float array deflates as is: the zlib
        framing is exactly the raw frame, deflated."""
        message = _sample_message()
        for level in (1, 6, 9):
            deflated = serialize_message(message, compress_level=level,
                                         wire_format=WIRE_FORMAT_ZLIB)
            assert zlib.decompress(deflated) == serialize_message(
                message, wire_format=WIRE_FORMAT_RAW)

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


def _frame_specs(blob: bytes):
    """The array specs of a serialized frame, in either framing."""
    if blob[0] != _RAW_MAGIC:
        blob = zlib.decompress(blob)
    (header_len,) = struct.unpack_from(_LENGTH_FORMAT, blob, 2)
    start = 2 + _LENGTH_SIZE
    return json.loads(blob[start:start + header_len])["arrays"]


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
        planed = {spec[0] for spec in _frame_specs(
            serialize_message(message, wire_format=WIRE_FORMAT_ZLIB))
            if len(spec) == 4}
        # -0.0 is not bitwise zero: "negative_zeros" stays dense.
        assert planed == {"specials", "relu", "all_zero", "zero_d",
                          "strided", "big_endian", "half"}
        assert all(len(spec) == 3 for spec in _frame_specs(
            serialize_message(message, wire_format=WIRE_FORMAT_RAW)))

    @pytest.mark.parametrize("array, planed", [
        (np.r_[0.0, np.ones(7)], True),    # 1 zero in 8
        (np.r_[0.0, np.ones(8)], False),   # 1 zero in 9
        (np.ones(8), False)])
    def test_one_zero_in_eight_is_the_threshold(self, array, planed):
        (spec,) = _frame_specs(serialize_message(
            Message(kind="frame", arrays={"x": array})))
        assert (len(spec) == 4) == planed

    def test_zlib_is_the_deflated_frame_with_zp_arrays(self):
        """Restated invariant: the zlib framing deflates the frame in which
        zero-heavy float arrays use the zp layout — every other byte is the
        raw frame's, and one parser reads both."""
        relu = np.maximum(np.random.default_rng(2).standard_normal((32, 4)), 0)
        message = _sample_message()
        message.arrays["relu"] = relu
        for level in (1, 6, 9):
            deflated = serialize_message(message, compress_level=level,
                                         wire_format=WIRE_FORMAT_ZLIB)
            inflated = zlib.decompress(deflated)
            assert zlib.compress(inflated, level) == deflated
            assert [spec[0] for spec in _frame_specs(inflated)
                    if len(spec) == 4] == ["relu"]
            assert inflated != serialize_message(message,
                                                 wire_format=WIRE_FORMAT_RAW)
            decoded = deserialize_message(inflated)  # the raw-framed parse
            np.testing.assert_array_equal(decoded.arrays["relu"], relu)

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_zero_free_frame_keeps_the_version_1_layout(self, wire_format):
        """What pins ``paper_edge`` / ``small_*`` uplink: a frame with no
        zero-heavy float array is the version-1 layout byte for byte, apart
        from the version byte (deflated, that one literal can move the
        size by a byte or two)."""
        message = _sample_message()
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

    def test_compressed_size_tracks_compression_level(self):
        arrays = {"x": np.zeros((64, 64))}
        fast = compressed_size(arrays, compress_level=1)
        best = compressed_size(arrays, compress_level=9)
        assert best <= fast

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
        device_fn, edge_fn = split_callables(model)
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
                                  wire_format=WIRE_FORMAT_RAW)
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
                            wire_format=WIRE_FORMAT_RAW)
        half = DeviceClient(server.host, server.port,
                            wire_format=WIRE_FORMAT_RAW,
                            wire_dtype=np.float32)
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
                              wire_format=WIRE_FORMAT_RAW)
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
            DeviceClient(server.host, server.port, wire_format="gzip")
        with pytest.raises(ValueError, match="floating"):
            DeviceClient(server.host, server.port, wire_dtype=np.int32)


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

#: One hostile zp frame per check: ``(array specs, payload, error match)``.
#: Each would decode (or fail with a foreign exception) without the check
#: it targets.
ZP_ATTACKS = {
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
}


def _zp_attack_frame(attack: str) -> bytes:
    specs, payload, _ = ZP_ATTACKS[attack]
    return _raw_frame({"kind": "frame", "frame_id": 0, "meta": {},
                       "arrays": specs}, payload)


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
    @pytest.mark.parametrize("attack", sorted(ZP_ATTACKS))
    def test_hostile_zp_array_refused(self, attack, wire_format):
        frame = _zp_attack_frame(attack)
        assert len(frame) < _ZP_CAP
        if wire_format == WIRE_FORMAT_ZLIB:
            frame = zlib.compress(frame)
        with pytest.raises(ValueError, match=ZP_ATTACKS[attack][2]):
            deserialize_message(frame, max_bytes=_ZP_CAP)


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
        device_fn, edge_fn = split_callables(model)
        graphs = SyntheticModelNet40(num_points=24, samples_per_class=1,
                                     num_classes=4, seed=0).generate()
        frames = [Batch.from_graphs([graph]) for graph in graphs[:2]]
        server = EdgeServer(edge_fn, frontend=request.param).start()
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

    @pytest.mark.parametrize("attack", sorted(ZP_ATTACKS))
    def test_hostile_zp_array_drops_connection_only(self, serving,
                                                    monkeypatch, attack):
        refusals = self._cap_decoders(monkeypatch, _ZP_CAP)
        server, device_fn, frames = serving
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            send_payload(sock, zlib.compress(_zp_attack_frame(attack)))
            self._assert_connection_dropped(sock)
        assert len(refusals) == 1
        assert re.search(ZP_ATTACKS[attack][2], refusals[0])
        self._assert_still_serving(server, device_fn, frames)

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
