"""Wire format of the co-inference engine.

Intermediate GNN states are exchanged between the device and the edge as
length-prefixed messages containing named numpy arrays plus a small JSON
metadata header.  There is one frame layout and one codec for it:

    [magic 0xAB][version 2][u32 header length][JSON header][array bytes ...]

The header carries ``kind``/``frame_id``/``meta`` and one spec per array;
the arrays' bytes follow in header order, each in one of two layouts:

* ``[name, dtype, shape]`` — *dense*: the C-contiguous bytes.
* ``[name, dtype, shape, "zp"]`` — *zero-suppressed, byte-planed*:
  ``packbits(bits != 0)`` (the mask of elements that are not bitwise
  zero), then the non-zero elements byte-planed — byte *j* of every value
  in plane *j*.  Only 2/4/8-byte floats where at least one element in
  eight is bitwise zero use it (post-ReLU activations are 36–40 % zeros),
  and only in the zlib framing: deflate finds the planes' long runs that
  the interleaved float bytes hide.  Bitwise, so ``-0.0`` and NaN
  payloads survive.

``wire_format="raw"`` sends the all-dense frame as is; ``"zlib"`` (the
default) sends the deflated frame, in which zero-heavy float arrays use
the ``zp`` layout — mirroring the paper's engine, which is built on
Python sockets and compresses all transmitted data with zlib.  A frame
with no such array is exactly ``zlib.compress(raw_frame, level)``.

A receiver tells the two framings apart by the first byte (zlib streams
begin with ``0x78``), inflates when needed — capped at its message cap,
because the length prefix bounds only the *deflated* size — and hands the
frame to the one parser, which reads both layouts, so every check on the
peer-controlled header guards both framings.  Dense arrays decode to
read-only ``np.frombuffer`` views over the received (or inflated) bytes
(zero per-array copies); a ``zp`` array decodes into a fresh read-only
array with one scatter, and the total size such arrays decode to is held
to the same cap.  The layout is versioned: an unknown version byte raises
instead of desyncing the stream.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: 4-byte big-endian unsigned length prefix.
_LENGTH_FORMAT = ">I"
_LENGTH_SIZE = struct.calcsize(_LENGTH_FORMAT)

#: Upper bound on a single framed message accepted off a socket.  The
#: length prefix is peer-controlled, so the receiver must never allocate
#: the declared size blindly — a 4-byte prefix can claim up to 4 GiB and
#: ``socket.recv`` allocates its buffer up front.  256 MiB is far above
#: any real frame (the largest benchmarked raw frames are single-digit
#: megabytes) while keeping a malicious or corrupted prefix harmless.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

#: Wire framing identifiers (``Message.wire_format`` / ``serialize_message``).
WIRE_FORMAT_ZLIB = "zlib"
WIRE_FORMAT_RAW = "raw"
WIRE_FORMATS = (WIRE_FORMAT_ZLIB, WIRE_FORMAT_RAW)

# ----------------------------------------------------------------------
# Base protocol kinds
# ----------------------------------------------------------------------
# Every module that produces or dispatches a ``Message.kind`` must use
# these named constants — never the string literal — so a typo'd kind
# cannot compile and silently never match on the other end of the socket
# (enforced by the ``message-kinds`` checker of ``tools/reprolint``).

#: Client -> server session opener (``meta`` selects model/options); the
#: server answers with a ``hello`` ack carrying the serving table.
KIND_HELLO = "hello"
#: A request envelope: input arrays + metadata for one inference frame.
KIND_FRAME = "frame"
#: Server -> client reply carrying the frame's output arrays.
KIND_RESULT = "result"
#: Server -> client (or shard/node -> parent) failure reply;
#: ``meta["error"]`` describes what went wrong.
KIND_ERROR = "error"
#: Orderly end of a session/worker: the peer stops reading after this.
KIND_STOP = "stop"

#: Server -> client reply kind for a frame shed by admission control: the
#: frame was *not* executed (queue bound hit, fairness share exceeded, or
#: its deadline already passed).  The reply's ``meta`` carries the
#: rejection ``"reason"`` and a ``"retry_after_ms"`` hint — an explicit
#: answer, so a shed frame never looks like a timeout to the client.
KIND_REJECTED = "rejected"

#: Every kind of the base socket protocol (shard/node control kinds extend
#: this set — see ``SHARD_CONTROL_KINDS`` / ``NODE_CONTROL_KINDS``).
BASE_KINDS = (KIND_HELLO, KIND_FRAME, KIND_RESULT, KIND_ERROR, KIND_STOP,
              KIND_REJECTED)

#: Frame metadata key: relative per-frame deadline in milliseconds.  The
#: server stamps an absolute expiry at admission and never executes a
#: frame whose deadline passed while it queued (see
#: :mod:`repro.system.scheduler`).
DEADLINE_MS_META_KEY = "deadline_ms"
#: Frame metadata key: priority class — an integer level (0 = highest) or
#: a symbolic name resolved through ``QosPolicy.priority_map``.
PRIORITY_META_KEY = "priority"
#: ``rejected``-reply metadata key: suggested client backoff in ms.
RETRY_AFTER_MS_META_KEY = "retry_after_ms"
#: ``rejected``-reply metadata key: why the frame was shed
#: (``"capacity"`` / ``"fairness"`` / ``"deadline"``).
REJECT_REASON_META_KEY = "reason"

#: First byte of a raw frame.  zlib streams produced by ``zlib.compress``
#: always start with ``0x78`` (deflate, 32K window), so this magic makes the
#: two framings self-describing on receive.
_RAW_MAGIC = 0xAB
#: Current frame layout version (2: array specs may carry the ``zp`` tag).
_RAW_VERSION = 2
#: Layout tag of a zero-suppressed, byte-planed array (see module docstring).
_LAYOUT_ZP = "zp"

# ----------------------------------------------------------------------
# Shard control envelope (process-parallel serving)
# ----------------------------------------------------------------------
# The shard transport (:mod:`repro.runtime.shard`) moves whole ``Message``
# envelopes across the process boundary in the *raw* framing above — the
# same versioned layout the socket wire speaks, so a frame crosses into a
# shard with zero serialization work beyond the JSON header (no pickling,
# no re-encoding; array payloads are straight memcpys).  Every request and
# every reply on that hop is *one* self-contained envelope: a ``"frame"``
# request carries N >= 1 frames (see :func:`pack_frames`) plus
# ``meta["entry"]`` and ``meta["batched"]`` (run them as one micro-batch or
# one by one), and its ``"result"`` reply carries the N results the same
# way; ``Message.frame_id`` is the correlation id that matches the two.
# Beyond the socket kinds (``"frame"``/``"result"``/``"error"``/``"stop"``),
# shards speak the control kinds below.

#: Parent -> shard: replicate a published snapshot (``meta["zoo"]`` holds
#: the JSON zoo payload, ``meta["version"]`` the parent's snapshot version).
SHARD_KIND_PUBLISH = "publish"
#: Shard -> parent: acknowledgement that ``meta["version"]`` is installed.
SHARD_KIND_PUBLISHED = "published"
#: Shard -> parent: the worker built its initial snapshot and is serving.
SHARD_KIND_READY = "ready"
#: Every control kind the shard protocol adds on top of the socket kinds.
SHARD_CONTROL_KINDS = (SHARD_KIND_PUBLISH, SHARD_KIND_PUBLISHED,
                       SHARD_KIND_READY)

# ----------------------------------------------------------------------
# Cluster node control envelope (multi-node serving tier)
# ----------------------------------------------------------------------
# Replica nodes (:mod:`repro.runtime.node`) speak the shard protocol above
# over TCP — same envelopes, same correlation — plus the heartbeat pair
# below, which the cluster router uses to detect partitioned/wedged nodes
# (a dead TCP peer surfaces as a socket error, but a *partitioned* one just
# goes silent).

#: Router -> node: heartbeat probe; ``frame_id`` carries the correlation id.
NODE_KIND_PING = "ping"
#: Node -> router: heartbeat answer, echoing the probe's correlation id;
#: ``meta`` reports the node's installed snapshot ``version``, served
#: ``frames`` count and ``pid``.
NODE_KIND_PONG = "pong"
#: Every control kind the node protocol adds on top of the shard kinds.
NODE_CONTROL_KINDS = (NODE_KIND_PING, NODE_KIND_PONG)


@dataclass
class Message:
    """One unit of device↔edge communication.

    Attributes
    ----------
    kind:
        Message type: ``"hello"`` (connection handshake: the client announces
        its name and runtime conditions, the server acknowledges with the
        available models and, when a dispatcher is attached, the entry chosen
        for those conditions), ``"frame"`` (intermediate state), ``"result"``
        (classifier output), ``"error"`` (edge-side execution failure,
        carrying the remote traceback in ``meta``), ``"rejected"`` (frame
        shed by admission control — never executed; ``meta`` carries the
        reason and a ``retry_after_ms`` hint), ``"stop"`` (end of stream).
    frame_id:
        Sequence number of the inference frame this message belongs to.
    arrays:
        Named numpy arrays (node features, batch vector, edge index, ...).
    meta:
        Small JSON-serializable metadata (e.g. which segment to execute).
    batch_index:
        Position of this frame inside the micro-batch the edge coalesced it
        into (``None`` for per-frame serving).  Carried on ``"result"`` and
        ``"error"`` replies so a failure isolates to the one offending frame
        of a batch instead of discrediting the whole batch, and so clients
        can observe the realized coalescing.
    wire_format:
        Framing this message was received in (or should be sent in when no
        explicit format is passed to :func:`serialize_message`): ``"zlib"``
        or ``"raw"``.  Servers reply in the format a request arrived in, so
        one listener serves clients of either framing.
    wire_bytes:
        Size of the encoded frame as received from the socket; filled in
        by :func:`recv_message` (0 for locally constructed messages).
    """

    kind: str
    frame_id: int = 0
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)
    batch_index: Optional[int] = None
    wire_format: str = WIRE_FORMAT_ZLIB
    wire_bytes: int = 0


def serialize_message(message: Message, compress_level: int = 6,
                      wire_format: Optional[str] = None) -> bytes:
    """Encode a message to wire bytes (without the length prefix).

    ``wire_format`` selects the framing; when ``None`` the message's own
    ``wire_format`` attribute decides, so replies naturally mirror the
    framing their request arrived in.  ``compress_level`` only applies to
    the zlib framing: the frame deflated, zero-heavy float arrays in the
    ``zp`` layout (see the module docstring).
    """
    wire_format = message.wire_format if wire_format is None else wire_format
    if wire_format not in WIRE_FORMATS:
        raise ValueError(f"unknown wire format {wire_format!r} "
                         f"(expected one of {WIRE_FORMATS})")
    deflate = wire_format == WIRE_FORMAT_ZLIB
    header = {
        "kind": message.kind,
        "frame_id": message.frame_id,
        "meta": message.meta,
    }
    if message.batch_index is not None:
        header["batch_index"] = int(message.batch_index)
    chunks = []
    specs = []
    for name, array in message.arrays.items():
        # Not np.ascontiguousarray: that turns a 0-d array into shape (1,).
        array = np.asarray(array, order="C")
        if array.dtype.hasobject:
            # An object array's buffer holds pointers, not values.
            raise ValueError(f"array {name!r} has object dtype "
                             f"{array.dtype}: only plain-data arrays "
                             "can go on the wire")
        spec = [name, array.dtype.str, list(array.shape)]
        planed = _zero_planed(array) if deflate else None
        if planed is None:
            # A memoryview, not tobytes(): join below then performs the
            # single unavoidable copy of each payload into the frame.
            chunks.append(memoryview(array))
        else:
            spec.append(_LAYOUT_ZP)
            chunks.extend(planed)
        specs.append(spec)
    header["arrays"] = specs
    header_bytes = json.dumps(header).encode("utf-8")
    frame = b"".join([bytes((_RAW_MAGIC, _RAW_VERSION)),
                      struct.pack(_LENGTH_FORMAT, len(header_bytes)),
                      header_bytes] + chunks)
    if deflate:
        return zlib.compress(frame, compress_level)
    return frame


#: The unsigned integer each ``zp``-eligible float width is read as.
_LANES = {size: np.dtype(f"u{size}") for size in (2, 4, 8)}


def _lanes(dtype: np.dtype) -> Optional[np.dtype]:
    """The unsigned integer a ``zp``-eligible float dtype is read as."""
    return _LANES.get(dtype.itemsize) if dtype.kind == "f" else None


def _zero_planed(array: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(mask, planes)`` of a contiguous float array in the ``zp`` layout,
    or ``None`` when it stays dense (not a 2/4/8-byte float, empty, or
    fewer than one element in eight bitwise zero)."""
    lanes = _lanes(array.dtype)
    if lanes is None or array.size == 0:
        return None
    bits = array.reshape(-1).view(lanes)
    kept = np.count_nonzero(bits)
    if (bits.size - kept) * 8 < bits.size:
        return None
    nonzero = bits != 0
    # Integer indices, not the boolean mask: 5x faster gather here.
    values = bits[np.flatnonzero(nonzero)].view(np.uint8).reshape(
        kept, lanes.itemsize)
    return np.packbits(nonzero), np.ascontiguousarray(values.T)


def deserialize_message(blob: bytes,
                        max_bytes: int = MAX_MESSAGE_BYTES) -> Message:
    """Decode bytes produced by :func:`serialize_message` (either framing).

    The framing is detected from the first byte, so one receive path serves
    zlib and raw peers alike; the decoded message records which framing it
    arrived in (``wire_format``).  A zlib blob inflates to at most
    ``max_bytes``, the cap :func:`recv_payload` puts on its deflated size.

    Any malformed input — bad magic, a lying header, truncated payload,
    undecodable or over-expanding compression — raises a clean
    :class:`ValueError`.  Decoding runs on bytes a remote peer controls, so
    the failure mode must be a single well-known exception the caller can
    map onto "drop this peer", never a hang, a blind allocation or an
    arbitrary library error escaping the transport.
    """
    try:
        wire_format = WIRE_FORMAT_RAW
        if blob[:1] != bytes((_RAW_MAGIC,)):
            wire_format = WIRE_FORMAT_ZLIB
            inflater = zlib.decompressobj()
            blob = inflater.decompress(blob, max_bytes)
            if not inflater.eof:
                raise ValueError("zlib frame is truncated or inflates past "
                                 f"the {max_bytes}-byte message cap")
        return _parse_frame(blob, wire_format, max_bytes)
    except (zlib.error, struct.error, KeyError, IndexError,
            TypeError) as exc:
        raise ValueError(f"undecodable message: {type(exc).__name__}: "
                         f"{exc}") from exc


def _parse_frame(blob: bytes, wire_format: str, max_bytes: int) -> Message:
    magic, version = blob[0], blob[1]
    if magic != _RAW_MAGIC:
        raise ValueError("undecodable message: no frame magic (not a frame "
                         "of this protocol, or the pre-versioning layout)")
    if version != _RAW_VERSION:
        raise ValueError(f"unsupported raw wire-format version {version} "
                         f"(this build speaks version {_RAW_VERSION})")
    offset = 2
    (header_len,) = struct.unpack_from(_LENGTH_FORMAT, blob, offset)
    offset += _LENGTH_SIZE
    if offset + header_len > len(blob):
        raise ValueError(
            f"raw frame header truncated: header length {header_len} "
            f"exceeds the {len(blob) - offset} bytes received after it")
    header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    offset += header_len
    arrays: Dict[str, np.ndarray] = {}
    # Bytes the ``zp`` arrays decode to so far: their mask bits expand
    # ``8 * itemsize``-fold, past what the inflate cap bounded.
    decoded = 0
    for spec in header["arrays"]:
        if len(spec) not in (3, 4):
            raise ValueError(f"array spec {spec!r} has {len(spec)} fields "
                             "(expected [name, dtype, shape] or "
                             f"[name, dtype, shape, {_LAYOUT_ZP!r}])")
        name, dtype_str, shape = spec[:3]
        if len(spec) == 4 and spec[3] != _LAYOUT_ZP:
            raise ValueError(f"array {name!r} declares unknown layout "
                             f"{spec[3]!r}")
        dtype = np.dtype(dtype_str)
        # The header is peer-controlled: every shape/size claim is checked
        # against the bytes actually received before numpy touches them —
        # a lying header must fail as a clean ValueError, and a negative
        # dimension must never reach np.frombuffer (count=-1 means "read
        # everything", silently yielding an array the sender never sent).
        if not all(isinstance(dim, int) and dim >= 0 for dim in shape):
            raise ValueError(f"raw frame header declares invalid shape "
                             f"{shape!r} for array {name!r}")
        # Unbounded Python ints, not np.prod: a hostile shape like
        # [2**32, 2**33] wraps an int64 product to 0/negative, slipping
        # past the size check below into np.frombuffer (where a negative
        # count means "read the whole buffer").
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if len(spec) == 4:
            # Refused before any allocation: a 256 MiB all-zero mask of
            # float64 would otherwise ask np.zeros for 16 GiB.
            decoded += nbytes
            if decoded > max_bytes:
                raise ValueError(
                    f"zp array {name!r} decodes past the {max_bytes}-byte "
                    f"message cap ({decoded} bytes of zp arrays so far)")
            flat, offset = _parse_zero_planed(blob, offset, name, dtype,
                                              count)
            arrays[name] = flat.reshape(shape)
            continue
        if offset + nbytes > len(blob):
            raise ValueError(
                f"raw frame payload truncated: array {name!r} declares "
                f"{nbytes} bytes but only {len(blob) - offset} remain")
        # Zero-copy: the array is a read-only view over the received bytes.
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                     offset=offset).reshape(shape)
        offset += nbytes
    return Message(kind=header["kind"], frame_id=header["frame_id"],
                   arrays=arrays, meta=header["meta"],
                   batch_index=header.get("batch_index"),
                   wire_format=wire_format)


def _parse_zero_planed(blob: bytes, offset: int, name: str, dtype: np.dtype,
                       count: int) -> Tuple[np.ndarray, int]:
    """Decode the ``zp`` array at ``offset``: ``(flat read-only array,
    offset past it)``.  The caller has already capped ``count``."""
    lanes = _lanes(dtype)
    if lanes is None:
        raise ValueError(f"zp array {name!r} has dtype {dtype}: the zp "
                         "layout holds 2/4/8-byte floats only")
    mask_bytes = (count + 7) // 8
    if offset + mask_bytes > len(blob):
        raise ValueError(
            f"raw frame payload truncated: zp array {name!r} needs a "
            f"{mask_bytes}-byte mask but only {len(blob) - offset} remain")
    nonzero = np.unpackbits(np.frombuffer(blob, np.uint8, mask_bytes, offset),
                            count=count).view(bool)
    offset += mask_bytes
    kept = int(np.count_nonzero(nonzero))
    nbytes = kept * lanes.itemsize
    if offset + nbytes > len(blob):
        raise ValueError(
            f"raw frame payload truncated: zp array {name!r} has {kept} "
            f"non-zero values ({nbytes} bytes) but only "
            f"{len(blob) - offset} remain")
    planes = np.frombuffer(blob, np.uint8, nbytes, offset).reshape(
        lanes.itemsize, kept)
    flat = np.zeros(count, dtype=dtype)
    flat.view(lanes)[np.flatnonzero(nonzero)] = np.ascontiguousarray(
        planes.T).view(lanes)[:, 0]
    flat.flags.writeable = False
    return flat, offset + nbytes


#: One frame's engine state on the worker hop: ``(arrays, meta)``.
_Frame = Tuple[Dict[str, np.ndarray], Dict]


def pack_frames(frames: Sequence[_Frame]
                ) -> Tuple[Dict[str, np.ndarray], List[Dict]]:
    """N ``(arrays, meta)`` frames as one envelope's worth of payload.

    Frame ``i``'s array ``name`` travels as ``"<i>/<name>"``; the metas
    travel as a list in frame order (the worker hop puts it under
    ``meta["frames"]``).  Inverse: :func:`unpack_frames`.
    """
    arrays = {f"{index}/{name}": array
              for index, (frame_arrays, _) in enumerate(frames)
              for name, array in frame_arrays.items()}
    return arrays, [meta for _, meta in frames]


def unpack_frames(arrays: Dict[str, np.ndarray],
                  metas: List[Dict]) -> List[_Frame]:
    """The ``(arrays, meta)`` frames :func:`pack_frames` packed."""
    frames = [({}, meta) for meta in metas]
    for key, array in arrays.items():
        index, _, name = key.partition("/")
        frames[int(index)][0][name] = array
    return frames


def _prefixed(blob: bytes) -> bytes:
    """``blob`` behind the wire's 4-byte length prefix."""
    return struct.pack(_LENGTH_FORMAT, len(blob)) + blob


def _parse_prefix(prefix: bytes, max_bytes: int = MAX_MESSAGE_BYTES) -> int:
    """The length a received prefix announces, refused above the cap
    *before* any allocation (the stream beyond it is unparseable anyway)."""
    (length,) = struct.unpack(_LENGTH_FORMAT, prefix)
    if length > max_bytes:
        raise ConnectionError(
            f"length prefix announced {length} bytes, above the "
            f"{max_bytes}-byte message cap — corrupted stream or "
            "misbehaving peer")
    return length


def disable_nagle(sock: socket.socket) -> None:
    """The stack's one socket policy: every TCP stream it dials or accepts
    writes a message the moment it is framed.

    Each message already leaves as one ``sendall``; Nagle would hold the
    second small write of a pipelined window until the peer's delayed ACK
    of the first (~40 ms per window on loopback).
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_payload(sock: socket.socket, blob: bytes) -> int:
    """Send an already-serialized message blob; returns bytes sent.

    Lets callers serialize inside their own error handling (serialization
    failures must not be conflated with connection failures) and then ship
    the frame atomically.
    """
    payload = _prefixed(blob)
    sock.sendall(payload)
    return len(payload)


def send_message(sock: socket.socket, message: Message,
                 wire_format: Optional[str] = None) -> int:
    """Send one framed message over a connected socket; returns bytes sent."""
    return send_payload(sock, serialize_message(message,
                                                wire_format=wire_format))


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    """Read exactly ``size`` bytes.

    Returns ``None`` when the peer closed before sending *any* byte (a clean
    end of stream) and raises :class:`ConnectionError` when the stream ends
    part-way through — the two cases must stay distinguishable so a dropped
    frame is never mistaken for an orderly shutdown.
    """
    chunks = []
    received = 0
    while received < size:
        chunk = sock.recv(size - received)
        if not chunk:
            if received == 0:
                return None
            raise ConnectionError(
                f"connection closed mid-frame: received {received} of "
                f"{size} expected bytes")
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_payload(sock: socket.socket,
                 max_bytes: int = MAX_MESSAGE_BYTES) -> Optional[bytes]:
    """Receive one length-prefixed blob — the inverse of :func:`send_payload`.

    Returns ``None`` on a clean peer close (the stream ended on a frame
    boundary) and raises :class:`ConnectionError` when the stream is
    truncated mid-frame — a length prefix or payload cut short by a dying
    peer must surface as an error instead of silently dropping the frame.
    A length prefix above ``max_bytes`` also raises
    :class:`ConnectionError` (see :func:`_parse_prefix`).
    """
    prefix = _recv_exact(sock, _LENGTH_SIZE)
    if prefix is None:
        return None
    length = _parse_prefix(prefix, max_bytes)
    blob = _recv_exact(sock, length)
    if blob is None:
        raise ConnectionError(
            f"connection closed mid-frame: length prefix announced {length} "
            "bytes but no payload followed")
    return blob


def recv_message(sock: socket.socket,
                 max_bytes: int = MAX_MESSAGE_BYTES) -> Optional[Message]:
    """Receive and decode one framed message (see :func:`recv_payload`).

    ``None`` is a clean peer close; a truncated or oversized frame raises
    :class:`ConnectionError`; undecodable bytes, or a zlib frame that
    inflates past ``max_bytes``, :class:`ValueError`.
    """
    blob = recv_payload(sock, max_bytes)
    if blob is None:
        return None
    message = deserialize_message(blob, max_bytes)
    message.wire_bytes = len(blob) + _LENGTH_SIZE
    return message


def compressed_size(arrays: Dict[str, np.ndarray], compress_level: int = 6,
                    wire_format: str = WIRE_FORMAT_ZLIB) -> int:
    """Size in bytes of a frame holding ``arrays`` in the given framing.

    Deliberately *not* an independent estimate: the size is measured by
    running the one true serializer (:func:`serialize_message`), so it can
    never drift from what actually goes on the wire — for either framing.
    Useful for validating the simulator's compression-ratio assumption
    against the real wire format and for sizing raw-framing deployments.
    """
    return len(serialize_message(Message(kind=KIND_FRAME, arrays=dict(arrays)),
                                 compress_level, wire_format=wire_format))
