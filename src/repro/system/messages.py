"""Wire format of the co-inference engine.

Intermediate GNN states are exchanged between the device and the edge as
length-prefixed messages containing named numpy arrays plus a small JSON
metadata header.  There is one frame layout and one codec for it:

    [magic 0xAB][version 2][u32 header length][JSON header][array bytes ...]

The header carries ``kind``/``frame_id``/``meta`` and one spec per array;
the arrays' bytes follow in header order, each in one of four layouts
(declared once, in ``_LAYOUTS``):

* ``[name, dtype, shape]`` — *dense*: the C-contiguous bytes.
* ``[name, dtype, shape, "zp"]`` — *zero-suppressed, byte-planed*:
  ``packbits(bits != 0)`` (the mask of elements that are not bitwise
  zero), then the non-zero elements byte-planed — byte *j* of every value
  in plane *j*.  Only 2/4/8-byte floats use it: those where at least one
  element in eight is bitwise zero (post-ReLU activations are 36–40 %
  zeros), and those of 2048 or more elements with fewer zeros when the
  probe below stores one of their planes and at most one sampled value
  in twelve repeats another (a raw point cloud: its low mantissa bytes
  are noise, and its all-ones mask deflates to a few bytes).
* ``[name, dtype, shape, "bp"]`` — *byte-planed*: every element
  byte-planed, in the array's own byte order.  Only 2/4/8-byte integer
  arrays of at least 4096 elements use it (a ``nbr`` table, an
  ``edge_index``): an index's low byte is close to noise, its high bytes
  a few distinct values.
* ``[name, dtype, shape, "dp"]`` — *byte-planed row gaps*: what ``bp``
  would ship for a 2/4/8-byte integer array of as many elements whose
  every row along the last axis is non-decreasing, except that each row
  holds its first value and then its gaps, computed in the array's own
  dtype.  The arithmetic is modular, so ``np.cumsum`` in that dtype
  restores any array exactly.  A sorted neighbour list under a locality
  order is small gaps (the WebGraph coding): ``paper_split``'s ``nbr``
  table, whose rows the device sorts, ships in 9.7 KB instead of 26 KB.

The planed layouts appear only in the zlib framing, where each byte
plane is coded for what it holds, and are bitwise, so ``-0.0`` and NaN
payloads survive.

``wire_format="raw"`` sends the all-dense frame as is; ``"zlib"`` (the
default) sends a zlib stream of the frame with the planed layouts inside
it — mirroring the paper's engine, which is built on Python sockets and
compresses all transmitted data with zlib.  The stream is
``zlib.compress(frame, 6)`` unless the frame has a byte plane of 2 KB
or more.  Each such plane is probed — in numpy, the size a ``Z_RLE``
deflate of its sample would take: the byte histogram's entropy, runs of
repeats priced as matches, and the Huffman tree, over the whole plane
up to 4 KB, else over four 1 KB windows spread across it — and travels
as *stored* blocks when that cannot shrink it by 3 % (the low mantissa
bytes of real-valued features, the low byte of an unsorted index table:
deflating them cost most of the compression time for < 1 % of their
size), else through a second raw deflater with the ``Z_RLE`` strategy
(Huffman codes plus runs, at a fraction of a full match search).  The
header, ``zp`` masks, dense arrays and shorter planes stay in the
default deflater.  The stream is built from pieces — the coders' output,
switched behind full flushes, our own zlib header and Adler-32 trailer —
and stock zlib inflates it to the same frame.  A frame with no plane of
2 KB or more — a logits reply, a 64-point request — is exactly
``zlib.compress(frame, 6)``.

A receiver tells the two framings apart by the first byte (zlib streams
begin with ``0x78``), inflates when needed — capped at its message cap,
because the length prefix bounds only the *deflated* size — and hands the
frame to the one parser, which reads every layout, so every check on the
peer-controlled header guards both framings.  Dense arrays decode to
read-only ``np.frombuffer`` views over the received (or inflated) bytes
(zero per-array copies); a ``zp`` array decodes into a fresh read-only
array, plane by plane (into its non-zero values and then one scatter,
when it has zeros), and the total size such arrays decode to is held to
the same cap; a ``bp`` array into one, plane by plane, and a ``dp``
array into one and then its row sums.  A frame must end where its last
declared array ends, and a zlib stream where its frame does.  The layout
is versioned: an unknown version byte raises instead of desyncing the
stream.
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
#: a symbolic name resolved through ``QosConfig.priority_map``.
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
#: Current frame layout version (2: array specs may carry a layout tag —
#: ``zp``, or ``bp`` or ``dp``, which an older version-2 parser refuses as
#: unknown).
_RAW_VERSION = 2
#: Layout tags of a zero-suppressed, byte-planed float array, of a
#: byte-planed integer array and of its row gaps (see module docstring).
_LAYOUT_ZP, _LAYOUT_BP, _LAYOUT_DP = "zp", "bp", "dp"

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
# ``meta["entry"]`` (the zoo entry whose batched router runs them as one
# micro-batch), and its ``"result"`` reply carries the N results the same
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


def serialize_message(message: Message,
                      wire_format: Optional[str] = None) -> bytes:
    """Encode a message to wire bytes (without the length prefix).

    ``wire_format`` selects the framing; when ``None`` the message's own
    ``wire_format`` attribute decides, so replies naturally mirror the
    framing their request arrived in.  The zlib framing is a zlib stream
    of the frame at :data:`_ZLIB_LEVEL`, zero-heavy and large
    noisy float arrays in the ``zp`` layout, large integer arrays in the
    ``dp`` layout when their rows are sorted and the ``bp`` one otherwise,
    and each large plane run-length deflated or stored (see the module
    docstring).
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
    # Per chunk: how it travels in the zlib stream (see _pieced_zlib).
    codings = []
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
        planed = _planed(array) if deflate else None
        if planed is None:
            # A memoryview, not tobytes(): join below then performs the
            # single unavoidable copy of each payload into the frame.
            chunks.append(memoryview(array))
            codings.append(_DEFAULT)
        else:
            layout, mask, planes, plane_codings = planed
            spec.append(layout)
            if mask is not None:
                chunks.append(mask)
                codings.append(_DEFAULT)
            chunks.extend(planes)
            codings.extend(plane_codings)
        specs.append(spec)
    header["arrays"] = specs
    header_bytes = json.dumps(header).encode("utf-8")
    chunks.insert(0, bytes((_RAW_MAGIC, _RAW_VERSION))
                  + struct.pack(_LENGTH_FORMAT, len(header_bytes))
                  + header_bytes)
    codings.insert(0, _DEFAULT)
    if any(coding != _DEFAULT for coding in codings):
        return _pieced_zlib(chunks, codings)
    frame = b"".join(chunks)
    if deflate:
        return zlib.compress(frame, _ZLIB_LEVEL)
    return frame


#: How a chunk of the frame travels in the zlib stream: through the
#: default deflater, through the run-length (``Z_RLE``) one, or stored.
_DEFAULT, _RLE, _STORED = range(3)
#: A byte plane at least this long is probed, then run-length deflated or
#: stored; a shorter one deflates with the rest of the frame.
_PROBE_BYTES = 2048
#: The probe samples this many windows of a longer plane, spread from its
#: first byte to its last: a plane can be noise at its head and runs at
#: its tail (plane 0 of an edge list: random sources, sorted targets).  A
#: plane no longer than the windows together is sampled whole.
_PROBE_WINDOWS = 4
_WINDOW_BYTES = 1024
#: A plane whose sample would deflate to more than this share of its size
#: is shipped in stored blocks: deflating it would cost time and save
#: nothing.
_STORED_RATIO = 0.97
#: Largest payload of one deflate stored block (RFC 1951, section 3.2.4).
_STORED_BLOCK_BYTES = 0xFFFF
#: The zlib compression level of every deflater: level 1 was measured
#: and rejected (a ``paper_split`` request of 406 KB against 387 KB).
_ZLIB_LEVEL = 6
#: The two-byte zlib header ``zlib.compress`` writes at that level.
_ZLIB_HEADER = zlib.compress(b"", _ZLIB_LEVEL)[:2]
#: Longest match deflate codes (RFC 1951, section 3.2.5); ``Z_RLE`` codes
#: every match at distance 1, so a run of equal bytes costs one literal
#: then one match per 258 repeats, and a tail of fewer than 3 repeats
#: stays literals.
_MAX_MATCH, _MIN_MATCH = 258, 3


#: Symbols of deflate's literal/length alphabet — 256 literals, the end
#: of block, 29 length codes — and, past them, a column for the bits each
#: match adds: its length's extra bits and its 1-bit distance code.
_LITLEN_SYMBOLS = 256 + 1 + 29
_MATCH_BITS = _LITLEN_SYMBOLS
_COLUMNS = _LITLEN_SYMBOLS + 1
_END_OF_BLOCK = 256


def _tail_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indexed by the repeats a run has left after its 258-byte matches
    (0..257): the bytes a last match covers, its length symbol, and the
    bits it adds (RFC 1951, section 3.2.5).  Fewer than 3 repeats are
    literals: no bytes, no bits, and the end-of-block symbol, whose count
    is set afterwards."""
    matched = np.arange(_MAX_MATCH)
    matched[:_MIN_MATCH] = 0
    symbols = np.full(_MAX_MATCH, _END_OF_BLOCK)
    bits = np.zeros(_MAX_MATCH)
    length = _MIN_MATCH
    extra = [0] * 8 + [n for n in range(1, 6) for _ in range(4)]
    for code, extra_bits in enumerate(extra):
        stop = min(length + (1 << extra_bits), _MAX_MATCH)
        symbols[length:stop] = 257 + code
        bits[length:stop] = extra_bits + 1
        length = stop
    return matched, symbols, bits


_TAIL_MATCHED, _TAIL_SYMBOL, _TAIL_BITS = _tail_tables()
#: Each plane's first key (``_rle_deflate_bits``); an array has at most
#: eight planes.
_ROW_KEYS = np.arange(0, 8 * _COLUMNS, _COLUMNS, dtype=np.uint16)[:, None]
#: A dynamic Huffman block's cost beyond its symbols' entropy, in bits:
#: a fixed part (block and tree headers, Huffman's rounding of code
#: lengths) and a part per literal/length symbol it uses (its code
#: length in the tree header).  Fitted to ``Z_RLE`` deflates of noise,
#: skewed, Gaussian and run-length samples of 2–4 KB: the estimate then
#: lands on the same side of the stored line except within 0.4 % of it.
_BLOCK_BITS, _BITS_PER_SYMBOL = 200, 2


def _plane_codings(planes: np.ndarray) -> List[int]:
    """How each row of a ``(planes, bytes)`` array of byte planes travels:
    ``_DEFAULT`` below the probe size, else ``_STORED`` when a ``Z_RLE``
    deflate of its sample could not shrink it by 3 % (the low mantissa
    bytes of real-valued features, the low bytes of scattered indices),
    else ``_RLE``.  Run-length deflate is Huffman coding plus runs: all
    that a plane of one byte position holds, at a fraction of a full
    deflate's match search.  The deflate is estimated, not run: see
    :func:`_rle_deflate_bits`."""
    if planes.shape[1] < _PROBE_BYTES:
        return [_DEFAULT] * len(planes)
    sample = _probe_sample(planes)
    limit = _STORED_RATIO * 8 * sample.shape[1]
    return [_STORED if bits > limit else _RLE
            for bits in _rle_deflate_bits(sample)]


def _probe_sample(rows: np.ndarray) -> np.ndarray:
    """The probe's sample of each row of a 2-D array: the row when it has
    at most ``_PROBE_WINDOWS * _WINDOW_BYTES`` items, else that many
    windows spread from its first item to its last, back to back."""
    size = rows.shape[1]
    if size <= _PROBE_WINDOWS * _WINDOW_BYTES:
        return rows
    step = (size - _WINDOW_BYTES) // (_PROBE_WINDOWS - 1)
    return np.concatenate([rows[:, start:start + _WINDOW_BYTES]
                           for start in range(0, _PROBE_WINDOWS * step, step)],
                          axis=1)


def _rle_deflate_bits(sample: np.ndarray) -> np.ndarray:
    """Estimated bits of a ``Z_RLE`` dynamic Huffman block of each row of
    a ``(rows, bytes)`` uint8 array (at most eight rows), all in one pass.

    It parses the row as ``Z_RLE`` does — a literal per byte, except that
    three or more repeats of the byte before are one match at distance 1
    per 258 — and prices the symbols at their order-0 entropy, plus each
    match's length extra bits and one bit for its distance, plus the
    block's tree and Huffman rounding (``_BLOCK_BITS``,
    ``_BITS_PER_SYMBOL``).  Counting runs matters: plane 0 of an edge
    list has near-uniform bytes but runs of 20.
    """
    rows = len(sample)
    # Row r's column c counts at r * _COLUMNS + c; a byte is its own
    # literal's key, so bytes of two rows never compare equal.
    keys = (sample + _ROW_KEYS[:rows]).reshape(-1)
    # Stretches of repeats (byte i + 1 equal to byte i) come as pairs of
    # edges: the run's first byte, then its last.
    repeats = np.zeros(keys.size + 1, bool)
    np.equal(keys[1:], keys[:-1], out=repeats[1:-1])
    edges = np.flatnonzero(repeats[1:] ^ repeats[:-1])
    first = keys[edges[::2]]
    full, tail = np.divmod(edges[1::2] - edges[::2], _MAX_MATCH)
    row = first - first % _COLUMNS
    # Bytes a match covers are no literals; each match is a length symbol
    # (a 258-byte one the alphabet's last, code 285) and adds its bits.
    counts = (np.bincount(keys, minlength=rows * _COLUMNS) + np.bincount(
        np.concatenate([first, row + _TAIL_SYMBOL[tail],
                        row + (_LITLEN_SYMBOLS - 1), row + _MATCH_BITS]),
        np.concatenate([-(full * _MAX_MATCH + _TAIL_MATCHED[tail]),
                        np.ones_like(full), full,
                        _TAIL_BITS[tail] + full]),
        rows * _COLUMNS)).reshape(rows, _COLUMNS)
    counts[:, _END_OF_BLOCK] = 1
    symbols = counts[:, :_LITLEN_SYMBOLS]
    total = symbols.sum(axis=1)
    entropy = total * np.log2(total) - (
        symbols * np.log2(np.maximum(symbols, 1))).sum(axis=1)
    return (entropy + counts[:, _MATCH_BITS] + _BLOCK_BITS
            + _BITS_PER_SYMBOL * np.count_nonzero(symbols, axis=1))


def _pieced_zlib(chunks: Sequence, codings: Sequence[int]) -> bytes:
    """A zlib stream of the frame ``chunks`` join to, each chunk coded as
    its entry of ``codings`` says.

    The pieces: our own zlib header, the output of two raw deflaters at
    :data:`_ZLIB_LEVEL` — the default one and a ``Z_RLE`` one — and of
    stored blocks, and the running Adler-32 of the frame.  The stream switches
    coders behind a full flush of the deflater it leaves: that ends its
    output on a byte boundary and drops its history, so no later match
    reaches across bytes it never saw.  Stock ``zlib.decompressobj``
    inflates it to the frame like any zlib stream.
    """
    deflaters = {
        _DEFAULT: zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, -15),
        _RLE: zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, -15, 8,
                               zlib.Z_RLE),
    }
    pieces = [_ZLIB_HEADER]
    checksum = zlib.adler32(b"")
    # The deflater holding input it has not flushed, if any.
    active = None
    for chunk, coding in zip(chunks, codings):
        checksum = zlib.adler32(chunk, checksum)
        if active is not None and active != coding:
            pieces.append(deflaters[active].flush(zlib.Z_FULL_FLUSH))
            active = None
        if coding != _STORED:
            pieces.append(deflaters[coding].compress(chunk))
            active = coding
            continue
        view = memoryview(chunk)
        for start in range(0, len(view), _STORED_BLOCK_BYTES):
            block = view[start:start + _STORED_BLOCK_BYTES]
            # BFINAL 0, BTYPE 00 (stored), then LEN and its complement.
            pieces.append(struct.pack("<BHH", 0, len(block),
                                      len(block) ^ 0xFFFF))
            pieces.append(block)
    # The final block: the open deflater's, or an empty one after stored.
    pieces.append(deflaters[_DEFAULT if active is None else active].flush())
    pieces.append(struct.pack(">I", checksum))
    return b"".join(pieces)

#: The unsigned integer each 2/4/8-byte item width is read as.
_LANES = {size: np.dtype(f"u{size}") for size in (2, 4, 8)}
#: An integer array with at least this many elements ships in the ``bp``
#: or the ``dp`` layout.
_BP_MIN_ELEMENTS = 4096
#: A float array with fewer than one element in eight bitwise zero ships
#: in the ``zp`` layout only from this many elements (its planes then
#: reach the probe size), and only when the probe stores a plane of it.
_ZP_ZERO_LIGHT_MIN_ELEMENTS = _PROBE_BYTES
#: ... and only when at most this share of the probe's sample of its
#: elements repeats another one bitwise.  Deflating the dense bytes codes
#: a repeated value as a match of a few bytes, which its planes hide,
#: where planing saves well under a byte on a value that does not
#: repeat: on 1024 x 3 float64 clouds, dense is smaller from about one
#: repeat in eleven.
_ZP_ZERO_LIGHT_MAX_REPEATS = 1 / 12


@dataclass(frozen=True)
class _Layout:
    """One array layout of the frame: the tag its spec carries (``None``:
    no tag), the numpy kind codes and item sizes of the dtypes it holds
    (no kinds: any dtype), the fewest elements an array ships in it from,
    and what its bytes are (``docs/serving.md`` renders the table)."""

    tag: Optional[str]
    name: str
    kinds: str
    sizes: Tuple[int, ...]
    min_elements: int
    doc: str

    def holds(self, dtype: np.dtype) -> bool:
        return not self.kinds or (dtype.kind in self.kinds
                                  and dtype.itemsize in self.sizes)

    @property
    def dtypes(self) -> str:
        if not self.kinds:
            return "any"
        kind = "floats" if self.kinds == "f" else "integers"
        return f"{'/'.join(map(str, self.sizes))}-byte {kind}"


_LAYOUTS = {layout.tag: layout for layout in (
    _Layout(None, "dense", "", (), 0,
            "the C-order bytes (one plain memory copy on send)"),
    _Layout(_LAYOUT_ZP, "zero-suppressed, byte-planed", "f", (2, 4, 8), 1,
            "`packbits(bits != 0)` — the mask of elements that are not "
            "bitwise zero — then the non-zero values byte-planed: byte *j* "
            "of every value in plane *j*"),
    _Layout(_LAYOUT_BP, "byte-planed", "iu", (2, 4, 8), _BP_MIN_ELEMENTS,
            "every element byte-planed, in the array's own byte order: "
            "byte *j* of every element in plane *j*"),
    _Layout(_LAYOUT_DP, "byte-planed row gaps", "iu", (2, 4, 8),
            _BP_MIN_ELEMENTS,
            "an array whose every row along the last axis is "
            "non-decreasing: each row's first value, then its gaps, in the "
            "array's own dtype (modular), byte-planed as `bp`; decoded by "
            "`np.cumsum(axis=-1)` in that dtype"),
)}


def _lanes(dtype: np.dtype, tag: str = _LAYOUT_ZP) -> Optional[np.dtype]:
    """The unsigned integer a dtype the layout ``tag`` holds is read as."""
    return _LANES[dtype.itemsize] if _LAYOUTS[tag].holds(dtype) else None


def _byte_planes(lanes: np.ndarray) -> np.ndarray:
    """``(itemsize, n)``: byte j of every element of ``lanes`` in row j."""
    return np.ascontiguousarray(lanes.view(np.uint8).reshape(
        lanes.size, lanes.itemsize).T)


def _planed(array: np.ndarray) -> Optional[
        Tuple[str, Optional[np.ndarray], np.ndarray, List[int]]]:
    """``(layout, zp mask or None, byte planes, their codings)`` of a
    contiguous array that ships planed in the zlib framing, or ``None``
    when it stays dense."""
    if _lanes(array.dtype, _LAYOUT_BP) is not None:
        if array.size < _BP_MIN_ELEMENTS:
            return None
        layout, values = _LAYOUT_BP, array
        if np.all(array[..., 1:] >= array[..., :-1]):
            layout, values = _LAYOUT_DP, _row_gaps(array)
        planes = _byte_planes(values.reshape(-1))
        return layout, None, planes, _plane_codings(planes)
    lanes = _lanes(array.dtype)
    if lanes is None or array.size == 0:
        return None
    bits = array.reshape(-1).view(lanes)
    kept = np.count_nonzero(bits)
    zero_heavy = (bits.size - kept) * 8 >= bits.size
    if not zero_heavy and bits.size < _ZP_ZERO_LIGHT_MIN_ELEMENTS:
        return None
    nonzero = bits != 0
    # Integer indices, not the boolean mask: 5x faster gather here.
    values = bits if kept == bits.size else bits[np.flatnonzero(nonzero)]
    planes = _byte_planes(values)
    codings = _plane_codings(planes)
    # A zero-light array pays for its mask only where a plane would
    # otherwise be deflated for nothing and its values rarely repeat:
    # integer-valued, periodic and constant data stay dense.
    if not zero_heavy and (
            _STORED not in codings
            or _repeat_share(values) > _ZP_ZERO_LIGHT_MAX_REPEATS):
        return None
    return _LAYOUT_ZP, np.packbits(nonzero), planes, codings


def _native_lanes(array: np.ndarray) -> np.ndarray:
    """An integer array's values as the native unsigned integer of its
    width, where arithmetic is modular."""
    native = array.astype(array.dtype.newbyteorder("="), copy=False)
    return native.view(_LANES[array.dtype.itemsize])


def _row_gaps(array: np.ndarray) -> np.ndarray:
    """The ``dp`` values of an integer array: along the last axis, each
    row's first value and then each value minus the one before, in the
    array's own dtype and byte order (modular: exact for any array)."""
    lanes = _native_lanes(array)
    gaps = lanes.copy()
    np.subtract(lanes[..., 1:], lanes[..., :-1], out=gaps[..., 1:])
    return gaps.astype(gaps.dtype.newbyteorder(array.dtype.byteorder),
                       copy=False)


def _row_sums(gaps: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_row_gaps`, as a fresh array."""
    lanes = _native_lanes(gaps)
    values = np.cumsum(lanes, axis=-1, dtype=lanes.dtype)
    return values.view(gaps.dtype.newbyteorder("=")).astype(gaps.dtype,
                                                             copy=False)


def _repeat_share(lanes: np.ndarray) -> float:
    """The share of the probe's sample of ``lanes`` (an array's elements
    read as unsigned integers) equal to another element of the sample."""
    sample = np.sort(_probe_sample(lanes[None])[0])
    return np.count_nonzero(sample[1:] == sample[:-1]) / sample.size


def deserialize_message(blob: bytes,
                        max_bytes: int = MAX_MESSAGE_BYTES) -> Message:
    """Decode bytes produced by :func:`serialize_message` (either framing).

    The framing is detected from the first byte, so one receive path serves
    zlib and raw peers alike; the decoded message records which framing it
    arrived in (``wire_format``).  A zlib blob inflates to at most
    ``max_bytes``, the cap :func:`recv_payload` puts on its deflated size.

    Any malformed input — bad magic, a lying header, truncated payload,
    bytes past the frame's end, undecodable or over-expanding
    compression — raises a clean
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
            if inflater.unused_data:
                raise ValueError(f"{len(inflater.unused_data)} trailing "
                                 "bytes after the end of the zlib stream")
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
    _check_header(header)
    offset += header_len
    arrays: Dict[str, np.ndarray] = {}
    # Bytes the ``zp`` arrays decode to so far: their mask bits expand
    # ``8 * itemsize``-fold, past what the inflate cap bounded.
    decoded = 0
    for spec in header["arrays"]:
        if len(spec) not in (3, 4):
            raise ValueError(f"array spec {spec!r} has {len(spec)} fields "
                             "(expected [name, dtype, shape] or "
                             "[name, dtype, shape, layout])")
        name, dtype_str, shape = spec[:3]
        layout = spec[3] if len(spec) == 4 else None
        if layout not in _LAYOUTS:
            raise ValueError(f"array {name!r} declares unknown layout "
                             f"{layout!r}")
        dtype = np.dtype(dtype_str)
        if not _LAYOUTS[layout].holds(dtype):
            raise ValueError(f"{layout} array {name!r} has dtype {dtype}: "
                             f"the {layout} layout holds "
                             f"{_LAYOUTS[layout].dtypes} only")
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
        if layout == _LAYOUT_ZP:
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
        if layout == _LAYOUT_DP and not shape:
            raise ValueError(f"dp array {name!r} has shape (): the dp "
                             "layout codes rows along a last axis")
        if offset + nbytes > len(blob):
            raise ValueError(
                f"raw frame payload truncated: array {name!r} declares "
                f"{nbytes} bytes but only {len(blob) - offset} remain")
        if layout is not None:
            # Its planes are exactly as long as the dense bytes: the copy
            # is bounded by what the inflate cap bounded.
            planes = np.frombuffer(blob, np.uint8, nbytes, offset).reshape(
                dtype.itemsize, count)
            flat = np.empty(count, dtype)
            lanes = flat.view(np.uint8).reshape(count, dtype.itemsize)
            # Plane by plane, not one transposing copy: 2-5x faster.
            for byte, plane in enumerate(planes):
                lanes[:, byte] = plane
            flat = flat.reshape(shape)
            if layout == _LAYOUT_DP:
                flat = _row_sums(flat)
            flat.flags.writeable = False
            arrays[name] = flat
        else:
            # Zero-copy: the array is a read-only view over the received
            # bytes.
            arrays[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                         offset=offset).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        # A header that under-declares its payload is a lying header too.
        raise ValueError(f"frame has {len(blob) - offset} trailing bytes "
                         "after its last declared array")
    return Message(kind=header["kind"], frame_id=header["frame_id"],
                   arrays=arrays, meta=header["meta"],
                   batch_index=header.get("batch_index"),
                   wire_format=wire_format)


def _check_header(header) -> None:
    """Refuse a header whose fields are not the JSON types the server
    reads them as — before anything reads them.  A ``meta`` that is no
    object would otherwise reach the server's ``meta.get`` as an
    ``AttributeError``, which no frontend treats as a bad frame."""
    if type(header) is not dict:
        raise ValueError(f"frame header is a JSON {type(header).__name__}, "
                         "not an object")
    fields = {"kind": str, "frame_id": int, "meta": dict}
    if "batch_index" in header:
        fields["batch_index"] = int
    for key, expected in fields.items():
        # Exact types: JSON ``true`` is a Python int subclass, not an id.
        if type(header[key]) is not expected:
            raise ValueError(f"frame header field {key!r} is a "
                             f"{type(header[key]).__name__}, expected "
                             f"{expected.__name__}")


def _parse_zero_planed(blob: bytes, offset: int, name: str, dtype: np.dtype,
                       count: int) -> Tuple[np.ndarray, int]:
    """Decode the ``zp`` array at ``offset``: ``(flat read-only array,
    offset past it)``.  The caller has already capped ``count``."""
    lanes = _lanes(dtype)
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
    # A zero-free array's planes go straight into it, else into the
    # non-zero values that one scatter then places.
    flat = (np.empty if kept == count else np.zeros)(count, dtype=dtype)
    values = flat if kept == count else np.empty(kept, lanes)
    bytes_of = values.view(np.uint8).reshape(kept, lanes.itemsize)
    # Plane by plane, not one transposing copy, as for ``bp``.
    for byte, plane in enumerate(planes):
        bytes_of[:, byte] = plane
    if kept != count:
        flat.view(lanes)[np.flatnonzero(nonzero)] = values
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


def compressed_size(arrays: Dict[str, np.ndarray],
                    wire_format: str = WIRE_FORMAT_ZLIB) -> int:
    """Size in bytes of a frame holding ``arrays`` in the given framing.

    Deliberately *not* an independent estimate: the size is measured by
    running the one true serializer (:func:`serialize_message`), so it can
    never drift from what actually goes on the wire — for either framing.
    Useful for validating the simulator's compression-ratio assumption
    against the real wire format and for sizing raw-framing deployments.
    """
    return len(serialize_message(Message(kind=KIND_FRAME, arrays=dict(arrays)),
                                 wire_format=wire_format))
