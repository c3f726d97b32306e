"""Worker runtime: the stream / shared-memory transports + the worker side.

This module is the process-side half of the process-parallel serving tier
(see :mod:`repro.serving.sharding` for the in-server pool that drives it).
A *shard* is a worker process holding its own
:class:`~repro.serving.repository.ModelRepository` — its own models,
compiled plans and buffer arenas — so N shards execute N frames truly in
parallel on N cores, instead of time-slicing one GIL.  A cluster node
(:mod:`repro.runtime.node`) is the same worker behind a TCP socket, and
both tiers share what this module defines: the stream endpoint, the worker
loop (:class:`ReplicaCore`) and its handshake.

Handshake
---------
Every worker starts *empty*.  The parent's first envelope on a link is a
**hello**: one ``publish`` envelope whose ``meta`` is the full
:func:`bootstrap_meta` dict.  The worker builds its :class:`ReplicaCore`
from it (a node that already holds one installs the hello's snapshot if it
is newer), answers ``ready`` and serves the envelope loop
(``_serve_worker``, which the shard main and each node connection run).

Transport
---------
Frames cross the process boundary as whole :class:`~repro.system.messages.
Message` envelopes in the versioned **raw** wire framing (the same layout the
socket wire speaks): a JSON header plus each array's C-contiguous bytes.
Nothing is pickled and nothing is re-encoded — moving a frame into a shard
costs the raw-framing header plus straight memcpys of the array payloads.
Each envelope travels as ``[u32 length][raw frame]``.

Two transports carry a shard's framed bytes:

``"pipe"`` (default)
    One OS pipe per direction (the descriptors of a
    ``multiprocessing.Pipe``, which only carries them across spawn), each
    end driven by a :class:`_StreamEndpoint` — the class that also drives
    both ends of a node's TCP socket: non-blocking ``os.writev``/``os.read``
    and ``poll``.  A waiting side
    sleeps in the kernel and wakes the moment bytes (or room) arrive — no
    spinning, no sleep quantum between a reply and its reader — and the
    kernel orders the bytes, so the transport needs no store-ordering
    assumption from the CPU.  Write deadline, in two parts (see
    :meth:`_StreamEndpoint.send_bytes`):

    * **shed before the first byte** — when not one byte of an envelope
      could be written within the shed bound, the send raises
      :class:`TimeoutError` with nothing written: the stream stays in sync
      and the caller may shed the request (``BackpressureError``);
    * **complete or crash** — once its first byte is in, an envelope
      completes within the send's ``timeout`` or the send raises
      :class:`ConnectionError`: a half-written envelope has desynced the
      stream, so the link is dead.

    A closed peer (``EPIPE`` on a write, end-of-file on a read) raises
    :class:`ConnectionError` at once on either end — a crash at the parent,
    an orderly exit at the worker.  So does a length prefix above the
    endpoint's message limit (``MAX_MESSAGE_BYTES`` by default), before a
    byte is buffered toward it; a sender refuses such an envelope with
    :class:`ValueError` before writing its first byte.

``"shm"`` (opt-in)
    A pair of preallocated single-producer/single-consumer ring buffers in
    ``multiprocessing.shared_memory`` per shard (request ring + response
    ring).  The ring head is published once per *complete* message, so the
    consumer always observes whole envelopes, and a message is written
    whole or not at all.  Layout::

        [ head u32 | pad | tail u32 | pad | ... data (capacity bytes) ... ]
           (head/tail are modulo-2^32 byte counters; the data region is
            addressed modulo the capacity, messages may wrap)

    The ring is deliberately lock-free: only the producer stores ``head``
    and only the consumer stores ``tail`` (each a single aligned 4-byte
    write), and waiting sides poll with a short spin-then-sleep loop — so a
    waiter wakes up to one sleep quantum late.  No cross-process lock or
    condition means a worker killed at *any* point — even mid-wait — can
    never deadlock the parent; ``multiprocessing``'s ``Condition.notify`` by
    contrast blocks until woken waiters acknowledge and wedges forever when
    a waiter was SIGKILLed.

    Counter-store rule: head and tail are stored through a cast
    ``memoryview`` (one 4-byte item assignment), never with
    ``struct.pack_into`` — CPython zero-fills ``pack_into``'s destination
    before packing, so the other process would transiently read a counter
    of 0, take an empty ring for a full one and parse stale bytes as a
    length prefix (the "undecodable response" worker losses recorded as
    observation 4 of ``benchmarks/e2e/README.md``).

    Ordering caveat (this transport only): publishing the head after the
    payload memcpy relies on store ordering the producer's CPU provides —
    guaranteed on x86/x86-64 (TSO) but not architecturally on
    weakly-ordered ISAs such as ARM (pure Python has no release fence to
    offer).  In CPython practice the interpreter's own synchronization
    between the stores makes reordering unobserved, and a torn read would
    surface loudly as an undecodable envelope (the shard is then treated as
    crashed, never as silently wrong data).  The default pipe transport
    inherits the kernel's pipe semantics and carries no such caveat.

Crash behavior: the parent-side pool detects a dead worker (a closed pipe,
or the reader timeout + liveness poll) and fails that shard's in-flight
requests with :class:`ShardCrashedError` — a :class:`ConnectionError` — so
a crashed shard produces clean per-frame errors instead of hung clients.  A
worker likewise exits when its parent disappears.
"""

from __future__ import annotations

import math
import os
import select
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..system.messages import (KIND_ERROR, KIND_FRAME, KIND_RESULT, KIND_STOP,
                               MAX_MESSAGE_BYTES, Message, NODE_KIND_PING,
                               NODE_KIND_PONG, SHARD_KIND_PUBLISH,
                               SHARD_KIND_PUBLISHED, SHARD_KIND_READY,
                               WIRE_FORMAT_RAW, _parse_prefix,
                               deserialize_message, pack_frames,
                               serialize_message, unpack_frames)

try:  # Not every platform ships POSIX shared memory (notably some BSDs
    # and restricted containers); the serving layer then falls back to
    # in-process serving (or the pipe transport when asked for explicitly).
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform-dependent
    _shared_memory = None

#: 4-byte big-endian length prefix in front of every ring/pipe message.
_FRAME_PREFIX = ">I"
_FRAME_PREFIX_BYTES = struct.calcsize(_FRAME_PREFIX)
#: Largest single stream read: the default Linux pipe capacity, so one
#: read drains whatever the writer managed to put in.
_STREAM_READ_BYTES = 1 << 16
#: Ring header: head (offset 0) and tail (offset 8) u32 byte counters,
#: each padded to 8 bytes so the two writers never share a cache line word.
_RING_HEADER = 16
#: Counters wrap modulo 2^32; capacities stay far below that.
_COUNTER_MASK = 0xFFFFFFFF
#: How long a waiting side spins before it starts sleeping (seconds).
_SPIN_S = 100e-6
#: Sleep quantum once spinning gave up — bounds idle CPU burn while keeping
#: worst-case added latency well under typical frame service times.
_POLL_S = 500e-6

#: Transport identifiers accepted by ``ShardingConfig.transport``.
SHARD_TRANSPORT_SHM = "shm"
SHARD_TRANSPORT_PIPE = "pipe"
SHARD_TRANSPORTS = (SHARD_TRANSPORT_SHM, SHARD_TRANSPORT_PIPE)
#: The pipe transport drives POSIX descriptors (Windows pipes are handles).
_PIPE_AVAILABLE = hasattr(select, "poll") and hasattr(os, "writev")


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` exists on this platform."""
    return _shared_memory is not None


def transport_available(transport: str) -> bool:
    """Whether ``transport`` can be used on this platform."""
    if transport == SHARD_TRANSPORT_SHM:
        return shm_available()
    return transport == SHARD_TRANSPORT_PIPE and _PIPE_AVAILABLE


class ShardCrashedError(ConnectionError):
    """A shard worker process died (or became unreachable) mid-request."""


@dataclass
class ShardStats:
    """Parent-side view of one shard's serving counters.

    Folded into :class:`~repro.system.engine.EdgeServerStats` by a sharded
    server so operators see per-core utilization and crashed shards in the
    same snapshot as the socket-level statistics.
    """

    shard_id: int
    pid: Optional[int]
    alive: bool
    frames: int
    #: Requests shipped to the shard, one envelope each (a lone frame is a
    #: batch of one), so ``frames / batches`` is the mean request size.
    batches: int
    errors: int
    #: Engine time the shard reported for its executed frames (excludes
    #: transport; the server's ``mean_service_time_s`` includes it).
    service_time_s: float
    bytes_to_shard: int
    bytes_from_shard: int
    #: Snapshot version the shard last acknowledged.
    snapshot_version: int
    #: Times this slot was respawned by the supervisor (0 = original worker).
    restarts: int = 0
    #: True once the supervisor stopped respawning this slot (crash loop).
    quarantined: bool = False
    #: Why the worker behind this slot most recently died, if it ever did.
    last_death_reason: Optional[str] = None


# ----------------------------------------------------------------------
# Shared-memory ring transport
# ----------------------------------------------------------------------
class _RingHandle:
    """Picklable attachment info for one ring (crosses via Process args)."""

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity


class ShmRing:
    """Single-producer/single-consumer byte ring over shared memory.

    Exactly one process writes (``send_bytes``) and exactly one reads
    (``recv_bytes``); multi-threaded producers must serialize externally
    (the pool holds a per-shard send lock).  Head and tail are modulo-2^32
    byte counters in the block header; only the producer ever stores the
    head and only the consumer the tail — each a single aligned 4-byte
    write — and the head is published once per *complete* message, so a
    reader never observes a partial envelope.  Waiting is spin-then-sleep
    polling: with no cross-process lock anywhere, a peer killed at any
    point can never wedge this side (see the module docstring).
    """

    def __init__(self, shm, capacity: int, owner: bool) -> None:
        self._shm = shm
        self._buf = shm.buf
        # Head (item 0) and tail (item 2) as native u32 items of a cast
        # view — never ``struct.pack_into``, which zero-fills first (the
        # counter-store rule in the module docstring).
        self._counters = shm.buf[:_RING_HEADER].cast("I")
        self.capacity = capacity
        self._owner = owner
        self._closed = False

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        if _shared_memory is None:  # pragma: no cover - platform-dependent
            raise RuntimeError("multiprocessing.shared_memory is not "
                               "available on this platform")
        # Power-of-two capacity keeps ``position % capacity`` continuous
        # across the u32 counter wraparound (2^32 is a multiple of the
        # capacity, so the mapping never jumps).
        capacity = 1 << max(int(capacity) - 1, 1).bit_length()
        shm = _shared_memory.SharedMemory(create=True,
                                          size=_RING_HEADER + capacity)
        shm.buf[:_RING_HEADER] = b"\x00" * _RING_HEADER
        return cls(shm, capacity, owner=True)

    def handle(self) -> _RingHandle:
        return _RingHandle(self._shm.name, self.capacity)

    @classmethod
    def attach(cls, handle: _RingHandle) -> "ShmRing":
        # Attaching re-registers the segment with the resource tracker the
        # worker inherits from the parent; that tracker is shared and its
        # cache is a set, so the parent's single unlink() still retires the
        # segment exactly once — no extra bookkeeping needed here.
        shm = _shared_memory.SharedMemory(name=handle.name)
        return cls(shm, handle.capacity, owner=False)

    # -- counters ------------------------------------------------------
    def _head(self) -> int:
        return self._counters[0]

    def _tail(self) -> int:
        return self._counters[2]

    def _set_head(self, value: int) -> None:
        self._counters[0] = value & _COUNTER_MASK

    def _set_tail(self, value: int) -> None:
        self._counters[2] = value & _COUNTER_MASK

    def _used(self) -> int:
        return (self._head() - self._tail()) & _COUNTER_MASK

    # -- data region ---------------------------------------------------
    def _copy_in(self, data, position: int) -> None:
        offset = position % self.capacity
        first = min(len(data), self.capacity - offset)
        start = _RING_HEADER + offset
        self._buf[start:start + first] = data[:first]
        if first < len(data):
            rest = len(data) - first
            self._buf[_RING_HEADER:_RING_HEADER + rest] = data[first:]

    def _copy_out(self, position: int, size: int) -> bytes:
        offset = position % self.capacity
        first = min(size, self.capacity - offset)
        start = _RING_HEADER + offset
        chunk = bytes(self._buf[start:start + first])
        if first < size:
            rest = size - first
            chunk += bytes(self._buf[_RING_HEADER:_RING_HEADER + rest])
        return chunk

    # -- blocking send / recv ------------------------------------------
    @staticmethod
    def _wait(predicate, deadline: float) -> bool:
        """Spin briefly, then sleep-poll ``predicate`` until the deadline."""
        spin_until = time.monotonic() + _SPIN_S
        while True:
            if predicate():
                return True
            now = time.monotonic()
            if now >= deadline:
                return False
            if now >= spin_until:
                time.sleep(min(_POLL_S, max(deadline - now, 0.0)))

    def send_bytes(self, blob: bytes, timeout: float = 30.0,
                   shed_timeout: Optional[float] = None) -> int:
        """Append one length-prefixed message; returns bytes written.

        Raises :class:`ValueError` when the message can never fit (larger
        than the whole ring) and :class:`TimeoutError` when the consumer
        did not free enough space within ``timeout`` (or the shorter
        ``shed_timeout``) — nothing is written then: a message lands whole
        or not at all.
        """
        if shed_timeout is not None:
            timeout = min(shed_timeout, timeout)
        needed = _FRAME_PREFIX_BYTES + len(blob)
        if needed > self.capacity:
            raise ValueError(
                f"envelope of {len(blob)} bytes exceeds the "
                f"{self.capacity - _FRAME_PREFIX_BYTES}-byte message limit "
                f"of the {self.capacity}-byte shard ring — raise "
                "ShardingConfig.ring_bytes for requests this large")
        deadline = time.monotonic() + timeout
        if not self._wait(lambda: self.capacity - self._used() >= needed,
                          deadline):
            raise TimeoutError(
                f"shard ring full for {timeout:.1f}s (consumer stalled "
                "or dead)")
        head = self._head()
        self._copy_in(struct.pack(_FRAME_PREFIX, len(blob)), head)
        self._copy_in(blob, head + _FRAME_PREFIX_BYTES)
        # Publishing the head is the commit point: a single aligned 4-byte
        # store, issued only after the payload is fully in place.
        self._set_head(head + needed)
        return needed

    def recv_bytes(self, timeout: float = 0.2) -> Optional[bytes]:
        """Pop one message, or ``None`` when nothing arrived in ``timeout``.

        Returning ``None`` (instead of raising) lets the caller interleave
        liveness checks of the peer process with the wait.
        """
        deadline = time.monotonic() + timeout
        if not self._wait(lambda: self._used() >= _FRAME_PREFIX_BYTES,
                          deadline):
            return None
        tail = self._tail()
        (length,) = struct.unpack(
            _FRAME_PREFIX, self._copy_out(tail, _FRAME_PREFIX_BYTES))
        # The producer publishes the head once per whole message, so the
        # payload is guaranteed present the moment the prefix is.
        blob = self._copy_out(tail + _FRAME_PREFIX_BYTES, length)
        self._set_tail(tail + _FRAME_PREFIX_BYTES + length)
        return blob

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        counters, self._counters, self._buf = self._counters, None, None
        try:
            # The cast view is an export of ``shm.buf``: release it first
            # or ``shm.close()`` refuses to unmap.
            counters.release()
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            # BufferError: a reader thread still holds a view for a few
            # more microseconds; the mapping is reclaimed at process exit.
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# Channel: one shard's bidirectional transport endpoint
# ----------------------------------------------------------------------
class ShardChannel:
    """One side of a shard's request/response transport.

    The parent sends requests and receives responses; the worker side is
    constructed with the directions swapped (see :func:`attach_channel`),
    so both ends expose the same ``send_bytes``/``recv_bytes`` surface.
    """

    def __init__(self, send, recv) -> None:
        self._send = send
        self._recv = recv

    def send_bytes(self, blob: bytes, timeout: float = 30.0,
                   shed_timeout: Optional[float] = None) -> int:
        """Ship one envelope.  :class:`TimeoutError` means nothing was
        written (within ``shed_timeout``, when given, else ``timeout``), so
        the caller may shed it; :class:`ConnectionError` means the peer is
        gone or the stream broke; :class:`ValueError` means the envelope is
        above the channel's message limit (nothing written either)."""
        return self._send.send_bytes(blob, timeout=timeout,
                                     shed_timeout=shed_timeout)

    def recv_bytes(self, timeout: float = 0.2) -> Optional[bytes]:
        return self._recv.recv_bytes(timeout=timeout)

    def close(self) -> None:
        self._send.close()
        self._recv.close()

    def unlink(self) -> None:
        self._send.unlink()
        self._recv.unlink()


class _StreamEndpoint:
    """Length-prefixed envelopes over one stream descriptor.

    Every stream hop of the worker tiers is one of these: each of a shard's
    two pipes has one at either end, and a node hop's connected TCP socket
    has one at the router and one at the node, carrying both directions.
    ``conn`` owns the descriptor — a ``multiprocessing`` ``Connection``,
    which only carries a pipe end across spawn, or a ``socket`` — and all
    I/O is non-blocking ``os.writev``/``os.read`` on the raw descriptor with
    ``poll`` as the wait, so a waiting side sleeps in the kernel and wakes
    when the peer acts, and every write honors a deadline.  One sending and
    one receiving thread at a time (the link's send lock, the lone reader
    thread), each waiting on its own poller.

    ``max_bytes`` is the message limit of the stream, reported as
    ``max_message_bytes``: a larger envelope is refused before its first
    byte is written, and a length prefix announcing one is refused with
    :class:`ConnectionError` before any byte is buffered toward it.
    """

    def __init__(self, conn, max_bytes: int = MAX_MESSAGE_BYTES) -> None:
        self._conn = conn
        self._fd = conn.fileno()
        os.set_blocking(self._fd, False)
        self._readable = select.poll()
        self._readable.register(self._fd, select.POLLIN)
        self._writable = select.poll()
        self._writable.register(self._fd, select.POLLOUT)
        self.max_message_bytes = max_bytes
        #: Read side: bytes received but not yet returned as a whole
        #: envelope (a partial one survives a timed-out ``recv_bytes``).
        self._inbox = bytearray()

    @staticmethod
    def _wait(poller, deadline: float) -> bool:
        """Sleep in the kernel until the descriptor is ready (or hung up,
        which the next read/write reports) or ``deadline`` passes."""
        remaining = deadline - time.monotonic()
        return (remaining > 0
                and bool(poller.poll(math.ceil(remaining * 1e3))))

    def send_bytes(self, blob: bytes, timeout: float = 30.0,
                   shed_timeout: Optional[float] = None) -> int:
        """Write one envelope; returns the bytes written.

        Raises :class:`ValueError`, with nothing written, when ``blob`` is
        above the message limit, and :class:`TimeoutError` when not one
        byte could be written within ``shed_timeout`` (``timeout`` when not
        given) — the stream is untouched, so the envelope may be shed.
        Once the first byte is in, the envelope completes within
        ``timeout`` of the call or this raises :class:`ConnectionError`: a
        half-written envelope has desynced the stream (a wedged-but-alive
        reader), so the link is dead.  A closed reader raises
        :class:`ConnectionError` too.
        """
        if len(blob) > self.max_message_bytes:
            raise ValueError(
                f"envelope of {len(blob)} bytes exceeds the "
                f"{self.max_message_bytes}-byte message limit of the "
                "stream (its receiver's cap on one envelope)")
        prefix = struct.pack(_FRAME_PREFIX, len(blob))
        payload = memoryview(blob)
        total = _FRAME_PREFIX_BYTES + len(blob)
        started = time.monotonic()
        deadline = started + timeout
        first_deadline = (deadline if shed_timeout is None
                          else started + min(shed_timeout, timeout))
        written = 0
        while written < total:
            try:
                if written < _FRAME_PREFIX_BYTES:
                    written += os.writev(self._fd,
                                         (prefix[written:], payload))
                else:
                    written += os.write(
                        self._fd, payload[written - _FRAME_PREFIX_BYTES:])
                continue
            except BlockingIOError:
                pass
            except OSError as exc:  # EPIPE: the reading end is closed
                raise ConnectionError(f"stream closed: {exc}") from exc
            if self._wait(self._writable,
                          first_deadline if written == 0 else deadline):
                continue
            if written == 0:
                raise TimeoutError(
                    "stream full for "
                    f"{first_deadline - started:.3f}s (reader stalled)")
            raise ConnectionError(
                f"stream stalled mid-envelope: {written} of {total} "
                f"bytes written within {timeout:.3f}s")
        return total

    def _pop(self) -> Optional[bytes]:
        """The next whole envelope out of the inbox, if one is complete."""
        inbox = self._inbox
        if len(inbox) < _FRAME_PREFIX_BYTES:
            return None
        end = _FRAME_PREFIX_BYTES + _parse_prefix(
            inbox[:_FRAME_PREFIX_BYTES], self.max_message_bytes)
        if len(inbox) < end:
            return None
        with memoryview(inbox) as view:
            blob = bytes(view[_FRAME_PREFIX_BYTES:end])
        del inbox[:end]
        return blob

    def recv_bytes(self, timeout: float = 0.2) -> Optional[bytes]:
        """Pop one envelope, or ``None`` when none completed in ``timeout``.

        Raises :class:`ConnectionError` at end-of-file (the writing end is
        closed, so nothing more can ever arrive) and on a length prefix
        above the message limit (the stream beyond it is unparseable).
        """
        deadline = None
        while True:
            blob = self._pop()
            if blob is not None:
                return blob
            try:
                chunk = os.read(self._fd, _STREAM_READ_BYTES)
            except BlockingIOError:
                if deadline is None:
                    deadline = time.monotonic() + timeout
                if not self._wait(self._readable, deadline):
                    return None
                continue
            except OSError as exc:
                raise ConnectionError(f"stream read failed: {exc}") from exc
            if not chunk:
                raise ConnectionError("stream closed by peer")
            self._inbox += chunk

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass

    def unlink(self) -> None:  # streams have no backing object to unlink
        pass


def create_channel(ctx, transport: str, capacity: int
                   ) -> Tuple[ShardChannel, Tuple]:
    """Build a parent-side channel plus the picklable worker-side spec.

    ``capacity`` sizes each shm ring.  The spec travels to the worker
    through ``Process`` args (the only context in which multiprocessing
    synchronization primitives pickle) and is turned back into a channel by
    :func:`attach_channel`.
    """
    if transport == SHARD_TRANSPORT_SHM:
        request = ShmRing.create(capacity)
        response = ShmRing.create(capacity)
        parent = ShardChannel(request, response)
        spec = (SHARD_TRANSPORT_SHM, request.handle(), response.handle())
        return parent, spec
    if transport == SHARD_TRANSPORT_PIPE:
        request_rx, request_tx = ctx.Pipe(duplex=False)
        response_rx, response_tx = ctx.Pipe(duplex=False)
        parent = ShardChannel(_StreamEndpoint(request_tx),
                              _StreamEndpoint(response_rx))
        spec = (SHARD_TRANSPORT_PIPE, request_rx, response_tx)
        return parent, spec
    raise ValueError(f"unknown shard transport {transport!r} "
                     f"(expected one of {SHARD_TRANSPORTS})")


def attach_channel(spec: Tuple) -> ShardChannel:
    """Worker-side channel from a :func:`create_channel` spec."""
    kind = spec[0]
    if kind == SHARD_TRANSPORT_SHM:
        _, request_handle, response_handle = spec
        return ShardChannel(ShmRing.attach(response_handle),
                            ShmRing.attach(request_handle))
    if kind == SHARD_TRANSPORT_PIPE:
        _, request_rx, response_tx = spec
        return ShardChannel(_StreamEndpoint(response_tx),
                            _StreamEndpoint(request_rx))
    raise ValueError(f"unknown shard channel spec {kind!r}")


# ----------------------------------------------------------------------
# Zoo payloads (JSON across the process boundary — no pickled live objects)
# ----------------------------------------------------------------------
def zoo_to_payload(zoo) -> Dict:
    """JSON form of an :class:`~repro.core.zoo.ArchitectureZoo`."""
    return {"entries": [entry.to_dict() for entry in zoo]}


def zoo_from_payload(payload: Dict):
    from ..core.zoo import ArchitectureZoo, ZooEntry
    return ArchitectureZoo([ZooEntry.from_dict(entry)
                            for entry in payload["entries"]])


def bootstrap_meta(repository) -> Dict:
    """The bootstrap dict for ``repository``'s current snapshot.

    Everything a replica needs to rebuild bit-identical serving state from
    scratch — every worker, shard or node, receives it as the ``meta`` of
    its hello envelope.
    """
    snapshot = repository.snapshot()
    return {
        "zoo": zoo_to_payload(snapshot.zoo),
        "version": snapshot.version,
        "in_dim": repository.in_dim,
        "num_classes": repository.num_classes,
        "runtime": repository.runtime.to_dict(),
        "seed": repository.seed,
        "retain": repository.retain,
    }


# ----------------------------------------------------------------------
# Worker process main
# ----------------------------------------------------------------------
def _parent_alive() -> bool:
    import multiprocessing
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


class PeerClosed(Exception):
    """Raised by :meth:`_EnvelopeChannel.read_envelope` when the link is
    gone: the loop just exits, whereas undecodable bytes on a live link
    are answered with one error envelope first."""


class _EnvelopeChannel:
    """The worker end of a byte channel (shm ring, pipe or TCP socket):
    whole envelopes in, raw-framed envelopes out — the worker-side mirror
    of the parent's :class:`~repro.serving.workers.WorkerLink`."""

    def __init__(self, channel) -> None:
        self.channel = channel

    def read_envelope(self, timeout: float) -> Optional[Message]:
        """One decoded envelope, or ``None`` when none arrived in time."""
        try:
            blob = self.channel.recv_bytes(timeout=timeout)
        except ConnectionError as exc:
            raise PeerClosed(str(exc)) from exc
        return None if blob is None else deserialize_message(blob)

    def reply(self, message: Message) -> None:
        self.channel.send_bytes(serialize_message(message,
                                                  wire_format=WIRE_FORMAT_RAW))

    def reply_error(self, corr: int, exc: BaseException) -> None:
        """Answer ``corr`` with ``exc`` and the traceback being handled."""
        try:
            self.reply(Message(kind=KIND_ERROR, frame_id=corr,
                               meta={"error": f"{type(exc).__name__}: {exc}",
                                     "traceback": traceback.format_exc()}))
        except Exception:  # peer gone: nothing left to tell
            pass


class ReplicaCore:
    """Transport-agnostic replica worker: bootstrap + message loop.

    Everything a shard worker does *between* transport reads and writes
    lives here — building the repository from a JSON bootstrap, executing
    requests, installing replicated snapshots, answering heartbeats —
    parameterized over an :class:`_EnvelopeChannel`.  The
    shard worker (:func:`_shard_main`) and the TCP cluster
    node (:mod:`repro.runtime.node`) are the same core behind the same
    handshake (:func:`_serve_worker`) on different channels, so their
    guarantees (same seed → bit-identical weights, idempotent publish, pin
    checks) are one implementation, not two.
    """

    def __init__(self, bootstrap: Dict) -> None:
        # Deferred imports: this module must stay importable without
        # dragging the serving facade in (repro.serving imports
        # repro.runtime).
        from ..serving.config import RuntimeConfig
        from ..serving.repository import ModelRepository
        self.repository = ModelRepository(
            in_dim=int(bootstrap["in_dim"]),
            num_classes=int(bootstrap["num_classes"]),
            runtime=RuntimeConfig.from_dict(bootstrap["runtime"]),
            seed=int(bootstrap["seed"]),
            retain=int(bootstrap["retain"]))
        self.repository.publish(zoo_from_payload(bootstrap["zoo"]),
                                version=int(bootstrap["version"]))
        #: Frames served over this core's lifetime (reported in pongs).
        self.frames_served = 0

    def ready_meta(self, ident: int) -> Dict:
        """Metadata of the READY envelope announcing this core serves."""
        return {"pid": os.getpid(), "shard_id": ident,
                "version": self.repository.version}

    def serve(self, link: _EnvelopeChannel) -> None:
        """Run the message loop until ``stop``, a dead peer, or bad bytes.

        Envelopes are read from and answered over ``link``; the parent
        process is polled on idle so an orphaned worker exits instead of
        spinning forever.
        """
        from ..serving.repository import SNAPSHOT_META_KEY
        repository = self.repository
        reply, reply_error = link.reply, link.reply_error

        def check_pin(frame_meta) -> None:
            """Fail loudly on a pin this replica cannot honor yet.

            A frame pinned to a version *newer* than anything this replica
            holds means snapshot replication lagged behind the parent swap
            (a startup race the app guards against); the repository's
            normal fallback would silently answer it from an older
            snapshot — numerically wrong.  An error envelope is the honest
            outcome.
            """
            pinned = (frame_meta.get(SNAPSHOT_META_KEY)
                      if isinstance(frame_meta, dict) else None)
            if pinned is not None and int(pinned) > repository.version:
                raise RuntimeError(
                    f"frame pinned to snapshot v{pinned} but this replica "
                    f"only holds up to v{repository.version} — snapshot "
                    "replication lagged behind the parent swap")

        def handle_request(message: Message) -> None:
            corr = message.frame_id
            try:
                entry = message.meta["entry"]
                frames = unpack_frames(message.arrays, message.meta["frames"])
                for _, frame_meta in frames:
                    check_pin(frame_meta)
                started = time.perf_counter()
                results = repository.batch_router(entry)(frames)
                elapsed = time.perf_counter() - started
                arrays, metas = pack_frames(results)
            except Exception as exc:
                # One error for the whole request: the parent's batched
                # router raises, and the engine re-runs the frames one by
                # one so the failure isolates to the offending one (the
                # same fallback contract in-process serving has).
                reply_error(corr, exc)
                return
            self.frames_served += len(results)
            try:
                reply(Message(kind=KIND_RESULT, frame_id=corr, arrays=arrays,
                              meta={"frames": metas,
                                    "service_time_s": elapsed}))
            except Exception as exc:
                # A result that cannot be shipped (above the channel's
                # message limit, parent stalled) must degrade to one error
                # for the request, not kill the whole worker.
                reply_error(corr, exc)

        def handle_publish(message: Message) -> None:
            corr = message.frame_id
            version = int(message.meta["version"])
            try:
                if version > repository.version:
                    repository.publish(
                        zoo_from_payload(message.meta["zoo"]),
                        version=version)
                # A re-broadcast of an installed (or older) version is an
                # idempotent no-op: startup re-syncs can never regress
                # state.
                reply(Message(kind=SHARD_KIND_PUBLISHED, frame_id=corr,
                              meta={"version": repository.version}))
            except Exception as exc:
                reply_error(corr, exc)

        def handle_ping(message: Message) -> None:
            try:
                reply(Message(kind=NODE_KIND_PONG,
                              frame_id=message.frame_id,
                              meta={"version": repository.version,
                                    "frames": self.frames_served,
                                    "pid": os.getpid()}))
            except Exception:  # peer gone mid-heartbeat: the probe's
                pass           # timeout handles it

        while True:
            try:
                message = link.read_envelope(0.5)
            except PeerClosed:  # orderly shutdown: nothing to report
                break
            except Exception as exc:  # bad bytes: broken protocol
                reply_error(0, exc)
                break
            if message is None:
                if not _parent_alive():
                    break  # orphaned worker: exit instead of spinning
                continue
            if message.kind == KIND_STOP:
                break
            if message.kind == KIND_FRAME:
                handle_request(message)
            elif message.kind == SHARD_KIND_PUBLISH:
                handle_publish(message)
            elif message.kind == NODE_KIND_PING:
                handle_ping(message)
            # Unknown kinds are ignored: forward compatibility.


class _CoreHolder:
    """A worker's single shared core, built lazily from the first hello."""

    def __init__(self) -> None:
        self.core: Optional[ReplicaCore] = None
        self.lock = threading.Lock()

    def apply_hello(self, meta: Dict) -> ReplicaCore:
        with self.lock:
            if self.core is None:
                self.core = ReplicaCore(meta)
            else:
                version = int(meta["version"])
                if version > self.core.repository.version:
                    self.core.repository.publish(
                        zoo_from_payload(meta["zoo"]), version=version)
            return self.core


def _serve_worker(channel, holder: _CoreHolder, ident: int) -> None:
    """The worker side of one link, a shard's or a node connection's.

    The hello handshake (see the module docstring) goes through ``holder``,
    which keeps a worker's one core across its links: built from the first
    hello, re-synced by a later one, never regressed.  The worker answers
    ``ready`` (pid, ``ident``, installed version), then serves until
    ``stop``, a dead peer or bad bytes, and always closes ``channel``.
    """
    link = _EnvelopeChannel(channel)
    try:
        hello = link.read_envelope(30.0)
        if hello is None or hello.kind != SHARD_KIND_PUBLISH:
            return  # not a parent speaking our handshake: drop the link
        try:
            core = holder.apply_hello(hello.meta)
        except Exception as exc:
            link.reply_error(hello.frame_id, exc)
            return
        link.reply(Message(kind=SHARD_KIND_READY, frame_id=hello.frame_id,
                           meta=core.ready_meta(ident)))
        core.serve(link)
    except Exception:  # link-scoped failure: the link is dead anyway
        pass
    finally:
        channel.close()


def _shard_main(shard_id: int, spec: Tuple) -> None:
    """Entry point of one shard worker process (spawn-safe, module-level).

    The worker starts empty; the parent's hello carries everything needed
    to rebuild the serving state from scratch — zoo payload, snapshot
    version, model dimensions, runtime config and seed — so the worker's
    models are bit-identical twins of the parent's (same seed, same
    builder) and shard execution is numerically equivalent to in-process
    serving.
    """
    _serve_worker(attach_channel(spec), _CoreHolder(), shard_id)
