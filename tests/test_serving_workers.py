"""The worker-link contract, written once and run over every byte channel.

:class:`~repro.serving.workers.WorkerLink` is the one parent-side RPC
mechanism behind both scaling tiers, so its guarantees are pinned here
against an in-test peer — no worker process, no model — over each
transport it runs on: the shared-memory ring and the pipe of the shard
tier, and the socket of the cluster tier — the pipe and the socket driven
by the one stream endpoint.  The tier suites
(``test_serving_shards.py``, ``test_serving_cluster.py``,
``test_serving_selfheal.py``) pin what a *pool* adds on top.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import struct
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import wait_until
from repro.core import Architecture, ArchitectureZoo, ZooEntry
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.runtime.node import NodeCrashedError
from repro.runtime.shard import (ReplicaCore, ShardChannel,
                                 ShardCrashedError, ShmRing, _EnvelopeChannel,
                                 _StreamEndpoint, attach_channel,
                                 bootstrap_meta, create_channel,
                                 shm_available)
from repro.serving import ModelRepository
from repro.serving.repository import SNAPSHOT_META_KEY
from repro.serving.workers import WorkerLink, WorkerPool
from repro.system.scheduler import BackpressureError
from repro.system.messages import (KIND_ERROR, KIND_FRAME, KIND_RESULT,
                                   KIND_STOP, MAX_MESSAGE_BYTES, Message,
                                   NODE_KIND_PING, NODE_KIND_PONG,
                                   SHARD_KIND_READY, pack_frames,
                                   unpack_frames)

#: Per-message bound of the bounded test channels (ring capacity / cap).
LIMIT = 1 << 16


def _channel_pair(kind: str, limit: int = LIMIT):
    """(parent side, worker side, the tier's crash error) for ``kind``;
    ``limit`` is the message limit of a stream (pipe or socket)."""
    if kind == "socket":
        ours, theirs = socket.socketpair()
        return (_StreamEndpoint(ours, limit), _StreamEndpoint(theirs, limit),
                NodeCrashedError)
    if kind == "pipe":  # create_channel's pipes, with the limit given
        request_rx, request_tx = multiprocessing.Pipe(duplex=False)
        response_rx, response_tx = multiprocessing.Pipe(duplex=False)
        return (ShardChannel(_StreamEndpoint(request_tx, limit),
                             _StreamEndpoint(response_rx, limit)),
                ShardChannel(_StreamEndpoint(response_tx, limit),
                             _StreamEndpoint(request_rx, limit)),
                ShardCrashedError)
    ctx = multiprocessing.get_context("spawn")
    parent, spec = create_channel(ctx, kind, LIMIT)
    return parent, attach_channel(spec), ShardCrashedError


class _Peer(_EnvelopeChannel):
    """The worker end of the channel — the adapter real workers read and
    answer through — scripted from the test thread."""

    def recv(self, timeout: float = 5.0):
        return self.read_envelope(timeout)

    def result(self, request: Message, *values: float) -> None:
        """Answer ``request`` with one result frame per value."""
        arrays, metas = pack_frames([({"y": np.full(2, value)},
                                      {"value": value}) for value in values])
        self.reply(Message(kind=KIND_RESULT, frame_id=request.frame_id,
                           arrays=arrays,
                           meta={"frames": metas, "service_time_s": 0.25}))


@pytest.fixture(params=[
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="no shared memory")),
    "pipe", "socket"])
def wired(request):
    """A ready link, its scripted peer and the crash-hook call log."""
    parent, worker, crash_error = _channel_pair(request.param)
    crashes = []
    link = WorkerLink("worker 0", parent, crash_error=crash_error,
                      request_timeout_s=10.0,
                      on_crash=lambda: crashes.append(1))
    peer = _Peer(worker)
    peer.reply(Message(kind=SHARD_KIND_READY, meta={"version": 3, "pid": 7}))
    link.wait_ready(5.0)
    try:
        yield link, peer, crashes
    finally:
        link.stop()
        worker.close()


class _Call(threading.Thread):
    """One link request on its own thread; keeps the result or the error."""

    def __init__(self, fn, *args) -> None:
        super().__init__(daemon=True)
        self.outcome = None
        self.error = None
        self._call = (fn, args)
        self.start()

    def run(self) -> None:
        fn, args = self._call
        try:
            self.outcome = fn(*args)
        except Exception as exc:
            self.error = exc

    def done(self, timeout: float = 5.0) -> "_Call":
        self.join(timeout=timeout)
        assert not self.is_alive(), "link request hung"
        return self


def _frame(value: float):
    return {"x": np.full(3, value)}, {"tag": value}


def _request_one(link: WorkerLink, frame):
    """A lone frame through the link: a request of one, its result back."""
    return link.request("m", [frame])[0]


def test_ready_handshake_reports_version_and_pid(wired):
    link, _, crashes = wired
    assert link.alive and link.snapshot_version == 3 and link.pid == 7
    assert link.counters()["alive"] and not crashes


def test_replies_complete_out_of_order_by_correlation_id(wired):
    link, peer, _ = wired
    first = _Call(_request_one, link, _frame(1.0))
    request_a = peer.recv()
    second = _Call(_request_one, link, _frame(2.0))
    request_b = peer.recv()
    assert request_a.kind == request_b.kind == KIND_FRAME
    assert request_a.frame_id != request_b.frame_id
    assert request_a.meta == {"entry": "m", "frames": [{"tag": 1.0}]}
    # Answer the later request first: only it may complete.
    peer.result(request_b, 20.0)
    arrays, meta = second.done().outcome
    assert meta == {"value": 20.0} and arrays["y"].tolist() == [20.0, 20.0]
    assert first.is_alive() and link.in_flight() == 1
    peer.result(request_a, 10.0)
    assert first.done().outcome[1] == {"value": 10.0}
    counters = link.counters()
    assert counters["frames"] == 2 and counters["errors"] == 0
    # Every request is a batch: one envelope each, however many frames.
    assert counters["batches"] == 2
    assert counters["service_time_s"] == pytest.approx(0.5)
    assert counters["bytes_sent"] > 0 and counters["bytes_received"] > 0


@pytest.mark.parametrize("count", [1, 3])
def test_a_request_is_one_envelope_each_way(wired, count):
    link, peer, _ = wired
    frames = [_frame(float(i)) for i in range(count)]
    call = _Call(link.request, "m", frames)
    request = peer.recv()
    assert request.kind == KIND_FRAME
    assert request.meta == {"entry": "m",
                            "frames": [meta for _, meta in frames]}
    assert set(request.arrays) == {f"{i}/x" for i in range(count)}
    shipped = unpack_frames(request.arrays, request.meta["frames"])
    assert [arrays["x"].tolist() for arrays, _ in shipped] == \
        [arrays["x"].tolist() for arrays, _ in frames]
    assert peer.recv(timeout=0.2) is None, "a second envelope was shipped"
    assert call.is_alive() and link.in_flight() == 1
    peer.result(request, *range(count))
    results = call.done().outcome
    assert [meta["value"] for _, meta in results] == list(range(count))
    assert [arrays["y"].tolist() for arrays, _ in results] == \
        [[float(i)] * 2 for i in range(count)]
    counters = link.counters()
    assert counters["batches"] == 1 and counters["frames"] == count
    assert counters["service_time_s"] == pytest.approx(0.25)


def test_empty_request_never_reaches_the_channel(wired):
    link, peer, _ = wired
    # At the parent commit this registered a reply no envelope could ever
    # complete: the call hung for request_timeout_s, then killed the worker.
    link.request_timeout_s = 1.0
    pool = WorkerPool(None, None, 1, 1.0)
    pool._pick = lambda name: link
    for call in (_Call(link.request, "m", []),
                 _Call(pool.batch_fn("m"), [])):
        assert call.done(timeout=0.5).outcome == [] and call.error is None
    assert link.alive and link.in_flight() == 0
    assert link.counters()["bytes_sent"] == 0
    assert peer.recv(timeout=0.2) is None, "bytes reached the worker"


def test_one_frame_view_ships_a_request_of_one(wired):
    """``WorkerPool.edge_fns`` — the hop the e2e harness's layer walk
    times — is the batched route spelled for one frame."""
    link, peer, _ = wired
    pool = WorkerPool(SimpleNamespace(serving_names=lambda: ["m"]), None,
                      1, 1.0)
    pool._pick = lambda name: link
    call = _Call(pool.edge_fns()["m"], *_frame(1.0))
    request = peer.recv()
    assert request.meta == {"entry": "m", "frames": [{"tag": 1.0}]}
    peer.result(request, 7.0)
    arrays, meta = call.done().outcome
    assert meta == {"value": 7.0} and arrays["y"].tolist() == [7.0, 7.0]
    assert link.counters()["batches"] == link.counters()["frames"] == 1


def test_execution_error_fails_one_request_not_the_link(wired):
    link, peer, _ = wired
    failing = _Call(link.request, "m", [_frame(1.0), _frame(2.0)])
    request = peer.recv()
    bystander = _Call(_request_one, link, _frame(3.0))
    other = peer.recv()
    peer.reply(Message(kind=KIND_ERROR, frame_id=request.frame_id,
                       meta={"error": "KeyError: 'm'",
                             "traceback": "scripted traceback"}))
    error = failing.done().error
    assert isinstance(error, RuntimeError)
    assert not isinstance(error, ConnectionError)
    assert "KeyError: 'm'" in str(error) and "scripted traceback" in str(error)
    assert bystander.is_alive() and link.in_flight() == 1
    peer.result(other, 3.0)
    assert bystander.done().outcome[1] == {"value": 3.0}
    assert link.alive and link.counters()["errors"] == 1


def test_crash_fails_every_in_flight_request(wired):
    link, peer, crashes = wired
    calls = [_Call(_request_one, link, _frame(float(i)))
             for i in range(2)]
    calls.append(_Call(link.request, "m", [_frame(5.0), _frame(6.0)]))
    wait_until(lambda: link.in_flight() == 3, message="requests in flight")
    # in_flight counts a request from registration; one crashed before
    # its send reads "not connected" instead of the crash reason.  Drain
    # the 3 envelopes so all three shipped.
    for _ in range(3):
        assert peer.recv() is not None
    link.mark_crashed("scripted crash")
    for call in calls:
        error = call.done().error
        assert isinstance(error, link.crash_error)
        assert isinstance(error, ConnectionError)
        assert "scripted crash" in str(error)
    assert not link.alive and link.death_reason == "scripted crash"
    assert link.in_flight() == 0 and link.counters()["errors"] == 3
    link.mark_crashed("second opinion")  # first reason wins, hook fires once
    assert link.death_reason == "scripted crash" and crashes == [1]
    with pytest.raises(link.crash_error):
        link.request("m", [_frame(9.0)])


def test_timeout_poisons_the_link_and_late_reply_is_ignored(wired):
    link, peer, crashes = wired
    link.request_timeout_s = 0.2
    call = _Call(_request_one, link, _frame(1.0))
    request = peer.recv()
    error = call.done().error
    assert isinstance(error, link.crash_error) and "0.2s" in str(error)
    assert not link.alive and crashes == [1]
    assert "no answer within" in link.death_reason
    peer.result(request, 1.0)  # arrives after the request was abandoned
    link.reader.join(timeout=5.0)
    assert link.counters()["frames"] == 0 and link.in_flight() == 0


def test_reply_for_forgotten_correlation_id_is_dropped(wired):
    link, peer, _ = wired
    peer.reply(Message(kind=KIND_RESULT, frame_id=999, arrays={},
                       meta={"frame": {}, "service_time_s": 1.0}))
    peer.reply(Message(kind=KIND_ERROR, frame_id=998, meta={"error": "x"}))
    call = _Call(_request_one, link, _frame(1.0))
    peer.result(peer.recv(), 4.0)
    assert call.done().outcome[1] == {"value": 4.0}
    counters = link.counters()
    assert link.alive and counters["frames"] == 1 and counters["errors"] == 0


def test_oversize_envelope_raises_before_any_byte_is_written(wired):
    link, peer, _ = wired
    big = ({"x": np.zeros(LIMIT)}, {})
    with pytest.raises(ValueError, match="message limit") as caught:
        link.request("m", [big])
    # The error names the bound of the channel it was sent on: only a
    # ring's is ShardingConfig.ring_bytes.
    ring = isinstance(getattr(link.channel, "_send", None), ShmRing)
    assert ("ring_bytes" in str(caught.value)) == ring
    # A request whose *last* frame is oversized writes nothing at all.
    with pytest.raises(ValueError, match="message limit"):
        link.request("m", [_frame(1.0), _frame(2.0), big])
    assert peer.recv(timeout=0.2) is None, "bytes reached the worker"
    assert link.alive and link.in_flight() == 0
    call = _Call(_request_one, link, _frame(1.0))
    peer.result(peer.recv(), 1.0)
    assert call.done().error is None


def test_ping_pong_measures_rtt_and_retires_earlier_probes(wired):
    link, peer, _ = wired
    assert link.counters()["rtt_ms"] is None
    for _ in range(3):
        link.send_ping()
    assert link.outstanding_pings() == 3
    probes = [peer.recv() for _ in range(3)]
    assert all(probe.kind == NODE_KIND_PING for probe in probes)
    # Answering probe N answers every earlier probe's question too.
    peer.reply(Message(kind=NODE_KIND_PONG, frame_id=probes[1].frame_id,
                       meta={"version": 5}))
    wait_until(lambda: link.outstanding_pings() == 1,
               message="pong retired its probe and the earlier one")
    assert link.counters()["rtt_ms"] >= 0.0
    assert link.snapshot_version == 5
    peer.reply(Message(kind=NODE_KIND_PONG, frame_id=probes[2].frame_id,
                       meta={"version": 4}))
    wait_until(lambda: link.outstanding_pings() == 0,
               message="last probe answered")
    assert link.snapshot_version == 5, "a stale pong regressed the version"


@pytest.mark.parametrize("kind", [
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="no shared memory")),
    "pipe", "socket"])
def test_full_channel_sheds_before_the_first_byte(kind):
    """A channel with no room sheds the request — nothing written,
    the link healthy — and serves again once the worker drains."""
    parent, worker, crash_error = _channel_pair(kind)
    link = WorkerLink("worker 0", parent, crash_error=crash_error,
                      request_timeout_s=10.0, shed_timeout_s=0.05)
    peer = _Peer(worker)
    try:
        peer.reply(Message(kind=SHARD_KIND_READY, meta={"version": 1}))
        link.wait_ready(5.0)
        filler = 0
        while True:  # PIPE_BUF-sized envelopes: each lands whole or not
            try:
                parent.send_bytes(b"f" * 4092, timeout=0.05)
            except TimeoutError:
                break
            filler += 1
            assert filler < 4096, "the channel never filled"
        with pytest.raises(BackpressureError, match="no room"):
            _request_one(link, _frame(1.0))
        assert link.alive and link.in_flight() == 0
        for _ in range(filler):
            assert worker.recv_bytes(timeout=5.0) == b"f" * 4092
        call = _Call(_request_one, link, _frame(2.0))
        request = peer.recv()
        assert request.meta == {"entry": "m", "frames": [{"tag": 2.0}]}
        peer.result(request, 2.0)
        assert call.done().outcome[1] == {"value": 2.0}
    finally:
        link.stop()
        worker.close()


@pytest.mark.parametrize("kind", [
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="no shared memory")),
    "pipe", "socket"])
def test_channels_hand_over_the_exact_blob(kind):
    """The wire parser refuses bytes past a frame's end, so every channel
    must deliver exactly the blob that was sent — no padding, no
    alignment — both ways, back to back, and across the ring's wrap."""
    parent, worker, _ = _channel_pair(kind)
    blobs = [b"", b"a", bytes(range(7)), b"\xab" * 4099, b"z" * 3]
    try:
        for _ in range(20):  # ~80 KiB a way: past a 64 KiB ring's end
            for sender, receiver in ((parent, worker), (worker, parent)):
                for blob in blobs:
                    sender.send_bytes(blob, timeout=5.0)
                for blob in blobs:
                    assert receiver.recv_bytes(timeout=5.0) == blob
    finally:
        worker.close()
        parent.close()
        parent.unlink()


@pytest.mark.parametrize("kind", ["pipe", "socket"])
def test_over_cap_length_prefix_is_refused_before_buffering(kind):
    """A length prefix above the receiver's cap breaks the stream at once.

    Waiting for the bytes it announces would swallow every later envelope
    (the link stalls with ``None`` forever), so the endpoint refuses it the
    moment the prefix is in, as the device wire's prefix parser does."""
    if kind == "socket":
        read_end, write_end = socket.socketpair()
        write = write_end.sendall
    else:
        read_end, write_end = multiprocessing.Pipe(duplex=False)
        write = lambda data: os.write(write_end.fileno(), data)  # noqa: E731
    assert _StreamEndpoint(read_end).max_message_bytes == MAX_MESSAGE_BYTES
    endpoint = _StreamEndpoint(read_end, max_bytes=5)
    try:
        write(struct.pack(">I", 5) + b"hello")  # exactly at the cap
        assert endpoint.recv_bytes(timeout=5.0) == b"hello"
        write(struct.pack(">I", 0xFFFFFFF0) + struct.pack(">I", 5) + b"later")
        with pytest.raises(ConnectionError, match="above the 5-byte"):
            endpoint.recv_bytes(timeout=5.0)
    finally:
        endpoint.close()
        write_end.close()


@pytest.mark.parametrize("kind", ["pipe", "socket"])
def test_pipe_stalled_mid_envelope_crashes_the_link_not_sheds(kind):
    """A request the stream took a first byte of, then stalled on for the
    request timeout, has desynced the stream: a crash, never a shed."""
    parent, worker, crash_error = _channel_pair(kind, MAX_MESSAGE_BYTES)
    crashes = []
    link = WorkerLink("worker 0", parent, crash_error=crash_error,
                      request_timeout_s=0.3, shed_timeout_s=0.05,
                      on_crash=lambda: crashes.append(1))
    try:
        _Peer(worker).reply(Message(kind=SHARD_KIND_READY, meta={}))
        link.wait_ready(5.0)
        # 1 MiB: more than a pipe's buffer or a socket pair's two buffers.
        big = ({"x": np.zeros(1 << 17)}, {})
        with pytest.raises(crash_error, match="mid-envelope"):
            link.request("m", [big])
        assert not link.alive and crashes == [1]
        assert "mid-envelope" in link.death_reason
    finally:
        link.stop()
        worker.close()


@pytest.mark.parametrize("kind", ["pipe", "socket"])
def test_bootstrap_error_surfaces_the_worker_traceback(kind):
    parent, worker, crash_error = _channel_pair(kind)
    link = WorkerLink("worker 0", parent, crash_error=crash_error,
                      request_timeout_s=10.0)
    try:
        _Peer(worker).reply(Message(
            kind=KIND_ERROR, meta={"error": "ValueError: bad zoo",
                                   "traceback": "scripted traceback"}))
        with pytest.raises(crash_error, match="scripted traceback"):
            link.wait_ready(5.0)
        assert not link.alive and "bad zoo" in link.death_reason
    finally:
        link.stop()
        worker.close()


def test_carry_counters_continues_the_stats_row(wired):
    link, peer, _ = wired
    call = _Call(_request_one, link, _frame(1.0))
    peer.result(peer.recv(), 1.0)
    call.done()
    link.mark_crashed("replaced")
    parent, worker, crash_error = _channel_pair("pipe")
    fresh = WorkerLink("worker 0", parent, crash_error=crash_error,
                       request_timeout_s=10.0)
    try:
        fresh.carry_counters(link)
        before, after = link.counters(), fresh.counters()
        for name in ("frames", "batches", "errors", "service_time_s",
                     "bytes_sent", "bytes_received"):
            assert after[name] == before[name]
    finally:
        fresh.stop()
        worker.close()


class _MemoryChannel:
    """One end of an in-memory byte channel pair (unbounded, no transport)."""

    max_message_bytes = None

    def __init__(self, outbox: queue.Queue, inbox: queue.Queue) -> None:
        self._outbox, self._inbox = outbox, inbox
        self.sent = 0

    def send_bytes(self, blob: bytes, timeout: float = 30.0) -> int:
        self.sent += 1
        self._outbox.put(blob)
        return len(blob)

    def recv_bytes(self, timeout: float = 0.2):
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        pass

    unlink = close


def test_replica_core_answers_a_stale_batched_request_with_one_error():
    """The real worker loop behind the real link, with no process between:
    a batched request pinned past the replica's snapshot costs exactly one
    error envelope, and the loop keeps serving."""
    zoo = ArchitectureZoo([ZooEntry("m", Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=4), OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMMUNICATE, "uplink"), OpSpec(OpType.COMBINE, 16),
        OpSpec(OpType.GLOBAL_POOL, "max||mean")), name="m"), 0.9, 40.0, 0.4)])
    repository = ModelRepository(in_dim=3, num_classes=3, seed=0)
    repository.publish(zoo)
    graphs = SyntheticModelNet40(num_points=24, samples_per_class=1,
                                 num_classes=3, seed=1).generate()
    frames = [repository.device_fn("m")(Batch.from_graphs([graph]))
              for graph in graphs]
    stale = [(arrays, {**meta, SNAPSHOT_META_KEY: 99})
             for arrays, meta in frames]
    up, down = queue.Queue(), queue.Queue()
    worker = _MemoryChannel(up, down)
    core = ReplicaCore(bootstrap_meta(repository))
    serving = threading.Thread(target=core.serve,
                               args=(_EnvelopeChannel(worker),), daemon=True)
    serving.start()
    parent = _MemoryChannel(down, up)
    link = WorkerLink("worker 0", parent, crash_error=ShardCrashedError,
                      request_timeout_s=10.0)
    try:
        with pytest.raises(RuntimeError, match="pinned to snapshot v99") \
                as caught:
            link.request("m", stale)
        assert not isinstance(caught.value, ConnectionError)
        assert worker.sent == 1, "the stale batch cost more than one reply"
        served = link.request("m", frames)
        assert worker.sent == 2 and not link.crashed
        for (got, _), (want, _) in zip(served,
                                       repository.batch_router("m")(frames)):
            np.testing.assert_allclose(got["logits"], want["logits"],
                                       atol=1e-9)
        assert link.counters()["frames"] == len(frames)
        assert link.counters()["batches"] == 1  # the one request served
    finally:
        _EnvelopeChannel(parent).reply(Message(kind=KIND_STOP))
        serving.join(timeout=5.0)
        link.stop()
    assert not serving.is_alive(), "the worker loop ignored stop"
