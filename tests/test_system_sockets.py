"""Socket discipline of the device<->edge hop and the cluster hop.

One policy, pinned here: every TCP stream socket the stack dials or accepts
runs with Nagle off (:func:`repro.system.messages.disable_nagle`), and
``DeviceClient``'s sender writes a queued window of messages as one buffer —
flushing when its queue is momentarily empty or at 64 KiB — without changing
a byte of the stream.  The wall-clock case at the bottom is the regression
test for what the policy removes: a pipelined 8-frame window serialised by
Nagle + delayed ACK (>= 40 ms per window on loopback, for 1-3 ms of work).
"""

from __future__ import annotations

import multiprocessing
import queue
import socket
import statistics
import threading
import time

import numpy as np
import pytest

import repro.runtime.node as node_module
import repro.system.engine as engine_module
from repro.core import ArchitectureModel, ArchitectureZoo, ZooEntry
from repro.serving import (BatchingConfig, ClientConfig, ClusterConfig,
                           ModelRepository, RuntimeConfig, ServerConfig,
                           build_callables)
from repro.serving.cluster import ClusterPool
from repro.system import DeviceClient, EdgeServer
from repro.system.messages import (KIND_FRAME, KIND_HELLO, KIND_STOP,
                                   WIRE_FORMAT_RAW, WIRE_FORMATS, Message,
                                   _prefixed, recv_message, send_message,
                                   serialize_message)

from test_system_batching import _co_inference_arch, _frames


def _nodelay(sock) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def _identity_edge(arrays, meta):
    return arrays, {}


def _identity_batch(requests):
    return [(arrays, {}) for arrays, _ in requests]


def _array_device_fn(frame):
    return {"x": np.asarray(frame, dtype=np.float64)}, {}


# ----------------------------------------------------------------------
# Nagle is off at both ends of every hop
# ----------------------------------------------------------------------
class TestNagleIsOff:
    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_client_and_server_side_of_one_connection(self, frontend):
        server = EdgeServer(_identity_edge,
                            config=ServerConfig(frontend=frontend)).start()
        client = DeviceClient(server.host, server.port)
        try:
            client.handshake()
            assert _nodelay(client._sock)
            (connection,) = server._conn_sessions
            # asyncio alone does not do this for us: its own Nagle switch
            # skips sockets accepted from a proto=0 listener like ours.
            accepted = (connection._sock if frontend == "threaded" else
                        connection._writer.get_extra_info("socket"))
            assert _nodelay(accepted)
        finally:
            client.close()
            server.stop()

    def test_dialled_cluster_link_and_node_accepted_connection(
            self, monkeypatch):
        """Both ends of the router<->node hop, the node main run in-thread."""
        serving = threading.Event()
        serving.set()
        monkeypatch.setattr(node_module, "_parent_alive", serving.is_set)
        monkeypatch.setattr(node_module, "_ACCEPT_POLL_S", 0.05)
        accepted: "queue.Queue[socket.socket]" = queue.Queue()
        serve_connection = node_module._serve_connection

        def recording_serve(conn, holder, node_id):
            accepted.put(conn)
            serve_connection(conn, holder, node_id)

        monkeypatch.setattr(node_module, "_serve_connection", recording_serve)
        ready, child_end = multiprocessing.Pipe()
        node = threading.Thread(target=node_module._node_main,
                                args=(0, "127.0.0.1", 0, child_end),
                                daemon=True)
        node.start()
        pool = None
        try:
            assert ready.poll(10.0)
            status, port = ready.recv()
            assert status == "ok"
            zoo = ArchitectureZoo([ZooEntry("m", _co_inference_arch(),
                                            0.9, 40.0, 0.4)])
            repository = ModelRepository(in_dim=3, num_classes=3, zoo=zoo)
            pool = ClusterPool(repository,
                               ClusterConfig(nodes=(f"127.0.0.1:{port}",)))
            pool.start()
            assert _nodelay(pool._links[0].channel._conn)
            assert _nodelay(accepted.get(timeout=10.0))
        finally:
            if pool is not None:
                pool.stop()
            serving.clear()
            node.join(timeout=5.0)
            ready.close()
        assert not node.is_alive()


# ----------------------------------------------------------------------
# The sender's write policy, driven without a socket or a clock
# ----------------------------------------------------------------------
class _RecordingSocket:
    """Stands in for the client socket: records every ``sendall``."""

    def __init__(self, log=None) -> None:
        self.writes = []
        self._log = log

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))
        if self._log is not None:
            self._log.append(("sendall", len(data)))


def _offline_client(sock, wire_format: str = WIRE_FORMAT_RAW) -> DeviceClient:
    """A ``DeviceClient`` with no connection and no threads: just the state
    ``_send_loop`` touches, so the loop can be run to completion inline."""
    client = DeviceClient.__new__(DeviceClient)
    client._sock = sock
    client.config = ClientConfig(wire_format=wire_format)
    client._send_queue = queue.Queue()
    client._results = queue.Queue()
    client._hello_event = threading.Event()
    client._disconnect_reason = None
    client.bytes_sent = 0
    return client


def _frame_message(frame_id: int, values: int, wire_format: str) -> Message:
    rng = np.random.default_rng(frame_id)
    return Message(kind=KIND_FRAME, frame_id=frame_id,
                   arrays={"x": rng.standard_normal(values)},
                   meta={"num_graphs": 1}, wire_format=wire_format)


def _framed(message: Message) -> bytes:
    return _prefixed(serialize_message(message))


class TestSenderWritePolicy:
    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_queued_window_leaves_as_one_write(self, wire_format):
        sock = _RecordingSocket()
        client = _offline_client(sock, wire_format)
        tally = engine_module._SendTally()
        messages = [_frame_message(i, 200, wire_format) for i in range(8)]
        for message in messages:
            client._send_queue.put((message, tally))
        client._send_queue.put(None)
        client._send_loop()
        *window_writes, stop_write = sock.writes
        assert len(window_writes) < len(messages)
        assert len(window_writes) == 1  # 8 x ~1.7 KB stays under 64 KiB
        expected = b"".join(_framed(message) for message in messages)
        assert b"".join(window_writes) == expected
        assert stop_write == _framed(Message(kind=KIND_STOP,
                                             wire_format=wire_format))
        assert tally.bytes == len(expected) == client.bytes_sent

    def test_large_frames_are_flushed_before_the_next_is_serialized(
            self, monkeypatch):
        log = []
        real_serialize = engine_module.serialize_message

        def logging_serialize(message, *args, **kwargs):
            if message.kind == KIND_FRAME:
                log.append(("serialize", message.frame_id))
            return real_serialize(message, *args, **kwargs)

        monkeypatch.setattr(engine_module, "serialize_message",
                            logging_serialize)
        sock = _RecordingSocket(log)
        client = _offline_client(sock)
        tally = engine_module._SendTally()
        # 9000 float64 = 72 KB raw-framed: above the 64 KiB flush size.
        messages = [_frame_message(i, 9000, WIRE_FORMAT_RAW)
                    for i in range(3)]
        sizes = [len(_framed(message)) for message in messages]
        assert min(sizes) > engine_module._SEND_FLUSH_BYTES
        log.clear()
        for message in messages:
            client._send_queue.put((message, tally))
        client._send_queue.put(None)
        client._send_loop()
        assert log[:6] == [("serialize", 0), ("sendall", sizes[0]),
                           ("serialize", 1), ("sendall", sizes[1]),
                           ("serialize", 2), ("sendall", sizes[2])]
        assert sock.writes[:3] == [_framed(message) for message in messages]

    def test_buffer_is_flushed_once_it_reaches_the_flush_size(self):
        sock = _RecordingSocket()
        client = _offline_client(sock)
        tally = engine_module._SendTally()
        # ~24 KB each: the third message takes the buffer past 64 KiB.
        messages = [_frame_message(i, 3000, WIRE_FORMAT_RAW)
                    for i in range(5)]
        for message in messages:
            client._send_queue.put((message, tally))
        client._send_queue.put(None)
        client._send_loop()
        framed = [_framed(message) for message in messages]
        assert sock.writes[:2] == [b"".join(framed[:3]), b"".join(framed[3:])]
        assert len(sock.writes) == 3  # + the stop marker

    def test_unencodable_message_flushes_its_predecessors_then_disconnects(
            self):
        sock = _RecordingSocket()
        client = _offline_client(sock)
        tally = engine_module._SendTally()
        good = [_frame_message(i, 16, WIRE_FORMAT_RAW) for i in range(3)]
        bad = Message(kind=KIND_FRAME, frame_id=9, meta={"bad": object()},
                      wire_format=WIRE_FORMAT_RAW)
        for message in (good[0], good[1], bad, good[2]):
            client._send_queue.put((message, tally))
        client._send_loop()  # no close marker: the failure ends the loop
        assert sock.writes == [
            _framed(good[0]) + _framed(good[1]),
            _framed(Message(kind=KIND_STOP, wire_format=WIRE_FORMAT_RAW))]
        assert "failed to serialize" in client._disconnect_reason
        assert client._hello_event.is_set()
        assert tally.bytes == len(sock.writes[0])

    def test_socket_error_stops_the_sender_quietly(self):
        class _DeadSocket:
            def sendall(self, data):
                raise BrokenPipeError("peer is gone")

        client = _offline_client(_DeadSocket())
        client._send_queue.put((_frame_message(0, 16, WIRE_FORMAT_RAW),
                                engine_module._SendTally()))
        client._send_loop()  # returns: no close marker needed, no raise
        assert client._disconnect_reason is None  # the receiver reports it


# ----------------------------------------------------------------------
# PipelineStats.bytes_sent is the run's own traffic, exactly
# ----------------------------------------------------------------------
class TestRunByteAccounting:
    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_first_run_on_a_fresh_connection_counts_only_its_frames(
            self, wire_format):
        frames = [np.full((4, 3), float(i)) for i in range(8)]
        expected = sum(
            len(serialize_message(Message(
                kind=KIND_FRAME, frame_id=i, arrays={"x": frame}, meta={},
                wire_format=wire_format))) + 4
            for i, frame in enumerate(frames))
        server = EdgeServer(_identity_edge).start()
        try:
            for _ in range(50):
                # No handshake() first: the hello may still be in the
                # sender's hands when the run starts, and must not leak in.
                client = DeviceClient(server.host, server.port,
                                      ClientConfig(wire_format=wire_format))
                try:
                    _, stats = client.run_pipeline(frames, _array_device_fn,
                                                   timeout_s=10.0)
                    assert stats.bytes_sent == expected
                    assert client.bytes_sent > expected  # + the hello
                finally:
                    client.close()
        finally:
            server.stop()


# ----------------------------------------------------------------------
# End to end over loopback
# ----------------------------------------------------------------------
class TestCoalescedWindowsEndToEnd:
    def test_every_reply_matches_its_frame_and_the_eager_result(self):
        model = ArchitectureModel(_co_inference_arch(), in_dim=3,
                                  num_classes=5, seed=0)
        serving = build_callables(model)
        device_fn, plan_batch_fn = serving.device_fn, serving.batch_fn
        eager_edge_fn = build_callables(
            model, RuntimeConfig(runtime="eager")).edge_fn
        batches = []

        def tagging_device_fn(indexed_frame):
            index, frame = indexed_frame
            arrays, meta = device_fn(frame)
            return arrays, dict(meta, tag=index)

        def recording_batch_fn(requests):
            batches.append([meta["tag"] for _, meta in requests])
            return plan_batch_fn(requests)

        frames = _frames(8)
        server = EdgeServer(batch_fns={"default": recording_batch_fn},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=2.0)).start()
        client = DeviceClient(server.host, server.port)
        try:
            for _ in range(3):  # three windows on one connection
                batches.clear()
                results, stats = client.run_pipeline(
                    list(enumerate(frames)), tagging_device_fn,
                    timeout_s=30.0)
                assert [r.frame_id for r in results] == list(range(8))
                position = {tag: place for batch in batches
                            for place, tag in enumerate(batch)}
                for index, (frame, result) in enumerate(zip(frames, results)):
                    arrays, meta = device_fn(frame)
                    reference, _ = eager_edge_fn(dict(arrays), dict(meta))
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference["logits"],
                                               rtol=0.0, atol=1e-9)
                    assert result.batch_index == position[index]
                assert stats.frames_retried == 0
        finally:
            client.close()
            server.stop()
        assert server.stats().batch_fallback_frames == 0

    def test_per_message_writer_and_coalescing_client_get_the_same_replies(
            self):
        """The wire protocol is untouched: a hand-rolled client that issues
        one ``sendall`` per message (what the parent commit's client did)
        and the coalescing ``DeviceClient`` are served identically."""
        frames = [np.arange(12.0).reshape(4, 3) + i for i in range(8)]
        server = EdgeServer(batch_fns={"default": _identity_batch},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=2.0)).start()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                send_message(sock, Message(kind=KIND_HELLO,
                                           meta={"client": "by-hand"}))
                for index, frame in enumerate(frames):
                    arrays, meta = _array_device_fn(frame)
                    send_message(sock, Message(kind=KIND_FRAME,
                                               frame_id=index, arrays=arrays,
                                               meta=meta))
                by_hand = {}
                while len(by_hand) < len(frames):
                    reply = recv_message(sock)
                    if reply.kind != KIND_HELLO:
                        by_hand[reply.frame_id] = reply
                send_message(sock, Message(kind=KIND_STOP))
            client = DeviceClient(server.host, server.port)
            try:
                results, _ = client.run_pipeline(frames, _array_device_fn,
                                                 timeout_s=10.0)
            finally:
                client.close()
        finally:
            server.stop()
        assert sorted(by_hand) == [r.frame_id for r in results]
        for result in results:
            reply = by_hand[result.frame_id]
            assert reply.kind == "result"
            assert reply.meta == result.meta
            np.testing.assert_array_equal(reply.arrays["x"],
                                          result.arrays["x"])
            np.testing.assert_array_equal(result.arrays["x"],
                                          frames[result.frame_id])

    def test_pipelined_window_does_not_stall(self):
        """20 pipelined 8-frame windows, identity engine: median < 30 ms.

        Nagle + delayed ACK at either end shows as >= 40 ms per window (a
        kernel timer: the parent commit reads 48.0 ms here); the fixed path
        takes 1-3 ms, pinned to one core included.  The median of 20
        leaves room for scheduling noise on a loaded machine.
        """
        frames = [np.zeros((16, 3)) + i for i in range(8)]
        server = EdgeServer(batch_fns={"default": _identity_batch},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=2.0)).start()
        client = DeviceClient(server.host, server.port)
        try:
            client.handshake()
            client.run_pipeline(frames, _array_device_fn)  # warm
            walls = []
            for _ in range(20):
                started = time.perf_counter()
                results, _ = client.run_pipeline(frames, _array_device_fn,
                                                 timeout_s=10.0)
                walls.append(time.perf_counter() - started)
                assert len(results) == len(frames)
        finally:
            client.close()
            server.stop()
        assert statistics.median(walls) < 0.030, sorted(walls)
