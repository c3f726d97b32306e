"""The worker-link contract, written once and run over every byte channel.

:class:`~repro.serving.workers.WorkerLink` is the one parent-side RPC
mechanism behind both scaling tiers, so its guarantees are pinned here
against an in-test peer — no worker process, no model — over each
transport it runs on: the shared-memory ring and the pipe of the shard
tier, and the socket channel of the cluster tier.  The tier suites
(``test_serving_shards.py``, ``test_serving_cluster.py``,
``test_serving_selfheal.py``) pin what a *pool* adds on top.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading

import numpy as np
import pytest

from conftest import wait_until
from repro.runtime.node import NodeCrashedError, _SocketChannel
from repro.runtime.shard import (ShardCrashedError, _EnvelopeChannel,
                                 attach_channel, create_channel,
                                 shm_available)
from repro.serving.workers import WorkerLink
from repro.system.messages import (KIND_ERROR, KIND_FRAME, KIND_RESULT,
                                   Message, NODE_KIND_PING, NODE_KIND_PONG,
                                   SHARD_KIND_BATCH, SHARD_KIND_READY)

#: Per-message bound of the bounded test channels (ring capacity / cap).
LIMIT = 1 << 16


def _channel_pair(kind: str):
    """(parent side, worker side, the tier's crash error) for ``kind``."""
    if kind == "socket":
        ours, theirs = socket.socketpair()
        for sock in (ours, theirs):
            sock.settimeout(10.0)
        return (_SocketChannel(ours, max_bytes=LIMIT),
                _SocketChannel(theirs, max_bytes=LIMIT), NodeCrashedError)
    ctx = multiprocessing.get_context("spawn")
    parent, spec = create_channel(ctx, kind, LIMIT)
    return parent, attach_channel(spec), ShardCrashedError


class _Peer(_EnvelopeChannel):
    """The worker end of the channel — the adapter real workers read and
    answer through — scripted from the test thread."""

    def recv(self, timeout: float = 5.0):
        return self.read_envelope(timeout)

    def result(self, request: Message, value: float,
               batch_index=None) -> None:
        self.reply(Message(kind=KIND_RESULT, frame_id=request.frame_id,
                           arrays={"y": np.full(2, value)},
                           meta={"frame": {"value": value},
                                 "service_time_s": 0.25},
                           batch_index=batch_index))


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


def test_ready_handshake_reports_version_and_pid(wired):
    link, _, crashes = wired
    assert link.alive and link.snapshot_version == 3 and link.pid == 7
    assert link.counters()["alive"] and not crashes


def test_replies_complete_out_of_order_by_correlation_id(wired):
    link, peer, _ = wired
    first = _Call(link.request_frame, "m", *_frame(1.0))
    request_a = peer.recv()
    second = _Call(link.request_frame, "m", *_frame(2.0))
    request_b = peer.recv()
    assert request_a.kind == request_b.kind == KIND_FRAME
    assert request_a.frame_id != request_b.frame_id
    assert request_a.meta == {"entry": "m", "frame": {"tag": 1.0}}
    # Answer the later request first: only it may complete.
    peer.result(request_b, 20.0)
    arrays, meta = second.done().outcome
    assert meta == {"value": 20.0} and arrays["y"].tolist() == [20.0, 20.0]
    assert first.is_alive() and link.in_flight() == 1
    peer.result(request_a, 10.0)
    assert first.done().outcome[1] == {"value": 10.0}
    counters = link.counters()
    assert counters["frames"] == 2 and counters["errors"] == 0
    assert counters["service_time_s"] == pytest.approx(0.5)
    assert counters["bytes_sent"] > 0 and counters["bytes_received"] > 0


def test_batch_completes_by_batch_index(wired):
    link, peer, _ = wired
    call = _Call(link.request_batch, "m",
                 [_frame(0.0), _frame(1.0), _frame(2.0)])
    header = peer.recv()
    assert header.kind == SHARD_KIND_BATCH
    assert header.meta == {"entry": "m", "count": 3}
    frames = [peer.recv() for _ in range(3)]
    assert [f.meta["index"] for f in frames] == [0, 1, 2]
    assert all(f.frame_id == header.frame_id for f in frames)
    for index in (2, 0):
        peer.result(header, float(index), batch_index=index)
    assert call.is_alive(), "batch completed before every index arrived"
    peer.result(header, 1.0, batch_index=1)
    results = call.done().outcome
    assert [meta["value"] for _, meta in results] == [0.0, 1.0, 2.0]
    counters = link.counters()
    assert counters["batches"] == 1 and counters["frames"] == 3


def test_execution_error_fails_one_request_not_the_link(wired):
    link, peer, _ = wired
    call = _Call(link.request_frame, "m", *_frame(1.0))
    request = peer.recv()
    peer.reply(Message(kind=KIND_ERROR, frame_id=request.frame_id,
                       meta={"error": "KeyError: 'm'",
                             "traceback": "scripted traceback"}))
    error = call.done().error
    assert isinstance(error, RuntimeError)
    assert not isinstance(error, ConnectionError)
    assert "KeyError: 'm'" in str(error) and "scripted traceback" in str(error)
    assert link.alive and link.counters()["errors"] == 1


def test_crash_fails_every_in_flight_request(wired):
    link, peer, crashes = wired
    calls = [_Call(link.request_frame, "m", *_frame(float(i)))
             for i in range(2)]
    calls.append(_Call(link.request_batch, "m", [_frame(5.0), _frame(6.0)]))
    wait_until(lambda: link.in_flight() == 3, message="requests in flight")
    # in_flight counts a request from registration; one crashed before
    # its send reads "not connected" instead of the crash reason.  Drain
    # the 5 envelopes (2 frames, batch header + 2) so all three shipped.
    for _ in range(5):
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
        link.request_frame("m", *_frame(9.0))


def test_timeout_poisons_the_link_and_late_reply_is_ignored(wired):
    link, peer, crashes = wired
    link.request_timeout_s = 0.2
    call = _Call(link.request_frame, "m", *_frame(1.0))
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
    call = _Call(link.request_frame, "m", *_frame(1.0))
    peer.result(peer.recv(), 4.0)
    assert call.done().outcome[1] == {"value": 4.0}
    counters = link.counters()
    assert link.alive and counters["frames"] == 1 and counters["errors"] == 0


def test_oversize_envelope_raises_before_any_byte_is_written(wired):
    link, peer, _ = wired
    if link.channel.max_message_bytes is None:
        pytest.skip("the pipe transport carries messages of any size")
    big = ({"x": np.zeros(LIMIT)}, {})
    with pytest.raises(ValueError, match="message limit"):
        link.request_frame("m", *big)
    # A batch whose *last* envelope is oversized writes nothing at all —
    # a header and half the frames would desync the worker's protocol.
    with pytest.raises(ValueError, match="message limit"):
        link.request_batch("m", [_frame(1.0), _frame(2.0), big])
    assert peer.recv(timeout=0.2) is None, "bytes reached the worker"
    assert link.alive and link.in_flight() == 0
    call = _Call(link.request_frame, "m", *_frame(1.0))
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
    call = _Call(link.request_frame, "m", *_frame(1.0))
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
