"""Multi-node cluster tier: correctness across the network boundary.

The cluster tier moves every engine call onto TCP replica nodes, so each
serving guarantee must be re-pinned across that boundary — and, unlike the
in-box shard tier, the transport can now *misbehave* rather than just die.
The chaosnet proxy (``tests/chaosnet.py``) sits between router and node to
inject each failure mode deterministically:

* cluster-served logits are numerically equivalent (<= 1e-9) to in-process
  serving, across aggregator x pool zoo entries;
* a publish returns only after every live node acknowledged the snapshot
  (ack held back => publish provably still waiting, local version unswapped);
* a killed or partitioned node fails its in-flight frames fast with
  ``NodeCrashedError`` (a ``ConnectionError``) while new traffic reroutes —
  and with ``reconnect_s`` set, a healed node rejoins with a re-synced
  snapshot;
* the chaosnet primitives themselves (drop, delay, truncate, duplicate,
  reorder, partition) are pinned against a plain echo peer at the bottom,
  driven by the injected clock — no wall-clock sleeps.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from chaosnet import ChaosProxy, ManualClock
from conftest import wait_until
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.runtime.node import NodeCrashedError, NodeProcess
from repro.serving import (BatchingConfig, ClusterConfig, ModelRepository,
                           ServingConfig, ShardingConfig, serve)
from repro.serving.cluster import ClusterPool

pytestmark = pytest.mark.cluster


def _arch(name: str, k: int, width: int, aggregate: str = "max",
          pool: str = "max||mean") -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=k),
        OpSpec(OpType.AGGREGATE, aggregate),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.COMBINE, width),
        OpSpec(OpType.GLOBAL_POOL, pool),
    ), name=name)


ZOO_V1 = ArchitectureZoo([ZooEntry("m", _arch("m", k=4, width=16),
                                   0.9, 40.0, 0.4)])
ZOO_V2 = ArchitectureZoo([ZooEntry("m", _arch("m", k=8, width=32),
                                   0.93, 55.0, 0.5)])

#: One entry per aggregator x pooling combination the design space uses.
MATRIX_ZOO = ArchitectureZoo([
    ZooEntry(f"{aggregate}-{pool}".replace("||", ""),
             _arch(f"{aggregate}-{pool}".replace("||", ""), k=4, width=16,
                   aggregate=aggregate, pool=pool),
             0.9, 40.0, 0.4)
    for aggregate in ("max", "mean", "add")
    for pool in ("max", "mean", "max||mean")
])


def _frames(count: int = 4):
    graphs = SyntheticModelNet40(num_points=24, samples_per_class=2,
                                 num_classes=3, seed=1).generate()
    return [Batch.from_graphs([graphs[i % len(graphs)]]) for i in range(count)]


def _reference_logits(zoo: ArchitectureZoo, name: str, frames) -> list:
    model = ArchitectureModel(zoo.get(name).architecture, in_dim=3,
                              num_classes=3, seed=0)
    return [model(frame).data for frame in frames]


#: Heartbeats effectively off: fault-scripting tests must own every frame
#: on the wire (a ping stealing a scripted drop/delay would be a race).
NO_HEARTBEAT_MS = 600_000.0


def _cluster_config(*addresses, **kwargs) -> ServingConfig:
    return ServingConfig(cluster=ClusterConfig(nodes=tuple(addresses),
                                               **kwargs))


@pytest.fixture
def two_nodes():
    with NodeProcess(0) as first, NodeProcess(1) as second:
        yield first, second


@pytest.fixture
def one_node():
    with NodeProcess(0) as node:
        yield node


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestClusterConfig:
    def test_defaults_disabled(self):
        config = ClusterConfig()
        assert config.nodes == () and not config.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="host:port"):
            ClusterConfig(nodes=("localhost",))
        with pytest.raises(ValueError, match="port"):
            ClusterConfig(nodes=("localhost:notaport",))
        with pytest.raises(ValueError, match="port"):
            ClusterConfig(nodes=("localhost:70000",))
        with pytest.raises(ValueError, match="single string"):
            ClusterConfig(nodes="localhost:9000")
        with pytest.raises(ValueError, match="duplicate"):
            ClusterConfig(nodes=("h:9000", "h:9000"))
        with pytest.raises(ValueError, match="routing"):
            ClusterConfig(nodes=("h:9000",), routing="dartboard")
        with pytest.raises(ValueError, match="heartbeat_ms"):
            ClusterConfig(nodes=("h:9000",), heartbeat_ms=0.0)
        with pytest.raises(ValueError, match="heartbeat_misses"):
            ClusterConfig(nodes=("h:9000",), heartbeat_misses=0)
        with pytest.raises(ValueError, match="reconnect_s"):
            ClusterConfig(nodes=("h:9000",), reconnect_s=0.0)

    def test_round_trip(self):
        config = ServingConfig(cluster=ClusterConfig(
            nodes=("a:9000", "b:9001"), routing="hash", heartbeat_ms=250.0,
            heartbeat_misses=5, reconnect_s=2.0))
        rebuilt = ServingConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.cluster.nodes == ("a:9000", "b:9001")
        assert rebuilt.cluster.enabled

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="ClusterConfig"):
            ClusterConfig.from_dict({"nodes": ["h:9000"], "nodez": []})

    def test_mutually_exclusive_with_sharding(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ServingConfig(sharding=ShardingConfig(num_shards=2),
                          cluster=ClusterConfig(nodes=("h:9000",)))

    def test_pool_rejects_empty_config(self):
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with pytest.raises(ValueError, match="node address"):
            ClusterPool(repo, ClusterConfig())


# ----------------------------------------------------------------------
# Numerical equivalence: cluster-served == in-process == direct model
# ----------------------------------------------------------------------
class TestClusterEquivalence:
    def test_matrix_zoo_equivalent_to_in_process(self, two_nodes):
        """Every aggregator x pool entry: node logits == eager <= 1e-9."""
        first, second = two_nodes
        frames = _frames(3)
        with serve(MATRIX_ZOO, _cluster_config(first.address, second.address),
                   in_dim=3, num_classes=3) as app:
            assert app.clustered and app.cluster_pool.live_count() == 2
            assert not app.sharded
            for name in MATRIX_ZOO.names():
                expected = _reference_logits(MATRIX_ZOO, name, frames)
                with app.client(model=name) as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, expected):
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference, atol=1e-9)
            stats = app.stats()
            assert stats.num_nodes == 2 and stats.num_shards == 0
            # The least-loaded router actually used both machines.
            assert all(node.frames > 0 for node in stats.nodes)
            assert sum(node.frames for node in stats.nodes) == \
                stats.frames_processed
            assert all(node.snapshot_version == 1 for node in stats.nodes)

    def test_batched_cluster_serving_equivalent(self, two_nodes):
        """Micro-batches executed on nodes match per-frame references."""
        first, second = two_nodes
        frames = _frames(4)
        expected = _reference_logits(ZOO_V1, "m", frames)
        config = ServingConfig(
            cluster=ClusterConfig(nodes=(first.address, second.address)),
            batching=BatchingConfig(max_batch_size=4, max_wait_ms=5.0))
        outputs = [[] for _ in range(3)]
        with serve(ZOO_V1, config, in_dim=3, num_classes=3) as app:
            def stream(index):
                with app.client(model="m", name=f"c{index}") as client:
                    results, _ = client.run(frames)
                    outputs[index] = results

            threads = [threading.Thread(target=stream, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            stats = app.stats()
        for results in outputs:
            assert len(results) == len(frames)
            for result, reference in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"],
                                           reference, atol=1e-9)
        assert stats.batches_dispatched > 0
        assert stats.batch_fallback_frames == 0

    def test_hash_routing_pins_an_entry_to_one_node(self, two_nodes):
        first, second = two_nodes
        frames = _frames(4)
        with serve(ZOO_V1, _cluster_config(first.address, second.address,
                                           routing="hash"),
                   in_dim=3, num_classes=3) as app:
            with app.client(model="m") as client:
                client.run(frames)
            served = [node.frames for node in app.cluster_pool.stats()]
        # Consistent hashing: one owner per entry, not a spread.
        assert sorted(served) == [0, len(frames)]


# ----------------------------------------------------------------------
# Fleet-wide atomic publish (the pre-swap preparer contract)
# ----------------------------------------------------------------------
class TestClusterPublish:
    def test_publish_replicates_before_swap(self, two_nodes):
        """After publish() returns, every node already holds the snapshot."""
        first, second = two_nodes
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with serve(ZOO_V1, _cluster_config(first.address, second.address),
                   in_dim=3, num_classes=3, repository=repo) as app:
            assert [n.snapshot_version for n in app.cluster_pool.stats()] == \
                [1, 1]
            repo.publish(ZOO_V2)
            assert [n.snapshot_version for n in app.cluster_pool.stats()] == \
                [2, 2]
            frames = _frames(2)
            expected = _reference_logits(ZOO_V2, "m", frames)
            with app.client(model="m") as client:
                results, _ = client.run(frames)
            for result, reference in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"],
                                           reference, atol=1e-9)

    def test_publish_blocks_until_node_acks(self, one_node):
        """Hold the publish envelope: the local swap provably waits for it."""
        clock = ManualClock()
        with ChaosProxy("127.0.0.1", one_node.port, clock=clock) as proxy:
            repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
            with serve(ZOO_V1,
                       _cluster_config(proxy.address,
                                       heartbeat_ms=NO_HEARTBEAT_MS),
                       in_dim=3, num_classes=3, repository=repo) as app:
                proxy.client_to_server.delay_next(30.0)
                done = threading.Event()

                def publish():
                    repo.publish(ZOO_V2)
                    done.set()

                thread = threading.Thread(target=publish)
                thread.start()
                try:
                    # The publish envelope is held by the proxy: the node
                    # cannot have acked, so publish() must still be waiting
                    # and the router-side repository must NOT have swapped.
                    wait_until(lambda: proxy.client_to_server.held_frames()
                               == 1, timeout=15.0,
                               message="publish envelope held by the proxy")
                    assert not done.wait(0.3)
                    assert repo.version == 1
                    assert app.cluster_pool.stats()[0].snapshot_version == 1
                    # Release the envelope: ack flows, swap completes.
                    clock.advance(30.0)
                    assert done.wait(30.0), "publish never completed"
                finally:
                    thread.join(timeout=30.0)
                assert repo.version == 2
                assert app.cluster_pool.stats()[0].snapshot_version == 2

    def test_publish_routes_around_partitioned_node(self, two_nodes):
        """A node that cannot ack is poisoned; survivors get the snapshot."""
        first, second = two_nodes
        with ChaosProxy("127.0.0.1", first.port) as proxy:
            repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
            with serve(ZOO_V1,
                       _cluster_config(proxy.address, second.address,
                                       heartbeat_ms=NO_HEARTBEAT_MS,
                                       publish_timeout_s=0.5),
                       in_dim=3, num_classes=3, repository=repo) as app:
                proxy.partition()
                repo.publish(ZOO_V2)
                stats = app.cluster_pool.stats()
                assert not stats[0].alive, "unacked node must leave routing"
                assert stats[1].alive and stats[1].snapshot_version == 2
                # New traffic serves the new snapshot from the survivor.
                frames = _frames(2)
                expected = _reference_logits(ZOO_V2, "m", frames)
                with app.client(model="m") as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, expected):
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference, atol=1e-9)

    def test_publish_aborts_when_no_node_accepts(self, one_node):
        with ChaosProxy("127.0.0.1", one_node.port) as proxy:
            repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
            with serve(ZOO_V1,
                       _cluster_config(proxy.address,
                                       heartbeat_ms=NO_HEARTBEAT_MS,
                                       publish_timeout_s=0.5),
                       in_dim=3, num_classes=3, repository=repo) as app:
                proxy.partition()
                with pytest.raises(RuntimeError, match="aborted"):
                    repo.publish(ZOO_V2)
                # The local repository never swapped to the lost snapshot.
                assert repo.snapshot().version == 1
                assert repo.snapshot().zoo is ZOO_V1
                # Nor did the reconnect bootstrap: a node redialing now
                # must be handed the version the router actually serves,
                # not the aborted one.
                assert app.cluster_pool._hello_meta["version"] == 1


# ----------------------------------------------------------------------
# Client-transparent failover
# ----------------------------------------------------------------------
class TestClusterFailover:
    def test_killed_node_fails_fast_and_traffic_reroutes(self, two_nodes):
        first, second = two_nodes
        frames = _frames(2)
        expected = _reference_logits(ZOO_V1, "m", frames)
        with serve(ZOO_V1, _cluster_config(first.address, second.address),
                   in_dim=3, num_classes=3) as app:
            first.kill()
            # The OS closes the TCP stream with the process: the router's
            # reader notices without waiting for a heartbeat cycle.
            wait_until(lambda: not app.cluster_pool.stats()[0].alive,
                       timeout=10.0, message="node 0 marked dead")
            started = time.monotonic()
            with app.client(model="m") as client:
                results, _ = client.run(frames)
            assert time.monotonic() - started < 10.0
            for result, reference in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"],
                                           reference, atol=1e-9)
            stats = app.stats()
            assert [n.alive for n in stats.nodes] == [False, True]
            assert stats.nodes[1].frames == len(frames)

    def test_request_against_killed_node_raises_connection_error(
            self, one_node):
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        pool = ClusterPool(repo, ClusterConfig(nodes=(one_node.address,)))
        pool.start()
        try:
            node = pool._links[0]
            arrays, meta = repo.device_fn("m")(_frames(1)[0])
            one_node.kill()
            failures = []

            def request():
                try:
                    node.request("m", [(arrays, meta)])[0]
                except Exception as exc:
                    failures.append(exc)

            thread = threading.Thread(target=request)
            thread.start()
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "in-flight request hung"
            assert len(failures) == 1
            assert isinstance(failures[0], ConnectionError)
            assert isinstance(failures[0], NodeCrashedError)
        finally:
            pool.stop()

    def test_in_flight_frame_fails_fast_when_link_dies(self, one_node):
        """A reply held in the network + a dead link => immediate error."""
        clock = ManualClock()
        with ChaosProxy("127.0.0.1", one_node.port, clock=clock) as proxy:
            repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
            pool = ClusterPool(repo, ClusterConfig(
                nodes=(proxy.address,), heartbeat_ms=NO_HEARTBEAT_MS))
            pool.start()
            try:
                node = pool._links[0]
                arrays, meta = repo.device_fn("m")(_frames(1)[0])
                # The node executes the frame but its reply is held.
                proxy.server_to_client.delay_next(600.0)
                failures = []

                def request():
                    try:
                        node.request("m", [(arrays, meta)])[0]
                    except Exception as exc:
                        failures.append(exc)

                thread = threading.Thread(target=request)
                thread.start()
                wait_until(lambda: proxy.server_to_client.held_frames() == 1,
                           timeout=15.0, message="reply held by the proxy")
                # Sever the link with the reply still in flight: the
                # request must fail NOW, not at the request timeout.
                started = time.monotonic()
                proxy.kill_links()
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "in-flight request hung"
                assert time.monotonic() - started < 5.0
                assert len(failures) == 1
                assert isinstance(failures[0], NodeCrashedError)
            finally:
                pool.stop()

    def test_busy_node_survives_aggressive_heartbeats(self, one_node):
        """A node serving a long frame is never declared dead by heartbeat.

        The node answers pings inline in its connection loop, so a long
        engine call legitimately silences the link — pongs and the reply
        all arrive after it finishes.  While requests are in flight the
        router must keep trusting the node (request_timeout_s bounds a
        truly wedged one), even with every miss window long exceeded.
        """
        clock = ManualClock()
        with ChaosProxy("127.0.0.1", one_node.port, clock=clock) as proxy:
            repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
            pool = ClusterPool(repo, ClusterConfig(
                nodes=(proxy.address,), heartbeat_ms=20.0,
                heartbeat_misses=2))
            pool.start()
            try:
                node = pool._links[0]
                arrays, meta = repo.device_fn("m")(_frames(1)[0])
                # Hold the node->router flow: the node executes the frame
                # instantly but its reply (and every pong behind it) is
                # parked — indistinguishable from a long engine call.
                proxy.server_to_client.delay_next(600.0)
                outcome = []

                def request():
                    try:
                        outcome.append(("ok",
                                        node.request("m", [(arrays, meta)])[0]))
                    except Exception as exc:
                        outcome.append(("error", exc))

                thread = threading.Thread(target=request)
                thread.start()
                try:
                    wait_until(
                        lambda: proxy.server_to_client.held_frames() == 1,
                        timeout=15.0, message="reply held by the proxy")
                    wait_until(
                        lambda: node.outstanding_pings()
                        >= pool.config.heartbeat_misses,
                        timeout=10.0,
                        message="heartbeat probes piled up unanswered")
                    # Dozens of full miss windows (grace = 40ms) elapse
                    # with the link silent and probes unanswered: a router
                    # that heartbeat-kills busy nodes would do it here.
                    time.sleep(0.5)
                    assert pool.stats()[0].alive, \
                        "busy node was declared dead by heartbeat"
                finally:
                    clock.advance(600.0)
                    thread.join(timeout=30.0)
                assert not thread.is_alive(), "in-flight request hung"
                assert outcome and outcome[0][0] == "ok", outcome
                assert pool.stats()[0].alive
            finally:
                pool.stop()

    def test_partition_detected_by_heartbeats(self, two_nodes):
        first, second = two_nodes
        frames = _frames(2)
        with ChaosProxy("127.0.0.1", first.port) as proxy:
            with serve(ZOO_V1,
                       _cluster_config(proxy.address, second.address,
                                       heartbeat_ms=50.0,
                                       heartbeat_misses=2),
                       in_dim=3, num_classes=3) as app:
                wait_until(
                    lambda: app.cluster_pool.stats()[0].rtt_ms is not None,
                    timeout=10.0, message="first heartbeat answered")
                proxy.partition()
                # Nothing resets the TCP stream — only the heartbeat can
                # tell this node is gone.
                wait_until(lambda: not app.cluster_pool.stats()[0].alive,
                           timeout=10.0,
                           message="partitioned node declared dead")
                with app.client(model="m") as client:
                    results, _ = client.run(frames)
                assert len(results) == len(frames)
                assert app.cluster_pool.stats()[1].frames >= len(frames)

    def test_healed_node_reconnects_with_resynced_snapshot(self, two_nodes):
        first, second = two_nodes
        with ChaosProxy("127.0.0.1", first.port) as proxy:
            repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
            with serve(ZOO_V1,
                       _cluster_config(proxy.address, second.address,
                                       heartbeat_ms=50.0,
                                       heartbeat_misses=2,
                                       reconnect_s=0.1,
                                       publish_timeout_s=1.0),
                       in_dim=3, num_classes=3, repository=repo) as app:
                proxy.partition()
                wait_until(lambda: not app.cluster_pool.stats()[0].alive,
                           timeout=10.0, message="node 0 declared dead")
                # A publish lands while the node is gone: only the
                # survivor acks it.
                repo.publish(ZOO_V2)
                assert app.cluster_pool.stats()[1].snapshot_version == 2
                proxy.heal()
                wait_until(lambda: app.cluster_pool.stats()[0].alive,
                           timeout=15.0, message="healed node rejoined")
                # The reconnect hello re-synced the missed snapshot: no
                # frame stamped v2 can ever reach a v1 replica.
                assert app.cluster_pool.stats()[0].snapshot_version == 2
                frames = _frames(4)
                expected = _reference_logits(ZOO_V2, "m", frames)
                with app.client(model="m") as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, expected):
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference, atol=1e-9)


# ----------------------------------------------------------------------
# Node-side transport robustness
# ----------------------------------------------------------------------
class TestNodeTransport:
    def test_node_tolerates_mid_frame_stall(self, one_node):
        """A transient stall *inside* a frame must not desync the stream.

        The node's envelope loop polls with a short quantum; only a
        timeout before any bytes of a frame may mean "no message".  A
        stall after the length prefix has to block until the rest arrives
        — a loop that abandons the partial read leaves the next recv
        starting mid-frame, a permanent protocol desync.
        """
        from repro.runtime.node import bootstrap_meta
        from repro.system.messages import (_LENGTH_FORMAT, Message,
                                           SHARD_KIND_PUBLISH,
                                           SHARD_KIND_READY, WIRE_FORMAT_RAW,
                                           pack_frames, recv_message,
                                           send_payload, serialize_message)

        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with socket.create_connection(("127.0.0.1", one_node.port),
                                      timeout=60.0) as sock:
            send_payload(sock, serialize_message(
                Message(kind=SHARD_KIND_PUBLISH, frame_id=1,
                        meta=bootstrap_meta(repo)),
                wire_format=WIRE_FORMAT_RAW))
            ready = recv_message(sock)
            assert ready is not None and ready.kind == SHARD_KIND_READY

            arrays, metas = pack_frames([repo.device_fn("m")(_frames(1)[0])])

            def frame_wire(frame_id: int) -> bytes:
                blob = serialize_message(
                    Message(kind="frame", frame_id=frame_id, arrays=arrays,
                            meta={"entry": "m", "frames": metas}),
                    wire_format=WIRE_FORMAT_RAW)
                return struct.pack(_LENGTH_FORMAT, len(blob)) + blob

            # First half (prefix + part of the payload), a stall well past
            # the envelope loop's poll quantum, then the rest.
            wire = frame_wire(2)
            sock.sendall(wire[:len(wire) // 2])
            time.sleep(1.2)
            sock.sendall(wire[len(wire) // 2:])
            result = recv_message(sock)
            assert result is not None and result.kind == "result"
            assert result.frame_id == 2
            # The stream is still framed correctly: a follow-up frame
            # round-trips on the same connection.
            sock.sendall(frame_wire(3))
            result = recv_message(sock)
            assert result is not None and result.kind == "result"
            assert result.frame_id == 3


    def test_poisoned_link_is_shut_down_then_closed_after_its_reader(
            self, one_node):
        """Poisoning a node link shuts its socket down, so the reader wakes
        on end-of-file and exits; the descriptor stays open until
        ``stop()`` has joined that reader, and only then is closed."""
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        pool = ClusterPool(repo,
                           ClusterConfig(nodes=(one_node.address,))).start()
        try:
            link = pool._links[0]
            sock = link.channel._conn
            link.mark_crashed("scripted poison")
            link.reader.join(timeout=5.0)
            assert not link.reader.is_alive()
            assert sock.fileno() != -1, "descriptor closed under its reader"
            with pytest.raises(OSError):  # shut down: nothing goes out
                sock.send(b"x")
        finally:
            pool.stop()
        assert sock.fileno() == -1


# ----------------------------------------------------------------------
# chaosnet primitives (no cluster involved: a plain length-framed echo)
# ----------------------------------------------------------------------
class _EchoServer:
    """Echoes every length-prefixed frame back, one connection at a time."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.listener.settimeout(0.2)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _recv_exact(self, conn, size):
        data = b""
        while len(data) < size:
            chunk = conn.recv(size - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                while not self._stop.is_set():
                    prefix = self._recv_exact(conn, 4)
                    if prefix is None:
                        break
                    (length,) = struct.unpack(">I", prefix)
                    payload = self._recv_exact(conn, length)
                    if payload is None:
                        break
                    try:
                        conn.sendall(prefix + payload)
                    except OSError:
                        break

    def close(self):
        self._stop.set()
        self.listener.close()
        self.thread.join(timeout=5.0)


def _send_frame(sock, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_frame(sock, timeout=10.0):
    sock.settimeout(timeout)
    prefix = b""
    while len(prefix) < 4:
        chunk = sock.recv(4 - len(prefix))
        if not chunk:
            return None
        prefix += chunk
    (length,) = struct.unpack(">I", prefix)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        if not chunk:
            raise ConnectionError("truncated frame")
        payload += chunk
    return payload


@pytest.fixture
def echo_proxy():
    echo = _EchoServer()
    clock = ManualClock()
    proxy = ChaosProxy("127.0.0.1", echo.port, clock=clock).start()
    sock = socket.create_connection((proxy.host, proxy.port), timeout=10.0)
    yield sock, proxy, clock
    sock.close()
    proxy.stop()
    echo.close()


class TestChaosnetPrimitives:
    def test_passthrough(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        _send_frame(sock, b"hello")
        assert _recv_frame(sock) == b"hello"
        assert proxy.client_to_server.frames_forwarded == 1
        assert proxy.server_to_client.frames_forwarded == 1

    def test_drop(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        proxy.client_to_server.drop_next()
        _send_frame(sock, b"lost")
        _send_frame(sock, b"kept")
        assert _recv_frame(sock) == b"kept"
        assert proxy.client_to_server.frames_dropped == 1

    def test_delay_is_clock_driven(self, echo_proxy):
        sock, proxy, clock = echo_proxy
        proxy.client_to_server.delay_next(60.0)
        _send_frame(sock, b"late")
        wait_until(lambda: proxy.client_to_server.held_frames() == 1,
                   message="frame held")
        with pytest.raises(socket.timeout):
            _recv_frame(sock, timeout=0.2)  # held: no wall wait releases it
        clock.advance(60.0)
        assert _recv_frame(sock) == b"late"

    def test_delay_preserves_order(self, echo_proxy):
        sock, proxy, clock = echo_proxy
        proxy.client_to_server.delay_next(60.0)
        _send_frame(sock, b"first")
        _send_frame(sock, b"second")
        wait_until(lambda: proxy.client_to_server.held_frames() == 1,
                   message="frame held")
        clock.advance(60.0)
        assert _recv_frame(sock) == b"first"
        assert _recv_frame(sock) == b"second"

    def test_duplicate(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        proxy.client_to_server.duplicate_next()
        _send_frame(sock, b"twice")
        assert _recv_frame(sock) == b"twice"
        assert _recv_frame(sock) == b"twice"

    def test_reorder(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        proxy.client_to_server.reorder_next()
        _send_frame(sock, b"first")
        _send_frame(sock, b"second")
        assert _recv_frame(sock) == b"second"
        assert _recv_frame(sock) == b"first"

    def test_truncate_severs_mid_frame(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        proxy.server_to_client.truncate_next(6)  # 4B prefix + 2 payload bytes
        _send_frame(sock, b"chopped")
        with pytest.raises(ConnectionError):
            if _recv_frame(sock) is None:  # clean close also means severed
                raise ConnectionError("closed")

    def test_partition_and_heal(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        proxy.partition()
        _send_frame(sock, b"void")
        with pytest.raises(socket.timeout):
            _recv_frame(sock, timeout=0.2)
        proxy.heal()
        _send_frame(sock, b"back")
        assert _recv_frame(sock) == b"back"
        assert proxy.client_to_server.frames_dropped == 1

    def test_kill_links(self, echo_proxy):
        sock, proxy, _ = echo_proxy
        _send_frame(sock, b"up")
        assert _recv_frame(sock) == b"up"
        proxy.kill_links()
        with pytest.raises((ConnectionError, socket.timeout, OSError)):
            if _recv_frame(sock, timeout=5.0) is None:
                raise ConnectionError("closed")
        assert proxy.live_links() == 0

    def test_flap_cycles_are_clock_driven(self, echo_proxy):
        sock, proxy, clock = echo_proxy
        driver = proxy.flap(2, up_s=10.0, down_s=5.0)
        # Cycle 1, up phase: traffic flows.
        _send_frame(sock, b"up-1")
        assert _recv_frame(sock) == b"up-1"
        clock.advance(10.0)
        wait_until(lambda: proxy.partitioned, message="first down phase")
        # Down phase: frames vanish silently, the link stays open.
        _send_frame(sock, b"void")
        with pytest.raises(socket.timeout):
            _recv_frame(sock, timeout=0.2)
        clock.advance(5.0)
        wait_until(lambda: proxy.flaps_completed == 1,
                   message="first cycle completed")
        assert not proxy.partitioned
        # Cycle 2, up phase again: the same connection recovers.
        _send_frame(sock, b"up-2")
        assert _recv_frame(sock) == b"up-2"
        clock.advance(15.0)
        wait_until(lambda: proxy.flaps_completed == 2,
                   message="second cycle completed")
        driver.join(timeout=10.0)
        assert not driver.is_alive()
        assert not proxy.partitioned
        assert proxy.client_to_server.frames_dropped == 1

    def test_flap_rejects_bad_schedules(self, echo_proxy):
        _, proxy, _ = echo_proxy
        with pytest.raises(ValueError):
            proxy.flap(0, up_s=1.0, down_s=1.0)
        with pytest.raises(ValueError):
            proxy.flap(1, up_s=-1.0, down_s=1.0)
