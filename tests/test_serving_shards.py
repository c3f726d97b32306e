"""Process-parallel serving shards: correctness across the process boundary.

The sharded tier moves every engine call into worker processes, so each
serving guarantee must be re-pinned across that boundary:

* shard-served logits are numerically equivalent (<= 1e-9) to in-process
  serving, across aggregator x pool zoo entries;
* hot zoo reload under live sharded traffic keeps every frame wholly within
  one snapshot (publish hammer);
* a crashed shard produces clean per-frame ``ConnectionError``-style errors
  instead of hangs, and surviving shards keep serving;
* ``num_shards=1`` is the identity: no pool, no worker processes, byte-for-
  byte the in-process serving path.

The transport primitives (the pipe endpoint with its write deadline, the
shared-memory ring) are covered directly at the bottom — they must stay
correct without a running server.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.runtime.shard import (ShmRing, attach_channel, create_channel,
                                 shm_available)
from conftest import wait_until
from repro.serving import (BatchingConfig, ModelRepository, ServingConfig,
                           ShardCrashedError, ShardingConfig, serve,
                           sharding_supported)

pytestmark = pytest.mark.skipif(
    not sharding_supported("shm"),
    reason="platform lacks multiprocessing.shared_memory")


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


def _sharded_config(num_shards: int = 2, **kwargs) -> ServingConfig:
    return ServingConfig(sharding=ShardingConfig(num_shards=num_shards,
                                                 **kwargs))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestShardingConfig:
    def test_defaults_disabled(self):
        config = ShardingConfig()
        assert config.num_shards == 1 and not config.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardingConfig(num_shards=0)
        with pytest.raises(ValueError, match="transport"):
            ShardingConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="ring_bytes"):
            ShardingConfig(ring_bytes=1024)
        with pytest.raises(ValueError, match="request_timeout_s"):
            ShardingConfig(request_timeout_s=0.0)

    def test_round_trip(self):
        config = ServingConfig(sharding=ShardingConfig(num_shards=3,
                                                       transport="pipe"))
        rebuilt = ServingConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.sharding.num_shards == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="ShardingConfig"):
            ShardingConfig.from_dict({"num_shards": 2, "shards": 4})


# ----------------------------------------------------------------------
# Numerical equivalence: shard-served == in-process == direct model
# ----------------------------------------------------------------------
class TestShardEquivalence:
    def test_matrix_zoo_equivalent_to_in_process(self):
        """Every aggregator x pool entry: sharded logits == eager <= 1e-9."""
        frames = _frames(3)
        with serve(MATRIX_ZOO, _sharded_config(), in_dim=3,
                   num_classes=3) as app:
            assert app.sharded and app.shard_pool.live_count() == 2
            for name in MATRIX_ZOO.names():
                expected = _reference_logits(MATRIX_ZOO, name, frames)
                with app.client(model=name) as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, expected):
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference, atol=1e-9)
            stats = app.stats()
            assert stats.num_shards == 2
            # The round-robin router actually used both worker processes.
            assert all(shard.frames > 0 for shard in stats.shards)
            assert sum(shard.frames for shard in stats.shards) == \
                stats.frames_processed

    def test_batched_sharded_serving_equivalent(self):
        """Micro-batches executed on shards match per-frame references."""
        frames = _frames(4)
        expected = _reference_logits(ZOO_V1, "m", frames)
        config = ServingConfig(
            sharding=ShardingConfig(num_shards=2),
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

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_transport_equivalent(self, transport):
        """The default pipe and the opt-in shm ring serve the same logits."""
        frames = _frames(2)
        expected = _reference_logits(ZOO_V1, "m", frames)
        with serve(ZOO_V1, _sharded_config(transport=transport), in_dim=3,
                   num_classes=3) as app:
            assert app.shard_pool.config.transport == transport
            with app.client(model="m") as client:
                results, _ = client.run(frames)
        for result, reference in zip(results, expected):
            np.testing.assert_allclose(result.arrays["logits"], reference,
                                       atol=1e-9)


# ----------------------------------------------------------------------
# num_shards=1 fallback identity
# ----------------------------------------------------------------------
class TestInProcessFallback:
    def test_single_shard_serves_in_process(self):
        frames = _frames(2)
        expected = _reference_logits(ZOO_V1, "m", frames)
        with serve(ZOO_V1, _sharded_config(num_shards=1), in_dim=3,
                   num_classes=3) as app:
            assert not app.sharded and app.shard_pool is None
            with app.client(model="m") as client:
                results, _ = client.run(frames)
            stats = app.stats()
        assert stats.num_shards == 0 and stats.shards == []
        for result, reference in zip(results, expected):
            np.testing.assert_allclose(result.arrays["logits"], reference,
                                       atol=1e-9)

    def test_pool_rejects_single_shard(self):
        from repro.serving.sharding import ShardPool
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with pytest.raises(ValueError, match="num_shards"):
            ShardPool(repo, ShardingConfig(num_shards=1))


# ----------------------------------------------------------------------
# Hot reload under live sharded traffic
# ----------------------------------------------------------------------
class TestShardedHotReload:
    def test_publish_replicates_before_swap(self):
        """After publish() returns, every shard already holds the snapshot."""
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with serve(ZOO_V1, _sharded_config(), in_dim=3, num_classes=3,
                   repository=repo) as app:
            assert [s.snapshot_version for s in app.shard_pool.stats()] == \
                [1, 1]
            repo.publish(ZOO_V2)
            assert [s.snapshot_version for s in app.shard_pool.stats()] == \
                [2, 2]

    def test_publish_hammer_under_live_sharded_traffic(self):
        """3 clients x repeated publishes: every frame from one snapshot."""
        frames = _frames(4)
        references = (_reference_logits(ZOO_V1, "m", frames),
                      _reference_logits(ZOO_V2, "m", frames))
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        config = ServingConfig(
            sharding=ShardingConfig(num_shards=2),
            batching=BatchingConfig(max_batch_size=4, max_wait_ms=2.0))
        outputs, errors = [], []
        rounds_per_client = 5

        with serve(ZOO_V1, config, in_dim=3, num_classes=3,
                   repository=repo) as app:
            def stream(index):
                try:
                    with app.client(model="m", name=f"c{index}") as client:
                        for _ in range(rounds_per_client):
                            results, _ = client.run(frames)
                            outputs.extend(
                                (r.frame_id % len(frames), r.arrays["logits"])
                                for r in results)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=stream, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for zoo in (ZOO_V2, ZOO_V1, ZOO_V2):
                time.sleep(0.05)
                repo.publish(zoo)
            for thread in threads:
                thread.join(timeout=120.0)
        assert not errors, errors
        assert len(outputs) == 3 * rounds_per_client * len(frames)
        for frame_index, logits in outputs:
            refs = [ref[frame_index] for ref in references]
            assert any(np.allclose(logits, ref, atol=1e-8) for ref in refs), (
                f"frame {frame_index} matches no snapshot's reference — "
                "mixed device/edge halves across the process boundary?")


# ----------------------------------------------------------------------
# Crash isolation
# ----------------------------------------------------------------------
class TestShardCrash:
    def test_all_shards_down_gives_clean_per_frame_errors(self):
        frames = _frames(2)
        with serve(ZOO_V1, _sharded_config(), in_dim=3, num_classes=3) as app:
            for shard in app.shard_pool._links:
                shard.process.kill()
            wait_until(lambda: not any(s.alive for s in
                                       app.shard_pool.stats()),
                       message="all shards marked dead")
            started = time.monotonic()
            with app.client(model="m") as client:
                with pytest.raises(RuntimeError, match="(?i)shard"):
                    client.run(frames)
            # An error, not a burned pipeline timeout.
            assert time.monotonic() - started < 10.0
            stats = app.stats()
            assert stats.num_shards == 2
            assert not any(shard.alive for shard in stats.shards)
            # The server itself survived and still answers handshakes.
            with app.client(model="m") as client:
                assert client.handshake()["models"] == ["m"]

    def test_surviving_shard_keeps_serving(self):
        frames = _frames(2)
        expected = _reference_logits(ZOO_V1, "m", frames)
        with serve(ZOO_V1, _sharded_config(), in_dim=3, num_classes=3) as app:
            victim = app.shard_pool._links[0]
            victim.process.kill()
            wait_until(lambda: not victim.alive,
                       message="victim shard marked dead")
            # New traffic is routed around the corpse.
            with app.client(model="m") as client:
                results, _ = client.run(frames)
            for result, reference in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"],
                                           reference, atol=1e-9)
            assert app.shard_pool.live_count() == 1

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_in_flight_request_fails_with_connection_error(self, transport):
        """A request stuck on a dying shard errors out instead of hanging.

        On the pipe the dead worker's closed ends crash the link (a broken
        pipe is a dead shard, never a full one: no ``BackpressureError``).
        """
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        from repro.serving.sharding import ShardPool
        pool = ShardPool(repo, ShardingConfig(num_shards=2,
                                              transport=transport)).start()
        try:
            shard = pool._links[0]
            arrays, meta = repo.device_fn("m")(_frames(1)[0])
            failures = []

            def request():
                try:
                    shard.request("m", [(arrays, meta)])
                except Exception as exc:
                    failures.append(exc)

            # Kill the worker, then issue the request against the corpse:
            # the reader thread's liveness poll must fail it promptly.
            shard.process.kill()
            shard.process.join(timeout=10.0)
            thread = threading.Thread(target=request)
            thread.start()
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "in-flight request hung"
            assert len(failures) == 1
            assert isinstance(failures[0], ShardCrashedError), failures
        finally:
            pool.stop()

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_wedged_worker_crashes_within_request_timeout(self, transport):
        """A SIGSTOPped (alive, never reading) worker and a request larger
        than a pipe's buffer: the sender must not block forever — the link
        crashes within ``request_timeout_s`` and the request raises."""
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        from repro.serving.sharding import ShardPool
        timeout_s = 1.0
        pool = ShardPool(repo, ShardingConfig(
            num_shards=2, transport=transport,
            request_timeout_s=timeout_s)).start()
        shard = pool._links[0]
        try:
            os.kill(shard.process.pid, signal.SIGSTOP)
            frame = ({"x": np.zeros(1 << 14)}, {})  # 128 KiB > 64 KiB
            outcome = []

            def request():
                started = time.monotonic()
                try:
                    shard.request("m", [frame])
                except Exception as exc:
                    outcome.append(exc)
                outcome.append(time.monotonic() - started)

            thread = threading.Thread(target=request, daemon=True)
            thread.start()
            thread.join(timeout=timeout_s + 30.0)
            assert not thread.is_alive(), "sender hung on a wedged worker"
            error, elapsed = outcome
            assert isinstance(error, ShardCrashedError), error
            assert elapsed < timeout_s + 5.0
            assert not shard.alive and pool.live_count() == 1
        finally:
            if shard.process.is_alive():
                os.kill(shard.process.pid, signal.SIGCONT)
            pool.stop()


# ----------------------------------------------------------------------
# Transport primitives (no server involved)
# ----------------------------------------------------------------------
#: Two non-zero head values with no byte in common with zero-filled memory.
_HEAD_A, _HEAD_B = 0xFFFFFFFF, 0x7F7F7F7F


def _flip_head(handle) -> None:
    """Child process: rewrite the ring head until the parent moves the tail."""
    ring = ShmRing.attach(handle)
    deadline = time.monotonic() + 30.0
    while ring._tail() == 0 and time.monotonic() < deadline:
        ring._set_head(_HEAD_A)
        ring._set_head(_HEAD_B)
    ring.close()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestShmRing:
    def _ring(self, capacity=1 << 16):
        ring = ShmRing.create(capacity)
        attached = ShmRing.attach(ring.handle())
        return ring, attached

    def test_round_trip_and_wraparound(self):
        ring, peer = self._ring(capacity=1 << 10)
        try:
            payloads = [bytes([i]) * (200 + i) for i in range(40)]
            for blob in payloads:  # > capacity in total: must wrap
                ring.send_bytes(blob)
                assert peer.recv_bytes(timeout=1.0) == blob
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_interleaved_backpressure(self):
        ring, peer = self._ring(capacity=1 << 12)
        received = []

        def drain():
            while True:
                blob = peer.recv_bytes(timeout=1.0)
                if blob == b"stop":
                    return
                received.append(blob)

        thread = threading.Thread(target=drain)
        thread.start()
        try:
            blobs = [bytes([i % 256]) * 1000 for i in range(64)]
            for blob in blobs:  # 64 KB through a 4 KB ring
                ring.send_bytes(blob, timeout=10.0)
            ring.send_bytes(b"stop", timeout=10.0)
            thread.join(timeout=30.0)
            assert received == blobs
        finally:
            thread.join(timeout=1.0)
            peer.close()
            ring.close()
            ring.unlink()

    def test_oversized_message_rejected(self):
        ring, peer = self._ring(capacity=1 << 16)
        try:
            with pytest.raises(ValueError, match="ring"):
                ring.send_bytes(b"x" * (1 << 17))
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_recv_timeout_returns_none(self):
        ring, peer = self._ring()
        try:
            started = time.monotonic()
            assert peer.recv_bytes(timeout=0.05) is None
            assert time.monotonic() - started < 1.0
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_full_ring_times_out(self):
        ring, peer = self._ring(capacity=1 << 10)
        try:
            ring.send_bytes(b"y" * 900)
            with pytest.raises(TimeoutError, match="full"):
                ring.send_bytes(b"y" * 900, timeout=0.1)
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_counter_store_is_never_torn_across_processes(self):
        """A head store must expose the old value or the new one, never 0.

        ``struct.pack_into`` zero-fills its destination before packing, so
        a consumer in another process polling the head would transiently
        read 0 — and take an empty ring for a full one.
        """
        ring = ShmRing.create(1 << 10)
        ring._set_head(_HEAD_A)
        writer = multiprocessing.get_context("spawn").Process(
            target=_flip_head, args=(ring.handle(),), daemon=True)
        writer.start()
        try:
            wait_until(lambda: ring._head() == _HEAD_B, timeout=30.0,
                       message="writer process flipping the head")
            seen = set()
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                seen.add(ring._head())
        finally:
            ring._set_tail(1)
            writer.join(timeout=30.0)
            ring.close()
            ring.unlink()
        assert not writer.is_alive(), "writer process ignored the stop flag"
        assert seen <= {_HEAD_A, _HEAD_B}, (
            f"torn head store: reader saw {sorted(seen - {_HEAD_A, _HEAD_B})}")


class TestPipeEndpoint:
    """The default transport's write deadline and closed-peer rule."""

    @pytest.fixture
    def pipe(self):
        parent, spec = create_channel(multiprocessing.get_context("spawn"),
                                      "pipe", 1 << 16)
        worker = attach_channel(spec)
        try:
            yield parent, worker
        finally:
            parent.close()
            worker.close()

    @staticmethod
    def _fill(channel) -> int:
        """Envelopes of exactly ``PIPE_BUF`` framed bytes — each written
        whole or not at all — until one times out; returns how many fit."""
        for count in range(4096):
            try:
                channel.send_bytes(b"f" * 4092, timeout=0.05)
            except TimeoutError:
                return count
        raise AssertionError("the pipe never filled")

    def test_full_pipe_sheds_with_zero_bytes_written(self, pipe):
        parent, worker = pipe
        count = self._fill(parent)
        assert count > 0
        with pytest.raises(TimeoutError, match="full"):
            parent.send_bytes(b"shed me", timeout=0.05)
        # Draining finds exactly the envelopes that fit: the shed one left
        # no byte behind, so the stream is still in sync.
        for _ in range(count):
            assert worker.recv_bytes(timeout=5.0) == b"f" * 4092
        assert worker.recv_bytes(timeout=0.05) is None
        parent.send_bytes(b"next", timeout=0.05)
        assert worker.recv_bytes(timeout=5.0) == b"next"

    def test_stall_after_the_first_byte_crashes_never_sheds(self, pipe):
        parent, worker = pipe
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="mid-envelope") as caught:
            parent.send_bytes(b"b" * (1 << 18), timeout=0.2,
                              shed_timeout=0.05)
        assert not isinstance(caught.value, TimeoutError)
        assert time.monotonic() - started < 5.0

    def test_large_envelope_round_trips_through_a_draining_reader(self,
                                                                   pipe):
        parent, worker = pipe
        blob = bytes(range(256)) * 4096  # 1 MiB: sixteen pipe buffers
        received = []
        reader = threading.Thread(
            target=lambda: received.append(worker.recv_bytes(timeout=30.0)),
            daemon=True)
        reader.start()
        parent.send_bytes(blob, timeout=30.0, shed_timeout=0.05)
        reader.join(timeout=30.0)
        assert received == [blob]

    def test_closed_peer_raises_connection_error_on_both_ends(self, pipe):
        parent, worker = pipe
        worker.send_bytes(b"last words")
        worker.close()
        # Bytes written before the close still arrive; then end-of-file.
        assert parent.recv_bytes(timeout=5.0) == b"last words"
        with pytest.raises(ConnectionError, match="closed"):
            parent.recv_bytes(timeout=5.0)
        with pytest.raises(ConnectionError, match="closed"):
            parent.send_bytes(b"anyone?", timeout=0.05, shed_timeout=0.05)
