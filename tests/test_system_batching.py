"""Tests for cross-client dynamic micro-batching on the edge server.

Covers the batched edge path end to end: state collation / result splitting
(:mod:`repro.core.executor`), numerical equivalence of batched and per-frame
execution across every aggregator and pooling function, and the serving-side
:class:`~repro.system.engine.MicroBatcher` (per-entry coalescing, the
``max_wait_ms`` deadline flush, partial-batch error isolation, and the
realized batch statistics).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry, collate_arrays, split_results)
from repro.serving import (BatchingConfig, RuntimeConfig, ServerConfig,
                           build_callables, build_zoo_callables)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.system import DeviceClient, EdgeServer
from repro.system.messages import Message, deserialize_message, serialize_message

from conftest import wait_until


def _co_inference_arch(aggregate: str = "max", pool: str = "max||mean",
                       sample: str = "knn") -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, sample, k=4),
        OpSpec(OpType.AGGREGATE, "add"),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.SAMPLE, sample, k=4),
        OpSpec(OpType.AGGREGATE, aggregate),
        OpSpec(OpType.COMBINE, 32),
        OpSpec(OpType.GLOBAL_POOL, pool),
    ))


def _frames(num_frames: int, num_points: int = 24,
            graphs_per_frame: int = 1) -> list:
    graphs = SyntheticModelNet40(num_points=num_points, samples_per_class=4,
                                 num_classes=5, seed=3).generate()
    assert len(graphs) >= num_frames * graphs_per_frame
    return [Batch.from_graphs(graphs[i * graphs_per_frame:
                                     (i + 1) * graphs_per_frame])
            for i in range(num_frames)]


class TestCollateSplit:
    def test_collate_offsets_batch_and_edge_index(self):
        requests = [
            ({"x": np.ones((3, 2)), "batch": np.zeros(3, dtype=np.int64),
              "edge_index": np.array([[0, 1], [1, 2]])},
             {"num_graphs": 1, "pooled": False}),
            ({"x": np.full((2, 2), 2.0), "batch": np.zeros(2, dtype=np.int64),
              "edge_index": np.array([[0], [1]])},
             {"num_graphs": 1, "pooled": False}),
        ]
        arrays, meta, graph_counts = collate_arrays(requests)
        assert graph_counts == [1, 1]
        assert meta == {"num_graphs": 2, "pooled": False}
        assert arrays["x"].shape == (5, 2)
        np.testing.assert_array_equal(arrays["batch"], [0, 0, 0, 1, 1])
        # The second frame's edges point at its own (shifted) nodes.
        np.testing.assert_array_equal(arrays["edge_index"],
                                      [[0, 1, 3], [1, 2, 4]])

    def test_collate_respects_multi_graph_frames(self):
        requests = [
            ({"x": np.ones((4, 2)), "batch": np.array([0, 0, 1, 1])},
             {"num_graphs": 2, "pooled": False}),
            ({"x": np.ones((2, 2)), "batch": np.array([0, 1])},
             {"num_graphs": 2, "pooled": False}),
        ]
        arrays, meta, graph_counts = collate_arrays(requests)
        assert graph_counts == [2, 2]
        assert meta["num_graphs"] == 4
        np.testing.assert_array_equal(arrays["batch"], [0, 0, 1, 1, 2, 3])

    def test_collate_rejects_pooled_unpooled_mix(self):
        requests = [
            ({"x": np.ones((2, 2)), "batch": np.array([0, 1])},
             {"num_graphs": 2, "pooled": True}),
            ({"x": np.ones((2, 2)), "batch": np.array([0, 0])},
             {"num_graphs": 1, "pooled": False}),
        ]
        with pytest.raises(ValueError, match="pooled"):
            collate_arrays(requests)

    @pytest.mark.parametrize("name", ["pos", "edge_index"])
    def test_collate_rejects_mixed_presence(self, name):
        """Dropping the array for the whole batch would run the frames that
        sent it on different inputs than per-frame execution does."""
        extra = {"pos": np.zeros((2, 2)),
                 "edge_index": np.array([[0], [1]])}[name]
        bare = ({"x": np.ones((2, 2)), "batch": np.array([0, 0])},
                {"num_graphs": 1, "pooled": False})
        full = ({**bare[0], name: extra}, bare[1])
        for requests in ([full, bare], [bare, full]):
            with pytest.raises(ValueError, match=name):
                collate_arrays(requests)

    def test_batch_of_one_collates_nothing(self):
        """A lone frame's arrays come back as they are: no one-element
        concatenate, no ``+ 0`` offset copy; only a dtype change casts."""
        arrays = {"x": np.ones((3, 2)), "batch": np.zeros(3, dtype=np.int64),
                  "edge_index": np.array([[0, 1], [1, 2]], dtype=np.int64),
                  "pos": np.zeros((3, 2))}
        meta = {"num_graphs": 1, "pooled": False}
        collated, _, graph_counts = collate_arrays([(arrays, meta)])
        assert graph_counts == [1]
        for name, array in arrays.items():
            assert collated[name] is array, name
        cast, _, _ = collate_arrays([(arrays, meta)], dtype=np.float32)
        assert cast["x"].dtype == cast["pos"].dtype == np.float32
        assert cast["batch"] is arrays["batch"]

    @pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
    def test_batch_fn_of_one_serves_read_only_wire_views(self, precision):
        """``batch_fn([state])`` hands the deserialized (read-only) arrays
        straight to the edge plan: they stay byte-identical, and the logits
        are ``edge_fn``'s."""
        zoo = ArchitectureZoo([ZooEntry("e", _co_inference_arch(),
                                        0.9, 50.0, 0.5)])
        callables = build_zoo_callables(
            zoo, in_dim=3, num_classes=5, seed=0,
            config=RuntimeConfig(precision=precision))["e"]
        for frame in _frames(3):
            arrays, meta = callables.device_fn(frame)
            wire = deserialize_message(serialize_message(
                Message(kind="frame", arrays=arrays, meta=meta)))
            assert not any(array.flags.writeable
                           for array in wire.arrays.values())
            before = {name: array.tobytes()
                      for name, array in wire.arrays.items()}
            (batched, _), = callables.batch_fn([(wire.arrays, wire.meta)])
            single, _ = callables.edge_fn(wire.arrays, wire.meta)
            assert batched["logits"].tobytes() == single["logits"].tobytes()
            assert {name: array.tobytes()
                    for name, array in wire.arrays.items()} == before

    def test_collate_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            collate_arrays([])

    def test_split_results_inverts_collation(self):
        logits = np.arange(12.0).reshape(6, 2)
        results = split_results({"logits": logits}, {"num_graphs": 6}, [1, 2, 3])
        assert [meta["num_graphs"] for _, meta in results] == [1, 2, 3]
        np.testing.assert_array_equal(results[0][0]["logits"], logits[:1])
        np.testing.assert_array_equal(results[1][0]["logits"], logits[1:3])
        np.testing.assert_array_equal(results[2][0]["logits"], logits[3:])

    def test_split_results_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            split_results({"logits": np.ones((4, 2))}, {"num_graphs": 4}, [1, 2])


class TestBatchedEquivalence:
    """Batched execution must match per-frame execution numerically."""

    @pytest.mark.parametrize("aggregate", ["add", "mean", "max"])
    def test_equivalent_across_aggregators(self, aggregate):
        self._assert_equivalent(_co_inference_arch(aggregate=aggregate))

    @pytest.mark.parametrize("pool", ["sum", "mean", "max", "max||mean"])
    def test_equivalent_across_pool_functions(self, pool):
        self._assert_equivalent(_co_inference_arch(pool=pool))

    def test_equivalent_for_multi_graph_frames(self):
        self._assert_equivalent(_co_inference_arch(), graphs_per_frame=2)

    def test_device_only_architecture_is_echoed_per_frame(self):
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ))
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        serving = build_callables(model)
        states = [serving.device_fn(frame) for frame in _frames(3)]
        results = serving.batch_fn(states)
        for (arrays, meta), (out_arrays, out_meta) in zip(states, results):
            assert meta["finished"]
            np.testing.assert_array_equal(out_arrays["logits"], arrays["x"])
            assert out_meta["num_graphs"] == meta["num_graphs"]

    @staticmethod
    def _assert_equivalent(arch: Architecture, graphs_per_frame: int = 1,
                           num_frames: int = 5) -> None:
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        serving = build_callables(model)
        states = [serving.device_fn(frame)
                  for frame in _frames(num_frames,
                                       graphs_per_frame=graphs_per_frame)]
        sequential = [serving.edge_fn(dict(arrays), dict(meta))
                      for arrays, meta in states]
        batched = serving.batch_fn(states)
        assert len(batched) == len(sequential)
        for (seq_arrays, seq_meta), (bat_arrays, bat_meta) in zip(sequential,
                                                                  batched):
            assert seq_meta["num_graphs"] == bat_meta["num_graphs"]
            # Equivalent up to one BLAS ulp: a 1-row frame goes through a
            # different matmul kernel (gemv) than its row inside a batch.
            np.testing.assert_allclose(bat_arrays["logits"],
                                       seq_arrays["logits"],
                                       rtol=1e-12, atol=1e-12)


def _device_fn(frame):
    return {"x": np.asarray(frame, dtype=np.float64)}, {"scale": 2.0}


def _edge_fn(arrays, meta):
    return {"y": arrays["x"] * meta["scale"]}, {}


def _batch_edge_fn(requests):
    return [_edge_fn(arrays, meta) for arrays, meta in requests]


class TestMicroBatchingServing:
    def test_coalesces_concurrent_clients_and_reports_stats(self):
        sizes = []
        release = threading.Event()

        def gated_batch_fn(requests):
            sizes.append(len(requests))
            if len(sizes) == 1:
                # Hold the first dispatch so the remaining traffic piles up
                # in the entry queue and must coalesce into larger batches.
                release.wait(timeout=10.0)
            return _batch_edge_fn(requests)

        num_clients, frames_per_client = 4, 6
        server = EdgeServer(batch_fns={"default": gated_batch_fn},
                            config=ServerConfig(max_workers=num_clients),
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=20.0)).start()
        outputs = {}
        errors = []

        def run_client(index):
            client = DeviceClient(server.host, server.port)
            try:
                frames = [np.full((3, 3), index * 100 + i, dtype=float)
                          for i in range(frames_per_client)]
                results, _ = client.run_pipeline(frames, _device_fn,
                                                 timeout_s=30.0)
                outputs[index] = (frames, results)
            except Exception as exc:
                errors.append((index, exc))
            finally:
                client.close()

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(num_clients)]
        for thread in threads:
            thread.start()
        # Release the gate only once the first dispatch is underway AND at
        # least two further frames verifiably sit in the entry queue, so the
        # next dispatch deterministically sees a multi-frame batch (a fixed
        # sleep here was flaky when client startup was slow).
        def backlog_behind_first_dispatch():
            with server._batcher._lock:
                entry_queue = server._batcher._queues.get("default")
            return (sizes and entry_queue is not None
                    and entry_queue.qsize() >= 2)

        try:
            wait_until(backlog_behind_first_dispatch, timeout=15.0,
                       message="two frames queued behind the held dispatch")
        finally:
            release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        stats = server.stats()
        server.stop()
        assert not errors, f"client failures: {errors}"
        # Every client got exactly its own frames back, scaled.
        for index, (frames, results) in outputs.items():
            assert len(results) == frames_per_client
            for frame, result in zip(frames, results):
                np.testing.assert_array_equal(result.arrays["y"], frame * 2.0)
                assert result.batch_index is not None  # served via the batcher
        total = num_clients * frames_per_client
        assert sum(sizes) == total
        assert max(sizes) > 1, f"no coalescing happened: {sizes}"
        assert stats.frames_processed == total
        assert stats.batches_dispatched == len(sizes)
        assert stats.mean_batch_size == pytest.approx(total / len(sizes))
        assert sum(size * count for size, count
                   in stats.batch_size_histogram.items()) == total
        assert stats.mean_queue_delay_s >= 0.0
        assert stats.batch_fallback_frames == 0  # every batched call succeeded

    def test_single_frame_flushed_by_deadline(self):
        """A lone frame is released after max_wait_ms — through batch_fn.

        The contract: an entry with a batched callable *always* executes a
        coalesced batch through it, a 1-frame batch included.
        """
        sizes = []

        def counting_batch_fn(requests):
            sizes.append(len(requests))
            return _batch_edge_fn(requests)

        server = EdgeServer(batch_fns={"default": counting_batch_fn},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=40.0)).start()
        client = DeviceClient(server.host, server.port)
        try:
            started = time.perf_counter()
            results, _ = client.run_pipeline([np.ones((2, 2))], _device_fn,
                                             timeout_s=10.0)
            elapsed = time.perf_counter() - started
            np.testing.assert_array_equal(results[0].arrays["y"],
                                          np.ones((2, 2)) * 2.0)
            assert results[0].batch_index == 0
            # Well under the pipeline timeout: the deadline flush fired.
            assert elapsed < 5.0
        finally:
            client.close()
            server.stop()
        stats = server.stats()
        assert sizes == [1]
        assert stats.batch_size_histogram == {1: 1}
        assert stats.batches_dispatched == 1
        assert stats.batch_fallback_frames == 0

    def test_failing_single_frame_batch_is_rerun_as_a_batch_of_one(self):
        """A failed 1-frame batch is re-run per frame — through the same
        entry, so a transient failure costs a retry, not an error."""
        calls = []

        def flaky_batch_fn(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                raise RuntimeError("batched path hiccuped")
            return _batch_edge_fn(requests)

        server = EdgeServer(batch_fns={"default": flaky_batch_fn},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=10.0)).start()
        client = DeviceClient(server.host, server.port)
        try:
            results, _ = client.run_pipeline([np.ones((2, 2))], _device_fn,
                                             timeout_s=10.0)
            np.testing.assert_array_equal(results[0].arrays["y"],
                                          np.ones((2, 2)) * 2.0)
            assert results[0].batch_index == 0
        finally:
            client.close()
            server.stop()
        stats = server.stats()
        assert calls == [1, 1]
        assert stats.batch_size_histogram == {1: 1}
        assert stats.batch_fallback_frames == 1
        assert stats.errors == 0

    def test_mixed_entry_queues_never_cross_batch(self):
        seen = {"a": [], "b": []}

        def make_batch_fn(name):
            def batch_fn(requests):
                seen[name].append([meta["tag"] for _, meta in requests])
                return [({"y": arrays["x"]}, {}) for arrays, _ in requests]
            return batch_fn

        def tagged_device_fn(tag):
            def device_fn(frame):
                return {"x": np.asarray(frame, dtype=np.float64)}, {"tag": tag}
            return device_fn

        server = EdgeServer(batch_fns={"a": make_batch_fn("a"),
                                       "b": make_batch_fn("b")},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=50.0)).start()
        errors = []

        def run_client(model):
            client = DeviceClient(server.host, server.port, model=model)
            try:
                client.run_pipeline([np.ones((2, 2))] * 4,
                                    tagged_device_fn(model), timeout_s=30.0)
            except Exception as exc:
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=run_client, args=(model,))
                   for model in ("a", "b", "a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        server.stop()
        assert not errors
        # Per-entry queues: every batch is pure, whatever the coalescing was.
        assert sum(len(batch) for batch in seen["a"]) == 8
        assert sum(len(batch) for batch in seen["b"]) == 8
        for name in ("a", "b"):
            for batch in seen[name]:
                assert set(batch) == {name}

    def test_partial_batch_error_isolates_to_offending_frame(self):
        def flaky_edge_fn(arrays, meta):
            if meta.get("explode"):
                raise ValueError("synthetic batched failure")
            return _edge_fn(arrays, meta)

        def flaky_batch_fn(requests):
            # A batch containing the poisoned frame fails as a whole; the
            # server must fall back to per-frame execution and only fail the
            # offending frame.
            return [flaky_edge_fn(arrays, meta) for arrays, meta in requests]

        server = EdgeServer(batch_fns={"default": flaky_batch_fn},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=100.0)).start()
        good_results = {}
        bad_failure = []

        def good_client():
            client = DeviceClient(server.host, server.port)
            try:
                frames = [np.full((2, 2), v, dtype=float) for v in (1.0, 2.0)]
                results, _ = client.run_pipeline(frames, _device_fn,
                                                 timeout_s=30.0)
                good_results["frames"] = (frames, results)
            finally:
                client.close()

        def bad_client():
            client = DeviceClient(server.host, server.port)

            def exploding_device_fn(frame):
                arrays, meta = _device_fn(frame)
                meta["explode"] = True
                return arrays, meta

            try:
                with pytest.raises(RuntimeError) as excinfo:
                    client.run_pipeline([np.ones((2, 2))], exploding_device_fn,
                                        timeout_s=30.0)
                bad_failure.append(str(excinfo.value))
            finally:
                client.close()

        threads = [threading.Thread(target=good_client),
                   threading.Thread(target=bad_client)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        server.stop()
        # The good client's frames all succeeded despite sharing batches
        # with the poisoned frame.
        frames, results = good_results["frames"]
        assert len(results) == 2
        for frame, result in zip(frames, results):
            np.testing.assert_array_equal(result.arrays["y"], frame * 2.0)
        assert bad_failure and "synthetic batched failure" in bad_failure[0]
        stats = server.stats()
        assert stats.errors == 1
        assert stats.frames_processed == 2
        # The failed batched call is visible as per-frame fallback frames —
        # whatever the coalescing was: even a lone poisoned frame goes
        # through the batched callable first.
        assert stats.batch_fallback_frames >= 1

    def test_malformed_batch_results_fall_back_per_frame(self):
        """Right-length but malformed results must not strand the batch tail.

        The callable is malformed for every input, so the per-frame
        fallback (each frame a batch of one through the same entry) answers
        every frame with an error — promptly, not by pipeline timeout.
        """
        def malformed_batch_fn(requests):
            # Correct length, but elements are not (arrays, meta) pairs.
            return [None for _ in requests]

        server = EdgeServer(batch_fns={"default": malformed_batch_fn},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=100.0)).start()
        failures = {}

        def run_client(index):
            client = DeviceClient(server.host, server.port)
            try:
                client.run_pipeline([np.full((2, 2), index + 1.0)],
                                    _device_fn, timeout_s=15.0)
            except Exception as exc:
                failures[index] = exc
            finally:
                client.close()

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(4)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        elapsed = time.perf_counter() - started
        server.stop()
        assert sorted(failures) == [0, 1, 2, 3]
        for exc in failures.values():
            assert isinstance(exc, RuntimeError)
            assert "NoneType" in str(exc)
        assert elapsed < 10.0  # answered, not timed out
        stats = server.stats()
        assert stats.frames_processed == 0
        assert stats.errors == 4
        # Every batched call failed, so every frame fell back.
        assert stats.batch_fallback_frames == 4

    def test_batched_serving_matches_local_forward(self):
        """Logits served through the micro-batcher equal a local forward."""
        def arch(name):
            return Architecture(ops=(
                OpSpec(OpType.SAMPLE, "knn", k=4),
                OpSpec(OpType.AGGREGATE, "max"),
                OpSpec(OpType.COMMUNICATE, "uplink"),
                OpSpec(OpType.COMBINE, 16),
                OpSpec(OpType.GLOBAL_POOL, "max||mean"),
            ), name=name)

        zoo = ArchitectureZoo([ZooEntry("served", arch("served"),
                                        0.9, 50.0, 0.5)])
        serving = build_zoo_callables(zoo, in_dim=3, num_classes=5, seed=0)
        server = EdgeServer(
            batch_fns={"served": serving["served"].batch_fn},
            batching=BatchingConfig(max_batch_size=4,
                                    max_wait_ms=30.0)).start()
        frames = _frames(4)
        reference = ArchitectureModel(arch("served"), in_dim=3, num_classes=5,
                                      seed=0)
        expected = [reference(frame).data for frame in frames]
        outputs = {}
        errors = []

        def run_client(index):
            client = DeviceClient(server.host, server.port, model="served")
            try:
                results, _ = client.run_pipeline(
                    frames, serving["served"].device_fn, timeout_s=30.0)
                outputs[index] = results
            except Exception as exc:
                errors.append((index, exc))
            finally:
                client.close()

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        server.stop()
        assert not errors, f"client failures: {errors}"
        for results in outputs.values():
            assert len(results) == len(frames)
            for result, local in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"], local,
                                           rtol=1e-12, atol=1e-12)

    def test_mixed_pos_batch_is_served_per_frame(self):
        """A micro-batch of one frame with ``pos`` and one without: the
        batched callable refuses it (it used to drop ``pos`` for both and
        answer the first frame ~0.1 off), the engine's per-frame fallback
        serves both exactly."""
        from repro.graph.data import GraphData
        arch = Architecture(ops=(
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.GLOBAL_POOL, "max||mean"),
        ), name="served")
        zoo = ArchitectureZoo([ZooEntry("served", arch, 0.9, 50.0, 0.5)])
        entry = build_zoo_callables(zoo, in_dim=3, num_classes=5,
                                    seed=0)["served"]
        rng = np.random.default_rng(0)
        frames = [Batch.from_graphs([GraphData(
                      x=rng.standard_normal((32, 3)),
                      pos=rng.standard_normal((32, 3)))]),
                  Batch.from_graphs([GraphData(
                      x=rng.standard_normal((32, 3)))])]
        states = [entry.device_fn(frame) for frame in frames]
        assert "pos" in states[0][0] and "pos" not in states[1][0]
        expected = [entry.edge_fn(arrays, meta)[0]["logits"]
                    for arrays, meta in states]
        with pytest.raises(ValueError, match="pos"):
            entry.batch_fn(states)

        server = EdgeServer(batch_fns={"served": entry.batch_fn},
                            batching=BatchingConfig(max_batch_size=2,
                                                    max_wait_ms=2000.0)).start()
        client = DeviceClient(server.host, server.port, model="served")
        try:
            results, _ = client.run_pipeline(frames, entry.device_fn,
                                             timeout_s=30.0)
        finally:
            client.close()
            server.stop()
        for result, local in zip(results, expected):
            np.testing.assert_allclose(result.arrays["logits"], local,
                                       rtol=0, atol=1e-9)
        stats = server.stats()
        assert stats.errors == 0
        assert stats.batch_size_histogram == {2: 1}
        assert stats.batch_fallback_frames == 2

    def test_reply_after_session_eviction_books_into_aggregate(self):
        """Late batcher replies must not mutate an already-evicted session."""
        from repro.system.engine import ServingSession, _PendingRequest
        from repro.system.messages import Message as _Message
        from repro.system.transport import Connection

        class SinkConnection(Connection):
            def send_bytes(self, blob):
                return len(blob)

        server = EdgeServer(batch_fns={"default": _batch_edge_fn},
                            batching=BatchingConfig(max_batch_size=2))
        try:
            session = ServingSession(session_id=99, peer="test")
            session.evicted = True  # folded into the aggregate already
            request = _PendingRequest(
                conn=SinkConnection(), session=session,
                message=_Message(kind="frame", frame_id=0,
                                 arrays={"x": np.ones((1, 1))}, meta={}),
                enqueued_at=0.0)
            server._reply_result(request, "default", {"y": np.ones((1, 1))},
                                 {}, 0.01)
            # The evicted session object stays untouched; the frame lands in
            # the retained aggregate and is visible in the totals.
            assert session.frames == 0
            assert server._retired.frames == 1
            assert server.frames_processed == 1
        finally:
            server.stop()

    def test_batching_off_by_default_serves_without_batch_index(self):
        server = EdgeServer(_edge_fn).start()
        client = DeviceClient(server.host, server.port)
        try:
            results, _ = client.run_pipeline([np.ones((2, 2))], _device_fn,
                                             timeout_s=10.0)
            assert results[0].batch_index is None
        finally:
            client.close()
            server.stop()
        stats = server.stats()
        assert stats.batches_dispatched == 0
        assert stats.batch_size_histogram == {}


class TestBatchIndexWireFormat:
    def test_batch_index_roundtrips(self):
        message = Message(kind="result", frame_id=3,
                          arrays={"y": np.ones((2, 2))}, meta={"ok": True},
                          batch_index=5)
        decoded = deserialize_message(serialize_message(message))
        assert decoded.batch_index == 5
        assert decoded.frame_id == 3

    def test_batch_index_defaults_to_none(self):
        decoded = deserialize_message(serialize_message(Message(kind="frame")))
        assert decoded.batch_index is None


class TestQueueDepthStats:
    """Queue health: EdgeServerStats.queue_depth / queue_depth_peak."""

    def test_depth_visible_under_gated_dispatch_and_drains_to_zero(self):
        release = threading.Event()
        dispatched = threading.Event()

        def gated_batch_fn(requests):
            dispatched.set()
            # Must outlive the queue-depth wait below, or the gate expires
            # mid-test, the queue drains, and the depth assertion races.
            release.wait(timeout=60.0)
            return _batch_edge_fn(requests)

        server = EdgeServer(batch_fns={"default": gated_batch_fn},
                            config=ServerConfig(max_workers=4),
                            batching=BatchingConfig(max_batch_size=1024,
                                                    max_wait_ms=0.0)).start()
        clients = [DeviceClient(server.host, server.port) for _ in range(2)]
        errors = []

        def run_client(client, value):
            try:
                frames = [np.full((2, 2), value + i, dtype=float)
                          for i in range(4)]
                client.run_pipeline(frames, _device_fn, timeout_s=30.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run_client, args=(c, i * 10))
                   for i, c in enumerate(clients)]
        try:
            threads[0].start()
            assert dispatched.wait(timeout=10.0)
            # First dispatch is gated; everything client 2 sends now piles
            # up in the entry queue and must show up as queue depth.
            threads[1].start()
            wait_until(lambda: server.stats().queue_depth >= 1,
                       message="frames queued behind the gated dispatch")
            stalled = server.stats()
            assert stalled.queue_depth >= 1
            assert stalled.queue_depth_peak >= stalled.queue_depth
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors, errors
            drained = server.stats()
            assert drained.queue_depth == 0  # everything dispatched
            assert drained.queue_depth_peak >= stalled.queue_depth_peak
        finally:
            release.set()
            for client in clients:
                client.close()
            server.stop()

    def test_zero_without_batching(self):
        server = EdgeServer(_edge_fn).start()
        client = DeviceClient(server.host, server.port)
        try:
            client.run_pipeline([np.ones((2, 2))], _device_fn, timeout_s=10.0)
            stats = server.stats()
            assert stats.queue_depth == 0
            assert stats.queue_depth_peak == 0
        finally:
            client.close()
            server.stop()
