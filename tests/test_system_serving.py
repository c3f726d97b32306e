"""Tests for multi-client concurrent serving on the edge engine.

Covers the serving subsystem of :mod:`repro.system.engine`: one
:class:`EdgeServer` handling several :class:`DeviceClient` connections at
once, per-session/aggregate statistics, edge-error propagation, and
dispatcher-driven multi-model serving keyed by announced runtime conditions.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureZoo, RuntimeDispatcher,
                        ZooEntry)
from repro.serving import ClientConfig, ServerConfig, build_zoo_callables
from repro.gnn import OpSpec, OpType
from repro.system import DeviceClient, EdgeServer

from conftest import per_frame


def _device_fn(frame):
    return {"x": np.asarray(frame, dtype=np.float64)}, {"scale": 2.0}


def _edge_fn(arrays, meta):
    return {"y": arrays["x"] * meta["scale"]}, {"done": True}


#: What the one encoder refuses, as (extra arrays, extra meta, error text):
#: metadata json cannot dump, and an object array (its buffer holds
#: pointers, not values — refused by both framings).
_UNENCODABLE = [
    pytest.param({}, {"count": np.int64(3)}, "TypeError", id="meta"),
    pytest.param({"o": np.array([object()])}, {}, "object dtype",
                 id="object-array"),
]


class TestConcurrentServing:
    def test_three_clients_served_concurrently(self):
        num_clients, frames_per_client = 3, 8
        server = EdgeServer(_edge_fn, config=ServerConfig(max_workers=4)).start()
        outputs = {}
        errors = []

        def run_client(index):
            client = DeviceClient(server.host, server.port,
                                  client_name=f"client-{index}")
            try:
                frames = [np.full((4, 2), index * 100 + i, dtype=float)
                          for i in range(frames_per_client)]
                results, stats = client.run_pipeline(frames, _device_fn)
                outputs[index] = (frames, results, stats)
            except Exception as exc:  # surfaced after join
                errors.append((index, exc))
            finally:
                client.close()

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(num_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        try:
            assert not errors, f"client failures: {errors}"
            assert len(outputs) == num_clients
            # Per-client result integrity: every client sees exactly its own
            # frames, doubled, in order.
            for index, (frames, results, stats) in outputs.items():
                assert [r.frame_id for r in results] == list(range(frames_per_client))
                for frame, result in zip(frames, results):
                    np.testing.assert_allclose(result.arrays["y"], frame * 2.0)
                assert stats.num_frames == frames_per_client
            assert server.frames_processed == num_clients * frames_per_client
            stats = server.stats()
            assert stats.num_sessions == num_clients
            assert stats.frames_processed == num_clients * frames_per_client
            assert stats.errors == 0
            assert stats.bytes_received > 0 and stats.bytes_sent > 0
            assert stats.mean_service_time_s >= 0.0
            assert stats.throughput_fps > 0.0
            names = {s.client_name for s in stats.sessions}
            assert names == {f"client-{i}" for i in range(num_clients)}
            assert all(s.frames == frames_per_client for s in stats.sessions)
        finally:
            server.stop()
        assert server.stats().active_sessions == 0
        # The wall clock freezes at stop(): later snapshots report the same
        # serving-time throughput.
        first, second = server.stats().wall_time_s, server.stats().wall_time_s
        assert first == second

    def test_sessions_can_exceed_worker_pool(self):
        """More sequential connections than worker slots are all served."""
        server = EdgeServer(_edge_fn, config=ServerConfig(max_workers=2)).start()
        try:
            for index in range(5):
                client = DeviceClient(server.host, server.port)
                try:
                    results, _ = client.run_pipeline([np.ones((2, 2)) * index],
                                                     _device_fn)
                    np.testing.assert_allclose(results[0].arrays["y"],
                                               np.ones((2, 2)) * index * 2.0)
                finally:
                    client.close()
        finally:
            server.stop()
        assert server.stats().num_sessions == 5

    def test_concurrent_clients_beyond_pool_all_complete(self):
        """Simultaneous connections above max_workers wait their turn and finish."""
        server = EdgeServer(_edge_fn, config=ServerConfig(max_workers=2)).start()
        failures = []

        def run(index):
            client = DeviceClient(server.host, server.port)
            try:
                results, _ = client.run_pipeline([np.ones((2, 2)) * index] * 2,
                                                 _device_fn, timeout_s=30.0)
                for result in results:
                    np.testing.assert_allclose(result.arrays["y"],
                                               np.ones((2, 2)) * index * 2.0)
            except Exception as exc:
                failures.append((index, exc))
            finally:
                client.close()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        server.stop()
        assert not failures, f"clients failed: {failures}"
        assert server.stats().frames_processed == 10

    def test_hello_handshake_reports_server_info(self):
        server = EdgeServer(_edge_fn,
                            batch_fns={"only": per_frame(_edge_fn)}).start()
        client = DeviceClient(server.host, server.port, client_name="probe")
        try:
            info = client.handshake()
            # Every routable name is advertised, including the default bucket.
            assert info["models"] == ["default", "only"]
            assert info["session_id"] == 0
        finally:
            client.close()
            server.stop()
        assert server.stats().sessions[0].client_name == "probe"

    def test_session_log_is_bounded_but_aggregates_are_not(self):
        """Old closed sessions fold into the totals instead of leaking."""
        server = EdgeServer(_edge_fn,
                            config=ServerConfig(session_log_limit=2)).start()
        try:
            for index in range(5):
                client = DeviceClient(server.host, server.port,
                                      client_name=f"burst-{index}")
                try:
                    client.run_pipeline([np.ones((2, 2))], _device_fn,
                                        timeout_s=10.0)
                finally:
                    client.close()
        finally:
            server.stop()
        stats = server.stats()
        assert stats.num_sessions == 5
        assert stats.frames_processed == 5
        assert server.frames_processed == 5
        assert stats.frames_by_model == {"default": 5}
        assert len(stats.sessions) <= 2  # only the most recent are retained
        # Session ids keep increasing even after eviction.
        assert stats.sessions[-1].session_id == 4

    def test_handshake_fails_fast_when_peer_closes_before_ack(self):
        """A hello that will never be answered must not burn the timeout."""
        import time as _time

        from conftest import fake_peer

        with fake_peer(lambda conn: conn.close()) as (host, port):
            client = DeviceClient(host, port)
            started = _time.perf_counter()
            try:
                with pytest.raises(ConnectionError, match="before the hello"):
                    client.handshake(timeout_s=30.0)
                assert _time.perf_counter() - started < 10.0
            finally:
                client.close()

    def test_connect_timeout_does_not_cut_slow_edge_responses(self):
        """The client timeout guards connecting, not waiting for results."""
        import time as _time

        def slow_edge_fn(arrays, meta):
            _time.sleep(1.2)
            return _edge_fn(arrays, meta)

        server = EdgeServer(slow_edge_fn).start()
        client = DeviceClient(server.host, server.port,
                              ClientConfig(connect_timeout_s=0.5))
        try:
            results, _ = client.run_pipeline([np.ones((2, 2))], _device_fn,
                                             timeout_s=10.0)
            np.testing.assert_allclose(results[0].arrays["y"], np.ones((2, 2)) * 2.0)
        finally:
            client.close()
            server.stop()

    def test_default_frames_attributed_to_real_entry_name(self):
        """batch_fns-only servers book untagged frames under the entry that ran."""
        server = EdgeServer(batch_fns={"only": per_frame(_edge_fn)}).start()
        client = DeviceClient(server.host, server.port)
        try:
            client.run_pipeline([np.ones((2, 2))], _device_fn, timeout_s=10.0)
        finally:
            client.close()
            server.stop()
        assert server.stats().frames_by_model == {"only": 1}

    def test_rejects_empty_configuration(self):
        with pytest.raises(ValueError):
            EdgeServer()
        with pytest.raises(ValueError):
            EdgeServer(_edge_fn, config=ServerConfig(max_workers=0))
        # A named entry the default would shadow is a misconfiguration.
        with pytest.raises(ValueError, match="reserved"):
            EdgeServer(_edge_fn, batch_fns={"default": per_frame(_edge_fn)})


class TestErrorPropagation:
    @staticmethod
    def _flaky_edge_fn(arrays, meta):
        if meta.get("explode"):
            raise ValueError("synthetic edge failure")
        return _edge_fn(arrays, meta)

    def test_edge_exception_reaches_client_with_traceback(self):
        server = EdgeServer(self._flaky_edge_fn).start()
        client = DeviceClient(server.host, server.port)

        def bad_device_fn(frame):
            arrays, meta = _device_fn(frame)
            meta["explode"] = True
            return arrays, meta

        try:
            with pytest.raises(RuntimeError) as excinfo:
                client.run_pipeline([np.ones((2, 2))], bad_device_fn, timeout_s=10.0)
            text = str(excinfo.value)
            assert "synthetic edge failure" in text
            assert "Traceback" in text  # remote traceback travels with the error
        finally:
            client.close()
        # The server survives the failure and keeps serving new clients.
        client2 = DeviceClient(server.host, server.port)
        try:
            results, _ = client2.run_pipeline([np.ones((2, 2))], _device_fn,
                                              timeout_s=10.0)
            np.testing.assert_allclose(results[0].arrays["y"], np.ones((2, 2)) * 2.0)
        finally:
            client2.close()
            server.stop()
        assert server.stats().errors == 1

    def test_retry_after_edge_error_is_not_corrupted_by_stale_results(self):
        """Leftover results of an aborted run must not leak into the next one."""
        server = EdgeServer(self._flaky_edge_fn).start()
        client = DeviceClient(server.host, server.port)

        first_call = {"pending": True}

        def sometimes_bad_device_fn(frame):
            arrays, meta = _device_fn(frame)
            if first_call.pop("pending", None):
                meta["explode"] = True  # only the very first frame fails
            return arrays, meta

        try:
            with pytest.raises(RuntimeError, match="synthetic edge failure"):
                # Frames 1 and 2 are still served after the error for frame 0
                # and linger in the client's result queue.
                client.run_pipeline([np.full((2, 2), v, dtype=float)
                                     for v in (1.0, 2.0, 3.0)],
                                    sometimes_bad_device_fn, timeout_s=10.0)
            retry_frames = [np.full((2, 2), v, dtype=float) for v in (7.0, 9.0)]
            results, _ = client.run_pipeline(retry_frames, _device_fn,
                                             timeout_s=10.0)
            assert [r.frame_id for r in results] == [0, 1]
            for frame, result in zip(retry_frames, results):
                np.testing.assert_allclose(result.arrays["y"], frame * 2.0)
        finally:
            client.close()
            server.stop()

    def test_lost_connection_fails_fast_not_on_timeout(self):
        """A dying server must raise promptly, not burn the whole timeout."""
        import time as _time

        def slow_edge_fn(arrays, meta):
            _time.sleep(0.5)
            return _edge_fn(arrays, meta)

        server = EdgeServer(slow_edge_fn).start()
        client = DeviceClient(server.host, server.port)
        killer = threading.Timer(0.2, server.stop)
        killer.start()
        started = _time.perf_counter()
        try:
            with pytest.raises(ConnectionError, match="outstanding"):
                client.run_pipeline([np.ones((2, 2))] * 3, _device_fn,
                                    timeout_s=30.0)
            assert _time.perf_counter() - started < 15.0  # nowhere near timeout_s
            # A retry on the known-dead connection fails immediately too.
            with pytest.raises(ConnectionError, match="already lost"):
                client.run_pipeline([np.ones((2, 2))], _device_fn, timeout_s=30.0)
        finally:
            killer.cancel()
            client.close()
            server.stop()

    def test_selector_failure_surfaces_in_handshake(self):
        """A dispatch crash must answer the hello, not leave the client hanging."""
        def broken_selector(meta):
            raise ValueError("bad conditions payload")

        server = EdgeServer(batch_fns={"only": per_frame(_edge_fn)},
                            selector=broken_selector).start()
        client = DeviceClient(server.host, server.port,
                              conditions={"latency_budget_ms": "not-a-number"})
        try:
            with pytest.raises(RuntimeError, match="bad conditions payload"):
                client.handshake(timeout_s=10.0)
        finally:
            client.close()
        # The server survives and still answers well-formed clients.
        client2 = DeviceClient(server.host, server.port, model="only")
        try:
            results, _ = client2.run_pipeline([np.ones((2, 2))], _device_fn,
                                              timeout_s=10.0)
            np.testing.assert_allclose(results[0].arrays["y"], np.ones((2, 2)) * 2.0)
        finally:
            client2.close()
            server.stop()
        assert server.stats().errors == 1

    def test_dispatched_model_missing_from_batch_fns_is_reported(self):
        server = EdgeServer(batch_fns={"present": per_frame(_edge_fn)},
                            selector=lambda meta: "absent").start()
        client = DeviceClient(server.host, server.port,
                              conditions={"latency_budget_ms": 10.0})
        try:
            with pytest.raises(RuntimeError, match="absent"):
                client.handshake(timeout_s=10.0)
        finally:
            client.close()
            server.stop()

    @pytest.mark.parametrize("wire_format", ["zlib", "raw"])
    @pytest.mark.parametrize("extra_arrays, extra_meta, error", _UNENCODABLE)
    def test_unserializable_edge_reply_returns_error_not_dead_connection(
            self, extra_arrays, extra_meta, error, wire_format):
        """A reply the wire format cannot encode must come back as an error."""
        def bad_edge_fn(arrays, meta):
            return dict(extra_arrays, y=arrays["x"]), dict(extra_meta)

        server = EdgeServer(bad_edge_fn).start()
        client = DeviceClient(server.host, server.port,
                              ClientConfig(wire_format=wire_format))
        try:
            with pytest.raises(RuntimeError, match=error):
                client.run_pipeline([np.ones((2, 2))], _device_fn, timeout_s=10.0)
        finally:
            client.close()
            server.stop()
        stats = server.stats()
        assert stats.errors == 1
        assert stats.frames_processed == 0  # never delivered, never counted

    def test_pipeline_timeout_raises_timeout_error_not_queue_empty(self):
        """An expired wait must surface as TimeoutError, not queue.Empty."""
        import time as _time

        def hanging_edge_fn(arrays, meta):
            _time.sleep(5.0)
            return _edge_fn(arrays, meta)

        server = EdgeServer(hanging_edge_fn).start()
        client = DeviceClient(server.host, server.port)
        try:
            with pytest.raises(TimeoutError, match="timed out"):
                client.run_pipeline([np.ones((2, 2))], _device_fn, timeout_s=0.3)
        finally:
            client.close()
            server.stop()

    def test_pipeline_timeout_defaults_to_the_client_config(self):
        """``run_pipeline`` without ``timeout_s`` waits
        ``ClientConfig.pipeline_timeout_s``, not a default of its own."""
        release = threading.Event()

        def blocked_edge_fn(arrays, meta):
            release.wait(10.0)
            return _edge_fn(arrays, meta)

        server = EdgeServer(blocked_edge_fn).start()
        client = DeviceClient(server.host, server.port,
                              ClientConfig(pipeline_timeout_s=0.3))
        try:
            with pytest.raises(TimeoutError, match="timed out"):
                client.run_pipeline([np.ones((2, 2))], _device_fn)
        finally:
            release.set()
            client.close()
            server.stop()

    def test_handshake_timeout_defaults_to_the_client_config(self):
        """``handshake()`` without ``timeout_s`` waits
        ``ClientConfig.handshake_timeout_s``."""
        from conftest import fake_peer

        release = threading.Event()
        with fake_peer(lambda conn: release.wait(10.0)) as (host, port):
            client = DeviceClient(host, port,
                                  ClientConfig(handshake_timeout_s=0.2))
            try:
                with pytest.raises(TimeoutError, match="hello"):
                    client.handshake()
            finally:
                release.set()
                client.close()

    @pytest.mark.parametrize("wire_format", ["zlib", "raw"])
    @pytest.mark.parametrize("extra_arrays, extra_meta, error", _UNENCODABLE)
    def test_unserializable_outgoing_meta_fails_fast(
            self, extra_arrays, extra_meta, error, wire_format):
        """A device-side frame the wire format cannot encode must not hang."""
        import time as _time

        def bad_device_fn(frame):
            arrays, meta = _device_fn(frame)
            return dict(arrays, **extra_arrays), dict(meta, **extra_meta)

        server = EdgeServer(_edge_fn).start()
        client = DeviceClient(server.host, server.port,
                              ClientConfig(wire_format=wire_format))
        started = _time.perf_counter()
        try:
            with pytest.raises(
                    ConnectionError,
                    match=f"failed to serialize an outgoing message.*{error}"):
                client.run_pipeline([np.ones((2, 2))], bad_device_fn,
                                    timeout_s=30.0)
            assert _time.perf_counter() - started < 10.0
        finally:
            client.close()
            server.stop()

    def test_corrupt_stream_from_server_fails_fast(self):
        """Garbage on the wire must surface as a disconnect, not a timeout."""
        import struct as _struct
        import time as _time

        from conftest import fake_peer

        def send_garbage(conn):
            conn.sendall(_struct.pack(">I", 7) + b"garbage")  # not valid zlib

        with fake_peer(send_garbage) as (host, port):
            client = DeviceClient(host, port)
            started = _time.perf_counter()
            try:
                with pytest.raises(ConnectionError, match="malformed"):
                    client.run_pipeline([np.ones((2, 2))], _device_fn,
                                        timeout_s=30.0)
                assert _time.perf_counter() - started < 10.0
            finally:
                client.close()

    def test_unknown_model_is_reported_not_fatal(self):
        server = EdgeServer(_edge_fn,
                            batch_fns={"known": per_frame(_edge_fn)}).start()
        client = DeviceClient(server.host, server.port, model="missing")
        try:
            with pytest.raises(RuntimeError, match="missing"):
                client.run_pipeline([np.ones((2, 2))], _device_fn, timeout_s=10.0)
        finally:
            client.close()
            server.stop()


class TestDispatchedServing:
    @staticmethod
    def _zoo() -> ArchitectureZoo:
        def arch(name):
            return Architecture(ops=(
                OpSpec(OpType.SAMPLE, "knn", k=4),
                OpSpec(OpType.AGGREGATE, "max"),
                OpSpec(OpType.COMMUNICATE, "uplink"),
                OpSpec(OpType.COMBINE, 16),
                OpSpec(OpType.GLOBAL_POOL, "mean"),
            ), name=name)
        return ArchitectureZoo([
            ZooEntry("accurate", arch("accurate"), 0.95, 80.0, 0.8),
            ZooEntry("fast", arch("fast"), 0.90, 25.0, 0.3),
        ])

    def test_conditions_route_to_matching_model(self):
        dispatcher = RuntimeDispatcher(self._zoo())
        doubler = lambda arrays, meta: ({"y": arrays["x"] * 2.0}, {"model": "fast"})
        tripler = lambda arrays, meta: ({"y": arrays["x"] * 3.0}, {"model": "accurate"})
        server = EdgeServer(batch_fns={"fast": per_frame(doubler),
                                       "accurate": per_frame(tripler)},
                            selector=dispatcher.select_for_meta).start()
        tight = DeviceClient(server.host, server.port, client_name="tight",
                             conditions={"latency_budget_ms": 30.0})
        loose = DeviceClient(server.host, server.port, client_name="loose",
                             conditions={"latency_budget_ms": 200.0})
        try:
            assert tight.assigned_model == "fast"
            assert loose.assigned_model == "accurate"
            frames = [np.ones((2, 2))] * 3
            tight_results, _ = tight.run_pipeline(frames, _device_fn)
            loose_results, _ = loose.run_pipeline(frames, _device_fn)
            for result in tight_results:
                np.testing.assert_allclose(result.arrays["y"], np.ones((2, 2)) * 2.0)
            for result in loose_results:
                np.testing.assert_allclose(result.arrays["y"], np.ones((2, 2)) * 3.0)
        finally:
            tight.close()
            loose.close()
            server.stop()
        stats = server.stats()
        assert stats.frames_by_model == {"fast": 3, "accurate": 3}

    def test_default_model_name_resolves_on_mixed_server(self):
        """The name stats report for default frames must itself be routable."""
        server = EdgeServer(_edge_fn, batch_fns={"other": per_frame(
            lambda a, m: ({"y": a["x"] * 3.0}, {}))}).start()
        client = DeviceClient(server.host, server.port, model="default")
        try:
            results, _ = client.run_pipeline([np.ones((2, 2))], _device_fn,
                                             timeout_s=10.0)
            np.testing.assert_allclose(results[0].arrays["y"], np.ones((2, 2)) * 2.0)
        finally:
            client.close()
            server.stop()
        assert server.stats().frames_by_model == {"default": 1}

    def test_explicit_model_overrides_selector(self):
        dispatcher = RuntimeDispatcher(self._zoo())
        server = EdgeServer(
            batch_fns={
                "fast": per_frame(lambda a, m: ({"y": a["x"] * 2.0}, {})),
                "accurate": per_frame(lambda a, m: ({"y": a["x"] * 3.0}, {}))},
            selector=dispatcher.select_for_meta).start()
        client = DeviceClient(server.host, server.port, model="accurate")
        try:
            results, _ = client.run_pipeline([np.ones((2, 2))], _device_fn)
            np.testing.assert_allclose(results[0].arrays["y"], np.ones((2, 2)) * 3.0)
        finally:
            client.close()
            server.stop()

    def test_zoo_callables_serve_real_models(self, tiny_modelnet, modelnet_profile):
        """End-to-end: dispatcher-selected ArchitectureModel entries over sockets."""
        from repro.core import ArchitectureModel
        from repro.graph.data import Batch

        zoo = self._zoo()
        pairs = {name: (serving.device_fn, serving.batch_fn)
                 for name, serving in build_zoo_callables(
                     zoo, in_dim=modelnet_profile.feature_dim,
                     num_classes=modelnet_profile.num_classes,
                     seed=0).items()}
        assert set(pairs) == {"accurate", "fast"}
        dispatcher = RuntimeDispatcher(zoo)
        server = EdgeServer(batch_fns={name: pair[1] for name, pair in pairs.items()},
                            selector=dispatcher.select_for_meta).start()
        client = DeviceClient(server.host, server.port,
                              conditions={"latency_budget_ms": 30.0})
        try:
            assigned = client.assigned_model
            assert assigned == "fast"
            device_fn = pairs[assigned][0]
            frames = [Batch.from_graphs([g]) for g in tiny_modelnet.test[:2]]
            results, _ = client.run_pipeline(frames, device_fn)
            # Served logits must match a local forward of the same entry.
            model = ArchitectureModel(zoo.get(assigned).architecture,
                                      in_dim=modelnet_profile.feature_dim,
                                      num_classes=modelnet_profile.num_classes,
                                      seed=0)
            local = model(frames[0]).data
            np.testing.assert_allclose(results[0].arrays["logits"], local, atol=1e-8)
        finally:
            client.close()
            server.stop()
