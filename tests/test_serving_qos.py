"""QoS admission control and pluggable transport frontends.

Covers the three layers the transport/scheduling split created:

* :mod:`repro.system.scheduler` — deterministic unit tests of the
  admission decisions (bounded queues, priority classes, per-client
  fairness, deadline handling) using injected clocks.
* :mod:`repro.system.transport` + :mod:`repro.system.engine` — end-to-end
  QoS semantics over real sockets: a shed frame gets a clean ``rejected``
  reply (not a timeout), expired-deadline frames are never executed,
  fairness protects a trickle client from a firehose, and the execution
  tier's :class:`FrameExpiredError` / :class:`BackpressureError` surface
  as typed rejections.
* :mod:`repro.serving` — `QosConfig` / `ServerConfig(frontend=...)` /
  `ClientConfig` validation and round-trips, plus the hard invariant of
  the refactor: the threaded and asyncio frontends produce numerically
  identical results (≤ 1e-9) across the aggregator × pool zoo matrix,
  and the PR 4/5 guarantees (hot-reload snapshot pinning, batch purity,
  shard crash semantics) hold identically under the async frontend.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from conftest import wait_until
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.serving import (BatchingConfig, ClientConfig, ModelRepository,
                           QosConfig, RequestRejectedError, ServerConfig,
                           ServingConfig, ShardingConfig, serve,
                           sharding_supported)
from repro.system import DeviceClient, EdgeServer
from repro.system.messages import Message, send_message
from repro.system.scheduler import (REJECT_REASON_CAPACITY,
                                    REJECT_REASON_DEADLINE,
                                    REJECT_REASON_FAIRNESS, Admission,
                                    BackpressureError, FrameExpiredError,
                                    Rejection, Scheduler)
from repro.system.transport import FRONTEND_ASYNC, FRONTEND_THREADED, FRONTENDS


def _arch(name: str, k: int = 4, width: int = 16, aggregate: str = "max",
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

#: One entry per aggregator x pooling combination the design space uses —
#: the matrix over which the two frontends must agree ≤ 1e-9.
MATRIX_ZOO = ArchitectureZoo([
    ZooEntry(f"{aggregate}-{pool}".replace("||", ""),
             _arch(f"{aggregate}-{pool}".replace("||", ""), k=4, width=16,
                   aggregate=aggregate, pool=pool),
             0.9, 40.0, 0.4)
    for aggregate in ("max", "mean", "add")
    for pool in ("max", "mean", "max||mean")
])


def _frames(count: int = 3):
    graphs = SyntheticModelNet40(num_points=24, samples_per_class=2,
                                 num_classes=3, seed=1).generate()
    return [Batch.from_graphs([graphs[i % len(graphs)]]) for i in range(count)]


def _reference_logits(zoo: ArchitectureZoo, name: str, frames) -> list:
    model = ArchitectureModel(zoo.get(name).architecture, in_dim=3,
                              num_classes=3, seed=0)
    return [model(frame).data for frame in frames]


def _matches(logits, *references, atol: float = 1e-8) -> bool:
    return any(np.allclose(logits, ref, atol=atol) for ref in references)


def _device_fn(frame):
    return {"x": np.asarray(frame, dtype=np.float64)}, {}


def _echo_fn(arrays, meta):
    return {"y": arrays["x"] * 2.0}, meta


# ----------------------------------------------------------------------
# Config layer: QosConfig / ServerConfig.frontend / ClientConfig QoS knobs
# ----------------------------------------------------------------------
class TestQosConfig:
    def test_defaults_valid_and_disabled(self):
        config = QosConfig()
        assert config.max_queue_depth is None
        assert config.default_deadline_ms is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            QosConfig(max_queue_depth=0)
        with pytest.raises(ValueError, match="default_deadline_ms"):
            QosConfig(default_deadline_ms=0.0)
        with pytest.raises(ValueError, match="retry_after_ms"):
            QosConfig(retry_after_ms=-1.0)
        with pytest.raises(ValueError, match="priority_map"):
            QosConfig(priority_map={"bulk": -1})
        with pytest.raises(ValueError, match="priority_map"):
            QosConfig(priority_map={"bulk": True})
        with pytest.raises(ValueError, match="default_priority"):
            QosConfig(default_priority=-1)
        with pytest.raises(ValueError, match="fairness_window_s"):
            QosConfig(fairness_window_s=0.0)

    def test_policy_mirrors_config(self):
        config = QosConfig(max_queue_depth=16, default_deadline_ms=250.0,
                           retry_after_ms=20.0, priority_map={"bulk": 2},
                           default_priority=1, fairness=False)
        # The scheduler reads the config itself: no second declaration of
        # the seven fields to drift from it.
        policy = Scheduler(config).policy
        assert policy is config
        assert policy.max_queue_depth == 16
        assert policy.default_deadline_ms == 250.0
        assert policy.retry_after_ms == 20.0
        assert dict(policy.priority_map) == {"bulk": 2}
        assert policy.default_priority == 1
        assert policy.fairness is False

    def test_round_trip(self):
        config = ServingConfig(
            qos=QosConfig(max_queue_depth=8, default_deadline_ms=100.0,
                          priority_map={"interactive": 0, "bulk": 2}),
            server=ServerConfig(frontend=FRONTEND_ASYNC))
        rebuilt = ServingConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.qos.priority_map == {"interactive": 0, "bulk": 2}
        assert rebuilt.server.frontend == FRONTEND_ASYNC

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="QosConfig"):
            QosConfig.from_dict({"max_queue_depth": 4, "shed": True})

    def test_server_frontend_validated(self):
        assert ServerConfig().frontend == FRONTEND_THREADED
        assert ServerConfig(frontend=FRONTEND_ASYNC).frontend == FRONTEND_ASYNC
        with pytest.raises(ValueError, match="frontend"):
            ServerConfig(frontend="quic")

    def test_client_qos_knobs_validated(self):
        config = ClientConfig(deadline_ms=50.0, priority="interactive",
                              on_rejected="drop")
        rebuilt = ClientConfig.from_dict(config.to_dict())
        assert rebuilt == config
        with pytest.raises(ValueError, match="deadline_ms"):
            ClientConfig(deadline_ms=0.0)
        with pytest.raises(ValueError, match="priority"):
            ClientConfig(priority=-2)
        with pytest.raises(ValueError, match="on_rejected"):
            ClientConfig(on_rejected="retry")


# ----------------------------------------------------------------------
# Scheduler unit tests (deterministic: injected clocks, no sockets)
# ----------------------------------------------------------------------
class TestScheduler:
    def test_default_policy_is_unbounded(self):
        scheduler = Scheduler()
        for i in range(1000):
            decision = scheduler.admit("c", {}, now=float(i))
            assert isinstance(decision, Admission)
        snapshot = scheduler.snapshot()
        assert snapshot.queued == 1000 and snapshot.frames_shed == 0

    def test_capacity_bound_sheds_and_release_refills(self):
        scheduler = Scheduler(QosConfig(max_queue_depth=2, fairness=False,
                                        retry_after_ms=25.0))
        assert isinstance(scheduler.admit("c", {}, now=0.0), Admission)
        assert isinstance(scheduler.admit("c", {}, now=0.0), Admission)
        decision = scheduler.admit("c", {}, now=0.0)
        assert isinstance(decision, Rejection)
        assert decision.reason == REJECT_REASON_CAPACITY
        assert decision.retry_after_ms == 25.0
        scheduler.release("c")
        assert isinstance(scheduler.admit("c", {}, now=0.0), Admission)
        snapshot = scheduler.snapshot()
        assert snapshot.frames_shed == 1
        assert snapshot.shed_by_reason == {REJECT_REASON_CAPACITY: 1}
        assert snapshot.queued == 2

    def test_fairness_caps_one_client_at_its_share(self):
        scheduler = Scheduler(QosConfig(max_queue_depth=4, fairness=True,
                                        fairness_window_s=10.0))
        # Trickle client announces itself first: both clients are active,
        # so each share is 4 // 2 = 2 slots.
        assert isinstance(scheduler.admit("trickle", {}, now=0.0), Admission)
        assert isinstance(scheduler.admit("firehose", {}, now=0.1), Admission)
        assert isinstance(scheduler.admit("firehose", {}, now=0.1), Admission)
        # The firehose owns its full share: fairness sheds its next frame...
        decision = scheduler.admit("firehose", {}, now=0.1)
        assert isinstance(decision, Rejection)
        assert decision.reason == REJECT_REASON_FAIRNESS
        # ...while the trickle client still finds room.
        assert isinstance(scheduler.admit("trickle", {}, now=0.2), Admission)
        # Releasing a firehose frame frees its share again.
        scheduler.release("firehose")
        assert isinstance(scheduler.admit("firehose", {}, now=0.3), Admission)

    def test_fairness_window_expires_idle_clients(self):
        scheduler = Scheduler(QosConfig(max_queue_depth=4, fairness=True,
                                        fairness_window_s=1.0))
        assert isinstance(scheduler.admit("a", {}, now=0.0), Admission)
        scheduler.release("a")
        # Two seconds later "a" is stale: "b" is the only active client and
        # sees the whole queue bound as its share.
        for _ in range(4):
            assert isinstance(scheduler.admit("b", {}, now=2.0), Admission)

    def test_priority_classes_shed_low_first(self):
        scheduler = Scheduler(QosConfig(max_queue_depth=4, fairness=False,
                                        priority_map={"bulk": 2}))
        # Two frames queued: level 2 sees an effective bound of 4 >> 2 = 1,
        # so bulk traffic is shed while the top class still has room.
        assert isinstance(scheduler.admit("c", {}, now=0.0), Admission)
        assert isinstance(scheduler.admit("c", {}, now=0.0), Admission)
        decision = scheduler.admit("c", {"priority": "bulk"}, now=0.0)
        assert isinstance(decision, Rejection)
        assert decision.reason == REJECT_REASON_CAPACITY
        assert isinstance(scheduler.admit("c", {}, now=0.0), Admission)

    def test_resolve_priority(self):
        scheduler = Scheduler(QosConfig(priority_map={"bulk": 2},
                                        default_priority=1))
        assert scheduler.resolve_priority({}) == 1
        assert scheduler.resolve_priority({"priority": "bulk"}) == 2
        assert scheduler.resolve_priority({"priority": "unknown"}) == 1
        assert scheduler.resolve_priority({"priority": 3}) == 3
        assert scheduler.resolve_priority({"priority": 2.0}) == 2
        assert scheduler.resolve_priority({"priority": -5}) == 0
        assert scheduler.resolve_priority({"priority": True}) == 1
        assert scheduler.resolve_priority({"priority": [1]}) == 1

    def test_nonpositive_deadline_rejected_on_arrival(self):
        scheduler = Scheduler()
        decision = scheduler.admit("c", {"deadline_ms": 0.0}, now=0.0)
        assert isinstance(decision, Rejection)
        assert decision.reason == REJECT_REASON_DEADLINE
        decision = scheduler.admit("c", {"deadline_ms": -5.0}, now=0.0)
        assert isinstance(decision, Rejection)
        # A hopeless frame never occupies a queue slot.
        assert scheduler.snapshot().queued == 0
        assert scheduler.snapshot().frames_shed == 2

    def test_deadline_stamps_absolute_expiry(self):
        scheduler = Scheduler()
        decision = scheduler.admit("c", {"deadline_ms": 5.0}, now=100.0)
        assert isinstance(decision, Admission)
        assert decision.expires_at == pytest.approx(100.005)
        assert not scheduler.expired(decision.expires_at, now=100.004)
        assert scheduler.expired(decision.expires_at, now=100.006)
        assert not scheduler.expired(None, now=1e9)

    def test_default_deadline_applies_to_untagged_frames(self):
        scheduler = Scheduler(QosConfig(default_deadline_ms=10.0))
        decision = scheduler.admit("c", {}, now=50.0)
        assert isinstance(decision, Admission)
        assert decision.expires_at == pytest.approx(50.010)
        # An unparseable deadline tag falls back to the policy default.
        decision = scheduler.admit("c", {"deadline_ms": "soon"}, now=50.0)
        assert isinstance(decision, Admission)
        assert decision.expires_at == pytest.approx(50.010)

    def test_queue_delay_percentiles(self):
        scheduler = Scheduler()
        for delay in (0.01, 0.02, 0.03, 0.04, 0.05,
                      0.06, 0.07, 0.08, 0.09, 0.50):
            scheduler.admit("c", {}, now=0.0)
            scheduler.release("c", queue_delay_s=delay)
        snapshot = scheduler.snapshot()
        assert snapshot.queue_delay_p50_s == pytest.approx(0.06)
        assert snapshot.queue_delay_p99_s == pytest.approx(0.50)

    def test_record_shed_books_dispatch_time_sheds(self):
        scheduler = Scheduler()
        scheduler.record_shed(REJECT_REASON_DEADLINE)
        scheduler.record_shed(REJECT_REASON_DEADLINE)
        scheduler.record_shed(REJECT_REASON_CAPACITY)
        snapshot = scheduler.snapshot()
        assert snapshot.frames_shed == 3
        assert snapshot.shed_by_reason == {REJECT_REASON_DEADLINE: 2,
                                           REJECT_REASON_CAPACITY: 1}


# ----------------------------------------------------------------------
# End-to-end QoS semantics over real sockets
# ----------------------------------------------------------------------
class TestQosEndToEnd:
    def test_shed_frame_gets_fast_rejected_reply_not_timeout(self):
        """A shed frame raises a typed error within a round-trip."""
        def slow_fn(arrays, meta):
            time.sleep(0.1)
            return {"y": arrays["x"]}, meta

        server = EdgeServer(slow_fn, config=ServerConfig(
            frontend=FRONTEND_ASYNC, max_workers=1), qos=QosConfig(
                max_queue_depth=1, fairness=False,
                retry_after_ms=15.0)).start()
        try:
            client = DeviceClient(server.host, server.port)
            try:
                started = time.monotonic()
                with pytest.raises(RequestRejectedError) as excinfo:
                    client.run_pipeline([np.ones((4,))] * 12, _device_fn,
                                        timeout_s=60.0)
                # An explicit answer, not a burned pipeline timeout.
                assert time.monotonic() - started < 10.0
                assert excinfo.value.reason == REJECT_REASON_CAPACITY
                assert excinfo.value.retry_after_ms == 15.0
                assert 0 <= excinfo.value.frame_id < 12
            finally:
                client.close()
            stats = server.stats()
            assert stats.frames_shed > 0
            assert stats.shed_by_reason.get(REJECT_REASON_CAPACITY, 0) > 0
            assert stats.frontend == FRONTEND_ASYNC
        finally:
            server.stop()

    def test_drop_mode_counts_rejections(self):
        def slow_fn(arrays, meta):
            time.sleep(0.05)
            return {"y": arrays["x"]}, meta

        server = EdgeServer(slow_fn, config=ServerConfig(
            frontend=FRONTEND_ASYNC, max_workers=1), qos=QosConfig(
                max_queue_depth=1, fairness=False)).start()
        try:
            client = DeviceClient(server.host, server.port,
                                  ClientConfig(on_rejected="drop"))
            try:
                results, stats = client.run_pipeline(
                    [np.ones((4,))] * 12, _device_fn, timeout_s=60.0)
            finally:
                client.close()
            assert stats.frames_rejected > 0
            assert len(results) + stats.frames_rejected == 12
            assert server.stats().frames_shed == stats.frames_rejected
        finally:
            server.stop()

    def test_expired_deadline_frames_are_never_executed(self):
        """A frame whose deadline lapsed in the queue must not burn an
        engine call: the batch dispatch sheds it before execution."""
        executed = []

        def counting_batch(items):
            executed.extend(items)
            return [({"y": arrays["x"]}, meta) for arrays, meta in items]

        server = EdgeServer(batch_fns={"default": counting_batch},
                            batching=BatchingConfig(max_batch_size=8,
                                                    max_wait_ms=10.0)).start()
        try:
            # 0.0005 ms expires long before the 10 ms coalescing window —
            # deadlines are honored even under the default QosConfig.
            client = DeviceClient(server.host, server.port,
                                  ClientConfig(deadline_ms=0.0005,
                                               on_rejected="drop"))
            try:
                results, stats = client.run_pipeline(
                    [np.ones((4,))] * 4, _device_fn, timeout_s=30.0)
            finally:
                client.close()
            assert results == []
            assert stats.frames_rejected == 4
            assert executed == []
            stats = server.stats()
            assert stats.shed_by_reason == {REJECT_REASON_DEADLINE: 4}
            assert stats.frames_processed == 0
        finally:
            server.stop()

    def test_fairness_protects_trickle_from_firehose(self):
        """One saturating client cannot starve a trickle client."""
        def slow_batch(items):
            time.sleep(0.01)
            return [({"y": arrays["x"] * 2.0}, meta)
                    for arrays, meta in items]

        server = EdgeServer(batch_fns={"default": slow_batch},
                            batching=BatchingConfig(max_batch_size=4,
                                                    max_wait_ms=1.0),
                            qos=QosConfig(max_queue_depth=8, fairness=True,
                                          fairness_window_s=5.0)).start()
        try:
            trickle = DeviceClient(server.host, server.port,
                                   client_name="trickle")
            firehose = DeviceClient(server.host, server.port,
                                    ClientConfig(on_rejected="drop"),
                                    client_name="firehose")
            firehose_stats = []

            def blast():
                results, stats = firehose.run_pipeline(
                    [np.ones((64,))] * 100, _device_fn, timeout_s=60.0)
                firehose_stats.append(stats)

            try:
                # The trickle client registers as active before the blast,
                # pinning the firehose's share at half the queue bound.
                trickle.run_pipeline([np.ones((4,))], _device_fn,
                                     timeout_s=30.0)
                thread = threading.Thread(target=blast)
                thread.start()
                served = 0
                for _ in range(5):
                    results, _ = trickle.run_pipeline(
                        [np.full((4,), 3.0)], _device_fn, timeout_s=30.0)
                    np.testing.assert_allclose(results[0].arrays["y"],
                                               np.full((4,), 6.0))
                    served += 1
                    time.sleep(0.02)
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            finally:
                trickle.close()
                firehose.close()
            # Every trickle frame was served while the firehose was shed.
            assert served == 5
            assert firehose_stats and firehose_stats[0].frames_rejected > 0
            shed = server.stats().shed_by_reason
            assert shed.get(REJECT_REASON_FAIRNESS, 0) > 0
        finally:
            server.stop()

    def test_execution_tier_backpressure_surfaces_as_rejection(self):
        """BackpressureError from the compute tier (a full shard ring)
        becomes a typed capacity rejection, not a generic error."""
        def pushy_fn(arrays, meta):
            raise BackpressureError("ring full")

        server = EdgeServer(pushy_fn).start()
        try:
            client = DeviceClient(server.host, server.port)
            try:
                with pytest.raises(RequestRejectedError) as excinfo:
                    client.run_pipeline([np.ones((4,))], _device_fn,
                                        timeout_s=30.0)
                assert excinfo.value.reason == REJECT_REASON_CAPACITY
            finally:
                client.close()
            assert server.stats().shed_by_reason == {REJECT_REASON_CAPACITY: 1}
        finally:
            server.stop()

    def test_execution_tier_expiry_surfaces_as_rejection(self):
        def expired_fn(arrays, meta):
            raise FrameExpiredError("too late")

        server = EdgeServer(expired_fn).start()
        try:
            client = DeviceClient(server.host, server.port,
                                  ClientConfig(on_rejected="drop"))
            try:
                results, stats = client.run_pipeline(
                    [np.ones((4,))] * 2, _device_fn, timeout_s=30.0)
            finally:
                client.close()
            assert results == [] and stats.frames_rejected == 2
            assert server.stats().shed_by_reason == {REJECT_REASON_DEADLINE: 2}
        finally:
            server.stop()

    def test_device_client_validates_qos_knobs(self):
        # A direct caller meets the knob table before any socket is dialled.
        with pytest.raises(ValueError, match="on_rejected"):
            DeviceClient("127.0.0.1", 1, ClientConfig(on_rejected="retry"))
        with pytest.raises(ValueError, match="deadline_ms"):
            DeviceClient("127.0.0.1", 1, ClientConfig(deadline_ms=0.0))


# ----------------------------------------------------------------------
# Facade wiring: client QoS knobs, stats surfacing
# ----------------------------------------------------------------------
class TestFacadeWiring:
    def test_client_config_qos_knobs_reach_device_client(self):
        config = ServingConfig(qos=QosConfig(priority_map={"bulk": 1}))
        with serve(ZOO_V1, config, in_dim=3, num_classes=3) as app:
            with app.client(model="m",
                            config=ClientConfig(deadline_ms=5000.0,
                                                priority="bulk",
                                                on_rejected="drop")) as client:
                results, stats = client.run(_frames(1))
                assert len(results) == 1
                assert stats.frames_rejected == 0


# ----------------------------------------------------------------------
# Frontend equivalence: threaded and async serve identical numbers
# ----------------------------------------------------------------------
class TestFrontendEquivalence:
    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_matrix_zoo_equivalent_across_frontends(self, frontend):
        """Every aggregator x pool entry: served logits == eager ≤ 1e-9
        under both frontends."""
        frames = _frames(2)
        config = ServingConfig(server=ServerConfig(frontend=frontend))
        with serve(MATRIX_ZOO, config, in_dim=3, num_classes=3) as app:
            assert app.stats().frontend == frontend
            for name in MATRIX_ZOO.names():
                expected = _reference_logits(MATRIX_ZOO, name, frames)
                with app.client(model=name) as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, expected):
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference, atol=1e-9)
            assert app.stats().errors == 0

    def test_batched_serving_equivalent_under_async(self):
        """Micro-batched concurrent clients: batch purity and numbers hold
        under the async frontend."""
        frames = _frames(4)
        expected = _reference_logits(ZOO_V1, "m", frames)
        config = ServingConfig(
            server=ServerConfig(frontend=FRONTEND_ASYNC, max_workers=4),
            batching=BatchingConfig(max_batch_size=4, max_wait_ms=5.0))
        outputs = [[] for _ in range(3)]
        errors = []
        with serve(ZOO_V1, config, in_dim=3, num_classes=3) as app:
            def stream(index):
                try:
                    with app.client(model="m", name=f"c{index}") as client:
                        results, _ = client.run(frames)
                        outputs[index] = results
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=stream, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not errors
            stats = app.stats()
            assert stats.frames_processed == 12
        for results in outputs:
            assert len(results) == 4
            for result, reference in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"],
                                           reference, atol=1e-9)


# ----------------------------------------------------------------------
# PR 4/5 guarantees re-verified under the async frontend
# ----------------------------------------------------------------------
class TestAsyncFrontendGuarantees:
    def test_idle_connections_beyond_max_workers(self):
        """max_workers bounds compute, not connections, under async."""
        server = EdgeServer(_echo_fn, config=ServerConfig(
            frontend=FRONTEND_ASYNC, max_workers=2)).start()
        idle = []
        try:
            import socket as socket_mod
            for i in range(16):
                sock = socket_mod.create_connection(
                    (server.host, server.port), timeout=5.0)
                send_message(sock, Message(kind="hello",
                                           meta={"client": f"idle-{i}"}))
                idle.append(sock)
            wait_until(lambda: server.stats().active_sessions >= 16,
                       message="all idle sessions registered")
            assert server.stats().active_sessions == 16
            # A 17th, active client is served while all 16 idle: under the
            # threaded frontend max_workers=2 would park it in the backlog.
            client = DeviceClient(server.host, server.port)
            try:
                results, _ = client.run_pipeline(
                    [np.full((4,), 2.0)] * 4, _device_fn, timeout_s=30.0)
            finally:
                client.close()
            assert len(results) == 4
            np.testing.assert_allclose(results[0].arrays["y"],
                                       np.full((4,), 4.0))
            assert server.stats().errors == 0
        finally:
            for sock in idle:
                sock.close()
            server.stop()

    def test_hot_reload_snapshot_pinning_under_async(self):
        """Publish under live async traffic: every frame answered wholly
        from one snapshot (logits match exactly one version's reference)."""
        frames = _frames(2)
        ref_v1 = _reference_logits(ZOO_V1, "m", frames)
        ref_v2 = _reference_logits(ZOO_V2, "m", frames)
        repo = ModelRepository(in_dim=3, num_classes=3)
        config = ServingConfig(server=ServerConfig(frontend=FRONTEND_ASYNC))
        errors = []
        seen = []
        with serve(ZOO_V1, config, in_dim=3, num_classes=3,
                   repository=repo) as app:
            stop = threading.Event()

            def stream():
                try:
                    with app.client(model="m") as client:
                        while not stop.is_set():
                            results, _ = client.run(frames)
                            seen.extend(r.arrays["logits"] for r in results)
                except Exception as exc:
                    errors.append(exc)

            thread = threading.Thread(target=stream)
            thread.start()
            time.sleep(0.3)
            repo.publish(ZOO_V2)
            time.sleep(0.3)
            stop.set()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert not errors
        assert seen
        for logits in seen:
            assert _matches(logits, *ref_v1, *ref_v2), \
                "frame answered by a mixed snapshot"
        # Both versions actually served across the publish.
        assert any(_matches(logits, *ref_v2) for logits in seen)

    @pytest.mark.skipif(not sharding_supported("shm"),
                        reason="platform lacks shared memory")
    def test_shard_crash_gives_clean_errors_under_async(self):
        frames = _frames(2)
        config = ServingConfig(
            server=ServerConfig(frontend=FRONTEND_ASYNC),
            sharding=ShardingConfig(num_shards=2))
        with serve(ZOO_V1, config, in_dim=3, num_classes=3) as app:
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
            # The server survived and still answers handshakes.
            with app.client(model="m") as client:
                assert client.handshake()["models"] == ["m"]


# ----------------------------------------------------------------------
# QoS x sharding: admission control must act BEFORE the shard boundary
# ----------------------------------------------------------------------
class TestQosShardingInteraction:
    @pytest.mark.skipif(not sharding_supported("shm"),
                        reason="platform lacks shared memory")
    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_expired_frames_never_cross_the_shard_ring(self, frontend):
        """A lapsed deadline sheds the frame on the frontend, not after
        paying the ring crossing: every shard's frame counter stays 0."""
        config = ServingConfig(
            server=ServerConfig(frontend=frontend),
            sharding=ShardingConfig(num_shards=2),
            # A long coalescing window guarantees the deadline lapses while
            # the frame is still queued on the parent side of the ring.
            batching=BatchingConfig(max_batch_size=8, max_wait_ms=50.0))
        frames = _frames(4)
        with serve(ZOO_V1, config, in_dim=3, num_classes=3) as app:
            client_config = ClientConfig(deadline_ms=0.0005,
                                         on_rejected="drop")
            with app.client(model="m", config=client_config) as client:
                results, stats = client.run(frames)
            assert results == []
            assert stats.frames_rejected == len(frames)
            server_stats = app.stats()
            assert server_stats.shed_by_reason == \
                {REJECT_REASON_DEADLINE: len(frames)}
            assert server_stats.frames_processed == 0
            # The invariant under test: no shed frame was ever submitted
            # to a worker process.
            assert server_stats.num_shards == 2
            assert [s.frames for s in server_stats.shards] == [0, 0]
            assert all(s.alive for s in server_stats.shards)

    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_rejected_reply_carries_retry_after_ms(self, frontend):
        """The wire-level ``rejected`` reply tells the client *when* to
        come back — on both frontends, with the policy's exact value."""
        def slow_batch(items):
            time.sleep(0.05)
            return [({"y": arrays["x"]}, meta) for arrays, meta in items]

        # The batched path queues frames on either frontend (the threaded
        # one executes direct frames inline, so only the batch queue can
        # actually fill there).
        server = EdgeServer(batch_fns={"default": slow_batch},
                            config=ServerConfig(frontend=frontend,
                                                max_workers=1),
                            batching=BatchingConfig(max_batch_size=2,
                                                    max_wait_ms=1.0),
                            qos=QosConfig(max_queue_depth=1, fairness=False,
                                          retry_after_ms=33.0)).start()
        try:
            client = DeviceClient(server.host, server.port)
            try:
                with pytest.raises(RequestRejectedError) as excinfo:
                    client.run_pipeline([np.ones((4,))] * 12, _device_fn,
                                        timeout_s=60.0)
            finally:
                client.close()
            assert excinfo.value.reason == REJECT_REASON_CAPACITY
            assert excinfo.value.retry_after_ms == 33.0
        finally:
            server.stop()
