"""Hot zoo reload: ``ModelRepository.publish`` under live traffic.

The guarantee under test: a publish atomically swaps the serving table
between frames, and every frame — including frames already in flight across
the swap — is answered wholly from exactly one snapshot (the one whose
device segment produced it, as long as it is retained).  A "mixed" frame
(device half from one snapshot, edge half from another) would produce
logits matching neither snapshot's reference, which is exactly what the
assertions below would catch: the two published zoos share entry names but
differ in both the device-side topology (kNN ``k``) and the edge-side
weights (``Combine`` width).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.serving import (SNAPSHOT_META_KEY, BatchingConfig, ModelRepository,
                           ServingConfig, serve)
from repro.system import EdgeServer, DeviceClient

from conftest import per_frame


def _arch(name: str, k: int, width: int) -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=k),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.COMBINE, width),
        OpSpec(OpType.GLOBAL_POOL, "max||mean"),
    ), name=name)


#: Same entry name, different device topology (k) AND edge weights (width):
#: any device/edge mix across the two versions is numerically detectable.
ZOO_V1 = ArchitectureZoo([ZooEntry("m", _arch("m", k=4, width=16),
                                   0.9, 40.0, 0.4)])
ZOO_V2 = ArchitectureZoo([ZooEntry("m", _arch("m", k=8, width=32),
                                   0.93, 55.0, 0.5)])


def _frames(count: int = 4):
    graphs = SyntheticModelNet40(num_points=24, samples_per_class=2,
                                 num_classes=3, seed=1).generate()
    return [Batch.from_graphs([graphs[i % len(graphs)]]) for i in range(count)]


def _reference_logits(zoo: ArchitectureZoo, frames) -> list:
    model = ArchitectureModel(zoo.get("m").architecture, in_dim=3,
                              num_classes=3, seed=0)
    return [model(frame).data for frame in frames]


def _matches(logits, *references, atol=1e-8) -> bool:
    return any(np.allclose(logits, ref, atol=atol) for ref in references)


# ----------------------------------------------------------------------
# Repository basics
# ----------------------------------------------------------------------
class TestModelRepository:
    def test_publish_versions_increment(self):
        repo = ModelRepository(in_dim=3, num_classes=3)
        assert repo.version == 0
        assert repo.publish(ZOO_V1).version == 1
        assert repo.publish(ZOO_V2).version == 2
        assert repo.version == 2
        assert repo.snapshot().zoo is ZOO_V2

    def test_snapshot_before_publish_raises(self):
        repo = ModelRepository(in_dim=3, num_classes=3)
        with pytest.raises(RuntimeError, match="publish"):
            repo.snapshot()
        with pytest.raises(RuntimeError, match="publish"):
            repo.device_fn("m")(_frames(1)[0])

    def test_publish_empty_zoo_rejected(self):
        repo = ModelRepository(in_dim=3, num_classes=3)
        with pytest.raises(ValueError, match="empty"):
            repo.publish(ArchitectureZoo())
        assert repo.version == 0

    def test_invalid_retain_rejected(self):
        with pytest.raises(ValueError, match="retain"):
            ModelRepository(in_dim=3, num_classes=3, retain=0)

    def test_device_fn_stamps_snapshot_version(self):
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        _, meta = repo.device_fn("m")(_frames(1)[0])
        assert meta[SNAPSHOT_META_KEY] == 1
        repo.publish(ZOO_V2)
        _, meta = repo.device_fn("m")(_frames(1)[0])
        assert meta[SNAPSHOT_META_KEY] == 2

    def test_unknown_entry_raises_with_available_names(self):
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with pytest.raises(KeyError, match="nope"):
            repo.device_fn("nope")(_frames(1)[0])

    def test_aborted_publish_burns_its_version(self):
        """A preparer abort may have replicated the version to shards —
        re-minting it for a different zoo would let them serve stale
        models under a reused number, so the number must be consumed."""
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)

        def failing_preparer(snapshot):
            raise RuntimeError("replication exploded")

        repo.add_preparer(failing_preparer)
        with pytest.raises(RuntimeError, match="replication exploded"):
            repo.publish(ZOO_V2)
        assert repo.version == 1  # old snapshot still installed...
        repo.remove_preparer(failing_preparer)
        snapshot = repo.publish(ZOO_V2)
        assert snapshot.version == 3  # ...but v2 was burned by the abort

    def test_subscribers_notified_once_per_publish(self):
        repo = ModelRepository(in_dim=3, num_classes=3)
        seen = []
        repo.subscribe(seen.append)
        repo.subscribe(seen.append)  # duplicate registration is a no-op
        repo.publish(ZOO_V1)
        assert [s.version for s in seen] == [1]
        repo.unsubscribe(seen.append)
        repo.publish(ZOO_V2)
        assert [s.version for s in seen] == [1]


# ----------------------------------------------------------------------
# Snapshot pinning (deterministic, no sockets)
# ----------------------------------------------------------------------
class TestSnapshotPinning:
    def test_in_flight_frame_is_answered_by_its_own_snapshot(self):
        frames = _frames(2)
        ref_v1 = _reference_logits(ZOO_V1, frames)
        ref_v2 = _reference_logits(ZOO_V2, frames)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        device_fn = repo.device_fn("m")
        # The frame's device half runs against v1...
        in_flight = [device_fn(frame) for frame in frames]
        # ...then a publish lands while it is "on the wire".
        repo.publish(ZOO_V2)
        route = repo.batch_fns()["m"]
        for state, expected in zip(in_flight, ref_v1):
            np.testing.assert_allclose(route([state])[0][0]["logits"],
                                       expected, atol=1e-8)
        # New frames flow wholly through v2.
        for frame, expected in zip(frames, ref_v2):
            np.testing.assert_allclose(
                route([device_fn(frame)])[0][0]["logits"], expected,
                atol=1e-8)

    def test_unpinned_frame_served_by_current_snapshot(self):
        frames = _frames(1)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        arrays, meta = repo.device_fn("m")(frames[0])
        meta.pop(SNAPSHOT_META_KEY)
        logits = repo.batch_fns()["m"]([(arrays, meta)])[0][0]["logits"]
        np.testing.assert_allclose(logits,
                                   _reference_logits(ZOO_V1, frames)[0],
                                   atol=1e-8)

    def test_evicted_snapshot_falls_back_to_current(self):
        frames = _frames(1)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1, retain=1)
        arrays, meta = repo.device_fn("m")(frames[0])
        assert meta[SNAPSHOT_META_KEY] == 1
        # retain=1: publishing v2 drops v1 immediately.  Publish a zoo whose
        # device half matches v1 (same k) so the fallback is well-defined,
        # and check the frame is answered by the *current* edge weights.
        zoo_same_device = ArchitectureZoo([ZooEntry(
            "m", _arch("m", k=4, width=32), 0.9, 40.0, 0.4)])
        repo.publish(zoo_same_device)
        logits = repo.batch_fns()["m"]([(arrays, meta)])[0][0]["logits"]
        np.testing.assert_allclose(
            logits, _reference_logits(zoo_same_device, frames)[0], atol=1e-8)

    def test_pinned_frames_survive_entry_removal(self):
        """A publish that drops an entry must not strand its in-flight frames."""
        frames = _frames(2)
        zoo_both = ArchitectureZoo([
            ZooEntry("m", _arch("m", k=4, width=16), 0.9, 40.0, 0.4),
            ZooEntry("extra", _arch("extra", k=6, width=16), 0.92, 50.0, 0.5),
        ])
        ref_extra = [ArchitectureModel(zoo_both.get("extra").architecture,
                                       in_dim=3, num_classes=3, seed=0)(f).data
                     for f in frames]
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=zoo_both)
        in_flight = [repo.device_fn("extra")(frame) for frame in frames]
        repo.publish(ZOO_V2)  # drops "extra"; v1 stays retained
        # The routing tables still cover every retained snapshot's names...
        assert repo.serving_names() == ["extra", "m"]
        route = repo.batch_fns()["extra"]
        for state, expected in zip(in_flight, ref_extra):
            np.testing.assert_allclose(route([state])[0][0]["logits"],
                                       expected, atol=1e-8)
        # ...while a fresh (unpinned) frame for the dropped entry fails
        # cleanly against the current snapshot.
        arrays, meta = in_flight[0]
        with pytest.raises(KeyError, match="extra"):
            route([(arrays, {k: v for k, v in meta.items()
                             if k != SNAPSHOT_META_KEY})])

    def test_batched_router_groups_mixed_snapshots(self):
        frames = _frames(4)
        ref_v1 = _reference_logits(ZOO_V1, frames)
        ref_v2 = _reference_logits(ZOO_V2, frames)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        device_fn = repo.device_fn("m")
        pinned_v1 = [device_fn(frame) for frame in frames[:2]]
        repo.publish(ZOO_V2)
        pinned_v2 = [device_fn(frame) for frame in frames[2:]]
        # One coalesced batch spanning the publish: 2 frames pinned to v1
        # interleaved with 2 pinned to v2.
        batch = [pinned_v1[0], pinned_v2[0], pinned_v1[1], pinned_v2[1]]
        results = repo.batch_fns()["m"](batch)
        assert len(results) == 4
        np.testing.assert_allclose(results[0][0]["logits"], ref_v1[0], atol=1e-8)
        np.testing.assert_allclose(results[1][0]["logits"], ref_v2[2], atol=1e-8)
        np.testing.assert_allclose(results[2][0]["logits"], ref_v1[1], atol=1e-8)
        np.testing.assert_allclose(results[3][0]["logits"], ref_v2[3], atol=1e-8)


# ----------------------------------------------------------------------
# EdgeServer.install_table (engine-level hot swap)
# ----------------------------------------------------------------------
class TestInstallTable:
    def test_swap_changes_serving_between_frames(self):
        double = lambda arrays, meta: ({"y": arrays["x"] * 2.0}, {})
        triple = lambda arrays, meta: ({"y": arrays["x"] * 3.0}, {})
        device_fn = lambda frame: ({"x": np.asarray(frame, dtype=float)}, {})
        server = EdgeServer(double).start()
        client = DeviceClient(server.host, server.port)
        try:
            results, _ = client.run_pipeline([np.ones((2, 2))], device_fn)
            np.testing.assert_allclose(results[0].arrays["y"], 2.0)
            server.install_table(triple)
            results, _ = client.run_pipeline([np.ones((2, 2))], device_fn)
            np.testing.assert_allclose(results[0].arrays["y"], 3.0)
        finally:
            client.close()
            server.stop()

    def test_invalid_table_rejected_and_old_table_kept(self):
        echo = lambda arrays, meta: (dict(arrays), {})
        server = EdgeServer(echo)
        old = server.table
        with pytest.raises(ValueError, match="reserved"):
            server.install_table(echo, batch_fns={"default": per_frame(echo)})
        with pytest.raises(ValueError, match="edge_fn"):
            server.install_table()
        assert server.table is old  # old table untouched
        server.stop()

    def test_table_mappings_are_read_only(self):
        """Editing the live table must fail loudly: install a new one."""
        echo = lambda arrays, meta: (dict(arrays), {})
        server = EdgeServer(batch_fns={"a": per_frame(echo)})
        with pytest.raises(TypeError):
            server.table.entries["b"] = per_frame(echo)
        with pytest.raises(AttributeError):
            server.table.default_name = "b"
        with pytest.raises(AttributeError):
            server.table = server.table
        server.stop()

    def test_table_snapshot_visible(self):
        echo = lambda arrays, meta: (dict(arrays), {})
        server = EdgeServer(batch_fns={"a": per_frame(echo)})
        assert server.table.model_names() == ["a"]
        server.install_table(batch_fns={"b": per_frame(echo),
                                        "c": per_frame(echo)})
        assert server.table.model_names() == ["b", "c"]
        assert server.table.default_name == "b"
        server.stop()


# ----------------------------------------------------------------------
# Hot reload under live socket traffic
# ----------------------------------------------------------------------
class TestHotReloadUnderTraffic:
    def _assert_all_from_one_snapshot(self, outputs, frames, references):
        """Every served frame must equal one snapshot's reference exactly."""
        assert outputs, "no frames were served"
        for frame_index, logits in outputs:
            refs = [ref[frame_index] for ref in references]
            assert _matches(logits, *refs), (
                f"frame {frame_index} matches no snapshot's reference — "
                "served by a half-swapped table?")

    def test_publish_swaps_zoo_mid_traffic(self):
        frames = _frames(4)
        ref_v1 = _reference_logits(ZOO_V1, frames)
        ref_v2 = _reference_logits(ZOO_V2, frames)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        outputs, errors = [], []
        stop = threading.Event()

        with serve(ZOO_V1, in_dim=3, num_classes=3, repository=repo) as app:
            def stream():
                try:
                    with app.client(model="m") as client:
                        while not stop.is_set():
                            results, _ = client.run(frames)
                            outputs.extend(
                                (r.frame_id % len(frames), r.arrays["logits"])
                                for r in results)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            streamer = threading.Thread(target=stream)
            streamer.start()
            time.sleep(0.15)           # let v1 traffic flow
            repo.publish(ZOO_V2)       # hot swap under live load
            time.sleep(0.15)           # let v2 traffic flow
            stop.set()
            streamer.join(timeout=30.0)
            assert not errors, errors

            self._assert_all_from_one_snapshot(outputs, frames,
                                               (ref_v1, ref_v2))
            # Traffic after the publish runs wholly on v2.
            with app.client(model="m") as client:
                results, _ = client.run(frames)
            for frame, result in zip(frames, results):
                np.testing.assert_allclose(
                    result.arrays["logits"],
                    ref_v2[frames.index(frame)], atol=1e-8)

    def test_hello_lists_new_entries_after_publish(self):
        zoo_extra = ArchitectureZoo([
            ZooEntry("m", _arch("m", k=8, width=32), 0.93, 55.0, 0.5),
            ZooEntry("tiny", _arch("tiny", k=4, width=8), 0.8, 15.0, 0.1),
        ])
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with serve(ZOO_V1, in_dim=3, num_classes=3, repository=repo) as app:
            with app.client(model="m") as client:
                assert client.handshake()["models"] == ["m"]
            repo.publish(zoo_extra)
            with app.client(model="tiny") as client:
                assert client.handshake()["models"] == ["m", "tiny"]
                results, _ = client.run(_frames(2))
                assert len(results) == 2

    def test_concurrent_clients_and_repeated_publishes(self):
        """Hammer: batched serving + repeated hot swaps, no wrong frame."""
        frames = _frames(4)
        ref_v1 = _reference_logits(ZOO_V1, frames)
        ref_v2 = _reference_logits(ZOO_V2, frames)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        config = ServingConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_wait_ms=2.0))
        outputs, errors = [], []
        rounds_per_client = 6

        with serve(ZOO_V1, config, in_dim=3, num_classes=3,
                   repository=repo) as app:
            def stream(index):
                try:
                    with app.client(model="m",
                                    name=f"client-{index}") as client:
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
                thread.join(timeout=60.0)
        assert not errors, errors
        assert len(outputs) == 3 * rounds_per_client * len(frames)
        self._assert_all_from_one_snapshot(outputs, frames, (ref_v1, ref_v2))
