"""Tests for the ``repro.serving`` facade.

Covers the config dataclasses (validation, ``to_dict``/``from_dict``
round-trips), the config-driven builders, the deprecation shims of the old
``zoo_*`` free functions (warning + identical behavior), the
``ServingApp`` / ``Client`` lifecycle, the ``serve()`` one-liner, and the
public-API snapshot that CI guards.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.serving as serving_pkg
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.serving import (BatchingConfig, Client, ClientConfig,
                           ModelRepository, QosConfig, RuntimeConfig,
                           ServerConfig, ServingApp, ServingConfig,
                           build_callables,
                           build_zoo_callables, serve)


def _arch(name: str, k: int = 4, width: int = 16) -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=k),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.COMBINE, width),
        OpSpec(OpType.GLOBAL_POOL, "max||mean"),
    ), name=name)


def _zoo() -> ArchitectureZoo:
    return ArchitectureZoo([
        ZooEntry("fast", _arch("fast", k=4, width=16), 0.88, 20.0, 0.2),
        ZooEntry("accurate", _arch("accurate", k=6, width=32), 0.95, 60.0, 0.6),
    ])


def _frames(count: int = 2):
    graphs = SyntheticModelNet40(num_points=16, samples_per_class=2,
                                 num_classes=3, seed=1).generate()
    return [Batch.from_graphs([graphs[i % len(graphs)]]) for i in range(count)]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_defaults_are_valid(self):
        ServingConfig()  # must not raise
        ClientConfig()

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            RuntimeConfig(runtime="jit")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            RuntimeConfig(precision="floaty64")
        with pytest.raises(ValueError, match="precision"):
            RuntimeConfig(precision="int32")

    def test_eager_runtime_is_float64_only(self):
        with pytest.raises(ValueError, match="float64"):
            RuntimeConfig(runtime="eager", precision="float32")
        RuntimeConfig(runtime="eager", precision="float64")  # fine

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=-1)
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=0)

    def test_non_integer_batch_size_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=2.5)
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=True)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchingConfig(max_wait_ms=-0.1)

    def test_server_knobs_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            ServerConfig(max_workers=0)
        with pytest.raises(ValueError, match="port"):
            ServerConfig(port=-1)
        with pytest.raises(ValueError, match="port"):
            ServerConfig(port=70000)
        with pytest.raises(ValueError, match="session_log_limit"):
            ServerConfig(session_log_limit=0)
        with pytest.raises(ValueError, match="host"):
            ServerConfig(host="")

    def test_unknown_wire_format_rejected(self):
        with pytest.raises(ValueError, match="wire format"):
            ClientConfig(wire_format="msgpack")

    def test_client_wire_dtype_validated(self):
        assert ClientConfig(wire_dtype=np.float32).wire_dtype == "float32"
        with pytest.raises(ValueError, match="wire_dtype"):
            ClientConfig(wire_dtype="int64")

    def test_client_timeouts_must_be_positive(self):
        with pytest.raises(ValueError, match="pipeline_timeout_s"):
            ClientConfig(pipeline_timeout_s=0.0)
        with pytest.raises(ValueError, match="connect_timeout_s"):
            ClientConfig(connect_timeout_s=-1.0)

    def test_non_finite_numbers_rejected(self):
        """NaN compares False against bounds and must not sneak through."""
        with pytest.raises(ValueError, match="finite"):
            ClientConfig(connect_timeout_s=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            BatchingConfig(max_wait_ms=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            ClientConfig(pipeline_timeout_s=float("inf"))

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BatchingConfig().max_batch_size = 4

    def test_serving_config_requires_config_types(self):
        with pytest.raises(ValueError, match="batching"):
            ServingConfig(batching=7)


# ----------------------------------------------------------------------
# to_dict / from_dict round-trips
# ----------------------------------------------------------------------
class TestConfigRoundTrips:
    @pytest.mark.parametrize("config", [
        RuntimeConfig(),
        RuntimeConfig(runtime="compiled", precision="float32"),
        BatchingConfig(max_batch_size=8, max_wait_ms=3.5),
        ServerConfig(host="0.0.0.0", port=9000, max_workers=4, backlog=8,
                     session_log_limit=64),
        ClientConfig(wire_format="raw", wire_dtype="float32",
                     connect_timeout_s=5.0, handshake_timeout_s=2.0,
                     pipeline_timeout_s=20.0),
        ServingConfig(runtime=RuntimeConfig(runtime="eager"),
                      batching=BatchingConfig(max_batch_size=4),
                      server=ServerConfig(max_workers=2)),
    ])
    def test_round_trip(self, config):
        payload = config.to_dict()
        rebuilt = type(config).from_dict(payload)
        assert rebuilt == config
        # The payload must be plain-JSON material (no numpy/config objects).
        import json
        json.dumps(payload)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="max_batchsize"):
            BatchingConfig.from_dict({"max_batchsize": 4})
        with pytest.raises(ValueError, match="unknown ServingConfig"):
            ServingConfig.from_dict({"batcher": {}})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            RuntimeConfig.from_dict([("runtime", "auto")])

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig.from_dict({"max_batch_size": -2})

    def test_serving_config_accepts_nested_dicts(self):
        config = ServingConfig.from_dict(
            {"batching": {"max_batch_size": 4},
             "runtime": {"runtime": "compiled"}})
        assert config.batching.max_batch_size == 4
        assert config.runtime.runtime == "compiled"
        assert config.server == ServerConfig()

    def test_serving_config_constructor_coerces_mappings(self):
        config = ServingConfig(batching={"max_batch_size": 2})
        assert config.batching == BatchingConfig(max_batch_size=2)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
class TestBuilders:
    def test_build_zoo_callables_builds_every_entry(self):
        serving = build_zoo_callables(_zoo(), in_dim=3, num_classes=3)
        assert set(serving) == {"fast", "accurate"}
        for entry in serving.values():
            assert entry.device_fn and entry.edge_fn and entry.batch_fn

    def test_runtime_config_is_honored(self):
        model = ArchitectureModel(_arch("m"), in_dim=3, num_classes=3, seed=0)
        serving = build_callables(model, RuntimeConfig(runtime="compiled",
                                                       precision="float32"))
        arrays, _ = serving.device_fn(_frames(1)[0])
        assert arrays["x"].dtype == np.float32


# ----------------------------------------------------------------------
# ServingApp / Client lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_serve_end_to_end_with_dispatch(self):
        zoo = _zoo()
        app = serve(zoo, in_dim=3, num_classes=3)
        frames = _frames(3)
        with app:
            assert app.running and not app.closed
            with app.client(name="tight",
                            conditions={"latency_budget_ms": 30.0}) as client:
                assert client.assigned_model == "fast"
                results, stats = client.run(frames)
            assert len(results) == len(frames)
            # Served logits match a local forward of the dispatched entry.
            model = ArchitectureModel(zoo.get("fast").architecture, in_dim=3,
                                      num_classes=3, seed=0)
            for frame, result in zip(frames, results):
                np.testing.assert_allclose(result.arrays["logits"],
                                           model(frame).data, atol=1e-8)
            assert app.stats().frames_processed == len(frames)
        assert app.closed and not app.running

    def test_serve_with_batching_config(self):
        config = ServingConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_wait_ms=10.0))
        with serve(_zoo(), config, in_dim=3, num_classes=3) as app:
            with app.client(model="fast") as client:
                results, _ = client.run(_frames(4))
            assert len(results) == 4
            assert app.server.batching.max_batch_size == 4

    def test_engine_takes_the_configs_as_they_are(self):
        """The facade hands its frozen configs down, not copies of their
        fields: one declaration per knob on both sides of the layer."""
        config = ServingConfig(server=ServerConfig(session_log_limit=4),
                               qos=QosConfig(max_queue_depth=3))
        client_config = ClientConfig(handshake_timeout_s=5.0)
        with serve(_zoo(), config, in_dim=3, num_classes=3) as app:
            assert app.server.config is config.server
            assert app.server.batching is config.batching
            assert app.server._scheduler.policy is config.qos
            with app.client(model="fast", config=client_config) as client:
                assert client._require_client().config is client_config

    def test_app_cannot_restart_after_close(self):
        app = serve(_zoo(), in_dim=3, num_classes=3)
        app.stop()
        app.stop()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            app.start()
        with pytest.raises(RuntimeError, match="closed"):
            app.stats()

    def test_app_double_start_rejected(self):
        app = serve(_zoo(), in_dim=3, num_classes=3)
        try:
            with pytest.raises(RuntimeError, match="already running"):
                app.start()
        finally:
            app.stop()

    def test_app_requires_published_snapshot(self):
        repository = ModelRepository(in_dim=3, num_classes=3)
        with pytest.raises(RuntimeError, match="publish"):
            ServingApp(repository).start()

    def test_app_not_running_errors(self):
        repository = ModelRepository(in_dim=3, num_classes=3, zoo=_zoo())
        app = ServingApp(repository)
        with pytest.raises(RuntimeError, match="not running"):
            _ = app.port
        with pytest.raises(RuntimeError, match="not running"):
            app.stats()

    def test_client_lifecycle_errors(self):
        with serve(_zoo(), in_dim=3, num_classes=3) as app:
            client = app.client(model="fast")
            with pytest.raises(RuntimeError, match="not connected"):
                client.run(_frames(1))
            with client:
                assert client.connected
                results, _ = client.run(_frames(1))
                assert len(results) == 1
            assert client.closed
            client.stop()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                client.start()

    def test_client_without_repository_needs_device_fn(self):
        with serve(_zoo(), in_dim=3, num_classes=3) as app:
            with Client(app.host, app.port, model="fast") as client:
                with pytest.raises(ValueError, match="device_fn"):
                    client.run(_frames(1))
                # Explicit device_fn still works without a repository.
                device_fn = app.repository.device_fn("fast")
                results, _ = client.run(_frames(1), device_fn)
                assert len(results) == 1

    def test_client_config_wire_knobs_flow_through(self):
        config = ClientConfig(wire_format="raw", wire_dtype="float32")
        with serve(_zoo(), in_dim=3, num_classes=3) as app:
            with app.client(model="fast", config=config) as client:
                results, _ = client.run(_frames(2))
            assert len(results) == 2

    def test_serve_accepts_plain_dict_config(self):
        with serve(_zoo(), {"batching": {"max_batch_size": 2}},
                   in_dim=3, num_classes=3) as app:
            assert app.config.batching.max_batch_size == 2

    def test_serve_reuses_repository(self):
        repository = ModelRepository(in_dim=3, num_classes=3, zoo=_zoo())
        with serve(repository.snapshot().zoo, in_dim=3, num_classes=3,
                   repository=repository) as app:
            assert app.repository is repository
            assert repository.version == 1  # same zoo: no re-publish

    def test_serve_rejects_config_conflicting_with_repository(self):
        """An explicit repository builds with ITS runtime/seed — a differing
        request must fail loudly instead of being silently ignored."""
        repository = ModelRepository(in_dim=3, num_classes=3, zoo=_zoo())
        with pytest.raises(ValueError, match="runtime"):
            serve(_zoo(), ServingConfig(runtime=RuntimeConfig(precision="float32")),
                  in_dim=3, num_classes=3, repository=repository)
        with pytest.raises(ValueError, match="seed"):
            serve(_zoo(), in_dim=3, num_classes=3, seed=7,
                  repository=repository)
        # Matching (or default) runtime/seed still work.
        with serve(repository.snapshot().zoo, in_dim=3, num_classes=3,
                   repository=repository) as app:
            assert app.repository is repository

    def test_concurrent_clients_through_facade(self):
        frames = _frames(4)
        errors = []
        with serve(_zoo(), in_dim=3, num_classes=3) as app:
            def run_one(model):
                try:
                    with app.client(model=model) as client:
                        results, _ = client.run(frames)
                        assert len(results) == len(frames)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=run_one, args=(m,))
                       for m in ("fast", "accurate", "fast")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not errors


# ----------------------------------------------------------------------
# Public API surface
# ----------------------------------------------------------------------
class TestPublicApi:
    def test_all_names_resolve(self):
        for name in serving_pkg.__all__:
            assert getattr(serving_pkg, name, None) is not None, name

    def test_snapshot_file_matches(self):
        """tools/public_api.txt is the CI-guarded snapshot of the surface."""
        snapshot = Path(__file__).resolve().parent.parent / "tools" / "public_api.txt"
        recorded = [line.strip() for line in
                    snapshot.read_text().splitlines()
                    if line.strip() and not line.startswith("#")]
        assert recorded == sorted(serving_pkg.__all__)
