"""Coverage of the knob table: ``repro.system.knobs`` + ``serving.config``.

Every check below is parametrized over ``(config class, field)`` pairs read
from the declarations, so a new knob is covered the moment it is declared:
range edges, the finite / integral / real-bool rules, ``None`` handling and
the JSON round trip.  A guard keeps the ``system/`` constructors the knobs
feed from re-declaring any of them.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (BatchingConfig, ClientConfig, ClusterConfig,
                           QosConfig, RetryPolicy, RuntimeConfig, ServerConfig,
                           ServingConfig, ShardingConfig, SupervisorConfig)
from repro.serving.config import (REFERENCE_BEGIN, Knob, config_classes,
                                  reference_tables, splice_reference)
from repro.system import engine
from repro.system.engine import (DeviceClient, EdgeServer, MicroBatcher,
                                 run_co_inference)
from repro.system.scheduler import Scheduler

CLASSES = list(config_classes())
KNOBS = [(cls, f.name, f.metadata["knob"])
         for cls in CLASSES for f in dataclasses.fields(cls)]


def _ids(params):
    return [f"{cls.__name__}.{name}" for cls, name, *_ in params]


def _of_kind(*kinds):
    return [(cls, name, spec) for cls, name, spec in KNOBS
            if spec.kind in kinds]


NUMERIC = _of_kind(int, float)
INTEGRAL = _of_kind(int)
BOOLEAN = _of_kind(bool)


def _build(cls, name, value):
    return cls(**{name: value})


def test_every_public_config_class_is_in_the_table():
    assert set(CLASSES) == {ServingConfig, RuntimeConfig, BatchingConfig,
                            ServerConfig, ShardingConfig, QosConfig,
                            ClusterConfig, SupervisorConfig, ClientConfig,
                            RetryPolicy}
    assert all(isinstance(spec, Knob) and spec.doc for _, _, spec in KNOBS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_defaults_validate(cls):
    config = cls()
    for f in dataclasses.fields(cls):
        spec = f.metadata["knob"]
        assert spec.check(f.name, getattr(config, f.name)) \
            == getattr(config, f.name)


@pytest.mark.parametrize("cls,name,spec", NUMERIC, ids=_ids(NUMERIC))
def test_numeric_knob_range_edges(cls, name, spec):
    assert spec.min is not None, "every numeric knob declares a lower bound"
    accepted = spec.min + 1 if spec.exclusive else spec.min
    assert getattr(_build(cls, name, accepted), name) == accepted
    below = spec.min if spec.exclusive else spec.min - 1
    with pytest.raises(ValueError, match=name):
        _build(cls, name, below)
    if spec.max is not None:
        assert getattr(_build(cls, name, spec.max), name) == spec.max
        with pytest.raises(ValueError, match=name):
            _build(cls, name, spec.max + 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "3"],
                         ids=repr)
@pytest.mark.parametrize("cls,name,spec", NUMERIC, ids=_ids(NUMERIC))
def test_numeric_knob_rejects_non_numbers(cls, name, spec, bad):
    with pytest.raises(ValueError, match=name):
        _build(cls, name, bad)


@pytest.mark.parametrize("cls,name,spec", INTEGRAL, ids=_ids(INTEGRAL))
def test_integral_knob_rejects_fractions(cls, name, spec):
    with pytest.raises(ValueError, match=name):
        _build(cls, name, 2.5)
    value = np.int64(int(spec.min) + 1)
    assert type(getattr(_build(cls, name, value), name)) is int


@pytest.mark.parametrize("bad", ["no", 1, 0.0], ids=repr)
@pytest.mark.parametrize("cls,name,spec", BOOLEAN, ids=_ids(BOOLEAN))
def test_bool_knob_is_never_coerced(cls, name, spec, bad):
    """``bool("no")`` is True: a file saying "no" must not switch a knob on."""
    with pytest.raises(ValueError, match=name):
        _build(cls, name, bad)
    assert getattr(_build(cls, name, np.bool_(True)), name) is True


@pytest.mark.parametrize("cls,name,spec", KNOBS, ids=_ids(KNOBS))
def test_none_is_accepted_exactly_by_optional_knobs(cls, name, spec):
    if spec.optional:
        assert getattr(_build(cls, name, None), name) is None
    else:
        with pytest.raises(ValueError, match=name):
            _build(cls, name, None)


#: A non-default, canonicalisation-exercising value for every knob.
EXAMPLES = {
    RuntimeConfig: dict(runtime="compiled", precision="float32",
                        precision_policy={"hot": "int8"}),
    BatchingConfig: dict(max_batch_size=8, max_wait_ms=5),
    ServerConfig: dict(host="0.0.0.0", port=9000, max_workers=2, backlog=4,
                       frontend="async", session_log_limit=16),
    ShardingConfig: dict(num_shards=2, transport="shm", ring_bytes=1 << 20,
                         request_timeout_s=5, start_timeout_s=6,
                         publish_timeout_s=7),
    QosConfig: dict(max_queue_depth=np.int64(8), default_deadline_ms=100,
                    retry_after_ms=20, priority_map={"bulk": 2},
                    default_priority=1, fairness=False,
                    fairness_window_s=2),
    ClusterConfig: dict(nodes=["a:9000", "b:9001"], routing="hash",
                        heartbeat_ms=50, heartbeat_misses=2,
                        connect_timeout_s=3, request_timeout_s=4,
                        publish_timeout_s=5, reconnect_s=1),
    SupervisorConfig: dict(enabled=True, poll_interval_s=0.1,
                           backoff_initial_s=0.2, backoff_multiplier=3,
                           backoff_max_s=9, backoff_jitter=0,
                           quarantine_deaths=5, quarantine_window_s=60,
                           respawn_timeout_s=30),
    RetryPolicy: dict(max_retries=3, backoff_ms=1, backoff_multiplier=1.5,
                      max_backoff_ms=10, jitter=0.5,
                      retry_connection_errors=False),
    ClientConfig: dict(wire_format="raw", wire_dtype="float32",
                       connect_timeout_s=1, handshake_timeout_s=2,
                       pipeline_timeout_s=3, deadline_ms=50,
                       priority="bulk", on_rejected="drop",
                       retry={"max_retries": 2}),
    ServingConfig: dict(runtime={"runtime": "eager"},
                        batching={"max_batch_size": 4},
                        server={"frontend": "async"},
                        sharding={"transport": "shm"},
                        qos={"max_queue_depth": 4},
                        cluster={"nodes": ["a:9000"]},
                        supervisor={"enabled": True}),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_non_default_instance_round_trips_through_json(cls):
    example = EXAMPLES[cls]
    assert set(example) == {f.name for f in dataclasses.fields(cls)}, \
        "EXAMPLES must set every knob of the class"
    config, default = cls(**example), cls()
    for name in example:
        assert getattr(config, name) != getattr(default, name), name
    payload = json.loads(json.dumps(config.to_dict(), allow_nan=False))
    assert cls.from_dict(payload) == config
    assert cls.from_dict(payload).to_dict() == config.to_dict()


#: The knob names the system layer receives through its config objects.
SYSTEM_KNOBS = {f.name for cls in (ServerConfig, BatchingConfig, QosConfig,
                                   ClientConfig, RetryPolicy)
                for f in dataclasses.fields(cls)}
#: Every callable a direct caller of the system layer configures.
SYSTEM_CALLABLES = [EdgeServer.__init__, MicroBatcher.__init__,
                    Scheduler.__init__, DeviceClient.__init__,
                    DeviceClient.handshake, DeviceClient.run_pipeline,
                    run_co_inference]


@pytest.mark.parametrize("fn", SYSTEM_CALLABLES,
                         ids=lambda fn: fn.__qualname__)
def test_system_callables_take_configs_not_loose_knobs(fn):
    """A knob declared twice drifts; so no ``system/`` parameter repeats
    one, and a per-call ``timeout_s`` defers to the config it overrides."""
    parameters = inspect.signature(fn).parameters
    names = set(parameters)
    if fn is DeviceClient.__init__:
        names -= {"host", "port"}  # the server it dials, not a bind knob
    assert not SYSTEM_KNOBS & names, (
        f"{fn.__qualname__} re-declares knob(s) "
        f"{sorted(SYSTEM_KNOBS & names)}; take the config instead")
    if "timeout_s" in parameters:
        assert parameters["timeout_s"].default is None


#: (system/ callable, config parameter, the config class it takes).
CONFIG_PARAMETERS = [(EdgeServer.__init__, "config", ServerConfig),
                     (EdgeServer.__init__, "batching", BatchingConfig),
                     (EdgeServer.__init__, "qos", QosConfig),
                     (DeviceClient.__init__, "config", ClientConfig)]


@pytest.mark.parametrize("fn,parameter,cls", CONFIG_PARAMETERS,
                         ids=lambda value: getattr(value, "__qualname__",
                                                   value))
def test_config_parameters_default_to_the_declared_defaults(fn, parameter,
                                                            cls):
    default = inspect.signature(fn).parameters[parameter].default
    assert type(default) is cls and default == cls()


def test_scheduler_defaults_to_the_declared_qos():
    assert Scheduler().policy == QosConfig()


def test_engine_keeps_no_knob_constants():
    """A module-level constant named after a knob (``SESSION_LOG_LIMIT``)
    is a second declaration of its default."""
    assert not [name for name in vars(engine)
                if name.lower() in SYSTEM_KNOBS]


class TestDefectsTheDuplicationHid:
    """The six inputs the parent accepted (see CHANGES.md, PR 16)."""

    @pytest.mark.parametrize("depth", [2.5, True], ids=repr)
    def test_fractional_or_bool_queue_depth(self, depth):
        # QosConfig is what Scheduler takes, so the value can never reach
        # Scheduler.admit's ``bit_length``.
        with pytest.raises(ValueError, match="max_queue_depth"):
            QosConfig(max_queue_depth=depth)

    @pytest.mark.parametrize("name", ["default_deadline_ms", "retry_after_ms",
                                      "fairness_window_s"])
    def test_nan_qos_durations(self, name):
        with pytest.raises(ValueError, match=name):
            QosConfig(**{name: float("nan")})

    @pytest.mark.parametrize("wait", [float("nan"), float("inf")], ids=repr)
    def test_non_finite_batch_wait(self, wait):
        """``EdgeServer(max_batch_size=4, max_wait_ms=nan)`` used to be
        accepted: the collector thread then died in ``queue.get(timeout=
        nan)`` and the entry never answered again.  The server now takes a
        ``BatchingConfig``, which refuses the value up front."""
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchingConfig(max_batch_size=4, max_wait_ms=wait)

    def test_string_no_does_not_enable_the_supervisor(self):
        with pytest.raises(ValueError, match="enabled"):
            ServingConfig.from_dict({"supervisor": {"enabled": "no"}})

    def test_integral_queue_depth_still_admits(self):
        scheduler = Scheduler(QosConfig(max_queue_depth=np.int64(2)))
        assert scheduler.admit("client", {}).priority == 0

    def test_removed_knobs_are_gone(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            BatchingConfig.from_dict({"max_queue_depth": 4})
        with pytest.raises(ValueError, match="backend"):
            RuntimeConfig.from_dict({"backend": "numpy"})


class TestGeneratedReference:
    def test_every_class_and_knob_has_a_row(self):
        tables = reference_tables()
        for cls, name, spec in KNOBS:
            assert f"**`{cls.__name__}`**" in tables
            assert f"| `{name}` |" in tables
        assert ("| `reconnect_s` | `Optional[float]` | `None` | > 0 s |"
                in tables)

    def test_docs_serving_md_is_in_sync(self):
        path = Path(__file__).resolve().parents[1] / "docs" / "serving.md"
        text = path.read_text(encoding="utf-8")
        assert splice_reference(text) == text, (
            "docs/serving.md drifted from the knob declarations; run "
            "PYTHONPATH=src python -m repro.serving.config --write "
            "docs/serving.md")

    def test_splice_rewrites_a_hand_edited_row(self):
        path = Path(__file__).resolve().parents[1] / "docs" / "serving.md"
        text = path.read_text(encoding="utf-8")
        edited = text.replace("| `backlog` | `int` | `32` |",
                              "| `backlog` | `int` | `64` |")
        assert edited != text and splice_reference(edited) == text
        with pytest.raises(ValueError, match="markers"):
            splice_reference(text.replace(REFERENCE_BEGIN, ""))
