"""`repro.serving` — the public facade of the co-inference serving stack.

This package is the one supported entry point for deploying searched
architectures: config-driven builders, a versioned model repository with
hot zoo reload, and lifecycle-managed server/client wrappers.

Quickstart::

    from repro.serving import BatchingConfig, ServingConfig, serve

    app = serve(zoo, ServingConfig(batching=BatchingConfig(max_batch_size=8)),
                in_dim=3, num_classes=10)
    with app:
        with app.client(conditions={"latency_budget_ms": 50.0}) as client:
            results, stats = client.run(frames)

        # later, while the app is live and serving traffic:
        app.repository.publish(new_zoo)   # hot reload, no dropped frames

Layer map
---------
* :mod:`repro.serving.config` — frozen, validated, ``to_dict``/``from_dict``
  round-trippable configuration, composed by :class:`ServingConfig`; every
  knob is declared once, and ``python -m repro.serving.config`` prints the
  reference tables of ``docs/serving.md`` from those declarations.  The
  five configs the engine takes as-is — :class:`ServerConfig`,
  :class:`BatchingConfig`, :class:`QosConfig`, :class:`ClientConfig`,
  :class:`RetryPolicy` — are declared in :mod:`repro.system.knobs` and
  re-exported here; :class:`RuntimeConfig`, :class:`ShardingConfig`,
  :class:`ClusterConfig` and :class:`SupervisorConfig` in
  :mod:`repro.serving.config` itself.
* :mod:`repro.serving.builders` — :func:`build_callables` /
  :func:`build_zoo_callables`, the config-driven callable builders.
* :mod:`repro.serving.repository` — :class:`ModelRepository` /
  :class:`ServingSnapshot`: zoo → callables → compiled plans behind a
  versioned, atomically swappable snapshot (hot reload with in-flight
  frames answered from exactly one snapshot).
* :mod:`repro.serving.app` — :class:`ServingApp`, :class:`Client`,
  :func:`serve`: explicit start/stop/closed lifecycle, context managers.
* :mod:`repro.serving.workers` — the one parent-side worker mechanism
  both pool tiers specialise: a correlated-RPC ``WorkerLink`` over a byte
  channel and a ``WorkerPool`` of slots (internal; not part of ``__all__``).
* :mod:`repro.serving.sharding` — :class:`ShardPool`: process-parallel
  serving shards (multi-core scaling) behind a
  :class:`ShardingConfig`-enabled app; frames cross to worker processes
  over OS pipes (or opt-in shared-memory rings) carrying the raw wire
  framing.
* :mod:`repro.serving.cluster` — :class:`ClusterPool`: the multi-node
  cluster tier (multi-machine scaling) behind a
  :class:`ClusterConfig`-enabled app; frames travel to TCP replica nodes
  (:mod:`repro.runtime.node`) with heartbeat failover, least-loaded or
  consistent-hash routing, and publish-ack-before-swap zoo replication.
* :mod:`repro.serving.supervisor` — :class:`Supervisor`: self-healing for
  both pool tiers behind a :class:`SupervisorConfig`-enabled app — dead
  shard/node respawn with jittered exponential backoff and crash-loop
  quarantine; pairs with the client-side :class:`RetryPolicy` so worker
  deaths stay invisible to callers.

The engine primitives (:class:`~repro.system.engine.EdgeServer`,
:class:`~repro.system.engine.DeviceClient`) stay available in
:mod:`repro.system` for callers that need the raw sockets; everything above
them should come through this facade.  ``__all__`` below is a stable
contract guarded by ``tools/check_public_api.py`` in CI.
"""

from ..core.executor import ServingCallables
from ..runtime.node import NodeCrashedError, NodeStats
from ..runtime.shard import ShardCrashedError, ShardStats
from ..system.engine import RequestRejectedError
from .app import Client, ServingApp, serve
from .builders import build_callables, build_zoo_callables
from .cluster import ClusterPool
from .config import (BatchingConfig, ClientConfig, ClusterConfig, QosConfig,
                     RetryPolicy, RuntimeConfig, ServerConfig, ServingConfig,
                     ShardingConfig, SupervisorConfig)
from .repository import SNAPSHOT_META_KEY, ModelRepository, ServingSnapshot
from .sharding import ShardPool, sharding_supported
from .supervisor import Supervisor

__all__ = [
    "BatchingConfig",
    "Client",
    "ClientConfig",
    "ClusterConfig",
    "ClusterPool",
    "ModelRepository",
    "NodeCrashedError",
    "NodeStats",
    "QosConfig",
    "RequestRejectedError",
    "RetryPolicy",
    "RuntimeConfig",
    "SNAPSHOT_META_KEY",
    "ServerConfig",
    "ServingApp",
    "ServingCallables",
    "ServingConfig",
    "ServingSnapshot",
    "ShardCrashedError",
    "ShardPool",
    "ShardStats",
    "ShardingConfig",
    "Supervisor",
    "SupervisorConfig",
    "build_callables",
    "build_zoo_callables",
    "serve",
    "sharding_supported",
]
