"""Lifecycle-managed serving application and client.

:class:`ServingApp` wraps the socket :class:`~repro.system.engine.EdgeServer`
(and its micro-batcher and dispatcher wiring) behind an explicit
``start → running → closed`` lifecycle; :class:`Client` does the same for
:class:`~repro.system.engine.DeviceClient`.  Both are context managers, so
the common shape of a deployment is::

    from repro.serving import BatchingConfig, ServingConfig, serve

    app = serve(zoo, ServingConfig(batching=BatchingConfig(max_batch_size=8)),
                in_dim=3, num_classes=10)
    with app:
        with app.client(conditions={"latency_budget_ms": 50.0}) as client:
            results, stats = client.run(frames)
    # sockets, worker pool and batcher threads are all torn down here

The app serves through its :class:`~repro.serving.repository.ModelRepository`
routers, so ``app.repository.publish(new_zoo)`` hot-reloads the serving
table under live traffic (see :mod:`repro.serving.repository`).
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.zoo import ArchitectureZoo
from ..system.engine import (DeviceClient, DeviceFn, EdgeServer,
                             EdgeServerStats, FrameResult, PipelineStats)
from .cluster import ClusterPool
from .config import ClientConfig, RuntimeConfig, ServingConfig
from .repository import ModelRepository
from .sharding import ShardPool, sharding_supported
from .supervisor import Supervisor
from .workers import WorkerPool


def _as_serving_config(config: Union[ServingConfig, Mapping, None]
                       ) -> ServingConfig:
    if config is None:
        return ServingConfig()
    if isinstance(config, ServingConfig):
        return config
    if isinstance(config, Mapping):
        return ServingConfig.from_dict(config)
    raise ValueError(f"config must be a ServingConfig or a mapping, got "
                     f"{type(config).__name__}")


class ServingApp:
    """A lifecycle-managed edge serving deployment.

    Wraps an :class:`~repro.system.engine.EdgeServer` built from a
    :class:`~repro.serving.config.ServingConfig` and wired to a
    :class:`~repro.serving.repository.ModelRepository`: the server's
    batched callables are the repository's snapshot routers and its
    selector dispatches with the current snapshot's zoo metrics, so a
    ``repository.publish(new_zoo)`` hot-swaps what a *running* app serves.

    Lifecycle: ``start()`` (idempotent via context manager entry) brings
    the socket up; ``stop()`` tears everything down and marks the app
    closed — a closed app cannot be restarted (build a new one; the
    repository and its snapshots are reusable).
    """

    def __init__(self, repository: ModelRepository,
                 config: Union[ServingConfig, Mapping, None] = None, *,
                 node_processes: Optional[Sequence] = None) -> None:
        self.repository = repository
        self.config = _as_serving_config(config)
        # NodeProcess replicas the *app* owns (started by the caller and
        # handed over so a supervised cluster pool may restart them).
        # Matched to cluster slots by "host:port" address; processes
        # serving addresses outside config.cluster.nodes are rejected up
        # front — a typo here would silently leave a replica unsupervised.
        self._node_processes = list(node_processes or [])
        if self._node_processes:
            configured = set(self.config.cluster.nodes)
            unknown = [p.address for p in self._node_processes
                       if p.address not in configured]
            if unknown:
                raise ValueError(
                    f"node_processes serve addresses absent from "
                    f"config.cluster.nodes: {unknown}")
        self._server: Optional[EdgeServer] = None
        #: The one worker pool behind this app — a ShardPool or a
        #: ClusterPool (the configs are mutually exclusive), else None.
        self._workers: Optional[WorkerPool] = None
        self._supervisor: Optional[Supervisor] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True between a successful :meth:`start` and :meth:`stop`."""
        return self._server is not None and not self._closed

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` ran; a closed app cannot be restarted."""
        return self._closed

    @property
    def host(self) -> str:
        return self._require_server().host

    @property
    def port(self) -> int:
        return self._require_server().port

    @property
    def server(self) -> EdgeServer:
        """The underlying edge server (escape hatch; running apps only)."""
        return self._require_server()

    def _require_server(self) -> EdgeServer:
        if self._server is None or self._closed:
            raise RuntimeError(
                "ServingApp is not running (call start() or use it as a "
                "context manager)" if not self._closed else
                "ServingApp is closed; build a new app to serve again")
        return self._server

    # ------------------------------------------------------------------
    def start(self) -> "ServingApp":
        """Bind the socket, start the accept loop, subscribe to reloads.

        With ``config.sharding.num_shards > 1`` (and a capable platform)
        this also spawns the shard worker processes and serves through
        them: the edge server's callables become thin shard routers and
        every engine call executes on another core.  ``num_shards=1`` — or
        a platform without ``multiprocessing.shared_memory`` for the
        ``"shm"`` transport — serves in process exactly as before (the
        latter with a :class:`RuntimeWarning`).

        With ``config.cluster.nodes`` set, the app instead dials the
        replica-node fleet (strictly — an unreachable node at startup
        raises) and serves through the cluster router; see
        :mod:`repro.serving.cluster`.
        """
        if self._closed:
            raise RuntimeError("ServingApp is closed and cannot be "
                               "restarted; build a new app")
        if self._server is not None:
            raise RuntimeError("ServingApp is already running")
        # Raises cleanly when nothing was published yet — a server with an
        # empty table could never answer a frame.
        self.repository.snapshot()
        sharding = self.config.sharding
        if sharding.enabled:
            if sharding_supported(sharding.transport):
                self._workers = ShardPool(self.repository, sharding).start()
            else:
                warnings.warn(
                    f"sharding requested ({sharding.num_shards} shards, "
                    f"transport {sharding.transport!r}) but the platform "
                    "does not support it; falling back to in-process "
                    "serving", RuntimeWarning, stacklevel=2)
        if self.config.cluster.enabled:
            # Strict by design (no in-process fallback): a cluster config
            # names concrete machines, and silently serving without them
            # would hide a deployment failure.  start() raises if any node
            # is unreachable; node deaths *after* startup are handled by
            # heartbeat failover instead.  Owned replicas are handed over
            # only to a supervised app: without a supervisor nothing ever
            # restarted them.
            self._workers = ClusterPool(
                self.repository, self.config.cluster,
                node_processes=self._node_processes
                if self.config.supervisor.enabled else ()).start()
        workers = self._workers
        try:
            if workers is not None:
                # Publishes must replicate to every shard/node *before* the
                # local swap (pre-swap preparer), so no frame is ever
                # stamped with a snapshot version a live replica does not
                # hold.  Register the preparer and re-sync the current
                # snapshot (an idempotent re-broadcast, covering a publish
                # that raced pool startup) *before* the socket starts
                # accepting — and atomically w.r.t. publishes (the
                # barrier), or a publish in flight right now could read
                # the preparer list pre-registration and swap
                # post-sync, invisible to both.
                with self.repository.publish_barrier():
                    self.repository.add_preparer(workers.prepare_publish)
                    workers.sync(self.repository.snapshot())
            self._server = EdgeServer(
                batch_fns=self._batch_fns(),
                selector=self.repository.select_for_meta,
                config=self.config.server, batching=self.config.batching,
                qos=self.config.qos,
                shard_stats=workers.stats if self.sharded else None,
                node_stats=workers.stats if self.clustered else None).start()
        except Exception:
            if workers is not None:
                self.repository.remove_preparer(workers.prepare_publish)
                workers.stop()
                self._workers = None
            raise
        self.repository.subscribe(self._on_publish)
        # A publish may have landed between reading the routers above and
        # the subscribe — it would have notified nobody.  Re-install once
        # now that we are subscribed, so the server's name table can never
        # miss a publish (the routers themselves always follow the
        # repository; shard replication is already covered by the preparer
        # registered above).
        self._on_publish(self.repository.snapshot())
        if self.config.supervisor.enabled and workers is not None:
            self._supervisor = Supervisor(self.config.supervisor,
                                          [workers]).start()
        return self

    def _batch_fns(self):
        return (self._workers or self.repository).batch_fns()

    @property
    def sharded(self) -> bool:
        """True when this app serves through a process-parallel shard pool."""
        return isinstance(self._workers, ShardPool)

    @property
    def shard_pool(self) -> Optional[ShardPool]:
        """The shard pool behind this app (``None`` for in-process serving)."""
        return self._workers if self.sharded else None

    @property
    def clustered(self) -> bool:
        """True when this app routes frames to a fleet of replica nodes."""
        return isinstance(self._workers, ClusterPool)

    @property
    def cluster_pool(self) -> Optional[ClusterPool]:
        """The cluster pool behind this app (``None`` when not clustered)."""
        return self._workers if self.clustered else None

    @property
    def supervisor(self) -> Optional[Supervisor]:
        """The self-healing monitor (``None`` unless enabled and pooled)."""
        return self._supervisor

    def _on_publish(self, snapshot) -> None:
        """Install the new snapshot's entry names on the live server.

        The routers already follow the repository, so in-flight frames are
        correct without this; the reinstall refreshes the *name table*:
        hello acknowledgements list the new entries, and the table keeps
        covering every retained snapshot's names so in-flight frames pinned
        to an entry the new zoo dropped still reach their snapshot (fresh
        frames naming a dropped entry fail cleanly at the router).
        """
        server = self._server
        if server is None or self._closed:
            return
        server.install_table(batch_fns=self._batch_fns(),
                             selector=self.repository.select_for_meta)

    def stop(self) -> None:
        """Stop serving and close the app (idempotent).

        The supervisor stops *first*: once the pools start tearing down,
        every worker looks dead, and a respawn racing the teardown would
        at best be wasted work (the pools abort it on their lifecycle
        flag) and at worst delay shutdown by a full respawn budget.
        """
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        self.repository.unsubscribe(self._on_publish)
        if self._workers is not None:
            self.repository.remove_preparer(self._workers.prepare_publish)
        if self._server is not None:
            self._server.stop()
        if self._workers is not None:
            self._workers.stop()

    def __enter__(self) -> "ServingApp":
        if self._server is None and not self._closed:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def stats(self) -> EdgeServerStats:
        """Aggregate serving statistics snapshot (see ``EdgeServer.stats``)."""
        return self._require_server().stats()

    def client(self, *, name: str = "", conditions: Optional[Dict] = None,
               model: Optional[str] = None,
               config: Optional[ClientConfig] = None) -> "Client":
        """A :class:`Client` bound to this app (and its repository).

        Because the client knows the repository, ``client.run(frames)``
        can build the device callable for the dispatched entry itself —
        no manual ``device_fn`` bookkeeping in the common loopback case.
        """
        return Client(self.host, self.port, config=config, name=name,
                      conditions=conditions, model=model,
                      repository=self.repository)


class Client:
    """Lifecycle-managed device-side client.

    Wraps :class:`~repro.system.engine.DeviceClient` with a
    :class:`~repro.serving.config.ClientConfig` (wire framing/dtype and the
    connect/handshake/pipeline timeouts) and an explicit lifecycle:
    ``start()`` connects, ``stop()`` closes, both implied by ``with``.

    When built via :meth:`ServingApp.client` the client carries the app's
    repository, so :meth:`run` without an explicit ``device_fn`` executes
    the device segment of the server-dispatched entry (stamped with the
    producing snapshot version for hot-reload correctness).
    """

    def __init__(self, host: str, port: int, *,
                 config: Optional[ClientConfig] = None, name: str = "",
                 conditions: Optional[Dict] = None,
                 model: Optional[str] = None,
                 repository: Optional[ModelRepository] = None) -> None:
        self.host = host
        self.port = port
        self.config = config or ClientConfig()
        self.name = name
        self._conditions = dict(conditions) if conditions else None
        self._model = model
        self._repository = repository
        self._client: Optional[DeviceClient] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._client is not None and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_client(self) -> DeviceClient:
        if self._client is None or self._closed:
            raise RuntimeError(
                "Client is not connected (call start() or use it as a "
                "context manager)" if not self._closed else
                "Client is closed; build a new client to reconnect")
        return self._client

    def start(self) -> "Client":
        """Connect and send the hello handshake."""
        if self._closed:
            raise RuntimeError("Client is closed and cannot be reconnected; "
                               "build a new client")
        if self._client is not None:
            raise RuntimeError("Client is already connected")
        self._client = DeviceClient(
            self.host, self.port, self.config, client_name=self.name,
            conditions=self._conditions, model=self._model)
        return self

    def stop(self) -> None:
        """Flush the stop marker and close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._client is not None:
            self._client.close()

    def __enter__(self) -> "Client":
        if self._client is None and not self._closed:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def handshake(self) -> Dict:
        """Server metadata from the hello acknowledgement."""
        return self._require_client().handshake()

    @property
    def assigned_model(self) -> Optional[str]:
        """Zoo entry the server's dispatcher chose for this client, if any."""
        return self.handshake().get("model")

    def _resolve_device_fn(self) -> DeviceFn:
        if self._repository is None:
            raise ValueError(
                "run() without device_fn needs a repository-bound client "
                "(build it via ServingApp.client) — pass device_fn "
                "explicitly otherwise")
        name = self._model or self.assigned_model
        if name is None:
            raise ValueError(
                "run() cannot pick a device segment: the client announced "
                "no model and the server dispatched none — pass model=, "
                "conditions=, or an explicit device_fn")
        return self._repository.device_fn(name)

    def run(self, frames: Sequence[object],
            device_fn: Optional[DeviceFn] = None
            ) -> Tuple[List[FrameResult], PipelineStats]:
        """Pipeline ``frames`` through device segment, link and edge.

        Without ``device_fn``, a repository-bound client runs the device
        segment of its dispatched (or explicitly named) entry.
        """
        if device_fn is None:
            device_fn = self._resolve_device_fn()
        return self._require_client().run_pipeline(frames, device_fn)


def serve(zoo: ArchitectureZoo,
          config: Union[ServingConfig, Mapping, None] = None, *,
          in_dim: int, num_classes: int, seed: int = 0,
          repository: Optional[ModelRepository] = None,
          node_processes: Optional[Sequence] = None) -> ServingApp:
    """One-liner: publish ``zoo`` and start serving it.

    Builds a :class:`~repro.serving.repository.ModelRepository` (honoring
    ``config.runtime``), publishes ``zoo`` as snapshot v1, and returns a
    *started* :class:`ServingApp` — use it as a context manager (or call
    ``stop()``) to tear the server down.  Pass an existing ``repository``
    to serve one repository from several apps or to pre-publish snapshots.
    ``node_processes`` hands app-started :class:`~repro.runtime.node.
    NodeProcess` replicas to the app so an enabled supervisor can respawn
    them (matched to ``config.cluster.nodes`` by address).
    """
    config = _as_serving_config(config)
    if repository is None:
        repository = ModelRepository(in_dim=in_dim, num_classes=num_classes,
                                     runtime=config.runtime, seed=seed)
    else:
        # An existing repository builds snapshots with ITS runtime/seed; a
        # caller explicitly requesting something different must hear that
        # the request cannot be honored rather than silently serving other
        # plans/weights.
        if (config.runtime != RuntimeConfig()
                and config.runtime != repository.runtime):
            raise ValueError(
                f"config.runtime {config.runtime} conflicts with the "
                f"provided repository's runtime {repository.runtime}; "
                "snapshots are built with the repository's config")
        if seed != 0 and seed != repository.seed:
            raise ValueError(
                f"seed={seed} conflicts with the provided repository's "
                f"seed={repository.seed}; models are built with the "
                "repository's seed")
    if repository.version == 0 or zoo is not repository.snapshot().zoo:
        repository.publish(zoo)
    return ServingApp(repository, config,
                      node_processes=node_processes).start()
