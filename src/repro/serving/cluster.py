"""Multi-node cluster tier: the TCP router behind a clustered ServingApp.

The shard tier (:mod:`repro.serving.sharding`) scales serving across the
cores of one box; a :class:`ClusterPool` scales it across machines.  It
dials a fleet of replica nodes (:mod:`repro.runtime.node` — the same
:class:`~repro.runtime.shard.ReplicaCore` worker loop behind a socket),
bootstraps each with the current snapshot (same JSON zoo payload, same
seed → bit-identical replica weights), and exposes per-entry
``batch_fns`` that ship frames — in the same versioned raw
``Message`` framing the device/edge wire speaks — to the fleet.  The
:class:`~repro.system.engine.EdgeServer` threads act as a thin router:
sockets, coalescing and statistics stay local while every engine call runs
on another machine.

Guarantees preserved across the network boundary
------------------------------------------------
* **Snapshot pinning / hot reload** — the pool registers a *pre-swap
  preparer* on the :class:`~repro.serving.repository.ModelRepository`: a
  publish first replicates the new zoo to every live node and returns only
  after every one acknowledged, and only then does the router swap — so no
  frame is ever stamped with a snapshot version a node lacks.
* **Client-transparent failover** — node heartbeats (``ping``/``pong``
  envelopes on the data connection, with any traffic counting as liveness)
  detect a dead or partitioned node; its in-flight frames fail fast with
  :class:`~repro.runtime.node.NodeCrashedError` (a ``ConnectionError``)
  while new traffic reroutes to the surviving replicas.  With
  ``ClusterConfig.reconnect_s`` set, dead nodes are redialed and rejoin
  routing after a re-handshake re-syncs their snapshot.
* **Routing** — ``"least_loaded"`` sends each request to the live node
  with the fewest in-flight requests (round-robin tie-break);
  ``"hash"`` pins each zoo entry to a node on a consistent hash ring
  (64 vnodes per node), so an entry's compiled plans and arenas stay hot
  on one machine and a dead node only reshuffles its own arc.

The parent-side mechanism — correlated requests, the reader thread, crash
propagation, heartbeat probes, publish replication, slot bookkeeping — is
the tier-agnostic :class:`~repro.serving.workers.WorkerLink`/
:class:`~repro.serving.workers.WorkerPool`; this module adds only what is
node-specific: dialing a node, whose socket the shard tier's stream
endpoint drives (:mod:`repro.runtime.node`), the latest-replicated
bootstrap for its hello, the routing policies and the heartbeat loop.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from bisect import bisect_right
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.node import NodeCrashedError, NodeStats, bootstrap_meta
from ..runtime.shard import _StreamEndpoint
from ..system.messages import disable_nagle
from .config import ClusterConfig, ROUTING_HASH
from .repository import ModelRepository
from .workers import WorkerLink, WorkerPool

__all__ = ["ClusterPool", "NodeCrashedError"]

#: Virtual nodes per physical node on the consistent hash ring: enough to
#: spread entries evenly over small fleets while keeping ring rebuilds
#: trivially cheap.
_VNODES = 64


def _ring_point(key: str) -> int:
    """Stable 64-bit ring position for ``key`` (never Python's salted hash)."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


class ClusterPool(WorkerPool):
    """Owns the connections to a fleet of replica nodes serving one zoo.

    Built (and started) by :class:`~repro.serving.app.ServingApp` when its
    :class:`~repro.serving.config.ClusterConfig` names node addresses.
    The pool's :meth:`batch_fns` mirror the repository's router mapping
    but execute on the fleet; the routing policy picks the
    node per request (least-loaded) or per entry (consistent hash).

    ``node_processes`` are the :class:`~repro.runtime.node.NodeProcess`
    replicas the caller owns and hands over for self-healing: a
    :meth:`respawn` restarts a dead one before it redials.  Every other
    node process is not owned by the pool — whoever launched it stops it,
    and a respawn only redials.
    """

    tier = "node"

    def __init__(self, repository: ModelRepository, config: ClusterConfig,
                 node_processes: Sequence = ()) -> None:
        if not config.enabled:
            raise ValueError("a ClusterPool needs at least one node address")
        super().__init__(repository, config, len(config.nodes),
                         config.connect_timeout_s)
        self._owned = {config.nodes.index(process.address): process
                       for process in node_processes}
        self._ring: List[Tuple[int, int]] = []
        # The bootstrap hello of the *latest replicated* snapshot: kept
        # current by prepare_publish so a node reconnecting in the window
        # between fleet replication and the parent's swap still receives
        # the version in flight (a hello with the repository's pre-swap
        # snapshot would leave it one version behind the stamps).
        self._hello_meta: Optional[Dict] = None
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "ClusterPool":
        """Dial every node, wait until the whole fleet is serving."""
        # Under the publish lock for lock discipline: a publisher advancing
        # the hello (_replicated) holds it, so the bootstrap write uses the
        # same lock even though no other thread exists yet at start().
        with self._publish_lock:
            self._hello_meta = bootstrap_meta(self.repository)
        super().start()
        self._ring = sorted(
            (_ring_point(f"{address}#{vnode}"), index)
            for index, address in enumerate(self.config.nodes)
            for vnode in range(_VNODES))
        self._hb_thread = threading.Thread(target=self._heartbeat_loop,
                                           daemon=True,
                                           name="cluster-heartbeat")
        self._hb_thread.start()
        return self

    def _open_link(self, index: int, timeout: float) -> WorkerLink:
        """Dial node ``index``."""
        address = self.config.nodes[index]
        host, _, port = address.rpartition(":")
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=self.config.connect_timeout_s)
        except OSError as exc:
            raise RuntimeError(
                f"node {index} ({address}) is unreachable: {exc}") from exc
        disable_nagle(sock)
        # on_crash=shutdown: a poisoned node's reader wakes on end-of-file
        # and the peer sees the link drop; the descriptor stays open until
        # WorkerLink.stop has joined that reader, then closes it.
        return WorkerLink(f"node {index} ({address})", _StreamEndpoint(sock),
                          crash_error=NodeCrashedError,
                          request_timeout_s=self.config.request_timeout_s,
                          on_crash=partial(sock.shutdown, socket.SHUT_RDWR))

    def _bootstrap(self) -> Dict:
        return self._hello_meta

    def respawn(self, index: int, timeout: Optional[float] = None) -> None:
        """Bring slot ``index`` back: restart an owned dead replica on the
        address it bound, then redial through the re-sync handshake.

        The hello replays the latest replicated snapshot under the publish
        lock, so a reconnect can never interleave with fleet replication:
        a publish broadcast sees either the dead node (skipped) or the
        fully re-synced replacement, and the rejoined node can never serve
        a version it missed while dead.  See :meth:`WorkerPool.respawn`.
        """
        process = self._owned.get(index)
        if process is not None and not process.alive():
            # SO_REUSEADDR in the node listener makes the same-port rebind
            # safe; the configured address for this slot stays valid.
            process.restart(timeout=self._start_timeout_s
                            if timeout is None else timeout)
        super().respawn(index, timeout)

    def _replicated(self, payload: Dict, version: int) -> None:
        # Only now — with at least one node acknowledged and the parent
        # about to swap — may this snapshot become the reconnect
        # bootstrap.  Advancing the hello before the outcome is known
        # would, on an aborted publish, hand reconnecting nodes a version
        # the router never serves.
        if self._hello_meta is not None:
            self._hello_meta = dict(self._hello_meta, zoo=payload,
                                    version=version)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(self, name: str) -> WorkerLink:
        if self.config.routing == ROUTING_HASH:
            return self._pick_hash(name)
        # Live node with the fewest in-flight requests, ties round-robin
        # (min keeps the first minimum of the rotated order).  The
        # tie-break matters for sequential traffic: every frame would
        # otherwise see all nodes at zero in-flight and pile onto node 0.
        best = min(self._live_links(), key=WorkerLink.in_flight,
                   default=None)
        if best is None:
            raise NodeCrashedError(
                f"all {self.num_slots} cluster nodes are down")
        return best

    def _pick_hash(self, name: str) -> WorkerLink:
        """Owner of ``name`` on the ring; a dead owner's arc falls clockwise."""
        ring = self._ring
        start = bisect_right(ring, (_ring_point(name), -1))
        seen: set = set()
        for offset in range(len(ring)):
            _, index = ring[(start + offset) % len(ring)]
            if index not in seen:
                seen.add(index)
                if self._links[index].alive:
                    return self._links[index]
        raise NodeCrashedError(
            f"all {self.num_slots} cluster nodes are down")

    # ------------------------------------------------------------------
    # Heartbeats + reconnect
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        interval = self.config.heartbeat_ms / 1e3
        misses = self.config.heartbeat_misses
        while not self._hb_stop.wait(interval):
            now = time.monotonic()
            for index, link in enumerate(list(self._links)):
                if link.alive:
                    # A node with requests in flight is never declared dead
                    # by heartbeat: its connection loop answers pings inline,
                    # so a long frame legitimately silences the link for its
                    # whole service time.  request_timeout_s already bounds
                    # a wedged node there; heartbeats police only idle
                    # connections, where no other traffic would reveal a
                    # partition.
                    if (link.in_flight() == 0
                            and link.outstanding_pings() >= misses
                            and now - link.last_seen >= interval * misses):
                        link.mark_crashed(
                            f"missed {misses} heartbeats "
                            f"({link.outstanding_pings()} probes "
                            f"unanswered, silent for "
                            f"{now - link.last_seen:.2f}s)")
                    elif link.outstanding_pings() < misses:
                        link.send_ping()
                elif (self.config.reconnect_s is not None
                      and link.died_at is not None
                      and self._quarantine[index] is None
                      and now - link.died_at >= self.config.reconnect_s):
                    try:
                        self.respawn(index)
                    except Exception:
                        # Back off before the next try.
                        link.died_at = time.monotonic()

    # ------------------------------------------------------------------
    def _stats_view(self, index: int, link: WorkerLink,
                    counters: Dict) -> NodeStats:
        return NodeStats(
            node_id=index,
            address=self.config.nodes[index],
            alive=counters["alive"],
            frames=counters["frames"],
            batches=counters["batches"],
            errors=counters["errors"],
            service_time_s=counters["service_time_s"],
            bytes_to_node=counters["bytes_sent"],
            bytes_from_node=counters["bytes_received"],
            snapshot_version=counters["snapshot_version"],
            rtt_ms=counters["rtt_ms"])

    num_nodes = WorkerPool.num_slots

    def stop(self) -> None:
        """Drop every connection (idempotent); node processes keep running."""
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
        super().stop()
