"""Process-parallel serving shards: the pool behind a sharded ServingApp.

One Python process can only execute one frame's worth of GNN kernels at a
time — the GIL serializes every handler/batcher thread, so on a multi-core
edge box the aggregate throughput of the in-process server is capped at
roughly one core regardless of client count.  A :class:`ShardPool` lifts
that cap: it spawns ``num_shards`` worker processes (each holding its *own*
models, compiled plans and buffer arenas — see
:func:`repro.runtime.shard._shard_main`), bootstraps each through the same
hello a cluster node gets, and exposes per-entry
``batch_fns`` that hand whole micro-batches (a lone frame is a batch of one)
to the workers over a pair of OS pipes per shard (see
:mod:`repro.runtime.shard`; the preallocated shared-memory rings of
``transport="shm"`` are opt-in).  The
:class:`~repro.system.engine.EdgeServer` threads then act as a thin router:
sockets, coalescing and statistics stay in the parent, while every engine
call runs on another core.

Guarantees preserved across the process boundary
------------------------------------------------
* **Snapshot pinning / hot reload** — the pool registers a *pre-swap
  preparer* on the parent :class:`~repro.serving.repository.ModelRepository`:
  a publish first replicates the new zoo (as JSON, with the parent's version
  number) to every shard and waits for acknowledgements, and only then does
  the parent swap — so no frame can ever be stamped with a snapshot version
  a live shard does not hold.  Shards rebuild models from the same seed, so
  their weights (and therefore logits) are numerically identical to the
  parent's.
* **Batch purity** — a coalesced micro-batch travels to one shard in one
  envelope and is executed by the shard's snapshot-grouping batch router,
  exactly like the in-process path.
* **Error isolation** — a failing request comes back as one error
  envelope that raises in the parent's ``batch_fn``, so the engine's
  per-frame fallback isolates the offending frame; a *crashed*
  shard fails its in-flight requests with
  :class:`~repro.runtime.shard.ShardCrashedError` (a ``ConnectionError``)
  instead of hanging clients, and new traffic is routed to the surviving
  shards.

The parent-side mechanism — correlated requests, the reader thread, crash
propagation, publish replication, slot bookkeeping — is the tier-agnostic
:class:`~repro.serving.workers.WorkerLink`/:class:`~repro.serving.workers.
WorkerPool`, and the worker side is the one handshake and loop every worker
runs; this module adds only what is shard-specific: spawning a worker
behind a pipe (or shm ring) channel and sending it the hello, respawning it
under the repository's publish barrier, round-robin routing, and shedding
*before* the first byte.

Transports
----------
The default ``"pipe"`` channel (the stream endpoint that also drives a
cluster node's socket) sleeps in the kernel on both ends — an idle
worker and a parent reader waiting on an engine call wake the moment the
other side writes — and gives every write a deadline: a request that could
not put one byte into the pipe within :data:`RING_SHED_TIMEOUT_S` is shed
(``BackpressureError``, nothing written, the stream in sync); one that did
start completes within ``request_timeout_s`` or crashes the link, so a
wedged-but-alive worker never blocks a sender forever.  A closed pipe is a
dead shard, never a full one.  The opt-in ``"shm"`` rings spin-then-sleep
poll (a waiter wakes up to one 500 µs nap late) and rely on x86 store
ordering (see :mod:`repro.runtime.shard` for the TSO caveat); the pipe
needs neither.

``num_shards=1`` (the default) never builds a pool at all — the app serves
in-process exactly as before — and platforms without the chosen transport
(no POSIX pipe descriptors, or no ``multiprocessing.shared_memory`` for
``"shm"``) fall back the same way (with a warning).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict

from ..runtime.shard import (ShardCrashedError, ShardStats, create_channel,
                             transport_available, _shard_main)
from .config import ShardingConfig
from .repository import ModelRepository
from .workers import WorkerLink, WorkerPool

__all__ = ["ShardPool", "ShardCrashedError", "sharding_supported"]

#: How long a frame/batch waits for room on a shard's request channel before
#: it is shed with a :class:`~repro.system.scheduler.BackpressureError`.
#: Shedding happens *before* the first byte (nothing written, protocol
#: intact), so a saturated shard answers "rejected" within this bound
#: instead of stalling the caller for the full request timeout and then
#: crashing.  It bounds the wait on either transport, pipe or ring.
RING_SHED_TIMEOUT_S = 0.05


def sharding_supported(transport: str) -> bool:
    """Whether this platform can run the sharded tier with ``transport``."""
    return transport_available(transport)


class ShardPool(WorkerPool):
    """Owns ``num_shards`` worker processes serving one repository's zoo.

    Built (and started) by :class:`~repro.serving.app.ServingApp` when its
    :class:`~repro.serving.config.ShardingConfig` asks for more than one
    shard.  The pool's :meth:`batch_fns` mirror the repository's router
    mapping but execute on worker processes; requests are spread
    round-robin over the live shards.
    """

    tier = "shard"

    def __init__(self, repository: ModelRepository,
                 config: ShardingConfig) -> None:
        if config.num_shards < 2:
            raise ValueError("a ShardPool needs num_shards >= 2 — "
                             "num_shards=1 serves in process, no pool")
        if not sharding_supported(config.transport):
            raise RuntimeError(
                f"shard transport {config.transport!r} is not available on "
                "this platform")
        super().__init__(repository, config, config.num_shards,
                         config.start_timeout_s)

    def _open_link(self, index: int, timeout: float) -> WorkerLink:
        """Spawn one empty worker (its hello carries the repository's
        current snapshot)."""
        # Spawned (not forked) workers: a forked child would inherit the
        # parent's BLAS/thread state mid-flight, which is a known deadlock
        # source — and spawn keeps the bootstrap honest (everything a shard
        # serves must cross as JSON data in its hello).
        ctx = multiprocessing.get_context("spawn")
        channel, spec = create_channel(ctx, self.config.transport,
                                       self.config.ring_bytes)
        try:
            process = ctx.Process(target=_shard_main, args=(index, spec),
                                  daemon=True, name=f"serving-shard-{index}")
            process.start()
        except Exception:
            channel.close()
            channel.unlink()
            raise
        # on_crash=kill: a worker that stopped answering (or diverged on a
        # publish) is serial and poisoned — everything queued behind the
        # stuck request would time out too.
        return WorkerLink(f"shard {index} (pid {process.pid})", channel,
                          crash_error=ShardCrashedError,
                          request_timeout_s=self.config.request_timeout_s,
                          process=process, on_crash=process.kill,
                          shed_timeout_s=RING_SHED_TIMEOUT_S)

    def _respawn_exclusion(self):
        # The hello reads the repository's *current* snapshot, so nothing
        # short of the repository's own barrier keeps a publish from
        # swapping between that read and the slot swap.
        return self.repository.publish_barrier()

    def _pick(self, name: str) -> WorkerLink:
        """Next live shard, round-robin; raises when every shard is down."""
        link = next(self._live_links(), None)
        if link is None:
            raise ShardCrashedError(
                f"all {self.num_slots} serving shards are down")
        return link

    def _stats_view(self, index: int, link: WorkerLink,
                    counters: Dict) -> ShardStats:
        return ShardStats(
            shard_id=index,
            pid=link.pid,
            alive=counters["alive"],
            frames=counters["frames"],
            batches=counters["batches"],
            errors=counters["errors"],
            service_time_s=counters["service_time_s"],
            bytes_to_shard=counters["bytes_sent"],
            bytes_from_shard=counters["bytes_received"],
            snapshot_version=counters["snapshot_version"])

    num_shards = WorkerPool.num_slots
