"""Self-healing supervision: respawn dead workers, quarantine crash loops.

The serving stack's failure *detection* is older than this module — a dead
shard fails its in-flight frames with ``ShardCrashedError`` and is routed
around, a dead cluster node likewise — but detection alone means every
crash permanently shrinks the pool.  The :class:`Supervisor` is the
*recovery* half: a monitor thread owned by
:class:`~repro.serving.app.ServingApp` that watches the slots of every
:class:`~repro.serving.workers.WorkerPool` it is given (shards, cluster
nodes — it consumes only the pools' uniform ``slot_alive``/``respawn``/
``set_quarantined``/``death_reason`` surface) and brings dead workers back,
within explicit safety bounds:

* **Jittered exponential backoff** — a freshly dead worker is respawned
  after ``backoff_initial_s``; consecutive deaths of the same slot grow
  the delay by ``backoff_multiplier`` up to ``backoff_max_s``, with
  ``backoff_jitter`` randomization so a correlated crash (every worker
  killed at once) does not respawn the whole fleet in lockstep.
* **Snapshot replay before rotation** — a shard respawn runs under the
  repository's ``publish_barrier`` (the fresh worker is bootstrapped from
  the *current* snapshot and swapped into rotation before any publish can
  land), and a node respawn re-enters rotation through the cluster pool's
  re-handshake, which replays the latest replicated snapshot.  Either
  way, the pinning invariant — no frame is ever stamped with a snapshot
  version a worker in rotation lacks — survives restarts.
* **Crash-loop quarantine** — a slot that dies ``quarantine_deaths``
  times within ``quarantine_window_s`` seconds is *quarantined*: never
  respawned again, with the reason surfaced in
  ``EdgeServerStats.shards[k]`` / ``.nodes[k]`` (``quarantined`` +
  ``last_death_reason``).  A worker that crashes on arrival (bad host,
  poisoned model) must not burn CPU in a respawn loop forever; publishes
  and traffic continue against the surviving slots.

A *failed respawn attempt* counts as another death: it feeds the same
window (so a slot whose replacement dies during bootstrap still reaches
quarantine) and the same backoff schedule.

The supervisor is deliberately poll-based (``poll_interval_s``) rather
than event-driven: the pools already detect death synchronously for
fail-fast error semantics, and a poll loop cannot deadlock against the
publish/lifecycle locks it takes while healing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .config import SupervisorConfig

__all__ = ["Supervisor"]


class _Slot:
    """Supervision state of one worker slot (shard index or node index)."""

    __slots__ = ("tier", "index", "deaths", "consecutive", "backoff_until",
                 "restarts", "failed_respawns", "quarantined", "was_alive")

    def __init__(self, tier: str, index: int) -> None:
        self.tier = tier
        self.index = index
        #: ``time.monotonic`` of each observed death, pruned to the window.
        self.deaths: Deque[float] = deque()
        #: Deaths since the slot last served (resets once it is healthy).
        self.consecutive = 0
        self.backoff_until = 0.0
        self.restarts = 0
        self.failed_respawns = 0
        self.quarantined: Optional[str] = None
        self.was_alive = True


class Supervisor:
    """Monitor thread that heals a :class:`~repro.serving.app.ServingApp`.

    Built by the app when ``ServingConfig.supervisor.enabled`` is set and
    at least one pool exists.  How a slot comes back is the pool's
    business (:meth:`~repro.serving.workers.WorkerPool.respawn`): a shard
    pool spawns a fresh worker, a cluster pool restarts the
    :class:`~repro.runtime.node.NodeProcess` it was handed for the slot —
    only owned processes can be restarted; a slot without one (a remote
    machine's node) is still *redialed* when its process proves reachable
    again, mirroring ``ClusterConfig.reconnect_s``.
    """

    def __init__(self, config: SupervisorConfig, pools: Sequence) -> None:
        self.config = config
        self._pools: List[Tuple[object, List[_Slot]]] = [
            (pool, [_Slot(pool.tier, index)
                    for index in range(pool.num_slots)])
            for pool in pools]
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Observability (written only by the monitor thread; read anywhere).
        self._degraded_since: Optional[float] = None
        self._last_recovery_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Monitor loop
    # ------------------------------------------------------------------
    def _prune(self, slot: _Slot, now: float) -> None:
        window = self.config.quarantine_window_s
        while slot.deaths and now - slot.deaths[0] > window:
            slot.deaths.popleft()

    def _record_death(self, pool, slot: _Slot, now: float) -> None:
        """One observed death: feed the window, quarantine or back off."""
        slot.deaths.append(now)
        self._prune(slot, now)
        slot.consecutive += 1
        if len(slot.deaths) >= self.config.quarantine_deaths:
            reason = (f"crash loop: {len(slot.deaths)} deaths within "
                      f"{self.config.quarantine_window_s:.0f}s "
                      f"(last: {pool.death_reason(slot.index) or 'unknown'})")
            slot.quarantined = reason
            pool.set_quarantined(slot.index, reason)
            return
        slot.backoff_until = now + self.config.backoff_s(slot.consecutive)

    def _scan(self) -> None:
        now = time.monotonic()
        all_strong = True
        for pool, slots in self._pools:
            for slot in slots:
                if slot.quarantined is not None:
                    continue
                if pool.slot_alive(slot.index):
                    if not slot.was_alive:
                        slot.was_alive = True
                        slot.consecutive = 0
                    continue
                if self._degraded_since is None:
                    self._degraded_since = now
                if slot.was_alive:
                    # Alive -> dead transition: this is the death event.
                    slot.was_alive = False
                    self._record_death(pool, slot, now)
                elif now >= slot.backoff_until:
                    try:
                        pool.respawn(slot.index,
                                     timeout=self.config.respawn_timeout_s)
                    except Exception:
                        slot.failed_respawns += 1
                        self._record_death(pool, slot, now)
                    else:
                        slot.restarts += 1
                        slot.was_alive = True
                        slot.consecutive = 0
                        continue  # back in rotation within this very scan
                # Still down at the end of its handling (death just
                # recorded, backing off, or respawn failed).
                all_strong = False
        if all_strong and self._degraded_since is not None:
            # Quarantined slots are excluded above: "full strength" means
            # every slot the supervisor still fights for is serving.  A
            # fresh clock read: the respawn that closed the outage ran
            # inside this scan, after ``now`` was taken.
            self._last_recovery_s = time.monotonic() - self._degraded_since
            self._degraded_since = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.poll_interval_s):
            self._scan()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        if self._thread is not None:
            raise RuntimeError("Supervisor is already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="serving-supervisor")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the monitor (idempotent).  Called *before* the pools stop.

        The join budget covers a respawn in flight: a respawn that loses
        the race with ``ShardPool.stop()`` aborts cleanly on the pool's
        lifecycle flag, so a generous join here never hangs shutdown.
        """
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.config.respawn_timeout_s + 10.0)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Machine-readable supervision counters (the CI artifact's body).

        ``time_to_full_strength_s`` is the duration of the most recent
        completed outage: first observed death after full strength until
        every non-quarantined slot served again.  ``None`` while no
        outage completed (never degraded, or still degraded —
        ``degraded`` says which).
        """
        slots = [{"tier": slot.tier,
                  "index": slot.index,
                  "restarts": slot.restarts,
                  "failed_respawns": slot.failed_respawns,
                  "deaths_in_window": len(slot.deaths),
                  "quarantined": slot.quarantined}
                 for _, pool_slots in self._pools for slot in pool_slots]
        return {
            "slots": slots,
            "restarts_total": sum(s["restarts"] for s in slots),
            "quarantined_total": sum(1 for s in slots if s["quarantined"]),
            "degraded": self._degraded_since is not None,
            "time_to_full_strength_s": self._last_recovery_s,
        }
