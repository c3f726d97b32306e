"""One worker link, one worker pool: the parent side of both scaling tiers.

A shard (a worker process behind a pipe or a shared-memory ring, see
:mod:`repro.serving.sharding`) and a cluster node (a replica behind a TCP
socket, see :mod:`repro.serving.cluster`) run the *same* worker loop —
:class:`~repro.runtime.shard.ReplicaCore` — and are driven by the same
parent-side mechanism, written once here:

* :class:`WorkerLink` — correlated RPC to one worker over a byte channel
  (``send_bytes(blob, timeout)``, ``recv_bytes(timeout) -> Optional[bytes]``,
  ``close()``, ``unlink()`` — the surface of a shard's
  :class:`~repro.runtime.shard.ShardChannel` and of the stream endpoint on
  a node's socket, whose ``send_bytes`` also takes the ``shed_timeout`` of
  a shedding link and refuses an envelope above the channel's message
  limit with :class:`ValueError` before writing a byte): the bootstrap
  hello every worker starts from, correlation ids, one self-contained
  envelope per request and per reply, a reader thread completing replies
  out of order, crash propagation to every in-flight request, heartbeat
  probes and the cumulative counters behind ``ShardStats``/``NodeStats``.
* :class:`WorkerPool` — the slots those links fill: start, routing
  callables, publish replication before the parent swap, respawn under the
  tier's publish exclusion, and the slot bookkeeping (restarts, quarantine,
  last death reason) the :class:`~repro.serving.supervisor.Supervisor`
  consumes through ``slot_alive``/``respawn``/``set_quarantined``/
  ``death_reason``.

The tiers add only what differs: how a worker is reached (spawn + pipe,
dial + hello), which live link takes the next request, and the stats view.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..core.executor import ArrayDict, FrameState
from ..runtime.shard import bootstrap_meta, zoo_to_payload
from ..system.messages import (KIND_ERROR, KIND_FRAME, KIND_RESULT,
                               KIND_STOP, Message, NODE_KIND_PING,
                               NODE_KIND_PONG, SHARD_KIND_PUBLISH,
                               SHARD_KIND_PUBLISHED, SHARD_KIND_READY,
                               WIRE_FORMAT_RAW, deserialize_message,
                               pack_frames, serialize_message, unpack_frames)
from ..system.scheduler import BackpressureError
from .repository import ModelRepository, ServingSnapshot

__all__ = ["WorkerLink", "WorkerPool"]

#: Reader-side poll quantum (seconds): bounds how long a stop or a dead
#: worker process takes to be noticed without burning CPU on an idle link.
_READ_POLL_S = 0.2


class _PendingReply:
    """Parent-side slot for one in-flight worker request."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[Message] = None
        self.error: Optional[BaseException] = None

    def complete(self, result: Message) -> None:
        self.result = result
        self.event.set()

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.event.set()


class WorkerLink:
    """Correlated RPC to one replica worker over a byte channel.

    **Liveness rule** (the only one, for every tier): a link is ``alive``
    iff its worker announced ``ready`` ∧ the link never ``crashed`` ∧ the
    worker process it owns — if it owns one — is still running.

    Single-use by design: a crashed link stays in its pool slot (counters
    and death reason still show in stats) until a respawn builds a
    *replacement* link, carries the cumulative counters over and swaps it
    into the slot — no half-revived state to reason about.

    ``process`` is the worker process this link owns (joined and killed by
    :meth:`stop`; ``None`` for a remote worker).  ``on_crash`` severs the
    worker the moment the link is poisoned — a shard kills its serial
    process (everything queued behind a wedged request would time out
    too), a node shuts its socket down (waking the reader on end-of-file
    and telling the peer) — and must be safe against concurrent senders.
    ``shed_timeout_s`` bounds a request's wait for room on the channel
    (see :meth:`_send`); ``None`` never sheds.
    """

    def __init__(self, label: str, channel, *,
                 crash_error: Type[ConnectionError],
                 request_timeout_s: float, process=None,
                 on_crash: Optional[Callable[[], None]] = None,
                 shed_timeout_s: Optional[float] = None) -> None:
        self.label = label
        self.channel = channel
        self.process = process
        self.crash_error = crash_error
        self.request_timeout_s = request_timeout_s
        self.shed_timeout_s = shed_timeout_s
        self._on_crash = on_crash
        self.ready = threading.Event()
        self.ready_error: Optional[str] = None
        #: Why this worker died (first crash reason wins); ``None`` while
        #: it lives.  Surfaced as ``last_death_reason`` in the stats views.
        self.death_reason: Optional[str] = None
        #: ``time.monotonic`` of death, for reconnect pacing.
        self.died_at: Optional[float] = None
        #: ``time.monotonic`` of the last envelope received — *any*
        #: traffic counts as liveness, so a worker busy with a long frame
        #: is never declared dead for answering pongs late.
        self.last_seen = time.monotonic()
        self._lock = threading.Lock()
        #: One send lock per link: the channels are single-producer (two
        #: threads writing one channel at once would tear both envelopes).
        self._send_lock = threading.Lock()
        self._pending: Dict[int, _PendingReply] = {}
        self._corr = itertools.count(1)
        # Outstanding heartbeat probes: correlation id -> perf_counter().
        self._pings: Dict[int, float] = {}
        self._stopping = False
        self._stopped = False
        self.crashed = False
        # Counters (under self._lock) behind the tier's stats view.
        self.frames = 0
        self.batches = 0
        self.errors = 0
        self.service_time_s = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.snapshot_version = 0
        self.rtt_ms: Optional[float] = None
        self.pid: Optional[int] = getattr(process, "pid", None)
        self.reader = threading.Thread(target=self._read_loop, daemon=True,
                                       name=f"{label} reader")
        self.reader.start()

    # -- health --------------------------------------------------------
    @property
    def alive(self) -> bool:
        return (self.ready.is_set() and not self.crashed
                and (self.process is None or self.process.is_alive()))

    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    def mark_crashed(self, reason: str) -> None:
        """Fail every in-flight request and refuse new ones."""
        with self._lock:
            if self.crashed:
                return
            self.crashed = True
            self.died_at = time.monotonic()
            self.rtt_ms = None
            self._pings.clear()
            pending = list(self._pending.values())
            self._pending.clear()
            self.errors += len(pending)
        self.death_reason = reason
        self.ready_error = self.ready_error or reason
        self.ready.set()  # wake a wait_ready() on a worker that died
        if self._on_crash is not None:
            try:
                self._on_crash()
            except Exception:  # pragma: no cover - worker already gone
                pass
        exc = self.crash_error(f"{self.label} is gone: {reason}")
        for reply in pending:
            reply.fail(exc)

    def hello(self, meta: Dict) -> None:
        """Ship the bootstrap hello (every worker starts *empty*, builds its
        replica from it and answers ``ready``)."""
        self._send(Message(kind=SHARD_KIND_PUBLISH, meta=dict(meta)))

    def wait_ready(self, timeout: float) -> None:
        """Block until the worker announced ``ready``; raises the tier's
        crash error (carrying the worker's bootstrap traceback, if it
        reported one) when it died or stayed silent for ``timeout``."""
        if not self.ready.wait(timeout):
            self.mark_crashed(f"no ready within {timeout:.1f}s")
            raise self.crash_error(
                f"{self.label} did not become ready within {timeout:.1f}s")
        if not self.alive:
            raise self.crash_error(
                f"{self.label} failed to start: "
                f"{self.ready_error or 'worker exited'}")

    # -- request plumbing ----------------------------------------------
    def _forget(self, corr: int) -> None:
        with self._lock:
            self._pending.pop(corr, None)

    def _send(self, message: Message, timeout: Optional[float] = None,
              shed_timeout: Optional[float] = None) -> None:
        """Ship one envelope.

        An envelope above the channel's message limit raises
        :class:`ValueError` naming that limit, with nothing written.
        ``shed_timeout`` bounds the wait for room: a channel that could not
        take the envelope's first byte within it raises
        :class:`~repro.system.scheduler.BackpressureError` — nothing was
        written, so shedding is safe and the worker stays healthy (shed
        *before* the channel, never after).  An envelope the channel did
        start still completes within ``timeout`` or crashes the link.
        Without it a full channel for ``timeout`` keeps the crash semantics.
        """
        blob = serialize_message(message, wire_format=WIRE_FORMAT_RAW)
        timeout = self.request_timeout_s if timeout is None else timeout
        with self._send_lock:
            if self.crashed:
                raise self.crash_error(f"{self.label} is not connected")
            if shed_timeout is None:
                sent = self.channel.send_bytes(blob, timeout=timeout)
            else:
                try:
                    sent = self.channel.send_bytes(
                        blob, timeout=timeout, shed_timeout=shed_timeout)
                except TimeoutError as exc:
                    raise BackpressureError(
                        f"{self.label} had no room within "
                        f"{shed_timeout:.3f}s") from exc
            with self._lock:
                self.bytes_sent += sent

    def _start(self, message: Message, what: str,
               shed_timeout: Optional[float] = None
               ) -> Tuple[int, _PendingReply]:
        """Register a reply slot and ship ``message`` under its correlation
        id; a failed send forgets the slot again."""
        reply = _PendingReply()
        with self._lock:
            if self.crashed:
                raise self.crash_error(f"{self.label} already crashed")
            corr = message.frame_id = next(self._corr)
            self._pending[corr] = reply
        try:
            self._send(message, shed_timeout=shed_timeout)
        except (BackpressureError, self.crash_error):
            # Nothing written (shed upstream: the edge server answers
            # "rejected", the worker is healthy) or already dead.
            self._forget(corr)
            raise
        except (ValueError, OSError) as exc:
            self._forget(corr)
            with self._lock:
                self.errors += 1
            if isinstance(exc, ValueError):
                raise  # oversized envelope: a caller bug, not a dead worker
            self.mark_crashed(f"{what} transport failed: {exc}")
            raise self.crash_error(str(exc)) from exc
        return corr, reply

    def _await(self, corr: int, reply: _PendingReply,
               timeout: float) -> Message:
        if not reply.event.wait(timeout):
            self._forget(corr)
            with self._lock:
                self.errors += 1
            # A worker that stops answering is unreachable by contract
            # (request_timeout_s): poison it so the router stops feeding
            # it — a wedged-but-alive worker would otherwise keep stalling
            # every Nth request forever.
            self.mark_crashed(f"no answer within {timeout:.1f}s")
            raise self.crash_error(
                f"{self.label} did not answer within {timeout:.1f}s")
        self._forget(corr)
        if reply.error is not None:
            raise reply.error
        return reply.result

    # -- public request API ---------------------------------------------
    def request(self, entry: str,
                frames: Sequence[FrameState]) -> List[FrameState]:
        """Run ``frames`` through the entry's batch router on the worker:
        one envelope out, one back (a lone frame is a batch of one).

        No frames is no request: nothing is registered or sent.
        """
        if not frames:
            return []
        arrays, metas = pack_frames(frames)
        corr, reply = self._start(
            Message(kind=KIND_FRAME, arrays=arrays,
                    meta={"entry": entry, "frames": metas}),
            "request", shed_timeout=self.shed_timeout_s)
        result = self._await(corr, reply, self.request_timeout_s)
        with self._lock:
            self.batches += 1
            self.frames += len(frames)
            self.service_time_s += float(result.meta.get("service_time_s",
                                                         0.0))
        return unpack_frames(result.arrays, result.meta["frames"])

    def start_publish(self, payload: Dict,
                      version: int) -> Tuple[int, _PendingReply]:
        """Phase 1 of snapshot replication: ship the envelope, don't wait.

        Splitting send from await lets the pool broadcast to every worker
        first and collect acknowledgements second, so the N workers rebuild
        the zoo's models/plans concurrently instead of one after another.
        """
        return self._start(Message(kind=SHARD_KIND_PUBLISH,
                                   meta={"zoo": payload, "version": version}),
                           "publish")

    def finish_publish(self, corr: int, reply: _PendingReply, version: int,
                       timeout: float) -> None:
        """Phase 2: wait for the worker's acknowledgement of ``version``."""
        self._await(corr, reply, timeout)
        with self._lock:
            self.snapshot_version = max(self.snapshot_version, version)

    # -- heartbeats ------------------------------------------------------
    def outstanding_pings(self) -> int:
        with self._lock:
            return len(self._pings)

    def send_ping(self) -> None:
        corr = next(self._corr)
        with self._lock:
            if self.crashed:
                return
            self._pings[corr] = time.perf_counter()
        try:
            self._send(Message(kind=NODE_KIND_PING, frame_id=corr))
        except self.crash_error:
            pass
        except OSError as exc:
            self.mark_crashed(f"heartbeat transport failed: {exc}")

    # -- reader ----------------------------------------------------------
    def _read_loop(self) -> None:
        while not self._stopping and not self.crashed:
            try:
                blob = self.channel.recv_bytes(timeout=_READ_POLL_S)
            except Exception as exc:  # torn-down / closed / stalled channel
                if not self._stopping:
                    self.mark_crashed(f"response transport failed: {exc}")
                return
            if blob is None:
                if (self.process is not None and not self._stopping
                        and not self.process.is_alive()):
                    self.mark_crashed("worker process exited with code "
                                      f"{self.process.exitcode}")
                continue
            try:
                message = deserialize_message(blob)
            except ValueError as exc:
                self.mark_crashed(f"undecodable response: {exc}")
                return
            with self._lock:
                self.bytes_received += len(blob)
                self.last_seen = time.monotonic()
            self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        if message.kind == SHARD_KIND_READY:
            with self._lock:
                self.snapshot_version = int(message.meta.get("version", 0))
                self.pid = message.meta.get("pid", self.pid)
            self.ready.set()
            return
        if message.kind == NODE_KIND_PONG:
            with self._lock:
                sent_at = self._pings.pop(message.frame_id, None)
                # A pong for probe N proves every earlier probe's question
                # ("are you alive?") answered too.
                for corr in [c for c in self._pings if c < message.frame_id]:
                    self._pings.pop(corr, None)
                if sent_at is not None:
                    self.rtt_ms = (time.perf_counter() - sent_at) * 1e3
                self.snapshot_version = max(
                    self.snapshot_version,
                    int(message.meta.get("version", 0)))
            return
        with self._lock:
            reply = self._pending.get(message.frame_id)
        if reply is None:
            if message.kind == KIND_ERROR and not self.ready.is_set():
                # Bootstrap failure: the worker could not build its
                # repository and reported why — surface the real traceback
                # instead of a generic "worker exited".
                self.ready_error = (
                    f"{message.meta.get('error', 'bootstrap failed')}\n"
                    f"{message.meta.get('traceback', '')}")
                self.mark_crashed(self.ready_error)
            return  # late reply for a timed-out/abandoned request: dropped
        if message.kind in (KIND_RESULT, SHARD_KIND_PUBLISHED):
            reply.complete(message)
        elif message.kind == KIND_ERROR:
            with self._lock:
                self.errors += 1
            reply.fail(RuntimeError(
                f"{self.label} execution failed: "
                f"{message.meta.get('error', 'unknown')}\n"
                f"--- worker traceback ---\n"
                f"{message.meta.get('traceback', '')}"))

    # -- lifecycle -------------------------------------------------------
    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Stop the worker and release its transport (idempotent).

        Safe to call twice — a respawn stops the dead link before it
        refills the slot, and the pool's own ``stop()`` may race it.
        Closing *and unlinking* the channel here, before any replacement
        is spawned, is what keeps long respawn histories from leaking
        shared memory segments (pinned by ``tests/test_serving_selfheal.py``).
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._stopping = True
        if self.process is not None:
            if self.process.is_alive() and not self.crashed:
                try:
                    # Short timeout: a wedged worker with a full channel must
                    # not stall shutdown for request_timeout_s — it gets
                    # killed right below anyway.
                    self._send(Message(kind=KIND_STOP), timeout=1.0)
                except Exception:
                    pass
            self.process.join(timeout=join_timeout_s)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=join_timeout_s)
        self.mark_crashed("link stopped")
        # The reader must be gone before its channel is closed (a ring
        # unmapped, a descriptor released) under it.
        self.reader.join(timeout=join_timeout_s)
        self.channel.close()
        self.channel.unlink()

    def carry_counters(self, old: "WorkerLink") -> None:
        """Continue ``old``'s cumulative stats row (respawn bookkeeping).

        Keeps slot-level statistics monotonic across a respawn.  Snapshot
        under ``old``'s lock, add under our own: by the time a replacement
        carries counters its reader thread is already running, so a bare
        ``+=`` would race the reader's increments.
        """
        with old._lock:
            carried = (old.frames, old.batches, old.errors,
                       old.service_time_s, old.bytes_sent,
                       old.bytes_received)
        with self._lock:
            self.frames += carried[0]
            self.batches += carried[1]
            self.errors += carried[2]
            self.service_time_s += carried[3]
            self.bytes_sent += carried[4]
            self.bytes_received += carried[5]

    def counters(self) -> Dict:
        """One consistent snapshot of the counters (for the stats views).

        ``batches`` counts the requests shipped — one envelope each, a
        lone frame included — and ``frames`` the frames they carried.
        """
        with self._lock:
            return {"alive": self.alive, "frames": self.frames,
                    "batches": self.batches, "errors": self.errors,
                    "service_time_s": self.service_time_s,
                    "bytes_sent": self.bytes_sent,
                    "bytes_received": self.bytes_received,
                    "snapshot_version": self.snapshot_version,
                    "rtt_ms": self.rtt_ms}


class WorkerPool:
    """The slots a tier's :class:`WorkerLink` s fill, and their lifecycle.

    A tier (:class:`~repro.serving.sharding.ShardPool`,
    :class:`~repro.serving.cluster.ClusterPool`) supplies ``tier`` (the
    slot noun), :meth:`_open_link` (reach one worker), :meth:`_pick`
    (route one request), :meth:`_stats_view` and, where the defaults do
    not hold, :meth:`_bootstrap` and :meth:`_respawn_exclusion`.
    """

    #: Slot noun for messages and the supervisor's stats rows.
    tier = "worker"

    def __init__(self, repository: ModelRepository, config, count: int,
                 start_timeout_s: float) -> None:
        self.repository = repository
        self.config = config
        self._start_timeout_s = start_timeout_s
        self._links: List[WorkerLink] = []
        self._rr = itertools.count()
        self._started = False
        self._stopped = False
        self._publish_lock = threading.Lock()
        #: Serializes respawns against stop(); guards _stopped.
        self._lifecycle_lock = threading.Lock()
        # Slot-level bookkeeping that must survive link replacement (a
        # respawn swaps the object, not the slot).
        self._restarts: List[int] = [0] * count
        self._quarantine: List[Optional[str]] = [None] * count
        self._death_reasons: List[Optional[str]] = [None] * count

    # -- tier hooks ------------------------------------------------------
    def _open_link(self, index: int, timeout: float) -> WorkerLink:
        """Reach the (empty) worker behind slot ``index``."""
        raise NotImplementedError

    def _bootstrap(self) -> Dict:
        """The hello meta a fresh worker builds its replica from."""
        return bootstrap_meta(self.repository)

    def _pick(self, name: str) -> WorkerLink:
        """The live link that serves the next request for entry ``name``."""
        raise NotImplementedError

    def _stats_view(self, index: int, link: WorkerLink, counters: Dict):
        """The tier's stats dataclass over slot ``index``'s link counters."""
        raise NotImplementedError

    def _respawn_exclusion(self):
        """Context held across a respawn's open-and-swap: whatever keeps a
        publish from landing between the bootstrap read and the swap."""
        return self._publish_lock

    def _replicated(self, payload: Dict, version: int) -> None:
        """Called under the publish lock once a snapshot is replicated."""

    def _connect(self, index: int, timeout: float) -> WorkerLink:
        """Reach slot ``index``'s worker and send it the bootstrap hello
        (does not wait ready)."""
        link = self._open_link(index, timeout)
        try:
            link.hello(self._bootstrap())
        except Exception:
            link.stop()
            raise
        return link

    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Open every slot, wait until every worker is serving.

        Startup is strict — a pool that begins life degraded is a
        deployment error, unlike a worker dying later.  Links are opened
        first and awaited second, so the workers build their models
        concurrently.  Workers start from the repository's *current*
        snapshot; a publish landing during startup is caught by the
        re-sync the app performs right after registering the pool's
        publish preparer.
        """
        if self._started:
            raise RuntimeError(f"{type(self).__name__} is already started")
        self._started = True
        try:
            for index in range(self.num_slots):
                self._links.append(
                    self._connect(index, self._start_timeout_s))
            deadline = time.monotonic() + self._start_timeout_s
            for link in self._links:
                link.wait_ready(max(deadline - time.monotonic(), 0.001))
        except Exception:
            self.stop()
            raise
        return self

    # ------------------------------------------------------------------
    # Self-healing (driven by repro.serving.supervisor)
    # ------------------------------------------------------------------
    def respawn(self, index: int, timeout: Optional[float] = None) -> None:
        """Replace the dead worker behind slot ``index`` with a fresh one.

        Sequence, and why the order matters:

        1. Stop the corpse — joining an owned process and closing *and
           unlinking* its channel before any replacement transport exists,
           so restart cycles never accumulate leaked segments.
        2. Under the tier's publish exclusion (a shard holds the
           repository's ``publish_barrier``, a node the pool's publish
           lock): open a fresh link bootstrapped from the snapshot in
           force and wait for its ready ack.  Holding the exclusion across
           open-and-swap means no publish can land between the bootstrap
           read and the slot swap — so a frame can never be stamped with a
           snapshot version the fresh worker lacks (the pinning invariant,
           preserved across restarts).  Publishes queue behind the respawn.
        3. Swap the fresh link into the slot — unless the pool stopped
           meanwhile, in which case the fresh worker is torn down and the
           respawn aborts cleanly.

        Raises on failure (open error, ready timeout, pool stopped); the
        supervisor counts a failed respawn as another death.
        """
        if not self._started:
            raise RuntimeError(f"{type(self).__name__} is not started")
        if self._quarantine[index] is not None:
            raise RuntimeError(f"{self.tier} slot {index} is quarantined: "
                               f"{self._quarantine[index]}")
        old = self._links[index]
        if old.alive:
            raise RuntimeError(f"{self.tier} {index} is alive; "
                               "refusing to respawn over it")
        self._death_reasons[index] = self.death_reason(index)
        old.stop()
        budget = self._start_timeout_s if timeout is None else timeout
        with self._respawn_exclusion():
            with self._lifecycle_lock:
                if self._stopped:
                    raise RuntimeError(
                        f"{self.tier} pool stopped; respawn aborted")
            if self._links[index] is not old:
                return  # another healer refilled the slot while we waited
            fresh = self._connect(index, budget)
            try:
                fresh.wait_ready(budget)
                fresh.carry_counters(old)
                with self._lifecycle_lock:
                    if self._stopped:
                        raise RuntimeError(
                            f"{self.tier} pool stopped during respawn")
                    # A single list-item store: _pick() sees either the
                    # old (dead, routed around) or the new (live) link,
                    # never a half-state.
                    self._links[index] = fresh
                    self._restarts[index] += 1
            except Exception:
                fresh.stop()
                raise

    def slot_alive(self, index: int) -> bool:
        return self._links[index].alive

    def death_reason(self, index: int) -> Optional[str]:
        """Why the worker behind slot ``index`` most recently died.

        The reader thread's liveness poll may not have named the death yet
        (a worker killed while idle, respawned within the poll quantum) —
        fall back to the exit code so a dead slot's reason never reads as
        "nothing happened".
        """
        link = self._links[index]
        reason = link.death_reason or self._death_reasons[index]
        exitcode = getattr(link.process, "exitcode", None)
        if reason is None and exitcode is not None:
            reason = f"worker process exited with code {exitcode}"
        return reason

    def set_quarantined(self, index: int, reason: str) -> None:
        """Mark slot ``index`` crash-looping: no further respawns, ever."""
        self._quarantine[index] = reason

    def quarantine_reason(self, index: int) -> Optional[str]:
        return self._quarantine[index]

    def restarts(self, index: int) -> int:
        return self._restarts[index]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _live_links(self):
        """Yield the live links in round-robin order (possibly none).

        The shared counter is drawn exactly once and the probe walks a
        local window from there — drawing inside the loop would let
        concurrent callers interleave counter values such that one thread
        sees only dead slots and falsely reports every worker down.
        """
        links = self._links
        start = next(self._rr)
        for offset in range(len(links)):
            link = links[(start + offset) % len(links)]
            if link.alive:
                yield link

    def batch_fn(self, name: str
                 ) -> Callable[[Sequence[FrameState]], List[FrameState]]:
        def route_batch(requests: Sequence[FrameState]) -> List[FrameState]:
            return self._pick(name).request(name, requests)

        return route_batch

    def edge_fns(self) -> Dict[str, Callable[[ArrayDict, Dict], FrameState]]:
        """One-frame views of :meth:`batch_fns`, one per retained entry name.

        The server never runs these (it installs :meth:`batch_fns`); they
        exist for timing a lone frame's worker hop in isolation, as the
        end-to-end harness's layer walk does.
        """
        def one_frame(route: Callable) -> Callable[[ArrayDict, Dict],
                                                   FrameState]:
            return lambda arrays, meta: route([(arrays, meta)])[0]

        return {name: one_frame(route)
                for name, route in self.batch_fns().items()}

    def batch_fns(self) -> Dict[str, Callable[[Sequence[FrameState]],
                                              List[FrameState]]]:
        """Worker-routing batched callables, one per retained entry name."""
        return {name: self.batch_fn(name)
                for name in self.repository.serving_names()}

    # ------------------------------------------------------------------
    # Publish replication (registered as a repository pre-swap preparer)
    # ------------------------------------------------------------------
    def prepare_publish(self, snapshot: ServingSnapshot) -> None:
        """Replicate ``snapshot`` to every live worker before the parent swap.

        Runs as a :meth:`ModelRepository.add_preparer` hook: by the time
        the parent repository installs the snapshot (and its version can be
        stamped onto device results), every live worker has acknowledged
        it.  A worker that fails to install the snapshot is treated like a
        crashed worker (poisoned and routed around) rather than failing the
        publish — unless *no* worker is left, which aborts the publish.
        """
        with self._publish_lock:
            payload = zoo_to_payload(snapshot.zoo)

            def poison(link: WorkerLink, exc: Exception) -> None:
                # The worker diverged (or died) — it can never serve a
                # frame pinned to a snapshot it lacks, so take it out of
                # routing.
                link.mark_crashed(f"snapshot v{snapshot.version} "
                                  f"replication failed: {exc}")

            # Broadcast first, await second: every worker rebuilds the new
            # zoo's models and plans concurrently, so a publish costs one
            # (slowest-worker) build instead of N sequential ones.
            in_flight = []
            for link in list(self._links):
                if not link.alive:
                    continue
                try:
                    corr, reply = link.start_publish(payload,
                                                     snapshot.version)
                except Exception as exc:
                    poison(link, exc)
                    continue
                in_flight.append((link, corr, reply))
            for link, corr, reply in in_flight:
                try:
                    link.finish_publish(corr, reply, snapshot.version,
                                        self.config.publish_timeout_s)
                except Exception as exc:
                    poison(link, exc)
            if not any(link.alive for link in self._links):
                raise RuntimeError(
                    f"publish of snapshot v{snapshot.version} aborted: no "
                    f"serving {self.tier} accepted it")
            self._replicated(payload, snapshot.version)

    def sync(self, snapshot: ServingSnapshot) -> None:
        """Idempotent re-broadcast (covers publishes racing pool startup)."""
        self.prepare_publish(snapshot)

    # ------------------------------------------------------------------
    def stats(self) -> list:
        """Per-slot counters (parent-side view), slot order preserved.

        Slot-level supervision fields (``restarts``, ``quarantined``,
        ``last_death_reason``) survive worker replacement: they live on
        the pool, not on the link they describe.
        """
        folded = []
        for index, link in enumerate(self._links):
            stats = self._stats_view(index, link, link.counters())
            stats.restarts = self._restarts[index]
            stats.quarantined = self._quarantine[index] is not None
            stats.last_death_reason = self.death_reason(index)
            folded.append(stats)
        return folded

    def live_count(self) -> int:
        return sum(1 for link in self._links if link.alive)

    @property
    def num_slots(self) -> int:
        return len(self._restarts)

    def stop(self) -> None:
        """Stop every link (idempotent): stop envelope, join, kill, unlink.

        Serialized against :meth:`respawn` by the lifecycle lock: a respawn
        in flight either completes before the flag is read (its fresh link
        is in the slot and stopped below) or observes the flag and tears
        its fresh worker down itself.
        """
        with self._lifecycle_lock:
            if self._stopped:
                return
            self._stopped = True
        for link in self._links:
            link.stop()
