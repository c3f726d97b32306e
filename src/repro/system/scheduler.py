"""Scheduling/QoS layer of the edge server: admission control.

This stage sits between the transport frontends and the execution tier
(:class:`~repro.system.engine.MicroBatcher` / in-process callables /
:class:`~repro.serving.sharding.ShardPool`).  Every frame passes through
:meth:`Scheduler.admit` before it may queue for compute; the scheduler
answers with either an :class:`Admission` (carrying the frame's resolved
priority and absolute expiry) or a :class:`Rejection`, which the engine
turns into a wire-level ``"rejected"`` reply carrying ``retry_after_ms`` —
load is *shed* with an explicit answer instead of absorbed as unbounded
queueing.

Four QoS mechanisms compose, all configured by one frozen
:class:`~repro.system.knobs.QosConfig` (``ServingConfig.qos``):

**Bounded queues** (``max_queue_depth``)
    Frames admitted but not yet executing count against a global bound;
    at the bound, new frames are rejected with reason ``"capacity"``.
    ``None`` (the default) preserves the historical unbounded behavior.

**Deadlines** (``deadline_ms`` frame metadata / ``default_deadline_ms``)
    A frame carrying a relative deadline is stamped with an absolute
    expiry at admission.  Expired frames are *never executed*: the engine
    re-checks the expiry when the frame reaches the front of the queue
    and sheds it with reason ``"deadline"`` — a result that would arrive
    too late to matter should not burn an engine call.

**Priority classes** (``priority`` frame metadata / ``priority_map``)
    Higher priority levels see the *full* queue bound; each level below
    the top sees half the bound of the level above (level ``p`` is
    admitted while the queue holds fewer than ``max_queue_depth >> p``
    frames).  Under saturation, low-priority traffic is shed first while
    high-priority frames still find room.

**Per-client fairness** (``fairness``)
    With the queue bounded, no single client may hold more than its
    share — ``max_queue_depth / active_clients`` — of the queue.  A
    firehose client is rejected with reason ``"fairness"`` once it owns
    its share, leaving headroom for trickle clients; clients count as
    active while they have frames queued or sent traffic within
    ``fairness_window_s``.

The engine owns the *replies*; the scheduler owns the *decisions* and the
shed/delay accounting (:meth:`Scheduler.snapshot` feeds
``EdgeServerStats.frames_shed`` / ``shed_by_reason`` and the queue-delay
percentiles).  Execution tiers deeper in the stack signal shedding
upward with :class:`FrameExpiredError` (deadline passed) and
:class:`BackpressureError` (a full shard ring — shed before the ring,
not after): both are translated into ``rejected`` replies by the engine.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from .knobs import QosConfig
from .messages import DEADLINE_MS_META_KEY, PRIORITY_META_KEY

#: Wire-visible rejection reasons (``rejected`` reply ``meta["reason"]``).
REJECT_REASON_CAPACITY = "capacity"
REJECT_REASON_FAIRNESS = "fairness"
REJECT_REASON_DEADLINE = "deadline"

#: Queue-delay samples retained for the p50/p99 percentiles — bounded so a
#: long-running server cannot grow the sample buffer without limit.
_DELAY_SAMPLE_LIMIT = 8192


class FrameExpiredError(RuntimeError):
    """A frame's deadline passed before it could execute.

    Raised by execution tiers (e.g. the shard router) that discover the
    expiry after admission; the engine sheds the frame with a clean
    ``rejected`` reply instead of executing it or calling it an error.
    """


class BackpressureError(RuntimeError):
    """An execution tier refused a frame because it is saturated.

    Raised by :class:`~repro.serving.sharding.ShardPool` when a frame
    cannot even *enter* a shard's request ring within the send bound —
    shedding before the ring instead of queueing blindly against it.
    The engine replies ``rejected`` with reason ``"capacity"``.
    """


@dataclass(frozen=True)
class Admission:
    """A frame may proceed: its resolved priority and absolute expiry."""

    #: ``time.monotonic()`` moment after which the frame must not execute
    #: (``None`` = no deadline).
    expires_at: Optional[float]
    priority: int


@dataclass(frozen=True)
class Rejection:
    """A frame is shed: the wire-visible reason and the retry hint."""

    reason: str
    retry_after_ms: float


@dataclass(frozen=True)
class SchedulerSnapshot:
    """Counters of one :class:`Scheduler` (feeds ``EdgeServerStats``)."""

    frames_shed: int
    shed_by_reason: Dict[str, int]
    queued: int
    queue_delay_p50_s: float
    queue_delay_p99_s: float


def _percentile(samples: Tuple[float, ...], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted tuple."""
    if not samples:
        return 0.0
    index = min(len(samples) - 1, int(fraction * len(samples)))
    return samples[index]


class Scheduler:
    """Admission control between the frontends and the execution tier.

    One scheduler guards one :class:`~repro.system.engine.EdgeServer`.
    The engine calls :meth:`admit` for every frame *before* queueing it
    (on the micro-batcher or the direct path), :meth:`release` when the
    frame leaves the queue for execution — or is shed at dispatch — and
    :meth:`record_shed` for sheds the scheduler could not see at admit
    time (dispatch-time deadline expiry, shard backpressure).  All
    methods are thread-safe; decisions take one short critical section.
    """

    def __init__(self, policy: Optional[QosConfig] = None) -> None:
        self.policy = policy or QosConfig()
        self._lock = threading.Lock()
        self._queued_total = 0
        self._queued_by_client: "Counter[object]" = Counter()
        #: client -> last admit attempt (monotonic), for the activity window.
        self._last_seen: Dict[object, float] = {}
        self._frames_shed = 0
        self._shed_by_reason: "Counter[str]" = Counter()
        self._delay_samples: "deque[float]" = deque(maxlen=_DELAY_SAMPLE_LIMIT)

    # ------------------------------------------------------------------
    def resolve_priority(self, meta: Mapping) -> int:
        """Priority level of a frame from its metadata (0 = highest)."""
        raw = meta.get(PRIORITY_META_KEY)
        if raw is None:
            return self.policy.default_priority
        if isinstance(raw, str):
            return self.policy.priority_map.get(raw,
                                                self.policy.default_priority)
        if isinstance(raw, bool):
            return self.policy.default_priority
        if isinstance(raw, int):
            return max(0, raw)
        if isinstance(raw, float) and raw.is_integer():
            return max(0, int(raw))
        return self.policy.default_priority

    def admit(self, client: object, meta: Mapping,
              now: Optional[float] = None) -> Union[Admission, Rejection]:
        """Decide one frame: admit (with expiry/priority) or shed.

        ``client`` keys the fairness accounting — the engine passes the
        session id, so every connection is one fairness bucket.  An
        admitted frame MUST later be released exactly once.
        """
        policy = self.policy
        if now is None:
            now = time.monotonic()
        priority = self.resolve_priority(meta)
        deadline_ms = meta.get(DEADLINE_MS_META_KEY, policy.default_deadline_ms)
        expires_at: Optional[float] = None
        if deadline_ms is not None:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                deadline_ms = policy.default_deadline_ms
            if deadline_ms is not None:
                if deadline_ms <= 0:
                    # Already hopeless on arrival: shed before queueing.
                    return self._reject(REJECT_REASON_DEADLINE)
                expires_at = now + deadline_ms / 1000.0
        with self._lock:
            self._last_seen[client] = now
            limit = policy.max_queue_depth
            if limit is not None:
                if policy.fairness:
                    share = max(1, limit // max(1, self._active_clients(now)))
                    if self._queued_by_client[client] >= share:
                        return self._reject_locked(REJECT_REASON_FAIRNESS)
                # Priority scaling: level p is admitted under half the
                # bound of level p-1, so low classes shed first.
                effective = max(1, limit >> min(priority, limit.bit_length()))
                if self._queued_total >= effective:
                    return self._reject_locked(REJECT_REASON_CAPACITY)
            self._queued_total += 1
            self._queued_by_client[client] += 1
        return Admission(expires_at=expires_at, priority=priority)

    def _active_clients(self, now: float) -> int:
        """Clients with queued frames or recent traffic (lock held).

        The sliding window keeps a trickle client's share reserved during
        the gaps between its frames — without it, a firehose would refill
        the whole queue the instant the trickle's last frame dispatched.
        """
        window = self.policy.fairness_window_s
        stale = [client for client, seen in self._last_seen.items()
                 if now - seen > window and not self._queued_by_client[client]]
        for client in stale:
            del self._last_seen[client]
            del self._queued_by_client[client]
        return max(1, len(self._last_seen))

    def release(self, client: object, queue_delay_s: Optional[float] = None
                ) -> None:
        """A previously admitted frame left the queue (executes or sheds)."""
        with self._lock:
            if self._queued_total > 0:
                self._queued_total -= 1
            if self._queued_by_client[client] > 0:
                self._queued_by_client[client] -= 1
            if queue_delay_s is not None:
                self._delay_samples.append(queue_delay_s)

    def expired(self, expires_at: Optional[float],
                now: Optional[float] = None) -> bool:
        """Whether an admission's deadline has passed."""
        if expires_at is None:
            return False
        return (time.monotonic() if now is None else now) > expires_at

    def record_shed(self, reason: str) -> None:
        """Book a shed decided outside :meth:`admit` (dispatch time)."""
        with self._lock:
            self._frames_shed += 1
            self._shed_by_reason[reason] += 1

    def _reject(self, reason: str) -> Rejection:
        with self._lock:
            return self._reject_locked(reason)

    def _reject_locked(self, reason: str) -> Rejection:
        self._frames_shed += 1
        self._shed_by_reason[reason] += 1
        return Rejection(reason=reason,
                         retry_after_ms=self.policy.retry_after_ms)

    # ------------------------------------------------------------------
    def snapshot(self) -> SchedulerSnapshot:
        with self._lock:
            samples = tuple(sorted(self._delay_samples))
            return SchedulerSnapshot(
                frames_shed=self._frames_shed,
                shed_by_reason=dict(self._shed_by_reason),
                queued=self._queued_total,
                queue_delay_p50_s=_percentile(samples, 0.50),
                queue_delay_p99_s=_percentile(samples, 0.99))
