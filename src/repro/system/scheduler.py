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
:class:`QosPolicy` (surfaced to deployments as
:class:`repro.serving.QosConfig`):

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

import math
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_priority_map(name: str, value: object) -> Dict[str, int]:
    """Validate a ``priority_map`` (class name -> level >= 0); a plain dict.

    Shaped ``(name, value)`` so :class:`repro.serving.QosConfig` can use it
    as the ``kind`` of its ``priority_map`` knob — one rule, both layers.
    """
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping of class name -> level, "
                         f"got {type(value).__name__}")
    for key, level in value.items():
        if not isinstance(key, str):
            raise ValueError(f"{name} keys must be strings, got {key!r}")
        if not (_is_int(level) and level >= 0):
            raise ValueError(f"{name}[{key!r}] must be a non-negative "
                             f"integer, got {level!r}")
    return dict(value)


@dataclass(frozen=True)
class QosPolicy:
    """Frozen admission-control policy of one :class:`Scheduler`.

    Parameters
    ----------
    max_queue_depth:
        Global bound on admitted-but-not-executing frames; ``None``
        (default) keeps queues unbounded — the historical behavior.
    default_deadline_ms:
        Deadline applied to frames that do not carry their own
        ``meta["deadline_ms"]``; ``None`` means no implicit deadline.
    retry_after_ms:
        Hint carried in every ``rejected`` reply: how long a well-behaved
        client should wait before retrying.
    priority_map:
        Maps symbolic ``meta["priority"]`` strings (e.g. ``"batch"``) to
        integer levels.  Level 0 is the highest class (full queue bound);
        each level above 0 halves the bound it is admitted under.
    default_priority:
        Level assigned to frames without a ``priority`` tag.
    fairness:
        Enforce the per-client queue share (only meaningful with a
        bounded queue).
    fairness_window_s:
        How long after its last frame a client still counts as active
        when computing shares.
    """

    max_queue_depth: Optional[int] = None
    default_deadline_ms: Optional[float] = None
    retry_after_ms: float = 50.0
    priority_map: Mapping[str, int] = field(default_factory=dict)
    default_priority: int = 0
    fairness: bool = True
    fairness_window_s: float = 1.0

    def __post_init__(self) -> None:
        # Guards for callers that build a policy directly
        # (``EdgeServer(qos=...)``); :class:`repro.serving.QosConfig` applies
        # the same rules from its knob table before it gets here.  A
        # fractional ``max_queue_depth`` would otherwise reach
        # :meth:`Scheduler.admit` and kill every frame on ``bit_length``; a
        # NaN deadline would stamp frames that never expire.
        depth = self.max_queue_depth
        if depth is not None and not (_is_int(depth) and depth >= 1):
            raise ValueError("max_queue_depth must be an integer of at "
                             f"least 1 (or None for unbounded), got {depth!r}")
        deadline = self.default_deadline_ms
        if deadline is not None and not (_is_finite(deadline)
                                         and deadline > 0):
            raise ValueError("default_deadline_ms must be positive and "
                             f"finite (or None), got {deadline!r}")
        if not (_is_finite(self.retry_after_ms) and self.retry_after_ms >= 0):
            raise ValueError("retry_after_ms must be non-negative and "
                             f"finite, got {self.retry_after_ms!r}")
        check_priority_map("priority_map", self.priority_map)
        if not (_is_int(self.default_priority) and self.default_priority >= 0):
            raise ValueError("default_priority must be a non-negative "
                             f"integer, got {self.default_priority!r}")
        if not (_is_finite(self.fairness_window_s)
                and self.fairness_window_s > 0):
            raise ValueError("fairness_window_s must be positive and "
                             f"finite, got {self.fairness_window_s!r}")


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

    def __init__(self, policy: Optional[QosPolicy] = None) -> None:
        self.policy = policy or QosPolicy()
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
