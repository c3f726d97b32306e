"""Pipelined co-inference engine over TCP sockets.

This is the deployment component of GCoDE (Sec. 3.6): the device executes its
segment of the architecture, compresses and ships the intermediate state to
the edge, and — instead of blocking on the reply — immediately starts the
next frame.  Sending and receiving run on separate threads with their own
queues, matching the paper's description.

The engine is agnostic to *what* is executed: the device and edge sides are
plain callables (``device_fn(frame) -> (arrays, meta)`` and
``edge_fn(arrays, meta) -> (arrays, meta)``), normally the fields of the
:class:`~repro.core.executor.ServingCallables` that
:func:`repro.serving.build_callables` returns — which by default run
compiled inference plans (:mod:`repro.runtime`) whose per-entry buffer
arenas persist across requests for the lifetime of the serving table.  In
this reproduction both ends run on localhost, which exercises the full code
path (framing, compression, threading, pipelining) even though the physical
link is loopback.

Both ends take their knobs as the frozen configs of
:mod:`repro.system.knobs` — ``EdgeServer(config=ServerConfig(...),
batching=BatchingConfig(...), qos=QosConfig(...))`` and
``DeviceClient(host, port, ClientConfig(...))`` — whose effects and valid
ranges are tabulated once, in the knob reference of ``docs/serving.md``.

Multi-client serving
--------------------
One :class:`EdgeServer` serves many :class:`DeviceClient` connections
concurrently: an accept loop hands each connection to its own handler thread,
bounded by a worker pool of ``ServerConfig.max_workers`` slots.  Every
connection is tracked as a :class:`ServingSession` (frames, bytes, edge
service time, errors) and :meth:`EdgeServer.stats` aggregates the sessions
into an :class:`EdgeServerStats` snapshot — the serving-side counterpart of
the client's :class:`PipelineStats`.

The server holds one batched edge callable per zoo entry (``batch_fns``,
keyed by model name; a frame is a batch of one) and picks one per request:
a frame's metadata may name the model directly (``meta["model"]``) or carry
runtime conditions (``meta["conditions"]``) that an injected ``selector`` —
typically ``RuntimeDispatcher.select_for_meta`` — maps to a zoo entry.  Clients
announce themselves with a ``"hello"`` handshake; when the hello carries
conditions the server answers with the chosen model name so the device can
run the matching device segment.  Edge-side failures travel back to the
offending client as ``"error"`` messages (with the remote traceback) instead
of killing the connection.

Cross-client micro-batching
---------------------------
With ``BatchingConfig.max_batch_size > 1`` the server stops executing one
engine call per frame: handler threads only *enqueue* incoming frames, and
a :class:`MicroBatcher` coalesces whatever arrived within ``max_wait_ms``
(up to ``max_batch_size`` frames, strictly per zoo entry — batches never
mix models) into a single call of the entry's batched edge callable
(``batch_fns``, typically each entry's ``ServingCallables.batch_fn``).
Results are scattered back to the waiting connections with the realized
``batch_index`` stamped on each reply.  A failing batched call falls back to
per-frame execution so an error isolates to the one offending frame.  The
batcher's realized batch-size distribution and queueing delay are part of
:class:`EdgeServerStats`, whose ``mean_service_time_s`` then reports the
*amortized* per-frame engine time.

Layering: frontends and admission control
-----------------------------------------
Since the transport/scheduling split, this module is the serving *core*
only.  Connection accept/read/write and message framing live in
:mod:`repro.system.transport` behind a pluggable frontend
(``ServerConfig.frontend``): the threaded frontend keeps the historical
thread-per-connection server, the asyncio frontend multiplexes thousands
of mostly-idle connections on one event loop and hands compute to a
bounded thread pool.  The core's behavior — routing,
batching, statistics, hot reload — is identical under both.

Between the frontends and execution sits the admission-control stage of
:mod:`repro.system.scheduler`: every frame passes ``Scheduler.admit``
before it may queue, so a saturated server *sheds* load with an explicit
wire-level ``"rejected"`` reply (reason + ``retry_after_ms``) instead of
queueing without bound; per-frame deadlines (``meta["deadline_ms"]``) are
honored by never executing expired frames, priority classes shed
low-priority traffic first, and per-client fairness keeps one firehose
client from starving the rest.  Clients surface rejections as
:class:`RequestRejectedError` (or count them, ``on_rejected="drop"``).
"""

from __future__ import annotations

import heapq
import queue
import socket
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

if TYPE_CHECKING:  # import-free at runtime: engine must not drag in the
    # shard runtime (repro.serving builds on this module, not vice versa).
    from ..runtime.node import NodeStats
    from ..runtime.shard import ShardStats

from .messages import (_LENGTH_SIZE as PAYLOAD_PREFIX_BYTES,
                       DEADLINE_MS_META_KEY, KIND_ERROR, KIND_FRAME,
                       KIND_HELLO, KIND_REJECTED, KIND_RESULT,
                       KIND_STOP, Message, PRIORITY_META_KEY,
                       REJECT_REASON_META_KEY, RETRY_AFTER_MS_META_KEY,
                       _prefixed, disable_nagle, recv_message, send_message,
                       serialize_message)
from .knobs import BatchingConfig, ClientConfig, QosConfig, ServerConfig
from .scheduler import (REJECT_REASON_CAPACITY, REJECT_REASON_DEADLINE,
                        BackpressureError, FrameExpiredError, Rejection,
                        Scheduler)
from .transport import FRONTEND_THREADED, Connection, create_frontend

ArrayDict = Dict[str, np.ndarray]
DeviceFn = Callable[[object], Tuple[ArrayDict, Dict]]
EdgeFn = Callable[[ArrayDict, Dict], Tuple[ArrayDict, Dict]]
#: Edge callable executing a whole micro-batch of frames in one engine call.
BatchedEdgeFn = Callable[[Sequence[Tuple[ArrayDict, Dict]]],
                         List[Tuple[ArrayDict, Dict]]]
#: Maps frame/hello metadata to the name of the edge callable to run.
SelectorFn = Callable[[Dict], Optional[str]]

#: Model-name bucket used for frames served by the default ``edge_fn``.
DEFAULT_MODEL = "default"

#: Client-local sentinel kind the receive thread enqueues when the
#: connection drops; never serialized, so it lives here rather than with
#: the wire kinds of :mod:`repro.system.messages`.
_KIND_DISCONNECT = "disconnect"


@dataclass(frozen=True)
class ServingTable:
    """Immutable model-routing state of an :class:`EdgeServer`.

    Everything a frame's resolution touches — the default entry's name, the
    named batched callables and the selector — lives in one frozen value
    that each request reads exactly once.  Hot reload
    (:meth:`EdgeServer.install_table`) swaps the whole table atomically, so
    no frame can ever observe a half-updated routing state.  ``entries`` is
    a read-only view: registering a model means installing a new table,
    never editing a live one.
    """

    default_name: str
    entries: Mapping[str, BatchedEdgeFn]
    selector: Optional[SelectorFn]

    def model_names(self) -> List[str]:
        """Every name a frame's ``meta["model"]`` may resolve to."""
        return sorted(self.entries)


def _make_serving_table(edge_fn: Optional[EdgeFn],
                        selector: Optional[SelectorFn],
                        batch_fns: Optional[Dict[str, BatchedEdgeFn]]
                        ) -> ServingTable:
    """Validate and freeze one serving table (construction and hot reload).

    A per-frame ``edge_fn`` is lifted here, once, into the batch-of-one
    ``"default"`` entry; without one the first named entry is the default,
    and untagged frames are booked under its real name in the statistics.
    """
    entries = dict(batch_fns or {})
    if edge_fn is not None:
        if DEFAULT_MODEL in entries:
            raise ValueError(
                f"batch_fns may not use the reserved name {DEFAULT_MODEL!r} "
                "when an explicit default edge_fn is also given — one of "
                "the two would be unreachable")
        entries = {DEFAULT_MODEL: lambda frames: [edge_fn(*frame)
                                                  for frame in frames],
                   **entries}
    if not entries:
        raise ValueError("a serving table needs an edge_fn or a non-empty "
                         "batch_fns")
    return ServingTable(default_name=next(iter(entries)),
                        entries=MappingProxyType(entries), selector=selector)


def _entry(table: ServingTable, name: str) -> BatchedEdgeFn:
    """The one membership test hellos, frames and batches resolve through."""
    try:
        return table.entries[name]
    except KeyError:
        raise KeyError(f"no edge model named {name!r} "
                       f"(available: {table.model_names()})") from None


def _run_entry(entry: BatchedEdgeFn, name: str,
               frames: List[Tuple[ArrayDict, Dict]]
               ) -> List[Tuple[ArrayDict, Dict]]:
    """Run ``frames`` through ``entry`` and check the result's shape.

    Every element is unpacked *before* the caller's first reply goes out: a
    malformed result discovered mid-loop would strand the rest of the batch
    with no reply at all (their clients would sit out the full pipeline
    timeout instead of getting a per-frame error).
    """
    results = list(entry(frames))
    if len(results) != len(frames):
        raise RuntimeError(
            f"batched edge callable for {name!r} returned {len(results)} "
            f"results for {len(frames)} requests")
    return [(arrays, meta) for arrays, meta in results]


@dataclass
class FrameResult:
    """Outcome of one inference frame processed through the engine."""

    frame_id: int
    arrays: ArrayDict
    meta: Dict
    submitted_at: float
    completed_at: float
    #: Position inside the micro-batch the edge coalesced this frame into;
    #: ``None`` when the frame was served per frame (batching off).
    batch_index: Optional[int] = None

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.submitted_at


@dataclass
class PipelineStats:
    """Aggregate statistics of a pipelined co-inference run."""

    num_frames: int
    wall_time_s: float
    mean_latency_s: float
    #: Framed size (length prefix included) of this run's own frame
    #: messages, re-submissions included; exact, and never the hello's.
    bytes_sent: int
    bytes_received: int
    #: Frames the server shed with a ``rejected`` reply instead of
    #: executing (only non-zero for clients built with
    #: ``on_rejected="drop"`` — the default raises instead).
    frames_rejected: int = 0
    #: Frames that needed at least one re-submission before completing
    #: (only non-zero with a :class:`~repro.serving.RetryPolicy`).
    frames_retried: int = 0
    #: Retry-attempt histogram: ``{n: frames that needed exactly n
    #: re-submissions}`` for ``n >= 1`` — frames served on the first
    #: attempt are not recorded, so an empty dict means a clean run.
    retry_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def throughput_fps(self) -> float:
        return self.num_frames / self.wall_time_s if self.wall_time_s > 0 else 0.0


class RequestRejectedError(RuntimeError):
    """The edge server shed a frame instead of executing it.

    Raised by :meth:`DeviceClient.run_pipeline` (and therefore
    :meth:`repro.serving.Client.run`) when a frame comes back as a
    ``"rejected"`` reply — the server's admission control refused it
    (queue bound, fairness share, or an already-expired deadline).  The
    typed fields let callers implement informed backoff instead of
    pattern-matching an error string.
    """

    def __init__(self, frame_id: int, reason: str,
                 retry_after_ms: float) -> None:
        super().__init__(
            f"edge server rejected frame {frame_id} ({reason}); "
            f"retry after {retry_after_ms:.0f} ms")
        #: Frame index relative to the rejected run.
        self.frame_id = frame_id
        #: Wire-visible shed reason: ``"capacity"``/``"fairness"``/``"deadline"``.
        self.reason = reason
        #: Server's backoff hint in milliseconds.
        self.retry_after_ms = retry_after_ms


@dataclass
class ServingSession:
    """Edge-side record of one client connection."""

    session_id: int
    peer: str
    client_name: str = ""
    connected_at: float = 0.0
    closed_at: Optional[float] = None
    frames: int = 0
    errors: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    #: Cumulative time spent inside the edge callables for this client.
    service_time_s: float = 0.0
    frames_by_model: "Counter[str]" = field(default_factory=Counter)
    #: True once the session was folded into the server's aggregate counters
    #: (bounded session log).  Late replies from batcher threads must then
    #: book against the aggregate instead — this object no longer feeds
    #: statistics.
    evicted: bool = False

    @property
    def active(self) -> bool:
        return self.closed_at is None

    @property
    def mean_service_time_s(self) -> float:
        return self.service_time_s / self.frames if self.frames else 0.0


@dataclass
class EdgeServerStats:
    """Aggregate serving statistics across all sessions of an edge server."""

    num_sessions: int
    active_sessions: int
    frames_processed: int
    errors: int
    bytes_received: int
    bytes_sent: int
    #: Mean engine time booked per frame.  Under micro-batching this is the
    #: *amortized* time — each frame of a coalesced batch is charged an equal
    #: share of the single batched engine call.
    mean_service_time_s: float
    frames_by_model: Dict[str, int]
    wall_time_s: float
    sessions: List[ServingSession]
    #: Micro-batching: engine calls dispatched by the batcher, the realized
    #: batch-size distribution (size -> count), the mean realized batch size
    #: and the mean time a frame queued before dispatch.  All zero / empty
    #: when batching is off (``max_batch_size=1``).
    batches_dispatched: int = 0
    mean_batch_size: float = 0.0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    mean_queue_delay_s: float = 0.0
    #: Frames of coalesced batches (1-frame batches included) that had to be
    #: re-executed per frame because their batched engine call failed.
    #: Non-zero means the batched path is degrading; the histogram above
    #: still records the *attempted* coalescing.
    batch_fallback_frames: int = 0
    #: Queue health of the micro-batcher: frames currently sitting in entry
    #: queues awaiting dispatch, and the highest depth ever observed.  A
    #: peak persistently near ``max_batch_size × active clients`` (and a
    #: growing ``mean_queue_delay_s``) is the saturation signal — the
    #: engine, not the wire, is the bottleneck.  Both zero with batching
    #: off.
    queue_depth: int = 0
    queue_depth_peak: int = 0
    #: Load shedding (QoS): frames answered with a ``rejected`` reply
    #: instead of being executed, broken down by reason (``"capacity"`` /
    #: ``"fairness"`` / ``"deadline"``).  Zero with the default unbounded,
    #: deadline-free policy.
    frames_shed: int = 0
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Queue-delay distribution (time from arrival to execution start)
    #: over the most recent frames of *both* the batched and the direct
    #: path — the tail (`p99`) is what a shedding policy bounds, which a
    #: mean can hide.
    queue_delay_p50_s: float = 0.0
    queue_delay_p99_s: float = 0.0
    #: Which transport frontend served these sessions (``"threaded"`` or
    #: ``"async"``).
    frontend: str = FRONTEND_THREADED
    #: Process-parallel serving: per-shard counters of the attached shard
    #: pool (empty when serving in process).  ``num_shards`` counts the
    #: configured shards; a shard with ``alive=False`` crashed and is being
    #: routed around.
    num_shards: int = 0
    shards: List["ShardStats"] = field(default_factory=list)
    #: Multi-node cluster serving: per-node counters of the attached
    #: cluster pool (empty when not clustered).  ``num_nodes`` counts the
    #: configured nodes; a node with ``alive=False`` died (or partitioned)
    #: and is being routed around until a reconnect re-syncs it.
    num_nodes: int = 0
    nodes: List["NodeStats"] = field(default_factory=list)

    @property
    def throughput_fps(self) -> float:
        """Aggregate frames per second since the server started."""
        return self.frames_processed / self.wall_time_s if self.wall_time_s > 0 else 0.0


@dataclass
class _PendingRequest:
    """One frame waiting for (batched) edge execution.

    Holds everything a batcher/compute thread needs to reply without going
    back through the frontend: the connection (whose ``send_bytes`` is
    thread-safe), the session record for statistics, and the admission
    outcome (absolute expiry + priority) the scheduler stamped on it.
    """

    conn: Connection
    session: ServingSession
    message: Message
    enqueued_at: float
    #: ``time.monotonic()`` moment after which the frame must not execute
    #: (``None`` = no deadline); stamped at admission.
    expires_at: Optional[float] = None
    priority: int = 0


class MicroBatcher:
    """Coalesces concurrent edge requests into batched engine calls.

    One collector thread per zoo entry (created lazily on first traffic for
    that entry) drains a per-entry queue: it waits at most
    ``batching.max_wait_ms`` from the arrival of the batch's first frame —
    or until ``batching.max_batch_size`` frames are pending — then hands
    the batch to ``dispatch`` in one call.
    Per-entry queues mean a batch never mixes zoo entries, so each batched
    engine call resumes exactly one architecture.

    The batcher records the realized batch-size distribution and the
    per-frame queueing delay; :meth:`EdgeServer.stats` folds the snapshot
    into :class:`EdgeServerStats`.
    """

    def __init__(self, dispatch: Callable[[str, List[_PendingRequest]], bool],
                 batching: BatchingConfig) -> None:
        self._dispatch = dispatch
        self.batching = batching
        self._max_wait_s = batching.max_wait_ms / 1000.0
        self._queues: Dict[str, "queue.Queue[_PendingRequest]"] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._batches = 0
        self._frames = 0
        self._size_histogram: "Counter[int]" = Counter()
        self._queue_delay_total_s = 0.0
        self._fallback_frames = 0
        #: Frames enqueued but not yet handed to dispatch, and the highest
        #: value that counter ever reached — the operator-facing saturation
        #: signal (surfaced as ``EdgeServerStats.queue_depth``/``_peak``).
        self._queue_depth = 0
        self._queue_depth_peak = 0

    # ------------------------------------------------------------------
    def submit(self, name: str, request: _PendingRequest) -> bool:
        """Enqueue a frame for entry ``name``; False when already stopped."""
        with self._lock:
            if self._stopped.is_set():
                return False
            self._queue_depth += 1
            if self._queue_depth > self._queue_depth_peak:
                self._queue_depth_peak = self._queue_depth
            entry_queue = self._queues.get(name)
            if entry_queue is None:
                entry_queue = queue.Queue()
                self._queues[name] = entry_queue
                collector = threading.Thread(target=self._run,
                                             args=(name, entry_queue),
                                             daemon=True)
                self._threads[name] = collector
                collector.start()
        entry_queue.put(request)
        return True

    def _collect(self, entry_queue: "queue.Queue[_PendingRequest]",
                 first: _PendingRequest) -> List[_PendingRequest]:
        """Gather a batch: whatever arrives before the first frame's deadline.

        The deadline is anchored at the *arrival* of the batch's first frame,
        so a frame never waits longer than ``max_wait_ms`` in the queue even
        when the collector was busy dispatching the previous batch — in that
        case everything already pending is drained without further waiting.
        """
        batch = [first]
        deadline = first.enqueued_at + self._max_wait_s
        while len(batch) < self.batching.max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    batch.append(entry_queue.get_nowait())
                else:
                    batch.append(entry_queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _run(self, name: str, entry_queue: "queue.Queue[_PendingRequest]") -> None:
        while not self._stopped.is_set():
            try:
                first = entry_queue.get(timeout=0.1)
            except queue.Empty:
                continue
            batch = self._collect(entry_queue, first)
            dispatched_at = time.monotonic()
            with self._lock:
                self._batches += 1
                self._frames += len(batch)
                self._queue_depth -= len(batch)
                self._size_histogram[len(batch)] += 1
                self._queue_delay_total_s += sum(
                    dispatched_at - request.enqueued_at for request in batch)
            try:
                executed_batched = self._dispatch(name, batch)
            except Exception:
                # Per-request failures are replied to inside dispatch; an
                # unexpected error here must not kill the collector thread,
                # or the entry would silently stop being served.
                continue
            if not executed_batched:
                # The coalesced batch had to be re-run per frame (its
                # batched callable failed); without this counter a fully
                # broken batched path would still report a healthy-looking
                # batch-size histogram.
                with self._lock:
                    self._fallback_frames += len(batch)

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[int, int, Dict[int, int], float, int, int, int]:
        """``(batches, frames, size_histogram, total_queue_delay_s,
        fallback_frames, queue_depth, queue_depth_peak)``."""
        with self._lock:
            return (self._batches, self._frames, dict(self._size_histogram),
                    self._queue_delay_total_s, self._fallback_frames,
                    self._queue_depth, self._queue_depth_peak)

    def stop(self) -> None:
        """Stop the collector threads; pending requests are abandoned."""
        self._stopped.set()
        with self._lock:
            collectors = list(self._threads.values())
        for collector in collectors:
            collector.join(timeout=5.0)


class EdgeServer:
    """Edge-side runtime: accepts frames, runs edge callables, returns results.

    Parameters
    ----------
    edge_fn:
        Per-frame default edge callable, served as the ``"default"`` entry
        (run as a batch of one).  Optional when ``batch_fns`` is given (the
        first entry then serves as the default).
    batch_fns:
        Named batched edge callables, one per zoo entry — the only shape
        the server runs: a frame is a batch of one on the direct path and
        in the batcher's per-frame fallback.  A frame selects an entry via
        ``meta["model"]`` or through ``selector``.  Typically the
        ``batch_fn`` of :func:`repro.serving.build_zoo_callables`.
    selector:
        Maps frame/hello metadata to a model name (e.g.
        ``RuntimeDispatcher.select_for_meta``).  Consulted when the metadata
        does not name a model explicitly.
    config, batching, qos:
        The socket / worker-pool / frontend, micro-batching and
        admission-control knobs (:mod:`repro.system.knobs`; each knob's
        effect is in the generated reference of ``docs/serving.md``).  The
        defaults serve per frame from unbounded queues — frames carrying
        ``meta["deadline_ms"]`` are honored even then.
    shard_stats:
        Optional provider of per-shard counters (typically
        ``ShardPool.stats`` of :mod:`repro.serving.sharding`) folded into
        :meth:`stats` when this server routes frames to a process-parallel
        shard pool instead of executing them in process.
    node_stats:
        Optional provider of per-node counters (typically
        ``ClusterPool.stats`` of :mod:`repro.serving.cluster`) folded into
        :meth:`stats` when this server routes frames to a fleet of replica
        nodes instead of executing them in process.
    """

    def __init__(self, edge_fn: Optional[EdgeFn] = None, *,
                 batch_fns: Optional[Dict[str, BatchedEdgeFn]] = None,
                 selector: Optional[SelectorFn] = None,
                 config: ServerConfig = ServerConfig(),
                 batching: BatchingConfig = BatchingConfig(),
                 qos: QosConfig = QosConfig(),
                 shard_stats: Optional[Callable[[], List["ShardStats"]]] = None,
                 node_stats: Optional[Callable[[], List["NodeStats"]]] = None
                 ) -> None:
        # All model routing lives in one immutable table; requests read it
        # exactly once, and install_table() swaps it atomically (hot reload).
        self._table = _make_serving_table(edge_fn, selector, batch_fns)
        self.config = config
        self.batching = batching
        self._batcher: Optional[MicroBatcher] = None
        if batching.max_batch_size > 1:
            self._batcher = MicroBatcher(self._dispatch_batch, batching)
        # Admission control sits between the transport and the execution
        # tiers: every frame passes Scheduler.admit() before it is queued or
        # executed, whatever frontend delivered it.
        self._scheduler = Scheduler(qos)
        # The frontend owns the socket: accept/read/framing/write live in
        # repro.system.transport, this class only sees decoded Messages via
        # the callbacks below.  The listener binds in the frontend
        # constructor, so host/port are final before start().
        self._frontend = create_frontend(config.frontend, self, config.host,
                                         config.port,
                                         max_workers=config.max_workers,
                                         backlog=config.backlog)
        self.host, self.port = self._frontend.host, self._frontend.port
        self._lock = threading.Lock()
        self._sessions: List[ServingSession] = []
        self._next_session_id = 0
        # Aggregate remainder of sessions evicted from the bounded log.
        self._retired = ServingSession(session_id=-1, peer="<retired>")
        self._retired_count = 0
        #: Live transport connections mapped to their sessions; entries are
        #: added by connection_opened() and removed by connection_closed().
        self._conn_sessions: Dict[Connection, ServingSession] = {}
        #: When serving through a process-parallel shard pool, the pool's
        #: per-shard counter snapshot — folded into :meth:`stats` so the
        #: socket-level and per-core views live in one place.  The server
        #: itself stays shard-agnostic: its batched callables already route
        #: to the shards.
        self._shard_stats = shard_stats
        #: Same idea for the multi-node cluster tier: the router's
        #: per-node counter snapshot, provided by the cluster pool.
        self._node_stats = node_stats
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Serving table: read-mostly routing state, hot-swappable.
    # ------------------------------------------------------------------
    @property
    def table(self) -> ServingTable:
        """The currently installed serving table (immutable snapshot)."""
        return self._table

    def install_table(self, edge_fn: Optional[EdgeFn] = None, *,
                      batch_fns: Optional[Dict[str, BatchedEdgeFn]] = None,
                      selector: Optional[SelectorFn] = None) -> None:
        """Atomically replace the serving table (hot reload).

        The new table is validated exactly like the constructor arguments;
        on a validation error the old table stays installed untouched.  The
        swap is a single reference assignment, and every request reads the
        table exactly once, so a frame is always served — resolution,
        execution and statistics booking — by *one* table: either wholly the
        old one or wholly the new one, never a mixture.  Frames already
        queued in the micro-batcher resolve their callable at dispatch time,
        i.e. from the table installed when their batch executes.
        """
        self._table = _make_serving_table(edge_fn, selector, batch_fns)

    # ------------------------------------------------------------------
    def start(self) -> "EdgeServer":
        """Start serving (frontend accept loop / event loop in background)."""
        self._started_at = time.perf_counter()
        self._frontend.start()
        return self

    # ------------------------------------------------------------------
    # FrontendCore callbacks: the transport layer delivers connection
    # lifecycle events and decoded messages here.  These run on frontend
    # threads (handler threads or the event-loop thread) and must stay
    # cheap — compute is returned as a thunk for the frontend to place.
    # ------------------------------------------------------------------
    def connection_opened(self, conn: Connection) -> None:
        """A frontend accepted ``conn``; register its session."""
        with self._lock:
            session = ServingSession(session_id=self._next_session_id,
                                     peer=conn.peer,
                                     connected_at=time.perf_counter())
            self._next_session_id += 1
            self._sessions.append(session)
            self._conn_sessions[conn] = session

    def connection_message(self, conn: Connection,
                           message: Message) -> Optional[Callable[[], None]]:
        """A frontend decoded ``message`` on ``conn``.

        Returns ``None`` when the message was fully handled inline (hello
        acknowledgements, admission rejections, batcher enqueues) or a
        zero-argument thunk the frontend must run on a compute slot (the
        direct execution path) — keeping model execution off the event
        loop under the async frontend.
        """
        with self._lock:
            session = self._conn_sessions.get(conn)
            if session is None:
                return None  # closed concurrently; the frame has no home
            session.bytes_received += message.wire_bytes
        if message.kind == KIND_HELLO:
            self._handle_hello(conn, session, message)
            return None
        if message.kind == KIND_FRAME:
            return self._handle_frame(conn, session, message)
        # Unknown kinds are ignored: forward compatibility.
        return None

    def connection_closed(self, conn: Connection,
                          error: Optional[BaseException]) -> None:
        """``conn`` is gone (clean close, decode failure, or I/O error)."""
        with self._lock:
            session = self._conn_sessions.pop(conn, None)
            if session is None:
                return
            if error is not None:
                session.errors += 1
            session.closed_at = time.perf_counter()
            self._evict_old_sessions()

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(meta: Dict, table: ServingTable
                 ) -> Tuple[str, BatchedEdgeFn]:
        """Pick the entry for a frame from its metadata.

        ``table`` is the one serving-table snapshot the whole frame uses —
        callers read ``self._table`` once and pass it down, so a concurrent
        :meth:`install_table` can never hand a frame a half-swapped view.
        """
        name = meta.get("model")
        if (name is None and "conditions" in meta
                and table.selector is not None):
            # Per-frame dispatch only makes sense for frames that announce
            # conditions; anything else goes straight to the default.
            name = table.selector(meta)
        if name is None:
            name = table.default_name
        return name, _entry(table, name)

    def _handle_hello(self, conn: Connection, session: ServingSession,
                      message: Message) -> None:
        table = self._table
        ack_meta: Dict = {"server": f"{self.host}:{self.port}",
                          "models": table.model_names(),
                          "session_id": session.session_id}
        dispatch_failed = False
        if "conditions" in message.meta and table.selector is not None:
            # The client announced its runtime conditions: dispatch once per
            # connection and tell the device which entry to run.  A failing
            # or misconfigured dispatch must surface in the acknowledgement,
            # not hang the client waiting for one.
            try:
                name = table.selector(message.meta)
                if name is not None:
                    _entry(table, name)  # the check its frames will meet
                ack_meta["model"] = name
            except Exception as exc:
                dispatch_failed = True
                ack_meta["error"] = f"{type(exc).__name__}: {exc}"
                ack_meta["traceback"] = traceback.format_exc()
        # Reply in the framing the hello arrived in: a raw-framing client
        # gets raw replies, a zlib client zlib ones, from one listener.
        sent = conn.send_bytes(serialize_message(
            Message(kind=KIND_HELLO, meta=ack_meta,
                    wire_format=message.wire_format)))
        with self._lock:
            session.client_name = str(message.meta.get("client", ""))
            session.bytes_sent += sent
            if dispatch_failed:
                session.errors += 1

    def _handle_frame(self, conn: Connection, session: ServingSession,
                      message: Message) -> Optional[Callable[[], None]]:
        """Admit, route and enqueue one frame; return the compute thunk.

        Runs on the frontend's delivery thread and must not execute model
        code itself: the direct path comes back as a thunk (run inline by
        the threaded frontend, on the compute pool by the async one), the
        batched path hands the frame to a collector thread, and rejected
        frames are answered right here with a ``"rejected"`` reply.
        """
        request = _PendingRequest(conn=conn, session=session, message=message,
                                  enqueued_at=time.monotonic())
        table = self._table
        try:
            name, entry = self._resolve(message.meta, table)
        except Exception:  # unknown model / selector failure: per-frame error
            self._reply_error(request)
            return None
        # Admission control: shed *before* any queue or engine sees the
        # frame.  A Rejection is answered immediately — the client learns
        # within a round-trip instead of timing out.
        decision = self._scheduler.admit(session.session_id, message.meta)
        if isinstance(decision, Rejection):
            self._reply_rejected(request, decision.reason,
                                 decision.retry_after_ms)
            return None
        request.expires_at = decision.expires_at
        request.priority = decision.priority
        if self._batcher is not None:
            if not self._batcher.submit(name, request):
                # Batcher already stopped: the server is shutting down and
                # this connection is about to be torn down; drop the frame
                # (and its admission ticket).
                self._scheduler.release(session.session_id)
            return None

        def run_frame() -> None:
            if self._release([request]):
                self._run_frame(request, name, entry)

        return run_frame

    def _release(self, requests: List[_PendingRequest]
                 ) -> List[_PendingRequest]:
        """Frames leaving the queue for a compute slot: the still-fresh ones.

        The admission ticket is held for the queueing stage only (execution
        is bounded by the frontend's / batcher's own concurrency), so every
        frame is released here.  A frame whose deadline lapsed while it
        waited is shed instead of returned: executing it would waste engine
        time on an answer the device has already given up on.
        """
        now = time.monotonic()
        live: List[_PendingRequest] = []
        for request in requests:
            self._scheduler.release(request.session.session_id,
                                    queue_delay_s=now - request.enqueued_at)
            if self._scheduler.expired(request.expires_at, now):
                self._shed(request, REJECT_REASON_DEADLINE)
            else:
                live.append(request)
        return live

    def _shed(self, request: _PendingRequest, reason: str,
              batch_index: Optional[int] = None) -> None:
        """Book and answer a shed decided after admission (dispatch time)."""
        self._scheduler.record_shed(reason)
        self._reply_rejected(request, reason,
                             self._scheduler.policy.retry_after_ms,
                             batch_index=batch_index)

    def _run_frame(self, request: _PendingRequest, name: str,
                   entry: BatchedEdgeFn,
                   batch_index: Optional[int] = None) -> None:
        """Execute one frame through ``entry`` as a batch of one and reply.

        The one per-frame execution path: the direct path runs it with
        ``batch_index=None``, the batcher's per-frame fallback with the
        frame's position in its batch.  Three outcomes: a result, a shed
        signalled by the execution tier, or an error — which propagates to
        the client while the server keeps serving.
        """
        try:
            started = time.perf_counter()
            [(arrays, meta)] = _run_entry(
                entry, name, [(request.message.arrays, request.message.meta)])
            elapsed = time.perf_counter() - started
        except FrameExpiredError:
            self._shed(request, REJECT_REASON_DEADLINE, batch_index)
        except BackpressureError:
            # The execution tier (e.g. a saturated shard ring) pushed back
            # before accepting the frame; surface it as a clean rejection.
            self._shed(request, REJECT_REASON_CAPACITY, batch_index)
        except Exception:
            self._reply_error(request, batch_index=batch_index)
        else:
            self._reply_result(request, name, arrays, meta, elapsed,
                               batch_index=batch_index)

    def _dispatch_batch(self, name: str, requests: List[_PendingRequest]) -> bool:
        """Execute one micro-batch for zoo entry ``name`` and reply per frame.

        Called by the :class:`MicroBatcher` collector threads.  Every
        coalesced batch executes through the entry in one call — a 1-frame
        tail batch included, so ``batches_dispatched`` and the size
        histogram count exactly the batched engine calls — and each frame
        is charged an equal share of the elapsed time.  When that call
        fails, frames run one by one through :meth:`_run_frame`, so an
        error isolates to the one request that caused it instead of failing
        the whole batch.

        Returns ``False`` when the batched call failed and the batch fell
        back to per-frame execution, so the batcher can expose the
        degradation in its statistics.

        The serving table is read once for the whole batch, so every frame
        of the batch is served by exactly one table even when
        :meth:`install_table` swaps it concurrently.
        """
        requests = self._release(requests)
        if not requests:
            return True
        try:
            entry = _entry(self._table, name)
        except KeyError:
            # The entry vanished between enqueue and dispatch (a hot reload
            # shrank the table); each frame gets a clean per-frame error
            # instead of the whole batch dying unanswered.
            for index, request in enumerate(requests):
                self._reply_error(request, batch_index=index)
            return True
        started = time.perf_counter()
        try:
            results = _run_entry(entry, name,
                                 [(request.message.arrays,
                                   request.message.meta)
                                  for request in requests])
        except Exception:
            for index, request in enumerate(requests):
                self._run_frame(request, name, entry, index)
            return False
        share = (time.perf_counter() - started) / len(requests)
        for index, (request, (arrays, meta)) in enumerate(
                zip(requests, results)):
            self._reply_result(request, name, arrays, meta, share,
                               batch_index=index)
        return True

    def _reply_rejected(self, request: _PendingRequest, reason: str,
                        retry_after_ms: float,
                        batch_index: Optional[int] = None) -> None:
        """Answer a shed frame with a wire-level ``"rejected"`` message.

        The reply carries the shed reason and a retry hint so the device
        can back off deliberately instead of discovering the loss through
        its pipeline timeout.  Shed counting lives in the scheduler (the
        admission path books rejections itself; dispatch-time sheds call
        :meth:`Scheduler.record_shed`), so this method only speaks wire.
        """
        try:
            blob = serialize_message(Message(
                kind=KIND_REJECTED, frame_id=request.message.frame_id,
                meta={REJECT_REASON_META_KEY: reason,
                      RETRY_AFTER_MS_META_KEY: float(retry_after_ms)},
                batch_index=batch_index,
                wire_format=request.message.wire_format))
            sent = request.conn.send_bytes(blob)
        except OSError:
            return  # client already gone; nothing to roll back
        with self._lock:
            self._stats_target(request).bytes_sent += sent

    def _reply_result(self, request: _PendingRequest, name: str,
                      arrays: ArrayDict, meta: Dict, service_time_s: float,
                      batch_index: Optional[int] = None) -> None:
        try:
            # Serialization stays guarded: an edge callable returning
            # non-JSON-serializable metadata must come back as an "error"
            # message, not kill the replying thread.
            blob = serialize_message(Message(
                kind=KIND_RESULT, frame_id=request.message.frame_id,
                arrays=arrays, meta=meta, batch_index=batch_index,
                wire_format=request.message.wire_format))
        except Exception:
            self._reply_error(request, batch_index=batch_index)
            return
        # All session-counter mutations happen under the server lock so
        # stats() copies are consistent snapshots.  The frame is
        # booked *before* the socket write (and rolled back should the write
        # fail): the moment a client holds the result, the server's counters
        # must already include it — counting after the write let a stats()
        # call race ahead of the last increment.
        with self._lock:
            session = self._stats_target(request)
            session.bytes_sent += len(blob) + PAYLOAD_PREFIX_BYTES
            session.service_time_s += service_time_s
            session.frames += 1
            session.frames_by_model[name] += 1
        try:
            request.conn.send_bytes(blob)
        except OSError:
            # The client vanished between execution and reply; its handler
            # (or stop()) tears the connection down.  Un-book the frame that
            # never made it onto the wire (re-resolving the target: the
            # session — booked counts included — may have been folded into
            # the aggregate in between).
            with self._lock:
                session = self._stats_target(request)
                session.bytes_sent -= len(blob) + PAYLOAD_PREFIX_BYTES
                session.service_time_s -= service_time_s
                session.frames -= 1
                session.frames_by_model[name] -= 1
                session.errors += 1

    def _stats_target(self, request: _PendingRequest) -> ServingSession:
        """Where this request's counters live now (server lock held).

        Batcher threads may reply after the bounded session log evicted the
        request's session; its counts then live in the retired aggregate.
        """
        return self._retired if request.session.evicted else request.session

    def _reply_error(self, request: _PendingRequest,
                     batch_index: Optional[int] = None) -> None:
        """Reply with the currently handled exception (callers sit in except)."""
        exc = sys.exc_info()[1]
        with self._lock:
            # Count the failure before attempting the reply, so a dead
            # connection cannot make the error vanish from the stats.
            self._stats_target(request).errors += 1
        try:
            sent = request.conn.send_bytes(serialize_message(Message(
                kind=KIND_ERROR, frame_id=request.message.frame_id,
                # Worker-crash errors (ShardCrashedError, NodeCrashedError —
                # both ConnectionError subclasses) mean the frame was never
                # (completely) executed; frame execution is pure, so clients
                # with a RetryPolicy may safely re-submit.  Model-level
                # failures are deterministic and must not be retried.
                meta={"error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc(),
                      "retryable": isinstance(exc, ConnectionError)},
                batch_index=batch_index,
                wire_format=request.message.wire_format)))
        except OSError:
            return
        with self._lock:
            self._stats_target(request).bytes_sent += sent

    def _evict_old_sessions(self) -> None:
        """Fold the oldest closed sessions into the aggregate (lock held)."""
        while len(self._sessions) > self.config.session_log_limit:
            session = next((s for s in self._sessions if not s.active), None)
            if session is None:
                break
            self._sessions.remove(session)
            self._retired_count += 1
            retired = self._retired
            retired.frames += session.frames
            retired.errors += session.errors
            retired.bytes_received += session.bytes_received
            retired.bytes_sent += session.bytes_sent
            retired.service_time_s += session.service_time_s
            retired.frames_by_model.update(session.frames_by_model)
            # In-flight batcher replies for this session must hit the
            # aggregate from now on, or their frames would vanish from (or,
            # on a rollback, be double-subtracted out of) the statistics.
            session.evicted = True

    # ------------------------------------------------------------------
    @staticmethod
    def _copy_session(session: ServingSession) -> ServingSession:
        return replace(session, frames_by_model=Counter(session.frames_by_model))

    @property
    def frames_processed(self) -> int:
        """Total frames served across every connection so far."""
        with self._lock:
            return (self._retired.frames
                    + sum(session.frames for session in self._sessions))

    def stats(self) -> EdgeServerStats:
        """Aggregate serving statistics across all sessions ever served.

        The returned object is a true snapshot: the per-session entries are
        copies, safe to iterate while serving continues.
        """
        with self._lock:
            sessions = [self._copy_session(s) for s in self._sessions]
            retired = self._retired
            num_sessions = self._retired_count + len(sessions)
            frames = retired.frames + sum(s.frames for s in sessions)
            service = retired.service_time_s + sum(s.service_time_s for s in sessions)
            errors = retired.errors + sum(s.errors for s in sessions)
            bytes_in = retired.bytes_received + sum(s.bytes_received for s in sessions)
            bytes_out = retired.bytes_sent + sum(s.bytes_sent for s in sessions)
            by_model: "Counter[str]" = Counter(retired.frames_by_model)
            for session in sessions:
                by_model.update(session.frames_by_model)
        # The wall clock freezes at stop() so post-shutdown snapshots keep
        # reporting the throughput actually achieved while serving.
        end = self._stopped_at if self._stopped_at is not None else time.perf_counter()
        wall = end - self._started_at if self._started_at is not None else 0.0
        (batches, batched_frames, size_histogram, delay_total, fallback,
         queue_depth, queue_depth_peak) = (
            self._batcher.snapshot() if self._batcher is not None
            else (0, 0, {}, 0.0, 0, 0, 0))
        shards: List["ShardStats"] = (list(self._shard_stats())
                                      if self._shard_stats is not None else [])
        nodes: List["NodeStats"] = (list(self._node_stats())
                                    if self._node_stats is not None else [])
        sched = self._scheduler.snapshot()
        return EdgeServerStats(
            num_sessions=num_sessions,
            active_sessions=sum(s.active for s in sessions),
            frames_processed=frames,
            errors=errors,
            bytes_received=bytes_in,
            bytes_sent=bytes_out,
            mean_service_time_s=service / frames if frames else 0.0,
            frames_by_model=dict(by_model),
            wall_time_s=wall,
            sessions=sessions,
            batches_dispatched=batches,
            mean_batch_size=batched_frames / batches if batches else 0.0,
            batch_size_histogram=size_histogram,
            mean_queue_delay_s=delay_total / batched_frames if batched_frames else 0.0,
            batch_fallback_frames=fallback,
            queue_depth=queue_depth,
            queue_depth_peak=queue_depth_peak,
            frames_shed=sched.frames_shed,
            shed_by_reason=dict(sched.shed_by_reason),
            queue_delay_p50_s=sched.queue_delay_p50_s,
            queue_delay_p99_s=sched.queue_delay_p99_s,
            frontend=self.config.frontend,
            num_shards=len(shards),
            shards=shards,
            num_nodes=len(nodes),
            nodes=nodes)

    def stop(self) -> None:
        """Stop accepting, close live connections and release the listener."""
        if self._stopped_at is None:
            self._stopped_at = time.perf_counter()
        # Transport first (no new frames can arrive), batcher second (the
        # queued tail drains through _dispatch_batch as before).
        self._frontend.stop()
        if self._batcher is not None:
            self._batcher.stop()


#: The sender flushes its write buffer at this size even when more messages
#: are queued: a large frame goes out before its successors are compressed.
_SEND_FLUSH_BYTES = 64 * 1024


class _SendTally:
    """Framed bytes the sender stamped for one ``run_pipeline`` call."""

    __slots__ = ("bytes",)

    def __init__(self) -> None:
        self.bytes = 0


#: What the send queue carries: a message and the tally it is stamped into.
_Outgoing = Tuple[Message, _SendTally]


class DeviceClient:
    """Device-side runtime: executes the device segment and pipelines frames.

    The client owns two threads — a sender draining the outbound queue and a
    receiver filling the result queue — so device computation of frame
    ``t+1`` overlaps with the transfer and edge computation of frame ``t``.

    On connect the client sends a ``"hello"`` handshake carrying its name
    and, when given, its :class:`~repro.core.dispatcher.RuntimeConditions`
    as a plain dict; a dispatching server answers with the zoo entry chosen
    for those conditions (see :meth:`handshake` / :attr:`assigned_model`).

    Write policy
    ------------
    The socket runs with Nagle off (:func:`~repro.system.messages.
    disable_nagle`), and the sender writes as few times as the queue allows:
    it frames the message it dequeued, keeps framing while more are already
    queued, and issues one ``sendall`` as soon as the queue is momentarily
    empty or the buffer reaches 64 KiB.  A pipelined window of small frames
    therefore leaves as one or two writes; a frame is never held back for
    one that is not queued yet, and a large frame is on the wire before the
    next one's compression pass starts.  The byte stream is the same
    length-prefixed messages in the same order as one write per message.

    Knobs
    -----
    ``config`` (:class:`~repro.system.knobs.ClientConfig`) carries the wire
    framing and dtype, the connect / handshake / pipeline timeouts, the
    QoS tags stamped on every frame, ``on_rejected`` and the retry policy;
    each knob's effect is in the generated reference of ``docs/serving.md``.

    Resilience
    ----------
    ``config.retry`` turns transient failures into bounded,
    jittered-backoff re-submissions inside :meth:`run_pipeline`:

    * a ``"rejected"`` reply is retried after
      ``max(policy backoff, server retry_after_ms)`` — the server's hint
      is a floor, never ignored;
    * an ``"error"`` reply the server marked ``retryable`` (a worker
      crashed mid-frame: ``ShardCrashedError`` / ``NodeCrashedError``) is
      re-submitted, because frame execution is *pure* — device and edge
      callables are deterministic functions of the frame payload with no
      hidden state, so re-executing a frame that never produced a result
      is observably identical to executing it once (pinned by
      ``tests/test_serving_retry.py``);
    * retries are deadline-aware: with ``deadline_ms`` set, no retry is
      scheduled that would land past the frame's freshness budget — the
      frame fails with its original typed error instead.

    Retries apply only under ``on_rejected="raise"``; ``"drop"`` keeps
    its shed-and-move-on semantics untouched.
    """

    def __init__(self, host: str, port: int,
                 config: ClientConfig = ClientConfig(), *,
                 client_name: str = "", conditions: Optional[Dict] = None,
                 model: Optional[str] = None) -> None:
        self.config = config
        self._sock = socket.create_connection(
            (host, port), timeout=config.connect_timeout_s)
        # The timeout only guards connection establishment; receives must
        # block indefinitely or an idle-but-healthy connection would be
        # misreported as disconnected by the receiver loop.
        self._sock.settimeout(None)
        disable_nagle(self._sock)
        self.client_name = client_name
        self._conditions = dict(conditions) if conditions else None
        self._model = model
        self._send_queue: "queue.Queue[Optional[_Outgoing]]" = queue.Queue()
        self._results: "queue.Queue[Message]" = queue.Queue()
        self._hello_meta: Optional[Dict] = None
        self._hello_event = threading.Event()
        self._disconnect_reason: Optional[str] = None
        #: Connection-global frame counter: wire frame ids never repeat, so
        #: leftovers of a run aborted by an edge error are recognizably stale
        #: and cannot be mistaken for results of a later run_pipeline call.
        self._next_frame_id = 0
        #: Connection totals (hello included); a run's own traffic is in
        #: its :class:`PipelineStats`.
        self.bytes_sent = 0
        self.bytes_received = 0
        self._sender = threading.Thread(target=self._send_loop, daemon=True)
        self._receiver = threading.Thread(target=self._recv_loop, daemon=True)
        self._sender.start()
        self._receiver.start()
        hello_meta: Dict = {"client": client_name}
        if self._conditions is not None:
            hello_meta["conditions"] = self._conditions
        self._send_queue.put((Message(kind=KIND_HELLO, meta=hello_meta,
                                      wire_format=config.wire_format),
                              _SendTally()))

    # ------------------------------------------------------------------
    def _send_loop(self) -> None:
        # One window per call: a written window's buffers are released
        # before the sender blocks for the next message.
        while self._send_window(self._send_queue.get()):
            pass
        try:
            send_message(self._sock, Message(
                kind=KIND_STOP, wire_format=self.config.wire_format))
        except OSError:
            pass

    def _send_window(self, item: Optional[_Outgoing]) -> bool:
        """Frame ``item`` and what is already queued behind it — never
        waiting for what is not — and write them as one buffer.  False once
        the sender must stop: close marker, un-encodable message, dead
        socket."""
        window: List[bytes] = []
        size = 0
        draining = True
        while True:
            if item is None:
                draining = False
                break
            message, tally = item
            try:
                framed = _prefixed(serialize_message(message))
            except Exception as exc:
                # Un-encodable outgoing metadata (e.g. non-JSON values in a
                # frame's meta) would otherwise kill this thread silently
                # and leave run_pipeline waiting out its entire timeout.
                self._disconnect("failed to serialize an outgoing message: "
                                 "%s: %s" % (type(exc).__name__, exc))
                draining = False
                break
            # Stamped before the write: whoever sees this message's reply
            # also sees its bytes counted.
            tally.bytes += len(framed)
            self.bytes_sent += len(framed)
            window.append(framed)
            size += len(framed)
            if size >= _SEND_FLUSH_BYTES:
                break
            try:
                item = self._send_queue.get_nowait()
            except queue.Empty:
                break
        try:
            if window:
                self._sock.sendall(b"".join(window))
        except OSError:
            # The receiver loop surfaces the lost connection to waiting
            # callers; the sender just stops draining the queue.
            return False
        return draining

    def _recv_loop(self) -> None:
        while True:
            try:
                message = recv_message(self._sock)
            except OSError as exc:
                self._disconnect("%s: %s" % (type(exc).__name__, exc))
                break
            except Exception as exc:
                # A frame that fails to decode means the stream is desynced
                # or corrupted — unrecoverable for a length-prefixed protocol.
                self._disconnect("malformed message from the edge server: "
                                 "%s: %s" % (type(exc).__name__, exc))
                break
            if message is None:
                self._disconnect("peer closed the connection")
                break
            self.bytes_received += message.wire_bytes
            if message.kind == KIND_HELLO:
                self._hello_meta = message.meta
                self._hello_event.set()
                continue
            self._results.put(message)

    def _disconnect(self, reason: str) -> None:
        """Surface a lost connection to both handshake() and run_pipeline().

        Without the sentinel and the event, either would sleep out its full
        timeout and raise an uninformative TimeoutError.
        """
        self._disconnect_reason = reason
        self._results.put(Message(kind=_KIND_DISCONNECT, meta={"error": reason}))
        self._hello_event.set()

    # ------------------------------------------------------------------
    def handshake(self, timeout_s: Optional[float] = None) -> Dict:
        """Server metadata from the hello acknowledgement (blocks until it
        arrives, at most ``timeout_s`` — ``config.handshake_timeout_s`` when
        ``None``).

        Raises :class:`RuntimeError` when the server reports that dispatching
        for the announced conditions failed.
        """
        if timeout_s is None:
            timeout_s = self.config.handshake_timeout_s
        if not self._hello_event.wait(timeout=timeout_s):
            raise TimeoutError("edge server did not acknowledge the hello handshake")
        if self._hello_meta is None:
            raise ConnectionError(
                "connection to the edge server was lost before the hello "
                f"acknowledgement: {self._disconnect_reason or 'unknown'}")
        meta = dict(self._hello_meta)
        if "error" in meta:
            raise RuntimeError(
                f"edge server could not dispatch for the announced conditions: "
                f"{meta['error']}\n--- remote traceback ---\n"
                f"{meta.get('traceback', '')}")
        return meta

    @property
    def assigned_model(self) -> Optional[str]:
        """Zoo entry the server's dispatcher chose for this client, if any."""
        return self.handshake().get("model")

    def _cast_for_wire(self, arrays: ArrayDict) -> ArrayDict:
        """Down-cast float arrays to ``config.wire_dtype`` before framing.

        Integer arrays (batch vectors, edge indices) keep their dtype; float
        arrays already in the target dtype pass through untouched.
        """
        wire_dtype = self.config.wire_dtype
        cast: ArrayDict = {}
        for name, array in arrays.items():
            array = np.asarray(array)
            if (np.issubdtype(array.dtype, np.floating)
                    and array.dtype != wire_dtype):
                array = array.astype(wire_dtype)
            cast[name] = array
        return cast

    # ------------------------------------------------------------------
    def run_pipeline(self, frames: Sequence[object], device_fn: DeviceFn,
                     timeout_s: Optional[float] = None
                     ) -> Tuple[List[FrameResult], PipelineStats]:
        """Process ``frames`` through the device segment, the link and the edge.

        Returns per-frame results plus aggregate pipeline statistics.  An
        edge-side failure surfaces as a :class:`RuntimeError` carrying the
        remote traceback.  ``timeout_s`` (``config.pipeline_timeout_s`` when
        ``None``) bounds the wait for results.
        """
        config = self.config
        if timeout_s is None:
            timeout_s = config.pipeline_timeout_s
        if self._disconnect_reason is not None:
            raise ConnectionError(
                "connection to the edge server was already lost: "
                f"{self._disconnect_reason}")
        model = self._model
        if model is None and self._conditions is not None:
            # The server dispatched a zoo entry for our conditions; tag the
            # frames so per-request resolution matches the handshake.
            model = self.handshake(timeout_s=timeout_s).get("model")
        submitted: Dict[int, float] = {}
        base_id = self._next_frame_id
        self._next_frame_id += len(frames)
        policy = config.retry
        # Retries only under on_rejected="raise": "drop" keeps its
        # shed-and-move-on semantics (a stale live-stream frame is best
        # replaced by the next one, not replayed).
        retrying = policy.enabled and config.on_rejected == "raise"
        #: frame_id -> ready-to-send Message, kept only while a retry may
        #: still need to re-submit it (re-serialization is pure).
        payloads: Dict[int, Message] = {}
        #: frame_id -> re-submissions performed so far (absent means 0).
        attempts: Dict[int, int] = {}
        #: Min-heap of (due_monotonic, frame_id) re-submissions waiting out
        #: their backoff delay.  frame_ids are unique, so heap ties never
        #: compare beyond the second element.
        due: List[Tuple[float, int]] = []
        # Byte counters are per-connection; report this run's traffic only:
        # the sender stamps each of this run's frame messages, re-submissions
        # included, into ``tally`` before writing it, so the sum is exact
        # once the last reply is in.
        tally = _SendTally()
        received_before = self.bytes_received
        start = time.perf_counter()
        for offset, frame in enumerate(frames):
            # Latency is measured from the moment the frame enters the device
            # segment, so device compute counts toward the frame latency.
            submitted[base_id + offset] = time.perf_counter()
            arrays, meta = device_fn(frame)
            if config.wire_dtype is not None:
                arrays = self._cast_for_wire(arrays)
            meta = dict(meta)
            if model is not None:
                meta.setdefault("model", model)
            elif self._conditions is not None:
                # Only un-dispatched frames need the conditions on the wire
                # (per-frame dispatch); a resolved model short-circuits them.
                meta.setdefault("conditions", self._conditions)
            if config.deadline_ms is not None:
                meta.setdefault(DEADLINE_MS_META_KEY, config.deadline_ms)
            if config.priority is not None:
                meta.setdefault(PRIORITY_META_KEY, config.priority)
            message = Message(kind=KIND_FRAME, frame_id=base_id + offset,
                              arrays=arrays, meta=meta,
                              wire_format=config.wire_format)
            if retrying:
                payloads[base_id + offset] = message
            self._send_queue.put((message, tally))

        def schedule_retry(frame_id: int, floor_ms: float) -> bool:
            """Queue a re-submission of ``frame_id``; False = budget spent.

            The delay honors the server's ``retry_after_ms`` as a floor and
            the frame's ``deadline_ms`` as a ceiling: a retry that would
            land after the freshness budget lapsed could only be shed again
            (reason ``"deadline"``), so the frame fails *now* with the
            error that exhausted its budget.
            """
            attempt = attempts.get(frame_id, 0) + 1
            if attempt > policy.max_retries:
                return False
            delay_s = policy.delay_ms(attempt, floor_ms=floor_ms) / 1e3
            now = time.monotonic()
            if now + delay_s >= deadline:
                return False  # would outlive the pipeline timeout
            if config.deadline_ms is not None:
                elapsed_ms = (time.perf_counter()
                              - submitted[frame_id]) * 1e3
                if elapsed_ms + delay_s * 1e3 > config.deadline_ms:
                    return False  # would outlive the frame's deadline
            attempts[frame_id] = attempt
            heapq.heappush(due, (now + delay_s, frame_id))
            return True

        results: List[FrameResult] = []
        rejected = 0
        # timeout_s bounds the wait for results (as it always has; device
        # compute above is not counted against it) and, separately, the
        # handshake wait — each phase gets at most timeout_s, not their sum.
        deadline = time.monotonic() + timeout_s
        while len(results) + rejected < len(frames):
            now = time.monotonic()
            while due and due[0][0] <= now:
                _, frame_id = heapq.heappop(due)
                self._send_queue.put((payloads[frame_id], tally))
            remaining = deadline - now
            if remaining <= 0:
                raise TimeoutError("co-inference pipeline timed out waiting for results")
            if due:
                # Wake up for the next due re-submission even if no reply
                # arrives in the meantime.
                remaining = min(remaining, max(due[0][0] - now, 0.0))
            try:
                message = self._results.get(timeout=remaining)
            except queue.Empty:
                continue  # re-check the deadline and the due re-submissions
            if message.kind == _KIND_DISCONNECT:
                raise ConnectionError(
                    "connection to the edge server was lost with "
                    f"{len(frames) - len(results) - rejected} frame(s) "
                    f"outstanding: {message.meta.get('error', 'peer closed')}")
            if message.frame_id not in submitted:
                continue  # stale leftover of an earlier, aborted run
            if message.kind == KIND_ERROR:
                detail = message.meta.get("error", "unknown edge failure")
                remote_tb = message.meta.get("traceback", "")
                if (retrying and policy.retry_connection_errors
                        and message.meta.get("retryable")
                        and schedule_retry(message.frame_id, floor_ms=0.0)):
                    # A worker died mid-frame; execution is pure, so the
                    # re-submission is observably identical to a first run.
                    continue
                raise RuntimeError(
                    f"edge execution failed for frame "
                    f"{message.frame_id - base_id}: {detail}\n"
                    f"--- remote traceback ---\n{remote_tb}")
            if message.kind == KIND_REJECTED:
                # The server shed the frame (queue full, deadline lapsed,
                # fairness): a deliberate, typed signal — not an error.
                reason = str(message.meta.get(REJECT_REASON_META_KEY,
                                              "capacity"))
                retry = float(message.meta.get(RETRY_AFTER_MS_META_KEY, 0.0))
                if config.on_rejected == "raise":
                    if retrying and schedule_retry(message.frame_id,
                                                   floor_ms=retry):
                        continue
                    # Budget exhausted: the original typed error, not a
                    # retry-specific wrapper — callers keep matching on
                    # RequestRejectedError exactly as without a policy.
                    raise RequestRejectedError(message.frame_id - base_id,
                                               reason, retry)
                rejected += 1
                continue
            payloads.pop(message.frame_id, None)
            results.append(FrameResult(
                frame_id=message.frame_id - base_id, arrays=message.arrays,
                meta=message.meta, submitted_at=submitted[message.frame_id],
                completed_at=time.perf_counter(),
                batch_index=message.batch_index))
        wall = time.perf_counter() - start
        results.sort(key=lambda r: r.frame_id)
        histogram = Counter(attempts.values())
        stats = PipelineStats(
            num_frames=len(frames), wall_time_s=wall,
            mean_latency_s=float(np.mean([r.latency_s for r in results])) if results else 0.0,
            bytes_sent=tally.bytes,
            bytes_received=self.bytes_received - received_before,
            frames_rejected=rejected,
            frames_retried=len(attempts),
            retry_histogram=dict(histogram))
        return results, stats

    def close(self) -> None:
        """Flush the stop marker and close the connection."""
        self._send_queue.put(None)
        self._sender.join(timeout=5.0)
        try:
            # Both halves: SHUT_WR flushes the stop marker to the server,
            # and shutting the read half wakes a receiver blocked in recv
            # against an unresponsive server (the socket has no read timeout).
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._receiver.join(timeout=5.0)
        self._sock.close()


def run_co_inference(frames: Sequence[object], device_fn: DeviceFn, edge_fn: EdgeFn,
                     timeout_s: Optional[float] = None
                     ) -> Tuple[List[FrameResult], PipelineStats]:
    """Convenience wrapper: spin up a loopback edge server, pipeline all frames.

    This is the one-call entry point used by the examples and tests; the edge
    server and device client are torn down before returning.
    """
    server = EdgeServer(edge_fn).start()
    client = DeviceClient(server.host, server.port)
    try:
        return client.run_pipeline(frames, device_fn, timeout_s=timeout_s)
    finally:
        client.close()
        server.stop()
