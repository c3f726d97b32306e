"""Closed-loop load generator: cold starts, byte census, timed phases.

One load-generator process, one thread and one connection per client, the
server in the same process (as the public ``serve()`` quickstart does).  A
client sends its next window only after the previous one completed.  Nothing
here aborts a run: a window that raises is counted — every frame of it — as
attempted and failed, the client reconnects and carries on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import ServingApp, build_zoo_callables, serve

from workloads import ENTRY, IN_DIM, MODEL_SEED, NUM_CLASSES, Workload

#: Largest |logit - reference| a reply may show and still count as correct.
TOLERANCE = 1e-9
#: What a window may raise without ending its client: RuntimeError covers an
#: edge-side failure and RequestRejectedError, OSError covers ConnectionError
#: and TimeoutError.
WINDOW_ERRORS = (RuntimeError, OSError)
MAX_ERROR_SAMPLES = 5


def reference_logits(workload: Workload, frames: Sequence) -> List[np.ndarray]:
    """Expected logits per pool frame from callables the server never sees."""
    ref = build_zoo_callables(workload.zoo(), in_dim=IN_DIM,
                              num_classes=NUM_CLASSES, seed=MODEL_SEED)[ENTRY]
    return [np.array(ref.edge_fn(*ref.device_fn(frame))[0]["logits"])
            for frame in frames]


def reply_correct(result, expected: np.ndarray) -> bool:
    logits = result.arrays.get("logits")
    return (logits is not None and logits.shape == expected.shape
            and float(np.max(np.abs(logits - expected))) <= TOLERANCE)


def cold_start(workload: Workload, frame, expected: np.ndarray
               ) -> Tuple[ServingApp, float]:
    """``serve()`` to the first verified reply; returns the app and seconds.

    Covers plan compile, shard spawn, connect, handshake and one frame.  The
    app is stopped before an error leaves this function.
    """
    start = time.perf_counter()
    app = serve(workload.zoo(), workload.serving, in_dim=IN_DIM,
                num_classes=NUM_CLASSES, seed=MODEL_SEED)
    try:
        with app.client(model=ENTRY, name="setup",
                        config=workload.client) as client:
            client.handshake()
            results, _ = client.run([frame])
        elapsed = time.perf_counter() - start
        if not reply_correct(results[0], expected):
            raise RuntimeError("first reply does not match the reference")
    except BaseException:
        app.stop()
        raise
    return app, elapsed


def uplink_census(app: ServingApp, workload: Workload, frames: Sequence,
                  expected: Sequence[np.ndarray]) -> float:
    """Uplink bytes per frame over one cycle of the pool on a fresh connection.

    A fresh connection numbers its frames from 0, so the framed headers — and
    with them ``PipelineStats.bytes_sent`` — are the same on every run of a
    seed; the timed phases, whose frame ids depend on how many frames the
    warm-up managed, could not promise that.  One window is sent first and
    not counted: the client adds the hello's bytes to its counter after the
    socket write, which can be after the server acknowledged it, and the
    first ``run()`` on a connection then reports them as its own.
    """
    sent = 0
    with app.client(model=ENTRY, name="census",
                    config=workload.client) as client:
        client.handshake()
        client.run([frames[0]] * workload.window)
        for start in range(0, len(frames), workload.window):
            indices = range(start, min(start + workload.window, len(frames)))
            results, stats = client.run([frames[i] for i in indices])
            for result, index in zip(results, indices):
                if not reply_correct(result, expected[index]):
                    raise RuntimeError(f"census reply {index} is wrong")
            sent += stats.bytes_sent
    return sent / len(frames)


@dataclass
class Phase:
    name: str
    seconds: float
    #: Traced phases wrap ``device_fn`` in a timer and record spans.
    traced: bool = False


@dataclass
class PhaseResult:
    name: str
    seconds: float
    traced: bool
    elapsed_s: float = 0.0
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    retried: int = 0
    #: ``(completed_at - phase start, latency_ms)`` per correct frame.
    samples: List[Tuple[float, float]] = field(default_factory=list)
    device_ms: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    #: The first few failures in full, so a failed run says what failed.
    error_samples: List[str] = field(default_factory=list)
    stats_before: object = None
    stats_after: object = None

    @property
    def fps(self) -> float:
        return self.succeeded / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latencies_ms(self) -> List[float]:
        return [latency for _, latency in self.samples]

    def accounting(self) -> Dict:
        return {"attempted": self.attempted, "succeeded": self.succeeded,
                "failed": self.failed, "retried": self.retried,
                "errors": dict(self.errors),
                "error_samples": list(self.error_samples)}


class _Client(threading.Thread):
    """One closed-loop client: connect, then run every phase to its deadline."""

    def __init__(self, index: int, app: ServingApp, workload: Workload,
                 frames: Sequence, expected: Sequence[np.ndarray],
                 order: List[int], phases: Sequence[Phase],
                 results: List[PhaseResult], barrier: threading.Barrier,
                 starts: List[float], lock: threading.Lock, tracer) -> None:
        super().__init__(name=f"e2e-client-{index}", daemon=True)
        self.index, self.app, self.workload = index, app, workload
        self.frames, self.expected, self.order = frames, expected, order
        self.phases, self.results = phases, results
        self.barrier, self.starts, self.lock = barrier, starts, lock
        self.tracer = tracer
        self.client = None
        self.position = 0

    def _connect(self) -> None:
        self.client = self.app.client(model=ENTRY,
                                      name=f"e2e-{self.index}",
                                      config=self.workload.client).start()

    def _drop(self) -> None:
        client, self.client = self.client, None
        if client is not None:
            try:
                client.stop()
            except OSError:
                pass

    def run(self) -> None:
        try:
            for number, phase in enumerate(self.phases):
                self.barrier.wait()
                self._run_phase(phase, self.results[number],
                                self.starts[number])
                self.barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException:
            self.barrier.abort()
            raise
        finally:
            self._drop()

    def _run_phase(self, phase: Phase, out: PhaseResult, start: float) -> None:
        deadline = start + phase.seconds
        device_fn = None
        device_spans: List[Tuple[float, float]] = []
        if phase.traced:
            inner = self.app.repository.device_fn(ENTRY)

            def device_fn(frame):
                begin = time.perf_counter()
                state = inner(frame)
                device_spans.append((begin, time.perf_counter()))
                return state

        window = self.workload.window
        while time.perf_counter() < deadline:
            indices = [self.order[(self.position + i) % len(self.order)]
                       for i in range(window)]
            self.position += window
            device_spans.clear()
            began = time.perf_counter()
            try:
                if self.client is None:
                    self._connect()
                results, stats = self.client.run(
                    [self.frames[i] for i in indices], device_fn)
            except WINDOW_ERRORS as exc:
                self._drop()
                with self.lock:
                    out.attempted += window
                    out.failed += window
                    kind = type(exc).__name__
                    out.errors[kind] = out.errors.get(kind, 0) + 1
                    if len(out.error_samples) < MAX_ERROR_SAMPLES:
                        out.error_samples.append(f"{kind}: {exc}"[:500])
                time.sleep(0.05)  # a dead server must not spin this loop
                continue
            ended = time.perf_counter()
            good = [(result, index) for result, index in zip(results, indices)
                    if reply_correct(result, self.expected[index])]
            with self.lock:
                out.attempted += window
                out.succeeded += len(good)
                out.failed += window - len(good)
                out.retried += stats.frames_retried
                if len(good) < window:
                    out.errors["mismatch"] = (out.errors.get("mismatch", 0)
                                              + window - len(good))
                out.samples.extend((result.completed_at - start,
                                    result.latency_s * 1e3)
                                   for result, _ in good)
                out.device_ms.extend((end - begin) * 1e3
                                     for begin, end in device_spans)
            if phase.traced:
                run_span = self.tracer.add("serving.client.run", began, ended,
                                           frame=indices[0])
                # device_fn ran once per frame, in frame order.
                for result, index, (begin, end) in zip(results, indices,
                                                       device_spans):
                    frame_span = self.tracer.add(
                        "frame", result.submitted_at, result.completed_at,
                        parent=run_span, frame=index)
                    self.tracer.add("core.executor.device_fn", begin, end,
                                    parent=frame_span, frame=index)


def run_phases(app: ServingApp, workload: Workload, frames: Sequence,
               expected: Sequence[np.ndarray], orders: Sequence[List[int]],
               phases: Sequence[Phase], tracer=None,
               between: Optional[Callable[[int], None]] = None
               ) -> List[PhaseResult]:
    """Run ``phases`` back to back on one set of persistent connections.

    The connections persist because the server keeps one buffer arena per
    handler thread: a phase on fresh connections would time arena faults, not
    steady state.  ``app.stats()`` is snapshotted around every phase so
    server-side counters can be diffed; ``between(n)`` runs before phase ``n``
    while all clients are parked.
    """
    results = [PhaseResult(p.name, p.seconds, p.traced) for p in phases]
    starts = [0.0] * len(phases)
    barrier = threading.Barrier(len(orders) + 1)
    lock = threading.Lock()
    clients = [_Client(i, app, workload, frames, expected, order, phases,
                       results, barrier, starts, lock, tracer)
               for i, order in enumerate(orders)]
    for client in clients:
        client.start()
    try:
        for number, phase in enumerate(phases):
            if between is not None:
                between(number)
            results[number].stats_before = app.stats()
            starts[number] = time.perf_counter()
            barrier.wait()
            # A window in flight at the deadline completes and counts, so
            # the phase lasts until the last client parks again.
            barrier.wait(timeout=phase.seconds + 120.0)
            results[number].elapsed_s = time.perf_counter() - starts[number]
            results[number].stats_after = app.stats()
    except threading.BrokenBarrierError:
        raise RuntimeError("a load-generator client thread died") from None
    finally:
        barrier.abort()
        for client in clients:
            client.join(timeout=30.0)
    return results
