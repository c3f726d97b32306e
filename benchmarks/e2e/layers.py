"""Per-layer measurements, all taken from outside the program.

Spans come from this file's own timers around calls into public functions
(tracing inside the program is a later change): a serial walk of one frame's
life over the workload's own frames, direct microbenches of each layer, and
server counters diffed across the live window.  Spans stay in memory and are
written once, when the pass ends.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core import ArchitectureModel, collate_arrays, split_results
from repro.runtime import compile_plan
from repro.runtime.kernels import knn_edges_uniform
from repro.runtime.shard import ShmRing, shm_available
from repro.serving import ModelRepository, ShardPool, build_zoo_callables
from repro.system import (DeviceClient, EdgeServer, Message, Scheduler,
                          deserialize_message, serialize_message)
from repro.system.messages import KIND_FRAME, KIND_RESULT, WIRE_FORMAT_RAW

from loadgen import TOLERANCE, WINDOW_ERRORS, PhaseResult
from steady import MIN_SLICE_SAMPLES, SLICE_S, steady
from workloads import ENTRY, IN_DIM, MODEL_SEED, NUM_CLASSES, Workload

BATCH = 8
#: Plan step class -> the span it is booked under.  Matched by class name so
#: the harness imports nothing private; a step this table does not know fails
#: the traced pass (``step_observer``) instead of reading 0.0 in a metric.
STEP_SPANS = {"_SampleStep": "sample", "_AggregateStep": "aggregate",
              "_LinearStep": "linear", "_ReluStep": "linear",
              "_GlobalPoolStep": "pool", "_EnsurePooledStep": "pool"}
STEP_KINDS = ("sample", "aggregate", "linear", "pool")
#: Walked frames whose shard hop may fail before the walk itself fails: at one
#: per 50 ms, two seconds with no shard up (a respawn takes 0.6 s).
MAX_HOP_FAILURES = 40


class HopFailed(Exception):
    """The shard hop of a walked frame raised: a worker died under it."""


class Tracer:
    """In-memory span store: ``{id, name, start, end, parent, frame}``.

    Times are seconds since the tracer was made.  ``add`` is safe from several
    threads (ids come from ``itertools.count``, appends are atomic).
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []
        self._ids = itertools.count()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, frame: Optional[int] = None) -> int:
        span_id = next(self._ids)
        self.spans.append({"id": span_id, "name": name,
                           "start": start - self.origin,
                           "end": end - self.origin,
                           "parent": parent, "frame": frame})
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             frame: Optional[int] = None):
        span_id = next(self._ids)
        record = {"id": span_id, "name": name, "start": 0.0, "end": 0.0,
                  "parent": parent, "frame": frame}
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            record["start"] = start - self.origin
            record["end"] = time.perf_counter() - self.origin
            self.spans.append(record)

    def step_observer(self, parent: int, frame: Optional[int]) -> Callable:
        """A ``PlanSegment.execute(observer=...)`` callback recording one span
        per plan step, from the previous step's end to this one's."""
        last = [time.perf_counter()]

        def observer(step, run) -> None:
            now = time.perf_counter()
            kind = STEP_SPANS.get(type(step).__name__)
            if kind is None:
                raise RuntimeError(
                    f"plan step {type(step).__name__} is not in STEP_SPANS: "
                    "name the runtime.plan.* metric it is booked under")
            self.add(f"runtime.plan.{kind}", last[0], now, parent, frame)
            last[0] = time.perf_counter()

        return observer


def layer_of(name: str) -> str:
    """``runtime.plan.sample`` -> ``runtime.plan`` (a layer is a module)."""
    return ".".join(name.split(".")[:2])


def self_times_ms(spans: Iterable[Dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    spans = list(spans)
    own = {s["id"]: (s["end"] - s["start"]) * 1e3 for s in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= (span["end"] - span["start"]) * 1e3
    return own


def timed_loop(fn: Callable[[], object], budget_s: float, warm: int = 3,
               min_iters: int = 3, max_iters: int = 200000) -> List[float]:
    """Call ``fn`` until the budget is spent; milliseconds per call.

    ``warm`` untimed calls come first: a plan's first executions allocate its
    arena, which is set-up cost, not the steady state a layer metric reports.
    """
    for _ in range(warm):
        fn()
    out: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(out) < min_iters or (time.perf_counter() < deadline
                                   and len(out) < max_iters):
        start = time.perf_counter()
        fn()
        out.append((time.perf_counter() - start) * 1e3)
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class LayerBench:
    """Everything the serial walk and the microbenches share for one workload."""

    def __init__(self, workload: Workload, frames: Sequence,
                 expected: Sequence[np.ndarray], tracer: Tracer,
                 shard_pool=None) -> None:
        self.workload, self.frames, self.expected = workload, frames, expected
        self.tracer = tracer
        #: The pool's routing callable for the entry (None = served in process);
        #: resolved once, so the walk's hop span times the hop alone.
        self.hop = (shard_pool.edge_fns()[ENTRY] if shard_pool is not None
                    else None)
        self.zoo = workload.zoo()
        self.ref = build_zoo_callables(self.zoo, in_dim=IN_DIM,
                                       num_classes=NUM_CLASSES,
                                       seed=MODEL_SEED)[ENTRY]
        self.model = ArchitectureModel(self.zoo.get(ENTRY).architecture,
                                       in_dim=IN_DIM, num_classes=NUM_CLASSES,
                                       seed=MODEL_SEED)
        # The two plans serve() builds per entry: per-frame and batched.
        self.plan = compile_plan(self.model, segments=("device", "edge"))
        self.batch_plan = compile_plan(self.model, segments=("edge",))
        self.batched = workload.serving.batching.max_batch_size > 1
        #: Device outputs of every pool frame: the real request payloads.
        self.states = [self.ref.device_fn(frame) for frame in frames]
        self.scheduler = Scheduler()
        self.cursor = itertools.cycle(range(len(frames)))

    # -- the serial walk ------------------------------------------------
    def _observed(self, segment, name: str, parent: int, frame: int,
                  x, batch, num_graphs, edge_index, pos, pooled):
        """Run one plan segment inside a span with a child span per step."""
        with self.tracer.span(name, parent, frame) as span:
            run = segment.execute(
                x, batch, num_graphs, edge_index=edge_index, pos=pos,
                pooled=pooled, observer=self.tracer.step_observer(span, frame))
            run.x = np.array(run.x)  # out of the arena, as execute_out does
        return run

    def _edge_observed(self, segment, name, parent, frame, arrays, meta):
        return self._observed(
            segment, name, parent, frame, arrays["x"], arrays["batch"],
            int(meta["num_graphs"]), arrays.get("edge_index"),
            arrays.get("pos"), bool(meta.get("pooled", False)))

    def walk_frame(self, index: int) -> None:
        """One frame through every serial stage of its life.

        ``device_fn -> Message + serialize -> deserialize -> Scheduler.admit
        -> [collate] -> edge plan | batched plan | shard hop -> [split] ->
        serialize reply -> deserialize reply``, each a child span of the
        frame's root.  The logits are checked against the reference, so the
        walk cannot drift from what the served callables compute.
        """
        frame, tracer = self.frames[index], self.tracer
        wire_format = self.workload.client.wire_format
        with tracer.span("frame", frame=index) as root:
            run = self._observed(
                self.plan.device, "core.executor.device_fn", root, index,
                frame.x, frame.batch, frame.num_graphs, frame.edge_index,
                frame.pos, False)
            arrays = {"x": run.x, "batch": run.batch}
            if run.edge_index is not None:
                arrays["edge_index"] = run.edge_index
            if run.pos is not None:
                arrays["pos"] = run.pos
            meta = {"num_graphs": run.num_graphs, "pooled": run.pooled,
                    "finished": False, "model": ENTRY}
            with tracer.span("system.messages.request_serialize", root, index):
                blob = serialize_message(Message(
                    kind=KIND_FRAME, frame_id=index, arrays=arrays, meta=meta,
                    wire_format=wire_format))
            with tracer.span("system.messages.request_deserialize", root,
                             index):
                request = deserialize_message(blob)
            with tracer.span("system.scheduler.admit_release", root, index):
                self.scheduler.admit("walk", request.meta)
                self.scheduler.release("walk", 0.0)
            if self.hop is not None:
                try:
                    with tracer.span("serving.sharding.request_frame", root,
                                     index):
                        result, result_meta = self.hop(request.arrays,
                                                       request.meta)
                except WINDOW_ERRORS as exc:
                    raise HopFailed(f"{type(exc).__name__}: {exc}") from exc
            elif self.batched:
                with tracer.span("core.executor.batch_fn", root,
                                 index) as span:
                    with tracer.span("core.executor.collate", span, index):
                        merged, merged_meta, counts = collate_arrays(
                            [(request.arrays, request.meta)],
                            dtype=self.batch_plan.dtype)
                    run = self._edge_observed(
                        self.batch_plan.edge, "runtime.plan.execute", span,
                        index, merged, merged_meta)
                    with tracer.span("core.executor.split", span, index):
                        result, result_meta = split_results(
                            {"logits": run.x}, {"num_graphs": run.num_graphs},
                            counts)[0]
            else:
                run = self._edge_observed(
                    self.plan.edge, "core.executor.edge_fn", root, index,
                    request.arrays, request.meta)
                result, result_meta = ({"logits": run.x},
                                       {"num_graphs": run.num_graphs})
            with tracer.span("system.messages.reply_serialize", root, index):
                reply_blob = serialize_message(Message(
                    kind=KIND_RESULT, frame_id=index, arrays=result,
                    meta=result_meta, wire_format=request.wire_format))
            with tracer.span("system.messages.reply_deserialize", root,
                             index):
                reply = deserialize_message(reply_blob)
        error = float(np.max(np.abs(reply.arrays["logits"]
                                    - self.expected[index])))
        if error > TOLERANCE:
            raise RuntimeError(f"serial walk of frame {index} is off the "
                               f"reference by {error:.3g}")
        self.request_bytes.append(len(blob))
        self.reply_bytes.append(len(reply_blob))

    def walk(self, budget_s: float) -> Dict[str, float]:
        """Walk pool frames until the budget is spent; medians per frame."""
        self.request_bytes: List[int] = []
        self.reply_bytes: List[int] = []
        hop_failures = 0

        def walk_next() -> None:
            # The walk calls the hop directly, without the client's retry
            # policy: a frame under which a shard worker died (the shm ring
            # loses one about once a minute) is dropped, spans and all, and
            # the walk goes on once the pool routes around the dead worker.
            nonlocal hop_failures
            mark = len(self.tracer.spans)
            try:
                self.walk_frame(next(self.cursor))
            except HopFailed:
                hop_failures += 1
                if hop_failures > MAX_HOP_FAILURES:
                    raise
                del self.tracer.spans[mark:]
                time.sleep(0.05)

        for _ in range(3):  # untimed: the harness plans fill their arenas
            walk_next()
        first = len(self.tracer.spans)
        timed_loop(walk_next, budget_s, warm=0)
        spans = self.tracer.spans[first:]
        own = self_times_ms(spans)
        parent = {s["id"]: s["parent"] for s in spans}
        began = {s["id"]: s["start"] for s in spans if s["parent"] is None}
        stage_sum: Dict[int, float] = {}            # root -> sum of its stages
        name_sum: Dict[int, Dict[str, float]] = {}  # root -> span name -> ms
        layer_self: Dict[int, Dict[str, float]] = {}
        for span in spans:
            if span["parent"] is None:
                continue
            root = span["parent"]
            while parent[root] is not None:
                root = parent[root]
            duration = (span["end"] - span["start"]) * 1e3
            if span["parent"] == root:
                stage_sum[root] = stage_sum.get(root, 0.0) + duration
            names = name_sum.setdefault(root, {})
            names[span["name"]] = names.get(span["name"], 0.0) + duration
            layers = layer_self.setdefault(root, {})
            layer = layer_of(span["name"])
            layers[layer] = layers.get(layer, 0.0) + own[span["id"]]
        # The least-disturbed second of the walk (see steady.py): every
        # median below is over that slice's frames, so the parts add up.
        slices: Dict[int, List[int]] = {}
        for root in stage_sum:
            slices.setdefault(int(began[root] // SLICE_S), []).append(root)
        full = [roots for roots in slices.values()
                if len(roots) >= MIN_SLICE_SAMPLES] or [list(stage_sum)]
        calm = min(full, key=lambda roots: median([stage_sum[r]
                                                   for r in roots]))

        def med(name: str) -> float:
            return median([name_sum[root].get(name, 0.0) for root in calm])

        #: Median per-frame self time of each layer the walk crossed.
        self.layer_self_ms = {
            layer: median([layer_self[root].get(layer, 0.0) for root in calm])
            for layer in sorted({l for r in calm for l in layer_self[r]})}
        self.walked_frames = len(stage_sum)
        self.walk_hop_failures = hop_failures
        self.hop_call_ms = med("serving.sharding.request_frame")
        values = {
            "trace.serial_path_ms": median([stage_sum[r] for r in calm]),
            "system.messages.request_bytes": median(self.request_bytes),
            "system.messages.reply_bytes": median(self.reply_bytes),
        }
        for stage in ("request_serialize", "request_deserialize",
                      "reply_serialize", "reply_deserialize"):
            values[f"system.messages.{stage}_ms"] = med(
                f"system.messages.{stage}")
        for kind in STEP_KINDS:
            values[f"runtime.plan.{kind}_ms"] = med(f"runtime.plan.{kind}")
        if self.hop is not None:
            # The worker's plan steps cannot be seen from here: profile the
            # harness plan on the same requests, outside the serial path.
            states = itertools.cycle(self.states)
            steps = self._step_profile(
                lambda: self._edge_observed(self.plan.edge,
                                            "runtime.plan.profile", None, None,
                                            *next(states)),
                budget_s=0.0, min_iters=len(self.states))
            values.update({f"runtime.plan.{kind}_ms": ms
                           for kind, ms in steps.items()})
        return values

    def _step_profile(self, observed_call: Callable[[], object],
                      budget_s: float, min_iters: int = 3) -> Dict[str, float]:
        """Per step kind, the steady per-call sum of the step spans that
        repeated ``observed_call``s (one parentless span each) record."""
        observed_call()  # untimed: fills the plan's arena
        first = len(self.tracer.spans)
        timed_loop(observed_call, budget_s, warm=0, min_iters=min_iters)
        sums: Dict[int, Dict[str, float]] = {}
        for span in self.tracer.spans[first:]:
            if span["parent"] is not None:
                kinds = sums.setdefault(span["parent"], {})
                kind = span["name"].rsplit(".", 1)[1]
                kinds[kind] = (kinds.get(kind, 0.0)
                               + (span["end"] - span["start"]) * 1e3)
        return {kind: steady([k.get(kind, 0.0) for k in sums.values()])
                for kind in STEP_KINDS}

    # -- direct microbenches --------------------------------------------
    def executor(self, budget_s: float) -> Dict[str, float]:
        """The served callables themselves, plus collate/split on 8 frames."""
        states = itertools.cycle(self.states)
        edge = timed_loop(lambda: self.ref.edge_fn(*next(states)),
                          budget_s * 0.35)
        starts = itertools.cycle(range(0, len(self.states) - BATCH + 1, BATCH))

        def batch_of_8():
            start = next(starts)
            return self.states[start:start + BATCH]

        batch = timed_loop(lambda: self.ref.batch_fn(batch_of_8()),
                           budget_s * 0.35, warm=2)
        collate = timed_loop(
            lambda: collate_arrays(batch_of_8(), dtype=self.batch_plan.dtype),
            budget_s * 0.2)
        logits = {"logits": np.stack([e[0] for e in self.expected[:BATCH]])}
        split = timed_loop(
            lambda: split_results(logits, {"num_graphs": BATCH}, [1] * BATCH),
            budget_s * 0.1)
        return {"core.executor.edge_fn_ms": steady(edge),
                "core.executor.batch_fn_ms_per_frame": steady(batch) / BATCH,
                "core.executor.collate_ms": steady(collate),
                "core.executor.split_ms": steady(split)}

    def batched_plan(self, budget_s: float) -> Dict[str, float]:
        """Step times of the batched plan over collated 8-frame batches."""
        starts = itertools.cycle(range(0, len(self.states) - BATCH + 1, BATCH))

        def one_batch() -> None:
            start = next(starts)
            merged, meta, _ = collate_arrays(self.states[start:start + BATCH],
                                             dtype=self.batch_plan.dtype)
            self._edge_observed(self.batch_plan.edge,
                                "runtime.plan.execute_batch8", None, start,
                                merged, meta)

        steps = self._step_profile(one_batch, budget_s)
        return {f"runtime.plan.batch8_{kind}_ms_per_frame": ms / BATCH
                for kind, ms in steps.items()}

    def kernels(self, budget_s: float) -> Dict[str, float]:
        points = itertools.cycle([frame.pos for frame in self.frames])
        n, k = self.workload.num_points, self.workload.k
        knn = timed_loop(lambda: knn_edges_uniform(next(points), k, 1, n),
                         budget_s)
        return {"runtime.kernels.knn_ms": steady(knn),
                "runtime.kernels.knn_bytes": float(1 * n * n * 8)}

    def build(self, budget_s: float) -> Dict[str, float]:
        """What set-up pays for: plan compile, publish, worker spawn."""
        def compile_both() -> None:
            compile_plan(self.model, segments=("device", "edge"))
            compile_plan(self.model, segments=("edge",))

        def publish() -> None:
            ModelRepository(in_dim=IN_DIM, num_classes=NUM_CLASSES,
                            runtime=self.workload.serving.runtime,
                            seed=MODEL_SEED).publish(self.zoo)

        values = {
            "runtime.plan.compile_ms": steady(timed_loop(compile_both,
                                                         budget_s / 2, warm=1)),
            "serving.repository.publish_ms": steady(timed_loop(publish,
                                                               budget_s / 2,
                                                               warm=1)),
            "runtime.plan.arena_mb": (self.plan.arena_nbytes()
                                      + self.batch_plan.arena_nbytes()) / 1e6,
            "serving.sharding.spawn_s": 0.0,
        }
        sharding = self.workload.serving.sharding
        if sharding.enabled:
            repository = ModelRepository(
                in_dim=IN_DIM, num_classes=NUM_CLASSES,
                runtime=self.workload.serving.runtime, seed=MODEL_SEED,
                zoo=self.zoo)
            pool = ShardPool(repository, sharding)
            start = time.perf_counter()
            try:
                pool.start()
                values["serving.sharding.spawn_s"] = (time.perf_counter()
                                                      - start)
            finally:
                pool.stop()
        return values

    def transport(self, budget_s: float) -> Dict[str, float]:
        """A tiny frame through an ``EdgeServer`` whose engine does nothing."""
        tiny = {"x": np.zeros((1, IN_DIM))}

        def identity_edge(arrays, meta):
            return arrays, {"num_graphs": 1}

        def device_fn(frame):
            return frame, {"num_graphs": 1}

        server = EdgeServer(identity_edge).start()
        try:
            client = DeviceClient(server.host, server.port)
            try:
                client.handshake()
                client.run_pipeline([tiny] * BATCH, device_fn)  # warm
                rtt = timed_loop(
                    lambda: client.run_pipeline([tiny], device_fn),
                    budget_s / 2)
                piped = timed_loop(
                    lambda: client.run_pipeline([tiny] * BATCH, device_fn),
                    budget_s / 2)
            finally:
                client.close()
        finally:
            server.stop()
        return {"system.transport.null_rtt_ms": steady(rtt),
                "system.transport.pipelined_null_fps":
                    BATCH * 1e3 / steady(piped)}

    def scheduler_pair(self, budget_s: float) -> Dict[str, float]:
        scheduler, meta = self.scheduler, {"model": ENTRY}

        def hundred_pairs() -> None:
            for _ in range(100):
                scheduler.admit("bench", meta)
                scheduler.release("bench", 0.0)

        pairs = timed_loop(hundred_pairs, budget_s)
        return {"system.scheduler.admit_release_us": steady(pairs) * 10.0}

    def ring(self, budget_s: float) -> Dict[str, float]:
        """``ShmRing`` send+recv of one request in the hop's raw framing."""
        if not shm_available():
            return {"runtime.shard.ring_rtt_us": 0.0}
        arrays, meta = self.states[0]
        blob = serialize_message(Message(kind=KIND_FRAME, arrays=arrays,
                                         meta=dict(meta, model=ENTRY)),
                                 wire_format=WIRE_FORMAT_RAW)
        ring = ShmRing.create(self.workload.serving.sharding.ring_bytes)
        try:
            def round_trip() -> None:
                ring.send_bytes(blob)
                if ring.recv_bytes() != blob:
                    raise RuntimeError("shm ring returned a different blob")

            rtt = timed_loop(round_trip, budget_s)
        finally:
            ring.close()
            ring.unlink()
        return {"runtime.shard.ring_rtt_us": steady(rtt) * 1e3}


def live_counters(phases: Sequence[PhaseResult]) -> Dict[str, float]:
    """Server counters diffed from before the first phase to after the last."""
    before, after = phases[0].stats_before, phases[-1].stats_after

    def batched_frames(stats) -> float:
        return stats.mean_batch_size * stats.batches_dispatched

    batches = after.batches_dispatched - before.batches_dispatched
    coalesced = batched_frames(after) - batched_frames(before)
    frames = after.frames_processed - before.frames_processed
    queue_delay = (after.mean_queue_delay_s * batched_frames(after)
                   - before.mean_queue_delay_s * batched_frames(before))
    service = (after.mean_service_time_s * after.frames_processed
               - before.mean_service_time_s * before.frames_processed)
    values = {
        "system.engine.mean_batch_size":
            coalesced / batches if batches else 0.0,
        "system.engine.batches_dispatched": float(batches),
        "system.engine.mean_queue_delay_ms":
            queue_delay / coalesced * 1e3 if coalesced else 0.0,
        "system.engine.mean_service_ms":
            service / frames * 1e3 if frames else 0.0,
        "system.engine.batch_fallback_frames":
            float(after.batch_fallback_frames - before.batch_fallback_frames),
        # A since-start peak: the server does not window it.
        "system.engine.queue_depth_peak": float(after.queue_depth_peak),
        "system.engine.server_errors": float(after.errors - before.errors),
        "system.engine.client_frames_retried":
            float(sum(phase.retried for phase in phases)),
        "system.scheduler.frames_shed":
            float(after.frames_shed - before.frames_shed),
        # Over the scheduler's most recent samples, not a diff.
        "system.scheduler.queue_delay_p50_ms": after.queue_delay_p50_s * 1e3,
        "system.scheduler.queue_delay_p99_ms": after.queue_delay_p99_s * 1e3,
        "serving.sharding.worker_restarts": 0.0,
        "serving.sharding.shard_frame_imbalance": 0.0,
    }
    if after.shards:
        # Frame counters are carried across a respawn, so the diff holds.
        old = {s.shard_id: s.frames for s in before.shards}
        served = [s.frames - old.get(s.shard_id, 0) for s in after.shards]
        values["serving.sharding.worker_restarts"] = float(
            sum(s.restarts for s in after.shards)
            - sum(s.restarts for s in before.shards))
        mean = sum(served) / len(served)
        values["serving.sharding.shard_frame_imbalance"] = (
            (max(served) - min(served)) / mean if mean > 0 else 0.0)
    return values
