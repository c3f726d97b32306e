"""Executable form of a co-inference architecture.

:class:`ArchitectureModel` turns an :class:`~repro.core.architecture.Architecture`
into a trainable model built from the executable operation modules of
:mod:`repro.gnn.operations`, so that sampled architectures can be trained and
their validation accuracy measured (the ``acc_val`` term of the paper's
objective).  :func:`split_callables` additionally slices a trained model at
its ``Communicate`` point into the device-side and edge-side callables
consumed by the socket co-inference engine.

Compiled serving runtime
------------------------
The engine callables built here default to the compiled inference runtime
(:mod:`repro.runtime`): :func:`split_callables`, :func:`batched_edge_fn` and
the :mod:`repro.serving` facade builders (every public constructor routes
through the internal :func:`_build_callables`) compile the model once into
an autograd-free
:class:`~repro.runtime.plan.InferencePlan` — fused linear+bias+activation
kernels, EdgeConv specialized per reducer, destination-sorted edge lists,
and a per-entry buffer arena reusing output buffers across frames — and run
plans instead of eager segments (``runtime="eager"`` restores the old path;
``runtime="auto"`` falls back to eager only when the model contains a
construct plans do not support).  Training, search and the simulator keep
eager autograd execution; compiled results match eager within float64
round-off (see ``tests/test_runtime_plans.py``).

Batched serving
---------------
The edge side of a split model can also execute many frames in one call:
:func:`collate_arrays` merges the serialized states of several frames into a
single multi-graph state (concatenated features, batch vector shifted by the
graph offset, edge index shifted by the node offset), :func:`batched_edge_fn`
resumes the architecture once over the merged state, and
:func:`split_results` scatters the pooled per-graph outputs back to the
originating frames.  This is what the engine's
:class:`~repro.system.engine.MicroBatcher` calls to amortize one engine
invocation across concurrent clients; the result is numerically equivalent
to running the frames one by one (every operation reduces strictly within
the batch vector's graph boundaries).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..graph.data import Batch
from ..gnn.operations import (ClassifierOp, ExecState, Operation, OpSpec, OpType,
                              build_operation)
from ..runtime import InferencePlan, PlanCompileError, compile_plan
from .architecture import Architecture


class ArchitectureModel(nn.Module):
    """Trainable model realizing one co-inference architecture.

    Parameters
    ----------
    architecture:
        The operation sequence to realize.
    in_dim:
        Input node-feature dimensionality.
    num_classes:
        Number of output classes of the final classifier.
    seed:
        Seed for weight initialization and random-sampling operations.
    """

    def __init__(self, architecture: Architecture, in_dim: int, num_classes: int,
                 seed: int = 0) -> None:
        super().__init__()
        self.architecture = architecture
        self.in_dim = in_dim
        self.num_classes = num_classes
        rng = np.random.default_rng(seed)
        self._operations: List[Operation] = []
        dim = in_dim
        for index, spec in enumerate(architecture.ops):
            operation = build_operation(spec, dim, rng=rng, seed=seed + index)
            self.add_module(f"op{index}", operation)
            self._operations.append(operation)
            dim = operation.output_dim(dim)
        classifier_spec = OpSpec(OpType.CLASSIFIER, "mlp")
        self.classifier = ClassifierOp(classifier_spec, dim, num_classes,
                                       hidden_dim=architecture.classifier_hidden,
                                       rng=rng)

    # ------------------------------------------------------------------
    @staticmethod
    def initial_state(batch: Batch) -> ExecState:
        """Build the execution state for a batch of graphs."""
        return ExecState(
            x=nn.Tensor(batch.x),
            batch=batch.batch.copy(),
            num_graphs=batch.num_graphs,
            edge_index=None if batch.edge_index is None else batch.edge_index.copy(),
            pos=None if batch.pos is None else batch.pos.copy(),
        )

    def run_segment(self, state: ExecState, start: int, end: Optional[int] = None,
                    include_classifier: bool = False) -> ExecState:
        """Execute operations ``start:end`` (communicates are no-ops here)."""
        end = len(self._operations) if end is None else end
        for operation in self._operations[start:end]:
            state = operation(state)
        if include_classifier:
            state = self.classifier(state)
        return state

    def forward(self, batch: Batch) -> nn.Tensor:
        """Full forward pass returning class logits, one row per graph."""
        state = self.run_segment(self.initial_state(batch), 0, None,
                                 include_classifier=True)
        return state.x

    # ------------------------------------------------------------------
    def num_operations(self) -> int:
        return len(self._operations)

    def first_communicate_index(self) -> Optional[int]:
        """Index of the first Communicate operation, or ``None``."""
        for index, operation in enumerate(self._operations):
            if operation.spec.op == OpType.COMMUNICATE:
                return index
        return None


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
ArrayDict = Dict[str, np.ndarray]


#: How serving callables execute the model.  ``"compiled"`` requires the
#: compiled runtime (raises :class:`~repro.runtime.plan.PlanCompileError` on
#: unsupported models), ``"eager"`` forces the autograd path under
#: ``no_grad``, and ``"auto"`` — the default — compiles when possible and
#: silently falls back to eager otherwise.  The fallback only exists for the
#: default ``float64`` precision: eager execution cannot honor any other,
#: so ``"auto"`` with e.g. ``float32`` re-raises the compile error instead
#: of silently changing the requested precision.
RUNTIMES = ("auto", "compiled", "eager")


def _as_runtime_config(runtime: str, dtype) -> "RuntimeConfig":
    """Wrap the legacy ``runtime=``/``dtype=`` argument pair into a config.

    ``dtype`` maps onto the config's ``precision``.  The import is deferred:
    :mod:`repro.serving.config` imports this module for the :data:`RUNTIMES`
    vocabulary, so a module-level import here would be circular.
    """
    from ..serving.config import Knob, RuntimeConfig
    name = Knob("dtype", "", optional=True).check("dtype", dtype)
    return RuntimeConfig(runtime=runtime, precision=name)


def _resolve_plan(model: ArchitectureModel, config: "RuntimeConfig",
                  segments: Sequence[str], precision: str,
                  calibration=None) -> Optional[InferencePlan]:
    """Compile ``model`` according to ``config`` (None = run eagerly).

    ``segments`` limits compilation to the plan segments the caller will
    run, so e.g. a batched edge callable never builds device/full step lists
    it cannot execute.  ``precision`` is the entry's resolved precision (see
    ``RuntimeConfig.precision_for``); for ``"int8"`` the caller passes the
    matching ``calibration`` and the plan compiles on the quantized path
    with a float32 carrier.  (``RuntimeConfig`` has already rejected an
    eager runtime with any precision but float64.)
    """
    if config.runtime == "eager":
        return None
    quantized = precision == "int8"
    try:
        return compile_plan(model, dtype=np.float32 if quantized else precision,
                            segments=segments, backend=config.backend,
                            calibration=calibration if quantized else None)
    except PlanCompileError:
        if config.runtime == "compiled" or precision != "float64":
            raise  # no eager fallback can honor a non-float64 precision
        return None


def split_callables(model: ArchitectureModel, runtime: str = "auto",
                    dtype=None
                    ) -> Tuple[Callable[[Batch], Tuple[ArrayDict, Dict]],
                               Callable[[ArrayDict, Dict], Tuple[ArrayDict, Dict]]]:
    """Split a trained model into engine callables at its Communicate point.

    Returns ``(device_fn, edge_fn)``: the device function executes every
    operation before the first ``Communicate`` and serializes the state; the
    edge function executes the remaining operations and the classifier and
    returns the logits.  Architectures without a Communicate run everything
    on the device and the edge function merely echoes the logits back, so the
    same engine code path covers Device-Only deployments.

    By default both callables execute a compiled
    :class:`~repro.runtime.plan.InferencePlan` instead of the eager autograd
    segments (see ``runtime``), resolving weights at call time so later
    ``load_state_dict`` calls are honored.  ``dtype`` selects the compiled
    compute/wire dtype (default ``float64``); with ``float32`` the device
    callable emits float32 arrays, halving the bytes every frame puts on the
    wire at ~1e-4 relative logit error (pinned by the equivalence tests).
    A non-``float64`` dtype requires the compiled runtime: ``runtime="auto"``
    then propagates a :class:`~repro.runtime.plan.PlanCompileError` rather
    than silently falling back to float64 eager execution.
    """
    serving = _build_callables(model, _as_runtime_config(runtime, dtype),
                               batched=False)
    return serving.device_fn, serving.edge_fn


def _plan_runners(plan: InferencePlan):
    """Segment runners over a compiled plan (see :func:`_serving_fns`)."""

    def run_device(batch: Batch):
        run = plan.device.execute_out(batch.x, batch.batch, batch.num_graphs,
                                      edge_index=batch.edge_index,
                                      pos=batch.pos)
        return run.x, run

    def run_edge(arrays: ArrayDict, meta: Dict) -> Tuple[np.ndarray, int]:
        # plan.edge aliases the full architecture when there is no split.
        run = plan.edge.execute_out(
            arrays["x"], arrays["batch"], int(meta["num_graphs"]),
            edge_index=arrays.get("edge_index"), pos=arrays.get("pos"),
            pooled=bool(meta.get("pooled", False)))
        return run.x, run.num_graphs

    return run_device, run_edge


def _eager_runners(model: ArchitectureModel, split: Optional[int]):
    """Segment runners over the autograd model under ``no_grad``."""

    def run_device(batch: Batch):
        with nn.no_grad():
            state = model.run_segment(model.initial_state(batch), 0, split,
                                      include_classifier=split is None)
        return state.x.data, state

    def run_edge(arrays: ArrayDict, meta: Dict) -> Tuple[np.ndarray, int]:
        state = ExecState(
            x=nn.Tensor(arrays["x"]),
            batch=np.asarray(arrays["batch"], dtype=np.int64),
            num_graphs=int(meta["num_graphs"]),
            edge_index=np.asarray(arrays["edge_index"], dtype=np.int64)
            if "edge_index" in arrays else None,
            pos=arrays.get("pos"),
            pooled=bool(meta.get("pooled", False)))
        with nn.no_grad():
            state = model.run_segment(state, 0 if split is None else split + 1,
                                      None, include_classifier=True)
        return state.x.data, state.num_graphs

    return run_device, run_edge


def _neighbour_table(edge_index: np.ndarray,
                     num_nodes: int) -> Optional[np.ndarray]:
    """The ``(N, k)`` uint16 table ``nbr`` of frame-local source indices
    when ``edge_index`` is exactly ``[nbr.ravel(), repeat(arange(N), k)]``,
    else ``None`` (the edge list then travels as is).

    Every sampled topology has that shape — k incoming edges per node,
    destination-sorted — so the row of centres never needs to travel and
    the sources fit 2 bytes each (N <= 65 536): 41 KB instead of 328 KB
    for a 1024-point, k=20 frame.  :func:`_wire_edge_index` inverts it.
    """
    num_edges = edge_index.shape[1]
    if not 0 < num_nodes <= 1 << 16 or num_edges % num_nodes:
        return None
    k = num_edges // num_nodes
    sources = edge_index[0]
    if (k == 0 or not np.array_equal(edge_index[1], np.repeat(
            np.arange(num_nodes, dtype=edge_index.dtype), k))
            or sources.min() < 0 or sources.max() >= num_nodes):
        return None
    return sources.astype(np.uint16).reshape(num_nodes, k)


def _wire_edge_index(arrays: ArrayDict) -> Optional[np.ndarray]:
    """The int64 edge list of one wire frame: its ``edge_index``, or the
    one its ``nbr`` table stands for (see :func:`_neighbour_table`)."""
    if "nbr" not in arrays:
        edge_index = arrays.get("edge_index")
        return None if edge_index is None else np.asarray(edge_index,
                                                          dtype=np.int64)
    nbr, num_nodes = arrays["nbr"], len(arrays["x"])
    if nbr.ndim != 2 or nbr.shape[0] != num_nodes:
        raise ValueError(f"neighbour table of shape {nbr.shape} does not "
                         f"match the frame's {num_nodes} nodes")
    return np.stack([nbr.reshape(-1).astype(np.int64),
                     np.repeat(np.arange(num_nodes, dtype=np.int64),
                               nbr.shape[1])])


def _has_edges(arrays: ArrayDict) -> bool:
    return "edge_index" in arrays or "nbr" in arrays


def _serving_fns(run_device: Callable, run_edge: Callable,
                 split: Optional[int], dtype: np.dtype
                 ) -> Tuple[Callable[[Batch], FrameState],
                            Callable[[ArrayDict, Dict], FrameState],
                            BatchedEdgeFn]:
    """The three engine callables over one pair of segment runners.

    ``run_device(frame)`` returns ``(x, state)`` — the final features as an
    ndarray and the state object carrying ``batch`` / ``edge_index`` /
    ``pos`` / ``num_graphs`` / ``pooled``; ``run_edge(arrays, meta)``
    resumes a (possibly collated) wire state and returns ``(logits,
    num_graphs)``.  Everything else about serving a frame — the wire
    schema (a sampled topology travels as the ``nbr`` table, see
    :func:`_neighbour_table`), the ``finished`` echo of Device-Only
    architectures, collate → run → split — is the same for the compiled
    and the eager runtime and lives here.
    """

    def device_fn(batch: Batch) -> FrameState:
        x, state = run_device(batch)
        arrays: ArrayDict = {"x": x, "batch": state.batch}
        if state.edge_index is not None:
            nbr = _neighbour_table(state.edge_index, x.shape[0])
            if nbr is None:
                arrays["edge_index"] = state.edge_index
            else:
                arrays["nbr"] = nbr
        if state.pos is not None:
            arrays["pos"] = state.pos
        return arrays, {"num_graphs": state.num_graphs,
                        "pooled": state.pooled, "finished": split is None}

    def echo(arrays: ArrayDict, meta: Dict) -> FrameState:
        return {"logits": arrays["x"]}, {"num_graphs": meta["num_graphs"]}

    def edge_fn(arrays: ArrayDict, meta: Dict) -> FrameState:
        if meta.get("finished"):
            return echo(arrays, meta)
        if "nbr" in arrays:
            arrays = dict(arrays, edge_index=_wire_edge_index(arrays))
        logits, num_graphs = run_edge(arrays, meta)
        return {"logits": logits}, {"num_graphs": num_graphs}

    def batch_fn(requests: Sequence[FrameState]) -> List[FrameState]:
        if split is None or all(meta.get("finished") for _, meta in requests):
            return [echo(arrays, meta) for arrays, meta in requests]
        arrays, meta, graph_counts = collate_arrays(requests, dtype=dtype)
        return split_results(*edge_fn(arrays, meta), graph_counts)

    return device_fn, edge_fn, batch_fn


# ----------------------------------------------------------------------
# Batched edge execution (micro-batching support)
# ----------------------------------------------------------------------
#: One frame's serialized engine state: ``(arrays, meta)`` as produced by the
#: device callable and consumed by the edge callable.
FrameState = Tuple[ArrayDict, Dict]
#: Edge callable executing many frames in one engine call.
BatchedEdgeFn = Callable[[Sequence[FrameState]], List[FrameState]]


def collate_arrays(requests: Sequence[FrameState],
                   dtype=np.float64) -> Tuple[ArrayDict, Dict, List[int]]:
    """Merge the serialized states of several frames into one multi-graph state.

    Each request is an ``(arrays, meta)`` pair in the wire schema of
    :func:`split_callables` (``x``/``batch`` plus optional ``pos`` and
    topology — ``edge_index``, or the ``nbr`` table it is expanded from;
    ``num_graphs`` / ``pooled`` metadata).  Node rows are
    concatenated, each frame's batch vector is shifted by the number of
    graphs collated before it and its edge index by the number of node rows,
    exactly like :meth:`~repro.graph.data.Batch.from_graphs` builds a
    disjoint union — so one resumed engine call treats the coalesced frames
    as independent graphs of a single batch.  Frames must agree on
    ``pooled`` and on the presence of a topology and of ``pos``
    (``ValueError`` otherwise; the engine then serves them frame by frame).

    Returns ``(arrays, meta, graph_counts)`` where ``graph_counts`` records
    how many graphs each frame contributed, in order — the bookkeeping
    :func:`split_results` needs to scatter results back per frame.
    ``dtype`` is the float dtype the collated ``x``/``pos`` arrays are cast
    to (the compiled runtime collates in its compute dtype so a float32
    micro-batch is never round-tripped through float64).
    """
    dtype = np.dtype(dtype)
    if not requests:
        raise ValueError("cannot collate an empty batch of frames")
    pooled = bool(requests[0][1].get("pooled", False))
    has_edges = _has_edges(requests[0][0])
    has_pos = "pos" in requests[0][0]
    xs: List[np.ndarray] = []
    batches: List[np.ndarray] = []
    edges: List[np.ndarray] = []
    poss: List[np.ndarray] = []
    graph_counts: List[int] = []
    row_offset = 0
    graph_offset = 0
    for arrays, meta in requests:
        if bool(meta.get("pooled", False)) != pooled:
            raise ValueError("cannot collate pooled and unpooled frames into "
                             "one batch")
        if _has_edges(arrays) != has_edges or ("pos" in arrays) != has_pos:
            # Dropping the array for everyone would sample the frames that
            # sent ``pos`` on ``x`` instead: silently different logits.
            raise ValueError("cannot collate frames with and without "
                             "pos / edge_index into one batch")
        x = np.asarray(arrays["x"], dtype=dtype)
        num_graphs = int(meta["num_graphs"])
        xs.append(x)
        batches.append(np.asarray(arrays["batch"], dtype=np.int64) + graph_offset)
        if has_edges:
            edges.append(_wire_edge_index(arrays) + row_offset)
        if has_pos:
            poss.append(np.asarray(arrays["pos"], dtype=dtype))
        graph_counts.append(num_graphs)
        row_offset += int(x.shape[0])
        graph_offset += num_graphs
    collated: ArrayDict = {"x": np.concatenate(xs, axis=0),
                           "batch": np.concatenate(batches)}
    if has_edges:
        collated["edge_index"] = np.concatenate(edges, axis=1)
    if has_pos:
        collated["pos"] = np.concatenate(poss, axis=0)
    meta = {"num_graphs": graph_offset, "pooled": pooled}
    return collated, meta, graph_counts


def split_results(arrays: ArrayDict, meta: Dict,
                  graph_counts: Sequence[int]) -> List[FrameState]:
    """Split a batched per-graph result back into per-frame results.

    Every array in ``arrays`` is expected to carry one row per graph (the
    state after global pooling / classification) and is sliced along axis 0
    according to ``graph_counts``.  The inverse of :func:`collate_arrays`
    after the architecture has pooled.
    """
    total = int(sum(graph_counts))
    for name, array in arrays.items():
        if int(np.asarray(array).shape[0]) != total:
            raise ValueError(
                f"batched result array {name!r} has {np.asarray(array).shape[0]} "
                f"rows but the batch holds {total} graphs")
    results: List[FrameState] = []
    offset = 0
    for count in graph_counts:
        frame_arrays = {name: np.ascontiguousarray(array[offset:offset + count])
                        for name, array in arrays.items()}
        results.append((frame_arrays, {"num_graphs": int(count)}))
        offset += count
    return results


def batched_edge_fn(model: ArchitectureModel, runtime: str = "auto",
                    dtype=None) -> BatchedEdgeFn:
    """Edge-side callable executing a whole micro-batch in one engine call.

    The batched counterpart of the ``edge_fn`` returned by
    :func:`split_callables`: the per-frame states are collated into one
    multi-graph state, the post-``Communicate`` segment and the classifier
    run once over it, and the pooled logits are split back per frame.
    Because every operation reduces strictly within graph boundaries (the
    batch vector), the returned logits are numerically equivalent to calling
    the per-frame edge function once per request.

    ``runtime``/``dtype`` mirror :func:`split_callables`: by default the
    micro-batch resumes through the compiled plan (whose buffer arena then
    holds batch-shaped buffers, reused across steady-state batches).

    Frames of an architecture without a ``Communicate`` (``finished`` on the
    device) are echoed back per frame, mirroring the per-frame edge function.
    """
    serving = _build_callables(model, _as_runtime_config(runtime, dtype),
                               split=False)
    return serving.batch_fn


@dataclass(frozen=True)
class ServingCallables:
    """The three engine callables of one zoo entry, sharing one model.

    ``device_fn`` runs the pre-``Communicate`` segment on the device,
    ``edge_fn`` resumes one frame on the edge, and ``batch_fn`` resumes a
    whole micro-batch in one call (see :func:`batched_edge_fn`).  When built
    for a zoo, all three are serialized through one per-entry lock because
    they share the same (non-thread-safe) :class:`ArchitectureModel`; a
    field is ``None`` when its callable was not requested from the builder.

    ``plans`` holds the one compiled :class:`~repro.runtime.plan.
    InferencePlan` behind the callables (empty for eager callables) so
    owners can observe and release its buffer arenas — see
    :meth:`release_buffers`.
    """

    device_fn: Optional[Callable[[Batch], FrameState]] = None
    edge_fn: Optional[Callable[[ArrayDict, Dict], FrameState]] = None
    batch_fn: Optional[BatchedEdgeFn] = None
    plans: Tuple[InferencePlan, ...] = ()

    def release_buffers(self) -> int:
        """Release the pooled arena buffers of every compiled plan.

        Returns the number of bytes freed.  The teardown hook for serving
        tables: per-thread arenas accumulate one buffer set per thread that
        ever executed a plan, and nothing else frees them before the plan
        itself dies — a retired snapshot must release explicitly.  The
        callables stay usable afterwards (buffers reallocate on demand).
        """
        return sum(plan.release_buffers() for plan in self.plans)

    def arena_nbytes(self) -> int:
        """Bytes currently pooled by this entry's plans across all threads."""
        return sum(plan.arena_nbytes() for plan in self.plans)


def _build_callables(model: ArchitectureModel, config: "RuntimeConfig", *,
                     lock: Optional[threading.Lock] = None,
                     split: bool = True, batched: bool = True,
                     entry_name: Optional[str] = None,
                     calibration_frames: Optional[Sequence] = None
                     ) -> ServingCallables:
    """The one internal builder every serving constructor routes through.

    ``config`` is a :class:`repro.serving.RuntimeConfig`; this is the single
    place its ``runtime``/``segments``/``precision``/``backend`` knobs are
    resolved into engine callables, so no public builder re-threads them.
    ``split`` / ``batched`` select which callables to
    build; all of them run the entry's one compiled plan (the requested
    split segments, plus ``"edge"`` when batched — arenas are per thread,
    so the callables never contend for buffers).  When ``lock`` is given,
    every built callable is serialized through it —
    :class:`ArchitectureModel` is not thread-safe (its operations share one
    random generator), so nothing may run the *same* model concurrently.

    ``entry_name`` selects the per-entry precision from the config's
    ``precision_policy``.  For int8 entries, activation scales come from one
    calibration pass over ``calibration_frames`` — or, when none are given,
    over deterministic seeded synthetic frames, which is what keeps shard
    and cluster replicas (rebuilt from config alone) bit-identical to the
    parent process.
    """
    precision = config.precision_for(entry_name)
    segments = set()
    if split:
        segments.update(config.segments or ("device", "edge"))
    if batched:
        segments.add("edge")
    segments = tuple(sorted(segments))
    calibration = None
    if precision == "int8":
        from ..runtime import calibrate, synthetic_calibration_frames
        frames = calibration_frames
        if not frames:
            frames = synthetic_calibration_frames(model.in_dim, seed=0)
        calibration = calibrate(model, frames, segments=segments)
    plan = _resolve_plan(model, config, segments, precision, calibration)
    cut = model.first_communicate_index()
    if plan is None:
        fns = _serving_fns(*_eager_runners(model, cut), cut, np.float64)
    else:
        fns = _serving_fns(*_plan_runners(plan), cut, plan.dtype)
    if lock is not None:
        fns = [_serialized(fn, lock) for fn in fns]
    device_fn, edge_fn, batch_fn = fns
    return ServingCallables(device_fn=device_fn if split else None,
                            edge_fn=edge_fn if split else None,
                            batch_fn=batch_fn if batched else None,
                            plans=() if plan is None else (plan,))


def _serialized(fn: Callable, lock: threading.Lock) -> Callable:
    def locked_fn(*args):
        with lock:
            return fn(*args)

    return locked_fn
