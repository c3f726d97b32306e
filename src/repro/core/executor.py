"""Executable form of a co-inference architecture.

:class:`ArchitectureModel` turns an :class:`~repro.core.architecture.Architecture`
into a trainable model built from the executable operation modules of
:mod:`repro.gnn.operations`, so that sampled architectures can be trained and
their validation accuracy measured (the ``acc_val`` term of the paper's
objective).  :func:`_build_callables` — behind
:func:`repro.serving.build_callables` — additionally slices a trained model
at its ``Communicate`` point into the callables the co-inference engine runs.

Compiled serving runtime
------------------------
The engine callables built here default to the compiled inference runtime
(:mod:`repro.runtime`): the builder compiles the model once into an
autograd-free :class:`~repro.runtime.plan.InferencePlan` — fused
linear+bias+activation kernels, EdgeConv specialized per reducer over a
sampled topology's ``(N, k)`` neighbour table, and a per-entry buffer arena
reusing output buffers across frames — and runs plans instead of eager
segments (``RuntimeConfig(runtime="eager")`` restores the old path;
``runtime="auto"`` falls back to eager only when the model contains a
construct plans do not support).  Training, search and the simulator keep
eager autograd execution; compiled results match eager within float64
round-off (see ``tests/test_runtime_plans.py``).

Batched serving
---------------
The edge side of a split model can also execute many frames in one call:
:func:`collate_arrays` merges the serialized states of several frames into a
single multi-graph state (concatenated features, batch vector shifted by the
graph offset, edge index shifted by the node offset; a frame's ``nbr``
table is first expanded to its edge list), the ``batch_fn`` of
:class:`ServingCallables` resumes the architecture once over the merged
state, and :func:`split_results` scatters the pooled per-graph outputs back
to the originating frames.  This is what the engine's
:class:`~repro.system.engine.MicroBatcher` calls to amortize one engine
invocation across concurrent clients; the result is numerically equivalent
to running the frames one by one (every operation reduces strictly within
the batch vector's graph boundaries).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .. import nn
from ..graph.data import Batch
from ..graph.knn import edge_list
from ..gnn.operations import (ClassifierOp, ExecState, Operation, OpSpec, OpType,
                              SampleOp, build_operation)
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


#: The plan segments every entry compiles: ``device_fn`` runs the first,
#: ``edge_fn`` and ``batch_fn`` the second (with no ``Communicate`` the
#: device runs it all and the edge callables echo its logits).
_SEGMENTS = ("device", "edge")


def _plan_runners(plan: InferencePlan):
    """Segment runners over a compiled plan (see :func:`_serving_fns`)."""

    def run_device(batch: Batch):
        run = plan.device.execute_out(batch.x, batch.batch, batch.num_graphs,
                                      edge_index=batch.edge_index,
                                      pos=batch.pos)
        return run.x, run

    def run_edge(arrays: ArrayDict, meta: Dict) -> Tuple[np.ndarray, int]:
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
            state = model.run_segment(state, split + 1, None,
                                      include_classifier=True)
        return state.x.data, state.num_graphs

    return run_device, run_edge


#: Frame metadata marker ``{"pos": "x"}``: the frame's ``pos`` is bitwise
#: its ``x`` and travels once, as ``x`` (see :func:`_serving_fns`).
_POS_META_KEY, _POS_IS_X = "pos", "x"
#: The default of a meta field every frame must carry.
_REQUIRED = object()


# The wire schema every frame the edge resumes is walked against (see
# :func:`_wire_state`; ``docs/architecture.md`` renders it).  An array
# declares its numpy dtype class, its axes — an exact length, ``"N"`` (the
# rows of ``x``, which binds it) or a free axis of :data:`_FREE_AXES` —
# and, with ``high`` (``"N"``, or ``"G"``: the meta's ``num_graphs``),
# values naming a ``unit`` in ``[0, high)``, each one present when
# ``every``.  A meta field declares its types (a ``bool`` is no int), what
# it reads as when absent (:data:`_REQUIRED`: refused) and the values it
# may take: one of ``choices``, or the entry's own fact (no
# ``Communicate``) with ``entry``; with ``high``, ``[low, N]`` in an
# unpooled frame and exactly ``N`` in a pooled one.
@dataclass(frozen=True)
class _WireArray:
    doc: str
    dtype: type
    shape: Tuple[Union[int, str], ...]
    required: bool = False
    unit: str = ""
    high: Optional[str] = None
    every: bool = False


@dataclass(frozen=True)
class _MetaField:
    doc: str
    types: Tuple[type, ...]
    default: object = None
    choices: Tuple[object, ...] = ()
    entry: bool = False
    low: Optional[int] = None
    high: Optional[str] = None


_FREE_AXES = {"F": 0, "D": 0, "k": 1, "E": 0}
_WIRE_ARRAYS = {  # in walk order: x binds N
    "x": _WireArray("node features", np.floating, ("N", "F"), True),
    "batch": _WireArray("graph of each node", np.integer, ("N",), True,
                        unit="graph", high="G", every=True),
    "pos": _WireArray("node coordinates", np.floating, ("N", "D")),
    "nbr": _WireArray("neighbour table: k sources per node", np.integer,
                      ("N", "k"), unit="node", high="N"),
    "edge_index": _WireArray("edge list: sources, destinations", np.integer,
                             (2, "E"), unit="node", high="N"),
}
_WIRE_META = {  # in walk order: pooled bounds num_graphs
    "pooled": _MetaField("cut after GlobalPool", (bool, np.bool_), False),
    "num_graphs": _MetaField("graphs", (int, np.integer), _REQUIRED, low=1,
                             high="N"),
    _POS_META_KEY: _MetaField("marker that pos is x", (str,),
                              choices=(_POS_IS_X,)),
    "finished": _MetaField("finished on the device", (bool, np.bool_),
                           entry=True),
}
#: Pairs a frame may not carry together: either stands for the other.
_EXCLUSIVE = (("nbr", "edge_index"), ("pos", f"meta.{_POS_META_KEY}"))


def _axis_fits(axis: Union[int, str], length: int,
               sizes: Dict[str, int]) -> bool:
    """Whether one axis of a wire array has its declared length."""
    if axis in _FREE_AXES:
        return length >= _FREE_AXES[axis]
    if axis == "N":  # the first array walked, x, binds N
        return sizes.setdefault(axis, length) == length
    return length == axis


def _wire_state(arrays: ArrayDict, meta: Dict,
                finished: bool = False) -> ArrayDict:
    """One wire frame's arrays as the segment runners read them.

    The frame is first walked against the wire schema (``finished`` is the
    entry's fact); the first breach raises a ``ValueError`` naming the
    array or field and its bound.  Then ``nbr`` is expanded to
    ``edge_index`` (:func:`~repro.graph.knn.edge_list`) and the pos-is-x
    marker to ``pos``, so no runner sees either wire shorthand.
    """
    carried = set(arrays).union(f"meta.{key}" for key, value in meta.items()
                                if value is not None)
    for pair in _EXCLUSIVE:
        if carried.issuperset(pair):
            raise ValueError(f"frame carries both {pair[0]} and {pair[1]}: "
                             "refusing to pick one")
    sizes: Dict[str, int] = {}
    for name, spec in _WIRE_ARRAYS.items():
        if name not in arrays:
            if spec.required:
                raise ValueError(f"{name} ({spec.doc}) is missing")
            continue
        array = np.asarray(arrays[name])
        if not issubclass(array.dtype.type, spec.dtype):
            raise ValueError(f"{name} ({spec.doc}) must be "
                             f"{spec.dtype.__name__}, got {array.dtype}")
        if array.ndim != len(spec.shape) or not all(
                _axis_fits(axis, length, sizes)
                for axis, length in zip(spec.shape, array.shape)):
            raise ValueError(f"{name} ({spec.doc}) has shape {array.shape}, "
                             f"not ({', '.join(map(str, spec.shape))}) with "
                             f"N = {sizes.get('N')}")
    rows, got = sizes["N"], {}
    for name, field in _WIRE_META.items():
        value = got[name] = meta.get(name, field.default)
        if value is _REQUIRED:
            raise ValueError(f"frame meta {name} ({field.doc}) is missing")
        if value is field.default:
            continue
        if (not isinstance(value, field.types)
                or isinstance(value, bool) and bool not in field.types):
            raise ValueError(f"frame meta {name} must be "
                             f"{field.types[0].__name__}, got {value!r}")
        allowed = (finished,) if field.entry else field.choices
        if allowed and value not in allowed:
            raise ValueError(f"frame meta {name}={value!r} is not one of "
                             f"{allowed} for this entry ({field.doc})")
        if field.high is None:
            continue
        low, kind = (rows, "a pooled") if got["pooled"] else (field.low,
                                                               "an unpooled")
        if not low <= value <= rows:
            raise ValueError(f"frame claims {value} {field.doc} over {rows} "
                             f"rows: {name} must lie in [{low}, {rows}] for "
                             f"{kind} frame")
    sizes["G"] = int(got["num_graphs"])
    for name, spec in _WIRE_ARRAYS.items():
        if spec.high is None or name not in arrays:
            continue
        index = np.asarray(arrays[name])
        if not index.size:
            continue
        high, top = sizes[spec.high], index.max()
        low = index.min() if index.dtype.kind == "i" else 0
        if low < 0 or top >= high:
            raise ValueError(f"{name} ({spec.doc}) names {spec.unit} "
                             f"{low if low < 0 else top}, outside "
                             f"the frame's {high} {spec.unit}s: values lie in "
                             f"[0, {spec.high})")
        if not spec.every or high == 1:  # a lone id in range is present
            continue
        counts = np.bincount(index.astype(np.intp, copy=False),
                             minlength=high)
        if not counts.all():
            raise ValueError(f"{name} ({spec.doc}) leaves {spec.unit} "
                             f"{int(np.argmin(counts))} of the frame's {high} "
                             f"empty: every value in [0, {spec.high}) must "
                             "appear")
    if "nbr" not in arrays and got[_POS_META_KEY] is None:
        return arrays
    arrays = dict(arrays)
    if "nbr" in arrays:
        arrays["edge_index"] = edge_list(arrays.pop("nbr"))
    if got[_POS_META_KEY] is not None:
        arrays["pos"] = arrays["x"]
    return arrays


def _edge_samples(model: ArchitectureModel,
                  split: Optional[int]) -> FrozenSet[str]:
    """The functions of the ``Sample`` operations the edge segment after
    ``split`` runs (none without a ``Communicate``).

    Only a knn ``Sample`` reads ``pos`` (a random one never does, and a
    ``GlobalPool`` drops it), and with no ``Sample`` the edge aggregates
    over exactly the shipped topology; both are facts of the architecture,
    the same for the compiled and the eager runtime.
    """
    return frozenset(() if split is None else (
        operation.spec.function for operation in model._operations[split + 1:]
        if isinstance(operation, SampleOp)))


#: Bits of each axis in a Z-order key.  Under a graph id and above a node
#: index, each of at most 16 bits (``nbr`` ships only for N <= 2**16),
#: three axes fit an int64.
_Z_BITS = 10
#: Each ``_Z_BITS``-bit cell index with two zero bits after each of its
#: bits: three axes, shifted by 0, 1 and 2, interleave into a Morton code.
_SPREAD = sum(((np.arange(1 << _Z_BITS) >> bit) & 1) << 3 * bit
              for bit in range(_Z_BITS))


def _z_order(coords: np.ndarray, graph: np.ndarray) -> Optional[np.ndarray]:
    """The node order that keeps each graph contiguous, graphs in id order,
    and within a graph sorts its nodes by the Z-order (Morton order) of
    their first three ``coords`` columns, each quantized to ``_Z_BITS``
    bits over the frame's bounding box; ties keep the frame's order.
    ``None`` when a coordinate, or the box's extent, is not finite."""
    # Axis-major: numpy reduces a long contiguous row 10x faster than
    # down a column of (N, 3).
    axes = np.ascontiguousarray(coords[:, :3].T, dtype=np.float64)
    low = axes.min(axis=1, keepdims=True)
    # Not finite when any coordinate is NaN or infinite, or the extent
    # overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        span = axes.max(axis=1, keepdims=True) - low
    if not np.isfinite(span).all():
        return None
    top = (1 << _Z_BITS) - 1
    axes -= low
    axes *= top / np.where(span > 0, span, np.inf)
    cells = np.minimum(axes, top, out=axes).astype(np.intp)
    # (graph, code, node) in one int64, so a plain sort is a stable one
    # and the node index falls out of the low bits.
    key = np.asarray(graph, dtype=np.int64) << 3 * _Z_BITS
    for axis, cell in enumerate(cells):
        key |= _SPREAD[cell] << axis
    key <<= 16
    key |= np.arange(len(key))
    key.sort()
    return key & 0xFFFF


def _z_ordered(arrays: ArrayDict, coords: np.ndarray) -> ArrayDict:
    """A frame that ships ``nbr`` with its nodes renamed in
    :func:`_z_order` of ``coords``, and each ``nbr`` row sorted.

    Every array of the frame holds one row per node, so all are permuted;
    ``nbr`` is also renamed through the inverse permutation.  The
    neighbour sets stay exactly those the device sampled: only their ids
    and order change, and the row order is one nobody reads.  Renamed and
    sorted, a row is a run of small gaps, which the wire's ``dp`` layout
    ships in a third of the bytes.  Non-finite coordinates leave the
    frame as it is.
    """
    order = _z_order(coords, arrays["batch"])
    if order is None:
        return arrays
    rank = np.empty(order.size, np.uint16)  # nbr ships only for N <= 2**16
    rank[order] = np.arange(order.size, dtype=np.uint16)
    renamed = {name: np.take(array, order, axis=0)
               for name, array in arrays.items()}
    renamed["nbr"] = np.take(rank, renamed["nbr"])
    renamed["nbr"].sort(axis=1)
    return renamed


def _serving_fns(run_device: Callable, run_edge: Callable,
                 split: Optional[int], dtype: np.dtype,
                 edge_samples: FrozenSet[str]
                 ) -> Tuple[Callable[[Batch], FrameState],
                            Callable[[ArrayDict, Dict], FrameState],
                            BatchedEdgeFn]:
    """The three engine callables over one pair of segment runners.

    ``run_device(frame)`` returns ``(x, state)`` — the final features as an
    ndarray and the state object carrying ``batch`` / ``nbr`` /
    ``edge_index`` / ``pos`` / ``num_graphs`` / ``pooled``;
    ``run_edge(arrays, meta)`` resumes a (possibly collated) wire state
    and returns ``(logits, num_graphs)``.  Everything else about serving a frame is the same for
    the compiled and the eager runtime and lives here: the echo of
    Device-Only architectures (``split is None``), collate → run → split,
    and the wire shorthands ``device_fn`` ships — a k-regular,
    destination-sorted topology as the state's ``nbr`` table in uint16
    (frames of at most 65 536 nodes), its nodes renamed in
    Z-order when the edge segment samples nothing (``edge_samples``, see
    :func:`_edge_samples` and :func:`_z_ordered`), and ``pos`` only when
    the edge segment samples by knn, as the marker ``{"pos": "x"}`` when
    it is bitwise ``x``.  Every frame either edge callable takes is walked
    against the wire schema by :func:`_wire_state` first.
    """
    reads_pos = "knn" in edge_samples
    relabel = split is not None and not edge_samples

    def device_fn(batch: Batch) -> FrameState:
        x, state = run_device(batch)
        arrays: ArrayDict = {"x": x, "batch": state.batch}
        meta = {"num_graphs": state.num_graphs, "pooled": state.pooled,
                "finished": split is None}
        nbr = state.nbr
        if nbr is not None and x.shape[0] <= 1 << 16:
            # Sampled topologies have this shape, so the row of centres
            # never travels and each source fits 2 bytes: 41 KB instead of
            # 328 KB for a 1024-point, k=20 frame.
            arrays["nbr"] = nbr.astype(np.uint16)
        elif state.edge_index is not None:
            arrays["edge_index"] = state.edge_index
        pos = state.pos if reads_pos else None
        if pos is not None:
            if (pos.dtype == x.dtype and pos.shape == x.shape
                    and pos.tobytes() == x.tobytes()):
                meta[_POS_META_KEY] = _POS_IS_X
            else:
                arrays["pos"] = pos
        if relabel and "nbr" in arrays:
            # An edge segment that samples would draw its own graph over
            # the renamed nodes: a random one, or knn ties, differently.
            arrays = _z_ordered(arrays, batch.x if batch.pos is None
                                else batch.pos)
        return arrays, meta

    def resume(arrays: ArrayDict, meta: Dict) -> FrameState:
        logits, num_graphs = run_edge(arrays, meta)
        return {"logits": logits}, {"num_graphs": num_graphs}

    def edge_fn(arrays: ArrayDict, meta: Dict) -> FrameState:
        arrays = _wire_state(arrays, meta, finished=split is None)
        if split is None:  # finished on the device: x holds the logits
            return {"logits": arrays["x"]}, {"num_graphs": meta["num_graphs"]}
        return resume(arrays, meta)

    def batch_fn(requests: Sequence[FrameState]) -> List[FrameState]:
        if split is None:
            return [edge_fn(arrays, meta) for arrays, meta in requests]
        arrays, meta, graph_counts = collate_arrays(requests, dtype=dtype)
        return split_results(*resume(arrays, meta), graph_counts)

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

    Each request is an ``(arrays, meta)`` pair that
    ``ServingCallables.device_fn`` produced, walked against the wire schema
    (see :func:`_wire_state`) before anything is merged.  Node rows are
    concatenated, each frame's batch vector is shifted by the number of
    graphs collated before it and its edge index by the number of node
    rows, exactly like :meth:`~repro.graph.data.Batch.from_graphs` builds a
    disjoint union — so one resumed engine call treats the coalesced frames
    as independent graphs of a single batch.  Frames must agree on
    ``pooled`` and on the presence of a topology and of ``pos``
    (``ValueError`` otherwise; the engine then serves them frame by frame).

    Returns ``(arrays, meta, graph_counts)`` where ``graph_counts`` records
    how many graphs each frame contributed, in order — the bookkeeping
    :func:`split_results` needs to scatter results back per frame.
    ``dtype`` is the float dtype the collated ``x``/``pos`` arrays are cast
    to (the compiled runtime collates in its compute dtype so a float32
    micro-batch is never round-tripped through float64).  A batch of one
    collates nothing: its arrays come back as they are, cast only where the
    dtype differs, and may be read-only views of the request.
    """
    dtype = np.dtype(dtype)
    if not requests:
        raise ValueError("cannot collate an empty batch of frames")
    requests = [(_wire_state(arrays, meta), meta) for arrays, meta in requests]
    pooled = bool(requests[0][1].get("pooled", False))
    has_edges = "edge_index" in requests[0][0]
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
        if (("edge_index" in arrays) != has_edges
                or ("pos" in arrays) != has_pos):
            # Dropping the array for everyone would sample the frames that
            # sent ``pos`` on ``x`` instead: silently different logits.
            raise ValueError("cannot collate frames with and without "
                             "pos / edge_index into one batch")
        x = np.asarray(arrays["x"], dtype=dtype)
        num_graphs = int(meta["num_graphs"])
        xs.append(x)
        batches.append(_shifted(arrays["batch"], graph_offset))
        if has_edges:
            edges.append(_shifted(arrays["edge_index"], row_offset))
        if has_pos:
            poss.append(np.asarray(arrays["pos"], dtype=dtype))
        graph_counts.append(num_graphs)
        row_offset += int(x.shape[0])
        graph_offset += num_graphs
    collated: ArrayDict = {"x": _joined(xs, axis=0),
                           "batch": _joined(batches, axis=0)}
    if has_edges:
        collated["edge_index"] = _joined(edges, axis=1)
    if has_pos:
        collated["pos"] = _joined(poss, axis=0)
    meta = {"num_graphs": graph_offset, "pooled": pooled}
    return collated, meta, graph_counts


def _shifted(index: np.ndarray, offset: int) -> np.ndarray:
    """``index`` as int64 plus ``offset``, copied only when either changes it."""
    index = np.asarray(index, dtype=np.int64)
    return index + offset if offset else index


def _joined(parts: List[np.ndarray], axis: int) -> np.ndarray:
    """``np.concatenate`` that hands a lone frame's array back as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


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


@dataclass(frozen=True)
class ServingCallables:
    """The three engine callables of one zoo entry, sharing one model.

    ``device_fn`` runs the pre-``Communicate`` segment on the device,
    ``edge_fn`` resumes one frame on the edge, and ``batch_fn`` resumes a
    whole micro-batch in one call (collate → run → split, numerically
    equivalent to calling ``edge_fn`` per frame).  Frames of an
    architecture without a ``Communicate`` are finished on the device, and
    both edge callables echo their logits back.  When built for a zoo, all
    three are serialized through one per-entry lock because they share the
    same (non-thread-safe) :class:`ArchitectureModel`.

    ``plans`` holds the one compiled :class:`~repro.runtime.plan.
    InferencePlan` behind the callables (empty for eager callables) so
    owners can observe and release its buffer arenas — see
    :meth:`release_buffers`.
    """

    device_fn: Callable[[Batch], FrameState]
    edge_fn: Callable[[ArrayDict, Dict], FrameState]
    batch_fn: BatchedEdgeFn
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
                     entry_name: Optional[str] = None,
                     calibration_frames: Optional[Sequence] = None
                     ) -> ServingCallables:
    """The one internal builder every serving constructor routes through.

    ``config`` is a :class:`repro.serving.RuntimeConfig`; this is the single
    place its ``runtime``/``precision`` knobs are resolved into engine
    callables, so no public builder re-threads them.  All three callables
    run the entry's one compiled plan (arenas are per thread, so they never
    contend for buffers).  When ``lock`` is given, every callable is
    serialized through it — :class:`ArchitectureModel` is not thread-safe
    (its operations share one random generator), so nothing may run the
    *same* model concurrently.

    ``entry_name`` selects the per-entry precision from the config's
    ``precision_policy``; int8 compiles on the quantized path with a float32
    carrier.  For int8 entries, activation scales come from one
    calibration pass over ``calibration_frames`` — or, when none are given,
    over deterministic seeded synthetic frames, which is what keeps shard
    and cluster replicas (rebuilt from config alone) bit-identical to the
    parent process.
    """
    precision = config.precision_for(entry_name)
    quantized = precision == "int8"
    plan = calibration = None
    if quantized:
        from ..runtime import calibrate, synthetic_calibration_frames
        frames = calibration_frames
        if not frames:
            frames = synthetic_calibration_frames(model.in_dim, seed=0)
        calibration = calibrate(model, frames, segments=_SEGMENTS)
    if config.runtime != "eager":  # RuntimeConfig refuses eager + non-float64
        try:
            plan = compile_plan(model, segments=_SEGMENTS,
                                dtype=np.float32 if quantized else precision,
                                calibration=calibration)
        except PlanCompileError:
            if config.runtime == "compiled" or precision != "float64":
                raise  # no eager fallback can honor a non-float64 precision
    cut = model.first_communicate_index()
    runners, dtype = ((_eager_runners(model, cut), np.float64) if plan is None
                      else (_plan_runners(plan), plan.dtype))
    fns = _serving_fns(*runners, cut, dtype, _edge_samples(model, cut))
    if lock is not None:
        fns = [_serialized(fn, lock) for fn in fns]
    return ServingCallables(*fns, plans=() if plan is None else (plan,))


def _serialized(fn: Callable, lock: threading.Lock) -> Callable:
    def locked_fn(*args):
        with lock:
            return fn(*args)

    return locked_fn
