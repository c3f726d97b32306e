"""Compiled inference plans: autograd-free execution of an architecture.

:func:`compile_plan` walks an :class:`~repro.core.executor.ArchitectureModel`
once and emits, per execution segment, a flat list of raw-ndarray kernel
steps that bypass the :class:`~repro.nn.tensor.Tensor` machinery entirely:

* ``Combine`` and every classifier layer become a single fused
  linear+bias+activation kernel writing into an arena buffer;
* ``Aggregate`` becomes a fused EdgeConv over the ``(N, k)`` neighbour
  table of a k-regular, destination-sorted topology — the shape of every
  sampled graph — and gather → message build → segment ``reduceat``
  over any other edge list, specialized per reducer, with the scatter
  bookkeeping (:class:`~repro.runtime.kernels.SegmentInfo`) derived once
  per topology instead of once per scatter;
* ``Sample`` selects the same kNN neighbours as eager execution through
  :mod:`repro.graph.knn`'s one selection loop — as a neighbour table,
  without the nearest-first re-sort, on a sorted batch of equal-size
  graphs — and calls the same ``random_graph``; kNN topologies are cached
  *within a frame*: consecutive kNN samples over unchanged positions (or
  unchanged features) reuse the topology instead of recomputing it;
* ``Identity`` and ``Communicate`` are dropped at plan time;
* an edge list handed to a segment is held as its neighbour table when
  :func:`~repro.graph.knn.neighbour_table` accepts it; any other list is
  canonicalized — destination-sorted once — so every scatter hits the
  ``reduceat`` fast path.

Plans are for **inference only** (the serving hot path); training, search
and the simulator keep the eager autograd path.  Weights are resolved from
the underlying modules at call time, so a plan stays valid across
``load_state_dict`` — only the architecture is frozen at compile time.

Concurrency: buffer arenas are **per thread** (a segment executed from two
threads uses two independent arena instances), so concurrent executions of
one plan produce correct, un-aliased results — the same contract eager
callables had.  Note the memory consequence: arena footprint scales with
the number of threads that ever executed the segment, not with the number
of plans.  The serving layer additionally wraps each zoo entry's callables
in a per-entry lock (see
:func:`repro.serving.build_zoo_callables`) for the same reason the
eager path did: models are shared and ``Sample(random)`` draws from one
shared generator.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..gnn.operations import (AggregateOp, ClassifierOp, CombineOp,
                              CommunicateOp, GlobalPoolOp, IdentityOp,
                              Operation, SampleOp)
from ..graph.knn import (_TILE_BYTES, _equal_graph_size, edge_list,
                         knn_graph, neighbour_table, random_graph)
from ..nn.modules import Dropout, Identity, LeakyReLU, Linear, MLP, ReLU
from . import kernels
from .arena import BufferArena
from .kernels import (QMAX_INT8, SegmentInfo, _F32_EXACT,
                      canonical_edge_order)
from .quantize import (PRECISION_INT8, PlanCalibration, SegmentCalibration,
                       amax_to_scale, quantize_weight)


class PlanCompileError(NotImplementedError):
    """The model contains a construct the compiled runtime does not support.

    Callers requesting ``runtime="auto"`` fall back to eager execution on
    this error; ``runtime="compiled"`` propagates it.
    """


# ----------------------------------------------------------------------
# Run-time state threaded through a plan execution
# ----------------------------------------------------------------------
class PlanRun:
    """Mutable state of one plan execution (the raw twin of ``ExecState``).

    The topology is held in one form.  ``nbr`` is its ``(N, k)``
    neighbour table whenever it is k-regular and destination-sorted: every
    kNN sampled over equal-size graphs, and every edge list that
    :func:`~repro.graph.knn.neighbour_table` accepts, before or after
    canonicalization.  Otherwise ``nbr`` is ``None`` and the topology is
    an edge list, with the ``edge_info`` of its canonical order once an
    ``Aggregate`` has derived it.  :attr:`edge_index` expands a table into
    a list at most once, when asked.
    """

    __slots__ = ("x", "batch", "num_graphs", "nbr", "_edges", "edge_info",
                 "pos", "pooled", "topo_cache", "arena", "x_in_arena",
                 "x_scale", "x_qmax")

    def __init__(self, x: np.ndarray, batch: np.ndarray, num_graphs: int,
                 edge_index: Optional[np.ndarray], pos: Optional[np.ndarray],
                 pooled: bool, arena: BufferArena) -> None:
        self.x = x
        self.batch = batch
        self.num_graphs = num_graphs
        self.use_edges(edge_index)
        self.pos = pos
        self.pooled = pooled
        #: When ``x`` holds quantized integers: its per-tensor scale and the
        #: largest magnitude any element can reach (tracked exactly through
        #: the integer kernels; drives the f32-vs-f64 matmul exactness
        #: bound).  ``None`` whenever ``x`` is float.
        self.x_scale: Optional[float] = None
        self.x_qmax: Optional[int] = None
        #: Per-frame kNN topology cache (plan-time keys; see _SampleStep).
        self.topo_cache: dict = {}
        self.arena = arena
        #: True when ``x`` currently aliases an arena buffer — anything
        #: leaving the plan must then be copied out (cross-frame aliasing).
        self.x_in_arena = False

    @property
    def num_nodes(self) -> int:
        return int(self.x.shape[0])

    @property
    def edge_index(self) -> Optional[np.ndarray]:
        """The topology as a ``(2, E)`` edge list (``None`` without one)."""
        if self._edges is None and self.nbr is not None:
            self._edges = edge_list(self.nbr)
        return self._edges

    def use_edges(self, edge_index: Optional[np.ndarray]) -> None:
        """Make ``edge_index`` the topology, held as its table if it is one."""
        self.nbr = (None if edge_index is None
                    else neighbour_table(edge_index, self.num_nodes))
        self._edges = edge_index
        self.edge_info = None


def _ensure_edge_info(run: PlanRun) -> None:
    """Canonicalize an edge list that is no table (destination-sort) once
    per topology; a list the sort makes one is held as its table."""
    if run.nbr is None and run.edge_info is None:
        edges, info = canonical_edge_order(run.edge_index, run.num_nodes)
        run.use_edges(edges)
        run.edge_info = info


def _scratch_shape(run: PlanRun, k: int, features: int,
                   dtype) -> "tuple[int, int, int]":
    """The ``(k, rows, F)`` slot-major chunk scratch of the uniform EdgeConv
    kernels: as many node rows as fit ``_TILE_BYTES``, at least one."""
    row_bytes = k * max(features, 1) * np.dtype(dtype).itemsize
    return k, max(1, min(_TILE_BYTES // row_bytes, run.num_nodes)), features


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------
# A step that rewrites ``x`` names the arena slot of its output ``slot``; a
# slot is a pure function of the step's position in the architecture, so it
# doubles as the step's calibration key (see ``quantize.calibrate``).
class _ParamRef:
    """Call-time view of one parameter, cast to the plan dtype.

    The source array is re-read on every call (so ``load_state_dict`` after
    compilation is picked up); the cast is cached and invalidated by
    identity, so the steady state costs one attribute read and one ``is``
    check per call.
    """

    __slots__ = ("_param", "_dtype", "_src", "_cast")

    def __init__(self, param, dtype: np.dtype) -> None:
        self._param = param
        self._dtype = dtype
        self._src: Optional[np.ndarray] = None
        self._cast: Optional[np.ndarray] = None

    def get(self) -> Optional[np.ndarray]:
        if self._param is None:
            return None
        data = self._param.data
        if data.dtype == self._dtype:
            return data
        if data is not self._src:
            cast = data.astype(self._dtype)
            # Publish the cast before the source marker: a concurrent reader
            # that sees the new ``_src`` must also see its matching cast.
            self._cast = cast
            self._src = data
            return cast
        return self._cast


class _LinearStep:
    """Fused ``activation(x @ W + b)`` (Combine ops and classifier layers)."""

    __slots__ = ("weight", "bias", "out_features", "activation", "slope",
                 "slot")

    def __init__(self, linear: Linear, dtype: np.dtype, slot: object,
                 activation: Optional[str] = None,
                 negative_slope: float = 0.2) -> None:
        self.weight = _ParamRef(linear.weight, dtype)
        self.bias = _ParamRef(linear.bias, dtype)
        self.out_features = linear.out_features
        self.activation = activation
        self.slope = negative_slope
        self.slot = slot

    def __call__(self, run: PlanRun) -> None:
        out = run.arena.take(self.slot, (run.x.shape[0], self.out_features),
                             run.x.dtype)
        kernels.fused_linear(run.x, self.weight.get(), self.bias.get(), out,
                             activation=self.activation,
                             negative_slope=self.slope)
        run.x = out
        run.x_in_arena = True


class _SampleStep:
    """(Re)build the graph topology, with per-frame kNN caching.

    The cache key is assigned at plan time from the feature *version* — a
    counter bumped by every step that rewrites ``x`` — so two kNN samples
    whose reference data provably did not change between them (positions are
    immutable within a segment; features unchanged when only identity-like
    steps sit in between) share one topology per frame.  Random sampling is
    never cached: eager execution redraws on every call, and the compiled
    step draws from the *same* generator object as the eager op — so every
    plan compiled from one model (per-frame, batched, full) and the eager
    model itself consume one shared stream, exactly like eager serving did.
    """

    __slots__ = ("function", "k", "x_version", "_rng")

    def __init__(self, op: SampleOp, x_version: int) -> None:
        self.function = op.spec.function
        self.k = int(op.spec.k)
        self.x_version = x_version
        self._rng = op._rng if self.function == "random" else None

    def __call__(self, run: PlanRun) -> None:
        if run.pooled:
            raise RuntimeError("cannot sample a graph after global pooling")
        if self.function == "knn":
            key = (("knn", self.k, "pos") if run.pos is not None
                   else ("knn", self.k, "x", self.x_version))
            cached = run.topo_cache.get(key)
            if cached is not None:
                run.nbr, run._edges, run.edge_info = cached
                return
            reference = run.pos if run.pos is not None else run.x
            per_graph = _equal_graph_size(run.batch, run.num_graphs)
            if per_graph is not None:
                run.nbr, run._edges, run.edge_info = kernels.knn_edges_uniform(
                    reference, self.k, run.num_graphs, per_graph), None, None
            else:
                run.use_edges(knn_graph(reference, self.k, batch=run.batch))
        elif self.function == "random":
            run.use_edges(random_graph(run.num_nodes, self.k, rng=self._rng,
                                       batch=run.batch))
        else:
            raise ValueError(f"unknown sample function {self.function!r}")
        # A sampled list is k-regular, and destination-sorted unless the
        # batch vector is not: sorting makes it a table then.
        _ensure_edge_info(run)
        if self.function == "knn":
            run.topo_cache[key] = (run.nbr, run._edges, run.edge_info)


class _AggregateStep:
    """Edge convolution: gather → ``[x_i, x_j - x_i]`` → segment reduce."""

    __slots__ = ("reduce", "msg_slot", "slot")

    def __init__(self, reduce: str, msg_slot: object, slot: object) -> None:
        if reduce not in ("add", "sum", "mean", "max"):
            raise PlanCompileError(f"unsupported aggregate reducer {reduce!r}")
        self.reduce = reduce
        self.msg_slot = msg_slot
        self.slot = slot

    def __call__(self, run: PlanRun) -> None:
        self._check(run)
        self._edgeconv(run, run.x, self.msg_slot, self.slot)

    @staticmethod
    def _check(run: PlanRun) -> None:
        if run.nbr is None and (run.edge_index is None
                                or run.edge_index.size == 0):
            raise RuntimeError("aggregate requires an existing graph structure")
        if run.pooled:
            raise RuntimeError("cannot aggregate after global pooling")
        _ensure_edge_info(run)

    def _edgeconv(self, run: PlanRun, x: np.ndarray, msg_slot: object,
                  out_slot: object) -> None:
        """Float EdgeConv of ``x`` over the run's topology, into ``run.x``."""
        features = x.shape[1]
        out = run.arena.take(out_slot, (run.num_nodes, 2 * features), x.dtype)
        if run.nbr is not None:
            k = run.nbr.shape[1]
            scratch = run.arena.take(
                msg_slot, _scratch_shape(run, k, features, x.dtype), x.dtype)
            kernels.edgeconv_uniform(x, run.nbr, k, self.reduce, scratch, out)
        else:
            src, dst = run.edge_index
            messages = run.arena.take(msg_slot, (src.shape[0], 2 * features),
                                      x.dtype)
            kernels.edge_messages(x, src, dst, messages)
            kernels.segment_reduce(messages, dst, run.edge_info, self.reduce,
                                   out)
        run.x = out
        run.x_in_arena = True


class _GlobalPoolStep:
    """Pool node features per graph (sum / mean / max / max||mean)."""

    __slots__ = ("mode", "slot", "scratch_slot")

    def __init__(self, mode: str, slot: object, scratch_slot: object) -> None:
        if mode not in ("sum", "add", "mean", "max", "max||mean", "maxmean"):
            raise PlanCompileError(f"unsupported global pooling mode {mode!r}")
        self.mode = mode
        self.slot = slot
        self.scratch_slot = scratch_slot

    def __call__(self, run: PlanRun) -> None:
        if run.pooled:
            raise RuntimeError("graph is already pooled")
        _pool_into(run, self.mode, self.slot, self.scratch_slot)


def _finish_pool(run: PlanRun, out: np.ndarray, num_graphs: int) -> None:
    """Install pooled features and reset per-node state (shared pool epilogue)."""
    run.x = out
    run.x_in_arena = True
    run.x_scale = None
    run.x_qmax = None
    run.batch = np.arange(num_graphs, dtype=np.int64)
    run.use_edges(None)
    run.pos = None
    run.pooled = True


def _pool_into(run: PlanRun, mode: str, slot: object,
               scratch_slot: object) -> None:
    """Shared pooling kernel (GlobalPool step and classifier defensive pool).

    Pooling is where quantized features re-enter float: uniform batch grids
    reduce in integer arithmetic (int64 scratch, so sums can never overflow)
    and dequantize the tiny per-graph result; ragged batches dequantize
    first and pool like float input.  A uniform grid is a batch vector of
    ``num_graphs`` equal runs of the ids in order (``_equal_graph_size``).
    """
    num_graphs, features = run.num_graphs, run.x.shape[1]
    per_graph = _equal_graph_size(run.batch, num_graphs)
    info = (None if per_graph is not None
            else SegmentInfo.from_index(run.batch, num_graphs))
    if run.x.dtype.kind in "iu":
        if per_graph is not None:
            cols = 2 * features if mode in ("max||mean", "maxmean") else features
            out = run.arena.take(slot, (num_graphs, cols), np.float32)
            scratch = run.arena.take(scratch_slot, (num_graphs, features),
                                     np.int64)
            kernels.quant_pool_uniform(run.x, num_graphs, per_graph, mode,
                                       run.x_scale, scratch, out)
            _finish_pool(run, out, num_graphs)
            return
        deq = run.arena.take((slot, "deq"), run.x.shape, np.float32)
        kernels.dequantize_array(run.x, run.x_scale, deq)
        run.x = deq
    grouped = (run.x.reshape(num_graphs, per_graph, features)
               if per_graph is not None else None)
    if mode in ("max||mean", "maxmean"):
        out = run.arena.take(slot, (num_graphs, 2 * features), run.x.dtype)
        if grouped is not None:
            kernels.uniform_segment_reduce(grouped, "max", out[:, :features])
            kernels.uniform_segment_reduce(grouped, "mean", out[:, features:])
        else:
            scratch = run.arena.take(scratch_slot, (num_graphs, features),
                                     run.x.dtype)
            kernels.segment_reduce(run.x, run.batch, info, "max", scratch)
            out[:, :features] = scratch
            kernels.segment_reduce(run.x, run.batch, info, "mean", scratch)
            out[:, features:] = scratch
    else:
        out = run.arena.take(slot, (num_graphs, features), run.x.dtype)
        if grouped is not None:
            kernels.uniform_segment_reduce(
                grouped, "sum" if mode == "add" else mode, out)
        else:
            kernels.segment_reduce(run.x, run.batch, info, mode, out)
    _finish_pool(run, out, num_graphs)


class _EnsurePooledStep:
    """Defensive mean-pool before the classifier, mirroring eager semantics."""

    __slots__ = ("slot", "scratch_slot")

    def __init__(self, slot: object, scratch_slot: object) -> None:
        self.slot = slot
        self.scratch_slot = scratch_slot

    def __call__(self, run: PlanRun) -> None:
        if not run.pooled:
            _pool_into(run, "mean", self.slot, self.scratch_slot)


# ----------------------------------------------------------------------
# Quantized (int8) plan steps
# ----------------------------------------------------------------------
# An int8 segment replaces the entry, linear and aggregate steps; the pools
# and Sample are the float plan's own steps (pooling is where integers
# re-enter float, see ``_pool_into``).  Two extra pieces of state thread
# through the run: ``run.x_scale`` (the per-tensor scale of the current
# integer ``x``) and ``run.x_qmax`` (the largest magnitude any element can
# hold, tracked *exactly* through the integer kernels — it decides when the
# BLAS widening trick needs float64 to stay exact).
# Activation scales are static, fixed at compile time from a
# ``SegmentCalibration``; weight scales are per output channel, derived
# lazily per parameter version.  See ``docs/architecture.md`` for the
# scheme.

class _QuantParamRef:
    """Call-time quantized view of a weight matrix (per-channel scales).

    Mirrors :class:`_ParamRef`: re-quantizes only when the parameter's array
    identity changes, so ``load_state_dict`` after compilation re-quantizes
    automatically and the steady state is one ``is`` check per call.
    Returns ``(w32, w64, scales)`` — the float32 and float64 widenings of
    the int8 weights (the matmul picks whichever keeps its accumulation
    exact), and the float32 per-output-channel scales.
    """

    __slots__ = ("_param", "_src", "_packed")

    def __init__(self, param) -> None:
        self._param = param
        self._src: Optional[np.ndarray] = None
        self._packed = None

    def get(self):
        data = self._param.data
        if data is not self._src:
            wq, scales = quantize_weight(data)
            packed = (wq.astype(np.float32), wq.astype(np.float64), scales)
            # Publish the pack before the source marker (same memory-order
            # reasoning as _ParamRef).
            self._packed = packed
            self._src = data
            return packed
        return self._packed


class _QuantizeStep:
    """Quantize the segment's float input once, at entry (static scale)."""

    __slots__ = ("scale", "slot")

    def __init__(self, scale: float, slot: object) -> None:
        self.scale = scale
        self.slot = slot

    def __call__(self, run: PlanRun) -> None:
        x = run.x
        if x.dtype.kind in "iu":
            return  # already quantized upstream
        outq = run.arena.take(self.slot, x.shape, np.int8)
        scratch = run.arena.take((self.slot, "scratch"), x.shape, np.float32)
        kernels.quantize_array(x, self.scale, scratch, outq)
        run.x = outq
        run.x_in_arena = True
        run.x_scale = self.scale
        run.x_qmax = QMAX_INT8


class _QuantLinearStep:
    """Fused quantized linear: (quantize →) int matmul → dequant(+bias, act).

    Float inputs (segment entry states that skipped the entry quantize,
    pooled features) are first quantized with the calibrated ``in_scale``;
    integer inputs use the scale they arrived with.  The output is
    requantized to the calibrated ``out_scale`` — except for a segment's
    final linear (``requantize=False``), which emits float32 logits.
    """

    __slots__ = ("qweight", "bias", "zero_bias", "out_features", "activation",
                 "slope", "in_scale", "out_scale", "requantize", "slot")

    def __init__(self, linear: Linear, slot: object,
                 activation: Optional[str], negative_slope: float,
                 in_amax: float, out_amax: float) -> None:
        self.qweight = _QuantParamRef(linear.weight)
        self.bias = _ParamRef(linear.bias, np.float32)
        self.zero_bias = np.zeros(linear.out_features, dtype=np.float32)
        self.out_features = linear.out_features
        self.activation = activation
        self.slope = negative_slope
        self.in_scale = amax_to_scale(in_amax)
        self.out_scale = amax_to_scale(out_amax)
        self.requantize = True
        self.slot = slot

    def __call__(self, run: PlanRun) -> None:
        x = run.x
        if x.dtype.kind in "iu":
            xq, x_scale = x, run.x_scale
            qmax = run.x_qmax if run.x_qmax is not None else QMAX_INT8
        else:
            xq = run.arena.take((self.slot, "inq"), x.shape, np.int8)
            scratch = run.arena.take((self.slot, "inq-scratch"), x.shape,
                                     np.float32)
            kernels.quantize_array(x, self.in_scale, scratch, xq)
            x_scale, qmax = self.in_scale, QMAX_INT8
        w32, w64, w_scale = self.qweight.get()
        bias = self.bias.get()
        if bias is None:
            bias = self.zero_bias
        rows, in_features = xq.shape
        # Exactness bound of the BLAS widening trick: every partial sum is
        # an integer below qmax·127·K; float32 holds those exactly to 2^24,
        # beyond that the accumulation must widen to float64 (exact to 2^53).
        use_f64 = qmax * QMAX_INT8 * in_features >= _F32_EXACT
        fdtype = np.float64 if use_f64 else np.float32
        xcast = run.arena.take((self.slot, "xcast"), xq.shape, fdtype)
        acc = run.arena.take((self.slot, "acc"), (rows, self.out_features),
                             fdtype)
        out32 = (run.arena.take((self.slot, "out32"),
                                (rows, self.out_features), np.float32)
                 if use_f64 else acc)
        outq = (run.arena.take((self.slot, "outq"),
                               (rows, self.out_features), np.int8)
                if self.requantize else None)
        run.x = kernels.quant_fused_linear(
            xq, w64 if use_f64 else w32, w_scale, x_scale, bias, xcast, acc,
            self.activation, self.slope,
            self.out_scale if self.requantize else None, outq, out32)
        run.x_in_arena = True
        if self.requantize:
            run.x_scale = self.out_scale
            run.x_qmax = QMAX_INT8
        else:
            run.x_scale = None
            run.x_qmax = None


class _QuantAggregateStep(_AggregateStep):
    """EdgeConv over quantized features, integer-exact on uniform topologies.

    The k-regular fast path reduces gathered int8 rows directly (see
    :func:`~repro.runtime.kernels.quant_edgeconv_uniform`) — no rounding at
    all; the output scale/qmax transform in closed form (``max``: scale
    unchanged, qmax doubles; ``add``: scale unchanged, qmax → 2k·qmax;
    ``mean``: 1/k folds into the scale).  Ragged topologies (and float
    inputs) fall back to the float kernels and requantize to the calibrated
    ``out_amax``.
    """

    __slots__ = ("out_amax",)

    def __init__(self, reduce: str, msg_slot: object, slot: object,
                 out_amax: float) -> None:
        super().__init__(reduce, msg_slot, slot)
        self.out_amax = out_amax

    def __call__(self, run: PlanRun) -> None:
        self._check(run)
        x = run.x
        if run.nbr is None or x.dtype.kind not in "iu":
            self._float_fallback(run)
            return
        k, features = run.nbr.shape[1], x.shape[1]
        qmax = run.x_qmax if run.x_qmax is not None else QMAX_INT8
        if self.reduce == "max":
            bound = 2 * qmax
            new_scale = run.x_scale
        else:
            bound = 2 * k * qmax
            new_scale = (run.x_scale if self.reduce in ("add", "sum")
                         else run.x_scale / k)
        if bound > np.iinfo(np.int32).max:
            self._float_fallback(run)
            return
        out_dtype = (np.int16 if bound <= np.iinfo(np.int16).max
                     else np.int32)
        out = run.arena.take(self.slot, (run.num_nodes, 2 * features),
                             out_dtype)
        scratch = run.arena.take(
            self.msg_slot, _scratch_shape(run, k, features, x.dtype), x.dtype)
        kernels.quant_edgeconv_uniform(x, run.nbr, k, self.reduce, scratch,
                                       out)
        run.x = out
        run.x_in_arena = True
        run.x_scale = new_scale
        run.x_qmax = bound

    def _float_fallback(self, run: PlanRun) -> None:
        """Ragged topology / float input: float arithmetic, then requantize."""
        x = run.x
        if x.dtype.kind in "iu":
            deq = run.arena.take((self.slot, "deq"), x.shape, np.float32)
            kernels.dequantize_array(x, run.x_scale, deq)
            x = deq
        # Slots of their own: the float buffers must never retype the
        # integer buffers of the fast path (frames may alternate).
        self._edgeconv(run, x, (self.msg_slot, "f"), (self.slot, "f"))
        scale = amax_to_scale(self.out_amax)
        outq = run.arena.take((self.slot, "q"), run.x.shape, np.int8)
        kernels.quantize_array(run.x, scale, run.x, outq)
        run.x = outq
        run.x_scale = scale
        run.x_qmax = QMAX_INT8


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class PlanSegment:
    """A compiled, contiguous run of operations with per-thread buffer arenas."""

    def __init__(self, steps: List[Callable[[PlanRun], None]],
                 dtype: np.dtype) -> None:
        self.steps = steps
        self.dtype = dtype
        self._arenas = threading.local()
        # Weak registry of every arena ever handed out, so the segment can
        # enumerate and release them without keeping dead threads' arenas
        # alive: the thread-local slot holds the only strong reference, and
        # a thread exiting drops it — the registry must not resurrect it.
        self._arena_registry: List["weakref.ref[BufferArena]"] = []
        self._registry_lock = threading.Lock()

    @property
    def arena(self) -> BufferArena:
        """The calling thread's buffer arena (created lazily per thread).

        Thread-local arenas make concurrent executions of the same segment
        safe without a lock: two server handler threads each reuse their own
        buffers instead of corrupting each other's in-flight frames.
        """
        arena = getattr(self._arenas, "arena", None)
        if arena is None:
            arena = BufferArena()
            self._arenas.arena = arena
            with self._registry_lock:
                self._arena_registry = [ref for ref in self._arena_registry
                                        if ref() is not None]
                self._arena_registry.append(weakref.ref(arena))
        return arena

    def arenas(self) -> List[BufferArena]:
        """Every live arena of this segment (one per thread that executed it).

        Arenas of threads that already exited are garbage-collected with the
        thread (the registry holds only weak references) and do not appear.
        """
        with self._registry_lock:
            live = [ref() for ref in self._arena_registry]
            self._arena_registry = [
                ref for ref, arena in zip(self._arena_registry, live)
                if arena is not None]
        return [arena for arena in live if arena is not None]

    def release_buffers(self) -> int:
        """Drop every pooled buffer of every live arena; returns bytes freed.

        The explicit teardown hook for long-lived plans: without it, the
        buffers of every thread that ever executed this segment stay pooled
        for as long as the plan (and the thread) lives — e.g. a retired
        serving snapshot would keep batch-shaped buffers of every batcher
        thread alive.  Releasing is safe while a frame is still executing:
        the frame's in-flight buffers stay alive through its own references,
        and the next ``take`` simply reallocates.
        """
        freed = 0
        for arena in self.arenas():
            freed += arena.nbytes()
            arena.clear()
        return freed

    def execute(self, x: np.ndarray, batch: np.ndarray, num_graphs: int,
                edge_index: Optional[np.ndarray] = None,
                pos: Optional[np.ndarray] = None,
                pooled: bool = False,
                observer: Optional[Callable] = None) -> PlanRun:
        """Run every step over the given state; returns the final run state.

        The returned state's ``x`` may alias an arena buffer (checked via
        ``x_in_arena``); use :meth:`execute_out` when the result must survive
        the next call.  ``observer(step, run)`` is invoked after every step —
        the calibration hook (see :func:`repro.runtime.quantize.calibrate`);
        leave it ``None`` on the serving hot path.
        """
        x = np.asarray(x)
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        batch = np.asarray(batch, dtype=np.int64)
        if pos is not None:
            pos = np.asarray(pos)
            if pos.dtype != self.dtype:
                pos = pos.astype(self.dtype)
        if edge_index is not None:
            edge_index = np.asarray(edge_index, dtype=np.int64)
        run = PlanRun(x, batch, int(num_graphs), edge_index, pos, bool(pooled),
                      self.arena)
        if observer is None:
            for step in self.steps:
                step(run)
        else:
            for step in self.steps:
                step(run)
                observer(step, run)
        return run

    def execute_out(self, x: np.ndarray, batch: np.ndarray, num_graphs: int,
                    edge_index: Optional[np.ndarray] = None,
                    pos: Optional[np.ndarray] = None,
                    pooled: bool = False) -> PlanRun:
        """:meth:`execute`, with the output detached from the arena.

        The final ``x`` is copied out when (and only when) it aliases an
        arena buffer, so results handed to callers can never be overwritten
        by the next frame — the no-cross-frame-aliasing guarantee the serving
        engine relies on.  Quantized state never leaves a plan: a segment
        ending on integer features dequantizes them to float32 here, so the
        wire/collate/snapshot contracts are precision-agnostic.
        """
        run = self.execute(x, batch, num_graphs, edge_index=edge_index,
                           pos=pos, pooled=pooled)
        if run.x.dtype.kind in "iu" and run.x_scale is not None:
            out = np.empty(run.x.shape, dtype=np.float32)
            kernels.dequantize_array(run.x, run.x_scale, out)
            run.x = out
            run.x_in_arena = False
            run.x_scale = None
            run.x_qmax = None
        elif run.x_in_arena:
            run.x = run.x.copy()
            run.x_in_arena = False
        return run


class _FloatSteps:
    """Step factory of a float segment: every node is a float kernel step."""

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype

    def linear(self, linear: Linear, slot: object, activation: Optional[str],
               slope: float = 0.2) -> _LinearStep:
        return _LinearStep(linear, self.dtype, slot, activation, slope)

    def aggregate(self, reduce: str, msg_slot: object,
                  slot: object) -> _AggregateStep:
        return _AggregateStep(reduce, msg_slot, slot)

    def follow(self, step):
        """A step both precisions run as is (the pools)."""
        return step


class _Int8Steps:
    """Step factory of an int8 segment.

    Carries the segment's calibration and the running activation ``amax``:
    each step's calibrated output range, looked up under the slot the walk
    hands in, becomes the next step's input scale.  The float plan that
    observed those ranges came out of the same walk, so the keys align by
    construction.  A key the float plan never recorded inherits the running
    amax — a safe upper-bound guess that keeps compilation total.
    """

    def __init__(self, calib: SegmentCalibration) -> None:
        self.calib = calib
        self.amax = calib.input_amax

    def _advance(self, key: object, default: Optional[float] = None) -> float:
        self.amax = self.calib.step_amax.get(
            key, self.amax if default is None else default)
        return self.amax

    def linear(self, linear: Linear, slot: object, activation: Optional[str],
               slope: float = 0.2) -> _QuantLinearStep:
        in_amax = self.amax
        return _QuantLinearStep(linear, slot, activation, slope, in_amax,
                                self._advance(slot))

    def aggregate(self, reduce: str, msg_slot: object,
                  slot: object) -> _QuantAggregateStep:
        # Un-calibrated guess: a message ``[x_i, x_j - x_i]`` is within 2·amax.
        return _QuantAggregateStep(reduce, msg_slot, slot,
                                   self._advance(slot, 2 * self.amax))

    def follow(self, step):
        self._advance(step.slot)
        return step


def _compile_mlp(mlp: MLP, make, slot_prefix: str
                 ) -> List[Callable[[PlanRun], None]]:
    """Compile an eval-mode MLP into fused linear steps.

    Supports the layer vocabulary that appears in architecture models
    (Linear / ReLU / LeakyReLU / Identity / Dropout in eval mode or with
    ``p=0``), with every activation fused into the Linear before it, as
    :class:`~repro.nn.modules.MLP` builds them.  Anything that would make
    eager execution non-deterministic or stateful — an *active* Dropout
    (``p>0`` and ``training=True``), BatchNorm, LayerNorm — or an
    activation with no Linear to fuse into is not compiled; callers fall
    back to eager execution, which keeps the two runtimes observably
    equivalent.
    """
    steps: List[Callable[[PlanRun], None]] = []
    pending: Optional[Linear] = None
    index = 0

    def flush(activation: Optional[str] = None, slope: float = 0.2) -> None:
        nonlocal pending, index
        if pending is not None:
            steps.append(make.linear(pending, (slot_prefix, index, "linear"),
                                     activation, slope))
            pending = None
        elif activation is not None:
            raise PlanCompileError(
                f"cannot compile a standalone {activation} activation")
        index += 1

    for layer in mlp.net:
        if isinstance(layer, Linear):
            flush()
            pending = layer
        elif isinstance(layer, ReLU):
            flush(activation="relu")
        elif isinstance(layer, LeakyReLU):
            flush(activation="leaky_relu", slope=layer.negative_slope)
        elif isinstance(layer, Dropout):
            if layer.p > 0 and layer.training:
                # Eager execution would apply random masks per frame here;
                # compiling it away would silently diverge from eager.
                raise PlanCompileError(
                    "cannot compile an active Dropout layer (p>0 in "
                    "training mode) — call model.eval() first")
            continue
        elif isinstance(layer, Identity):
            continue  # no-op
        else:
            raise PlanCompileError(
                f"cannot compile classifier layer {type(layer).__name__}")
    flush()
    return steps


def _compile_operation(operation: Operation, index: int, x_version: int,
                       make) -> "tuple[List[Callable[[PlanRun], None]], int]":
    """Compile one architecture operation; returns (steps, new x_version).

    ``make`` is the segment's step factory (:class:`_FloatSteps` or
    :class:`_Int8Steps`): the walk fixes which steps exist, their slots and
    their order; the factory only picks the class that realises each.
    """
    if isinstance(operation, (IdentityOp, CommunicateOp)):
        return [], x_version  # canonicalized away: no runtime cost at all
    if isinstance(operation, SampleOp):
        return [_SampleStep(operation, x_version)], x_version
    if isinstance(operation, AggregateOp):
        reduce = str(operation.spec.function)
        return [make.aggregate(reduce, (index, "msgs"), (index, "out"))], \
            x_version + 1
    if isinstance(operation, CombineOp):
        return [make.linear(operation.linear, (index, "linear"), "relu")], \
            x_version + 1
    if isinstance(operation, GlobalPoolOp):
        mode = str(operation.spec.function)
        return [make.follow(_GlobalPoolStep(mode, (index, "pool"),
                                            (index, "scratch")))], \
            x_version + 1
    if isinstance(operation, ClassifierOp):
        steps: List[Callable[[PlanRun], None]] = [
            make.follow(_EnsurePooledStep((index, "defensive-pool"),
                                          (index, "defensive-scratch")))]
        steps.extend(_compile_mlp(operation.mlp, make, f"classifier{index}"))
        return steps, x_version + 1
    raise PlanCompileError(
        f"cannot compile operation {type(operation).__name__}")


def _compile_segment(model, start: int, end: Optional[int],
                     include_classifier: bool, dtype: np.dtype,
                     calib: Optional[SegmentCalibration] = None
                     ) -> PlanSegment:
    """Compile operations ``start:end`` (int8 when ``calib`` is given)."""
    operations = list(model._operations[start:end])
    if include_classifier:
        operations.append(model.classifier)
    steps: List[Callable[[PlanRun], None]] = []
    if calib is None:
        make = _FloatSteps(dtype)
    else:
        make = _Int8Steps(calib)
        steps.append(_QuantizeStep(amax_to_scale(calib.input_amax),
                                   ("entry", "quantize")))
    x_version = 0
    for index, operation in enumerate(operations, start):
        op_steps, x_version = _compile_operation(operation, index, x_version,
                                                 make)
        steps.extend(op_steps)
    # An int8 segment's final linear emits float32 (logits for classifier
    # segments, wire states for device segments) instead of requantizing —
    # exits are float either way, so skip the lossy extra round trip.
    if steps and isinstance(steps[-1], _QuantLinearStep):
        steps[-1].requantize = False
    return PlanSegment(steps, dtype)


#: All compilable plan segments (the default for :func:`compile_plan`).
SEGMENTS = ("full", "device", "edge")


class InferencePlan:
    """Compiled form of one :class:`~repro.core.executor.ArchitectureModel`.

    Up to three independently-compiled segments (each with per-thread buffer
    arenas); ``segments`` selects which are built, so serving callables,
    which run only device and edge, don't carry a dead full step list:

    ``full``
        Every operation plus the classifier — direct inference.
    ``device``
        Operations before the first ``Communicate`` (``None`` split: the
        whole architecture including the classifier, matching the eager
        ``device_fn`` of a Device-Only deployment).
    ``edge``
        Operations after the first ``Communicate`` plus the classifier — the
        serving hot path the edge server executes per frame or per
        micro-batch.  (``None`` split: aliases ``full``; the serving edge
        callables of such an entry echo the device's logits and never run
        it.)
    """

    def __init__(self, model, dtype=np.float64,
                 segments: Sequence[str] = SEGMENTS,
                 calibration: Optional[PlanCalibration] = None) -> None:
        if not segments:
            raise ValueError(
                f"segments must name at least one of {SEGMENTS}")
        unknown = set(segments) - set(SEGMENTS)
        if unknown:
            raise ValueError(f"unknown plan segments {sorted(unknown)} "
                             f"(expected a subset of {SEGMENTS})")
        self.model = model
        self.dtype = np.dtype(dtype)
        if not np.issubdtype(self.dtype, np.floating):
            raise ValueError(f"plan dtype must be floating, got {self.dtype}")
        self.calibration = calibration
        #: ``"int8"`` for calibrated quantized plans, else the dtype name —
        #: the carrier ``dtype`` stays float either way (quantized segments
        #: take and emit float32 states).
        self.precision = (PRECISION_INT8 if calibration is not None
                          else self.dtype.name)
        self.split = model.first_communicate_index()
        self.full = self.device = self.edge = None

        def calib_for(name: str) -> Optional[SegmentCalibration]:
            return None if calibration is None else calibration.segment(name)

        if self.split is None:
            # Everything aliases the full architecture: device runs it all.
            self.full = self.device = self.edge = _compile_segment(
                model, 0, None, True, self.dtype, calib_for("full"))
            return
        if "full" in segments:
            self.full = _compile_segment(model, 0, None, True, self.dtype,
                                         calib_for("full"))
        if "device" in segments:
            self.device = _compile_segment(model, 0, self.split, False,
                                           self.dtype, calib_for("device"))
        if "edge" in segments:
            self.edge = _compile_segment(model, self.split + 1, None, True,
                                         self.dtype, calib_for("edge"))

    # ------------------------------------------------------------------
    def segments(self) -> List[PlanSegment]:
        """The distinct compiled segments of this plan (aliases deduplicated)."""
        unique: List[PlanSegment] = []
        for segment in (self.full, self.device, self.edge):
            if segment is not None and all(segment is not seen
                                           for seen in unique):
                unique.append(segment)
        return unique

    def release_buffers(self) -> int:
        """Release every segment's pooled arena buffers; returns bytes freed.

        Wired into serving-snapshot teardown: a plan retired from the
        serving table frees its steady-state buffers immediately instead of
        holding them until the last executing thread dies.  The plan stays
        usable — the next execution just reallocates its buffers.
        """
        return sum(segment.release_buffers() for segment in self.segments())

    def arena_nbytes(self) -> int:
        """Total bytes currently pooled across all segments and threads."""
        return sum(arena.nbytes() for segment in self.segments()
                   for arena in segment.arenas())

    # ------------------------------------------------------------------
    def forward(self, batch) -> np.ndarray:
        """Full autograd-free forward pass; returns per-graph logits."""
        if self.full is None:
            raise RuntimeError(
                "this plan was compiled without its 'full' segment")
        run = self.full.execute_out(batch.x, batch.batch, batch.num_graphs,
                                    edge_index=batch.edge_index,
                                    pos=batch.pos)
        return run.x

    __call__ = forward


def compile_plan(model, dtype=np.float64,
                 segments: Sequence[str] = SEGMENTS,
                 calibration: Optional[PlanCalibration] = None
                 ) -> InferencePlan:
    """Compile ``model`` into an :class:`InferencePlan`.

    ``segments`` restricts compilation to the execution segments the caller
    will actually run (compile errors are only raised for operations inside
    the requested segments).  Raises :class:`PlanCompileError` when a
    requested segment contains a construct the compiled runtime does not
    support (callers requesting ``runtime="auto"`` then fall back to eager
    execution).

    Passing a :class:`~repro.runtime.quantize.PlanCalibration` switches the
    requested segments to the int8 quantized path; ``dtype`` then only sets
    the float carrier (use float32) — quantized segments still take and
    emit float32 states, so every serving contract above the plan is
    unchanged.
    """
    return InferencePlan(model, dtype=dtype, segments=segments,
                         calibration=calibration)
