"""Raw-ndarray kernels of the compiled inference runtime.

These functions implement exactly the arithmetic of the eager operations in
:mod:`repro.nn.ops` / :mod:`repro.gnn.operations`, but on plain numpy arrays
with caller-provided ``out=`` buffers — no :class:`~repro.nn.tensor.Tensor`
wrappers, no backward closures, no per-op allocations.  Where the eager path
re-derives bookkeeping on every call (is the scatter index sorted? where do
its segments start? which segments are empty?), the compiled plan reads a
k-regular topology as its ``(N, k)`` neighbour table (:func:`edgeconv_uniform`)
and derives the bookkeeping of any other edge list once, as a
:class:`SegmentInfo` reused for every scatter over that topology.

Numerical contract: for ``float64`` inputs the kernels reproduce the eager
results exactly whenever the eager path takes its ``reduceat`` fast path
(destination-sorted indices), and within summation-reordering tolerance
(~1e-15 relative) otherwise — the plan canonicalizes unsorted edge lists to
destination order, which the eager fallback (`np.add.at`) does not.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..graph.knn import _TILE_BYTES, _knn_edges


# ----------------------------------------------------------------------
# Segment bookkeeping
# ----------------------------------------------------------------------
@dataclass
class SegmentInfo:
    """Pre-derived scatter bookkeeping for one index vector.

    ``is_sorted`` means the index is non-decreasing and in
    ``[0, num_segments)`` — the ``reduceat`` fast-path precondition.  For a
    sorted index, ``starts`` holds the first source row of every segment,
    ``num_valid`` the number of segments starting before the end of the
    source (the sorted suffix of out-of-data segments is empty by
    construction), and ``counts`` the per-segment element counts.  For an
    unsorted index only ``is_sorted=False`` is meaningful and the reduction
    kernels fall back to element-wise ``ufunc.at``, mirroring eager.
    """

    is_sorted: bool
    num_segments: int
    starts: Optional[np.ndarray] = None
    num_valid: int = 0
    counts: Optional[np.ndarray] = None
    has_empty: bool = False

    @classmethod
    def from_index(cls, index: np.ndarray, num_segments: int) -> "SegmentInfo":
        """Derive the bookkeeping for ``index`` (one scan, reused thereafter)."""
        index = np.asarray(index, dtype=np.int64)
        if index.shape[0] == 0 or num_segments == 0:
            return cls(is_sorted=False, num_segments=num_segments)
        if (np.any(np.diff(index) < 0) or index[0] < 0
                or index[-1] >= num_segments):
            return cls(is_sorted=False, num_segments=num_segments)
        starts = np.searchsorted(index, np.arange(num_segments))
        counts = np.bincount(index, minlength=num_segments)
        return cls(is_sorted=True, num_segments=num_segments, starts=starts,
                   num_valid=int(np.count_nonzero(starts < index.shape[0])),
                   counts=counts, has_empty=bool(counts.min() == 0))


def canonical_edge_order(edge_index: np.ndarray,
                         num_nodes: int) -> "tuple[np.ndarray, SegmentInfo]":
    """Destination-sort an edge list so scatters always hit the fast path.

    Returns the (possibly re-ordered) edge index together with its
    :class:`SegmentInfo`.  Already-sorted edge lists pass through
    untouched; anything else is stably sorted by destination once, after
    which every scatter over the topology reduces via ``reduceat`` instead
    of element-wise ``ufunc.at``.  The plan calls it only for a list that
    is not a neighbour table as it stands
    (:func:`~repro.graph.knn.neighbour_table`): a sampled topology over an
    unsorted batch, or an irregular one.
    """
    info = SegmentInfo.from_index(edge_index[1], num_nodes)
    if info.is_sorted:
        return edge_index, info
    order = np.argsort(edge_index[1], kind="stable")
    edge_index = np.ascontiguousarray(edge_index[:, order])
    return edge_index, SegmentInfo.from_index(edge_index[1], num_nodes)


# ----------------------------------------------------------------------
# Segment reductions
# ----------------------------------------------------------------------
def segment_sum(src: np.ndarray, index: np.ndarray, info: SegmentInfo,
                out: np.ndarray) -> np.ndarray:
    """Per-segment sum of rows of ``src`` into ``out`` (fully overwritten)."""
    if info.is_sorted:
        if info.num_valid:
            np.add.reduceat(src, info.starts[:info.num_valid], axis=0,
                            out=out[:info.num_valid])
        if info.num_valid < info.num_segments:
            out[info.num_valid:] = 0.0
        if info.has_empty:
            # reduceat yields src[starts[i]] for an empty segment squeezed
            # between populated ones; zero them like the eager fallback.
            out[info.counts == 0] = 0.0
        return out
    out[:] = 0.0
    if src.shape[0]:
        np.add.at(out, index, src)
    return out


def segment_mean(src: np.ndarray, index: np.ndarray, info: SegmentInfo,
                 out: np.ndarray) -> np.ndarray:
    """Per-segment mean; empty segments produce zeros (eager semantics)."""
    segment_sum(src, index, info, out)
    if info.counts is not None:
        counts = info.counts
    else:
        counts = np.bincount(np.asarray(index, dtype=np.int64),
                             minlength=info.num_segments)
    divisor = np.maximum(counts, 1).astype(out.dtype)
    out /= divisor.reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def segment_max(src: np.ndarray, index: np.ndarray, info: SegmentInfo,
                out: np.ndarray) -> np.ndarray:
    """Per-segment maximum; empty segments produce zeros (eager semantics)."""
    if info.is_sorted:
        if info.num_valid:
            np.maximum.reduceat(src, info.starts[:info.num_valid], axis=0,
                                out=out[:info.num_valid])
        if info.num_valid < info.num_segments:
            out[info.num_valid:] = 0.0
        if info.has_empty:
            out[info.counts == 0] = 0.0
        return out
    out[:] = -np.inf
    if src.shape[0]:
        np.maximum.at(out, index, src)
    np.copyto(out, 0.0, where=~np.isfinite(out))
    return out


def segment_reduce(src: np.ndarray, index: np.ndarray, info: SegmentInfo,
                   reduce: str, out: np.ndarray) -> np.ndarray:
    """Dispatch to the sum/mean/max segment kernels (eager ``scatter`` names)."""
    if reduce in ("add", "sum"):
        return segment_sum(src, index, info, out)
    if reduce == "mean":
        return segment_mean(src, index, info, out)
    if reduce == "max":
        return segment_max(src, index, info, out)
    raise ValueError(f"unknown scatter reduction: {reduce!r}")


def uniform_segment_reduce(grouped: np.ndarray, reduce: str,
                           out: np.ndarray) -> np.ndarray:
    """Reduce a ``(num_segments, k, F)`` grid along ``k`` into ``out``.

    The reshape form of a sorted k-regular segment reduction: numpy's axis
    reductions are substantially faster than ``reduceat`` (especially for
    max) and produce the same values — exactly for ``max``, within summation
    reordering (~1e-15 relative) for ``add``/``mean``.
    """
    if reduce in ("add", "sum"):
        grouped.sum(axis=1, out=out)
    elif reduce == "mean":
        grouped.mean(axis=1, out=out)
    elif reduce == "max":
        grouped.max(axis=1, out=out)
    else:
        raise ValueError(f"unknown scatter reduction: {reduce!r}")
    return out


def _slot_major_chunks(x: np.ndarray, src: np.ndarray, k: int,
                      scratch: np.ndarray):
    """Gather ``x`` slot-major, one chunk of nodes at a time.

    Yields ``(start, stop, grid)`` where ``grid`` is a C-contiguous
    ``(k, stop - start, F)`` view of ``scratch`` whose slab ``j`` holds the
    j-th neighbour of every node in ``[start, stop)``.  ``src`` holds node
    i's ``k`` sources at ``src.reshape(N, k)[i]``: the plan passes its
    ``(N, k)`` neighbour table, whose transpose is the ``(k, N)`` slot
    table.  ``scratch``'s ``(k, rows, F)`` shape sets the chunk size.

    The gather uses ``mode="wrap"``: with the default ``"raise"``, numpy
    gathers into a freshly allocated temporary and copies it into the
    scratch, a whole scratch per chunk.  For every index in ``[-N, N)`` — the range
    ``"raise"`` accepts — ``"wrap"`` picks the same row, so the caller
    range-checks ``src`` instead: every table the plan holds comes from the
    kNN selection loop or passed :func:`~repro.graph.knn.neighbour_table`.
    """
    num_nodes, features = x.shape
    slots = src.reshape(num_nodes, k).T
    rows = scratch.shape[1]
    flat = scratch.reshape(-1)
    for start in range(0, num_nodes, rows):
        stop = min(start + rows, num_nodes)
        grid = flat[:k * (stop - start) * features].reshape(
            k, stop - start, features)
        np.take(x, slots[:, start:stop], axis=0, out=grid, mode="wrap")
        yield start, stop, grid


def edgeconv_uniform(x: np.ndarray, src: np.ndarray, k: int, reduce: str,
                     scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fused EdgeConv over a k-regular destination-sorted topology.

    The aggregated message is ``reduce_j [x_i, x_j - x_i]`` over each node's
    ``k`` neighbours.  When every node has exactly ``k`` incoming edges in
    destination order, the centre half reduces in closed form — ``max``/
    ``mean`` of ``k`` copies of ``x_i`` is ``x_i`` and ``add`` is ``k·x_i``
    — so only the neighbour-difference half needs a gather and a grid
    reduction.  This removes the destination gather and the ``(E, 2F)``
    message materialization of the generic path entirely; it is the
    steady-state serving kernel for every sampled topology.

    Nodes are gathered slot-major in chunks of ``scratch``'s ``(k, rows,
    F)`` shape (see :func:`_slot_major_chunks`; every ``src`` entry must lie
    in ``[-N, N)``), so the grid stays cache-sized whatever ``N`` is.
    Reducing over the leading axis is ``k - 1`` vectorised passes over
    ``rows·F`` contiguous numbers; a ``(rows, k, F)`` grid reduced over its
    middle axis runs numpy's inner loop only ``F`` numbers wide, which at
    ``F = 3`` is several times slower.  Both layouts accumulate in
    neighbour order ``j = 0…k-1``, so ``add``/``mean`` round identically.
    ``max`` reduces the gathered rows and subtracts ``x_i`` once, as the
    int8 kernel does: ``max_j round(x_j - x_i) == round(max_j x_j - x_i)``
    because rounding is monotone, with NaN propagating alike.  The one
    exception is ``x_i = -inf`` with a ``-inf`` neighbour (``-inf - -inf``
    is NaN, which the difference form propagates), so any ``-inf`` in ``x``
    selects the difference form for the whole call.
    """
    features = x.shape[1]
    centres, neighbours = out[:, :features], out[:, features:]
    if reduce in ("add", "sum"):
        np.multiply(x, x.dtype.type(k), out=centres)
    elif reduce in ("mean", "max"):  # max / mean of k copies of x_i is x_i
        np.copyto(centres, x)
    else:
        raise ValueError(f"unknown scatter reduction: {reduce!r}")
    # One boolean temporary, where np.isneginf builds three.
    reduce_first = reduce == "max" and not (x == -np.inf).any()
    for start, stop, grid in _slot_major_chunks(x, src, k, scratch):
        # Each chunk reduces into a fresh contiguous block, written into
        # ``out``'s strided columns once: numpy reducing straight into
        # them is several times slower at small F.
        if reduce_first:
            np.subtract(grid.max(axis=0), x[start:stop],
                        out=neighbours[start:stop])
            continue
        grid -= x[start:stop]
        if reduce in ("add", "sum"):
            neighbours[start:stop] = grid.sum(axis=0)
        elif reduce == "mean":
            neighbours[start:stop] = grid.mean(axis=0)
        else:
            neighbours[start:stop] = grid.max(axis=0)
    return out


# ----------------------------------------------------------------------
# Fused per-node kernels
# ----------------------------------------------------------------------
def edge_messages(x: np.ndarray, src: np.ndarray, dst: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """DGCNN edge-conv messages ``[x_dst, x_src - x_dst]`` into ``out``.

    ``out`` has shape ``(E, 2F)``; both halves are written in place — the
    gathers land directly in their target columns and the difference is
    computed in the right half.  This is the ragged-topology path, whose
    ``src`` nothing range-checks beforehand, so the gathers keep
    ``mode="raise"`` (and its temporary: the column halves are strided,
    which costs numpy a copy in any mode).
    """
    features = x.shape[1]
    centres = out[:, :features]
    neighbours = out[:, features:]
    np.take(x, dst, axis=0, out=centres, mode="raise")
    np.take(x, src, axis=0, out=neighbours, mode="raise")
    neighbours -= centres
    return out


def fused_linear(x: np.ndarray, weight: np.ndarray,
                 bias: Optional[np.ndarray], out: np.ndarray,
                 activation: Optional[str] = None,
                 negative_slope: float = 0.2) -> np.ndarray:
    """``activation(x @ weight + bias)`` in one step, all in ``out``.

    The eager path builds three tensors (matmul, bias add, relu) with three
    backward closures and up to three allocations; here the matmul writes
    straight into the arena buffer and bias/activation are applied in place.
    """
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    if activation == "relu":
        np.maximum(out, out.dtype.type(0), out=out)
    elif activation == "leaky_relu":
        # The slope factors must carry the output dtype: float python
        # scalars inside np.where would materialize a float64 factor array
        # and promote the whole multiply to float64 before casting back.
        np.multiply(out, np.where(out > 0, out.dtype.type(1),
                                  out.dtype.type(negative_slope)), out=out)
    elif activation is not None:
        raise ValueError(f"unknown fused activation {activation!r}")
    return out


# ----------------------------------------------------------------------
# Quantized (int8) kernels
# ----------------------------------------------------------------------
# Symmetric quantization: zero-point 0 everywhere, so ``x ≈ xq * scale``.
# Weights carry one scale per output channel, activations one per tensor
# (static, from calibration).  Every kernel below is exact in integer
# arithmetic; rounding happens only at the explicit (re)quantize points.

#: Quantized values live in [-127, 127] (symmetric; -128 unused).
QMAX_INT8 = 127

#: Largest integer magnitude exactly representable in float32.  Integer
#: matmuls run as float32 sgemm when every partial sum stays below this
#: bound (all partial sums are integers, so no product or addition ever
#: rounds); beyond it the accumulation switches to float64 (exact to 2^53).
_F32_EXACT = 2 ** 24


def quantize_array(x: np.ndarray, scale: float, scratch: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Quantize ``x`` to int8 with per-tensor ``scale`` into ``out``.

    ``q = clip(rint(x / scale), -127, 127)``; ``scratch`` is a float buffer
    of the same shape (it may alias ``x`` when the caller owns ``x``), so
    the kernel allocates nothing.  Rounding is ties-to-even (``np.rint``).
    """
    np.divide(x, x.dtype.type(scale), out=scratch)
    np.rint(scratch, out=scratch)
    np.clip(scratch, scratch.dtype.type(-QMAX_INT8),
            scratch.dtype.type(QMAX_INT8), out=scratch)
    out[...] = scratch
    return out


def dequantize_array(xq: np.ndarray, scale: float,
                     out: np.ndarray) -> np.ndarray:
    """Dequantize integer ``xq`` into the float buffer ``out`` (``xq*scale``)."""
    out[...] = xq
    out *= out.dtype.type(scale)
    return out


def quant_fused_linear(xq: np.ndarray, w_float: np.ndarray,
                       w_scale: np.ndarray, x_scale: float,
                       bias: np.ndarray, xcast: np.ndarray, acc: np.ndarray,
                       activation: Optional[str], negative_slope: float,
                       out_scale: Optional[float], outq: Optional[np.ndarray],
                       out32: np.ndarray) -> np.ndarray:
    """Fused quantized linear: int matmul → dequantize(+bias, act) → requantize.

    The integer matmul runs through BLAS: ``xq`` is widened into ``xcast``
    (float32, or float64 when the caller determined the accumulator bound
    exceeds 2^24) and multiplied against ``w_float`` (the matching float
    widening of the int8 weights).  Every partial sum is an exactly
    representable integer, so this *is* exact int32-style accumulation, at
    sgemm speed.  The accumulator is then scaled per output channel by
    ``x_scale * w_scale[j]``, biased and activated in float, and either
    requantized to int8 (``out_scale`` given → returns ``outq``) or emitted
    as float32 logits (returns ``out32``).
    """
    xcast[...] = xq
    np.matmul(xcast, w_float, out=acc)
    acc *= w_scale * np.float32(x_scale)
    acc += bias
    if activation == "relu":
        np.maximum(acc, acc.dtype.type(0), out=acc)
    elif activation == "leaky_relu":
        np.multiply(acc, np.where(acc > 0, acc.dtype.type(1),
                                  acc.dtype.type(negative_slope)), out=acc)
    elif activation is not None:
        raise ValueError(f"unknown fused activation {activation!r}")
    if out_scale is not None:
        return quantize_array(acc, out_scale, acc, outq)
    if acc is not out32:
        out32[...] = acc
    return out32


def quant_edgeconv_uniform(xq: np.ndarray, src: np.ndarray, k: int,
                           reduce: str, scratch: np.ndarray,
                           out: np.ndarray) -> np.ndarray:
    """Fused EdgeConv over a k-regular topology, entirely in integers.

    Exploits the algebraic identity ``reduce_j (x_j - x_i) =
    (reduce_j x_j) - x_i`` (exact for ``max``; exact in integers for
    ``add``): the neighbour half reduces the *gathered int8 rows directly*
    and subtracts the centre once, so the scratch stays int8 (4-8x less
    gather traffic than the float kernel) and no difference tensor is ever
    materialized.  The gather walks the same slot-major ``(k, rows, F)``
    chunks as :func:`edgeconv_uniform`, with the same ``[-N, N)`` contract
    on ``src``.  Output columns are ``[x_i, max_j x_j - x_i]`` for ``max``
    (scale unchanged) and ``[k·x_i, Σ_j x_j - k·x_i]`` for ``add``/``mean``
    — for ``mean`` the caller folds the 1/k into the output scale, keeping
    the arithmetic integer-exact.  ``out`` must be wide enough for the
    caller-computed bound (int16 for one int8 block at small k, int32
    beyond).
    """
    features = xq.shape[1]
    centres = out[:, :features]
    neighbours = out[:, features:]
    if reduce == "max":
        centres[...] = xq
    elif reduce in ("add", "sum", "mean"):
        np.multiply(xq, out.dtype.type(k), out=centres)
    else:
        raise ValueError(f"unknown scatter reduction: {reduce!r}")
    for start, stop, grid in _slot_major_chunks(xq, src, k, scratch):
        # Reduced into a fresh contiguous block, then copied: reducing
        # straight into the strided, wider columns of ``out`` makes numpy
        # cast through its own small buffers, several times slower.
        if reduce == "max":
            neighbours[start:stop] = np.maximum.reduce(grid, axis=0)
        else:
            neighbours[start:stop] = np.add.reduce(grid, axis=0,
                                                   dtype=out.dtype)
    np.subtract(neighbours, centres, out=neighbours)
    return out


def quant_pool_uniform(xq: np.ndarray, num_graphs: int, per_graph: int,
                       mode: str, scale: float, scratch: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Global pooling of quantized features over a uniform batch grid.

    Reduces the ``(num_graphs, per_graph, F)`` grid in integer arithmetic
    (``scratch`` is an int64 ``(num_graphs, F)`` buffer, so sums can never
    overflow) and dequantizes the tiny per-graph result straight into the
    float32 ``out`` — pooling is where quantized features leave the integer
    domain, because ``max||mean`` concatenation would otherwise mix scales.
    """
    features = xq.shape[1]
    grouped = xq.reshape(num_graphs, per_graph, features)
    mult = np.float32(scale)
    mult_mean = np.float32(scale / per_graph)
    if mode in ("max||mean", "maxmean"):
        np.maximum.reduce(grouped, axis=1, out=scratch)
        out[:, :features] = scratch
        out[:, :features] *= mult
        np.add.reduce(grouped, axis=1, dtype=scratch.dtype, out=scratch)
        out[:, features:] = scratch
        out[:, features:] *= mult_mean
        return out
    if mode == "max":
        np.maximum.reduce(grouped, axis=1, out=scratch)
        out[...] = scratch
        out *= mult
    elif mode in ("sum", "add", "mean"):
        np.add.reduce(grouped, axis=1, dtype=scratch.dtype, out=scratch)
        out[...] = scratch
        out *= mult if mode != "mean" else mult_mean
    else:
        raise ValueError(f"unknown pooling mode: {mode!r}")
    return out


# ----------------------------------------------------------------------
# Lean kNN for the serving fast path
# ----------------------------------------------------------------------
#: A group whose kNN keys span more than this many tiles gets the
#: process's tile helper.  A 1024-point frame spans 32; a 64-point frame,
#: and an 8-frame micro-batch of them, fit in one, where handing a tile to
#: another thread would cost more than ranking it.
_HELPED_ABOVE_TILES = 2

#: The names OpenBLAS builds export their thread-count calls under: plain,
#: with the ``64_`` suffix of 64-bit-integer builds, and with the
#: ``scipy_`` prefix of the build numpy's wheels bundle.
_OPENBLAS_PREFIXES = ("", "scipy_")
_OPENBLAS_SUFFIXES = ("", "64_")


def _find_openblas() -> Optional[Tuple[str, Any, Any]]:
    """The OpenBLAS this process has loaded, as ``(path,
    set_num_threads, get_num_threads)``; ``None`` when no mapped library
    is an OpenBLAS that exports both calls.

    numpy's wheels bundle OpenBLAS under a mangled file name, so it is
    found among the process's mappings (``/proc/self/maps``) rather than
    by name.  Opening an already-mapped library returns the loaded copy.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({fields[5] for fields in map(str.split, maps)
                            if len(fields) > 5
                            and "openblas" in fields[5].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                setter, getter = (
                    getattr(library, f"{prefix}openblas_{call}_num_threads"
                            f"{suffix}", None) for call in ("set", "get"))
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return path, setter, getter
    return None


def _pin_blas() -> Optional[Tuple[str, int]]:
    """Set the process's OpenBLAS to one thread: its path and the thread
    count it reports afterwards, or ``None`` when there is none.

    After every threaded GEMM, OpenBLAS's pool spin-waits a whole core
    for about 0.1 s: the core the tile helper needs.  One thread makes the
    served ``1024 × 128 × 64`` GEMM about 0.25 ms slower, which the helper
    more than repays; and in some fresh processes with the pool, every
    paper-scale frame ran about three times slower, which none did with
    one thread.
    """
    found = _find_openblas()
    if found is None:
        return None
    path, set_num_threads, get_num_threads = found
    set_num_threads(1)
    return path, get_num_threads()


class _TileHelper:
    """The process's second participant in kNN tile loops: one daemon
    thread running the tasks callers submit, in order.

    ``submit`` is the ``helper`` of :func:`repro.graph.knn._knn_edges`,
    whose callers never wait for a task: a caller whose task is queued
    behind another handler's kNN walks its tiles itself, and the task,
    when it runs, finds none left.  A task submitted after the thread has
    ended is dropped rather than left queued.
    """

    def __init__(self) -> None:
        self._tasks: "queue.SimpleQueue[Callable[[], Any]]" = \
            queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, daemon=True,
                                       name="knn-tile-helper")
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self._tasks.get()()

    def submit(self, task: Callable[[], Any]) -> None:
        if self.thread.is_alive():
            self._tasks.put(task)


_helper_lock = threading.Lock()
#: The process's tile helper: ``None`` until a kNN that could use one
#: decides, then a :class:`_TileHelper`, or ``False`` when the process
#: gets none.
_helper: Any = None


def _process_helper() -> Optional[_TileHelper]:
    """The process's tile helper, started by the first call, or ``None``.

    A process gets one only when it may run on two or more CPUs and its
    OpenBLAS now runs one thread: otherwise the helper would compete with
    the BLAS pool, or with the caller, for the same core.
    """
    global _helper
    with _helper_lock:
        if _helper is None:
            spare_core = (hasattr(os, "sched_getaffinity")
                          and len(os.sched_getaffinity(0)) >= 2)
            pinned = spare_core and _pin_blas()
            _helper = (_TileHelper() if pinned and pinned[1] == 1
                       else False)
    return _helper or None


def _forget_helper() -> None:
    """A forked child has no helper thread, whatever the parent had."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def knn_edges_uniform(points: np.ndarray, k: int, num_graphs: int,
                      per_graph: int) -> np.ndarray:
    """The ``(N, k)`` kNN neighbour table of a batch of equally sized
    graphs, selection-only.

    :func:`repro.graph.knn.knn_graph`'s own selection loop over the same
    tiles of ranking keys (:class:`~repro.graph.knn._KeyTiles`),
    so the selected neighbour set is bit-for-bit eager's —
    ``argpartition`` is deterministic per row — minus the work inference
    does not need: the selected ``k`` neighbours are **not** re-sorted
    nearest-first.  Neighbour order within a destination segment only
    affects floating-point summation order of ``add``/``mean`` aggregation
    (~1e-15 relative), never the neighbour set, and dropping the per-row
    sort removes the two ``take_along_axis`` passes that dominated graph
    construction on small clouds.

    A graph of at most ``k`` nodes gets ``knn_graph``'s own rows: all its
    other nodes nearest first, repeated up to ``k`` — there the order
    decides which neighbours repeat once more.  Row ``i`` holds node
    ``i``'s sources, so :func:`~repro.graph.knn.edge_list` of the table is
    ``knn_graph``'s edge list up to each row's order.

    A group whose keys span more than ``_HELPED_ABOVE_TILES`` tiles hands
    the process's helper thread (:func:`_process_helper`) a share of its
    tiles: ``argpartition`` and the GEMM release the GIL, so the two rank
    on two cores, into the same table bit for bit.  Smaller groups, and
    processes without a helper, rank alone.
    """
    key_bytes = (num_graphs * per_graph * per_graph
                 * np.dtype(np.float64).itemsize)
    helper = (_process_helper()
              if key_bytes > _HELPED_ABOVE_TILES * _TILE_BYTES else None)
    return _knn_edges(points, k, num_graphs, per_graph, nearest_first=False,
                      helper=None if helper is None else helper.submit)
