"""K-nearest-neighbour graph construction.

DGCNN and the GCoDE design space rebuild the graph dynamically from node
features at every ``Sample`` operation; this module provides the batched KNN
used for that (``knn_graph``).  It is the one place that selects kNN
neighbours: every batch shape, and the compiled runtime's selection-only
kNN (:func:`repro.runtime.kernels.knn_edges_uniform`), goes through one
selection loop over the ranking-key tiles of :class:`_KeyTiles`, so eager
and compiled execution select the same neighbours.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, List, Optional, Tuple

import numpy as np


def _checked_batch(num_nodes: int, k: int,
                   batch: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """``batch`` as int64, after the checks both graph builders make.

    Refuses ``k < 1`` and a batch that is not one graph id per node.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if batch is None:
        return None
    batch = np.asarray(batch, dtype=np.int64)
    if batch.shape != (num_nodes,):
        raise ValueError(f"batch has shape {batch.shape}, expected "
                         f"({num_nodes},): one graph id per node")
    return batch


def _equal_graph_size(batch: np.ndarray, num_graphs: int) -> Optional[int]:
    """Nodes per graph when ``batch`` is ``num_graphs`` equal, non-empty
    runs of the ids ``0, 1, …`` in order; ``None`` otherwise.

    Point-cloud batches — mini-batches in training and micro-batches
    coalesced by the serving engine — have this shape.  Their points then
    reshape to ``(G, n, D)`` and one tiled pass covers the whole batch,
    which is what makes a batched call cheaper than per-frame calls.
    """
    if num_graphs < 1 or batch.shape[0] % num_graphs:
        return None
    per_graph = batch.shape[0] // num_graphs
    runs = batch.reshape(num_graphs, per_graph)
    if per_graph and (runs == np.arange(num_graphs)[:, None]).all():
        return per_graph
    return None


def knn_graph(points: np.ndarray, k: int,
              batch: Optional[np.ndarray] = None) -> np.ndarray:
    """Build a directed KNN edge index (neighbours → centre node).

    Parameters
    ----------
    points:
        ``(N, D)`` coordinates or feature rows.
    k:
        Number of neighbours per node.
    batch:
        Optional node-to-graph assignment, one entry per row of
        ``points``; edges never cross graphs.

    Returns
    -------
    np.ndarray
        Edge index of shape ``(2, N * k)`` where row 0 holds neighbour
        (source) indices and row 1 holds centre (destination) indices.
        Each centre lists its neighbours nearest first.  A graph of at
        most ``k`` nodes lists all its other nodes, repeated up to ``k``
        (a one-node graph, its self-loop), which mirrors how fixed-k GNN
        operators behave on tiny graphs.

    Raises
    ------
    ValueError
        If ``k < 1``, or ``batch`` is not of shape ``(N,)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    batch = _checked_batch(n, k, batch)
    if n == 0:
        return np.zeros((2, 0), dtype=np.int64)
    if batch is None:
        return _knn_edges(points, k, 1, n, nearest_first=True)
    num_graphs = int(batch[-1]) + 1
    per_graph = _equal_graph_size(batch, num_graphs)
    if per_graph is not None:
        return _knn_edges(points, k, num_graphs, per_graph,
                          nearest_first=True)
    # Ragged or unsorted: one group per graph, listed in graph-id order.
    edges = []
    for graph_id in np.unique(batch):
        node_ids = np.nonzero(batch == graph_id)[0]
        edges.append(node_ids[_knn_edges(points[node_ids], k, 1,
                                         node_ids.shape[0],
                                         nearest_first=True)])
    return np.concatenate(edges, axis=1)


#: Bytes of float64 keys in one kNN tile, and of gathered rows in one
#: chunk of the compiled EdgeConv: a tile and its ``argpartition`` indices
#: then stay in a core's L2 cache instead of streaming a whole ``(n, n)``
#: matrix through memory.  Every tiling selects the same neighbours bit for
#: bit, so this is a constant, not a setting.
_TILE_BYTES = 256 * 1024


#: A second participant in :func:`_knn_edges`' tile loop: ``helper(task)``
#: runs ``task`` on another thread once that thread gets to it.  The task
#: returns the number of tiles it wrote.
_Helper = Callable[[Callable[[], int]], None]


class _KeyTiles:
    """The self-excluded kNN ranking keys of a ``(G, n, D)`` group, as
    tiles computed on demand by index.

    ``keys(index, buffer)`` returns ``(graphs, rows, keys)``: entry
    ``[g, r, j]`` of ``keys`` is ``e_ij = |x_j|² − 2·(x_i·x_j)`` between
    node ``i = rows.start + r`` and node ``j`` of graph
    ``graphs.start + g``, and ``inf`` where ``j`` is ``i``.  That is the
    squared distance ``d_ij`` minus ``|x_i|²``, a constant along the row,
    and ``argpartition`` ranks each row on its own, so the key selects the
    neighbours the squared distance does, in the same order.  A tile covers
    at most ``tile_bytes`` of keys: whole graphs when one graph's
    ``(n, n)`` matrix fits, so a batch of small clouds is a few batched
    GEMMs with no per-graph Python loop; row tiles of one graph when it
    does not.  The ``count`` tiles cover every row of every graph once.
    ``keys`` is written into ``buffer`` (``buffer_size`` float64 entries),
    so it is valid until that buffer's next tile; tiles written into
    different buffers may be computed at once, from different threads.

    Each tile is one batched GEMM of augmented operands,
    ``[x_i, 1] · [−2·x_jᵀ ; |x_j|²]``, written straight into the buffer:
    no product buffer, broadcast add, ``×2`` or subtract.  Scaling by
    ``−2`` is exact, so the key's rounding error is that of one dot
    product and one add, about ``u·(|x_i|² + |x_j|²)`` (``u`` the unit
    roundoff) — the same scale as ``(|x_i|² + |x_j|²) − 2·(x_i·x_j)``.
    Two squared distances closer than that may rank either way under
    either formula, just as they may across BLAS builds.  Splitting the
    tile into two GEMMs, ``[|x_i|², 1]·[1; |x_j|²]`` and ``x_i·(2x_j)ᵀ``,
    and a subtract would keep the full formula's rounding bit for bit, at
    twice the buffers and more than twice this tile's time.

    This is the single definition of the ranking, walked only by
    :func:`_knn_edges`, which serves both eager ``knn_graph`` and the
    compiled runtime's selection-only kNN: the compiled runtime's
    guarantee is that it selects the same neighbour sets as eager
    execution, and two formulas would disagree on near-tied neighbours.
    Each entry depends only on its own two rows, so neither the tile size
    nor the order the tiles are computed in changes a selected neighbour.
    """

    def __init__(self, grouped: np.ndarray, tile_bytes: int) -> None:
        num_graphs, per_graph, dims = grouped.shape
        self._left = np.ones((num_graphs, per_graph, dims + 1))
        self._left[:, :, :dims] = grouped
        self._right = np.empty((num_graphs, dims + 1, per_graph))
        np.multiply(grouped.transpose(0, 2, 1), -2.0,
                    out=self._right[:, :dims])
        (grouped ** 2).sum(axis=2, out=self._right[:, dims])
        row_bytes = per_graph * np.dtype(np.float64).itemsize
        if per_graph * row_bytes <= tile_bytes:
            self._graphs_per_tile = tile_bytes // (per_graph * row_bytes)
            self._rows_per_tile = per_graph
        else:
            self._graphs_per_tile = 1
            self._rows_per_tile = max(1, tile_bytes // row_bytes)
        self._num_graphs, self._per_graph = num_graphs, per_graph
        self._row_tiles = -(-per_graph // self._rows_per_tile)
        self.count = -(-num_graphs // self._graphs_per_tile) * self._row_tiles
        self.buffer_size = (min(self._graphs_per_tile, num_graphs)
                            * self._rows_per_tile * per_graph)

    def keys(self, index: int, buffer: np.ndarray
             ) -> Tuple[slice, slice, np.ndarray]:
        graph_tile, row_tile = divmod(index, self._row_tiles)
        first = graph_tile * self._graphs_per_tile
        start = row_tile * self._rows_per_tile
        graphs = slice(first, min(first + self._graphs_per_tile,
                                  self._num_graphs))
        rows = slice(start, min(start + self._rows_per_tile, self._per_graph))
        shape = (graphs.stop - first, rows.stop - start, self._per_graph)
        keys = buffer[:shape[0] * shape[1] * shape[2]].reshape(shape)
        np.matmul(self._left[graphs, rows], self._right[graphs], out=keys)
        # Exclude self-edges: entry [g, r, start + r] sits at flat offset
        # start + r·(n + 1) of graph g's rows.
        keys.reshape(shape[0], -1)[
            :, start:start + shape[1] * (shape[2] + 1):shape[2] + 1] = np.inf
        return graphs, rows, keys


def _knn_edges(points: np.ndarray, k: int, num_graphs: int, per_graph: int,
               nearest_first: bool,
               helper: Optional[_Helper] = None) -> np.ndarray:
    """The kNN edge list of ``num_graphs`` consecutive graphs of
    ``per_graph`` rows of ``points`` each: the one selection loop.

    Each tile of :class:`_KeyTiles` gets one ``argpartition``, written
    straight into row 0 of the result, so no index array beside it is
    allocated.  ``nearest_first`` re-sorts each row's picks by key, the
    order ``knn_graph`` lists; inference skips it, because neighbour order
    moves only the floating-point summation order of ``add`` / ``mean``
    aggregation, never the neighbour set.  A graph of at most ``k`` nodes
    has fewer than ``k`` other nodes: its rows list all of them (a
    one-node graph, its self-loop) and repeat them up to ``k``.  The order
    then decides which neighbours repeat once more, so such rows are
    always re-sorted: every caller gets ``knn_graph``'s multiset.
    Destinations are ``repeat(arange(N), k)``: destination-sorted and
    k-regular by construction.

    ``helper``, when given, lends the loop a second participant: the
    caller hands it a task, and both claim tile numbers from one shared
    counter, each ranking into its own key buffer of half the tile size,
    so the two buffers together take one tile's memory.  They write
    disjoint rows of the edge list, and a tile's keys do not depend on who
    computes them, so the edges are bit-for-bit the single participant's.
    The caller never waits for the helper: a helper that starts late finds
    fewer tiles, or none, left to claim; once the counter runs out, the
    caller closes the edge list to the helper's writes, ranks any tile the
    helper claimed but had not written, and re-raises an error the helper
    met before that.
    """
    # Keys are always ranked in float64: a float32 plan must select the
    # same neighbour sets as eager execution, or near-tied distances would
    # flip the topology and the divergence would no longer be bounded by
    # arithmetic precision.
    grouped = np.asarray(points, dtype=np.float64).reshape(
        num_graphs, per_graph, -1)
    num_nodes = num_graphs * per_graph
    edges = np.empty((2, num_nodes * k), dtype=np.int64)
    local = edges[0].reshape(num_graphs, per_graph, k)
    width = min(k, max(per_graph - 1, 1))
    tiles = _KeyTiles(grouped, _TILE_BYTES if helper is None
                      else _TILE_BYTES // 2)
    claims = itertools.count()  # ``next`` is atomic under the GIL
    written = np.zeros(tiles.count, dtype=bool)
    closing = threading.Lock()  # the helper writes only before ``closed``
    closed = False
    errors: List[Exception] = []

    def rank(index: int, keys_buffer: np.ndarray
             ) -> Tuple[slice, slice, np.ndarray]:
        graphs, rows, keys = tiles.keys(index, keys_buffer)
        nearest = np.argpartition(keys, width - 1, axis=2)[:, :, :width]
        if nearest_first or width < k:
            order = np.argsort(np.take_along_axis(keys, nearest, axis=2),
                               axis=2)
            nearest = np.take_along_axis(nearest, order, axis=2)
        return graphs, rows, nearest

    def write(index: int, graphs: slice, rows: slice,
              nearest: np.ndarray) -> None:
        for start in range(0, k, width):
            local[graphs, rows, start:start + width] = nearest[:, :,
                                                               :k - start]
        written[index] = True

    def helper_part() -> int:
        """Rank claimed tiles until none is left or the caller has
        finished; the number written."""
        keys_buffer = np.empty(tiles.buffer_size)
        count = 0
        try:
            while (index := next(claims)) < tiles.count:
                tile = rank(index, keys_buffer)
                with closing:
                    if closed:
                        break
                    write(index, *tile)
                del tile  # free this tile's indices before the next's
                count += 1
        except Exception as error:  # re-raised by the caller
            errors.append(error)
        return count

    if helper is not None:
        helper(helper_part)
    keys_buffer = np.empty(tiles.buffer_size)
    try:
        while (index := next(claims)) < tiles.count:
            write(index, *rank(index, keys_buffer))
    finally:
        with closing:
            closed = True
    if errors:
        raise errors[0]
    # A tile the helper claimed but had not written: ranking it here costs
    # one tile, where waiting would cost however long its thread is kept
    # off a core.
    for index in np.flatnonzero(~written):
        write(index, *rank(int(index), keys_buffer))
    local += (np.arange(num_graphs, dtype=np.int64) * per_graph)[:, None,
                                                                  None]
    edges[1].reshape(num_nodes, k)[...] = np.arange(num_nodes)[:, None]
    return edges


def random_graph(num_nodes: int, k: int,
                 rng: Optional[np.random.Generator] = None,
                 batch: Optional[np.ndarray] = None) -> np.ndarray:
    """Random k-regular-ish directed graph used by the ``Sample(random)`` function.

    Each node receives ``k`` incoming edges from uniformly sampled other nodes
    of the same graph (self edges excluded when possible).  Raises
    ``ValueError`` on the arguments :func:`knn_graph` refuses.
    """
    rng = rng or np.random.default_rng()
    batch = _checked_batch(num_nodes, k, batch)
    if num_nodes == 0:
        return np.zeros((2, 0), dtype=np.int64)
    if batch is None:
        batch = np.zeros(num_nodes, dtype=np.int64)
    sources = []
    targets = []
    for graph_id in np.unique(batch):
        node_ids = np.nonzero(batch == graph_id)[0]
        size = node_ids.shape[0]
        for node in node_ids:
            if size > 1:
                candidates = node_ids[node_ids != node]
            else:
                candidates = node_ids
            picks = rng.choice(candidates, size=k, replace=candidates.shape[0] < k)
            sources.append(picks)
            targets.append(np.full(k, node, dtype=np.int64))
    return np.stack([np.concatenate(sources), np.concatenate(targets)], axis=0)
