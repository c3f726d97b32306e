"""K-nearest-neighbour graph construction.

DGCNN and the GCoDE design space rebuild the graph dynamically from node
features at every ``Sample`` operation; this module provides the batched KNN
used for that (``knn_graph``).  It is the one place that selects kNN
neighbours: every batch shape, and the compiled runtime's selection-only
kNN (:func:`repro.runtime.kernels.knn_edges_uniform`), goes through one
selection loop over :func:`grouped_knn_distances`, so eager and compiled
execution select the same neighbours.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

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


def grouped_knn_distances(grouped: np.ndarray
                          ) -> Iterator[Tuple[slice, slice, np.ndarray]]:
    """Self-excluded kNN ranking keys of a ``(G, n, D)`` group, in tiles.

    Yields ``(graphs, rows, keys)``: entry ``[g, r, j]`` of ``keys`` is
    ``e_ij = |x_j|² − 2·(x_i·x_j)`` between node ``i = rows.start + r``
    and node ``j`` of graph ``graphs.start + g``, and ``inf`` where ``j``
    is ``i``.  That is the squared distance ``d_ij`` minus ``|x_i|²``, a
    constant along the row, and ``argpartition`` ranks each row on its
    own, so the key selects the neighbours the squared distance does, in
    the same order.  A tile covers at most ``_TILE_BYTES`` of keys: whole
    graphs when one graph's ``(n, n)`` matrix fits, so a batch of small
    clouds is a few batched GEMMs with no per-graph Python loop; row tiles
    of one graph when it does not.  Every tile is written into the same
    buffer, so ``keys`` is valid only until the next tile.

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
    Each entry depends only on its own two rows, so the tiling never
    changes a selected neighbour.
    """
    num_graphs, per_graph, dims = grouped.shape
    left = np.ones((num_graphs, per_graph, dims + 1))
    left[:, :, :dims] = grouped
    right = np.empty((num_graphs, dims + 1, per_graph))
    np.multiply(grouped.transpose(0, 2, 1), -2.0, out=right[:, :dims])
    (grouped ** 2).sum(axis=2, out=right[:, dims])
    row_bytes = per_graph * np.dtype(np.float64).itemsize
    if per_graph * row_bytes <= _TILE_BYTES:
        graphs_per_tile = _TILE_BYTES // (per_graph * row_bytes)
        rows_per_tile = per_graph
    else:
        graphs_per_tile, rows_per_tile = 1, max(1, _TILE_BYTES // row_bytes)
    keys_buffer = np.empty(
        min(graphs_per_tile, num_graphs) * rows_per_tile * per_graph)
    for first in range(0, num_graphs, graphs_per_tile):
        graphs = slice(first, min(first + graphs_per_tile, num_graphs))
        for start in range(0, per_graph, rows_per_tile):
            rows = slice(start, min(start + rows_per_tile, per_graph))
            shape = (graphs.stop - first, rows.stop - start, per_graph)
            keys = keys_buffer[:shape[0] * shape[1] * per_graph].reshape(shape)
            np.matmul(left[graphs, rows], right[graphs], out=keys)
            local = np.arange(shape[1])
            keys[:, local, local + start] = np.inf  # exclude self-edges
            yield graphs, rows, keys


def _knn_edges(points: np.ndarray, k: int, num_graphs: int, per_graph: int,
               nearest_first: bool) -> np.ndarray:
    """The kNN edge list of ``num_graphs`` consecutive graphs of
    ``per_graph`` rows of ``points`` each: the one selection loop.

    Each tile of :func:`grouped_knn_distances` gets one ``argpartition``,
    written straight into row 0 of the result, so no index array beside
    it is allocated.  ``nearest_first`` re-sorts each row's picks by key,
    the order ``knn_graph`` lists; inference skips it, because neighbour
    order moves only the floating-point summation order of ``add`` /
    ``mean`` aggregation, never the neighbour set.  A graph of at most
    ``k`` nodes has fewer than ``k`` other nodes: its rows list all of
    them (a one-node graph, its self-loop) and repeat them up to ``k``.
    The order then decides which neighbours repeat once more, so such rows
    are always re-sorted: every caller gets ``knn_graph``'s multiset.
    Destinations are ``repeat(arange(N), k)``: destination-sorted and
    k-regular by construction.
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
    for graphs, rows, keys in grouped_knn_distances(grouped):
        nearest = np.argpartition(keys, width - 1, axis=2)[:, :, :width]
        if nearest_first or width < k:
            order = np.argsort(np.take_along_axis(keys, nearest, axis=2),
                               axis=2)
            nearest = np.take_along_axis(nearest, order, axis=2)
        for start in range(0, k, width):
            local[graphs, rows, start:start + width] = nearest[:, :,
                                                               :k - start]
        del nearest  # free this tile's indices before the next tile's
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
