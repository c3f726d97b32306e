"""K-nearest-neighbour graph construction.

DGCNN and the GCoDE design space rebuild the graph dynamically from node
features at every ``Sample`` operation; this module provides the batched KNN
used for that (``knn_graph``) together with a plain pairwise variant.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances between rows of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    sq_norms = (points ** 2).sum(axis=1)
    dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * points @ points.T
    return np.maximum(dists, 0.0)


def knn_indices(points: np.ndarray, k: int, exclude_self: bool = True) -> np.ndarray:
    """Return the indices of the ``k`` nearest neighbours of each row.

    Output shape is ``(num_points, k)``.  When fewer than ``k`` neighbours
    exist the available ones are repeated to keep a rectangular result, which
    mirrors how fixed-k GNN operators behave on tiny graphs.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        return np.zeros((0, k), dtype=np.int64)
    if k <= 0:
        raise ValueError("k must be positive")
    dists = pairwise_sq_distances(points)
    if exclude_self:
        np.fill_diagonal(dists, np.inf)
    available = n - 1 if exclude_self else n
    effective_k = min(k, max(available, 1))
    if effective_k >= n:
        neighbour_order = np.argsort(dists, axis=1)[:, :effective_k]
    else:
        # Selecting the k nearest is O(n) per row via argpartition; only the
        # selected slice is then sorted by distance (O(k log k)) so the edge
        # list keeps the nearest-first ordering a full argsort would give.
        # This is the device-side hot path: Sample ops rebuild the graph
        # every frame, and a full O(n log n) row sort dominated them.
        nearest = np.argpartition(dists, effective_k - 1, axis=1)[:, :effective_k]
        rows = np.arange(n)[:, None]
        order_within = np.argsort(dists[rows, nearest], axis=1)
        neighbour_order = nearest[rows, order_within]
    if effective_k < k:
        repeats = np.tile(neighbour_order, (1, int(np.ceil(k / effective_k))))
        neighbour_order = repeats[:, :k]
    return neighbour_order.astype(np.int64)


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

    Raises
    ------
    ValueError
        If ``batch`` is not of shape ``(N,)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if batch is not None:
        batch = np.asarray(batch, dtype=np.int64)
        if batch.shape != (n,):
            raise ValueError(f"batch has shape {batch.shape}, expected "
                             f"({n},): one graph id per point")
    if n == 0:
        return np.zeros((2, 0), dtype=np.int64)
    if batch is None:
        neighbours = knn_indices(points, k)
        centres = np.repeat(np.arange(n, dtype=np.int64), neighbours.shape[1])
        return np.stack([neighbours.reshape(-1), centres], axis=0)

    vectorized = _knn_graph_equal_sizes(points, k, batch)
    if vectorized is not None:
        return vectorized
    sources = []
    targets = []
    for graph_id in np.unique(batch):
        node_ids = np.nonzero(batch == graph_id)[0]
        local = knn_indices(points[node_ids], k)
        neighbours = node_ids[local]
        centres = np.repeat(node_ids, local.shape[1])
        sources.append(neighbours.reshape(-1))
        targets.append(centres)
    return np.stack([np.concatenate(sources), np.concatenate(targets)], axis=0)


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

    This is the single definition of the ranking that both the eager
    batched builder below and the compiled runtime's selection-only kNN
    (:func:`repro.runtime.kernels.knn_edges_uniform`) walk: the compiled
    runtime's guarantee is that it selects the same neighbour sets as
    eager execution, and two formulas would disagree on near-tied
    neighbours.  Each entry depends only on its own two rows, so the
    tiling never changes a selected neighbour.
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


def _knn_graph_equal_sizes(points: np.ndarray, k: int,
                           batch: np.ndarray) -> Optional[np.ndarray]:
    """Vectorized batched KNN when every graph has the same node count.

    Point-cloud batches — mini-batches in training and micro-batches
    coalesced by the serving engine — are disjoint unions of equally sized
    clouds with a sorted batch vector.  Instead of looping graphs in Python,
    the points then reshape to ``(G, n, D)`` and one 3-D distance/top-k pass
    covers the whole batch, which is what makes a batched engine call
    genuinely cheaper than per-frame calls.  Returns ``None`` when the batch
    is not sorted-contiguous with equal sizes (the caller falls back to the
    per-graph loop).
    """
    if batch.size == 0 or batch[0] != 0 or np.any(np.diff(batch) < 0):
        return None
    counts = np.bincount(batch)
    per_graph = int(counts[0])
    if per_graph == 0 or np.any(counts != per_graph):
        return None
    num_graphs = counts.shape[0]
    grouped = points.reshape(num_graphs, per_graph, -1)
    effective_k = min(k, max(per_graph - 1, 1))
    local = np.empty((num_graphs, per_graph, effective_k), dtype=np.int64)
    for graphs, rows, keys in grouped_knn_distances(grouped):
        if effective_k >= per_graph:
            nearest = np.argsort(keys, axis=2)[:, :, :effective_k]
        else:
            nearest = np.argpartition(keys, effective_k - 1,
                                      axis=2)[:, :, :effective_k]
            order = np.argsort(np.take_along_axis(keys, nearest, axis=2),
                               axis=2)
            nearest = np.take_along_axis(nearest, order, axis=2)
        local[graphs, rows] = nearest
    if effective_k < k:
        local = np.tile(local, (1, 1, int(np.ceil(k / effective_k))))[:, :, :k]
    offsets = (np.arange(num_graphs, dtype=np.int64) * per_graph)[:, None, None]
    neighbours = (local + offsets).reshape(-1)
    centres = np.repeat(np.arange(batch.shape[0], dtype=np.int64), k)
    return np.stack([neighbours, centres], axis=0)


def random_graph(num_nodes: int, k: int,
                 rng: Optional[np.random.Generator] = None,
                 batch: Optional[np.ndarray] = None) -> np.ndarray:
    """Random k-regular-ish directed graph used by the ``Sample(random)`` function.

    Each node receives ``k`` incoming edges from uniformly sampled other nodes
    of the same graph (self edges excluded when possible).
    """
    rng = rng or np.random.default_rng()
    if num_nodes == 0:
        return np.zeros((2, 0), dtype=np.int64)
    if batch is None:
        batch = np.zeros(num_nodes, dtype=np.int64)
    batch = np.asarray(batch, dtype=np.int64)
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
