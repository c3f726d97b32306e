"""Tests for graph containers, batching, loaders, KNN and sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (Batch, DataLoader, GraphData, farthest_point_sample,
                         knn_graph, random_graph, random_sample,
                         subsample_graph_nodes)


class TestGraphData:
    def test_basic_properties(self):
        g = GraphData(x=np.ones((5, 3)), edge_index=np.array([[0, 1], [1, 2]]), y=2)
        assert g.num_nodes == 5 and g.num_features == 3 and g.num_edges == 2

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            GraphData(x=np.ones(5))

    def test_rejects_bad_edge_index_shape(self):
        with pytest.raises(ValueError):
            GraphData(x=np.ones((3, 2)), edge_index=np.array([0, 1, 2]))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            GraphData(x=np.ones((2, 2)), edge_index=np.array([[0], [5]]))

    def test_pos_must_match_node_count(self):
        with pytest.raises(ValueError):
            GraphData(x=np.ones((3, 2)), pos=np.ones((2, 3)))

    def test_copy_is_independent(self):
        g = GraphData(x=np.ones((3, 2)), y=1)
        clone = g.copy()
        clone.x[0, 0] = 99.0
        assert g.x[0, 0] == 1.0

    def test_nbytes_counts_all_arrays(self):
        g = GraphData(x=np.ones((4, 2)), edge_index=np.zeros((2, 3), dtype=np.int64),
                      pos=np.ones((4, 3)))
        assert g.nbytes() == g.x.nbytes + g.edge_index.nbytes + g.pos.nbytes


class TestBatch:
    def test_offsets_edge_indices(self):
        g1 = GraphData(x=np.ones((3, 2)), edge_index=np.array([[0, 1], [1, 2]]), y=0)
        g2 = GraphData(x=np.ones((2, 2)), edge_index=np.array([[0], [1]]), y=1)
        batch = Batch.from_graphs([g1, g2])
        assert batch.num_nodes == 5 and batch.num_graphs == 2
        np.testing.assert_array_equal(batch.edge_index[:, -1], [3, 4])
        np.testing.assert_array_equal(batch.batch, [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(batch.y, [0, 1])

    def test_nodes_per_graph(self):
        graphs = [GraphData(x=np.ones((n, 1)), y=0) for n in (2, 5, 3)]
        batch = Batch.from_graphs(graphs)
        np.testing.assert_array_equal(batch.nodes_per_graph(), [2, 5, 3])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            Batch.from_graphs([])

    def test_batch_vector_length_validation(self):
        with pytest.raises(ValueError):
            Batch(x=np.ones((3, 1)), edge_index=None, batch=np.zeros(2), num_graphs=1)


class TestDataLoader:
    def _graphs(self, count=10):
        return [GraphData(x=np.full((2, 2), i, dtype=float), y=i % 2)
                for i in range(count)]

    def test_batches_cover_dataset(self):
        loader = DataLoader(self._graphs(10), batch_size=3)
        sizes = [batch.num_graphs for batch in loader]
        assert sizes == [3, 3, 3, 1]
        assert len(loader) == 4

    def test_drop_last(self):
        loader = DataLoader(self._graphs(10), batch_size=3, drop_last=True)
        assert len(loader) == 3
        assert all(batch.num_graphs == 3 for batch in loader)

    def test_shuffle_is_deterministic_per_seed(self):
        first = [b.y.tolist() for b in DataLoader(self._graphs(), 4, shuffle=True, seed=3)]
        second = [b.y.tolist() for b in DataLoader(self._graphs(), 4, shuffle=True, seed=3)]
        assert first == second

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._graphs(), batch_size=0)


def _sq_distances(pts):
    """Squared distances between rows of ``pts`` as one full matrix."""
    sq_norms = (pts ** 2).sum(axis=1)
    return np.maximum(sq_norms[:, None] + sq_norms[None, :]
                      - 2.0 * pts @ pts.T, 0.0)


BATCH_SHAPES = ["none", "equal-size", "ragged"]


def _batch_of(pts, shape):
    """``pts`` as graph 0 of a batch of ``shape``: its points and batch."""
    if shape == "none":
        return pts, None
    # A far copy as graph 1: the whole cloud, or all of it but one point.
    extra = pts if shape == "equal-size" else pts[1:]
    return (np.concatenate([pts, extra + 100.0]),
            np.repeat([0, 1], [pts.shape[0], extra.shape[0]]))


def _neighbour_rows(pts, k, shape):
    """Each node's neighbours as ``knn_graph`` lists them with ``pts`` as
    graph 0 of a batch of ``shape``, one ``(N, k)`` row per node."""
    n = pts.shape[0]
    points, batch = _batch_of(pts, shape)
    edges = knn_graph(points, k, batch=batch)
    np.testing.assert_array_equal(edges[1, :n * k],
                                  np.repeat(np.arange(n), k))
    return edges[0, :n * k].reshape(n, k)


class TestKNN:
    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_knn_finds_true_neighbours(self, shape):
        pts = np.array([[0.0], [0.1], [5.0], [5.1]])
        np.testing.assert_array_equal(
            _neighbour_rows(pts, 1, shape).reshape(-1), [1, 0, 3, 2])

    def test_knn_graph_shape_and_no_self_loops(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 3))
        edges = knn_graph(pts, 4)
        assert edges.shape == (2, 80)
        assert not np.any(edges[0] == edges[1])

    def test_knn_graph_respects_batch_boundaries(self):
        pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 100])
        batch = np.array([0] * 5 + [1] * 5)
        edges = knn_graph(pts + np.random.default_rng(2).normal(0, 0.1, pts.shape),
                          2, batch=batch)
        # Neighbours of nodes 0-4 must also be 0-4, and similarly for 5-9.
        for src, dst in edges.T:
            assert (src < 5) == (dst < 5)

    @pytest.mark.parametrize("batch", [
        np.zeros(64, dtype=np.int64),
        np.repeat(np.arange(3), [20, 20, 10]),
        np.zeros((128, 1), dtype=np.int64),
    ], ids=["equal-sizes", "ragged", "column"])
    def test_knn_graph_rejects_a_batch_of_the_wrong_shape(self, batch):
        """A batch of the wrong length used to be read as far as it went:
        128 points under a 64-long batch of one graph came back as a
        64-node graph over 6-D rows (the equal-size path reshaped them),
        and a 50-long ragged batch ranked only the first 50 points."""
        pts = np.random.default_rng(3).standard_normal((128, 3))
        with pytest.raises(ValueError, match=r"expected \(128,\)"):
            knn_graph(pts, 4, batch=batch)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_knn_matches_full_sort(self, shape):
        """The argpartition selection picks what a full argsort does."""
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((40, 3))
        dists = _sq_distances(pts)
        np.fill_diagonal(dists, np.inf)
        for k in (1, 5, 9):
            expected = np.argsort(dists, axis=1)[:, :k]
            np.testing.assert_array_equal(_neighbour_rows(pts, k, shape),
                                          expected)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_knn_ordered_nearest_first(self, shape):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((25, 2))
        idx = _neighbour_rows(pts, 6, shape)
        picked = np.take_along_axis(_sq_distances(pts), idx, axis=1)
        assert (np.diff(picked, axis=1) >= 0).all()

    @pytest.mark.parametrize("kind", ["gaussian", "tied"])
    @pytest.mark.parametrize("n, k", [(1, 3), (2, 1), (4, 3), (5, 16),
                                      (30, 4), (64, 16), (200, 20)])
    def test_a_cloud_ranks_alike_in_every_batch_shape(self, n, k, kind):
        """One ranking definition: a cloud's edges are byte-identical
        whether it comes without a batch, as a one-graph batch, or as one
        graph of a ragged batch."""
        rng = np.random.default_rng(n + k)
        pts = rng.standard_normal((n, 3))
        if kind == "tied":
            pts = np.round(pts)
        alone = knn_graph(pts, k)
        one_graph = knn_graph(pts, k, batch=np.zeros(n, np.int64))
        ragged = knn_graph(np.concatenate([rng.standard_normal((n + 1, 3)),
                                           pts]), k,
                           batch=np.repeat([0, 1], [n + 1, n]))
        assert one_graph.tobytes() == alone.tobytes()
        assert (ragged[:, (n + 1) * k:] - (n + 1)).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_knn_graph_refuses_k_below_one(self, shape, k):
        """``k = 0`` used to return an empty graph on an equal-size batch
        and raise on the others; ``k = -1`` raised numpy's "negative
        dimensions" there."""
        points, batch = _batch_of(
            np.random.default_rng(4).standard_normal((8, 3)), shape)
        with pytest.raises(ValueError, match="k must be at least 1"):
            knn_graph(points, k, batch=batch)

    def test_k_larger_than_graph_repeats_neighbours(self):
        pts = np.array([[0.0], [1.0]])
        edges = knn_graph(pts, 5)
        assert edges.shape == (2, 10)

    def test_empty_input(self):
        assert knn_graph(np.zeros((0, 3)), 3).shape == (2, 0)

    def test_random_graph_in_degree(self):
        edges = random_graph(10, 3, rng=np.random.default_rng(0))
        in_degree = np.bincount(edges[1], minlength=10)
        np.testing.assert_array_equal(in_degree, np.full(10, 3))

    @pytest.mark.parametrize("num_nodes, batch_length", [(6, 4), (4, 6)])
    def test_random_graph_rejects_a_batch_of_the_wrong_length(
            self, num_nodes, batch_length):
        """A 4-long batch for 6 nodes used to leave nodes 4 and 5 without
        edges, and a 6-long one for 4 nodes drew sources 4 and 5."""
        with pytest.raises(ValueError, match=rf"expected \({num_nodes},\)"):
            random_graph(num_nodes, 2, rng=np.random.default_rng(0),
                         batch=np.zeros(batch_length, np.int64))

    @pytest.mark.parametrize("k", [0, -1])
    def test_random_graph_refuses_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            random_graph(5, k, rng=np.random.default_rng(0))


class TestSampling:
    def test_random_sample_unique_and_sorted(self):
        idx = random_sample(50, 10, rng=np.random.default_rng(0))
        assert len(np.unique(idx)) == 10
        assert (np.diff(idx) > 0).all()

    def test_random_sample_caps_at_population(self):
        np.testing.assert_array_equal(random_sample(5, 10), np.arange(5))

    def test_fps_spreads_points(self):
        # Two clusters far apart: FPS with 2 samples must take one from each.
        pts = np.vstack([np.zeros((10, 2)), np.full((10, 2), 100.0)])
        idx = farthest_point_sample(pts, 2, rng=np.random.default_rng(0))
        assert (idx < 10).sum() == 1 and (idx >= 10).sum() == 1

    def test_subsample_ratio_validation(self):
        with pytest.raises(ValueError):
            subsample_graph_nodes(10, 0.0)
        assert len(subsample_graph_nodes(10, 0.5)) == 5


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=30), st.integers(min_value=1, max_value=4))
def test_knn_graph_degree_property(num_points, k):
    """Property: every node receives exactly k incoming edges."""
    rng = np.random.default_rng(num_points * 13 + k)
    pts = rng.standard_normal((num_points, 3))
    edges = knn_graph(pts, k)
    in_degree = np.bincount(edges[1], minlength=num_points)
    assert (in_degree == k).all()
