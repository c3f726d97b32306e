"""The ``Communicate`` wire schema: a sampled topology travels as ``nbr``.

A sampled graph is k-regular and destination-sorted by construction, so
``device_fn`` ships the ``(N, k)`` uint16 table of source indices instead of
the ``(2, N*k)`` int64 edge list, and the edge side expands it back — once
at the top of ``edge_fn``, once per frame inside ``collate_arrays``.  These
tests pin that the schema is lossless end to end (per frame, batched and
across the shard hop, <= 1e-9 of the eager reference), that any other
topology still ships ``edge_index``, and that a micro-batch may mix both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry, collate_arrays, split_callables)
from repro.core.executor import _neighbour_table, _wire_edge_index
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch, GraphData
from repro.graph.knn import knn_graph, random_graph
from repro.serving import (RuntimeConfig, ServingConfig, ShardingConfig,
                           build_zoo_callables, serve, sharding_supported)

K = 8


def _e2blk(sample: str = "knn", k: int = K) -> Architecture:
    """The benchmark's entry, cut after the first Combine (split 3)."""
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, sample, k=k), OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMBINE, 16), OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.COMBINE, 16),
        OpSpec(OpType.GLOBAL_POOL, "max||mean")), name="e2blk")


ZOO = ArchitectureZoo([ZooEntry("e2blk", _e2blk(), 0.9, 50.0, 0.5)])


def _graphs(num_points: int = 24):
    return SyntheticModelNet40(num_points=num_points, samples_per_class=2,
                               num_classes=3, seed=5).generate()


def _frames():
    return [Batch.from_graphs([graph]) for graph in _graphs()]


def _reference(frames) -> list:
    model = ArchitectureModel(_e2blk(), in_dim=3, num_classes=3, seed=0)
    return [model(frame).data for frame in frames]


class TestDeviceEmitsNeighbourTable:
    def test_e2blk_cut_at_3_ships_nbr_not_edge_index(self):
        callables = build_zoo_callables(ZOO, in_dim=3, num_classes=3,
                                        seed=0)["e2blk"]
        frame = _frames()[0]
        arrays, _ = callables.device_fn(frame)
        assert "edge_index" not in arrays
        nbr = arrays["nbr"]
        assert nbr.dtype == np.uint16 and nbr.shape == (frame.x.shape[0], K)

    @pytest.mark.parametrize("runtime", ["compiled", "eager"])
    def test_edge_and_batch_fn_serve_nbr_like_the_reference(self, runtime):
        model = ArchitectureModel(_e2blk(), in_dim=3, num_classes=3, seed=0)
        callables = build_zoo_callables(
            ZOO, in_dim=3, num_classes=3, seed=0,
            config=RuntimeConfig(runtime=runtime))["e2blk"]
        frames = _frames()
        expected = [model(frame).data for frame in frames]
        states = [callables.device_fn(frame) for frame in frames]
        assert all("nbr" in arrays for arrays, _ in states)
        for state, reference in zip(states, expected):
            np.testing.assert_allclose(callables.edge_fn(*state)[0]["logits"],
                                       reference, atol=1e-9, rtol=0)
        for (arrays, _), reference in zip(callables.batch_fn(states),
                                          expected):
            np.testing.assert_allclose(arrays["logits"], reference,
                                       atol=1e-9, rtol=0)

    @pytest.mark.skipif(not sharding_supported("shm"),
                        reason="platform lacks multiprocessing.shared_memory")
    def test_sharded_app_serves_nbr_like_the_reference(self):
        frames = _frames()[:3]
        config = ServingConfig(sharding=ShardingConfig(num_shards=2))
        with serve(ZOO, config, in_dim=3, num_classes=3) as app:
            with app.client(model="e2blk") as client:
                results, _ = client.run(frames)
        for result, reference in zip(results, _reference(frames)):
            np.testing.assert_allclose(result.arrays["logits"], reference,
                                       atol=1e-9, rtol=0)


class TestWhichTopologiesTravelAsNbr:
    def test_irregular_topology_still_ships_edge_index(self):
        """No Sample before the cut: the frame's own edge list, which is
        not k-regular, travels as is."""
        arch = Architecture(ops=(
            OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.COMMUNICATE,
                                                    "uplink"),
            OpSpec(OpType.GLOBAL_POOL, "max")))
        device_fn, edge_fn = split_callables(
            ArchitectureModel(arch, in_dim=3, num_classes=3, seed=0))
        edges = np.array([[1, 2, 3, 0, 0], [0, 0, 0, 1, 2]])
        graph = GraphData(x=np.arange(12.0).reshape(4, 3), edge_index=edges)
        arrays, _ = device_fn(Batch.from_graphs([graph]))
        assert "nbr" not in arrays
        assert arrays["edge_index"].shape == (2, 5)

    def test_more_than_65536_nodes_ship_edge_index(self):
        for num_nodes, eligible in ((1 << 16, True), ((1 << 16) + 1, False)):
            nodes = np.arange(num_nodes, dtype=np.int64)
            edges = np.stack([nodes[::-1], nodes])
            assert (_neighbour_table(edges, num_nodes) is not None) == eligible

    def test_out_of_range_sources_are_not_truncated(self):
        edges = np.array([[1, 70000], [0, 1]])
        assert _neighbour_table(edges, 2) is None

    @pytest.mark.parametrize("build", ["knn_ragged", "random", "random_ragged"])
    def test_sampled_topologies_round_trip_exactly(self, build):
        """Random sampling and ragged multi-graph frames are k-regular and
        destination-sorted too (``random_graph`` emits k edges per node, in
        node order): their table expands back to the identical edge list."""
        sizes = (24, 9, 17) if build.endswith("ragged") else (24,)
        batch = np.repeat(np.arange(len(sizes)), sizes)
        rng = np.random.default_rng(0)
        points = rng.standard_normal((batch.shape[0], 3))
        edges = (knn_graph(points, K, batch=batch) if build == "knn_ragged"
                 else random_graph(batch.shape[0], K, rng=rng, batch=batch))
        nbr = _neighbour_table(edges, batch.shape[0])
        assert nbr is not None and nbr.shape == (batch.shape[0], K)
        expanded = _wire_edge_index({"x": points, "nbr": nbr})
        assert expanded.dtype == np.int64
        np.testing.assert_array_equal(expanded, edges)

    def test_random_sampled_frame_serves_identically_either_way(self):
        """The edge side never resamples: the table and the edge list it
        stands for must give bit-identical logits."""
        model = ArchitectureModel(_e2blk("random"), in_dim=3, num_classes=3,
                                  seed=0)
        device_fn, edge_fn = split_callables(model)
        arrays, meta = device_fn(_frames()[0])
        assert "nbr" in arrays
        edge_list = {name: array for name, array in arrays.items()
                     if name != "nbr"}
        edge_list["edge_index"] = _wire_edge_index(arrays)
        np.testing.assert_array_equal(edge_fn(arrays, meta)[0]["logits"],
                                      edge_fn(edge_list, meta)[0]["logits"])

    def test_table_that_does_not_match_x_is_refused(self):
        with pytest.raises(ValueError, match="neighbour table"):
            _wire_edge_index({"x": np.zeros((3, 2)),
                              "nbr": np.zeros((4, 2), np.uint16)})


class TestCollateMixedSchemas:
    def test_nbr_and_edge_index_frames_collate_like_two_edge_lists(self):
        callables = build_zoo_callables(ZOO, in_dim=3, num_classes=3,
                                        seed=0)["e2blk"]
        states = [callables.device_fn(frame) for frame in _frames()[:2]]

        def as_edge_list(state):
            arrays, meta = state
            plain = {name: array for name, array in arrays.items()
                     if name != "nbr"}
            plain["edge_index"] = _wire_edge_index(arrays)
            return plain, meta

        mixed = collate_arrays([states[0], as_edge_list(states[1])])
        plain = collate_arrays([as_edge_list(state) for state in states])
        assert mixed[1:] == plain[1:]
        assert set(mixed[0]) == set(plain[0]) == {"x", "batch", "edge_index",
                                                  "pos"}
        for name in plain[0]:
            np.testing.assert_array_equal(mixed[0][name], plain[0][name])

    def test_frames_with_and_without_topology_still_refused(self):
        callables = build_zoo_callables(ZOO, in_dim=3, num_classes=3,
                                        seed=0)["e2blk"]
        arrays, meta = callables.device_fn(_frames()[0])
        bare = {name: array for name, array in arrays.items()
                if name != "nbr"}
        with pytest.raises(ValueError, match="edge_index"):
            collate_arrays([(arrays, meta), (bare, meta)])
