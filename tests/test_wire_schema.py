"""The ``Communicate`` wire schema: ship what the edge reads, once.

A sampled graph is k-regular and destination-sorted by construction, so
``device_fn`` ships the ``(N, k)`` uint16 table of source indices instead of
the ``(2, N*k)`` int64 edge list.  ``pos`` travels only when a knn
``Sample`` follows the cut, and when it is bitwise ``x`` (a
Communicate-first cut) only ``x`` travels, with the meta marker
``{"pos": "x"}``.  The edge side undoes both — once at the top of
``edge_fn``, once per frame inside ``collate_arrays``.  These tests pin
that the schema is lossless end to end (per frame, batched and across the
shard hop: bit-identical to shipping everything), that any other topology
still ships ``edge_index``, that a micro-batch may mix both, and the
request size of the benchmark's paper-scale frame.

What the edge accepts is declared once, in ``repro.core.executor``'s
frozen schema (``_WIRE_ARRAYS``, ``_WIRE_META``, ``_EXCLUSIVE``), and
``TestSchemaFailsClosed`` generates its hostile frames from it: one per
declared bound, each breaking only that bound, refused per frame, in a
batch, on both live frontends and across the shard hop before any plan
step runs.  The hand-written marker, topology-range and graph-count cases
stay beside them.
"""

from __future__ import annotations

import functools
import re
import tracemalloc

import numpy as np
import pytest

from conftest import frame_specs
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry, collate_arrays)
from repro.core.executor import (_EXCLUSIVE, _FREE_AXES, _POS_META_KEY,
                                 _REQUIRED, _WIRE_ARRAYS, _WIRE_META,
                                 _neighbour_table, _wire_state)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch, GraphData
from repro.graph.knn import knn_graph, random_graph
from repro.runtime.plan import PlanSegment
from repro.serving import (RuntimeConfig, ServerConfig, ServingConfig,
                           ShardingConfig, build_callables,
                           build_zoo_callables, serve, sharding_supported)
from repro.system import (DeviceClient, EdgeServer, Message,
                          deserialize_message, serialize_message)
from repro.system.messages import KIND_FRAME

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
        device_fn = build_callables(
            ArchitectureModel(arch, in_dim=3, num_classes=3, seed=0)).device_fn
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
        expanded = _wire_state({"x": points, "batch": batch, "nbr": nbr},
                               {"num_graphs": len(sizes)})["edge_index"]
        assert expanded.dtype == np.int64
        np.testing.assert_array_equal(expanded, edges)

    def test_random_sampled_frame_serves_identically_either_way(self):
        """The edge side never resamples: the table and the edge list it
        stands for must give bit-identical logits."""
        model = ArchitectureModel(_e2blk("random"), in_dim=3, num_classes=3,
                                  seed=0)
        serving = build_callables(model)
        edge_fn = serving.edge_fn
        arrays, meta = serving.device_fn(_frames()[0])
        assert "nbr" in arrays
        edge_list = {name: array for name, array in arrays.items()
                     if name != "nbr"}
        edge_list["edge_index"] = _wire_state(arrays, meta)["edge_index"]
        np.testing.assert_array_equal(edge_fn(arrays, meta)[0]["logits"],
                                      edge_fn(edge_list, meta)[0]["logits"])

    def test_table_that_does_not_match_x_is_refused(self):
        with pytest.raises(ValueError, match="neighbour table"):
            _wire_state({"x": np.zeros((3, 2)), "batch": np.zeros(3, int),
                         "nbr": np.zeros((4, 2), np.uint16)},
                        {"num_graphs": 1})


class TestCollateMixedSchemas:
    def test_nbr_and_edge_index_frames_collate_like_two_edge_lists(self):
        callables = build_zoo_callables(ZOO, in_dim=3, num_classes=3,
                                        seed=0)["e2blk"]
        states = [callables.device_fn(frame) for frame in _frames()[:2]]

        def as_edge_list(state):
            arrays, meta = state
            plain = {name: array for name, array in arrays.items()
                     if name != "nbr"}
            plain["edge_index"] = _wire_state(arrays, meta)["edge_index"]
            return plain, meta

        mixed = collate_arrays([states[0], as_edge_list(states[1])])
        plain = collate_arrays([as_edge_list(state) for state in states])
        assert mixed[1:] == plain[1:]
        # No knn Sample follows the cut: pos is dead and never travels.
        assert set(mixed[0]) == set(plain[0]) == {"x", "batch", "edge_index"}
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

    def test_aliased_and_pos_free_frames_still_refused(self):
        """The pos/no-pos refusal holds when ``pos`` arrived as the marker:
        the aliased frame counts as carrying ``pos``."""
        callables = build_zoo_callables(POS_ZOO, in_dim=3, num_classes=3,
                                        seed=0)["a_pos_is_x"]
        aliased = callables.device_fn(_pos_frames("a_pos_is_x")[0])
        bare = callables.device_fn(Batch.from_graphs([GraphData(
            x=np.random.default_rng(0).standard_normal((24, 3)))]))
        assert aliased[1]["pos"] == "x" and "pos" not in aliased[0]
        assert "pos" not in bare[0] and "pos" not in bare[1]
        with pytest.raises(ValueError, match="pos"):
            callables.batch_fn([aliased, bare])


# ----------------------------------------------------------------------
# pos travels only when the edge reads it, and once when it is x
# ----------------------------------------------------------------------
KNN = OpSpec(OpType.SAMPLE, "knn", k=K)
RANDOM = OpSpec(OpType.SAMPLE, "random", k=K)
AGG = OpSpec(OpType.AGGREGATE, "max")
C16 = OpSpec(OpType.COMBINE, 16)
COMM = OpSpec(OpType.COMMUNICATE, "uplink")
POOL = OpSpec(OpType.GLOBAL_POOL, "max||mean")

#: ``{entry: (ops, frames have pos == x, what the device ships)}`` — the
#: last is ``"marker"`` (``x`` once, meta ``{"pos": "x"}``), ``"pos"`` (the
#: array) or ``None`` (pos is dead).
POS_CASES = {
    # (a) paper_edge's shape: Communicate first, a knn Sample after it.
    "a_pos_is_x": ((COMM, KNN, AGG, C16, POOL), True, "marker"),
    # (b) paper_split's shape: no Sample after the cut.
    "b_dead_pos": (_e2blk().ops, True, None),
    # (c) a knn Sample after a Combine after the cut reads pos, which the
    # device's own Combine made differ from x.
    "c_knn_after_combine": ((KNN, AGG, C16, COMM, C16, KNN, AGG, POOL),
                            True, "pos"),
    # (c') the same knn Sample after a Communicate-first cut: the edge must
    # restore pos from the x that travelled, not from the Combine's x.
    "c_marker_then_combine": ((COMM, C16, KNN, AGG, POOL), True, "marker"),
    # (d) a random Sample never reads pos.
    "d_random_sample": ((COMM, RANDOM, AGG, C16, POOL), True, None),
    # (e) Communicate first, but the frames' pos is not their x.
    "e_pos_is_not_x": ((COMM, KNN, AGG, C16, POOL), False, "pos"),
}
POS_ZOO = ArchitectureZoo([
    ZooEntry(name, Architecture(ops=ops, name=name), 0.9, 50.0, 0.5)
    for name, (ops, _, _) in POS_CASES.items()])


def _pos_frames(case: str) -> list:
    """Eight one-graph frames; pos is x unless ``case`` says otherwise."""
    graphs = SyntheticModelNet40(num_points=24, samples_per_class=3,
                                 num_classes=3, seed=5).generate()[:8]
    if not POS_CASES[case][1]:
        rng = np.random.default_rng(3)
        graphs = [GraphData(x=rng.standard_normal(graph.x.shape),
                            pos=graph.pos) for graph in graphs]
    return [Batch.from_graphs([graph]) for graph in graphs]


def _shipping_pos(state, frame):
    """``state`` as the wire carried it before the pos rule: ``pos``
    always travels as an array, and no marker."""
    arrays, meta = state
    return (dict(arrays, pos=frame.pos),
            {key: value for key, value in meta.items() if key != "pos"})


def _over_the_wire(state):
    arrays, meta = state
    message = deserialize_message(serialize_message(
        Message(kind=KIND_FRAME, arrays=arrays, meta=meta)))
    return message.arrays, message.meta


def _reference_and_subject(case: str, **config):
    """Two independent builds of one entry.  Random sampling draws from
    its model's generator, so the reference must not share the subject's
    model: both then see the same draws in the same call order."""
    return [build_zoo_callables(POS_ZOO, in_dim=3, num_classes=3, seed=0,
                                config=RuntimeConfig(**config))[case]
            for _ in range(2)]


def _logits(results) -> list:
    return [arrays["logits"].tobytes() for arrays, _ in results]


class TestPosTravelsOnce:
    @pytest.mark.parametrize("case", sorted(POS_CASES))
    def test_device_ships_what_the_edge_reads(self, case):
        callables = build_zoo_callables(POS_ZOO, in_dim=3, num_classes=3,
                                        seed=0)[case]
        ships = POS_CASES[case][2]
        for frame in _pos_frames(case):
            arrays, meta = callables.device_fn(frame)
            assert ("pos" in arrays) == (ships == "pos")
            assert meta.get("pos") == ("x" if ships == "marker" else None)

    @staticmethod
    def _assert_matches_shipping_pos(case, **config):
        reference, subject = _reference_and_subject(case, **config)
        frames = _pos_frames(case)
        states = [_over_the_wire(subject.device_fn(frame))
                  for frame in frames]
        shipped = [_over_the_wire(_shipping_pos(state, frame))
                   for state, frame in zip(states, frames)]
        assert _logits(subject.edge_fn(*state) for state in states) \
            == _logits(reference.edge_fn(*state) for state in shipped)
        assert _logits(subject.batch_fn(states)) \
            == _logits(reference.batch_fn(shipped))

    @pytest.mark.parametrize("runtime", ["compiled", "eager"])
    @pytest.mark.parametrize("case", sorted(POS_CASES))
    def test_edge_and_batch_fn_match_shipping_pos(self, case, runtime):
        self._assert_matches_shipping_pos(case, runtime=runtime)

    @pytest.mark.parametrize("case", ["a_pos_is_x", "c_marker_then_combine"])
    def test_int8_plans_match_shipping_pos(self, case):
        """An int8 device segment quantizes ``x`` on entry and dequantizes
        it on exit, so ``x`` is no longer bitwise ``pos``: the rule is
        bitwise, and ``pos`` travels as an array."""
        subject = build_zoo_callables(
            POS_ZOO, in_dim=3, num_classes=3, seed=0,
            config=RuntimeConfig(precision="int8"))[case]
        arrays, meta = subject.device_fn(_pos_frames(case)[0])
        assert "pos" in arrays and "pos" not in meta
        self._assert_matches_shipping_pos(case, precision="int8")

    @pytest.mark.skipif(not sharding_supported("shm"),
                        reason="platform lacks multiprocessing.shared_memory")
    @pytest.mark.parametrize("runtime", ["compiled", "eager"])
    def test_sharded_app_matches_shipping_pos(self, runtime):
        """Every case across the shard hop, against a fresh app fed the
        same frames in the same order with pos shipped."""
        config = ServingConfig(runtime=RuntimeConfig(runtime=runtime),
                               sharding=ShardingConfig(num_shards=2))
        logits = {}
        for shipping in (True, False):
            with serve(POS_ZOO, config, in_dim=3, num_classes=3) as app:
                for case in sorted(POS_CASES):
                    device_fn = app.repository.device_fn(case)
                    if shipping:
                        device_fn = (lambda frame, run=device_fn:
                                     _shipping_pos(run(frame), frame))
                    with app.client(model=case) as client:
                        results, _ = client.run(_pos_frames(case), device_fn)
                    logits[shipping, case] = [
                        result.arrays["logits"].tobytes()
                        for result in results]
        for case in POS_CASES:
            assert logits[False, case] == logits[True, case], case


class TestPosMarkerFailsClosed:
    @staticmethod
    def _tampered(tamper: str):
        callables = build_zoo_callables(POS_ZOO, in_dim=3, num_classes=3,
                                        seed=0)["a_pos_is_x"]

        def device_fn(frame):
            arrays, meta = callables.device_fn(frame)
            if tamper == "marker_and_pos":
                return dict(arrays, pos=np.asarray(arrays["x"]) + 1.0), meta
            return arrays, dict(meta, pos="batch")

        return callables, device_fn

    @pytest.mark.parametrize("tamper", ["marker_and_pos", "unknown_marker"])
    def test_edge_refuses_to_pick_one(self, tamper):
        callables, device_fn = self._tampered(tamper)
        state = device_fn(_pos_frames("a_pos_is_x")[0])
        with pytest.raises(ValueError, match="pos"):
            callables.edge_fn(*state)
        with pytest.raises(ValueError, match="pos"):
            callables.batch_fn([state])

    @pytest.mark.parametrize("tamper", ["marker_and_pos", "unknown_marker"])
    def test_refusal_is_a_per_frame_error_reply(self, tamper):
        callables, device_fn = self._tampered(tamper)
        frames = _pos_frames("a_pos_is_x")[:2]
        server = EdgeServer(callables.edge_fn).start()
        clients = [DeviceClient(server.host, server.port) for _ in range(2)]
        try:
            with pytest.raises(RuntimeError, match="pos"):
                clients[0].run_pipeline(frames[:1], device_fn, timeout_s=20.0)
            results, _ = clients[1].run_pipeline(frames, callables.device_fn)
            assert len(results) == len(frames)
            assert server.stats().errors == 1
        finally:
            for client in clients:
                client.close()
            server.stop()


class TestTopologyRangeFailsClosed:
    """A wire topology naming a node outside ``[0, N)`` is refused before
    it is expanded: one past the end used to surface only as an
    ``IndexError`` deep in a kernel, and a negative source was served
    silently as node ``N + i``."""

    @staticmethod
    def _tampered(tamper: str):
        callables = build_zoo_callables(ZOO, in_dim=3, num_classes=3,
                                        seed=0)["e2blk"]

        def device_fn(frame):
            arrays, meta = callables.device_fn(frame)
            arrays = dict(arrays)
            num_nodes = len(arrays["x"])
            if tamper == "nbr_past_end":
                nbr = arrays["nbr"].copy()
                nbr[2, 1] = num_nodes
                arrays["nbr"] = nbr
            else:
                edges = _wire_state(arrays, meta)["edge_index"].copy()
                edges[0 if tamper == "negative_source" else 1, 5] = (
                    -1 if tamper == "negative_source" else num_nodes)
                del arrays["nbr"]
                arrays["edge_index"] = edges
            return arrays, meta

        return callables, device_fn

    TAMPERS = ["nbr_past_end", "negative_source", "destination_past_end"]

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_edge_refuses_the_frame(self, tamper):
        callables, device_fn = self._tampered(tamper)
        state = device_fn(_frames()[0])
        with pytest.raises(ValueError, match="outside the frame"):
            callables.edge_fn(*state)
        with pytest.raises(ValueError, match="outside the frame"):
            callables.batch_fn([state])

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_refusal_is_a_per_frame_error_reply(self, tamper):
        callables, device_fn = self._tampered(tamper)
        frames = _frames()[:2]
        server = EdgeServer(callables.edge_fn).start()
        client = DeviceClient(server.host, server.port)
        try:
            with pytest.raises(RuntimeError, match="outside the frame"):
                client.run_pipeline(frames[:1], device_fn, timeout_s=20.0)
            results, _ = client.run_pipeline(frames, callables.device_fn)
            assert len(results) == len(frames)
            assert server.stats().errors == 1
        finally:
            client.close()
            server.stop()


class TestGraphCountFailsClosed:
    """``num_graphs`` sizes the pooling and logits buffers, so the edge
    bounds it by the frame's rows before anything runs: a 16-point frame
    that claimed a million graphs used to be served a million-row reply."""

    ENTRY = "a_pos_is_x"  # paper_edge's shape: Communicate first
    BAD = [True, 2.5, "3", 0, -1, 17, 1_000_000, None]

    @classmethod
    def _state(cls, **meta):
        callables = build_zoo_callables(POS_ZOO, in_dim=3, num_classes=3,
                                        seed=0)[cls.ENTRY]
        frame = Batch.from_graphs([SyntheticModelNet40(
            num_points=16, samples_per_class=1, num_classes=2,
            seed=5).generate()[0]])
        arrays, honest = _over_the_wire(callables.device_fn(frame))
        assert honest["num_graphs"] == 1 and len(arrays["x"]) == 16
        return callables, arrays, dict(honest, **meta)

    @pytest.mark.parametrize("call", ["edge_fn", "batch_fn"])
    def test_a_million_graphs_is_refused_before_allocating(self, call):
        callables, arrays, meta = self._state(num_graphs=1_000_000)
        run = (callables.edge_fn if call == "edge_fn"
               else lambda *state: callables.batch_fn([state]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1000000 graphs"):
                run(arrays, meta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_bad_counts_are_refused(self, bad):
        callables, arrays, meta = self._state(num_graphs=bad)
        with pytest.raises(ValueError, match="num_graphs|graphs over"):
            callables.edge_fn(arrays, meta)
        with pytest.raises(ValueError, match="num_graphs|graphs over"):
            callables.batch_fn([(arrays, meta)])

    def test_a_missing_count_is_refused(self):
        callables, arrays, meta = self._state()
        del meta["num_graphs"]
        with pytest.raises(ValueError, match="num_graphs"):
            callables.edge_fn(arrays, meta)

    def test_a_numpy_integer_count_is_served(self):
        """An in-process caller's count may be a numpy integer."""
        callables, arrays, meta = self._state(num_graphs=np.int64(1))
        assert callables.edge_fn(arrays, meta)[0]["logits"].shape == (1, 3)

    def test_pooled_frame_needs_one_row_per_graph(self):
        """A cut after GlobalPool ships one row per graph."""
        zoo = ArchitectureZoo([ZooEntry("pooled", Architecture(
            ops=(KNN, AGG, C16, POOL, COMM), name="pooled"), 0.9, 50.0, 0.5)])
        callables = build_zoo_callables(zoo, in_dim=3, num_classes=3,
                                        seed=0)["pooled"]
        frame = Batch.from_graphs(_graphs()[:2])
        arrays, meta = _over_the_wire(callables.device_fn(frame))
        assert meta["pooled"] and len(arrays["x"]) == meta["num_graphs"] == 2
        assert callables.edge_fn(arrays, meta)[0]["logits"].shape == (2, 3)
        for claimed in (1, 3):
            bad = dict(meta, num_graphs=claimed)
            with pytest.raises(ValueError, match="pooled frame"):
                callables.edge_fn(arrays, bad)
            with pytest.raises(ValueError, match="pooled frame"):
                callables.batch_fn([(arrays, bad)])

    def test_refusal_is_a_per_frame_error_reply(self):
        callables, _, _ = self._state()

        def device_fn(frame):
            arrays, meta = callables.device_fn(frame)
            return arrays, dict(meta, num_graphs=1_000_000)

        frames = _pos_frames(self.ENTRY)[:2]
        server = EdgeServer(batch_fns={"default": callables.batch_fn}).start()
        client = DeviceClient(server.host, server.port)
        try:
            with pytest.raises(RuntimeError, match="1000000 graphs"):
                client.run_pipeline(frames[:1], device_fn, timeout_s=20.0)
            results, _ = client.run_pipeline(frames, callables.device_fn)
            assert [r.arrays["logits"].shape for r in results] == [(1, 3)] * 2
            assert server.stats().errors == 1
        finally:
            client.close()
            server.stop()


class TestPaperScaleRequestSize:
    """The wire guard: the benchmark's entry at paper scale, one seeded
    1024-point k=20 frame, in about a second instead of an end-to-end run.
    Each bound sits 1–4 % above today's request and below the request
    before the last change to it: 47.2 KB before the pos rule, 300.1 KB
    before the byte-planed ``nbr`` table and the run-length planes."""

    @staticmethod
    def _request(split: int) -> bytes:
        ops = [OpSpec(OpType.SAMPLE, "knn", k=20), AGG,
               OpSpec(OpType.COMBINE, 64), AGG, OpSpec(OpType.COMBINE, 64),
               POOL]
        ops.insert(split, COMM)
        model = ArchitectureModel(Architecture(ops=tuple(ops), name="e2blk"),
                                  in_dim=3, num_classes=10, seed=0)
        device_fn = build_callables(model).device_fn
        graph = SyntheticModelNet40(num_points=1024, samples_per_class=1,
                                    num_classes=2, seed=1).generate()[0]
        arrays, meta = device_fn(Batch.from_graphs([graph]))
        return serialize_message(Message(
            kind=KIND_FRAME, arrays=arrays, meta=dict(meta, model="e2blk")))

    def test_communicate_first_request_fits_24_kib(self):
        assert len(self._request(0)) <= 24 * 1024

    def test_paper_split_request_fits_293_kib(self):
        blob = self._request(3)
        assert len(blob) <= 293 * 1024
        # x zero-suppressed, the nbr table byte-planed, batch dense.
        layouts = {name: layout for name, _, _, *layout in frame_specs(blob)}
        assert layouts == {"x": ["zp"], "nbr": ["bp"], "batch": []}


# ----------------------------------------------------------------------
# Every bound of the wire schema, broken one at a time
# ----------------------------------------------------------------------
#: The edge frames the generated cases start from, each from the device
#: segment of its entry: ``topology`` ships ``nbr`` and ``pos`` (and, as
#: ``edge_list``, the edge list ``nbr`` stands for), ``marker`` the pos-is-x
#: marker, ``pooled`` one row per graph, ``device_only`` its logits.
SCHEMA_ENTRIES = {
    "topology": (KNN, AGG, C16, COMM, C16, KNN, AGG, POOL),
    "marker": (COMM, KNN, AGG, C16, POOL),
    "pooled": (KNN, AGG, C16, POOL, COMM),
    "device_only": (KNN, AGG, C16, POOL),
}
SCHEMA_ZOO = ArchitectureZoo([
    ZooEntry(name, Architecture(ops=ops, name=name), 0.9, 50.0, 0.5)
    for name, ops in SCHEMA_ENTRIES.items()])
#: The entry that serves each base frame.
BASE_ENTRY = dict({name: name for name in SCHEMA_ENTRIES},
                  edge_list="topology")
#: Meta fields whose cases start from a frame other than ``topology``.
META_BASE = {_POS_META_KEY: "marker"}
#: A value of each foreign dtype kind / Python type a case may try.
FOREIGN_DTYPES = (np.float64, np.int64, np.complex128)
FOREIGN_VALUES = (True, 1, "1")


def _two_graph_frame() -> Batch:
    """Two 16-point graphs in one 32-row frame."""
    return Batch.from_graphs(SyntheticModelNet40(
        num_points=16, samples_per_class=1, num_classes=2,
        seed=5).generate()[:2])


@functools.lru_cache(maxsize=None)
def _honest_states() -> dict:
    callables = build_zoo_callables(SCHEMA_ZOO, in_dim=3, num_classes=3,
                                    seed=0)
    frame = _two_graph_frame()
    states = {name: _over_the_wire(callables[name].device_fn(frame))
              for name in SCHEMA_ENTRIES}
    arrays, meta = states["topology"]
    edge_list = {name: array for name, array in arrays.items()
                 if name != "nbr"}
    edge_list["edge_index"] = _wire_state(arrays, meta)["edge_index"]
    states["edge_list"] = (edge_list, meta)
    return states


def _first_int(array: np.ndarray, value: int) -> np.ndarray:
    array = array.astype(np.int64)
    array.reshape(-1)[0] = value
    return array


def _of_type(value, types) -> bool:
    return isinstance(value, types) and not (
        isinstance(value, bool) and bool not in types)


def _array_cases(name, spec):
    """``(bound, refusal words, base, tamper)`` per bound of one array
    row; ``tamper`` maps the base's array (and the frame's N and G) to the
    hostile one, or is ``None`` to drop it."""
    base = "edge_list" if name == "edge_index" else "topology"
    for dtype in map(np.dtype, FOREIGN_DTYPES):
        if not np.issubdtype(dtype, spec.dtype):
            yield (f"kind-{dtype.name}", f"must be {spec.dtype.__name__}",
                   base, lambda a, sizes, dtype=dtype: a.astype(dtype))
    yield "ndim", "has shape", base, lambda a, sizes: a[..., None]
    for axis, length in enumerate(spec.shape):
        if length == "N" and name != "x":  # x's rows are N
            yield (f"axis{axis}-short", "has shape", base,
                   lambda a, sizes, axis=axis: np.delete(a, -1, axis=axis))
        elif isinstance(length, int):
            yield (f"axis{axis}-long", "has shape", base,
                   lambda a, sizes, axis=axis: np.concatenate(
                       [a, a.take([0], axis=axis)], axis=axis))
        elif _FREE_AXES.get(length, 0) > 0:
            yield (f"axis{axis}-below-{_FREE_AXES[length]}", "has shape",
                   base, lambda a, sizes, axis=axis, least=_FREE_AXES[length]:
                   a.take(range(least - 1), axis=axis))
    if spec.high is not None:
        yield ("below-0", "outside the frame", base,
               lambda a, sizes: _first_int(a, -1))
        yield (f"at-{spec.high}", "outside the frame", base,
               lambda a, sizes, high=spec.high: _first_int(a, sizes[high]))
    if spec.every:
        yield "every", "empty", base, lambda a, sizes: np.zeros_like(a)
    if spec.required:
        yield "required", "is missing", base, None


def _meta_cases(name, field):
    """``(bound, refusal words, base, value)`` per bound of one meta
    field; ``_REQUIRED`` as the value drops the field, and a callable
    value maps N to it."""
    base = META_BASE.get(name, "topology")
    yield ("type", f"must be {field.types[0].__name__}", base,
           next(value for value in FOREIGN_VALUES
                if not _of_type(value, field.types)))
    if field.default is _REQUIRED:
        yield "required", "is missing", base, _REQUIRED
    if field.choices:
        yield "choice", "is not one of", base, field.choices[0] * 2
    if field.high is not None:
        unpooled = "must lie in .* for an unpooled frame"
        yield f"below-{field.low}", unpooled, base, field.low - 1
        yield (f"above-{field.high}", unpooled, base, lambda rows: rows + 1)
        yield (f"pooled-not-{field.high}", "for a pooled frame", "pooled",
               lambda rows: rows + 1)
    if field.entry:
        for base, finished in (("topology", True), ("device_only", False)):
            yield f"entry-{base}", "is not one of", base, finished


def _schema_cases() -> dict:
    """``{case id: (entry, make, refusal)}``: one case per bound the wire
    schema declares, breaking only that bound.  ``make()`` builds the
    frame from an honest one; ``refusal`` matches a message naming the
    array or field and the bound."""
    cases = {}

    def frame(base):
        arrays, meta = _honest_states()[base]
        return dict(arrays), dict(meta)

    for name, spec in _WIRE_ARRAYS.items():
        for bound, words, base, tamper in _array_cases(name, spec):
            def make(name=name, base=base, tamper=tamper):
                arrays, meta = frame(base)
                if tamper is None:
                    del arrays[name]
                else:
                    sizes = {"N": len(arrays["x"]), "G": meta["num_graphs"]}
                    arrays[name] = tamper(np.array(arrays[name]), sizes)
                return arrays, meta
            cases[f"{name}:{bound}"] = (BASE_ENTRY[base], make,
                                        rf"\b{name}\b.*{words}")
    for name, field in _WIRE_META.items():
        for bound, words, base, value in _meta_cases(name, field):
            def make(name=name, base=base, value=value):
                arrays, meta = frame(base)
                if value is _REQUIRED:
                    del meta[name]
                else:
                    meta[name] = (value(len(arrays["x"])) if callable(value)
                                  else value)
                return arrays, meta
            cases[f"meta.{name}:{bound}"] = (BASE_ENTRY[base], make,
                                             rf"\b{name}\b.*{words}")
    for pair in _EXCLUSIVE:
        def make(pair=pair):
            arrays, meta = frame("topology")
            for item in pair:
                if item.startswith("meta."):
                    field = item[len("meta."):]
                    meta[field] = _WIRE_META[field].choices[0]
                elif item not in arrays:
                    arrays[item] = _honest_states()["edge_list"][0][item]
            return arrays, meta
        cases["exclusive:" + "+".join(pair)] = (
            "topology", make,
            re.escape(f"both {pair[0]} and {pair[1]}: refusing to pick one"))
    return cases


SCHEMA_CASES = _schema_cases()


@pytest.fixture
def execute_calls(monkeypatch):
    """Every plan segment execution while the test runs."""
    calls = []
    execute = PlanSegment.execute

    def counted(segment, *args, **kwargs):
        calls.append(segment)
        return execute(segment, *args, **kwargs)

    monkeypatch.setattr(PlanSegment, "execute", counted)
    return calls


@pytest.fixture(scope="class", params=["threaded", "async"])
def schema_server(request):
    """One live server per frontend, serving every schema entry."""
    callables = build_zoo_callables(SCHEMA_ZOO, in_dim=3, num_classes=3,
                                    seed=0)
    server = EdgeServer(
        batch_fns={name: entry.batch_fn for name, entry in callables.items()},
        config=ServerConfig(frontend=request.param)).start()
    yield server, callables
    server.stop()


@pytest.mark.filterwarnings("error")
class TestSchemaFailsClosed:
    """Each declared bound, broken alone, is refused with a ``ValueError``
    naming the array or field and its bound — before any plan step runs,
    with no numpy warning, per frame, in a batch and on a live server."""

    def test_the_base_frames_are_served(self):
        callables = build_zoo_callables(SCHEMA_ZOO, in_dim=3, num_classes=3,
                                        seed=0)
        for base, state in _honest_states().items():
            serving = callables[BASE_ENTRY[base]]
            with np.errstate(all="raise"):
                logits = serving.edge_fn(*state)[0]["logits"]
                batched = serving.batch_fn([state, state])
            assert logits.shape == (2, 3)
            for arrays, _ in batched:
                np.testing.assert_allclose(arrays["logits"], logits,
                                           atol=1e-9, rtol=0)

    def test_the_probed_frames_are_among_the_cases(self):
        """The malformed frames a probe found served before the table."""
        assert {"batch:every", "batch:axis0-short", "batch:kind-float64",
                "nbr:kind-float64", "edge_index:kind-float64",
                "edge_index:axis0-long", "exclusive:nbr+edge_index",
                "x:kind-complex128", "batch:at-G"} <= set(SCHEMA_CASES)

    @pytest.mark.parametrize("call", ["edge_fn", "batch_fn"])
    @pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
    def test_refused_before_any_step(self, case, call, execute_calls):
        entry, make, refusal = SCHEMA_CASES[case]
        serving = build_zoo_callables(SCHEMA_ZOO, in_dim=3, num_classes=3,
                                      seed=0)[entry]
        arrays, meta = make()
        execute_calls.clear()  # the first make() runs the device segments
        with np.errstate(all="raise"), pytest.raises(ValueError,
                                                     match=refusal):
            if call == "edge_fn":
                serving.edge_fn(arrays, meta)
            else:
                serving.batch_fn([(arrays, meta)])
        assert execute_calls == []

    @pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
    def test_live_refusal_is_a_per_frame_error_reply(self, schema_server,
                                                     case, execute_calls):
        server, callables = schema_server
        entry, make, refusal = SCHEMA_CASES[case]
        state = make()
        execute_calls.clear()  # the first make() runs the device segments
        errors = server.stats().errors
        client = DeviceClient(server.host, server.port, model=entry)
        try:
            with pytest.raises(RuntimeError, match=refusal):
                client.run_pipeline([None], lambda _: state, timeout_s=20.0)
            assert execute_calls == []
            assert server.stats().errors == errors + 1
            results, _ = client.run_pipeline([_two_graph_frame()],
                                             callables[entry].device_fn)
            assert results[0].arrays["logits"].shape == (2, 3)
        finally:
            client.close()

    @pytest.mark.skipif(not sharding_supported("shm"),
                        reason="platform lacks multiprocessing.shared_memory")
    def test_refused_across_the_shard_hop(self):
        entry, make, refusal = SCHEMA_CASES["batch:every"]
        state = make()
        config = ServingConfig(sharding=ShardingConfig(num_shards=2))
        with serve(SCHEMA_ZOO, config, in_dim=3, num_classes=3) as app:
            with app.client(model=entry) as client:
                with pytest.raises(RuntimeError, match=refusal):
                    client.run([None], lambda _: state)
                results, _ = client.run([_two_graph_frame()])
        assert results[0].arrays["logits"].shape == (2, 3)


class TestFinishedIsTheEntrys:
    """Whether a frame is finished is a fact of its entry (no
    ``Communicate``), not of the frame: a split entry's frame claiming
    ``finished`` used to get its own features echoed back as logits."""

    @staticmethod
    def _states(entry):
        serving = build_zoo_callables(SCHEMA_ZOO, in_dim=3, num_classes=3,
                                      seed=0)[entry]
        arrays, meta = _honest_states()[entry]
        silent = {key: value for key, value in meta.items()
                  if key != "finished"}
        liar = dict(meta, finished=not meta["finished"])
        return serving, (arrays, meta), (arrays, silent), (arrays, liar)

    @pytest.mark.parametrize("entry", ["topology", "device_only"])
    def test_a_contradicting_claim_is_refused(self, entry):
        serving, honest, _, liar = self._states(entry)
        for run in (lambda: serving.edge_fn(*liar),
                    lambda: serving.batch_fn([liar]),
                    lambda: serving.batch_fn([honest, liar])):
            with pytest.raises(ValueError, match="finished.*not one of"):
                run()

    @pytest.mark.parametrize("entry", ["topology", "device_only"])
    def test_no_claim_is_served_like_the_honest_one(self, entry):
        serving, honest, silent, _ = self._states(entry)
        expected = serving.edge_fn(*honest)[0]["logits"]
        assert expected.shape == (2, 3)
        for served in (serving.edge_fn(*silent)[0],
                       serving.batch_fn([silent])[0][0],
                       serving.batch_fn([honest, silent])[1][0]):
            np.testing.assert_allclose(served["logits"], expected,
                                       atol=1e-9, rtol=0)
