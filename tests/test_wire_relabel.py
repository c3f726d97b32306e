"""The device renames a frame's nodes at the cut, in Z-order, when it ships
a neighbour table.

``device_fn`` sorts the nodes of a frame that ships ``nbr`` by the Morton
code of their input coordinates (``pos``, else the first three columns of
``x``), graph by graph, renames ``nbr`` through the inverse permutation and
sorts each row: the wire's ``dp`` layout then ships each row as small gaps.
These tests pin that the edge serves the renamed frame as it serves the
same state in the device's own order (bitwise where every reduction is a
max, to 1e-12 otherwise), for knn and random sampling, every aggregation,
single-graph and ragged multi-graph frames; that the renamed frame keeps
``batch`` sorted, each graph's ids inside the graph, and the sampled
neighbour sets exactly; that non-finite coordinates and entries whose edge
segment samples keep the device's order; and that frames with no topology
never reach the relabel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Architecture, ArchitectureModel
from repro.core import executor
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch, GraphData
from repro.serving import RuntimeConfig, build_callables
from repro.system import Message, deserialize_message, serialize_message
from repro.system.messages import KIND_FRAME

K = 6
COMM = OpSpec(OpType.COMMUNICATE, "uplink")
C16 = OpSpec(OpType.COMBINE, 16)


def _callables(sample: str, aggregate: str, pool: str, runtime="auto",
               edge_sample: bool = False):
    """Sample -> Aggregate -> Combine | cut | Aggregate -> Combine -> Pool,
    with a second ``Sample`` after the cut when ``edge_sample``."""
    agg = OpSpec(OpType.AGGREGATE, aggregate)
    edge = (OpSpec(OpType.SAMPLE, sample, k=K),) if edge_sample else ()
    ops = (OpSpec(OpType.SAMPLE, sample, k=K), agg, C16, COMM, *edge, agg,
           C16, OpSpec(OpType.GLOBAL_POOL, pool))
    model = ArchitectureModel(Architecture(ops=ops, name="z"), in_dim=3,
                              num_classes=4, seed=0)
    return build_callables(model, RuntimeConfig(runtime=runtime))


def _frame(layout: str) -> Batch:
    """One 40-point cloud, or three clouds of 40, 11 and 23 points."""
    sizes = (40,) if layout == "single" else (40, 11, 23)
    graphs = SyntheticModelNet40(num_points=max(sizes), samples_per_class=1,
                                 num_classes=3, seed=3).generate()
    return Batch.from_graphs([
        GraphData(x=graph.x[:size], y=graph.y)
        for graph, size in zip(graphs, sizes)])


def _shipped_both_ways(monkeypatch, device_fn, frame):
    """``(renamed, as the device computed it, meta)`` of one device run."""
    seen = []
    relabel = executor._z_ordered

    def spy(arrays, coords):
        seen.append(arrays)
        return relabel(arrays, coords)

    monkeypatch.setattr(executor, "_z_ordered", spy)
    renamed, meta = device_fn(frame)
    [plain] = seen
    return renamed, plain, meta


def _over_the_wire(arrays, meta):
    message = deserialize_message(serialize_message(Message(
        kind=KIND_FRAME, arrays=arrays, meta=meta)))
    return message.arrays, message.meta


class TestRelabelServesTheSameFrame:
    @pytest.mark.parametrize("layout", ["single", "ragged"])
    @pytest.mark.parametrize("aggregate", ["max", "add", "mean"])
    @pytest.mark.parametrize("sample", ["knn", "random"])
    def test_edge_outputs_match_the_device_order(self, monkeypatch, sample,
                                                 aggregate, layout):
        bitwise = aggregate == "max"
        callables = _callables(sample, aggregate,
                               "max" if bitwise else "max||mean")
        renamed, plain, meta = _shipped_both_ways(
            monkeypatch, callables.device_fn, _frame(layout))
        assert renamed is not plain
        wire = _over_the_wire(renamed, meta)
        expected = callables.edge_fn(plain, meta)[0]["logits"]
        for state in (wire, (renamed, meta)):
            got = callables.edge_fn(*state)[0]["logits"]
            [batched] = callables.batch_fn([state])
            for logits in (got, batched[0]["logits"]):
                if bitwise:
                    assert logits.tobytes() == expected.tobytes()
                else:
                    np.testing.assert_allclose(logits, expected, rtol=1e-12,
                                               atol=0)

    @pytest.mark.parametrize("runtime", ["compiled", "eager"])
    def test_both_runtimes_rename(self, monkeypatch, runtime):
        callables = _callables("knn", "max", "max", runtime=runtime)
        renamed, plain, meta = _shipped_both_ways(
            monkeypatch, callables.device_fn, _frame("ragged"))
        assert renamed["x"].tobytes() != plain["x"].tobytes()
        assert (callables.edge_fn(renamed, meta)[0]["logits"].tobytes()
                == callables.edge_fn(plain, meta)[0]["logits"].tobytes())


class TestRenamedFrame:
    @pytest.mark.parametrize("sample", ["knn", "random"])
    def test_graphs_stay_contiguous_and_sets_exact(self, monkeypatch,
                                                   sample):
        frame = _frame("ragged")
        renamed, plain, _ = _shipped_both_ways(
            monkeypatch, _callables(sample, "max", "max").device_fn, frame)
        batch, nbr = renamed["batch"], renamed["nbr"]
        assert nbr.dtype == np.uint16 and nbr.shape == plain["nbr"].shape
        assert np.all(np.diff(batch) >= 0)
        np.testing.assert_array_equal(np.bincount(batch),
                                      np.bincount(plain["batch"]))
        # Every renamed id names a node of its own node's graph.
        np.testing.assert_array_equal(batch[nbr.astype(np.intp)],
                                      np.repeat(batch[:, None], K, axis=1))
        assert np.all(np.diff(nbr.astype(np.int64), axis=1) >= 0)
        # Node i of the renamed frame is node order[i] of the device's,
        # with the same features and exactly the same neighbour set.
        order = executor._z_order(frame.x, plain["batch"])
        np.testing.assert_array_equal(np.sort(order), np.arange(len(order)))
        np.testing.assert_array_equal(renamed["x"], plain["x"][order])
        np.testing.assert_array_equal(
            np.sort(order[nbr.astype(np.intp)], axis=1),
            np.sort(plain["nbr"][order].astype(np.intp), axis=1))

    def test_nodes_follow_the_morton_code(self):
        """Two axes of four cells: the Z curve visits (0,0) (1,0) (0,1)
        (1,1) before the next quadrant."""
        cells = np.array([[x, y] for y in range(4) for x in range(4)], float)
        order = executor._z_order(cells, np.zeros(16, np.int64))
        z = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (2, 1), (3, 1),
             (0, 2), (1, 2), (0, 3), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)]
        assert [tuple(cells[i].astype(int)) for i in order] == z

    @pytest.mark.parametrize("columns", [1, 2, 3, 5])
    def test_order_matches_a_loop_reference(self, columns):
        """Per node: quantize each axis to 10 bits, interleave the bits
        one at a time, then sort stably by (graph, code)."""
        rng = np.random.default_rng(columns)
        coords = rng.standard_normal((300, columns))
        coords[::7] = coords[1::7][:len(coords[::7])]  # ties keep order
        graph = np.sort(rng.integers(0, 4, 300))
        low, high = coords[:, :3].min(axis=0), coords[:, :3].max(axis=0)

        def code(point):
            cells = [min(int((value - lo) * (1023 / (hi - lo))), 1023)
                     for value, lo, hi in zip(point[:3], low, high)]
            return sum(((cell >> bit) & 1) << (3 * bit + axis)
                       for axis, cell in enumerate(cells)
                       for bit in range(10))

        expected = sorted(range(300),
                          key=lambda i: (graph[i], code(coords[i])))
        np.testing.assert_array_equal(executor._z_order(coords, graph),
                                      expected)

    def test_graph_id_outranks_the_code(self):
        coords = np.array([[9.0], [0.0], [5.0], [1.0]])
        order = executor._z_order(coords, np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(order, [2, 0, 1, 3])


class TestDeviceOrderKept:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
    def test_non_finite_coordinates_ship_in_their_own_order(self, bad):
        frame = _frame("single")
        x = frame.x.copy()
        if bad == "overflow":  # finite, but the extent is not
            x[0, 0], x[1, 0] = 1e308, -1e308
        else:
            x[3, 1] = bad
        arrays = {"x": np.arange(40.0)[:, None],
                  "batch": np.zeros(40, np.int64),
                  "nbr": np.tile(np.arange(K, 0, -1, dtype=np.uint16),
                                 (40, 1))}
        assert executor._z_ordered(arrays, x) is arrays

    def test_nan_cloud_is_served_in_its_own_order(self, monkeypatch):
        frame = _frame("single")
        frame.x[5, 2] = np.nan
        renamed, plain, _ = _shipped_both_ways(
            monkeypatch, _callables("random", "max", "max").device_fn, frame)
        assert renamed is plain

    @pytest.mark.parametrize("sample", ["knn", "random"])
    def test_an_edge_that_samples_gets_the_device_order(self, monkeypatch,
                                                        sample):
        """Its own Sample would draw over the renamed ids: a random one,
        and knn ties, differently."""
        monkeypatch.setattr(executor, "_z_ordered", _never)
        arrays, _ = _callables(sample, "max", "max",
                               edge_sample=True).device_fn(_frame("ragged"))
        assert "nbr" in arrays

    @pytest.mark.parametrize("ops", [
        (COMM, OpSpec(OpType.SAMPLE, "knn", k=K),
         OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.GLOBAL_POOL, "max")),
        (OpSpec(OpType.SAMPLE, "knn", k=K), OpSpec(OpType.AGGREGATE, "max"),
         OpSpec(OpType.GLOBAL_POOL, "max"), COMM),
        (OpSpec(OpType.SAMPLE, "knn", k=K), OpSpec(OpType.AGGREGATE, "max"),
         OpSpec(OpType.GLOBAL_POOL, "max"))],
        ids=["communicate_first", "pooled_cut", "device_only"])
    def test_frames_without_topology_never_reach_the_relabel(
            self, monkeypatch, ops):
        model = ArchitectureModel(Architecture(ops=ops, name="z"), in_dim=3,
                                  num_classes=4, seed=0)
        device_fn = build_callables(model).device_fn
        frame = _frame("ragged")
        plain = serialize_message(Message(kind=KIND_FRAME,
                                          arrays=device_fn(frame)[0]))
        monkeypatch.setattr(executor, "_z_ordered", _never)
        arrays, _ = device_fn(frame)
        assert "nbr" not in arrays and "edge_index" not in arrays
        assert serialize_message(Message(kind=KIND_FRAME,
                                         arrays=arrays)) == plain


def _never(arrays, coords):
    raise AssertionError("this frame must ship in the device's order")
