"""Compiled inference plans: eager equivalence, arenas, canonicalization.

The compiled runtime must be a pure performance transformation: for every
architecture the serving layer can express, a compiled plan must produce the
same numbers as eager execution (within float64 round-off — the plan may
legally reorder within-segment summation), reuse its buffers across frames
without ever leaking one frame's results into another, and fall back to
eager execution when a model contains something it cannot compile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.serving import RuntimeConfig, build_callables, build_zoo_callables
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40, SyntheticMR
from repro.graph.data import Batch
from repro.graph.knn import neighbour_table
from repro.runtime import (BufferArena, InferencePlan, PlanCompileError,
                           canonical_edge_order, compile_plan)

#: Equivalence bound for float64 plans: the compiled runtime may reorder
#: within-segment summation (reshape reductions, unsorted-edge
#: canonicalization), which perturbs results by a few ulps, never more.
F64_TOL = 1e-9
#: float32 plans compute everything in single precision.
F32_TOL = 1e-3

AGGREGATORS = ("add", "mean", "max")
POOLS = ("sum", "mean", "max", "max||mean")


def _point_cloud_frames(num_points=32, count=3):
    graphs = SyntheticModelNet40(num_points=num_points, samples_per_class=1,
                                 num_classes=max(count, 2), seed=0).generate()
    return [Batch.from_graphs([graph]) for graph in graphs[:count]]


def _callables(model, runtime, precision=None):
    """The model's engine callables under one runtime and precision."""
    return build_callables(model, RuntimeConfig(runtime=runtime,
                                                precision=precision))


def _arch(aggregator: str, pool: str) -> Architecture:
    """Split architecture exercising one aggregator/pool combination."""
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=6),
        OpSpec(OpType.AGGREGATE, aggregator),
        OpSpec(OpType.COMBINE, 16),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.SAMPLE, "knn", k=4),
        OpSpec(OpType.AGGREGATE, aggregator),
        OpSpec(OpType.GLOBAL_POOL, pool),
    ), name=f"{aggregator}-{pool}")


def _zoo() -> ArchitectureZoo:
    """One zoo entry per aggregator/pool combination."""
    entries = []
    for aggregator in AGGREGATORS:
        for pool in POOLS:
            arch = _arch(aggregator, pool)
            entries.append(ZooEntry(arch.name, arch, 0.9, 10.0, 0.5))
    return ArchitectureZoo(entries)


class TestCompiledEagerEquivalence:
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("pool", POOLS)
    def test_full_forward_matches_eager(self, aggregator, pool):
        model = ArchitectureModel(_arch(aggregator, pool), in_dim=3,
                                  num_classes=5, seed=0)
        plan = compile_plan(model)
        batch = Batch.from_graphs(
            SyntheticModelNet40(num_points=32, samples_per_class=1,
                                num_classes=3, seed=1).generate()[:3])
        with nn.no_grad():
            eager = model.forward(batch).data
        np.testing.assert_allclose(plan(batch), eager, atol=F64_TOL, rtol=0)

    @pytest.mark.parametrize("num_points, k", [(8, 12), (300, 320)])
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_graphs_of_at_most_k_nodes_match_eager(self, aggregator,
                                                   num_points, k):
        """The plan serves graphs of at most ``k`` nodes selection-only
        too, with the neighbours eager execution repeats."""
        model = ArchitectureModel(Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=k),
            OpSpec(OpType.AGGREGATE, aggregator),
            OpSpec(OpType.GLOBAL_POOL, "mean"))), in_dim=3, num_classes=5,
            seed=0)
        batch = Batch.from_graphs(
            SyntheticModelNet40(num_points=num_points, samples_per_class=1,
                                num_classes=3, seed=1).generate()[:3])
        with nn.no_grad():
            eager = model.forward(batch).data
        np.testing.assert_allclose(compile_plan(model)(batch), eager,
                                   atol=F64_TOL, rtol=0)

    def test_every_zoo_entry_single_frame(self):
        """Compiled device+edge callables match eager ones for all entries."""
        zoo = _zoo()
        compiled = build_zoo_callables(zoo, in_dim=3, num_classes=5, seed=0,
                                       config=RuntimeConfig(runtime="compiled"))
        eager = build_zoo_callables(zoo, in_dim=3, num_classes=5, seed=0,
                                    config=RuntimeConfig(runtime="eager"))
        for frame in _point_cloud_frames():
            for name in zoo.names():
                arrays_c, meta_c = compiled[name].device_fn(frame)
                arrays_e, meta_e = eager[name].device_fn(frame)
                np.testing.assert_allclose(arrays_c["x"], arrays_e["x"],
                                           atol=F64_TOL, rtol=0)
                logits_c = compiled[name].edge_fn(arrays_c, meta_c)[0]["logits"]
                logits_e = eager[name].edge_fn(arrays_e, meta_e)[0]["logits"]
                np.testing.assert_allclose(logits_c, logits_e,
                                           atol=F64_TOL, rtol=0)

    def test_every_zoo_entry_batched(self):
        """Compiled batched edge calls match eager batched calls per entry."""
        zoo = _zoo()
        frames = _point_cloud_frames(count=4)
        for name, entry in zoo.items():
            model = ArchitectureModel(entry.architecture, in_dim=3,
                                      num_classes=5, seed=0)
            eager_fns = _callables(model, "eager")
            requests = [eager_fns.device_fn(frame) for frame in frames]
            compiled = _callables(model, "compiled").batch_fn(requests)
            eager = eager_fns.batch_fn(requests)
            assert len(compiled) == len(eager) == len(frames)
            for (arrays_c, meta_c), (arrays_e, meta_e) in zip(compiled, eager):
                assert meta_c["num_graphs"] == meta_e["num_graphs"]
                np.testing.assert_allclose(arrays_c["logits"],
                                           arrays_e["logits"],
                                           atol=F64_TOL, rtol=0)

    def test_batched_matches_per_frame_compiled(self):
        """One compiled batched call == compiled per-frame calls."""
        model = ArchitectureModel(_arch("max", "max||mean"), in_dim=3,
                                  num_classes=5, seed=0)
        frames = _point_cloud_frames(count=4)
        serving = _callables(model, "compiled")
        requests = [serving.device_fn(frame) for frame in frames]
        batched = serving.batch_fn(requests)
        for request, (arrays_b, _) in zip(requests, batched):
            arrays_s, _ = serving.edge_fn(*request)
            np.testing.assert_allclose(arrays_b["logits"], arrays_s["logits"],
                                       atol=F64_TOL, rtol=0)

    def test_device_only_architecture(self):
        """No Communicate: device runs everything, edge echoes (compiled)."""
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "mean"),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="device-only")
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        frame = _point_cloud_frames(count=1)[0]
        compiled = _callables(model, "compiled")
        arrays_c, meta_c = compiled.device_fn(frame)
        arrays_e, meta_e = _callables(model, "eager").device_fn(frame)
        assert meta_c["finished"] and meta_e["finished"]
        np.testing.assert_allclose(arrays_c["x"], arrays_e["x"],
                                   atol=F64_TOL, rtol=0)
        echoed, _ = compiled.edge_fn(arrays_c, meta_c)
        np.testing.assert_array_equal(echoed["logits"], arrays_c["x"])
        ((batched, _),) = compiled.batch_fn([(arrays_c, meta_c)])
        np.testing.assert_array_equal(batched["logits"], arrays_c["x"])

    def test_random_sampling_matches_eager_frame_for_frame(self):
        """Compiled random sampling draws the same stream as eager.

        Plans share the eager op's generator object (no private snapshot),
        so two same-seeded models — one run eager, one compiled — consume
        identical draw sequences and produce identical topologies.
        """
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "random", k=3),
            OpSpec(OpType.AGGREGATE, "mean"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="random")
        eager_model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        compiled_model = ArchitectureModel(arch, in_dim=3, num_classes=5,
                                           seed=0)
        plan = compile_plan(compiled_model)
        frames = _point_cloud_frames(count=3)
        with nn.no_grad():
            for frame in frames:  # same draw sequence on both sides
                eager = eager_model.forward(frame).data
                np.testing.assert_allclose(plan(frame), eager,
                                           atol=F64_TOL, rtol=0)

    def test_random_sampling_plans_share_the_eager_generator(self):
        """Per-frame and batched calls of one model share one draw stream
        (mirroring eager serving), instead of replaying identical
        'random' topologies in lockstep from independent snapshots."""
        arch = Architecture(ops=(
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.SAMPLE, "random", k=3),
            OpSpec(OpType.AGGREGATE, "mean"),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="random-edge")
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        serving = _callables(model, "compiled")
        frame = _point_cloud_frames(count=1)[0]
        state = serving.device_fn(frame)
        per_frame = serving.edge_fn(*state)[0]["logits"]
        batched = serving.batch_fn([state])  # a batch of one: real execution
        # Different draws (one shared stream), so topologies — and almost
        # surely logits — differ between the two consecutive calls.
        assert not np.array_equal(per_frame, batched[0][0]["logits"])

    def test_text_graphs_with_preexisting_edges(self):
        """MR-style graphs: no positions, wire edges, no Sample op."""
        arch = Architecture(ops=(
            OpSpec(OpType.AGGREGATE, "mean"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.GLOBAL_POOL, "max"),
        ), name="text")
        graphs = SyntheticMR(num_documents=6, feature_dim=16, mean_nodes=10,
                             seed=0).generate()
        model = ArchitectureModel(arch, in_dim=16, num_classes=2, seed=0)
        compiled = _callables(model, "compiled")
        eager = _callables(model, "eager")
        for graph in graphs[:3]:
            frame = Batch.from_graphs([graph])
            state_c = compiled.device_fn(frame)
            state_e = eager.device_fn(frame)
            np.testing.assert_allclose(compiled.edge_fn(*state_c)[0]["logits"],
                                       eager.edge_fn(*state_e)[0]["logits"],
                                       atol=F64_TOL, rtol=0)

    def test_unsorted_wire_edges_are_canonicalized(self):
        """A shuffled edge list off the wire still matches eager results."""
        arch = Architecture(ops=(
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.AGGREGATE, "add"),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="wire-edges")
        model = ArchitectureModel(arch, in_dim=4, num_classes=3, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        edges = np.stack([rng.integers(0, 10, 30),
                          rng.integers(0, 10, 30)])  # unsorted destinations
        arrays = {"x": x, "batch": np.zeros(10, dtype=np.int64),
                  "edge_index": edges}
        meta = {"num_graphs": 1, "pooled": False, "finished": False}
        edge_c = _callables(model, "compiled").edge_fn
        edge_e = _callables(model, "eager").edge_fn
        np.testing.assert_allclose(edge_c(dict(arrays), dict(meta))[0]["logits"],
                                   edge_e(dict(arrays), dict(meta))[0]["logits"],
                                   atol=F64_TOL, rtol=0)

    def test_load_state_dict_after_compile_is_honored(self):
        """Plans resolve weights at call time, not at compile time."""
        model_a = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                    num_classes=5, seed=0)
        model_b = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                    num_classes=5, seed=7)
        plan = compile_plan(model_a)
        frame = _point_cloud_frames(count=1)[0]
        before = plan(frame)
        model_a.load_state_dict(model_b.state_dict())
        with nn.no_grad():
            expected = model_b.forward(frame).data
        np.testing.assert_allclose(plan(frame), expected, atol=F64_TOL, rtol=0)
        assert not np.allclose(before, expected)


class TestFloat32Plans:
    def test_float32_within_tolerance_of_eager_float64(self):
        model = ArchitectureModel(_arch("max", "max||mean"), in_dim=3,
                                  num_classes=5, seed=0)
        frame = _point_cloud_frames(count=1)[0]
        f32 = _callables(model, "compiled", "float32")
        f64 = _callables(model, "eager")
        arrays32, meta32 = f32.device_fn(frame)
        assert arrays32["x"].dtype == np.float32  # float32 hits the wire
        logits32 = f32.edge_fn(arrays32, meta32)[0]["logits"]
        assert logits32.dtype == np.float32
        logits64 = f64.edge_fn(*f64.device_fn(frame))[0]["logits"]
        np.testing.assert_allclose(logits32, logits64, atol=F32_TOL, rtol=0)

    def test_float32_batched(self):
        model = ArchitectureModel(_arch("mean", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        frames = _point_cloud_frames(count=3)
        f32 = _callables(model, "compiled", "float32")
        requests = [f32.device_fn(frame) for frame in frames]
        batched = f32.batch_fn(requests)
        f64 = _callables(model, "eager")
        for frame, (arrays_b, _) in zip(frames, batched):
            logits64 = f64.edge_fn(*f64.device_fn(frame))[0]["logits"]
            np.testing.assert_allclose(arrays_b["logits"], logits64,
                                       atol=F32_TOL, rtol=0)

    def test_eager_runtime_rejects_non_float64(self):
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        with pytest.raises(ValueError, match="float64"):
            _callables(model, "eager", "float32")

    def test_non_float_dtype_rejected(self):
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        with pytest.raises(ValueError, match="precision"):
            _callables(model, "compiled", "int64")
        with pytest.raises(ValueError, match="floating"):
            compile_plan(model, dtype=np.int64)


class TestBufferArena:
    def test_steady_state_stops_allocating(self):
        """Fixed frame shapes: the arena allocates once, then only reuses."""
        model = ArchitectureModel(_arch("max", "max||mean"), in_dim=3,
                                  num_classes=5, seed=0)
        plan = compile_plan(model)
        frames = _point_cloud_frames(count=3)
        plan(frames[0])
        allocations_after_warmup = plan.full.arena.allocations
        for frame in frames * 3:
            plan(frame)
        assert plan.full.arena.allocations == allocations_after_warmup
        assert plan.full.arena.hits > 0

    def test_shape_change_reallocates_then_stabilizes(self):
        model = ArchitectureModel(_arch("mean", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        plan = compile_plan(model)
        small = _point_cloud_frames(num_points=16, count=1)[0]
        large = _point_cloud_frames(num_points=32, count=1)[0]
        plan(small)
        after_small = plan.full.arena.allocations
        plan(large)
        assert plan.full.arena.allocations > after_small  # new shapes
        after_large = plan.full.arena.allocations
        plan(large)
        assert plan.full.arena.allocations == after_large  # stabilized

    def test_no_cross_frame_result_aliasing(self):
        """Results must be detached from the arena: frame B never mutates
        the logits frame A already returned — the serving engine may still
        be serializing A while B executes."""
        model = ArchitectureModel(_arch("max", "max||mean"), in_dim=3,
                                  num_classes=5, seed=0)
        serving = _callables(model, "compiled")
        device_fn, edge_fn = serving.device_fn, serving.edge_fn
        frame_a, frame_b = _point_cloud_frames(count=2)
        state_a = device_fn(frame_a)
        logits_a, _ = edge_fn(*state_a)
        snapshot = logits_a["logits"].copy()
        # Run a different frame through the same plan (same arena).
        edge_fn(*device_fn(frame_b))
        np.testing.assert_array_equal(logits_a["logits"], snapshot)

    def test_no_cross_frame_wire_state_aliasing(self):
        """Device-side wire arrays survive the next device call too."""
        model = ArchitectureModel(_arch("mean", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        device_fn = _callables(model, "compiled").device_fn
        frame_a, frame_b = _point_cloud_frames(count=2)
        arrays_a, _ = device_fn(frame_a)
        snapshots = {name: array.copy() for name, array in arrays_a.items()}
        device_fn(frame_b)
        for name, snapshot in snapshots.items():
            np.testing.assert_array_equal(arrays_a[name], snapshot)

    def test_concurrent_executions_do_not_corrupt_results(self):
        """Arenas are per thread: un-locked concurrent edge calls (e.g. a
        plain ``EdgeServer(edge_fn)`` with several handler threads) must
        produce the same logits as serial execution."""
        import threading
        model = ArchitectureModel(_arch("max", "max||mean"), in_dim=3,
                                  num_classes=5, seed=0)
        serving = _callables(model, "compiled")  # no lock
        device_fn, edge_fn = serving.device_fn, serving.edge_fn
        frames = _point_cloud_frames(count=4)
        states = [device_fn(frame) for frame in frames]
        expected = [edge_fn(*state)[0]["logits"].copy() for state in states]
        failures = []

        def worker(index):
            state = states[index % len(states)]
            for _ in range(50):
                logits = edge_fn(*state)[0]["logits"]
                if not np.array_equal(logits, expected[index % len(states)]):
                    failures.append(index)
                    return
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_take_reuses_matching_buffer(self):
        arena = BufferArena()
        first = arena.take("slot", (4, 8), np.float64)
        again = arena.take("slot", (4, 8), np.float64)
        assert first is again
        assert arena.allocations == 1 and arena.hits == 1
        other = arena.take("slot", (4, 8), np.float32)  # dtype change
        assert other is not first
        assert arena.allocations == 2


class TestPlanStructure:
    def test_identity_and_communicate_compile_to_nothing(self):
        arch = Architecture(ops=(
            OpSpec(OpType.IDENTITY, "skip"),
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.IDENTITY, "skip"),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="with-identities")
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        plan = compile_plan(model)
        # sample + aggregate + pool + defensive-pool + 2 classifier linears
        names = [type(step).__name__ for step in plan.full.steps]
        assert "_SampleStep" in names and "_AggregateStep" in names
        assert not any("Identity" in name or "Communicate" in name
                       for name in names)

    def test_knn_topology_cached_within_frame(self):
        """Consecutive kNN samples over unchanged positions share a topology."""
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.IDENTITY, "skip"),
            OpSpec(OpType.SAMPLE, "knn", k=4),   # positions unchanged: cached
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.SAMPLE, "knn", k=6),   # different k: recomputed
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="cached-knn")
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        plan = compile_plan(model)
        frame = _point_cloud_frames(count=1)[0]
        run = plan.full.execute(frame.x, frame.batch, frame.num_graphs,
                                edge_index=frame.edge_index, pos=frame.pos)
        # Three Sample steps, but only two distinct topologies computed.
        assert len(run.topo_cache) == 2
        with nn.no_grad():
            eager = model.forward(frame).data
        np.testing.assert_allclose(plan(frame), eager, atol=F64_TOL, rtol=0)

    def test_feature_knn_not_shared_across_feature_updates(self):
        """A kNN over features recomputes once the features changed."""
        arch = Architecture(ops=(
            OpSpec(OpType.AGGREGATE, "mean"),     # uses pre-existing edges
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.GLOBAL_POOL, "max"),
        ), name="no-pos")
        graphs = SyntheticMR(num_documents=2, feature_dim=16, mean_nodes=10,
                             seed=0).generate()
        model = ArchitectureModel(arch, in_dim=16, num_classes=2, seed=0)
        plan = compile_plan(model)
        frame = Batch.from_graphs([graphs[0]])
        with nn.no_grad():
            eager = model.forward(frame).data
        np.testing.assert_allclose(plan(frame), eager, atol=F64_TOL, rtol=0)

    def test_compile_error_falls_back_to_eager_under_auto(self):
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        # Replace the classifier MLP with one the compiler cannot fuse.
        model.classifier.mlp = nn.MLP([32, 8, 5], batch_norm=True)
        with pytest.raises(PlanCompileError):
            _callables(model, "compiled")
        serving = _callables(model, "auto")
        assert serving.plans == ()  # eager
        frame = _point_cloud_frames(count=1)[0]
        arrays, meta = serving.device_fn(frame)
        logits, _ = serving.edge_fn(arrays, meta)
        assert logits["logits"].shape == (1, 5)

    def test_active_dropout_refuses_to_compile(self):
        """Eager would apply per-frame random masks; compiled must not
        silently skip them — eval-mode (or p=0) dropout compiles fine."""
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        model.classifier.mlp = nn.MLP([32, 8, 5], dropout=0.5)
        with pytest.raises(PlanCompileError, match="Dropout"):
            compile_plan(model)
        model.classifier.mlp.eval()
        plan = compile_plan(model)  # inactive dropout compiles away
        frame = _point_cloud_frames(count=1)[0]
        with nn.no_grad():
            eager = model.forward(frame).data
        np.testing.assert_allclose(plan(frame), eager, atol=F64_TOL, rtol=0)

    @pytest.mark.parametrize("activation", [nn.ReLU, nn.LeakyReLU],
                             ids=lambda cls: cls.__name__)
    def test_standalone_activation_refuses_to_compile(self, activation):
        """Activations fuse into the Linear before them (as MLP builds
        them); one with nothing to fuse into is left to eager execution."""
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        model.classifier.mlp.net = nn.Sequential(activation(),
                                                 nn.Linear(32, 5))
        with pytest.raises(PlanCompileError, match="standalone"):
            compile_plan(model)

    def test_segment_restricted_compilation(self):
        """Callers compile only the segments they run (no dead step lists)."""
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        edge_only = compile_plan(model, segments=("edge",))
        assert edge_only.edge is not None
        assert edge_only.device is None and edge_only.full is None
        with pytest.raises(RuntimeError, match="'full' segment"):
            edge_only(_point_cloud_frames(count=1)[0])
        with pytest.raises(ValueError, match="unknown plan segments"):
            compile_plan(model, segments=("edge", "gpu"))

    def test_device_only_segments_alias_full(self):
        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "mean"),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ), name="device-only")
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        plan = compile_plan(model, segments=("device",))
        assert plan.device is plan.full is plan.edge

    def test_unknown_runtime_rejected(self):
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        with pytest.raises(ValueError, match="unknown runtime"):
            _callables(model, "jit")


class TestSegmentInfo:
    def test_canonical_edge_order_sorts_unsorted_lists(self):
        edges = np.array([[0, 1, 2, 3], [3, 1, 2, 0]])
        ordered, info = canonical_edge_order(edges, 4)
        assert info.is_sorted
        np.testing.assert_array_equal(ordered[1], [0, 1, 2, 3])
        np.testing.assert_array_equal(ordered[0], [3, 1, 2, 0])

    def test_canonical_edge_order_passes_sorted_through(self):
        table = np.arange(8).reshape(4, 2) % 4
        edges = np.stack([table.ravel(), np.repeat(np.arange(4), 2)])
        ordered, info = canonical_edge_order(edges, 4)
        assert ordered is edges
        assert info.is_sorted
        np.testing.assert_array_equal(neighbour_table(ordered, 4), table)


class TestOneTopologyForm:
    def test_a_sampled_run_holds_the_table_and_lists_it_once(self):
        model = ArchitectureModel(_arch("max", "mean"), in_dim=3,
                                  num_classes=5, seed=0)
        frame = _point_cloud_frames(count=1)[0]
        run = compile_plan(model).device.execute(
            frame.x, frame.batch, frame.num_graphs, pos=frame.pos)
        num_nodes = frame.x.shape[0]
        assert run.nbr.shape == (num_nodes, 6)
        edges = run.edge_index
        assert run.edge_index is edges
        np.testing.assert_array_equal(neighbour_table(edges, num_nodes),
                                      run.nbr)

    def test_an_irregular_list_stays_a_canonical_list(self):
        arch = Architecture(ops=(
            OpSpec(OpType.AGGREGATE, "mean"), OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.GLOBAL_POOL, "max")), name="irregular")
        graph = SyntheticMR(num_documents=2, feature_dim=16, mean_nodes=10,
                            seed=0).generate()[0]
        frame = Batch.from_graphs([graph])
        model = ArchitectureModel(arch, in_dim=16, num_classes=2, seed=0)
        run = compile_plan(model).device.execute(
            frame.x, frame.batch, 1, edge_index=frame.edge_index)
        assert run.nbr is None and run.edge_info.is_sorted
        np.testing.assert_array_equal(np.sort(run.edge_index[1]),
                                      run.edge_index[1])


class TestArenaRelease:
    """Explicit arena teardown: retired plans must not retain buffers.

    Regression tests for the per-thread arena retention fix: arenas are
    keyed by executing thread, so without an explicit release hook a
    long-lived plan keeps one buffer set pooled per thread that ever
    executed it — and a retired serving snapshot would hold them until the
    threads die.
    """

    def _plan_and_frame(self):
        model = ArchitectureModel(_arch("max", "max||mean"), in_dim=3,
                                  num_classes=4, seed=0)
        plan = compile_plan(model)
        return plan, _point_cloud_frames(count=1)[0]

    def test_release_buffers_frees_and_stays_usable(self):
        plan, frame = self._plan_and_frame()
        before = plan(frame)
        assert plan.arena_nbytes() > 0
        freed = plan.release_buffers()
        assert freed > 0
        assert plan.arena_nbytes() == 0
        # The plan still works (buffers reallocate) and stays equivalent.
        np.testing.assert_allclose(plan(frame), before, atol=F64_TOL)

    def test_worker_thread_arenas_are_enumerable_and_releasable(self):
        import threading
        plan, frame = self._plan_and_frame()
        plan(frame)  # main-thread arena

        def worker():
            plan(frame)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # While the threads lived they each had an arena; release drops
        # whatever is still reachable in one call.
        assert plan.release_buffers() >= 0
        assert plan.arena_nbytes() == 0

    def test_dead_thread_arena_is_not_retained_by_the_registry(self):
        """The registry must hold weak refs: a thread exiting frees its
        arena instead of parking it in the segment forever."""
        import gc
        import threading
        import weakref
        plan, frame = self._plan_and_frame()
        captured = []

        def worker():
            plan(frame)
            captured.append(weakref.ref(plan.full.arena))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30.0)
        gc.collect()
        assert captured and captured[0]() is None, (
            "a dead worker thread's arena is still strongly referenced — "
            "the per-thread arena retention leak is back")
        assert all(arena is not None for arena in plan.full.arenas())

    def test_serving_callables_release(self):
        zoo = ArchitectureZoo([ZooEntry("m", _arch("max", "mean"),
                                        0.9, 10.0, 0.5)])
        serving = build_zoo_callables(zoo, in_dim=3, num_classes=4)["m"]
        assert len(serving.plans) == 1  # one plan behind all three callables
        frame = _point_cloud_frames(count=1)[0]
        arrays, meta = serving.device_fn(frame)
        serving.edge_fn(arrays, meta)
        assert serving.arena_nbytes() > 0
        assert serving.release_buffers() > 0
        assert serving.arena_nbytes() == 0

    def test_retired_snapshot_releases_its_buffers(self):
        """Publishing past the retain window frees the evicted snapshot's
        pooled arena buffers immediately."""
        from repro.serving import ModelRepository
        zoo = ArchitectureZoo([ZooEntry("m", _arch("max", "mean"),
                                        0.9, 10.0, 0.5)])
        repo = ModelRepository(in_dim=3, num_classes=4, retain=1, zoo=zoo)
        first = repo.snapshot()
        frame = _point_cloud_frames(count=1)[0]
        arrays, meta = repo.device_fn("m")(frame)
        repo.batch_fns()["m"]([(arrays, meta)])
        pooled = sum(serving.arena_nbytes()
                     for serving in first.callables.values())
        assert pooled > 0
        repo.publish(zoo)  # retain=1: evicts (and must release) v1
        assert sum(serving.arena_nbytes()
                   for serving in first.callables.values()) == 0
