"""Quantized int8 inference: calibration, accuracy gates, serving contracts.

The int8 path is an *approximation* of the float model, so its tests pin
two different kinds of promise:

* **mechanism** — quantize/dequantize round trips bounded by scale/2,
  per-channel weight quantization, calibration determinism (synthetic
  frames are seeded, so shard/cluster replicas calibrate bit-identically),
  and loud failures for missing calibration or invalid configs;
* **accuracy gates** — across the full aggregator x pool zoo matrix the
  quantized logits stay within a loose tolerance of float64 and the
  predicted class agrees >= 99% of the time; batched int8 execution is
  bit-compatible with single-frame; sharded serving matches in-process
  serving because both calibrate on the same deterministic frames.

Float-path guarantees (1e-9 equivalence, snapshot pinning, batch purity)
must survive *alongside* int8 entries — the mixed-precision zoo tests at
the bottom re-pin them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40, SyntheticMR
from repro.graph.data import Batch
from repro.runtime import (PlanCalibration, PlanCompileError, amax_to_scale,
                           calibrate, compile_plan, quantize_weight,
                           synthetic_calibration_frames)
from repro.runtime.plan import _QuantAggregateStep
from repro.serving import (BatchingConfig, RuntimeConfig, ServingConfig,
                           ShardingConfig, build_callables,
                           build_zoo_callables, serve)
from repro.serving.sharding import sharding_supported

AGGREGATORS = ("add", "mean", "max")
POOLS = ("sum", "mean", "max", "max||mean")

#: Loose logit tolerance for int8 vs float64: quantization error scales with
#: activation magnitude (``add``/``sum`` entries emit logits in the tens), so
#: the gate is relative with a small absolute floor for near-zero logits.
INT8_LOGIT_ATOL = 0.05
INT8_LOGIT_RTOL = 0.05
#: Fraction of frames whose argmax must agree with the float64 model.
INT8_AGREEMENT = 0.99


def _assert_quant_close(logits, reference):
    """Bound the worst logit error by 5% of the logit *range* (plus a small
    absolute floor).  Per-tensor activation scales make quantization error
    proportional to the tensor's amax, not to each element's own magnitude,
    so an elementwise relative gate would be meaninglessly tight at zero
    crossings and meaninglessly loose at the extremes."""
    bound = INT8_LOGIT_ATOL + INT8_LOGIT_RTOL * np.max(np.abs(reference))
    error = np.max(np.abs(np.asarray(logits) - np.asarray(reference)))
    assert error <= bound, f"quantized logits off by {error} (bound {bound})"


def _arch(aggregator: str, pool: str) -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=6),
        OpSpec(OpType.AGGREGATE, aggregator),
        OpSpec(OpType.COMBINE, 16),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.SAMPLE, "knn", k=4),
        OpSpec(OpType.AGGREGATE, aggregator),
        OpSpec(OpType.GLOBAL_POOL, pool),
    ), name=f"{aggregator}-{pool}".replace("||", ""))


def _zoo(aggregators=AGGREGATORS, pools=POOLS) -> ArchitectureZoo:
    entries = []
    for aggregator in aggregators:
        for pool in pools:
            arch = _arch(aggregator, pool)
            entries.append(ZooEntry(arch.name, arch, 0.9, 10.0, 0.5))
    return ArchitectureZoo(entries)


def _point_cloud_frames(num_points: int = 32, count: int = 3):
    graphs = SyntheticModelNet40(num_points=num_points,
                                 samples_per_class=1,
                                 num_classes=max(count, 2),
                                 seed=0).generate()
    return [Batch.from_graphs([graphs[i % len(graphs)]])
            for i in range(count)]


def _model(aggregator: str = "max", pool: str = "max||mean"):
    return ArchitectureModel(_arch(aggregator, pool), in_dim=3,
                             num_classes=5, seed=0)


# ----------------------------------------------------------------------
# Quantization primitives
# ----------------------------------------------------------------------
class TestQuantizationPrimitives:
    def test_round_trip_error_bounded_by_half_scale(self):
        from repro.runtime.kernels import dequantize_array, quantize_array
        rng = np.random.default_rng(0)
        x = rng.uniform(-3.0, 3.0, size=(16, 8)).astype(np.float32)
        scale = amax_to_scale(3.0)
        xq = quantize_array(x.copy(), scale, x.copy(),
                            np.empty(x.shape, np.int8))
        back = dequantize_array(xq, scale, np.empty(x.shape, np.float32))
        assert np.max(np.abs(back - x)) <= scale / 2 + 1e-7

    def test_quantize_weight_per_channel(self):
        rng = np.random.default_rng(1)
        weight = rng.standard_normal((8, 5))
        weight[:, 2] *= 10.0  # one hot channel must not crush the others
        wq, scales = quantize_weight(weight)
        assert wq.dtype == np.int8 and scales.dtype == np.float32
        assert scales.shape == (5,)
        np.testing.assert_allclose(wq.astype(np.float32) * scales, weight,
                                   atol=np.max(scales) / 2 + 1e-6)
        # Per-channel property: every column uses its own full int8 range.
        assert np.abs(wq).max(axis=0).min() >= 126

    def test_quantize_weight_zero_column(self):
        weight = np.zeros((4, 3))
        weight[:, 0] = 1.0
        wq, scales = quantize_weight(weight)
        assert scales[1] == 1.0 and scales[2] == 1.0  # no division by zero
        assert np.all(wq[:, 1:] == 0)

    @pytest.mark.parametrize("amax", [0.0, -1.0, np.inf, np.nan])
    def test_amax_to_scale_degenerate_inputs(self, amax):
        assert amax_to_scale(amax) == 1.0

    def test_amax_to_scale_maps_amax_to_qmax(self):
        assert amax_to_scale(127.0) == pytest.approx(1.0)
        assert amax_to_scale(1.0) == pytest.approx(1.0 / 127.0)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_synthetic_frames_deterministic(self):
        a = synthetic_calibration_frames(3, num_frames=4, seed=0)
        b = synthetic_calibration_frames(3, num_frames=4, seed=0)
        assert len(a) == len(b) == 4
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.x, fb.x)
        c = synthetic_calibration_frames(3, num_frames=4, seed=1)
        assert not np.array_equal(a[0].x, c[0].x)

    def test_calibration_deterministic(self):
        """Same model + frames => identical scales: the property replica
        consistency (shards, cluster nodes) rests on."""
        frames = synthetic_calibration_frames(3, seed=0)
        first = calibrate(_model(), frames)
        second = calibrate(_model(), frames)
        for name in ("full", "device", "edge"):
            rec_a, rec_b = first.segment(name), second.segment(name)
            assert rec_a.input_amax == rec_b.input_amax
            assert rec_a.step_amax == rec_b.step_amax
            assert rec_a.step_amax  # actually observed something

    def test_missing_segment_rejected(self):
        calibration = calibrate(_model(), synthetic_calibration_frames(3),
                                segments=("full",))
        with pytest.raises(ValueError, match="edge"):
            calibration.segment("edge")
        with pytest.raises(ValueError, match="device"):
            PlanCalibration().segment("device")

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            calibrate(_model(), [])

    def test_quantized_compile_requires_calibration_segments(self):
        calibration = calibrate(_model(), synthetic_calibration_frames(3),
                                segments=("device",))
        with pytest.raises(ValueError, match="edge"):
            compile_plan(_model(), segments=("device", "edge"),
                         calibration=calibration)


class _RecordingAmax(dict):
    """A ``step_amax`` that notes every key looked up and every miss."""

    def __init__(self, recorded):
        super().__init__(recorded)
        self.read, self.missed = set(), set()

    def get(self, key, default=None):
        self.read.add(key)
        if key not in self:
            self.missed.add(key)
        return super().get(key, default)


def _e2blk(cut: int) -> Architecture:
    """The benchmark entry (``benchmarks/e2e/workloads.py``), cut at ``cut``."""
    ops = [OpSpec(OpType.SAMPLE, "knn", k=16),
           OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.COMBINE, 64),
           OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.COMBINE, 64),
           OpSpec(OpType.GLOBAL_POOL, "max||mean")]
    ops.insert(cut, OpSpec(OpType.COMMUNICATE, "uplink"))
    return Architecture(ops=tuple(ops), name=f"e2blk-cut{cut}")


KEY_COVERAGE_ARCHS = [_arch(aggregator, pool) for aggregator in AGGREGATORS
                      for pool in POOLS] + [_e2blk(0), _e2blk(3)]


class TestCalibrationKeys:
    @pytest.mark.parametrize("arch", KEY_COVERAGE_ARCHS,
                             ids=lambda arch: arch.name)
    def test_keys_observed_are_exactly_the_keys_consumed(self, arch):
        """The float plan that observes and the int8 compile that consumes
        must agree on every slot key: a lookup that misses silently inherits
        the running amax (a wrong scale, not an error), and a recorded key
        nobody reads is a step int8 mis-scales the same way."""
        model = ArchitectureModel(arch, in_dim=3, num_classes=5, seed=0)
        calibration = calibrate(model, synthetic_calibration_frames(3, seed=0),
                                segments=("device", "edge"))
        for recorder in calibration.segments.values():
            recorder.step_amax = _RecordingAmax(recorder.step_amax)
        compile_plan(model, dtype=np.float32, segments=("device", "edge"),
                     calibration=calibration)
        for name in ("device", "edge"):
            amax = calibration.segment(name).step_amax
            assert not amax.missed, f"{name}: never recorded {amax.missed}"
            assert amax.read == set(amax), \
                f"{name}: recorded but unread {set(amax) - amax.read}"
        assert calibration.segment("edge").step_amax.read


# ----------------------------------------------------------------------
# Accuracy gates: int8 vs float64 across the design-space matrix
# ----------------------------------------------------------------------
class TestInt8AccuracyGates:
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("pool", POOLS)
    def test_full_plan_close_to_float64(self, aggregator, pool):
        model = ArchitectureModel(_arch(aggregator, pool), in_dim=3,
                                  num_classes=5, seed=0)
        calibration = calibrate(model, synthetic_calibration_frames(3,
                                                                    seed=0),
                                segments=("full",))
        plan = compile_plan(model, segments=("full",),
                            calibration=calibration)
        assert plan.precision == "int8"
        hits = total = 0
        for frame in _point_cloud_frames(count=4):
            with nn.no_grad():
                reference = model.forward(frame).data
            logits = plan(frame)
            assert logits.dtype == np.float32  # dequantized on exit
            _assert_quant_close(logits, reference)
            hits += int(np.argmax(logits) == np.argmax(reference))
            total += 1
        assert hits / total >= INT8_AGREEMENT

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_ragged_topology_takes_float_fallback(self, aggregator,
                                                  monkeypatch):
        """An Aggregate ahead of any Sample runs over the frame's own text
        edges, which are not k-regular, so the integer EdgeConv cannot take
        them: the step dequantizes, aggregates in float and requantizes to
        its calibrated scale — and the logits stay inside the int8 gate."""
        fallback = _QuantAggregateStep._float_fallback
        requantized = []

        def recording_fallback(step, run):
            fallback(step, run)
            requantized.append(run.x.dtype == np.int8
                               and run.x_scale == amax_to_scale(step.out_amax))

        monkeypatch.setattr(_QuantAggregateStep, "_float_fallback",
                            recording_fallback)
        arch = Architecture(ops=(
            OpSpec(OpType.AGGREGATE, aggregator),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.GLOBAL_POOL, "max||mean"),
        ), name=f"text-{aggregator}")
        graphs = SyntheticMR(num_documents=6, feature_dim=16, mean_nodes=10,
                             seed=0).generate()
        model = ArchitectureModel(arch, in_dim=16, num_classes=2, seed=0)
        frames = [Batch.from_graphs([graph]) for graph in graphs]
        callables = build_callables(
            model, RuntimeConfig(runtime="compiled", precision="int8"),
            calibration_frames=frames)
        hits = 0
        for frame in frames:
            with nn.no_grad():
                reference = model.forward(frame).data
            arrays, meta = callables.device_fn(frame)
            logits = callables.edge_fn(arrays, meta)[0]["logits"]
            _assert_quant_close(logits, reference)
            hits += int(np.argmax(logits) == np.argmax(reference))
        assert requantized == [True] * len(graphs)
        assert hits / len(graphs) >= INT8_AGREEMENT

    def test_zoo_matrix_agreement_via_serving_builders(self):
        """precision="int8" through the facade: wire stays float32 and the
        predicted class agrees with eager float64 across every entry."""
        zoo = _zoo()
        quant = build_zoo_callables(
            zoo, in_dim=3, num_classes=5, seed=0,
            config=RuntimeConfig(runtime="compiled", precision="int8"))
        eager = build_zoo_callables(
            zoo, in_dim=3, num_classes=5, seed=0,
            config=RuntimeConfig(runtime="eager"))
        hits = total = 0
        for frame in _point_cloud_frames(count=3):
            for name in zoo.names():
                arrays_q, meta_q = quant[name].device_fn(frame)
                assert arrays_q["x"].dtype == np.float32  # wire contract
                logits_q = quant[name].edge_fn(arrays_q, meta_q)[0]["logits"]
                arrays_e, meta_e = eager[name].device_fn(frame)
                logits_e = eager[name].edge_fn(arrays_e, meta_e)[0]["logits"]
                _assert_quant_close(logits_q, logits_e)
                hits += int(np.argmax(logits_q) == np.argmax(logits_e))
                total += 1
        assert hits / total >= INT8_AGREEMENT

    def test_batched_matches_single_frame(self):
        """Uniform int8 batches reuse the same static scales as single
        frames, so batching must be numerically inert (<= 1e-5)."""
        zoo = _zoo(aggregators=("max", "add"), pools=("max||mean",))
        callables = build_zoo_callables(
            zoo, in_dim=3, num_classes=5, seed=0,
            config=RuntimeConfig(runtime="compiled", precision="int8"))
        frames = _point_cloud_frames(count=4)
        for name in zoo.names():
            entry = callables[name]
            requests = [entry.device_fn(frame) for frame in frames]
            singles = [entry.edge_fn(arrays, meta)[0]["logits"]
                       for arrays, meta in requests]
            batched = entry.batch_fn(requests)
            assert len(batched) == len(frames)
            for (arrays, _), single in zip(batched, singles):
                np.testing.assert_allclose(arrays["logits"], single,
                                           rtol=0, atol=1e-5)


# ----------------------------------------------------------------------
# RuntimeConfig: precision knobs
# ----------------------------------------------------------------------
class TestPrecisionConfig:
    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            RuntimeConfig(precision="int4")
        with pytest.raises(ValueError, match="precision"):
            RuntimeConfig(precision_policy={"m": "bfloat16"})

    def test_eager_runtime_rejects_int8(self):
        with pytest.raises(ValueError, match="eager"):
            RuntimeConfig(runtime="eager", precision="int8")
        with pytest.raises(ValueError, match="eager"):
            RuntimeConfig(runtime="eager", precision_policy={"m": "int8"})

    def test_precision_for_resolution_order(self):
        config = RuntimeConfig(precision="float32",
                               precision_policy={"hot": "int8"})
        assert config.precision_for("hot") == "int8"
        assert config.precision_for("cold") == "float32"
        assert config.precision_for() == "float32"
        assert RuntimeConfig().precision_for("anything") == "float64"

    def test_round_trip_with_policy(self):
        config = RuntimeConfig(runtime="compiled", precision="float32",
                               precision_policy={"hot": "int8"})
        rebuilt = RuntimeConfig.from_dict(config.to_dict())
        assert rebuilt == config
        serving = ServingConfig(runtime=config)
        assert ServingConfig.from_dict(serving.to_dict()) == serving

    def test_int8_plus_compile_error_raises_under_auto(self):
        """runtime="auto" may fall back to eager — but eager cannot run
        int8, so a non-compilable int8 entry must fail loudly, while a
        policy exempting it to float64 falls back fine."""
        model = _model()
        model.classifier.mlp = nn.MLP([64, 8, 5], batch_norm=True)
        config = RuntimeConfig(runtime="auto", precision="int8",
                               precision_policy={"legacy": "float64"})
        with pytest.raises(PlanCompileError):
            build_callables(model, config, entry_name="hot")
        callables = build_callables(model, config, entry_name="legacy")
        frame = _point_cloud_frames(count=1)[0]
        arrays, meta = callables.device_fn(frame)
        logits, _ = callables.edge_fn(arrays, meta)
        assert logits["logits"].shape == (1, 5)


# ----------------------------------------------------------------------
# Mixed-precision zoo serving: float guarantees survive int8 neighbours
# ----------------------------------------------------------------------
class TestMixedPrecisionServing:
    ZOO = ArchitectureZoo([
        ZooEntry("hot", _arch("max", "max||mean"), 0.9, 10.0, 0.5),
        ZooEntry("exact", _arch("mean", "mean"), 0.9, 10.0, 0.5),
    ])
    CONFIG = ServingConfig(
        runtime=RuntimeConfig(precision_policy={"hot": "int8"}),
        batching=BatchingConfig(max_batch_size=4, max_wait_ms=2.0))

    def _references(self, frames):
        out = {}
        for name in self.ZOO.names():
            model = ArchitectureModel(self.ZOO.get(name).architecture,
                                      in_dim=3, num_classes=3, seed=0)
            with nn.no_grad():
                out[name] = [model.forward(frame).data for frame in frames]
        return out

    def test_float_entry_stays_exact_next_to_int8_entry(self):
        frames = _point_cloud_frames(num_points=24, count=4)
        references = self._references(frames)
        with serve(self.ZOO, self.CONFIG, in_dim=3, num_classes=3) as app:
            for name in self.ZOO.names():
                with app.client(model=name) as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, references[name]):
                    logits = result.arrays["logits"]
                    if name == "exact":  # float64 guarantee is unchanged
                        np.testing.assert_allclose(logits, reference,
                                                   rtol=0, atol=1e-9)
                    else:
                        _assert_quant_close(logits, reference)
                        assert np.argmax(logits) == np.argmax(reference)

    @pytest.mark.skipif(not sharding_supported("shm"),
                        reason="platform lacks multiprocessing.shared_memory")
    def test_sharded_int8_matches_in_process(self):
        """Shards rebuild entries from the config; deterministic synthetic
        calibration makes replica scales bit-identical, so sharded int8
        logits equal in-process int8 logits."""
        frames = _point_cloud_frames(num_points=24, count=3)
        sharded_config = ServingConfig(
            runtime=self.CONFIG.runtime,
            sharding=ShardingConfig(num_shards=2))
        outputs = {}
        for label, config in (("inproc", self.CONFIG),
                              ("sharded", sharded_config)):
            with serve(self.ZOO, config, in_dim=3, num_classes=3) as app:
                if label == "sharded":
                    assert app.sharded and app.shard_pool.live_count() == 2
                with app.client(model="hot") as client:
                    results, _ = client.run(frames)
                outputs[label] = [r.arrays["logits"] for r in results]
        for got, expected in zip(outputs["sharded"], outputs["inproc"]):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)
