"""Dtype hygiene of the compiled runtime: no silent upcasts, no arena thrash.

* **dtype preservation** — float32 kernels and plans stay float32 end to
  end (an upcast anywhere in the step chain would surface as a float64
  arena slot);
* **arena hygiene** — mixed-precision plans key buffers per dtype, so a
  warm plan never re-types (and therefore never re-allocates) a slot.
"""

from __future__ import annotations

import numpy as np

from repro.core import Architecture, ArchitectureModel
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.runtime import (BufferArena, calibrate, compile_plan,
                           synthetic_calibration_frames)
from repro.runtime import kernels


def _arch(aggregator: str = "max", pool: str = "max||mean") -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=6),
        OpSpec(OpType.AGGREGATE, aggregator),
        OpSpec(OpType.COMBINE, 16),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.SAMPLE, "knn", k=4),
        OpSpec(OpType.AGGREGATE, aggregator),
        OpSpec(OpType.GLOBAL_POOL, pool),
    ), name=f"{aggregator}-{pool}")


def _model(aggregator: str = "max", pool: str = "max||mean"):
    return ArchitectureModel(_arch(aggregator, pool), in_dim=3,
                             num_classes=5, seed=0)


def _frame(num_points: int = 32):
    graphs = SyntheticModelNet40(num_points=num_points, samples_per_class=1,
                                 num_classes=2, seed=0).generate()
    return Batch.from_graphs(graphs[:1])


def _int8_plan(model, segments=("full",)):
    calibration = calibrate(model, synthetic_calibration_frames(3, seed=0),
                            segments=segments)
    return compile_plan(model, segments=segments, calibration=calibration)


# ----------------------------------------------------------------------
# float32 stays float32 (no silent float64 upcasts)
# ----------------------------------------------------------------------
class TestDtypePreservation:
    def test_fused_linear_preserves_float32(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        for activation in (None, "relu", "leaky_relu"):
            out = kernels.fused_linear(x, w, b, np.empty((4, 3), np.float32),
                                       activation=activation)
            assert out.dtype == np.float32

    def test_edgeconv_uniform_preserves_float32(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        src = rng.integers(0, 6, size=18).astype(np.int64)
        for reduce in ("max", "add", "mean"):
            out = kernels.edgeconv_uniform(
                x, src, 3, reduce, np.empty((3, 6, 4), np.float32),
                np.empty((6, 8), np.float32))
            assert out.dtype == np.float32

    def test_float32_plan_arena_holds_no_float64_features(self):
        """A float32 plan's feature buffers must all be float32 — an upcast
        anywhere in the step chain would surface here as a float64 slot."""
        plan = compile_plan(_model(), dtype=np.float32, segments=("full",))
        frame = _frame()
        plan(frame)
        stats = plan.full.arena.dtype_stats()
        assert "float32" in stats and stats["float32"]["slots"] > 0
        assert "float64" not in stats
        assert plan(frame).dtype == np.float32


# ----------------------------------------------------------------------
# Per-dtype arena accounting, no retype thrash
# ----------------------------------------------------------------------
class TestArenaDtypeStats:
    def test_retype_counter_and_stats(self):
        arena = BufferArena()
        arena.take("a", (4, 4), np.float64)
        arena.take("a", (4, 4), np.float64)
        assert arena.retypes == 0
        arena.take("a", (4, 4), np.float32)  # same slot, new dtype
        assert arena.retypes == 1
        arena.take("b", (2, 2), np.int8)
        stats = arena.dtype_stats()
        assert stats["float32"]["slots"] == 1
        assert stats["int8"]["slots"] == 1
        assert stats["int8"]["nbytes"] == 4

    def test_mixed_precision_plan_never_retypes(self):
        """Quantized plans interleave int8/int16/float32 buffers; slot keys
        must keep them apart so a warm plan only ever reuses buffers."""
        plan = _int8_plan(_model())
        frame = _frame()
        plan(frame)
        arena = plan.full.arena
        allocations = arena.allocations
        plan(frame)
        plan(frame)
        assert arena.retypes == 0
        assert arena.allocations == allocations  # warm: pure reuse
        stats = arena.dtype_stats()
        assert stats["int8"]["slots"] > 0  # quantized activations
        assert stats["float32"]["slots"] > 0  # scales/logit outputs

    def test_float_and_quant_plans_share_nothing(self):
        """Serving one float and one int8 plan side by side (mixed-precision
        zoo) keeps each arena self-consistent — no cross-plan aliasing."""
        frame = _frame()
        float_plan = compile_plan(_model(), segments=("full",))
        quant_plan = _int8_plan(_model())
        baseline = float_plan(frame).copy()
        for _ in range(3):
            quant_plan(frame)
            np.testing.assert_allclose(float_plan(frame), baseline,
                                       atol=0, rtol=0)
