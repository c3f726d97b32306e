"""Compiled inference runtime: autograd-free plans with buffer arenas.

The serving hot path of the co-inference engine does not need autograd —
every frame runs under ``no_grad`` — yet eager execution still pays for the
full :class:`~repro.nn.tensor.Tensor` machinery (graph-construction closures,
per-op allocations, per-scatter bookkeeping).  This package compiles an
:class:`~repro.core.executor.ArchitectureModel` once into a flat list of
raw-ndarray kernels (:func:`compile_plan`), reuses pre-allocated output
buffers across frames (:class:`BufferArena`), runs EdgeConv over a sampled
topology's ``(N, k)`` neighbour table and canonicalizes any other edge list
so scatters always hit the ``reduceat`` fast path.

Plans can also run **quantized** (int8 weights and activations from
post-training calibration — :func:`calibrate`, :func:`compile_plan` with
``calibration=``; see ``docs/architecture.md``, "Precision").  Every step
calls the numpy kernels of :mod:`repro.runtime.kernels` directly.

See ``docs/architecture.md`` ("Runtime & plan compilation") for what fuses,
when the arena engages, and the dtype caveats.
"""

from .arena import BufferArena
from .kernels import SegmentInfo, canonical_edge_order
from .plan import (InferencePlan, PlanCompileError, PlanRun, PlanSegment,
                   SEGMENTS, compile_plan)
from .quantize import (PRECISIONS, PlanCalibration, SegmentCalibration,
                       amax_to_scale, calibrate, quantize_weight,
                       synthetic_calibration_frames)

__all__ = [
    "BufferArena",
    "SegmentInfo", "canonical_edge_order",
    "InferencePlan", "PlanCompileError", "PlanRun", "PlanSegment",
    "SEGMENTS", "compile_plan",
    "PRECISIONS", "PlanCalibration", "SegmentCalibration", "amax_to_scale",
    "calibrate", "quantize_weight", "synthetic_calibration_frames",
]
