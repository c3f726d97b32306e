"""Post-training quantization support for compiled plans.

Scheme (symmetric, zero-point 0 throughout — the dataclasses still carry a
``zero_point`` field so serialized calibrations are schema-complete):

* **Weights** (Combine / classifier linears): per-output-channel scales,
  ``scale[j] = max|W[:, j]| / 127``, quantized once per parameter version
  (plans resolve weights at call time, so ``load_state_dict`` re-quantizes
  automatically — see ``_QuantParamRef`` in :mod:`repro.runtime.plan`).
* **Activations**: one static per-tensor scale per plan step, derived from
  the amax each step produced while running the *float* plan over sample
  frames (:func:`calibrate`).  Static scales keep serving allocation-free
  and make replicas deterministic; the accuracy delta against the float
  path is gated by tests and the precision benchmark.

Calibration keys are the plan steps' arena slot tuples, which are a pure
function of the architecture — so a calibration taken from the float32 plan
aligns exactly with the quantized plan compiled afterwards, and two
processes compiling the same entry from the same frames get bit-identical
scales.  That determinism is what lets shard workers and cluster nodes
rebuild quantized entries from config alone (see
:func:`synthetic_calibration_frames`) and still match the parent process
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph.data import Batch, GraphData
from ..graph.knn import knn_graph
from .kernels import QMAX_INT8

#: Precision names accepted by ``RuntimeConfig.precision`` /
#: ``precision_policy``.  The float entries select the compiled compute &
#: wire dtype; ``"int8"`` selects the calibrated quantized path (float32
#: carrier on the wire).
PRECISION_FLOAT64 = "float64"
PRECISION_FLOAT32 = "float32"
PRECISION_INT8 = "int8"
PRECISIONS = (PRECISION_FLOAT64, PRECISION_FLOAT32, PRECISION_INT8)


def amax_to_scale(amax: float) -> float:
    """Symmetric scale for an observed absolute maximum (0 → harmless 1.0)."""
    amax = float(amax)
    if not np.isfinite(amax) or amax <= 0.0:
        return 1.0
    return amax / QMAX_INT8


def quantize_weight(weight: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-output-channel symmetric int8 quantization of a weight matrix.

    Returns ``(wq, scales)``: ``wq`` int8 with shape of ``weight``
    (``(in, out)``), ``scales`` float32 with one entry per output column,
    ``weight ≈ wq * scales``.  All-zero columns get scale 1.0 so nothing
    divides by zero.
    """
    scales = np.max(np.abs(weight), axis=0) / QMAX_INT8
    scales[scales == 0.0] = 1.0
    scales = scales.astype(np.float32)
    wq = np.clip(np.rint(weight / scales), -QMAX_INT8, QMAX_INT8)
    return wq.astype(np.int8), scales


@dataclass
class SegmentCalibration:
    """Observed activation ranges of one plan segment.

    ``step_amax`` maps each step's calibration key (its arena slot tuple) to
    the largest ``|x|`` the step emitted across the calibration frames;
    ``input_amax`` covers the segment's input itself (the entry-quantize
    scale).  ``zero_point`` is always 0 (symmetric scheme).
    """

    input_amax: float = 0.0
    step_amax: Dict[object, float] = field(default_factory=dict)
    zero_point: int = 0

    def observe_input(self, x: np.ndarray) -> None:
        if x.size:
            self.input_amax = max(self.input_amax,
                                  float(np.max(np.abs(x))))

    def observe_step(self, key: object, x: np.ndarray) -> None:
        if x.size and np.issubdtype(x.dtype, np.floating):
            amax = float(np.max(np.abs(x)))
            prev = self.step_amax.get(key, 0.0)
            if amax > prev:
                self.step_amax[key] = amax


@dataclass
class PlanCalibration:
    """Per-segment activation calibration of one model (see :func:`calibrate`)."""

    segments: Dict[str, SegmentCalibration] = field(default_factory=dict)
    num_frames: int = 0

    def segment(self, name: str) -> SegmentCalibration:
        try:
            return self.segments[name]
        except KeyError:
            raise ValueError(
                f"calibration does not cover plan segment {name!r} "
                f"(calibrated: {sorted(self.segments)}); re-run calibrate() "
                "with this segment included") from None


def synthetic_calibration_frames(in_dim: int, *, num_frames: int = 8,
                                 num_points: int = 64,
                                 seed: int = 0) -> List[Batch]:
    """Deterministic stand-in calibration frames for config-only rebuilds.

    Shard workers and cluster nodes rebuild repositories from serialized
    config — no sample data rides along — so quantized entries built there
    calibrate on these seeded synthetic frames, and because generation is
    deterministic every replica derives bit-identical scales (the shard /
    cluster equivalence guarantee for int8 entries).  For accuracy-critical
    deployments pass real sample frames to the builders instead; the
    distribution here (unit-normalized clouds, positions mirroring features
    for 3-D inputs, a kNN edge list for architectures that expect wire
    edges) only approximates real data.
    """
    if in_dim < 1:
        raise ValueError(f"in_dim must be positive, got {in_dim}")
    rng = np.random.default_rng(seed)
    frames: List[Batch] = []
    k = min(9, num_points - 1)
    for _ in range(max(1, int(num_frames))):
        x = rng.standard_normal((num_points, in_dim))
        radius = np.max(np.linalg.norm(x, axis=1))
        if radius > 0:
            x = x / radius
        pos = x if in_dim == 3 else None
        edges = knn_graph(pos if pos is not None else x, k) if k > 0 else None
        frames.append(Batch.from_graphs(
            [GraphData(x=x, edge_index=edges, pos=pos)]))
    return frames


def calibrate(model, frames: Sequence[Batch],
              segments: Sequence[str] = ("full", "device", "edge"),
              ) -> PlanCalibration:
    """Run the float32 plan over ``frames`` and record per-step activation amax.

    Compiles a float32 plan for the requested ``segments`` (raising
    :class:`~repro.runtime.plan.PlanCompileError` exactly where a quantized
    compile would), executes every frame with an observer hooked after each
    step, and returns the :class:`PlanCalibration` a subsequent
    ``compile_plan(..., calibration=...)`` consumes.  The edge segment is
    calibrated on the *device segment's outputs* — the same states it sees
    in serving — so its entry scale reflects wire data, not raw inputs.
    """
    from .plan import compile_plan  # deferred: plan imports this module

    if not frames:
        raise ValueError("calibration requires at least one sample frame")
    wanted = tuple(dict.fromkeys(segments))
    compile_segments = set(wanted)
    if "edge" in compile_segments:
        compile_segments.add("device")  # edge inputs come from device runs
    plan = compile_plan(model, dtype=np.float32,
                        segments=tuple(sorted(compile_segments)))
    calibration = PlanCalibration(num_frames=len(frames))
    recorders: Dict[int, SegmentCalibration] = {}
    for name in ("full", "device", "edge"):
        segment = getattr(plan, name)
        if segment is None:
            continue
        recorder = recorders.get(id(segment))
        if recorder is None:
            recorder = SegmentCalibration()
            recorders[id(segment)] = recorder
        calibration.segments[name] = recorder

    def observer_for(recorder: SegmentCalibration):
        def observer(step, run) -> None:
            key = getattr(step, "slot", None)  # Sample rewrites no x
            if key is not None:
                recorder.observe_step(key, run.x)
        return observer

    full_rec = calibration.segments.get("full")
    device_rec = calibration.segments.get("device")
    edge_rec = calibration.segments.get("edge")
    for frame in frames:
        x32 = np.asarray(frame.x, dtype=np.float32)
        if "full" in calibration.segments and (plan.split is None
                                               or "full" in wanted):
            full_rec.observe_input(x32)
            plan.full.execute(frame.x, frame.batch, frame.num_graphs,
                              edge_index=frame.edge_index, pos=frame.pos,
                              observer=observer_for(full_rec))
        if plan.split is None or device_rec is None:
            continue  # aliased segments / only "full" requested: done
        device_rec.observe_input(x32)
        run = plan.device.execute(frame.x, frame.batch, frame.num_graphs,
                                  edge_index=frame.edge_index, pos=frame.pos,
                                  observer=observer_for(device_rec))
        if edge_rec is None:
            continue
        edge_x = np.array(run.x, copy=True)
        edge_rec.observe_input(edge_x)
        edge_edges = (None if run.edge_index is None
                      else np.array(run.edge_index, copy=True))
        edge_pos = None if run.pos is None else np.array(run.pos, copy=True)
        plan.edge.execute(edge_x, run.batch.copy(), run.num_graphs,
                          edge_index=edge_edges, pos=edge_pos,
                          pooled=run.pooled,
                          observer=observer_for(edge_rec))
    return calibration
