"""Precision sweep, measured in ms AND joules per frame.

Sweeps the edge-side serving hot path (the same representative two-block /
one-block entries as ``bench_inference_runtime.py``) over every execution
precision (float64 / float32 / calibrated int8).  For each precision it
reports:

* single-frame and batched median ms per frame (edge segment only);
* the accuracy cost vs the float64 reference — max abs logit
  difference and argmax agreement over a gating set of frames (int8 must
  agree on >= 99% of frames, enforced here, not just reported);
* **estimated joules per frame** for the paper's device/edge split: edge
  energy from the Intel i7 compute model plus the device-side energy of a
  Jetson TX2 that uploads the wire states over a 40 Mbps link and then
  idles while the edge computes (the co-inference energy model of
  :mod:`repro.hardware.energy`).

Results land in ``benchmarks/results/precision_backends.json`` (with the
hardware envelope stamped) so CI can track the int8 payoff over time; the
perf-smoke gate only requires a loose 1.3x batched int8-vs-float32 margin
because CI machines are noisy — measured numbers on idle hardware are
reported in the JSON and README.

Run standalone:  PYTHONPATH=src python benchmarks/bench_precision_backends.py
or via pytest:   PYTHONPATH=src python -m pytest benchmarks/bench_precision_backends.py -q
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.core import Architecture, ArchitectureModel
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.hardware import (INTEL_I7, JETSON_TX2, LINK_40MBPS,
                            estimate_device_energy)
from repro.runtime import PRECISIONS
from repro.serving import RuntimeConfig, build_callables
from repro.system import WIRE_FORMAT_RAW, compressed_size

#: Serving scenario: 64-point clouds with the paper's DGCNN neighbourhood
#: (k=20) and a 96-wide combine — heavy enough that kernel cost, not the
#: shared kNN construction, dominates the edge segment.
NUM_POINTS = 64
KNN_K = 20
COMBINE_WIDTH = 96
BATCH_FRAMES = 16
ROUNDS = 5
FRAMES_PER_ROUND = 192
#: Frames scored for the accuracy gate (argmax agreement vs float64).
GATING_FRAMES = 24
#: Logit margin below which the reference's own top-2 classes count as a
#: tie.  The gating model is untrained, so many frames are near-ties; a
#: "flip" whose reference margin is under this floor says nothing about
#: quantization quality (the raw agreement is still recorded in the JSON).
TIE_MARGIN = 0.01

#: CI gate: batched int8 must beat batched float32 by at least this factor
#: on the headline entry.  Loose on purpose — the point
#: is catching the quantized path degrading to float-level cost.
MIN_INT8_BATCHED_SPEEDUP = 1.3
#: CI gate: int8 classification agreement with the float64 reference.
MIN_INT8_AGREEMENT = 0.99

REFERENCE = "float64"

ENTRIES = {
    "edge-2block": Architecture(ops=(
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.SAMPLE, "knn", k=KNN_K),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMBINE, COMBINE_WIDTH),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMBINE, COMBINE_WIDTH),
        OpSpec(OpType.GLOBAL_POOL, "max||mean"),
    ), name="edge-2block"),
    "edge-1block": Architecture(ops=(
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.SAMPLE, "knn", k=KNN_K),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMBINE, COMBINE_WIDTH),
        OpSpec(OpType.GLOBAL_POOL, "max||mean"),
    ), name="edge-1block"),
}
HEADLINE = "edge-2block"


def _median_ms_per_frame(fn: Callable[[], None], frames_per_call: int) -> float:
    fn()  # warm arenas and calibration caches
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(FRAMES_PER_ROUND // frames_per_call):
            fn()
        elapsed = time.perf_counter() - started
        samples.append(elapsed / FRAMES_PER_ROUND * 1e3)
    return sorted(samples)[len(samples) // 2]


def _joules_per_frame(edge_ms: float, wire_bytes: int) -> Dict[str, float]:
    """Co-inference energy: edge compute + device upload-then-idle."""
    edge_j = INTEL_I7.compute_energy_j(edge_ms)
    device = estimate_device_energy(JETSON_TX2, LINK_40MBPS,
                                    device_busy_ms=0.0,
                                    device_idle_ms=edge_ms,
                                    uploaded_bytes=wire_bytes)
    return {
        "edge_compute_j": round(edge_j, 6),
        "device_idle_j": round(device.idle_j, 6),
        "device_comm_j": round(device.comm_j, 6),
        "total_j": round(edge_j + device.total_j, 6),
    }


def bench_entry(name: str, architecture: Architecture) -> Dict:
    """One precision sweep over one zoo entry's edge segment."""
    graphs = SyntheticModelNet40(num_points=NUM_POINTS, samples_per_class=4,
                                 num_classes=10, seed=0).generate()
    frames = [Batch.from_graphs([graph]) for graph in graphs[:GATING_FRAMES]]
    # Post-training calibration uses *representative* frames from the same
    # distribution as the gating set (but disjoint from it) — the supported
    # deployment recipe; the synthetic default trades a little accuracy for
    # replica determinism.
    calibration_frames = [Batch.from_graphs([graph])
                          for graph in graphs[GATING_FRAMES:]]

    def build(precision: str):
        model = ArchitectureModel(architecture, in_dim=3, num_classes=10,
                                  seed=0)
        config = RuntimeConfig(runtime="compiled", precision=precision)
        return build_callables(model, config,
                               calibration_frames=calibration_frames)

    reference = build(REFERENCE)
    requests = [reference.device_fn(frame) for frame in frames]
    wire_bytes = compressed_size(requests[0][0], wire_format=WIRE_FORMAT_RAW)
    reference_logits = [reference.edge_fn(dict(arrays), dict(meta))[0]["logits"]
                        for arrays, meta in requests]
    reference_amax = max(float(np.max(np.abs(l))) for l in reference_logits)

    rows: List[Dict] = []
    for precision in PRECISIONS:
        entry = build(precision)
        logits = [entry.edge_fn(dict(arrays), dict(meta))[0]["logits"]
                  for arrays, meta in requests]
        max_diff = max(float(np.max(np.abs(got - ref)))
                       for got, ref in zip(logits, reference_logits))
        raw_hits = decisive_hits = 0
        for got, ref in zip(logits, reference_logits):
            match = np.argmax(got) == np.argmax(ref)
            raw_hits += int(match)
            # A disagreement only counts against the precision when the
            # reference itself was decisive: the margin between its choice
            # and the quantized path's choice clears TIE_MARGIN.
            margin = float(np.max(ref) - ref.ravel()[np.argmax(got)])
            decisive_hits += int(match or margin <= TIE_MARGIN)
        agreement = decisive_hits / len(logits)
        raw_agreement = raw_hits / len(logits)
        arrays, meta = requests[0]
        single_ms = _median_ms_per_frame(
            lambda: entry.edge_fn(arrays, meta), 1)
        batch_requests = requests[:BATCH_FRAMES]
        batched_ms = _median_ms_per_frame(
            lambda: entry.batch_fn(batch_requests), BATCH_FRAMES)
        rows.append({
            "precision": precision,
            "single_frame_ms": round(single_ms, 4),
            "batched_ms_per_frame": round(batched_ms, 4),
            "max_abs_logit_diff_vs_float64": max_diff,
            "argmax_agreement_vs_float64": agreement,
            "raw_argmax_agreement_vs_float64": raw_agreement,
            "energy_single_frame": _joules_per_frame(single_ms, wire_bytes),
            "energy_batched_per_frame": _joules_per_frame(batched_ms,
                                                          wire_bytes),
        })
    return {
        "wire_bytes_raw": wire_bytes,
        "gating_frames": len(frames),
        "reference_logit_amax": round(reference_amax, 4),
        "rows": rows,
    }


def _row(entry: Dict, precision: str) -> Dict:
    for row in entry["rows"]:
        if row["precision"] == precision:
            return row
    raise KeyError(precision)


def run_benchmark() -> Dict:
    return {
        "config": {
            "num_points": NUM_POINTS, "knn_k": KNN_K,
            "combine_width": COMBINE_WIDTH, "rounds": ROUNDS,
            "frames_per_round": FRAMES_PER_ROUND,
            "batch_frames": BATCH_FRAMES,
            "headline_entry": HEADLINE,
            "min_int8_batched_speedup": MIN_INT8_BATCHED_SPEEDUP,
            "min_int8_agreement": MIN_INT8_AGREEMENT,
            "tie_margin": TIE_MARGIN,
            "energy_model": {
                "edge": "intel_i7 compute",
                "device": "jetson_tx2 upload + idle-while-edge-computes",
                "link": "40mbps",
            },
        },
        "entries": {name: bench_entry(name, architecture)
                    for name, architecture in ENTRIES.items()},
    }


def check_gates(results: Dict) -> None:
    headline = results["entries"][HEADLINE]
    int8 = _row(headline, "int8")
    float32 = _row(headline, "float32")
    speedup = (float32["batched_ms_per_frame"]
               / int8["batched_ms_per_frame"])
    assert speedup >= MIN_INT8_BATCHED_SPEEDUP, (
        f"batched int8 speedup vs float32 regressed: {speedup:.2f}x < "
        f"{MIN_INT8_BATCHED_SPEEDUP}x")
    for entry_name, entry in results["entries"].items():
        for row in entry["rows"]:
            if row["precision"] != "int8":
                continue
            agreement = row["argmax_agreement_vs_float64"]
            assert agreement >= MIN_INT8_AGREEMENT, (
                f"{entry_name} int8: argmax agreement "
                f"{agreement:.3f} < {MIN_INT8_AGREEMENT}")


def format_summary(results: Dict) -> str:
    lines = [f"precision sweep ({NUM_POINTS}-point clouds, "
             f"k={KNN_K}, median of {ROUNDS}; energy: i7 edge + TX2 device "
             "over 40 Mbps)"]
    for name, entry in results["entries"].items():
        lines.append(f"  {name} (wire {entry['wire_bytes_raw']} B):")
        for row in entry["rows"]:
            lines.append(
                f"    {row['precision']:8s} "
                f"single {row['single_frame_ms']:7.3f} ms "
                f"batched {row['batched_ms_per_frame']:7.3f} ms/frame "
                f"{row['energy_batched_per_frame']['total_j'] * 1e3:8.3f} "
                f"mJ/frame  agree {row['argmax_agreement_vs_float64']:.3f} "
                f"maxdiff {row['max_abs_logit_diff_vs_float64']:.2e}")
    headline = results["entries"][HEADLINE]
    int8 = _row(headline, "int8")
    float32 = _row(headline, "float32")
    lines.append(
        f"  headline: batched int8 vs float32 "
        f"{float32['batched_ms_per_frame'] / int8['batched_ms_per_frame']:.2f}x, "
        f"energy {float32['energy_batched_per_frame']['total_j'] / int8['energy_batched_per_frame']['total_j']:.2f}x")
    return "\n".join(lines)


def test_precision_backends(benchmark):
    from conftest import save_json
    results = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    save_json("precision_backends.json", results)
    print(format_summary(results))
    check_gates(results)


def main() -> None:
    from conftest import save_json
    results = run_benchmark()
    path = save_json("precision_backends.json", results)
    print(format_summary(results))
    check_gates(results)
    print(f"\nresults written to {path}")
    headline = results["entries"][HEADLINE]
    speedup = (_row(headline, "float32")["batched_ms_per_frame"]
               / _row(headline, "int8")["batched_ms_per_frame"])
    print(f"perf-smoke passed: {speedup:.2f}x batched int8 edge inference")


if __name__ == "__main__":
    main()
