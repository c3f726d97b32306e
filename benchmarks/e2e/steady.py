"""What a timed phase looks like second by second, and two steady estimators.

The boxes this benchmark runs on share their cores with neighbours: the same
code runs 10-50 % slower for seconds, sometimes minutes, at a time (README,
"How steady the numbers are").  Interference is one-sided - it only ever adds
time - which two estimators here rely on:

* ``calm_p50``: a phase is cut into one-second slices and the lowest slice
  median is the program's speed on an undisturbed box.  Only the *median* is
  taken that way.  Throughput and the 95th percentile are computed over the
  whole window, so that a cost which is not present in every second (a
  periodic stall, a retry, a batch-wait timeout) reaches a gated metric;
* ``steady``: a microbenchmark loop reports the lower quartile of its calls.

``slice_spread`` says how far a window's own seconds disagree; ``compare.py``
calls a metric ``unresolved`` when that is wider than the metric's bound.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

SLICE_S = 1.0
#: A slice with fewer latency samples than this has no 95th percentile worth
#: the name and is left out.
MIN_SLICE_SAMPLES = 8


def steady(values: Sequence[float]) -> float:
    """Lower quartile of repeated timings of one operation (0.0 if none)."""
    return float(np.percentile(values, 25)) if len(values) else 0.0


def slice_series(phases) -> Dict[str, List[float]]:
    """Per-slice ``fps``, ``latency_p50_ms`` and ``latency_p95_ms``.

    Only slices that lie wholly inside their phase count; a frame belongs to
    the slice it completed in.
    """
    series: Dict[str, List[float]] = {"fps": [], "latency_p50_ms": [],
                                      "latency_p95_ms": []}
    for phase in phases:
        slices: List[List[float]] = [[] for _ in
                                     range(int(phase.seconds // SLICE_S))]
        for completed, latency in phase.samples:
            if 0 <= completed < len(slices) * SLICE_S:
                slices[int(completed // SLICE_S)].append(latency)
        for samples in slices:
            if len(samples) >= MIN_SLICE_SAMPLES:
                series["fps"].append(len(samples) / SLICE_S)
                series["latency_p50_ms"].append(
                    float(np.percentile(samples, 50)))
                series["latency_p95_ms"].append(
                    float(np.percentile(samples, 95)))
    return series


def calm_p50(series: Dict[str, List[float]]) -> float:
    """Median latency of the least disturbed one-second slice."""
    if not series["latency_p50_ms"]:
        raise RuntimeError("no complete one-second slice in the timed window "
                           "(did any frame complete?)")
    return min(series["latency_p50_ms"])


def slice_spread(values: Sequence[float]) -> float:
    """Interquartile range over median of a per-slice series (0.0 if < 2)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)
