"""Device performance and power models.

A :class:`DeviceSpec` captures the per-operation performance character of one
platform through a small set of effective processing rates (work units per
millisecond) plus a per-operation dispatch overhead, and its power draw
through idle/busy/transmit power levels.  The model is deliberately simple —
latency = overhead + work / rate — but the rates are *per operation type*,
which is exactly the degree of freedom needed to reproduce the paper's core
observation (Fig. 3): GNN operations have very different hardware
sensitivities (KNN starves GPUs, Aggregate's irregular access starves
desktop CPUs once the feature table falls out of cache, everything is slow on
a Raspberry Pi).

Work units:

* Sample/KNN:   ``N² · (D + log2 N)`` distance + sort element operations;
* Aggregate:    ``E · 2D`` gathered/reduced elements, with a cache-aware rate
  (fast when the node-feature table fits in the device's cache, slow when it
  does not — this is what makes Aggregate cheap on MR but dominant on
  ModelNet40 for the i7);
* Combine:      ``N · D_in · D_out`` multiply-accumulates;
* GlobalPool:   ``N · D`` reduced elements;
* Classifier:   ``D_in · hidden + hidden · classes`` MACs.

All work is expressed in millions of units ("Mops") so rates are Mops/ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..gnn.operations import OpSpec, OpType
from .workload import OpWorkload

MOPS = 1e6


@dataclass(frozen=True)
class DeviceSpec:
    """Performance/power description of one device or edge platform.

    Attributes
    ----------
    name / kind:
        Identifier and coarse category (``"embedded-gpu"``, ``"cpu"``, ...).
    knn_rate, dense_rate, gather_rate_hot, gather_rate_cold, pool_rate:
        Effective processing rates in Mops/ms for the different operation
        classes.  ``gather_rate_hot`` applies when the node-feature table
        fits in ``cache_kb``; ``gather_rate_cold`` when it does not.
    op_overhead_ms:
        Fixed per-operation dispatch overhead (framework/runtime cost).
    cache_kb:
        Effective cache capacity used for the hot/cold gather decision.
    idle_power_w / busy_power_w / transmit_power_w:
        Power draw when idle (runtime loaded, waiting), when executing
        operations, and while transmitting over the wireless link.
    """

    name: str
    kind: str
    knn_rate: float
    dense_rate: float
    gather_rate_hot: float
    gather_rate_cold: float
    pool_rate: float
    op_overhead_ms: float
    cache_kb: float
    idle_power_w: float
    busy_power_w: float
    transmit_power_w: float

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def _gather_rate(self, num_nodes: int, dim: int) -> float:
        table_kb = num_nodes * dim * 8 / 1024.0
        return self.gather_rate_hot if table_kb <= self.cache_kb else self.gather_rate_cold

    def op_latency_ms(self, workload: OpWorkload,
                      classifier_hidden: int = 64) -> float:
        """Execution latency of one operation instance on this device."""
        spec = workload.spec
        n = max(workload.num_nodes, 1)
        d_in = max(workload.in_dim, 1)
        d_out = max(workload.out_dim, 1)
        edges = max(workload.num_edges, 0)

        if spec.op == OpType.IDENTITY:
            return 0.0
        if spec.op == OpType.COMMUNICATE:
            # The link cost is modelled by WirelessLink; the device-side cost
            # of a communicate is only its (de)serialization dispatch.
            return self.op_overhead_ms

        if spec.op == OpType.SAMPLE:
            if spec.function == "random":
                work = n * spec.k / MOPS
                return self.op_overhead_ms + work / self.pool_rate
            work = (n * n * (d_in + math.log2(max(n, 2)))) / MOPS
            return self.op_overhead_ms + work / self.knn_rate
        if spec.op == OpType.AGGREGATE:
            work = (edges * 2.0 * d_in) / MOPS
            rate = self._gather_rate(n, d_in)
            return self.op_overhead_ms + work / rate
        if spec.op == OpType.COMBINE:
            work = (n * d_in * d_out) / MOPS
            return self.op_overhead_ms + work / self.dense_rate
        if spec.op == OpType.GLOBAL_POOL:
            work = (n * d_in) / MOPS
            return self.op_overhead_ms + work / self.pool_rate
        if spec.op == OpType.CLASSIFIER:
            hidden = classifier_hidden
            work = (n * (d_in * hidden + hidden * d_out)) / MOPS
            return self.op_overhead_ms + work / self.dense_rate
        raise ValueError(f"no latency model for operation {spec.op!r}")

    def sequence_latency_ms(self, workloads, classifier_hidden: int = 64) -> float:
        """Total latency of a list of workloads executed back-to-back."""
        return float(sum(self.op_latency_ms(w, classifier_hidden) for w in workloads))

    # ------------------------------------------------------------------
    # Energy model
    # ------------------------------------------------------------------
    def compute_energy_j(self, busy_ms: float) -> float:
        """Energy consumed while actively executing for ``busy_ms``."""
        return self.busy_power_w * busy_ms / 1000.0

    def idle_energy_j(self, idle_ms: float) -> float:
        """Energy consumed while idle (runtime resident, waiting) for ``idle_ms``."""
        return self.idle_power_w * idle_ms / 1000.0

    def describe(self) -> Dict[str, float]:
        """Flat dict of the model parameters (used in reports)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "knn_rate": self.knn_rate,
            "dense_rate": self.dense_rate,
            "gather_rate_hot": self.gather_rate_hot,
            "gather_rate_cold": self.gather_rate_cold,
            "pool_rate": self.pool_rate,
            "op_overhead_ms": self.op_overhead_ms,
            "cache_kb": self.cache_kb,
            "idle_power_w": self.idle_power_w,
            "busy_power_w": self.busy_power_w,
            "transmit_power_w": self.transmit_power_w,
        }
