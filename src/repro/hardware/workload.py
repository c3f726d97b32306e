"""Workload characterization of GNN operations.

The hardware latency/energy models do not execute tensors — they consume a
*workload descriptor* per operation (how many nodes, edges, input/output
features it touches).  :func:`trace_workloads` walks an operation sequence
and derives those descriptors from a :class:`DataProfile` describing the
input data regime (e.g. ModelNet40: 1024 nodes × 3 features, no initial
edges; MR: ~17 nodes × 300 features with word co-occurrence edges), tracking
how feature dimensions and graph structure evolve through the network exactly
as :class:`~repro.core.architecture.Architecture.feature_dims` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..gnn.operations import OpSpec, OpType

#: Bytes per transmitted feature value (float32 on the wire).
BYTES_PER_FEATURE = 4
#: Bytes per transmitted edge endpoint (int32 indices on the wire).
BYTES_PER_INDEX = 4


@dataclass(frozen=True)
class DataProfile:
    """Static description of the input data regime of an application.

    Attributes
    ----------
    name:
        Dataset name (``"modelnet40"`` / ``"mr"`` / custom).
    num_nodes:
        Nodes per inference frame (points per cloud, words per document).
    feature_dim:
        Input feature dimensionality.
    has_edges:
        Whether the frame arrives with a graph structure (text graphs do,
        point clouds do not).
    initial_edges:
        Number of edges in the incoming structure when ``has_edges``.
    num_classes:
        Number of output classes (classifier workload).
    """

    name: str
    num_nodes: int
    feature_dim: int
    has_edges: bool = False
    initial_edges: int = 0
    num_classes: int = 40

    @staticmethod
    def modelnet40(num_points: int = 1024, num_classes: int = 40) -> "DataProfile":
        """Profile matching the paper's ModelNet40 setting (1024 × 3 points)."""
        return DataProfile(name="modelnet40", num_nodes=num_points, feature_dim=3,
                           has_edges=False, initial_edges=0, num_classes=num_classes)

    @staticmethod
    def mr(num_words: int = 17, feature_dim: int = 300,
           window: int = 3) -> "DataProfile":
        """Profile matching the paper's MR setting (~17 × 300 word graphs)."""
        edges = num_words * min(2 * window, max(num_words - 1, 1))
        return DataProfile(name="mr", num_nodes=num_words, feature_dim=feature_dim,
                           has_edges=True, initial_edges=edges, num_classes=2)


@dataclass(frozen=True)
class OpWorkload:
    """Resource footprint of one operation instance.

    All quantities refer to a single inference frame (one graph).
    """

    spec: OpSpec
    num_nodes: int
    in_dim: int
    out_dim: int
    num_edges: int
    pooled: bool
    #: Bytes that would need to be transmitted if the *output* of this
    #: operation were handed to the other side (features + graph structure).
    output_bytes: int


def _structure_bytes(num_edges: int) -> int:
    return 2 * num_edges * BYTES_PER_INDEX


def transfer_bytes(num_nodes: int, feature_dim: int, num_edges: int,
                   include_structure: bool) -> int:
    """Serialized payload size of an intermediate state (before compression)."""
    payload = num_nodes * feature_dim * BYTES_PER_FEATURE
    if include_structure:
        payload += _structure_bytes(num_edges)
    return int(payload)


def trace_workloads(ops: Sequence[OpSpec], profile: DataProfile,
                    classifier_hidden: int = 64) -> List[OpWorkload]:
    """Derive per-operation workloads for ``ops`` executed on ``profile`` data.

    The returned list has one entry per operation in ``ops`` plus one final
    entry for the classifier.  Feature-dimension evolution mirrors the
    executable semantics: Aggregate doubles the width (centre ‖ difference
    message), Combine sets it to its channel count, ``max||mean`` pooling
    doubles it, pooling collapses the node count to one.
    """
    workloads: List[OpWorkload] = []
    num_nodes = profile.num_nodes
    dim = profile.feature_dim
    num_edges = profile.initial_edges if profile.has_edges else 0
    has_structure = profile.has_edges
    pooled = False

    for spec in ops:
        in_dim = dim
        if spec.op == OpType.SAMPLE:
            num_edges = num_nodes * spec.k
            has_structure = True
            out_dim = dim
        elif spec.op == OpType.AGGREGATE:
            out_dim = 2 * dim
        elif spec.op == OpType.COMBINE:
            out_dim = int(spec.function)
        elif spec.op == OpType.GLOBAL_POOL:
            out_dim = 2 * dim if spec.function == "max||mean" else dim
        else:  # identity / communicate keep the feature width
            out_dim = dim

        # Compute the post-op state used for the transfer-size bookkeeping.
        post_nodes = 1 if (pooled or spec.op == OpType.GLOBAL_POOL) else num_nodes
        post_edges = 0 if spec.op == OpType.GLOBAL_POOL or pooled else num_edges
        include_structure = has_structure and not pooled and spec.op != OpType.GLOBAL_POOL
        out_bytes = transfer_bytes(post_nodes, out_dim, post_edges, include_structure)

        workloads.append(OpWorkload(
            spec=spec, num_nodes=num_nodes, in_dim=in_dim, out_dim=out_dim,
            num_edges=num_edges, pooled=pooled, output_bytes=out_bytes))

        dim = out_dim
        if spec.op == OpType.GLOBAL_POOL:
            pooled = True
            num_nodes = 1
            num_edges = 0
            has_structure = False

    classifier_spec = OpSpec(OpType.CLASSIFIER, "mlp")
    classifier_nodes = 1 if pooled else num_nodes
    workloads.append(OpWorkload(
        spec=classifier_spec, num_nodes=classifier_nodes, in_dim=dim,
        out_dim=profile.num_classes, num_edges=0, pooled=pooled,
        output_bytes=transfer_bytes(classifier_nodes, profile.num_classes, 0, False)))
    return workloads


def input_bytes(profile: DataProfile) -> int:
    """Serialized size of the raw input frame (what Edge-Only mode uploads)."""
    return transfer_bytes(profile.num_nodes, profile.feature_dim,
                          profile.initial_edges if profile.has_edges else 0,
                          profile.has_edges)
