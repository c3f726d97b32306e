"""The GNN operation vocabulary of the GCoDE co-inference design space.

The paper's design space (Fig. 6) builds architectures from six operation
types — ``Sample``, ``Aggregate``, ``Communicate``, ``Combine``, ``Global
Pooling`` and ``Identity`` — each with a small set of *functions* (e.g. the
aggregation reducer, the Combine width, the expected link bandwidth).  This
module defines:

* :class:`OpType` / :class:`OpSpec` — the symbolic description of one
  operation instance, shared by the executor, the hardware cost models and
  the search code;
* :class:`ExecState` — the mutable state threaded through execution
  (node features, edge index, batch vector, pooled flag);
* executable modules (:class:`SampleOp`, :class:`AggregateOp`, ...) that
  apply an :class:`OpSpec` to an :class:`ExecState` using the mini NN
  framework, so that sampled architectures can actually be trained and
  evaluated for accuracy.

``Communicate`` is computationally an identity — its entire purpose is to
mark the device→edge hand-off point so that the mapping is part of the
architecture itself (the paper's key idea).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..graph.knn import knn_graph, neighbour_table, random_graph


class OpType:
    """String constants naming the operation types of the design space."""

    INPUT = "input"
    SAMPLE = "sample"
    AGGREGATE = "aggregate"
    COMBINE = "combine"
    GLOBAL_POOL = "global_pool"
    IDENTITY = "identity"
    COMMUNICATE = "communicate"
    CLASSIFIER = "classifier"

    #: Operation types that may appear in searchable layer slots.
    SEARCHABLE = (SAMPLE, AGGREGATE, COMBINE, GLOBAL_POOL, IDENTITY, COMMUNICATE)
    #: All operation types, including the fixed input / classifier book-ends.
    ALL = (INPUT,) + SEARCHABLE + (CLASSIFIER,)


#: Default function choices per operation type (paper Fig. 6).
DEFAULT_FUNCTIONS: Dict[str, Tuple] = {
    OpType.SAMPLE: ("knn", "random"),
    OpType.AGGREGATE: ("add", "mean", "max"),
    OpType.COMBINE: (16, 32, 64, 128),
    OpType.GLOBAL_POOL: ("sum", "mean", "max", "max||mean"),
    OpType.IDENTITY: ("skip",),
    OpType.COMMUNICATE: ("uplink",),
}


@dataclass(frozen=True)
class OpSpec:
    """One concrete operation in an architecture.

    Attributes
    ----------
    op:
        Operation type, one of :class:`OpType`.
    function:
        The operation's function choice — reducer name for Aggregate /
        GlobalPool, ``"knn"``/``"random"`` for Sample, output width (int) for
        Combine, ``"skip"`` for Identity, ``"uplink"`` for Communicate.
    k:
        Neighbourhood size for Sample operations.
    """

    op: str
    function: object = None
    k: int = 9

    def __post_init__(self) -> None:
        if self.op not in OpType.ALL:
            raise ValueError(f"unknown operation type {self.op!r}")

    @property
    def channels(self) -> Optional[int]:
        """Output width for Combine operations, else ``None``."""
        return int(self.function) if self.op == OpType.COMBINE else None

    def short_name(self) -> str:
        """Compact human-readable label, e.g. ``combine(32)`` or ``aggregate(max)``."""
        if self.op in (OpType.INPUT, OpType.CLASSIFIER):
            return self.op
        if self.op == OpType.SAMPLE:
            return f"sample({self.function},k={self.k})"
        if self.op == OpType.IDENTITY:
            return "identity"
        if self.op == OpType.COMMUNICATE:
            return "communicate"
        return f"{self.op}({self.function})"


@dataclass
class ExecState:
    """Mutable state threaded through the execution of an architecture.

    The batch-vector contract
    -------------------------
    ``batch`` assigns every row of ``x`` (every node) to one of the
    ``num_graphs`` graphs of a disjoint union, and **every operation reduces
    strictly within those boundaries**: ``Sample`` never builds an edge
    across graphs, ``Aggregate`` only scatters along the edge index,
    ``GlobalPool``/``Classifier`` reduce per ``batch`` segment, and the
    row-wise ops (``Combine``, ``Identity``, ``Communicate``) ignore it.
    This holds for *resumed* segments too — a state deserialized from the
    wire mid-architecture, including a multi-frame micro-batch collated by
    :func:`repro.core.executor.collate_arrays` — which is what makes batched
    edge execution numerically equivalent to per-frame execution.
    """

    x: nn.Tensor
    batch: np.ndarray
    num_graphs: int
    edge_index: Optional[np.ndarray] = None
    pos: Optional[np.ndarray] = None
    pooled: bool = False

    @property
    def num_nodes(self) -> int:
        return int(self.x.shape[0])

    @property
    def nbr(self) -> Optional[np.ndarray]:
        """``edge_index``'s ``(N, k)`` neighbour table, when it is one (see
        :func:`~repro.graph.knn.neighbour_table`); ``None`` otherwise."""
        if self.edge_index is None:
            return None
        return neighbour_table(self.edge_index, self.num_nodes)

    @property
    def feature_dim(self) -> int:
        return int(self.x.shape[1])


# ----------------------------------------------------------------------
# Executable operation modules
# ----------------------------------------------------------------------
class Operation(nn.Module):
    """Base class: applies one :class:`OpSpec` to an :class:`ExecState`."""

    def __init__(self, spec: OpSpec) -> None:
        super().__init__()
        self.spec = spec

    def forward(self, state: ExecState) -> ExecState:  # pragma: no cover - abstract
        raise NotImplementedError

    def output_dim(self, input_dim: int) -> int:
        """Feature dimensionality produced given ``input_dim`` inputs."""
        return input_dim


class SampleOp(Operation):
    """(Re)build the graph structure from current node features or positions."""

    def __init__(self, spec: OpSpec, seed: int = 0) -> None:
        super().__init__(spec)
        self._rng = np.random.default_rng(seed)

    def forward(self, state: ExecState) -> ExecState:
        if state.pooled:
            raise RuntimeError("cannot sample a graph after global pooling")
        reference = state.pos if state.pos is not None else state.x.data
        if self.spec.function == "knn":
            edge_index = knn_graph(state.x.data if state.pos is None else reference,
                                   self.spec.k, batch=state.batch)
        elif self.spec.function == "random":
            edge_index = random_graph(state.num_nodes, self.spec.k,
                                      rng=self._rng, batch=state.batch)
        else:
            raise ValueError(f"unknown sample function {self.spec.function!r}")
        state.edge_index = edge_index
        return state


class AggregateOp(Operation):
    """Message passing: aggregate neighbour features into each node.

    Uses the "difference + centre" message of DGCNN-style edge convolutions,
    i.e. the message from neighbour ``j`` to centre ``i`` is the concatenation
    ``[x_i, x_j - x_i]`` reduced with the configured reducer.  The feature
    dimension therefore doubles, matching the transfer-size growth after
    Aggregate that the paper's Fig. 2 highlights.
    """

    def forward(self, state: ExecState) -> ExecState:
        if state.edge_index is None or state.edge_index.size == 0:
            raise RuntimeError("aggregate requires an existing graph structure")
        if state.pooled:
            raise RuntimeError("cannot aggregate after global pooling")
        src, dst = state.edge_index[0], state.edge_index[1]
        x = state.x
        neighbours = x.gather_rows(src)
        centres = x.gather_rows(dst)
        messages = nn.concat([centres, neighbours - centres], axis=-1)
        state.x = nn.scatter(messages, dst, state.num_nodes,
                             reduce=str(self.spec.function))
        return state

    def output_dim(self, input_dim: int) -> int:
        return 2 * input_dim


class CombineOp(Operation):
    """Per-node feature transform (linear layer + ReLU) to ``channels`` outputs."""

    def __init__(self, spec: OpSpec, in_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(spec)
        if spec.channels is None or spec.channels <= 0:
            raise ValueError("Combine requires a positive channel count")
        self.linear = nn.Linear(in_dim, spec.channels, rng=rng)

    def forward(self, state: ExecState) -> ExecState:
        state.x = self.linear(state.x).relu()
        return state

    def output_dim(self, input_dim: int) -> int:
        return int(self.spec.channels)


class GlobalPoolOp(Operation):
    """Pool node features into one feature vector per graph."""

    def forward(self, state: ExecState) -> ExecState:
        if state.pooled:
            raise RuntimeError("graph is already pooled")
        state.x = nn.global_pool(state.x, state.batch, state.num_graphs,
                                 mode=str(self.spec.function))
        state.batch = np.arange(state.num_graphs, dtype=np.int64)
        state.edge_index = None
        state.pos = None
        state.pooled = True
        return state

    def output_dim(self, input_dim: int) -> int:
        return 2 * input_dim if self.spec.function == "max||mean" else input_dim


class IdentityOp(Operation):
    """No-op placeholder (the ``skip`` choice of the design space)."""

    def forward(self, state: ExecState) -> ExecState:
        return state


class CommunicateOp(Operation):
    """Device → edge hand-off marker.  Computationally an identity.

    The co-inference engine and the hardware simulator interpret this
    operation as "serialize the current intermediate state, compress it and
    send it across the wireless link"; during accuracy evaluation it does
    nothing to the features.
    """

    def forward(self, state: ExecState) -> ExecState:
        return state


class ClassifierOp(Operation):
    """Final MLP mapping pooled graph features to class logits."""

    def __init__(self, spec: OpSpec, in_dim: int, num_classes: int,
                 hidden_dim: int = 64,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(spec)
        self.mlp = nn.MLP([in_dim, hidden_dim, num_classes], rng=rng)
        self.num_classes = num_classes

    def forward(self, state: ExecState) -> ExecState:
        if not state.pooled:
            # Architectures are required to pool before classification, but a
            # defensive mean-pool keeps execution well-defined if not.
            state.x = nn.global_pool(state.x, state.batch, state.num_graphs,
                                     mode="mean")
            state.batch = np.arange(state.num_graphs, dtype=np.int64)
            state.pooled = True
        state.x = self.mlp(state.x)
        return state

    def output_dim(self, input_dim: int) -> int:
        return self.num_classes


def build_operation(spec: OpSpec, in_dim: int, num_classes: int = 0,
                    rng: Optional[np.random.Generator] = None,
                    seed: int = 0) -> Operation:
    """Instantiate the executable module for ``spec`` given its input width."""
    if spec.op == OpType.SAMPLE:
        return SampleOp(spec, seed=seed)
    if spec.op == OpType.AGGREGATE:
        return AggregateOp(spec)
    if spec.op == OpType.COMBINE:
        return CombineOp(spec, in_dim, rng=rng)
    if spec.op == OpType.GLOBAL_POOL:
        return GlobalPoolOp(spec)
    if spec.op == OpType.IDENTITY:
        return IdentityOp(spec)
    if spec.op == OpType.COMMUNICATE:
        return CommunicateOp(spec)
    if spec.op == OpType.CLASSIFIER:
        return ClassifierOp(spec, in_dim, num_classes, rng=rng)
    raise ValueError(f"cannot build operation for spec {spec!r}")
