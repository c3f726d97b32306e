"""Frozen configuration objects of the serving facade.

:class:`ServingConfig` composes the server-side configs into the single
value :func:`repro.serving.serve` takes; :class:`ClientConfig` travels with
each client.  The knob machinery (``knob(...)``, ``_Config``) and the five
configs the system layer consumes as-is — :class:`BatchingConfig`,
:class:`QosConfig`, :class:`ServerConfig`, :class:`ClientConfig`,
:class:`RetryPolicy` — are declared in :mod:`repro.system.knobs` and
re-exported here; this module adds the facade-only configs and the
generator of the reference tables of ``docs/serving.md``
(``python -m repro.serving.config`` prints them).
"""

from __future__ import annotations

import dataclasses
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Type

from ..core.executor import RUNTIMES
from ..runtime import PRECISIONS
from ..runtime.shard import SHARD_TRANSPORT_PIPE, SHARD_TRANSPORTS
from ..system.knobs import (_POSITIVE_MS, _POSITIVE_S, BatchingConfig,
                            ClientConfig, Knob, QosConfig, RetryPolicy,
                            ServerConfig, _Config, knob)


def _precision_policy(name: str, value: Any) -> Dict[str, str]:
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping of entry name -> "
                         f"precision, got {type(value).__name__}")
    return {entry: Knob(PRECISIONS, "").check(f"{name}[{entry!r}]", precision)
            for entry, precision in value.items()}


@dataclass(frozen=True)
class RuntimeConfig(_Config):
    """How serving callables execute a zoo entry's model."""

    # "eager" stays as the reference the ≤1e-9 plan contract compares
    # against (tests/test_runtime_plans.py); "auto"'s eager fallback is
    # unreachable for zoo-built models but shares that code.
    runtime: str = knob(
        "auto", RUNTIMES, '``"auto"`` compiles plans (eager only for what '
        'plans do not support), ``"compiled"`` requires plans, ``"eager"`` '
        "runs autograd under ``no_grad`` — float64 only")
    precision: Optional[str] = knob(
        None, PRECISIONS, "Default precision of every entry: the compiled "
        'compute **and** wire dtype (``"float32"`` halves frame bytes) or '
        '``"int8"`` (calibrated quantization, wire states stay float32); '
        "``None`` = float64")
    precision_policy: Dict[str, str] = knob(
        dict, _precision_policy, "Per-entry precision overrides by zoo entry "
        'name (``{"hot": "int8"}``), winning over ``precision``')

    def _validate(self) -> None:
        narrow = {self.precision,
                  *self.precision_policy.values()} - {None, "float64"}
        if self.runtime == "eager" and narrow:
            raise ValueError("the eager runtime computes in float64 only; use "
                             "runtime='compiled' (or 'auto') for "
                             f"{sorted(narrow)}")

    def precision_for(self, entry_name: Optional[str] = None) -> str:
        """Effective precision of one entry: policy → precision → float64."""
        return (self.precision_policy.get(entry_name) or self.precision
                or "float64")


@dataclass(frozen=True)
class ShardingConfig(_Config):
    """Process-parallel serving shards (``repro.serving.sharding``)."""

    num_shards: int = knob(
        1, int, "Worker processes executing engine calls (own plans + arenas "
        "each); 1 serves in process.  Size to cores minus one: the parent's "
        "socket/batcher threads need a core", min=1)
    transport: str = knob(
        SHARD_TRANSPORT_PIPE, SHARD_TRANSPORTS, '``"pipe"``: the raw wire '
        "framing over OS pipes, waits sleep in the kernel, a write deadline "
        'sheds before the first byte; ``"shm"`` (opt-in): shared-memory '
        "rings that spin-then-sleep-poll (store ordering assumes x86 TSO)")
    ring_bytes: int = knob(
        4 * 1024 * 1024, int, 'Capacity of each request/response ring (4 MiB)'
        ', ``transport="shm"`` only: a request must fit ``max_batch_size`` × '
        "the largest raw-framed frame",
        min=64 * 1024, unit="B")
    request_timeout_s: float = knob(
        60.0, float, "Round-trip bound before a wedged shard is treated as "
        "unreachable (crashes are detected immediately)", **_POSITIVE_S)
    start_timeout_s: float = knob(
        60.0, float, "Wait for every worker to build its models/plans and "
        "report ready", **_POSITIVE_S)
    publish_timeout_s: float = knob(
        60.0, float, "Wait per shard for a snapshot-replication ack before "
        "the shard is treated as failed", **_POSITIVE_S)

    @property
    def enabled(self) -> bool:
        return self.num_shards > 1


#: Routing policies :class:`ClusterConfig.routing` accepts.  They live here
#: (not in :mod:`repro.serving.cluster`) so config validation never has to
#: import the router.
ROUTING_LEAST_LOADED = "least_loaded"
ROUTING_HASH = "hash"
ROUTING_POLICIES = (ROUTING_LEAST_LOADED, ROUTING_HASH)


def _nodes(name: str, value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        raise ValueError(f"{name} must be a sequence of 'host:port' "
                         "strings, not a single string")
    nodes = tuple(value)
    for address in nodes:
        host, _, port = (address.rpartition(":")
                         if isinstance(address, str) else ("", "", ""))
        if not host:
            raise ValueError(f"node address {address!r} must look like "
                             "'host:port'")
        if not port.isdigit() or not 0 < int(port) <= 65535:
            raise ValueError(f"node address {address!r} has an invalid "
                             "port (expected 1-65535)")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"duplicate node address in {list(nodes)}")
    return nodes


@dataclass(frozen=True)
class ClusterConfig(_Config):
    """Multi-node cluster tier over TCP (``repro.serving.cluster``)."""

    nodes: Tuple[str, ...] = knob(
        (), _nodes, 'Replica node addresses, each ``"host:port"``; empty '
        "disables the tier.  Order fixes node ids (stats rows, hash seeds)")
    routing: str = knob(
        ROUTING_LEAST_LOADED, ROUTING_POLICIES, '``"least_loaded"``: fewest '
        'in-flight requests, round-robin ties; ``"hash"``: a consistent hash '
        "ring pins each zoo entry to one node (its plans and arenas stay hot)")
    heartbeat_ms: float = knob(
        100.0, float, "Interval between ping probes to a node", **_POSITIVE_MS)
    heartbeat_misses: int = knob(
        3, int, "Consecutive unanswered probes before a node is declared "
        "dead (in-flight frames fail fast, new traffic reroutes)", min=1)
    connect_timeout_s: float = knob(
        30.0, float, "Bound on dialing + bootstrapping one node (startup and "
        "redials)", **_POSITIVE_S)
    request_timeout_s: float = knob(
        60.0, float, "Round-trip bound before a wedged node is treated as "
        "unreachable (dead connections are detected at once)", **_POSITIVE_S)
    publish_timeout_s: float = knob(
        60.0, float, "Wait per node for a snapshot-replication ack before "
        "the node is treated as failed", **_POSITIVE_S)
    # Not an alias of the supervisor, which books every failed redial as a
    # death (Supervisor._scan): a *partitioned* node reaches
    # quarantine_deaths after its death plus two failed redials (≈0.3 s at
    # the default backoff) and is never dialed again, while this knob
    # redials for as long as the partition lasts.  Merging the two is a
    # recovery-policy change, not a cleanup (docs/serving.md, cluster tier).
    reconnect_s: Optional[float] = knob(
        None, float, "Redial period for dead nodes, for as long as they stay "
        "dead (a healed node re-syncs its snapshot and rejoins); ``None`` "
        "never redials — the supervisor alone quarantines a node that stays "
        "unreachable", **_POSITIVE_S)

    @property
    def enabled(self) -> bool:
        return bool(self.nodes)


@dataclass(frozen=True)
class SupervisorConfig(_Config):
    """Self-healing respawn of dead shard workers and owned node replicas."""

    enabled: bool = knob(
        False, bool, "Run the supervisor thread (``repro.serving.supervisor``)"
        "; off, a dead worker is routed around but never respawned")
    poll_interval_s: float = knob(
        0.05, float, "How often the monitor scans the workers", **_POSITIVE_S)
    backoff_initial_s: float = knob(
        0.1, float, "Delay before the first respawn of a freshly dead worker",
        **_POSITIVE_S)
    backoff_multiplier: float = knob(
        2.0, float, "Exponential growth of the respawn delay on consecutive "
        "deaths of one slot", min=1.0)
    backoff_max_s: float = knob(
        5.0, float, "Upper bound on any single respawn delay", **_POSITIVE_S)
    backoff_jitter: float = knob(
        0.1, float, "Fraction of the delay randomized symmetrically (0.1 = "
        "±10%) against lockstep respawns", min=0.0, max=1.0)
    quarantine_deaths: int = knob(
        3, int, "Deaths (failed respawns included) within the window that "
        "quarantine a slot — never respawned again, reason in stats", min=1)
    quarantine_window_s: float = knob(
        30.0, float, "Width of the crash-loop window", **_POSITIVE_S)
    respawn_timeout_s: float = knob(
        60.0, float, "Bound on one respawn: process start + snapshot replay "
        "+ ready ack", **_POSITIVE_S)

    def backoff_s(self, consecutive_deaths: int, *,
                  rand=random.random) -> float:
        """Jittered exponential respawn delay after ``consecutive_deaths``."""
        exponent = max(consecutive_deaths - 1, 0)
        base = min(self.backoff_initial_s * self.backoff_multiplier ** exponent,
                   self.backoff_max_s)
        if self.backoff_jitter:
            base *= 1.0 + self.backoff_jitter * (2.0 * rand() - 1.0)
        return max(base, 0.0)


@dataclass(frozen=True)
class ServingConfig(_Config):
    """Everything a server-side deployment needs, in one value."""

    runtime: RuntimeConfig = knob(RuntimeConfig, RuntimeConfig)
    batching: BatchingConfig = knob(BatchingConfig, BatchingConfig)
    server: ServerConfig = knob(ServerConfig, ServerConfig)
    sharding: ShardingConfig = knob(ShardingConfig, ShardingConfig)
    qos: QosConfig = knob(QosConfig, QosConfig)
    cluster: ClusterConfig = knob(ClusterConfig, ClusterConfig)
    supervisor: SupervisorConfig = knob(SupervisorConfig, SupervisorConfig)

    def _validate(self) -> None:
        if self.sharding.enabled and self.cluster.enabled:
            raise ValueError(
                "sharding and cluster tiers are mutually exclusive: pick "
                "in-box worker processes (sharding.num_shards > 1) or a "
                "node fleet (cluster.nodes), not both — a node can itself "
                "be a machine's only tenant")


# The reference tables of docs/serving.md, generated from the declarations.
REFERENCE_BEGIN = "<!-- knobs:begin (generated block: do not edit) -->"
REFERENCE_END = "<!-- knobs:end -->"


def config_classes(roots=(ServingConfig, ClientConfig)
                   ) -> Iterator[Type[_Config]]:
    """``roots`` and every config class nested under them, parents first."""
    for root in roots:
        nested = [f.metadata["knob"].nested for f in dataclasses.fields(root)]
        yield from (root, *config_classes(filter(None, nested)))


def reference_tables() -> str:
    """A markdown table per config class, one row per knob."""
    blocks = []
    for cls in config_classes():
        rows = [f"**`{cls.__name__}`** — {cls.__doc__.splitlines()[0]}", "",
                "| field | type | default | valid | effect |",
                "| --- | --- | --- | --- | --- |"]
        for f in dataclasses.fields(cls):
            spec, made = f.metadata["knob"], callable(f.default_factory)
            default = f.default_factory() if made else f.default
            shown = f"{spec.kind.__name__}()" if spec.nested else repr(default)
            rows.append(f"| `{f.name}` | `{f.type}` | `{shown}` | "
                        f"{spec.valid()} | {spec.doc} |")
        blocks.append("\n".join(rows).replace("``", "`"))
    return "\n\n".join(blocks)


def splice_reference(text: str) -> str:
    """``text`` with the block between the two markers regenerated."""
    head, begin, rest = text.partition(REFERENCE_BEGIN)
    _, end, tail = rest.partition(REFERENCE_END)
    if not (begin and end):
        raise ValueError("knob reference markers not found")
    return f"{head}{begin}\n\n{reference_tables()}\n\n{end}{tail}"


def main(argv: Optional[list] = None) -> int:
    """Print the tables, or with ``--write FILE`` regenerate them in FILE."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--write":
        path = Path(argv[1])
        path.write_text(splice_reference(path.read_text("utf-8")), "utf-8")
    elif argv:
        print("usage: python -m repro.serving.config [--write FILE]",
              file=sys.stderr)
        return 2
    else:
        print(reference_tables())
    return 0


if __name__ == "__main__":
    sys.exit(main())
