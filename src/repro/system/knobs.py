"""Knob declarations, and the configs the system layer consumes.

Every knob the serving stack exposes is **one dataclass field carrying its
own declaration** — ``name: T = knob(default, kind, "effect", min=...,
unit=...)`` — from which validation, canonicalisation, the ``to_dict`` /
``from_dict`` round trip and the reference tables of ``docs/serving.md``
are derived (``python -m repro.serving.config`` prints the tables;
``tools/check_docs.py`` fails when the document drifts from them).
Construction never yields a half-usable config: ``_Config.__post_init__``
checks every field, and rules that span knobs live in per-class
``_validate()`` hooks.

The five configs below are the ones :class:`~repro.system.engine.EdgeServer`,
:class:`~repro.system.engine.MicroBatcher`,
:class:`~repro.system.scheduler.Scheduler` and
:class:`~repro.system.engine.DeviceClient` take as-is, so a direct caller of
the system layer meets exactly the checks a ``ServingConfig`` does.
:mod:`repro.serving.config` composes them with the facade-only configs.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Type

import numpy as np

from .messages import WIRE_FORMAT_ZLIB, WIRE_FORMATS
from .transport import FRONTEND_THREADED, FRONTENDS

#: Scalar kinds: the types accepted for each and how errors name them.
_SCALARS = {bool: ((bool, np.bool_), "a bool"),
            int: ((int, np.integer), "an integer"),
            float: ((int, float, np.integer, np.floating), "a number"),
            str: (str, "a non-empty string")}


@dataclass(frozen=True)
class Knob:
    """One knob's declaration: all that validation and the docs need.

    ``kind`` is ``int`` / ``float`` / ``bool`` / ``str``, ``"dtype"`` (a
    floating numpy dtype, stored by name so configs stay JSON), a tuple of
    allowed strings, a nested :class:`_Config` class (plain mappings are
    accepted, handy for file-borne configs), or a ``callable(name, value)``
    returning the canonical value of a structured field.
    """

    kind: Any
    doc: str
    min: Optional[float] = None
    max: Optional[float] = None
    exclusive: bool = False  #: ``min`` itself is out of range
    optional: bool = False   #: ``None`` is a valid value
    unit: str = ""

    @property
    def nested(self) -> Optional[Type["_Config"]]:
        """The config class this knob nests, if it nests one."""
        kind = self.kind
        is_config = isinstance(kind, type) and issubclass(kind, _Config)
        return kind if is_config else None

    def check(self, name: str, value: Any) -> Any:
        """Validate ``value`` for the knob called ``name``; canonical form."""
        kind = self.kind
        if value is None:
            if not self.optional:
                raise ValueError(f"{name} may not be None")
        elif kind in _SCALARS:
            accepted, noun = _SCALARS[kind]
            # Never coerce across kinds: bool("no") is True and True == 1.
            if (not isinstance(value, accepted) or (kind is str and not value)
                    or (kind is not bool and isinstance(value, bool))):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            value = kind(value)
            if kind in (int, float):
                self._check_range(name, value)
        elif kind == "dtype":
            try:
                value = np.dtype(value)
            except Exception:
                raise ValueError(f"{name} {value!r} is not a numpy dtype")
            if not np.issubdtype(value, np.floating):
                raise ValueError(f"{name} must be a floating dtype, got "
                                 f"{value}")
            value = value.name
        elif isinstance(kind, tuple):
            if value not in kind:
                label = name.replace("_", " ")
                raise ValueError(f"unknown {label} {value!r}; {name} must be "
                                 f"one of {kind}")
        elif self.nested:
            if isinstance(value, Mapping):
                value = kind.from_dict(value)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__} (or a "
                                 f"mapping), got {type(value).__name__}")
        else:
            value = kind(name, value)
        return value

    def _check_range(self, name: str, value: float) -> None:
        if not math.isfinite(value):
            # NaN compares False against everything, so without this check
            # it would sail through the bounds below and surface as a
            # confusing socket/threading failure far from the config that
            # caused it.
            raise ValueError(f"{name} must be finite, got {value!r}")
        if self.min is not None and (value < self.min or (
                self.exclusive and value == self.min)):
            bound = "greater than" if self.exclusive else "at least"
            raise ValueError(f"{name} must be {bound} {self.min}, got {value}")
        if self.max is not None and value > self.max:
            raise ValueError(f"{name} must be at most {self.max}, got {value}")

    def valid(self) -> str:
        """The accepted values, as the docs tables print them."""
        if isinstance(self.kind, tuple):
            return " / ".join(f'`"{choice}"`' for choice in self.kind)
        span = ("" if self.min is None else
                f"{self.min:g} – {self.max:g}" if self.max is not None else
                f"{'>' if self.exclusive else '≥'} {self.min:g}")
        return f"{span} {self.unit}".strip()


def knob(default: Any, kind: Any, doc: str = "", **attrs: Any) -> Any:
    """Declare one config field.  A callable ``default`` is a factory, a
    ``None`` default makes the knob optional, and a nested config's ``doc``
    defaults to the summary line of its class."""
    how = "default_factory" if callable(default) else "default"
    spec = Knob(kind, doc or kind.__doc__.splitlines()[0],
                optional=default is None, **attrs)
    return field(metadata={"knob": spec}, **{how: default})


#: The two commonest ranges: a strictly positive duration in s / in ms.
_POSITIVE_S = dict(min=0.0, exclusive=True, unit="s")
_POSITIVE_MS = dict(min=0.0, exclusive=True, unit="ms")


class _Config:
    """Validation and ``to_dict`` / ``from_dict`` of the frozen configs."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = f.metadata["knob"].check(f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        self._validate()

    def _validate(self) -> None:
        """Hook for rules that span knobs (fields are canonical here)."""

    def to_dict(self) -> Dict:
        """Plain-JSON form (nested configs become nested dicts)."""
        payload: Dict = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _Config):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "_Config":
        """Rebuild a config from :meth:`to_dict` output; unknown keys raise —
        a misspelled knob must fail loudly, not silently run on defaults."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"{cls.__name__}.from_dict expects a mapping, "
                             f"got {type(payload).__name__}")
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = set(payload) - set(names)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s) "
                             f"{sorted(unknown)} (expected a subset of "
                             f"{names})")
        return cls(**payload)


def check_priority_map(name: str, value: Any) -> Dict[str, int]:
    """Validate a ``priority_map`` (class name -> level >= 0); a plain dict."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping of class name -> level, "
                         f"got {type(value).__name__}")
    level = Knob(int, "", min=0)
    for key in value:
        if not isinstance(key, str):
            raise ValueError(f"{name} keys must be strings, got {key!r}")
    return {key: level.check(f"{name}[{key!r}]", value[key]) for key in value}


@dataclass(frozen=True)
class BatchingConfig(_Config):
    """Cross-client micro-batching of the edge server."""

    max_batch_size: int = knob(
        1, int, "Upper bound on frames per batched engine call; 1 disables "
        "micro-batching (no batcher threads, exact per-frame serving)", min=1)
    max_wait_ms: float = knob(
        2.0, float, "Longest the first frame of a batch waits for company; "
        "bounds the latency batching adds", min=0.0, unit="ms")


@dataclass(frozen=True)
class QosConfig(_Config):
    """Admission control of the edge server (load shedding, deadlines)."""

    max_queue_depth: Optional[int] = knob(
        None, int, "Cap on admitted-but-unexecuted frames (batcher queues + "
        'direct path); beyond it new frames are shed with a ``"rejected"`` '
        "reply carrying ``retry_after_ms``; ``None`` = unbounded", min=1)
    default_deadline_ms: Optional[float] = knob(
        None, float, "Freshness budget stamped on frames without their own "
        '``meta["deadline_ms"]`` (expired frames are never executed); '
        "``None`` = no implicit deadline", **_POSITIVE_MS)
    retry_after_ms: float = knob(
        50.0, float, "Back-off hint carried by every rejection reply",
        min=0.0, unit="ms")
    priority_map: Dict[str, int] = knob(
        dict, check_priority_map, 'Maps ``meta["priority"]`` names to levels '
        "(0 = highest; each level halves the queue bound it is admitted under)")
    default_priority: int = knob(
        0, int, "Level for frames without a priority tag", min=0)
    fairness: bool = knob(
        True, bool, "With a bounded queue, cap each client at "
        "``max_queue_depth // active_clients`` slots so a firehose client "
        "cannot starve a trickle client")
    fairness_window_s: float = knob(
        1.0, float, "How long a client counts as active after its last frame",
        **_POSITIVE_S)


@dataclass(frozen=True)
class RetryPolicy(_Config):
    """Client-side resilience: bounded, jittered retry of failed frames.

    Re-submission is safe because frame execution is pure: an edge callable
    maps input arrays to output arrays with no server-side state mutation,
    so running a frame twice can only cost time, never correctness (pinned
    by ``tests/test_serving_retry.py``).  Retries never outlive the
    client's ``deadline_ms``: a retry whose delay would land past it is not
    attempted and the original error surfaces instead.
    """

    max_retries: int = knob(
        0, int, "Re-submissions per frame beyond the first attempt; 0 "
        "disables retries (every failure surfaces immediately)", min=0)
    backoff_ms: float = knob(
        25.0, float, "Base delay before the first retry (the server's "
        "``retry_after_ms`` hint is a floor)", min=0.0, unit="ms")
    backoff_multiplier: float = knob(
        2.0, float, "Exponential growth of the delay between retries", min=1.0)
    max_backoff_ms: float = knob(
        2000.0, float, "Upper bound on any single retry delay",
        min=0.0, unit="ms")
    jitter: float = knob(
        0.1, float, "Fraction of the delay randomized symmetrically (0.1 = "
        "±10%) against lockstep retries", min=0.0, max=1.0)
    retry_connection_errors: bool = knob(
        True, bool, "Also re-submit frames failed by a crashed shard/node "
        "(``retryable`` errors), not just admission-control rejections")

    @property
    def enabled(self) -> bool:
        return self.max_retries > 0

    def delay_ms(self, attempt: int, *, floor_ms: float = 0.0,
                 rand=random.random) -> float:
        """Jittered exponential delay before retry ``attempt`` (1-based),
        never below ``floor_ms`` — the server's ``retry_after_ms`` hint
        (jitter applies on top of whichever is larger)."""
        base = min(self.backoff_ms * self.backoff_multiplier ** (attempt - 1),
                   self.max_backoff_ms)
        base = max(base, floor_ms)
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rand() - 1.0)
        return max(base, 0.0)


@dataclass(frozen=True)
class ServerConfig(_Config):
    """Socket, worker-pool and frontend knobs of the edge server."""

    host: str = knob("127.0.0.1", str, "Bind address")
    port: int = knob(0, int, "Bind port (0 = ephemeral)", min=0, max=65535)
    max_workers: int = knob(
        8, int, "Threaded frontend: concurrent connections (excess waits in "
        "the listen backlog); async frontend: concurrent engine calls (the "
        "compute pool width)", min=1)
    backlog: int = knob(32, int, "Kernel listen backlog", min=1)
    # Both stay, measured (benchmarks/e2e, 3 alternating pairs, default
    # flipped to async): paper_edge fps -14 %, p95 +31 %, peak RSS +35 % (8
    # pool threads, an arena each); small_sharded fps -20 %.  Only "async"
    # holds the 1000-idle-connection guarantee slot-before-accept cannot.
    frontend: str = knob(
        FRONTEND_THREADED, FRONTENDS, '``"threaded"`` (a handler thread per '
        'connection; fastest on every benchmark workload) or ``"async"`` (one '
        "asyncio loop for all connections; only for more mostly-idle "
        "connections than ``max_workers``); same serving semantics")
    session_log_limit: int = knob(
        1024, int, "Closed sessions kept individually inspectable; older "
        "ones fold into the aggregate statistics", min=1)


def _priority_tag(name: str, value: Any) -> Any:
    if isinstance(value, str):
        return value
    return Knob(int, "", min=0).check(name, value)


@dataclass(frozen=True)
class ClientConfig(_Config):
    """Wire framing/dtype, timeouts and QoS tags of a serving client."""

    wire_format: str = knob(
        WIRE_FORMAT_ZLIB, WIRE_FORMATS, "Framing of outgoing messages; "
        '``"raw"`` is zero-copy (no compression CPU, larger frames); the '
        "server mirrors it per request")
    wire_dtype: Optional[str] = knob(
        None, "dtype", 'Down-casts outgoing float arrays (``"float32"``: half '
        "the frame bytes, ~1e-3 logit error); a no-op if already that dtype")
    connect_timeout_s: float = knob(
        30.0, float, "Bounds connection establishment only", **_POSITIVE_S)
    handshake_timeout_s: float = knob(
        10.0, float, "Bounds the wait for the hello ack", **_POSITIVE_S)
    pipeline_timeout_s: float = knob(
        60.0, float, "Bounds each ``run()``'s wait for results", **_POSITIVE_S)
    deadline_ms: Optional[float] = knob(
        None, float, "Freshness budget stamped on every frame; once it lapses "
        "the server sheds the frame instead of executing it", **_POSITIVE_MS)
    priority: Optional[Any] = knob(
        None, _priority_tag, "Priority tag of every frame: an integer level "
        "(0 = highest) or a name from the server's ``priority_map``")
    on_rejected: str = knob(
        "raise", ("raise", "drop"), '``"raise"`` surfaces a shed frame as a '
        "typed ``RequestRejectedError`` (``reason``, ``retry_after_ms``); "
        '``"drop"`` counts it in ``PipelineStats.frames_rejected``')
    retry: RetryPolicy = knob(
        RetryPolicy, RetryPolicy, "Bounded re-submission of rejected / "
        'crash-failed frames; applies only under ``on_rejected="raise"``')
