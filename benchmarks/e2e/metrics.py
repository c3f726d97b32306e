"""The one declaration of every metric the co-inference benchmark reports.

Each quantity is declared exactly once — name, unit, direction, valid range
and (for end-to-end metrics) regression bound — in the attribute-table idiom
of SNIPPETS.md snippet 3 (``_DacConfigAttrs(min, max, unit, ndecimals)``).
Everything else derives from the two tables below: ``BENCHMARK.json``'s metric
lists (:func:`manifest`), the range check every value passes before it is
written (:func:`checked`), ``compare.py``'s verdicts and the README tables.

Names use only letters, digits, ``_``, ``.`` and ``-``; a per-layer name
starts with the module it measures (``system.messages.request_bytes``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

LOWER, HIGHER = "lower", "higher"
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    """One declared quantity.

    ``bound`` is the share of the parent's median by which an end-to-end
    metric may worsen before a change counts as a regression (``None`` for
    per-layer metrics, which explain a change but never gate it).  ``floor``
    is an absolute slack in the metric's own unit below which ``compare.py``
    calls a difference ``same`` whatever the ratio — the 0.1 s of ``setup_s``,
    whose in-process value is a few tens of milliseconds.
    """

    name: str
    unit: str
    better: str
    lo: float
    hi: float
    moves: str
    bound: Optional[float] = None
    floor: float = 0.0

    def __post_init__(self) -> None:
        if not _NAME.match(self.name):
            raise ValueError(f"bad metric name {self.name!r}")
        if not _UNIT.match(self.unit):
            raise ValueError(f"bad unit {self.unit!r} for {self.name}")
        if self.better not in (LOWER, HIGHER):
            raise ValueError(f"bad direction {self.better!r} for {self.name}")
        if not self.lo < self.hi:
            raise ValueError(f"empty range for {self.name}")
        if self.bound is not None and not 0.0 < self.bound <= 0.25:
            raise ValueError(f"bound of {self.name} must be in (0, 0.25]")


_MS = dict(unit="ms", better=LOWER, lo=0.0, hi=1e5)
_COUNT_DOWN = dict(unit="count", better=LOWER, lo=0.0, hi=1e9)

# Positive lower limits: a relative bound means nothing against a zero, so an
# end-to-end metric that reads 0 is a broken run, not a very good one.  That
# is also why the issue's ``failed_share`` is gated as ``success_share``.
#
# The time metrics carry the contract's widest bound, 25 %.  The issue asked
# for 8-10 %; on the shared 2-core boxes this runs on, whole runs of identical
# code differ by 10-18 % (README, "How steady the numbers are"), and a bound
# narrower than the spread would reject the parent against itself.
END_TO_END: Tuple[Metric, ...] = (
    Metric("fps", "1/s", HIGHER, 1e-3, 1e6,
           "correct frames completed / duration of the whole measured window",
           bound=0.25),
    Metric("latency_p50_ms", "ms", LOWER, 1e-3, 1e5,
           "median FrameResult.latency_s (frame enters device_fn -> reply "
           "parsed) of the least disturbed one-second slice", bound=0.25),
    Metric("latency_p95_ms", "ms", LOWER, 1e-3, 1e5,
           "95th percentile of the same latency over every frame of the "
           "whole window (p99 did not repeat)", bound=0.25),
    Metric("success_share", "share", HIGHER, 1e-9, 1.0,
           "1 - failed_share: frames answered correctly / frames attempted "
           "over the whole window", bound=0.01),
    Metric("uplink_bytes_per_frame", "B", LOWER, 1.0, 1e9,
           "PipelineStats.bytes_sent / frames over one census cycle of the "
           "pool (fixed frame ids, so it repeats exactly for a seed)",
           bound=0.005),
    Metric("device_mj_per_frame", "mJ", LOWER, 1e-6, 1e6,
           "modelled: estimate_device_energy(JETSON_TX2, LINK_40MBPS) from "
           "host-timed device_fn, latency_p50_ms and the uplink bytes",
           bound=0.25),
    Metric("peak_rss_mb", "MB", LOWER, 1.0, 1e6,
           "peak RSS (VmHWM) of the workload process plus its live children",
           bound=0.10),
    Metric("setup_s", "s", LOWER, 1e-4, 1e3,
           "lower quartile of 5-9 cold serve() -> first verified reply cycles",
           bound=0.25, floor=0.1),
)

PER_LAYER: Tuple[Metric, ...] = (
    # core.executor — the engine callables the server and the client run.
    Metric("core.executor.device_fn_ms", moves="latency_p50_ms, "
           "device_mj_per_frame on paper_split", **_MS),
    Metric("core.executor.edge_fn_ms", moves="latency_p50_ms on paper_edge",
           **_MS),
    Metric("core.executor.batch_fn_ms_per_frame",
           moves="fps on small_batched (8-frame batch)", **_MS),
    Metric("core.executor.collate_ms", moves="fps on small_batched "
           "(8-frame batch)", **_MS),
    Metric("core.executor.split_ms", moves="fps on small_batched "
           "(8-frame batch)", **_MS),
    # runtime.plan — harness-compiled plan, observer timestamps per step type.
    Metric("runtime.plan.sample_ms", moves="latency_p50_ms on paper_edge",
           **_MS),
    Metric("runtime.plan.aggregate_ms", moves="latency_p50_ms on paper_edge",
           **_MS),
    Metric("runtime.plan.linear_ms", moves="latency_p50_ms on paper_edge",
           **_MS),
    Metric("runtime.plan.pool_ms", moves="latency_p50_ms on paper_edge",
           **_MS),
    Metric("runtime.plan.batch8_sample_ms_per_frame",
           moves="fps on small_batched", **_MS),
    Metric("runtime.plan.batch8_aggregate_ms_per_frame",
           moves="fps on small_batched", **_MS),
    Metric("runtime.plan.batch8_linear_ms_per_frame",
           moves="fps on small_batched", **_MS),
    Metric("runtime.plan.batch8_pool_ms_per_frame",
           moves="fps on small_batched", **_MS),
    Metric("runtime.plan.compile_ms", moves="setup_s", **_MS),
    Metric("runtime.plan.arena_mb", "MB", LOWER, 0.0, 1e6,
           moves="peak_rss_mb"),
    # runtime.kernels — the dense kNN, called directly.
    Metric("runtime.kernels.knn_ms", moves="latency_p50_ms on paper_edge "
           "(edge side) and paper_split (device side); none on small_*",
           **_MS),
    Metric("runtime.kernels.knn_bytes", "B", LOWER, 0.0, 1e12,
           moves="computed as G*N*N*8 (the float64 distance matrix), not "
           "measured"),
    # system.messages — the workload's real payloads in its own framing.
    Metric("system.messages.request_serialize_ms",
           moves="latency_p50_ms, device_mj_per_frame on paper_split", **_MS),
    Metric("system.messages.request_deserialize_ms",
           moves="latency_p50_ms on paper_split", **_MS),
    Metric("system.messages.reply_serialize_ms",
           moves="fps on small_batched, marginally", **_MS),
    Metric("system.messages.reply_deserialize_ms",
           moves="fps on small_batched, marginally", **_MS),
    Metric("system.messages.request_bytes", "B", LOWER, 0.0, 1e9,
           moves="uplink_bytes_per_frame, device_mj_per_frame on "
           "paper_split"),
    Metric("system.messages.reply_bytes", "B", LOWER, 0.0, 1e9,
           moves="none end to end (downlink is not modelled)"),
    # system.transport — an EdgeServer with an identity edge_fn.
    Metric("system.transport.null_rtt_ms",
           moves="latency_p50_ms on small_sharded", **_MS),
    Metric("system.transport.pipelined_null_fps", "1/s", HIGHER, 0.0, 1e7,
           moves="fps, latency_p50_ms on small_batched"),
    # system.scheduler — direct admit+release, and the live queue delays.
    Metric("system.scheduler.admit_release_us", "us", LOWER, 0.0, 1e6,
           moves="latency_p95_ms on small_batched"),
    Metric("system.scheduler.queue_delay_p50_ms",
           moves="latency_p95_ms on small_batched", **_MS),
    Metric("system.scheduler.queue_delay_p99_ms",
           moves="latency_p95_ms on small_batched", **_MS),
    Metric("system.scheduler.frames_shed",
           moves="success_share (0 under two closed-loop clients)",
           **_COUNT_DOWN),
    # system.engine — app.stats() diffed across the live window.
    Metric("system.engine.mean_batch_size", "frames", HIGHER, 0.0, 1e4,
           moves="fps on small_batched"),
    Metric("system.engine.batches_dispatched", "count", HIGHER, 0.0, 1e9,
           moves="fps on small_batched"),
    Metric("system.engine.mean_queue_delay_ms",
           moves="latency_p50_ms on small_batched", **_MS),
    Metric("system.engine.mean_service_ms",
           moves="fps, latency_p50_ms on small_batched", **_MS),
    Metric("system.engine.batch_fallback_frames",
           moves="fps on small_batched", **_COUNT_DOWN),
    Metric("system.engine.queue_depth_peak", moves="latency_p95_ms on "
           "small_batched", **_COUNT_DOWN),
    Metric("system.engine.server_errors", moves="success_share",
           **_COUNT_DOWN),
    Metric("system.engine.client_frames_retried",
           moves="latency_p95_ms on small_sharded", **_COUNT_DOWN),
    # serving — publish, worker spawn and the worker hop.
    Metric("serving.repository.publish_ms", moves="setup_s (all)", **_MS),
    Metric("serving.sharding.spawn_s", "s", LOWER, 0.0, 1e3,
           moves="setup_s on small_sharded"),
    Metric("serving.sharding.hop_ms", moves="latency_p50_ms, fps on "
           "small_sharded only", **_MS),
    Metric("serving.sharding.worker_restarts",
           moves="latency_p95_ms on small_sharded", **_COUNT_DOWN),
    Metric("serving.sharding.shard_frame_imbalance", "share", LOWER, 0.0,
           1e3, moves="fps on small_sharded"),
    Metric("runtime.shard.ring_rtt_us", "us", LOWER, 0.0, 1e8,
           moves="latency_p50_ms on small_sharded only"),
    # trace — what the serial walk accounts for, and what it cannot.
    Metric("trace.serial_path_ms", moves="sum of one frame's serial spans",
           **_MS),
    Metric("trace.unattributed_ms", "ms", LOWER, -1e5, 1e5,
           moves="1-client window-1 latency_p50_ms - serial_path_ms: thread "
           "hand-offs, sockets, queues"),
    Metric("trace.overhead_pct", "%", LOWER, -100.0, 100.0,
           moves="traced vs untraced fps of the live workload"),
)

if len({m.name for m in END_TO_END + PER_LAYER}) != len(END_TO_END + PER_LAYER):
    raise ValueError("a metric is declared twice")


def checked(values: Mapping[str, float],
            declared: Tuple[Metric, ...]) -> Dict[str, Dict]:
    """``{name: {"value", "unit"}}`` for exactly the ``declared`` metrics.

    The write-time gate: a missing or undeclared name, a NaN or an
    out-of-range value (a negative time, a zero rate) raises ``ValueError``
    instead of reaching a result file.
    """
    names = {m.name for m in declared}
    if set(values) != names:
        raise ValueError(
            f"metric set mismatch: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}")
    out = {}
    for metric in declared:
        value = float(values[metric.name])
        if math.isnan(value) or not metric.lo <= value <= metric.hi:
            raise ValueError(
                f"{metric.name} = {value!r} {metric.unit} is outside its "
                f"declared range [{metric.lo}, {metric.hi}]")
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out


def manifest(workloads, run_seconds: int) -> Dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def manifest_text(workloads, run_seconds: int) -> str:
    return json.dumps(manifest(workloads, run_seconds), indent=2) + "\n"
