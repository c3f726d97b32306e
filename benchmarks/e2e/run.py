#!/usr/bin/env python3
"""The co-inference benchmark: one command, four workloads, two passes.

    python benchmarks/e2e/run.py                      # all workloads, end to end
    python benchmarks/e2e/run.py --trace              # ... plus the per-layer pass
    python benchmarks/e2e/run.py --workload paper_split --seed 3 --trace 1
    python benchmarks/e2e/run.py --quick              # 1 s + 3 s smoke windows
    python benchmarks/e2e/run.py --self-check         # suite twice -> compare.py

Every workload is measured in its own fresh subprocess of this same file
(``--in-process``), so no workload inherits another's arenas, threads or RSS,
and the process that started it does not return before every process the
workload left behind - shard workers, ``multiprocessing``'s resource tracker -
has ended and been waited for.  A workload prints every metric by name and
unit, writes
``results/<workload>.json`` (``--trace 0``) or ``results/trace_<workload>.json``
(``--trace 1``: per-layer metrics and the span list), and ends its standard
output with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics are measured with tracing off; the traced pass is separate
and reports its own cost as ``trace.overhead_pct``.  The program under test is
always this checkout's ``src/`` (never an installed copy) and is driven only
through its public entry points.  See README.md for the metric tables.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SCHEMA = "repro.e2e/1"
#: Cold starts per run: at least five (a sharded start takes 0.4 s and the
#: first of a process up to twice that), more (up to nine) while they fit in
#: a second - an in-process start takes tens of milliseconds.
SETUP_CYCLES_MIN, SETUP_CYCLES_MAX, SETUP_BUDGET_S = 5, 9, 1.0
#: A workload subprocess that has not ended this long after its window is
#: killed and counted as failed; a healthy one needs ten seconds on top of it.
#: With the manifest's 20 s window that is inside the driver's 180 s per run.
SUBPROCESS_GRACE_S = 150
#: What a workload process leaves behind (the resource tracker, which unlinks
#: leaked shared memory once its owner is gone) may take this long to end by
#: itself before it is killed.
ORPHAN_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>

# Shard workers are spawned, and spawn re-imports this file as the main
# module: the path fix lives at import level, everything else under main().
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.stderr.write(f"benchmarks/e2e: no program to measure - {SRC} has no "
                     "repro package (run from a full checkout)\n")
    sys.exit(2)
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def envelope() -> dict:
    """What a result may be compared across: same box, same interpreter."""
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def own_and_children():
    """``(pid, /proc/<pid>/status fields)`` of this process and its children."""
    own = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status", encoding="utf-8") as handle:
                fields = dict(line.split(":", 1) for line in handle
                              if ":" in line)
        except OSError:  # the process ended while /proc was being listed
            continue
        if int(entry) == own or int(fields["PPid"]) == own:
            yield int(entry), fields


def peak_rss_mb() -> float:
    """Peak RSS (``VmHWM``) of this process plus every live child of it.

    Read while the shard workers still run.  ``getrusage(RUSAGE_CHILDREN)``
    would not do: a forked child starts with its parent's peak, so a worker
    respawned late in a run reads as large as the load generator itself.
    """
    total_kib = sum(int(fields.get("VmHWM", "0 kB").split()[0])
                    for _, fields in own_and_children())
    return total_kib / 1024.0


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def device_energy_mj(busy_ms: float, latency_p50_ms: float,
                     uplink_bytes: float) -> float:
    """Modelled, not measured: the paper's device-energy model fed with
    host-timed compute, so wire bytes cost something even on loopback."""
    from repro.hardware import (JETSON_TX2, LINK_40MBPS,
                                estimate_device_energy)
    idle_ms = max(0.0, latency_p50_ms - busy_ms)
    return estimate_device_energy(JETSON_TX2, LINK_40MBPS, busy_ms, idle_ms,
                                  uplink_bytes).total_j * 1e3


def print_metrics(title: str, table: dict) -> None:
    print(f"\n{title}")
    for name, entry in table.items():
        print(f"  {name:<46} {entry['value']:>16.6f} {entry['unit']}")


def print_phases(phases) -> None:
    print("\nphase accounting (frames)")
    for phase in phases:
        counts = phase.accounting()
        errors = f"  errors={counts['errors']}" if counts["errors"] else ""
        print(f"  {phase.name:<12} attempted={counts['attempted']:<7} "
              f"succeeded={counts['succeeded']:<7} failed={counts['failed']:<4} "
              f"retried={counts['retried']:<4} "
              f"elapsed={phase.elapsed_s:.2f}s{errors}")
        for sample in counts["error_samples"]:
            print(f"    {sample.splitlines()[0]}")


def start_app(workload, frames, expected):
    """Cold-start the app several times; the last one serves the run."""
    from loadgen import cold_start
    cycles, app = [], None
    while (len(cycles) < SETUP_CYCLES_MIN
           or (len(cycles) < SETUP_CYCLES_MAX
               and sum(cycles) < SETUP_BUDGET_S)):
        if app is not None:
            app.stop()
        app, seconds = cold_start(workload, frames[0], expected[0])
        cycles.append(seconds)
    return app, cycles


def end_to_end_pass(workload, seed, seconds, warmup, frames, expected):
    import numpy
    from loadgen import Phase, run_phases, uplink_census
    from steady import calm_p50, slice_series, slice_spread, steady
    from workloads import ENTRY
    app, cycles = start_app(workload, frames, expected)
    try:
        uplink = uplink_census(app, workload, frames, expected)
        device_fn = app.repository.device_fn(ENTRY)
        busy_passes = []

        def time_device_fn(_number=None) -> None:
            """Host-timed, serial, outside the timed phases; once before each
            phase and once after, so that one pass at least runs undisturbed."""
            timings = []
            for frame in frames:
                start = time.perf_counter()
                device_fn(frame)
                timings.append((time.perf_counter() - start) * 1e3)
            busy_passes.append(timings)

        phases = run_phases(app, workload, frames, expected,
                            workload.orders(seed, len(frames)),
                            [Phase("warmup", warmup),
                             Phase("measured", seconds)],
                            between=time_device_fn)
        time_device_fn()
        rss_mb = peak_rss_mb()
    finally:
        app.stop()
    measured = phases[-1]
    latencies = measured.latencies_ms()
    if not latencies:
        raise RuntimeError(f"no frame completed: {measured.accounting()}")
    series = slice_series([measured])
    p50 = calm_p50(series)
    # Per frame the fastest pass, then the median over the pool's frames.
    busy_ms = float(numpy.median(numpy.min(busy_passes, axis=0)))
    values = {
        # Whole window: every completed frame over all the time it took,
        # failed windows, stalls and disturbed seconds included.
        "fps": measured.fps,
        "latency_p50_ms": p50,
        "latency_p95_ms": percentile(latencies, 95),
        "success_share": measured.succeeded / measured.attempted,
        "uplink_bytes_per_frame": uplink,
        "device_mj_per_frame": device_energy_mj(busy_ms, p50, uplink),
        "peak_rss_mb": rss_mb,
        "setup_s": steady(cycles),
    }
    spread = {name: slice_spread(per_slice)
              for name, per_slice in series.items()}
    spread["device_mj_per_frame"] = spread["latency_p50_ms"]
    info = {"latency_samples": len(latencies), "setup_cycles_s": cycles,
            "device_fn_ms_host_timed": busy_ms, "spread": spread,
            "failed_share": 1.0 - values["success_share"],
            "whole_window": {"latency_p50_ms": percentile(latencies, 50),
                             "latency_p99_ms": percentile(latencies, 99),
                             "latency_max_ms": max(latencies)},
            "phases": {p.name: dict(p.accounting(), elapsed_s=p.elapsed_s)
                       for p in phases}}
    return values, info, phases


def traced_pass(workload, seed, seconds, warmup, frames, expected):
    import layers
    from loadgen import Phase, run_phases
    from steady import calm_p50, slice_series, steady
    tracer = layers.Tracer()
    segment = max(1.0, round(seconds * 0.1))  # whole one-second slices
    budget = seconds * 0.5
    live = [Phase("warmup", warmup)] + [
        Phase(f"{'traced' if i % 2 else 'plain'}{i // 2}", segment,
              traced=bool(i % 2)) for i in range(4)]
    app, _ = start_app(workload, frames, expected)
    try:
        bench = layers.LayerBench(workload, frames, expected, tracer,
                                  shard_pool=app.shard_pool)
        values = {}

        def walk_midway(number: int) -> None:
            # Between the two plain/traced pairs, clients parked: the live
            # latencies the walk is held against bracket it in time.
            # At least three one-second slices, so one of them can be calm.
            if number == 3:
                values.update(bench.walk(max(3.0, budget * 0.40)))

        phases = run_phases(app, workload, frames, expected,
                            workload.orders(seed, len(frames)), live, tracer,
                            between=walk_midway)
        plain = [p for p in phases[1:] if not p.traced]
        traced = [p for p in phases[1:] if p.traced]
        reference = plain
        if (workload.clients, workload.window) != (1, 1):
            # What the serial walk is held against: one client, window 1.
            solo = dataclasses.replace(workload, clients=1, window=1)
            reference = run_phases(
                app, solo, frames, expected, solo.orders(seed, len(frames)),
                [Phase("solo-warmup", min(warmup, 0.5)),
                 Phase("solo", segment)])[-1:]
        values.update(layers.live_counters(phases[1:]))
    finally:
        app.stop()
    reference_p50 = calm_p50(slice_series(reference))
    plain_fps, traced_fps = (
        sum(p.succeeded for p in side) / sum(p.elapsed_s for p in side)
        for side in (plain, traced))
    values.update(bench.executor(budget * 0.20))
    values.update(bench.batched_plan(budget * 0.10))
    values.update(bench.kernels(budget * 0.05))
    values.update(bench.build(budget * 0.05))
    values.update(bench.transport(budget * 0.12))
    values.update(bench.scheduler_pair(budget * 0.03))
    values.update(bench.ring(budget * 0.05))

    device_ms = [ms for p in traced for ms in p.device_ms]
    edge_ms = values["core.executor.edge_fn_ms"]
    sharded = app.shard_pool is not None
    values.update({
        "core.executor.device_fn_ms": steady(device_ms),
        "serving.sharding.hop_ms":
            max(0.0, bench.hop_call_ms - edge_ms) if sharded else 0.0,
        "trace.unattributed_ms":
            reference_p50 - values["trace.serial_path_ms"],
        "trace.overhead_pct": 100.0 * (plain_fps - traced_fps) / plain_fps,
    })
    shares = dict(bench.layer_self_ms)
    if sharded:  # split the opaque hop with the in-process engine time
        call = shares.pop("serving.sharding")
        shares["serving.sharding (hop)"] = max(0.0, call - edge_ms)
        shares["core.executor+runtime.plan (in worker)"] = min(call, edge_ms)
    shares["unattributed (hand-offs, sockets, queues)"] = (
        values["trace.unattributed_ms"])
    print(f"\nshare of 1-client window-1 latency_p50_ms = "
          f"{reference_p50:.3f} ms, by layer ({bench.walked_frames} frames "
          "walked)")
    for layer, ms in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {layer:<46} {ms:>10.3f} ms {100 * ms / reference_p50:>6.1f} %")
    info = {"reference_latency_p50_ms": reference_p50,
            "layer_share_ms": shares, "walked_frames": bench.walked_frames,
            "walk_hop_failures": bench.walk_hop_failures,
            "phases": {p.name: dict(p.accounting(), elapsed_s=p.elapsed_s,
                                    fps=p.fps) for p in phases}}
    return values, info, phases, tracer


def new_record(workload, args, trace: int) -> dict:
    return {"schema": SCHEMA, "workload": workload.name, "why": workload.why,
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "trace": trace, "clients": workload.clients,
            "window": workload.window, "load": "closed loop",
            "envelope": envelope()}


def write_record(record: dict, out: str) -> str:
    os.makedirs(out, exist_ok=True)
    stem = ("trace_" if record["trace"] else "") + record["workload"]
    path = os.path.join(out, stem + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=None if "spans" in record else 1)
    return path


def write_failure(record: dict, out: str, error: str) -> None:
    """A workload that produced no measurement: every frame of it failed."""
    record.update(correct=False, attempted=1, failed=1, failed_share=1.0,
                  metrics={}, error=error)
    write_record(record, out)


def run_workload(args) -> int:
    """One workload, one pass, in this process; returns the exit code."""
    import metrics
    from loadgen import reference_logits
    from workloads import BY_NAME
    workload = BY_NAME[args.workload]
    record = new_record(workload, args, args.trace)
    print(f"== {workload.name} seed={args.seed} window={args.seconds}s "
          f"warmup={args.warmup}s clients={workload.clients} "
          f"window_frames={workload.window} trace={args.trace} (closed loop)")
    try:
        frames = workload.frames(args.seed)
        expected = reference_logits(workload, frames)
        if args.trace:
            values, info, phases, tracer = traced_pass(
                workload, args.seed, args.seconds, args.warmup, frames,
                expected)
            table = metrics.checked(values, metrics.PER_LAYER)
        else:
            values, info, phases = end_to_end_pass(
                workload, args.seed, args.seconds, args.warmup, frames,
                expected)
            table = metrics.checked(values, metrics.END_TO_END)
            tracer = None
    except Exception as exc:  # the suite must survive one broken workload
        import traceback
        traceback.print_exc()
        write_failure(record, args.out, f"{type(exc).__name__}: {exc}")
        print(f"{workload.name}: FAILED to produce a measurement "
              f"(failed_share = 1.0): {exc}")
        return 1
    counted = phases[1:]
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    record.update(correct=failed == 0 and attempted > 0, attempted=attempted,
                  failed=failed, metrics=table, info=info)
    if tracer is not None:
        record["spans"] = tracer.spans
    path = write_record(record, args.out)
    print_phases(phases)
    print_metrics("per-layer metrics" if args.trace else "end-to-end metrics",
                  table)
    if not args.trace:
        print(f"  {'failed_share (= 1 - success_share)':<46} "
              f"{info['failed_share']:>16.6f} share")
        print(f"  latency samples: {info['latency_samples']}")
    print(f"wrote {os.path.relpath(path)}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": table}))
    return 0


def workload_command(args, name: str, trace: int, out: str) -> list:
    command = [sys.executable, os.path.abspath(__file__), "--in-process",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", out]
    if args.quick:
        command.append("--quick")
    return command


def adopt_orphans() -> None:
    """Have the kernel hand this process every orphaned descendant of it, so
    that it can wait for them (``init`` may take seconds to)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_orphans() -> None:
    """Wait until this process has no child left; kill the ones that have
    not ended by themselves within ``ORPHAN_GRACE_S``."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            ended, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if ended:
            continue
        if time.monotonic() >= deadline:
            for pid, _ in own_and_children():
                if pid != os.getpid():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            deadline = time.monotonic() + 1.0  # their children come next
        time.sleep(0.01)


def run_child(command, timeout_s: float, capture: bool):
    """Run one workload subprocess; ``(exit code, output)``, code ``None`` if
    it hung.  A hung or interrupted child is killed alone: its shard workers
    end when they see it gone and the resource tracker unlinks their shared
    memory.  On every way out, whatever the child left running is waited
    for, and killed if it outlives the grace.  The child has its own session
    so that a Ctrl-C reaches this process only, which then does the above."""
    adopt_orphans()
    child = subprocess.Popen(command, text=True, start_new_session=True,
                             stdout=subprocess.PIPE if capture else None)
    try:
        output, _ = child.communicate(timeout=timeout_s)
        return child.returncode, output or ""
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
        reap_orphans()


def run_suite(args, out: str) -> bool:
    """Every selected workload, each pass in its own fresh subprocess."""
    from workloads import WORKLOADS
    passes = (0, 1) if args.trace else (0,)
    summary, healthy = {}, True
    for workload in WORKLOADS:
        for trace in passes:
            result = {"correct": False, "metrics": {}}
            returncode, output = run_child(
                workload_command(args, workload.name, trace, out),
                args.timeout, capture=True)
            sys.stdout.write(output)
            if returncode is None:
                print(f"{workload.name}: no result within "
                      f"{args.timeout:.0f} s (failed_share = 1.0)")
                write_failure(new_record(workload, args, trace), out,
                              f"TimeoutExpired: {args.timeout:.0f} s")
            else:
                try:
                    result = json.loads((output.strip().splitlines()
                                         or [""])[-1])
                except ValueError:
                    pass
            healthy &= returncode == 0 and bool(result["correct"])
            sys.stdout.flush()
            if trace == 0:
                summary[workload.name] = result
    print("\n== summary (end to end)")
    for name, result in summary.items():
        cells = "  ".join(f"{metric}={entry['value']:.4g}{entry['unit']}"
                          for metric, entry in result["metrics"].items())
        print(f"{name:<14} correct={result['correct']}  {cells}")
    return healthy


def main(argv=None) -> int:
    import metrics
    from workloads import (BY_NAME, QUICK_SECONDS, QUICK_WARMUP_SECONDS,
                           RUN_SECONDS, WARMUP_SECONDS, WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window; the benchmark driver passes "
                        f"BENCHMARK.json's run_seconds ({RUN_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer pass")
    parser.add_argument("--quick", action="store_true",
                        help="1 s + 3 s windows, for smoke tests only")
    parser.add_argument("--in-process", action="store_true",
                        help="measure --workload in this process; what every "
                        "other mode starts, and then cleans up after")
    parser.add_argument("--self-check", action="store_true",
                        help="run the suite twice and compare the two")
    parser.add_argument("--out", default=RESULTS,
                        help="result directory (inside results/)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(metrics.manifest_text(WORKLOADS, RUN_SECONDS))
        return 0
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else RUN_SECONDS
    args.warmup = QUICK_WARMUP_SECONDS if args.quick else WARMUP_SECONDS
    args.out = os.path.abspath(args.out)
    if os.path.commonpath([args.out, RESULTS]) != RESULTS:
        parser.error(f"--out must stay inside {RESULTS}")
    if args.in_process:
        if not args.workload:
            parser.error("--in-process needs --workload")
        return run_workload(args)
    args.timeout = args.warmup + args.seconds + SUBPROCESS_GRACE_S
    # A terminated run still goes through run_child's clean-up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload:
        returncode, _ = run_child(
            workload_command(args, args.workload, args.trace, args.out),
            args.timeout, capture=False)
        return 1 if returncode is None else returncode
    if args.self_check:
        import compare
        sides = [os.path.join(RESULTS, f"selfcheck_{side}") for side in "ab"]
        healthy = all([run_suite(args, side) for side in sides])
        return compare.main(sides) or (0 if healthy else 1)
    return 0 if run_suite(args, args.out) else 1


if __name__ == "__main__":
    sys.exit(main())
