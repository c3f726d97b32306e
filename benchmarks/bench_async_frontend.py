"""Async frontend: idle-connection scaling and QoS overload behavior.

Two claims of the transport/scheduling split, measured:

**Idle-connection scaling.**  The threaded frontend pins one handler thread
(and one ``max_workers`` slot) per connection, so a fleet of mostly-idle
devices starves the active ones long before the machine is busy.  The
asyncio frontend multiplexes every connection on one event loop; this bench
opens ~1000 idle connections (hello handshake, then silence) against a
small-``max_workers`` async server and shows a handful of *active* clients
still being served at full rate straight through the idle crowd.

**Overload with and without shedding.**  A saturating client burst against
a deliberately slow entry, once with the historical unbounded queue and
once with ``QosConfig(max_queue_depth=...)``.  Unbounded, every admitted
frame waits for the whole backlog ahead of it (p99 queue delay grows with
the burst); with shedding, queue delay stays bounded (p99 under 100 ms
here) and the overflow gets wire-level ``"rejected"`` replies within a
round-trip instead of timing out.

Both scenarios use a tiny numpy edge callable rather than a real zoo entry:
the subject is the transport and the admission queue, so engine time is
kept small and controlled.

Run standalone:  PYTHONPATH=src python benchmarks/bench_async_frontend.py
or via pytest:   PYTHONPATH=src python -m pytest benchmarks/bench_async_frontend.py -q
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.evaluation import format_table
from repro.serving import (BatchingConfig, ClientConfig, QosConfig,
                           ServerConfig)
from repro.system import DeviceClient, EdgeServer
from repro.system.messages import Message, send_message

#: Idle-connection scenario.
IDLE_TARGET = 1000
ACTIVE_CLIENTS = 4
FRAMES_PER_ACTIVE = 50
#: The async server's compute pool — deliberately far below IDLE_TARGET:
#: under the threaded frontend this many workers could not even *accept*
#: the idle crowd, let alone serve the active clients through it.
ASYNC_MAX_WORKERS = 8

#: Overload scenario.
OVERLOAD_CLIENTS = 6
FRAMES_PER_OVERLOAD_CLIENT = 50
SERVICE_TIME_S = 0.02  # per batched engine call: ~6x oversubscribed
MAX_QUEUE_DEPTH = 8
#: Shedding must bound p99 queue delay below this (the unbounded run is
#: expected to blow far past it).
P99_BOUND_S = 0.100


def _echo_fn(arrays, meta):
    return {"y": arrays["x"] * 2.0}, meta


def _fd_budget(wanted: int) -> int:
    """Idle connections we can afford under the fd limit (scaled down,
    never failed: CI runners differ).  Tries to raise the soft limit to
    the hard limit first."""
    try:
        import resource
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < hard:
            try:
                resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
                soft = hard
            except (ValueError, OSError):
                pass
        # Client fd + server fd per connection, plus slack for the suite.
        return max(64, min(wanted, (soft - 256) // 2))
    except Exception:
        return min(wanted, 256)


def run_idle_scaling() -> Dict:
    """Active-client throughput with ~IDLE_TARGET idle connections parked."""
    idle_budget = _fd_budget(IDLE_TARGET)
    server = EdgeServer(_echo_fn, config=ServerConfig(
        frontend="async", max_workers=ASYNC_MAX_WORKERS,
        backlog=min(512, idle_budget))).start()
    idle: List[socket.socket] = []
    frames = [np.random.default_rng(i).normal(size=(64,)).astype(np.float64)
              for i in range(8)]

    def active_rate() -> float:
        failures: List[BaseException] = []
        durations: List[float] = []

        def run_client(index: int) -> None:
            try:
                client = DeviceClient(server.host, server.port,
                                      ClientConfig(pipeline_timeout_s=120.0),
                                      client_name=f"active-{index}")
                try:
                    started = time.perf_counter()
                    results, _ = client.run_pipeline(
                        [frames[i % len(frames)]
                         for i in range(FRAMES_PER_ACTIVE)],
                        lambda frame: ({"x": frame}, {}))
                    durations.append(time.perf_counter() - started)
                    assert len(results) == FRAMES_PER_ACTIVE
                finally:
                    client.close()
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(ACTIVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
        if failures:
            raise RuntimeError(f"active client failed: {failures[0]}")
        total = ACTIVE_CLIENTS * FRAMES_PER_ACTIVE
        return total / max(durations)

    try:
        baseline_fps = active_rate()
        # Park the idle crowd: connect + hello, then never speak again.
        for index in range(idle_budget):
            sock = socket.create_connection((server.host, server.port),
                                            timeout=10.0)
            send_message(sock, Message(kind="hello",
                                       meta={"client": f"idle-{index}"}))
            idle.append(sock)
        # Give the loop a beat to drain the hello backlog before timing.
        deadline = time.monotonic() + 30.0
        while (server.stats().active_sessions < idle_budget
               and time.monotonic() < deadline):
            time.sleep(0.05)
        crowded_fps = active_rate()
        stats = server.stats()
    finally:
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass
        server.stop()
    return {
        "idle_connections": idle_budget,
        "idle_target": IDLE_TARGET,
        "active_clients": ACTIVE_CLIENTS,
        "frames_per_active": FRAMES_PER_ACTIVE,
        "max_workers": ASYNC_MAX_WORKERS,
        "baseline_fps": baseline_fps,
        "crowded_fps": crowded_fps,
        "slowdown": baseline_fps / crowded_fps if crowded_fps else float("inf"),
        "peak_sessions": stats.active_sessions,
        "errors": stats.errors,
    }


def _slow_batch(items):
    time.sleep(SERVICE_TIME_S)
    return [({"y": arrays["x"] * 2.0}, meta) for arrays, meta in items]


def run_overload(qos: bool) -> Dict:
    """Saturating burst against a slow batched entry, with/without QoS."""
    policy = (QosConfig(max_queue_depth=MAX_QUEUE_DEPTH, fairness=False)
              if qos else QosConfig())
    server = EdgeServer(batch_fns={"default": _slow_batch},
                        config=ServerConfig(frontend="async",
                                            max_workers=OVERLOAD_CLIENTS),
                        batching=BatchingConfig(max_batch_size=4,
                                                max_wait_ms=1.0),
                        qos=policy).start()
    frame = np.ones((64,), dtype=np.float64)
    failures: List[BaseException] = []
    served = 0
    rejected = 0
    lock = threading.Lock()

    def run_client(index: int) -> None:
        nonlocal served, rejected
        try:
            client = DeviceClient(server.host, server.port,
                                  ClientConfig(pipeline_timeout_s=120.0,
                                               on_rejected="drop"),
                                  client_name=f"burst-{index}")
            try:
                results, stats = client.run_pipeline(
                    [frame] * FRAMES_PER_OVERLOAD_CLIENT,
                    lambda f: ({"x": f}, {}))
                with lock:
                    served += len(results)
                    rejected += stats.frames_rejected
            finally:
                client.close()
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=run_client, args=(i,))
               for i in range(OVERLOAD_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    wall = time.perf_counter() - started
    stats = server.stats()
    server.stop()
    if failures:
        raise RuntimeError(f"overload client failed: {failures[0]}")
    return {
        "qos": qos,
        "max_queue_depth": MAX_QUEUE_DEPTH if qos else None,
        "clients": OVERLOAD_CLIENTS,
        "frames_per_client": FRAMES_PER_OVERLOAD_CLIENT,
        "served": served,
        "rejected": rejected,
        "frames_shed": stats.frames_shed,
        "shed_by_reason": stats.shed_by_reason,
        "queue_delay_p50_s": stats.queue_delay_p50_s,
        "queue_delay_p99_s": stats.queue_delay_p99_s,
        "wall_time_s": wall,
    }


def result_table(idle: Dict, unbounded: Dict, shedding: Dict) -> str:
    rows = [
        ["idle-scaling", f"{idle['idle_connections']} idle conns",
         f"{idle['crowded_fps']:.0f}", f"{idle['slowdown']:.2f}x", "-", "-"],
        ["overload (unbounded)", f"{unbounded['clients']} bursting",
         f"{unbounded['served']}",
         "-", f"{unbounded['queue_delay_p99_s'] * 1000:.1f}",
         f"{unbounded['frames_shed']}"],
        ["overload (shed@%d)" % MAX_QUEUE_DEPTH,
         f"{shedding['clients']} bursting", f"{shedding['served']}",
         "-", f"{shedding['queue_delay_p99_s'] * 1000:.1f}",
         f"{shedding['frames_shed']}"],
    ]
    return format_table(
        ["scenario", "load", "frames_served", "slowdown", "p99_delay_ms",
         "frames_shed"],
        rows,
        title="Async frontend: idle-connection scaling and QoS overload "
              f"(pool={ASYNC_MAX_WORKERS}, service={SERVICE_TIME_S * 1000:.0f}"
              "ms/batch)")


def check(idle: Dict, unbounded: Dict, shedding: Dict) -> None:
    # The idle crowd must not collapse active throughput: the crowd holds
    # no compute slots, so a generous 3x bound absorbs scheduler noise.
    assert idle["errors"] == 0
    assert idle["slowdown"] <= 3.0, (
        f"{idle['idle_connections']} idle connections slowed active clients "
        f"{idle['slowdown']:.2f}x")
    # Unbounded overload must serve everything (nothing shed)...
    assert unbounded["frames_shed"] == 0
    assert unbounded["served"] == (OVERLOAD_CLIENTS
                                   * FRAMES_PER_OVERLOAD_CLIENT)
    # ...while shedding bounds the queue and answers the overflow.
    assert shedding["frames_shed"] > 0, "overload never tripped the shed"
    assert shedding["rejected"] == shedding["frames_shed"]
    assert shedding["served"] + shedding["rejected"] == (
        OVERLOAD_CLIENTS * FRAMES_PER_OVERLOAD_CLIENT)
    assert shedding["queue_delay_p99_s"] < P99_BOUND_S, (
        f"p99 queue delay {shedding['queue_delay_p99_s'] * 1000:.1f}ms "
        f"not bounded under shedding (limit {P99_BOUND_S * 1000:.0f}ms)")


def run_all() -> Tuple[Dict, Dict, Dict]:
    return run_idle_scaling(), run_overload(qos=False), run_overload(qos=True)


def test_async_frontend(benchmark):
    from conftest import save_json, save_report
    idle, unbounded, shedding = benchmark.pedantic(run_all, rounds=1,
                                                   iterations=1)
    save_report("async_frontend.txt", result_table(idle, unbounded, shedding))
    save_json("async_frontend.json", {
        "bench": "async_frontend",
        "idle_scaling": idle,
        "overload_unbounded": unbounded,
        "overload_shedding": shedding,
    })
    check(idle, unbounded, shedding)


def main() -> None:
    import os
    import sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import save_json, save_report
    idle, unbounded, shedding = run_all()
    save_report("async_frontend.txt", result_table(idle, unbounded, shedding))
    save_json("async_frontend.json", {
        "bench": "async_frontend",
        "idle_scaling": idle,
        "overload_unbounded": unbounded,
        "overload_shedding": shedding,
    })
    check(idle, unbounded, shedding)
    print(f"\nasync frontend check passed: {idle['idle_connections']} idle "
          f"connections at {idle['slowdown']:.2f}x slowdown; shedding "
          f"bounded p99 queue delay to "
          f"{shedding['queue_delay_p99_s'] * 1000:.1f}ms "
          f"({shedding['frames_shed']} frames shed cleanly)")


if __name__ == "__main__":
    main()
