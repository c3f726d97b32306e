"""Pipelined co-inference engine demo: sequential vs pipelined throughput.

Shows the deployment half of GCoDE in isolation.  A split architecture is
served over the socket engine (device and edge both on localhost) twice:

* sequentially — each frame waits for the previous result, and
* pipelined — the device keeps producing frames while earlier frames are in
  flight or on the edge (the engine's normal mode),

then compares the achieved throughput, runs the same split over the real
socket engine (asyncio frontend, QoS admission control with a per-frame
deadline), and reports how large the compressed intermediate frames were on
the wire versus the simulator's transfer-size model.

Run with:  python examples/engine_pipeline_demo.py
"""

from __future__ import annotations

import time

from repro.core import Architecture, ArchitectureModel
from repro.serving import (ClientConfig, QosConfig, ServerConfig,
                           build_callables)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40, stratified_split
from repro.graph.data import Batch
from repro.hardware import DataProfile, JETSON_TX2, INTEL_I7, LINK_40MBPS, trace_workloads
from repro.system import (CoInferenceSimulator, SystemConfig,
                          compressed_size, run_co_inference, EdgeServer,
                          DeviceClient)


def build_split_model(profile: DataProfile) -> ArchitectureModel:
    """A representative searched-style design: KNN+Aggregate on the device,
    Combine and pooling on the edge."""
    architecture = Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=9),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMBINE, 32),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.COMBINE, 64),
        OpSpec(OpType.GLOBAL_POOL, "max||mean"),
    ), name="demo-split")
    return ArchitectureModel(architecture, in_dim=profile.feature_dim,
                             num_classes=profile.num_classes, seed=0)


def main() -> None:
    profile = DataProfile.modelnet40(num_points=256, num_classes=10)
    dataset = SyntheticModelNet40(num_points=256, samples_per_class=4,
                                  num_classes=10, seed=0)
    split = stratified_split(dataset.generate(), 0.5, 0.25, seed=0)
    held_out = split.val + split.test
    frames = [Batch.from_graphs([graph]) for graph in held_out[:12]]
    model = build_split_model(profile)
    serving = build_callables(model)
    device_fn, edge_fn = serving.device_fn, serving.edge_fn

    # ------------------------------------------------- sequential execution
    start = time.perf_counter()
    for frame in frames:
        arrays, meta = device_fn(frame)
        edge_fn(arrays, meta)
    sequential_s = time.perf_counter() - start
    print(f"sequential execution : {len(frames) / sequential_s:6.1f} fps "
          f"({sequential_s * 1000 / len(frames):.1f} ms per frame)")

    # -------------------------------------------------- pipelined execution
    results, stats = run_co_inference(frames, device_fn, edge_fn)
    print(f"pipelined engine     : {stats.throughput_fps:6.1f} fps "
          f"(mean frame latency {stats.mean_latency_s * 1000:.1f} ms, "
          f"{stats.bytes_sent / 1024:.1f} KiB sent)")
    speedup = (len(frames) / sequential_s) and stats.throughput_fps / (len(frames) / sequential_s)
    print(f"pipeline speedup     : {speedup:.2f}x on localhost "
          f"(gains grow with real link + edge latency)")

    # -------------------- the same split over the socket engine, with QoS
    # The asyncio frontend multiplexes every connection on one event loop;
    # the QoS policy bounds the admission queue, and the client stamps each
    # frame with a deadline — expired or shed frames come back as clean
    # ``rejected`` replies (counted, not raised, under ``on_rejected="drop"``).
    server = EdgeServer(serving.edge_fn, config=ServerConfig(frontend="async"),
                        qos=QosConfig(max_queue_depth=32)).start()
    try:
        client = DeviceClient(server.host, server.port,
                              ClientConfig(deadline_ms=2_000.0,
                                           on_rejected="drop"),
                              client_name="pipeline-demo")
        try:
            wire_results, wire_stats = client.run_pipeline(frames, device_fn)
        finally:
            client.close()
        server_stats = server.stats()
    finally:
        server.stop()
    print(f"socket engine (TCP)  : {wire_stats.throughput_fps:6.1f} fps via the "
          f"{server_stats.frontend} frontend "
          f"({len(wire_results)} served, {wire_stats.frames_rejected} shed "
          f"under a 2000 ms deadline)")

    # ------------------------------------------ wire size vs simulator model
    arrays, meta = device_fn(frames[0])
    wire_bytes = compressed_size(arrays)
    workloads = trace_workloads(model.architecture.ops, profile)
    comm_index = next(i for i, op in enumerate(model.architecture.ops)
                      if op.op == OpType.COMMUNICATE)
    modelled = LINK_40MBPS.compressed_bytes(workloads[comm_index - 1].output_bytes)
    print(f"\nintermediate frame size: {wire_bytes / 1024:.1f} KiB on the wire "
          f"vs {modelled / 1024:.1f} KiB in the transfer model")

    simulator = CoInferenceSimulator(SystemConfig(JETSON_TX2, INTEL_I7, LINK_40MBPS))
    perf = simulator.evaluate(model.architecture.ops, profile)
    print(f"simulated on TX2 -> i7 @ 40 Mbps: {perf.latency_ms:.1f} ms latency, "
          f"{perf.pipelined_fps:.1f} fps pipelined, "
          f"{perf.device_energy_j:.3f} J per inference on the device")

    correct = sum(int(result.arrays['logits'].argmax()) == frame.y[0]
                  for result, frame in zip(results, frames))
    print(f"\n(untrained demo model classified {correct}/{len(frames)} frames "
          f"correctly — train it via examples/quickstart.py)")


if __name__ == "__main__":
    main()
