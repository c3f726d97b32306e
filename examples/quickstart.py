"""Quickstart: search, deploy and dispatch a GNN for one device-edge system.

This walks through the full GCoDE workflow on a small synthetic point-cloud
task so it finishes in about a minute on a laptop:

1. generate a synthetic ModelNet-style dataset;
2. pre-train the one-shot supernet over the co-inference design space;
3. run the constraint-based random search for the Jetson TX2 ⇌ Intel i7
   system at 40 Mbps under latency/energy constraints;
4. inspect the architecture zoo and the simulated system performance;
5. train the best design from scratch and serve it through the pipelined
   socket co-inference engine (device and edge both on localhost).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import GCoDE, GCoDEConfig, SearchConstraints, TrainingConfig
from repro.graph import SyntheticModelNet40, stratified_split
from repro.graph.data import Batch
from repro.hardware import DataProfile, INTEL_I7, JETSON_TX2, LINK_40MBPS
from repro.serving import build_callables
from repro.system import run_co_inference


def main() -> None:
    # ------------------------------------------------------------------ data
    dataset = SyntheticModelNet40(num_points=64, samples_per_class=8,
                                  num_classes=10, seed=0)
    split = stratified_split(dataset.generate(), 0.6, 0.2, seed=0)
    print(f"dataset: {dataset.describe()}")
    print(f"splits:  train={len(split.train)} val={len(split.val)} "
          f"test={len(split.test)}")

    # The latency/energy models use the paper-scale profile (1024 points) so
    # the numbers are comparable with the paper, while accuracy is measured
    # on the smaller synthetic clouds generated above.
    profile = DataProfile.modelnet40(num_points=1024, num_classes=10)

    # ------------------------------------------------------- GCoDE session
    gcode = GCoDE(profile=profile, device=JETSON_TX2, edge=INTEL_I7,
                  link=LINK_40MBPS,
                  config=GCoDEConfig(num_layers=8, supernet_hidden=64, seed=0))
    print("\npre-training the one-shot supernet ...")
    losses = gcode.prepare(split.train, split.val, supernet_epochs=2, batch_size=8)
    print(f"supernet loss per epoch: {[round(l, 3) for l in losses]}")

    # -------------------------------------------------------------- search
    constraints = SearchConstraints(latency_ms=120.0, energy_j=1.0,
                                    tradeoff_lambda=0.5)
    print("\nsearching the co-inference design space (LUT cost estimation) ...")
    result = gcode.search(constraints, max_trials=200, tuning_trials=5,
                          keep_top=5, evaluator="cost")
    print(f"trials: {result.num_trials}, constraint rejections: "
          f"{result.num_constraint_violations}")
    print("\narchitecture zoo:")
    for entry in gcode.zoo:
        tags = f" [{', '.join(entry.tags)}]" if entry.tags else ""
        print(f"  {entry.name:<10} acc={entry.accuracy:.3f} "
              f"latency={entry.latency_ms:7.1f} ms "
              f"energy={entry.device_energy_j:.3f} J{tags}")

    best = gcode.zoo.best("latency")
    print(f"\nbest-latency design ({best.name}):")
    for line in best.architecture.describe():
        print(f"  {line}")
    performance = gcode.evaluate_architecture(best.architecture)
    print(f"simulated on {gcode.system.name}: "
          f"{performance.latency_ms:.1f} ms end-to-end, "
          f"{performance.device_energy_j:.3f} J on-device, "
          f"{performance.pipelined_fps:.1f} fps pipelined")

    # ------------------------------------------------------------ deployment
    print("\ntraining the selected architecture from scratch ...")
    model, training = gcode.deploy(best, split.train, split.val,
                                   training=TrainingConfig(epochs=5, batch_size=8,
                                                           lr=5e-3, seed=0))
    print(f"deployed model validation accuracy: {training.val_accuracy:.3f} "
          f"(balanced {training.val_balanced_accuracy:.3f})")

    print("\nserving 8 frames through the pipelined co-inference engine ...")
    serving = build_callables(model)
    frames = [Batch.from_graphs([graph]) for graph in split.test[:8]]
    results, stats = run_co_inference(frames, serving.device_fn,
                                      serving.edge_fn)
    predictions = [int(r.arrays["logits"].argmax()) for r in results]
    print(f"engine throughput: {stats.throughput_fps:.1f} fps "
          f"({stats.bytes_sent / 1024:.1f} KiB uplink)")
    print(f"predictions for the first frames: {predictions}")

    # ---------------------------------------------------------- dispatching
    dispatcher = gcode.dispatcher()
    from repro.core import RuntimeConditions
    tight = dispatcher.select(RuntimeConditions(latency_budget_ms=best.latency_ms))
    print(f"\ndispatcher under a tight latency budget picks: {tight.name}")


if __name__ == "__main__":
    main()
