"""Calibrated device profiles for the four platforms used in the paper.

The rate/overhead/power parameters below were calibrated so that the
analytical model reproduces the paper's measured anchors:

* DGCNN (1024-point ModelNet40, k=20) Device-Only latency:
  Jetson TX2 ≈ 242 ms, Raspberry Pi 4B ≈ 1122 ms (Table 2);
* DGCNN Edge-Only compute latency: Nvidia GTX 1060 ≈ 105 ms,
  Intel i7-7700 ≈ 330 ms (Table 2, after subtracting the input upload);
* operation breakdown shape (Fig. 3): KNN dominates on both GPUs,
  Aggregate dominates on the i7 for ModelNet40, Combine dominates on the
  i7 for MR, and the Pi is uniformly slow;
* DGCNN Device-Only energy: ≈ 2.6 J on TX2 and ≈ 5.6 J on the Pi (Table 2).

Absolute numbers are a model, not a measurement; the per-experiment
paper-vs-measured comparison is not written yet (ROADMAP.md, open item 5).
"""

from __future__ import annotations

from typing import Dict, List

from .device import DeviceSpec

JETSON_TX2 = DeviceSpec(
    name="jetson_tx2",
    kind="embedded-gpu",
    knn_rate=2.5,
    dense_rate=5.0,
    gather_rate_hot=1.2,
    gather_rate_cold=0.6,
    pool_rate=0.8,
    op_overhead_ms=1.0,
    cache_kb=2048.0,
    idle_power_w=2.5,
    busy_power_w=10.5,
    transmit_power_w=2.0,
)

RASPBERRY_PI_4B = DeviceSpec(
    name="raspberry_pi_4b",
    kind="embedded-cpu",
    knn_rate=0.6,
    dense_rate=0.8,
    gather_rate_hot=0.25,
    gather_rate_cold=0.1,
    pool_rate=0.3,
    op_overhead_ms=3.0,
    cache_kb=1024.0,
    idle_power_w=2.2,
    busy_power_w=5.0,
    transmit_power_w=1.8,
)

INTEL_I7 = DeviceSpec(
    name="intel_i7",
    kind="desktop-cpu",
    knn_rate=3.0,
    dense_rate=12.0,
    gather_rate_hot=2.0,
    gather_rate_cold=0.06,
    pool_rate=2.5,
    op_overhead_ms=0.3,
    cache_kb=256.0,
    idle_power_w=8.0,
    busy_power_w=65.0,
    transmit_power_w=3.0,
)

NVIDIA_1060 = DeviceSpec(
    name="nvidia_1060",
    kind="desktop-gpu",
    knn_rate=4.0,
    dense_rate=25.0,
    gather_rate_hot=2.5,
    gather_rate_cold=0.9,
    pool_rate=2.0,
    op_overhead_ms=0.6,
    cache_kb=2048.0,
    idle_power_w=10.0,
    busy_power_w=120.0,
    transmit_power_w=3.0,
)

#: Registry mapping short names to device specs.
DEVICE_REGISTRY: Dict[str, DeviceSpec] = {
    "jetson_tx2": JETSON_TX2,
    "tx2": JETSON_TX2,
    "raspberry_pi_4b": RASPBERRY_PI_4B,
    "pi4b": RASPBERRY_PI_4B,
    "pi": RASPBERRY_PI_4B,
    "intel_i7": INTEL_I7,
    "i7": INTEL_I7,
    "nvidia_1060": NVIDIA_1060,
    "gtx1060": NVIDIA_1060,
    "1060": NVIDIA_1060,
}

#: The device-edge pairings evaluated throughout the paper.
PAPER_SYSTEM_CONFIGS: List[tuple] = [
    ("jetson_tx2", "nvidia_1060"),
    ("jetson_tx2", "intel_i7"),
    ("raspberry_pi_4b", "nvidia_1060"),
    ("raspberry_pi_4b", "intel_i7"),
]


def get_device(name: str) -> DeviceSpec:
    """Look up a device profile by (case-insensitive) name or alias."""
    key = name.lower().strip()
    if key not in DEVICE_REGISTRY:
        raise KeyError(f"unknown device {name!r}; known: {sorted(set(DEVICE_REGISTRY))}")
    return DEVICE_REGISTRY[key]


def all_devices() -> List[DeviceSpec]:
    """The four distinct paper devices (no aliases)."""
    return [JETSON_TX2, RASPBERRY_PI_4B, INTEL_I7, NVIDIA_1060]
