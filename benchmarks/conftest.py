"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The expensive
shared work — training the one-shot supernets that provide candidate accuracy
for GCoDE and the NAS baselines — happens once per session here.

Scaling note: accuracy is measured on the
synthetic datasets at reduced point counts so the suite runs in minutes,
while latency/energy are modelled at the paper's full data scale (1024-point
clouds, 300-dimensional MR word graphs) through the hardware simulator.  The
split mirrors the paper's own separation of task accuracy and system
efficiency.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np
import pytest

from repro.core import AccuracyCache, DesignSpace, SuperNet
from repro.graph import SyntheticModelNet40, SyntheticMR, stratified_split
from repro.hardware import (DataProfile, JETSON_TX2, RASPBERRY_PI_4B, INTEL_I7,
                            NVIDIA_1060, LINK_10MBPS, LINK_40MBPS)
from repro.system import CoInferenceSimulator, SystemConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The four device-edge pairings of the paper (device, edge, label).
SYSTEM_PAIRS = [
    (JETSON_TX2, NVIDIA_1060, "TX2->1060"),
    (JETSON_TX2, INTEL_I7, "TX2->i7"),
    (RASPBERRY_PI_4B, NVIDIA_1060, "Pi->1060"),
    (RASPBERRY_PI_4B, INTEL_I7, "Pi->i7"),
]

LINKS = {"40mbps": LINK_40MBPS, "10mbps": LINK_10MBPS}

#: Latency/energy are modelled at the paper's full data scale.
MODELNET_PROFILE = DataProfile.modelnet40(num_points=1024, num_classes=10)
MR_PROFILE = DataProfile.mr(num_words=17, feature_dim=300)

#: Accuracy is measured on reduced-size synthetic data (see module docstring).
ACCURACY_POINTS = 64
ACCURACY_CLASSES = 10


def save_report(name: str, text: str) -> str:
    """Write a regenerated table/figure to benchmarks/results and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path


def _cpu_model() -> str:
    """Human-readable CPU model, best effort (empty when undetectable)."""
    if sys.platform.startswith("linux"):
        try:
            with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.lower().startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
    return platform.processor() or ""


def hardware_envelope() -> dict:
    """The machine this run measured on, for apples-to-apples comparisons.

    Throughput and latency numbers are meaningless across machines without
    this: every JSON twin records where it was measured so trend tooling
    can refuse to diff results from different hardware.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def save_json(name: str, payload: dict) -> str:
    """Write a machine-readable result to benchmarks/results (BENCH trajectory).

    The serving benchmarks keep their human-readable txt tables *and* write
    these JSON twins so CI and trend tooling can diff runs without parsing
    tables.  Every payload is stamped with the :func:`hardware_envelope` it
    was measured on (an explicit ``hardware`` key in the payload wins).
    """
    payload = dict(payload)
    payload.setdefault("hardware", hardware_envelope())
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def modelnet_split():
    dataset = SyntheticModelNet40(num_points=ACCURACY_POINTS, samples_per_class=8,
                                  num_classes=ACCURACY_CLASSES, seed=0)
    return stratified_split(dataset.generate(), 0.6, 0.2, seed=0)


@pytest.fixture(scope="session")
def mr_split():
    dataset = SyntheticMR(num_documents=80, feature_dim=300, mean_nodes=17, seed=0)
    return stratified_split(dataset.generate(), 0.6, 0.2, seed=0)


@pytest.fixture(scope="session")
def modelnet_space():
    return DesignSpace(num_layers=8, profile=MODELNET_PROFILE,
                       combine_widths=(16, 32, 64, 128), k_choices=(9, 20),
                       max_communicates=2)


@pytest.fixture(scope="session")
def mr_space():
    return DesignSpace(num_layers=6, profile=MR_PROFILE,
                       combine_widths=(16, 32, 64), k_choices=(9,),
                       max_communicates=2)


@pytest.fixture(scope="session")
def modelnet_accuracy(modelnet_split, modelnet_space):
    """Supernet-backed accuracy oracle for ModelNet candidates."""
    supernet = SuperNet(modelnet_space, in_dim=3, num_classes=ACCURACY_CLASSES,
                        hidden_dim=64, seed=0)
    supernet.pretrain(modelnet_split.train, epochs=2, batch_size=8, lr=2e-3)
    return AccuracyCache(supernet, modelnet_split.val, batch_size=16)


@pytest.fixture(scope="session")
def mr_accuracy(mr_split, mr_space):
    """Supernet-backed accuracy oracle for MR candidates."""
    supernet = SuperNet(mr_space, in_dim=300, num_classes=2, hidden_dim=64, seed=0)
    supernet.pretrain(mr_split.train, epochs=2, batch_size=8, lr=2e-3)
    return AccuracyCache(supernet, mr_split.val, batch_size=16)


def simulator_for(device, edge, link) -> CoInferenceSimulator:
    return CoInferenceSimulator(SystemConfig(device=device, edge=edge, link=link))
