"""Labelled architecture datasets for predictor training and evaluation.

The paper trains its predictor on ~9K co-inference architectures whose
latencies were measured on the physical testbed.  Here the "measurement" is
the hardware simulator with runtime overheads and optional multiplicative
measurement noise (there is no physical testbed here), but the
pipeline (sample valid architectures → label → 70/30 split → train with MAPE)
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...hardware.workload import DataProfile
from ...system.simulator import CoInferenceSimulator, SystemConfig
from ..architecture import Architecture
from ..design_space import DesignSpace
from .features import FeatureBuilder
from .gin_predictor import PredictorSample


@dataclass
class LabelledArchitecture:
    """An architecture together with its measured system latency."""

    architecture: Architecture
    latency_ms: float
    device_energy_j: float


def measure_architectures(architectures: Sequence[Architecture],
                          simulator: CoInferenceSimulator, profile: DataProfile,
                          noise_std: float = 0.0,
                          seed: int = 0) -> List[LabelledArchitecture]:
    """Label architectures with simulated (optionally noisy) measurements."""
    rng = np.random.default_rng(seed)
    labelled: List[LabelledArchitecture] = []
    for arch in architectures:
        perf = simulator.evaluate(arch.ops, profile, arch.classifier_hidden)
        latency = perf.latency_ms
        if noise_std > 0:
            latency *= float(1.0 + rng.normal(0.0, noise_std))
            latency = max(latency, 1e-3)
        labelled.append(LabelledArchitecture(architecture=arch, latency_ms=latency,
                                             device_energy_j=perf.device_energy_j))
    return labelled


def generate_predictor_dataset(space: DesignSpace, simulator: CoInferenceSimulator,
                               builder: FeatureBuilder, num_samples: int,
                               noise_std: float = 0.03, seed: int = 0,
                               ) -> List[PredictorSample]:
    """Sample, label and featurize ``num_samples`` valid architectures."""
    rng = np.random.default_rng(seed)
    seen = set()
    architectures: List[Architecture] = []
    attempts = 0
    max_attempts = num_samples * 50
    while len(architectures) < num_samples and attempts < max_attempts:
        attempts += 1
        arch = space.sample_valid(rng)
        signature = arch.signature()
        if signature in seen:
            continue
        seen.add(signature)
        architectures.append(arch)
    labelled = measure_architectures(architectures, simulator, space.profile,
                                     noise_std=noise_std, seed=seed + 1)
    samples: List[PredictorSample] = []
    for entry in labelled:
        features, edge_index = builder.build(entry.architecture)
        samples.append(PredictorSample(architecture=entry.architecture,
                                       node_features=features,
                                       edge_index=edge_index,
                                       latency_ms=entry.latency_ms))
    return samples


def split_samples(samples: Sequence[PredictorSample], train_fraction: float = 0.7,
                  seed: int = 0) -> Tuple[List[PredictorSample], List[PredictorSample]]:
    """70/30-style train/validation split of predictor samples."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    cut = max(1, int(round(train_fraction * len(samples))))
    train = [samples[i] for i in order[:cut]]
    val = [samples[i] for i in order[cut:]]
    return train, val
