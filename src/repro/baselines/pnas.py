"""PNAS baseline: accuracy-oriented NAS for graph classification (MR).

PNAS (Wei et al., ACM TOIS 2023) searches graph-classification architectures
for accuracy only — it is not hardware-aware and not mapping-aware.  The
reproduction models it as a small accuracy-only random search over the
single-device operation space (no Communicate); the "+Partition" variant then
applies the best after-the-fact split, mirroring the Table 3 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.architecture import Architecture
from ..hardware.workload import DataProfile
from ..system.partition import best_partition
from ..system.simulator import CoInferenceSimulator
from .hgnas import single_device_space

AccuracyFn = Callable[[Architecture], Tuple[float, float]]


@dataclass
class PNASConfig:
    """Search budget of the PNAS baseline."""

    max_trials: int = 200
    num_layers: int = 6
    seed: int = 0


class PNAS:
    """Accuracy-only NAS baseline for graph classification."""

    def __init__(self, profile: DataProfile, accuracy_fn: AccuracyFn,
                 config: Optional[PNASConfig] = None) -> None:
        self.profile = profile
        self.accuracy_fn = accuracy_fn
        self.config = config or PNASConfig()
        self.space = single_device_space(profile, self.config.num_layers)

    def search(self) -> Architecture:
        """Pick the most accurate sampled architecture (no efficiency term)."""
        rng = np.random.default_rng(self.config.seed)
        best_arch: Optional[Architecture] = None
        best_accuracy = -1.0
        for _ in range(self.config.max_trials):
            arch = self.space.sample_valid(rng)
            accuracy, _ = self.accuracy_fn(arch)
            if accuracy > best_accuracy:
                best_accuracy = accuracy
                best_arch = arch
        assert best_arch is not None
        return best_arch.with_name("pnas")


def pnas_with_partition(architecture: Architecture,
                        simulator: CoInferenceSimulator, profile: DataProfile,
                        objective: str = "latency") -> Architecture:
    """PNAS architecture deployed at its best after-the-fact split point."""
    partition = best_partition(architecture.ops, profile, simulator,
                               objective=objective,
                               classifier_hidden=architecture.classifier_hidden)
    return Architecture(ops=tuple(partition.ops), name="pnas+partition",
                        classifier_hidden=architecture.classifier_hidden)
