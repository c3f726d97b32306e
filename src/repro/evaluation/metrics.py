"""Comparison metrics used in the paper's evaluation tables.

Table 2 reports, for every method and system configuration, the latency and
on-device energy together with the speedup and energy-reduction relative to
the DGCNN Device-Only reference; this module provides those derived metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


def speedup(reference_latency_ms: float, latency_ms: float) -> float:
    """Speedup factor of ``latency_ms`` relative to the reference (>1 is faster)."""
    if latency_ms <= 0:
        raise ValueError("latency must be positive")
    return reference_latency_ms / latency_ms


def energy_reduction(reference_energy_j: float, energy_j: float) -> float:
    """Fractional energy reduction relative to the reference (0.98 = 98% saved)."""
    if reference_energy_j <= 0:
        raise ValueError("reference energy must be positive")
    return 1.0 - energy_j / reference_energy_j


def fps(latency_ms: float) -> float:
    """Frames per second corresponding to a per-frame latency."""
    if latency_ms <= 0:
        raise ValueError("latency must be positive")
    return 1000.0 / latency_ms


@dataclass
class MethodResult:
    """One row of a comparison table: a method evaluated on one system."""

    method: str
    mode: str  # "D", "E" or "Co"
    accuracy: float
    balanced_accuracy: Optional[float]
    latency_ms: float
    device_energy_j: float

    def relative_to(self, reference: "MethodResult") -> Dict[str, float]:
        """Speedup and energy reduction against a reference row."""
        return {
            "speedup": speedup(reference.latency_ms, self.latency_ms),
            "energy_reduction": energy_reduction(reference.device_energy_j,
                                                 self.device_energy_j),
        }
