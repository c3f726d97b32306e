"""Shared containers for the architecture-search strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..architecture import Architecture
from ..performance import EfficiencyEstimate

#: Score assigned to invalid / constraint-violating candidates (Alg. 1 line 12).
FAILED_SCORE = -1.0


@dataclass(frozen=True)
class SearchConstraints:
    """User requirements driving the constraint-based search.

    Attributes
    ----------
    latency_ms:
        Latency constraint ``C_lat``; ``None`` disables the check.
    energy_j:
        On-device energy constraint ``C_e``; ``None`` disables the check.
    tradeoff_lambda:
        The scaling factor λ weighting efficiency against accuracy in the
        score.  Smaller values favour accuracy, larger values favour speed
        (paper Sec. 4.2, "Accuracy vs. Latency").
    """

    latency_ms: Optional[float] = None
    energy_j: Optional[float] = None
    tradeoff_lambda: float = 0.1

    def satisfied_by(self, estimate: EfficiencyEstimate) -> bool:
        """Whether an efficiency estimate meets both constraints."""
        if self.latency_ms is not None and estimate.latency_ms >= self.latency_ms:
            return False
        if self.energy_j is not None and estimate.device_energy_j >= self.energy_j:
            return False
        return True

    def normalized_cost(self, estimate: EfficiencyEstimate,
                        latency_scale: float, energy_scale: float) -> float:
        """Normalized ``P_sys + E_dev`` term of the score."""
        latency_ref = self.latency_ms if self.latency_ms else latency_scale
        energy_ref = self.energy_j if self.energy_j else energy_scale
        latency_term = estimate.latency_ms / max(latency_ref, 1e-9)
        energy_term = estimate.device_energy_j / max(energy_ref, 1e-9)
        return latency_term + energy_term


@dataclass
class ScoredArchitecture:
    """One evaluated candidate with all the quantities behind its score."""

    architecture: Architecture
    accuracy: float
    balanced_accuracy: float
    latency_ms: float
    device_energy_j: float
    score: float
    trial: int


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best: Optional[ScoredArchitecture]
    candidates: List[ScoredArchitecture] = field(default_factory=list)
    #: Score of every trial in order (``FAILED_SCORE`` for rejected trials);
    #: this is the trajectory plotted in the paper's Fig. 10(a).
    score_history: List[float] = field(default_factory=list)
    num_invalid: int = 0
    num_constraint_violations: int = 0

    @property
    def num_trials(self) -> int:
        return len(self.score_history)

    def best_score_curve(self) -> List[float]:
        """Running maximum of the score history (the Fig. 10a curve)."""
        best = float("-inf")
        curve: List[float] = []
        for score in self.score_history:
            best = max(best, score)
            curve.append(best)
        return curve

    def top_k(self, k: int, objective: str = "score") -> List[ScoredArchitecture]:
        """Top-``k`` candidates under a given objective.

        Objectives: ``"score"`` (default), ``"accuracy"``, ``"latency"``
        (ascending) and ``"energy"`` (ascending).
        """
        if objective == "score":
            key: Callable[[ScoredArchitecture], float] = lambda c: -c.score
        elif objective == "accuracy":
            key = lambda c: -c.accuracy
        elif objective == "latency":
            key = lambda c: c.latency_ms
        elif objective == "energy":
            key = lambda c: c.device_energy_j
        else:
            raise ValueError(f"unknown objective {objective!r}")
        return sorted(self.candidates, key=key)[:k]
