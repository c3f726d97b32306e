"""GNN architecture zoo.

The search produces several Pareto-interesting architectures in a single run
(lowest latency, lowest device energy, highest accuracy, best overall score);
GCoDE keeps them all in an *architecture zoo* so the runtime dispatcher can
switch between them as conditions change (paper Sec. 3.6), without re-running
the search.  The zoo is JSON-serializable for on-disk deployment bundles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .architecture import Architecture
from .search.common import ScoredArchitecture


@dataclass
class ZooEntry:
    """One deployable architecture together with its expected metrics."""

    name: str
    architecture: Architecture
    accuracy: float
    latency_ms: float
    device_energy_j: float
    tags: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "architecture": self.architecture.to_dict(),
            "accuracy": self.accuracy,
            "latency_ms": self.latency_ms,
            "device_energy_j": self.device_energy_j,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ZooEntry":
        return cls(name=payload["name"],
                   architecture=Architecture.from_dict(payload["architecture"]),
                   accuracy=float(payload["accuracy"]),
                   latency_ms=float(payload["latency_ms"]),
                   device_energy_j=float(payload["device_energy_j"]),
                   tags=list(payload.get("tags", [])))


class ArchitectureZoo:
    """Collection of searched architectures keyed by name."""

    def __init__(self, entries: Optional[Sequence[ZooEntry]] = None) -> None:
        self._entries: Dict[str, ZooEntry] = {}
        for entry in entries or []:
            self.add(entry)

    # ------------------------------------------------------------------
    def add(self, entry: ZooEntry) -> None:
        """Insert or replace an entry (keyed by its name)."""
        self._entries[entry.name] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ZooEntry]:
        return iter(self._entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> ZooEntry:
        if name not in self._entries:
            raise KeyError(f"no architecture named {name!r} in the zoo")
        return self._entries[name]

    def names(self) -> List[str]:
        return list(self._entries)

    def items(self) -> List[Tuple[str, ZooEntry]]:
        """``(name, entry)`` pairs, insertion-ordered (serving-table friendly)."""
        return list(self._entries.items())

    # ------------------------------------------------------------------
    def best(self, objective: str = "latency") -> ZooEntry:
        """Best entry under ``objective`` (latency/energy ascending, accuracy descending)."""
        if not self._entries:
            raise ValueError("the architecture zoo is empty")
        if objective == "latency":
            return min(self, key=lambda e: e.latency_ms)
        if objective == "energy":
            return min(self, key=lambda e: e.device_energy_j)
        if objective == "accuracy":
            return max(self, key=lambda e: e.accuracy)
        raise ValueError(f"unknown objective {objective!r}")

    def filter(self, latency_ms: Optional[float] = None,
               energy_j: Optional[float] = None) -> List[ZooEntry]:
        """Entries meeting the given latency/energy budgets."""
        selected = []
        for entry in self:
            if latency_ms is not None and entry.latency_ms > latency_ms:
                continue
            if energy_j is not None and entry.device_energy_j > energy_j:
                continue
            selected.append(entry)
        return selected

    # ------------------------------------------------------------------
    @classmethod
    def from_search(cls, candidates: Sequence[ScoredArchitecture],
                    prefix: str = "gcode") -> "ArchitectureZoo":
        """Build a zoo from search candidates, tagging the per-objective champions."""
        zoo = cls()
        if not candidates:
            return zoo
        for index, candidate in enumerate(candidates):
            zoo.add(ZooEntry(
                name=f"{prefix}-{index}",
                architecture=candidate.architecture.with_name(f"{prefix}-{index}"),
                accuracy=candidate.accuracy,
                latency_ms=candidate.latency_ms,
                device_energy_j=candidate.device_energy_j))
        for objective in ("latency", "energy", "accuracy"):
            champion = zoo.best(objective)
            if f"best-{objective}" not in champion.tags:
                champion.tags.append(f"best-{objective}")
        return zoo

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the zoo to a JSON file."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"entries": [entry.to_dict() for entry in self]}, handle,
                      indent=2)

    @classmethod
    def load(cls, path: str) -> "ArchitectureZoo":
        """Load a zoo previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls([ZooEntry.from_dict(entry) for entry in payload["entries"]])
