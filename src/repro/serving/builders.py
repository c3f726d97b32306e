"""Config-driven builders turning models and zoos into engine callables.

The only ways from a model to its engine callables; both take one
:class:`~repro.serving.config.RuntimeConfig`:

* :func:`build_callables` — one trained/initialized model into a
  :class:`~repro.core.executor.ServingCallables`, and
* :func:`build_zoo_callables` — every entry of an
  :class:`~repro.core.zoo.ArchitectureZoo` into per-entry callables sharing
  one per-entry lock.

Both route through the single internal
:func:`repro.core.executor._build_callables` helper, so the runtime knobs
are resolved in exactly one place.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

from ..core.executor import (ArchitectureModel, ServingCallables,
                             _build_callables)
from ..core.zoo import ArchitectureZoo
from .config import RuntimeConfig


def build_callables(model: ArchitectureModel,
                    config: Optional[RuntimeConfig] = None, *,
                    lock: Optional[threading.Lock] = None,
                    entry_name: Optional[str] = None,
                    calibration_frames: Optional[Sequence] = None
                    ) -> ServingCallables:
    """Build all three engine callables for one model.

    The model keeps its weights (use this for entries trained elsewhere —
    plans resolve parameters at call time, so a later ``load_state_dict``
    is honored).  Pass ``lock`` to serialize the callables when they may be
    invoked concurrently; :class:`~repro.core.executor.ArchitectureModel`
    is not thread-safe.

    ``entry_name`` picks the entry's precision from the config's
    ``precision_policy``.  For int8 entries, ``calibration_frames`` (a
    sequence of :class:`~repro.graph.data.Batch`, ideally representative
    sample data) drives the post-training calibration; when omitted the
    builder calibrates on deterministic synthetic frames — fine for
    benchmarks and replica-consistent rebuilds, but accuracy-critical
    deployments should pass real frames.
    """
    config = config or RuntimeConfig()
    return _build_callables(model, config, lock=lock, entry_name=entry_name,
                            calibration_frames=calibration_frames)


def build_zoo_callables(zoo: ArchitectureZoo, *, in_dim: int,
                        num_classes: int,
                        config: Optional[RuntimeConfig] = None,
                        seed: int = 0,
                        calibration_frames: Optional[Sequence] = None
                        ) -> Dict[str, ServingCallables]:
    """Build :class:`~repro.core.executor.ServingCallables` for every zoo entry.

    Each entry gets a freshly initialized model (from ``seed``) and one
    compiled plan, run by its per-frame and its batched callables alike,
    whose buffer arenas live as long as the returned callables, which is how
    an edge server keeps per-entry arenas across requests.  All callables of one
    entry share a per-entry lock (shared model, not thread-safe); distinct
    entries still execute in parallel.

    Entry names are threaded through to the config's ``precision_policy``,
    so one zoo can serve mixed precisions (e.g. a hot entry at int8, the
    rest at float64); ``calibration_frames`` is shared by every int8 entry.
    """
    config = config or RuntimeConfig()
    callables: Dict[str, ServingCallables] = {}
    for entry in zoo:
        model = ArchitectureModel(entry.architecture, in_dim=in_dim,
                                  num_classes=num_classes, seed=seed)
        callables[entry.name] = build_callables(
            model, config, lock=threading.Lock(), entry_name=entry.name,
            calibration_frames=calibration_frames)
    return callables
