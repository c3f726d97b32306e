"""Versioned model repository: the swappable serving table behind a server.

A :class:`ModelRepository` owns the zoo → callables → compiled-plan wiring
behind an immutable, versioned :class:`ServingSnapshot`.  Publishing a new
zoo (:meth:`ModelRepository.publish`) builds the next snapshot *outside* the
lock (plan compilation is the slow part) and then swaps it in atomically —
this is what gives a live :class:`~repro.serving.app.ServingApp` **hot zoo
reload**: the serving table changes between frames, never inside one.

Snapshot pinning
----------------
Hot reload alone is not enough for correctness: a frame whose device segment
ran against snapshot ``v`` must be resumed by snapshot ``v``'s edge segment,
or a republished entry with the same name but different weights/topology
would silently produce wrong logits for every frame in flight across the
swap.  The repository therefore

* stamps every device result's metadata with the producing snapshot version
  (:data:`SNAPSHOT_META_KEY`),
* keeps the last ``retain`` snapshots alive, and
* resolves each edge request to the *pinned* snapshot when it is still
  retained and still holds the entry, falling back to the current one
  otherwise.

A frame is a batch of one on the edge.  Requests coalesced across a publish
may mix pins; the repository's batched router groups them per snapshot and
executes each group through its own snapshot, so **every frame is answered
wholly from exactly one snapshot** — pinned by
``tests/test_serving_hot_reload.py``.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.dispatcher import RuntimeDispatcher
from ..core.executor import FrameState, ServingCallables
from ..core.zoo import ArchitectureZoo
from .builders import build_zoo_callables
from .config import RuntimeConfig

#: Metadata key carrying the snapshot version a frame's device segment ran
#: against; stamped by :meth:`ModelRepository.device_fn` wrappers and read
#: back by the repository's batched routers.
SNAPSHOT_META_KEY = "snapshot"


@dataclass(frozen=True)
class ServingSnapshot:
    """One immutable published version of the serving table.

    Everything a frame needs — the zoo, the per-entry callables and the
    dispatcher built from the zoo's metrics — frozen together, so a frame
    resolved against one snapshot can never observe another's state.
    """

    version: int
    zoo: ArchitectureZoo
    callables: Mapping[str, ServingCallables]
    dispatcher: RuntimeDispatcher

    def names(self) -> List[str]:
        """Entry names served by this snapshot."""
        return list(self.callables)

    def release_buffers(self) -> int:
        """Release the pooled plan buffers of every entry; returns bytes freed.

        Called by the repository when the snapshot falls out of the retained
        window: per-thread arenas otherwise keep every executing thread's
        steady-state buffers pooled for as long as anything references the
        snapshot.  Releasing is safe for a frame still in flight on this
        snapshot — its buffers survive through the frame's own references
        and the arena simply reallocates on the next request.
        """
        return sum(serving.release_buffers()
                   for serving in self.callables.values())


class ModelRepository:
    """Owns the zoo → serving-callables wiring behind versioned snapshots.

    Parameters
    ----------
    in_dim, num_classes:
        Model dimensions every published zoo's entries are built with.
    runtime:
        :class:`~repro.serving.config.RuntimeConfig` applied to every
        published snapshot (compiled vs eager, dtype, plan segments,
        per-entry ``precision_policy``).  Entries
        resolved to ``"int8"`` calibrate on deterministic synthetic frames
        at publish time — repositories are rebuilt from config alone in
        shard workers and cluster nodes, and the seeded synthetic
        calibration is what makes every replica derive bit-identical
        quantization scales (the shard/cluster equivalence guarantee
        extends to quantized entries).
    seed:
        Weight-initialization seed for the per-entry models.
    retain:
        How many snapshots stay alive for in-flight frames pinned to a
        superseded version.  Must be at least 2 for hot reload to keep
        frames in flight across one publish correct; older snapshots are
        dropped (their pinned frames are then served by the current one).
    zoo:
        Convenience: publish this zoo immediately.
    """

    def __init__(self, in_dim: int, num_classes: int, *,
                 runtime: Optional[RuntimeConfig] = None, seed: int = 0,
                 retain: int = 2,
                 zoo: Optional[ArchitectureZoo] = None) -> None:
        if retain < 1:
            raise ValueError(f"retain must be at least 1, got {retain}")
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.runtime = runtime or RuntimeConfig()
        self.seed = seed
        self._retain = retain
        self._lock = threading.Lock()
        #: Serializes whole publishes: the version is allocated before the
        #: pre-swap preparers run but only consumed at the swap, so two
        #: interleaved publishes could otherwise mint the same version.
        self._publish_lock = threading.Lock()
        self._snapshots: Dict[int, ServingSnapshot] = {}
        self._current: Optional[ServingSnapshot] = None
        self._next_version = 1
        self._subscribers: List[Callable[[ServingSnapshot], None]] = []
        self._preparers: List[Callable[[ServingSnapshot], None]] = []
        if zoo is not None:
            self.publish(zoo)

    @property
    def retain(self) -> int:
        """How many snapshots stay alive for pinned in-flight frames."""
        return self._retain

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, zoo: ArchitectureZoo, *,
                version: Optional[int] = None) -> ServingSnapshot:
        """Build and atomically install a new snapshot serving ``zoo``.

        The expensive part — model construction and plan compilation for
        every entry — happens outside the lock, so a live server keeps
        serving the previous snapshot until the single reference swap at
        the end.  Subscribers (attached serving apps) are notified after
        the swap so their servers re-list the new entry names.

        Preparers (see :meth:`add_preparer`) run after the snapshot is
        built but *before* the swap; a raising preparer aborts the publish
        with the old snapshot still installed.  This is the hook the
        process-parallel serving tier uses to replicate the snapshot to
        every shard before any frame can be stamped with its version.

        ``version`` forces the snapshot's version number (it must exceed
        the current one) instead of taking the next sequential value —
        used by shard workers to mirror the parent repository's numbering
        so cross-process snapshot pinning stays aligned.
        """
        if len(zoo) == 0:
            raise ValueError("cannot publish an empty architecture zoo")
        with self._publish_lock:
            return self._publish(zoo, version)

    def _publish(self, zoo: ArchitectureZoo,
                 version: Optional[int]) -> ServingSnapshot:
        callables = build_zoo_callables(zoo, in_dim=self.in_dim,
                                        num_classes=self.num_classes,
                                        config=self.runtime, seed=self.seed)
        dispatcher = RuntimeDispatcher(zoo)
        with self._lock:
            if version is not None:
                if version < self._next_version:
                    raise ValueError(
                        f"explicit snapshot version {version} must be at "
                        f"least {self._next_version} (monotonic versioning)")
                self._next_version = version
            snapshot = ServingSnapshot(
                version=self._next_version, zoo=zoo,
                callables=MappingProxyType(dict(callables)),
                dispatcher=dispatcher)
            # The version is consumed NOW, even if a preparer aborts the
            # publish below: a preparer may already have replicated this
            # version to shard workers, and re-minting it for a different
            # zoo later would make those shards silently serve the aborted
            # zoo's models under the reused number.  Version gaps are
            # harmless; version reuse is not.
            self._next_version = snapshot.version + 1
            preparers = list(self._preparers)
        # Pre-swap hooks: replication to shards etc.  A failure here aborts
        # the publish with the old snapshot still installed (only the
        # version number is burned).
        for prepare in preparers:
            prepare(snapshot)
        released: List[ServingSnapshot] = []
        with self._lock:
            self._snapshots[snapshot.version] = snapshot
            self._current = snapshot
            while len(self._snapshots) > self._retain:
                released.append(self._snapshots.pop(min(self._snapshots)))
            subscribers = list(self._subscribers)
        for old in released:
            # Out of the retained window: no new frame can resolve to this
            # snapshot anymore — free its pooled arena buffers now instead
            # of when the last thread that ever executed its plans dies.
            old.release_buffers()
        for notify in subscribers:
            notify(snapshot)
        return snapshot

    @contextlib.contextmanager
    def publish_barrier(self):
        """No publish can be in flight (or start) while this is held.

        Lets a caller register a preparer and synchronize external state
        with the current snapshot *atomically* with respect to publishes:
        without the barrier, a concurrent publish could read the preparer
        list before the registration and swap after the synchronization —
        invisible to both.  Do not call :meth:`publish` while holding it.
        """
        with self._publish_lock:
            yield

    def add_preparer(self, callback: Callable[[ServingSnapshot], None]) -> None:
        """Register a pre-swap publish hook (see :meth:`publish`)."""
        with self._lock:
            if callback not in self._preparers:
                self._preparers.append(callback)

    def remove_preparer(self, callback: Callable[[ServingSnapshot], None]
                        ) -> None:
        with self._lock:
            if callback in self._preparers:
                self._preparers.remove(callback)

    def subscribe(self, callback: Callable[[ServingSnapshot], None]) -> None:
        """Register a callback invoked after every successful publish."""
        with self._lock:
            if callback not in self._subscribers:
                self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[ServingSnapshot], None]) -> None:
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Version of the current snapshot (0 before the first publish)."""
        with self._lock:
            return self._current.version if self._current is not None else 0

    def snapshot(self) -> ServingSnapshot:
        """The current snapshot; raises before the first publish."""
        with self._lock:
            current = self._current
        if current is None:
            raise RuntimeError("no zoo has been published to this "
                               "repository yet (call publish())")
        return current

    def names(self) -> List[str]:
        """Entry names of the current snapshot."""
        return self.snapshot().names()

    def serving_names(self) -> List[str]:
        """Entry names across every *retained* snapshot (sorted union).

        This is the name set a server's routing table must cover: an
        in-flight frame pinned to the previous snapshot may name an entry
        the current zoo dropped, and it can only reach its retained
        snapshot if the table still routes that name.  Fresh (unpinned)
        frames naming a dropped entry still fail cleanly — the router
        resolves them to the current snapshot, which raises ``KeyError``.
        """
        with self._lock:
            names = set()
            for snapshot in self._snapshots.values():
                names.update(snapshot.callables)
        return sorted(names)

    def _snapshot_for(self, name: str, meta: Mapping) -> ServingSnapshot:
        """The snapshot that must answer a frame for entry ``name``.

        A frame pinned (via :data:`SNAPSHOT_META_KEY`) to a retained
        snapshot that still serves ``name`` gets that snapshot; everything
        else — unpinned frames, evicted versions, renamed entries — gets
        the current one.
        """
        pinned_version = meta.get(SNAPSHOT_META_KEY)
        with self._lock:
            current = self._current
            pinned = (self._snapshots.get(pinned_version)
                      if pinned_version is not None else None)
        if current is None:
            raise RuntimeError("no zoo has been published to this "
                               "repository yet (call publish())")
        if pinned is not None and name in pinned.callables:
            return pinned
        return current

    @staticmethod
    def _entry(snapshot: ServingSnapshot, name: str) -> ServingCallables:
        serving = snapshot.callables.get(name)
        if serving is None:
            raise KeyError(f"no zoo entry named {name!r} in snapshot "
                           f"v{snapshot.version} (available: "
                           f"{snapshot.names()})")
        return serving

    # ------------------------------------------------------------------
    # Device side
    # ------------------------------------------------------------------
    def device_fn(self, name: str) -> Callable[[object], FrameState]:
        """Device callable for entry ``name``, following the current snapshot.

        Each frame executes wholly within one snapshot — resolved once at
        frame start — and its result metadata is stamped with that
        snapshot's version, so the edge side can answer it from the same
        snapshot even when a publish lands while the frame is on the wire.
        After a publish, the *next* frame automatically runs the new
        snapshot's device segment.
        """
        def device_fn(frame: object) -> FrameState:
            snapshot = self.snapshot()
            arrays, meta = self._entry(snapshot, name).device_fn(frame)
            meta = dict(meta)
            meta[SNAPSHOT_META_KEY] = snapshot.version
            return arrays, meta

        return device_fn

    # ------------------------------------------------------------------
    # Edge side: snapshot-routing callables for an EdgeServer table
    # ------------------------------------------------------------------
    def batch_router(self, name: str
                      ) -> Callable[[Sequence[FrameState]], List[FrameState]]:
        def batch_fn(requests: Sequence[FrameState]) -> List[FrameState]:
            # Frames coalesced across a publish may pin different snapshot
            # versions; group them so each group executes wholly within one
            # snapshot — no frame is ever served by a half-swapped table.
            groups: Dict[int, List[int]] = {}
            snapshots: Dict[int, ServingSnapshot] = {}
            for index, (arrays, meta) in enumerate(requests):
                snapshot = self._snapshot_for(name, meta)
                groups.setdefault(snapshot.version, []).append(index)
                snapshots[snapshot.version] = snapshot
            results: List[Optional[FrameState]] = [None] * len(requests)
            for version, indices in groups.items():
                serving = self._entry(snapshots[version], name)
                outputs = serving.batch_fn([requests[i] for i in indices])
                if len(outputs) != len(indices):
                    raise RuntimeError(
                        f"batched callable of {name!r} (snapshot v{version}) "
                        f"returned {len(outputs)} results for "
                        f"{len(indices)} requests")
                for i, output in zip(indices, outputs):
                    results[i] = output
            return results  # fully populated: every index was grouped once

        return batch_fn

    def batch_fns(self) -> Dict[str, Callable[[Sequence[FrameState]],
                                              List[FrameState]]]:
        """Per-entry batched routers, covering every retained snapshot's names."""
        return {name: self.batch_router(name)
                for name in self.serving_names()}

    def select_for_meta(self, meta: Dict) -> Optional[str]:
        """Selector hook dispatching with the *current* snapshot's metrics."""
        return self.snapshot().dispatcher.select_for_meta(meta)
