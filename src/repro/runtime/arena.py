"""Shape-keyed buffer arena for steady-state inference serving.

Eager execution allocates a fresh output array for every operation of every
frame.  Under steady-state serving the shapes repeat — fixed point-cloud
sizes, a fixed ``max_batch_size`` — so the compiled runtime instead writes
each step's output into a pre-allocated buffer owned by a
:class:`BufferArena` and reuses it on the next frame via ``out=``.

Aliasing contract
-----------------
Arena buffers are *internal* to one plan execution: anything a plan hands
back to its caller (wire states, logits) is copied out of the arena first,
so a result can never be silently overwritten by the next frame.  The tests
in ``tests/test_runtime_plans.py`` pin this down.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class BufferArena:
    """Pool of pre-allocated ndarray buffers keyed by slot id.

    Each compiled plan step owns one or more integer *slots*; :meth:`take`
    returns the slot's buffer when its shape and dtype still match (the
    steady-state case) and reallocates otherwise.  The hit/allocation
    counters make buffer reuse observable — benchmarks and tests assert that
    steady-state serving stops allocating after the first frame.
    """

    def __init__(self) -> None:
        self._buffers: Dict[object, np.ndarray] = {}
        #: Buffers (re)allocated because the slot was empty or its shape or
        #: dtype changed.
        self.allocations = 0
        #: Requests served from an existing buffer without allocating.
        self.hits = 0
        #: Reallocations caused by a slot changing *dtype* — in a correctly
        #: slotted mixed-precision plan this stays 0 after warm-up (int8 and
        #: float buffers must live in distinct slots, never thrash one).
        self.retypes = 0

    def take(self, slot: object, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Return a writable ``(shape, dtype)`` buffer for ``slot``.

        The contents are uninitialized (or stale from the previous frame);
        every kernel writing into an arena buffer must fully overwrite it.
        """
        shape = tuple(int(dim) for dim in shape)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(slot)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            if buffer is not None and buffer.dtype != dtype:
                self.retypes += 1
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[slot] = buffer
            self.allocations += 1
        else:
            self.hits += 1
        return buffer

    def clear(self) -> None:
        """Drop every pooled buffer (e.g. before serving a new shape regime)."""
        self._buffers.clear()

    def dtype_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-dtype view of the pooled buffers: ``{dtype: {slots, nbytes}}``.

        Makes mixed-precision footprints observable — a quantized plan
        should show its bulk bytes under int8/int16 with only small float32
        entries (scales, logits), and the per-dtype slot counts let tests
        assert that precisions occupy disjoint slots instead of thrashing.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for buffer in self._buffers.values():
            entry = stats.setdefault(buffer.dtype.name,
                                     {"slots": 0, "nbytes": 0})
            entry["slots"] += 1
            entry["nbytes"] += int(buffer.nbytes)
        return stats

    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return int(sum(buffer.nbytes for buffer in self._buffers.values()))
