"""Known-clean take-mode fixture: every gather into out names its mode."""

import numpy as np


def gather_checked(x, idx, out):
    np.take(x, idx, axis=0, out=out, mode="wrap")  # indices checked upstream
    return out


def gather_raising(x, idx, out):
    x.take(idx, axis=0, out=out, mode="raise")  # the check, said out loud
    return out


def gather_positional(x, idx, out):
    np.take(x, idx, 0, out, "clip")  # mode as the fifth positional argument
    return out


def fresh(x, idx):
    return np.take(x, idx, axis=0)  # no out: nothing to copy into


def pooled(arena, slot, shape, dtype):
    return arena.take(slot, shape, dtype)  # BufferArena.take, not numpy's


def forwarded(x, idx, **options):
    return np.take(x, idx, **options)  # opaque keywords: not judged
