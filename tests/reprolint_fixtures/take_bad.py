"""Known-bad fixture for the take-mode checker.

Gathers into a caller's buffer with numpy's default ``mode="raise"``,
which allocates a temporary of the buffer's size and copies it over.
"""

import numpy as np
from numpy import take


def gather_rows(x, idx, out):
    np.take(x, idx, axis=0, out=out)  # module function, out by keyword
    return out


def gather_method(x, idx, out):
    x.take(idx, axis=0, out=out)  # ndarray method, same default
    return out


def gather_positional(x, idx, out):
    np.take(x, idx, 0, out)  # out as the fourth positional argument
    return out


def gather_bare(x, idx, out):
    take(x, idx, axis=0, out=out)  # from-imported function
    return out
