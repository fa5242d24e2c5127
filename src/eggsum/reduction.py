"""Deterministic compensated summation.

``kahan_sum`` sums a 1-D array with Kahan compensation in a fixed order,
so its result is bit-reproducible for a given input; it totals shell sums
and sums the zeta terms of one shell.  The per-shell sums of the
commutator eigenvalues do not come through here: ``summability`` takes
them as pairwise segmented sums (``np.add.reduceat``) over batches of
shells.

``reduce_sum`` is the same sum behind the older signature with a worker
count, which it ignores; it stays because the benchmark's isolated and
traced layer metrics (``perfbench/``) call it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kahan_sum", "reduce_sum"]

_LANES = 1024


def _kahan_scalar(values) -> float:
    s = 0.0
    c = 0.0
    for v in values:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def kahan_sum(values) -> float:
    """Compensated sum of a 1-D array, deterministic for a given input.

    Large inputs run Kahan across fixed-width numpy lanes (vectorized down
    the array), then fold the lane accumulators and the tail sequentially.
    """
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = a.size
    if n == 0:
        return 0.0
    if n < 4 * _LANES:
        return _kahan_scalar(a.tolist())
    rows = n // _LANES
    body = a[: rows * _LANES].reshape(rows, _LANES)
    s = np.zeros(_LANES)
    c = np.zeros(_LANES)
    for r in range(rows):
        y = body[r] - c
        t = s + y
        c = (t - s) - y
        s = t
    return _kahan_scalar(s.tolist() + a[rows * _LANES :].tolist())


def reduce_sum(values, workers: int = 1) -> float:
    """``kahan_sum(values)``; ``workers`` is accepted and ignored."""
    return kahan_sum(values)
