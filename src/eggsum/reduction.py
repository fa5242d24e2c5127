"""The one summation routine: numpy's pairwise sum.

``pairwise_sum`` sums a 1-D array with ``np.sum``, or each segment of it
with one ``np.add.reduceat`` over the segment offsets; numpy sums a
contiguous run pairwise in both cases, so the result is fixed for a given
input and its rounding error grows with log2 of the length, not with the
length.  Every commutator shell sum, every run of a weighed atom's fold
over pairs of entry degrees (``summability._entry_weights``), and every
total of shell sums (commutator and zeta) comes through here; a zeta shell
sum is a convolution entry of ``zetalab._fold``, not a pairwise sum.

``reduce_sum`` is the plain sum behind the older signature with a worker
count, which it ignores; it stays because the benchmark's isolated and
traced layer metrics (``perfbench/``) call it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_sum", "reduce_sum"]


def pairwise_sum(values, offsets=None):
    """Pairwise sum of ``values`` as a float, or, given the start offsets of
    consecutive segments, the array of the segments' pairwise sums."""
    if offsets is None:
        return float(np.sum(values))
    return np.add.reduceat(values, offsets)


def reduce_sum(values, workers: int = 1) -> float:
    """``pairwise_sum(values)``; ``workers`` is accepted and ignored."""
    return pairwise_sum(np.asarray(values, dtype=np.float64).ravel())
