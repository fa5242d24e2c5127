"""Enumeration of multi-index shells: all i in N^d with |i| = n.

Shells are the natural unit of the tail analysis (the series under study
are organized by total degree), so enumeration is by shell, vectorized,
and deterministic: rows are produced in lexicographic order.
``shell_indices`` builds a shell of any dimension from its two-column
form by splitting the last entry of every row, one ``np.repeat`` per
column and split, with no Python loop over entries.

``shell_batches`` is the one walk over a range of shells: it groups
consecutive shells into runs of about ``BATCH_ROWS`` rows (a larger shell
is a run of its own), so a caller evaluates and sums a whole run with a
few numpy calls instead of a few per shell.  Row counts of a range come
from the closed form ``cumulative_count``.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import ValidationError

__all__ = ["BATCH_ROWS", "shell_count", "cumulative_count", "range_count", "shell_indices",
           "shell_batches"]

# enough rows to amortise the per-call cost of the numpy kernels, few
# enough that a run's temporaries stay small (2^16-row runs raised the
# threshold bisections' peak memory by 7 MiB)
BATCH_ROWS = 1 << 14


def shell_count(d: int, n: int) -> int:
    """Number of d-tuples of nonnegative integers summing to n."""
    return comb(n + d - 1, d - 1)


def cumulative_count(d: int, n_max: int) -> int:
    """Number of d-tuples with total degree <= n_max (0 for n_max < 0)."""
    return comb(n_max + d, d) if n_max >= 0 else 0


def range_count(d: int, shells: range) -> int:
    """Number of d-tuples whose total degree lies in ``shells`` (step 1)."""
    return cumulative_count(d, shells.stop - 1) - cumulative_count(d, shells.start - 1)


def shell_indices(d: int, n: int) -> np.ndarray:
    """All multi-indices of total degree n in d variables, shape (count, d).

    int32 entries; lexicographic row order.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if n < 0:
        raise ValidationError("total degree must be >= 0")
    if d == 1:
        return np.array([[n]], dtype=np.int32)
    cols = [np.arange(n + 1, dtype=np.int32)]
    last = n - cols[0]
    for _ in range(d - 2):
        # split the last entry L of every row into (x, L - x), x = 0..L:
        # rows stay in lexicographic order
        counts = last + 1
        starts = np.cumsum(counts, dtype=np.int64) - counts
        x = (np.arange(starts[-1] + counts[-1]) - np.repeat(starts, counts)).astype(np.int32)
        cols = [np.repeat(c, counts) for c in cols]
        cols.append(x)
        last = np.repeat(last, counts) - x
    cols.append(last)
    return np.column_stack(cols)


def shell_batches(d: int, shells: range):
    """Yield (first shell, shell offsets, rows) for runs of consecutive shells.

    ``rows`` are the run's multi-indices in shell order, each shell as
    ``shell_indices`` gives it, and ``offsets`` the start of each shell
    inside them, so ``first + k`` is the shell starting at ``offsets[k]``.
    A run holds at most ``BATCH_ROWS`` rows unless it is a single shell.
    """
    if d == 1:
        for lo in range(shells.start, shells.stop, BATCH_ROWS):
            hi = min(lo + BATCH_ROWS, shells.stop)
            yield lo, np.arange(hi - lo), np.arange(lo, hi, dtype=np.int32)[:, np.newaxis]
        return
    first = shells.start
    while first < shells.stop:
        stop = first + 1
        while stop < shells.stop and range_count(d, range(first, stop + 1)) <= BATCH_ROWS:
            stop += 1
        parts = [shell_indices(d, n) for n in range(first, stop)]
        offsets = np.cumsum([0] + [part.shape[0] for part in parts[:-1]])
        # pop a lone shell: the walk keeps no reference to a yielded run, so
        # the caller can free it as soon as it is done with it
        yield first, offsets, np.concatenate(parts) if len(parts) > 1 else parts.pop()
        first = stop
