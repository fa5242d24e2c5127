"""Enumeration of multi-index shells: all i in N^d with |i| = n.

Shells are the natural unit of the tail analysis (the series under study
are organized by total degree), so enumeration is by shell, vectorized,
and deterministic: rows are produced in lexicographic order.  One builder
makes a whole run of consecutive shells in any dimension d >= 1
(``shell_rows``): each shell starts as the one row [n], and d - 1 times
the last entry of every row is split in two, one ``np.repeat`` per column
and split, in int32 below degree 2^31, with no Python loop over shells or
entries.
``shell_indices`` is its one-shell case.  In the package only ``cli``,
``zetalab`` and ``shell_batches`` here call ``shell_rows``, and the
benchmark's lattice metrics (``perfbench/``) time and count
``shell_indices``.

``shell_batches`` is the one walk over the classes of a range of shells:
it cuts the range into runs of the most consecutive shells that fit in
``BATCH_ROWS`` rows (a larger shell alone), found by bisection over the
closed-form
``range_count``, so a caller evaluates and sums a whole run with a few
numpy calls.  It yields rows only; what a row stands for, such as the
rows of a class of atom degrees, is the caller's to count.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb

import numpy as np

from .errors import ValidationError

__all__ = ["BATCH_ROWS", "shell_count", "range_count", "shell_rows", "shell_indices",
           "shell_batches"]

# enough rows to amortise the per-call cost of the numpy kernels, few
# enough that a run's temporaries stay small (2^16-row runs raised the
# threshold bisections' peak memory by 7 MiB)
BATCH_ROWS = 1 << 14


def shell_count(d: int, n: int) -> int:
    """Number of d-tuples of nonnegative integers summing to n."""
    return comb(n + d - 1, d - 1)


def range_count(d: int, shells: range) -> int:
    """Number of d-tuples whose total degree lies in ``shells``, a range of
    step 1 from a shell >= 0: C(n + d, d) tuples have degree at most n,
    and none has degree at most -1, C(d - 1, d) = 0."""
    return comb(shells.stop - 1 + d, d) - comb(shells.start - 1 + d, d)


def shell_indices(d: int, n: int) -> np.ndarray:
    """All multi-indices of total degree n in d variables, shape (count, d).

    int32 entries (int64 from degree 2^31 on); lexicographic row order.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if n < 0:
        raise ValidationError("total degree must be >= 0")
    return shell_rows(d, range(n, n + 1))[0]


def shell_rows(d: int, shells: range) -> tuple[np.ndarray, np.ndarray]:
    """(rows, offsets) of a nonempty range of shells in d >= 1 variables:
    the shells' rows one shell after another, in lexicographic order and
    int32 (int64 from degree 2^31 on), and each shell's start (int64)."""
    entry = np.int32 if shells.stop <= 2**31 else np.int64
    last = np.arange(shells.start, shells.stop, dtype=entry)
    offsets = np.arange(len(shells))
    cols = []
    for _ in range(d - 1):
        # split the last entry L of every row into (x, L - x), x = 0..L:
        # rows stay in lexicographic order, a shell starts where its first
        # row's split does
        counts = last + 1
        starts = np.cumsum(counts, dtype=np.int64) - counts
        # x is a row's place after its split's start: int32 unless the
        # run's rows outgrow it, then cast to the entries' dtype
        size = int(starts[-1] + counts[-1])
        dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
        x = np.arange(size, dtype=dtype)
        x -= np.repeat(starts.astype(dtype), counts)
        x = x.astype(entry, copy=False)
        cols = [np.repeat(c, counts) for c in cols]
        cols.append(x)
        last = np.repeat(last, counts)
        last -= x
        offsets = starts[offsets]
    cols.append(last)
    return np.column_stack(cols), offsets


def shell_batches(dim: int, shells: range):
    """The runs of consecutive shells of the walk over the rows of ``shells``
    in ``dim`` >= 1 variables, as an iterator of (first shell, shell
    offsets, rows): the rows as ``shell_rows`` gives them, ``offsets`` the
    start of each shell among them, so ``first + k`` is the shell starting
    at ``offsets[k]``.  A run holds at most ``BATCH_ROWS`` rows unless it is
    a single shell."""
    first = shells.start
    while first < shells.stop:
        # the most shells whose rows fit in BATCH_ROWS, and at least one
        stop = first + max(1, bisect_right(
            range(first + 1, shells.stop + 1), BATCH_ROWS,
            key=lambda s: range_count(dim, range(first, s)),
        ))
        # name no run: the walk keeps no reference to a yielded run, so the
        # caller can free it as soon as it is done with it
        yield (first, *reversed(shell_rows(dim, range(first, stop))))
        first = stop
