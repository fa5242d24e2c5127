"""The two summation routines: numpy's pairwise sum and one truncated
convolution.

``pairwise_sum`` sums a 1-D array with ``np.sum``, or each segment of it
with one ``np.add.reduceat`` over the segment offsets; numpy sums a
contiguous run pairwise in both cases, so the result is fixed for a given
input and its rounding error grows with log2 of the length, not with the
length.  Every commutator shell sum and every total of shell sums
(commutator and zeta) comes through here.

``fold`` is the truncated convolution of nonnegative sequences, made
``_BLOCK`` terms at a time: every zeta shell sum is one of its terms
(``zetalab``), and so is every weight of an atom that holds both of a
cross kind's entries (``summability._entry_weights``), there on output
blocks that a tilt keeps in range.

``reduce_sum`` is the plain sum behind the older signature with a worker
count, which it ignores; it stays because the benchmark's isolated and
traced layer metrics (``perfbench/``) call it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_sum", "reduce_sum", "fold"]

# terms of the running sequence per block in ``fold``: each dot product
# is at most this long and stays in L1 cache (best of 256/512/1024 at
# N = 300 .. 20 000)
_BLOCK = 512


def pairwise_sum(values, offsets=None):
    """Pairwise sum of ``values`` as a float, or, given the start offsets of
    consecutive segments, the array of the segments' pairwise sums."""
    if offsets is None:
        return float(np.sum(values))
    return np.add.reduceat(values, offsets)


def reduce_sum(values, workers: int = 1) -> float:
    """``pairwise_sum(values)``; ``workers`` is accepted and ignored."""
    return pairwise_sum(np.asarray(values, dtype=np.float64).ravel())


def fold(seqs: list[np.ndarray], N: int, first: int = 0) -> np.ndarray:
    """Terms first..N of the convolution of the nonnegative ``seqs`` (N + 1
    terms each) in order, cut to N + 1 terms after each step, ``first``
    applied to the last step only; [1, 0, ..., 0][first:], the empty
    product, when there are none.

    Each step forms only the kept terms: the running sequence is taken
    ``_BLOCK`` terms at a time, in blocks that end where a kept term could
    start, and a block adds its convolution's head into the terms it
    reaches, so every term is a sum of dot products of at most ``_BLOCK``
    terms each.  A block wholly below ``first`` reaches every kept term
    with all of its terms, and makes only those (``np.convolve``'s valid
    mode).  Up to N + 1 = ``_BLOCK`` and first = 0 a step is one
    ``np.convolve`` call.  The sequences are non-negative, so the blocked
    summation order keeps each term's relative accuracy.
    """
    if not seqs:
        out = np.zeros(N + 1 - first)
        if not first:
            out[0] = 1.0
        return out
    out = seqs[0]
    for k, w in enumerate(seqs[1:], 2):
        out = _step(out, w, N, first if k == len(seqs) else 0)
    return out if len(seqs) > 1 else out[first : N + 1]


def _step(out: np.ndarray, w: np.ndarray, N: int, first: int) -> np.ndarray:
    """Terms first..N of the convolution of ``out`` and ``w``, block by
    block of ``out`` (``fold``)."""
    bounds = [0, *range(first % _BLOCK or _BLOCK, N + 1, _BLOCK), N + 1]
    head = None
    for i, j in zip(bounds, bounds[1:]):
        if j <= first:
            # terms first..N, whole dot products of out[i:j]
            part = np.convolve(out[i:j], w[first - j + 1 : N + 1 - i], "valid")
        else:
            part = np.convolve(out[i:j], w[: N + 1 - i])[: N + 1 - i]
        if head is None:
            head = part
        else:
            head[max(i - first, 0) :] += part
    return head
