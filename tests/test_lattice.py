import itertools

import numpy as np
import pytest

from eggsum.lattice import (
    BATCH_ROWS,
    cumulative_count,
    range_count,
    shell_batches,
    shell_count,
    shell_indices,
)

RANGES = {
    # d: shell ranges from 0 and from elsewhere, each spanning several batches
    1: [range(0, 2 * BATCH_ROWS + 5), range(7, BATCH_ROWS + 9)],
    2: [range(0, 400), range(150, 330)],
    3: [range(0, 200), range(170, 185)],
    4: [range(0, 45), range(30, 41)],
    5: [range(0, 25), range(18, 24)],
}
CASES = [(d, shells) for d, ranges in RANGES.items() for shells in ranges]


@pytest.mark.parametrize("d, shells", CASES, ids=[f"d{d}-{s.start}-{s.stop}" for d, s in CASES])
def test_batches_concatenate_to_shell_indices(d, shells):
    got = []
    n = shells.start
    for first, offsets, rows in shell_batches(d, shells):
        assert first == n
        assert offsets[0] == 0 and np.all(np.diff(offsets) > 0)
        assert rows.shape[0] <= BATCH_ROWS or len(offsets) == 1
        bounds = list(offsets) + [rows.shape[0]]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(rows[lo:hi], shell_indices(d, n)), n
            n += 1
        got.append(rows)
    assert n == shells.stop
    want = np.concatenate([shell_indices(d, k) for k in shells])
    assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_shell_indices_against_brute_force(d):
    for n in range(11):
        # the d-tuples of 0..n in lexicographic order, filtered by their sum
        want = [row for row in itertools.product(range(n + 1), repeat=d) if sum(row) == n]
        got = shell_indices(d, n)
        assert got.dtype == np.int32
        assert got.shape == (shell_count(d, n), d)
        assert [tuple(row) for row in got.tolist()] == want, (d, n)


def test_batches_of_an_empty_range():
    for d in (1, 2, 3):
        assert list(shell_batches(d, range(5, 5))) == []


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_range_count_is_the_sum_of_shell_counts(d):
    for lo, hi in [(0, 0), (0, 1), (0, 60), (3, 4), (17, 80)]:
        want = sum(shell_count(d, n) for n in range(lo, hi))
        assert range_count(d, range(lo, hi)) == want
        if hi > 0:
            assert cumulative_count(d, hi - 1) - cumulative_count(d, lo - 1) == want
    assert cumulative_count(d, -1) == 0
