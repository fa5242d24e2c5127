import itertools

import numpy as np
import pytest

from eggsum import BlockSpec, CrossBetween, CrossWithin, DomainSpec, SelfAdjoint
from eggsum.commutator import atom_partition
from eggsum.lattice import BATCH_ROWS, range_count, shell_batches, shell_count, shell_indices
from eggsum.summability import _class_mult, _counts

from helpers import brute_shell, entries_alone


def _alone(d):
    """The partition of d columns with every column alone."""
    return [[col] for col in range(d)]


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
            assert np.array_equal(rows[lo:hi], brute_shell(d, n)), n
            n += 1
        got.append(rows)
    assert n == shells.stop
    want = np.concatenate([brute_shell(d, k) for k in shells])
    assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_shell_indices_against_brute_force(d):
    for n in range(11):
        want = brute_shell(d, n)
        # the reference itself: the d-tuples of 0..n in lexicographic order,
        # filtered by their sum
        rows = [row for row in itertools.product(range(n + 1), repeat=d) if sum(row) == n]
        assert [tuple(row) for row in want.tolist()] == rows, (d, n)
        got = shell_indices(d, n)
        assert got.dtype == np.int32
        assert got.shape == (shell_count(d, n), d)
        assert np.array_equal(got, want), (d, n)


def test_entries_past_int32():
    # from degree 2^31 on an entry needs int64; below it the rows stay int32
    [(_, _, rows)] = shell_batches(1, range(2**31 - 1, 2**31 + 2))
    assert rows.dtype == np.int64 and rows[:, 0].tolist() == [2**31 - 1, 2**31, 2**31 + 1]
    assert shell_indices(1, 2**31 - 1).dtype == np.int32


def test_batches_of_an_empty_range():
    for d in (1, 2, 3):
        assert list(shell_batches(d, range(5, 5))) == []


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_range_count_is_the_sum_of_shell_counts(d):
    for lo, hi in [(0, 0), (0, 1), (0, 60), (3, 4), (17, 80)]:
        want = sum(shell_count(d, n) for n in range(lo, hi))
        assert range_count(d, range(lo, hi)) == want


CRIT4 = DomainSpec(blocks=(BlockSpec((1.0,), 2.0), BlockSpec((1.0,), 1.0), BlockSpec((1.0,), 1.0)))
CRIT5 = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 4.0), BlockSpec((1.0,), 1.0)))
BALL4 = DomainSpec.single_block([1.0, 1.0, 1.0, 1.0])
# p a = 2 on every column outside block 0, in blocks of unequal a
EGG5 = DomainSpec(
    blocks=(BlockSpec((1.0, 1.0), 2.0), BlockSpec((2.0,), 1.0), BlockSpec((1.0, 1.0), 2.0))
)
# a cross kind's atoms hold its raised and lowered columns: the runs of its
# blocks of two or more columns, the rest by p a; the self kind's raised
# column is alone, the rest of its block by p, the rest by p a
ATOMS = [
    ("crit4-self", CRIT4, SelfAdjoint(0, 0), [[0], [1, 2]]),
    ("crit4-between", CRIT4, CrossBetween(0, 0, 1, 0), [[0], [1, 2]]),
    ("crit5-within", CRIT5, CrossWithin(0, 0, 1), [[0, 1], [2]]),
    ("ball4-within", BALL4, CrossWithin(0, 0, 1), [[0, 1, 2, 3]]),
    ("egg5-between", EGG5, CrossBetween(0, 0, 2, 1), [[0, 1], [2], [3, 4]]),
    ("egg3-within-split", DomainSpec.single_block([1.0, 1.0, 2.0]), CrossWithin(0, 0, 2),
     [[0, 1], [2]]),
]


@pytest.mark.parametrize("dom, kind, want", [c[1:] for c in ATOMS], ids=[c[0] for c in ATOMS])
def test_atom_partition(dom, kind, want):
    assert atom_partition(dom, kind) == want


def _brute_classes(groups, n):
    """{group degrees: multiplicity} of shell n by counting its rows."""
    d = sum(len(g) for g in groups)
    out = {}
    for row in brute_shell(d, n).tolist():
        degrees = tuple(sum(row[c] for c in g) for g in groups)
        out[degrees] = out.get(degrees, 0) + 1
    return out


@pytest.mark.parametrize("groups, shells", [
    ([[0], [1, 2]], range(0, 40)),
    ([[0], [1, 2, 3]], range(0, 30)),
    ([[0, 2], [1], [3]], range(10, 25)),
    ([[0], [1, 2], [3, 4]], range(0, 20)),
    ([[0, 1, 2]], range(0, 50)),
])
def test_classes_count_the_rows_of_each_shell(groups, shells):
    # the walk over the groups' degrees, with the rows of each class counted
    # as the sums count them (``summability._counts``)
    d = sum(len(g) for g in groups)
    counts = _counts(dict(enumerate(len(g) for g in groups)), shells.stop)
    n = shells.start
    for first, offsets, rows in shell_batches(len(groups), shells):
        mult = _class_mult(counts, rows)
        assert first == n and mult.dtype == np.float64
        bounds = list(offsets) + [rows.shape[0]]
        for lo, hi in zip(bounds, bounds[1:]):
            assert mult[lo:hi].sum() == shell_count(d, n)
            got = {tuple(r): m for r, m in zip(rows[lo:hi].tolist(), mult[lo:hi].tolist())}
            assert got == _brute_classes(groups, n), n
            n += 1
    assert n == shells.stop


def test_class_runs_are_batched_by_class_count():
    groups = [[0], [1, 2, 3]]
    n = 0
    for first, offsets, rows in shell_batches(len(groups), range(0, 600)):
        assert rows.shape[0] <= BATCH_ROWS or len(offsets) == 1
        assert rows.shape[0] == range_count(2, range(first, first + offsets.size))
        n = first + offsets.size
    assert n == 600


RUN_CASES = [(_alone(d), shells) for d, shells in CASES] + [
    (entries_alone(CRIT4, SelfAdjoint(0, 0)), range(0, 400)),
    (entries_alone(BALL4, CrossWithin(0, 0, 1)), range(0, 120)),
]


@pytest.mark.parametrize("groups, shells", RUN_CASES,
                         ids=[f"{g}-{s.start}-{s.stop}" for g, s in RUN_CASES])
def test_each_run_holds_the_most_shells_that_fit(groups, shells):
    dim = len(groups)
    runs = [(first, offsets.size) for first, offsets, _ in shell_batches(dim, shells)]
    assert len(runs) > 1
    for first, size in runs[:-1]:
        assert size == 1 or range_count(dim, range(first, first + size)) <= BATCH_ROWS
        assert range_count(dim, range(first, first + size + 1)) > BATCH_ROWS, first
    assert sum(size for _, size in runs) == len(shells)
