import math
import sys

import numpy as np
import pytest

from eggsum import (
    BlockSpec,
    CrossBetween,
    CrossWithin,
    DomainSpec,
    SelfAdjoint,
    ValidationError,
    asymptotic_eigenvalue,
    eigenvalue,
    eigenvalue_bulk,
)
from eggsum import gammakit
from eggsum.commutator import WalkKernel, all_kinds, atom_partition, entry_atoms, validate_kind
from eggsum.lattice import range_count, shell_batches
from eggsum.summability import shell_report

from helpers import brute_shell, domain_with_all_kinds, entries_alone

DISK = DomainSpec.single_block([1.0])
BALL2 = DomainSpec.single_block([1.0, 1.0])


class TestKindValidation:
    def test_cross_within_needs_two_coordinates(self):
        with pytest.raises(ValidationError):
            validate_kind(DISK, CrossWithin(0, 0, 1))
        with pytest.raises(ValidationError):
            validate_kind(BALL2, CrossWithin(0, 1, 1))

    def test_cross_between_needs_two_blocks(self):
        with pytest.raises(ValidationError):
            validate_kind(BALL2, CrossBetween(0, 0, 0, 1))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            validate_kind(DISK, SelfAdjoint(1, 0))
        with pytest.raises(ValidationError):
            validate_kind(DISK, SelfAdjoint(0, 3))

    def test_all_kinds_enumeration(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 2.0), BlockSpec((1.0,), 1.0)))
        kinds = all_kinds(dom)
        selfs = [k for k in kinds if isinstance(k, SelfAdjoint)]
        within = [k for k in kinds if isinstance(k, CrossWithin)]
        between = [k for k in kinds if isinstance(k, CrossBetween)]
        assert len(selfs) == 3 and len(within) == 1 and len(between) == 2


class TestEigenvalues:
    def test_disk_example(self):
        assert eigenvalue(DISK, SelfAdjoint(0, 0), [3]) == pytest.approx(-0.05, abs=1e-12)

    def test_disk_boundary_drops_lowering_term(self):
        assert eigenvalue(DISK, SelfAdjoint(0, 0), [0]) == pytest.approx(-0.5, abs=1e-12)

    def test_disk_closed_form(self):
        idx = np.arange(0, 1001)[:, np.newaxis]
        got = np.abs(eigenvalue_bulk(DISK, SelfAdjoint(0, 0), idx))
        i = idx[:, 0].astype(float)
        expect = 1.0 / ((i + 1.0) * (i + 2.0))
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_ball_cross_within_example(self):
        got = eigenvalue(BALL2, CrossWithin(0, 0, 1), [0, 1])
        assert got == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_cross_vanishes_iff_lowered_entry_zero(self):
        assert eigenvalue(BALL2, CrossWithin(0, 0, 1), [5, 0]) == 0.0
        assert eigenvalue(BALL2, CrossWithin(0, 0, 1), [0, 5]) > 0.0
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 1.0), BlockSpec((2.0,), 1.5)))
        kind = CrossBetween(0, 0, 1, 0)
        assert eigenvalue(dom, kind, [[3], [0]]) == 0.0
        assert eigenvalue(dom, kind, [[0], [3]]) > 0.0

    def test_cross_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(77)
        dom = DomainSpec(blocks=(BlockSpec((1.5, 0.7), 2.0), BlockSpec((1.1,), 1.0)))
        rows = rng.integers(0, 12, size=(50, 3))
        for kind in (CrossWithin(0, 0, 1), CrossBetween(0, 0, 1, 0)):
            vals = eigenvalue_bulk(dom, kind, rows)
            assert np.all(vals >= 0.0)

    def test_permutation_equivariance_exact(self):
        dom = DomainSpec(blocks=(BlockSpec((1.3, 1.3), 2.0), BlockSpec((0.8,), 1.0)))
        for idx in ([2, 7, 1], [0, 4, 3], [9, 9, 2]):
            swapped = [idx[1], idx[0], idx[2]]
            a = eigenvalue(dom, SelfAdjoint(0, 0), idx)
            b = eigenvalue(dom, SelfAdjoint(0, 1), swapped)
            assert a == b

    def test_bulk_matches_scalar(self):
        dom = DomainSpec(blocks=(BlockSpec((2.0, 1.0), 0.8), BlockSpec((1.0,), 1.0)))
        rows = np.array([[0, 0, 0], [1, 2, 3], [4, 0, 2], [5, 5, 5]])
        for kind in (SelfAdjoint(0, 1), CrossWithin(0, 0, 1), CrossBetween(0, 1, 1, 0)):
            bulk = eigenvalue_bulk(dom, kind, rows)
            for row, val in zip(rows, bulk):
                assert val == eigenvalue(dom, kind, [int(v) for v in row])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            eigenvalue_bulk(DISK, SelfAdjoint(0, 0), np.array([[-1]]))

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValidationError):
            eigenvalue_bulk(BALL2, SelfAdjoint(0, 0), np.array([[1.5, 2.0]]))

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ValidationError, match="index rows have 3 columns, expected 2"):
            eigenvalue_bulk(BALL2, SelfAdjoint(0, 0), np.array([[1, 2, 0]]))

    @pytest.mark.parametrize(
        "dom",
        [
            DomainSpec(blocks=(BlockSpec((1.0,), sys.float_info.min), BlockSpec((1.0,), 1.0))),
            DomainSpec(blocks=(BlockSpec((1e200, 1.0), 2.0),)),
            DomainSpec(blocks=(BlockSpec((1e-300,), 1.0), BlockSpec((1.0,), 1.0))),
        ],
        ids=["small-normal-a", "huge-p", "tiny-p"],
    )
    def test_overflow_is_a_validation_error(self, dom):
        # a Gamma term leaves double range: a ValidationError, never a NaN or
        # a RuntimeWarning (which the test configuration turns into an error)
        rows = brute_shell(dom.dimension, 2)
        with pytest.raises(ValidationError):
            eigenvalue_bulk(dom, SelfAdjoint(0, 0), rows)

    @pytest.mark.parametrize("a", [1e-300, 1e-200, 1e300])
    def test_one_block_egg_ignores_its_outer_power(self, a):
        # a one-block egg is the same set for every outer power a, so every
        # kind agrees with a = 1 on shells 0..30, extreme powers included
        for p in ((1.0, 1.0), (1.0, 2.0, 0.5)):
            dom, ref = DomainSpec.single_block(p, a), DomainSpec.single_block(p)
            rows = np.concatenate([brute_shell(dom.dimension, n) for n in range(31)])
            for kind in all_kinds(dom):
                np.testing.assert_allclose(
                    eigenvalue_bulk(dom, kind, rows), eigenvalue_bulk(ref, kind, rows),
                    rtol=1e-14, atol=0.0, err_msg=f"{p} {kind}",
                )


def _random_keyed_domain(seed: int) -> DomainSpec:
    """Two or three blocks whose p and a come from small sets, so that equal
    p inside a block and equal p a across blocks are common."""
    rng = np.random.default_rng(seed)
    blocks = []
    for size in rng.permutation([2, 1, int(rng.integers(0, 2))]):
        if size:
            p = tuple(float(v) for v in rng.choice([0.5, 1.0, 1.5], size))
            blocks.append(BlockSpec(p, float(rng.choice([0.5, 1.0, 2.0, 3.0]))))
    return DomainSpec(blocks=tuple(blocks))


# random domains, most of whose terms are tabulated, and two whose block or
# total-weight terms are evaluated per row: unequal p in a block, and three
# groups of equal p a
KEYED_DOMAINS = [_random_keyed_domain(seed) for seed in range(6)] + [
    DomainSpec(blocks=(BlockSpec((2.0, 1.0), 0.8), BlockSpec((1.0,), 1.0))),
    DomainSpec(blocks=(BlockSpec((1.5,), 2.0), BlockSpec((1.0,), 1.3), BlockSpec((0.6, 0.6), 1.0))),
]


class TestKeyedKernel:
    """The kernel evaluates each Gamma term once per distinct integer key of
    the rows it is given; a row's eigenvalue must not depend on them."""

    @pytest.mark.parametrize(
        "dom", KEYED_DOMAINS,
        ids=[f"random-{seed}" for seed in range(6)] + ["unequal-p-in-block", "three-pa-groups"],
    )
    def test_shell_and_batch_calls_match_single_rows_bitwise(self, dom):
        rng = np.random.default_rng(1)
        shells = [brute_shell(dom.dimension, n) for n in range(0, 15)]
        batch = np.concatenate(shells)
        for kind in all_kinds(dom):
            whole = eigenvalue_bulk(dom, kind, batch)
            per_shell = np.concatenate([eigenvalue_bulk(dom, kind, rows) for rows in shells])
            assert np.array_equal(whole, per_shell), kind
            for i in rng.choice(batch.shape[0], 40, replace=False):
                assert eigenvalue_bulk(dom, kind, batch[i]) == whole[i], (kind, batch[i])

    @pytest.mark.parametrize(
        "kind", [SelfAdjoint(0, 0), CrossWithin(0, 0, 1), CrossBetween(0, 0, 1, 0)],
        ids=["crit4-self", "crit5-within", "crit4-between"],
    )
    def test_gamma_work_per_shell(self, monkeypatch, kind):
        # a shell of degree n in d = 3 has ~n^2/2 rows but O(n) distinct keys
        dom = CRIT5 if isinstance(kind, CrossWithin) else CRIT4
        rows = brute_shell(3, 200)
        elements = []
        for name in ("log_gamma_ratio", "log_gamma_second_difference"):
            routine = getattr(gammakit, name)

            def counted(x, *args, routine=routine):
                elements.append(np.size(x))
                return routine(x, *args)

            monkeypatch.setattr(gammakit, name, counted)
        eigenvalue_bulk(dom, kind, rows)
        assert 0 < sum(elements) <= rows.shape[0] // 8

    @pytest.mark.parametrize(
        "kind, classes",
        [(CrossWithin(0, 0, 1), False), (CrossBetween(0, 0, 1, 0), False),
         (CrossWithin(0, 0, 1), True), (SelfAdjoint(0, 0), True)],
        ids=["crit5-within", "crit4-between", "crit5-within-classes", "crit4-self-classes"],
    )
    def test_gamma_work_per_walk(self, monkeypatch, kind, classes):
        # every row of shells 100..200, each column alone: 87 runs, 1 202 001
        # rows, and each Gamma term evaluated once for the whole walk.  The
        # walk of classes of atom degrees has as many classes as its total
        # weight has pairs of degree sums, but that total's weights are
        # powers of two W/c with c <= 4, so its codes sum c D lie in
        # 0..4 * 200: every table holds at most 4 * 201 entries, and a walk
        # evaluates at most that many Gamma elements per term
        dom = CRIT5 if isinstance(kind, CrossWithin) else CRIT4
        shells = range(100, 201)
        elements = []
        for name in ("log_gamma_ratio", "log_gamma_second_difference"):
            routine = getattr(gammakit, name)

            def counted(x, *args, routine=routine):
                elements.append(np.size(x))
                return routine(x, *args)

            monkeypatch.setattr(gammakit, name, counted)
        atoms = atom_partition(dom, kind) if classes else [[0], [1], [2]]
        evaluations = range_count(len(atoms), shells)
        kernel = WalkKernel(dom, kind, atoms, shells, evaluations)
        runs = 0
        for _, _, rows in shell_batches(len(atoms), shells):
            kernel(rows)
            runs += 1
        assert 0 < len(elements) <= len(kernel.terms)
        assert all(n in keys.tables for keys, n in kernel.terms)
        sizes = [keys.tables[n].size for keys, n in kernel.terms]
        if classes:
            bound = 4 * 201
            assert len(atoms) == 2 and evaluations > 15_000
            assert max(sizes) <= bound and sum(elements) <= bound * len(kernel.terms)
        else:
            assert runs == 87 and evaluations == 1_202_001
            assert sum(elements) <= sum(sizes) < evaluations // 10

    def test_a_code_range_past_the_walk_is_evaluated_per_class(self):
        # weights 2^20 and 1 in the total: its codes sum c D run over about
        # 2^20 * 200 values, more than the walk's classes, and its pairs of
        # degree sums are as many as the classes, so its terms are evaluated
        # per class, byte for byte as with every key set per class
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 2.0**20), BlockSpec((1.0,), 1.0),
                                 BlockSpec((1.0,), 1.0)))
        shells = range(100, 201)
        for kind in (SelfAdjoint(0, 0), CrossBetween(0, 0, 1, 0)):
            atoms = atom_partition(dom, kind)
            evaluations = range_count(len(atoms), shells)
            kernel = WalkKernel(dom, kind, atoms, shells, evaluations)
            per_class = WalkKernel(dom, kind, atoms, shells, 0)
            for first, _, classes in shell_batches(len(atoms), shells):
                got = kernel(classes)
                assert np.all(np.isfinite(got)) and np.any(got != 0.0), (kind, first)
                assert got.tobytes() == per_class(classes).tobytes(), (kind, first)
            total = kernel.key_sets[kernel.outer]
            assert len(total.groups) == 2 and not total.tabulated and total.tables == {}, kind
            assert all(keys.coded for keys, _ in kernel.terms if keys is not total), kind

    def test_powers_of_two_far_apart_leave_double_range_as_before(self):
        # outer powers 2^-600, 2^600 and 1: the total's scales W/w reach
        # 2^1200, so it is evaluated per class, and a Gamma term leaves
        # double range, a ValidationError and never an OverflowError
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 2.0**-600), BlockSpec((1.0,), 2.0**600),
                                 BlockSpec((1.0,), 1.0)))
        with pytest.raises(ValidationError, match="not a finite double"):
            shell_report(dom, SelfAdjoint(0, 0), 3.0, 40)

    def test_no_table_for_a_per_row_key_set(self, monkeypatch):
        # three groups of equal p a: the total weight's key set has as many
        # keys as a 3-D walk has rows, so its terms are evaluated per row and
        # no table holds them
        dom = KEYED_DOMAINS[-1]
        shells = range(20, 40)
        for kind in all_kinds(dom):
            groups = entries_alone(dom, kind)
            evaluations = range_count(len(groups), shells)
            kernel = WalkKernel(dom, kind, groups, shells, evaluations)
            for _, _, classes in shell_batches(len(groups), shells):
                kernel(classes)
            assert len(kernel.outer) == 3
            assert any(keys.groups == kernel.outer for keys, _ in kernel.terms), kind
            for keys, n in kernel.terms:
                if keys.groups == kernel.outer:
                    assert keys.tables == {}, kind
                else:
                    assert keys.tables[n].size < evaluations, (kind, keys.groups)

    @pytest.mark.parametrize("dom, shared", [
        (BALL2, True),
        (DomainSpec.single_block([1.0, 1.0, 2.0]), True),
        (DomainSpec.single_block([1.0, 1.0, 2.0], 2.0), False),
    ], ids=["ball2", "egg3", "egg3-a2"])
    def test_block_and_total_terms_share_a_key_set(self, dom, shared):
        # with one block and a = 1 the block's runs of equal p are the groups
        # of equal p a, so its block and total terms read one key set; the
        # other key sets are single entries
        entries = {((p, (col,)),) for col, (_, p) in enumerate(dom.columns)}
        for kind in all_kinds(dom):
            alone = [[col] for col in range(dom.dimension)]
            kernel = WalkKernel(dom, kind, alone, range(0, 30),
                                range_count(dom.dimension, range(0, 30)))
            sums = {keys.groups for keys, _ in kernel.terms} - entries
            assert sums == ({kernel.outer} if shared else {kernel.outer, kernel.runs[0]}), kind
            assert len({id(keys) for keys, _ in kernel.terms if keys.groups == kernel.outer}) == 1


def _mp_log_norm(dom, idx):
    """ln ||z^idx||^2 at 50 digits, up to the constant d ln(pi), from the
    Dirichlet-Liouville form of the norm integral."""
    mpmath = pytest.importorskip("mpmath")
    total = mpmath.mpf(0)
    outer = mpmath.mpf(0)
    pos = 0
    for blk in dom.blocks:
        a = mpmath.mpf(blk.a)
        s = mpmath.mpf(0)
        for p in blk.p:
            p = mpmath.mpf(p)
            v = (idx[pos] + 1) / p
            total += mpmath.loggamma(v) - mpmath.log(p)
            s += v
            pos += 1
        total += mpmath.loggamma(s / a) - mpmath.loggamma(s) - mpmath.log(a)
        outer += s / a
    return total - mpmath.loggamma(outer + 1)


def _mp_eigenvalue(dom, r, l, idx):
    """Self eigenvalue (l is None) or cross modulus from 50-digit norms."""
    mpmath = pytest.importorskip("mpmath")

    def norm(*shifts):
        shifted = list(idx)
        for col, step in shifts:
            shifted[col] += step
        return mpmath.exp(_mp_log_norm(dom, shifted))

    if l is None:
        value = -norm((r, 1)) / norm()
        if idx[r] > 0:
            value += norm() / norm((r, -1))
        return value
    root = mpmath.sqrt(norm() * norm((r, 1), (l, -1)))
    return abs(root / norm((l, -1)) - norm((r, 1)) / root)


CRIT4 = DomainSpec(blocks=(BlockSpec((1.0,), 2.0), BlockSpec((1.0,), 1.0), BlockSpec((1.0,), 1.0)))
CRIT5 = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 4.0), BlockSpec((1.0,), 1.0)))
FRACTIONAL = DomainSpec(blocks=(BlockSpec((1 / 3, 1 / 3), 2.5), BlockSpec((0.7,), 1.0)))


# a 4-D egg whose block and total terms are all evaluated per row: a block
# of three runs of equal p, and four groups of equal p a
PER_ROW_EGG = DomainSpec(blocks=(BlockSpec((1.3, 0.7, 2.2), 2.5), BlockSpec((0.6,), 1.0)))

# per dimension, a range cut into runs of several shells and one whose
# shells hold more than BATCH_ROWS rows each, a run of their own
WALK_RANGES = {3: [range(50, 62), range(180, 182)], 4: [range(24, 30), range(44, 46)]}

# a 4-D egg whose weights are all powers of two: runs of p 2 and 1 in its
# first block, and groups of p a 1 and 1/2
EGG4_POW2 = DomainSpec(blocks=(BlockSpec((2.0, 1.0), 0.5), BlockSpec((1.0,), 1.0),
                               BlockSpec((4.0,), 0.25)))

# per dimension, class walks from shell 0 and far from it
CLASS_RANGES = {3: [range(0, 40), range(150, 201)], 4: [range(0, 20), range(40, 61)]}


class TestWalkKernel:
    @pytest.mark.parametrize(
        "dom", KEYED_DOMAINS + [FRACTIONAL, PER_ROW_EGG],
        ids=[f"random-{seed}" for seed in range(6)]
        + ["unequal-p-in-block", "three-pa-groups", "fractional", "per-row-egg"],
    )
    def test_walk_matches_per_row_calls_bytewise(self, dom):
        rng = np.random.default_rng(3)
        d = dom.dimension
        alone = [[col] for col in range(d)]
        for kind in all_kinds(dom):
            # a cross kind's walk gives the rows j = i - e_lowered
            lift = np.zeros(d, dtype=np.int64)
            if isinstance(kind, CrossWithin):
                lift[dom.flat_position(kind.block, kind.lowered)] = 1
            elif isinstance(kind, CrossBetween):
                lift[dom.flat_position(kind.lowered_block, kind.lowered_coord)] = 1
            for shells in WALK_RANGES[d]:
                kernel = WalkKernel(dom, kind, alone, shells, range_count(d, shells))
                # every key set evaluated per row, whatever the walk's size
                per_row = WalkKernel(dom, kind, alone, shells, 0)
                for first, offsets, rows in shell_batches(d, shells):
                    got = kernel(rows)
                    assert got.tobytes() == per_row(rows).tobytes(), (kind, first)
                    picks = [0, rows.shape[0] - 1, *rng.choice(rows.shape[0], 4, replace=False)]
                    want = np.concatenate([eigenvalue_bulk(dom, kind, rows[i] + lift)
                                           for i in picks])
                    assert got[picks].tobytes() == want.tobytes(), (kind, first)

    @pytest.mark.parametrize("dom", [CRIT4, CRIT5, EGG4_POW2], ids=["crit4", "crit5", "egg4-pow2"])
    def test_class_walk_matches_per_class_calls_bytewise(self, dom):
        # the classes of atom degrees, as the shell sums walk them; where
        # there are two atoms, the total's pairs of degree sums are as many
        # as the classes, and only its code, by its powers of two, makes it
        # a table
        for kind in all_kinds(dom):
            atoms = atom_partition(dom, kind)
            entries = [col for cols in entry_atoms(dom, kind, atoms).values() for col in cols]
            for shells in CLASS_RANGES[dom.dimension]:
                evaluations = range_count(len(atoms), shells)
                kernel = WalkKernel(dom, kind, atoms, shells, evaluations)
                # every key set evaluated per class, whatever the walk's size
                per_class = WalkKernel(dom, kind, atoms, shells, 0)
                for first, _, classes in shell_batches(len(atoms), shells):
                    got = kernel(classes)
                    assert got.tobytes() == per_class(classes).tobytes(), (kind, first)
                for (x, s), (y, t) in zip(kernel.entry_logs(entries),
                                          per_class.entry_logs(entries)):
                    assert x.tobytes() == y.tobytes() and s.tobytes() == t.tobytes(), kind
                total = kernel.key_sets[kernel.outer]
                assert len(total.groups) == 2 and total.coded, (kind, shells)


class TestHighPrecisionOracle:
    @pytest.mark.parametrize(
        "dom, kind, columns, idx",
        [
            (BALL2, SelfAdjoint(0, 0), (0, None), (3000, 0)),
            (BALL2, SelfAdjoint(0, 0), (0, None), (2999, 1)),
            (DISK, SelfAdjoint(0, 0), (0, None), (99_999,)),
            (CRIT4, SelfAdjoint(0, 0), (0, None), (200, 0, 0)),
            (CRIT5, CrossWithin(0, 0, 1), (0, 1), (199, 1, 0)),
            (CRIT4, CrossBetween(0, 0, 1, 0), (0, 1), (199, 1, 0)),
        ],
        ids=["ball-3000-0", "ball-2999-1", "disk-99999", "crit4-self", "crit5-within",
             "crit4-between"],
    )
    def test_relative_error_against_mpmath(self, dom, kind, columns, idx):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = _mp_eigenvalue(dom, *columns, idx)
            got = eigenvalue(dom, kind, list(idx))
            assert float(abs((got - ref) / ref)) <= 1e-10

    @pytest.mark.parametrize(
        "kind, columns",
        [
            (SelfAdjoint(0, 0), (0, None)),
            (CrossWithin(0, 0, 1), (0, 1)),
            (CrossBetween(0, 0, 1, 0), (0, 2)),
        ],
        ids=["self", "within", "between"],
    )
    def test_tabulated_shell_against_mpmath(self, kind, columns):
        # non-integer p and p a: the tables' weights (D + m)/p are rounded
        # apart from the entries' (i + 1)/p
        mpmath = pytest.importorskip("mpmath")
        rows = brute_shell(FRACTIONAL.dimension, 120)
        values = eigenvalue_bulk(FRACTIONAL, kind, rows)
        with mpmath.workdps(50):
            for i in (0, 1, 119, 120, 2500, 5000, 7259, rows.shape[0] - 2, rows.shape[0] - 1):
                idx = [int(v) for v in rows[i]]
                if columns[1] is not None and idx[columns[1]] == 0:
                    assert values[i] == 0.0, idx
                    continue
                ref = _mp_eigenvalue(FRACTIONAL, *columns, idx)
                assert float(abs((values[i] - ref) / ref)) <= 1e-10, idx


class TestAsymptotics:
    def test_disk_inverse_square(self):
        for t in (10, 100, 1000):
            assert asymptotic_eigenvalue(DISK, SelfAdjoint(0, 0), [t]) == pytest.approx(
                1.0 / t**2
            )
        # and the exact eigenvalue approaches it
        ratio = abs(eigenvalue(DISK, SelfAdjoint(0, 0), [1000])) / asymptotic_eigenvalue(
            DISK, SelfAdjoint(0, 0), [1000]
        )
        assert ratio == pytest.approx(1.0, abs=5e-3)

    def test_ball_self_adjoint_closed_form(self):
        # p = a = 1, index (t, t): first term collapses to (t+1)/(2t+1)^2
        for t in (8, 64, 500):
            got = asymptotic_eigenvalue(BALL2, SelfAdjoint(0, 0), [t, t])
            assert got == pytest.approx((t + 1.0) / (2.0 * t + 1.0) ** 2, rel=1e-14)

    def test_cross_between_closed_form_on_split_ball(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 1.0), BlockSpec((1.0,), 1.0)))
        for a1, b1 in [(3, 5), (40, 7), (256, 256)]:
            got = asymptotic_eigenvalue(dom, CrossBetween(0, 0, 1, 0), [[a1], [b1]])
            expect = math.sqrt(a1 * b1) / (a1 + b1) ** 2
            assert got == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("fixed", [(1, 1), (10, 10), (50, 50)])
    def test_corner_ray_local_exponent(self, fixed):
        # criterion 5's domain with the raised and lowered entries held and
        # the third entry c growing alone: a regime no full ray reaches
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 4.0), BlockSpec((1.0,), 1.0)))
        kind = CrossWithin(0, 0, 1)

        def local_exponent(f, c=10**5):
            ratio = f(dom, kind, [*fixed, 10 * c]) / f(dom, kind, [*fixed, c])
            return math.log(abs(ratio)) / math.log(10.0)

        exact = local_exponent(eigenvalue)
        assert exact == pytest.approx(local_exponent(asymptotic_eigenvalue), abs=1e-3)
        assert exact == pytest.approx(-0.25, abs=1e-4)

    def test_cross_branches_require_positive_entries(self):
        with pytest.raises(ValidationError):
            asymptotic_eigenvalue(BALL2, CrossWithin(0, 0, 1), [0, 3])
        with pytest.raises(ValidationError):
            asymptotic_eigenvalue(BALL2, CrossWithin(0, 0, 1), [3, 0])

    def test_one_dimensional_zero_entry_rejected(self):
        with pytest.raises(ValidationError):
            asymptotic_eigenvalue(DISK, SelfAdjoint(0, 0), [0])

    def _ray_ok(self, dom, kind, v, t0=256):
        ratios = []
        for t in (t0, 2 * t0, 4 * t0):
            idx = [int(t * x) for x in v]
            ev = abs(eigenvalue(dom, kind, idx))
            asym = asymptotic_eigenvalue(dom, kind, idx)
            ratios.append(ev / asym)
        return (
            abs(ratios[1] / ratios[0] - 1.0) <= 0.05
            and abs(ratios[2] / ratios[1] - 1.0) <= 0.05
        )

    def test_ray_ratio_stability(self):
        rng = np.random.default_rng(123)
        for _ in range(3):
            dom = domain_with_all_kinds(rng)
            d = dom.dimension
            kinds = [SelfAdjoint(0, 0), CrossWithin(0, 0, 1), CrossBetween(0, 0, 1, 0)]
            for kind in kinds:
                v = self._pattern(rng, dom, kind, d)
                assert self._ray_ok(dom, kind, v), (dom, kind, v)

    @staticmethod
    def _pattern(rng, dom, kind, d):
        # keep a<1 cross rays clear of the zero set of the |X - tL| factor
        for _ in range(64):
            v = rng.integers(1, 4, size=d).astype(float)
            if not isinstance(kind, CrossWithin) or dom.blocks[kind.block].a >= 1.0:
                return v
            blk = dom.blocks[kind.block]
            t_const = 1.0 / blk.a**2 - 1.0
            x = sum(v[:2]) + sum(v[j] / blk.p[j] for j in range(2, blk.size))
            pos = blk.size
            big_l = 0.0
            for b in dom.blocks[1:]:
                big_l += sum(v[pos + j] / (b.a * b.p[j]) for j in range(b.size))
                pos += b.size
            if abs(x - t_const * big_l) >= 0.25 * x:
                return v
        raise AssertionError("no admissible ray pattern found")
