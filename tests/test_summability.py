import math
import sys
import tracemalloc

import numpy as np
import pytest

from eggsum import (
    BlockSpec,
    BracketError,
    CrossBetween,
    CrossWithin,
    DomainSpec,
    ResourceCapError,
    SelfAdjoint,
    ValidationError,
    Verdict,
    empirical_threshold,
    module_threshold,
    module_threshold_breakdown,
    predicted_threshold,
    shell_report,
)
from eggsum import gammakit, lattice, summability
from eggsum.commutator import all_kinds, atom_partition, eigenvalue_bulk
from eggsum.lattice import BATCH_ROWS, range_count, shell_batches, shell_count
from eggsum.summability import (
    _class_mult,
    _counts,
    _magnitude_batches,
    _power_sums,
    _walk,
    classify_slope,
    fit_tail_slope,
    tail_fit,
    MIN_FIT_POINTS,
    max_predicted_over_kinds,
    require_fit_window,
    threshold_report,
    zero_shell_sums,
)

from helpers import brute_shell, entries_alone, random_domain


def _count_gamma_calls(monkeypatch) -> list:
    """The names of the ``gammakit`` routines called from now on, in order."""
    calls = []
    for name in ("log_gamma", "log_gamma_ratio", "log_gamma_second_difference"):
        routine = getattr(gammakit, name)

        def counted(*args, name=name, routine=routine):
            calls.append(name)
            return routine(*args)

        monkeypatch.setattr(gammakit, name, counted)
    return calls


DISK = DomainSpec.single_block([1.0])
BALL2 = DomainSpec.single_block([1.0, 1.0])
SELF = SelfAdjoint(0, 0)


def synthetic_report(power: float, N: int = 10_000):
    n = np.arange(N + 1, dtype=np.float64)
    sums = np.zeros(N + 1)
    sums[1:] = n[1:] ** power
    return sums


class TestShellSums:
    def test_disk_closed_form(self):
        rep = shell_report(DISK, SELF, 1.0, 64)
        n = np.arange(65, dtype=np.float64)
        expect = 1.0 / ((n + 1.0) * (n + 2.0))
        assert np.max(np.abs(rep.shell_sums - expect)) <= 1e-12

    def test_ball_cross_shell_zero_vanishes(self):
        rep = shell_report(BALL2, CrossWithin(0, 0, 1), 2.0, 16)
        assert rep.shell_sums[0] == 0.0
        assert rep.shell_sums[1] > 0.0

    def test_n16_gives_17_values(self):
        rep = shell_report(BALL2, SELF, 1.5, 16)
        assert len(rep.shell_sums) == 17
        assert np.all(np.isfinite(rep.shell_sums))

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            shell_report(DISK, SELF, 0.0, 64)
        with pytest.raises(ValidationError):
            shell_report(DISK, SELF, math.inf, 64)
        with pytest.raises(ValidationError):
            shell_report(DISK, SELF, 1.0, 8)
        with pytest.raises(ValidationError, match="cap must be a positive term count"):
            shell_report(DISK, SELF, 1.0, 64, cap=0)

    def test_a_slope_that_cannot_be_fitted_is_refused(self):
        # p = 1000 leaves no positive sum in the window: an error, not a NaN slope
        with pytest.raises(ValidationError, match="only 0 shell sums in the fit window are "
                                                  "positive, the tail fit needs 8"):
            shell_report(BALL2, SELF, 1000.0, 100)

    def test_cap_exceeded_is_loud(self):
        with pytest.raises(ResourceCapError):
            shell_report(BALL2, SELF, 1.0, 1000, cap=1000)

    def test_d4_needs_explicit_cap(self):
        dom = DomainSpec.single_block([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ResourceCapError):
            shell_report(dom, SELF, 1.0, 20)
        rep = shell_report(dom, SELF, 1.0, 20, cap=100_000)
        assert len(rep.shell_sums) == 21

    @pytest.mark.parametrize("window, margin, message", [
        (0.5, 0.0, "margin must be positive"),
        (0.5, -1.0, "margin must be positive"),
        (0.5, math.nan, "margin must be finite"),
        # shells 94..100 are 7 points, one short of the fit's 8
        (0.065, 0.15, "holds 7 shell\\(s\\), 94..100; the tail fit needs 8"),
    ], ids=["margin-0", "margin-negative", "margin-nan", "window-short"])
    def test_bad_margin_or_window_refused_before_any_eigenvalue(
        self, monkeypatch, window, margin, message
    ):
        def unexpected(*args):
            raise AssertionError("an eigenvalue was evaluated")

        monkeypatch.setattr(summability.WalkKernel, "__call__", unexpected)
        calls = _count_gamma_calls(monkeypatch)
        with pytest.raises(ValidationError, match=message):
            shell_report(BALL2, SELF, 2.0, 100, window=window, margin=margin)
        assert calls == []

    def test_worker_count_reproducibility(self):
        a = shell_report(BALL2, SELF, 2.0, 200)
        b = shell_report(BALL2, SELF, 2.0, 200)
        assert np.array_equal(a.shell_sums, b.shell_sums)


class TestMagnitudeBatches:
    @pytest.mark.parametrize(
        "dom, kind, shells",
        [
            # shells 180-184 each hold more than one batch of rows, which the
            # cross kind sums as one class per shell
            (DomainSpec.single_block([1.0, 1.0, 1.0], 4.0), CrossWithin(0, 0, 1), range(170, 185)),
            (BALL2, SELF, range(0, 400)),
            (DISK, SELF, range(5, 5 + 2 * BATCH_ROWS + 3)),
        ],
        ids=["3d-large-shells", "2d-many-shells", "1d-batch-edges"],
    )
    def test_bitwise_equal_to_per_shell_calls(self, dom, kind, shells):
        d = dom.dimension
        batches, weights = _magnitude_batches(dom, kind, _walk(dom, kind, shells))
        if not isinstance(kind, SelfAdjoint):
            # the cross kind's one atom holds all three columns: one class
            # per shell, whose sums are checked against every row instead
            p = 2.0
            sums = _power_sums(batches, weights, p, zero_shell_sums(shells.stop - 1))
            for n in shells:
                terms = np.power(np.abs(eigenvalue_bulk(dom, kind, brute_shell(d, n))), p)
                want = math.fsum(terms.tolist())
                assert abs(sums[n] - want) <= 1e-14 * want, n
            return
        got = []
        n = shells.start
        for first, offsets, mags, mult, degrees in batches:
            assert first == n and mult is None and degrees == []
            bounds = list(offsets) + [mags.size]
            assert mags.size <= BATCH_ROWS or len(offsets) == 1
            for lo, hi in zip(bounds, bounds[1:]):
                assert hi - lo == shell_count(d, n)
                got.append(mags[lo:hi])
                n += 1
        assert n == shells.stop
        for n, mags in zip(shells, got):
            want = np.abs(eigenvalue_bulk(dom, kind, brute_shell(d, n)))
            assert np.array_equal(mags, want), n

    def test_ball_sums_match_fsum(self):
        N, p = 600, 2.0
        rep = shell_report(BALL2, SELF, p, N)
        for n in range(N + 1):
            terms = np.power(np.abs(eigenvalue_bulk(BALL2, SELF, brute_shell(2, n))), p)
            want = math.fsum(terms.tolist())
            assert abs(rep.shell_sums[n] - want) <= 1e-14 * want, n

    def test_disk_total_matches_fsum(self):
        for p in (0.6, 1.0, 2.0):
            rep = shell_report(DISK, SELF, p, 100_000)
            want = math.fsum(rep.shell_sums.tolist())
            assert abs(rep.total - want) <= 1e-14 * want, p


CRIT4 = DomainSpec(blocks=(BlockSpec((1.0,), 2.0), BlockSpec((1.0,), 1.0), BlockSpec((1.0,), 1.0)))
CRIT5 = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 4.0), BlockSpec((1.0,), 1.0)))


def ball(d):
    return DomainSpec.single_block([1.0] * d)


# (label, domain, kind, shell): every case merges columns
CLASS_CASES = [
    ("crit4-self", CRIT4, SELF, 200),
    ("ball4-self", ball(4), SELF, 60),
    ("ball4-within", ball(4), CrossWithin(0, 0, 1), 60),
    ("egg5-two-block-self",
     DomainSpec(blocks=(BlockSpec((1.0, 1.0, 1.0), 2.0), BlockSpec((0.5, 0.5), 3.0))), SELF, 30),
    # p a = 2 outside block 0, from blocks of unequal a
    ("egg5-three-block-self",
     DomainSpec(blocks=(BlockSpec((1.0, 1.0), 2.0), BlockSpec((2.0,), 1.0),
                        BlockSpec((1.0, 1.0), 2.0))), SELF, 30),
]


def _small_set_egg(seed: int) -> DomainSpec:
    """A random egg of dimension <= 3 whose p and a come from small sets, so
    that atoms of several columns, weighed ones among them, are common."""
    rng = np.random.default_rng(2500 + seed)
    sizes = [[1], [2], [3], [1, 1], [2, 1], [1, 2], [1, 1, 1]][int(rng.integers(7))]
    return DomainSpec(blocks=tuple(
        BlockSpec(tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], size)),
                  float(rng.choice([0.5, 1.0, 2.0])))
        for size in sizes))


# the five acceptance domains and seeded random eggs of dimension <= 3
WORK_DOMAINS = [DISK, BALL2, DomainSpec.single_block([3.0, 1.0]), CRIT4, CRIT5] + [
    _small_set_egg(seed) for seed in range(10)]
WORK_IDS = ["disk", "ball2", "crit3", "crit4", "crit5"] + [f"random-{seed}" for seed in range(10)]


class TestClasses:
    @pytest.mark.parametrize("dom, kind, n", [c[1:] for c in CLASS_CASES],
                             ids=[c[0] for c in CLASS_CASES])
    def test_every_row_matches_its_class_bitwise(self, dom, kind, n):
        groups = entries_alone(dom, kind)
        firsts = [g[0] for g in groups]
        [(_, _, classes)] = shell_batches(len(groups), range(n, n + 1))
        mult = _class_mult(_counts(dict(enumerate(len(g) for g in groups)), n + 1), classes)
        assert mult is not None and mult.sum() == shell_count(dom.dimension, n)
        # each class's representative: its group degrees on the groups' first columns
        reps = np.zeros((classes.shape[0], dom.dimension), dtype=np.int64)
        reps[:, firsts] = classes
        rows = brute_shell(dom.dimension, n)
        # each row's class: its group degree sums, coded in base n + 1
        radix = (n + 1) ** np.arange(len(groups))
        code = np.column_stack([rows[:, g].sum(axis=1) for g in groups]) @ radix
        rep_code = reps[:, firsts] @ radix
        order = np.argsort(rep_code)
        cls = order[np.searchsorted(rep_code, code, sorter=order)]
        assert np.array_equal(rep_code[cls], code)
        assert np.array_equal(np.bincount(cls, minlength=reps.shape[0]), mult)
        want = eigenvalue_bulk(dom, kind, rows)
        got = eigenvalue_bulk(dom, kind, reps)[cls]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("dom, kind, N, p", [
        (CRIT4, SELF, 120, 4.0),
        (ball(4), SELF, 40, 4.0),
        (ball(4), CrossWithin(0, 0, 1), 40, 4.0),
        (CLASS_CASES[3][1], SELF, 25, 6.0),
        # the cross kinds' weighed atoms: both entries in one atom, alone or
        # with other columns; one entry with another column; one entry with
        # one or two other columns and the other alone
        (CRIT5, CrossWithin(0, 0, 1), 60, 4.0),
        (BALL2, CrossWithin(0, 0, 1), 200, 2.0),
        (DomainSpec.single_block([1.0, 1.0, 1.0], 4.0), CrossWithin(0, 0, 1), 50, 4.0),
        (CRIT4, CrossBetween(0, 0, 1, 0), 60, 3.0),
        (DomainSpec.single_block([1.0, 1.0, 2.0]), CrossWithin(0, 0, 2), 50, 3.0),
        (DomainSpec.single_block([1.0, 1.0, 1.0, 2.0]), CrossWithin(0, 0, 3), 30, 3.0),
    ], ids=["crit4-self", "ball4-self", "ball4-within", "egg5-two-block-self", "crit5-within",
            "ball2-within", "ball3-a4-within", "crit4-between", "egg3-within-split",
            "egg4-within-split"])
    def test_class_sums_match_fsum_over_rows(self, dom, kind, N, p):
        rep = shell_report(dom, kind, p, N, cap=10**6)
        for n in range(N + 1):
            terms = np.power(np.abs(eigenvalue_bulk(dom, kind, brute_shell(dom.dimension, n))), p)
            want = math.fsum(terms.tolist())
            assert abs(rep.shell_sums[n] - want) <= 1e-14 * want, n

    @pytest.mark.parametrize("m, size", [(2, 5000), (3, 5000), (5, 5000), (9, 5000), (20, 2000)])
    def test_counts_are_the_binomials(self, m, size):
        # C(t + m - 1, m - 1), the rows of degree t in m columns: the scans
        # add integers, exact below 2^53; above it each scan adds a rounding,
        # (m - 1) t units of 2^-53 at worst, and 2.4e-15 at m = 9 in fact
        [(k, count)] = _counts({0: 1, 1: m, 2: 1}, size)
        assert k == 1 and count.dtype == np.float64 and count.size == size
        for t, got in enumerate(count.tolist()):
            want = math.comb(t + m - 1, m - 1)
            if want < 2**53:
                assert got == float(want), t
            else:
                assert abs(int(got) - want) <= 1e-14 * want, t

    def test_weights_need_no_exact_counts(self):
        # the 8-D ball's within kind: one atom of both entries and six other
        # columns, whose rows spread over the others in up to C(4046, 5) >=
        # 2^53 ways; the scans sum them in floating point, so it runs
        dom, kind = ball(8), CrossWithin(0, 0, 1)
        assert math.comb(4045, 5) < 2**53 <= math.comb(4046, 5)
        # 4 042 classes of shells 0..4041 of j and C(4043, 2) pairs of entry degrees
        assert _walk(dom, kind, range(0, 4043)).evaluations == 8_174_945
        rep = shell_report(dom, kind, 9.0, 4042, cap=10**8)
        assert np.all(np.isfinite(rep.shell_sums)) and math.isfinite(rep.total)
        assert rep.shell_sums[0] == 0.0 and np.all(rep.shell_sums[1:] > 0.0)
        # the 10-D ball's self kind: the class (0, t) of the atoms [0] and
        # [1..9] stands for C(t + 8, 8) rows, 2^53 or more from t = 368 on;
        # counted by the scans too, in floating point, so it runs
        dom = ball(10)
        assert math.comb(375, 8) < 2**53 <= math.comb(376, 8)
        assert _walk(dom, SELF, range(0, 401)).evaluations == 80_601
        for p in (2.0, 10.0):
            rep = shell_report(dom, SELF, p, 400, cap=10**6)
            assert np.all(np.isfinite(rep.shell_sums)) and math.isfinite(rep.total)
            assert np.all(rep.shell_sums > 0.0)
        th = empirical_threshold(dom, SELF, 5.0, 15.0, N=400, cap=10**6)
        assert th == 10.1953125 and abs(th - 10.0) <= 1.0

    def test_cap_counts_evaluations(self, monkeypatch):
        shells = require_fit_window(600, 0.5)
        assert _walk(ball(4), SELF, shells).evaluations == range_count(2, shells) == 135_751
        # the between kind walks j = i - e_lowered on shells 299..599, in its two
        # atoms [0] and [1, 2], and weighs the atom [1, 2] of its lowered entry
        # and one other column by a scan, which holds no pairs
        assert _walk(CRIT4, CrossBetween(0, 0, 1, 0), shells).evaluations == 135_450
        assert range_count(2, range(299, 600)) == 135_450
        calls = _count_gamma_calls(monkeypatch)
        with pytest.raises(ResourceCapError, match="135751"):
            empirical_threshold(ball(4), SELF, 2.0, 6.5, N=600, cap=135_750)
        assert calls == []

    @pytest.mark.parametrize("dom", WORK_DOMAINS, ids=WORK_IDS)
    def test_the_count_is_the_work(self, monkeypatch, dom):
        # the classes the batches yield and the pairs y <= z on the outputs of
        # the entries' fold blocks are the evaluations the cap counts, on
        # every kind and window, and the ones a shell or threshold report
        # gives for its own walk
        classes, pairs = [], {}
        magnitude_batches, entry_folds = summability._magnitude_batches, summability._entry_folds

        def recorded_batches(dom, kind, plan):
            batches, weights = magnitude_batches(dom, kind, plan)

            def counted():
                for batch in batches:
                    classes.append(batch[2].size)
                    yield batch

            return counted(), weights

        def recorded_folds(logs, rows, p):
            s, blocks = entry_folds(logs, rows, p)
            # a larger p plans the same rows again, in other blocks
            pairs[rows] = sum(range_count(2, range(z0, z1)) for z0, z1, *_ in blocks or [])
            return s, blocks

        monkeypatch.setattr(summability, "_magnitude_batches", recorded_batches)
        monkeypatch.setattr(summability, "_entry_folds", recorded_folds)

        def work():
            done = sum(classes) + sum(pairs.values())
            classes.clear()
            pairs.clear()
            return done

        N = {1: 300, 2: 60, 3: 30}[dom.dimension]
        # the brackets of the reports, predicted / 2 .. 1.5 predicted + 0.5
        reported = {(CRIT4, CrossBetween(0, 0, 1, 0)): (1.5, 5.0),
                    (CRIT5, CrossWithin(0, 0, 1)): (2.0, 6.5)}
        for kind in all_kinds(dom):
            for shells in (range(N + 1), require_fit_window(N, 0.5)):
                batches, weights = summability._magnitude_batches(dom, kind, _walk(dom, kind, shells))
                list(batches)
                weights(3.0)
                assert work() == _walk(dom, kind, shells).evaluations, (kind, shells)
            if (dom, kind) in reported:
                assert shell_report(dom, kind, 3.0, N).evaluations == work(), kind
                th = threshold_report(dom, kind, *reported[dom, kind])
                assert th.evaluations == work(), kind
                assert (th.N, th.cap) == (summability.DEFAULT_SHELLS[3], summability.DEFAULT_CAP)

    @pytest.mark.parametrize("d", [4, 5])
    def test_ball_self_cutoff_is_the_dimension(self, d):
        th = empirical_threshold(ball(d), SELF, d / 2.0, 1.5 * d + 0.5, N=600, cap=200_000)
        assert 0.9 * d <= th <= 1.1 * d


class TestCrossClasses:
    """A cross kind walks its classes of atom degrees once and weighs the
    rows of each class per probe."""

    def test_extreme_inner_power_stays_in_range(self):
        # inner p 0.01 on the entries: their factors e^(E/2) to the p reach
        # e^3322
        kind, N, p = CrossWithin(0, 0, 1), 40, 8.0
        for p_inner, atoms, entries in [
            # the raised entry and the column that shares its run: one entry
            # scanned over one other column
            ([0.01, 1.0, 0.01], [[0, 2], [1]], [0]),
            # both entries in one atom: their fold, and no other column
            ([0.01, 0.01, 1.0], [[0, 1], [2]], [0, 1]),
        ]:
            dom = DomainSpec.single_block(p_inner)
            assert atom_partition(dom, kind) == atoms
            kernel = summability.WalkKernel(dom, kind, atoms, range(0, N), 1)
            for x, _ in kernel.entry_logs(entries):
                assert p * x.max() > math.log(sys.float_info.max)
            rep = shell_report(dom, kind, p, N)
            assert np.all(np.isfinite(rep.shell_sums))
            normal = 0
            for n in range(N + 1):
                terms = np.power(np.abs(eigenvalue_bulk(dom, kind, brute_shell(3, n))), p)
                want = math.fsum(terms.tolist())
                if want >= sys.float_info.min:
                    assert abs(rep.shell_sums[n] - want) <= 1e-14 * want, (p_inner, n)
                    normal += 1
            assert normal == N, p_inner

    @pytest.mark.parametrize("dom, kind", [
        (CRIT5, CrossWithin(0, 0, 1)),
        (DomainSpec.single_block([1.0, 1.0, 2.0]), CrossWithin(0, 0, 2)),
        (DomainSpec.single_block([1.0, 1.0, 1.0, 2.0]), CrossWithin(0, 0, 3)),
        # two scans over the other columns from the entries' fold
        (ball(4), CrossWithin(0, 0, 1)),
    ], ids=["two-entries", "entry-and-columns", "two-entries-and-columns",
            "two-entries-and-two-columns"])
    def test_weights_do_not_depend_on_the_fold_chunks(self, monkeypatch, dom, kind):
        # a probe sums its classes one run of the walk at a time: classes one
        # by one or a few together give the same sums bit for bit, also
        # where the runs meet the weights of the entries' fold and scans
        want = shell_report(dom, kind, 3.0, 60, cap=10**6).shell_sums
        for rows in (1, 7, 100):
            monkeypatch.setattr(lattice, "BATCH_ROWS", rows)
            got = shell_report(dom, kind, 3.0, 60, cap=10**6).shell_sums
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), rows

    @pytest.mark.parametrize("dom, N, p", [
        (CRIT5, 600, 0.7), (CRIT5, 600, 4.0), (CRIT5, 600, 8.0),
        (DomainSpec.single_block([0.01, 0.01, 1.0]), 200, 8.0),
        (DomainSpec.single_block([1e-4, 1e-4, 1.0]), 40, 8.0),
    ], ids=["crit5-0.7", "crit5-4", "crit5-8", "inner-0.01", "inner-1e-4"])
    def test_tilted_weights_match_fsum_over_pairs(self, dom, N, p):
        # the weight of the atom that holds both entries, from the fold's
        # tilted blocks, against math.fsum over its pairs y <= z
        kind = CrossWithin(0, 0, 1)
        plan = _walk(dom, kind, range(N + 1))
        [(cols, m, rows)] = plan.weighed.values()
        assert m == 0
        kernel = summability.WalkKernel(dom, kind, plan.atoms, plan.shells, plan.classes)
        logs = kernel.entry_logs(cols)
        (x, up), (x2, low) = logs
        w = summability._entry_weights(*summability._entry_folds(logs, rows, p), 0, p)
        for z in rows:
            y = np.arange(z + 1)
            want = math.fsum(np.exp(p * ((x[y] - up[z]) + (x2[z - y] - low[z]))).tolist())
            assert abs(w[z] - want) <= 4e-15 * want, z

    def test_two_entry_fold_keeps_no_pairs(self):
        # the 2-ball's within kind at N = 3 000: its 4.5 M pairs of entry
        # degrees are multiply-adds of a convolution, not stored terms
        tracemalloc.start()
        try:
            th = empirical_threshold(BALL2, CrossWithin(0, 0, 1), 1.0, 3.5, N=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert th == 1.9765625
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("dom, kind, bracket, N, want", [
        (CRIT5, CrossWithin(0, 0, 1), (2.0, 6.5), 200, 3.72265625),
        (CRIT4, CrossBetween(0, 0, 1, 0), (1.5, 5.0), 200, 3.11328125),
        (BALL2, CrossWithin(0, 0, 1), (1.0, 3.5), 3000, 1.9765625),
        (CRIT5, CrossWithin(0, 0, 1), (2.0, 6.5), 600, 3.79296875),
    ], ids=["crit5-within-200", "crit4-between-200", "ball2-within-3000", "crit5-within-600"])
    def test_thresholds_of_the_row_walk(self, dom, kind, bracket, N, want):
        # the cut-offs that the walk over every row gave
        assert empirical_threshold(dom, kind, *bracket, N=N) == want

    def test_criterion_5_walks_classes_in_little_memory(self):
        kind = CrossWithin(0, 0, 1)
        for dom, classes, pairs, N, want, mib in [
            # 135 450 classes on shells 299..599 of j = i - e_lowered in the
            # atoms [0, 1] and [2], and 180 300 pairs of degrees in the weight
            # of [0, 1]: no array of the 31.8 M rows of shells 300..600
            (CRIT5, 135_450, 180_300, 600, 3.79296875, 32),
            # one atom: a class per shell 749..1499 of j, 1 125 750 pairs of
            # entry degrees 0..1499, and two scans over the other columns,
            # which keep no pairs
            (ball(4), 751, 1_125_750, 1500, 4.00390625, 16),
        ]:
            shells = require_fit_window(N, 0.5)
            atoms = len(atom_partition(dom, kind))
            assert range_count(atoms, range(shells.start - 1, N)) == classes
            assert _walk(dom, kind, shells).evaluations == classes + pairs
            tracemalloc.start()
            try:
                th = empirical_threshold(dom, kind, 2.0, 6.5, N=N, cap=10**7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert th == want, N
            assert peak < mib * 2**20, (N, peak)


class TestTailSlope:
    def test_exact_power_law(self):
        slope, stderr = fit_tail_slope(synthetic_report(-2.0), 0.5)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert stderr <= 1e-9

    def test_harmonic_boundary(self):
        slope, _ = fit_tail_slope(synthetic_report(-1.0), 0.5)
        assert slope == pytest.approx(-1.0, abs=1e-9)

    def test_disk_slope(self):
        rep = shell_report(DISK, SELF, 1.0, 2000)
        assert rep.slope == pytest.approx(-2.0, abs=0.01)
        assert (rep.slope, rep.slope_stderr) == fit_tail_slope(rep.shell_sums, 0.5)

    def test_too_few_nonzero_shells_signal_inconclusive(self):
        # no positive sum in the window: the fit refuses it, never a NaN slope
        sums = np.zeros(101)
        sums[:4] = 1.0
        with pytest.raises(ValidationError, match="only 0 shell sums in the fit window"):
            fit_tail_slope(sums, 0.5)
        # a NaN compares false both ways, so a verdict needs no test for it
        assert classify_slope(math.nan) is Verdict.INCONCLUSIVE

    def test_a_window_the_fit_cannot_take_is_refused(self):
        few = synthetic_report(-2.0, N=100)
        few[50:97] = 0.0
        with pytest.raises(ValidationError, match="only 4 shell sums in the fit window are "
                                                  "positive, the tail fit needs 8"):
            fit_tail_slope(few, 0.5)
        for bad in (math.inf, math.nan):
            sums = synthetic_report(-2.0, N=100)
            sums[80] = bad
            with pytest.raises(ValidationError, match="exceed double precision range"):
                fit_tail_slope(sums, 0.5)

    def test_a_total_past_double_range_is_refused(self):
        # every sum is finite and the fit takes them, but their total is inf
        sums = np.full(101, 1e307)
        fit_tail_slope(sums, 0.5)
        with pytest.raises(ValidationError, match="exceed double precision range"):
            tail_fit(sums, 0.5, 0.15)

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            fit_tail_slope(synthetic_report(-2.0), 1.5)


class TestClassify:
    def test_examples(self):
        assert classify_slope(-2.0, 0.15) is Verdict.CONVERGES
        assert classify_slope(-1.05, 0.15) is Verdict.INCONCLUSIVE
        assert classify_slope(-0.5, 0.15) is Verdict.DIVERGES

    def test_margin_validation(self):
        with pytest.raises(ValidationError):
            classify_slope(-2.0, 0.0)

    def test_report_pipeline(self):
        rep = shell_report(DISK, SELF, 1.0, 2000)
        assert rep.verdict is Verdict.CONVERGES
        assert rep.verdict is classify_slope(rep.slope)

    def test_calibration_on_zeta_tails(self):
        # margin 0.05: the s=0.9 and s=1.2 cases sit inside the default band
        for s, want in [
            (0.5, Verdict.DIVERGES),
            (0.9, Verdict.DIVERGES),
            (1.2, Verdict.CONVERGES),
            (2.0, Verdict.CONVERGES),
        ]:
            slope, _ = fit_tail_slope(synthetic_report(-s, N=10_000), 0.5)
            assert classify_slope(slope, margin=0.05) is want, s


class TestSplitSum:
    def test_sum_classifies_as_conjunction(self):
        cases = [(-2.0, -1.6), (-2.0, -0.5), (-0.7, -0.3), (-1.4, -0.8)]
        for s1, s2 in cases:
            t = synthetic_report(s1)
            u = synthetic_report(s2)
            v1 = classify_slope(fit_tail_slope(t, 0.5)[0])
            v2 = classify_slope(fit_tail_slope(u, 0.5)[0])
            both = classify_slope(fit_tail_slope(t + u, 0.5)[0])
            assert v1 is not Verdict.INCONCLUSIVE and v2 is not Verdict.INCONCLUSIVE
            want = (
                Verdict.CONVERGES
                if (v1 is Verdict.CONVERGES and v2 is Verdict.CONVERGES)
                else Verdict.DIVERGES
            )
            assert both is want


class TestMonotonicity:
    def test_slope_nonincreasing_in_p(self):
        for dom, kind in [(DISK, SELF), (BALL2, SELF), (BALL2, CrossWithin(0, 0, 1))]:
            slopes = []
            for p in (0.5, 1.0, 2.0, 3.0, 4.0):
                slopes.append(shell_report(dom, kind, p, 400).slope)
            assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


class TestEmpiricalThreshold:
    def test_disk(self):
        th = empirical_threshold(DISK, SELF, 0.25, 1.0, tol=0.1, N=20_000)
        assert abs(th - 0.5) <= 0.1

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            empirical_threshold(DISK, SELF, 0.8, 2.0, tol=0.1, N=2000)
        with pytest.raises(BracketError):
            empirical_threshold(DISK, SELF, 0.1, 0.3, tol=0.1, N=2000)

    def test_window_too_small_refused_before_any_eigenvalue(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("an eigenvalue was evaluated")

        monkeypatch.setattr(summability.WalkKernel, "__call__", unexpected)
        calls = _count_gamma_calls(monkeypatch)
        # shells 94..100 are 7 points, one short of the fit's 8
        with pytest.raises(ValidationError, match="holds 7 shell\\(s\\), 94..100; the tail fit needs 8"):
            empirical_threshold(BALL2, SELF, 1.0, 3.5, N=100, window=0.065)
        assert calls == []
        assert len(require_fit_window(100, 0.07)) == MIN_FIT_POINTS

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 1.0, 0.5, tol=0.1, N=2000)
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 0.25, 1.0, tol=0.001, N=2000)
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 0.25, 1.0, tol=math.inf, N=2000)
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 0.25, math.inf, tol=0.1, N=2000)
        for N in (15, 5, 0, -3):
            with pytest.raises(ValidationError, match="N must be at least 16"):
                empirical_threshold(DISK, SELF, 0.25, 1.0, tol=0.1, N=N)


class TestPredictedThreshold:
    def test_disk(self):
        assert predicted_threshold(DISK, SELF) == 0.5

    def test_outer_power_term(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 2.0), BlockSpec((1.0, 1.0), 1.0)))
        assert predicted_threshold(dom, SelfAdjoint(0, 0)) == 4.0

    def test_cross_within_outer_power(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 4.0), BlockSpec((1.0,), 1.0)))
        assert predicted_threshold(dom, CrossWithin(0, 0, 1)) == 4.0

    def test_cross_between_is_dimension(self):
        dom = DomainSpec(blocks=(BlockSpec((2.5,), 3.0), BlockSpec((1.7, 0.6), 1.2)))
        assert predicted_threshold(dom, CrossBetween(0, 0, 1, 1)) == 3.0

    def test_weak_pseudoconvexity(self):
        dom = DomainSpec.single_block([3.0, 1.0])
        assert predicted_threshold(dom, SelfAdjoint(0, 0)) == 3.0
        assert predicted_threshold(dom, SelfAdjoint(0, 1)) == 2.0
        assert predicted_threshold(dom, CrossWithin(0, 0, 1)) == 2.0


class TestModuleThreshold:
    def test_examples(self):
        assert module_threshold(DomainSpec.single_block([3.0, 1.0])) == 3.0
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 2.0), BlockSpec((1.0,), 1.0)))
        assert module_threshold(dom) == 3.0
        for m in (2, 3, 4):
            assert module_threshold(DomainSpec.single_block([1.0] * m)) == float(m)
        assert module_threshold(DISK) == 0.5

    def test_breakdown_cases(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 2.0), BlockSpec((1.0,), 1.0)))
        br = module_threshold_breakdown(dom)
        assert br["dimension"] == 3
        assert [e["q"] for e in br["blocks"]] == [2.0, 2.0]
        assert br["value"] == 3.0
        # one domain per case: the self terms of each coordinate in order,
        # then the within terms of each pair (j, l), j < l
        single = DomainSpec(blocks=(BlockSpec((2.0,), 3.0), BlockSpec((1.0,), 1.0)))
        outer_one = DomainSpec(blocks=(BlockSpec((1.5, 2.0), 1.0), BlockSpec((1.0,), 1.0)))
        outer_other = DomainSpec(blocks=(BlockSpec((1.0, 2.0, 4.0), 2.0), BlockSpec((1.0,), 1.0)))
        cases = [
            (single, "single-coordinate block", [6.0]),
            (outer_one, "multi-coordinate block, outer power 1", [3.0, 1.5, 4.0, 2.0]),
            (outer_other, "multi-coordinate block, outer power != 1",
             [3.0, 2.0, 6.0, 4.0, 12.0, 8.0, 4.0 / 1.5, 4.0 / 1.25, 4.0 / 0.75]),
        ]
        for dom, case, terms in cases:
            first = module_threshold_breakdown(dom)["blocks"][0]
            assert first["case"] == case
            assert first["terms"] == terms
            assert first["q"] == max(terms)

    def test_equals_max_over_kinds_on_random_domains(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            dom = random_domain(rng, max_dim=5)
            assert module_threshold(dom) == max_predicted_over_kinds(dom)
