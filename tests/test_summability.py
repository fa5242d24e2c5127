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
from eggsum import gammakit, summability
from eggsum.commutator import atom_partition, column_partition, eigenvalue_bulk
from eggsum.lattice import BATCH_ROWS, range_count, shell_batches, shell_count
from eggsum.summability import (
    _magnitude_batches,
    _power_sums,
    classify_slope,
    evaluation_count,
    fit_tail_slope,
    MIN_FIT_POINTS,
    max_predicted_over_kinds,
    require_fit_window,
    tail_shells,
)

from helpers import brute_shell, random_domain


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
        batches, weights = _magnitude_batches(dom, kind, shells)
        if not isinstance(kind, SelfAdjoint):
            # the cross kind's one atom holds all three columns: one class
            # per shell, whose sums are checked against every row instead
            p = 2.0
            sums = _power_sums(batches, weights, p, shells.stop - 1)
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


class TestClasses:
    @pytest.mark.parametrize("dom, kind, n", [c[1:] for c in CLASS_CASES],
                             ids=[c[0] for c in CLASS_CASES])
    def test_every_row_matches_its_class_bitwise(self, dom, kind, n):
        groups = column_partition(dom, kind)
        firsts = [g[0] for g in groups]
        [(_, _, classes, mult)] = shell_batches([len(g) for g in groups], range(n, n + 1))
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

    def test_multiplicity_from_2_53_refused_before_any_eigenvalue(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("an eigenvalue was evaluated")

        monkeypatch.setattr(summability.WalkKernel, "__call__", unexpected)
        calls = _count_gamma_calls(monkeypatch)
        # the 10-D ball self kind: class (0, 368) of shell 368 stands for
        # C(376, 8) >= 2^53 rows
        with pytest.raises(ValidationError, match="2\\^53"):
            shell_report(ball(10), SELF, 2.0, 400, cap=10**6)
        with pytest.raises(ValidationError, match="2\\^53"):
            empirical_threshold(ball(10), SELF, 5.0, 15.0, N=400, cap=10**6)
        assert calls == []

    def test_cap_counts_evaluations(self, monkeypatch):
        shells = tail_shells(600, 0.5)
        assert evaluation_count(ball(4), SELF, shells) == range_count(2, shells) == 135_751
        # the between kind walks j = i - e_lowered on shells 299..599, in its two
        # atoms [0] and [1, 2], and weighs the atom [1, 2] of its lowered entry
        # by a fold over the pairs y <= z of its degrees 0..599
        assert evaluation_count(CRIT4, CrossBetween(0, 0, 1, 0), shells) == 315_750
        assert range_count(2, range(299, 600)) + range_count(2, range(0, 600)) == 315_750
        calls = _count_gamma_calls(monkeypatch)
        with pytest.raises(ResourceCapError, match="135751"):
            empirical_threshold(ball(4), SELF, 2.0, 6.5, N=600, cap=135_750)
        assert calls == []

    @pytest.mark.parametrize("d", [4, 5])
    def test_ball_self_cutoff_is_the_dimension(self, d):
        th = empirical_threshold(ball(d), SELF, d / 2.0, 1.5 * d + 0.5, N=600, cap=200_000)
        assert 0.9 * d <= th <= 1.1 * d


class TestCrossClasses:
    """A cross kind walks its classes of atom degrees once and weighs the
    rows of each class per probe."""

    def test_extreme_inner_power_stays_in_range(self):
        # inner p 0.01 on the raised column and on the column that shares its
        # run: the raised entry's factors e^(E/2) to the p reach e^3322
        dom, kind, N, p = DomainSpec.single_block([0.01, 1.0, 0.01]), CrossWithin(0, 0, 1), 40, 8.0
        atoms = atom_partition(dom, kind)
        assert atoms == [[0, 2], [1]]
        kernel = summability.WalkKernel(dom, kind, atoms, range(0, N), 1)
        [[logs]] = kernel.entry_logs().values()
        assert p * logs.max() > math.log(sys.float_info.max)
        rep = shell_report(dom, kind, p, N)
        assert np.all(np.isfinite(rep.shell_sums))
        normal = 0
        for n in range(N + 1):
            terms = np.power(np.abs(eigenvalue_bulk(dom, kind, brute_shell(3, n))), p)
            want = math.fsum(terms.tolist())
            if want >= sys.float_info.min:
                assert abs(rep.shell_sums[n] - want) <= 1e-14 * want, n
                normal += 1
        assert normal == N

    @pytest.mark.parametrize("dom, kind", [
        (CRIT5, CrossWithin(0, 0, 1)),
        (DomainSpec.single_block([1.0, 1.0, 2.0]), CrossWithin(0, 0, 2)),
        (DomainSpec.single_block([1.0, 1.0, 1.0, 2.0]), CrossWithin(0, 0, 3)),
    ], ids=["two-entries", "entry-and-columns", "two-entries-and-columns"])
    def test_weights_do_not_depend_on_the_fold_chunks(self, monkeypatch, dom, kind):
        # a probe sums each fold a bounded number of pairs at a time: rows
        # one by one or a few together give the same sums bit for bit
        want = shell_report(dom, kind, 3.0, 60, cap=10**6).shell_sums
        for pairs in (1, 7, 100):
            monkeypatch.setattr(summability, "_FOLD_PAIRS", pairs)
            got = shell_report(dom, kind, 3.0, 60, cap=10**6).shell_sums
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), pairs

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
        # 135 450 classes on shells 299..599 of j = i - e_lowered in the atoms
        # [0, 1] and [2], and 180 300 pairs of degrees in the weight of [0, 1]:
        # no array of the 31.8 M rows of shells 300..600
        kind = CrossWithin(0, 0, 1)
        assert range_count(2, range(299, 600)) == 135_450
        assert evaluation_count(CRIT5, kind, tail_shells(600, 0.5)) == 135_450 + 180_300
        tracemalloc.start()
        try:
            th = empirical_threshold(CRIT5, kind, 2.0, 6.5, N=600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert th == 3.79296875
        assert peak < 32 * 2**20, peak


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
        sums = np.zeros(101)
        sums[:4] = 1.0
        slope, stderr = fit_tail_slope(sums, 0.5)
        assert math.isnan(slope) and math.isnan(stderr)
        assert classify_slope(slope) is Verdict.INCONCLUSIVE

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
