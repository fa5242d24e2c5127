import math

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
    classify,
    empirical_threshold,
    module_threshold,
    module_threshold_breakdown,
    predicted_threshold,
    shell_report,
    shell_sums,
    tail_slope,
)
from eggsum.commutator import eigenvalue_bulk
from eggsum.lattice import BATCH_ROWS, shell_count, shell_indices
from eggsum.summability import (
    _magnitude_batches,
    classify_slope,
    fit_tail_slope,
    max_predicted_over_kinds,
)

from helpers import random_domain

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
        rep = shell_sums(DISK, SELF, 1.0, 64)
        n = np.arange(65, dtype=np.float64)
        expect = 1.0 / ((n + 1.0) * (n + 2.0))
        assert np.max(np.abs(rep.shell_sums - expect)) <= 1e-12
        assert rep.verdict is None

    def test_ball_cross_shell_zero_vanishes(self):
        rep = shell_sums(BALL2, CrossWithin(0, 0, 1), 2.0, 16)
        assert rep.shell_sums[0] == 0.0
        assert rep.shell_sums[1] > 0.0

    def test_n16_gives_17_values(self):
        rep = shell_sums(BALL2, SELF, 1.5, 16)
        assert len(rep.shell_sums) == 17
        assert np.all(np.isfinite(rep.shell_sums))

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            shell_sums(DISK, SELF, 0.0, 64)
        with pytest.raises(ValidationError):
            shell_sums(DISK, SELF, math.inf, 64)
        with pytest.raises(ValidationError):
            shell_sums(DISK, SELF, 1.0, 8)

    def test_cap_exceeded_is_loud(self):
        with pytest.raises(ResourceCapError):
            shell_sums(BALL2, SELF, 1.0, 1000, cap=1000)

    def test_d4_needs_explicit_cap(self):
        dom = DomainSpec.single_block([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ResourceCapError):
            shell_sums(dom, SELF, 1.0, 20)
        rep = shell_sums(dom, SELF, 1.0, 20, cap=100_000)
        assert len(rep.shell_sums) == 21

    def test_worker_count_reproducibility(self):
        a = shell_sums(BALL2, SELF, 2.0, 200)
        b = shell_sums(BALL2, SELF, 2.0, 200)
        assert np.array_equal(a.shell_sums, b.shell_sums)


class TestMagnitudeBatches:
    @pytest.mark.parametrize(
        "dom, kind, shells",
        [
            # shells 180-184 each hold more than one batch of rows
            (DomainSpec.single_block([1.0, 1.0, 1.0], 4.0), CrossWithin(0, 0, 1), range(170, 185)),
            (BALL2, SELF, range(0, 400)),
            (DISK, SELF, range(5, 5 + 2 * BATCH_ROWS + 3)),
        ],
        ids=["3d-large-shells", "2d-many-shells", "1d-batch-edges"],
    )
    def test_bitwise_equal_to_per_shell_calls(self, dom, kind, shells):
        d = dom.dimension
        got = []
        n = shells.start
        for first, offsets, mags in _magnitude_batches(dom, kind, shells):
            assert first == n
            bounds = list(offsets) + [mags.size]
            assert mags.size <= BATCH_ROWS or len(offsets) == 1
            for lo, hi in zip(bounds, bounds[1:]):
                assert hi - lo == shell_count(d, n)
                got.append(mags[lo:hi])
                n += 1
        assert n == shells.stop
        for n, mags in zip(shells, got):
            want = np.abs(eigenvalue_bulk(dom, kind, shell_indices(d, n)))
            assert np.array_equal(mags, want), n

    def test_ball_sums_match_fsum(self):
        N, p = 600, 2.0
        rep = shell_sums(BALL2, SELF, p, N)
        for n in range(N + 1):
            terms = np.power(np.abs(eigenvalue_bulk(BALL2, SELF, shell_indices(2, n))), p)
            want = math.fsum(terms.tolist())
            assert abs(rep.shell_sums[n] - want) <= 1e-14 * want, n

    def test_disk_total_matches_fsum(self):
        for p in (0.6, 1.0, 2.0):
            rep = shell_sums(DISK, SELF, p, 100_000)
            want = math.fsum(rep.shell_sums.tolist())
            assert abs(rep.total - want) <= 1e-14 * want, p


class TestTailSlope:
    def test_exact_power_law(self):
        slope, stderr = fit_tail_slope(synthetic_report(-2.0), 0.5)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert stderr <= 1e-9

    def test_harmonic_boundary(self):
        slope, _ = fit_tail_slope(synthetic_report(-1.0), 0.5)
        assert slope == pytest.approx(-1.0, abs=1e-9)

    def test_disk_slope(self):
        rep = shell_sums(DISK, SELF, 1.0, 2000)
        slope, _ = tail_slope(rep, 0.5)
        assert slope == pytest.approx(-2.0, abs=0.01)

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
        unset = shell_sums(DISK, SELF, 1.0, 64)
        with pytest.raises(ValidationError):
            classify(unset)

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
                rep = shell_sums(dom, kind, p, 400)
                slopes.append(fit_tail_slope(rep.shell_sums, 0.5)[0])
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

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 1.0, 0.5, tol=0.1, N=2000)
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 0.25, 1.0, tol=0.001, N=2000)
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 0.25, 1.0, tol=math.inf, N=2000)
        with pytest.raises(ValidationError):
            empirical_threshold(DISK, SELF, 0.25, math.inf, tol=0.1, N=2000)


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

    def test_equals_max_over_kinds_on_random_domains(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            dom = random_domain(rng, max_dim=5)
            assert module_threshold(dom) == max_predicted_over_kinds(dom)
