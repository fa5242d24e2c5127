import math
import warnings

import numpy as np
import pytest

from eggsum import (
    ExpansionKind,
    ValidationError,
    exact_ratio,
    expansion_value,
    log_gamma,
    log_gamma_ratio,
    log_gamma_second_difference,
    log_multibeta,
    verify_expansion,
)
from eggsum.gammakit import EXPANSION_TAGS, expansion_coefficients, r3_quadratic_coefficients

# ln Gamma(10.5), arbitrary-precision value frozen before the build
LN_GAMMA_10_5 = 13.940625219403763633
# ln Gamma(x+a) - ln Gamma(x+b) at x=4096, a=2.3, b=0.7, frozen likewise
LGR_4096 = 13.308816437879136

XS = [50.0 * 2**j for j in range(7)]

# the three routines that lift an argument below 16, at fixed parameters
LIFTED = (
    log_gamma,
    lambda v: log_gamma_ratio(v, 1 / 3, 0.0),
    lambda v: log_gamma_second_difference(v, 0.25, 1.7),
)
LIFTED_IDS = ["log_gamma", "ratio", "second-difference"]


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) <= 1e-14

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_frozen_high_precision_value(self):
        assert log_gamma(10.5) == pytest.approx(LN_GAMMA_10_5, abs=1e-13)

    def test_accuracy_against_libm(self):
        xs = np.concatenate(
            [
                np.geomspace(1e-6, 1e-3, 100),
                np.geomspace(1e-3, 0.5, 200),
                np.linspace(0.5, 50.0, 500),
                np.geomspace(50.0, 1e8, 300),
            ]
        )
        ours = log_gamma(xs)
        ref = np.array([math.lgamma(v) for v in xs])
        err = np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-13

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError):
                log_gamma(bad)

    def test_array_shape_roundtrip(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert log_gamma(x).shape == (2, 2)

    def test_long_arrays_match_scalar_calls(self):
        # thousands of arguments below 16, lifted in one call by step counts
        # from 1 to 16 (15.5, 14.5, ..., 0.5 take each count once); an
        # element's result must not depend on the steps the others take
        lifts = 16.5 - np.arange(1.0, 17.0)
        assert np.array_equal(np.ceil(16.0 - lifts), np.arange(1.0, 17.0))
        x = np.concatenate([lifts, np.random.default_rng(9).uniform(1e-3, 20.0, 6000)])
        for fn in LIFTED:
            whole = fn(x)
            for i in [*range(lifts.size), *range(lifts.size, x.size, 97)]:
                assert fn(float(x[i])) == whole[i]

    @pytest.mark.parametrize("fn", LIFTED, ids=LIFTED_IDS)
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_array_gives_empty_float_array(self, fn, shape):
        out = fn(np.empty(shape))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == shape


class TestLogGammaRatio:
    def test_matches_direct_difference_at_moderate_x(self):
        for x in (0.7, 3.0, 12.0, 200.0):
            got = log_gamma_ratio(x, 1.7, 0.4)
            ref = log_gamma(x + 1.7) - log_gamma(x + 0.4)
            assert got == pytest.approx(ref, abs=5e-13)

    def test_frozen_large_x_value(self):
        assert log_gamma_ratio(4096.0, 2.3, 0.7) == pytest.approx(LGR_4096, abs=1e-12)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValidationError):
            log_gamma_ratio(0.5, -1.0, 0.2)


    def test_unit_step_is_log_across_branches(self):
        # Gamma(x+1)/Gamma(x) = x on both sides of the Stirling cut-off
        xs = np.concatenate([np.linspace(0.1, 16.0, 400), np.geomspace(16.0, 1e7, 400)])
        got = log_gamma_ratio(xs, 1.0, 0.0)
        assert np.max(np.abs(got - np.log(xs)) / np.maximum(1.0, np.abs(np.log(xs)))) <= 1e-14


class TestLogGammaSecondDifference:
    XS = np.concatenate([np.linspace(0.1, 16.0, 400)[:-1], np.geomspace(16.0, 1e7, 400)])

    def test_unit_step_closed_form(self):
        # one unit step collapses the second difference to ln((x+u)/x),
        # whose size u/x the result keeps to relative precision from 16 on
        for u in (1.0 / 3.0, 0.7, 2.5):
            ref = np.log1p(u / self.XS)
            for got in (
                log_gamma_second_difference(self.XS, u, 1.0),
                log_gamma_second_difference(self.XS, 1.0, u),
            ):
                rel = np.abs(got - ref) / ref
                assert rel[self.XS >= 16.0].max() <= 2e-15
                assert rel[self.XS < 16.0].max() <= 1e-14

    def test_scalar_in_scalar_out(self):
        assert log_gamma_second_difference(3.0, 1.0, 1.0) == pytest.approx(math.log(4.0 / 3.0))

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValidationError):
            log_gamma_second_difference(0.5, -1.0, 0.2)


class TestSmallArgumentOracle:
    """Ratios and second differences against 40-digit mpmath on both sides
    of the Stirling cut-off at 16, with the steps the commutator uses."""

    XS = np.geomspace(1e-3, 60.0, 300)

    @staticmethod
    def _mp_log_gamma_sums(mpmath, xs, shifts, signs):
        mpmath.mp.dps = 40
        return np.array(
            [
                float(sum(s * mpmath.loggamma(mpmath.mpf(x) + h) for h, s in zip(shifts, signs)))
                for x in xs
            ]
        )

    @pytest.mark.parametrize("a, b", [(0.25, 0.0), (1 / 3, 0.0), (0.5, 0.0), (1.0, 0.0),
                                      (1.7, 0.0), (0.4, 1.7)])
    def test_ratio(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        ref = self._mp_log_gamma_sums(mpmath, self.XS, (a, b), (1, -1))
        got = log_gamma_ratio(self.XS, a, b)
        # relative, but floored at 0.1 where the ratio changes sign (near
        # x = 1): there it is a difference of terms of size 1, known only
        # to ~1e-15 absolute
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 0.1)) <= 1e-13

    @pytest.mark.parametrize("u, w", [(0.25, 0.25), (1 / 3, 1 / 3), (0.5, 0.5), (1.0, 1.0),
                                      (1.7, 1.7), (0.25, 0.5), (1 / 3, 1.7)])
    def test_second_difference(self, u, w):
        mpmath = pytest.importorskip("mpmath")
        ref = self._mp_log_gamma_sums(
            mpmath, self.XS, (mpmath.mpf(u) + mpmath.mpf(w), u, w, 0.0), (1, -1, -1, 1)
        )
        got = log_gamma_second_difference(self.XS, u, w)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


class TestHugeArguments:
    """Past x = 1.3e154 the square in the Stirling series overflows to inf,
    and the series takes its limit 0, and the second difference's quotient
    u w / ((x+u)(x+w)) is subnormal: no warning, and values that match
    mpmath to within a unit in the last place, the second difference to
    within 1e-15 relative."""

    @pytest.mark.parametrize("x", [1e154, 2e154, 2e300])
    def test_against_mpmath_without_a_warning(self, x):
        mpmath = pytest.importorskip("mpmath")
        steps = [(0.5, 0.0), (1 / 3, 0.0), (1.0, 0.0), (0.4, 1.7)]
        pairs = [(0.5, 0.25), (1.0, 1.0), (3.0, 0.01)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_gamma(np.array([x]))[0]
            ratios = [log_gamma_ratio(np.array([x]), a, b)[0] for a, b in steps]
            seconds = [log_gamma_second_difference(np.array([x]), u, w)[0] for u, w in pairs]
        # a ratio of size ln x cancels about 300 digits of ln Gamma(x) at
        # 2e300, and a second difference of size u w / x about 605
        with mpmath.workdps(700):
            X = mpmath.mpf(x)
            want = float(mpmath.loggamma(X))
            wants = [float(mpmath.loggamma(X + a) - mpmath.loggamma(X + b)) for a, b in steps]
            second_wants = [
                float(mpmath.loggamma(X + u + w) - mpmath.loggamma(X + u)
                      - mpmath.loggamma(X + w) + mpmath.loggamma(X))
                for u, w in pairs
            ]
        # one unit in the last place: ln Gamma(2e300) lies just above 2^1007,
        # where a unit is 2.2e-16 of it
        assert abs(got - want) <= np.spacing(want)
        for (a, b), got, want in zip(steps, ratios, wants):
            assert abs(got - want) <= np.spacing(abs(want)), (a, b)
        for (u, w), got, want in zip(pairs, seconds, second_wants):
            assert abs(got - want) <= 1e-15 * abs(want), (u, w)


class TestLogMultibeta:
    def test_single_argument_is_zero(self):
        for x in (0.3, 1.0, 7.5):
            assert log_multibeta([x]) == 0.0

    def test_one_one(self):
        assert abs(log_multibeta([1.0, 1.0])) <= 1e-14

    def test_two_three(self):
        assert log_multibeta([2.0, 3.0]) == pytest.approx(math.log(1.0 / 12.0), abs=1e-13)

    def test_composition_identity(self):
        for x, y in [(0.7, 2.2), (3.0, 3.0), (10.0, 0.4)]:
            composed = log_gamma(x) + log_gamma(y) - log_gamma(x + y)
            assert log_multibeta([x, y]) == composed

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            log_multibeta([])
        with pytest.raises(ValidationError):
            log_multibeta([1.0, -2.0])


class TestExpansionKind:
    def test_requires_b_where_needed(self):
        for tag in ("R1", "R3", "R5"):
            with pytest.raises(ValidationError):
                ExpansionKind(tag, 1.0)
        for tag in ("R2", "R4"):
            with pytest.raises(ValidationError):
                ExpansionKind(tag, 1.0, 1.0)

    def test_r1_allows_zero_b(self):
        ExpansionKind("R1", 1.0, 0.0)
        with pytest.raises(ValidationError):
            ExpansionKind("R3", 1.0, 0.0)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValidationError):
            ExpansionKind("R2", 0.0)


class TestExpansionValue:
    def test_r1_equal_parameters_is_one(self):
        kind = ExpansionKind("R1", 1.3, 1.3)
        for order in (0, 1, 2):
            assert expansion_value(kind, 17.0, order) == 1.0

    def test_r2_worked_example(self):
        assert expansion_value(ExpansionKind("R2", 1.0), 10.0, 2) == pytest.approx(
            0.91, abs=1e-15
        )

    def test_r1_first_order_example(self):
        got = expansion_value(ExpansionKind("R1", 0.5, 0.0), 100.0, 1)
        assert got == pytest.approx(1.0 - 1.0 / 800.0, abs=1e-15)

    def test_invalid_order(self):
        with pytest.raises(ValidationError):
            expansion_value(ExpansionKind("R2", 1.0), 10.0, 3)

    def test_requires_x_at_least_one(self):
        with pytest.raises(ValidationError):
            expansion_value(ExpansionKind("R2", 1.0), 0.5, 2)


class TestExactRatio:
    def test_r4_rational(self):
        assert exact_ratio(ExpansionKind("R4", 1.0), 10.0) == pytest.approx(
            121.0 / 120.0, rel=1e-13
        )

    def test_r5_rational(self):
        assert exact_ratio(ExpansionKind("R5", 1.0, 1.0), 10.0) == pytest.approx(
            143.0 / 144.0, rel=1e-13
        )

    def test_r3_collapses_by_recurrence(self):
        assert exact_ratio(ExpansionKind("R3", 1.0, 1.0), 10.0) == pytest.approx(
            12.0 / 11.0, rel=1e-12
        )

    def test_r2_closed_form_at_a_one(self):
        # Gamma(x+1)^2/(Gamma(x)Gamma(x+2)) = x/(x+1)
        for x in (3.0, 40.0, 1000.0):
            assert exact_ratio(ExpansionKind("R2", 1.0), x) == pytest.approx(
                x / (x + 1.0), rel=1e-12
            )


class TestVerifyExpansion:
    def test_r1_order2_decays_cubically(self):
        chk = verify_expansion(ExpansionKind("R1", 1.3, 0.4), 2, XS)
        assert 2.7 <= chk.decay_exponent <= 3.3

    def test_r2_order1_decays_quadratically(self):
        chk = verify_expansion(ExpansionKind("R2", 1.3), 1, XS)
        assert 1.8 <= chk.decay_exponent <= 2.2

    def test_r3_printed_coefficient_fails_at_unit_parameters(self):
        kind = ExpansionKind("R3", 1.0, 1.0)
        printed = verify_expansion(kind, 2, XS, use_printed_r3=True)
        composed = verify_expansion(kind, 2, XS)
        assert 1.8 <= printed.decay_exponent <= 2.2
        assert composed.decay_exponent >= 2.8
        # the report records both candidate coefficients: -1 vs -2 here
        assert composed.r3_coefficients["composed"] == pytest.approx(-1.0)
        assert composed.r3_coefficients["printed"] == pytest.approx(-2.0)

    def test_exact_agreement_reports_infinite_decay(self):
        chk = verify_expansion(ExpansionKind("R1", 0.9, 0.9), 2, XS)
        assert math.isinf(chk.decay_exponent)
        assert np.all(chk.abs_error == 0.0)

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            verify_expansion(ExpansionKind("R2", 1.0), 2, [10.0, 20.0])

    def test_needs_increasing_grid(self):
        with pytest.raises(ValidationError):
            verify_expansion(ExpansionKind("R2", 1.0), 2, [10.0, 5.0, 20.0])


def _kinds_for(a: float, b: float):
    return [
        ExpansionKind("R1", a, b),
        ExpansionKind("R2", a),
        ExpansionKind("R3", a, b),
        ExpansionKind("R4", a),
        ExpansionKind("R5", a, b),
    ]


class TestScaledErrorBoundedness:
    """|exact - truncation| * x^(k+1) stays bounded as x doubles 64..4096."""

    def test_all_kinds_all_orders(self):
        rng = np.random.default_rng(2024)
        xs = np.array([64.0 * 2**j for j in range(7)])
        for _ in range(100):
            a, b = rng.uniform(0.2, 3.0, 2)
            for kind in _kinds_for(a, b):
                for order in (0, 1, 2):
                    exact = np.asarray(exact_ratio(kind, xs))
                    approx = np.asarray(expansion_value(kind, xs, order))
                    scaled = np.abs(exact - approx) * xs ** (order + 1)
                    # transient growth between the endpoints is possible when
                    # adjacent series coefficients have opposite signs; a hump
                    # above 4x the endpoint scale is not
                    bound = 4.0 * (scaled[0] + scaled[-1]) + 1e-3
                    assert scaled.max() <= bound, (kind, order, scaled)

    def test_r4_r5_order2_match_rationals_to_cubic_order(self):
        rng = np.random.default_rng(5)
        xs = np.array([64.0 * 2**j for j in range(7)])
        for _ in range(50):
            a, b = rng.uniform(0.2, 3.0, 2)
            for kind in (ExpansionKind("R4", a), ExpansionKind("R5", a, b)):
                err = np.abs(
                    np.asarray(exact_ratio(kind, xs))
                    - np.asarray(expansion_value(kind, xs, 2))
                )
                scaled = err * xs**3
                assert scaled.max() <= 4.0 * (scaled[0] + scaled[-1]) + 1e-3


class TestCoefficients:
    def test_r3_first_order_is_product(self):
        c1, _ = expansion_coefficients(ExpansionKind("R3", 1.7, 0.6))
        assert c1 == pytest.approx(1.7 * 0.6)

    def test_r3_candidates_differ_generically(self):
        quad = r3_quadratic_coefficients(1.0, 1.0)
        assert quad["composed"] != quad["printed"]

    def test_every_tag_has_coefficients(self):
        for tag in EXPANSION_TAGS:
            kind = (
                ExpansionKind(tag, 1.1, 0.7)
                if tag in ("R1", "R3", "R5")
                else ExpansionKind(tag, 1.1)
            )
            c1, c2 = expansion_coefficients(kind)
            assert math.isfinite(c1) and math.isfinite(c2)
