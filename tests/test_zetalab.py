import itertools
import json
import math

import numpy as np
import pytest

from eggsum import (
    AbsFactor,
    Family,
    GroupFactor,
    ResourceCapError,
    ValidationError,
    Verdict,
    ZetaSeriesSpec,
    brute_shell_sums,
    critical_b,
    family_of,
    reduce_group,
)
from eggsum.lattice import shell_indices
from eggsum.summability import classify_slope, fit_tail_slope
from eggsum.zetalab import _numerator_by_shell_conv, _numerator_by_shell_enum

from helpers import FAMILY_SHAPES, random_family_spec, random_plain_spec, with_offset_b


class TestCriticalExponent:
    def test_plain_two_variables(self):
        assert critical_b(ZetaSeriesSpec(m=2, powers=(0.0, 0.0))) == 2.0

    def test_negative_power(self):
        assert critical_b(ZetaSeriesSpec(m=2, powers=(-1.5, 0.0))) == 1.0

    def test_group_factor_counts_for_touching_subsets(self):
        spec = ZetaSeriesSpec(
            m=3, powers=(0.0, 0.0, 0.0), groups=(GroupFactor((0, 1), 1.0),)
        )
        assert critical_b(spec) == 4.0

    def test_abs_factor_touches_everything(self):
        spec = ZetaSeriesSpec(
            m=2, powers=(0.0, 0.0), abs_factor=AbsFactor(neg=0, a=1.0)
        )
        assert critical_b(spec) == 3.0  # J={1,2}: 2 + powers + the abs exponent

    def test_all_powers_at_least_minus_one_reduces_to_sum(self):
        spec = ZetaSeriesSpec(m=3, powers=(-0.5, 1.25, 0.0))
        assert critical_b(spec) == 3.0 - 0.5 + 1.25


class TestFamilies:
    def test_examples(self):
        assert family_of(random_plain_spec(np.random.default_rng(0))).family is Family.PRODUCT_ONLY
        pair3 = ZetaSeriesSpec(m=3, powers=(0.5, -0.5, 1.0), groups=(GroupFactor((0, 1), 0.7),))
        assert family_of(pair3).family is Family.PAIR_PLUS_ONE
        pair4 = ZetaSeriesSpec(m=4, powers=(0.0,) * 4, groups=(GroupFactor((1, 3), 0.7),))
        assert family_of(pair4).family is Family.PAIR_PLUS_TWO
        triple = ZetaSeriesSpec(m=4, powers=(0.0,) * 4, groups=(GroupFactor((0, 1, 2), 0.7),))
        assert family_of(triple).family is Family.TRIPLE_PLUS_ONE

    def test_two_pairs_side_condition(self):
        good = ZetaSeriesSpec(
            m=4,
            powers=(0.0, -1.8, 0.0, 0.0),
            groups=(GroupFactor((0, 1), 0.5), GroupFactor((2, 3), 0.5)),
        )
        match = family_of(good)
        assert match.family is Family.TWO_PAIRS and match.side_ok and match.sharp
        bad = ZetaSeriesSpec(
            m=4,
            powers=(-1.5, 0.0, 0.0, 0.0),
            groups=(GroupFactor((0, 1), 0.25), GroupFactor((2, 3), 0.5)),
        )
        match = family_of(bad)
        assert match.family is Family.TWO_PAIRS and not match.side_ok and not match.sharp

    def test_triple_abs_structure(self):
        spec = ZetaSeriesSpec(
            m=4,
            powers=(0.0,) * 4,
            groups=(GroupFactor((0, 1, 2), 1.0),),
            abs_factor=AbsFactor(neg=3, a=0.5),
        )
        match = family_of(spec)
        assert match.family is Family.TRIPLE_ABS and match.side_ok
        inside = ZetaSeriesSpec(
            m=4,
            powers=(0.0,) * 4,
            groups=(GroupFactor((0, 1, 2), 1.0),),
            abs_factor=AbsFactor(neg=1, a=0.5),
        )
        assert family_of(inside).family is Family.UNKNOWN
        nonpositive = ZetaSeriesSpec(
            m=4,
            powers=(0.0,) * 4,
            groups=(GroupFactor((0, 1, 2), 1.0),),
            abs_factor=AbsFactor(neg=3, a=-0.5),
        )
        match = family_of(nonpositive)
        assert match.family is Family.TRIPLE_ABS and not match.side_ok

    def test_fresh_group(self):
        spec = ZetaSeriesSpec(
            m=6, powers=(0.5, 0.0, 0.0, 0.0, 0.0, 0.0), groups=(GroupFactor((1, 2, 3, 4, 5), 1.5),)
        )
        assert family_of(spec).family is Family.FRESH_GROUP

    def test_overlapping_groups_are_unknown(self):
        spec = ZetaSeriesSpec(
            m=4,
            powers=(0.0,) * 4,
            groups=(GroupFactor((0, 1), 1.0), GroupFactor((1, 2), 1.0)),
        )
        assert family_of(spec).family is Family.UNKNOWN


class TestReduceGroup:
    def test_collapse_two_fresh_variables(self):
        spec = ZetaSeriesSpec(
            m=3, powers=(0.0, 0.0, 0.0), groups=(GroupFactor((1, 2), 1.5),), b=7.0
        )
        red = reduce_group(spec)
        assert red.m == 2 and red.powers == (0.0, 2.5) and red.b == 7.0
        assert critical_b(red) == critical_b(spec)

    def test_singleton_group_is_identity_reshape(self):
        spec = ZetaSeriesSpec(
            m=2, powers=(0.5, 0.0), groups=(GroupFactor((1,), 0.75),), b=3.0
        )
        red = reduce_group(spec)
        assert red.m == 2 and red.powers == (0.5, 0.75)
        assert critical_b(red) == critical_b(spec)

    def test_five_variable_example(self):
        spec = ZetaSeriesSpec(
            m=5,
            powers=(-0.5, 0.0, 0.0, 0.0, 0.0),
            groups=(GroupFactor((2, 3, 4), 0.0),),
            b=4.0,
        )
        red = reduce_group(spec)
        assert red.m == 3 and red.powers == (-0.5, 0.0, 2.0)
        assert critical_b(red) == critical_b(spec)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            reduce_group(ZetaSeriesSpec(m=2, powers=(0.0, 0.0)))
        with pytest.raises(ValidationError):
            reduce_group(
                ZetaSeriesSpec(m=2, powers=(0.0, 0.5), groups=(GroupFactor((1,), 1.0),))
            )


class TestBruteForce:
    def test_plain_verdicts(self):
        conv = brute_shell_sums(ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=3.0), 2000)
        assert conv.verdict is Verdict.CONVERGES and conv.method == "convolution"
        div = brute_shell_sums(ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=1.5), 2000)
        assert div.verdict is Verdict.DIVERGES

    def test_triple_abs_above_critical_converges(self):
        spec = ZetaSeriesSpec(
            m=4,
            powers=(0.25, 0.0, -0.5, 0.0),
            groups=(GroupFactor((0, 1, 2), 0.75),),
            abs_factor=AbsFactor(neg=3, a=0.5),
        )
        rep = brute_shell_sums(with_offset_b(spec, 1.0), 3000)
        assert rep.verdict is Verdict.CONVERGES
        assert rep.family is Family.TRIPLE_ABS and rep.sharp

    def test_abs_below_critical_diverges(self):
        spec = ZetaSeriesSpec(
            m=3, powers=(0.0, 0.5, 0.0), abs_factor=AbsFactor(neg=1, a=0.75)
        )
        rep = brute_shell_sums(with_offset_b(spec, -0.5), 2000)
        assert rep.verdict is Verdict.DIVERGES

    def test_enumeration_path_agrees_with_convolution(self):
        spec = ZetaSeriesSpec(
            m=3,
            powers=(0.5, -0.5, 0.25),
            groups=(GroupFactor((0, 1), 0.5),),
            abs_factor=AbsFactor(neg=2, a=1.0),
            b=5.0,
        )
        N = 60
        conv = _numerator_by_shell_conv(spec, N)
        enum = _numerator_by_shell_enum(spec, N, 10**7)
        assert conv is not None
        np.testing.assert_allclose(conv, enum, rtol=1e-12)

    def test_abs_factor_path_matches_fsum(self):
        # triple-abs at N = 80: each shell n is the fsum over the compositions
        # of n into four positive parts, listed by their three cut points
        N = 80
        convs = {}
        for a_abs in (0.25, 1.5, -0.5):
            spec = ZetaSeriesSpec(
                m=4,
                powers=(0.5, -0.25, 1.0, 0.75),
                groups=(GroupFactor((0, 1, 2), 0.5),),
                abs_factor=AbsFactor(neg=3, a=a_abs),
            )
            convs[a_abs] = _numerator_by_shell_conv(spec, N)
            assert np.all(convs[a_abs][:4] == 0.0)
        for n in range(4, N + 1):
            cuts = np.array(list(itertools.combinations(range(1, n), 3)))
            i = np.diff(cuts, prepend=0, append=n).astype(np.float64)
            rest = (i[:, 0] ** 0.5 * i[:, 1] ** -0.25 * i[:, 2] * i[:, 3] ** 0.75
                    * (i[:, 0] + i[:, 1] + i[:, 2]) ** 0.5)
            base = np.abs(n - 2.0 * i[:, 3])
            # a zero base drops the term for any sign of the exponent
            rest, base = rest[base > 0.0], base[base > 0.0]
            for a_abs, conv in convs.items():
                want = math.fsum((rest * base**a_abs).tolist())
                assert abs(conv[n] - want) <= 1e-13 * want, (a_abs, n)

    def test_enumeration_sums_match_fsum(self):
        # shells 3..200 of three variables: many shells per batch at first,
        # one shell per batch from shell 183 on
        spec = ZetaSeriesSpec(
            m=3,
            powers=(0.5, 0.0, 1.0),
            groups=(GroupFactor((0, 1), 0.5), GroupFactor((1, 2), -0.5)),
            abs_factor=AbsFactor(neg=1, a=0.75),
            b=6.0,
        )
        N = 200
        enum = _numerator_by_shell_enum(spec, N, 10**7)
        assert np.all(enum[:3] == 0.0)
        for n in range(3, N + 1):
            i = shell_indices(3, n - 3).astype(np.float64) + 1.0
            terms = (i[:, 0] ** 0.5 * i[:, 2] * (i[:, 0] + i[:, 1]) ** 0.5
                     * (i[:, 1] + i[:, 2]) ** -0.5 * np.abs(n - 2.0 * i[:, 1]) ** 0.75)
            want = math.fsum(terms.tolist())
            assert abs(enum[n] - want) <= 1e-14 * want, n

    def test_group_on_abs_variable_falls_back_to_enumeration(self):
        spec = ZetaSeriesSpec(
            m=2,
            powers=(0.5, 0.0),
            groups=(GroupFactor((1,), 0.75),),
            abs_factor=AbsFactor(neg=1, a=1.0),
            b=4.0,
        )
        rep = brute_shell_sums(spec, 300)
        assert rep.method == "enumeration"
        # shell 3 by hand: (1,2) and (2,1) with weights i1^0.5 i2^0.75 |3-2 i2|
        expect = (2.0**0.75 * 1.0 + 2.0**0.5 * 1.0) / 3.0**4
        assert rep.shell_sums[3] == pytest.approx(expect, rel=1e-12)

    def test_overlapping_groups_fall_back_to_enumeration(self):
        spec = ZetaSeriesSpec(
            m=3,
            powers=(0.0, 0.0, 0.0),
            groups=(GroupFactor((0, 1), 0.5), GroupFactor((1, 2), 0.5)),
            b=4.5,
        )
        rep = brute_shell_sums(spec, 300)
        assert rep.method == "enumeration"
        assert rep.verdict is Verdict.CONVERGES

    def test_caps(self):
        spec = ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=3.0)
        with pytest.raises(ResourceCapError):
            brute_shell_sums(spec, 30_000)
        with pytest.raises(ValidationError):
            brute_shell_sums(ZetaSeriesSpec(m=6, powers=(0.0,) * 6, b=9.0), 100)

    def test_zero_abs_terms_are_excluded(self):
        # at n = 2t the |n - 2t| base vanishes: positive exponents zero the
        # term, nonpositive exponents drop it; either way sums stay finite
        for a_abs in (0.5, -0.5):
            spec = ZetaSeriesSpec(
                m=2, powers=(0.0, 0.0), abs_factor=AbsFactor(neg=0, a=a_abs), b=3.0
            )
            rep = brute_shell_sums(spec, 200)
            assert np.all(np.isfinite(rep.shell_sums))


class TestRandomizedSuites:
    """Scaled-down versions; the acceptance suite runs the full sizes."""

    def test_necessity(self):
        rng = np.random.default_rng(400)
        for trial in range(10):
            shape = FAMILY_SHAPES[trial % len(FAMILY_SHAPES)]
            spec = with_offset_b(random_family_spec(rng, shape), -0.5)
            rep = brute_shell_sums(spec, 2000)
            assert rep.verdict is Verdict.DIVERGES, (shape, spec)

    def test_sufficiency(self):
        rng = np.random.default_rng(401)
        for trial in range(10):
            shape = FAMILY_SHAPES[trial % len(FAMILY_SHAPES)]
            spec = with_offset_b(random_family_spec(rng, shape), 0.5)
            match = family_of(spec)
            assert match.sharp, (shape, spec)
            rep = brute_shell_sums(spec, 2000)
            assert rep.verdict is Verdict.CONVERGES, (shape, spec)

    def test_reduction_soundness(self):
        rng = np.random.default_rng(402)
        for trial in range(8):
            spec = random_family_spec(rng, "fresh-group")
            for off in (-0.5, 0.5):
                full = with_offset_b(spec, off)
                red = reduce_group(full)
                assert critical_b(red) == pytest.approx(critical_b(full), abs=1e-12)
                v1 = brute_shell_sums(full, 2000).verdict
                v2 = brute_shell_sums(red, 2000).verdict
                assert v1 is v2, (spec, off)

    def test_two_series_shellwise(self):
        # classification is invariant under positive scaling of each series;
        # anchor both to 1 well below the fit window, so whichever decays
        # slower genuinely dominates where the slope is measured
        rng = np.random.default_rng(403)
        for _ in range(6):
            s1 = with_offset_b(random_plain_spec(rng), float(rng.choice([-0.5, 0.5])))
            s2 = with_offset_b(random_plain_spec(rng), float(rng.choice([-0.5, 0.5])))
            r1 = brute_shell_sums(s1, 2000)
            r2 = brute_shell_sums(s2, 2000)
            if Verdict.INCONCLUSIVE in (r1.verdict, r2.verdict):
                continue
            t = np.zeros(2001)
            for r in (r1, r2):
                part = r.shell_sums / r.shell_sums[100]
                t[: len(part)] += part
            combined = classify_slope(fit_tail_slope(t, 0.5)[0])
            want = (
                Verdict.CONVERGES
                if (r1.verdict is Verdict.CONVERGES and r2.verdict is Verdict.CONVERGES)
                else Verdict.DIVERGES
            )
            assert combined is want


class TestSerialization:
    def test_round_trip(self):
        spec = ZetaSeriesSpec(
            m=4,
            powers=(0.5, -1.25, 0.0, 2.0),
            groups=(GroupFactor((0, 2), 0.5),),
            abs_factor=AbsFactor(neg=3, a=1.0),
            b=6.5,
        )
        again = ZetaSeriesSpec.from_json(json.dumps(spec.to_json()))
        assert again == spec

    def test_validation(self):
        with pytest.raises(ValidationError):
            ZetaSeriesSpec(m=2, powers=(0.0,))
        with pytest.raises(ValidationError):
            ZetaSeriesSpec(m=2, powers=(0.0, 0.0), groups=(GroupFactor((5,), 1.0),))
        with pytest.raises(ValidationError):
            ZetaSeriesSpec.from_json({"m": 2})
