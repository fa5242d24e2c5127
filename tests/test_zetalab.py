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
from eggsum import zetalab
from eggsum.cli import run
from eggsum.summability import classify_slope, fit_tail_slope
from eggsum.reduction import _BLOCK, fold
from eggsum.zetalab import (
    _method,
    _blocks_without,
    _numerator_by_shell_conv,
    _power_seq,
)

from helpers import (
    FAMILY_SHAPES,
    brute_shell,
    random_family_spec,
    random_plain_spec,
    random_zeta_spec,
    with_offset_b,
)


def _shell_fsum(spec, n):
    """math.fsum of the numerator's terms over the compositions of n into
    spec.m positive parts."""
    i = brute_shell(spec.m, n - spec.m).astype(np.float64) + 1.0
    terms = np.prod(i ** np.array(spec.powers), axis=1)
    for g in spec.groups:
        terms *= i[:, list(g.vars)].sum(axis=1) ** g.a
    if spec.abs_factor is not None:
        base = np.abs(n - 2.0 * i[:, spec.abs_factor.neg])
        # a zero base drops the term for any sign of the exponent
        terms = terms[base > 0.0] * base[base > 0.0] ** spec.abs_factor.a
    return math.fsum(terms.tolist())


def _chain_sum(n):
    """(i_1 + i_2)(i_2 + i_3) summed over the compositions of n, exactly: with
    i_2 = j and i_1 = t the term is (t + j)(n - t), t = 1 .. n - j - 1."""
    j = np.arange(1, n - 1, dtype=np.int64)
    r = n - j
    s1, s2 = (r - 1) * r // 2, (r - 1) * r * (2 * r - 1) // 6
    return int(np.sum(n * s1 - s2 + j * n * (r - 1) - j * s1))


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

    @pytest.mark.parametrize("N", [100.7, "300", True, None, 15, -3])
    def test_rejects_a_shell_count_that_is_not_an_integer_of_at_least_16(self, N):
        with pytest.raises(ValidationError):
            brute_shell_sums(ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=3.0), N)

    def test_integral_float_shell_count(self):
        spec = ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=3.0)
        assert len(brute_shell_sums(spec, 100.0).shell_sums) == 101

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
        want = [0.0] * spec.m + [_shell_fsum(spec, n) for n in range(spec.m, N + 1)]
        np.testing.assert_allclose(conv, want, rtol=1e-12)

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
        cases = [
            # shells 3..200 of three variables: many shells per batch at
            # first, one shell per batch from shell 131 on
            (
                ZetaSeriesSpec(
                    m=3,
                    powers=(0.5, 0.0, 1.0),
                    groups=(GroupFactor((0, 1), 0.5), GroupFactor((1, 2), -0.5)),
                    abs_factor=AbsFactor(neg=1, a=0.75),
                    b=6.0,
                ),
                200,
            ),
            # five variables, a triple and a pair: 16 shells in the first
            # batch, one shell per batch from shell 25 on
            (
                ZetaSeriesSpec(
                    m=5,
                    powers=(0.5, -0.25, 0.0, 1.5, -0.75),
                    groups=(GroupFactor((0, 2, 3), 0.25), GroupFactor((1, 4), 1.25)),
                    abs_factor=AbsFactor(neg=2, a=-0.5),
                    b=9.0,
                ),
                36,
            ),
            # one variable: |n - 2 i_1| = n on every shell
            (ZetaSeriesSpec(m=1, powers=(0.75,), abs_factor=AbsFactor(neg=0, a=1.5), b=3.0), 300),
        ]
        rng = np.random.default_rng(17)
        cases += [(random_zeta_spec(rng), 20) for _ in range(8)]
        for spec, N in cases:
            got = _numerator_by_shell_conv(spec, N)
            assert np.all(got[: spec.m] == 0.0)
            for n in range(spec.m, N + 1):
                want = _shell_fsum(spec, n)
                assert abs(got[n] - want) <= 1e-14 * want, (spec, n)

    @pytest.mark.parametrize(
        "spec, brute",
        [
            # middle variable j, the outer two in n - 1 - j ways
            (
                ZetaSeriesSpec(m=3, powers=(0.0, 1.0, 0.0)),
                lambda n: sum(j * (n - 1 - j) for j in range(1, n - 1)),
            ),
            # i_1 (i_1 + i_2) summed over i_1 = 1..n-1
            (
                ZetaSeriesSpec(m=2, powers=(1.0, 0.0), groups=(GroupFactor((0, 1), 1.0),)),
                lambda n: sum(j * n for j in range(1, n)),
            ),
        ],
    )
    def test_convolution_is_exact_on_integers_across_blocks(self, spec, brute):
        # integer terms with every partial sum below 2^53: any summation
        # order is exact, so one term lost or doubled at a block edge shows
        N = 2 * _BLOCK + 76
        conv = _numerator_by_shell_conv(spec, N)
        assert conv.tolist() == [float(brute(n)) for n in range(N + 1)]

    @pytest.mark.parametrize("N", [511, 512, 513, 1024, 1025, 2000])
    def test_convolution_sums_match_fsum_at_block_edges(self, N):
        specs = [ZetaSeriesSpec(m=2, powers=(0.75, -0.4))]
        if N <= 1025:
            specs.append(
                ZetaSeriesSpec(m=3, powers=(-0.6, 1.3, 0.2), groups=(GroupFactor((0, 2), 0.45),))
            )
        for spec in specs:
            conv = _numerator_by_shell_conv(spec, N)
            for n in {N - 1, N}:
                want = _shell_fsum(spec, n)
                assert abs(conv[n] - want) <= 1e-14 * want, (spec, n)

    @pytest.mark.parametrize("N", [16, 300, _BLOCK - 1, _BLOCK, 2 * _BLOCK, 2000])
    def test_fold_is_the_cut_convolution(self, N):
        rng = np.random.default_rng(N)
        x, w, u = rng.uniform(0.0, 2.0, (3, N + 1))
        # terms first..N only: blocks of x wholly below first, one that ends
        # at it, and first past one or more whole blocks
        for first in sorted({0, 1, N // 3, max(N - _BLOCK, 0), N - 1, N}):
            got, want = fold([x, w], N, first), np.convolve(x, w)[first : N + 1]
            if N + 1 <= _BLOCK and not first:
                # one block: the very same np.convolve call
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
            # with three, first cuts the last step only
            want = np.convolve(np.convolve(x, w)[: N + 1], u)[first : N + 1]
            np.testing.assert_allclose(fold([x, w, u], N, first), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "m, groups, neg",
        [
            (3, [(0, 1), (1, 2)], None),  # chain
            (4, [(0, 1), (1, 2), (2, 3)], None),  # longer chain: fixes variable 1
            (3, [(0, 1), (1, 2), (0, 2)], None),  # triangle
            (3, [(0, 1), (0, 1)], None),  # duplicate groups: one block
            (4, [(1, 2), (0, 1, 2), (1, 2)], None),  # duplicates once 0 is fixed
            (3, [(1,), (0, 1), (1, 2), (2,)], None),  # one-variable groups
            (4, [(0, 1, 2)], 3),  # triple-abs
            (3, [(0, 2)], 2),  # a group on the abs variable
            (4, [(2,), (3,), (1, 3), (0, 1, 2)], 3),  # and a scalar group on it
            (1, [], 0),
        ],
    )
    def test_conditioned_sums_match_fsum(self, m, groups, neg):
        rng = np.random.default_rng(m * 100 + len(groups))
        for a_abs in (0.25, 1.5, -0.5) if neg is not None else (None,):
            spec = ZetaSeriesSpec(
                m=m,
                powers=tuple(float(p) for p in rng.choice([-0.75, 0.0, 0.5, 1.25], m)),
                groups=tuple(GroupFactor(g, float(rng.choice([-0.5, 0.25, 1.0]))) for g in groups),
                abs_factor=None if neg is None else AbsFactor(neg, a_abs),
            )
            N = 28
            got = _numerator_by_shell_conv(spec, N)
            assert np.all(got[:m] == 0.0)
            for n in range(m, N + 1):
                want = _shell_fsum(spec, n)
                assert (got[n] == 0.0) == (want == 0.0)
                assert abs(got[n] - want) <= 1e-13 * want, (spec, n)

    def test_random_conditioned_sums_match_fsum(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            spec = random_zeta_spec(rng)
            N = 24
            got = _numerator_by_shell_conv(spec, N)
            assert np.all(got[: spec.m] == 0.0)
            for n in range(spec.m, N + 1):
                want = _shell_fsum(spec, n)
                assert (got[n] == 0.0) == (want == 0.0)
                assert abs(got[n] - want) <= 1e-13 * want, (spec, n)

    def test_chain_closed_form(self):
        for n in range(3, 12):
            terms = [(t + j) * (n - t) for j in range(1, n - 1) for t in range(1, n - j)]
            assert _chain_sum(n) == sum(terms)

    @pytest.mark.parametrize(
        "spec, brute",
        [
            # one value of i_2 per row, each row its own convolution
            (
                ZetaSeriesSpec(
                    m=3,
                    powers=(0.0, 0.0, 0.0),
                    groups=(GroupFactor((0, 1), 1.0), GroupFactor((1, 2), 1.0)),
                ),
                _chain_sum,
            ),
            # i_1 |n - 2 i_2| summed over i_2 = 1..n-1: every row is a slice
            # of the same sequences, 64 rows to a tile
            (
                ZetaSeriesSpec(m=2, powers=(1.0, 0.0), abs_factor=AbsFactor(neg=1, a=1.0)),
                lambda n: int(np.sum((n - np.arange(1, n)) * np.abs(n - 2 * np.arange(1, n)))),
            ),
        ],
        ids=["chain", "abs"],
    )
    def test_conditioned_sum_is_exact_on_integers_across_blocks(self, spec, brute):
        # integer terms with every partial sum below 2^53: a row lost or
        # doubled, at a block, part or tile edge, shows
        N = 2 * _BLOCK + 76
        conv = _numerator_by_shell_conv(spec, N)
        assert conv.tolist() == [0.0] * spec.m + [float(brute(n)) for n in range(spec.m, N + 1)]

    def test_two_fixed_variables_sum_in_the_one_routine(self):
        spec = ZetaSeriesSpec(
            m=5,
            powers=(0.5, -0.25, 0.0, 1.25, -0.75),
            groups=(
                GroupFactor((0, 1, 2), 0.5),
                GroupFactor((2, 3, 4), -0.25),
                GroupFactor((0, 4), 1.0),
            ),
            b=8.0,
        )
        N = 24
        assert all(_blocks_without(spec, (j,)) is None for j in range(spec.m))
        got = _numerator_by_shell_conv(spec, N)
        for n in range(spec.m, N + 1):
            want = _shell_fsum(spec, n)
            assert abs(got[n] - want) <= 1e-14 * want, n
        rep = brute_shell_sums(spec, N)
        assert rep.method == "enumeration"
        assert rep.shell_sums[1:].tobytes() == (got[1:] * _power_seq(-spec.b, N)[1:]).tobytes()

    @pytest.mark.parametrize(
        "spec, N, fixed",
        [
            # an abs factor on 0 that needs a second fixed variable: (0, 1)
            *(
                (
                    ZetaSeriesSpec(
                        m=4,
                        powers=(0.5, -0.25, 1.0, 0.0),
                        groups=(
                            GroupFactor((1, 2), 0.5),
                            GroupFactor((2, 3), -0.75),
                            GroupFactor((1, 3), 1.25),
                        ),
                        abs_factor=AbsFactor(neg=0, a=a_abs),
                    ),
                    30,
                    2,
                )
                for a_abs in (0.75, -0.5)
            ),
            # all ten pairs of five variables: (0, 1, 2)
            (
                ZetaSeriesSpec(
                    m=5,
                    powers=(0.5, -0.25, 0.0, 1.25, -0.75),
                    groups=tuple(
                        GroupFactor(pair, a)
                        for pair, a in zip(
                            itertools.combinations(range(5), 2), itertools.cycle((0.5, -0.25, 1.0))
                        )
                    ),
                ),
                20,
                3,
            ),
        ],
        ids=["abs-positive", "abs-negative", "ten-pairs"],
    )
    def test_several_fixed_variables_match_fsum(self, spec, N, fixed):
        need = set() if spec.abs_factor is None else {spec.abs_factor.neg}
        for V in itertools.combinations(range(spec.m), fixed - 1):
            assert not need <= set(V) or _blocks_without(spec, V) is None, V
        got = _numerator_by_shell_conv(spec, N)
        assert np.all(got[: spec.m] == 0.0)
        for n in range(spec.m, N + 1):
            want = _shell_fsum(spec, n)
            assert (got[n] == 0.0) == (want == 0.0)
            assert abs(got[n] - want) <= 1e-14 * want, n

    def test_several_fixed_variables_are_exact_on_integers(self):
        # a cycle of four pairs fixes (0, 1): at N = 60 that is 1 653 rows of
        # fixed values, 26 parts of 64; integer terms with every partial sum
        # below 2^53, so a row lost or doubled shows
        spec = ZetaSeriesSpec(
            m=4,
            powers=(1.0, 0.0, 0.0, 1.0),
            groups=tuple(GroupFactor(g, 1.0) for g in ((0, 1), (1, 2), (2, 3), (0, 3))),
        )
        N = 60
        want = [0.0] * spec.m
        for n in range(spec.m, N + 1):
            i = brute_shell(spec.m, n - spec.m).astype(np.int64) + 1
            terms = i[:, 0] * i[:, 3]
            for g in spec.groups:
                terms *= i[:, list(g.vars)].sum(axis=1)
            want.append(float(terms.sum()))
        assert _numerator_by_shell_conv(spec, N).tolist() == want

    def test_convolution_family_is_the_fold_of_its_blocks(self):
        # without an abs factor a convolution spec fixes no variable: its
        # numerator is, bit for bit, the fold of its blocks -- the groups in
        # order, then the free variables
        rng = np.random.default_rng(23)
        specs = [random_family_spec(rng, shape) for shape in FAMILY_SHAPES if shape != "triple-abs"]
        specs += [
            ZetaSeriesSpec(m=4, powers=(0.5, 0.0, -0.25, 1.0), groups=(GroupFactor((3,), 0.75),
                           GroupFactor((0, 2), -0.5), GroupFactor((1,), 1.5)))
        ]
        N = _BLOCK + 88
        for spec in specs:
            assert _method(spec) == "convolution" and spec.abs_factor is None
            grouped = {j for g in spec.groups for j in g.vars}
            blocks = [(g.vars, g.a) for g in spec.groups]
            blocks += [((j,), None) for j in range(spec.m) if j not in grouped]
            seqs = []
            for members, a in blocks:
                w = fold([_power_seq(spec.powers[j], N) for j in members], N)
                seqs.append(w if a is None else w * _power_seq(a, N))
            assert _numerator_by_shell_conv(spec, N).tobytes() == fold(seqs, N).tobytes()

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

    def test_a_slope_that_cannot_be_fitted_is_refused(self):
        # n^-400 underflows to 0 on every shell of the window: an error, not a
        # NaN slope
        spec = ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=400.0)
        with pytest.raises(ValidationError, match="only 0 shell sums in the fit window are "
                                                  "positive, the tail fit needs 8"):
            brute_shell_sums(spec, 100)

    def test_caps(self):
        spec = ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=3.0)
        with pytest.raises(ResourceCapError):
            brute_shell_sums(spec, 30_000)
        with pytest.raises(ValidationError):
            brute_shell_sums(ZetaSeriesSpec(m=6, powers=(0.0,) * 6, b=9.0), 100)

    @pytest.mark.parametrize("window, margin, message", [
        (0.5, 0.0, "margin must be positive"),
        (0.5, -1.0, "margin must be positive"),
        (0.5, math.nan, "margin must be finite"),
        # shells 94..100 are 7 points, one short of the fit's 8
        (0.065, 0.15, "holds 7 shell\\(s\\), 94..100; the tail fit needs 8"),
    ], ids=["margin-0", "margin-negative", "margin-nan", "window-short"])
    def test_bad_margin_or_window_refused_before_any_table(
        self, monkeypatch, window, margin, message
    ):
        def unexpected(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(zetalab, "_numerator_by_shell_conv", unexpected)
        monkeypatch.setattr(zetalab, "_power_seq", unexpected)
        spec = ZetaSeriesSpec(m=2, powers=(0.0, 0.0), b=3.0)
        with pytest.raises(ValidationError, match=message):
            brute_shell_sums(spec, 100, window=window, margin=margin)

    def test_term_cap_comes_before_any_work(self, capsys):
        # 298^130 overflows double range, so building any table would be a
        # ValidationError: the cap on the 4.4 M lattice terms is checked first
        spec = ZetaSeriesSpec(
            m=3,
            powers=(130.0, 0.0, 0.0),
            groups=(GroupFactor((0, 1), 1.0), GroupFactor((1, 2), 1.0)),
            b=6.0,
        )
        with pytest.raises(ResourceCapError):
            brute_shell_sums(spec, 300, cap=10**6)
        with pytest.raises(ValidationError):
            brute_shell_sums(spec, 300, cap=10**7)
        argv = ["zeta", "--spec", json.dumps(spec.to_json()), "--N", "300", "--cap"]
        assert run([*argv, str(10**6)]) == 3
        assert run([*argv, str(10**7)]) == 2
        assert capsys.readouterr().out == ""

    def test_tables_reach_the_largest_base_a_term_takes(self):
        # 19^237 is finite and 20^237 is not.  A variable of three reaches
        # base N - 2, so either spec, whatever its method, overflows from
        # N = 22 on
        overlapping = ZetaSeriesSpec(
            m=3,
            powers=(237.0, 0.0, 0.0),
            groups=(GroupFactor((0, 1), 0.0), GroupFactor((1, 2), 0.0)),
        )
        disjoint = ZetaSeriesSpec(m=3, powers=(237.0, 0.0, 0.0), groups=(GroupFactor((1, 2), 0.0),))
        for spec in (overlapping, disjoint):
            assert np.all(np.isfinite(_numerator_by_shell_conv(spec, 21)))
            with pytest.raises(ValidationError, match=r"the power 20\^237"):
                _numerator_by_shell_conv(spec, 22)

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
