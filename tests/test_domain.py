import json
import math
import sys

import numpy as np
import pytest

from eggsum import (
    BlockSpec,
    DomainSpec,
    ValidationError,
    dimension,
    log_norm,
    log_norm_bulk,
    log_norm_omega1,
    mc_norm_oracle,
)
from eggsum.domain import as_multi_index

from helpers import random_domain

DISK = DomainSpec.single_block([1.0])
BALL2 = DomainSpec.single_block([1.0, 1.0])


class TestSpecs:
    def test_block_validation(self):
        with pytest.raises(ValidationError):
            BlockSpec(p=(), a=1.0)
        with pytest.raises(ValidationError):
            BlockSpec(p=(1.0, -2.0), a=1.0)
        with pytest.raises(ValidationError):
            BlockSpec(p=(1.0,), a=0.0)
        # subnormal p or a would overflow (i+1)/p and s/a in log_norm_bulk
        for p, a in (((1.0,), 5e-324), ((1.0, 5e-324), 1.0)):
            with pytest.raises(ValidationError):
                BlockSpec(p=p, a=a)

    def test_domain_needs_blocks(self):
        with pytest.raises(ValidationError):
            DomainSpec(blocks=())

    def test_json_round_trip(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 2.5), 2.0), BlockSpec((0.5,), 1.0)))
        again = DomainSpec.from_json(json.dumps(dom.to_json()))
        assert again == dom

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValidationError):
            DomainSpec.from_json({"nope": 1})
        with pytest.raises(ValidationError):
            DomainSpec.from_json({"blocks": [{"p": [1.0]}]})

    def test_dimension_examples(self):
        assert dimension(DISK) == 1
        two = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 2.0), BlockSpec((1.0,), 1.0)))
        assert dimension(two) == 3
        assert dimension(DomainSpec.single_block([3.0, 1.0])) == 2


class TestLayout:
    def test_examples(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 2.5), 2.0), BlockSpec((0.5,), 1.0)))
        assert dom.spans == ((0, 2), (2, 3))
        assert dom.columns == ((0, 1.0), (0, 2.5), (1, 0.5))

    def test_agrees_with_flat_position_and_multi_index(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dom = random_domain(rng, max_dim=6)
            assert dom.spans[0][0] == 0 and dom.spans[-1][1] == dom.dimension
            flat = list(range(dom.dimension))
            nested = as_multi_index(dom, flat)
            for k, blk in enumerate(dom.blocks):
                first, stop = dom.spans[k]
                assert nested[k] == tuple(range(first, stop))
                for j in range(blk.size):
                    col = dom.flat_position(k, j)
                    assert first <= col < stop
                    assert dom.columns[col] == (k, blk.p[j])

    def test_not_fields(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 2.5), 2.0), BlockSpec((0.5,), 1.0)))
        # computed once per domain
        assert dom.spans is dom.spans and dom.columns is dom.columns
        fresh = DomainSpec(blocks=dom.blocks)
        assert dom == fresh and repr(dom) == repr(fresh) and hash(dom) == hash(fresh)
        assert dom.to_json() == fresh.to_json()


class TestMultiIndex:
    def test_flat_and_nested_agree(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 1.0), BlockSpec((2.0,), 1.0)))
        assert as_multi_index(dom, [1, 2, 3]) == as_multi_index(dom, [[1, 2], [3]])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            as_multi_index(BALL2, [1])
        with pytest.raises(ValidationError):
            as_multi_index(BALL2, [[1], [2]])

    def test_negative_entry(self):
        with pytest.raises(ValidationError):
            as_multi_index(BALL2, [1, -1])


class TestOmega1Norms:
    def test_disk_constant(self):
        assert log_norm_omega1([1.0], [0]) == pytest.approx(math.log(math.pi), abs=1e-13)

    def test_disk_quadratic_monomial(self):
        # radial quadrature: 2 pi * integral r^5 dr = pi/3
        assert log_norm_omega1([1.0], [2]) == pytest.approx(
            math.log(math.pi / 3.0), abs=1e-13
        )

    def test_ball_mixed_monomial(self):
        assert log_norm_omega1([1.0, 1.0], [1, 1]) == pytest.approx(
            math.log(math.pi**2 / 24.0), abs=1e-13
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            log_norm_omega1([1.0, 2.0], [1])


class TestGeneralNorms:
    def test_unit_disk_with_outer_power(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 2.0),))
        for k in (0, 1, 7):
            assert log_norm(dom, [k]) == pytest.approx(
                math.log(math.pi / (k + 1)), abs=1e-12
            )

    def test_ball_constant(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0, 1.0), 1.0),))
        assert log_norm(dom, [0, 0]) == pytest.approx(math.log(math.pi**2 / 2), abs=1e-12)

    def test_ball_split_into_two_blocks(self):
        dom = DomainSpec(blocks=(BlockSpec((1.0,), 1.0), BlockSpec((1.0,), 1.0)))
        assert log_norm(dom, [[0], [0]]) == pytest.approx(
            math.log(math.pi**2 / 2), abs=1e-12
        )

    def test_factorial_closed_form_on_ball(self):
        # all p = a = 1: norm = pi^m * prod(i_j!) / (|i| + m)!
        dom = DomainSpec.single_block([1.0, 1.0, 1.0])
        idx = [2, 1, 3]
        expect = math.log(
            math.pi**3 * math.factorial(2) * math.factorial(1) * math.factorial(3)
            / math.factorial(sum(idx) + 3)
        )
        assert log_norm(dom, idx) == pytest.approx(expect, abs=1e-12)

    def test_specialization_matches_omega1(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            p = tuple(float(v) for v in np.round(rng.uniform(0.5, 4.0, m), 3))
            dom = DomainSpec.single_block(p, a=1.0)
            idx = [int(v) for v in rng.integers(0, 40, m)]
            assert log_norm(dom, idx) == pytest.approx(
                log_norm_omega1(p, idx), abs=1e-12
            )

    def test_reparametrization_of_single_coordinate_blocks(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            K = int(rng.integers(1, 4))
            ps = np.round(rng.uniform(0.5, 3.0, K), 3)
            As = np.round(rng.uniform(0.5, 3.0, K), 3)
            dom1 = DomainSpec(blocks=tuple(BlockSpec((float(p),), float(a)) for p, a in zip(ps, As)))
            dom2 = DomainSpec(blocks=tuple(BlockSpec((float(p * a),), 1.0) for p, a in zip(ps, As)))
            idx = [int(v) for v in rng.integers(0, 40, K)]
            assert log_norm(dom1, idx) == pytest.approx(log_norm(dom2, idx), abs=1e-12)

    def test_outer_power_is_irrelevant_for_one_block(self):
        # with a single block, (sum |z|^2p)^a < 1 is the same set for every a
        p = (1.3, 0.8)
        idx = [3, 5]
        ref = log_norm(DomainSpec.single_block(p, a=1.0), idx)
        for a in (0.25, 2.0, 3.7):
            assert log_norm(DomainSpec.single_block(p, a=a), idx) == pytest.approx(
                ref, abs=1e-12
            )

    def test_permutation_symmetry_is_exact(self):
        dom = DomainSpec(blocks=(BlockSpec((1.7, 1.7, 1.7), 2.3), BlockSpec((0.9,), 1.0)))
        perm = DomainSpec(blocks=(BlockSpec((1.7, 1.7, 1.7), 2.3), BlockSpec((0.9,), 1.0)))
        for idx, swapped in [
            ([4, 9, 2, 5], [9, 4, 2, 5]),
            ([0, 3, 11, 1], [11, 3, 0, 1]),
        ]:
            assert log_norm(dom, idx) == log_norm(perm, swapped)

    def test_small_normal_outer_power_is_rejected(self):
        # s/a ~ 4.5e307 overflows ln Gamma: a ValidationError, not a warning
        # (which the test configuration turns into an error) or a NaN
        dom = DomainSpec(blocks=(BlockSpec((1.0,), sys.float_info.min), BlockSpec((1.0,), 1.0)))
        with pytest.raises(ValidationError):
            log_norm(dom, [0, 0])

    def test_bulk_matches_scalar(self):
        dom = DomainSpec(blocks=(BlockSpec((1.5, 0.7), 2.0), BlockSpec((1.0,), 1.0)))
        rows = np.array([[0, 0, 0], [1, 2, 3], [10, 0, 4]])
        bulk = log_norm_bulk(dom, rows)
        for row, val in zip(rows, bulk):
            assert val == log_norm(dom, [int(v) for v in row])


class TestQuadratureOracle:
    @pytest.mark.parametrize("blocks, idx", [
        (((1.3, 2.5), (0.7, 1.0)), (3, 40)),
        (((0.6, 1.0), (2.2, 1.0)), (25, 0)),
        (((1.3, 0.7), (0.7, 2.5)), (3, 40)),
        (((1 / 3, 2.5), (0.7, 1.0)), (99, 7)),
    ])
    def test_two_single_coordinate_blocks(self, blocks, idx):
        # the squared norm integrated over the region, apart from the closed
        # form: on |z1|^(2 p1 a1) + |z2|^(2 p2 a2) < 1 the inner radial
        # integral is exact, R(r)^(2 i2 + 2) / (2 i2 + 2) with
        # R(r) = (1 - r^(2 p1 a1))^(1/(2 p2 a2)), and the outer one is a
        # 30-digit quadrature
        mpmath = pytest.importorskip("mpmath")
        (p1, a1), (p2, a2) = blocks
        i1, i2 = idx
        dom = DomainSpec(blocks=(BlockSpec((p1,), a1), BlockSpec((p2,), a2)))
        with mpmath.workdps(30):
            e1 = 2 * mpmath.mpf(p1) * a1
            e2 = 2 * mpmath.mpf(p2) * a2
            h = 2 * i2 + 2
            outer = mpmath.quad(lambda r: r ** (2 * i1 + 1) * (1 - r**e1) ** (h / e2), [0, 1])
            exact = mpmath.log((2 * mpmath.pi) ** 2 * outer / h)
            assert abs(mpmath.expm1(log_norm(dom, list(idx)) - exact)) <= 1e-12


class TestMonteCarloOracle:
    def test_disk_area(self):
        est, err = mc_norm_oracle(DISK, [0], 1_000_000, seed=1)
        assert abs(est - math.pi) <= 3 * err

    def test_flat_egg_is_still_the_disk(self):
        est, err = mc_norm_oracle(DomainSpec.single_block([2.0]), [0], 1_000_000, seed=2)
        assert abs(est - math.pi) <= 3 * err

    def test_ball_monomial(self):
        est, err = mc_norm_oracle(BALL2, [1, 1], 2_000_000, seed=3)
        assert abs(est - math.pi**2 / 24.0) <= 4 * err

    def test_deterministic_given_seed(self):
        a = mc_norm_oracle(BALL2, [1, 0], 200_000, seed=9)
        b = mc_norm_oracle(BALL2, [1, 0], 200_000, seed=9)
        assert a == b

    def test_agrees_with_formula_on_random_domains(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            dom = random_domain(rng, max_dim=2)
            idx = [int(v) for v in rng.integers(0, 5, dom.dimension)]
            est, err = mc_norm_oracle(dom, idx, 1_000_000, seed=50 + trial)
            assert abs(est - math.exp(log_norm(dom, idx))) <= 4.5 * err

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError):
            mc_norm_oracle(DISK, [0], 0, seed=1)

    @pytest.mark.parametrize("samples, seed", [(10.5, 1), (10, -1), (10, 1.5), (10, "1")])
    def test_rejects_malformed_samples_and_seed(self, samples, seed):
        with pytest.raises(ValidationError):
            mc_norm_oracle(DISK, [0], samples, seed=seed)
