"""Reference values computed apart from eggsum.

Nothing here imports eggsum, and mpmath is imported only inside the
functions that use it, so that a run which never checks (the memory probe)
does not load it.  The checks compare the program against:

* exact rational commutator eigenvalues on the disk and the unit ball,
  from the factorial form of the ball's monomial norms;
* 50-digit mpmath eigenvalues on general egg domains, from the
  Dirichlet-Liouville evaluation of the monomial-norm integral;
* a pure-Python lattice brute force for zeta-series shell sums;
* the exact critical exponent of a zeta series, by subset enumeration;
* the paper's cut-offs, as constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# The paper's Schatten cut-offs for the cases the workloads run.
PAPER_CUTOFF = {
    "disk": 0.5,  # d = 1
    "ball": 2.0,  # unit ball in C^2: the dimension
    "crit4-self": 4.0,  # outer power 2 on one of three discs
    "crit4-between": 3.0,  # cross kinds between blocks: the dimension
    "crit5-within": 4.0,  # two coordinates under outer power 4, plus a disc
}

# Acceptance bands of the repository's acceptance suite: 10 % around the
# cut-off (0.1 absolute for the disk).
def acceptance_band(cutoff: float) -> tuple[float, float]:
    half = 0.1 if cutoff < 1.0 else 0.1 * cutoff
    return cutoff - half, cutoff + half


# ------------------------------------------------------------ ball, exact


def _ball_norm(alpha) -> Fraction:
    """||z^alpha||^2 / pi^d on the unit ball in C^d: alpha! / (|alpha| + d)!."""
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(alpha) + len(alpha)))


def ball_self_eigenvalue(alpha, j: int) -> Fraction:
    """[M_zj, M_zj*] on the unit ball at z^alpha, exactly.

    ||z^a||^2/||z^(a-e_j)||^2 - ||z^(a+e_j)||^2/||z^a||^2, the first term
    absent when alpha_j = 0.  The disk is the case d = 1.
    """
    alpha = tuple(int(a) for a in alpha)
    up = list(alpha)
    up[j] += 1
    value = -_ball_norm(up) / _ball_norm(alpha)
    if alpha[j] > 0:
        down = list(alpha)
        down[j] -= 1
        value += _ball_norm(alpha) / _ball_norm(down)
    return value


# ------------------------------------------------------ egg domains, mpmath

_DIGITS = 50


def egg_log_norm(blocks, alpha) -> mpmath.mpf:  # noqa: F821
    """ln ||z^alpha||^2 on sum_k (sum_j |z_jk|^(2 p_jk))^(a_k) < 1, at 50 digits.

    With t = |z|^2 and u = t^p the integral pi^d int prod t^alpha dt is a
    Dirichlet integral per block and a Liouville integral over the blocks:

      pi^d prod_jk (1/p_jk) prod_k (1/a_k) prod_k [prod_j G(v_jk) / G(s_k)]
           * prod_k G(s_k/a_k) / G(1 + sum_k s_k/a_k),

    with v_jk = (alpha_jk + 1)/p_jk and s_k = sum_j v_jk.  ``blocks`` is a
    list of (p tuple, a); ``alpha`` is flat in block order.
    """
    import mpmath

    with mpmath.workdps(_DIGITS):
        total = mpmath.mpf(0)
        outer = mpmath.mpf(0)
        pos = 0
        for p, a in blocks:
            a = mpmath.mpf(a)
            s = mpmath.mpf(0)
            for pj in p:
                pj = mpmath.mpf(pj)
                v = (alpha[pos] + 1) / pj
                total += mpmath.loggamma(v) - mpmath.log(pj)
                s += v
                pos += 1
            total += -mpmath.loggamma(s) - mpmath.log(a) + mpmath.loggamma(s / a)
            outer += s / a
        return total + pos * mpmath.log(mpmath.pi) - mpmath.loggamma(1 + outer)


def egg_eigenvalue(blocks, kind, alpha) -> mpmath.mpf:  # noqa: F821
    """Commutator eigenvalue at z^alpha, at 50 digits.

    ``kind`` is ("self", col) for [M_z, M_z*], or ("cross", raised, lowered)
    for the modulus of [M_zr, M_zl*], which maps e_alpha to a multiple of
    e_(alpha + e_r - e_l):

      sqrt(N(a) N(a+e_r-e_l)) / N(a-e_l) - N(a+e_r) / sqrt(N(a) N(a+e_r-e_l)).
    """
    import mpmath

    alpha = tuple(int(a) for a in alpha)

    def norm(shift):
        idx = list(alpha)
        for col, step in shift:
            idx[col] += step
        return mpmath.exp(egg_log_norm(blocks, idx))

    with mpmath.workdps(_DIGITS):
        if kind[0] == "self":
            col = kind[1]
            value = -norm([(col, 1)]) / norm([])
            if alpha[col] > 0:
                value += norm([]) / norm([(col, -1)])
            return value
        _, r, l = kind
        if alpha[l] == 0:
            return mpmath.mpf(0)
        root = mpmath.sqrt(norm([]) * norm([(r, 1), (l, -1)]))
        return abs(root / norm([(l, -1)]) - norm([(r, 1)]) / root)


def relative_error(value: float, reference) -> float:
    """|value - reference| / |reference|, the reference at full precision."""
    import mpmath

    with mpmath.workdps(_DIGITS):
        if isinstance(reference, Fraction):
            ref = mpmath.mpf(reference.numerator) / reference.denominator
        else:
            ref = mpmath.mpf(reference)
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


# ----------------------------------------------------------- zeta series


def critical_exponent(m: int, powers, groups, abs_a) -> Fraction:
    """max over nonempty J of |J| + the exponents of the factors touching J.

    ``groups`` is a list of (variables, exponent); the abs factor, when
    ``abs_a`` is not None, touches every variable.  Exact for the
    quarter-step exponents the workloads draw.
    """
    factors = [({j}, Fraction(powers[j])) for j in range(m)]
    factors += [(set(vs), Fraction(a)) for vs, a in groups]
    if abs_a is not None:
        factors.append((set(range(m)), Fraction(abs_a)))
    best = None
    for size in range(1, m + 1):
        for J in combinations(range(m), size):
            val = size + sum((a for touch, a in factors if touch & set(J)), Fraction(0))
            best = val if best is None else max(best, val)
    return best


def _positive_compositions(n: int, m: int):
    if m == 1:
        yield (n,)
        return
    for first in range(1, n - m + 2):
        for rest in _positive_compositions(n - first, m - 1):
            yield (first,) + rest


def lattice_shell_sums(m: int, powers, groups, b: float, N: int) -> list[float]:
    """T_n = sum over i in Z_{>0}^m with |i| = n of the term numerator, / n^b.

    Plain loops over the lattice, each shell summed exactly rounded
    (math.fsum).  Only for small N.
    """
    sums = [0.0] * (N + 1)
    for n in range(m, N + 1):
        terms = []
        for i in _positive_compositions(n, m):
            t = 1.0
            for j in range(m):
                t *= float(i[j]) ** powers[j]
            for vs, a in groups:
                t *= float(sum(i[v] for v in vs)) ** a
            terms.append(t)
        sums[n] = math.fsum(terms) / float(n) ** b
    return sums
