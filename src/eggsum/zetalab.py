"""Higher zeta series over positive-integer lattices.

A series spec encodes the general term

    i_1^{a_1} ... i_m^{a_m} * prod_G (sum_{j in G} i_j)^{a_G}
        * | -i_s + sum_{j != s} i_j |^{a_abs}      (optional)
    ------------------------------------------------------------
                (i_1 + ... + i_m)^b

summed over i in Z_{>0}^m.  ``critical_b`` evaluates the exact
divergence bound: the series can only converge when b exceeds the max
over nonempty variable subsets J of |J| plus the exponents of all factors
touching J (per-variable powers count as singleton factors).  For the
recognized structural families the bound is sharp; for everything else it
is necessary only, and the brute-force shell summation supplies the
empirical verdict.

``brute_shell_sums`` computes T_n = (shell sum of the numerator) / n^b
exactly -- for disjoint factor groups via sequence convolution, which
keeps N = 5000 shells cheap in any m <= 5, otherwise by enumerating the
lattice over ``lattice.shell_batches`` -- and classifies the tail with
the same slope fit and margin band as the commutator shell sums.  Shell
sums of the enumeration and the total are numpy's pairwise sums
(``reduction.pairwise_sum``).

Every power the series takes has an integer base in 0..N, so each comes
from a table ``_power_seq(e, N)`` built once per exponent: the
convolution path convolves the tables, its abs factor |n - 2t|^a is a
stride -2 view of one mirrored table, and the enumeration gathers from
the tables by integer index.  A power or shell sum past double range is a
``ValidationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ResourceCapError, ValidationError, finite_real, integer, parsed_json, sequence
from .lattice import range_count, shell_batches
from .reduction import pairwise_sum
from .summability import (
    DEFAULT_CAP,
    DEFAULT_MARGIN,
    DEFAULT_WINDOW,
    Verdict,
    classify_slope,
    fit_tail_slope,
)

__all__ = [
    "GroupFactor",
    "AbsFactor",
    "ZetaSeriesSpec",
    "Family",
    "FamilyMatch",
    "ZetaReport",
    "critical_b",
    "family_of",
    "reduce_group",
    "brute_shell_sums",
    "DEFAULT_ZETA_SHELL_CAP",
]

DEFAULT_ZETA_SHELL_CAP = 20_000


@dataclass(frozen=True)
class GroupFactor:
    """A factor (sum of the listed variables)^a; variables are 0-based."""

    vars: tuple[int, ...]
    a: float

    def __post_init__(self):
        members = sequence(self.vars, "group factor variables")
        object.__setattr__(
            self, "vars", tuple(sorted(integer(v, "group factor variable") for v in members))
        )
        object.__setattr__(self, "a", finite_real(self.a, "group factor exponent"))
        if len(self.vars) == 0:
            raise ValidationError("group factor needs a nonempty variable subset")
        if len(set(self.vars)) != len(self.vars):
            raise ValidationError("group factor variables must be distinct")


@dataclass(frozen=True)
class AbsFactor:
    """A factor |sum of all variables - 2 i_neg|^a (0-based ``neg``)."""

    neg: int
    a: float

    def __post_init__(self):
        object.__setattr__(self, "neg", integer(self.neg, "abs factor variable"))
        object.__setattr__(self, "a", finite_real(self.a, "abs factor exponent"))


@dataclass(frozen=True)
class ZetaSeriesSpec:
    m: int
    powers: tuple[float, ...]
    groups: tuple[GroupFactor, ...] = ()
    abs_factor: AbsFactor | None = None
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m", integer(self.m, "variable count m"))
        powers = sequence(self.powers, "powers")
        object.__setattr__(self, "powers", tuple(finite_real(v, "power") for v in powers))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "b", finite_real(self.b, "denominator exponent b"))
        if self.m < 1:
            raise ValidationError("need at least one variable")
        if len(self.powers) != self.m:
            raise ValidationError("powers vector must have one entry per variable")
        for g in self.groups:
            if g.vars[-1] >= self.m or g.vars[0] < 0:
                raise ValidationError("group factor variable out of range")
        if self.abs_factor is not None and not 0 <= self.abs_factor.neg < self.m:
            raise ValidationError("abs factor variable out of range")

    @classmethod
    def from_json(cls, text_or_obj) -> "ZetaSeriesSpec":
        obj = parsed_json(text_or_obj, "zeta spec")
        if not isinstance(obj, dict):
            raise ValidationError("zeta spec JSON must be an object")
        try:
            groups = []
            for g in sequence(obj.get("groups", []), "groups"):
                if not isinstance(g, dict):
                    raise ValidationError('each group must be {"vars": [...], "a": ...}')
                groups.append(GroupFactor(vars=g["vars"], a=g["a"]))
            abs_obj = obj.get("abs")
            if abs_obj is not None and not isinstance(abs_obj, dict):
                raise ValidationError('abs must be null or {"neg": ..., "a": ...}')
            abs_factor = None if abs_obj is None else AbsFactor(neg=abs_obj["neg"], a=abs_obj["a"])
            return cls(
                m=obj["m"],
                powers=obj["powers"],
                groups=tuple(groups),
                abs_factor=abs_factor,
                b=obj["b"],
            )
        except KeyError as exc:
            raise ValidationError(f"malformed zeta spec JSON: missing {exc}") from exc

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "powers": list(self.powers),
            "groups": [{"vars": list(g.vars), "a": g.a} for g in self.groups],
            "abs": None
            if self.abs_factor is None
            else {"neg": self.abs_factor.neg, "a": self.abs_factor.a},
            "b": self.b,
        }


def critical_b(spec: ZetaSeriesSpec) -> float:
    """Exact divergence bound: the series diverges whenever b <= this value."""
    factors: list[tuple[frozenset, float]] = [
        (frozenset([j]), spec.powers[j]) for j in range(spec.m)
    ]
    for g in spec.groups:
        factors.append((frozenset(g.vars), g.a))
    if spec.abs_factor is not None:
        # the signed form has a nonzero coefficient on every variable
        factors.append((frozenset(range(spec.m)), spec.abs_factor.a))
    best = -math.inf
    for bits in range(1, 1 << spec.m):
        J = frozenset(j for j in range(spec.m) if bits >> j & 1)
        val = len(J) + math.fsum(a for touch, a in factors if touch & J)
        best = max(best, val)
    return best


class Family(str, Enum):
    PRODUCT_ONLY = "product-only"
    FRESH_GROUP = "fresh-group"
    PAIR_PLUS_ONE = "pair-plus-one"
    PAIR_PLUS_TWO = "pair-plus-two"
    TRIPLE_PLUS_ONE = "triple-plus-one"
    TRIPLE_ABS = "triple-abs"
    TWO_PAIRS = "two-pairs"
    TWO_PAIRS_PLUS_ONE = "two-pairs-plus-one"
    UNKNOWN = "unknown"


# For these families the critical bound is sharp (convergence holds for
# every b above it) whenever the side condition is met.
_SHARP = {
    Family.PRODUCT_ONLY,
    Family.FRESH_GROUP,
    Family.PAIR_PLUS_ONE,
    Family.PAIR_PLUS_TWO,
    Family.TRIPLE_PLUS_ONE,
    Family.TRIPLE_ABS,
    Family.TWO_PAIRS,
    Family.TWO_PAIRS_PLUS_ONE,
}


@dataclass(frozen=True)
class FamilyMatch:
    family: Family
    side_ok: bool

    @property
    def sharp(self) -> bool:
        """True when convergence for b > critical_b is guaranteed."""
        return self.family in _SHARP and self.family is not Family.UNKNOWN and self.side_ok


def _two_pair_side_ok(spec: ZetaSeriesSpec) -> bool:
    # the displayed side condition is on the first variable of the first
    # pair; canonicalize "first pair" as the one holding the smallest
    # grouped variable
    first = min(spec.groups, key=lambda g: g.vars[0])
    return spec.powers[first.vars[0]] + first.a > -1.0


def family_of(spec: ZetaSeriesSpec) -> FamilyMatch:
    """Recognize the structural family of ``spec`` (else UNKNOWN).

    UNKNOWN means ``critical_b`` is a divergence bound only; no sharpness
    is claimed.
    """
    groups = spec.groups
    if spec.abs_factor is not None:
        if (
            spec.m == 4
            and (
                len(groups) == 0
                or (
                    len(groups) == 1
                    and len(groups[0].vars) == 3
                    and spec.abs_factor.neg not in groups[0].vars
                )
            )
        ):
            return FamilyMatch(Family.TRIPLE_ABS, spec.abs_factor.a > 0.0)
        return FamilyMatch(Family.UNKNOWN, False)
    if len(groups) == 0:
        return FamilyMatch(Family.PRODUCT_ONLY, True)
    if len(groups) == 1:
        g = groups[0]
        if len(g.vars) == 2 and spec.m == 3:
            return FamilyMatch(Family.PAIR_PLUS_ONE, True)
        if len(g.vars) == 2 and spec.m == 4:
            return FamilyMatch(Family.PAIR_PLUS_TWO, True)
        if len(g.vars) == 3 and spec.m == 4:
            return FamilyMatch(Family.TRIPLE_PLUS_ONE, True)
        if all(spec.powers[v] == 0.0 for v in g.vars):
            return FamilyMatch(Family.FRESH_GROUP, True)
        return FamilyMatch(Family.UNKNOWN, False)
    if len(groups) == 2:
        g1, g2 = groups
        disjoint = not (set(g1.vars) & set(g2.vars))
        pairs = len(g1.vars) == 2 and len(g2.vars) == 2
        if disjoint and pairs and spec.m == 4:
            return FamilyMatch(Family.TWO_PAIRS, _two_pair_side_ok(spec))
        if disjoint and pairs and spec.m == 5:
            return FamilyMatch(Family.TWO_PAIRS_PLUS_ONE, _two_pair_side_ok(spec))
        return FamilyMatch(Family.UNKNOWN, False)
    return FamilyMatch(Family.UNKNOWN, False)


def reduce_group(spec: ZetaSeriesSpec) -> ZetaSeriesSpec:
    """Collapse one fresh group of k power-0 variables into one variable.

    The group factor (i_{v1}+...+i_{vk})^a becomes a single new variable
    with power a+k-1 (appended last); ``critical_b`` is preserved exactly.
    """
    if len(spec.groups) != 1 or spec.abs_factor is not None:
        raise ValidationError("reduce_group needs exactly one group factor and no abs factor")
    g = spec.groups[0]
    if any(spec.powers[v] != 0.0 for v in g.vars):
        raise ValidationError("grouped variables must carry per-variable power 0")
    k = len(g.vars)
    kept = [spec.powers[j] for j in range(spec.m) if j not in g.vars]
    return ZetaSeriesSpec(
        m=len(kept) + 1,
        powers=tuple(kept) + (g.a + k - 1.0,),
        groups=(),
        abs_factor=None,
        b=spec.b,
    )


@dataclass(frozen=True, eq=False)
class ZetaReport:
    """Brute-force shell sums plus the slope-fit verdict and exact bound."""

    spec: ZetaSeriesSpec
    shell_sums: np.ndarray
    slope: float
    slope_stderr: float
    verdict: Verdict
    total: float
    critical: float
    family: Family
    side_ok: bool
    sharp: bool
    method: str


def _power_seq(exponent: float, N: int) -> np.ndarray:
    """[0, 1^e, 2^e, ..., N^e] -- weight of one positive variable by value.

    The 0 at base 0 drops a term for any sign of e.  A power that overflows
    is a ValidationError (one that underflows is 0).
    """
    out = np.zeros(N + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        out[1:] = np.arange(1, N + 1, dtype=np.float64) ** exponent
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            f"the power {N}^{exponent!r} of a series term overflows double range"
        )
    return out


def _convolve_trunc(a: np.ndarray, b: np.ndarray, N: int) -> np.ndarray:
    return np.convolve(a, b)[: N + 1]


def _blocks_of(spec: ZetaSeriesSpec) -> list[tuple[int, ...]] | None:
    """Partition variables into factor-disjoint blocks, or None if groups overlap."""
    grouped: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    for g in spec.groups:
        if grouped & set(g.vars):
            return None
        grouped |= set(g.vars)
        blocks.append(g.vars)
    for j in range(spec.m):
        if j not in grouped:
            blocks.append((j,))
    return blocks


def _numerator_by_shell_conv(spec: ZetaSeriesSpec, N: int) -> np.ndarray | None:
    """Shell sums of the numerator via convolution; None when not applicable."""
    blocks = _blocks_of(spec)
    if blocks is None:
        return None
    if spec.abs_factor is not None and any(
        spec.abs_factor.neg in g.vars for g in spec.groups
    ):
        # the neg variable must be a bare free block; a group factor on it
        # could not be folded into the per-shell abs weight
        return None
    group_exp = {g.vars: g.a for g in spec.groups}
    seqs = []
    for blk in blocks:
        if spec.abs_factor is not None and blk == (spec.abs_factor.neg,):
            continue
        w = _power_seq(spec.powers[blk[0]], N)
        for v in blk[1:]:
            w = _convolve_trunc(w, _power_seq(spec.powers[v], N), N)
        if blk in group_exp:
            w = w * _power_seq(group_exp[blk], N)
        seqs.append(w)
    if spec.abs_factor is None:
        total = seqs[0]
        for w in seqs[1:]:
            total = _convolve_trunc(total, w, N)
        return total
    neg = spec.abs_factor.neg
    a_abs = spec.abs_factor.a
    v_seq = _power_seq(spec.powers[neg], N)
    if seqs:
        u = seqs[0]
        for w in seqs[1:]:
            u = _convolve_trunc(u, w, N)
    else:
        u = np.zeros(N + 1)
        u[0] = 1.0
    w = _power_seq(a_abs, N)
    # mirrored: mirror[N + k] = |k|^a for k = -N..N
    mirror = np.concatenate([w[:0:-1], w])
    out = np.zeros(N + 1, dtype=np.float64)
    for n in range(1, N + 1):
        # |n - 2t| for t = 1..n, a stride -2 view of the mirrored table
        fac = mirror[N - n : N + n - 1 : 2][::-1]
        out[n] = float(np.dot(v_seq[1 : n + 1] * fac, u[n - 1 :: -1][:n]))
    return out


def _numerator_by_shell_enum(spec: ZetaSeriesSpec, N: int, term_cap: int) -> np.ndarray:
    """Direct lattice enumeration fallback (overlapping groups etc.).

    Shell n of the positive lattice is shell n - m of N^m shifted by one in
    every variable; each run of ``shell_batches`` is evaluated at once and
    summed pairwise per shell."""
    m = spec.m
    shells = range(N - m + 1)
    total_terms = range_count(m, shells)
    if total_terms > term_cap:
        raise ResourceCapError(
            f"enumerating {total_terms} lattice terms exceeds the cap of {term_cap}"
        )
    # tables up to the largest base each factor reaches: one variable is at
    # most N - m + 1, a group of k variables sums to at most N - m + k
    top = N - m + 1
    var_tables = [_power_seq(e, top) for e in spec.powers]
    group_tables = [(g.vars, _power_seq(g.a, top + len(g.vars) - 1)) for g in spec.groups]
    abs_table = None if spec.abs_factor is None else _power_seq(spec.abs_factor.a, N)
    out = np.zeros(N + 1, dtype=np.float64)
    for first, offsets, rows in shell_batches(m, shells):
        rows = rows + 1
        vals = var_tables[0][rows[:, 0]]
        for j in range(1, m):
            vals *= var_tables[j][rows[:, j]]
        for members, table in group_tables:
            vals *= table[rows[:, list(members)].sum(axis=1)]
        if abs_table is not None:
            vals *= abs_table[np.abs(rows.sum(axis=1) - 2 * rows[:, spec.abs_factor.neg])]
        out[first + m : first + m + offsets.size] = pairwise_sum(vals, offsets)
    return out


def brute_shell_sums(
    spec: ZetaSeriesSpec,
    N: int,
    *,
    max_shells: int = DEFAULT_ZETA_SHELL_CAP,
    window: float = DEFAULT_WINDOW,
    margin: float = DEFAULT_MARGIN,
    term_cap: int = DEFAULT_CAP,
) -> ZetaReport:
    """Shell sums T_n (n <= N) of the series and the slope-fit verdict."""
    if spec.m > 5:
        raise ValidationError("brute-force summation supports at most 5 variables")
    N = int(N)
    if N < 16:
        raise ValidationError("N must be at least 16")
    if N > max_shells:
        raise ResourceCapError(
            f"N={N} exceeds the configured shell cap {max_shells}; raise max_shells to proceed"
        )
    # a product or sum past double range is inf (or inf * 0 = NaN) here and
    # a ValidationError below, never a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        numer = _numerator_by_shell_conv(spec, N)
        method = "convolution"
        if numer is None:
            numer = _numerator_by_shell_enum(spec, N, term_cap)
            method = "enumeration"
        sums = np.zeros(N + 1, dtype=np.float64)
        # n^-b underflows where n^b would overflow
        sums[1:] = numer[1:] * _power_seq(-spec.b, N)[1:]
    if not np.all(np.isfinite(sums)):
        raise ValidationError("a shell sum of the series overflows double range")
    slope, stderr = fit_tail_slope(sums, window)
    match = family_of(spec)
    return ZetaReport(
        spec=spec,
        shell_sums=sums,
        slope=slope,
        slope_stderr=stderr,
        verdict=classify_slope(slope, margin),
        total=pairwise_sum(sums),
        critical=critical_b(spec),
        family=match.family,
        side_ok=match.side_ok,
        sharp=match.sharp,
        method=method,
    )
