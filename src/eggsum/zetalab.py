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
exactly and checks and classifies the tail with the commutator sums'
``tail_fit``: no report holds a NaN slope.  One routine sums every spec:
it fixes the fewest variables that leave factor-disjoint blocks (none,
one or more), and the numerator is a convolution of the blocks
(``reduction.fold``), once or for each row of values of the fixed
variables, which keeps N = 5000 shells cheap wherever one variable is
enough; no lattice is walked.
``method`` names the spec's structure, not the loop that sums it.  The
total is numpy's pairwise sum (``reduction.pairwise_sum``).  One ``cap``
bounds the work, and the report holds the cap in effect.

Every power the series takes has an integer base in 0..N, so each comes
from a table ``_power_seq`` built once per exponent, which the
convolutions slice.  A power past double range is a ``ValidationError``,
and so is a shell sum, which ``tail_fit`` refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ResourceCapError,
    ValidationError,
    finite_real,
    integer,
    last_shell,
    parsed_json,
    positive_integer,
    sequence,
)
from .lattice import range_count, shell_rows
from .reduction import fold
from .summability import (
    DEFAULT_CAP,
    DEFAULT_MARGIN,
    DEFAULT_WINDOW,
    Verdict,
    require_fit_window,
    require_margin,
    tail_fit,
    zero_shell_sums,
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

# rows of values of the fixed variables per part in ``_numerator_by_shell_conv``
# (best of 16/32/64/128 for the abs factor's tiles at N = 5000)
_ROWS = 64


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


@dataclass(frozen=True)
class FamilyMatch:
    family: Family
    side_ok: bool

    @property
    def sharp(self) -> bool:
        """True when convergence for b > critical_b is guaranteed: the bound
        is sharp for every recognized family whose side condition is met."""
        return self.family is not Family.UNKNOWN and self.side_ok


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
    """Brute-force shell sums plus the slope-fit verdict (``tail_fit``:
    never a NaN slope or a non-finite total), the exact bound and the cap
    in effect."""

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
    cap: int


def _power_seq(exponent: float, N: int, top: int | None = None) -> np.ndarray:
    """[0, 1^e, 2^e, ..., top^e, 0, ..., 0] (N + 1 terms; ``top`` is N by
    default) -- weight of one positive variable by value.

    The 0 at base 0 drops a term for any sign of e.  A power that overflows
    is a ValidationError (one that underflows is 0).
    """
    top = N if top is None else top
    out = np.zeros(N + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        out[1 : top + 1] = np.arange(1, top + 1, dtype=np.float64) ** exponent
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            f"the power {top}^{exponent!r} of a series term overflows double range"
        )
    return out


def _method(spec: ZetaSeriesSpec) -> str:
    """``"convolution"`` when the groups are disjoint and the abs variable is
    in none of them, else ``"enumeration"``: a name for the spec's
    structure, not for the loop that sums it."""
    grouped = [j for g in spec.groups for j in g.vars]
    if len(set(grouped)) == len(grouped) and (
        spec.abs_factor is None or spec.abs_factor.neg not in grouped
    ):
        return "convolution"
    return "enumeration"


def _tables(spec: ZetaSeriesSpec, N: int):
    """Power tables of the variables, the groups and the abs factor (or
    None), N + 1 terms each, built to the largest base a term reaches: N -
    m + k for a k-variable factor, N for the abs factor."""
    var_t = [_power_seq(e, N, N - spec.m + 1) for e in spec.powers]
    group_t = [_power_seq(g.a, N, N - spec.m + len(g.vars)) for g in spec.groups]
    abs_t = None if spec.abs_factor is None else _power_seq(spec.abs_factor.a, N)
    return var_t, group_t, abs_t


def _blocks_without(spec: ZetaSeriesSpec, fixed: tuple[int, ...]):
    """The blocks of the variables not in ``fixed``, or None when two groups
    would still share a variable.

    A group without the fixed variables makes a block whose sum its table
    weighs, shared by the groups left with the same variables; left with
    none it is a scalar, and left with one variable of a larger block it
    weighs that variable.  Returns the scalar groups, each variable's own
    groups and the blocks as (variables, groups): those of the groups in
    order, then the free variables.
    """
    by_rest: dict[tuple[int, ...], list[int]] = {}
    for k, g in enumerate(spec.groups):
        by_rest.setdefault(tuple(j for j in g.vars if j not in fixed), []).append(k)
    scalars = by_rest.pop((), [])
    held: set[int] = set()
    for rest in by_rest:
        if len(rest) > 1:
            if held & set(rest):
                return None
            held |= set(rest)
    own: dict[int, list[int]] = {j: [] for j in range(spec.m) if j not in fixed}
    blocks = []
    for rest, ks in by_rest.items():
        if len(rest) == 1 and rest[0] in held:
            own[rest[0]] += ks
        else:
            blocks.append((rest, ks))
    blocks += [((j,), []) for j in own if j not in held and (j,) not in by_rest]
    return scalars, own, blocks


def _numerator_by_shell_conv(spec: ZetaSeriesSpec, N: int) -> np.ndarray:
    """Shell sums of the numerator by convolution with the fewest variables
    V fixed that leave disjoint blocks: the first such subset by size (in
    ``itertools.combinations`` order), one that holds the abs variable if
    there is an abs factor.  All m variables always do.

    For each row h of values of V (``lattice.shell_rows`` + 1), with total
    s, a group reads its table from the sum of its fixed members' values
    on, and the convolution of the blocks, cut to N + 1 - s terms, adds
    into shells s .. N times the row's weight c (V's weights and the scalar
    groups) and, with an abs factor, |n - 2 h_neg|^a, a slice of one
    mirrored table (|k|^a for k = -N..N).  Blocks that do not depend on h
    are folded once.  If none does (then V is one variable), the rows of
    ``_ROWS`` values are one tile that ``np.einsum`` sums over windows.
    Parts of ``_ROWS`` rows are added pairwise.
    """
    need = set() if spec.abs_factor is None else {spec.abs_factor.neg}
    for V in (sub for k in range(spec.m + 1) for sub in combinations(range(spec.m), k)):
        plan = _blocks_without(spec, V) if need <= set(V) else None
        if plan is not None:
            break
    scalars, own, blocks = plan
    var_t, group_t, abs_t = _tables(spec, N)

    def block_seq(members, ks, f, s):
        # a group weighs the sum of its free variables plus f[k], that of
        # its fixed ones
        seqs = []
        for j in members:
            w = var_t[j][: N + 1 - s]
            for k in own[j]:
                w = w * group_t[k][f[k] : f[k] + N + 1 - s]
            seqs.append(w)
        w = fold(seqs, N - s)
        for k in ks:
            w = w * group_t[k][f[k] : f[k] + N + 1 - s]
        return w

    shifted = {k for k, g in enumerate(spec.groups) if set(g.vars) & set(V)}
    still, moving = [], []
    for members, ks in blocks:
        moves = shifted & {*ks, *(k for j in members for k in own[j])}
        (moving if moves else still).append((members, ks))
    u = fold([block_seq(*b, [0] * len(spec.groups), 0) for b in still], N)
    if not V:
        return u
    rows = shell_rows(len(V), range(N - spec.m + 1))[0] + 1
    totals = rows.sum(axis=1)
    # each group's sum of its fixed members, and each row's weight
    f = rows @ np.array([[j in g.vars for g in spec.groups] for j in V], dtype=int)
    c = np.ones(len(rows))
    for i, j in enumerate(V):
        c *= var_t[j][rows[:, i]]
    for k in scalars:
        c *= group_t[k][f[:, k]]
    if abs_t is not None:
        mirror = np.concatenate([abs_t[:0:-1], abs_t])
    # the abs variable's value (without an abs factor, any column: unused)
    h_neg = rows[:, 0 if abs_t is None else V.index(spec.abs_factor.neg)]
    if not moving:
        # then V = (v,) and there is an abs factor (else V would be empty);
        # the row of h = start + i reads u and the mirror i and 2i places back
        u_pad = np.concatenate([np.zeros(_ROWS - 1), u])
        mirror_pad = np.concatenate([np.zeros(2 * _ROWS - 2), mirror])
    # parts of ``_ROWS`` rows added pairwise: a shell's sum over the rows
    # keeps the accuracy of a pairwise sum
    parts: list[np.ndarray] = []
    for count, first in enumerate(range(0, len(rows), _ROWS), 1):
        last = min(first + _ROWS, len(rows))
        part = np.zeros(N + 1, dtype=np.float64)
        if moving:
            for s, f_row, h, c_row in zip(*(a[first:last].tolist() for a in (totals, f, h_neg, c))):
                seqs = [u[: N + 1 - s]] if still else []
                rest = fold(seqs + [block_seq(*b, f_row, s) for b in moving], N - s)
                if abs_t is not None:
                    # |n - 2 h_neg| for n = s..N
                    rest = rest * mirror[N + s - 2 * h : 2 * N + 1 - 2 * h]
                part[s:] += c_row * rest
        else:
            # row r holds h = r + 1
            start, size = first + 1, last - first
            L, at = N + 1 - start, 2 * _ROWS - 2 + N - start
            tile = sliding_window_view(u_pad, L)[_ROWS - size : _ROWS][::-1]
            marks = sliding_window_view(mirror_pad, L)[at - 2 * size + 2 : at + 1 : 2][::-1]
            part[start:] = np.einsum("i,ik,ik->k", c[first:last], tile, marks)
        parts.append(part)
        while count % 2 == 0:
            part = parts.pop()
            parts[-1] += part
            count //= 2
    out = parts.pop()
    for part in reversed(parts):
        out += part
    return out


def brute_shell_sums(
    spec: ZetaSeriesSpec,
    N: int,
    *,
    window: float = DEFAULT_WINDOW,
    margin: float = DEFAULT_MARGIN,
    cap: int | None = None,
) -> ZetaReport:
    """Shell sums T_n (n <= N) of the series and the slope-fit verdict.
    Without a cap, N is at most ``DEFAULT_ZETA_SHELL_CAP`` and an
    "enumeration" spec has at most ``DEFAULT_CAP`` lattice terms; an
    explicit cap lifts the shell ceiling and bounds the terms.  Every
    parameter is checked before the first table, N and the window
    (``require_fit_window``) first."""
    N = last_shell(N)
    require_fit_window(N, window)
    if spec.m > 5:
        raise ValidationError("brute-force summation supports at most 5 variables")
    if cap is None and N > DEFAULT_ZETA_SHELL_CAP:
        raise ResourceCapError(
            f"N={N} exceeds the shell ceiling {DEFAULT_ZETA_SHELL_CAP}; give --cap "
            "(cap= from Python), which lifts it, to proceed"
        )
    cap = DEFAULT_CAP if cap is None else positive_integer(cap, "cap")
    method = _method(spec)
    if method == "enumeration":
        total_terms = range_count(spec.m, range(N - spec.m + 1))
        if total_terms > cap:
            raise ResourceCapError(
                f"enumerating {total_terms} lattice terms exceeds the cap of {cap}"
            )
    require_margin(margin)
    sums = zero_shell_sums(N)
    # a product or sum past double range is inf (or inf * 0 = NaN) here and
    # a ValidationError of tail_fit below, never a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        numer = _numerator_by_shell_conv(spec, N)
        # n^-b underflows where n^b would overflow
        sums[1:] = numer[1:] * _power_seq(-spec.b, N)[1:]
    slope, stderr, verdict, total = tail_fit(sums, window, margin)
    match = family_of(spec)
    return ZetaReport(
        spec=spec,
        shell_sums=sums,
        slope=slope,
        slope_stderr=stderr,
        verdict=verdict,
        total=total,
        critical=critical_b(spec),
        family=match.family,
        side_ok=match.side_ok,
        sharp=match.sharp,
        method=method,
        cap=cap,
    )
