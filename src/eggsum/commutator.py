"""Diagonal eigenvalues of coordinate-multiplier commutators.

On an egg domain the commutators of the coordinate multiplications (and
the moduli of the cross ones) are diagonal in the normalized monomial
basis.  The three kinds are

* ``SelfAdjoint(block, coord)`` -- [M_z, M_z*] for one coordinate z; its
  eigenvalue lam keeps its sign and is a difference of two norm ratios,
  the lowering term dropping when the entry is 0;
* ``CrossWithin(block, raised, lowered)`` -- modulus eigenvalue mu >= 0
  for two coordinates of the same block: the raised coordinate's entry
  goes up by one and the lowered one's down by one inside the norm
  ratios, and mu vanishes when the lowered entry is 0;
* ``CrossBetween(raised_block, raised_coord, lowered_block,
  lowered_coord)`` -- same structure across two different blocks.

Each eigenvalue is a difference of two norm ratios that agree to within
a relative 1/|idx|^2 at large indices (3e-7 apart at ball index
(3000, 0)), so neither the log-norms (up to ~1e4 in size) nor their first
differences may be subtracted.  With L the log-norm, the kernel works
from

* the first difference D_c(i) = L(i+e_c) - L(i), a sum of Gamma ratios
  (``gammakit.log_gamma_ratio``), which gives the size of one ratio;
* the mixed second difference M(j) = L(j+e_r+e_l) - L(j+e_r) - L(j+e_l)
  + L(j), a sum of Gamma second differences
  (``gammakit.log_gamma_second_difference``) each accurate relative to
  its own size, which gives the log of the quotient of the two ratios.

At j = i - e_l (l = r for the self kind), lam(i) = -e^D_r(j) expm1(M(j))
and mu(i) = e^A |expm1(M(j))| with A = (D_r(j) + D_l(j))/2.  No full
log-norm is formed.

Every Gamma and log1p term depends on a row only through an integer key:
an entry, the degree sums of a block's runs of equal p (which give s_k),
or the degree sums of the groups of equal p a (which give T, keyed by all
groups but the last and the row sum).  Each term is evaluated once per
distinct key of the rows in a call and gathered (``_KeyTable``), or per
row where the keys are no fewer than the rows (unequal p in a block, three
or more groups of equal p a, a single row).  Both apply the same
elementwise function to the same integer keys, so an eigenvalue does not
depend on the rows evaluated with it.

``asymptotic_eigenvalue`` returns the dominant large-index expression for
each kind (up to the unknown multiplicative constant), used only for
ratio-convergence checks along rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import gammakit
from .domain import DomainSpec, as_multi_index, flatten_index
from .errors import ValidationError

__all__ = [
    "SelfAdjoint",
    "CrossWithin",
    "CrossBetween",
    "CommutatorKind",
    "all_kinds",
    "validate_kind",
    "eigenvalue",
    "eigenvalue_bulk",
    "column_partition",
    "asymptotic_eigenvalue",
]


@dataclass(frozen=True)
class SelfAdjoint:
    block: int
    coord: int


@dataclass(frozen=True)
class CrossWithin:
    block: int
    raised: int
    lowered: int


@dataclass(frozen=True)
class CrossBetween:
    raised_block: int
    raised_coord: int
    lowered_block: int
    lowered_coord: int


CommutatorKind = Union[SelfAdjoint, CrossWithin, CrossBetween]


def _columns(dom: DomainSpec, kind: CommutatorKind) -> tuple[int, int | None]:
    """(raised column, lowered column or None) after validating ``kind``."""
    if isinstance(kind, SelfAdjoint):
        return dom.flat_position(kind.block, kind.coord), None
    if isinstance(kind, CrossWithin):
        r = dom.flat_position(kind.block, kind.raised)
        l = dom.flat_position(kind.block, kind.lowered)
        if dom.blocks[kind.block].size < 2:
            raise ValidationError("CrossWithin needs a block with at least two coordinates")
        if kind.raised == kind.lowered:
            raise ValidationError("CrossWithin needs two distinct coordinates")
        return r, l
    if isinstance(kind, CrossBetween):
        if kind.raised_block == kind.lowered_block:
            raise ValidationError("CrossBetween needs two distinct blocks")
        return (
            dom.flat_position(kind.raised_block, kind.raised_coord),
            dom.flat_position(kind.lowered_block, kind.lowered_coord),
        )
    raise ValidationError(f"unknown commutator kind {kind!r}")


def validate_kind(dom: DomainSpec, kind: CommutatorKind) -> None:
    """Raise ValidationError when ``kind`` does not fit ``dom``."""
    _columns(dom, kind)


def all_kinds(dom: DomainSpec) -> list[CommutatorKind]:
    """Every valid commutator kind on ``dom`` (cross pairs unordered)."""
    kinds: list[CommutatorKind] = []
    for k, blk in enumerate(dom.blocks):
        for j in range(blk.size):
            kinds.append(SelfAdjoint(k, j))
        for j in range(blk.size):
            for l in range(j + 1, blk.size):
                kinds.append(CrossWithin(k, j, l))
    for k in range(len(dom.blocks)):
        for kp in range(k + 1, len(dom.blocks)):
            for j in range(dom.blocks[k].size):
                for l in range(dom.blocks[kp].size):
                    kinds.append(CrossBetween(k, j, kp, l))
    return kinds


def _groups(dom: DomainSpec) -> tuple[list[list], list]:
    """Each block's runs of equal p, and the domain's groups of equal p a,
    as (weight, columns) pairs in order of first column: the sums through
    which the kernel reads a row besides its raised and lowered entries."""
    runs: list[dict[float, list[int]]] = [{} for _ in dom.blocks]
    outer: dict[float, list[int]] = {}
    for col, (k, p) in enumerate(dom.columns):
        runs[k].setdefault(p, []).append(col)
        outer.setdefault(p * dom.blocks[k].a, []).append(col)
    return [list(r.items()) for r in runs], list(outer.items())


def column_partition(dom: DomainSpec, kind: CommutatorKind) -> list[list[int]]:
    """The flat columns of ``dom`` in groups that the kernel of ``kind``
    cannot tell apart, in order of their first column.

    The kernel reads a row only through its raised and lowered entries,
    the run sums of equal p of the kind's block or blocks and the group
    sums of equal p a (``_groups``), so moving degree between two columns
    of one group leaves the eigenvalue bit for bit as it is.  The raised
    and lowered columns stay alone; the other columns of the kind's blocks
    group by the block's runs, the rest by the groups of equal p a.
    """
    r_col, l_col = _columns(dom, kind)
    alone = {r_col, r_col if l_col is None else l_col}
    kind_blocks = {dom.columns[col][0] for col in alone}
    runs, outer = _groups(dom)
    groups = [[col] for col in alone]
    groups += [[c for c in cols if c not in alone] for k in kind_blocks for _, cols in runs[k]]
    groups += [[c for c in cols if dom.columns[c][0] not in kind_blocks] for _, cols in outer]
    return sorted((g for g in groups if g), key=lambda g: g[0])


class _KeyTable:
    """Integer keys of the rows (one or more int64 columns), and the distinct
    keys when there are fewer of them than rows.

    Each row's key is coded in mixed radix over the span of its columns and
    marked in a ``present`` mask, whose running count numbers the distinct
    codes: no sort.  ``keys`` are then the distinct keys and ``inverse``
    each row's place among them.  When neither the span nor the distinct
    count is smaller than the row count, ``keys`` are the rows' own and
    ``inverse`` is None.  A table applies an elementwise function to its
    keys either way, so a row's value does not depend on the other rows.
    """

    def __init__(self, columns: list[np.ndarray]):
        self.keys, self.inverse = tuple(columns), None
        rows = columns[0].size
        if rows == 0:
            return
        lows = [int(c.min()) for c in columns]
        widths = [int(c.max()) - lo + 1 for c, lo in zip(columns, lows)]
        span = math.prod(widths)
        if span >= rows:
            return
        code = columns[0] - lows[0]
        if len(columns) == 1:
            # every value of a one-column span is a key of the same kind
            self.keys, self.inverse = (np.arange(lows[0], lows[0] + span),), code
            return
        for c, lo, w in zip(columns[1:], lows[1:], widths[1:]):
            code *= w
            code += c
            code -= lo
        present = np.zeros(span, dtype=bool)
        present[code] = True
        rank = np.cumsum(present)
        if rank[-1] >= rows:
            return
        rank -= 1
        codes = np.flatnonzero(present)
        keys = []
        for lo, w in zip(lows[:0:-1], widths[:0:-1]):
            codes, digit = np.divmod(codes, w)
            keys.append(digit + lo)
        keys.append(codes + lows[0])
        self.keys, self.inverse = tuple(keys[::-1]), rank[code]

    def __call__(self, fn) -> np.ndarray:
        """``fn`` of each row's key: once per distinct key, then gathered."""
        values = fn(*self.keys)
        return values if self.inverse is None else values[self.inverse]


def _weight(degrees, groups) -> np.ndarray:
    """sum over ``groups`` of (degree + size) / weight, in group order, for
    groups (weight, columns) and their integer degree sums."""
    out = (degrees[0] + len(groups[0][1])) / groups[0][0]
    for deg, (weight, cols) in zip(degrees[1:], groups[1:]):
        out += (deg + len(cols)) / weight
    return out


class _Keyed:
    """The kernel's Gamma and log1p terms for integer index rows, each
    evaluated on a ``_KeyTable`` of integer degree sums and gathered per row.

    * ``entry(col, fn)`` -- fn(e) for the entry e of column ``col``;
    * ``block(k, fn)`` -- fn(s_k) for the weight sum of block k: the key is
      the degree sum D of each run of the block's coordinates with equal p,
      and s_k = sum (D + m)/p over the runs, m a run's size;
    * ``total(fn)`` -- fn(T) for the total outer weight: the coordinates are
      grouped by equal p a, T = sum (G + m)/(p a) over the groups, and the
      key is the degrees G of all groups but the last together with the row
      sum, which fixes the last (a shell has O(n) such keys).

    Each key set's table is built once per instance, so the step and mixed
    terms share it.
    """

    def __init__(self, dom: DomainSpec, rows: np.ndarray):
        self._rows = rows
        self._tables: dict = {}
        self._blocks, self._outer = _groups(dom)

    def _degree(self, cols) -> np.ndarray:
        """Sum of the columns ``cols``, added column by column (a sum along
        a short row axis costs ten times as much)."""
        out = self._rows[:, cols[0]]
        for col in cols[1:]:
            out = out + self._rows[:, col]
        return out

    def _table(self, name, columns) -> _KeyTable:
        if name not in self._tables:
            self._tables[name] = _KeyTable(columns())
        return self._tables[name]

    def entry(self, col: int, fn) -> np.ndarray:
        return self._table(("entry", col), lambda: [self._rows[:, col]])(fn)

    def block(self, k: int, fn) -> np.ndarray:
        runs = self._blocks[k]
        table = self._table(("block", k), lambda: [self._degree(cols) for _, cols in runs])
        return table(lambda *degrees: fn(_weight(degrees, runs)))

    def total(self, fn) -> np.ndarray:
        groups = self._outer
        table = self._table(
            "total",
            lambda: [self._degree(cols) for _, cols in groups[:-1]]
            + [self._degree(range(self._rows.shape[1]))],
        )

        def of_key(*key):
            *degrees, row_sum = key
            degrees.append(row_sum - sum(degrees))
            return fn(_weight(degrees, groups))

        return table(of_key)


def _log_norm_step(dom: DomainSpec, keyed: _Keyed, cols: tuple[int, ...]) -> np.ndarray:
    """Sum over the columns ``cols`` of ln||z^(i+e_c)||^2 - ln||z^i||^2 for
    every row i, as Gamma ratios; the columns share one block and one p.

    With v the weight of column c, h = 1/p its step, s the sum of its block
    k and T the total outer weight, the first difference is

        R(v, h) - R(s, h) + R(s/a_k, h/a_k) - R(T, h/a_k) - log1p(h/(a_k T)),

    R(x, h) = ln Gamma(x+h) - ln Gamma(x); the block terms drop for a
    one-coordinate block and the outer ones for a one-block domain.  Only
    R(v, h) (the outer term too, for a one-coordinate block) depends on the
    column, so the other terms are evaluated once for all of ``cols``.
    """
    k, p = dom.columns[cols[0]]
    blk = dom.blocks[k]
    h = 1.0 / p
    u = h / blk.a
    several = len(dom.blocks) > 1
    out = keyed.total(lambda t: -np.log1p(u / t))
    if blk.size > 1:
        out -= keyed.block(k, lambda s: gammakit.log_gamma_ratio(s, h, 0.0))
        if several:
            out += keyed.block(k, lambda s: gammakit.log_gamma_ratio(s / blk.a, u, 0.0))
    if several:
        out -= keyed.total(lambda t: gammakit.log_gamma_ratio(t, u, 0.0))
    out *= len(cols)
    for col in cols:
        if blk.size > 1:
            out += keyed.entry(col, lambda e: gammakit.log_gamma_ratio((e + 1.0) / p, h, 0.0))
        elif several:
            out += keyed.entry(
                col, lambda e: gammakit.log_gamma_ratio((e + 1.0) / p / blk.a, u, 0.0)
            )
    return out


def _log_norm_mixed(dom: DomainSpec, keyed: _Keyed, r: int, l: int) -> np.ndarray:
    """L(j+e_r+e_l) - L(j+e_r) - L(j+e_l) + L(j) for every row j, with L the
    log-norm and r == l allowed.

    Only the Gamma factors whose argument both steps move survive: the
    coordinate's own (r == l), its block's sum (same block) and the outer
    ones.  Each is a ``log_gamma_second_difference``, accurate relative to
    its own size ~ 1/|j|, where a difference of two first differences would
    be accurate only to ~1e-16 absolute.
    """
    (kr, pr), (kl, pl) = dom.columns[r], dom.columns[l]
    br, bl = dom.blocks[kr], dom.blocks[kl]
    hr, hl = 1.0 / pr, 1.0 / pl
    ur, ul = hr / br.a, hl / bl.a
    several = len(dom.blocks) > 1
    # two factors in [0, 1): their product neither overflows for a tiny
    # outer power nor turns 0/0 for a huge one
    out = keyed.total(lambda t: -np.log1p(-(ur / (t + ur)) * (ul / (t + ul))))
    if kr == kl and br.size > 1:
        if r == l:
            out += keyed.entry(
                r, lambda e: gammakit.log_gamma_second_difference((e + 1.0) / pr, hr, hr)
            )
        out -= keyed.block(kr, lambda s: gammakit.log_gamma_second_difference(s, hr, hl))
        if several:
            out += keyed.block(
                kr, lambda s: gammakit.log_gamma_second_difference(s / br.a, ur, ul)
            )
    elif kr == kl and several:
        # a one-coordinate block: its outer weight is the coordinate's own
        out += keyed.entry(
            r, lambda e: gammakit.log_gamma_second_difference((e + 1.0) / pr / br.a, ur, ur)
        )
    if several:
        out -= keyed.total(lambda t: gammakit.log_gamma_second_difference(t, ur, ul))
    return out


def eigenvalue_bulk(dom: DomainSpec, kind: CommutatorKind, idx_rows: np.ndarray) -> np.ndarray:
    """Eigenvalue at every row of ``idx_rows`` (flat indices, shape (n, d)).

    Raises ValidationError when an eigenvalue is not a finite double (an
    inner exponent or outer power so extreme that a Gamma term overflows).
    """
    rows = np.asarray(idx_rows)
    if rows.ndim == 1:
        rows = rows[np.newaxis, :]
    if rows.shape[1] != dom.dimension:
        raise ValidationError(
            f"index rows have {rows.shape[1]} columns, expected {dom.dimension}"
        )
    if np.any(rows < 0):
        raise ValidationError("index entries must be nonnegative")
    if rows.dtype.kind not in "iu" and not np.all(rows == np.rint(rows)):
        raise ValidationError("index entries must be integers")
    # a copy, column-major: the keys are sums of whole columns
    rows = np.array(rows, dtype=np.int64, order="F")
    r_col, l_col = _columns(dom, kind)
    lowered = r_col if l_col is None else l_col

    # Everything is evaluated at j = i - e_lowered (at i where that entry is
    # 0): with D_c(j) = L(j+e_c) - L(j) and M(j) the mixed second
    # difference, D_r(j+e_l) = D_r(j) + M(j) and D_l(j+e_r) = D_l(j) + M(j).
    present = rows[:, lowered] > 0
    rows[:, lowered] -= present
    keyed = _Keyed(dom, rows)
    with np.errstate(all="ignore"):
        mixed = _log_norm_mixed(dom, keyed, r_col, lowered)
        if l_col is None:
            # lam(i) = e^D(j) - e^D(j+e_r) = -e^D(j) expm1(M(j)); only the
            # raising term -e^D(i) when i_r = 0
            step = _log_norm_step(dom, keyed, (r_col,))
            out = -np.exp(step) * np.where(present, np.expm1(mixed), 1.0)
        else:
            # mu(i) = |e^A - e^B| with A = (D_r(j) + D_l(j))/2 and B =
            # (D_r(j+e_l) + D_l(j+e_r))/2 = A + M(j); zero when i_l = 0
            if dom.columns[r_col] == dom.columns[l_col]:
                step = _log_norm_step(dom, keyed, (r_col, l_col))
            else:
                step = _log_norm_step(dom, keyed, (r_col,))
                step += _log_norm_step(dom, keyed, (l_col,))
            step *= 0.5
            out = np.where(present, np.exp(step) * np.abs(np.expm1(mixed)), 0.0)
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            "an eigenvalue is not a finite double on this domain: a term leaves double range"
        )
    return out


def eigenvalue(dom: DomainSpec, kind: CommutatorKind, idx) -> float:
    """Eigenvalue of ``kind`` at one multi-index."""
    row = flatten_index(dom, idx)
    return float(eigenvalue_bulk(dom, kind, row[np.newaxis, :])[0])


def _outer_weight(dom: DomainSpec, flat: np.ndarray, skip: tuple[int, ...]) -> float:
    """sum over blocks not in ``skip`` of sum_j (idx+1)/(a p_j)."""
    total = 0.0
    for k, (blk, (lo, hi)) in enumerate(zip(dom.blocks, dom.spans)):
        if k in skip:
            continue
        total += float(np.sum((flat[lo:hi] + 1.0) / np.asarray(blk.p))) / blk.a
    return total


def asymptotic_eigenvalue(dom: DomainSpec, kind: CommutatorKind, idx) -> float:
    """Dominant large-index expression for the eigenvalue magnitude.

    The unknown constant in front is dropped, so only ratios of this
    against the exact eigenvalue along rays are meaningful.  Raises when
    the index sits outside the branch's validity (cross kinds need both
    participating entries >= 1).
    """
    nested = as_multi_index(dom, idx)
    flat = flatten_index(dom, idx).astype(np.float64)
    d = dom.dimension
    _columns(dom, kind)  # validation

    if isinstance(kind, SelfAdjoint):
        blk = dom.blocks[kind.block]
        p1 = blk.p[kind.coord]
        a = blk.a
        alpha = float(nested[kind.block][kind.coord])
        others = [
            (nested[kind.block][j] + 1.0) / blk.p[j]
            for j in range(blk.size)
            if j != kind.coord
        ]
        A = float(np.sum(others)) if others else 0.0
        L = _outer_weight(dom, flat, skip=(kind.block,))
        if d == 1:
            if alpha < 1:
                raise ValidationError("one-dimensional branch needs the entry >= 1")
            return 1.0 / (alpha * alpha)
        if blk.size > 1:
            if alpha > 0:
                shared = (alpha + A) ** (-(1.0 / p1) * (1.0 - 1.0 / a) - 1.0)
                t1 = alpha ** (1.0 / p1 - 1.0) * shared * A / (alpha + A + L) ** (1.0 / (a * p1))
                t2 = (
                    alpha ** (1.0 / p1)
                    * shared
                    * L
                    / (alpha + A + L) ** (1.0 / (a * p1) + 1.0)
                )
                return t1 + t2
            return A ** (-(1.0 / p1) * (1.0 - 1.0 / a)) / (A + L) ** (1.0 / (a * p1))
        # single-coordinate block inside a larger domain
        if alpha > 0:
            return alpha ** (1.0 / (a * p1) - 1.0) * L / (alpha + L) ** (1.0 / (a * p1) + 1.0)
        return L ** (-1.0 / (a * p1))

    if isinstance(kind, CrossWithin):
        blk = dom.blocks[kind.block]
        p1, p2 = blk.p[kind.raised], blk.p[kind.lowered]
        a = blk.a
        a1 = float(nested[kind.block][kind.raised])
        a2 = float(nested[kind.block][kind.lowered])
        if a1 < 1 or a2 < 1:
            raise ValidationError("cross branches need both participating entries >= 1")
        rest = [
            (nested[kind.block][j] + 1.0) / blk.p[j]
            for j in range(blk.size)
            if j not in (kind.raised, kind.lowered)
        ]
        X = a1 + a2 + (float(np.sum(rest)) if rest else 0.0)
        L = _outer_weight(dom, flat, skip=(kind.block,))
        s = 1.0 / p1 + 1.0 / p2
        head = a1 ** (1.0 / (2.0 * p1)) * a2 ** (1.0 / (2.0 * p2))
        if a == 1.0:
            return head / (X + L) ** (s / 2.0 + 1.0)
        body = X ** (-(s / 2.0) * (1.0 - 1.0 / a) - 1.0)
        if a > 1.0:
            return head * body / (X + L) ** (s / (2.0 * a))
        t = 1.0 / (a * a) - 1.0
        return head * body * abs(X - t * L) / (X + L) ** (s / (2.0 * a) + 1.0)

    # CrossBetween
    blk_r = dom.blocks[kind.raised_block]
    blk_l = dom.blocks[kind.lowered_block]
    p1 = blk_r.p[kind.raised_coord]
    q1 = blk_l.p[kind.lowered_coord]
    a = blk_r.a
    b = blk_l.a
    a1 = float(nested[kind.raised_block][kind.raised_coord])
    b1 = float(nested[kind.lowered_block][kind.lowered_coord])
    if a1 < 1 or b1 < 1:
        raise ValidationError("cross branches need both participating entries >= 1")
    A = float(
        np.sum(
            [
                (nested[kind.raised_block][j] + 1.0) / blk_r.p[j]
                for j in range(blk_r.size)
                if j != kind.raised_coord
            ]
        )
    )
    B = float(
        np.sum(
            [
                (nested[kind.lowered_block][j] + 1.0) / blk_l.p[j]
                for j in range(blk_l.size)
                if j != kind.lowered_coord
            ]
        )
    )
    L = _outer_weight(dom, flat, skip=(kind.raised_block, kind.lowered_block))
    return (
        a1 ** (1.0 / (2.0 * p1))
        * b1 ** (1.0 / (2.0 * q1))
        * (a1 + A) ** (-(1.0 / (2.0 * p1)) * (1.0 - 1.0 / a))
        * (b1 + B) ** (-(1.0 / (2.0 * q1)) * (1.0 - 1.0 / b))
        / (a1 + b1 + A + B + L) ** (0.5 * (1.0 / (a * p1) + 1.0 / (b * q1)) + 1.0)
    )
