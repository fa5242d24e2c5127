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

Every Gamma and log1p term reads a row through one key set: a tuple of
(weight, columns) groups, whose key is the row's degree sums D over the
groups and whose argument is the sum of (D + m)/weight, m a group's size.
An entry is the one-group set ((p_c, (c,)),), with argument (i_c + 1)/p_c;
a block's runs of equal p give s_k, the groups of equal p a give T.  A
``WalkKernel`` declares its terms once, one list per sum, and terms with
the same groups share a key set (a one-block domain with a = 1 reads its
block and total terms through one).

A walk over a range of shells (``lattice.shell_batches``) enumerates
classes of atom degrees (``atom_partition``) and drives one kernel.  Each
key set makes its tables once, on the first run, in the first of three
ways that applies (``_KeySet``):

* coded, where every group's weight is a power of two or there is one
  group: a row's code is an integer sum of its degree sums scaled by
  W/weight, W the largest weight, and each term is evaluated once on every
  code the walk's shells allow, when they are fewer than the walk's
  classes; the argument is one exact division of an integer by W;
* pair table, where there are two groups and fewer pairs of degree sums
  than classes: each term is evaluated once on every pair;
* per class, otherwise: each term on every class's argument.

Every run finds each key set's places once and adds up the gathered
terms.  All three apply the same elementwise function to the same
argument, bit for bit, so an eigenvalue does not depend on the rows
evaluated with it.  ``eigenvalue_bulk`` is the kernel of the rows' own
shells with every column alone, called once.

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
from .lattice import range_count, shell_rows

__all__ = [
    "SelfAdjoint",
    "CrossWithin",
    "CrossBetween",
    "CommutatorKind",
    "all_kinds",
    "validate_kind",
    "eigenvalue",
    "eigenvalue_bulk",
    "atom_partition",
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


def _groups(dom: DomainSpec) -> tuple[list[tuple], tuple]:
    """Each block's runs of equal p, and the domain's groups of equal p a,
    as key sets: tuples of (weight, columns) groups in order of first
    column, the sums through which the kernel reads a row besides its
    raised and lowered entries."""
    runs: list[dict[float, tuple]] = [{} for _ in dom.blocks]
    outer: dict[float, tuple] = {}
    for col, (k, p) in enumerate(dom.columns):
        runs[k][p] = runs[k].get(p, ()) + (col,)
        pa = p * dom.blocks[k].a
        outer[pa] = outer.get(pa, ()) + (col,)
    return [tuple(r.items()) for r in runs], tuple(outer.items())


def atom_partition(dom: DomainSpec, kind: CommutatorKind) -> list[list[int]]:
    """The flat columns of ``dom`` in atoms, in order of their first column:
    groups that every term of the kernel of ``kind`` reads only through
    their sum, once the raised and lowered entry terms of a cross kind are
    set aside.

    The kernel reads a row through its raised and lowered entries, the run
    sums of equal p of the kind's block or blocks and the group sums of
    equal p a (``_groups``).  The self kind's M(j) reads the raised entry's
    own term, so its raised column stays alone, the other columns of its
    block group by the block's runs and the rest by the groups of equal
    p a.  A cross kind reads its raised and lowered entries only through
    one entry term each in its first differences; its other terms read the
    runs of equal p of the kind's blocks of two or more columns and the
    groups of equal p a, so its atoms are those runs and, outside those
    blocks, the groups of equal p a.
    """
    r_col, l_col = _columns(dom, kind)
    if l_col is None:
        alone, blocks = {r_col}, {dom.columns[r_col][0]}
    else:
        alone = set()
        blocks = {dom.columns[col][0] for col in (r_col, l_col)}
        blocks = {k for k in blocks if dom.blocks[k].size > 1}
    runs, outer = _groups(dom)
    groups = [[col] for col in alone]
    groups += [[c for c in cols if c not in alone] for k in blocks for _, cols in runs[k]]
    groups += [[c for c in cols if dom.columns[c][0] not in blocks] for _, cols in outer]
    return sorted((g for g in groups if g), key=lambda g: g[0])


def entry_atoms(dom: DomainSpec, kind: CommutatorKind, atoms) -> dict[int, list[int]]:
    """The atoms of ``atoms`` that hold a cross kind's raised or lowered
    column, by index, each with those columns, the raised first; none for
    the self kind."""
    r_col, l_col = _columns(dom, kind)
    entries: dict[int, list[int]] = {}
    if l_col is not None:
        for col in (r_col, l_col):
            k = next(k for k, cols in enumerate(atoms) if col in cols)
            entries.setdefault(k, []).append(col)
    return entries


def _weight(degrees, groups) -> np.ndarray:
    """sum over ``groups`` of (degree + size) / weight, in group order, for
    groups (weight, columns) and their integer degree sums."""
    out = (degrees[0] + len(groups[0][1])) / groups[0][0]
    for deg, (weight, cols) in zip(degrees[1:], groups[1:]):
        out += (deg + len(cols)) / weight
    return out


def _degree(column, cols) -> np.ndarray:
    """Sum of j's columns ``cols`` (``column(col)``) in the index dtype, added
    column by column (a sum along a short row axis costs ten times as much)."""
    if len(cols) == 1:
        return np.asarray(column(cols[0]), dtype=np.intp)
    out = np.add(column(cols[0]), column(cols[1]), dtype=np.intp)
    for col in cols[2:]:
        out += column(col)
    return out


def _scales(groups) -> list[int] | None:
    """W/w for each group's weight w, W the largest, where every weight is a
    power of two or there is one group (whose scale is 1); else None.  The
    scales are exact integers from the weights' binary exponents: W/w as a
    float may overflow (2^600 / 2^-600)."""
    mantissas, exponents = zip(*(math.frexp(weight) for weight, _ in groups))
    if len(groups) > 1 and any(f != 0.5 for f in mantissas):
        return None
    top = max(exponents)
    return [1 << (top - e) for e in exponents]


class _KeySet:
    """One key set of a walk, ``groups``, and the terms declared on it,
    ``fns``.  The keys are the shells ``totals`` of the groups' degree
    vectors.  Each term is evaluated in the first of three ways that
    applies:

    * coded: every group's weight w is a power of two, or there is one
      group.  With W the largest weight and c = W/w an integer per group
      (``_scales``), a row's code is sum c D, from lo = min c * first total
      up to max c * last total, and its argument sum c (D + m) / W.  Where
      there are fewer codes than the walk's ``evaluations`` and the
      numerators stay below 2^53, each term is evaluated once on every code,
      and a row's place is its code minus lo.  Every quotient (D + m)/w and
      every partial sum of ``_weight`` is then exact, so the one division
      gives its value bit for bit.
    * pair table: two groups and fewer keys than ``evaluations``.  Each
      term is evaluated once on every key, in the order
      ``lattice.shell_rows`` enumerates them, and a row's place is the place
      of its key's total plus its first degree.
    * per row: otherwise, on the row's ``_weight``.

    Each way applies the same elementwise function to the same argument, so
    a row's value does not depend on the other rows.
    """

    def __init__(self, groups: tuple, totals: range, evaluations: int):
        self.groups, self.totals = groups, totals
        self._scales = _scales(groups)
        self.coded = False
        if self._scales is not None:
            self._lo = min(self._scales) * totals.start
            self._size = max(self._scales) * (totals.stop - 1) - self._lo + 1
            sizes = [len(cols) for _, cols in groups]
            self._first = self._lo + sum(c * m for c, m in zip(self._scales, sizes))
            self.coded = self._size < evaluations and self._first + self._size <= 2**53
        self.tabulated = self.coded or (len(groups) == 2 and range_count(2, totals) < evaluations)
        if self.tabulated and not self.coded:
            self._starts = np.zeros(totals.stop, dtype=np.intp)
            self._starts[totals.start :] = shell_rows(2, totals)[1]
        self.fns: list = []
        self.tables: dict[int, np.ndarray] = {}
        self._weights = None

    def place(self, degrees) -> np.ndarray:
        """Each row's place among the codes or keys for its degree sums, or
        its argument where the terms are evaluated per row."""
        if not self.tabulated:
            return _weight(degrees, self.groups)
        if not self.coded:
            return self._starts[degrees[0] + degrees[1]] + degrees[0]
        code = None
        for deg, c in zip(degrees, self._scales):
            part = deg * c if c > 1 else deg
            code = part if code is None else code + part
        return code - self._lo if self._lo else code

    def value(self, n: int, place: np.ndarray) -> np.ndarray:
        """Each row's value of the n-th term: its table is made the first
        time it is asked for, from the arguments on every code or key, which
        the key set makes once."""
        if not self.tabulated:
            return self.fns[n](place)
        if n not in self.tables:
            if self._weights is None and self.coded:
                largest = next(w for (w, _), c in zip(self.groups, self._scales) if c == 1)
                self._weights = np.arange(self._first, self._first + self._size) / largest
            elif self._weights is None:
                keys = shell_rows(2, self.totals)[0]
                self._weights = _weight(list(keys.T), self.groups)
            self.tables[n] = self.fns[n](self._weights)
        return self.tables[n].take(place)


def _add(terms, places: dict, degree, out=None) -> np.ndarray:
    """``out`` plus the terms in order (the first term starts the sum when
    ``out`` is None).  A key set's places are found at its first term, from
    the degree sums ``degree(cols)`` of its groups, and kept in ``places``;
    with the tables made at their first use, a run makes its arrays in the
    order its terms ask for them (a walk's page faults, a few percent of
    its time, follow the heap layout that this order leaves)."""
    for keys, n in terms:
        if keys not in places:
            places[keys] = keys.place([degree(cols) for _, cols in keys.groups])
        value = keys.value(n, places[keys])
        if out is None:
            out = value
        else:
            out += value
    return out


def _log_norm_step(dom: DomainSpec, kernel: "WalkKernel", cols: tuple[int, ...]):
    """The terms of the sum over the columns ``cols`` of ln||z^(i+e_c)||^2
    - ln||z^i||^2, as Gamma ratios; the columns share one block and one p.

    With v the weight of column c, h = 1/p its step, s the sum of its block
    k and T the total outer weight, the first difference is

        R(v, h) - R(s, h) + R(s/a_k, h/a_k) - R(T, h/a_k) - log1p(h/(a_k T)),

    R(x, h) = ln Gamma(x+h) - ln Gamma(x); the block terms drop for a
    one-coordinate block and the outer ones for a one-block domain.  Only
    R(v, h) (the outer term too, for a one-coordinate block) depends on the
    column, so the terms come in two lists: the shared ones, whose sum
    counts once per column, and one entry term per column.
    """
    k, p = dom.columns[cols[0]]
    blk = dom.blocks[k]
    h = 1.0 / p
    u = h / blk.a
    several = len(dom.blocks) > 1
    term, block, outer = kernel.term, kernel.runs[k], kernel.outer
    shared = [term(outer, lambda t: -np.log1p(u / t))]
    if blk.size > 1:
        shared.append(term(block, lambda s: -gammakit.log_gamma_ratio(s, h, 0.0)))
        if several:
            shared.append(term(block, lambda s: gammakit.log_gamma_ratio(s / blk.a, u, 0.0)))
    if several:
        shared.append(term(outer, lambda t: -gammakit.log_gamma_ratio(t, u, 0.0)))
    entries = []
    for col in cols:
        if blk.size > 1:
            entries.append(term(((p, (col,)),), lambda v: gammakit.log_gamma_ratio(v, h, 0.0)))
        elif several:
            entries.append(
                term(((p, (col,)),), lambda v: gammakit.log_gamma_ratio(v / blk.a, u, 0.0))
            )
    return shared, entries


def _log_norm_mixed(dom: DomainSpec, kernel: "WalkKernel", r: int, l: int) -> list:
    """The terms of L(j+e_r+e_l) - L(j+e_r) - L(j+e_l) + L(j), with L the
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
    term, block, outer, entry = kernel.term, kernel.runs[kr], kernel.outer, ((pr, (r,)),)
    # two factors in [0, 1): their product neither overflows for a tiny
    # outer power nor turns 0/0 for a huge one
    terms = [term(outer, lambda t: -np.log1p(-(ur / (t + ur)) * (ul / (t + ul))))]
    if kr == kl and br.size > 1:
        if r == l:
            terms.append(term(entry, lambda v: gammakit.log_gamma_second_difference(v, hr, hr)))
        terms.append(term(block, lambda s: -gammakit.log_gamma_second_difference(s, hr, hl)))
        if several:
            terms.append(
                term(block, lambda s: gammakit.log_gamma_second_difference(s / br.a, ur, ul))
            )
    elif kr == kl and several:
        # a one-coordinate block: its outer weight is the coordinate's own
        terms.append(term(entry, lambda v: gammakit.log_gamma_second_difference(v / br.a, ur, ur)))
    if several:
        terms.append(term(outer, lambda t: -gammakit.log_gamma_second_difference(t, ur, ul)))
    return terms


class WalkKernel:
    """The eigenvalues of ``kind`` on ``dom`` for the runs of classes of one
    walk over the shells ``shells``, ``evaluations`` classes in all.

    A class is a row of the degrees of ``atoms``, a partition of the
    columns no coarser than ``atom_partition`` (every column alone gives
    the rows themselves).  The self kind is evaluated at the rows i; a
    cross kind at j = i - e_lowered, the only rows where it is not 0.

    The terms are declared once (``term``): ``mixed`` holds those of M(j)
    and ``steps`` a (count, shared, entries) triple per first difference
    (``_log_norm_step``), and ``terms`` all of them.  A cross kind's entry
    terms read their share of their atom's degree: all of it, or with both
    entries in one atom the upper half for the raised and the lower half
    for the lowered.  A class's value is then the eigenvalue at its
    representative row, whose atoms' other columns are 0, where the entry
    factors e^(E/2) are largest (E is increasing and concave); the other
    terms read only atom sums.  Where an entry's atom holds other columns,
    the class's rows differ only in the entry terms, which ``entry_logs``
    gives apart, at every entry and at the representative's, for the caller
    to weigh the rows; which atoms it weighs is the caller's plan, not the
    kernel's.

    The walk fixes the keys: an entry or a partial degree sum of j lies in
    0..max(shells), the row sum of j in min(shells)-1..max(shells) for the
    self kind and in ``shells`` for a cross one.  A call finds each key
    set's places once and adds up the terms in a fixed order; no Gamma is
    evaluated before the first call or ``entry_logs``.  The classes must
    be valid: nonnegative integer rows, one column per atom, whose sums lie
    in ``shells``, as the walk makes them.  The tables go when the kernel
    does, at the end of the walk.
    """

    def __init__(self, dom: DomainSpec, kind: CommutatorKind, atoms, shells: range,
                 evaluations: int):
        self.dom = dom
        self.raised, lowered = _columns(dom, kind)
        self.crossed = lowered is not None
        self.lowered = self.raised if lowered is None else lowered
        self.runs, self.outer = _groups(dom)
        self._atom = {col: k for k, cols in enumerate(atoms) for col in cols}
        self._shells, self._evaluations = shells, evaluations
        self.key_sets: dict[tuple, _KeySet] = {}
        self.terms: list = []
        r, l = self.raised, self.lowered
        self.mixed = _log_norm_mixed(dom, self, r, l)
        if not self.crossed:
            steps = [(r,)]
        elif dom.columns[r] == dom.columns[l]:
            steps = [(r, l)]
        else:
            steps = [(r,), (l,)]
        self.steps = []
        self._entries = {}
        for cols in steps:
            shared, entries = _log_norm_step(dom, self, cols)
            self._entries.update(zip(cols, entries))
            self.steps.append((len(cols), shared, entries))
        # each entry's share of its atom's degree, (atom, 0) for all of it,
        # (atom, 1) for the upper half and (atom, 2) for the lower.  A run or
        # p a group of one entry column alone is that entry's atom, whose
        # share is all of it
        self._shares = {(col,): (k, n + 1 if len(cols) > 1 else 0)
                        for k, cols in entry_atoms(dom, kind, atoms).items()
                        for n, col in enumerate(cols)}

    def term(self, groups: tuple, fn) -> tuple[_KeySet, int]:
        """Declare the term fn(``_weight`` of the groups (weight, columns)):
        (its key set, its place among the key set's terms)."""
        keys = self.key_sets.get(groups)
        if keys is None:
            # the self kind's row sum of j is one below i's where its entry
            # is positive; a partial sum may be 0 on any shell
            whole = sum(len(cols) for _, cols in groups) == self.dom.dimension
            first = max(self._shells.start - (not self.crossed), 0) if whole else 0
            totals = range(first, self._shells.stop)
            keys = self.key_sets[groups] = _KeySet(groups, totals, self._evaluations)
        keys.fns.append(fn)
        self.terms.append((keys, len(keys.fns) - 1))
        return self.terms[-1]

    def entry_logs(self, cols) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each entry column of ``cols``, a cross kind's raised or
        lowered column, (x, s) on a = 0..max(shells): x(a) = E(a)/2, the log
        of the factor e^(E(a)/2) that an entry a gives the eigenvalue, and
        s(a) = x at the representative's entry where its atom has degree a,
        the entry's share of a."""
        a = np.arange(max(self._shells.stop, 1))
        out = []
        for col in cols:
            keys, n = self._entries[col]
            x = 0.5 * keys.value(n, keys.place([a]))
            out.append((x, x[_share(a, self._shares[(col,)][1])]))
        return out

    def __call__(self, classes: np.ndarray) -> np.ndarray:
        """Eigenvalue at every class of ``classes`` (shape (n, atoms)): at
        its representative row, for a cross kind at j."""
        if self.crossed:
            def column(k: int) -> np.ndarray:
                return classes[:, k]
        else:
            # Everything is evaluated at j = i - e_r (at i where that entry
            # is 0), the raised column being alone in its atom
            k_r = self._atom[self.raised]
            present = classes[:, k_r] > 0
            lowered = np.subtract(classes[:, k_r], present, dtype=np.intp)

            def column(k: int) -> np.ndarray:
                return lowered if k == k_r else classes[:, k]

        def degree(cols) -> np.ndarray:
            share = self._shares.get(cols)
            if share is None:
                return _degree(column, sorted({self._atom[col] for col in cols}))
            return _share(_degree(column, [share[0]]), share[1])

        places: dict = {}
        with np.errstate(all="ignore"):
            # with D_c(j) = L(j+e_c) - L(j) and M(j) the mixed second
            # difference, D_r(j+e_l) = D_r(j) + M(j) and D_l(j+e_r) = D_l(j) + M(j)
            mixed = _add(self.mixed, places, degree)
            step = None
            for count, shared, entries in self.steps:
                part = _add(shared, places, degree)
                part *= count
                part = _add(entries, places, degree, part)
                step = part if step is None else np.add(step, part, out=step)
            if not self.crossed:
                # lam(i) = e^D(j) - e^D(j+e_r) = -e^D(j) expm1(M(j)); only the
                # raising term -e^D(i) when i_r = 0
                out = np.exp(step, out=step)
                np.negative(out, out=out)
                np.expm1(mixed, out=mixed)
                np.copyto(mixed, 1.0, where=~present)
                out *= mixed
            else:
                # mu(i) = |e^A - e^B| with A = (D_r(j) + D_l(j))/2 and B =
                # (D_r(j+e_l) + D_l(j+e_r))/2 = A + M(j)
                step *= 0.5
                out = np.exp(step, out=step)
                np.expm1(mixed, out=mixed)
                out *= np.abs(mixed, out=mixed)
        if not np.all(np.isfinite(out)):
            raise ValidationError(
                "an eigenvalue is not a finite double on this domain: a term leaves double range"
            )
        return out


def _share(z: np.ndarray, share: int) -> np.ndarray:
    """An entry's share of its atom's degrees z: all of them (``share`` 0),
    the upper halves (1) or the lower halves (2), the raised entry's and the
    lowered entry's where both lie in one atom."""
    if share == 0:
        return z
    return z - z // 2 if share == 1 else z // 2


def _rows_kernel(dom: DomainSpec, kind: CommutatorKind, rows: np.ndarray) -> np.ndarray:
    """A ``WalkKernel`` with every column alone over the rows' own shells,
    called once on them."""
    sums = _degree(lambda col: rows[:, col], range(rows.shape[1]))
    shells = range(int(sums.min()), int(sums.max()) + 1) if sums.size else range(0)
    atoms = [[col] for col in range(rows.shape[1])]
    return WalkKernel(dom, kind, atoms, shells, rows.shape[0])(rows)


def eigenvalue_bulk(dom: DomainSpec, kind: CommutatorKind, idx_rows: np.ndarray) -> np.ndarray:
    """Eigenvalue at every row of ``idx_rows`` (flat indices, shape (n, d)):
    a ``WalkKernel`` with every column alone over the rows' own shells,
    called once, at the rows themselves for the self kind and at j = i -
    e_lowered for a cross kind, which is 0 where that entry is.

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
    rows = rows.astype(np.int64, copy=False)
    _, lowered = _columns(dom, kind)
    if lowered is None:
        return _rows_kernel(dom, kind, rows)
    present = rows[:, lowered] > 0
    out = np.zeros(rows.shape[0])
    if np.any(present):
        j = rows[present]
        j[:, lowered] -= 1
        out[present] = _rows_kernel(dom, kind, j)
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
