"""Shell-summed Schatten-norm estimation and summability thresholds.

For a commutator kind on a domain, the p-th Schatten power of the
eigenvalue sequence is organized by total degree:

    T_n = sum over |idx| = n of |eigenvalue(idx)|^p.

The tail of ln T_n against ln n is fitted by least squares; the series
sum(T_n) converges iff that slope is below -1, so the fitted slope plus a
margin band yields a three-way verdict.  ``shell_report`` gives T_0..T_N
with that slope and verdict; ``empirical_threshold`` locates the p where
the slope crosses -1 by bisection (the slope is nonincreasing in p
because the tail eigenvalues are < 1), reusing one set of eigenvalue
magnitudes for every probe.  Both check every parameter before the first
evaluation: a window of fewer shells than the fit's ``MIN_FIT_POINTS``
(``require_fit_window``) and a margin that is not positive are refused
before any Gamma work.

The sums come from one walk of ``lattice.shell_batches`` over classes of
the kind's atoms (``commutator.atom_partition``), runs of consecutive
shells of at most 2^14 classes (a larger shell alone), for a cross kind at
j = i - e_lowered on the shells one below.  One ``commutator.WalkKernel``
per walk evaluates each Gamma term once per key of the walk's shells, and
each run by gathering the terms.  A class carries the exact multiplicity
of its atoms without an entry and, per probe, a weight for each atom that
holds a cross kind's entry and other columns (``_entry_folds``): a fold
over the pairs of degrees y <= z of those columns, one term per row they
stand for, whose exponents are made once and which each probe sums
``_FOLD_PAIRS`` pairs at a time.  Every
run reaches the sums in one shape, and one routine turns any sequence of
runs into T_0..T_N: per run one ``np.power``, one product with the
multiplicities and weights and one segmented pairwise sum
(``reduction.pairwise_sum``) over its shell offsets.  ``shell_report``
streams the runs into it; the bisection keeps a list of the window's runs
and hands it over once per probe.  An evaluation is one class or one pair
of a fold, and the cap counts evaluations.

``predicted_threshold`` and ``module_threshold`` evaluate the closed-form
cut-offs; both are built from the same term helpers so the module value
equals the max of the per-kind values exactly, not just within roundoff.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .commutator import (
    CommutatorKind,
    CrossBetween,
    CrossWithin,
    SelfAdjoint,
    WalkKernel,
    all_kinds,
    atom_partition,
    entry_atoms,
    validate_kind,
)
from .domain import DomainSpec
from .errors import BracketError, ResourceCapError, ValidationError, finite_real, last_shell
from .lattice import _stars_and_bars, range_count, shell_batches
from .reduction import pairwise_sum

__all__ = [
    "Verdict",
    "SummationReport",
    "DEFAULT_MARGIN",
    "DEFAULT_WINDOW",
    "DEFAULT_TOL",
    "DEFAULT_CAP",
    "DEFAULT_SHELLS",
    "default_shells",
    "resolve_cap",
    "evaluation_count",
    "tail_shells",
    "require_fit_window",
    "require_margin",
    "classify_slope",
    "fit_tail_slope",
    "fit_points",
    "MIN_FIT_POINTS",
    "shell_report",
    "empirical_threshold",
    "predicted_threshold",
    "module_threshold",
    "module_threshold_breakdown",
    "max_predicted_over_kinds",
]

DEFAULT_MARGIN = 0.15
DEFAULT_WINDOW = 0.5
DEFAULT_TOL = 0.1
DEFAULT_CAP = 200_000_000
DEFAULT_SHELLS = {1: 100_000, 2: 3000, 3: 600}
MIN_FIT_POINTS = 8
# pairs of degrees that a weight's fold sums at once: enough to amortise
# the numpy calls, few enough that a fold's temporaries stay a few MiB
# however many degrees the walk takes
_FOLD_PAIRS = 1 << 16


class Verdict(str, Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class SummationReport:
    """Shell sums T_0..T_N for one (domain, kind, p) and the fitted tail
    verdict: a slope of NaN, and the verdict Inconclusive, when fewer than
    ``MIN_FIT_POINTS`` sums in the window are positive."""

    p: float
    shell_sums: np.ndarray
    slope: float
    slope_stderr: float
    verdict: Verdict
    total: float


def default_shells(dom: DomainSpec) -> int:
    d = dom.dimension
    if d not in DEFAULT_SHELLS:
        raise ValidationError(
            f"no default shell count for dimension {d}; pass --N (N= from Python)"
        )
    return DEFAULT_SHELLS[d]


def resolve_cap(dom: DomainSpec, cap: int | None) -> int:
    """The cap in effect for ``cap`` on ``dom``: the default below dimension
    4; at 4 and above an explicit cap or a ResourceCapError."""
    if cap is None:
        if dom.dimension >= 4:
            raise ResourceCapError(
                "domains of dimension >= 4 need an explicit resource cap; "
                "pass --cap (cap= from Python), a count of eigenvalue evaluations, to opt in"
            )
        return DEFAULT_CAP
    cap = int(cap)
    if cap < 1:
        raise ValidationError("cap must be a positive term count")
    return cap


def _walk_shells(kind: CommutatorKind, shells: range) -> range:
    """The shells of the walk that gives T_n for n in ``shells``: the
    shells themselves for the self kind, and for a cross kind the shells of
    j = i - e_lowered, one below (its eigenvalue is 0 where i_lowered = 0,
    so T_0 = 0)."""
    if isinstance(kind, SelfAdjoint):
        return shells
    return range(max(shells.start - 1, 0), shells.stop - 1)


def _weighed_degrees(atoms, walk: range) -> range:
    """The degrees that a weighed atom takes in the classes of the walk
    over the shells ``walk``: those shells where it is the only atom, else
    0 up to the last one."""
    return range(walk.start if len(atoms) == 1 else 0, max(walk.stop, 1))


def _fold_rows(entries: int, plain: int, degrees: range) -> list[range]:
    """The rows z of the folds that make the weight of an atom with
    ``entries`` entries and ``plain`` other columns on ``degrees``
    (``_entry_folds``): one over the two entries, on every degree up to the
    last where the other columns follow, then one over the other columns.
    Row z sums the z + 1 pairs y <= z."""
    rows = [range(0, degrees.stop) if plain else degrees] if entries == 2 else []
    return rows + [degrees] if plain else rows


def evaluation_count(dom: DomainSpec, kind: CommutatorKind, shells: range) -> int:
    """Evaluations for the shells ``shells``: an eigenvalue per class the
    walk goes over, a row of degrees of the kind's atoms
    (``atom_partition``) on the walk's shells (``_walk_shells``), and a
    term per pair of degrees that the weighed atoms' weights fold
    (``_fold_rows``), as many as the rows those atoms stand for."""
    atoms = atom_partition(dom, kind)
    walk = _walk_shells(kind, shells)
    degrees = _weighed_degrees(atoms, walk)
    pairs = sum(range_count(2, rows)
                for k, cols in entry_atoms(dom, kind, atoms).items() if len(atoms[k]) > 1
                for rows in _fold_rows(len(cols), len(atoms[k]) - len(cols), degrees))
    return range_count(len(atoms), walk) + pairs


def _check_budget(dom: DomainSpec, kind: CommutatorKind, shells: range, cap: int) -> None:
    total = evaluation_count(dom, kind, shells)
    if total > cap:
        raise ResourceCapError(
            f"shell sums would make {total} evaluations, above the cap of {cap}; "
            "raise --cap (cap= from Python) to proceed"
        )


def _magnitude_batches(dom: DomainSpec, kind: CommutatorKind, shells: range):
    """(batches, weights) of the walk that gives T_n for n in ``shells``.

    ``batches`` yields (first shell, shell offsets, magnitudes, mult or
    None, degrees of the weighed atoms) per run: a magnitude is the
    eigenvalue at the class's representative row, mult the exact
    multiplicity of its atoms that hold no entry.  ``weights(p)`` gives
    each weighed atom (``WalkKernel.weighed``) its weight by degree at the
    Schatten exponent p.  A class's term is its magnitude to the p, times
    mult and its weighed atoms' weights.  ``shell_batches`` refuses a walk
    on the call and the kernel evaluates nothing before it is used, so a
    refused walk costs no Gamma work."""
    atoms = atom_partition(dom, kind)
    walk = _walk_shells(kind, shells)
    kernel = WalkKernel(dom, kind, atoms, walk, range_count(len(atoms), walk))
    weighed = kernel.weighed
    # a weighed atom's rows are summed in its weight, not counted in mult
    runs = shell_batches([1 if k in weighed else len(cols) for k, cols in enumerate(atoms)], walk)
    shift = 0 if isinstance(kind, SelfAdjoint) else 1
    folds = []

    def batches():
        for first, offsets, classes, mult in runs:
            yield (first + shift, offsets, np.abs(kernel(classes)), mult,
                   [classes[:, k] for k in weighed])

    def weights(p: float) -> list[np.ndarray]:
        if not folds and weighed:
            degrees = _weighed_degrees(atoms, walk)
            logs = kernel.entry_logs()
            folds.extend(_entry_folds(logs[k], len(atoms[k]) - len(logs[k]), degrees)
                         for k in weighed)
        return [_entry_weights(atom_folds, p) for atom_folds in folds]

    return batches(), weights


def _row_starts(rows: range) -> np.ndarray:
    """Where each row z of ``rows`` starts among their pairs y <= z, row by
    row in z."""
    z = np.arange(rows.start, rows.stop)
    return (z * (z + 1) - rows.start * (rows.start + 1)) // 2


def _pairs(rows: range) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) over the pairs 0 <= y <= z, z in ``rows``, row by row in z."""
    z = np.repeat(np.arange(rows.start, rows.stop), np.arange(rows.start + 1, rows.stop + 1))
    return np.arange(z.size) - _row_starts(rows)[z - rows.start], z


def _fold_chunks(rows: range):
    """``rows`` in consecutive ranges of the most rows whose pairs y <= z
    fit in ``_FOLD_PAIRS`` (a longer row is a range of its own), found by
    bisection over the closed-form count ``range_count``: (the range, its
    first pair's place among the pairs of ``rows``)."""
    first = rows.start
    while first < rows.stop:
        stop = first + max(1, bisect_right(
            range(first + 1, rows.stop + 1), _FOLD_PAIRS,
            key=lambda s: range_count(2, range(first, s)),
        ))
        yield range(first, stop), range_count(2, range(rows.start, first))
        first = stop


def _deltas(rows: range, delta) -> np.ndarray:
    """delta(y, z) over the pairs y <= z, z in ``rows``, row by row in z,
    made ``_FOLD_PAIRS`` pairs at a time."""
    out = np.empty(range_count(2, rows))
    for chunk, at in _fold_chunks(rows):
        y, z = _pairs(chunk)
        out[at : at + y.size] = delta(y, z)
    return out


def _entry_folds(logs: list[np.ndarray], plain: int, degrees: range) -> list:
    """The folds that make a weighed atom's weight, p aside, for the
    degrees ``degrees`` that its classes take.

    The atom holds one or two entries with logs x = E(a)/2 (a = 0..top,
    the last degree) and ``plain`` other columns.  Its weight at degree z
    is the sum over its rows of degree z of e^(p (x(a) + x'(b) - s(z)))
    C(t + m - 1, m - 1), with a, b the entries, t the rest spread over the
    m = ``plain`` other columns, and s(z) the representative's log: x(z)
    for one entry, x(z - z//2) + x'(z//2) for two.  That is one or two
    folds on the rows of ``_fold_rows``, sums over pairs y <= z of
    e^(p delta(y, z)) v(y) c(z - y): the two entries (v = c = 1), then the
    other columns (v the entries' sums, c the counts C(z - y + m - 1,
    m - 1)).  Each delta is a sum of differences of x at nearby degrees
    where the terms are largest, exact there, and never above 0: a weight
    is at least 1 and at most the class's size, whatever p.

    A fold is (its rows, delta over their pairs, c by z - y or None): one
    float64 per pair, the work that the cap counts; a fold after the first
    weighs its terms by the sums of the one before.
    """
    rows = iter(_fold_rows(len(logs), plain, degrees))
    folds = []
    if len(logs) == 2:
        x, x2 = logs
        a = np.arange(degrees.stop)
        up, low = x[a - a // 2], x2[a // 2]
        entries = next(rows)
        folds.append((entries, _deltas(entries, lambda y, z: (x[y] - up[z]) + (x2[z - y] - low[z])),
                      None))
        s = up + low
    else:
        (s,) = logs
    if plain:
        counts = _stars_and_bars(plain, degrees.stop - 1) if plain > 1 else None
        folds.append((degrees, _deltas(degrees, lambda y, z: s[y] - s[z]), counts))
    return folds


def _entry_weights(folds: list, p: float) -> np.ndarray:
    """A weighed atom's weight by degree at the Schatten exponent p, 0
    below the degrees its classes take, from its ``_entry_folds``: each
    fold sums e^(p delta) v c by rows, ``_FOLD_PAIRS`` pairs or one row at
    a time."""
    sums = None
    for rows, delta, counts in folds:
        out = np.zeros(rows.stop)
        for chunk, at in _fold_chunks(rows):
            starts = _row_starts(chunk)
            terms = np.multiply(delta[at : at + range_count(2, chunk)], p)
            np.exp(terms, out=terms)
            if sums is not None or counts is not None:
                y, z = _pairs(chunk)
                if sums is not None:
                    terms *= sums[y]
                if counts is not None:
                    terms *= counts[z - y]
            out[chunk.start : chunk.stop] = np.add.reduceat(terms, starts)
        sums = out
    return sums


def _power_sums(batches, weights, p: float, N: int) -> np.ndarray:
    """T_0..T_N from magnitude batches, 0 on shells no batch covers: per
    batch one power, times the multiplicities where it has them and the
    weighed atoms' weights at p where it has those, and one segmented sum,
    pairwise within each shell."""
    sums = np.zeros(N + 1, dtype=np.float64)
    factors = weights(p)
    for first, offsets, mags, mult, degrees in batches:
        terms = np.power(mags, p)
        if mult is not None:
            terms *= mult
        for w, z in zip(factors, degrees):
            terms *= w.take(z)
        sums[first : first + offsets.size] = pairwise_sum(terms, offsets)
    return sums


def _window_start(N: int, window_fraction: float) -> int:
    """First shell of the trailing window of T_0..T_N."""
    if not 0.0 < window_fraction < 1.0:
        raise ValidationError("window_fraction must lie in (0, 1)")
    return max(1, math.ceil((1.0 - window_fraction) * N))


def tail_shells(N: int, window_fraction: float) -> range:
    """The shells of the trailing window of T_0..T_N: the ones the
    bisection evaluates."""
    return range(_window_start(N, window_fraction), N + 1)


def require_fit_window(N: int, window_fraction: float) -> range:
    """The shells of the trailing window of T_0..T_N (``tail_shells``); a
    ValidationError when they are fewer than the ``MIN_FIT_POINTS`` of the
    tail fit, which no exponent can then make."""
    shells = tail_shells(last_shell(N), window_fraction)
    if len(shells) < MIN_FIT_POINTS:
        raise ValidationError(
            f"the fit window {window_fraction} of N = {N} holds {len(shells)} "
            f"shell(s), {shells.start}..{N}; the tail fit needs {MIN_FIT_POINTS}: "
            "raise N or the window"
        )
    return shells


def fit_tail_slope(sums: np.ndarray, window_fraction: float) -> tuple[float, float]:
    """Least-squares slope of ln T_n vs ln n over the trailing window.

    Returns (nan, nan) when fewer than ``MIN_FIT_POINTS`` positive shells
    fall in the window -- the inconclusive signal.
    """
    sums = np.asarray(sums, dtype=np.float64)
    N = len(sums) - 1
    lo = _window_start(N, window_fraction)
    ns = np.arange(lo, N + 1, dtype=np.float64)
    ts = sums[lo:]
    mask = ts > 0.0
    if int(mask.sum()) < MIN_FIT_POINTS:
        return math.nan, math.nan
    x = np.log(ns[mask])
    y = np.log(ts[mask])
    xm = x - x.mean()
    # plain reductions, not np.dot: BLAS dot products on windows of tens of
    # thousands of shells wake the BLAS helper threads for no gain
    sxx = float(np.sum(xm * xm))
    slope = float(np.sum(xm * y)) / sxx
    resid = y - y.mean() - slope * xm
    k = len(x)
    stderr = math.sqrt(float(np.sum(resid * resid)) / (k - 2) / sxx)
    return slope, stderr


def fit_points(sums: np.ndarray, window_fraction: float) -> int:
    """Number of positive shell sums in the trailing window: the points of
    the tail fit."""
    sums = np.asarray(sums, dtype=np.float64)
    return int(np.count_nonzero(sums[_window_start(len(sums) - 1, window_fraction) :] > 0.0))


def require_margin(margin: float) -> float:
    """``margin`` as a float; a ValidationError unless it is positive and
    finite."""
    margin = finite_real(margin, "margin")
    if not margin > 0.0:
        raise ValidationError("margin must be positive")
    return margin


def classify_slope(slope: float, margin: float = DEFAULT_MARGIN) -> Verdict:
    margin = require_margin(margin)
    if math.isnan(slope):
        return Verdict.INCONCLUSIVE
    if slope < -1.0 - margin:
        return Verdict.CONVERGES
    if slope > -1.0 + margin:
        return Verdict.DIVERGES
    return Verdict.INCONCLUSIVE


def shell_report(
    dom: DomainSpec,
    kind: CommutatorKind,
    p: float,
    N: int | None = None,
    *,
    window: float = DEFAULT_WINDOW,
    margin: float = DEFAULT_MARGIN,
    cap: int | None = None,
) -> SummationReport:
    """T_0..T_N, each a pairwise sum over its shell, with the tail slope and
    verdict.  N defaults by dimension (``default_shells``).  Every
    parameter is checked before the first evaluation, N and the window
    (``require_fit_window``) first; the magnitudes are streamed batch by
    batch and none is kept."""
    N = default_shells(dom) if N is None else last_shell(N)
    require_fit_window(N, window)
    validate_kind(dom, kind)
    p = finite_real(p, "Schatten exponent p")
    if not p > 0.0:
        raise ValidationError("Schatten exponent p must be positive")
    _check_budget(dom, kind, range(N + 1), resolve_cap(dom, cap))
    require_margin(margin)
    sums = _power_sums(*_magnitude_batches(dom, kind, range(N + 1)), p, N)
    slope, stderr = fit_tail_slope(sums, window)
    return SummationReport(
        p=p,
        shell_sums=sums,
        slope=slope,
        slope_stderr=stderr,
        verdict=classify_slope(slope, margin),
        total=pairwise_sum(sums),
    )


def empirical_threshold(
    dom: DomainSpec,
    kind: CommutatorKind,
    p_lo: float,
    p_hi: float,
    tol: float = DEFAULT_TOL,
    N: int | None = None,
    *,
    window: float = DEFAULT_WINDOW,
    cap: int | None = None,
) -> float:
    """Bisection estimate of the p where the fitted tail slope crosses -1.

    Requires a valid bracket: slope(p_lo) > -1 > slope(p_hi).  Returns the
    bracket midpoint once its width is at most ``tol``.
    """
    validate_kind(dom, kind)
    p_lo = finite_real(p_lo, "bracket end p_lo")
    p_hi = finite_real(p_hi, "bracket end p_hi")
    if not (0.0 < p_lo < p_hi):
        raise ValidationError("need 0 < p_lo < p_hi")
    if not finite_real(tol, "tol") >= 0.01:
        raise ValidationError("tol must be at least 0.01")
    N = default_shells(dom) if N is None else last_shell(N)
    shells = require_fit_window(N, window)
    _check_budget(dom, kind, shells, resolve_cap(dom, cap))
    batches, weights = _magnitude_batches(dom, kind, shells)
    batches = list(batches)

    def slope(p: float) -> float:
        return fit_tail_slope(_power_sums(batches, weights, p, N), window)[0]

    s_lo = slope(p_lo)
    s_hi = slope(p_hi)
    if not (s_lo > -1.0):
        raise BracketError(
            f"slope at p_lo={p_lo} is {s_lo:.4f}, not above -1: bracket invalid"
        )
    if not (s_hi < -1.0):
        raise BracketError(
            f"slope at p_hi={p_hi} is {s_hi:.4f}, not below -1: bracket invalid"
        )
    lo, hi = p_lo, p_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s = slope(mid)
        if math.isnan(s):
            raise BracketError(f"tail fit became inconclusive at p={mid}")
        if s > -1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _self_terms(dom: DomainSpec, block: int, coord: int) -> list[float]:
    d = dom.dimension
    blk = dom.blocks[block]
    m = blk.size
    p1 = blk.p[coord]
    terms = []
    if m > 1:
        terms.append(p1 * (d - 1))
    # the outer term is 0 for a one-block domain, also where a * p1 overflows
    terms.append(blk.a * p1 * (d - m) if d > m else 0.0)
    return terms


def _within_terms(dom: DomainSpec, block: int, j: int, l: int) -> list[float]:
    d = dom.dimension
    blk = dom.blocks[block]
    if blk.a == 1.0:
        return []
    if d == blk.size:
        return [0.0]
    return [2.0 * blk.a * (d - blk.size) / (1.0 / blk.p[j] + 1.0 / blk.p[l])]


def _finite_cutoff(value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError("the predicted cut-off exceeds double precision for this domain")
    return value


def predicted_threshold(dom: DomainSpec, kind: CommutatorKind) -> float:
    """Closed-form summability cut-off for one commutator kind."""
    validate_kind(dom, kind)
    d = dom.dimension
    if d == 1:
        return 0.5
    if isinstance(kind, SelfAdjoint):
        return _finite_cutoff(max([float(d)] + _self_terms(dom, kind.block, kind.coord)))
    if isinstance(kind, CrossWithin):
        terms = _within_terms(dom, kind.block, kind.raised, kind.lowered)
        return _finite_cutoff(max([float(d)] + terms))
    assert isinstance(kind, CrossBetween)
    return float(d)


def module_threshold_breakdown(dom: DomainSpec) -> dict:
    """The module cut-off with its per-block contributions.

    Built from the same term helpers as ``predicted_threshold``, so the
    value equals max over kinds of the per-kind cut-off exactly.
    """
    d = dom.dimension
    if d == 1:
        return {"dimension": 1, "blocks": [], "value": 0.5}
    entries = []
    candidates = [float(d)]
    for k, blk in enumerate(dom.blocks):
        # a one-coordinate block has no pairs, and outer power 1 no pair terms
        if blk.size == 1:
            case = "single-coordinate block"
        elif blk.a == 1.0:
            case = "multi-coordinate block, outer power 1"
        else:
            case = "multi-coordinate block, outer power != 1"
        terms = [t for j in range(blk.size) for t in _self_terms(dom, k, j)]
        for j, l in itertools.combinations(range(blk.size), 2):
            terms.extend(_within_terms(dom, k, j, l))
        q_k = max(terms)
        candidates.append(q_k)
        entries.append({"block": k, "case": case, "q": q_k, "terms": terms})
    return {"dimension": d, "blocks": entries, "value": _finite_cutoff(max(candidates))}


def module_threshold(dom: DomainSpec) -> float:
    """Summability cut-off of the whole module (worst commutator)."""
    return module_threshold_breakdown(dom)["value"]


def max_predicted_over_kinds(dom: DomainSpec) -> float:
    """max of predicted_threshold over every kind (consistency reference)."""
    return max(predicted_threshold(dom, kind) for kind in all_kinds(dom))
