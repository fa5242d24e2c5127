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

Magnitudes come from ``lattice.shell_batches`` over
``commutator.column_partition`` of the kind: runs of consecutive shells
of at most 2^14 classes (a larger shell alone), where a class is the rows
the kernel cannot tell apart and carries its exact multiplicity.  One
``commutator.WalkKernel`` per walk evaluates each Gamma term once per key
of the walk's shells, and each run by gathering the terms.  Every run
reaches the sums in one shape, (first shell, shell offsets, magnitudes,
multiplicities or None), and one routine turns any sequence of runs into
T_0..T_N: per run one ``np.power``, one product with the multiplicities
where columns merge and one segmented pairwise sum
(``reduction.pairwise_sum``) over its shell offsets.  ``shell_report``
streams the runs into it; the bisection keeps a list of the window's runs
and hands it over once per probe.  An evaluation is one class, and the
cap counts evaluations.

``predicted_threshold`` and ``module_threshold`` evaluate the closed-form
cut-offs; both are built from the same term helpers so the module value
equals the max of the per-kind values exactly, not just within roundoff.
"""

from __future__ import annotations

import itertools
import math
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
    column_partition,
    validate_kind,
)
from .domain import DomainSpec
from .errors import BracketError, ResourceCapError, ValidationError, finite_real, last_shell
from .lattice import range_count, shell_batches
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
            f"no default shell count for dimension {d}; pass N explicitly"
        )
    return DEFAULT_SHELLS[d]


def resolve_cap(dom: DomainSpec, cap: int | None) -> int:
    """The cap in effect for ``cap`` on ``dom``: the default below dimension
    4; at 4 and above an explicit cap or a ResourceCapError."""
    if cap is None:
        if dom.dimension >= 4:
            raise ResourceCapError(
                "domains of dimension >= 4 need an explicit resource cap; "
                "pass cap= (eigenvalue evaluations) to opt in"
            )
        return DEFAULT_CAP
    cap = int(cap)
    if cap < 1:
        raise ValidationError("cap must be a positive term count")
    return cap


def evaluation_count(dom: DomainSpec, kind: CommutatorKind, shells: range) -> int:
    """Eigenvalues evaluated for the shells ``shells``: one per class of
    rows, the rows of a shell in one variable per group of
    ``column_partition``."""
    return range_count(len(column_partition(dom, kind)), shells)


def _check_budget(dom: DomainSpec, kind: CommutatorKind, shells: range, cap: int) -> None:
    total = evaluation_count(dom, kind, shells)
    if total > cap:
        raise ResourceCapError(
            f"shell sums would evaluate {total} eigenvalues, above the cap of {cap}; "
            "raise cap= explicitly to proceed"
        )


def _magnitude_batches(dom: DomainSpec, kind: CommutatorKind, shells: range):
    """Yield (first shell, shell offsets, |eigenvalue| array, mult or None)
    per run of ``lattice.shell_batches`` over the kind's classes, all runs
    evaluated by one kernel.  The eigenvalue of a row does not depend on
    the rows evaluated with it, so every magnitude is bit for bit what a
    per-shell call gives.  The kernel evaluates nothing before its first
    call, so a walk that ``shell_batches`` refuses costs no Gamma work."""
    groups = column_partition(dom, kind)
    kernel = WalkKernel(dom, kind, shells, range_count(len(groups), shells))
    for first, offsets, rows, mult in shell_batches(groups, shells):
        yield first, offsets, np.abs(kernel(rows)), mult


def _power_sums(batches, p: float, N: int) -> np.ndarray:
    """T_0..T_N from magnitude batches, 0 on shells no batch covers: per
    batch one power, times the multiplicities where it has them, and one
    segmented sum, pairwise within each shell."""
    sums = np.zeros(N + 1, dtype=np.float64)
    for first, offsets, mags, mult in batches:
        terms = np.power(mags, p)
        if mult is not None:
            terms *= mult
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
    sums = _power_sums(_magnitude_batches(dom, kind, range(N + 1)), p, N)
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
    batches = list(_magnitude_batches(dom, kind, shells))

    def slope(p: float) -> float:
        return fit_tail_slope(_power_sums(batches, p, N), window)[0]

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
