"""Shell-summed Schatten-norm estimation and summability thresholds.

For a commutator kind on a domain, the p-th Schatten power of the
eigenvalue sequence is organized by total degree:

    T_n = sum over |idx| = n of |eigenvalue(idx)|^p.

The tail of ln T_n against ln n is fitted by least squares; the series
sum(T_n) converges iff that slope is below -1, so the fitted slope plus a
margin band yields a three-way verdict.  ``empirical_threshold`` locates
the p where the slope crosses -1 by bisection (the slope is nonincreasing
in p because the tail eigenvalues are < 1), reusing one set of eigenvalue
magnitudes for every probe.

Magnitudes are computed over ``lattice.shell_batches``, runs of
consecutive shells of about 2^14 rows, with one ``eigenvalue_bulk`` call
per run; every T_n of a run then comes from one ``np.power`` over the run
and one segmented pairwise sum (``reduction.pairwise_sum``) over its shell
offsets.  ``shell_sums`` streams the runs; the bisection keeps the
window's runs for all of its probes.

``predicted_threshold`` and ``module_threshold`` evaluate the closed-form
cut-offs; both are built from the same term helpers so the module value
equals the max of the per-kind values exactly, not just within roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .commutator import (
    CommutatorKind,
    CrossBetween,
    CrossWithin,
    SelfAdjoint,
    all_kinds,
    eigenvalue_bulk,
    validate_kind,
)
from .domain import DomainSpec
from .errors import BracketError, ResourceCapError, ValidationError, finite_real
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
    "shell_sums",
    "tail_slope",
    "classify",
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
    """Shell sums for one (domain, kind, p) plus the fitted tail verdict."""

    p: float
    shell_sums: np.ndarray
    slope: float | None
    slope_stderr: float | None
    verdict: Verdict | None
    total: float

    @property
    def max_degree(self) -> int:
        return len(self.shell_sums) - 1


def default_shells(dom: DomainSpec) -> int:
    d = dom.dimension
    if d not in DEFAULT_SHELLS:
        raise ValidationError(
            f"no default shell count for dimension {d}; pass N explicitly"
        )
    return DEFAULT_SHELLS[d]


def _resolve_cap(dom: DomainSpec, cap: int | None) -> int:
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


def _check_budget(dom: DomainSpec, shells: range, cap: int) -> int:
    total = range_count(dom.dimension, shells)
    if total > cap:
        raise ResourceCapError(
            f"shell sums would evaluate {total} eigenvalues, above the cap of {cap}; "
            "raise cap= explicitly to proceed"
        )
    return total


def _magnitude_batches(dom: DomainSpec, kind: CommutatorKind, shells: range):
    """Yield (first shell, shell offsets, |eigenvalue| array) per run of
    ``lattice.shell_batches``.  The eigenvalue of a row does not depend on
    the rows evaluated with it, so every magnitude is bit for bit what a
    per-shell call gives."""
    for first, offsets, rows in shell_batches(dom.dimension, shells):
        yield first, offsets, np.abs(eigenvalue_bulk(dom, kind, rows))


def _power_sums(batch, p: float, out: np.ndarray) -> None:
    """Write T_n for the shells of one batch into ``out[n]``: one power over
    the batch and one segmented sum, pairwise within each shell."""
    first, offsets, mags = batch
    out[first : first + offsets.size] = pairwise_sum(np.power(mags, p), offsets)


def shell_sums(
    dom: DomainSpec,
    kind: CommutatorKind,
    p: float,
    N: int,
    *,
    cap: int | None = None,
) -> SummationReport:
    """T_0..T_N, each a pairwise sum over its shell; verdict left unset.

    The magnitudes are streamed batch by batch and none is kept.
    """
    validate_kind(dom, kind)
    p = finite_real(p, "Schatten exponent p")
    if not p > 0.0:
        raise ValidationError("Schatten exponent p must be positive")
    N = int(N)
    if N < 16:
        raise ValidationError("N must be at least 16")
    cap_val = _resolve_cap(dom, cap)
    _check_budget(dom, range(N + 1), cap_val)
    sums = np.empty(N + 1, dtype=np.float64)
    for batch in _magnitude_batches(dom, kind, range(N + 1)):
        _power_sums(batch, p, sums)
    return SummationReport(
        p=float(p),
        shell_sums=sums,
        slope=None,
        slope_stderr=None,
        verdict=None,
        total=pairwise_sum(sums),
    )


def _window_start(N: int, window_fraction: float) -> int:
    """First shell of the trailing window of T_0..T_N."""
    if not 0.0 < window_fraction < 1.0:
        raise ValidationError("window_fraction must lie in (0, 1)")
    return max(1, math.ceil((1.0 - window_fraction) * N))


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


def tail_slope(report: SummationReport, window_fraction: float = DEFAULT_WINDOW) -> tuple[float, float]:
    """Fitted tail slope and its regression standard error."""
    return fit_tail_slope(report.shell_sums, window_fraction)


def classify_slope(slope: float, margin: float = DEFAULT_MARGIN) -> Verdict:
    if not finite_real(margin, "margin") > 0.0:
        raise ValidationError("margin must be positive")
    if math.isnan(slope):
        return Verdict.INCONCLUSIVE
    if slope < -1.0 - margin:
        return Verdict.CONVERGES
    if slope > -1.0 + margin:
        return Verdict.DIVERGES
    return Verdict.INCONCLUSIVE


def classify(report: SummationReport, margin: float = DEFAULT_MARGIN) -> Verdict:
    """Three-way verdict from the report's fitted slope."""
    if report.slope is None:
        raise ValidationError("classify needs a report with tail_slope attached")
    return classify_slope(report.slope, margin)


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
    """shell_sums + tail_slope + classify in one step."""
    if N is None:
        N = default_shells(dom)
    report = shell_sums(dom, kind, p, N, cap=cap)
    slope, stderr = fit_tail_slope(report.shell_sums, window)
    return replace(
        report,
        slope=slope,
        slope_stderr=stderr,
        verdict=classify_slope(slope, margin),
    )


class _MagnitudeCache:
    """Eigenvalue magnitude batches of the window shells, kept for every
    p probe."""

    def __init__(self, dom, kind, N, window, cap):
        self.N = N
        self.window = window
        shells = range(_window_start(N, window), N + 1)
        _check_budget(dom, shells, _resolve_cap(dom, cap))
        self.batches = list(_magnitude_batches(dom, kind, shells))

    def slope(self, p: float) -> float:
        sums = np.zeros(self.N + 1, dtype=np.float64)
        for batch in self.batches:
            _power_sums(batch, p, sums)
        return fit_tail_slope(sums, self.window)[0]


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
    if N is None:
        N = default_shells(dom)
    cache = _MagnitudeCache(dom, kind, int(N), window, cap)
    s_lo = cache.slope(p_lo)
    s_hi = cache.slope(p_hi)
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
        s = cache.slope(mid)
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
        terms = []
        if blk.size == 1:
            case = "single-coordinate block"
            terms.extend(_self_terms(dom, k, 0))
        elif blk.a == 1.0:
            case = "multi-coordinate block, outer power 1"
            for j in range(blk.size):
                terms.extend(_self_terms(dom, k, j))
        else:
            case = "multi-coordinate block, outer power != 1"
            for j in range(blk.size):
                terms.extend(_self_terms(dom, k, j))
            for j in range(blk.size):
                for l in range(j + 1, blk.size):
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
