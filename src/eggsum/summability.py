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
magnitudes for every probe (``threshold_report``).  Both check every
parameter before the first evaluation: a window of fewer shells than the
fit's ``MIN_FIT_POINTS`` (``require_fit_window``) and a margin that is not
positive are refused before any Gamma work.  Each report carries its N,
the cap in effect and its walk's evaluations.  ``fit_tail_slope`` refuses
a tail it cannot fit, for every report here and in ``zetalab`` and every
bisection probe, so no slope is ever NaN.

Each walk is planned once (``_walk``): its atoms
(``commutator.atom_partition``), its shells (for a cross kind those of
j = i - e_lowered, one below), its weighed atoms, and its evaluations,
one per class and one per pair of an entries' fold (a multiply-add of
its convolution), which the cap checks
before any walk is made.  The classes come from one walk of
``lattice.shell_batches``, runs of consecutive shells of at most 2^14
classes (a larger shell alone).  One ``commutator.WalkKernel`` per walk
evaluates each Gamma term once per key of the walk's shells, and each run
by gathering the terms.  The walk yields rows of atom degrees only, and
this module counts what a class stands for, with one routine, prefix
scans over the degrees (``_scans``).  A class carries the count of the
rows of its atoms of several columns and no entry, m - 1 scans of ones
for m columns (``_counts``), and, per probe, a weight for each atom that
holds a cross kind's entry and other columns, or both entries
(``_entry_weights``): two entries are a truncated convolution over the
pairs of degrees y <= z (``reduction.fold``) on tilted output blocks
planned once for the largest p asked (``_entry_folds``), and m other
columns are m scans weighted by the entries' factors.
Every run reaches the sums in one shape, and one routine turns any
sequence of runs into T_0..T_N: per run one ``np.power``, one product
with the counts and weights and one segmented pairwise sum
(``reduction.pairwise_sum``) over its shell offsets.  ``shell_report``
streams the runs into it; the bisection keeps a list of the window's runs
and hands it over once per probe.

``predicted_threshold`` and ``module_threshold`` evaluate the closed-form
cut-offs; both are built from the same term helpers so the module value
equals the max of the per-kind values exactly, not just within roundoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
from .lattice import range_count, shell_batches
from .reduction import fold, pairwise_sum

__all__ = [
    "Verdict",
    "SummationReport",
    "ThresholdReport",
    "DEFAULT_MARGIN",
    "DEFAULT_WINDOW",
    "DEFAULT_TOL",
    "DEFAULT_CAP",
    "DEFAULT_SHELLS",
    "default_shells",
    "resolve_cap",
    "require_fit_window",
    "require_margin",
    "zero_shell_sums",
    "classify_slope",
    "fit_tail_slope",
    "tail_fit",
    "MIN_FIT_POINTS",
    "shell_report",
    "threshold_report",
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
# the widest block of a two-entry fold (``_entry_folds``), as long as a
# block of ``reduction.fold``'s running sequence, and its largest p |r|:
# its largest term is at least e^-16, so none that counts underflows
_WIDTH = 512
_TILT = 16.0


class Verdict(str, Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class SummationReport:
    """Shell sums T_0..T_N for one (domain, kind, p), the fitted tail slope
    and its verdict (``tail_fit``: never a NaN slope or a non-finite
    total), the cap in effect and the evaluations of the walk."""

    p: float
    shell_sums: np.ndarray
    slope: float
    slope_stderr: float
    verdict: Verdict
    total: float
    cap: int
    evaluations: int


@dataclass(frozen=True)
class ThresholdReport:
    """The bisection's cut-off p with the N it took, the cap in effect and
    the evaluations of its one walk, over the fit window of T_0..T_N."""

    threshold: float
    N: int
    cap: int
    evaluations: int


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


class _Walk(NamedTuple):
    """The one plan of the walk that gives T_n on a range of shells, made by
    ``_walk``: the kind's ``atoms``, the walk's ``shells`` (``shift`` below
    T's), the ``weighed`` atoms by index, each (entry columns, count m of
    other columns, rows of the entries' fold or None for one entry), and
    the count of ``classes`` and of ``evaluations``."""

    atoms: list
    shells: range
    shift: int
    weighed: dict
    classes: int
    evaluations: int


def _walk(dom: DomainSpec, kind: CommutatorKind, shells: range) -> _Walk:
    """The plan of the walk that gives T_n for n in ``shells``.

    The walk goes over classes of degrees of the kind's atoms
    (``atom_partition``): on ``shells`` for the self kind, and for a cross
    kind on those of j = i - e_lowered, one below (its eigenvalue is 0
    where i_lowered = 0, so T_0 = 0).  An atom that holds both of a cross
    kind's entries, or one and m other columns, is weighed on the degrees
    its classes take: the walk's shells where it is the only atom, else 0
    up to the last one.  Two entries are folded over the pairs y <= z of
    each degree z, from 0 where other columns follow.  An evaluation is
    one class or one pair."""
    atoms = atom_partition(dom, kind)
    shift = 0 if isinstance(kind, SelfAdjoint) else 1
    walk = range(max(shells.start - shift, 0), shells.stop - shift)
    degrees = range(walk.start if len(atoms) == 1 else 0, max(walk.stop, 1))
    weighed = {}
    for k, cols in entry_atoms(dom, kind, atoms).items():
        m = len(atoms[k]) - len(cols)
        if len(cols) == 2:
            weighed[k] = (cols, m, range(0, degrees.stop) if m else degrees)
        elif m:
            weighed[k] = (cols, m, None)
    classes = range_count(len(atoms), walk)
    pairs = sum(range_count(2, rows) for _, _, rows in weighed.values() if rows is not None)
    return _Walk(atoms, walk, shift, weighed, classes, classes + pairs)


def _check_budget(plan: _Walk, cap: int) -> None:
    if plan.evaluations > cap:
        raise ResourceCapError(
            f"shell sums would make {plan.evaluations} evaluations, above the cap of {cap}; "
            "raise --cap (cap= from Python) to proceed"
        )


def _magnitude_batches(dom: DomainSpec, kind: CommutatorKind, plan: _Walk):
    """(batches, weights) of the walk of ``plan``.

    ``batches`` yields (first shell, shell offsets, magnitudes, mult or
    None, degrees of the weighed atoms) per run: a magnitude is the
    eigenvalue at the class's representative row, mult the count of the
    rows its atoms of several columns and no entry stand for
    (``_class_mult``).  ``weights(p)`` gives each weighed atom its weight
    by degree at the Schatten exponent p.  A class's term is its magnitude
    to the p, times mult and its weighed atoms' weights.  The kernel
    evaluates nothing before it is used; the entries' logs are made with
    the first weights, and their folds' blocks (``_entry_folds``) for the
    largest p asked so far, which serve every smaller one."""
    kernel = WalkKernel(dom, kind, plan.atoms, plan.shells, plan.classes)
    weighed = plan.weighed
    # the rows of a weighed atom are summed in its weights, the others counted
    counts = _counts({k: len(cols) for k, cols in enumerate(plan.atoms) if k not in weighed},
                     max(plan.shells.stop, 1))
    logs, folds, planned = None, None, 0.0

    def batches():
        for first, offsets, classes in shell_batches(len(plan.atoms), plan.shells):
            yield (first + plan.shift, offsets, np.abs(kernel(classes)),
                   _class_mult(counts, classes), [classes[:, k] for k in weighed])

    def weights(p: float) -> list[np.ndarray]:
        nonlocal logs, folds, planned
        if logs is None:
            logs = [kernel.entry_logs(cols) for cols, _, _ in weighed.values()]
        if p > planned:
            folds = [(*_entry_folds(atom_logs, rows, p), m)
                     for atom_logs, (_, m, rows) in zip(logs, weighed.values())]
            planned = p
        return [_entry_weights(*atom_folds, p) for atom_folds in folds]

    return batches(), weights


def _entry_folds(logs: list[tuple], rows, p: float) -> tuple:
    """(s, blocks): what makes a weighed atom's weight at every Schatten
    exponent up to p, from the ``WalkKernel.entry_logs`` of its one or two
    entries, x = E(a)/2 at every entry a = 0..top (the last degree) and at
    the representative's, and the rows of its entries' fold in the plan
    (``_walk``), or None for one entry.

    s(z) is the log of the representative's entry factor at degree z:
    x(z) for one entry, x(up(z)) + x'(low(z)) for two, up and low the
    entries' shares of z that the kernel gives, the split of z whose pair
    y, z - y makes x(y) + x'(z - y) largest.  The fold's weight
    v(z) = sum over y <= z of e^(p (x(y) + x'(z - y) - s(z))) is a
    convolution, made on the blocks [z0, z1) of its rows, each
    (z0, z1, ea, eb, r) in exponents free of p.  With mu = s(c + 1) - s(c)
    at the block's centre c, and a and b the maxima of x(y) - mu y and
    x'(y) - mu y over y < z1, the tilted exponents

        ea(y) = (x(y) - x(a)) - mu (y - a),  eb(y) the same of x' around b,

    are at most 0, and r(z) = (x(a) - up(z)) + (x'(b) - low(z))
    - mu (a + b - z) sets the scale:
    v = ``reduction.fold``([e^(p ea), e^(p eb)], z1 - 1, z0) e^(p r), one
    multiply-add per pair y <= z, the work that the cap counts.  Every
    term the fold forms is at most 1, and the largest, at y = up's share,
    is e^(-p r) in exact arithmetic, so a block halves from ``_WIDTH``
    terms until p |r| <= ``_TILT`` on it, or one degree is left: no term
    that counts underflows, and a smaller p keeps the blocks.  Each
    exponent is formed as differences first and scaled by p last.
    """
    if len(logs) == 1:
        return logs[0][1], None
    (x, up), (x2, low) = logs
    s = up + low
    blocks = []
    z0 = rows.start
    # where x is near the top of double range, a difference of x can round
    # to inf - inf; the probe refuses the walk's eigenvalues there
    with np.errstate(over="ignore", invalid="ignore"):
        while z0 < rows.stop:
            width = _WIDTH
            while True:
                z1 = min(z0 + width, rows.stop)
                c = min((z0 + z1 - 1) // 2, s.size - 2)
                mu = s[c + 1] - s[c] if c >= 0 else 0.0
                y = np.arange(z1)
                a = int(np.argmax(x[:z1] - mu * y))
                b = int(np.argmax(x2[:z1] - mu * y))
                z = y[z0:]
                r = (x[a] - up[z0:z1]) + (x2[b] - low[z0:z1]) - mu * (a + b - z)
                if width == 1 or p * np.max(np.abs(r)) <= _TILT:
                    break
                width //= 2
            blocks.append((z0, z1, (x[:z1] - x[a]) - mu * (y - a),
                           (x2[:z1] - x2[b]) - mu * (y - b), r))
            z0 = z1
    return s, blocks


def _entry_weights(s: np.ndarray, blocks, m: int, p: float) -> np.ndarray:
    """A weighed atom's weight by degree z = 0..top at the Schatten exponent
    p, from its ``_entry_folds`` and its m other columns: the sum over its
    rows of degree z of e^(p (x(a) + x'(b) - s(z))), a and b the entries.

    v is 1 for one entry, and for two the fold's tilted blocks (0 below
    its rows).  The rest t = z - a - b spreads over the other columns in
    C(t + m - 1, m - 1) ways, the coefficient of x^t in (1 - x)^-m, so
    they are m prefix scans: w_0 = v and w_k(z) = r(z) w_k(z - 1) +
    w_(k-1)(z), r(z) = e^(p (s(z-1) - s(z))).  s is nondecreasing, so
    every factor lies in [0, 1] and a weight lies between 1 and the
    class's size, whatever p (``_scans``)."""
    if blocks is None:
        w = np.ones(s.size)
    else:
        w = np.zeros(blocks[-1][1])
        # the tilted exponents are at most 0 in exact arithmetic, and kept
        # so where they round above it: x near 1e302 rounds by 1e286
        with np.errstate(over="ignore", invalid="ignore"):
            for z0, z1, ea, eb, r in blocks:
                tilted = []
                for e in (ea, eb):
                    e = np.multiply(e, p)
                    np.minimum(e, 0.0, out=e)
                    tilted.append(np.exp(e, out=e))
                w[z0:z1] = fold(tilted, z1 - 1, z0) * np.exp(np.multiply(r, p))
    if not m:
        return w
    return _scans(w.tolist(), np.exp(np.multiply(s[:-1] - s[1:], p)).tolist(), m)


def _scans(w: list, r: list, m: int) -> np.ndarray:
    """m prefix scans of the list w in place, w(z) += r(z - 1) w(z - 1)
    for z = 1.., as an array: a Python loop over the degrees, since each
    step reads the one before."""
    for _ in range(m):
        for z in range(1, len(w)):
            w[z] += r[z - 1] * w[z - 1]
    return np.array(w)


def _counts(sizes: dict[int, int], size: int) -> list[tuple[int, np.ndarray]]:
    """(k, count) for each atom k of m = sizes[k] > 1 columns: count(t) =
    C(t + m - 1, m - 1) for t = 0..size - 1, the rows of degree t, the ways
    to spread t over m columns.  That is m - 1 ``_scans`` of ones with r =
    1, the coefficients of (1 - x)^-m; every step adds integers, so a count
    is exact below 2^53 and rounded like the weights above it."""
    return [(k, _scans([1.0] * size, [1.0] * size, m - 1)) for k, m in sizes.items() if m > 1]


def _class_mult(counts: list, classes: np.ndarray) -> np.ndarray | None:
    """The product of the ``_counts`` at the classes' degrees, in atom
    order: the rows each class stands for, or None without counts."""
    mult = None
    for k, count in counts:
        rows = count[classes[:, k]]
        mult = rows if mult is None else np.multiply(mult, rows, out=mult)
    return mult


def zero_shell_sums(N: int) -> np.ndarray:
    """T_0..T_N as zeros, for a walk to fill; a ResourceCapError, not a
    numpy error, where N + 1 doubles cannot be allocated, which a cap that
    admits N does not rule out."""
    try:
        return np.zeros(N + 1, dtype=np.float64)
    except (MemoryError, ValueError):
        raise ResourceCapError(
            f"the shell sums T_0..T_N of N = {N} take {N + 1} doubles, more than "
            "can be allocated; lower N"
        ) from None


def _power_sums(batches, weights, p: float, sums: np.ndarray) -> np.ndarray:
    """``sums``, T_0..T_N from ``zero_shell_sums``, with the shells the
    magnitude batches cover filled in: per batch one power, times the
    counts where it has them and the weighed atoms' weights at p where it
    has those, and one segmented sum, pairwise within each shell.
    Every probe fills the same shells, so a bisection reuses one array."""
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


def require_fit_window(N: int, window_fraction: float) -> range:
    """The shells of the trailing window of T_0..T_N, the ones the
    bisection evaluates; a ValidationError when they are fewer than the
    ``MIN_FIT_POINTS`` of the tail fit, which no exponent can then make."""
    N = last_shell(N)
    shells = range(_window_start(N, window_fraction), N + 1)
    # counted, not len(): a range past sys.maxsize has no len
    count = shells.stop - shells.start
    if count < MIN_FIT_POINTS:
        raise ValidationError(
            f"the fit window {window_fraction} of N = {N} holds {count} "
            f"shell(s), {shells.start}..{N}; the tail fit needs {MIN_FIT_POINTS}: "
            "raise N or the window"
        )
    return shells


def fit_tail_slope(sums: np.ndarray, window_fraction: float) -> tuple[float, float]:
    """(slope, stderr) of the least-squares fit of ln T_n vs ln n over the
    trailing window, the one check of a tail: a ValidationError where fewer
    than ``MIN_FIT_POINTS`` sums in the window are positive, or where one
    is not finite, so the slope is never NaN.
    """
    sums = np.asarray(sums, dtype=np.float64)
    N = len(sums) - 1
    lo = _window_start(N, window_fraction)
    ns = np.arange(lo, N + 1, dtype=np.float64)
    ts = sums[lo:]
    mask = ts > 0.0
    points = int(mask.sum())
    if points < MIN_FIT_POINTS:
        raise ValidationError(
            f"only {points} shell sums in the fit window are positive, the tail fit "
            f"needs {MIN_FIT_POINTS}; lower the exponent or raise N"
        )
    if not np.isfinite(ts).all():
        raise ValidationError("the shell sums exceed double precision range")
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


def require_margin(margin: float) -> float:
    """``margin`` as a float; a ValidationError unless it is positive and
    finite."""
    margin = finite_real(margin, "margin")
    if not margin > 0.0:
        raise ValidationError("margin must be positive")
    return margin


def classify_slope(slope: float, margin: float = DEFAULT_MARGIN) -> Verdict:
    """The verdict of a finite tail slope (``fit_tail_slope``): Converges
    below -1 - margin, Diverges above -1 + margin, Inconclusive between."""
    margin = require_margin(margin)
    if slope < -1.0 - margin:
        return Verdict.CONVERGES
    if slope > -1.0 + margin:
        return Verdict.DIVERGES
    return Verdict.INCONCLUSIVE


def tail_fit(sums: np.ndarray, window_fraction: float, margin: float) -> tuple:
    """(slope, stderr, verdict, total) of the shell sums T_0..T_N
    (``fit_tail_slope``, ``classify_slope``, the pairwise total); a
    ValidationError where the fit refuses the tail or the total is not
    finite."""
    slope, stderr = fit_tail_slope(sums, window_fraction)
    with np.errstate(over="ignore"):
        total = pairwise_sum(sums)
    if not math.isfinite(total):
        raise ValidationError("the shell sums exceed double precision range")
    return slope, stderr, classify_slope(slope, margin), total


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
    verdict (``tail_fit``), the cap in effect and the evaluations.  N
    defaults by dimension (``default_shells``).  Every parameter is checked
    before the first evaluation, N and the window (``require_fit_window``)
    first; the magnitudes are streamed batch by batch and none is kept."""
    N = default_shells(dom) if N is None else last_shell(N)
    require_fit_window(N, window)
    validate_kind(dom, kind)
    p = finite_real(p, "Schatten exponent p")
    if not p > 0.0:
        raise ValidationError("Schatten exponent p must be positive")
    plan = _walk(dom, kind, range(N + 1))
    cap = resolve_cap(dom, cap)
    _check_budget(plan, cap)
    require_margin(margin)
    sums = _power_sums(*_magnitude_batches(dom, kind, plan), p, zero_shell_sums(N))
    slope, stderr, verdict, total = tail_fit(sums, window, margin)
    return SummationReport(p, sums, slope, stderr, verdict, total, cap, plan.evaluations)


def threshold_report(
    dom: DomainSpec,
    kind: CommutatorKind,
    p_lo: float,
    p_hi: float,
    tol: float = DEFAULT_TOL,
    N: int | None = None,
    *,
    window: float = DEFAULT_WINDOW,
    cap: int | None = None,
) -> ThresholdReport:
    """Bisection estimate of the p where the fitted tail slope crosses -1,
    with the N (``default_shells`` by default), the cap in effect and the
    evaluations of the fit window's one walk, which every probe reuses.

    Requires a valid bracket: slope(p_lo) > -1 > slope(p_hi).  The
    threshold is the bracket midpoint once its width is at most ``tol``.
    """
    validate_kind(dom, kind)
    p_lo = finite_real(p_lo, "bracket end p_lo")
    p_hi = finite_real(p_hi, "bracket end p_hi")
    if not (0.0 < p_lo < p_hi):
        raise ValidationError("need 0 < p_lo < p_hi")
    if not finite_real(tol, "tol") >= 0.01:
        raise ValidationError("tol must be at least 0.01")
    N = default_shells(dom) if N is None else last_shell(N)
    plan = _walk(dom, kind, require_fit_window(N, window))
    cap = resolve_cap(dom, cap)
    _check_budget(plan, cap)
    sums = zero_shell_sums(N)
    batches, weights = _magnitude_batches(dom, kind, plan)
    batches = list(batches)

    def slope(p: float) -> float:
        return fit_tail_slope(_power_sums(batches, weights, p, sums), window)[0]

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
    # a probe lies below p_hi, whose tail the fit took, so it takes the probe's:
    # m^p lies between m^p_hi and 1, a weight between 1 and its class's size
    lo, hi = p_lo, p_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) > -1.0:
            lo = mid
        else:
            hi = mid
    return ThresholdReport(0.5 * (lo + hi), N, cap, plan.evaluations)


def empirical_threshold(dom: DomainSpec, kind: CommutatorKind, p_lo: float, p_hi: float,
                        tol: float = DEFAULT_TOL, N: int | None = None, **kwargs) -> float:
    """The cut-off p of ``threshold_report`` alone; ``window`` and ``cap``
    go through as keywords."""
    return threshold_report(dom, kind, p_lo, p_hi, tol, N, **kwargs).threshold


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
