"""Log-Gamma numerics and large-argument Gamma-ratio expansions.

Everything downstream (monomial norms, commutator eigenvalues) is a ratio
of Gamma functions, so this module provides:

* ``log_gamma`` -- ln(Gamma), vectorized;
* ``log_gamma_ratio`` -- ln Gamma(x+a) - ln Gamma(x+b), computed without
  forming either log-Gamma value, which avoids the catastrophic loss of
  absolute precision that plain subtraction of two large log-Gamma values
  suffers for x in the thousands;
* ``log_gamma_second_difference`` -- ln Gamma(x+u+w) - ln Gamma(x+u) -
  ln Gamma(x+w) + ln Gamma(x), with every logarithm of a ratio taken
  through log1p, so that the result (about u w / x) keeps its relative
  precision; the commutator eigenvalues and the ratio families R2 and R3
  are such second differences;
* ``log_multibeta`` -- the multi-variable Beta function in log space;
* the five ratio families R1..R5 with their truncated expansions in 1/x
  and an error-decay verification harness.

The three log-Gamma routines have one evaluation path: the Stirling
series through z^-9 (DLMF 5.11.1), differenced term by term in the
ratios, after lifting an argument z below 16 by k = ceil(16 - z) unit
steps with Gamma(z+1) = z Gamma(z) (DLMF 5.5.1): one loop over the steps
j < k, each lifted element folding its recurrence terms into one accumulator.

The quadratic (1/x^2) coefficient of the four-Gamma ratio R3 is derived by
composing two R1 expansions rather than using a closed form: the obvious
closed-form candidate fails the a=b=1 cross-check, where the ratio
collapses to (x+2)/(x+1) and the true coefficient is -1, not -2.  The
verification report records both candidate coefficients so the discrepancy
stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ExpansionKind",
    "ExpansionCheck",
    "log_gamma",
    "log_gamma_ratio",
    "log_gamma_second_difference",
    "log_multibeta",
    "expansion_coefficients",
    "r3_quadratic_coefficients",
    "expansion_value",
    "exact_ratio",
    "verify_expansion",
    "EXPANSION_TAGS",
]

# Stirling series coefficients B_2k / (2k (2k-1)), k = 1..5, and the
# smallest argument at which the series is evaluated.
_STIRLING_C = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_MIN = 16.0
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the smallest normal double
_TINY = np.finfo(np.float64).tiny

EXPANSION_TAGS = ("R1", "R2", "R3", "R4", "R5")


def _lifted(x: np.ndarray, low: np.ndarray, stirling, step, fold=np.add, finish=None):
    """f(x) elementwise, for a sum f of ln Gamma terms whose smallest argument
    is ``low``: ``stirling(x)`` where low >= 16; below, ``stirling(x + k)``
    less ``finish`` of the ``fold`` of ``step(x, j)`` over j < k in step order,
    each element with its own k = ceil(16 - low) and accumulator, so that its
    result does not depend on the others."""
    small = np.flatnonzero(low < _STIRLING_MIN)
    if not small.size:
        return stirling(x)
    k = np.ceil(_STIRLING_MIN - low[small])
    lifted = x.copy()
    lifted[small] += k
    out = stirling(lifted)
    y = x[small]
    acc = step(y, 0.0)
    for j in range(1, int(k.max())):
        fold(acc, step(y, j), out=acc, where=k > j)
    out[small] -= acc if finish is None else finish(acc)
    return out


def _elementwise(x, low_shift: float, message: str, stirling, step, fold=np.add, finish=None):
    """``_lifted`` over the float array x, whose smallest ln Gamma argument
    x + ``low_shift`` must be positive (else a ValidationError with
    ``message``); scalar in, scalar out, arrays pass through."""
    arr = np.asarray(x, dtype=np.float64)
    low = arr.reshape(-1) + low_shift
    if low.size and not low.min() > 0.0:
        raise ValidationError(message)
    out = _lifted(arr.reshape(-1), low, stirling, step, fold, finish)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln sqrt(2 pi)]: the Stirling series
    through the z^-9 term, truncation error below 1e-16 for z >= 16.  Past
    z = 1.3e154 the square overflows to inf and the series to its limit 0."""
    with np.errstate(over="ignore"):
        w = z * z
    np.reciprocal(w, out=w)
    poly = w * _STIRLING_C[-1]
    for c in reversed(_STIRLING_C[1:-1]):
        poly += c
        poly *= w
    poly += _STIRLING_C[0]
    poly /= z
    return poly


def _stirling_log_gamma(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) for z >= 16 from the Stirling series."""
    out = np.log(z)
    out *= z - 0.5
    out -= z
    out += _LN_SQRT_2PI
    out += _stirling_tail(z)
    return out


def log_gamma(x):
    """ln Gamma(x) for x > 0; scalar in, scalar out, arrays pass through.

    The Stirling series, after lifting an argument below 16 by k unit steps
    and subtracting the log of the rising product x (x+1) ... (x+k-1).
    """
    return _elementwise(
        x, 0.0, "log_gamma requires strictly positive arguments",
        _stirling_log_gamma, lambda y, j: y + j, np.multiply, np.log,
    )


def _stirling_ratio(za: np.ndarray, zb: np.ndarray, d: float) -> np.ndarray:
    """ln Gamma(za) - ln Gamma(zb) with za = zb + d, both >= 16:
    (zb - 1/2) log1p(d/zb) + d (ln za - 1) + the difference of the tails."""
    out = d / zb
    np.log1p(out, out=out)
    out *= zb - 0.5
    term = np.log(za)
    term -= 1.0
    term *= d
    out += term
    tail = _stirling_tail(za)
    tail -= _stirling_tail(zb)
    out += tail
    return out


def log_gamma_ratio(x, a: float, b: float):
    """ln Gamma(x+a) - ln Gamma(x+b), stable for large x.

    The Stirling series is differenced term by term, so the result keeps
    ~1e-15 absolute precision even when the individual log-Gamma values
    are in the tens of thousands.  Where min(x+a, x+b) < 16, x is lifted by
    k unit steps first and sum_j log1p(d / (x+b+j)), d = a - b, j < k, is
    subtracted.
    """
    d = a - b
    return _elementwise(
        x, min(a, b), "log_gamma_ratio requires x+a > 0 and x+b > 0",
        lambda y: _stirling_ratio(y + a, y + b, d), lambda y, j: np.log1p(d / (y + (b + j))),
    )


def _stirling_second_difference(x: np.ndarray, u: float, w: float) -> np.ndarray:
    """The mixed second difference of ln Gamma at x with steps u and w, all
    four arguments >= 16, from the Stirling series with every logarithm of
    a ratio taken through log1p:

        (x - 1/2) log1p(-u w / ((x+u)(x+w))) + u log1p(w / (x+u))
            + w log1p(u / (x+w)) + the second difference of the tails.

    Past x = 1e154 the quotient in the first log1p is subnormal, or 0 where
    the product overflows; log1p is the identity there, so the first term
    is formed as -u w ((x - 1/2) / (x+u)) / (x+w), with no product.
    """
    xu = x + u
    xw = xu if w == u else x + w
    with np.errstate(over="ignore"):
        out = xu * xw
    np.divide(-(u * w), out, out=out)
    tiny = np.abs(out) < _TINY
    np.log1p(out, out=out)
    out *= x - 0.5
    if tiny.any():
        out[tiny] = -(u * w) * ((x[tiny] - 0.5) / xu[tiny]) / xw[tiny]
    term = w / xu
    np.log1p(term, out=term)
    term *= u
    out += term
    term = u / xw
    np.log1p(term, out=term)
    term *= w
    out += term
    tail_u = _stirling_tail(xu)
    tail = _stirling_tail(xu + w)
    tail -= tail_u
    tail -= tail_u if w == u else _stirling_tail(xw)
    tail += _stirling_tail(x)
    out += tail
    return out


def log_gamma_second_difference(x, u: float, w: float):
    """ln Gamma(x+u+w) - ln Gamma(x+u) - ln Gamma(x+w) + ln Gamma(x).

    The mixed second difference, of size about u w / x, is summed from
    terms of its own size, so it keeps ~1e-16 relative precision where
    differencing two ``log_gamma_ratio`` values would leave ~1e-16
    absolute.  Where an argument is below 16, x is lifted by k unit steps
    first and sum_j log1p(-u w / ((x+j+u)(x+j+w))), j < k, is subtracted.
    """
    return _elementwise(
        x, min(0.0, u, w, u + w), "log_gamma_second_difference requires all four arguments > 0",
        lambda y: _stirling_second_difference(y, u, w),
        lambda y, j: np.log1p(-(u * w) / ((y + j + u) * (y + j + w))),
    )


def log_multibeta(xs) -> float:
    """ln of the multi-variable Beta: sum ln Gamma(x_j) - ln Gamma(sum x_j)."""
    v = np.asarray(xs, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValidationError("log_multibeta requires at least one argument")
    if not np.all(v > 0.0):
        raise ValidationError("log_multibeta requires strictly positive arguments")
    return float(np.sum(log_gamma(v)) - log_gamma(float(np.sum(v))))


@dataclass(frozen=True)
class ExpansionKind:
    """One of the five Gamma-ratio families, with its positive parameters.

    R1: Gamma(x+a)/Gamma(x+b) * x^(b-a)               (needs a and b)
    R2: Gamma(x+a)^2 / (Gamma(x) Gamma(x+2a))          (needs a)
    R3: Gamma(x+a)Gamma(x+2a+b) / (Gamma(x+a+b)Gamma(x+2a))  (needs a and b)
    R4: (x+a)^2 / (x (x+2a))                           (needs a)
    R5: (x+a)(x+2a+b) / ((x+a+b)(x+2a))                (needs a and b)
    """

    tag: str
    a: float
    b: float | None = None

    def __post_init__(self):
        if self.tag not in EXPANSION_TAGS:
            raise ValidationError(f"unknown expansion tag {self.tag!r}")
        if not (self.a > 0.0):
            raise ValidationError("parameter a must be positive")
        if self.tag == "R1":
            # b = 0 degenerates R1 to Gamma(x+a)/Gamma(x) * x^-a, still fine
            if self.b is None or not (self.b >= 0.0):
                raise ValidationError("R1 requires a parameter b >= 0")
        elif self.tag in ("R3", "R5"):
            if self.b is None or not (self.b > 0.0):
                raise ValidationError(f"{self.tag} requires a positive parameter b")
        else:
            if self.b is not None:
                raise ValidationError(f"{self.tag} takes only parameter a")


def _r1_coefficients(a: float, b: float) -> tuple[float, float]:
    c1 = (a - b) * (a + b - 1.0) / 2.0
    try:
        square = (a + b - 1.0) ** 2
    except OverflowError:
        # a float power raises where a product is inf; the caller checks
        square = math.inf
    c2 = (a - b) * (a - b - 1.0) * (3.0 * square - a + b - 1.0) / 24.0
    return c1, c2


def _compose(first: tuple[float, float], second: tuple[float, float]) -> tuple[float, float]:
    """Coefficients of the product of two series 1 + c1/x + c2/x^2."""
    c1, c2 = first
    d1, d2 = second
    return c1 + d1, c2 + d2 + c1 * d1


def r3_quadratic_coefficients(a: float, b: float) -> dict[str, float]:
    """Both candidate 1/x^2 coefficients for R3.

    ``composed`` comes from multiplying the R1 expansions of
    Gamma(x+a)/Gamma(x+a+b) and Gamma(x+2a+b)/Gamma(x+2a); ``printed`` is
    the closed-form candidate a*b*(a*b - 3a - b + 1), which disagrees with
    the a=b=1 exact ratio (x+2)/(x+1) and is kept only for the
    verification report.
    """
    composed = _compose(_r1_coefficients(a, a + b), _r1_coefficients(2.0 * a + b, 2.0 * a))
    return {"composed": composed[1], "printed": a * b * (a * b - 3.0 * a - b + 1.0)}


def expansion_coefficients(kind: ExpansionKind, use_printed_r3: bool = False) -> tuple[float, float]:
    """(c1, c2) of the truncated series 1 + c1/x + c2/x^2 for ``kind``; a
    ValidationError when either is not a finite double."""
    a = kind.a
    if kind.tag == "R1":
        coeffs = _r1_coefficients(a, kind.b)
    elif kind.tag == "R2":
        coeffs = -a * a, a * a * (a * a + 2.0 * a - 1.0) / 2.0
    elif kind.tag == "R3":
        quad = r3_quadratic_coefficients(a, kind.b)
        coeffs = a * kind.b, quad["printed"] if use_printed_r3 else quad["composed"]
    elif kind.tag == "R4":
        coeffs = 0.0, a * a
    else:  # R5
        coeffs = 0.0, -a * kind.b
    if not all(math.isfinite(c) for c in coeffs):
        raise ValidationError(
            f"the {kind.tag} expansion coefficients are out of double precision range"
        )
    return coeffs


def expansion_value(kind: ExpansionKind, x, order: int, use_printed_r3: bool = False):
    """Truncated asymptotic series at the given order in 1/x (order 0, 1 or 2)."""
    if order not in (0, 1, 2):
        raise ValidationError("order must be 0, 1 or 2")
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(arr >= 1.0):
        raise ValidationError("expansion_value requires x >= 1")
    c1, c2 = expansion_coefficients(kind, use_printed_r3=use_printed_r3)
    out = np.ones_like(arr, dtype=np.float64)
    if order >= 1:
        out = out + c1 / arr
    if order >= 2:
        out = out + c2 / (arr * arr)
    if arr.ndim == 0:
        return float(out)
    return out


def exact_ratio(kind: ExpansionKind, x):
    """The exact left-hand side of ``kind`` at x, evaluated in log space."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(arr > 0.0):
        raise ValidationError("exact_ratio requires x > 0")
    a = kind.a
    if kind.tag == "R1":
        ln = log_gamma_ratio(arr, a, kind.b) + (kind.b - a) * np.log(arr)
    elif kind.tag == "R2":
        # R2 and R3 are Gamma second differences: at x with steps a and a,
        # and at x+a with steps a and b
        ln = -np.asarray(log_gamma_second_difference(arr, a, a))
    elif kind.tag == "R3":
        ln = np.asarray(log_gamma_second_difference(arr + a, a, kind.b))
    elif kind.tag == "R4":
        ln = 2.0 * np.log(arr + a) - np.log(arr) - np.log(arr + 2.0 * a)
    else:  # R5
        b = kind.b
        ln = (
            np.log(arr + a)
            + np.log(arr + 2.0 * a + b)
            - np.log(arr + a + b)
            - np.log(arr + 2.0 * a)
        )
    out = np.exp(ln)
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ExpansionCheck:
    """Error-decay report: |exact - truncated| sampled on a grid of x."""

    kind: ExpansionKind
    order: int
    xs: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    abs_error: np.ndarray
    decay_exponent: float
    used_printed_r3: bool
    r3_coefficients: dict[str, float] | None


def _fit_decay_exponent(xs: np.ndarray, errs: np.ndarray) -> float:
    mask = errs > 0.0
    if int(mask.sum()) < 3:
        # agreement down to roundoff on nearly every node: treat as exact
        return math.inf
    lx = np.log(xs[mask])
    ly = np.log(errs[mask])
    lx = lx - lx.mean()
    return float(-np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def verify_expansion(
    kind: ExpansionKind,
    order: int,
    xs,
    use_printed_r3: bool = False,
) -> ExpansionCheck:
    """Tabulate |exact_ratio - expansion_value| on ``xs`` and fit its decay.

    For a correct order-k truncation the fitted decay exponent is close to
    k+1.  ``xs`` must be increasing with at least 3 nodes, all >= 1.
    """
    grid = np.asarray(xs, dtype=np.float64).ravel()
    if grid.size < 3:
        raise ValidationError("verify_expansion needs at least 3 sample points")
    if not np.all(np.diff(grid) > 0.0):
        raise ValidationError("xs must be strictly increasing")
    if not np.all(grid >= 1.0):
        raise ValidationError("xs entries must be >= 1")
    # a ratio or a series term past double range is inf or NaN here and a
    # ValidationError below, never a numpy warning
    with np.errstate(all="ignore"):
        exact = np.asarray(exact_ratio(kind, grid))
        approx = np.asarray(expansion_value(kind, grid, order, use_printed_r3=use_printed_r3))
        errs = np.abs(exact - approx)
    if not np.all(np.isfinite(errs)):
        raise ValidationError(
            f"the {kind.tag} ratio or its expansion is out of double precision range on xs"
        )
    r3_coeffs = r3_quadratic_coefficients(kind.a, kind.b) if kind.tag == "R3" else None
    return ExpansionCheck(
        kind=kind,
        order=order,
        xs=grid,
        exact=exact,
        approx=approx,
        abs_error=errs,
        decay_exponent=_fit_decay_exponent(grid, errs),
        used_printed_r3=use_printed_r3,
        r3_coefficients=r3_coeffs,
    )
