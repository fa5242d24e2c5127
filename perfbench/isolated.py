"""Isolated calls into each layer's public functions at fixed inputs.

Every metric is the median of REPEATS timed calls after one untimed call,
as a throughput (per second), a cost per element (ns) or seconds per
call.  Inputs do not depend on the seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from eggsum import commutator, domain, gammakit, lattice, reduction, summability, zetalab
from eggsum.commutator import CrossBetween, CrossWithin, SelfAdjoint
from eggsum.zetalab import AbsFactor, GroupFactor, ZetaSeriesSpec

import workloads

REPEATS = 5


def _median_time(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _shells(d: int, lo: int, hi: int) -> np.ndarray:
    return np.vstack([lattice.shell_indices(d, n) for n in range(lo, hi)])


def measure() -> dict:
    """name -> (value, unit) for every isolated per-layer metric."""
    out = {}

    x = np.linspace(0.6, 5000.0, 1_000_000)
    out["gammakit.log_gamma_ns"] = (_median_time(lambda: gammakit.log_gamma(x)) / x.size * 1e9, "ns")
    x8 = x + 8.0
    out["gammakit.log_gamma_ratio_ns"] = (
        _median_time(lambda: gammakit.log_gamma_ratio(x8, 1.0 / 3.0, 0.0)) / x8.size * 1e9,
        "ns",
    )

    ball = workloads.domain(workloads.BALL)
    crit4 = workloads.domain(workloads.CRIT4)
    crit5 = workloads.domain(workloads.CRIT5)
    rows2 = _shells(2, 2900, 3000)  # 295k rows
    rows3 = _shells(3, 150, 160)  # 183k rows
    for label, dom, rows in (("ball", ball, rows2), ("crit4", crit4, rows3), ("crit5", crit5, rows3)):
        t = _median_time(lambda: domain.log_norm_bulk(dom, rows))
        out[f"domain.norm_rows_per_s.{label}"] = (rows.shape[0] / t, "1/s")
    for label, dom, kind in (
        ("self", crit4, SelfAdjoint(0, 0)),
        ("within", crit5, CrossWithin(0, 0, 1)),
        ("between", crit4, CrossBetween(0, 0, 1, 0)),
    ):
        t = _median_time(lambda: commutator.eigenvalue_bulk(dom, kind, rows3))
        out[f"commutator.eig_rows_per_s.{label}"] = (rows3.shape[0] / t, "1/s")

    for d, lo, hi in ((2, 2900, 3000), (3, 150, 160), (4, 50, 55)):
        count = sum(lattice.shell_count(d, n) for n in range(lo, hi))
        t = _median_time(lambda: [lattice.shell_indices(d, n) for n in range(lo, hi)])
        out[f"lattice.rows_per_s.d{d}"] = (count / t, "1/s")

    one = [np.array([0.5 ** (k % 50)]) for k in range(20_000)]
    a3k = np.linspace(1e-6, 1.0, 3000) ** 3
    a200k = np.linspace(1e-6, 1.0, 200_000) ** 3
    for label, arrays, workers in (
        ("n1", one, 1),
        ("n3k", [a3k] * 200, 1),
        ("n200k", [a200k] * 5, 1),
        ("n200k-w2", [a200k] * 5, 2),
    ):
        elems = sum(a.size for a in arrays)
        t = _median_time(lambda: [reduction.reduce_sum(a, workers=workers) for a in arrays])
        out[f"reduction.elems_per_s.{label}"] = (elems / t, "1/s")

    for label, N, calls in (("n1500", 3000, 200), ("n50k", 100_000, 10)):
        sums = np.arange(1, N + 2, dtype=np.float64) ** -1.5
        t = _median_time(lambda: [summability.fit_tail_slope(sums, 0.5) for _ in range(calls)])
        out[f"summability.fit_per_s.{label}"] = (calls / t, "1/s")

    conv = ZetaSeriesSpec(m=4, powers=(0.5, -0.25, 1.0, 0.0), groups=(GroupFactor((0, 1), 0.75),), b=6.0)
    triple_abs = ZetaSeriesSpec(
        m=4, powers=(0.5, -0.25, 1.0, 0.0), groups=(GroupFactor((0, 1, 2), 0.5),),
        abs_factor=AbsFactor(neg=3, a=0.5), b=6.5,
    )
    enum = ZetaSeriesSpec(
        m=3, powers=(0.5, -0.25, 1.0), groups=(GroupFactor((0, 1), 0.5), GroupFactor((1, 2), 0.25)), b=5.0
    )
    out["zetalab.conv_spec_s"] = (_median_time(lambda: zetalab.brute_shell_sums(conv, 5000)), "s")
    out["zetalab.abs_spec_s"] = (_median_time(lambda: zetalab.brute_shell_sums(triple_abs, 5000)), "s")
    n_enum = 150
    terms = sum(lattice.shell_count(3, n - 3) for n in range(3, n_enum + 1))
    t = _median_time(lambda: zetalab.brute_shell_sums(enum, n_enum))
    out["zetalab.enum_terms_per_s"] = (terms / t, "1/s")
    return out
