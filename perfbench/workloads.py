"""The benchmark's workloads: inputs built from a seed, timed operations, checks.

A workload is a list of operations that one round runs in order.  Each
operation calls eggsum through the module objects imported here (so the
traced run can wrap them) and has a check that compares its output with
the oracles of ``oracles.py`` or with a property the method must have,
never with a stored copy of an earlier output.  Checks that are too slow
for every round (report replay, lattice brute force) are final checks,
run once after the measured rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from eggsum import cli, commutator, summability, zetalab
from eggsum.commutator import CrossBetween, CrossWithin, SelfAdjoint
from eggsum.domain import BlockSpec, DomainSpec
from eggsum.summability import Verdict
from eggsum.zetalab import AbsFactor, GroupFactor, ZetaSeriesSpec

NAMES = ("threshold-3d", "threshold-lowdim", "zeta-suite", "shells-report")

TOL = 0.1
EIG_REL_TOL = 1e-10
# The eigenvalue cancellation (see KnownFault) gives relative errors up to
# 3.9e-5 at the indices checked; a larger or non-finite error is another fault.
EIG_FAULT_MAX_ERR = 1e-4

# Sizes per workload: the timed runs use FULL, --quick uses QUICK.  N=None leaves eggsum's default shell count in place.
FULL = {
    "threshold-3d": {"N": 200},
    "threshold-lowdim": {"N_disk": None, "N_2d": None},
    "zeta-suite": {"N": 5000, "per_family": 2, "reductions": 8, "N_enum": (300, 100)},
    "shells-report": {"N_disk": None, "N_3d": 100, "N_4d": 48},
}
QUICK = {
    "threshold-3d": {"N": 75},
    "threshold-lowdim": {"N_disk": 2000, "N_2d": 300},
    "zeta-suite": {"N": 1000, "per_family": 1, "reductions": 2, "N_enum": (60, 40)},
    "shells-report": {"N_disk": 2000, "N_3d": 40, "N_4d": 24},
}

# Blocks as (p, a) pairs; the oracles take the same form.
DISK = (((1.0,), 1.0),)
BALL = (((1.0, 1.0), 1.0),)
CRIT4 = (((1.0,), 2.0), ((1.0,), 1.0), ((1.0,), 1.0))
CRIT5 = (((1.0, 1.0), 4.0), ((1.0,), 1.0))


def domain(blocks) -> DomainSpec:
    return DomainSpec(blocks=tuple(BlockSpec(p, a) for p, a in blocks))


class KnownFault(str):
    """A check message for the one program fault the benchmark keeps in view:
    ``commutator.eigenvalue_bulk`` subtracts log-norms of size ~1e4 and then
    two nearly equal exponentials.  Such a failure is counted in ``failed``
    and does not make the run incorrect; any other failure does."""


@dataclass
class Op:
    """One operation of a round.

    ``run`` is the timed call; ``check`` maps its output to None when it is
    right, else to a message (a KnownFault for the known fault).  ``timed``
    ops make up solve_s.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    timed: bool = True
    # bytes of report the op's output holds (cli.report_bytes)
    output_bytes: Callable[[object], int] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    final_checks: list[Callable[[], str | None]] = field(default_factory=list)
    # the last output of every op, for the final checks
    last: dict = field(default_factory=dict)


def threshold_op(label, blocks, kind, cutoff, bracket, N, shift) -> Op:
    dom = domain(blocks)
    lo, hi = bracket[0] + shift, bracket[1] + shift
    band = oracles.acceptance_band(cutoff)

    def check(value):
        predicted = summability.predicted_threshold(dom, kind)
        if predicted != cutoff:
            return f"{label}: predicted_threshold {predicted} is not the paper's {cutoff}"
        if not band[0] <= value <= band[1]:
            return f"{label}: cut-off {value:.4f} outside [{band[0]}, {band[1]}]"
        return None

    return Op(label, lambda: summability.empirical_threshold(dom, kind, lo, hi, tol=TOL, N=N), check)


@cache
def _reference(blocks, oracle_kind, alpha):
    """The oracle's eigenvalue: exact on the unit ball and the disk (self
    kind), 50-digit mpmath elsewhere.  Cached, since every round checks."""
    if blocks in (DISK, BALL) and oracle_kind[0] == "self":
        return oracles.ball_self_eigenvalue(alpha, oracle_kind[1])
    return oracles.egg_eigenvalue(blocks, oracle_kind, alpha)


def eig_oracle_op(cases) -> Op:
    """eigenvalue_bulk at fixed indices against the oracles.

    ``cases`` holds (label, blocks, eggsum kind, oracle kind, indices); the
    oracle kind is ("self", column) or ("cross", raised, lowered).
    """
    prepared = [(label, blocks, kind, okind, np.array(idx)) for label, blocks, kind, okind, idx in cases]

    def run():
        return [commutator.eigenvalue_bulk(domain(blocks), kind, rows) for _, blocks, kind, _, rows in prepared]

    def check(outputs):
        worst = (0.0, None)
        for (label, blocks, _, okind, rows), values in zip(prepared, outputs):
            for alpha, value in zip(map(tuple, rows.tolist()), values.tolist()):
                err = oracles.relative_error(value, _reference(blocks, okind, alpha))
                if not math.isfinite(err):
                    return f"{label} {alpha}: eigenvalue {value!r}, relative error {err}"
                if err > worst[0]:
                    worst = (err, f"{label} {alpha}")
        if worst[0] <= EIG_REL_TOL:
            return None
        message = f"eigenvalue relative error {worst[0]:.3g} at {worst[1]} (limit {EIG_REL_TOL:g})"
        return KnownFault(message) if worst[0] <= EIG_FAULT_MAX_ERR else message

    return Op("eig-oracle", run, check, timed=False)


# ----------------------------------------------------------- threshold


def _shift(rng, scale):
    """A bracket offset: the bracket keeps its width, so the probe count is fixed."""
    return float(rng.uniform(-scale, scale))


def threshold_3d(rng, size) -> Workload:
    N = size["N"]
    ops = [
        threshold_op("crit4-self", CRIT4, SelfAdjoint(0, 0), oracles.PAPER_CUTOFF["crit4-self"],
                     (2.0, 6.5), N, _shift(rng, 0.25)),
        threshold_op("crit5-within", CRIT5, CrossWithin(0, 0, 1), oracles.PAPER_CUTOFF["crit5-within"],
                     (2.0, 6.5), N, _shift(rng, 0.25)),
        threshold_op("crit4-between", CRIT4, CrossBetween(0, 0, 1, 0),
                     oracles.PAPER_CUTOFF["crit4-between"], (1.5, 5.0), N, _shift(rng, 0.25)),
    ]
    # largest shell of the full-size workload: its edges and interior
    n = FULL["threshold-3d"]["N"]
    third = n // 3
    self_idx = [(n, 0, 0), (0, 0, n), (0, n // 2, n - n // 2), (third, third, n - 2 * third)]
    cross_idx = [(n - 1, 1, 0), (1, n - 1, 0), (1, 1, n - 2), (third, third, n - 2 * third)]
    ops.append(eig_oracle_op([
        ("crit4-self", CRIT4, SelfAdjoint(0, 0), ("self", 0), self_idx),
        ("crit5-within", CRIT5, CrossWithin(0, 0, 1), ("cross", 0, 1), cross_idx),
        ("crit4-between", CRIT4, CrossBetween(0, 0, 1, 0), ("cross", 0, 1), cross_idx),
    ]))
    return Workload("threshold-3d", ops)


def threshold_lowdim(rng, size) -> Workload:
    ops = [
        threshold_op("disk", DISK, SelfAdjoint(0, 0), oracles.PAPER_CUTOFF["disk"],
                     (0.25, 1.0), size["N_disk"], _shift(rng, 0.1)),
        threshold_op("ball-self", BALL, SelfAdjoint(0, 0), oracles.PAPER_CUTOFF["ball"],
                     (1.0, 3.5), size["N_2d"], _shift(rng, 0.25)),
    ]
    # largest shells at eggsum's default shell counts for d = 1 and 2
    n_disk, n = 100_000, 3000
    ops.append(eig_oracle_op([
        ("disk", DISK, SelfAdjoint(0, 0), ("self", 0), [(n_disk - 1,), (n_disk,)]),
        ("ball-self", BALL, SelfAdjoint(0, 0), ("self", 0),
         [(0, n), (n, 0), (n - 1, 1), (1, n - 1), (n // 2, n - n // 2)]),
    ]))
    return Workload("threshold-lowdim", ops)


# ----------------------------------------------------------- zeta-suite

# quarter steps in [-2, 2] without -1, so no logarithmic boundary layers
_POWER_GRID = [v / 4.0 for v in range(-8, 9) if v != -4]

FAMILIES = (
    "product-only",
    "fresh-group",
    "pair-plus-one",
    "pair-plus-two",
    "triple-plus-one",
    "triple-abs",
    "two-pairs",
    "two-pairs-plus-one",
)


def _grid(rng, k=None):
    if k is None:
        return float(rng.choice(_POWER_GRID))
    return tuple(float(v) for v in rng.choice(_POWER_GRID, size=k))


def family_spec(rng, family: str, slot: int) -> ZetaSeriesSpec:
    """A spec of one structural family with its side condition met (b = 0).

    Where the family leaves the number of variables open, ``slot`` fixes it,
    so the seed draws only exponents and does not change the work of a round.
    """
    if family == "product-only":
        m = 2 + slot % 4
        return ZetaSeriesSpec(m=m, powers=_grid(rng, m))
    if family == "fresh-group":
        free, k = 1 + slot % 2, 1 + slot // 2 % 3
        return ZetaSeriesSpec(
            m=free + k,
            powers=_grid(rng, free) + (0.0,) * k,
            groups=(GroupFactor(tuple(range(free, free + k)), _grid(rng)),),
        )
    if family in ("pair-plus-one", "pair-plus-two", "triple-plus-one"):
        m, group = {"pair-plus-one": (3, (0, 1)), "pair-plus-two": (4, (0, 1)),
                    "triple-plus-one": (4, (0, 1, 2))}[family]
        return ZetaSeriesSpec(m=m, powers=_grid(rng, m), groups=(GroupFactor(group, _grid(rng)),))
    if family == "triple-abs":
        return ZetaSeriesSpec(
            m=4,
            powers=_grid(rng, 4),
            groups=(GroupFactor((0, 1, 2), _grid(rng)),),
            abs_factor=AbsFactor(neg=3, a=float(rng.choice([0.25, 0.5, 1.0, 1.5]))),
        )
    m = 4 if family == "two-pairs" else 5
    while True:
        powers, a01 = _grid(rng, m), _grid(rng)
        if powers[0] + a01 > -0.75:  # the side condition, with slack
            break
    return ZetaSeriesSpec(
        m=m, powers=powers, groups=(GroupFactor((0, 1), a01), GroupFactor((2, 3), _grid(rng)))
    )


@cache
def _oracle_critical(m, powers, groups, abs_a) -> float:
    return float(oracles.critical_exponent(m, powers, list(groups), abs_a))


def critical(spec: ZetaSeriesSpec) -> float:
    """The oracle's critical exponent, worked out in the checks only."""
    groups = tuple((g.vars, g.a) for g in spec.groups)
    abs_a = None if spec.abs_factor is None else spec.abs_factor.a
    return _oracle_critical(spec.m, spec.powers, groups, abs_a)


def at_offset(spec: ZetaSeriesSpec, offset: float) -> ZetaSeriesSpec:
    """The spec with b = critical_b + ``offset``.

    b is placed with eggsum's own ``critical_b``, so that building the inputs
    runs no oracle; every check compares ``critical_b`` with the oracle's.
    """
    return with_b(spec, zetalab.critical_b(spec) + offset)


def with_b(spec: ZetaSeriesSpec, b: float) -> ZetaSeriesSpec:
    return ZetaSeriesSpec(m=spec.m, powers=spec.powers, groups=spec.groups,
                          abs_factor=spec.abs_factor, b=b)


def _verdict_check(label, spec, want: Verdict, sharp: bool):
    def check(rep):
        crit = critical(spec)
        if not abs(rep.critical - crit) <= 1e-12:
            return f"{label}: critical_b {rep.critical} != {crit}"
        if sharp and not rep.sharp:
            return f"{label}: family {rep.family.value} not reported sharp"
        if rep.verdict is not want:
            return f"{label}: verdict {rep.verdict.value} at b - critical = {spec.b - crit:+.2f}, want {want.value}"
        return None

    return check


def _reduction_op(label, spec, N) -> Op:
    def run():
        red = zetalab.reduce_group(spec)
        return zetalab.brute_shell_sums(spec, N), zetalab.brute_shell_sums(red, N)

    def check(reps):
        full, red = reps
        crit = critical(spec)
        if not (abs(red.critical - crit) <= 1e-12 and abs(full.critical - crit) <= 1e-12):
            return f"{label}: critical_b {full.critical} / reduced {red.critical} != {crit}"
        if full.verdict is not red.verdict:
            return f"{label}: verdict {full.verdict.value} but reduced {red.verdict.value}"
        return None

    return Op(label, run, check)


def _enum_spec(rng, m: int) -> ZetaSeriesSpec:
    groups = ((0, 1), (1, 2)) if m == 3 else ((0, 1, 2), (2, 3))
    spec = ZetaSeriesSpec(m=m, powers=_grid(rng, m), groups=tuple(GroupFactor(g, _grid(rng)) for g in groups))
    return at_offset(spec, -0.5)


def _enum_oracle_check(label, spec, N) -> Callable[[], str | None]:
    def check():
        got = zetalab.brute_shell_sums(spec, N)
        if got.method != "enumeration":
            return f"{label}: took the {got.method} path, not enumeration"
        want = oracles.lattice_shell_sums(
            spec.m, spec.powers, [(g.vars, g.a) for g in spec.groups], spec.b, N
        )
        for n, (x, y) in enumerate(zip(got.shell_sums.tolist(), want)):
            if not abs(x - y) <= 1e-12 * abs(y):
                return f"{label}: shell {n} sum {x!r} != brute force {y!r}"
        return None

    return check


def zeta_suite(rng, size) -> Workload:
    N = size["N"]
    ops = []
    per_family = size["per_family"]
    for s, (sign, want) in enumerate(((-0.5, Verdict.DIVERGES), (0.5, Verdict.CONVERGES))):
        suite = "necessity" if sign < 0 else "sufficiency"
        for rep in range(per_family):
            for family in FAMILIES:
                spec = at_offset(family_spec(rng, family, s * per_family + rep), sign)
                label = f"{suite}-{family}-{rep}"
                ops.append(Op(label, lambda s=spec: zetalab.brute_shell_sums(s, N),
                              _verdict_check(label, spec, want, sharp=sign > 0)))
    for k in range(size["reductions"]):
        spec = at_offset(family_spec(rng, "fresh-group", k), -0.5 if k % 2 == 0 else 0.5)
        ops.append(_reduction_op(f"reduction-{k}", spec, N))
    finals = []
    for m, n_enum, n_oracle in ((3, size["N_enum"][0], 40), (4, size["N_enum"][1], 30)):
        spec = _enum_spec(rng, m)
        label = f"enumeration-m{m}"
        ops.append(Op(label, lambda s=spec, n=n_enum: zetalab.brute_shell_sums(s, n),
                      _verdict_check(label, spec, Verdict.DIVERGES, sharp=False)))
        finals.append(_enum_oracle_check(label, spec, n_oracle))
    return Workload("zeta-suite", ops, finals)


# --------------------------------------------------------- shells-report

SHELLS_CAP = summability.DEFAULT_CAP


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _exponents(rng, k):
    return tuple(round(float(v), 2) for v in rng.uniform(0.5, 4.0, k))


def shells_report(rng, size, results_dir: Path) -> Workload:
    # The cross kinds' cut-off is the dimension whatever the exponents, so
    # the seed draws them: the cost of a report does not depend on them.
    egg3 = ((_exponents(rng, 3), 1.0),)
    egg4 = tuple((_exponents(rng, 2), _exponents(rng, 1)[0]) for _ in range(2))
    # (label, blocks, kind, cut-off, offset of p from it, N, workers); every
    # case passes an explicit --cap, so a null anywhere in a report is a
    # fault.  The 3-D report runs one worker: with two, its per-shell thread
    # pools on 101 small shells timed hypervisor steal more than eggsum.
    cases = [
        ("disk-self", DISK, "self:0:0", oracles.PAPER_CUTOFF["disk"], 1.0, size["N_disk"], 2),
        ("egg3-within", egg3, "within:0:0:1", 3.0, 1.0, size["N_3d"], 1),
        ("egg4-between", egg4, "between:0:0:1:0", 4.0, -1.0, size["N_4d"], 2),
    ]
    wl = Workload("shells-report", [])
    for label, blocks, kind, cutoff, offset, N, workers in cases:
        dom_json = json.dumps({"blocks": [{"p": list(p), "a": a} for p, a in blocks]})
        argv = ["shells", "--domain", dom_json, "--kind", kind, "--p", repr(cutoff + offset),
                "--workers", str(workers), "--cap", str(SHELLS_CAP)]
        if N is not None:
            argv += ["--N", str(N)]
        want = Verdict.CONVERGES if offset > 0 else Verdict.DIVERGES
        wl.ops.append(Op(label, lambda a=argv: _cli(a), _report_check(label, want),
                         output_bytes=lambda out: len(out[1].encode())))
        wl.final_checks.append(_replay_check(wl, label, results_dir / f"shells-{label}.json"))
    return wl


def _report_check(label, want: Verdict):
    def check(out):
        code, text = out
        if code != 0:
            return f"{label}: exit {code}"
        if "null" in text or "NaN" in text or "Infinity" in text:
            return f"{label}: report holds a null or non-finite value"
        verdict = json.loads(text)["results"]["verdict"]
        if verdict != want.value:
            return f"{label}: verdict {verdict}, want {want.value}"
        return None

    return check


def _replay_check(wl: Workload, label: str, path: Path):
    def check():
        _, text = wl.last[label]
        path.write_text(text, encoding="utf-8")
        replay_code, replayed = _cli(["replay", str(path)])
        if replay_code != 0 or replayed != text:
            return f"{label}: replay exit {replay_code}, output differs: {replayed != text}"
        return None

    return check


# -------------------------------------------------------------- building


def build(name: str, seed: int, quick: bool, results_dir: Path) -> Workload:
    """The workload's inputs, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    size = (QUICK if quick else FULL)[name]
    if name == "threshold-3d":
        return threshold_3d(rng, size)
    if name == "threshold-lowdim":
        return threshold_lowdim(rng, size)
    if name == "zeta-suite":
        return zeta_suite(rng, size)
    if name == "shells-report":
        return shells_report(rng, size, results_dir)
    raise ValueError(f"unknown workload {name!r}")
