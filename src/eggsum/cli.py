"""Command-line front end.

Subcommands: norm, eig, shells, threshold, module-threshold, zeta,
verify-gamma, replay.  JSON (default) is the canonical output and embeds
the full effective configuration, so any report can be re-run bit-for-bit
with ``replay``; CSV is a projection of the tabular part.

Block, coordinate and zeta-variable labels are 0-based everywhere.
Commutator kinds are spelled

    self:BLOCK:COORD
    within:BLOCK:RAISED:LOWERED
    between:BLOCK:COORD:BLOCK2:COORD2

Exit status: 0 on success, 2 on validation or input errors, 3 on resource
cap errors, 1 on anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import commutator, gammakit, summability, zetalab
from .domain import DomainSpec, log_norm, mc_norm_oracle
from .errors import ResourceCapError, ValidationError, positive_integer
from .lattice import range_count, shell_batches
from .summability import (
    DEFAULT_MARGIN,
    DEFAULT_TOL,
    DEFAULT_WINDOW,
)

_EIG_ROW_CAP = 100_000
_LN_DOUBLE_MAX = math.log(sys.float_info.max)


def _load_json_arg(value: str, what: str):
    """Parse an inline JSON value or the contents of a JSON file."""
    path = Path(value)
    try:
        is_file = path.is_file()
    except (OSError, ValueError):
        # not a usable path (a name too long, say): the value is inline JSON
        is_file = False
    try:
        text = path.read_text(encoding="utf-8") if is_file else value
        return json.loads(text)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} from {value!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed JSON for {what}: {exc}") from exc


def _parse_kind(text: str) -> commutator.CommutatorKind:
    parts = text.split(":")
    try:
        if parts[0] == "self" and len(parts) == 3:
            return commutator.SelfAdjoint(int(parts[1]), int(parts[2]))
        if parts[0] == "within" and len(parts) == 4:
            return commutator.CrossWithin(int(parts[1]), int(parts[2]), int(parts[3]))
        if parts[0] == "between" and len(parts) == 5:
            return commutator.CrossBetween(
                int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])
            )
    except ValueError as exc:
        raise ValidationError(f"bad commutator kind {text!r}: {exc}") from exc
    raise ValidationError(
        f"bad commutator kind {text!r}; use self:K:J, within:K:J:L or between:K:J:K2:L"
    )


def _kind_str(kind: commutator.CommutatorKind) -> str:
    if isinstance(kind, commutator.SelfAdjoint):
        return f"self:{kind.block}:{kind.coord}"
    if isinstance(kind, commutator.CrossWithin):
        return f"within:{kind.block}:{kind.raised}:{kind.lowered}"
    return (
        f"between:{kind.raised_block}:{kind.raised_coord}"
        f":{kind.lowered_block}:{kind.lowered_coord}"
    )


def _clean(obj):
    """JSON-safe copy: numpy scalars/arrays to python, non-finite to None."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _report(command: str, params: dict, results: dict) -> dict:
    return _clean({"command": command, "params": params, "results": results})


def _print_json(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _print_csv(header: list[str], rows) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in _clean(list(row))])


def _resolve_shells(dom: DomainSpec, n_arg: int | None) -> int:
    if n_arg is not None:
        return int(n_arg)
    return summability.default_shells(dom)


# ---------------------------------------------------------------- commands


def _cmd_norm(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    idx = params["index"]
    # a norm beyond double range overflows to inf (or NaN, from inf - inf)
    # on the way; the range check turns either into exit 2
    with np.errstate(over="ignore", invalid="ignore"):
        value = log_norm(dom, idx)
    if not -math.inf < value < _LN_DOUBLE_MAX:
        raise ValidationError("the norm is out of double precision range for this domain and index")
    results = {"log_norm": value, "norm": math.exp(value)}
    if params["mc_samples"]:
        est, err = mc_norm_oracle(dom, idx, params["mc_samples"], params["seed"])
        sigmas = abs(est - math.exp(value)) / err if err > 0 else None
        results["mc"] = {"estimate": est, "stderr": err, "sigmas_from_formula": sigmas}
    return _report("norm", params, results)


def _cmd_eig(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    kind = _parse_kind(params["kind"])
    lo, hi = params["degree_min"], params["degree_max"]
    if lo < 0 or hi < lo:
        raise ValidationError("need 0 <= degree-min <= degree-max")
    cap = params["cap"] if params["cap"] is not None else _EIG_ROW_CAP
    shells = range(lo, hi + 1)
    if range_count(dom.dimension, shells) > cap:
        raise ResourceCapError(
            f"eigenvalue table would have more than {cap} rows; raise --cap"
        )
    rows = []
    for _, _, idx in shell_batches(dom.dimension, shells):
        vals = commutator.eigenvalue_bulk(dom, kind, idx)
        for n, r, v in zip(idx.sum(axis=1).tolist(), idx.tolist(), vals.tolist()):
            rows.append({"degree": n, "index": r, "eigenvalue": v})
    return _report("eig", params, {"rows": rows})


def _require_finite(sums, slope: float, total: float, window: float) -> None:
    """A report whose tail fit has no slope, or whose sums left double range,
    is an error: it never becomes a success report holding nulls."""
    if math.isfinite(slope) and math.isfinite(total):
        return
    points = summability.fit_points(sums, window)
    if points < summability.MIN_FIT_POINTS:
        raise ValidationError(
            f"only {points} shell sums in the fit window are positive, the tail fit "
            f"needs {summability.MIN_FIT_POINTS}; lower the exponent or raise N"
        )
    raise ValidationError("the shell sums exceed double precision range")


def _cmd_shells(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    kind = _parse_kind(params["kind"])
    N = _resolve_shells(dom, params["N"])
    params = {**params, "N": N}
    rep = summability.shell_report(
        dom,
        kind,
        params["p"],
        N,
        window=params["window"],
        margin=params["margin"],
        cap=params["cap"],
    )
    _require_finite(rep.shell_sums, rep.slope, rep.total, params["window"])
    results = {
        "shell_sums": rep.shell_sums,
        "slope": rep.slope,
        "slope_stderr": rep.slope_stderr,
        "verdict": rep.verdict.value,
        "total": rep.total,
    }
    return _report("shells", params, results)


def _cmd_threshold(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    kind = _parse_kind(params["kind"])
    N = _resolve_shells(dom, params["N"])
    predicted = summability.predicted_threshold(dom, kind)
    p_lo = params["p_lo"] if params["p_lo"] is not None else predicted / 2.0
    p_hi = params["p_hi"] if params["p_hi"] is not None else 1.5 * predicted + 0.5
    params = {**params, "N": N, "p_lo": p_lo, "p_hi": p_hi}
    empirical = summability.empirical_threshold(
        dom,
        kind,
        p_lo,
        p_hi,
        tol=params["tol"],
        N=N,
        window=params["window"],
        cap=params["cap"],
    )
    agreement_tol = max(params["tol"], 0.1 * predicted)
    results = {
        "predicted": predicted,
        "empirical": empirical,
        "abs_difference": abs(predicted - empirical),
        "agreement_tol": agreement_tol,
        "agrees": abs(predicted - empirical) <= agreement_tol,
    }
    return _report("threshold", params, results)


def _cmd_module_threshold(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    breakdown = summability.module_threshold_breakdown(dom)
    consistency = summability.max_predicted_over_kinds(dom)
    results = {
        **breakdown,
        "max_over_kinds": consistency,
        "consistent": breakdown["value"] == consistency,
    }
    return _report("module-threshold", params, results)


def _cmd_zeta(params: dict) -> dict:
    spec = zetalab.ZetaSeriesSpec.from_json(params["spec"])
    kwargs = {}
    if params["cap"] is not None:
        # explicit cap lifts both the shell ceiling and the term budget
        kwargs = {
            "max_shells": max(params["N"], zetalab.DEFAULT_ZETA_SHELL_CAP),
            "term_cap": params["cap"],
        }
    rep = zetalab.brute_shell_sums(
        spec,
        params["N"],
        window=params["window"],
        margin=params["margin"],
        **kwargs,
    )
    _require_finite(rep.shell_sums, rep.slope, rep.total, params["window"])
    results = {
        "critical_b": rep.critical,
        "b": spec.b,
        "family": rep.family.value,
        "side_condition_ok": rep.side_ok,
        "bound_is_sharp": rep.sharp,
        "slope": rep.slope,
        "slope_stderr": rep.slope_stderr,
        "verdict": rep.verdict.value,
        "total": rep.total,
        "method": rep.method,
        "shell_sums": rep.shell_sums,
    }
    return _report("zeta", params, results)


def _verify_one(tag: str, order: int, a: float, b: float | None, xs) -> dict:
    needs_b = tag in ("R1", "R3", "R5")
    kind = gammakit.ExpansionKind(tag, a, b if needs_b else None)
    check = gammakit.verify_expansion(kind, order, xs)
    entry = {
        "kind": tag,
        "order": order,
        "a": a,
        "b": b if needs_b else None,
        "xs": check.xs,
        "exact": check.exact,
        "approx": check.approx,
        "abs_error": check.abs_error,
        "decay_exponent": check.decay_exponent,
        "agreement_exact": math.isinf(check.decay_exponent),
    }
    if tag == "R3":
        printed = gammakit.verify_expansion(kind, order, xs, use_printed_r3=True)
        entry["quadratic_coefficients"] = check.r3_coefficients
        entry["printed_variant"] = {
            "abs_error": printed.abs_error,
            "decay_exponent": printed.decay_exponent,
        }
    return entry


def _cmd_verify_gamma(params: dict) -> dict:
    xs = [params["x0"] * 2.0**j for j in range(params["doublings"] + 1)]
    tags = gammakit.EXPANSION_TAGS if params["kind"] == "all" else (params["kind"].upper(),)
    checks = [
        _verify_one(tag, params["order"], params["a"], params["b"], xs) for tag in tags
    ]
    return _report("verify-gamma", params, {"checks": checks})


_EXECUTORS = {
    "norm": _cmd_norm,
    "eig": _cmd_eig,
    "shells": _cmd_shells,
    "threshold": _cmd_threshold,
    "module-threshold": _cmd_module_threshold,
    "zeta": _cmd_zeta,
    "verify-gamma": _cmd_verify_gamma,
}


def execute(command: str, params: dict) -> dict:
    """Dispatch a command from its parameter dict (the replay entry point)."""
    if command not in _EXECUTORS:
        raise ValidationError(f"unknown command {command!r}")
    if "workers" in params:
        positive_integer(params["workers"], "workers")
    return _EXECUTORS[command](params)


# ------------------------------------------------------------------ output


def _csv_rows(report: dict):
    command = report["command"]
    res = report["results"]
    if command == "norm":
        mc = res.get("mc") or {}
        return (
            ["log_norm", "norm", "mc_estimate", "mc_stderr"],
            [[res["log_norm"], res["norm"], mc.get("estimate"), mc.get("stderr")]],
        )
    if command == "eig":
        return (
            ["degree", "index", "eigenvalue"],
            [
                [r["degree"], "|".join(str(v) for v in r["index"]), r["eigenvalue"]]
                for r in res["rows"]
            ],
        )
    if command in ("shells", "zeta"):
        return (
            ["shell", "sum"],
            [[n, s] for n, s in enumerate(res["shell_sums"])],
        )
    if command == "threshold":
        return (
            ["predicted", "empirical", "abs_difference", "agrees"],
            [[res["predicted"], res["empirical"], res["abs_difference"], res["agrees"]]],
        )
    if command == "module-threshold":
        rows = [["dimension", res["dimension"]], ["module", res["value"]]]
        rows += [[f"q[{e['block']}]", e["q"]] for e in res["blocks"]]
        return (["component", "value"], rows)
    if command == "verify-gamma":
        rows = []
        for chk in res["checks"]:
            for x, exact, approx, err in zip(
                chk["xs"], chk["exact"], chk["approx"], chk["abs_error"]
            ):
                rows.append(
                    [chk["kind"], chk["order"], chk["a"], chk["b"], x, exact, approx, err,
                     chk["decay_exponent"]]
                )
        return (
            ["kind", "order", "a", "b", "x", "exact", "approx", "abs_error", "decay_exponent"],
            rows,
        )
    raise ValidationError(f"no CSV projection for command {command!r}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _print_json(report)
    else:
        header, rows = _csv_rows(report)
        _print_csv(header, rows)


# ------------------------------------------------------------------ parser


_CSV_COLUMNS = """\
CSV columns per subcommand (--format csv; JSON is the canonical format):
  norm              log_norm,norm,mc_estimate,mc_stderr
  eig               degree,index,eigenvalue        (index entries joined by |)
  shells, zeta      shell,sum
  threshold         predicted,empirical,abs_difference,agrees
  module-threshold  component,value
  verify-gamma      kind,order,a,b,x,exact,approx,abs_error,decay_exponent
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eggsum",
        description=__doc__,
        epilog=_CSV_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain=True, kind=False):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, default=1,
                       help="worker count, at least 1, echoed in reports; it changes "
                            "nothing (default 1)")
        p.add_argument("--cap", type=int, default=None,
                       help="resource cap (eigenvalue evaluations / table rows)")
        if domain:
            p.add_argument("--domain", required=True,
                           help='domain spec: inline JSON or a file path '
                                '({"blocks":[{"p":[...],"a":...},...]})')
        if kind:
            p.add_argument("--kind", default="self:0:0",
                           help="commutator kind selector (default self:0:0)")

    p = sub.add_parser("norm", help="log monomial norm for one index")
    common(p)
    p.add_argument("--index", required=True, help="JSON index, flat or per-block nested")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="also run the Monte-Carlo oracle with this many samples")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eig", help="eigenvalue table over a degree range")
    common(p, kind=True)
    p.add_argument("--degree-min", type=int, default=0)
    p.add_argument("--degree-max", type=int, default=16)

    p = sub.add_parser("shells", help="shell sums + tail slope + verdict")
    common(p, kind=True)
    p.add_argument("--p", type=float, required=True, help="Schatten exponent")
    p.add_argument("--N", type=int, default=None, help="max total degree (default by dimension)")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)

    p = sub.add_parser("threshold", help="predicted vs empirical summability cut-off")
    common(p, kind=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--p-lo", type=float, default=None, help="bracket low end (default predicted/2)")
    p.add_argument("--p-hi", type=float, default=None,
                   help="bracket high end (default 1.5*predicted + 0.5)")

    p = sub.add_parser("module-threshold", help="module cut-off with per-block breakdown")
    common(p)

    p = sub.add_parser("zeta", help="critical exponent, family and brute-force verdict")
    common(p, domain=False)
    p.add_argument("--spec", required=True, help="zeta series spec: inline JSON or file path")
    p.add_argument("--N", type=int, default=5000, help="shells to sum")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)

    p = sub.add_parser("verify-gamma", help="expansion error-decay table")
    common(p, domain=False)
    p.add_argument("--kind", default="all",
                   help="R1..R5 or all (default all)")
    p.add_argument("--order", type=int, default=2, choices=(0, 1, 2))
    p.add_argument("--a", type=float, default=1.25)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--x0", type=float, default=64.0)
    p.add_argument("--doublings", type=int, default=6)

    p = sub.add_parser("replay", help="re-run the embedded config of a JSON report")
    p.add_argument("report", help="path to a previously emitted JSON report")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in vars(args).items() if k != "command"}
    if "domain" in params:
        params["domain"] = _load_json_arg(params["domain"], "--domain")
    if "spec" in params:
        params["spec"] = _load_json_arg(params["spec"], "--spec")
    if "index" in params:
        params["index"] = _load_json_arg(params["index"], "--index")
    return params


def run(argv=None) -> int:
    """Parse arguments, execute, print the report; returns the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            saved = _load_json_arg(args.report, "report")
            if not isinstance(saved, dict) or "command" not in saved or "params" not in saved:
                raise ValidationError("replay needs a report with command and params fields")
            report = execute(saved["command"], saved["params"])
        else:
            report = execute(args.command, _params_from_args(args))
        _emit(report, args.format)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
