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
cap errors, 1 when the reader closes the output pipe early (with nothing
on stderr) and on anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import commutator, gammakit, summability, zetalab
from .domain import DomainSpec, as_multi_index, log_norm, mc_norm_oracle
from .errors import ResourceCapError, ValidationError, parsed_json, positive_integer
from .lattice import range_count, shell_rows
from .summability import (
    DEFAULT_MARGIN,
    DEFAULT_TOL,
    DEFAULT_WINDOW,
)

_EIG_ROW_CAP = 100_000
# criterion 7's 10^7 samples take 0.6 s, so the default allows about 6 s
_MC_SAMPLE_CAP = 10**8
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
    except ValueError as exc:
        # a decoding error, or an integer of more digits than Python converts
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


def _report(command: str, params: dict, results: dict) -> dict:
    return {"command": command, "params": params, "results": results}


# ---------------------------------------------------------------- commands


def _cmd_norm(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    idx = params["index"]
    cap = params["cap"] if params["cap"] is not None else _MC_SAMPLE_CAP
    params = {**params, "cap": cap}
    # log_norm rejects a log-norm beyond double range; its exponential may
    # still overflow
    value = log_norm(dom, idx)
    if not value < _LN_DOUBLE_MAX:
        raise ValidationError("the norm is out of double precision range for this domain and index")
    results = {"log_norm": value, "norm": math.exp(value)}
    samples = params["mc_samples"]
    if samples:
        if samples > cap:
            raise ResourceCapError(
                f"{samples} Monte-Carlo samples exceed the cap of {cap}; raise --cap"
            )
        est, err = mc_norm_oracle(dom, idx, samples, params["seed"])
        results["mc"] = {"estimate": est, "stderr": err}
        # a zero stderr (one sample, or every sample rejected) gives no scale
        if err > 0:
            results["mc"]["sigmas_from_formula"] = abs(est - math.exp(value)) / err
    return _report("norm", params, results)


def _cmd_eig(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    kind = _parse_kind(params["kind"])
    lo, hi = params["degree_min"], params["degree_max"]
    if lo < 0 or hi < lo:
        raise ValidationError("need 0 <= degree-min <= degree-max")
    # degree-max is the table's largest entry, an index entry like any other
    as_multi_index(dom, [0] * (dom.dimension - 1) + [hi])
    cap = params["cap"] if params["cap"] is not None else _EIG_ROW_CAP
    params = {**params, "cap": cap}
    shells = range(lo, hi + 1)
    if range_count(dom.dimension, shells) > cap:
        raise ResourceCapError(f"eigenvalue table would have more than {cap} rows; raise --cap")
    idx = shell_rows(dom.dimension, shells)[0]
    vals = commutator.eigenvalue_bulk(dom, kind, idx)
    rows = zip(idx.sum(axis=1).tolist(), idx.tolist(), vals.tolist())
    results = {"rows": [{"degree": n, "index": r, "eigenvalue": v} for n, r, v in rows]}
    return _report("eig", params, results)


def _cmd_shells(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    kind = _parse_kind(params["kind"])
    rep = summability.shell_report(
        dom,
        kind,
        params["p"],
        params["N"],
        window=params["window"],
        margin=params["margin"],
        cap=params["cap"],
    )
    params = {**params, "N": rep.shell_sums.size - 1, "cap": rep.cap}
    results = {
        "shell_sums": rep.shell_sums,
        "slope": rep.slope,
        "slope_stderr": rep.slope_stderr,
        "verdict": rep.verdict.value,
        "total": rep.total,
        "evaluations": rep.evaluations,
    }
    return _report("shells", params, results)


def _cmd_threshold(params: dict) -> dict:
    dom = DomainSpec.from_json(params["domain"])
    kind = _parse_kind(params["kind"])
    predicted = summability.predicted_threshold(dom, kind)
    p_lo = params["p_lo"] if params["p_lo"] is not None else predicted / 2.0
    p_hi = params["p_hi"] if params["p_hi"] is not None else 1.5 * predicted + 0.5
    rep = summability.threshold_report(
        dom,
        kind,
        p_lo,
        p_hi,
        tol=params["tol"],
        N=params["N"],
        window=params["window"],
        cap=params["cap"],
    )
    params = {**params, "N": rep.N, "p_lo": p_lo, "p_hi": p_hi, "cap": rep.cap}
    empirical = rep.threshold
    agreement_tol = max(params["tol"], 0.1 * predicted)
    results = {
        "predicted": predicted,
        "empirical": empirical,
        "abs_difference": abs(predicted - empirical),
        "agreement_tol": agreement_tol,
        "agrees": abs(predicted - empirical) <= agreement_tol,
        "evaluations": rep.evaluations,
        "probes": rep.probes,
        "bracket": rep.bracket,
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
    rep = zetalab.brute_shell_sums(
        spec,
        params["N"],
        window=params["window"],
        margin=params["margin"],
        cap=params["cap"],
    )
    params = {**params, "cap": rep.cap}
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
        "xs": check.xs,
        "exact": check.exact,
        "approx": check.approx,
        "abs_error": check.abs_error,
        "agreement_exact": math.isinf(check.decay_exponent),
    }
    if needs_b:
        entry["b"] = b
    # exact agreement has no finite decay exponent: the key is left out
    if not entry["agreement_exact"]:
        entry["decay_exponent"] = check.decay_exponent
    if tag == "R3":
        printed = gammakit.verify_expansion(kind, order, xs, use_printed_r3=True)
        entry["quadratic_coefficients"] = check.r3_coefficients
        entry["printed_variant"] = {"abs_error": printed.abs_error}
        if not math.isinf(printed.decay_exponent):
            entry["printed_variant"]["decay_exponent"] = printed.decay_exponent
    return entry


def _cmd_verify_gamma(params: dict) -> dict:
    x0, doublings = params["x0"], params["doublings"]
    if not x0 >= 1.0:
        raise ValidationError(f"x0 must be at least 1, got {x0!r}")
    try:
        last = math.ldexp(x0, doublings)
    except OverflowError:
        last = math.inf
    if not math.isfinite(last):
        raise ValidationError("the last node x0 * 2^doublings is out of double precision range")
    xs = [x0 * 2.0**j for j in range(doublings + 1)]
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


# ------------------------------------------------------------------ output


# each command's CSV header, and the notes the help text adds to them
_CSV_HEADERS = {
    "norm": ["log_norm", "norm", "mc_estimate", "mc_stderr"],
    "eig": ["degree", "index", "eigenvalue"],
    "shells": ["shell", "sum"],
    "zeta": ["shell", "sum"],
    "threshold": ["predicted", "empirical", "abs_difference", "agrees"],
    "module-threshold": ["component", "value"],
    "verify-gamma": ["kind", "order", "a", "b", "x", "exact", "approx", "abs_error",
                     "decay_exponent"],
}
_CSV_NOTES = {"eig": "(index entries joined by |)"}


def _csv_rows(report: dict):
    command = report["command"]
    res = report["results"]
    if command == "norm":
        mc = res.get("mc") or {}
        return [[res["log_norm"], res["norm"], mc.get("estimate"), mc.get("stderr")]]
    if command == "eig":
        return ([r["degree"], "|".join(map(str, r["index"])), r["eigenvalue"]] for r in res["rows"])
    if command in ("shells", "zeta"):
        sums = res["shell_sums"].tolist()
        return zip(range(len(sums)), sums)
    if command == "threshold":
        return [[res["predicted"], res["empirical"], res["abs_difference"], res["agrees"]]]
    if command == "module-threshold":
        rows = [["dimension", res["dimension"]], ["module", res["value"]]]
        return rows + [[f"q[{e['block']}]", e["q"]] for e in res["blocks"]]
    if command == "verify-gamma":
        rows = []
        for chk in res["checks"]:
            columns = (chk[key].tolist() for key in ("xs", "exact", "approx", "abs_error"))
            rows.extend(
                [chk["kind"], chk["order"], chk["a"], chk.get("b"), x, exact, approx, err,
                 chk.get("decay_exponent")]
                for x, exact, approx, err in zip(*columns)
            )
        return rows
    raise ValidationError(f"no CSV projection for command {command!r}")


# the JSON text of each plain scalar type, as json.dumps writes it
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}
_PLAIN = frozenset(_SCALAR_TEXT)
_NOT_FINITE = "a result is not a finite number for these parameters"


def _check_finite(obj) -> None:
    """Raise ValidationError if a number anywhere in a container is not
    finite: a report never carries one as a null.  A float array takes one
    ``isfinite``, with no walk over its elements."""
    for value in obj.values() if isinstance(obj, dict) else obj:
        kind = type(value)
        if kind is float:
            if not math.isfinite(value):
                raise ValidationError(_NOT_FINITE)
        elif kind in _PLAIN:
            continue
        elif isinstance(value, (dict, list, tuple)):
            _check_finite(value)
        elif isinstance(value, np.ndarray):
            if value.dtype.kind == "f" and not np.isfinite(value).all():
                raise ValidationError(_NOT_FINITE)
        elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ValidationError(_NOT_FINITE)


@functools.lru_cache(maxsize=32)
def _scalar_list_encoder(inner: str):
    """The C encoder's ``encode`` for a list of plain scalars whose entries
    start on lines ``inner``; json.dumps makes a new encoder on every call."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


class _Chunks:
    """Text for stdout, written a chunk of pieces at a time: a text stream's
    write costs more per call than most pieces of a report take to make."""

    size = 4096

    def __init__(self):
        self.pieces = []

    def write(self, text: str) -> None:
        if len(self.pieces) >= self.size:
            self._write("".join(self.pieces))
        self.pieces.append(text)

    def _write(self, text: str) -> None:
        sys.stdout.write(text)
        self.pieces.clear()

    def close(self) -> None:
        """Write what is left, the last piece on its own.  A text stream can
        drop the end of one large write to a closed pipe with no error; the
        small last piece stays buffered, so the final flush fails instead."""
        last = self.pieces.pop()
        self._write("".join(self.pieces))
        sys.stdout.write(last)


def _write_json(obj, write, newline: str) -> None:
    """Write a dict or list in pieces, as ``json.dumps(obj, indent=2,
    sort_keys=True)`` spells it; ``newline`` is a line break and the indent
    of obj's first line."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        keys = sorted(obj)
        values = [obj[key] for key in keys]
        heads = [f"{inner}{encode_basestring_ascii(key)}: " for key in keys]
        brackets = "{}"
    else:
        if not obj:
            write("[]")
            return
        if set(map(type, obj)) <= _PLAIN:
            text = _scalar_list_encoder(inner)(obj)
            write("[" + inner)
            write(text[1:-1])
            write(newline + "]")
            return
        values = obj
        heads = itertools.repeat(inner)
        brackets = "[]"
    sep = brackets[0]
    for head, value in zip(heads, values):
        text = _SCALAR_TEXT.get(type(value))
        if text is not None:
            write(sep + head + text(value))
        elif isinstance(value, (dict, list, tuple, np.ndarray)):
            write(sep + head)
            _write_json(value.tolist() if isinstance(value, np.ndarray) else value, write, inner)
        elif isinstance(value, (float, np.floating)):
            write(sep + head + float.__repr__(float(value)))
        elif isinstance(value, (int, np.integer)):
            write(sep + head + int.__repr__(int(value)))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        sep = ","
    write(newline + brackets[1])


def _emit(report: dict, fmt: str) -> None:
    """Check the whole report, then write it to stdout in pieces: nothing is
    written for a report that fails the check."""
    _check_finite(report)
    out = _Chunks()
    if fmt == "json":
        _write_json(report, out.write, "\n")
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(_CSV_HEADERS[report["command"]])
        writer.writerows(_csv_rows(report))
    out.close()


# ------------------------------------------------------------------ parser


def _csv_columns() -> str:
    """The help text's list of ``_CSV_HEADERS``, one line per header."""
    commands = {}
    for command, header in _CSV_HEADERS.items():
        commands.setdefault(",".join(header), []).append(command)
    lines = ["CSV columns per subcommand (--format csv; JSON is the canonical format):"]
    for header, names in commands.items():
        note = _CSV_NOTES.get(names[0], "")
        lines.append(f"  {', '.join(names):<18}{header:<31}{note}".rstrip())
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are ValidationErrors: exit 2 with one message."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _at_least_one(text: str) -> int:
    """The argparse type of --workers and --cap: an integer of at least 1."""
    try:
        return positive_integer(int(text), "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eggsum",
        description=__doc__,
        epilog=_csv_columns(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    evaluations = (f"evaluations: one per class of rows the walk evaluates and one per "
                   "pair of entry degrees that a weight of rows folds, a multiply-add "
                   f"(default {summability.DEFAULT_CAP:,}; dimensions >= 4 need an explicit cap)")
    defaults = ", ".join(f"{n} for d = {d}" for d, n in summability.DEFAULT_SHELLS.items())
    last_shell_help = "last shell N of the sums T_0..T_N, at least 16"
    shells_help = (f"{last_shell_help} (default by dimension: {defaults}; dimensions >= 4 "
                   "need an explicit N)")
    window_help = (f"trailing fraction of the shells 0..N that the tail fit uses, in (0, 1) "
                   f"(default {DEFAULT_WINDOW})")

    # counts: the work --cap bounds; a command that counts none takes no --cap
    def common(p, domain=True, kind=False, counts=None):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=_at_least_one, default=1,
                       help="worker count, at least 1, echoed in reports; it changes "
                            "nothing (default 1)")
        if counts:
            p.add_argument("--cap", type=_at_least_one, default=None,
                           help=f"resource cap on {counts}; exit 3 beyond it")
        if domain:
            p.add_argument("--domain", required=True,
                           help='domain spec: inline JSON or a file path '
                                '({"blocks":[{"p":[...],"a":...},...]})')
        if kind:
            p.add_argument("--kind", default="self:0:0",
                           help="commutator kind selector (default self:0:0)")

    p = sub.add_parser("norm", help="log monomial norm for one index")
    common(p, counts=f"Monte-Carlo samples (default {_MC_SAMPLE_CAP:,})")
    p.add_argument("--index", required=True, help="JSON index, flat or per-block nested")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="also run the Monte-Carlo oracle with this many samples")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eig", help="eigenvalue table over a degree range")
    common(p, kind=True, counts=f"table rows (default {_EIG_ROW_CAP:,})")
    p.add_argument("--degree-min", type=int, default=0)
    p.add_argument("--degree-max", type=int, default=16)

    p = sub.add_parser("shells", help="shell sums + tail slope + verdict")
    common(p, kind=True, counts=evaluations)
    p.add_argument("--p", type=float, required=True, help="Schatten exponent")
    p.add_argument("--N", type=int, default=None, help=shells_help)
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW, help=window_help)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)

    p = sub.add_parser("threshold", help="predicted vs empirical summability cut-off")
    common(p, kind=True, counts=evaluations)
    p.add_argument("--N", type=int, default=None, help=shells_help)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="the width of the final bracket: the solver stops once its "
                        "bracket is at most this wide, and the cut-off is the secant root "
                        f"inside it; at least 0.01 (default {DEFAULT_TOL})")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW, help=window_help)
    p.add_argument("--p-lo", type=float, default=None, help="bracket low end (default predicted/2)")
    p.add_argument("--p-hi", type=float, default=None,
                   help="bracket high end (default 1.5*predicted + 0.5)")

    p = sub.add_parser("module-threshold", help="module cut-off with per-block breakdown")
    common(p)

    p = sub.add_parser("zeta", help="critical exponent, family and brute-force verdict")
    common(p, domain=False, counts=f"lattice terms of an enumeration spec, though no lattice is walked "
           f"(default {summability.DEFAULT_CAP:,}; "
           f"an explicit cap also lifts the {zetalab.DEFAULT_ZETA_SHELL_CAP:,}-shell ceiling)")
    p.add_argument("--spec", required=True, help="zeta series spec: inline JSON or file path")
    p.add_argument("--N", type=int, default=5000, help=f"{last_shell_help} (default 5000)")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW, help=window_help)
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


_JSON_ARGS = ("domain", "spec", "index")


def _params_from_args(args: argparse.Namespace, load=_load_json_arg) -> dict:
    params = {k: v for k, v in vars(args).items() if k != "command"}
    for name in _JSON_ARGS:
        if name in params:
            params[name] = load(params[name], f"--{name}")
    return params


def _replayed_params(parser: argparse.ArgumentParser, report_arg: str) -> tuple[str, dict]:
    """The command and parameters of a saved report, parsed as the command
    line would parse them.  A null takes its default; a domain, spec or index
    goes in as JSON text and is never read as a file path."""
    saved = _load_json_arg(report_arg, "report")
    if not isinstance(saved, dict) or "command" not in saved or "params" not in saved:
        raise ValidationError("replay needs a report with command and params fields")
    command, params = saved["command"], saved["params"]
    if not (isinstance(command, str) and command in _EXECUTORS) or not isinstance(params, dict):
        raise ValidationError(f"replay needs a report of one of {sorted(_EXECUTORS)}")
    argv = [command]
    for key, value in params.items():
        if value is not None:
            text = value if isinstance(value, str) and key not in _JSON_ARGS else json.dumps(value)
            argv.append(f"--{key.replace('_', '-')}={text}")
    # a key no option takes is reported by name below, not as an
    # unrecognized argument
    args, _ = parser.parse_known_args(argv)
    unknown = sorted(set(params) - set(vars(args)))
    if unknown:
        raise ValidationError(f"unknown parameters {unknown} for {command}")
    return command, _params_from_args(args, load=parsed_json)


def run(argv=None) -> int:
    """Parse arguments, execute, print the report; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "replay":
            command, params = _replayed_params(parser, args.report)
        else:
            command, params = args.command, _params_from_args(args)
        _emit(_EXECUTORS[command](params), args.format)
        # a pipe the reader closed fails here, not in the interpreter's
        # final flush
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader wants no more output: point stdout at devnull so that
        # the final flush of what is left cannot fail again, and exit 1
        # quietly, as a process killed by SIGPIPE would print nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
