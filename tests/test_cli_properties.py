"""Property test of the CLI's input handling: whatever JSON arrives as a
domain, an index or a zeta spec, and whatever kind selector, Schatten
exponent and bracket, ``eggsum norm``, ``module-threshold``, ``eig``,
``shells``, ``threshold`` and ``zeta`` end with exit 0, 2 or 3, raise nothing
out of ``run`` (numpy warnings included, which the test configuration turns
into errors), and a successful report holds no null or NaN among its
results.  The same holds for ``verify-gamma`` at any parameters, and for
``replay`` of a valid report of each command with one parameter replaced by
any JSON value.  Whatever a report holds, numpy arrays and scalars included,
its text is that of ``json.dumps(..., indent=2, sort_keys=True)``."""

import contextlib
import dataclasses
import functools
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from eggsum import CrossBetween, CrossWithin, DomainSpec, SelfAdjoint
from eggsum.cli import _emit, run
from eggsum.commutator import all_kinds

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
JSON = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=10,
)
# values near and beyond the edges of double precision, and plain ones
NUMBERS = (
    st.sampled_from([0, 1, 2, -1, 0.5, 1e-300, 5e-324, 1e300, 1.7e308, 2**53, 2**63, 10**400])
    | st.floats(min_value=1e-3, max_value=1e3)
    | st.integers(min_value=0, max_value=10**6)
)
BLOCK = st.fixed_dictionaries(
    {"p": st.lists(NUMBERS, min_size=1, max_size=3) | JSON, "a": NUMBERS | JSON}
)
DOMAIN = st.fixed_dictionaries({"blocks": st.lists(BLOCK, min_size=1, max_size=3) | JSON}) | JSON
INDEX = st.lists(NUMBERS, max_size=7) | st.lists(st.lists(NUMBERS, max_size=3), max_size=3) | JSON

# small domains of positive exponents, edge values included: most of them
# reach the eigenvalue kernel, where DOMAIN mostly fails validation
POSITIVE = NUMBERS.filter(lambda v: v > 0)
EGG = st.fixed_dictionaries(
    {
        "blocks": st.lists(
            st.fixed_dictionaries({"p": st.lists(POSITIVE, min_size=1, max_size=2), "a": POSITIVE}),
            min_size=1,
            max_size=2,
        )
    }
)
# zeta specs of 1 to 5 variables whose exponents are edge values, with
# group and abs factors that may or may not fit the variables
ZETA = st.integers(1, 5).flatmap(
    lambda m: st.fixed_dictionaries(
        {"m": st.just(m), "powers": st.lists(NUMBERS, min_size=m, max_size=m), "b": NUMBERS},
        optional={
            "groups": st.lists(
                st.fixed_dictionaries(
                    {"vars": st.lists(st.integers(0, m), min_size=1, max_size=3), "a": NUMBERS}
                ),
                max_size=2,
            ),
            "abs": st.none() | st.fixed_dictionaries({"neg": st.integers(0, m), "a": NUMBERS}),
        },
    )
)
# shell counts the commands accept, and ones below 16 they reject
SHELLS = st.integers(16, 40) | st.integers(-20, 15)
KIND = st.sampled_from(["self:0:0", "self:1:0", "within:0:0:1", "between:0:0:1:0"]) | st.text(
    max_size=8
)

# a valid egg of one or two blocks of one or two coordinates, one of its own
# kinds, a shell count the commands accept and no bracket or a drawn one:
# every such command line reaches the bisection
SMALL_EGG = st.fixed_dictionaries(
    {
        "blocks": st.lists(
            st.fixed_dictionaries(
                {
                    "p": st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=2),
                    "a": st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                }
            ),
            min_size=1,
            max_size=2,
        )
    }
)
_PREFIX = {SelfAdjoint: "self", CrossWithin: "within", CrossBetween: "between"}


def _selector(kind):
    """The CLI's kind selector: the prefix, then the fields in order."""
    return ":".join([_PREFIX[type(kind)], *map(str, dataclasses.astuple(kind))])


@st.composite
def _bisection_case(draw):
    domain = draw(SMALL_EGG)
    kind = draw(st.sampled_from(all_kinds(DomainSpec.from_json(domain))))
    lo, hi = draw(st.none() | st.tuples(NUMBERS, NUMBERS)) or (None, None)
    return domain, _selector(kind), draw(st.integers(16, 40)), lo, hi


SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _holes(obj, path="results"):
    """Paths of the null and NaN values inside ``obj``."""
    if obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        return [path]
    if isinstance(obj, dict):
        return [h for k, v in obj.items() for h in _holes(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [h for i, v in enumerate(obj) for h in _holes(v, f"{path}[{i}]")]
    return []


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (code, err)
    event(f"exit {code}")
    if code == 0:
        assert _holes(json.loads(out)["results"]) == [], out
    else:
        assert out == ""
        assert err.startswith(("error: ", "resource cap: "))


@SETTINGS
@given(domain=DOMAIN, index=INDEX, samples=st.just(1) | st.integers(0, 1000))
def test_norm_any_json(domain, index, samples):
    _check(["norm", f"--domain={json.dumps(domain)}", f"--index={json.dumps(index)}",
            f"--mc-samples={samples}"])


@SETTINGS
@given(domain=DOMAIN)
def test_module_threshold_any_json(domain):
    _check(["module-threshold", f"--domain={json.dumps(domain)}"])


@SETTINGS
@given(
    domain=DOMAIN | EGG,
    kind=KIND,
    # small degrees, and the edges of int32 and of the integers doubles hold
    low=st.integers(0, 2) | st.sampled_from([2**31 - 1, 2**31, 2**53, 2**53 + 1]),
    width=st.integers(0, 2),
)
def test_eig_any_json(domain, kind, low, width):
    _check(["eig", f"--domain={json.dumps(domain)}", f"--kind={kind}",
            f"--degree-min={low}", f"--degree-max={low + width}"])


@settings(SETTINGS, max_examples=150)
@given(domain=DOMAIN | EGG, kind=KIND, N=SHELLS, p=NUMBERS)
# outer powers of 1e-300 give the entry terms Gamma arguments near 2e300,
# whose Stirling series once overflowed with a warning
@example(domain={"blocks": [{"p": [1], "a": 1e-300}, {"p": [1], "a": 1e-300}]},
         kind="between:0:0:1:0", N=16, p=1)
def test_shells_any_json(domain, kind, N, p):
    _check(["shells", f"--domain={json.dumps(domain)}", f"--kind={kind}", f"--p={p}",
            f"--N={N}"])


@settings(SETTINGS, max_examples=150)
@given(spec=ZETA | JSON, N=st.integers(16, 60))
def test_zeta_any_json(spec, N):
    _check(["zeta", f"--spec={json.dumps(spec)}", f"--N={N}"])


@settings(SETTINGS, max_examples=150)
@given(case=st.tuples(DOMAIN | EGG, KIND, SHELLS, st.none() | NUMBERS, st.none() | NUMBERS)
       | _bisection_case())
def test_threshold_any_json(case):
    domain, kind, N, lo, hi = case
    # an absent bracket end takes the default around the predicted cut-off
    ends = [f"--p-{name}={v}" for name, v in (("lo", lo), ("hi", hi)) if v is not None]
    _check(["threshold", f"--domain={json.dumps(domain)}", f"--kind={kind}", f"--N={N}", *ends])


# (kind, order, a, b, x0, doublings): any values, and valid ones, which
# reach a successful report
GAMMA_ANY = st.tuples(
    st.sampled_from(["all", "R1", "R2", "R3", "R4", "R5", "r3"]) | st.text(max_size=3),
    st.integers(-1, 3) | NUMBERS,
    NUMBERS | st.sampled_from(["inf", "nan", "-1", "1e154", "1e70"]),
    NUMBERS | st.sampled_from(["inf", "nan", "-1", "1e154"]),
    NUMBERS | st.sampled_from(["inf", "nan", "-64", "1e300"]),
    st.integers(-3, 1100) | NUMBERS,
)
_GRID = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 3.5, 10.0])
GAMMA_VALID = st.tuples(
    st.sampled_from(["all", "R1", "R2", "R3", "R4", "R5"]),
    st.integers(0, 2),
    _GRID,
    _GRID,
    st.floats(min_value=1.0, max_value=1e6),
    st.integers(2, 8),
)


@settings(SETTINGS, max_examples=150)
@given(case=GAMMA_ANY | GAMMA_VALID)
def test_verify_gamma_any_json(case):
    names = ("kind", "order", "a", "b", "x0", "doublings")
    _check(["verify-gamma", *(f"--{name}={v}" for name, v in zip(names, case))])


DISK = '{"blocks":[{"p":[1.0],"a":1.0}]}'
BALL = '{"blocks":[{"p":[1.0,1.0],"a":1.0}]}'
# one small valid command line per command
VALID = {
    "norm": ["norm", f"--domain={BALL}", "--index=[1,2]", "--mc-samples=1000", "--seed=3"],
    "eig": ["eig", f"--domain={BALL}", "--kind=within:0:0:1", "--degree-max=3"],
    "shells": ["shells", f"--domain={BALL}", "--p=2.0", "--N=24"],
    "threshold": ["threshold", f"--domain={DISK}", "--N=40"],
    "module-threshold": ["module-threshold", f"--domain={BALL}"],
    "zeta": ["zeta", '--spec={"m":2,"powers":[0,0],"b":3.0}', "--N=40"],
    "verify-gamma": ["verify-gamma", "--kind=R3"],
}
# any JSON value, but integers small enough that a valid one (a Monte-Carlo
# sample count, say) asks for a computation of seconds at most
REPLACEMENT = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
) | st.sampled_from(["abc", None, 100.5, [1], {}, -1, 0, True, 1e308, "nan", "-inf", "csv"])


@functools.cache
def _valid_report(command):
    code, out, err = _run(VALID[command])
    assert code == 0, err
    return out


@SETTINGS
@given(data=st.data(), command=st.sampled_from(sorted(VALID)), value=REPLACEMENT)
def test_replay_any_param(data, command, value):
    report = json.loads(_valid_report(command))
    key = data.draw(st.sampled_from(sorted(report["params"]) + ["bogus"]), label="key")
    report["params"][key] = value
    _check(["replay", json.dumps(report)])


# report values paired with the plain JSON value json.dumps writes for each
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, -1e308]
)
_INT64 = st.integers(-(2**63), 2**63 - 1)
_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", "\u00e9t\u00e9", "\u2028", "\ud800", "\U0001f600", '"\\/\b\f\n\r\t\x00\x1f\x7f']
)
_LEAF = (
    (st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _FINITE | _TEXT).map(
        lambda v: (v, v)
    )
    | _FINITE.map(lambda v: (np.float64(v), v))
    | _INT64.map(lambda v: (np.int64(v), v))
    | st.lists(_FINITE, max_size=6).map(lambda vs: (np.array(vs, dtype=np.float64), vs))
    | st.lists(_INT64, max_size=6).map(lambda vs: (np.array(vs, dtype=np.int64), vs))
)


def _unzip_list(pairs):
    return [value for value, _ in pairs], [plain for _, plain in pairs]


def _unzip_dict(pairs):
    values, plains = _unzip_list(pairs.values())
    return dict(zip(pairs, values)), dict(zip(pairs, plains))


REPORT_VALUE = st.recursive(
    _LEAF,
    lambda inner: (
        st.lists(inner, max_size=5).map(_unzip_list)
        | st.dictionaries(_TEXT, inner, max_size=4).map(_unzip_dict)
    ),
    max_leaves=20,
)


@SETTINGS
@given(pairs=st.dictionaries(_TEXT, REPORT_VALUE, max_size=4))
def test_report_text_is_json_dumps(pairs):
    report, plain = _unzip_dict(pairs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, "json")
    assert out.getvalue() == json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"
