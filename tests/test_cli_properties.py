"""Property test of the CLI's input handling: whatever JSON arrives as a
domain, an index or a zeta spec, and whatever kind selector, Schatten
exponent and bracket, ``eggsum norm``, ``module-threshold``, ``eig``,
``shells``, ``threshold`` and ``zeta`` end with exit 0, 2 or 3, raise nothing
out of ``run`` (numpy warnings included, which the test configuration turns
into errors), and a successful report holds no null or NaN among its
results."""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eggsum.cli import run

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
KIND = st.sampled_from(["self:0:0", "self:1:0", "within:0:0:1", "between:0:0:1:0"]) | st.text(
    max_size=8
)

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
    if code == 0:
        report = json.loads(out)
        assert _holes(report["results"]) == [], out
    else:
        assert out == ""
        assert err.startswith(("error: ", "resource cap: "))


@SETTINGS
@given(domain=DOMAIN, index=INDEX)
def test_norm_any_json(domain, index):
    _check(["norm", f"--domain={json.dumps(domain)}", f"--index={json.dumps(index)}"])


@SETTINGS
@given(domain=DOMAIN)
def test_module_threshold_any_json(domain):
    _check(["module-threshold", f"--domain={json.dumps(domain)}"])


@SETTINGS
@given(domain=DOMAIN | EGG, kind=KIND, low=st.integers(0, 2), width=st.integers(0, 2))
def test_eig_any_json(domain, kind, low, width):
    _check(["eig", f"--domain={json.dumps(domain)}", f"--kind={kind}",
            f"--degree-min={low}", f"--degree-max={low + width}"])


@settings(SETTINGS, max_examples=150)
@given(domain=DOMAIN | EGG, kind=KIND, N=st.integers(16, 40), p=NUMBERS)
def test_shells_any_json(domain, kind, N, p):
    _check(["shells", f"--domain={json.dumps(domain)}", f"--kind={kind}", f"--p={p}",
            f"--N={N}"])


@settings(SETTINGS, max_examples=150)
@given(spec=ZETA | JSON, N=st.integers(16, 60))
def test_zeta_any_json(spec, N):
    _check(["zeta", f"--spec={json.dumps(spec)}", f"--N={N}"])


@settings(SETTINGS, max_examples=150)
@given(domain=DOMAIN | EGG, kind=KIND, N=st.integers(16, 40), lo=st.none() | NUMBERS,
       hi=st.none() | NUMBERS)
def test_threshold_any_json(domain, kind, N, lo, hi):
    # an absent bracket end takes the default around the predicted cut-off
    ends = [f"--p-{name}={v}" for name, v in (("lo", lo), ("hi", hi)) if v is not None]
    _check(["threshold", f"--domain={json.dumps(domain)}", f"--kind={kind}", f"--N={N}", *ends])
