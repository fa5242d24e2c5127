"""Property test of the CLI's input handling: whatever JSON arrives as a
domain or an index, ``eggsum norm`` and ``eggsum module-threshold`` end
with exit 0, 2 or 3, raise nothing out of ``run``, and a successful report
holds no null or NaN among its results."""

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
