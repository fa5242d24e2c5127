"""Golden reports: each command of ``golden.json`` replayed through
``cli.run``, whose report text must hash to the SHA-256 recorded there.

Float bits can depend on numpy's build, so the corpus records the numpy
version that made it and the SIMD line of its ``np.show_config()``; on
another numpy version the test is skipped, and a failing hash names both
SIMD lines.  Only the commands and hashes are kept, never a report.  A
change that alters a report on purpose rewrites the hashes, with ``src``
on the path, by

    python tests/test_golden.py

which prints the name of each entry whose hash it rewrites (a new entry
among them), for the change log to say which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from eggsum import cli

CORPUS = Path(__file__).with_name("golden.json")


def report_digest(argv: list[str]) -> str:
    """SHA-256 of the text that ``cli.run(argv)`` prints; the run must
    succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(argv)
    assert status == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def simd_line() -> str:
    """The SIMD extensions of this numpy build, as ``np.show_config()``
    lists them: "baseline ...; found ..."."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return "; ".join(f"{key} {' '.join(names)}" for key, names in simd.items())


def _load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", _load()["reports"], ids=lambda entry: entry["name"])
def test_report_hash_is_the_recorded_one(entry):
    corpus = _load()
    made = corpus["numpy"]
    if np.__version__ != made:
        pytest.skip(f"the hashes were made with numpy {made}; this is numpy {np.__version__}")
    assert report_digest(entry["argv"]) == entry["sha256"], (
        entry["argv"], f"SIMD of the corpus: {corpus['simd']}; here: {simd_line()}")


if __name__ == "__main__":
    corpus = _load()
    corpus["numpy"] = np.__version__
    corpus["simd"] = simd_line()
    for entry in corpus["reports"]:
        digest = report_digest(entry["argv"])
        if digest != entry.get("sha256"):
            print(entry["name"])
        entry["sha256"] = digest
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
