import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))


def pytest_report_header(config):
    """Which mode the golden corpus runs in: hashes compared on the numpy
    version that made them, skipped on any other, with both SIMD lines."""
    from test_golden import CORPUS, simd_line

    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    mode = "compares hashes" if np.__version__ == corpus["numpy"] else "skips"
    return [f"golden corpus: {mode}; numpy {np.__version__} here, {corpus['numpy']} in the corpus",
            f"SIMD here: {simd_line()}", f"SIMD of the corpus: {corpus['simd']}"]
