"""Smoke test of the benchmark harness at the --quick sizes.

    python3 -m pytest perfbench/test_quick.py -q

Checks correctness and the output format only; timings are not gated.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    return result


def test_quick_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run("--seed", "3")
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            value = result["metrics"][f"{wl['name']}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0


def test_quick_traced_run_reports_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run("--seed", "3", "--workload", "shells-report", "--trace", "1")
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["cli.report_bytes"]["value"] > 0
    assert result["metrics"]["zetalab.self_s"]["value"] == 0.0
