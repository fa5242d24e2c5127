"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]

For every workload it runs ``run.py --trace 0`` once per seed (at the
default length, BENCHMARK.json's ``run_seconds``), one after
another, and prints per metric the median, the quartiles and the spread
(quartile distance over median, as statistics.quantiles(n=4) gives them),
plus the share of failed operations.  These are the README's reference
figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values, shares = {}, set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"], result["correct"]))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name} {metric}: median {statistics.median(vals):.4g}, quartiles {q1:.4g}..{q3:.4g}, "
                  f"spread {(q3 - q1) / statistics.median(vals):.3f} (bound {bounds[metric]})", flush=True)
        ratios = sorted({f / a for f, a, _ in shares})
        print(f"{name} failed share {ratios}, correct {sorted({c for _, _, c in shares})}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
