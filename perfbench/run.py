"""Benchmark for eggsum: runs one named workload in-process and prints its metrics.

    python3 perfbench/run.py --workload threshold-3d --seed 1 --trace 0
    python3 perfbench/run.py --quick            # every workload, small sizes

Run from the repository root; eggsum is imported from ``src``.  A run

1. times the set-up (importing numpy and eggsum and building the inputs)
   in SETUP_REPEATS fresh interpreters and keeps the median, and takes
   peak_rss_mb from one more interpreter that also runs one round;
2. runs one untimed warm-up round at the --quick sizes;
3. runs whole rounds of the workload's operations until --seconds have
   passed and at least MIN_ROUNDS rounds are done, checking every output;
4. runs the final checks (report replay, lattice brute force);
5. prints one JSON object as its last line: ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end ones: solve_s (the sum over
the timed operations of each one's median wall time), setup_s and
peak_rss_mb.  With --trace 1 untraced and traced rounds alternate, and the
metrics are the per-layer ones: self time and work counts per layer from
the spans, the tracing overhead, and the isolated per-layer calls.

Details of every run (per-operation times, failures, machine facts) and
the spans of a traced run go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("threshold-3d", "threshold-lowdim", "zeta-suite", "shells-report")
SETUP_REPEATS = 7
MIN_ROUNDS = 3
MIN_TRACE_PAIRS = 2
PROBE_TIMEOUT_S = 60

# The memory probe's environment.  Each of these made the peak resident set
# of the same round differ between interpreters (72 to 96 MiB on
# threshold-lowdim): whether the kernel grants numpy's huge-page advice,
# which OpenBLAS helper thread touches which buffer, and (below) the
# address-space layout.  With all three fixed, runs of one version of the
# code agree within 5 %.
MEMORY_PROBE_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0", "OPENBLAS_NUM_THREADS": "1"}


def _import_eggsum():
    """numpy and eggsum from this checkout's ``src``, nothing installed elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    import eggsum
    import eggsum.cli  # noqa: F401

    if Path(eggsum.__file__).resolve().parent != ROOT / "src" / "eggsum":
        raise SystemExit(f"eggsum was imported from {eggsum.__file__}, not from {ROOT / 'src'}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_main(workload: str, seed: int, one_round: bool) -> dict:
    """In a fresh interpreter: the set-up time (imports plus input building)
    and, with ``one_round``, the peak resident set after one round of the
    timed operations, unchecked."""
    t0 = time.perf_counter()
    _import_eggsum()
    t1 = time.perf_counter()
    import workloads  # the benchmark's own code: not part of set-up

    t2 = time.perf_counter()
    wl = workloads.build(workload, seed, quick=False, results_dir=RESULTS)
    out = {"setup_s": (t1 - t0) + (time.perf_counter() - t2)}
    if one_round:
        for op in wl.ops:
            if op.timed:
                op.run()
        out["peak_rss_mb"] = _peak_rss_mb()
    return out


_ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """In the forked memory probe before exec: no address-space
    randomisation for that one process."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current == -1 or libc.personality(current | _ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


def _spawn_probe(workload: str, seed: int, memory: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    extra = {}
    if memory:
        cmd.append("--probe-round")
        extra = {"env": {**os.environ, **MEMORY_PROBE_ENV}, "preexec_fn": _fixed_layout}
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, **extra)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"probe failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_probes(workload: str, seed: int) -> tuple[list[float], float]:
    """Set-up times of SETUP_REPEATS fresh interpreters, and the peak
    resident set of one more that also runs a round.

    Called before this process imports numpy, so it has no other threads
    when the children fork."""
    setup = [_spawn_probe(workload, seed, memory=False)["setup_s"] for _ in range(SETUP_REPEATS)]
    return setup, _spawn_probe(workload, seed, memory=True)["peak_rss_mb"]


class Round:
    """Outcome of running every op of a workload once."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []  # (op, message, known fault)


def run_round(wl, tracer=None) -> Round:
    from workloads import KnownFault

    rnd = Round()
    for op in wl.ops:
        rnd.attempted += 1
        traced = tracer is not None and op.timed
        try:
            with tracer.operation(op.name) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = op.run()
                elapsed = time.perf_counter() - t0
            message = op.check(out)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, elapsed, message = None, None, f"{type(exc).__name__}: {exc}"
        wl.last[op.name] = out
        if op.timed and elapsed is not None:
            rnd.times[op.name] = elapsed
        if traced and out is not None and op.output_bytes is not None:
            tracer.counts["cli.report_bytes"] += op.output_bytes(out)
        if message is not None:
            rnd.failures.append((op.name, message, isinstance(message, KnownFault)))
    return rnd


def solve_seconds(rounds: list[Round], ops) -> tuple[float, dict]:
    """Sum over the timed ops of each op's median time across ``rounds``."""
    medians = {}
    for op in ops:
        if op.timed:
            times = [r.times[op.name] for r in rounds if op.name in r.times]
            if times:  # an op that failed in every round makes the run incorrect
                medians[op.name] = statistics.median(times)
    return sum(medians.values()), medians


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    facts["blas_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return facts


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    t_start = time.perf_counter()
    RESULTS.mkdir(exist_ok=True)
    # set-up and memory come from fresh interpreters, except in the quick
    # and traced runs, which do not report them as such
    probes = None if quick or trace else run_probes(name, seed)
    t0 = time.perf_counter()
    _import_eggsum()
    t1 = time.perf_counter()
    import workloads

    t2 = time.perf_counter()
    wl = workloads.build(name, seed, quick=quick, results_dir=RESULTS)
    setup = probes[0] if probes else [(t1 - t0) + (time.perf_counter() - t2)]
    if not quick:
        # warm-up at the small sizes: lazy imports and first-call costs
        run_round(workloads.build(name, seed, quick=True, results_dir=RESULTS))

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer([workloads] + [sys.modules[f"eggsum.{m}"] for m in tracing.LAYERS])

    plain, traced = [], []
    t_loop = time.perf_counter()
    while True:
        plain.append(run_round(wl))
        if tracer is not None:
            traced.append(run_round(wl, tracer))
        done = len(plain)
        needed = 1 if quick else (MIN_TRACE_PAIRS if trace else MIN_ROUNDS)
        if done >= needed and time.perf_counter() - t_loop >= (0 if quick else seconds):
            break

    final_failures = []
    for check in wl.final_checks:
        try:
            message = check()
        except Exception as exc:  # a check that raises is a failed check
            message = f"{type(exc).__name__}: {exc}"
        if message is not None:
            final_failures.append(message)

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    correct = not final_failures and all(known for _, _, known in failures)
    solve, medians = solve_seconds(plain, wl.ops)
    detail = {
        "workload": name, "seed": seed, "quick": quick, "trace": trace,
        "rounds": len(plain), "traced_rounds": len(traced),
        "op_medians_s": medians, "setup_samples_s": setup,
        "op_times_s": {op.name: [r.times.get(op.name) for r in plain] for op in wl.ops if op.timed},
        "failures": sorted({f"{op}: {msg}" for op, msg, _ in failures}),
        "final_failures": final_failures,
        "wall_s": time.perf_counter() - t_start,
        "machine": machine_facts(),
    }
    if tracer is None:
        metrics = {
            "solve_s": (solve, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (probes[1] if probes else _peak_rss_mb(), "MiB"),
        }
    else:
        import isolated

        metrics = per_layer_metrics(tracer, len(traced), solve, solve_seconds(traced, wl.ops)[0])
        metrics.update(isolated.measure())
        tracer.write(RESULTS / f"{name}-seed{seed}.spans.csv")
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    tag = "quick" if quick else f"trace{int(trace)}"
    (RESULTS / f"{name}-seed{seed}-{tag}.json").write_text(json.dumps(detail, indent=2, default=str))
    for line in detail["failures"] + final_failures:
        print(f"[{name}] failed: {line}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer_metrics(tracer, rounds: int, solve_plain: float, solve_traced: float) -> dict:
    """Per-round self times and counts from the spans, and the overhead."""
    import tracing

    totals = tracer.layer_totals()
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (totals[f"{layer}.self_s"] / rounds, "s")
        out[f"{layer}.self_cpu_s"] = (totals[f"{layer}.self_cpu_s"] / rounds, "s")
    counts = tracer.counts
    for key in ("gammakit.lgamma_elems", "domain.norm_rows", "commutator.eig_rows", "lattice.rows",
                "reduction.calls", "reduction.elems", "zetalab.terms", "cli.report_bytes"):
        out[key] = (counts[key] / rounds, "count")
    eig = counts["commutator.eig_rows"]
    out["commutator.norm_rows_per_eig"] = (counts["domain.norm_rows"] / eig if eig else 0.0, "ratio")
    out["summability.probes"] = (totals["summability.probes"] / rounds, "count")
    out["trace.overhead_s"] = (solve_traced - solve_plain, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of the measured rounds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload (or --workload) at small sizes, one round, no set-up probes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probe_main(args.workload, args.seed, args.probe_round)))
        return 0
    if args.quick and args.workload is None:
        results = {n: run_workload(n, args.seed, 0.0, bool(args.trace), quick=True) for n in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    elif args.workload is None:
        parser.error("--workload is required unless --quick is given")
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
