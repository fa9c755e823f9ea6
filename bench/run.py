"""minibank benchmark: one command per workload, closed loop, checked outputs.

    python3 bench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from the root of a minibank checkout.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and prints the per-layer metrics.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller results
file, with the machine record, goes to ``bench/_out/results/``.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads
from layers import check_reached, layer_metrics, targets
from tracer import Recorder, traced

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "_out"
SETUP_REPEATS = 7
SCHEDULE_LENGTH = 10_000  # more units than even a 100x faster desk run would start

# Timed in a fresh interpreter: import, preset and the first opening state.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import workloads
start = time.perf_counter()
mb = workloads.import_minibank()
workloads.set_up(mb, workloads.WORKLOADS[sys.argv[2]], int(sys.argv[3]))
print(repr(time.perf_counter() - start))
"""


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _first_field(path: str, key: str):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _first_field("/proc/cpuinfo", "model name"),
        "mem_total": _first_field("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "loadavg_before": os.getloadavg(),
    }


def measure_setup(workload, seed: int) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH), workload.name, str(seed)],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_seconds(stats, workload) -> list[float]:
    return [wall / workload.runs_per_unit for wall in stats.walls]


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100 * (n - 10) / n:.0f}", sorted(samples)[n - 11]


def end_to_end_metrics(stats, workload, setup: list[float]) -> dict[str, tuple[float, str]]:
    """The untraced loop's metrics, as (value, unit)."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(run_seconds(stats, workload)), "s"),
        "runs_per_s": (stats.runs / stats.elapsed, "1/s"),
        "sweep_s": (statistics.median(stats.walls), "s"),
        "cpu_s_per_run": (stats.cpu / stats.runs, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(recorder, traced_stats, plain_stats, workload) -> dict[str, tuple[float, str]]:
    """The traced loop's layer metrics plus its run time and tracing overhead."""
    metrics = layer_metrics(recorder, traced_stats.runs)
    traced_run_s = statistics.median(run_seconds(traced_stats, workload))
    plain_run_s = statistics.median(run_seconds(plain_stats, workload))
    metrics["interbank.run_share"] = (
        sum(value for name, (value, _) in metrics.items()
            if name.startswith("interbank.") and name.endswith(".self_s")) / traced_run_s, "ratio")
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.untraced_run_s"] = (plain_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - plain_run_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        mb = workloads.import_minibank()
    except workloads.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    record = machine_record()
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = mb.derive_seeds(args.seed, SCHEDULE_LENGTH)
    setup = [] if args.trace else measure_setup(workload, seeds[0])
    workloads.run_unit(mb, workload, seeds[-1], out_dir, warm_up=True)

    seen: dict = {}
    if args.trace:
        # Same seeds, untraced then traced; the digest check across the two
        # halves also proves that tracing leaves the outputs untouched.
        plain = workloads.closed_loop(mb, workload, seeds, args.seconds / 2, 1, out_dir, seen)
        recorder = Recorder()
        with traced(recorder, targets(mb)):
            stats = workloads.closed_loop(mb, workload, seeds, args.seconds / 2, 1,
                                          out_dir, seen, recorder)
        check_reached(recorder, bool(workload.sweep_seeds))
        loops = (plain, stats)
    else:
        # The first seed runs twice so every invocation checks determinism.
        stats = workloads.closed_loop(mb, workload, [seeds[0]] + seeds, args.seconds, 2,
                                      out_dir, seen)
        loops = (stats,)
    record["loadavg_after"] = os.getloadavg()

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    problems = [problem for loop in loops for problem in loop.problems]
    correct = failed == 0
    metrics = {}
    if correct and args.trace:
        metrics = per_layer_metrics(recorder, stats, plain, workload)
        OUT.joinpath("spans").mkdir(exist_ok=True)
        recorder.write_spans(OUT / "spans" / f"{workload.name}-seed{args.seed}.csv")
    elif correct:
        metrics = end_to_end_metrics(stats, workload, setup)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    per_run = run_seconds(stats, workload)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(record))
    for seed, files in seen.items():
        print(f"digest seed={seed} " + " ".join(f"{n}={h}" for n, h in files.items()))
    print(f"samples {len(per_run)} units, {stats.runs} scenario runs "
          f"(run_s tail: {tail(per_run) or 'fewer than 11 samples'})")
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.joinpath("results").mkdir(exist_ok=True)
    OUT.joinpath("results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "machine": record, "setup_samples_s": setup,
                    "unit_seconds": stats.walls, "unit_seeds": stats.seeds,
                    "run_s_tail": tail(per_run), "digests": seen, "problems": problems},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
