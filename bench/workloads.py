"""The benchmark's workloads, the unit of work each one repeats, the checks
on every unit's output, and the closed loop that drives them.

One client in one process runs one unit at a time and starts the next only
when the previous one has finished and been checked.  A unit calls the
same public entry points as the command line: ``minibank run`` is
``get_preset`` -> ``run_scenario(check="period")`` -> ``emit_trace_artifacts``,
and ``minibank compare --out`` is ``compare_phis`` -> ``emit_compare_summary``.
Every call goes through the module attribute (``mb.engine.run_scenario``)
at call time, so the traced pass sees the bench's own calls too.
"""

from __future__ import annotations

import hashlib
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PHIS = (0.0, 0.4, 0.8)
CONSERVATION_RTOL = 1e-9


class MissingSource(RuntimeError):
    """The checkout holds no minibank sources to benchmark."""


def import_minibank():
    """Import minibank from this checkout's ``src``, never from elsewhere."""
    package = SRC / "minibank" / "__init__.py"
    if not package.is_file():
        raise MissingSource(f"{package} not found: run from the root of a minibank checkout")
    sys.path.insert(0, str(SRC))
    import minibank

    if Path(minibank.__file__).resolve() != package.resolve():
        raise MissingSource(f"imported minibank from {minibank.__file__}, expected {package}")
    return minibank


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    sweep_seeds: int = 0  # 0: a unit is one run with artifacts; n: one compare_phis over n seeds

    @property
    def runs_per_unit(self) -> int:
        return len(PHIS) * self.sweep_seeds if self.sweep_seeds else 1


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("desk", "baseline_perfect"),
    Workload("wide_banks", "baseline_perfect", {"B": 50, "T": 10}),
    Workload("ledger_growth", "fig2_right", {"B": 30}),
    Workload("phi_compare", "baseline_perfect", sweep_seeds=2),
)}


def set_up(mb, workload: Workload, seed: int) -> None:
    """What a user pays before the first period: the preset and the opening state."""
    config = mb.config.get_preset(workload.preset, seed=seed, **workload.overrides)
    mb.engine.init_state(config, mb.RngStreams(config.seed))


def run_unit(mb, workload: Workload, seed: int, out_dir: Path, warm_up: bool = False):
    """One unit of work; returns (config, result, artifact paths to digest).

    ``warm_up`` shortens the unit to two periods (and one sweep seed), which
    fills lazy imports and allocator pools without costing a full run.
    """
    overrides = dict(workload.overrides, T=2) if warm_up else workload.overrides
    config = mb.config.get_preset(workload.preset, seed=seed, **overrides)
    if workload.sweep_seeds:
        n_seeds = 1 if warm_up else workload.sweep_seeds
        result = mb.engine.compare_phis(config, phis=PHIS, n_seeds=n_seeds, check="period")
        paths = [mb.artifacts.emit_compare_summary(result, out_dir)]
    else:
        result = mb.engine.run_scenario(config, check="period")
        written = mb.artifacts.emit_trace_artifacts(result, out_dir)
        paths = [written["aggregate"], written["per_bank"]]
    return config, result, paths


def currency_drift(workload: Workload, config, result) -> float:
    """Largest relative gap between total currency and A1_0 over the unit.

    For a sweep the ensemble mean and 10/50/90% quantiles of every period's
    a1 total are checked; with two seeds per ensemble those pin both runs.
    """
    if workload.sweep_seeds:
        series = [s for ens in result.results.values()
                  for s in (ens.mean["a1"], ens.q10["a1"], ens.q50["a1"], ens.q90["a1"])]
    else:
        series = [result.aggregates["a1"]]
    return max(float(abs(s - config.A1_0).max()) for s in series) / config.A1_0


def digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def cpu_seconds() -> float:
    """Process CPU time, reaped children included."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class LoopStats:
    walls: list = field(default_factory=list)   # seconds per completed unit
    seeds: list = field(default_factory=list)   # seed of each completed unit
    cpu: float = 0.0                            # CPU seconds over completed units
    runs: int = 0                               # scenario runs completed
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0                        # loop wall time, checks included
    problems: list = field(default_factory=list)


def closed_loop(mb, workload: Workload, schedule, seconds: float, min_units: int,
                out_dir: Path, seen: dict, recorder=None) -> LoopStats:
    """Run units over ``schedule`` until ``seconds`` have passed and at least
    ``min_units`` were started.  A unit fails if it raises, if currency is
    not conserved, or if a seed already seen in this invocation (``seen``
    maps seed to digests) gives different artifact bytes."""
    stats = LoopStats()
    start = perf_counter()
    for i, seed in enumerate(schedule):
        if i >= min_units and perf_counter() - start >= seconds:
            break
        if recorder is not None:
            recorder.unit = i
        stats.attempted += workload.runs_per_unit
        t0, c0 = perf_counter(), cpu_seconds()
        try:
            config, result, paths = run_unit(mb, workload, seed, out_dir)
        except Exception:  # a failed run is counted and reported, not fatal
            stats.failed += workload.runs_per_unit
            stats.problems.append(f"seed {seed}: raised\n{traceback.format_exc()}")
            continue
        wall, cpu = perf_counter() - t0, cpu_seconds() - c0

        problem = None
        drift = currency_drift(workload, config, result)
        if not drift <= CONSERVATION_RTOL:
            problem = f"seed {seed}: currency drift {drift:.3e} exceeds {CONSERVATION_RTOL:g}"
        got = digests(paths)
        if seen.setdefault(seed, got) != got:
            problem = f"seed {seed}: artifacts differ between two runs of the same seed"
        if problem:
            stats.failed += workload.runs_per_unit
            stats.problems.append(problem)
            continue
        stats.walls.append(wall)
        stats.seeds.append(seed)
        stats.cpu += cpu
        stats.runs += workload.runs_per_unit
    stats.elapsed = perf_counter() - start
    return stats
