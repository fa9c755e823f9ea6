"""CSV artifacts and the run manifest.

Column order and headers are a stability contract (documented in the
README).  Numbers are written with Python's shortest round-trip repr, so
files parse back to exactly the simulated values and identical runs give
byte-identical artifacts.  The manifest's non-comment lines are the full
configuration in key = value form and parse back to the run's config; the
wall-time comment is the one line excluded from the determinism contract.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_hash, config_to_pairs
from .engine import AGGREGATE_COLUMNS, CompareResult, EnsembleResult, METRIC_KEYS, SimulationTrace
from .errors import ConfigError
from .ledger import ITEM_NAMES

PER_BANK_HEADER = ("period", "bank") + ITEM_NAMES + ("profit",)
AGGREGATE_HEADER = ("period",) + AGGREGATE_COLUMNS
HISTOGRAM_HEADER = ("bank", "a2", "a3", "l3", "l4", "l5", "profit")

# Aggregate columns backing each of the standard scenario charts.
FIGURE_COLUMNS = {
    1: ("l1", "l2", "l3", "money_total"),
    2: ("l1", "l2", "l3", "money_total"),
    3: ("l1", "l2", "l3", "money_total"),
    4: ("a2", "new_customer_lending"),
    5: ("a3", "interbank_issued", "interbank_repaid"),
    6: ("l3", "interbank_issued", "interbank_repaid"),
    7: ("l5", "guarantees_granted", "guarantee_count"),
    8: ("l4", "profit_total"),
}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_manifest(path: Path, config: ScenarioConfig, wall_time: float | None) -> Path:
    lines = [
        "# minibank run manifest; non-comment lines parse back to the run config",
        f"# code_version = {__version__}",
        f"# config_hash = {config_hash(config)}",
    ]
    if wall_time is not None:
        # excluded from the byte-determinism contract
        lines.append(f"# wall_time_s = {wall_time:.3f}")
    lines.extend(f"{key} = {value}" for key, value in config_to_pairs(config))
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_trace_artifacts(trace: SimulationTrace, out_dir, figure: int | None = None,
                         wall_time: float | None = None) -> dict[str, Path]:
    """Write per-bank, aggregate and histogram CSVs plus the manifest.

    With ``figure`` set, an extra figure<N>.csv holds the aggregate-column
    subset backing that chart.  An empty trace (T = 0) yields header-only
    CSVs.  Returns the written paths keyed by artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T, B = trace.n_periods, trace.n_banks

    per_bank_rows = []
    for t in range(T):
        for b in range(B):
            per_bank_rows.append((t + 1, b) + tuple(trace.sheets[t, b]) + (trace.profit[t, b],))

    agg = trace.aggregates
    aggregate_rows = [(t + 1,) + tuple(agg[name][t] for name in AGGREGATE_COLUMNS)
                      for t in range(T)]

    histogram_rows = []
    if T:
        terminal = trace.sheets[-1]
        for b in range(B):
            histogram_rows.append((
                b,
                terminal[b, ITEM_NAMES.index("a2")],
                terminal[b, ITEM_NAMES.index("a3")],
                terminal[b, ITEM_NAMES.index("l3")],
                terminal[b, ITEM_NAMES.index("l4")],
                terminal[b, ITEM_NAMES.index("l5")],
                trace.profit[-1, b],
            ))

    paths = {
        "per_bank": _write_csv(out / "per_bank.csv", PER_BANK_HEADER, per_bank_rows),
        "aggregate": _write_csv(out / "aggregate.csv", AGGREGATE_HEADER, aggregate_rows),
        "histogram": _write_csv(out / "histogram.csv", HISTOGRAM_HEADER, histogram_rows),
        "manifest": _write_manifest(out / "manifest.txt", trace.config, wall_time),
    }
    if figure is not None:
        if figure not in FIGURE_COLUMNS:
            raise ConfigError(f"figure: expected one of {sorted(FIGURE_COLUMNS)}, got {figure}")
        columns = FIGURE_COLUMNS[figure]
        rows = [(t + 1,) + tuple(agg[name][t] for name in columns) for t in range(T)]
        paths["figure"] = _write_csv(out / f"figure{figure}.csv", ("period",) + columns, rows)
    return paths


def emit_ensemble_artifacts(result: EnsembleResult, out_dir,
                            wall_time: float | None = None) -> dict[str, Path]:
    """Write the ensemble mean/decile series, per-seed metrics and manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T = len(result.mean["money_total"])

    header = ["period"]
    for name in AGGREGATE_COLUMNS:
        header.extend((name, f"{name}_q10", f"{name}_q50", f"{name}_q90"))
    rows = []
    for t in range(T):
        row = [t + 1]
        for name in AGGREGATE_COLUMNS:
            row.extend((result.mean[name][t], result.q10[name][t],
                        result.q50[name][t], result.q90[name][t]))
        rows.append(tuple(row))

    metric_rows = [
        (i, seed) + tuple(result.metrics[name][i] for name in METRIC_KEYS)
        for i, seed in enumerate(result.seeds)
    ]
    return {
        "aggregate": _write_csv(out / "ensemble_aggregate.csv", tuple(header), rows),
        "metrics": _write_csv(out / "ensemble_metrics.csv",
                              ("run", "seed") + METRIC_KEYS, metric_rows),
        "manifest": _write_manifest(out / "manifest.txt", result.config, wall_time),
    }


def emit_compare_summary(compare: CompareResult, out_dir) -> Path:
    """Write the per-phi metric means of a shared-shock sweep."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for phi in compare.phis:
        metrics = compare.results[phi].metrics
        rows.append((phi,) + tuple(float(np.mean(metrics[name])) for name in METRIC_KEYS))
    return _write_csv(out / "compare_summary.csv", ("phi",) + METRIC_KEYS, rows)


def format_compare_table(compare: CompareResult) -> str:
    """Plain-text summary of a phi sweep, for the command line."""
    lines = [f"phi sweep over {compare.n_seeds} shared-shock seeds"]
    header = f"{'phi':>6}" + "".join(f"{name:>28}" for name in METRIC_KEYS)
    lines.append(header)
    for phi in compare.phis:
        metrics = compare.results[phi].metrics
        cells = "".join(f"{float(np.mean(metrics[name])):>28.6g}" for name in METRIC_KEYS)
        lines.append(f"{phi:>6.2f}{cells}")
    for metric, direction in (("cumulative_customer_lending", True),
                              ("cumulative_interbank_issued", True),
                              ("terminal_equity", True),
                              ("cumulative_guarantees", False)):
        count = compare.ordered_seed_count(metric, decreasing=direction)
        trend = "decreasing" if direction else "increasing"
        lines.append(f"{metric} strictly {trend} in phi on {count}/{compare.n_seeds} seeds")
    return "\n".join(lines)
