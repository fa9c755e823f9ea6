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

from . import __version__
from .config import ScenarioConfig, config_hash, config_to_text
from .engine import AGGREGATE_COLUMNS, CompareResult, EnsembleResult, METRIC_KEYS, SimulationTrace
from .errors import ConfigError
from .ledger import ITEM_NAMES

PER_BANK_HEADER = ("period", "bank") + ITEM_NAMES + ("profit",)
AGGREGATE_HEADER = ("period",) + AGGREGATE_COLUMNS
HISTOGRAM_HEADER = ("bank", "a2", "a3", "l3", "l4", "l5", "profit")
_HISTOGRAM_ITEMS = [ITEM_NAMES.index(name) for name in HISTOGRAM_HEADER[1:-1]]

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


def _write_csv(path: Path, header, columns) -> Path:
    """Write one row per position of the equal-length ``columns``, which
    hold Python ints and floats, each cell in its repr."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in zip(*columns, strict=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def _period_columns(series, names, T: int) -> list[list]:
    """The period column and the named series as lists."""
    return [list(range(1, T + 1))] + [series[name].tolist() for name in names]


def _write_manifest(path: Path, config: ScenarioConfig, wall_time: float | None) -> Path:
    lines = [
        "# minibank run manifest; non-comment lines parse back to the run config",
        f"# code_version = {__version__}",
        f"# config_hash = {config_hash(config)}",
    ]
    if wall_time is not None:
        # excluded from the byte-determinism contract
        lines.append(f"# wall_time_s = {wall_time:.3f}")
    path.write_text("\n".join(lines) + "\n" + config_to_text(config))
    return path


def emit_trace_artifacts(trace: SimulationTrace, out_dir, figure: int | None = None,
                         wall_time: float | None = None) -> dict[str, Path]:
    """Write per-bank, aggregate and histogram CSVs plus the manifest.

    With ``figure`` set, an extra figure<N>.csv holds the aggregate-column
    subset backing that chart.  Returns the written paths keyed by artifact
    name.
    """
    if figure is not None and figure not in FIGURE_COLUMNS:
        raise ConfigError(f"figure: expected one of {sorted(FIGURE_COLUMNS)}, got {figure}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T, B = trace.n_periods, trace.n_banks
    sheets = trace.sheets.reshape(T * B, len(ITEM_NAMES))
    per_bank = [[t for t in range(1, T + 1) for _ in range(B)], list(range(B)) * T,
                *sheets.T.tolist(), trace.profit.ravel().tolist()]
    terminal = trace.sheets[-1]
    histogram = [list(range(B)), *terminal[:, _HISTOGRAM_ITEMS].T.tolist(),
                 trace.profit[-1].tolist()]

    paths = {
        "per_bank": _write_csv(out / "per_bank.csv", PER_BANK_HEADER, per_bank),
        "aggregate": _write_csv(out / "aggregate.csv", AGGREGATE_HEADER,
                                _period_columns(trace.aggregates, AGGREGATE_COLUMNS, T)),
        "histogram": _write_csv(out / "histogram.csv", HISTOGRAM_HEADER, histogram),
        "manifest": _write_manifest(out / "manifest.txt", trace.config, wall_time),
    }
    if figure is not None:
        columns = FIGURE_COLUMNS[figure]
        paths["figure"] = _write_csv(out / f"figure{figure}.csv", ("period",) + columns,
                                     _period_columns(trace.aggregates, columns, T))
    return paths


def emit_ensemble_artifacts(result: EnsembleResult, out_dir,
                            wall_time: float | None = None) -> dict[str, Path]:
    """Write the ensemble mean/decile series, per-seed metrics and manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T = len(result.mean["money_total"])
    quantiles = (("", result.mean), ("_q10", result.q10), ("_q50", result.q50),
                 ("_q90", result.q90))
    stats = {name + suffix: series[name] for name in AGGREGATE_COLUMNS
             for suffix, series in quantiles}
    # an explicit seed list may hold NumPy integers, whose repr is not the number
    metrics = [list(range(result.n_seeds)), list(map(int, result.seeds)),
               *(result.metrics[name].tolist() for name in METRIC_KEYS)]
    return {
        "aggregate": _write_csv(out / "ensemble_aggregate.csv", ("period", *stats),
                                _period_columns(stats, stats, T)),
        "metrics": _write_csv(out / "ensemble_metrics.csv",
                              ("run", "seed") + METRIC_KEYS, metrics),
        "manifest": _write_manifest(out / "manifest.txt", result.config, wall_time),
    }


def emit_compare_summary(compare: CompareResult, out_dir) -> Path:
    """Write the per-phi metric means of a shared-shock sweep."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = [compare.phis, *(compare.means(name) for name in METRIC_KEYS)]
    return _write_csv(out / "compare_summary.csv", ("phi",) + METRIC_KEYS, columns)


def format_compare_table(compare: CompareResult) -> str:
    """Plain-text summary of a phi sweep, for the command line."""
    lines = [f"phi sweep over {compare.n_seeds} shared-shock seeds"]
    header = f"{'phi':>6}" + "".join(f"{name:>28}" for name in METRIC_KEYS)
    lines.append(header)
    for phi, *means in zip(compare.phis, *(compare.means(name) for name in METRIC_KEYS)):
        cells = "".join(f"{value:>28.6g}" for value in means)
        lines.append(f"{phi!r:>6}{cells}")
    for metric, direction in (("cumulative_customer_lending", True),
                              ("cumulative_interbank_issued", True),
                              ("terminal_equity", True),
                              ("cumulative_guarantees", False)):
        count = compare.ordered_seed_count(metric, decreasing=direction)
        trend = "decreasing" if direction else "increasing"
        lines.append(f"{metric} strictly {trend} in phi on {count}/{compare.n_seeds} seeds")
    return "\n".join(lines)
