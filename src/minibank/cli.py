"""Command-line interface: run scenarios, ensembles and phi comparisons."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .artifacts import (
    FIGURE_COLUMNS,
    emit_compare_summary,
    emit_ensemble_artifacts,
    emit_trace_artifacts,
    format_compare_table,
)
from .config import (
    PRESET_NOTES,
    ScenarioConfig,
    config_from_pairs,
    parse_config_text,
    preset_names,
)
from .engine import (
    compare_phis,
    derive_seeds,
    run_ensemble,
    run_scenario,
    trace_metrics,
    validate_run,
)
from .errors import ConfigError, SimulationError


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value scenario file")
    parser.add_argument("--preset", metavar="NAME", help="named scenario preset")
    parser.add_argument("--seed", type=int, metavar="N", help="master seed (mandatory)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key; repeatable")


def _config_from_args(args) -> ScenarioConfig:
    pairs = []
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: cannot read {args.config}: {exc}") from None
        pairs.extend(parse_config_text(text))
    if args.preset is not None:
        pairs.append(("preset", args.preset))
    if args.seed is not None:
        pairs.append(("seed", str(args.seed)))
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        pairs.append((key.strip(), value.strip()))
    return config_from_pairs(pairs)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    start = time.perf_counter()
    trace = run_scenario(config)
    elapsed = time.perf_counter() - start
    paths = emit_trace_artifacts(trace, args.out, figure=args.figure, wall_time=elapsed)
    metrics = trace_metrics(trace)
    print(f"ran {trace.n_periods} periods in {elapsed:.2f}s "
          f"(terminal money {metrics['terminal_money']:.6g}, "
          f"cumulative guarantees {metrics['cumulative_guarantees']:.6g})")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def _cmd_ensemble(args) -> int:
    config = _config_from_args(args)
    start = time.perf_counter()
    result = run_ensemble(config, derive_seeds(config.seed, args.seeds))
    elapsed = time.perf_counter() - start
    paths = emit_ensemble_artifacts(result, args.out, wall_time=elapsed)
    print(f"ran {result.n_seeds} seeds in {elapsed:.2f}s")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    try:
        phis = [float(p) for p in args.phis.split(",")]
    except ValueError:
        raise ConfigError(f"--phis: expected comma-separated numbers, got {args.phis!r}") from None
    start = time.perf_counter()
    compare = compare_phis(config, phis=phis, n_seeds=args.seeds)
    elapsed = time.perf_counter() - start
    print(format_compare_table(compare))
    print(f"({elapsed:.2f}s)")
    if args.out:
        path = emit_compare_summary(compare, args.out)
        print(f"  summary: {path}")
    return 0


def _cmd_validate(args) -> int:
    config = _config_from_args(args)
    rows = validate_run(config)
    failed = False
    for name, ok, detail in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name:22s} {PRESET_NOTES[name]}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minibank",
        description="Seed-reproducible simulator of a miniature banking system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and emit its artifacts")
    _add_config_arguments(run)
    run.add_argument("--out", required=True, metavar="DIR", help="artifact directory")
    run.add_argument("--figure", type=int, choices=sorted(FIGURE_COLUMNS),
                     help="also emit the aggregate-column subset for this chart")
    run.set_defaults(func=_cmd_run)

    ens = sub.add_parser("ensemble", help="run one scenario under many derived seeds")
    _add_config_arguments(ens)
    ens.add_argument("--seeds", type=int, default=30, metavar="N", help="number of runs")
    ens.add_argument("--out", required=True, metavar="DIR")
    ens.set_defaults(func=_cmd_ensemble)

    cmp_ = sub.add_parser("compare", help="sweep phi over shared-shock seeds")
    _add_config_arguments(cmp_)
    cmp_.add_argument("--phis", default="0,0.4,0.8", metavar="LIST",
                      help="comma-separated pooling qualities (default 0,0.4,0.8)")
    cmp_.add_argument("--seeds", type=int, default=30, metavar="N")
    cmp_.add_argument("--out", metavar="DIR", help="optionally write compare_summary.csv")
    cmp_.set_defaults(func=_cmd_compare)

    val = sub.add_parser("validate", help="run the invariant suite on one scenario")
    _add_config_arguments(val)
    val.set_defaults(func=_cmd_validate)

    pre = sub.add_parser("presets", help="list the named presets")
    pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, OSError) as exc:  # OSError: writing the artifacts failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
