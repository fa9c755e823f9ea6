"""The period engine: phase pipeline, traces, ensembles and comparisons.

Each period runs, in order: guarantee removal, customer cash payments,
wire transfers with netting, customer loan repayment, target and realised
lending, interbank loan repayment, reserve pooling with allocation,
guarantee granting, and the equity accrual at freshly drawn rates.  A run
is strictly sequential and owns its state exclusively; ensembles run
independently seeded runs and merge afterwards.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bank_credit import draw_target_ratios, realise_lending, repay_customer_loans, target_lending
from .central_bank import grant_guarantees, remove_guarantees
from .config import ScenarioConfig
from .equity import accrue_equity
from .errors import ConfigError, IdentityError, SimulationError
from .interbank import (
    InterbankLoanLedger,
    allocate_pooled_credit,
    compute_pooling_state,
    repay_interbank_loans,
)
from .ledger import (
    ITEM_NAMES,
    TOL,
    BankBalanceSheets,
    CustomerBook,
    check_identities,
    initialise,
    sum_reserve,
)
from .payments import settle_cash_payments, settle_wire_transfers
from .stochastics import RngStreams, draw_period_rates, random_row_stochastic

STAT_COLUMNS = (
    "new_customer_lending",
    "customer_repaid",
    "interbank_issued",
    "interbank_issued_wire",
    "interbank_issued_pooled",
    "interbank_issued_rollover",
    "interbank_repaid",
    "interbank_cancelled",
    "interbank_issued_count",
    "interbank_repaid_count",
    "interbank_outstanding",
    "guarantees_granted",
    "guarantee_count",
    "cash_gross",
    "wire_gross",
)

AGGREGATE_COLUMNS = ITEM_NAMES + ("money_total", "profit_total") + STAT_COLUMNS

# How often run_period checks the state: after every phase, or once per period.
CHECK_CADENCES = ("phase", "period")


@dataclass
class SimulationState:
    period: int
    banks: BankBalanceSheets
    book: CustomerBook
    loans: InterbankLoanLedger


@dataclass(frozen=True)
class PeriodRecord:
    period: int
    sheets: np.ndarray  # (B, 10)
    profit: np.ndarray  # (B,)
    stats: dict[str, float]


def init_state(config: ScenarioConfig, streams: RngStreams) -> SimulationState:
    banks, book = initialise(config, streams.stream("assignment", 0))
    return SimulationState(0, banks, book, InterbankLoanLedger(config.B))


def _check_state(state: SimulationState, config: ScenarioConfig, where: str) -> None:
    """Per-bank identities, currency conservation and ledger consistency;
    a failure's message starts with ``where``."""
    try:
        check_identities(state.banks, state.book)
        drift = abs(float(state.banks.a1.sum()) - config.A1_0)
        if not drift <= TOL * config.A1_0:
            raise IdentityError(f"currency drift {drift / config.A1_0:.3e} of A1_0")
        state.loans.check_consistency(state.banks)
    except SimulationError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def run_period(state: SimulationState, config: ScenarioConfig, streams: RngStreams,
               check: str = "period") -> PeriodRecord:
    """Advance the state by one period and return its record.

    ``check``, one of CHECK_CADENCES, controls how often the identity,
    currency and ledger checks run.
    """
    t = state.period + 1
    banks, book, loans = state.banks, state.book, state.loans
    per_phase = check == "phase"

    def checkpoint(phase: str) -> None:
        if per_phase:
            _check_state(state, config, f"period {t}, after {phase}")

    remove_guarantees(banks)
    if banks.a5.any() or banks.l5.any():
        raise IdentityError(f"period {t}: guarantees survived removal")
    checkpoint("remove_guarantees")

    target_ratio = draw_target_ratios(config, streams.stream("target_ratio", t))

    key = 0 if config.fixed_payment_matrix else t
    cash_matrix = random_row_stochastic(config.C, streams.stream("cash_matrix", key))
    wire_matrix = random_row_stochastic(config.B, streams.stream("wire_matrix", key))
    cash_stats = settle_cash_payments(banks, book, cash_matrix, config.xi1)
    checkpoint("settle_cash_payments")
    wire_stats = settle_wire_transfers(banks, book, wire_matrix, config.xi2, loans,
                                       config.reserve_base, t)
    checkpoint("settle_wire_transfers")

    repaid = repay_customer_loans(banks, book, config, streams.stream("repayment_ratio", t))
    checkpoint("repay_customer_loans")
    potential = target_lending(banks, config, target_ratio)
    lent = realise_lending(banks, book, potential, config, streams.stream("absorption", t))
    checkpoint("realise_lending")

    ib_stats = repay_interbank_loans(banks, loans, config.omega, config.reserve_base, t,
                                     streams.subseed("interbank_decision"))
    checkpoint("repay_interbank_loans")

    pooling = compute_pooling_state(banks, config.reserve_base, target_ratio, config.phi,
                                    config.matching, streams.stream("matching", t),
                                    alpha=config.alpha, lam=config.lam)
    unmet, pool_stats = allocate_pooled_credit(banks, loans, pooling, t,
                                               transfer_on_issue=config.transfer_on_issue)
    checkpoint("allocate_pooled_credit")

    # the guarantee must complete reserves to exactly the pooling-phase target
    expected = pooling.target_reserve - sum_reserve(banks, config.reserve_base)
    grants = grant_guarantees(banks, unmet, expected=expected)
    checkpoint("grant_guarantees")

    rates = draw_period_rates(config, streams.stream("rates", t))
    profit = accrue_equity(banks, rates)
    checkpoint("accrue_equity")

    state.period = t
    if check == "period":
        _check_state(state, config, f"period {t}")

    stats = {
        "new_customer_lending": float(lent.sum()),
        "customer_repaid": float(repaid.sum()),
        "interbank_issued": wire_stats.issued_volume + pool_stats.issued_volume,
        "interbank_issued_wire": wire_stats.issued_volume,
        "interbank_issued_pooled": pool_stats.issued_volume,
        "interbank_issued_rollover": ib_stats.rollover_volume,
        "interbank_repaid": ib_stats.repaid_volume,
        "interbank_cancelled": ib_stats.cancelled_volume + pool_stats.cancelled_volume,
        "interbank_issued_count": float(wire_stats.issued_count + pool_stats.issued_count),
        "interbank_repaid_count": float(ib_stats.repaid_count),
        "interbank_outstanding": loans.total(),
        "guarantees_granted": float(grants.sum()),
        "guarantee_count": float((grants > 0).sum()),
        "cash_gross": cash_stats.gross_volume,
        "wire_gross": wire_stats.gross_volume,
    }
    return PeriodRecord(t, banks.snapshot(), profit, stats)


@dataclass(frozen=True)
class SimulationTrace:
    """Per-period, per-bank snapshots plus aggregate series for one run.

    ``initial`` is the state right after initialisation; ``sheets`` and the
    aggregate series cover the T completed periods.
    """

    config: ScenarioConfig
    initial: np.ndarray               # (B, 10)
    sheets: np.ndarray                # (T, B, 10)
    profit: np.ndarray                # (T, B)
    aggregates: dict[str, np.ndarray]  # (T,) per AGGREGATE_COLUMNS entry

    @property
    def n_periods(self) -> int:
        return self.sheets.shape[0]

    @property
    def n_banks(self) -> int:
        return self.initial.shape[0]

    def item_series(self, name: str) -> np.ndarray:
        """(T, B) series of one balance-sheet item."""
        return self.sheets[:, :, ITEM_NAMES.index(name)]


def _trace_from_records(config: ScenarioConfig, initial: np.ndarray,
                        records: list[PeriodRecord]) -> SimulationTrace:
    B = initial.shape[0]
    sheets = np.stack([r.sheets for r in records]) if records else np.zeros((0, B, 10))
    profit = np.stack([r.profit for r in records]) if records else np.zeros((0, B))
    aggregates: dict[str, np.ndarray] = {}
    for i, name in enumerate(ITEM_NAMES):
        aggregates[name] = sheets[:, :, i].sum(axis=1)
    aggregates["money_total"] = aggregates["l1"] + aggregates["l2"] + aggregates["l3"]
    aggregates["profit_total"] = profit.sum(axis=1)
    for name in STAT_COLUMNS:
        aggregates[name] = np.array([r.stats[name] for r in records])
    return SimulationTrace(
        config=config,
        initial=initial,
        sheets=sheets,
        profit=profit,
        aggregates=aggregates,
    )


def run_scenario(config: ScenarioConfig, check: str = "period") -> SimulationTrace:
    """Run one seeded scenario end to end and return its trace."""
    config.validate()
    if check not in CHECK_CADENCES:
        raise ConfigError(f"check: expected {'/'.join(CHECK_CADENCES)}, got {check!r}")
    streams = RngStreams(config.seed)
    state = init_state(config, streams)
    _check_state(state, config, "initial state")
    initial = state.banks.snapshot()
    records = [run_period(state, config, streams, check=check) for _ in range(config.T)]
    return _trace_from_records(config, initial, records)


def derive_seeds(master_seed: int, n: int) -> list[int]:
    """n reproducible child seeds from one master seed."""
    if n < 1:
        raise ConfigError("n_seeds: must be at least 1")
    ss = np.random.SeedSequence(int(master_seed))
    return [int(x) for x in ss.generate_state(n, dtype=np.uint64)]


METRIC_KEYS = (
    "cumulative_customer_lending",
    "cumulative_interbank_issued",
    "cumulative_guarantees",
    "terminal_equity",
    "terminal_money",
    "mean_profit",
    "guarantee_positive_share",
    "first_guarantee_period",
)


def trace_metrics(trace: SimulationTrace) -> dict[str, float]:
    """Scalar summary of one trace, used for cross-scenario comparisons."""
    agg = trace.aggregates
    positive = agg["guarantees_granted"] > 0
    if positive.any():
        first = int(np.argmax(positive)) + 1
    else:
        first = trace.n_periods + 1  # never
    return {
        "cumulative_customer_lending": float(agg["new_customer_lending"].sum()),
        "cumulative_interbank_issued": float(agg["interbank_issued"].sum()),
        "cumulative_guarantees": float(agg["guarantees_granted"].sum()),
        "terminal_equity": float(agg["l4"][-1]) if trace.n_periods else float(trace.initial[:, 8].sum()),
        "terminal_money": float(agg["money_total"][-1]) if trace.n_periods else float(trace.initial[:, 5].sum()),
        "mean_profit": float(trace.profit.mean()) if trace.n_periods else 0.0,
        "guarantee_positive_share": float(positive.mean()) if trace.n_periods else 0.0,
        "first_guarantee_period": float(first),
    }


@dataclass(frozen=True)
class EnsembleResult:
    """Mean and decile series per aggregate, plus per-seed scalar metrics."""

    config: ScenarioConfig
    seeds: list[int]
    mean: dict[str, np.ndarray]
    q10: dict[str, np.ndarray]
    q50: dict[str, np.ndarray]
    q90: dict[str, np.ndarray]
    metrics: dict[str, np.ndarray]  # (n_seeds,) per METRIC_KEYS entry

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)


def run_ensemble(config: ScenarioConfig, n_seeds: int | None = None,
                 seeds: list[int] | None = None, check: str = "period") -> EnsembleResult:
    """Run independently seeded copies of one scenario.

    Child seeds derive from config.seed, so an ensemble is as reproducible
    as a single run.  Pass an explicit seed list to share shocks across
    scenario variants.
    """
    if seeds is None:
        seeds = derive_seeds(config.seed, n_seeds if n_seeds is not None else 1)
    if not seeds:
        raise ConfigError("n_seeds: must be at least 1")
    series: dict[str, list[np.ndarray]] = {name: [] for name in AGGREGATE_COLUMNS}
    metrics: dict[str, list[float]] = {name: [] for name in METRIC_KEYS}
    for seed in seeds:
        trace = run_scenario(dataclasses.replace(config, seed=seed), check=check)
        for name in AGGREGATE_COLUMNS:
            series[name].append(trace.aggregates[name])
        for name, value in trace_metrics(trace).items():
            metrics[name].append(value)
    stacked = {name: np.stack(values) for name, values in series.items()}
    return EnsembleResult(
        config=config,
        seeds=list(seeds),
        mean={name: arr.mean(axis=0) for name, arr in stacked.items()},
        q10={name: np.quantile(arr, 0.1, axis=0) for name, arr in stacked.items()},
        q50={name: np.quantile(arr, 0.5, axis=0) for name, arr in stacked.items()},
        q90={name: np.quantile(arr, 0.9, axis=0) for name, arr in stacked.items()},
        metrics={name: np.array(values) for name, values in metrics.items()},
    )


@dataclass(frozen=True)
class CompareResult:
    """Shared-shock sweep of the pooling-quality parameter phi."""

    phis: tuple[float, ...]
    seeds: list[int]
    results: dict[float, EnsembleResult]

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    def means(self, metric: str) -> list[float]:
        return [float(np.mean(self.results[phi].metrics[metric])) for phi in self.phis]

    def ordered_seed_count(self, metric: str, decreasing: bool = True) -> int:
        """Seeds on which the metric is strictly monotone across the sweep."""
        stack = np.stack([self.results[phi].metrics[metric] for phi in self.phis])
        diffs = np.diff(stack, axis=0)
        good = (diffs < 0) if decreasing else (diffs > 0)
        return int(np.all(good, axis=0).sum())


def compare_phis(config: ScenarioConfig, phis=(0.0, 0.4, 0.8), n_seeds: int = 30,
                 check: str = "period") -> CompareResult:
    """Run the same seeds under several pooling qualities.

    Every run shares the master-seed-derived seed list, so payment and
    lending shocks are identical across phi values and differences isolate
    the pooling quality.
    """
    phis = tuple(float(phi) for phi in phis)
    if not phis or len(set(phis)) < len(phis):
        raise ConfigError(f"phis: expected distinct values, got {list(phis)}")
    seeds = derive_seeds(config.seed, n_seeds)
    results = {
        phi: run_ensemble(dataclasses.replace(config, phi=phi), seeds=seeds, check=check)
        for phi in phis
    }
    return CompareResult(phis, seeds, results)


def validate_run(config: ScenarioConfig) -> list[tuple[str, bool, str]]:
    """Invariant battery over one run; returns (name, passed, detail) rows."""
    try:
        trace = run_scenario(config, check="phase")
    except SimulationError as exc:
        return [("per-phase identity, currency and ledger checks", False, str(exc))]
    rows = [("per-phase identity, currency and ledger checks", True,
             f"all {config.T} periods within {TOL:g}")]
    if not trace.n_periods:
        return rows
    agg = trace.aggregates
    for name, asset, liability in (("interbank", "a3", "l3"), ("equity", "a4", "l4"),
                                   ("guarantee", "a5", "l5")):
        scale = np.maximum(1.0, np.abs(agg[asset]))
        gap = float((np.abs(agg[asset] - agg[liability]) / scale).max())
        rows.append((f"{name} duality", bool(gap <= TOL), f"max relative gap {gap:.3e}"))
    return rows
