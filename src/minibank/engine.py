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
from .config import ScenarioConfig, config_hash
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
    BankBalanceSheets,
    CustomerBook,
    check_identities,
    initialise,
    sum_reserve,
)
from .payments import PaymentFlows, settle_cash_payments, settle_wire_transfers
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

# How often run_period checks the state: after every phase, once at the
# period end, or never.
CHECK_CADENCES = ("phase", "period", "off")


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


def _check_state(state: SimulationState, config: ScenarioConfig, tol: float, where: str) -> None:
    """Per-bank identities, currency conservation and ledger consistency;
    a failure's message starts with ``where``."""
    try:
        check_identities(state.banks, state.book, tol)
        drift = abs(float(state.banks.a1.sum()) - config.A1_0)
        if not drift <= tol * config.A1_0:
            raise IdentityError(f"currency drift {drift / config.A1_0:.3e} of A1_0")
        state.loans.check_consistency(state.banks, tol)
    except SimulationError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _period_flows(config: ScenarioConfig, streams: RngStreams, period: int) -> PaymentFlows:
    key = 0 if config.fixed_payment_matrix else period
    return PaymentFlows(
        cash_matrix=random_row_stochastic(config.C, streams.stream("cash_matrix", key)),
        wire_matrix=random_row_stochastic(config.B, streams.stream("wire_matrix", key)),
        xi1=config.xi1,
        xi2=config.xi2,
    )


def run_period(state: SimulationState, config: ScenarioConfig, streams: RngStreams,
               check: str = "period", tol: float = 1e-9) -> PeriodRecord:
    """Advance the state by one period and return its record.

    ``check``, one of CHECK_CADENCES, controls how often the identity,
    currency and ledger checks run.
    """
    t = state.period + 1
    banks, book, loans = state.banks, state.book, state.loans
    per_phase = check == "phase"

    def checkpoint(phase: str) -> None:
        if per_phase:
            _check_state(state, config, tol, f"period {t}, after {phase}")

    remove_guarantees(banks)
    if banks.a5.any() or banks.l5.any():
        raise IdentityError(f"period {t}: guarantees survived removal")
    checkpoint("remove_guarantees")

    target_ratio = draw_target_ratios(config, config.B, streams.stream("target_ratio", t))

    flows = _period_flows(config, streams, t)
    cash_stats = settle_cash_payments(banks, book, flows)
    checkpoint("settle_cash_payments")
    wire_stats = settle_wire_transfers(banks, book, flows, loans, config.reserve_base, t)
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

    rates = draw_period_rates(config.B, config, streams.stream("rates", t))
    profit = accrue_equity(banks, rates)
    checkpoint("accrue_equity")

    state.period = t
    if check == "period":
        _check_state(state, config, tol, f"period {t}")

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
    config_hash: str

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
        config_hash=config_hash(config),
    )


def run_scenario(config: ScenarioConfig, check: str = "period", tol: float = 1e-9) -> SimulationTrace:
    """Run one seeded scenario end to end and return its trace."""
    config.validate()
    if check not in CHECK_CADENCES:
        raise ConfigError(f"check: expected {'/'.join(CHECK_CADENCES)}, got {check!r}")
    streams = RngStreams(config.seed)
    state = init_state(config, streams)
    if check != "off":
        _check_state(state, config, tol, "initial state")
    initial = state.banks.snapshot()
    records = [run_period(state, config, streams, check=check, tol=tol)
               for _ in range(config.T)]
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
    seeds = derive_seeds(config.seed, n_seeds)
    results = {
        float(phi): run_ensemble(dataclasses.replace(config, phi=float(phi)),
                                 seeds=seeds, check=check)
        for phi in phis
    }
    return CompareResult(tuple(float(p) for p in phis), seeds, results)


def validate_run(config: ScenarioConfig, tol: float = 1e-9) -> list[tuple[str, bool, str]]:
    """Invariant battery over one run; returns (name, passed, detail) rows."""
    rows: list[tuple[str, bool, str]] = []
    try:
        trace = run_scenario(config, check="phase", tol=tol)
    except SimulationError as exc:
        return [("per-phase identity, currency and ledger checks", False, str(exc))]
    rows.append(("per-phase identity, currency and ledger checks", True,
                 f"all {config.T} periods within {tol:g}"))

    agg = trace.aggregates

    def series_check(name: str, residual: float, bound: float, detail: str) -> None:
        rows.append((name, bool(residual <= bound), detail))

    if trace.n_periods:
        scale = np.maximum(1.0, agg["a3"])
        dual = float((np.abs(agg["a3"] - agg["l3"]) / scale).max())
        series_check("interbank duality", dual, tol, f"max relative gap {dual:.3e}")
        eq_scale = np.maximum(1.0, np.abs(agg["a4"]))
        eq = float((np.abs(agg["a4"] - agg["l4"]) / eq_scale).max())
        series_check("equity duality", eq, tol, f"max relative gap {eq:.3e}")
        g_scale = np.maximum(1.0, agg["a5"])
        guar = float((np.abs(agg["a5"] - agg["l5"]) / g_scale).max())
        series_check("guarantee duality", guar, tol, f"max relative gap {guar:.3e}")
    return rows
