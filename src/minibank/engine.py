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
    bank_scale,
    check_identities,
    initialise,
    sum_reserve,
)
from .payments import CashPath, settle_cash_payments, settle_wire_transfers
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


def init_state(config: ScenarioConfig, streams: RngStreams) -> SimulationState:
    banks, book = initialise(config, streams.stream("assignment", 0))
    return SimulationState(0, banks, book, InterbankLoanLedger(config.B))


def _check_state(state: SimulationState, config: ScenarioConfig, where: str) -> None:
    """Per-bank identities and sign rules, currency conservation and ledger
    consistency; a failure's message starts with ``where``."""
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
               check: str = "period", path: CashPath | None = None,
               ) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Advance the state by one period; return its (B, 10) sheets, (B,)
    profit and stats.

    ``check``, one of CHECK_CADENCES, controls how often the identity,
    currency and ledger checks run: after every phase, or else once at the
    end of the period.  A ``path`` goes to the cash phase, which replays
    the period from it when it holds the period and records it otherwise.
    """
    t = state.period + 1
    banks, book, loans = state.banks, state.book, state.loans

    def step(phase, *args, **kwargs):
        result = phase(*args, **kwargs)
        if check == "phase":
            _check_state(state, config, f"period {t}, after {phase.__name__}")
        return result

    step(remove_guarantees, banks)

    target_ratio = draw_target_ratios(config, streams.stream("target_ratio", t))

    # Identical keys give identical draws, so a fixed matrix is period 0's
    # streams drawn again.  Each matrix is drawn as it is settled.
    key = 0 if config.fixed_payment_matrix else t
    cash_gross = step(settle_cash_payments, banks, book,
                      random_row_stochastic(config.C, streams.stream("cash_matrix", key)),
                      config.xi1, path, t)
    wire_stats = step(settle_wire_transfers, banks, book,
                      random_row_stochastic(config.B, streams.stream("wire_matrix", key)),
                      config.xi2, loans, config.reserve_base, t)

    repaid = step(repay_customer_loans, banks, book, config, streams.stream("repayment_ratio", t))
    potential = target_lending(banks, config, target_ratio)
    lent = step(realise_lending, banks, book, potential, config, streams.stream("absorption", t))

    ib_stats = step(repay_interbank_loans, banks, loans, config.omega, config.reserve_base, t,
                    streams.subseed("interbank_decision"))

    pooling = compute_pooling_state(banks, config.reserve_base, target_ratio, config.phi,
                                    config.matching, streams.stream("matching", t),
                                    alpha=config.alpha, lam=config.lam)
    unmet, pool_stats = step(allocate_pooled_credit, banks, loans, pooling, t,
                             transfer_on_issue=config.transfer_on_issue)

    # the guarantee must complete reserves to exactly the pooling-phase target
    expected = pooling.target_reserve - sum_reserve(banks, config.reserve_base)
    grants = step(grant_guarantees, banks, unmet, expected=expected)

    rates = draw_period_rates(config, streams.stream("rates", t))
    profit = step(accrue_equity, banks, rates)

    state.period = t
    if check != "phase":
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
        "cash_gross": cash_gross,
        "wire_gross": wire_stats.gross_volume,
    }
    return banks.snapshot(), profit, stats


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


def run_scenario(config: ScenarioConfig, check: str = "period",
                 path: CashPath | None = None) -> SimulationTrace:
    """Run one seeded scenario end to end and return its trace.

    A ``path`` shares the cash phases with other runs of the seed (see
    ``settle_cash_payments``): the first run records them, later ones
    replay them.  A path drawn under another seed, ``fixed_payment_matrix``
    or ``xi1`` is refused with IdentityError.
    """
    config.validate()
    if check not in CHECK_CADENCES:
        raise ConfigError(f"check: expected {'/'.join(CHECK_CADENCES)}, got {check!r}")
    if path is not None:
        source = (config.seed, config.fixed_payment_matrix, config.xi1)
        if path.source not in (None, source):
            raise IdentityError(f"cash path drawn under (seed, fixed_payment_matrix, xi1) = "
                                f"{path.source}, not this run's {source}")
        path.source = source
    streams = RngStreams(config.seed)
    state = init_state(config, streams)
    _check_state(state, config, "initial state")
    initial = state.banks.snapshot()
    sheets = np.empty((config.T, config.B, len(ITEM_NAMES)))
    profit = np.empty((config.T, config.B))
    stats = {name: np.empty(config.T) for name in STAT_COLUMNS}
    for t in range(config.T):
        sheets[t], profit[t], period_stats = run_period(state, config, streams, check=check,
                                                        path=path)
        for name in STAT_COLUMNS:
            stats[name][t] = period_stats[name]
    aggregates = {name: sheets[:, :, i].sum(axis=1) for i, name in enumerate(ITEM_NAMES)}
    aggregates["money_total"] = aggregates["l1"] + aggregates["l2"] + aggregates["l3"]
    aggregates["profit_total"] = profit.sum(axis=1)
    aggregates.update(stats)
    return SimulationTrace(config, initial, sheets, profit, aggregates)


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
        "terminal_equity": float(agg["l4"][-1]),
        "terminal_money": float(agg["money_total"][-1]),
        "mean_profit": float(trace.profit.mean()),
        "guarantee_positive_share": float(positive.mean()),
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


def run_ensemble(config: ScenarioConfig, seeds: list[int], check: str = "period",
                 paths: list[CashPath] | None = None) -> EnsembleResult:
    """Run copies of one scenario, one per seed.

    Seeds from ``derive_seeds(config.seed, n)`` make an ensemble as
    reproducible as a single run; one seed list shared across scenario
    variants shares their shocks.  ``paths``, one per seed, share each
    seed's cash phases with the variants' runs (``run_scenario``).
    """
    if not seeds:
        raise ConfigError("seeds: expected at least one")
    series: dict[str, list[np.ndarray]] = {name: [] for name in AGGREGATE_COLUMNS}
    metrics: dict[str, list[float]] = {name: [] for name in METRIC_KEYS}
    for seed, path in zip(seeds, paths or [None] * len(seeds), strict=True):
        trace = run_scenario(dataclasses.replace(config, seed=seed), check=check, path=path)
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
        """Seeds on which the metric is strictly monotone in phi, whatever
        order the phis were given in."""
        stack = np.stack([self.results[phi].metrics[metric] for phi in sorted(self.phis)])
        diffs = np.diff(stack, axis=0)
        good = (diffs < 0) if decreasing else (diffs > 0)
        return int(np.all(good, axis=0).sum())


def compare_phis(config: ScenarioConfig, phis=(0.0, 0.4, 0.8), n_seeds: int = 30,
                 check: str = "period") -> CompareResult:
    """Run the same seeds under two or more distinct pooling qualities.

    Every run shares the master-seed-derived seed list, so payment and
    lending shocks are identical across phi values and differences isolate
    the pooling quality.

    Each seed's cash phases are drawn once: the first phi's run records
    them in the seed's ``CashPath`` and every later phi replays them bit
    for bit, reading no cash block.  Phi does not reach the cash phase,
    which reads only customer cash, xi1 and the seed's cash_matrix stream.
    The guard: a replayed phase first checks that the run's cash is
    byte-equal to the path's, and a path drawn under another seed, xi1 or
    ``fixed_payment_matrix`` is refused.  The paths, (T + 1) * C floats per
    seed, live until the sweep ends.
    """
    phis = tuple(float(phi) for phi in phis)
    if len(set(phis)) < max(len(phis), 2):
        raise ConfigError(f"phis: expected distinct values, two or more, got {list(phis)}")
    seeds = derive_seeds(config.seed, n_seeds)
    paths = [CashPath() for _ in seeds]
    results = {
        phi: run_ensemble(dataclasses.replace(config, phi=phi), seeds=seeds, check=check,
                          paths=paths)
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
    # a4 = l4 and a5 = l5 are one array each, so only a3 = l3 has a row
    agg = trace.aggregates
    gap = float((np.abs(agg["a3"] - agg["l3"]) / np.maximum(1.0, np.abs(agg["a3"]))).max())
    rows.append(("interbank duality", bool(gap <= TOL), f"max relative gap {gap:.3e}"))
    # a1 relative to the state checks' per-bank scale, at every period end
    relative = trace.item_series("a1") / bank_scale(trace.sheets)
    period, bank = np.unravel_index(np.argmin(relative), relative.shape)
    low = float(relative[period, bank])
    rows.append(("currency reserves non-negative", low >= -TOL,
                 f"min relative a1 {low:.3e} (period {period + 1}, bank {bank})"))
    return rows
