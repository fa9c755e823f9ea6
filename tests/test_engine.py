import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import minibank
from minibank import (
    CashPath,
    ConfigError,
    IdentityError,
    LedgerError,
    LoanKind,
    MatchingMode,
    RngStreams,
    ScenarioConfig,
    TriangularParams,
    compare_phis,
    config_hash,
    derive_seeds,
    get_preset,
    init_state,
    run_ensemble,
    run_period,
    run_scenario,
    trace_metrics,
    validate_run,
)
from minibank import engine
from minibank.engine import AGGREGATE_COLUMNS, METRIC_KEYS
from minibank.ledger import TOL

POINT = TriangularParams.point


def _small(seed=1, **kw):
    defaults = dict(T=10, B=4, C=80)
    defaults.update(kw)
    return ScenarioConfig(seed=seed, **defaults)


def _run_with_plant(monkeypatch, phase, plant, check="phase"):
    """Run period 1 of a small config with ``plant(state)`` applied right
    after ``phase``."""
    config = _small(seed=12)
    streams = RngStreams(config.seed)
    state = init_state(config, streams)
    original = getattr(engine, phase)

    @functools.wraps(original)
    def plant_after(*args, **kwargs):
        result = original(*args, **kwargs)
        plant(state)
        return result

    monkeypatch.setattr(engine, phase, plant_after)
    run_period(state, config, streams, check=check)


def _frozen_config(seed=5, T=10):
    """Every stochastic scale switched off: the state must be a fixed point."""
    return ScenarioConfig(
        seed=seed, T=T, B=4, C=80,
        xi1=0.0, xi2=0.0,
        psi=POINT(0.0), theta=POINT(0.0),
        r_A1=POINT(0.0), r_A2=POINT(0.0), r_interbank=POINT(0.0),
        r_L1=POINT(0.0), r_L2=POINT(0.0), l5_spread=0.0,
        phi=1.0,
    )


class TestRunScenario:
    def test_all_scales_zero_is_a_fixed_point(self):
        trace = run_scenario(_frozen_config())
        for t in range(trace.n_periods):
            assert np.array_equal(trace.sheets[t], trace.initial)
        assert np.all(trace.profit == 0.0)

    def test_deterministic(self):
        config = _small(seed=123)
        a = run_scenario(config)
        b = run_scenario(config)
        assert np.array_equal(a.sheets, b.sheets)
        assert np.array_equal(a.profit, b.profit)
        for name in AGGREGATE_COLUMNS:
            assert np.array_equal(a.aggregates[name], b.aggregates[name])
        assert config_hash(a.config) == config_hash(b.config)

    def test_trace_shapes(self):
        trace = run_scenario(_small(T=7))
        assert trace.sheets.shape == (7, 4, 10)
        assert trace.profit.shape == (7, 4)
        for name in AGGREGATE_COLUMNS:
            assert trace.aggregates[name].shape == (7,)

    def test_book_stores_loan_deposits_per_bank(self):
        config = get_preset("baseline_perfect", seed=3, B=4, C=80, T=5)
        streams = RngStreams(config.seed)
        state = init_state(config, streams)
        for _ in range(config.T):
            run_period(state, config, streams, check="phase")
        assert state.book.l1.shape == (80,)
        assert state.book.l2.shape == state.book.counts.shape == (4,)
        assert state.book.l2.min() > 0.0
        assert state.book.bank_l2() == pytest.approx(state.banks.l2, rel=1e-12)

    def test_currency_conserved_every_period(self):
        config = _small(seed=9)
        trace = run_scenario(config)
        assert np.abs(trace.aggregates["a1"] - config.A1_0).max() <= 1e-9 * config.A1_0

    def test_interbank_duality_every_period(self):
        trace = run_scenario(_small(seed=10))
        gap = np.abs(trace.aggregates["a3"] - trace.aggregates["l3"])
        assert (gap / np.maximum(1.0, trace.aggregates["a3"])).max() <= 1e-9

    def test_phase_checks_accept_a_clean_run(self):
        run_scenario(_small(seed=11), check="phase")

    def test_phase_checks_catch_created_currency(self):
        # currency and deposits grow together at one bank and its customer,
        # so every per-bank identity still holds; only conservation fails
        config = _small(seed=12)
        streams = RngStreams(config.seed)
        state = init_state(config, streams)
        bank = state.book.assignment[0]
        extra = 1e-6 * config.A1_0
        state.banks.a1[bank] += extra
        state.banks.l1[bank] += extra
        state.book.l1[0] += extra
        with pytest.raises(IdentityError, match="currency"):
            run_period(state, config, streams, check="phase")

    def test_ledger_failure_names_its_place(self):
        # a ledger position with no a3/l3 behind it breaks no sheet identity
        config = _small(seed=12)
        streams = RngStreams(config.seed)
        state = init_state(config, streams)
        state.loans.add(0, 1, 0, LoanKind.WIRE, 1e6, (1.0, 0.0, 0.0))
        with pytest.raises(LedgerError, match=r"^period 1, after remove_guarantees: "
                                              r"ledger a3 residual .* at bank 0$"):
            run_period(state, config, streams, check="phase")

    @pytest.mark.parametrize("phase", [
        "remove_guarantees", "settle_cash_payments", "settle_wire_transfers",
        "repay_customer_loans", "realise_lending", "repay_interbank_loans",
        "allocate_pooled_credit", "grant_guarantees", "accrue_equity",
    ])
    def test_every_phase_names_itself(self, monkeypatch, phase):
        def plant(state):
            state.loans.add(0, 1, 0, LoanKind.WIRE, 1e6, (1.0, 0.0, 0.0))

        with pytest.raises(LedgerError, match=rf"^period 1, after {phase}: "):
            _run_with_plant(monkeypatch, phase, plant)

    @pytest.mark.parametrize("check,where", [
        ("phase", "period 1, after repay_customer_loans"),
        ("period", "period 1"),
    ], ids=["phase", "period"])
    def test_negative_customer_cash_is_caught(self, monkeypatch, check, where):
        # cash moves between two customers of one bank, so every bank total
        # still holds; only the sign rule sees the overdrawn customer
        def overdraw(state):
            book = state.book
            first, second = np.flatnonzero(book.assignment == 1)[:2]
            amount = book.l1[first] + 1.0
            book.l1[first] -= amount
            book.l1[second] += amount

        with pytest.raises(IdentityError, match=rf"^{where}: customer \d+ at bank 1 "
                                                r"holds negative cash -1$"):
            _run_with_plant(monkeypatch, "repay_customer_loans", overdraw, check)

    def test_negative_loan_deposits_are_caught(self, monkeypatch):
        # retail loans and loan deposits fall together, so the core identity
        # holds; realise_lending can lift l2 again before the period ends,
        # so only the per-phase check is sure to see it
        def overdraw(state):
            banks, book = state.banks, state.book
            banks.a2[1] -= banks.l2[1] + 1.0
            banks.l2[1] = -1.0
            book.l2[1] = -1.0 / book.counts[1]

        with pytest.raises(IdentityError, match=r"^period 1, after repay_customer_loans: "
                                                r"negative loan deposits -1 at bank 1$"):
            _run_with_plant(monkeypatch, "repay_customer_loans", overdraw)

    @pytest.mark.parametrize("check", ["period", "none"])
    def test_a_period_is_checked_at_any_cadence_but_phase(self, check):
        # checks cannot be switched off: a value other than "phase" still
        # gets the end-of-period check
        config = _small(seed=12)
        streams = RngStreams(config.seed)
        state = init_state(config, streams)
        state.loans.add(0, 1, 0, LoanKind.WIRE, 1e6, (1.0, 0.0, 0.0))
        with pytest.raises(LedgerError, match=r"^period 1: ledger "):
            run_period(state, config, streams, check=check)


class TestNegativeCurrencyReserves:
    """Known defect: cash settlement overdraws a bank's currency reserves
    (ROADMAP item 1).  Each test states the rule that should hold and fails
    until a settlement rule for a bank short of currency lands."""

    # the `endogenous` golden run
    ENDOGENOUS = dict(matching=MatchingMode.ENDOGENOUS, alpha=1.0, lam=1.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a1 reaches -6,634.5, -2.46e-6 of its bank's scale")
    def test_endogenous_golden_keeps_currency_reserves_non_negative(self):
        trace = run_scenario(get_preset("baseline_smooth", seed=20260808, **self.ENDOGENOUS))
        scale = np.maximum(1.0, np.abs(trace.sheets).sum(axis=2))
        assert np.all(trace.item_series("a1") >= -TOL * scale)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="currency reserves non-negative: -2.457e-06 (period 42, bank 7)")
    def test_endogenous_golden_validates_clean(self):
        rows = validate_run(get_preset("baseline_smooth", seed=20260808, **self.ENDOGENOUS))
        assert all(ok for _, ok, _ in rows), rows

    @pytest.mark.xfail(strict=True, raises=IdentityError,
                       reason="overdrawn reserves reach -5.5e15; currency drifts at period 38")
    def test_small_reserve_ratio_runs_clean(self):
        run_scenario(get_preset("baseline_perfect", seed=3, B=4, C=40, gamma_RR=1e-3))


class TestSharedShocks:
    def test_cash_deposits_identical_across_phi(self):
        # currency deposits are driven only by the cash matrix stream, so
        # runs sharing a seed agree on them under any pooling quality
        base = _small(seed=31, T=12)
        l1_perfect = run_scenario(dataclasses.replace(base, phi=0.0)).item_series("l1")
        l1_distressed = run_scenario(dataclasses.replace(base, phi=0.8)).item_series("l1")
        assert np.array_equal(l1_perfect, l1_distressed)


class TestCashPath:
    """A sweep draws each seed's cash phases once and replays them."""

    def test_compare_equals_ensembles_run_without_paths(self):
        config = _small(seed=33, C=130, T=6)
        phis = (0.0, 0.4, 0.8)
        compare = compare_phis(config, phis=phis, n_seeds=3)
        for phi in phis:
            shared = compare.results[phi]
            alone = run_ensemble(dataclasses.replace(config, phi=phi), compare.seeds)
            for field in ("mean", "q10", "q50", "q90", "metrics"):
                got, want = getattr(shared, field), getattr(alone, field)
                assert got.keys() == want.keys()
                for name in want:
                    assert got[name].tobytes() == want[name].tobytes(), (phi, field, name)

    @pytest.mark.parametrize("change,message", [
        ({"seed": 2}, "cash path drawn under"),
        ({"xi1": 0.3}, "cash path drawn under"),
        ({"C": 131}, "^period 1: customer cash before the cash phase"),
        ({"A1_0": 2e9}, "^period 1: customer cash before the cash phase"),
    ])
    def test_a_path_of_other_inputs_is_refused(self, change, message):
        config = _small(seed=1, C=130, T=3)
        path = CashPath()
        run_scenario(config, path=path)
        with pytest.raises(IdentityError, match=message):
            run_scenario(dataclasses.replace(config, **change), path=path)

    def test_recorded_cash_is_read_only(self):
        config = _small(seed=1, T=2)
        path = CashPath()
        run_scenario(config, path=path)
        assert len(path.cash) == config.T + 1
        assert not any(cash.flags.writeable for cash in path.cash)
        streams = RngStreams(config.seed)
        state = init_state(config, streams)
        run_period(state, config, streams, path=path)
        assert state.book.l1 is path.cash[1]
        with pytest.raises(ValueError, match="read-only"):
            state.book.l1[0] += 1.0


class TestEnsembles:
    def test_derive_seeds_deterministic(self):
        assert derive_seeds(7, 5) == derive_seeds(7, 5)
        assert len(set(derive_seeds(7, 30))) == 30

    def test_single_seed_summary_equals_its_trace(self):
        config = _small(seed=15)
        result = run_ensemble(config, derive_seeds(config.seed, 1))
        trace = run_scenario(dataclasses.replace(config, seed=result.seeds[0]))
        for name in AGGREGATE_COLUMNS:
            assert np.array_equal(result.mean[name], trace.aggregates[name])
            assert np.array_equal(result.q50[name], trace.aggregates[name])
        metrics = trace_metrics(trace)
        for name, values in result.metrics.items():
            assert values[0] == pytest.approx(metrics[name])

    def test_compare_shares_seed_lists(self):
        result = compare_phis(_small(seed=16, T=5), phis=(0.0, 0.8), n_seeds=2)
        assert result.results[0.0].seeds == result.results[0.8].seeds
        assert result.n_seeds == 2

    def test_ensemble_of_no_seeds_is_refused(self):
        with pytest.raises(ConfigError, match="^seeds: expected at least one"):
            run_ensemble(_small(seed=16, T=2), [])

    def test_compare_rejects_duplicate_phis(self):
        # a repeated phi would collapse into one result and make every
        # strict trend across the sweep impossible
        with pytest.raises(ConfigError, match="phis: expected distinct values"):
            compare_phis(_small(seed=16, T=2), phis=(0.0, 0.0), n_seeds=1)
        # one phi is no sweep: every strict trend would hold vacuously
        with pytest.raises(ConfigError, match="phis: expected distinct values"):
            compare_phis(_small(seed=16, T=2), phis=(0.4,), n_seeds=1)

    def test_ordered_seed_count_bounds(self):
        result = compare_phis(_small(seed=16, T=5), phis=(0.0, 0.8), n_seeds=3)
        count = result.ordered_seed_count("cumulative_guarantees", decreasing=False)
        assert 0 <= count <= 3

    def test_ordered_seed_count_follows_phi_not_list_order(self):
        # the compare table prints each count as a trend "in phi"
        config = get_preset("baseline_perfect", seed=5, T=5)
        ascending = compare_phis(config, phis=(0.0, 0.8), n_seeds=3)
        descending = compare_phis(config, phis=(0.8, 0.0), n_seeds=3)
        for metric in METRIC_KEYS:
            for decreasing in (True, False):
                assert (ascending.ordered_seed_count(metric, decreasing)
                        == descending.ordered_seed_count(metric, decreasing)), metric


class TestValidation:
    def test_validate_clean_run(self):
        rows = validate_run(_small(seed=18))
        assert rows and all(ok for _, ok, _ in rows)

    def test_presets_run_clean(self):
        for name in ("fig1_left", "fig2_right", "baseline_distressed"):
            trace = run_scenario(get_preset(name, seed=3, T=6, C=100, B=4))
            assert trace.n_periods == 6


def _arrays(obj, seen):
    """Every ndarray reachable from obj through containers and attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (list, tuple, set)):
        for item in obj:
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        yield from _arrays(vars(obj), seen)


# The cash payment matrix is C x C; a run streams it in row blocks.
_C = 2000

# The child reports its own VmHWM: ru_maxrss would carry the spawning
# process's high-water mark across fork and exec on Linux.
_CHILD_RSS = """
from minibank import get_preset, run_scenario
run_scenario(get_preset("baseline_perfect", seed=1, C=4000, T=2))
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestMemory:
    def _state_after_one_period(self):
        config = get_preset("baseline_perfect", seed=1, C=_C, T=1)
        streams = RngStreams(config.seed)
        state = init_state(config, streams)
        run_period(state, config, streams)
        return state, config, streams

    def test_state_holds_no_customer_square(self):
        state, _, _ = self._state_after_one_period()
        sizes = [array.size for array in _arrays(vars(state), set())]
        assert sizes and max(sizes) < _C * _C

    def test_one_period_allocates_no_full_matrix(self):
        # 8 MB is a quarter of one (2000, 2000) float matrix
        state, config, streams = self._state_after_one_period()
        tracemalloc.start()
        try:
            run_period(state, config, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_peak_rss_of_a_c4000_run(self):
        # a held (4000, 4000) float matrix alone would be 122 MiB
        src = str(Path(minibank.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", _CHILD_RSS], env=env, capture_output=True,
                               text=True, timeout=300, check=True)
        assert int(child.stdout) < 100 * 1024  # VmHWM is in KiB
