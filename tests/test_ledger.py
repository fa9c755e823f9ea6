import numpy as np
import pytest

import minibank.ledger
from minibank import (
    BankBalanceSheets,
    ConfigError,
    CustomerBook,
    IdentityError,
    ReserveBase,
    RngStreams,
    ScenarioConfig,
    check_identities,
    get_preset,
    initialise,
    reserve_weights,
    run_scenario,
    sum_reserve,
)


def _init(seed=1, **kw):
    config = ScenarioConfig(seed=seed, **kw)
    return initialise(config, RngStreams(seed).stream("assignment", 0))


class TestInitialise:
    def test_equal_customer_endowments(self):
        banks, book = _init(A1_0=1e9, C=1000)
        assert np.all(book.l1 == 1e6)
        assert np.all(book.l2 == 0.0)

    def test_equal_bank_equity(self):
        banks, _ = _init(A4_0=1e8, B=10)
        assert np.all(banks.a4 == 1e7)
        assert np.all(banks.l4 == 1e7)

    def test_forced_one_customer_per_bank(self):
        # at C = B the drawn map already gives every bank one customer
        config = ScenarioConfig(seed=1, B=4, C=4, A1_0=1e9)
        banks, book = initialise(config, RngStreams(1).stream("assignment", 0))
        assert np.all(book.counts == 1)
        assert np.all(banks.a1 == 1e9 / 4)
        assert np.all(banks.l1 == banks.a1)

    def test_bank_deposits_match_assigned_customers(self):
        banks, book = _init(seed=3, B=5, C=200)
        assert np.array_equal(banks.l1, book.bank_l1())
        assert np.array_equal(banks.a1, banks.l1)
        assert np.all(banks.a2 == 0) and np.all(banks.l3 == 0) and np.all(banks.a5 == 0)

    @pytest.mark.parametrize("bad", [dict(B=1), dict(B=10, C=5),
                                     dict(A1_0=0.0), dict(A4_0=-1.0)])
    def test_invalid_config_rejected(self, bad):
        # initialise trusts a validated config; run_scenario validates first
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(seed=1, **bad))

    def test_drawn_map_leaves_no_bank_empty(self):
        # at C = 2B a uniform draw leaves some bank empty on almost every seed
        for seed in range(5):
            _, book = _init(seed=seed, B=20, C=40)
            raw = RngStreams(seed).stream("assignment", 0).integers(0, 20, size=40)
            assert book.counts.min() >= 1
            assert np.count_nonzero(book.assignment != raw) == np.count_nonzero(
                np.bincount(raw, minlength=20) == 0)

    def test_sparse_customers_run_clean(self):
        for seed in range(3):
            config = get_preset("baseline_perfect", seed=seed, B=20, C=40, T=10)
            assert run_scenario(config, check="phase").sheets.shape == (10, 20, 10)

    def test_assignment_reproducible(self):
        _, book_a = _init(seed=9)
        _, book_b = _init(seed=9)
        assert np.array_equal(book_a.assignment, book_b.assignment)


class TestReserveBase:
    def _bank(self):
        banks = BankBalanceSheets.zeros(1)
        banks.a1[0], banks.a2[0], banks.a3[0] = 5.0, 2.0, 3.0
        return banks

    def test_narrow(self):
        assert sum_reserve(self._bank(), ReserveBase.NARROW)[0] == 5.0

    def test_broad(self):
        assert sum_reserve(self._bank(), ReserveBase.BROAD)[0] == 8.0

    def test_securitised(self):
        assert sum_reserve(self._bank(), ReserveBase.SECURITISED)[0] == 10.0

    def test_weights_sum_to_one(self):
        weights = reserve_weights(self._bank(), ReserveBase.BROAD)
        assert sum(weights[0]) == pytest.approx(1.0)
        assert weights[0][1] == 0.0  # retail loans excluded from the broad base

    def test_empty_bank_falls_back_to_currency(self):
        weights = reserve_weights(BankBalanceSheets.zeros(2), ReserveBase.BROAD)
        assert weights == [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]


class TestIdentities:
    def test_tolerance_is_pinned(self):
        # every state check runs at this one relative bar; loosening it must
        # fail here rather than pass silently
        assert minibank.ledger.TOL == 1e-9

    def test_fresh_state_has_zero_residuals(self):
        banks, book = _init(seed=4)
        assert check_identities(banks, book) == 0.0

    def test_hand_built_violation(self):
        banks = BankBalanceSheets.zeros(1)
        banks.a1[0], banks.l1[0] = 1.0, 2.0
        book = CustomerBook(assignment=np.array([0]), counts=np.array([1]),
                            l1=np.array([2.0]), l2=np.array([0.0]))
        # a core residual of 1 over a gross position of 3
        with pytest.raises(IdentityError, match=r"^core residual 3\.333e-01 at bank 0$"):
            check_identities(banks, book)

    @pytest.mark.parametrize("item", ["l1", "l2"])
    def test_book_sum_violation_detected(self, item):
        banks, book = _init(seed=5, B=2, C=10)
        getattr(book, item)[0] += 7.0
        with pytest.raises(IdentityError, match=f"^book_{item} residual"):
            check_identities(banks, book)

    def test_nan_residual_raises(self):
        banks, book = _init(seed=5, B=2, C=10)
        banks.a2[1] = np.nan
        with pytest.raises(IdentityError, match="core residual nan at bank 1"):
            check_identities(banks, book)
