import numpy as np
import pytest

from minibank import (
    ConfigError,
    LendingBehaviour,
    ReserveBase,
    RngStreams,
    ScenarioConfig,
    TriangularParams,
    draw_target_ratios,
    realise_lending,
    repay_customer_loans,
    run_scenario,
    target_lending,
)
from minibank.ledger import BankBalanceSheets
from conftest import consistent_state

POINT = TriangularParams.point


def _policy(behaviour=LendingBehaviour.FRACTIONAL_RESERVE, base=ReserveBase.NARROW,
            psi=0.0, theta=0.0, relax=False):
    return ScenarioConfig(
        seed=1,
        behaviour=behaviour,
        reserve_base=base,
        gamma_RR=0.1,
        gamma_TR_noise=POINT(0.0),
        psi=POINT(psi),
        theta=POINT(theta),
        relax_target_base=relax,
    ).validate()


def _rng(seed=1):
    return RngStreams(seed).stream("repayment_ratio", 1)


class TestPolicyValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(seed=1, gamma_RR=0.0).validate()

    def test_ratio_laws_must_stay_in_unit_interval(self):
        with pytest.raises(ConfigError):
            _policy(psi=1.5)

    def test_target_ratio_with_noise(self):
        config = ScenarioConfig(seed=1, gamma_RR=0.1, gamma_TR_noise=POINT(0.02))
        assert np.all(draw_target_ratios(config, _rng()) == pytest.approx(0.12))


class TestRepayment:
    def test_zero_law_leaves_state_alone(self):
        banks, book = consistent_state([0.0, 0.0], [500.0, 200.0], [0, 1], 2)
        before = banks.snapshot()
        repay_customer_loans(banks, book, _policy(psi=0.0), _rng())
        assert np.array_equal(banks.snapshot(), before)

    def test_hand_case(self):
        banks, book = consistent_state([0.0, 0.0], [500.0, 0.0], [0, 1], 2)
        repaid = repay_customer_loans(banks, book, _policy(psi=0.3), _rng())
        assert repaid[0] == pytest.approx(150.0)
        assert banks.a2[0] == pytest.approx(350.0)
        assert banks.l2[0] == pytest.approx(350.0)
        assert book.l2[0] == pytest.approx(350.0)

    def test_loan_book_and_deposits_shrink_together(self):
        banks, book = consistent_state([0.0] * 3, [100.0, 250.0, 40.0], [0, 1, 2], 3)
        repay_customer_loans(banks, book, _policy(psi=0.6), _rng())
        assert np.array_equal(banks.a2, banks.l2)

    def test_repayment_capped_by_own_loan_book(self):
        # wire inflows can leave l2 above a2; the bank can only be repaid
        # for loans it actually holds
        banks, book = consistent_state([0.0], [100.0], [0], 1)
        banks.a2[0] = 30.0
        banks.a3[0] = 70.0  # identity: a2 + a3 = l2
        repaid = repay_customer_loans(banks, book, _policy(psi=0.9), _rng())
        assert repaid[0] == pytest.approx(30.0)
        assert banks.a2[0] == 0.0
        assert banks.l2[0] == pytest.approx(70.0)


class TestTargetLending:
    def _bank(self, a1=100.0, l1=500.0):
        banks = BankBalanceSheets.zeros(1)
        banks.a1[0], banks.l1[0] = a1, l1
        return banks

    def test_money_multiplication(self):
        banks = self._bank()
        policy = _policy(LendingBehaviour.MONEY_MULTIPLICATION)
        assert target_lending(banks, policy, 0.1)[0] == pytest.approx(500.0)

    def test_fractional_reserve(self):
        banks = self._bank()
        assert target_lending(banks, _policy(), 0.1)[0] == pytest.approx(50.0)

    def test_no_reserves_no_lending(self):
        banks = self._bank(a1=0.0)
        for behaviour in LendingBehaviour:
            assert target_lending(banks, _policy(behaviour), 0.1)[0] == 0.0

    def test_relaxed_base_ignores_interbank_borrowing(self):
        banks = self._bank()
        banks.l3[0] = 400.0
        strict = target_lending(banks, _policy(), 0.1)[0]
        relaxed = target_lending(banks, _policy(relax=True), 0.1)[0]
        assert relaxed - strict == pytest.approx(40.0)


class TestRealisedLending:
    def test_zero_absorption(self):
        banks, book = consistent_state([10.0, 10.0], [0.0, 0.0], [0, 1], 2)
        actual = realise_lending(banks, book, np.array([500.0, 0.0]),
                                 _policy(theta=0.0), _rng())
        assert np.all(actual == 0.0)

    def test_partial_absorption(self):
        banks, book = consistent_state([10.0, 10.0], [0.0, 0.0], [0, 1], 2)
        actual = realise_lending(banks, book, np.array([500.0, 0.0]),
                                 _policy(theta=0.8), _rng())
        assert actual[0] == pytest.approx(400.0)
        assert banks.a2[0] == pytest.approx(400.0)
        assert banks.l2[0] == pytest.approx(400.0)
        assert book.l2[0] == pytest.approx(400.0)

    def test_new_deposits_split_equally(self):
        banks, book = consistent_state([5.0, 5.0, 5.0], [0.0] * 3, [0, 0, 1], 2)
        realise_lending(banks, book, np.array([90.0, 0.0]), _policy(theta=1.0), _rng())
        # one balance per bank, held by each of its customers
        assert book.l2.tolist() == pytest.approx([45.0, 0.0])
        assert book.bank_l2().tolist() == pytest.approx([90.0, 0.0])


def test_geometric_approach_to_multiplier_cap():
    """An isolated bank lending a constant share of its excess approaches
    the deposit cap a1 / gamma geometrically: gap_t = gap_0 * (1 - theta*gamma)^t."""
    config = ScenarioConfig(
        seed=21, T=20, B=3, C=30, A1_0=3000.0, A4_0=10.0,
        reserve_base=ReserveBase.NARROW,
        behaviour=LendingBehaviour.FRACTIONAL_RESERVE,
        psi=TriangularParams.point(0.0),
        theta=TriangularParams.point(0.6),
        r_A1=TriangularParams.point(0.0), r_A2=TriangularParams.point(0.0),
        r_interbank=TriangularParams.point(0.0),
        r_L1=TriangularParams.point(0.0), r_L2=TriangularParams.point(0.0),
        l5_spread=0.0, xi1=0.0, xi2=0.0, phi=1.0,
    )
    trace = run_scenario(config)
    a1_start = trace.initial[:, 0]  # per-bank currency endowment
    cap = a1_start / 0.1
    deposits = trace.item_series("l1") + trace.item_series("l2")
    for t in (1, 5, 10, 20):
        expected = cap + (1.0 - 0.6 * 0.1) ** t * (a1_start - cap)
        assert deposits[t - 1] == pytest.approx(expected, rel=1e-9)


def test_narrow_fractional_reserve_money_bounded():
    """With no wire transfers the textbook multiplier bound holds:
    currency plus loan deposits never exceed A1_0 / gamma_RR."""
    config = ScenarioConfig(
        seed=33, T=30, B=5, C=100,
        reserve_base=ReserveBase.NARROW,
        behaviour=LendingBehaviour.FRACTIONAL_RESERVE,
        psi=TriangularParams.point(0.0),
        xi2=0.0,
    )
    trace = run_scenario(config)
    money = trace.aggregates["l1"] + trace.aggregates["l2"]
    assert money.max() <= config.A1_0 / config.gamma_RR * (1 + 1e-9)
