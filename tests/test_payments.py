import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibank import (
    InterbankLoanLedger,
    ReserveBase,
    RngStreams,
    check_identities,
    random_row_stochastic,
    settle_cash_payments,
    settle_wire_transfers,
)
from conftest import consistent_state


# two parties that pay each other everything
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestCashPayments:
    def test_zero_scale_is_identity(self, two_banks_two_customers):
        banks, book = two_banks_two_customers
        before = banks.snapshot()
        stats = settle_cash_payments(banks, book, np.eye(2), 0.0)
        assert stats.gross_volume == 0.0
        assert np.array_equal(banks.snapshot(), before)

    def test_two_customers_hand_case(self, two_banks_two_customers):
        # both customers pay everything to customer 1; customer 1's payment
        # is a self-payment and nets out
        banks, book = two_banks_two_customers
        settle_cash_payments(banks, book, np.array([[0.0, 1.0], [0.0, 1.0]]), 0.1)
        assert book.l1[0] == pytest.approx(90.0)
        assert book.l1[1] == pytest.approx(110.0)
        assert banks.a1[0] == pytest.approx(90.0)
        assert banks.a1[1] == pytest.approx(110.0)
        assert np.array_equal(banks.a1, banks.l1)
        assert banks.a1.sum() == pytest.approx(200.0)

    def test_single_bank_nets_to_zero(self):
        banks, book = consistent_state(l1=[60.0, 40.0, 20.0], l2=[0.0] * 3,
                                       assignment=[0, 0, 0], n_banks=2)
        matrix = random_row_stochastic(3, RngStreams(3).stream("cash_matrix", 1))
        settle_cash_payments(banks, book, matrix, 0.5)
        assert banks.a1[0] == pytest.approx(120.0)  # internal transfers only
        assert banks.a1[1] == 0.0

    def test_currency_conserved_and_identities_hold(self):
        rng = RngStreams(8)
        banks, book = consistent_state(
            l1=rng.stream("assignment").random(40) * 100,
            l2=[0.0] * 40,
            assignment=rng.stream("assignment", 1).integers(0, 4, 40),
            n_banks=4,
        )
        total = banks.a1.sum()
        matrix = random_row_stochastic(40, rng.stream("cash_matrix", 1))
        settle_cash_payments(banks, book, matrix, 1.0)
        assert banks.a1.sum() == pytest.approx(total, rel=1e-12)
        assert book.l1.min() >= 0.0
        check_identities(banks, book)


class TestWireTransfers:
    def _state(self, l2):
        return consistent_state(l1=[0.0] * len(l2), l2=l2,
                                assignment=list(range(len(l2))), n_banks=len(l2))

    def test_zero_scale_is_identity(self):
        banks, book = self._state([1000.0, 0.0])
        loans = InterbankLoanLedger(2)
        before = banks.snapshot()
        settle_wire_transfers(banks, book, np.eye(2), 0.0, loans, ReserveBase.BROAD, 1)
        assert np.array_equal(banks.snapshot(), before)
        assert len(loans) == 0

    def test_no_deposits_no_flows(self):
        banks, book = self._state([0.0, 0.0])
        loans = InterbankLoanLedger(2)
        stats = settle_wire_transfers(banks, book, SWAP, 0.5, loans, ReserveBase.BROAD, 1)
        assert stats.issued_volume == 0.0

    def test_two_bank_hand_case(self):
        banks, book = self._state([1000.0, 0.0])
        loans = InterbankLoanLedger(2)
        stats = settle_wire_transfers(banks, book, SWAP, 0.1, loans, ReserveBase.BROAD, 1)
        assert banks.l2[0] == pytest.approx(900.0)
        assert banks.l3[0] == pytest.approx(100.0)
        assert banks.l2[1] == pytest.approx(100.0)
        assert banks.a3[1] == pytest.approx(100.0)
        assert stats.issued_volume == pytest.approx(100.0)
        # the receiving bank lent the net: one ledger position, lender 1 -> borrower 0
        assert loans.lender_sums()[1] == pytest.approx(100.0)
        assert loans.borrower_sums()[0] == pytest.approx(100.0)
        check_identities(banks, book)
        loans.check_consistency(banks)

    def test_symmetric_flows_net_to_nothing(self):
        banks, book = self._state([500.0, 500.0])
        loans = InterbankLoanLedger(2)
        before = banks.snapshot()
        settle_wire_transfers(banks, book, SWAP, 0.1, loans, ReserveBase.BROAD, 1)
        assert np.array_equal(banks.snapshot(), before)
        assert len(loans) == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_loan_deposits_conserved(self, seed):
        rng = RngStreams(seed)
        l2 = 1000.0 * (0.05 + rng.stream("assignment").random(5))
        banks, book = self._state(list(l2))
        loans = InterbankLoanLedger(5)
        matrix = random_row_stochastic(5, rng.stream("wire_matrix", 1))
        total = banks.l2.sum()
        settle_wire_transfers(banks, book, matrix, 0.75, loans, ReserveBase.BROAD, 1)
        assert banks.l2.sum() == pytest.approx(total, rel=1e-12)
        assert np.all(banks.l2 >= 0)
        # every new claim is matched by new borrowing, pair by pair
        assert banks.a3.sum() == pytest.approx(banks.l3.sum(), rel=1e-12)
        check_identities(banks, book)
        loans.check_consistency(banks)
