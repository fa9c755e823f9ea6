import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibank import (
    CashPath,
    IdentityError,
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


def _three_customers():
    return consistent_state(l1=[60.0, 40.0, 20.0], l2=[0.0] * 3, assignment=[0, 1, 1],
                            n_banks=2)


class TestCashPayments:
    def test_zero_scale_is_identity(self, two_banks_two_customers):
        banks, book = two_banks_two_customers
        before = banks.snapshot()
        assert settle_cash_payments(banks, book, [np.eye(2)], 0.0) == 0.0
        assert np.array_equal(banks.snapshot(), before)

    def test_zero_scale_reads_no_block(self, two_banks_two_customers):
        # so a lazily drawn cash matrix is never drawn at xi1 = 0
        def blocks():
            raise AssertionError("a cash block was read at xi1 = 0")
            yield

        banks, book = two_banks_two_customers
        assert settle_cash_payments(banks, book, blocks(), 0.0) == 0.0

    @staticmethod
    def _drawn_path():
        """A path recorded over two periods, and the state it left."""
        path = CashPath()
        banks, book = _three_customers()
        for t in (1, 2):
            blocks = random_row_stochastic(3, RngStreams(3).stream("cash_matrix", t))
            settle_cash_payments(banks, book, blocks, 0.5, path, t)
        return path, banks, book

    def test_replay_reads_no_block(self):
        # a replayed phase takes its cash from the path, so a lazily drawn
        # cash matrix is never drawn, and it moves the banks as the draw did
        def blocks():
            raise AssertionError("a cash block was read on replay")
            yield

        path, banks, book = self._drawn_path()
        replay_banks, replay_book = _three_customers()
        replayed = [settle_cash_payments(replay_banks, replay_book, blocks(), 0.5, path, t)
                    for t in (1, 2)]
        assert replayed == path.gross
        assert replay_book.l1.tobytes() == book.l1.tobytes()
        assert replay_banks.snapshot().tobytes() == banks.snapshot().tobytes()

    def test_replay_refuses_cash_the_path_did_not_leave(self):
        path, _, _ = self._drawn_path()
        banks, book = _three_customers()
        settle_cash_payments(banks, book, [], 0.5, path, 1)
        book.l1 = book.l1[[0, 2, 1]]  # cash moved between bank 1's customers
        with pytest.raises(IdentityError, match="^period 2: customer cash before"):
            settle_cash_payments(banks, book, [], 0.5, path, 2)

    def test_two_customers_hand_case(self, two_banks_two_customers):
        # both customers pay everything to customer 1; customer 1's payment
        # is a self-payment and nets out
        banks, book = two_banks_two_customers
        settle_cash_payments(banks, book, [np.array([[0.0, 1.0], [0.0, 1.0]])], 0.1)
        assert book.l1[0] == pytest.approx(90.0)
        assert book.l1[1] == pytest.approx(110.0)
        assert banks.a1[0] == pytest.approx(90.0)
        assert banks.a1[1] == pytest.approx(110.0)
        assert np.array_equal(banks.a1, banks.l1)
        assert banks.a1.sum() == pytest.approx(200.0)

    def test_single_bank_nets_to_zero(self):
        banks, book = consistent_state(l1=[60.0, 40.0, 20.0], l2=[0.0] * 3,
                                       assignment=[0, 0, 0], n_banks=2)
        blocks = random_row_stochastic(3, RngStreams(3).stream("cash_matrix", 1))
        settle_cash_payments(banks, book, blocks, 0.5)
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
        blocks = random_row_stochastic(40, rng.stream("cash_matrix", 1))
        settle_cash_payments(banks, book, blocks, 1.0)
        assert banks.a1.sum() == pytest.approx(total, rel=1e-12)
        assert book.l1.min() >= 0.0
        check_identities(banks, book)


def _blocks(n, rng):
    """The drawn matrix's blocks as copies, which outlive the shared buffer."""
    return [block.copy() for block in random_row_stochastic(n, rng)]


def _row_block_inflow(matrix, outflow):
    """Reference for the cash inflow: rows added one by one within each block
    of 64, block sums added in block order."""
    n = matrix.shape[0]
    inflow = np.zeros(matrix.shape[1])
    for lo in range(0, n, 64):
        block = outflow[lo] * matrix[lo]
        for i in range(lo + 1, min(lo + 64, n)):
            block = block + outflow[i] * matrix[i]
        inflow = inflow + block
    return inflow


class TestCashInflow:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 200, 1001])
    def test_matches_row_block_reference(self, n):
        rng = RngStreams(5)
        outflow = rng.stream("assignment").random(n) * 100
        banks, book = consistent_state(l1=outflow, l2=[0.0] * n,
                                       assignment=np.arange(n) % 2, n_banks=2)
        # at xi1 = 1 each customer pays out all of l1, so what it holds
        # afterwards is (l1 - l1) + inflow: the inflow's own bits
        blocks = random_row_stochastic(n, rng.stream("cash_matrix", 1))
        settle_cash_payments(banks, book, blocks, 1.0)
        inflow = book.l1
        matrix = np.concatenate(_blocks(n, rng.stream("cash_matrix", 1)))
        assert inflow.tobytes() == _row_block_inflow(matrix, outflow).tobytes()
        assert np.allclose(inflow, matrix.T @ outflow, rtol=1e-13, atol=0.0)

    def test_many_blocks_conserve_currency(self):
        rng = RngStreams(9)
        n = 1000
        banks, book = consistent_state(
            l1=rng.stream("assignment").random(n) * 100,
            l2=[0.0] * n,
            assignment=rng.stream("assignment", 1).integers(0, 10, n),
            n_banks=10,
        )
        total = banks.a1.sum()
        for xi1 in (0.3, 1.0):  # the blocks are consumed: each call draws the same ones afresh
            blocks = random_row_stochastic(n, rng.stream("cash_matrix", 1))
            settle_cash_payments(banks, book, blocks, xi1)
            assert abs(banks.a1.sum() - total) <= 1e-9 * total
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

    def test_zero_scale_reads_no_block(self):
        # so a lazily drawn wire matrix is never drawn at xi2 = 0
        def blocks():
            raise AssertionError("a wire block was read at xi2 = 0")
            yield

        banks, book = self._state([1000.0, 0.0])
        stats = settle_wire_transfers(banks, book, blocks(), 0.0, InterbankLoanLedger(2),
                                      ReserveBase.BROAD, 1)
        assert stats.gross_volume == 0.0

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
        assert loans.bank_sums()[0][1] == pytest.approx(100.0)
        assert loans.bank_sums()[1][0] == pytest.approx(100.0)
        check_identities(banks, book)
        loans.check_consistency(banks)

    def test_overdrawing_block_leaves_a_core_residual(self):
        # every drawn wire matrix is row stochastic; this block's first row
        # sums to two, so bank 0 wires twice its stock.  Clipping its loan
        # deposits at zero leaves the overdraft as a core residual.
        banks, book = self._state([1000.0, 0.0])
        block = np.array([[0.0, 2.0], [1.0, 0.0]])
        settle_wire_transfers(banks, book, block, 1.0, InterbankLoanLedger(2),
                              ReserveBase.BROAD, 1)
        assert banks.l2[0] == 0.0
        with pytest.raises(IdentityError, match=r"^core residual 3\.333e-01 at bank 0$"):
            check_identities(banks, book)

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
        matrix = np.concatenate(_blocks(5, rng.stream("wire_matrix", 1)))
        total = banks.l2.sum()
        settle_wire_transfers(banks, book, matrix, 0.75, loans, ReserveBase.BROAD, 1)
        assert banks.l2.sum() == pytest.approx(total, rel=1e-12)
        assert np.all(banks.l2 >= 0)
        # every new claim is matched by new borrowing, pair by pair
        assert banks.a3.sum() == pytest.approx(banks.l3.sum(), rel=1e-12)
        check_identities(banks, book)
        loans.check_consistency(banks)
