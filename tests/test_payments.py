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


def _path(cash):
    """A path that has drawn no period, whose customers hold ``cash``."""
    return CashPath(cash=np.asarray(cash, dtype=float))


def _three_customers():
    cash = [60.0, 40.0, 20.0]
    banks, book = consistent_state(l1=cash, l2=[0.0] * 3, assignment=[0, 1, 1], n_banks=2)
    return banks, book, _path(cash)


class TestCashPayments:
    def test_zero_scale_is_identity(self, two_banks_two_customers):
        banks, book = two_banks_two_customers
        path = _path([100.0, 100.0])
        before = banks.snapshot()
        assert settle_cash_payments(banks, book, [np.eye(2)], 0.0, path, 1) == 0.0
        assert np.array_equal(banks.snapshot(), before)
        assert path.l1 == []

    def test_zero_scale_reads_no_block(self, two_banks_two_customers):
        # so a lazily drawn cash matrix is never drawn at xi1 = 0
        def blocks():
            raise AssertionError("a cash block was read at xi1 = 0")
            yield

        banks, book = two_banks_two_customers
        assert settle_cash_payments(banks, book, blocks(), 0.0, _path([100.0, 100.0]), 1) == 0.0

    @staticmethod
    def _drawn_path():
        """A path drawn over two periods, and the sheets it left."""
        banks, book, path = _three_customers()
        for t in (1, 2):
            blocks = random_row_stochastic(3, RngStreams(3).stream("cash_matrix", t))
            settle_cash_payments(banks, book, blocks, 0.5, path, t)
        return path, banks

    def test_replay_reads_no_block(self):
        # a period the path holds is read back, so a lazily drawn cash matrix
        # is never drawn, and it moves the banks as the draw did
        def blocks():
            raise AssertionError("a cash block was read on replay")
            yield

        path, banks = self._drawn_path()
        cash = path.cash
        replay_banks, replay_book, _ = _three_customers()
        replayed = [settle_cash_payments(replay_banks, replay_book, blocks(), 0.5, path, t)
                    for t in (1, 2)]
        assert replayed == path.gross
        assert path.cash is cash and len(path.l1) == 2
        assert replay_banks.snapshot().tobytes() == banks.snapshot().tobytes()
        assert replay_banks.l1 is path.l1[1]

    def test_overdrawn_customer_is_refused(self):
        # the block's rows still sum to one, but customer 1 pays itself -1
        # times its outflow and customer 2 twice it: customer 1 ends at -40
        # while both bank totals hold, so only the customer sign rule sees it
        banks, book, path = _three_customers()
        block = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 2.0], [0.0, 0.0, 1.0]])
        with pytest.raises(IdentityError, match="^customer 1 at bank 1 holds negative cash -40$"):
            settle_cash_payments(banks, book, [block], 1.0, path, 1)
        assert path.l1 == [] and path.cash.tolist() == [60.0, 40.0, 20.0]

    def test_two_customers_hand_case(self, two_banks_two_customers):
        # both customers pay everything to customer 1; customer 1's payment
        # is a self-payment and nets out
        banks, book = two_banks_two_customers
        path = _path([100.0, 100.0])
        settle_cash_payments(banks, book, [np.array([[0.0, 1.0], [0.0, 1.0]])], 0.1, path, 1)
        assert path.cash[0] == pytest.approx(90.0)
        assert path.cash[1] == pytest.approx(110.0)
        assert banks.a1[0] == pytest.approx(90.0)
        assert banks.a1[1] == pytest.approx(110.0)
        assert np.array_equal(banks.a1, banks.l1)
        assert banks.a1.sum() == pytest.approx(200.0)

    def test_single_bank_nets_to_zero(self):
        cash = [60.0, 40.0, 20.0]
        banks, book = consistent_state(l1=cash, l2=[0.0] * 3, assignment=[0, 0, 0], n_banks=2)
        blocks = random_row_stochastic(3, RngStreams(3).stream("cash_matrix", 1))
        settle_cash_payments(banks, book, blocks, 0.5, _path(cash), 1)
        assert banks.a1[0] == pytest.approx(120.0)  # internal transfers only
        assert banks.a1[1] == 0.0

    def test_currency_conserved_and_identities_hold(self):
        rng = RngStreams(8)
        cash = rng.stream("assignment").random(40) * 100
        banks, book = consistent_state(
            l1=cash,
            l2=[0.0] * 40,
            assignment=rng.stream("assignment", 1).integers(0, 4, 40),
            n_banks=4,
        )
        total = banks.a1.sum()
        path = _path(cash)
        blocks = random_row_stochastic(40, rng.stream("cash_matrix", 1))
        settle_cash_payments(banks, book, blocks, 1.0, path, 1)
        assert banks.a1.sum() == pytest.approx(total, rel=1e-12)
        assert path.cash.min() >= 0.0
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
        path = _path(outflow)
        blocks = random_row_stochastic(n, rng.stream("cash_matrix", 1))
        settle_cash_payments(banks, book, blocks, 1.0, path, 1)
        inflow = path.cash
        matrix = np.concatenate(_blocks(n, rng.stream("cash_matrix", 1)))
        assert inflow.tobytes() == _row_block_inflow(matrix, outflow).tobytes()
        assert np.allclose(inflow, matrix.T @ outflow, rtol=1e-13, atol=0.0)

    def test_many_blocks_conserve_currency(self):
        rng = RngStreams(9)
        n = 1000
        cash = rng.stream("assignment").random(n) * 100
        banks, book = consistent_state(
            l1=cash,
            l2=[0.0] * n,
            assignment=rng.stream("assignment", 1).integers(0, 10, n),
            n_banks=10,
        )
        total = banks.a1.sum()
        path = _path(cash)
        # the blocks are consumed: each period draws the same ones afresh
        for period, xi1 in enumerate((0.3, 1.0), start=1):
            blocks = random_row_stochastic(n, rng.stream("cash_matrix", 1))
            settle_cash_payments(banks, book, blocks, xi1, path, period)
            assert abs(banks.a1.sum() - total) <= 1e-9 * total
            assert path.cash.min() >= 0.0
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
