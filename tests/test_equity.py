import numpy as np
import pytest

from minibank import BankBalanceSheets, RateSet, accrue_equity


def _rates(r_a1=0.01, r_a2=0.03, r_l1=0.01, r_l2=0.01, r_interbank=0.015, r_l5=0.045, n=1):
    ones = np.ones(n)
    return RateSet(r_a1=r_a1 * ones, r_a2=r_a2 * ones, r_l1=r_l1 * ones, r_l2=r_l2 * ones,
                   r_interbank=r_interbank, r_l5=r_l5)


def test_benchmark_hand_case():
    banks = BankBalanceSheets.zeros(1)
    banks.a1[0], banks.a2[0] = 100.0, 200.0
    banks.l1[0], banks.l2[0] = 100.0, 200.0
    profit = accrue_equity(banks, _rates())
    # revenue 1 + 6 against expense 1 + 2
    assert profit[0] == pytest.approx(4.0)
    assert banks.a4[0] == pytest.approx(4.0)
    assert banks.l4[0] == pytest.approx(4.0)


def test_empty_sheet_accrues_nothing():
    banks = BankBalanceSheets.zeros(2)
    banks.a4[:] = banks.l4[:] = 7.0
    profit = accrue_equity(banks, _rates(n=2))
    assert np.all(profit == 0.0)
    assert np.all(banks.l4 == 7.0)


def test_equity_items_move_together():
    banks = BankBalanceSheets.zeros(3)
    banks.a1[:] = [10.0, 0.0, 5.0]
    banks.l3[:] = [0.0, 8.0, 0.0]
    accrue_equity(banks, _rates(n=3))
    assert np.array_equal(banks.a4, banks.l4)


def test_guarantee_fee_is_an_expense():
    banks = BankBalanceSheets.zeros(1)
    banks.a5[0] = banks.l5[0] = 100.0
    profit = accrue_equity(banks, _rates())
    assert profit[0] == pytest.approx(-4.5)


def test_interbank_interest_zero_sum_across_banks():
    # one shared interbank rate on matched a3/l3 stocks cancels system-wide
    banks = BankBalanceSheets.zeros(3)
    banks.a3[:] = [100.0, 0.0, 40.0]
    banks.l3[:] = [0.0, 140.0, 0.0]
    profit = accrue_equity(banks, _rates(r_a1=0.0, r_a2=0.0, r_l1=0.0, r_l2=0.0, n=3))
    assert profit.sum() == pytest.approx(0.0)


def test_negative_equity_allowed():
    banks = BankBalanceSheets.zeros(1)
    banks.l3[0] = 1000.0
    banks.a4[0] = banks.l4[0] = 1.0
    accrue_equity(banks, _rates())
    assert banks.l4[0] < 0.0
