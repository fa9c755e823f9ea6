"""Per-period profit accrual into bank equity.

Profit is interest and fees on end-of-period stocks: revenue on asset items
(including the management fee charged on held currency) minus expense on
deposits, interbank borrowing and any outstanding guarantee.  Equity
reserve and equity provision move together; the accrual is non-cash and
never touches reserves.  Negative equity is allowed and does not stop a
run: total equity loss is the model's distress signal, not a default.
"""

from __future__ import annotations

import numpy as np

from .ledger import BankBalanceSheets
from .stochastics import RateSet


def accrue_equity(banks: BankBalanceSheets, rates: RateSet) -> np.ndarray:
    """Accrue one period's profit into a4/l4; returns per-bank profit.

    With the common interbank rate, interest on a3 and l3 cancels across
    the system, so interbank interest is zero-sum between banks.
    """
    profit = (
        rates.r_a1 * banks.a1 + rates.r_a2 * banks.a2 + rates.r_interbank * banks.a3
        - rates.r_l1 * banks.l1 - rates.r_l2 * banks.l2 - rates.r_interbank * banks.l3
        - rates.r_l5 * banks.l5
    )
    banks.equity = banks.equity + profit
    return profit
