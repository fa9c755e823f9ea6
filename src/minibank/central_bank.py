"""Central-bank guarantee of last resort.

A bank still short of its reserve target after pooling rolls the shortfall
into a one-period guarantee: matched asset and liability items (a5 = l5)
that are non-cash, never enter the reserve base, are removed at the start
of the next period, and are charged a punitive fee through the equity
accrual.
"""

from __future__ import annotations

import numpy as np

from .errors import IdentityError
from .ledger import TOL, BankBalanceSheets, bank_scale


def grant_guarantees(banks: BankBalanceSheets, unmet: np.ndarray,
                     expected: np.ndarray) -> np.ndarray:
    """Grant each bank a guarantee equal to its unmet reserve need.

    Shortfalls below the identity tolerance at the bank's balance-sheet
    scale are rounding dust from the allocation arithmetic, not real
    exposure, and are not guaranteed.  The unmet need is first
    cross-checked against ``expected`` (target reserve minus the
    post-pooling holding): the guarantee must complete the reserve level
    to exactly the target.  Returns per-bank granted amounts.
    """
    scale = bank_scale(banks.snapshot())
    grant = np.where(unmet > TOL * scale, unmet, 0.0)
    wanted = np.maximum(expected, 0.0)
    gap = np.abs(unmet - wanted)
    if np.any(gap > TOL * scale):
        bank = int(np.argmax(gap / scale))
        raise IdentityError(
            f"guarantee does not close the reserve gap at bank {bank}: "
            f"granting {unmet[bank]:.6g}, target shortfall {wanted[bank]:.6g}"
        )
    banks.guarantee = banks.guarantee + grant
    return grant


def remove_guarantees(banks: BankBalanceSheets) -> None:
    """Zero out last period's guarantees; runs first thing every period."""
    banks.guarantee = np.zeros_like(banks.guarantee)
