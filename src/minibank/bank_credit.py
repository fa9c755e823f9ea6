"""Customer credit: loan repayment, target lending, and realised lending.

Banks lend to their own customers only.  A new loan expands the balance
sheet on both sides at once (retail loans against loan deposits) and a
repayment shrinks both.  Two target rules are supported: lending up to a
multiple of the reserve holding (money multiplication), and lending out
reserves held in excess of a target ratio of deposits (fractional reserve).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .ledger import BankBalanceSheets, CustomerBook, sum_reserve
from .stochastics import sample_triangular

if TYPE_CHECKING:
    from .config import ScenarioConfig


class LendingBehaviour(Enum):
    MONEY_MULTIPLICATION = "money_multiplication"
    FRACTIONAL_RESERVE = "fractional_reserve"


def draw_target_ratios(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-bank target reserve ratio for one period: the regulatory floor
    ``gamma_RR`` plus nonnegative noise drawn from ``gamma_TR_noise``."""
    noise = sample_triangular(config.gamma_TR_noise, rng, config.B)
    return config.gamma_RR + noise


def repay_customer_loans(banks: BankBalanceSheets, book: CustomerBook,
                         config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Retire a random fraction of each bank's loan deposits against its
    retail loan book.

    The ratio is drawn per bank from ``psi`` and applies to the deposit
    stock; repayment is capped by the bank's own outstanding loans, which
    matters once wire inflows have pushed a bank's loan deposits past the
    loans it originated itself.  Customer balances shrink pro rata.
    Returns the per-bank repaid amount.
    """
    ratios = sample_triangular(config.psi, rng, banks.n_banks)
    repaid = np.minimum(ratios * banks.l2, banks.a2)
    np.maximum(repaid, 0.0, out=repaid)
    factor = np.ones(banks.n_banks)
    funded = banks.l2 > 0
    factor[funded] = 1.0 - repaid[funded] / banks.l2[funded]
    book.l2 = book.l2 * factor
    banks.a2 = banks.a2 - repaid
    banks.l2 = banks.l2 - repaid
    return repaid


def target_lending(banks: BankBalanceSheets, config: ScenarioConfig, target_ratio) -> np.ndarray:
    """Per-bank lending target, computed from one common pre-lending snapshot.

    With ``behaviour`` money multiplication, banks target total deposits
    of reserves / ratio; with fractional reserve they lend out reserves
    above ratio * deposits.  Reserves are counted under ``reserve_base``;
    deposits include interbank borrowing unless ``relax_target_base``.
    Both rules floor at zero: banks do not call loans to correct an
    overshoot.
    """
    base = sum_reserve(banks, config.reserve_base)
    dep = banks.l1 + banks.l2
    if not config.relax_target_base:
        dep = dep + banks.l3
    if config.behaviour is LendingBehaviour.MONEY_MULTIPLICATION:
        potential = base / target_ratio - dep
    else:
        potential = base - target_ratio * dep
    return np.maximum(potential, 0.0)


def realise_lending(banks: BankBalanceSheets, book: CustomerBook, potential: np.ndarray,
                    config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Grant the absorbed share of each bank's lending target, drawn per
    bank from ``theta``.

    Retail loans and loan deposits grow together; the bank's loan-deposit
    balance, held by each of its customers, grows by the amount over its
    headcount.  Returns per-bank amounts.
    """
    share = sample_triangular(config.theta, rng, banks.n_banks)
    actual = share * potential
    book.l2 = book.l2 + actual / book.counts
    banks.a2 = banks.a2 + actual
    banks.l2 = banks.l2 + actual
    return actual
