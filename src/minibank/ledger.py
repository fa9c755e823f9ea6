"""Bank balance sheets, the customer book, and accounting identity checks.

Sheets are stored as one array per item with one entry per bank, which keeps
every period update a handful of vectorised operations.  Three identities
must survive every phase: core assets equal core liabilities
(a1 + a2 + a3 = l1 + l2 + l3), equity reserve equals equity provision
(a4 = l4), and central-bank assistance equals the guarantee (a5 = l5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

ITEM_NAMES = ("a1", "a2", "a3", "a4", "a5", "l1", "l2", "l3", "l4", "l5")


class ReserveBase(Enum):
    """Which asset items count as reserves for settlement and lending targets."""

    NARROW = "narrow"            # currency only
    BROAD = "broad"              # currency plus interbank claims
    SECURITISED = "securitised"  # currency, retail loans and interbank claims

    @property
    def component_mask(self) -> np.ndarray:
        """0/1 mask over the candidate reserve components (a1, a2, a3)."""
        return _COMPONENT_MASKS[self]


_COMPONENT_MASKS = {
    ReserveBase.NARROW: np.array([1.0, 0.0, 0.0]),
    ReserveBase.BROAD: np.array([1.0, 0.0, 1.0]),
    ReserveBase.SECURITISED: np.array([1.0, 1.0, 1.0]),
}


@dataclass
class BankBalanceSheets:
    """The ten balance-sheet items of every bank, one array entry per bank.

    Assets: a1 currency reserves, a2 retail loans, a3 interbank lending,
    a4 equity reserve, a5 central-bank assistance.  Liabilities: l1 currency
    deposits, l2 loan deposits, l3 interbank borrowing, l4 equity provision
    plus cumulated profit and loss, l5 central-bank guarantee.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    a5: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    l4: np.ndarray
    l5: np.ndarray

    @classmethod
    def zeros(cls, n_banks: int) -> "BankBalanceSheets":
        return cls(*(np.zeros(n_banks) for _ in ITEM_NAMES))

    @property
    def n_banks(self) -> int:
        return self.a1.shape[0]

    def deposits(self) -> np.ndarray:
        return self.l1 + self.l2 + self.l3

    def snapshot(self) -> np.ndarray:
        """(B, 10) copy of all items in ITEM_NAMES order."""
        return np.column_stack([getattr(self, name) for name in ITEM_NAMES])

    def copy(self) -> "BankBalanceSheets":
        return BankBalanceSheets(*(getattr(self, name).copy() for name in ITEM_NAMES))


@dataclass
class CustomerBook:
    """Per-customer deposit balances and the fixed customer-to-bank assignment.

    The assignment never changes after initialisation.  For every bank the
    sum of its customers' l1 (l2) balances must equal the bank's l1 (l2).
    """

    assignment: np.ndarray  # (C,) bank index per customer
    l1: np.ndarray          # (C,) currency deposits
    l2: np.ndarray          # (C,) loan deposits
    n_banks: int

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_banks)

    def bank_l1(self) -> np.ndarray:
        return np.bincount(self.assignment, weights=self.l1, minlength=self.n_banks)

    def bank_l2(self) -> np.ndarray:
        return np.bincount(self.assignment, weights=self.l2, minlength=self.n_banks)


def initialise(config, rng: np.random.Generator, assignment=None):
    """Set up the opening state: equal customer cash endowments deposited at
    randomly assigned banks, equal bank equity, and no credit of any kind.

    An explicit assignment array may be passed to pin the customer-to-bank
    map (useful for constructed cases); otherwise each customer draws its
    bank uniformly from ``rng``.
    """
    B, C = config.B, config.C
    if assignment is None:
        assignment = rng.integers(0, B, size=C)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (C,) or assignment.min() < 0 or assignment.max() >= B:
        raise ConfigError("assignment: must map every customer to a bank index")

    book = CustomerBook(
        assignment=assignment,
        l1=np.full(C, config.A1_0 / C),
        l2=np.zeros(C),
        n_banks=B,
    )
    banks = BankBalanceSheets.zeros(B)
    banks.l1 = book.bank_l1()
    banks.a1 = banks.l1.copy()
    banks.a4 = np.full(B, config.A4_0 / B)
    banks.l4 = banks.a4.copy()
    return banks, book


def reserve_components(banks: BankBalanceSheets, base: ReserveBase) -> np.ndarray:
    """(B, 3) array of the reserve components (a1, a2, a3), zeroed where excluded."""
    comps = np.column_stack([banks.a1, banks.a2, banks.a3])
    return comps * base.component_mask


def sum_reserve(banks: BankBalanceSheets, base: ReserveBase) -> np.ndarray:
    """Per-bank total reserve holding under the given reserve-base definition."""
    return reserve_components(banks, base).sum(axis=1)


def reserve_weights(banks: BankBalanceSheets, base: ReserveBase) -> np.ndarray:
    """Per-bank share of each component in the total reserve holding.

    Reserve transfers settle in these proportions.  A bank holding no
    reserves at all falls back to an all-currency profile so every row
    still sums to one.
    """
    comps = reserve_components(banks, base)
    totals = comps.sum(axis=1, keepdims=True)
    weights = np.divide(comps, totals, out=np.zeros_like(comps), where=totals > 0)
    empty = (totals <= 0).ravel()
    weights[empty, :] = 0.0
    weights[empty, 0] = 1.0
    return weights


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the per-bank identities and the customer-book sum constraints.

    Residuals are absolute; ``scale`` is the per-bank normalisation (at least
    one, otherwise the bank's total gross position) used for the relative
    comparison against ``tol``.
    """

    core: np.ndarray       # |a1 + a2 + a3 - (l1 + l2 + l3)|
    equity: np.ndarray     # |a4 - l4|
    guarantee: np.ndarray  # |a5 - l5|
    book_l1: np.ndarray    # |sum of customer l1 - bank l1|
    book_l2: np.ndarray    # |sum of customer l2 - bank l2|
    scale: np.ndarray
    tol: float

    _PARTS = ("core", "equity", "guarantee", "book_l1", "book_l2")

    @property
    def max_relative(self) -> float:
        return max(float((getattr(self, p) / self.scale).max()) for p in self._PARTS)

    @property
    def ok(self) -> bool:
        return self.max_relative <= self.tol

    def worst(self) -> str:
        """Human-readable description of the largest relative residual."""
        best_part, best_bank, best_val = "core", 0, -1.0
        for part in self._PARTS:
            rel = getattr(self, part) / self.scale
            bank = int(np.argmax(rel))
            if rel[bank] > best_val:
                best_part, best_bank, best_val = part, bank, float(rel[bank])
        return f"{best_part} residual {best_val:.3e} at bank {best_bank}"


def check_identities(banks: BankBalanceSheets, book: CustomerBook, tol: float = 1e-9) -> IdentityReport:
    """Measure how far the state is from the three balance-sheet identities
    and the two customer-book sum constraints.

    Pure reporting: callers decide whether a violation aborts the run.
    """
    scale = np.maximum(1.0, np.abs(banks.snapshot()).sum(axis=1))
    return IdentityReport(
        core=np.abs(banks.a1 + banks.a2 + banks.a3 - (banks.l1 + banks.l2 + banks.l3)),
        equity=np.abs(banks.a4 - banks.l4),
        guarantee=np.abs(banks.a5 - banks.l5),
        book_l1=np.abs(book.bank_l1() - banks.l1),
        book_l2=np.abs(book.bank_l2() - banks.l2),
        scale=scale,
        tol=tol,
    )
