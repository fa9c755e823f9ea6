"""Bank balance sheets, the customer book, and accounting identity checks.

Sheets are stored as one array per item with one entry per bank, which keeps
every period update a handful of vectorised operations.  Core assets must
equal core liabilities (a1 + a2 + a3 = l1 + l2 + l3) after every phase.
Equity reserve equals equity provision (a4 = l4) and central-bank assistance
equals the guarantee (a5 = l5) by construction: each pair is one array.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import IdentityError

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
    plus cumulated profit and loss, l5 central-bank guarantee.  a4 and l4
    read one array, ``equity``, and a5 and l5 another, ``guarantee``.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    equity: np.ndarray
    guarantee: np.ndarray

    a4 = l4 = property(lambda self: self.equity)
    a5 = l5 = property(lambda self: self.guarantee)

    @classmethod
    def zeros(cls, n_banks: int) -> "BankBalanceSheets":
        return cls(*(np.zeros(n_banks) for _ in fields(cls)))

    @property
    def n_banks(self) -> int:
        return self.a1.shape[0]

    def deposits(self) -> np.ndarray:
        return self.l1 + self.l2 + self.l3

    def snapshot(self) -> np.ndarray:
        """(B, 10) copy of all items in ITEM_NAMES order."""
        return np.column_stack([getattr(self, name) for name in ITEM_NAMES])


@dataclass
class CustomerBook:
    """Per-bank loan deposits and the customer-to-bank map.

    A bank's new loan deposits are split equally across its customers and
    every later change is pro rata, so all of a bank's customers hold one
    loan-deposit balance: ``l2`` stores it once per bank.  The map and its
    headcounts never change after ``initialise``, which gives every bank a
    customer, so phases divide by ``counts`` unchecked.  For every bank the
    sum of its customers' l2 balances must equal the bank's l2.  Customer
    cash is not kept here: it lives in the run's ``CashPath``.
    """

    assignment: np.ndarray  # (C,) bank index per customer
    counts: np.ndarray      # (B,) customers per bank
    l2: np.ndarray          # (B,) loan deposits held by each customer of the bank

    def bank_l1(self, cash: np.ndarray) -> np.ndarray:
        """Each bank's currency deposits, summed from its customers' (C,)
        ``cash``; negative cash raises IdentityError (no tolerance)."""
        customer = int(np.argmin(cash))
        if cash[customer] < 0:
            raise IdentityError(f"customer {customer} at bank {self.assignment[customer]} "
                                f"holds negative cash {cash[customer]:.6g}")
        return np.bincount(self.assignment, weights=cash, minlength=self.counts.size)

    def bank_l2(self) -> np.ndarray:
        return np.bincount(self.assignment, weights=self.l2[self.assignment],
                           minlength=self.counts.size)


def initialise(config, rng: np.random.Generator):
    """Return the opening sheets, book and (C,) customer cash: equal cash
    endowments deposited at randomly assigned banks, equal bank equity, and
    no credit of any kind.

    Each customer draws its bank uniformly from ``rng``.  A drawn map that
    leaves a bank without customers gives each such bank the last customer
    of the then largest bank (lowest index on ties); C >= B leaves that bank
    at least one customer.  The map and its headcounts then hold for the
    whole run: the lending and wire phases divide by each bank's headcount.
    """
    B, C = config.B, config.C
    assignment = rng.integers(0, B, size=C)
    for bank in np.flatnonzero(np.bincount(assignment, minlength=B) == 0):
        largest = np.argmax(np.bincount(assignment, minlength=B))
        assignment[np.flatnonzero(assignment == largest)[-1]] = bank

    book = CustomerBook(assignment=assignment, counts=np.bincount(assignment, minlength=B),
                        l2=np.zeros(B))
    cash = np.full(C, config.A1_0 / C)
    banks = BankBalanceSheets.zeros(B)
    banks.l1 = book.bank_l1(cash)
    banks.a1 = banks.l1.copy()
    banks.equity = np.full(B, config.A4_0 / B)
    return banks, book, cash


def reserve_components(banks: BankBalanceSheets, base: ReserveBase) -> np.ndarray:
    """(B, 3) array of the reserve components (a1, a2, a3), zeroed where excluded."""
    comps = np.column_stack([banks.a1, banks.a2, banks.a3])
    return comps * base.component_mask


def sum_reserve(banks: BankBalanceSheets, base: ReserveBase) -> np.ndarray:
    """Per-bank total reserve holding under the given reserve-base definition."""
    return reserve_components(banks, base).sum(axis=1)


def reserve_weights(banks: BankBalanceSheets,
                    base: ReserveBase) -> list[tuple[float, float, float]]:
    """Per-bank share of each component in the total reserve holding, one
    tuple of three floats per bank: the snapshot the interbank ledger
    stores with an issuance.

    Reserve transfers settle in these proportions.  A bank holding no
    reserves at all falls back to an all-currency profile so every row
    still sums to one.
    """
    comps = reserve_components(banks, base)
    totals = comps.sum(axis=1, keepdims=True)
    weights = np.divide(comps, totals, out=np.zeros_like(comps), where=totals > 0)
    empty = (totals <= 0).ravel()
    weights[empty, 0] = 1.0
    return list(map(tuple, weights.tolist()))


# The relative tolerance of every state check: per-phase identities, ledger
# consistency, currency conservation and the guarantee cross-check.
TOL = 1e-9


def bank_scale(sheets: np.ndarray) -> np.ndarray:
    """Per-bank scale of the state checks from (..., 10) sheets: the bank's
    total gross position, at least one."""
    return np.maximum(1.0, np.abs(sheets).sum(axis=-1))


def worst_residual(residuals: dict[str, np.ndarray], banks: BankBalanceSheets,
                   error: type[Exception]) -> float:
    """The largest of the named per-bank residuals relative to bank_scale.

    Raises ``error`` naming the part and bank where it exceeds ``TOL``; a
    NaN residual counts as exceeding it.
    """
    relative = np.stack(list(residuals.values())) / bank_scale(banks.snapshot())
    worst = float(relative.max())
    if not worst <= TOL:
        part, bank = np.unravel_index(np.argmax(relative), relative.shape)
        raise error(f"{list(residuals)[part]} residual {relative[part, bank]:.3e} at bank {bank}")
    return worst


def check_identities(banks: BankBalanceSheets, book: CustomerBook) -> float:
    """Check the core balance-sheet identity and the customer book's l2 sum
    to ``TOL``, then that no bank's loan deposits are negative, with no
    tolerance; returns the worst relative residual and raises IdentityError
    on a broken rule.  Customer cash has no rule here: only ``initialise``
    and the cash phase write ``banks.l1``, as ``CustomerBook.bank_l1`` of
    cash it has checked, and the cash phase writes the path's array."""
    worst = worst_residual({
        "core": np.abs(banks.a1 + banks.a2 + banks.a3 - (banks.l1 + banks.l2 + banks.l3)),
        "book_l2": np.abs(book.bank_l2() - banks.l2),
    }, banks, IdentityError)
    bank = int(np.argmin(banks.l2))
    if banks.l2[bank] < 0:
        raise IdentityError(f"negative loan deposits {banks.l2[bank]:.6g} at bank {bank}")
    return worst
