"""Payment settlement: customer cash transfers and loan-deposit wire transfers.

Cash payments move currency and the matching deposits between banks, which
act as passive depositories.  Wire transfers move loan deposits without
moving currency: the resulting positions are netted across banks once per
period and the residual is converted into interbank credit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .interbank import InterbankLoanLedger, LoanKind
from .ledger import TOL, BankBalanceSheets, CustomerBook, ReserveBase, reserve_weights


@dataclass(frozen=True)
class CashPaymentStats:
    gross_volume: float


@dataclass(frozen=True)
class WireTransferStats:
    gross_volume: float
    issued_volume: float  # new interbank credit created by the netting
    issued_count: int


def settle_cash_payments(banks: BankBalanceSheets, book: CustomerBook,
                         matrix: np.ndarray, xi1: float) -> CashPaymentStats:
    """Let every customer pay out a fraction xi1 of its cash deposit along
    its row of the (C, C) cash matrix.

    The matrix is row stochastic; a diagonal entry is a self-payment and
    nets to nothing.  Each bank's currency reserves and currency deposits
    move together by its customers' net flow, so total currency in the
    system is unchanged and no customer balance can go negative (payments
    are a fraction of the existing deposit).
    """
    if xi1 == 0.0:
        return CashPaymentStats(0.0)
    outflow = xi1 * book.l1
    inflow = matrix.T @ outflow
    old_bank_l1 = book.bank_l1()
    book.l1 = book.l1 - outflow + inflow
    if book.l1.min() < 0:
        raise ConsistencyError("a customer cash deposit went negative")
    new_bank_l1 = book.bank_l1()
    banks.a1 += new_bank_l1 - old_bank_l1
    banks.l1 = new_bank_l1
    return CashPaymentStats(float(outflow.sum()))


def settle_wire_transfers(banks: BankBalanceSheets, book: CustomerBook,
                          matrix: np.ndarray, xi2: float, loans: InterbankLoanLedger,
                          base: ReserveBase, period: int) -> WireTransferStats:
    """Wire loan deposits between banks and net the positions into credit.

    Every bank sends a fraction xi2 of its loan-deposit stock along its row
    of the (B, B) wire matrix.  The matrix is row stochastic; a diagonal
    entry is a self-payment and nets to nothing.  No currency moves:
    positions are netted across all counterparties at once, each bank's
    loan deposits change by its net flow, and a bank with a net inflow has
    implicitly lent it (new a3) while a net outflow is borrowed (new l3).  The payers' net positions
    are matched to the receivers pro rata and recorded in the loan ledger,
    so ledger totals track the new balance-sheet items exactly.  Paying
    banks draw their customers' balances down pro rata; receiving banks
    credit theirs pro rata (equally when the receiving pool is empty).
    """
    B = banks.n_banks
    if xi2 == 0.0:
        return WireTransferStats(0.0, 0.0, 0)
    if banks.l2.min() < 0:
        raise ConsistencyError("loan deposits negative before wire transfers")
    gross = xi2 * banks.l2
    if gross.sum() == 0.0:
        return WireTransferStats(0.0, 0.0, 0)

    volumes = gross[:, None] * matrix
    net = volumes.sum(axis=0) - volumes.sum(axis=1)  # inflow minus outflow per bank

    old_l2 = banks.l2.copy()
    new_l2 = old_l2 + net
    if new_l2.min() < -TOL * max(1.0, float(old_l2.max())):
        raise ConsistencyError("wire netting drove a bank's loan deposits negative")
    np.clip(new_l2, 0.0, None, out=new_l2)

    # Customer bookkeeping before the bank items, so the book stays the
    # source of the per-bank l2 totals.
    factor = np.ones(B)
    funded = old_l2 > 0
    factor[funded] = new_l2[funded] / old_l2[funded]
    book.l2 = book.l2 * factor[book.assignment]
    fresh = ~funded & (new_l2 > 0)
    if np.any(fresh):
        counts = book.counts()
        if np.any(counts[fresh] == 0):
            raise ConsistencyError("wire inflow to a bank with no customers cannot be attributed")
        per_head = np.zeros(B)
        per_head[fresh] = new_l2[fresh] / counts[fresh]
        book.l2 = book.l2 + per_head[book.assignment]
    banks.l2 = book.bank_l2()

    lenders = np.flatnonzero(net > 0)
    borrowers = np.flatnonzero(net < 0)
    issued = 0.0
    count = 0
    if lenders.size and borrowers.size:
        pos_total = net[lenders].sum()
        add_a3 = np.zeros(B)
        add_l3 = np.zeros(B)
        entries = []
        for u in borrowers:
            needed = -net[u]
            amounts = needed * net[lenders] / pos_total
            amounts[-1] = needed - amounts[:-1].sum()  # exact borrower total
            for v, amount in zip(lenders, amounts):
                if amount <= 0:
                    continue
                entries.append((int(v), int(u), float(amount)))
                add_a3[v] += amount
                add_l3[u] += amount
                issued += amount
                count += 1
        banks.a3 += add_a3
        banks.l3 += add_l3
        weights = reserve_weights(banks, base)
        for v, u, amount in entries:
            loans.add(v, u, period, LoanKind.WIRE, amount, weights[u])

    return WireTransferStats(float(volumes.sum()), issued, count)
