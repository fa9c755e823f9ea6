"""Payment settlement: customer cash transfers and loan-deposit wire transfers.

Cash payments move currency and the matching deposits between banks, which
act as passive depositories.  Wire transfers move loan deposits without
moving currency: the resulting positions are netted across banks once per
period and the residual is converted into interbank credit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .interbank import InterbankLoanLedger, LoanKind
from .ledger import BankBalanceSheets, CustomerBook, ReserveBase, reserve_weights
from .stochastics import row_loops


@dataclass(frozen=True)
class WireTransferStats:
    gross_volume: float
    issued_volume: float  # new interbank credit created by the netting
    issued_count: int


@dataclass
class CashPath:
    """One seed's customer cash payments, drawn once and read back by every
    run of the seed.

    ``cash`` is the customers' cash after the last period drawn (the opening
    endowments before the first); ``l1[t - 1]``, read-only, is every bank's
    currency deposits after period t's cash phase, which paid
    ``gross[t - 1]``.  ``key``, ``(seed, B, C, A1_0, xi1,
    fixed_payment_matrix)``, fixes the cash_matrix stream, the map of
    customers to banks, the opening cash and xi1; ``init_state`` sets it on
    a fresh path and refuses a run under another.
    """

    key: tuple | None = None
    cash: np.ndarray | None = None
    l1: list[np.ndarray] = field(default_factory=list)
    gross: list[float] = field(default_factory=list)


def settle_cash_payments(banks: BankBalanceSheets, book: CustomerBook,
                         blocks: Iterable[np.ndarray], xi1: float, path: CashPath,
                         period: int) -> float:
    """Let every customer pay out a fraction xi1 of its cash deposit along
    its row of the (C, C) cash matrix, given as row blocks top to bottom,
    and return the gross volume paid.

    The matrix is row stochastic; a diagonal entry is a self-payment and
    nets to nothing.  Each bank's currency reserves and currency deposits
    move together by its customers' net flow, so total currency in the
    system is unchanged.  At xi1 = 0 no block is read, so a lazily drawn
    matrix is never drawn.

    The customers' cash lives only in the ``path``.  A period it does not
    hold yet is drawn from the blocks and appended, once
    ``CustomerBook.bank_l1`` has refused negative customer cash; a period
    it holds is read back, reading no block.  Either way ``banks.l1``
    becomes the path's read-only array.  This is exact: the phase reads
    only the path's cash, xi1 and the blocks, which the path's key fixes,
    and only this phase writes ``banks.l1`` after the opening state.

    The inflow, sum_i outflow[i] * matrix[i, :], runs in a fixed order:
    rows added one by one within a block, block sums added in block order.
    Multiplies and adds are separate IEEE operations, so no fused
    multiply-add, SIMD width, BLAS kernel or thread count can change a bit,
    as each can for ``matrix.T @ outflow``.  Each block is scaled in place,
    so the blocks are consumed: pass fresh ones on every call.
    """
    if xi1 == 0.0:
        return 0.0
    if period > len(path.l1):
        outflow = xi1 * path.cash
        block_sum = np.empty(outflow.size)
        inflow = np.zeros(outflow.size)
        lo = 0
        for block in blocks:
            hi = lo + len(block)
            # per block, not around the loop: a generator's own row sums run in
            # this context, and they must keep the default buffer
            with row_loops():
                block *= outflow[lo:hi, None]
                # the sums run down columns, one row after another, whatever the buffer
                np.add.reduce(block, axis=0, out=block_sum)
            inflow += block_sum
            lo = hi
        cash = path.cash - outflow + inflow
        l1 = book.bank_l1(cash)
        l1.flags.writeable = False
        path.cash = cash
        path.l1.append(l1)
        path.gross.append(float(outflow.sum()))
    new_l1 = path.l1[period - 1]
    banks.a1 += new_l1 - banks.l1
    banks.l1 = new_l1
    return path.gross[period - 1]


def settle_wire_transfers(banks: BankBalanceSheets, book: CustomerBook,
                          blocks: Iterable[np.ndarray], xi2: float, loans: InterbankLoanLedger,
                          base: ReserveBase, period: int) -> WireTransferStats:
    """Wire loan deposits between banks and net the positions into credit.

    Every bank sends a fraction xi2 of its loan-deposit stock along its row
    of the (B, B) wire matrix, given as row blocks top to bottom as for
    ``settle_cash_payments``; at xi2 = 0 no block is read.
    The matrix is row stochastic; a diagonal entry is a self-payment and
    nets to nothing.  No currency moves: positions are netted across all
    counterparties at once, each bank's loan deposits change by its net
    flow, and a bank with a net inflow has implicitly lent it (new a3)
    while a net outflow is borrowed (new l3).  The payers' net positions
    are matched to the receivers pro rata and recorded in the loan ledger,
    so ledger totals track the new balance-sheet items exactly.  Each
    bank's per-customer loan-deposit balance scales with its stock; a bank
    whose stock was empty splits its inflow equally across its customers.
    """
    B = banks.n_banks
    if xi2 == 0.0:
        return WireTransferStats(0.0, 0.0, 0)
    gross = xi2 * banks.l2

    # the blocks may share one buffer, so each is copied before the next is drawn
    volumes = gross[:, None] * np.vstack([block.copy() for block in blocks])
    net = volumes.sum(axis=0) - volumes.sum(axis=1)  # inflow minus outflow per bank

    # rows sum to one and xi2 <= 1, so only rounding dust is clipped; a
    # larger clip leaves a core residual, which the state check raises
    old_l2 = banks.l2
    new_l2 = old_l2 + net
    np.clip(new_l2, 0.0, None, out=new_l2)

    # Customer bookkeeping before the bank items, so the book stays the
    # source of the per-bank l2 totals.
    factor = np.ones(B)
    funded = old_l2 > 0
    factor[funded] = new_l2[funded] / old_l2[funded]
    book.l2 = book.l2 * factor
    fresh = ~funded & (new_l2 > 0)
    book.l2[fresh] += new_l2[fresh] / book.counts[fresh]
    banks.l2 = book.bank_l2()

    lenders = np.flatnonzero(net > 0)
    borrowers = np.flatnonzero(net < 0)
    issued = 0.0
    count = 0
    if lenders.size and borrowers.size:
        pos_total = net[lenders].sum()
        add_a3 = [0.0] * B
        add_l3 = [0.0] * B
        entries = []
        lender_ids = lenders.tolist()
        for u in borrowers.tolist():
            needed = -net[u]
            amounts = needed * net[lenders] / pos_total
            amounts[-1] = needed - amounts[:-1].sum()  # exact borrower total
            for v, amount in zip(lender_ids, amounts.tolist()):
                if amount <= 0:
                    continue
                entries.append((v, u, amount))
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
