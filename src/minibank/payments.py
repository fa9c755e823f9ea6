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

from .errors import IdentityError
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
    """One seed's customer cash through its cash phases, recorded by the
    first run of the seed and replayed by every later one.

    ``cash[0]`` is the opening cash and ``cash[t]`` the cash after period
    t's phase, which paid ``gross[t - 1]``; every array is read-only.
    ``source`` names the phase's inputs that the cash does not show: the
    seed whose cash_matrix stream drew it, whether that matrix is fixed,
    and xi1.  The engine sets it on the first run and refuses a run that
    differs.
    """

    source: tuple | None = None
    cash: list[np.ndarray] = field(default_factory=list)
    gross: list[float] = field(default_factory=list)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def settle_cash_payments(banks: BankBalanceSheets, book: CustomerBook,
                         blocks: Iterable[np.ndarray], xi1: float,
                         path: CashPath | None = None, period: int = 1) -> float:
    """Let every customer pay out a fraction xi1 of its cash deposit along
    its row of the (C, C) cash matrix, given as row blocks top to bottom,
    and return the gross volume paid.

    The matrix is row stochastic; a diagonal entry is a self-payment and
    nets to nothing.  Each bank's currency reserves and currency deposits
    move together by its customers' net flow, so total currency in the
    system is unchanged and no customer balance can go negative (payments
    are a fraction of the existing deposit).  At xi1 = 0 no block is read,
    so a lazily drawn matrix is never drawn.

    The inflow, sum_i outflow[i] * matrix[i, :], runs in a fixed order:
    rows added one by one within a block, block sums added in block order.
    Multiplies and adds are separate IEEE operations, so no fused
    multiply-add, SIMD width, BLAS kernel or thread count can change a bit,
    as each can for ``matrix.T @ outflow``.  Each block is scaled in place,
    so the blocks are consumed: pass fresh ones on every call.

    With a ``path``, the phase of ``period`` replays the cash the path
    holds for it and reads no block; a period the path does not hold yet
    is drawn and recorded.  Replay is exact: only this phase writes
    customer cash, and it reads only that cash, xi1 and the cash_matrix
    stream, so every run of one seed, stream and xi1 computes the same
    bits.  The guard: the run's cash before the phase must be byte-equal
    to the path's (the opening cash in period 1, the path's own cash after
    the previous period later), or the phase raises IdentityError.  The
    recorded arrays are read-only, so a write to customer cash in place
    fails instead of reaching later runs.
    """
    if xi1 == 0.0:
        return 0.0
    if path is not None:
        if not path.cash:
            path.cash.append(_read_only(book.l1))
        if book.l1.tobytes() != path.cash[period - 1].tobytes():
            raise IdentityError(f"period {period}: customer cash before the cash phase "
                                "differs from the cash path's")
    if path is not None and period < len(path.cash):
        book.l1 = path.cash[period]
        gross = path.gross[period - 1]
    else:
        outflow = xi1 * book.l1
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
        book.l1 = book.l1 - outflow + inflow
        gross = float(outflow.sum())
        if path is not None:
            path.cash.append(_read_only(book.l1))
            path.gross.append(gross)
    new_bank_l1 = book.bank_l1()
    banks.a1 += new_bank_l1 - banks.l1  # banks.l1 is book.bank_l1() from before
    banks.l1 = new_bank_l1
    return gross


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
