"""Interbank credit: the outstanding-loan ledger, stochastic repayment, and
the per-period reserve pooling that matches surplus banks to shortage banks.

The ledger is the book of record for interbank positions: every update to
the balance-sheet items a3 and l3 goes through it, so per-bank ledger sums
and sheet items agree at all times.  Reserve transfers settle partly in
claims held on third banks; those legs are implemented as reassignment of
ledger entries from one creditor to another, with claims a bank would end
up holding on itself cancelled outright.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import LedgerError, SimulationError
from .ledger import BankBalanceSheets, ReserveBase, reserve_weights, sum_reserve, worst_residual
from .stochastics import keyed_threshold_draw, uniform_matrix


class LoanKind(IntEnum):
    """The code is a loan's place in the canonical order and a field of
    its repayment draw's key."""

    WIRE = 0      # created by netting wire-transfer payments
    POOLED = 1    # created by the reserve pooling system
    ROLLOVER = 2  # refinancing of a repayment the borrower could not fund


class MatchingMode(Enum):
    EXOGENOUS = "exogenous"    # i.i.d. uniform match scores
    ENDOGENOUS = "endogenous"  # preferential attachment on equity and exposure


class InterbankLoanLedger:
    """Sparse record of outstanding interbank loans.

    Positions are keyed (issue period, lender, borrower, kind), so the keys'
    natural order is the canonical order every mutation pass iterates in.
    Each lender's positions are also kept as a sorted list, so claims are
    taken oldest first without sorting on every reassignment.
    An issuance (issue period, borrower, kind) carries the borrower's
    reserve-component weights snapshotted when it was created; repayments
    settle against that snapshot, and it is freed when the last position of
    its issuance closes.  Positions that share a key merge, which keeps the
    ledger size bounded no matter how often claims get reassigned between
    creditors.
    """

    def __init__(self, n_banks: int):
        self.n_banks = n_banks
        self._amounts: dict[tuple[int, int, int, LoanKind], float] = {}
        self._weights: dict[tuple[int, int, LoanKind], np.ndarray] = {}
        self._live: dict[tuple[int, int, LoanKind], int] = {}  # open positions per issuance
        self._by_lender: list[list] = [[] for _ in range(n_banks)]  # sorted keys

    def __len__(self) -> int:
        return len(self._amounts)

    def add(self, lender: int, borrower: int, period: int, kind: LoanKind,
            amount: float, weights: np.ndarray) -> None:
        if amount <= 0:
            return
        if lender == borrower:
            raise LedgerError("a bank cannot lend to itself")
        key = (int(period), int(lender), int(borrower), kind)
        issue = (key[0], key[2], kind)
        w = np.asarray(weights, dtype=float)
        existing = self._weights.get(issue)
        if existing is None:
            self._weights[issue] = w.copy()
        elif existing is not w and not np.array_equal(existing, w):
            raise LedgerError(f"conflicting weight snapshots for issuance {issue}")
        if key in self._amounts:
            self._amounts[key] += float(amount)
        else:
            self._amounts[key] = float(amount)
            self._live[issue] = self._live.get(issue, 0) + 1
            insort(self._by_lender[key[1]], key)

    def amount(self, key) -> float:
        return self._amounts.get(key, 0.0)

    def weights_for(self, key) -> np.ndarray:
        return self._weights[(key[0], key[2], key[3])]

    def reduce(self, key, amount: float) -> None:
        left = self._amounts[key] - amount
        if left > 0.0:
            self._amounts[key] = left
            return
        del self._amounts[key]
        held = self._by_lender[key[1]]
        del held[bisect_left(held, key)]
        issue = (key[0], key[2], key[3])
        self._live[issue] -= 1
        if not self._live[issue]:
            del self._live[issue], self._weights[issue]

    def sorted_keys(self) -> list:
        """All outstanding positions in canonical order."""
        return sorted(self._amounts)

    def lender_sums(self) -> np.ndarray:
        return self._sums_by(1)

    def borrower_sums(self) -> np.ndarray:
        return self._sums_by(2)

    def _sums_by(self, field: int) -> np.ndarray:
        n = len(self._amounts)
        banks = np.fromiter(map(itemgetter(field), self._amounts), dtype=np.intp, count=n)
        amounts = np.fromiter(self._amounts.values(), dtype=float, count=n)
        return np.bincount(banks, weights=amounts, minlength=self.n_banks)

    def total(self) -> float:
        return float(sum(self._amounts.values()))

    def reassign_claims(self, from_bank: int, to_bank: int, requested: float,
                        include_self: bool = True) -> tuple[float, float]:
        """Move claims held by ``from_bank`` to ``to_bank``, oldest first,
        up to the requested amount (at most the last claim taken is split).

        Claims on ``to_bank`` itself are taken only once every claim on a
        third bank is exhausted (never when ``include_self`` is off), and
        are cancelled instead of moved: a creditor swap would make to_bank
        its own debtor.  Returns ``(moved, cancelled)``: moved is the total
        taken out of from_bank's claims, of which cancelled was extinguished
        rather than transferred.  The caller applies the matching a3/l3
        sheet updates.
        """
        if requested <= 0:
            return 0.0, 0.0
        if from_bank == to_bank:
            raise LedgerError("cannot reassign claims to their current holder")
        held = self._by_lender[from_bank][:]  # a copy: taking claims edits the list

        def candidates():
            return chain((k for k in held if k[2] != to_bank),
                         (k for k in held if k[2] == to_bank) if include_self else ())

        # min(requested, sum of every candidate): float partial sums of
        # positive amounts never decrease, so the scan stops once they reach
        # requested.  The loop below walks the same order past that point,
        # since moved can end a rounding step short of take.
        take = 0.0
        for key in candidates():
            take += self._amounts[key]
            if take >= requested:
                take = requested
                break
        if take <= 0:
            return 0.0, 0.0
        moved = 0.0
        cancelled = 0.0
        for key in candidates():
            part = min(take - moved, self._amounts[key])
            if part <= 0:
                break
            period, _, borrower, kind = key
            weights = self.weights_for(key)  # before reduce, which may free it
            self.reduce(key, part)
            if borrower == to_bank:
                cancelled += part
            else:
                self.add(to_bank, borrower, period, kind, part, weights)
            moved += part
        return moved, cancelled

    def check_consistency(self, banks: BankBalanceSheets) -> float:
        """Check that per-bank ledger sums match a3/l3; returns the worst
        relative residual and raises LedgerError past ``TOL``."""
        return worst_residual({"ledger a3": np.abs(self.lender_sums() - banks.a3),
                               "ledger l3": np.abs(self.borrower_sums() - banks.l3)},
                              banks, LedgerError)


@dataclass(frozen=True)
class InterbankRepaymentStats:
    repaid_volume: float
    repaid_count: int
    rollover_volume: float
    cancelled_volume: float


def repay_interbank_loans(banks: BankBalanceSheets, loans: InterbankLoanLedger,
                          omega: float, base: ReserveBase, period: int,
                          decision_seed: int) -> InterbankRepaymentStats:
    """Repay a random selection of outstanding interbank loans in full.

    Every position at least one period old draws once against the repayment
    likelihood ``omega``; positions whose draw strictly exceeds omega settle
    now (omega = 0 repays everything, omega = 1 repays nothing).  Each
    position's draw is keyed to its identity, so a loan's repayment timing
    never depends on what other loans happen to exist, and runs sharing a
    seed repay their common positions identically across scenario variants.
    The borrower pays with its reserve components in the proportions
    recorded at issuance.  Currency and retail-loan legs are capped at what
    the borrower actually holds, with any shortfall carried on the claims
    leg; whatever the borrower's own claims cannot cover is refinanced on
    the spot as a fresh loan from the same lender.  No reserve component is
    ever driven negative and the ledger keeps matching the sheets exactly.
    """
    keys = loans.sorted_keys()
    keys = keys[:bisect_left(keys, (period,))]  # issued before this period
    fields = (np.fromiter(map(itemgetter(i), keys), dtype=np.int64, count=len(keys))
              for i in (1, 2, 0, 3))  # lender, borrower, issue period, kind
    draws = keyed_threshold_draw(decision_seed, period, *fields)
    due = [(keys[i], loans.amount(keys[i])) for i in np.flatnonzero(draws > omega)]
    if not due:
        return InterbankRepaymentStats(0.0, 0, 0.0, 0.0)

    # One weight snapshot per phase backs every refinancing made during it.
    rollover_weights = reserve_weights(banks, base)

    repaid = 0.0
    count = 0
    rolled = 0.0
    cancelled_total = 0.0
    for key, frozen in due:
        # Earlier settlements may have reassigned part of this position away;
        # only what is still here, up to the amount selected, settles now.
        amount = min(frozen, loans.amount(key))
        if amount <= 0:
            continue
        _, lender, borrower, _ = key
        legs = amount * loans.weights_for(key)
        a1_leg = min(legs[0], max(banks.a1[borrower], 0.0))
        a2_leg = min(legs[1], max(banks.a2[borrower], 0.0))
        claim_target = legs[2] + (legs[0] - a1_leg) + (legs[1] - a2_leg)

        loans.reduce(key, amount)
        moved, cancelled = loans.reassign_claims(borrower, lender, claim_target)
        deficit = max(claim_target - moved, 0.0)
        if deficit > 0:
            loans.add(lender, borrower, period, LoanKind.ROLLOVER, deficit,
                      rollover_weights[borrower])
            rolled += deficit

        banks.a1[borrower] -= a1_leg
        banks.a1[lender] += a1_leg
        banks.a2[borrower] -= a2_leg
        banks.a2[lender] += a2_leg
        banks.a3[borrower] -= moved
        banks.a3[lender] += moved - cancelled + deficit - amount
        banks.l3[lender] -= cancelled
        banks.l3[borrower] -= amount - deficit

        repaid += amount
        count += 1
        cancelled_total += cancelled
    return InterbankRepaymentStats(repaid, count, rolled, cancelled_total)


@dataclass(frozen=True)
class PoolingState:
    """One period's pooling snapshot, taken after interbank repayment."""

    base: ReserveBase
    excess: np.ndarray          # lendable surplus per bank, zero unless above target
    need: np.ndarray            # reserve shortfall per bank, zero unless below target
    target_reserve: np.ndarray  # target ratio times deposits
    weights: np.ndarray         # (B, 3) lender transfer profile
    potential: np.ndarray       # (B, B) bool, lender rows x borrower columns
    actual: np.ndarray          # (B, B) bool, the pairs that will trade


def compute_pooling_state(banks: BankBalanceSheets, base: ReserveBase, target_ratio,
                          phi: float, matching: MatchingMode, rng: np.random.Generator,
                          alpha: float | None = None, lam: float | None = None) -> PoolingState:
    """Split banks into lenders and borrowers and select the pairs that trade.

    Surplus and shortage are measured against the target reserve (a bank
    with no deposits but positive reserves counts as surplus, with its whole
    holding lendable).  The potential matrix pairs every surplus bank with
    every shortage bank.  Match scores come either from one uniform draw per
    matrix cell on (0, 1] (a fixed-size draw, so runs sharing a seed remain
    comparable across phi), or from the preferential-attachment rule on the
    lender's equity ratio and the borrower's interbank exposure; a lender
    with no positive equity scores zero and is never selected.  Pairs whose
    score strictly exceeds phi trade: phi = 0 keeps every potential pair and
    phi = 1 rules out interbank credit entirely under uniform scores.
    """
    B = banks.n_banks
    reserve = sum_reserve(banks, base)
    dep = banks.deposits()
    target = np.asarray(target_ratio * dep, dtype=float)

    surplus = reserve > target
    shortage = reserve < target
    excess = np.where(surplus, reserve - target, 0.0)
    need = np.where(shortage, target - reserve, 0.0)

    potential = surplus[:, None] & shortage[None, :]

    if matching is MatchingMode.EXOGENOUS:
        scores = 1.0 - uniform_matrix(B, B, rng)
    else:
        liabilities = banks.l1 + banks.l2 + banks.l3 + banks.l5
        equity_ratio = np.divide(banks.l4, liabilities, out=np.zeros(B), where=liabilities > 0)
        np.maximum(equity_ratio, 0.0, out=equity_ratio)
        exposure = np.divide(banks.l3, liabilities, out=np.zeros(B), where=liabilities > 0)
        np.maximum(exposure, 0.0, out=exposure)  # l3 can end a rounding step below zero
        with np.errstate(divide="ignore", over="ignore"):  # an infinite distance scores zero
            lender_term = alpha * np.power(equity_ratio, -alpha)
            distance = lender_term[:, None] + alpha * np.power(exposure, alpha)[None, :]
            scores = lam * np.exp(-lam * distance)
        if not np.isfinite(scores).all():
            lender, borrower = np.argwhere(~np.isfinite(scores))[0]
            raise SimulationError(f"non-finite match score for lender {lender}, "
                                  f"borrower {borrower}")

    actual = potential & (scores > phi)
    return PoolingState(
        base=base,
        excess=excess,
        need=need,
        target_reserve=target,
        weights=reserve_weights(banks, base),
        potential=potential,
        actual=actual,
    )


@dataclass(frozen=True)
class PoolingStats:
    issued_volume: float
    issued_count: int
    cancelled_volume: float


def allocate_pooled_credit(banks: BankBalanceSheets, loans: InterbankLoanLedger,
                           state: PoolingState, period: int,
                           transfer_on_issue: bool = True):
    """Move pooled reserves from matched lenders to borrowers.

    Each borrower borrows its reserve shortfall, bounded by the total
    excess of the lenders it actually matched, split across them pro rata
    to their surpluses: a poorly connected borrower can only raise what its
    reachable corner of the pool holds.  An oversubscribed lender scales
    its borrowers back pro rata, so nobody lends beyond its surplus or
    borrows beyond its need.

    Under a base that counts interbank claims (broad, securitised) the
    pool also finances the system gap, the part of total need that total
    excess could not cover even if every pair traded; interbank repayment
    opens one when it extinguishes claims that counted as reserves.  Under
    these bases a lender pays a loan in reserve components and books a
    claim that is itself a reserve, so the loan leaves the lender's holding
    unchanged and adds its amount to the system's reserves.  Under the
    narrow base the claim is no reserve, a loan only moves reserves, and
    no gap can be financed.  The gap is shared over every lender-borrower
    pair, pro rata to what the lender still holds to pay with once its
    excess is lent and to what the excess left the borrower short, and a
    pair carries its share only if it trades.  Perfect pooling therefore
    covers the whole gap unless it exceeds what the lenders still hold to
    pay with; the share of each pair that fails to trade falls to the
    central bank, along with the shortfall that fragmentation leaves.

    The loan is booked as new interbank credit and the funds move as a
    transfer of reserve components, by default in the lender's snapshot
    proportions; a leg the lender cannot serve shifts onto its other
    components, so the full amount is delivered whenever the lender holds
    any mix of reserves to pay with.  Handing the borrower its own debt
    back (a cancellation rather than a delivery) is the last resort.  With
    ``transfer_on_issue`` off no reserves move at all: the proceeds are
    credited to an account the borrower holds at the lender, a mutual pair
    of gross positions that keeps both sheets balanced and delivers
    reserves only where such a claim itself counts as one.  Returns each
    borrower's unmet reserve need, measured by delivered reserves so the
    guarantee that follows tops the borrower up to exactly its target,
    plus issuance statistics.
    """
    B = banks.n_banks
    borrowers = np.flatnonzero(state.need > 0)
    if borrowers.size == 0 or state.excess.sum() <= 0:
        return state.need.copy(), PoolingStats(0.0, 0, 0.0)

    grid = np.zeros((B, B))
    for b in borrowers:
        matched = np.flatnonzero(state.actual[:, b])
        if matched.size == 0:
            continue
        pool = state.excess[matched].sum()
        if pool <= 0:
            continue
        grid[matched, b] = min(state.need[b], pool) * state.excess[matched] / pool

    out_totals = grid.sum(axis=1)
    over = out_totals > state.excess
    if np.any(over):
        grid[over] *= (state.excess[over] / out_totals[over])[:, None]

    gap = state.need.sum() - state.excess.sum()
    if state.base.component_mask[2] > 0 and gap > 0:
        holding = np.where(state.excess > 0, state.excess + state.target_reserve, 0.0)
        room = holding - grid.sum(axis=1)
        left = state.need - grid.sum(axis=0)
        if room.sum() > 0:
            # each pair's share of the system gap, carried only if the pair trades
            share = np.outer(room / room.sum(), left / left.sum())
            grid += min(gap, room.sum()) * share * state.actual
    if np.any(grid < 0):
        raise LedgerError("negative pooled allocation")

    pairs = [(int(l), int(b), grid[l, b])
             for b in borrowers for l in np.flatnonzero(grid[:, b] > 0)]
    if not pairs:
        return state.need.copy(), PoolingStats(0.0, 0, 0.0)

    delivered = np.zeros(B)
    cancelled_total = 0.0
    in_base = state.base.component_mask
    if transfer_on_issue:
        for lender, borrower, amount in pairs:
            legs = amount * state.weights[lender]
            a1_move = min(legs[0], max(banks.a1[lender], 0.0))
            a2_move = min(legs[1], max(banks.a2[lender], 0.0))
            moved, _ = loans.reassign_claims(lender, borrower,
                                             amount - a1_move - a2_move,
                                             include_self=False)
            # whatever the third-party claims could not carry shifts back
            # onto currency, then retail loans, then the borrower's own debt
            residual = amount - a1_move - a2_move - moved
            if residual > 0 and in_base[0]:
                extra = min(residual, max(banks.a1[lender] - a1_move, 0.0))
                a1_move += extra
                residual -= extra
            if residual > 0 and in_base[1]:
                extra = min(residual, max(banks.a2[lender] - a2_move, 0.0))
                a2_move += extra
                residual -= extra
            cancelled = 0.0
            if residual > 0:
                moved_self, cancelled = loans.reassign_claims(lender, borrower, residual)
                moved += moved_self
            banks.a1[lender] -= a1_move
            banks.a1[borrower] += a1_move
            banks.a2[lender] -= a2_move
            banks.a2[borrower] += a2_move
            banks.a3[lender] -= moved
            banks.a3[borrower] += moved - cancelled
            banks.l3[borrower] -= cancelled
            cancelled_total += cancelled
            delivered[borrower] += (in_base[0] * a1_move + in_base[1] * a2_move
                                    + in_base[2] * (moved - cancelled))

    # Book the new positions once every transfer has landed, so one
    # post-transfer weight snapshot per borrower backs all of them.
    post_weights = reserve_weights(banks, state.base)
    issued = 0.0
    count = 0
    for lender, borrower, amount in pairs:
        loans.add(lender, borrower, period, LoanKind.POOLED, amount, post_weights[borrower])
        banks.a3[lender] += amount
        banks.l3[borrower] += amount
        if not transfer_on_issue:
            # the borrower's side of the cross deposit: a claim on the lender
            loans.add(borrower, lender, period, LoanKind.POOLED, amount,
                      post_weights[lender])
            banks.a3[borrower] += amount
            banks.l3[lender] += amount
            delivered[borrower] += in_base[2] * amount
        issued += amount
        count += 1

    unmet = np.maximum(state.need - delivered, 0.0)
    return unmet, PoolingStats(issued, count, cancelled_total)
