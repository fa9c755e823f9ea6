"""Interbank credit: the outstanding-loan ledger, stochastic repayment, and
the per-period reserve pooling that matches surplus banks to shortage banks.

The ledger is the book of record for interbank positions: each phase books
in it every change it makes to the balance-sheet items a3 and l3, and the
state check holds per-bank ledger sums and sheet items equal within ``TOL``.
Reserve transfers settle partly in claims held on third banks; those legs
are implemented as reassignment of ledger entries from one creditor to
another, with claims a bank would end up holding on itself cancelled
outright.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum, IntEnum

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


class KeyLayout:
    """How a ledger position packs into one Python int.

    A position (issue period, lender, borrower, kind) is
    ``period << (2*bits + 2) | lender << (bits + 2) | borrower << 2 | kind``
    with ``bits = (B - 1).bit_length()``, so keys compare exactly as the
    4-tuples do.  An issuance (issue period, borrower, kind) is a position
    key with its lender bits cleared.  ``last_period`` is the largest issue
    period whose keys, and the int64 fields decoded from them, all fit in a
    signed 64-bit integer (-1 if none do).
    """

    def __init__(self, n_banks: int):
        bits = (n_banks - 1).bit_length()
        self.bank_mask = (1 << bits) - 1
        self.lender_shift = bits + 2
        self.period_shift = 2 * bits + 2
        self.issue_mask = ~(self.bank_mask << self.lender_shift)
        self.last_period = (1 << 63 - self.period_shift) - 1 if self.period_shift <= 63 else -1

    def pack(self, period: int, lender: int, borrower: int, kind: int) -> int:
        return period << self.period_shift | lender << self.lender_shift | borrower << 2 | kind

    def fields(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (lender, borrower, issue period, kind) arrays of int64 keys."""
        mask = self.bank_mask
        return keys >> self.lender_shift & mask, keys >> 2 & mask, keys >> self.period_shift, keys & 3


class InterbankLoanLedger:
    """Sparse record of outstanding interbank loans.

    Positions are keyed by one int that packs (issue period, lender,
    borrower, kind) (see ``KeyLayout``), so the keys' natural order is the
    canonical order every mutation pass iterates in.  Each lender's
    positions are also kept as a sorted list, so a reassignment walks them
    oldest first without sorting: one scan finds the take, one walk rebooks
    claims on third banks and, if they fall short, one more cancels claims
    on the receiver.
    An issuance carries the borrower's reserve-component weights
    snapshotted when it was created; repayments settle against that
    snapshot, which is kept for the rest of the run (at most three per
    borrower per period).  Positions that share a key merge, which keeps
    the ledger size bounded no matter how often claims get reassigned
    between creditors.
    """

    def __init__(self, n_banks: int):
        self.n_banks = n_banks
        self.layout = KeyLayout(n_banks)
        self._amounts: dict[int, float] = {}
        self._weights: dict[int, tuple[float, float, float]] = {}  # by issuance key
        self._by_lender: list[list[int]] = [[] for _ in range(n_banks)]  # sorted keys

    def __len__(self) -> int:
        return len(self._amounts)

    def add(self, lender: int, borrower: int, period: int, kind: LoanKind,
            amount: float, weights: tuple[float, float, float]) -> None:
        """Book a positive ``amount`` on the position, merging into an open one.

        ``weights`` is the issuance's snapshot, a tuple of three floats as
        ``reserve_weights`` gives it.  Banks and period are Python ints and
        ``amount`` a Python float; all are used as given, not converted.
        """
        if not amount > 0:
            raise LedgerError(f"cannot book a non-positive amount {amount!r}")
        if lender == borrower:
            raise LedgerError("a bank cannot lend to itself")
        if not (0 <= lender < self.n_banks and 0 <= borrower < self.n_banks):
            raise LedgerError(f"no bank {lender} or {borrower} among {self.n_banks}")
        key = self.layout.pack(period, lender, borrower, kind)
        issue = key & self.layout.issue_mask
        existing = self._weights.get(issue)
        if existing is None:
            self._weights[issue] = weights
        elif existing != weights:
            raise LedgerError(f"conflicting weight snapshots for issuance "
                              f"{(period, borrower, kind)}")
        if key in self._amounts:
            self._amounts[key] += amount
        else:
            self._amounts[key] = amount
            insort(self._by_lender[lender], key)

    def amount(self, key: int) -> float:
        return self._amounts.get(key, 0.0)

    def weights_for(self, key: int) -> tuple[float, float, float]:
        return self._weights[key & self.layout.issue_mask]

    def reduce(self, key: int, amount: float) -> None:
        left = self._amounts[key] - amount
        if left > 0.0:
            self._amounts[key] = left
            return
        del self._amounts[key]
        held = self._by_lender[key >> self.layout.lender_shift & self.layout.bank_mask]
        del held[bisect_left(held, key)]

    def sorted_keys(self) -> list[int]:
        """All outstanding positions in canonical order."""
        return sorted(self._amounts)

    def bank_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """What each bank has lent and borrowed, summed in insertion order."""
        n = len(self._amounts)
        keys = np.fromiter(self._amounts, dtype=np.int64, count=n)
        amounts = np.fromiter(self._amounts.values(), dtype=float, count=n)
        lenders, borrowers, _, _ = self.layout.fields(keys)
        return (np.bincount(lenders, weights=amounts, minlength=self.n_banks),
                np.bincount(borrowers, weights=amounts, minlength=self.n_banks))

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
        sheet updates.  The banks always differ: ``add`` refuses self-loans,
        and pooling pairs a bank in surplus with one short of its target.
        """
        if requested <= 0:
            return 0.0, 0.0
        amounts, layout = self._amounts, self.layout
        held = self._by_lender[from_bank]
        on_self = to_bank << 2
        borrower_field = layout.bank_mask << 2

        # The take is min(requested, sum of every candidate): float partial
        # sums of positive amounts never decrease, so the scan stops once
        # they reach requested.
        take = 0.0
        for key in held:
            if key & borrower_field != on_self:
                take += amounts[key]
                if take >= requested:
                    take = requested
                    break
        else:
            if include_self:
                for key in held:
                    if key & borrower_field == on_self:
                        take += amounts[key]
                        if take >= requested:
                            take = requested
                            break
        if take <= 0:
            return 0.0, 0.0

        # Rebook claims on third banks to to_bank: reduce then add, inlined.
        # The rebooked part is a positive float of a position that keeps its
        # issuance, so nothing is converted and the issuance's snapshot
        # serves it as it is.  Where rounding ends a claim short of take, the
        # dust comes from the next claim in line.  Each walk stops as soon as
        # moved reaches take, so every part is positive.  Closed keys leave
        # held after the walk.
        to_held = self._by_lender[to_bank]
        to_lender = to_bank << layout.lender_shift
        clear_lender = layout.issue_mask
        moved = 0.0
        gone = []
        for key in held:
            if key & borrower_field == on_self:
                continue
            amount = amounts[key]
            part = min(take - moved, amount)
            left = amount - part
            if left > 0.0:
                amounts[key] = left
            else:
                del amounts[key]
                gone.append(key)
            new = key & clear_lender | to_lender
            if new in amounts:
                amounts[new] += part
            else:
                amounts[new] = part
                insort(to_held, new)
            moved += part
            if moved >= take:
                break
        for key in gone:
            del held[bisect_left(held, key)]

        # Cancel claims on to_bank, in the same order, for what is left.
        cancelled = 0.0
        if include_self and moved < take:
            for key in [k for k in held if k & borrower_field == on_self]:
                part = min(take - moved, amounts[key])
                self.reduce(key, part)
                cancelled += part
                moved += part
                if moved >= take:
                    break
        return moved, cancelled

    def check_consistency(self, banks: BankBalanceSheets) -> float:
        """Check that per-bank ledger sums match a3/l3; returns the worst
        relative residual and raises LedgerError past ``TOL``."""
        lent, borrowed = self.bank_sums()
        return worst_residual({"ledger a3": np.abs(lent - banks.a3),
                               "ledger l3": np.abs(borrowed - banks.l3)},
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
    Draws lie in (0, 1], so at omega >= 1 none is due and the phase returns
    without drawing.
    """
    if omega >= 1.0:
        return InterbankRepaymentStats(0.0, 0, 0.0, 0.0)
    layout = loans.layout
    keys = loans.sorted_keys()
    keys = keys[:bisect_left(keys, period << layout.period_shift)]  # issued before this period
    fields = layout.fields(np.fromiter(keys, dtype=np.int64, count=len(keys)))
    draws = keyed_threshold_draw(decision_seed, period, *fields)
    due = [(keys[i], loans.amount(keys[i])) for i in np.flatnonzero(draws > omega)]

    # One weight snapshot per phase backs every refinancing made during it.
    rollover_weights = reserve_weights(banks, base)

    # The loop runs on Python floats, which round as float64 does, so the
    # bits are those of the same steps on the arrays.
    a1, a2, a3, l3 = (banks.a1.tolist(), banks.a2.tolist(), banks.a3.tolist(),
                      banks.l3.tolist())
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
        lender = key >> layout.lender_shift & layout.bank_mask
        borrower = key >> 2 & layout.bank_mask
        w1, w2, w3 = loans.weights_for(key)
        leg1, leg2, leg3 = amount * w1, amount * w2, amount * w3
        a1_leg = min(leg1, max(a1[borrower], 0.0))
        a2_leg = min(leg2, max(a2[borrower], 0.0))
        claim_target = leg3 + (leg1 - a1_leg) + (leg2 - a2_leg)

        loans.reduce(key, amount)
        moved, cancelled = loans.reassign_claims(borrower, lender, claim_target)
        deficit = max(claim_target - moved, 0.0)
        if deficit > 0:
            loans.add(lender, borrower, period, LoanKind.ROLLOVER, deficit,
                      rollover_weights[borrower])
            rolled += deficit

        a1[borrower] -= a1_leg
        a1[lender] += a1_leg
        a2[borrower] -= a2_leg
        a2[lender] += a2_leg
        a3[borrower] -= moved
        a3[lender] += moved - cancelled + deficit - amount
        l3[lender] -= cancelled
        l3[borrower] -= amount - deficit

        repaid += amount
        count += 1
        cancelled_total += cancelled
    banks.a1[:], banks.a2[:], banks.a3[:], banks.l3[:] = a1, a2, a3, l3
    return InterbankRepaymentStats(repaid, count, rolled, cancelled_total)


@dataclass(frozen=True)
class PoolingState:
    """One period's pooling snapshot, taken after interbank repayment."""

    base: ReserveBase
    excess: np.ndarray          # lendable surplus per bank, zero unless above target
    need: np.ndarray            # reserve shortfall per bank, zero unless below target
    target_reserve: np.ndarray  # target ratio times deposits
    weights: list[tuple[float, float, float]]  # lender transfer profiles
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
    target = target_ratio * dep

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
    grid = np.zeros((B, B))
    for b in borrowers:
        matched = np.flatnonzero(state.actual[:, b])
        pool = state.excess[matched].sum()
        if pool <= 0:
            continue
        grid[matched, b] = min(state.need[b], pool) * state.excess[matched] / pool

    out_totals = grid.sum(axis=1)
    over = out_totals > state.excess
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
    # a borrower's matched shares can sum to an ulp above its need: left < 0,
    # and that negative gap share can outweigh a tiny first-pass share
    if np.any(grid < 0):
        raise LedgerError("negative pooled allocation")

    pairs = [(l, b, grid[l, b].item())
             for b in borrowers.tolist() for l in np.flatnonzero(grid[:, b] > 0).tolist()]

    # Both loops run on Python floats, as in repay_interbank_loans.
    a1, a2, a3, l3 = (banks.a1.tolist(), banks.a2.tolist(), banks.a3.tolist(),
                      banks.l3.tolist())
    delivered = [0.0] * B
    cancelled_total = 0.0
    in_base = state.base.component_mask.tolist()
    if transfer_on_issue:
        for lender, borrower, amount in pairs:
            w1, w2, _ = state.weights[lender]
            a1_move = min(amount * w1, max(a1[lender], 0.0))
            a2_move = min(amount * w2, max(a2[lender], 0.0))
            moved, _ = loans.reassign_claims(lender, borrower,
                                             amount - a1_move - a2_move,
                                             include_self=False)
            # whatever the third-party claims could not carry shifts back
            # onto currency, then retail loans, then the borrower's own debt
            residual = amount - a1_move - a2_move - moved
            if residual > 0 and in_base[0]:
                extra = min(residual, max(a1[lender] - a1_move, 0.0))
                a1_move += extra
                residual -= extra
            if residual > 0 and in_base[1]:
                extra = min(residual, max(a2[lender] - a2_move, 0.0))
                a2_move += extra
                residual -= extra
            cancelled = 0.0
            if residual > 0:
                moved_self, cancelled = loans.reassign_claims(lender, borrower, residual)
                moved += moved_self
            a1[lender] -= a1_move
            a1[borrower] += a1_move
            a2[lender] -= a2_move
            a2[borrower] += a2_move
            a3[lender] -= moved
            a3[borrower] += moved - cancelled
            l3[borrower] -= cancelled
            cancelled_total += cancelled
            delivered[borrower] += (in_base[0] * a1_move + in_base[1] * a2_move
                                    + in_base[2] * (moved - cancelled))
        banks.a1[:], banks.a2[:], banks.a3[:], banks.l3[:] = a1, a2, a3, l3

    # Book the new positions once every transfer has landed, so one
    # post-transfer weight snapshot per borrower backs all of them.
    post_weights = reserve_weights(banks, state.base)
    issued = 0.0
    count = 0
    for lender, borrower, amount in pairs:
        loans.add(lender, borrower, period, LoanKind.POOLED, amount, post_weights[borrower])
        a3[lender] += amount
        l3[borrower] += amount
        if not transfer_on_issue:
            # the borrower's side of the cross deposit: a claim on the lender
            loans.add(borrower, lender, period, LoanKind.POOLED, amount,
                      post_weights[lender])
            a3[borrower] += amount
            l3[lender] += amount
            delivered[borrower] += in_base[2] * amount
        issued += amount
        count += 1
    banks.a3[:], banks.l3[:] = a3, l3

    unmet = np.maximum(state.need - delivered, 0.0)
    return unmet, PoolingStats(issued, count, cancelled_total)
