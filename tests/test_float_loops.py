"""The per-position settlement loops run on Python floats; these tests hold
them to the NumPy-scalar loops they replaced, bit for bit, on random sheets
and ledgers.

The references below are the earlier ``repay_interbank_loans`` and
``allocate_pooled_credit``, which indexed the sheet arrays one element at a
time.  Only the reading of the ledger changed: it stores weight snapshots as
tuples, which the references turn back into arrays, and keys positions by
packed ints, which the references unpack one field at a time.
"""

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minibank import (
    BankBalanceSheets,
    InterbankLoanLedger,
    LoanKind,
    MatchingMode,
    ReserveBase,
    RngStreams,
    allocate_pooled_credit,
    compute_pooling_state,
    repay_interbank_loans,
)
from minibank.interbank import InterbankRepaymentStats, PoolingStats
from minibank.ledger import reserve_weights
from minibank.stochastics import keyed_threshold_draw
from conftest import unpack

PERIOD = 4


def _reference_repay(banks, loans, omega, base, period, decision_seed):
    keys = [k for k in loans.sorted_keys() if unpack(loans.layout, k)[0] < period]
    fields = (np.array([unpack(loans.layout, k)[i] for k in keys], dtype=np.int64)
              for i in (1, 2, 0, 3))
    draws = keyed_threshold_draw(decision_seed, period, *fields)
    due = [(keys[i], loans.amount(keys[i])) for i in np.flatnonzero(draws > omega)]
    if not due:
        return InterbankRepaymentStats(0.0, 0, 0.0, 0.0)
    rollover_weights = reserve_weights(banks, base)
    repaid = 0.0
    count = 0
    rolled = 0.0
    cancelled_total = 0.0
    for key, frozen in due:
        amount = min(frozen, loans.amount(key))
        if amount <= 0:
            continue
        _, lender, borrower, _ = unpack(loans.layout, key)
        legs = amount * np.array(loans.weights_for(key))
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


def _reference_allocate(banks, loans, state, period, transfer_on_issue, branches):
    """The earlier allocate_pooled_credit; ``branches`` counts the residual
    shifts onto currency and retail loans it takes."""
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
            share = np.outer(room / room.sum(), left / left.sum())
            grid += min(gap, room.sum()) * share * state.actual
    pairs = [(int(l), int(b), grid[l, b])
             for b in borrowers for l in np.flatnonzero(grid[:, b] > 0)]
    if not pairs:
        return state.need.copy(), PoolingStats(0.0, 0, 0.0)
    delivered = np.zeros(B)
    cancelled_total = 0.0
    in_base = state.base.component_mask
    if transfer_on_issue:
        for lender, borrower, amount in pairs:
            legs = amount * np.array(state.weights[lender])
            a1_move = min(legs[0], max(banks.a1[lender], 0.0))
            a2_move = min(legs[1], max(banks.a2[lender], 0.0))
            moved, _ = loans.reassign_claims(lender, borrower,
                                             amount - a1_move - a2_move,
                                             include_self=False)
            residual = amount - a1_move - a2_move - moved
            if residual > 0 and in_base[0]:
                extra = min(residual, max(banks.a1[lender] - a1_move, 0.0))
                a1_move += extra
                residual -= extra
                branches["a1"] += extra > 0
            if residual > 0 and in_base[1]:
                extra = min(residual, max(banks.a2[lender] - a2_move, 0.0))
                a2_move += extra
                residual -= extra
                branches["a2"] += extra > 0
            cancelled = 0.0
            if residual > 0:
                moved_self, cancelled = loans.reassign_claims(lender, borrower, residual)
                moved += moved_self
                branches["own debt"] += cancelled > 0
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
    post_weights = reserve_weights(banks, state.base)
    issued = 0.0
    count = 0
    for lender, borrower, amount in pairs:
        loans.add(lender, borrower, period, LoanKind.POOLED, amount, post_weights[borrower])
        banks.a3[lender] += amount
        banks.l3[borrower] += amount
        if not transfer_on_issue:
            loans.add(borrower, lender, period, LoanKind.POOLED, amount,
                      post_weights[lender])
            banks.a3[borrower] += amount
            banks.l3[lender] += amount
            delivered[borrower] += in_base[2] * amount
        issued += amount
        count += 1
    unmet = np.maximum(state.need - delivered, 0.0)
    return unmet, PoolingStats(issued, count, cancelled_total)


# Round amounts next to awkward ones, so partial sums round; currency and
# retail loans run from small negative dust (max(x, 0) clamps it) to plenty.
_AMOUNT = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.1, 0.2, 0.3, 1e-16, 1.0 + 2**-52]))
_HOLDING = st.one_of(st.floats(0, 500), st.sampled_from([0.0, -1e-12, 0.3]))
_SHARE = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0]))


@st.composite
def _books(draw):
    """Random sheets and a ledger on 3-5 banks whose a3/l3 match it; only
    wire netting has issued loans in PERIOD so far."""
    B = draw(st.integers(3, 5))
    positions = draw(st.lists(
        st.tuples(st.integers(0, PERIOD), st.integers(0, B - 1), st.integers(0, B - 1),
                  st.sampled_from(list(LoanKind)), _AMOUNT)
        .filter(lambda p: p[1] != p[2] and (p[0] < PERIOD or p[3] is LoanKind.WIRE)),
        max_size=25))
    snapshots = {}
    for period, _, borrower, kind, _ in positions:
        if (period, borrower, kind) not in snapshots:
            w = draw(st.tuples(_SHARE, _SHARE, _SHARE))
            total = sum(w)
            snapshots[period, borrower, kind] = (tuple(x / total for x in w) if total > 0
                                                 else (1.0, 0.0, 0.0))
    banks = BankBalanceSheets.zeros(B)
    banks.a1[:] = draw(st.lists(_HOLDING, min_size=B, max_size=B))
    banks.a2[:] = draw(st.lists(_HOLDING, min_size=B, max_size=B))
    banks.l1[:] = draw(st.lists(st.floats(0, 1000), min_size=B, max_size=B))
    loans = InterbankLoanLedger(B)
    for period, lender, borrower, kind, amount in positions:
        loans.add(lender, borrower, period, kind, amount, snapshots[period, borrower, kind])
    banks.a3[:], banks.l3[:] = loans.bank_sums()
    return banks, positions, snapshots


def _copies(banks, positions, snapshots):
    """Two equal (sheets, ledger) pairs built from one drawn book."""
    out = []
    for _ in range(2):
        loans = InterbankLoanLedger(banks.n_banks)
        for period, lender, borrower, kind, amount in positions:
            loans.add(lender, borrower, period, kind, amount, snapshots[period, borrower, kind])
        out.append((copy.deepcopy(banks), loans))
    return out


def _assert_same(got, want):
    (banks, loans), (ref_banks, ref_loans) = got, want
    assert banks.snapshot().tobytes() == ref_banks.snapshot().tobytes()
    assert loans.sorted_keys() == ref_loans.sorted_keys()
    assert [loans.amount(k) for k in loans.sorted_keys()] == \
        [ref_loans.amount(k) for k in ref_loans.sorted_keys()]
    assert loans._by_lender == ref_loans._by_lender
    assert loans._weights == ref_loans._weights


@given(_books(), st.sampled_from(list(ReserveBase)),
       st.sampled_from([0.0, 0.3, 0.7]), st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_repayment_matches_numpy_scalar_reference(book, base, omega, decision_seed):
    new, ref = _copies(*book)
    stats = repay_interbank_loans(*new, omega, base, PERIOD, decision_seed)
    want = _reference_repay(*ref, omega, base, PERIOD, decision_seed)
    assert dataclasses.astuple(stats) == dataclasses.astuple(want)
    _assert_same(new, ref)


def _allocation_case(book, base, target_ratio, phi, transfer_on_issue, branches):
    new, ref = _copies(*book)
    states = [compute_pooling_state(banks, base, target_ratio, phi, MatchingMode.EXOGENOUS,
                                    RngStreams(7).stream("matching", PERIOD))
              for banks, _ in (new, ref)]
    unmet, stats = allocate_pooled_credit(*new, states[0], PERIOD, transfer_on_issue)
    want_unmet, want = _reference_allocate(*ref, states[1], PERIOD, transfer_on_issue,
                                           branches)
    assert unmet.tobytes() == want_unmet.tobytes()
    assert dataclasses.astuple(stats) == dataclasses.astuple(want)
    _assert_same(new, ref)


_ALLOCATION_ARGS = (_books(), st.sampled_from(list(ReserveBase)),
                    st.floats(0.01, 0.5), st.sampled_from([0.0, 0.3]), st.booleans())


@given(*_ALLOCATION_ARGS)
@settings(max_examples=200, deadline=None)
def test_allocation_matches_numpy_scalar_reference(book, base, target_ratio, phi,
                                                   transfer_on_issue):
    _allocation_case(book, base, target_ratio, phi, transfer_on_issue,
                     dict.fromkeys(("a1", "a2", "own debt"), 0))


def test_random_books_reach_every_residual_shift():
    # the examples the property test draws take each shift of a residual
    # that the third-party claims could not carry
    branches = dict.fromkeys(("a1", "a2", "own debt"), 0)

    @given(*_ALLOCATION_ARGS)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def run(book, base, target_ratio, phi, transfer_on_issue):
        _allocation_case(book, base, target_ratio, phi, transfer_on_issue, branches)

    run()
    assert all(branches.values()), branches
