import dataclasses

import numpy as np
import pytest

from minibank import (
    BankBalanceSheets,
    InterbankLoanLedger,
    LedgerError,
    LoanKind,
    MatchingMode,
    ReserveBase,
    RngStreams,
    ScenarioConfig,
    allocate_pooled_credit,
    compute_pooling_state,
    get_preset,
    init_state,
    repay_interbank_loans,
    run_period,
    run_scenario,
    sum_reserve,
)

W_A1 = np.array([1.0, 0.0, 0.0])


def _issuances(loans):
    """Snapshotted issuances and live ones, each as (period, borrower, kind)."""
    live = {(period, borrower, kind) for period, _, borrower, kind in loans.sorted_keys()}
    return set(loans._weights), live


def _match_rng(seed=1, period=1):
    return RngStreams(seed).stream("matching", period)


class TestLedger:
    def test_merge_same_key(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.WIRE, 10.0, W_A1)
        loans.add(0, 1, 2, LoanKind.WIRE, 5.0, W_A1)
        assert len(loans) == 1
        assert loans.total() == pytest.approx(15.0)

    def test_self_loan_rejected(self):
        loans = InterbankLoanLedger(3)
        with pytest.raises(LedgerError):
            loans.add(1, 1, 0, LoanKind.WIRE, 1.0, W_A1)

    def test_conflicting_weight_snapshot_rejected(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.WIRE, 10.0, W_A1)
        with pytest.raises(LedgerError):
            loans.add(2, 1, 2, LoanKind.WIRE, 1.0, np.array([0.5, 0.0, 0.5]))

    def test_sums_by_side(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 10.0, W_A1)
        loans.add(2, 1, 1, LoanKind.POOLED, 4.0, W_A1)
        assert np.array_equal(loans.lender_sums(), np.array([10.0, 0.0, 4.0]))
        assert np.array_equal(loans.borrower_sums(), np.array([0.0, 14.0, 0.0]))

    def test_reassign_prefers_third_party_claims(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)  # claim on the receiver
        loans.add(0, 2, 1, LoanKind.WIRE, 50.0, W_A1)  # third-party claim
        moved, cancelled = loans.reassign_claims(0, 1, 40.0)
        assert moved == pytest.approx(40.0)
        assert cancelled == 0.0
        assert loans.amount((1, 1, 2, LoanKind.WIRE)) == pytest.approx(40.0)

    def test_reassign_cancels_self_claims_last(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)
        loans.add(0, 2, 1, LoanKind.WIRE, 30.0, W_A1)
        moved, cancelled = loans.reassign_claims(0, 1, 70.0)
        assert moved == pytest.approx(70.0)
        assert cancelled == pytest.approx(40.0)  # claims on bank 1 extinguished
        assert loans.amount((1, 0, 1, LoanKind.WIRE)) == pytest.approx(10.0)

    def test_reassign_exclude_self(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)
        moved, cancelled = loans.reassign_claims(0, 1, 20.0, include_self=False)
        assert moved == 0.0 and cancelled == 0.0

    def test_reassign_moves_exactly_what_is_available(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 2, 1, LoanKind.WIRE, 30.0, W_A1)
        moved, _ = loans.reassign_claims(0, 1, 100.0)
        assert moved == 30.0
        assert loans.lender_sums()[0] == 0.0

    def test_sorted_keys_in_canonical_order(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.ROLLOVER, 1.0, W_A1)
        loans.add(2, 0, 1, LoanKind.WIRE, 1.0, W_A1)
        loans.add(0, 1, 2, LoanKind.WIRE, 1.0, W_A1)
        loans.add(0, 2, 1, LoanKind.POOLED, 1.0, W_A1)
        loans.add(1, 2, 1, LoanKind.WIRE, 1.0, W_A1)
        loans.add(0, 1, 2, LoanKind.POOLED, 1.0, W_A1)
        assert loans.sorted_keys() == [
            (1, 0, 2, LoanKind.POOLED),
            (1, 1, 2, LoanKind.WIRE),
            (1, 2, 0, LoanKind.WIRE),
            (2, 0, 1, LoanKind.WIRE),
            (2, 0, 1, LoanKind.POOLED),
            (2, 0, 1, LoanKind.ROLLOVER),
        ]

    def test_snapshot_kept_until_last_holder_is_repaid(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.WIRE, 10.0, W_A1)
        loans.add(2, 1, 2, LoanKind.WIRE, 5.0, W_A1)
        loans.reduce((2, 0, 1, LoanKind.WIRE), 10.0)
        assert _issuances(loans) == ({(2, 1, LoanKind.WIRE)},) * 2
        loans.reduce((2, 2, 1, LoanKind.WIRE), 5.0)
        assert _issuances(loans) == (set(), set())

    def test_snapshot_follows_a_moved_claim(self):
        weights = np.array([0.25, 0.25, 0.5])
        loans = InterbankLoanLedger(3)
        loans.add(0, 2, 1, LoanKind.POOLED, 30.0, weights)
        loans.reassign_claims(0, 1, 30.0)
        assert loans.sorted_keys() == [(1, 1, 2, LoanKind.POOLED)]
        assert _issuances(loans) == ({(1, 2, LoanKind.POOLED)},) * 2
        assert np.array_equal(loans.weights_for((1, 1, 2, LoanKind.POOLED)), weights)
        loans.reassign_claims(1, 2, 30.0)  # back to the borrower: cancelled
        assert _issuances(loans) == (set(), set())

    def test_snapshot_freed_by_self_claim_cancellation(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)
        loans.add(0, 2, 1, LoanKind.POOLED, 30.0, W_A1)
        moved, cancelled = loans.reassign_claims(0, 1, 80.0)
        assert (moved, cancelled) == (80.0, 50.0)
        assert _issuances(loans) == ({(1, 2, LoanKind.POOLED)},) * 2


def test_snapshots_live_exactly_as_long_as_their_issuance():
    config = get_preset("baseline_perfect", seed=20260808)
    streams = RngStreams(config.seed)
    state = init_state(config, streams)
    for _ in range(config.T):
        run_period(state, config, streams)
        snapshots, live = _issuances(state.loans)
        assert len(snapshots) == len(live), f"period {state.period}"
        assert snapshots == live


def _sheet_with_loan(amount=100.0, borrower_a1=150.0):
    """Lender 0 holds a claim on borrower 1; identities hold exactly."""
    banks = BankBalanceSheets.zeros(2)
    banks.a3[0] = amount
    banks.l1[0] = amount  # funding side of the lender's claim
    banks.a1[1] = borrower_a1
    banks.l3[1] = amount
    banks.l1[1] = borrower_a1 - amount
    loans = InterbankLoanLedger(2)
    loans.add(0, 1, 0, LoanKind.POOLED, amount, W_A1)
    return banks, loans


class TestInterbankRepayment:
    def test_omega_one_never_repays(self):
        banks, loans = _sheet_with_loan()
        stats = repay_interbank_loans(banks, loans, 1.0, ReserveBase.NARROW, 5, 42)
        assert stats.repaid_count == 0
        assert loans.total() == pytest.approx(100.0)

    def test_omega_zero_repays_everything(self):
        banks, loans = _sheet_with_loan()
        stats = repay_interbank_loans(banks, loans, 0.0, ReserveBase.NARROW, 5, 42)
        assert stats.repaid_count == 1
        assert loans.total() == 0.0
        assert banks.a1[1] == pytest.approx(50.0)
        assert banks.a1[0] == pytest.approx(100.0)
        assert banks.a3[0] == 0.0
        assert banks.l3[1] == 0.0

    def test_loans_age_before_repaying(self):
        banks, loans = _sheet_with_loan()
        stats = repay_interbank_loans(banks, loans, 0.0, ReserveBase.NARROW, 0, 42)
        assert stats.repaid_count == 0  # issued this period, not yet due

    def test_currency_conserved(self):
        banks, loans = _sheet_with_loan()
        total = banks.a1.sum()
        repay_interbank_loans(banks, loans, 0.0, ReserveBase.NARROW, 5, 42)
        assert banks.a1.sum() == pytest.approx(total)
        assert banks.a1.min() >= 0.0

    def test_shortfall_rolls_over_as_new_loan(self):
        # the borrower holds less currency than it owes and has no claims
        # to hand over; what it cannot pay is refinanced by the same lender
        banks = BankBalanceSheets.zeros(2)
        banks.a3[0] = 100.0
        banks.a1[1] = 30.0
        banks.l3[1] = 100.0
        loans = InterbankLoanLedger(2)
        loans.add(0, 1, 0, LoanKind.POOLED, 100.0, W_A1)
        stats = repay_interbank_loans(banks, loans, 0.0, ReserveBase.NARROW, 5, 42)
        assert stats.repaid_count == 1
        assert stats.rollover_volume == pytest.approx(70.0)
        assert banks.a1[1] == 0.0
        assert banks.a1[0] == pytest.approx(30.0)
        # lender's claim: extinguished 100, rebooked 70
        assert banks.a3[0] == pytest.approx(70.0)
        assert banks.l3[1] == pytest.approx(70.0)
        loans.check_consistency(banks)
        key = (5, 0, 1, LoanKind.ROLLOVER)
        assert loans.amount(key) == pytest.approx(70.0)

    def test_identity_preserved_through_settlement(self):
        banks, loans = _sheet_with_loan()
        gap_before = banks.a1 + banks.a2 + banks.a3 - (banks.l1 + banks.l2 + banks.l3)
        repay_interbank_loans(banks, loans, 0.0, ReserveBase.NARROW, 5, 42)
        gap_after = banks.a1 + banks.a2 + banks.a3 - (banks.l1 + banks.l2 + banks.l3)
        assert gap_after == pytest.approx(gap_before)


def _pooling_sheet():
    """Bank 0 holds surplus currency; banks 1 and 2 are short 60 each."""
    banks = BankBalanceSheets.zeros(3)
    banks.a1[0] = 100.0
    banks.l1[1] = 600.0
    banks.l1[2] = 600.0
    return banks


class TestPoolingState:
    def test_surplus_and_shortage_split(self):
        state = compute_pooling_state(_pooling_sheet(), ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        assert state.excess[0] == pytest.approx(100.0)  # no deposits: whole holding lendable
        assert state.need[1] == pytest.approx(60.0)
        assert state.need[2] == pytest.approx(60.0)
        assert np.all(state.excess * state.need == 0.0)

    def test_perfect_pooling_keeps_every_pair(self):
        state = compute_pooling_state(_pooling_sheet(), ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        assert np.array_equal(state.actual, state.potential)
        assert state.potential.sum() == 2

    def test_phi_one_disables_interbank_credit(self):
        state = compute_pooling_state(_pooling_sheet(), ReserveBase.NARROW, 0.1, 1.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        assert not state.actual.any()

    def test_zero_equity_lender_never_selected(self):
        banks = _pooling_sheet()
        banks.a4[:] = banks.l4[:] = 0.0
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.ENDOGENOUS, _match_rng(),
                                      alpha=1.0, lam=1.0)
        assert state.potential.sum() == 2
        assert not state.actual.any()  # match score collapses to zero

    def test_positive_equity_lender_selected(self):
        banks = _pooling_sheet()
        banks.l1[0] = 100.0  # deposits funding the surplus holding
        banks.a4[0] = banks.l4[0] = 50.0
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.ENDOGENOUS, _match_rng(),
                                      alpha=1.0, lam=1.0)
        assert state.excess[0] == pytest.approx(90.0)
        assert state.actual.sum() == 2


class TestAllocation:
    def test_no_borrowers_is_noop(self):
        banks = BankBalanceSheets.zeros(2)
        banks.a1[:] = 100.0
        loans = InterbankLoanLedger(2)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        unmet, stats = allocate_pooled_credit(banks, loans, state, 1)
        assert stats.issued_count == 0
        assert np.all(unmet == 0.0)

    def test_oversubscribed_lender_scales_pro_rata(self):
        banks = _pooling_sheet()
        loans = InterbankLoanLedger(3)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        unmet, stats = allocate_pooled_credit(banks, loans, state, 1)
        # both borrowers claim 60 from the single lender, scaled back to 50 each
        assert stats.issued_volume == pytest.approx(100.0)
        assert unmet[1] == pytest.approx(10.0)
        assert unmet[2] == pytest.approx(10.0)
        assert banks.a3[0] == pytest.approx(100.0)
        assert banks.a1[0] == 0.0
        assert banks.a1[1] == pytest.approx(50.0)
        assert banks.l3[1] == pytest.approx(50.0)
        loans.check_consistency(banks)

    def test_lender_never_lends_beyond_excess(self):
        banks = _pooling_sheet()
        loans = InterbankLoanLedger(3)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        allocate_pooled_credit(banks, loans, state, 1)
        assert loans.lender_sums()[0] <= state.excess[0] * (1 + 1e-12)

    def test_borrower_never_borrows_beyond_need(self):
        banks = _pooling_sheet()
        banks.a1[0] = 1e6  # ample surplus
        loans = InterbankLoanLedger(3)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        unmet, _ = allocate_pooled_credit(banks, loans, state, 1)
        assert np.all(unmet == pytest.approx(0.0))
        assert loans.borrower_sums()[1] <= state.need[1] * (1 + 1e-12)

    def test_no_transfer_mode_books_positions_only(self):
        banks = _pooling_sheet()
        loans = InterbankLoanLedger(3)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        a1_before = banks.a1.copy()
        allocate_pooled_credit(banks, loans, state, 1, transfer_on_issue=False)
        assert np.array_equal(banks.a1, a1_before)
        assert banks.a3[0] == pytest.approx(100.0)
        loans.check_consistency(banks)


def _broad_gap_sheet():
    """Bank 0 holds 200 of currency against 1000 of deposits; banks 1 and 2
    hold only retail loans against 600 each.  At a 0.1 target under the
    broad base that is an excess of 100 against a need of 120: a system
    gap of 20."""
    banks = BankBalanceSheets.zeros(3)
    banks.a1[0] = 200.0
    banks.a2[:] = (800.0, 600.0, 600.0)
    banks.l1[:] = (1000.0, 600.0, 600.0)
    return banks


def _two_lender_gap_sheet():
    """Banks 0 and 1 each hold 200 of currency against 1000 of deposits
    (excess 100); banks 2 and 3 are short 150 each: a system gap of 100."""
    banks = BankBalanceSheets.zeros(4)
    banks.a1[:2] = 200.0
    banks.a2[:] = (800.0, 800.0, 1500.0, 1500.0)
    banks.l1[:] = (1000.0, 1000.0, 1500.0, 1500.0)
    return banks


def _broad_state(banks):
    return compute_pooling_state(banks, ReserveBase.BROAD, 0.1, 0.0,
                                 MatchingMode.EXOGENOUS, _match_rng())


class TestClaimCountingAllocation:
    def test_perfect_pooling_covers_need_beyond_excess(self):
        banks = _broad_gap_sheet()
        loans = InterbankLoanLedger(3)
        state = _broad_state(banks)
        assert state.excess.sum() == pytest.approx(100.0)
        assert state.need.sum() == pytest.approx(120.0)
        unmet, stats = allocate_pooled_credit(banks, loans, state, 1)
        assert stats.issued_volume == pytest.approx(120.0)
        assert unmet == pytest.approx(np.zeros(3), abs=1e-9)
        # the lender paid 120 of currency and booked 120 of claims, which
        # count as reserves: its holding, and every target, still holds
        holding = sum_reserve(banks, ReserveBase.BROAD)
        assert holding[0] == pytest.approx(200.0)
        assert np.all(holding >= state.target_reserve * (1 - 1e-12))
        loans.check_consistency(banks)

    def test_narrow_base_finances_no_gap(self):
        banks = _broad_gap_sheet()
        loans = InterbankLoanLedger(3)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        unmet, stats = allocate_pooled_credit(banks, loans, state, 1)
        # both borrowers claim 60 from bank 0, scaled back to its excess
        assert stats.issued_volume == pytest.approx(100.0)
        assert unmet[1:] == pytest.approx([10.0, 10.0])

    def test_gap_shared_by_what_lenders_still_hold(self):
        # bank 0: holding 100, excess 90; bank 1: holding 1000, excess 10;
        # bank 2 is short 500, so the gap is 400
        banks = BankBalanceSheets.zeros(3)
        banks.a1[:2] = (100.0, 1000.0)
        banks.a2[1:] = (8900.0, 5000.0)
        banks.l1[:] = (100.0, 9900.0, 5000.0)
        loans = InterbankLoanLedger(3)
        unmet, stats = allocate_pooled_credit(banks, loans, _broad_state(banks), 1)
        assert stats.issued_volume == pytest.approx(500.0)
        assert unmet[2] == pytest.approx(0.0, abs=1e-9)
        # excess first (90 and 10), then the gap pro rata to what is left
        # to pay with (10 and 990)
        assert loans.lender_sums()[:2] == pytest.approx([94.0, 406.0])
        loans.check_consistency(banks)

    def test_pair_that_fails_to_trade_leaves_its_gap_share(self):
        banks = _two_lender_gap_sheet()
        state = _broad_state(banks)
        complete = allocate_pooled_credit(banks.copy(), InterbankLoanLedger(4), state, 1)[0]
        assert complete == pytest.approx(np.zeros(4), abs=1e-9)

        actual = state.actual.copy()
        actual[1, 3] = False
        loans = InterbankLoanLedger(4)
        unmet, _ = allocate_pooled_credit(banks, loans,
                                          dataclasses.replace(state, actual=actual), 1)
        # excess: bank 2 draws 75 + 75, bank 3 draws 100 from bank 0 alone,
        # and bank 0 scales back from 175 to 100, leaving bank 2 short
        # 225/7 and bank 3 short 650/7 (125 in all).  The gap of 100 is
        # shared pro rata to room (100, 125) and to those shortfalls; the
        # share of the untraded pair (1, 3) is 100 * 5/9 * 26/35 = 2600/63.
        assert unmet.sum() == pytest.approx(125.0 - 100.0 + 2600.0 / 63.0)
        assert unmet[3] > unmet[2] > 0.0
        loans.check_consistency(banks)


def test_no_interbank_credit_without_wires_and_pooling():
    """phi = 1 with wire transfers off keeps a3 = l3 = 0 for every bank."""
    config = ScenarioConfig(seed=6, T=15, B=5, C=100, phi=1.0, xi2=0.0)
    trace = run_scenario(config)
    assert np.all(trace.item_series("a3") == 0.0)
    assert np.all(trace.item_series("l3") == 0.0)


def test_interbank_volume_shrinks_as_pooling_degrades():
    """Shared seeds: realised interbank issuance is non-increasing in phi."""
    config = ScenarioConfig(seed=77, T=25, B=8, C=400)
    issued = []
    for phi in (0.0, 0.4, 0.8):
        trace = run_scenario(dataclasses.replace(config, phi=phi))
        issued.append(trace.aggregates["interbank_issued"].sum())
    assert issued[0] >= issued[1] >= issued[2]
