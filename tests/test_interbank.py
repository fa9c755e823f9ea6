import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibank import (
    BankBalanceSheets,
    InterbankLoanLedger,
    LedgerError,
    LoanKind,
    MatchingMode,
    ReserveBase,
    RngStreams,
    ScenarioConfig,
    SimulationError,
    allocate_pooled_credit,
    compute_pooling_state,
    get_preset,
    init_state,
    repay_interbank_loans,
    run_period,
    run_scenario,
    sum_reserve,
)
from minibank import interbank
from minibank.interbank import KeyLayout
from conftest import unpack

W_A1 = (1.0, 0.0, 0.0)


def _issuances(loans):
    """Snapshotted issuances and open ones, each as (period, borrower, kind)."""
    def issuance(key):
        period, _, borrower, kind = unpack(loans.layout, key)
        return period, borrower, kind
    return set(map(issuance, loans._weights)), set(map(issuance, loans.sorted_keys()))


def _key(loans, period, lender, borrower, kind):
    return loans.layout.pack(period, lender, borrower, kind)


def _tuples(loans, keys):
    return [unpack(loans.layout, k) for k in keys]


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

    def test_unknown_bank_rejected(self):
        # a bank number past B would spill into a neighbouring key field
        loans = InterbankLoanLedger(3)
        with pytest.raises(LedgerError):
            loans.add(0, 3, 1, LoanKind.WIRE, 1.0, W_A1)
        with pytest.raises(LedgerError):
            loans.add(-1, 2, 1, LoanKind.WIRE, 1.0, W_A1)
        assert len(loans) == 0

    @pytest.mark.parametrize("amount", [0.0, -1.0, float("nan")])
    def test_non_positive_amount_rejected(self, amount):
        # nan <= 0 is false, so only `not amount > 0` refuses a NaN
        loans = InterbankLoanLedger(3)
        with pytest.raises(LedgerError, match="non-positive amount"):
            loans.add(0, 1, 1, LoanKind.WIRE, amount, W_A1)
        assert len(loans) == 0
        assert loans.total() == 0.0

    def test_conflicting_weight_snapshot_rejected(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.WIRE, 10.0, W_A1)
        with pytest.raises(LedgerError):
            loans.add(2, 1, 2, LoanKind.WIRE, 1.0, (0.5, 0.0, 0.5))

    def test_snapshot_is_a_tuple_of_floats_compared_by_value(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.POOLED, 10.0, (0.25, 0.25, 0.5))
        loans.add(2, 1, 2, LoanKind.POOLED, 1.0, tuple([0.25, 0.25, 0.5]))
        snapshot = loans.weights_for(_key(loans, 2, 2, 1, LoanKind.POOLED))
        assert snapshot == (0.25, 0.25, 0.5)
        assert all(type(w) is float for w in snapshot)
        with pytest.raises(LedgerError):
            loans.add(2, 1, 2, LoanKind.POOLED, 1.0, (0.25, 0.5, 0.25))

    def test_snapshot_conflict_refused_after_issuance_closes(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.WIRE, 10.0, W_A1)
        loans.reduce(_key(loans, 2, 0, 1, LoanKind.WIRE), 10.0)
        assert len(loans) == 0
        with pytest.raises(LedgerError, match="conflicting weight snapshots"):
            loans.add(2, 1, 2, LoanKind.WIRE, 1.0, (0.5, 0.0, 0.5))

    def test_sums_by_side(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 10.0, W_A1)
        loans.add(2, 1, 1, LoanKind.POOLED, 4.0, W_A1)
        lent, borrowed = loans.bank_sums()
        assert np.array_equal(lent, np.array([10.0, 0.0, 4.0]))
        assert np.array_equal(borrowed, np.array([0.0, 14.0, 0.0]))

    def test_reassign_prefers_third_party_claims(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)  # claim on the receiver
        loans.add(0, 2, 1, LoanKind.WIRE, 50.0, W_A1)  # third-party claim
        moved, cancelled = loans.reassign_claims(0, 1, 40.0)
        assert moved == pytest.approx(40.0)
        assert cancelled == 0.0
        assert loans.amount(_key(loans, 1, 1, 2, LoanKind.WIRE)) == pytest.approx(40.0)

    def test_reassign_cancels_self_claims_last(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)
        loans.add(0, 2, 1, LoanKind.WIRE, 30.0, W_A1)
        moved, cancelled = loans.reassign_claims(0, 1, 70.0)
        assert moved == pytest.approx(70.0)
        assert cancelled == pytest.approx(40.0)  # claims on bank 1 extinguished
        assert loans.amount(_key(loans, 1, 0, 1, LoanKind.WIRE)) == pytest.approx(10.0)

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
        assert loans.bank_sums()[0][0] == 0.0

    def test_borrowing_moved_to_a_third_bank_is_caught(self):
        # every lender sum still matches a3; only the borrower side shows it
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 10.0, W_A1)
        banks = BankBalanceSheets.zeros(3)
        banks.a3[0] = banks.l3[1] = 10.0
        assert loans.check_consistency(banks) == 0.0
        loans.reduce(_key(loans, 1, 0, 1, LoanKind.WIRE), 10.0)
        loans.add(0, 2, 1, LoanKind.WIRE, 10.0, W_A1)
        assert np.array_equal(loans.bank_sums()[0], banks.a3)
        with pytest.raises(LedgerError, match=r"^ledger l3 residual 1\.000e\+01 at bank 2$"):
            loans.check_consistency(banks)

    def test_sorted_keys_in_canonical_order(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 2, LoanKind.ROLLOVER, 1.0, W_A1)
        loans.add(2, 0, 1, LoanKind.WIRE, 1.0, W_A1)
        loans.add(0, 1, 2, LoanKind.WIRE, 1.0, W_A1)
        loans.add(0, 2, 1, LoanKind.POOLED, 1.0, W_A1)
        loans.add(1, 2, 1, LoanKind.WIRE, 1.0, W_A1)
        loans.add(0, 1, 2, LoanKind.POOLED, 1.0, W_A1)
        assert _tuples(loans, loans.sorted_keys()) == [
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
        loans.reduce(_key(loans, 2, 0, 1, LoanKind.WIRE), 10.0)
        assert _issuances(loans) == ({(2, 1, LoanKind.WIRE)},) * 2
        loans.reduce(_key(loans, 2, 2, 1, LoanKind.WIRE), 5.0)
        assert _issuances(loans) == ({(2, 1, LoanKind.WIRE)}, set())
        assert loans.weights_for(_key(loans, 2, 0, 1, LoanKind.WIRE)) == W_A1

    def test_snapshot_follows_a_moved_claim(self):
        weights = (0.25, 0.25, 0.5)
        loans = InterbankLoanLedger(3)
        loans.add(0, 2, 1, LoanKind.POOLED, 30.0, weights)
        loans.reassign_claims(0, 1, 30.0)
        assert _tuples(loans, loans.sorted_keys()) == [(1, 1, 2, LoanKind.POOLED)]
        assert loans.weights_for(_key(loans, 1, 1, 2, LoanKind.POOLED)) == weights

    def test_snapshot_kept_through_self_claim_cancellation(self):
        loans = InterbankLoanLedger(3)
        loans.add(0, 1, 1, LoanKind.WIRE, 50.0, W_A1)
        loans.add(0, 2, 1, LoanKind.POOLED, 30.0, W_A1)
        moved, cancelled = loans.reassign_claims(0, 1, 80.0)
        assert (moved, cancelled) == (80.0, 50.0)
        assert _issuances(loans) == ({(1, 1, LoanKind.WIRE), (1, 2, LoanKind.POOLED)},
                                     {(1, 2, LoanKind.POOLED)})


def _reference_reassign(loans, from_bank, to_bank, requested, include_self=True):
    """reassign_claims as a full sort and a full sum over the candidates,
    the algorithm the ledger's lazy prefix scan must match bit for bit."""
    if requested <= 0:
        return 0.0, 0.0
    held = [k for k in _tuples(loans, loans.sorted_keys()) if k[1] == from_bank]
    keys = [k for k in held if k[2] != to_bank]
    if include_self:
        keys += [k for k in held if k[2] == to_bank]
    keys = [_key(loans, *k) for k in keys]
    if not keys:
        return 0.0, 0.0
    available = sum(loans.amount(k) for k in keys)
    take = min(requested, available)
    if take <= 0:
        return 0.0, 0.0
    moved = 0.0
    cancelled = 0.0
    for key in keys:
        part = min(take - moved, loans.amount(key))
        if part <= 0:
            break
        period, _, borrower, kind = unpack(loans.layout, key)
        weights = loans.weights_for(key)
        loans.reduce(key, part)
        if borrower == to_bank:
            cancelled += part
        else:
            loans.add(to_bank, borrower, period, kind, part, weights)
        moved += part
    return moved, cancelled


def test_reassign_takes_rounding_dust_from_the_next_claim():
    # moved = fl(m + fl(r - m)) ends one ulp short of r here, and the
    # shortfall is taken from the claim after the one that reached r
    m, request = 0.046074806754830805, 0.3
    assert m + (request - m) < request
    ledger, reference = InterbankLoanLedger(5), InterbankLoanLedger(5)
    for loans in (ledger, reference):
        for borrower, amount in ((1, m), (2, 1.0), (3, 1.0)):
            loans.add(0, borrower, borrower, LoanKind.WIRE, amount, W_A1)
    got = ledger.reassign_claims(0, 4, request)
    assert got == _reference_reassign(reference, 0, 4, request)
    assert ledger.amount(_key(ledger, 3, 4, 3, LoanKind.WIRE)) > 0.0
    assert {k: ledger.amount(k) for k in ledger.sorted_keys()} == \
        {k: reference.amount(k) for k in reference.sorted_keys()}


# dust next to unit amounts makes partial sums round
_AMOUNTS = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.1, 0.2, 0.3, 3e-17, 1e-16, 1.0 + 2**-52]))
def _positions(n_banks):
    bank = st.integers(0, n_banks - 1)
    return st.lists(st.tuples(st.integers(0, 3), bank, bank, st.sampled_from(list(LoanKind)),
                              _AMOUNTS).filter(lambda p: p[1] != p[2]), min_size=1, max_size=25)


@given(st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_reassign_matches_sort_and_sum_reference(include_self, data):
    # B=5 packs each bank into three bits, one of them never set at B=4
    for n_banks in (4, 5):
        positions = data.draw(_positions(n_banks))
        from_bank = data.draw(st.integers(0, n_banks - 1))
        to_bank = (from_bank + data.draw(st.integers(1, n_banks - 1))) % n_banks
        ledger, reference = InterbankLoanLedger(n_banks), InterbankLoanLedger(n_banks)
        for period, lender, borrower, kind, amount in positions:
            for loans in (ledger, reference):
                loans.add(lender, borrower, period, kind, amount, W_A1)
        # a request inside or at the end of one candidate claim, nudged by up to two ulps
        held = [k for k in _tuples(reference, reference.sorted_keys()) if k[1] == from_bank]
        order = [k for k in held if k[2] != to_bank] + [k for k in held if k[2] == to_bank]
        amounts = [reference.amount(_key(reference, *k)) for k in order] or [1.0]
        k = data.draw(st.integers(0, len(amounts) - 1))
        at = sum(amounts[:k]) + data.draw(st.floats(0, 1)) * amounts[k]
        request = float(at + data.draw(st.integers(-2, 2)) * np.spacing(at))

        got = ledger.reassign_claims(from_bank, to_bank, request, include_self)
        want = _reference_reassign(reference, from_bank, to_bank, request, include_self)
        assert got == want
        assert {k: ledger.amount(k) for k in ledger.sorted_keys()} == \
            {k: reference.amount(k) for k in reference.sorted_keys()}
        assert _issuances(ledger) == _issuances(reference)
        for bank in range(n_banks):
            assert ledger._by_lender[bank] == [k for k in ledger.sorted_keys()
                                               if unpack(ledger.layout, k)[1] == bank]


@pytest.mark.parametrize("n_banks", [2, 3, 4, 5, 64, 65, 100])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_packed_keys_sort_as_tuples_and_round_trip(n_banks, data):
    layout = KeyLayout(n_banks)
    bank = st.integers(0, n_banks - 1)
    period = st.one_of(st.integers(0, 3), st.integers(0, layout.last_period),
                       st.just(layout.last_period))
    tuples = data.draw(st.lists(st.tuples(period, bank, bank, st.sampled_from(list(LoanKind))),
                                min_size=1, max_size=30))
    keys = [layout.pack(*t) for t in tuples]
    assert [unpack(layout, k) for k in keys] == tuples
    assert sorted(keys) == [layout.pack(*t) for t in sorted(tuples)]
    for (period, _, borrower, kind), key in zip(tuples, keys):
        assert key & layout.issue_mask == layout.pack(period, 0, borrower, kind)
    fields = layout.fields(np.fromiter(keys, dtype=np.int64, count=len(keys)))
    columns = list(zip(*tuples))
    assert [f.tolist() for f in fields] == [list(columns[i]) for i in (1, 2, 0, 3)]


def test_every_open_issuance_has_a_float_snapshot():
    config = get_preset("baseline_perfect", seed=20260808)
    streams = RngStreams(config.seed)
    state = init_state(config, streams)
    for _ in range(config.T):
        run_period(state, config, streams)
        snapshots, live = _issuances(state.loans)
        assert live <= snapshots, f"period {state.period}"
        assert all(type(weights) is tuple and len(weights) == 3
                   and all(type(w) is float for w in weights)
                   for weights in state.loans._weights.values())
        assert all(type(amount) is float for amount in state.loans._amounts.values())


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

    def test_omega_one_draws_nothing(self, monkeypatch):
        # draws lie in (0, 1] and settle only above omega, so omega = 1 needs none
        def no_draw(*args):
            raise AssertionError("keyed_threshold_draw called at omega = 1")

        monkeypatch.setattr(interbank, "keyed_threshold_draw", no_draw)
        banks, loans = _sheet_with_loan()
        before, keys = banks.snapshot(), loans.sorted_keys()
        stats = repay_interbank_loans(banks, loans, 1.0, ReserveBase.NARROW, 5, 42)
        assert (stats.repaid_volume, stats.repaid_count, stats.rollover_volume,
                stats.cancelled_volume) == (0.0, 0, 0.0, 0.0)
        assert banks.snapshot().tobytes() == before.tobytes()
        assert loans.sorted_keys() == keys and loans.total() == 100.0

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
        key = _key(loans, 5, 0, 1, LoanKind.ROLLOVER)
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
        potential = (state.excess > 0)[:, None] & (state.need > 0)[None, :]
        assert np.array_equal(state.actual, potential)
        assert potential.sum() == 2

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
        assert ((state.excess > 0)[:, None] & (state.need > 0)[None, :]).sum() == 2
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

    def test_negative_exposure_dust_runs_clean(self):
        # bank 2 ends period 14 at l3 = -7.45e-9, which np.power(l3 / liabilities,
        # alpha) turned into a NaN score and a RuntimeWarning
        config = get_preset("fig1_left", seed=3, B=4, C=40, T=20, omega=0.5,
                            matching=MatchingMode.ENDOGENOUS, alpha=0.5, lam=3.0)
        run_scenario(config, check="phase")

    def test_non_finite_score_raises(self):
        banks = _pooling_sheet()
        banks.l1[0] = 100.0
        banks.a4[0] = banks.l4[0] = np.nan
        with pytest.raises(SimulationError, match="non-finite match score for lender 0"):
            compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                  MatchingMode.ENDOGENOUS, _match_rng(),
                                  alpha=1.0, lam=1.0)


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
        assert loans.bank_sums()[0][0] <= state.excess[0] * (1 + 1e-12)

    def test_borrower_never_borrows_beyond_need(self):
        banks = _pooling_sheet()
        banks.a1[0] = 1e6  # ample surplus
        loans = InterbankLoanLedger(3)
        state = compute_pooling_state(banks, ReserveBase.NARROW, 0.1, 0.0,
                                      MatchingMode.EXOGENOUS, _match_rng())
        unmet, _ = allocate_pooled_credit(banks, loans, state, 1)
        assert np.all(unmet == pytest.approx(0.0))
        assert loans.bank_sums()[1][1] <= state.need[1] * (1 + 1e-12)

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
        assert loans.bank_sums()[0][:2] == pytest.approx([94.0, 406.0])
        loans.check_consistency(banks)

    def test_pair_that_fails_to_trade_leaves_its_gap_share(self):
        banks = _two_lender_gap_sheet()
        state = _broad_state(banks)
        complete = allocate_pooled_credit(copy.deepcopy(banks), InterbankLoanLedger(4), state, 1)[0]
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

    def test_rounded_negative_allocation_raises(self):
        # bank 2's matched shares, 0.7 and 7e-17, sum to an ulp above its
        # need of 0.7, so what it is left short is -ulp and its gap share is
        # negative; at lender 1, with room 100, that share outweighs the
        # 7e-17 it lent.  Unchecked, the pair would silently not trade.
        excess = np.array([1.0, 1e-16, 0.0, 0.0])
        need = np.array([0.0, 0.0, 0.7, 5.0])
        actual = np.zeros((4, 4), dtype=bool)
        actual[:2, 2] = True
        state = interbank.PoolingState(ReserveBase.BROAD, excess, need,
                                       np.array([1.0, 100.0, 0.0, 0.0]), [W_A1] * 4, actual)
        assert 0.7 + 0.7 * 1e-16 > 0.7
        with pytest.raises(LedgerError, match="^negative pooled allocation$"):
            allocate_pooled_credit(BankBalanceSheets.zeros(4), InterbankLoanLedger(4), state, 1)


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
