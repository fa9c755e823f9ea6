"""End-to-end runs for the optional scenario switches."""

import numpy as np
import pytest

from minibank import (
    LendingBehaviour,
    ReserveBase,
    ScenarioConfig,
    TriangularParams,
    run_scenario,
)


def _config(**kw):
    defaults = dict(T=12, B=4, C=80)
    defaults.update(kw)
    return ScenarioConfig(seed=91, **defaults)


def test_securitised_reserve_base_runs_clean():
    trace = run_scenario(_config(reserve_base=ReserveBase.SECURITISED), check="phase")
    # retail loans count as reserves, so lending capacity feeds on itself
    # and the system grows well past the narrow ceiling for this calibration
    assert trace.aggregates["money_total"][-1] > trace.aggregates["money_total"][0]


def test_transfer_on_issue_off_books_positions_without_moving_reserves():
    on = run_scenario(_config(transfer_on_issue=True), check="phase")
    off = run_scenario(_config(transfer_on_issue=False), check="phase")
    # both modes keep every identity; the no-transfer reading leans harder
    # on the central bank because pooled loans deliver no reserve components
    assert off.aggregates["guarantees_granted"].sum() >= on.aggregates["guarantees_granted"].sum()


def test_fixed_payment_matrix_reuses_the_same_flows():
    trace = run_scenario(_config(fixed_payment_matrix=True, xi2=0.0,
                                 psi=TriangularParams.point(0.0),
                                 theta=TriangularParams.point(0.0)))
    # with lending and wires off, cash payments along one fixed matrix reach
    # the matrix's stationary deposit distribution: later periods barely move
    l1 = trace.item_series("l1")
    early = np.abs(l1[1] - l1[0]).sum()
    late = np.abs(l1[-1] - l1[-2]).sum()
    assert late < early


def test_relaxed_target_base_lends_more():
    strict = run_scenario(_config(relax_target_base=False))
    relaxed = run_scenario(_config(relax_target_base=True), check="phase")
    assert (relaxed.aggregates["new_customer_lending"].sum()
            > strict.aggregates["new_customer_lending"].sum())


def test_check_off_matches_checked_run():
    config = _config()
    checked = run_scenario(config, check="period")
    unchecked = run_scenario(config, check="off")
    assert np.array_equal(checked.sheets, unchecked.sheets)


@pytest.mark.parametrize("behaviour", list(LendingBehaviour))
@pytest.mark.parametrize("base", list(ReserveBase))
def test_every_behaviour_base_combination_preserves_identities(behaviour, base):
    config = _config(T=8, behaviour=behaviour, reserve_base=base)
    trace = run_scenario(config, check="phase")
    assert trace.n_periods == 8


def test_endogenous_matching_full_run_with_phase_checks():
    from minibank import MatchingMode
    config = _config(matching=MatchingMode.ENDOGENOUS, alpha=1.0, lam=1.5, phi=0.2)
    trace = run_scenario(config, check="phase")
    assert trace.n_periods == config.T
