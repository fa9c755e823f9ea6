"""End-to-end runs for the optional scenario switches."""

import hashlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibank import (
    ConfigError,
    LendingBehaviour,
    MatchingMode,
    ReserveBase,
    ScenarioConfig,
    TriangularParams,
    emit_trace_artifacts,
    get_preset,
    preset_names,
    run_scenario,
)
from minibank.cli import main


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


def test_checks_cannot_be_switched_off(tmp_path, capsys):
    with pytest.raises(ConfigError, match="phase/period"):
        run_scenario(_config(T=1), check="off")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed", "1", "--check", "off", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'off'" in capsys.readouterr().err


@pytest.mark.parametrize("behaviour", list(LendingBehaviour))
@pytest.mark.parametrize("base", list(ReserveBase))
def test_every_behaviour_base_combination_preserves_identities(behaviour, base):
    config = _config(T=8, behaviour=behaviour, reserve_base=base)
    trace = run_scenario(config, check="phase")
    assert trace.n_periods == 8


def test_endogenous_matching_full_run_with_phase_checks():
    config = _config(matching=MatchingMode.ENDOGENOUS, alpha=1.0, lam=1.5, phi=0.2)
    trace = run_scenario(config, check="phase")
    assert trace.n_periods == config.T


UNIT = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def small_configs(draw):
    B = draw(st.integers(2, 5))
    matching = draw(st.sampled_from(MatchingMode))
    endogenous = matching is MatchingMode.ENDOGENOUS
    return get_preset(
        draw(st.sampled_from(preset_names())),
        seed=draw(st.integers(0, 2**32)),
        T=draw(st.integers(0, 20)),
        B=B,
        C=B * draw(st.integers(1, 8)),
        behaviour=draw(st.sampled_from(LendingBehaviour)),
        reserve_base=draw(st.sampled_from(ReserveBase)),
        matching=matching,
        alpha=draw(st.floats(0.01, 1000.0)) if endogenous else None,
        lam=draw(st.floats(0.01, 1000.0)) if endogenous else None,
        phi=draw(UNIT),
        omega=draw(UNIT),
        xi1=draw(UNIT),
        xi2=draw(UNIT),
        fixed_payment_matrix=draw(st.booleans()),
        transfer_on_issue=draw(st.booleans()),
        relax_target_base=draw(st.booleans()),
    )


def _csv_digests(config):
    with tempfile.TemporaryDirectory() as out:
        trace = run_scenario(config, check="phase")
        paths = emit_trace_artifacts(trace, out)
        digests = [hashlib.sha256(paths[name].read_bytes()).hexdigest()
                   for name in ("aggregate", "per_bank")]
    return trace, digests


@given(config=small_configs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_accepted_config_runs_clean(config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace, digests = _csv_digests(config)
        _, again = _csv_digests(config)
    assert np.all(np.abs(trace.aggregates["a1"] - config.A1_0) <= 1e-9 * config.A1_0)
    assert digests == again
