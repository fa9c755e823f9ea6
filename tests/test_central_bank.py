import numpy as np
import pytest

from minibank import (
    BankBalanceSheets,
    IdentityError,
    grant_guarantees,
    remove_guarantees,
)


def _banks():
    banks = BankBalanceSheets.zeros(3)
    banks.a1[:] = [70.0, 100.0, 100.0]
    banks.l1[:] = banks.a1
    return banks


def test_no_unmet_need_no_guarantees():
    banks = _banks()
    granted = grant_guarantees(banks, np.zeros(3), expected=np.zeros(3))
    assert np.all(granted == 0.0)
    assert np.all(banks.l5 == 0.0)


def test_guarantee_completes_reserves_to_target():
    # target reserve 100 against a holding of 70
    banks = _banks()
    granted = grant_guarantees(banks, np.array([30.0, 0.0, 0.0]),
                               expected=np.array([30.0, -5.0, 0.0]))
    assert granted[0] == pytest.approx(30.0)
    assert banks.a5[0] == pytest.approx(30.0)
    assert banks.l5[0] == pytest.approx(30.0)


def test_guarantee_is_non_cash():
    banks = _banks()
    core_before = banks.a1 + banks.a2 + banks.a3 - (banks.l1 + banks.l2 + banks.l3)
    grant_guarantees(banks, np.array([30.0, 0.0, 0.0]), expected=np.array([30.0, 0.0, 0.0]))
    core_after = banks.a1 + banks.a2 + banks.a3 - (banks.l1 + banks.l2 + banks.l3)
    assert np.array_equal(core_before, core_after)
    assert np.array_equal(banks.a5, banks.l5)


def test_mismatched_target_shortfall_rejected():
    banks = _banks()
    with pytest.raises(IdentityError):
        grant_guarantees(banks, np.array([30.0, 0.0, 0.0]),
                         expected=np.array([55.0, 0.0, 0.0]))


def test_rounding_dust_not_guaranteed():
    banks = _banks()
    granted = grant_guarantees(banks, np.array([1e-9, 0.0, 0.0]),
                               expected=np.array([1e-9, 0.0, 0.0]))
    assert np.all(granted == 0.0)


def test_removal_resets_both_items():
    banks = _banks()
    grant_guarantees(banks, np.array([30.0, 0.0, 12.0]), expected=np.array([30.0, 0.0, 12.0]))
    remove_guarantees(banks)
    assert np.all(banks.a5 == 0.0)
    assert np.all(banks.l5 == 0.0)


def test_removal_is_idempotent():
    banks = _banks()
    remove_guarantees(banks)
    assert np.all(banks.a5 == 0.0)
    assert np.all(banks.l5 == 0.0)
