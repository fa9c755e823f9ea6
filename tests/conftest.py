import numpy as np
import pytest

from minibank import BankBalanceSheets, CustomerBook, LoanKind


def unpack(layout, key):
    """The (issue period, lender, borrower, kind) of a packed ledger key.

    The tests' own decoder: it shifts one Python int field by field and
    shares no code with ``KeyLayout.fields``, which the package decodes
    int64 key arrays with.
    """
    return (key >> layout.period_shift, key >> layout.lender_shift & layout.bank_mask,
            key >> 2 & layout.bank_mask, LoanKind(key & 3))


def consistent_state(l1, l2, assignment, n_banks):
    """Banks and customer book built from per-customer balances.

    The customers of one bank must hold the same loan deposits, which the
    book stores once per bank (0 for a bank without customers).  Every bank
    starts with a1 = l1 and a2 = l2 (cash fully reserved, loans
    self-originated), so all accounting identities hold exactly.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    l2 = np.asarray(l2, dtype=float)
    bank_l2 = np.zeros(n_banks)
    bank_l2[assignment] = l2
    assert np.array_equal(bank_l2[assignment], l2), "a bank's customers hold different l2"
    book = CustomerBook(
        assignment=assignment,
        counts=np.bincount(assignment, minlength=n_banks),
        l1=np.asarray(l1, dtype=float),
        l2=bank_l2,
    )
    banks = BankBalanceSheets.zeros(n_banks)
    banks.l1 = book.bank_l1()
    banks.a1 = banks.l1.copy()
    banks.l2 = book.bank_l2()
    banks.a2 = banks.l2.copy()
    return banks, book


@pytest.fixture
def two_banks_two_customers():
    return consistent_state(l1=[100.0, 100.0], l2=[0.0, 0.0],
                            assignment=[0, 1], n_banks=2)
