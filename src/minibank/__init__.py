"""Seed-reproducible agent-based simulator of a miniature banking system:
customers, banks and one central bank, with endogenous credit creation,
interbank reserve pooling and a non-cash guarantor of last resort."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    IdentityError,
    LedgerError,
    SimulationError,
)
from .stochastics import (
    RateSet,
    RngStreams,
    TriangularParams,
    draw_period_rates,
    keyed_threshold_draw,
    random_row_stochastic,
    sample_triangular,
    uniform_matrix,
)
from .ledger import (
    BankBalanceSheets,
    CustomerBook,
    ReserveBase,
    check_identities,
    initialise,
    reserve_components,
    reserve_weights,
    sum_reserve,
)
from .payments import settle_cash_payments, settle_wire_transfers
from .bank_credit import (
    LendingBehaviour,
    draw_target_ratios,
    realise_lending,
    repay_customer_loans,
    target_lending,
)
from .interbank import (
    InterbankLoanLedger,
    LoanKind,
    MatchingMode,
    PoolingState,
    allocate_pooled_credit,
    compute_pooling_state,
    repay_interbank_loans,
)
from .central_bank import grant_guarantees, remove_guarantees
from .equity import accrue_equity
from .config import (
    PRESETS,
    ScenarioConfig,
    config_from_pairs,
    config_hash,
    config_to_text,
    get_preset,
    load_config_file,
    preset_names,
)
from .engine import (
    CompareResult,
    EnsembleResult,
    SimulationState,
    SimulationTrace,
    compare_phis,
    derive_seeds,
    init_state,
    run_ensemble,
    run_period,
    run_scenario,
    trace_metrics,
    validate_run,
)
from .artifacts import (
    emit_compare_summary,
    emit_ensemble_artifacts,
    emit_trace_artifacts,
    format_compare_table,
)
