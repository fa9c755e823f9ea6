"""minibank's layers as the traced pass sees them: which names are wrapped,
what each one counts, and how the totals become per-layer metrics.

Every metric is per scenario run (totals over the traced pass divided by
the scenario runs it completed), except ``interbank.positions_peak`` (the
largest ledger seen), the ``*_share`` ratios and the ``trace.*`` timings.
"""

from __future__ import annotations

from tracer import Recorder, Target, TracingError

# The names minibank.engine calls each phase through, in call order.
_ENGINE_NAMES = (
    "run_scenario", "initialise", "run_period", "remove_guarantees", "draw_target_ratios",
    "random_row_stochastic", "settle_cash_payments", "settle_wire_transfers",
    "repay_customer_loans", "target_lending", "realise_lending", "repay_interbank_loans",
    "compute_pooling_state", "allocate_pooled_credit", "grant_guarantees", "draw_period_rates",
    "accrue_equity", "check_identities",
)
# Spanned names that every unit reaches, whatever the workload.
_EVERY_UNIT = ("config.get_preset", *(f"engine.{name}" for name in _ENGINE_NAMES),
               "InterbankLoanLedger.check_consistency")


def _matrix_bytes(counts, args, result):
    n = args[0]
    counts["matrix_bytes"] += 8 * n * n  # computed from the shape, not measured


def _interbank_repayment(counts, args, result):
    counts["repaid_count"] += result.repaid_count
    counts["repaid_volume"] += result.repaid_volume
    counts["rollover_volume"] += result.rollover_volume


def _guarantees(counts, args, result):
    counts["guarantee_count"] += int((result > 0).sum())


def _ledger_size(counts, args, result):
    counts["positions_peak"] = max(counts["positions_peak"], len(args[0].loans))


def _trace_artifact_bytes(counts, args, result):
    counts["bytes_written"] += sum(path.stat().st_size for path in result.values())


def _summary_bytes(counts, args, result):
    counts["bytes_written"] += result.stat().st_size


def targets(mb) -> list[Target]:
    """Every wrapped name.  Phase functions are wrapped where the engine
    looks them up (its module globals), ledger methods on the class."""
    engine, interbank = mb.engine, mb.interbank
    ledger = interbank.InterbankLoanLedger
    observers = {
        "random_row_stochastic": _matrix_bytes,
        "repay_interbank_loans": _interbank_repayment,
        "grant_guarantees": _guarantees,
        "run_period": _ledger_size,
    }
    out = [Target(mb.config, "get_preset", "config.get_preset"),
           Target(mb.artifacts, "emit_trace_artifacts", "artifacts.emit_trace_artifacts",
                  observe=_trace_artifact_bytes),
           Target(mb.artifacts, "emit_compare_summary", "artifacts.emit_compare_summary",
                  observe=_summary_bytes)]
    for attr in ("compare_phis", "run_ensemble") + _ENGINE_NAMES:
        out.append(Target(engine, attr, f"engine.{attr}", observe=observers.get(attr)))
    out.append(Target(ledger, "check_consistency", "InterbankLoanLedger.check_consistency"))
    out.append(Target(interbank, "keyed_threshold_draw", "interbank.keyed_threshold_draw",
                      aggregated=True))
    out.append(Target(ledger, "add", "InterbankLoanLedger.add", aggregated=True))
    out.append(Target(ledger, "reassign_claims", "InterbankLoanLedger.reassign_claims",
                      aggregated=True))
    return out


def check_reached(recorder: Recorder, sweep: bool) -> None:
    """Fail loudly if a layer the workload must pass through was never
    entered: the engine no longer calls it by the wrapped name."""
    expected = _EVERY_UNIT + (("engine.compare_phis", "engine.run_ensemble",
                               "artifacts.emit_compare_summary") if sweep
                              else ("artifacts.emit_trace_artifacts",))
    calls = recorder.calls
    missing = [name for name in expected if calls[name] == 0]
    if missing:
        raise TracingError(f"traced pass never entered {', '.join(missing)}")


def layer_metrics(recorder: Recorder, runs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass of ``runs`` scenario runs."""
    own = recorder.self_seconds()
    calls, counts = recorder.calls, recorder.counts

    def self_s(*names):
        return sum(own.get(name, 0.0) for name in names) / runs

    def per_run(value):
        return value / runs

    draws = calls["interbank.keyed_threshold_draw"]
    return {
        "stochastics.random_row_stochastic.self_s": (self_s("engine.random_row_stochastic"), "s"),
        "stochastics.random_row_stochastic.calls": (per_run(calls["engine.random_row_stochastic"]), "count"),
        "stochastics.matrix_bytes": (per_run(counts["matrix_bytes"]), "computed-bytes"),
        "stochastics.draw_period_rates.self_s": (self_s("engine.draw_period_rates"), "s"),
        "payments.settle_cash_payments.self_s": (self_s("engine.settle_cash_payments"), "s"),
        "payments.settle_wire_transfers.self_s": (self_s("engine.settle_wire_transfers"), "s"),
        "bank_credit.self_s": (self_s("engine.draw_target_ratios", "engine.repay_customer_loans",
                                      "engine.target_lending", "engine.realise_lending"), "s"),
        "interbank.repay_interbank_loans.self_s": (self_s("engine.repay_interbank_loans"), "s"),
        "interbank.allocate_pooled_credit.self_s": (self_s("engine.allocate_pooled_credit"), "s"),
        "interbank.compute_pooling_state.self_s": (self_s("engine.compute_pooling_state"), "s"),
        "interbank.reassign_claims.self_s": (self_s("InterbankLoanLedger.reassign_claims"), "s"),
        "interbank.ledger_add.self_s": (self_s("InterbankLoanLedger.add"), "s"),
        "interbank.keyed_threshold_draw.self_s": (self_s("interbank.keyed_threshold_draw"), "s"),
        "interbank.check_consistency.self_s": (self_s("InterbankLoanLedger.check_consistency"), "s"),
        "interbank.reassign_claims.calls": (per_run(calls["InterbankLoanLedger.reassign_claims"]), "count"),
        "interbank.ledger_add.calls": (per_run(calls["InterbankLoanLedger.add"]), "count"),
        "interbank.keyed_threshold_draw.calls": (per_run(draws), "count"),
        "interbank.positions_peak": (counts["positions_peak"], "count"),
        "interbank.repaid_share": (counts["repaid_count"] / draws if draws else 0.0, "ratio"),
        "interbank.rollover_share": (counts["rollover_volume"] / counts["repaid_volume"]
                                     if counts["repaid_volume"] else 0.0, "ratio"),
        "central_bank.remove_guarantees.self_s": (self_s("engine.remove_guarantees"), "s"),
        "central_bank.grant_guarantees.self_s": (self_s("engine.grant_guarantees"), "s"),
        "central_bank.guarantee_count": (per_run(counts["guarantee_count"]), "count"),
        "equity.accrue_equity.self_s": (self_s("engine.accrue_equity"), "s"),
        "ledger.check_identities.self_s": (self_s("engine.check_identities"), "s"),
        "ledger.initialise.self_s": (self_s("engine.initialise"), "s"),
        "config.get_preset.self_s": (self_s("config.get_preset"), "s"),
        "engine.run_period.self_s": (self_s("engine.run_period"), "s"),
        "engine.result_assembly.self_s": (self_s("engine.run_scenario", "engine.run_ensemble",
                                                 "engine.compare_phis"), "s"),
        "artifacts.emit.self_s": (self_s("artifacts.emit_trace_artifacts",
                                         "artifacts.emit_compare_summary"), "s"),
        "artifacts.bytes_written": (per_run(counts["bytes_written"]), "bytes"),
    }
