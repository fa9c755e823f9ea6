"""Acceptance battery: every scenario-level requirement, one test per criterion.

Each criterion prints one PASS/FAIL line (plus clause details where a
criterion has several).  The master seed is fixed so the battery is fully
reproducible; ensembles derive their per-run seeds from it.
"""

import time
from math import comb

import numpy as np
import pytest

from minibank import (
    RngStreams,
    ScenarioConfig,
    TriangularParams,
    compare_phis,
    derive_seeds,
    emit_trace_artifacts,
    get_preset,
    keyed_threshold_draw,
    preset_names,
    run_scenario,
    sample_triangular,
    uniform_matrix,
)

MASTER_SEED = 20260808
TOL = 1e-9
NARROW_BOUND = 1e10  # A1_0 / gamma_RR at the desk-scale calibration
POINT = TriangularParams.point


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} {name}: {detail}")
    return ok


def sign_test_rejects_chance(successes: int, n: int, alpha: float = 0.05) -> bool:
    """One-sided exact sign test: is `successes` of n inconsistent with a coin?"""
    p_value = sum(comb(n, k) for k in range(successes, n + 1)) / 2.0 ** n
    return p_value < alpha


@pytest.fixture(scope="module")
def compare30():
    config = get_preset("baseline_perfect", seed=MASTER_SEED)
    return compare_phis(config, phis=(0.0, 0.4, 0.8), n_seeds=30)


def test_criterion_1_accounting_invariants():
    config = get_preset("baseline_perfect", seed=MASTER_SEED)
    start = time.perf_counter()
    # per-phase checks raise beyond 1e-9 relative, so completing the run is
    # itself the identity assertion
    trace = run_scenario(config, check="phase")
    elapsed = time.perf_counter() - start
    drift = float(np.abs(trace.aggregates["a1"] - config.A1_0).max()) / config.A1_0
    ok = drift <= TOL and elapsed < 5.0
    assert _report(1, "accounting invariants", ok,
                   f"per-phase identities within {TOL:g}, currency drift {drift:.2e}, "
                   f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_interbank_duality_every_preset():
    worst = 0.0
    for name in preset_names():
        config = get_preset(name, seed=MASTER_SEED)
        # period checks enforce ledger <-> sheet consistency at 1e-9
        trace = run_scenario(config, check="period")
        gap = np.abs(trace.aggregates["a3"] - trace.aggregates["l3"])
        scale = np.maximum(1.0, trace.aggregates["a3"])
        worst = max(worst, float((gap / scale).max()))
    ok = worst <= TOL
    assert _report(2, "interbank duality", ok,
                   f"max relative gap across all presets {worst:.2e}")


def test_criterion_3_narrow_boundedness():
    seeds = derive_seeds(MASTER_SEED, 5)
    worst_money, worst_growth = 0.0, 0.0
    for name in ("fig1_left", "fig1_right"):
        for seed in seeds:
            trace = run_scenario(get_preset(name, seed=seed))
            money = trace.aggregates["money_total"]
            worst_money = max(worst_money, float(money.max()))
            growth = (money[-1] / money[-11]) ** 0.1 - 1.0
            worst_growth = max(worst_growth, float(growth))
    ok = worst_money <= NARROW_BOUND and worst_growth < 0.01
    assert _report(3, "narrow boundedness", ok,
                   f"max money {worst_money:.4g} <= {NARROW_BOUND:.0e}, "
                   f"max growth per period over the last 10 {worst_growth:.2%} (< 1%)")


def test_criterion_4_broad_unboundedness():
    seeds = derive_seeds(MASTER_SEED, 10)
    checks = []
    for name in ("fig2_mid", "fig2_right"):
        for seed in seeds:
            trace = run_scenario(get_preset(name, seed=seed))
            money = np.concatenate([[trace.initial[:, 5:8].sum()],
                                    trace.aggregates["money_total"]])
            non_decreasing = bool(np.all(np.diff(money) >= -1e-12 * money[:-1]))
            checks.append(non_decreasing and money[-1] > 2 * NARROW_BOUND)
    for seed in seeds:
        trace = run_scenario(get_preset("fig2_left", seed=seed))
        checks.append(float(trace.aggregates["money_total"].max()) < NARROW_BOUND)
    ok = all(checks)
    assert _report(4, "broad unboundedness", ok,
                   f"{sum(checks)}/{len(checks)} seed-level checks hold "
                   "(broad money non-decreasing and > 2e10 by period 50; narrow twin < 1e10)")


def _ordering_criterion(num, name, compare, metric, decreasing=True):
    means = compare.means(metric)
    diffs = np.diff(means)
    means_ok = bool(np.all(diffs < 0) if decreasing else np.all(diffs > 0))
    count = compare.ordered_seed_count(metric, decreasing=decreasing)
    test_ok = sign_test_rejects_chance(count, compare.n_seeds)
    ok = means_ok and test_ok
    assert _report(num, name, ok,
                   f"means {'decreasing' if decreasing else 'increasing'} in phi "
                   f"({', '.join(f'{m:.4g}' for m in means)}); strict per-seed ordering on "
                   f"{count}/{compare.n_seeds} seeds, one-sided sign test at 95% "
                   f"{'rejects' if test_ok else 'does not reject'} chance "
                   f"(critical value 20/30; a 24/30 bar would be the 99.9% level)")


def test_criterion_5_customer_lending_ordering(compare30):
    _ordering_criterion(5, "customer lending ordering", compare30,
                        "cumulative_customer_lending")


def test_criterion_6_interbank_activity_ordering(compare30):
    # every ledger position carries a lending and a borrowing side of equal
    # size, so cumulative issuance measures both; duality is criterion 2
    _ordering_criterion(6, "interbank activity ordering", compare30,
                        "cumulative_interbank_issued")


def test_criterion_7_central_bank_recourse(compare30):
    guarantees = {phi: compare30.results[phi].metrics["cumulative_guarantees"]
                  for phi in (0.0, 0.4, 0.8)}
    ratio = float(np.mean(guarantees[0.0])) / float(np.mean(guarantees[0.8]))
    clause1 = ratio < 0.01
    _report(7, "recourse ratio", clause1,
            f"mean cumulative guarantees at phi=0 are {ratio:.2%} of phi=0.8 (need < 1%); "
            f"absolute level {np.mean(guarantees[0.0]):.3g}, zero on "
            f"{int((guarantees[0.0] == 0).sum())}/30 seeds")

    share = float(np.mean(compare30.results[0.8].metrics["guarantee_positive_share"]))
    clause2 = share >= 0.6
    _report(7, "distressed recourse near-permanent", clause2,
            f"phi=0.8 guarantees positive in {share:.0%} of periods (need >= 60%)")

    first_smooth = compare30.results[0.4].metrics["first_guarantee_period"]
    first_distressed = compare30.results[0.8].metrics["first_guarantee_period"]
    later = int((first_smooth > first_distressed).sum())
    clause3 = later > compare30.n_seeds / 2
    _report(7, "smooth recourse starts later", clause3,
            f"phi=0.4 first positive later than phi=0.8 on {later}/{compare30.n_seeds} seeds")

    assert clause2 and clause3, "qualitative recourse clauses failed"
    assert clause1, (
        f"perfect-pooling recourse is {ratio:.2%} of distressed, above the 1% bar. "
        "Interbank repayment extinguishes claims that count as reserves under the "
        "broad base and can lift system-wide reserve need above the system's "
        "pre-pooling excess; perfect pooling must finance that gap with new interbank "
        "claims (allocate_pooled_credit) rather than leave it to the central bank."
    )


def test_criterion_8_equity_erosion(compare30):
    _ordering_criterion(8, "equity erosion ordering", compare30,
                        "terminal_equity")
    profit_perfect = float(np.mean(compare30.results[0.0].metrics["mean_profit"]))
    profit_distressed = float(np.mean(compare30.results[0.8].metrics["mean_profit"]))
    ok = profit_perfect > profit_distressed
    assert _report(8, "profit lower under distress", ok,
                   f"mean per-period profit {profit_perfect:.4g} (perfect) vs "
                   f"{profit_distressed:.4g} (distressed)")


def test_criterion_9_determinism_and_oracles(tmp_path):
    config = get_preset("baseline_perfect", seed=MASTER_SEED)
    paths_a = emit_trace_artifacts(run_scenario(config), tmp_path / "a")
    paths_b = emit_trace_artifacts(run_scenario(config), tmp_path / "b")
    identical = all(paths_a[k].read_bytes() == paths_b[k].read_bytes() for k in paths_a)
    assert len(paths_a["aggregate"].read_text().splitlines()) == 1 + config.T

    rng = RngStreams(MASTER_SEED).stream("absorption", 1)
    tri_err = abs(sample_triangular(TriangularParams(0, 0.5, 1), rng, 10 ** 6).mean() - 0.5)
    uni_err = abs(uniform_matrix(1000, 1000, RngStreams(MASTER_SEED).stream("matching", 1)).mean() - 0.5)

    # standalone lifetime oracle for the repayment trigger at omega = 0.5:
    # a loan lives until its first keyed draw exceeds omega, one draw per period
    subseed = RngStreams(MASTER_SEED).subseed("interbank_decision")
    lives = np.empty(50_000)
    for i in range(lives.size):
        period = 1
        while keyed_threshold_draw(subseed, period, i) <= 0.5:
            period += 1
        lives[i] = period
    life_err = abs(lives.mean() - 2.0) / 2.0

    ok = identical and tri_err < 0.002 and uni_err < 0.002 and life_err < 0.05
    assert _report(9, "determinism and oracles", ok,
                   f"byte-identical artifacts: {identical}; triangular mean error "
                   f"{tri_err:.2e} (< 2e-3); uniform mean error {uni_err:.2e} (< 2e-3); "
                   f"loan life {lives.mean():.3f} vs 2.0 ({life_err:.2%} < 5%)")


def test_criterion_10_degenerate_fixed_point():
    config = ScenarioConfig(
        seed=MASTER_SEED, T=50,
        xi1=0.0, xi2=0.0,
        psi=POINT(0.0), theta=POINT(0.0),
        r_A1=POINT(0.0), r_A2=POINT(0.0), r_interbank=POINT(0.0),
        r_L1=POINT(0.0), r_L2=POINT(0.0), l5_spread=0.0,
        phi=1.0,
    )
    trace = run_scenario(config)
    constant = all(np.array_equal(trace.sheets[t], trace.initial)
                   for t in range(trace.n_periods))
    ok = constant and bool(np.all(trace.profit == 0.0))
    assert _report(10, "degenerate fixed point", ok,
                   f"state exactly constant over {trace.n_periods} periods: {constant}")
