"""Tests of the benchmark's own code: self-time arithmetic, and that tracing
leaves minibank exactly as it found it.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from layers import check_reached, layer_metrics, targets  # noqa: E402
from tracer import Recorder, Span, Target, TracingError, self_times, traced  # noqa: E402

mb = workloads.import_minibank()
TINY = {"B": 4, "C": 40, "T": 4}


def _namespaces():
    return (mb.engine, mb.interbank, mb.interbank.InterbankLoanLedger, mb.config, mb.artifacts)


def test_self_time_is_span_minus_union_of_children():
    spans = [
        Span("root", 0.0, 0, None, end=10.0, covered=0.5),
        Span("a", 1.0, 0, 0, end=4.0),
        Span("b", 3.0, 0, 0, end=6.0),        # overlaps a: [3, 4] is counted once
        Span("a.child", 1.5, 0, 1, end=2.0),
        Span("c", 8.0, 0, 0, end=12.0),       # outlives its parent: clipped to [8, 10]
    ]
    # root: 10 - |[1, 6] u [8, 10]| - 0.5 aggregated
    assert self_times(spans) == pytest.approx([2.5, 2.5, 3.0, 0.5, 4.0])


def test_aggregated_calls_are_charged_to_their_caller(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: now[0])
    rec = Recorder()

    def advance(seconds, *calls):
        def fn():
            now[0] += seconds
            for call in calls:
                call()
        return fn

    inner = rec.aggregated("inner", advance(1.0))
    outer = rec.aggregated("outer", advance(2.0, inner))
    rec.spanned("phase", advance(4.0, outer, inner))()
    assert dict(rec.self_seconds()) == {"phase": 4.0, "outer": 2.0, "inner": 2.0}
    assert dict(rec.calls) == {"phase": 1, "outer": 1, "inner": 2}


def _plain_then_traced(workload, out_dir):
    """One unit untraced, then the same seed traced, as ``--trace 1`` does."""
    seen: dict = {}
    plain = workloads.closed_loop(mb, workload, [11], 0, 1, out_dir, seen)
    rec = Recorder()
    with traced(rec, targets(mb)):
        stats = workloads.closed_loop(mb, workload, [11], 0, 1, out_dir, seen, rec)
    return plain, rec, stats


@pytest.mark.parametrize("sweep_seeds", [0, 1])
def test_traced_pass_restores_every_name_and_keeps_outputs(tmp_path, sweep_seeds):
    workload = workloads.Workload("tiny", "baseline_perfect", TINY, sweep_seeds)
    before = [dict(vars(ns)) for ns in _namespaces()]
    plain, rec, stats = _plain_then_traced(workload, tmp_path)

    for ns, names in zip(_namespaces(), before):
        after = vars(ns)
        assert after.keys() == names.keys()
        assert all(after[name] is obj for name, obj in names.items())
    assert plain.failed == stats.failed == 0  # same seed traced and untraced: same bytes
    check_reached(rec, sweep=bool(sweep_seeds))
    metrics = layer_metrics(rec, stats.runs)
    assert metrics["stochastics.random_row_stochastic.calls"][0] == 2 * TINY["T"]
    assert metrics["stochastics.matrix_bytes"][0] == 8 * (40**2 + 4**2) * TINY["T"]


def test_benchmark_json_lists_every_workload_and_metric(tmp_path):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    workload = workloads.Workload("tiny", "baseline_perfect", TINY)
    plain, rec, stats = _plain_then_traced(workload, tmp_path)
    end_to_end = run.end_to_end_metrics(plain, workload, [0.2])
    per_layer = run.per_layer_metrics(rec, stats, plain, workload)
    for key, metrics in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == [
            (name, unit) for name, (_, unit) in metrics.items()]


def test_missing_name_fails_loudly_and_restores_the_rest():
    before = dict(vars(mb.engine))
    bad = targets(mb) + [Target(mb.engine, "no_such_phase", "engine.no_such_phase")]
    with pytest.raises(TracingError, match="no_such_phase"):
        with traced(Recorder(), bad):
            pass
    assert all(vars(mb.engine)[name] is obj for name, obj in before.items())


def test_unreached_layer_fails_loudly():
    with pytest.raises(TracingError, match="engine.run_period"):
        check_reached(Recorder(), sweep=False)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(20)]) == ("p50", 9.0)
