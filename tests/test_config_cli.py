import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import minibank
from minibank import (
    ConfigError,
    LendingBehaviour,
    LoanKind,
    MatchingMode,
    ReserveBase,
    ScenarioConfig,
    TriangularParams,
    config_from_pairs,
    config_to_text,
    emit_trace_artifacts,
    get_preset,
    preset_names,
    run_scenario,
)
from minibank.artifacts import AGGREGATE_HEADER, FIGURE_COLUMNS, PER_BANK_HEADER
from minibank.cli import main
from minibank.config import parse_config_text
from minibank.interbank import KeyLayout
from conftest import unpack


class TestPresets:
    def test_all_eight_presets_exist(self):
        assert preset_names() == (
            "fig1_left", "fig1_right", "fig2_left", "fig2_mid", "fig2_right",
            "baseline_perfect", "baseline_smooth", "baseline_distressed",
        )

    def test_baseline_calibration(self):
        config = get_preset("baseline_perfect", seed=1)
        assert (config.T, config.B, config.C) == (50, 10, 1000)
        assert config.A1_0 == 1e9 and config.A4_0 == 1e8
        assert config.gamma_RR == 0.1
        assert config.gamma_TR_noise == TriangularParams.point(0.0)
        assert config.theta == TriangularParams(0.0, 0.8, 1.0)
        assert config.psi == TriangularParams(0.0, 0.3, 1.0)
        assert config.omega == 0.5 and config.phi == 0.0
        assert config.xi1 == 0.1 and config.xi2 == 0.1
        assert config.reserve_base is ReserveBase.BROAD

    def test_pooling_quality_presets(self):
        assert get_preset("baseline_smooth", seed=1).phi == 0.4
        assert get_preset("baseline_distressed", seed=1).phi == 0.8

    def test_money_bound_presets(self):
        left = get_preset("fig1_left", seed=1)
        assert left.reserve_base is ReserveBase.NARROW
        assert left.behaviour is LendingBehaviour.FRACTIONAL_RESERVE
        assert left.psi == TriangularParams.point(0.0)
        assert left.omega == 0.5
        mid = get_preset("fig2_mid", seed=1)
        assert mid.reserve_base is ReserveBase.BROAD
        assert mid.omega == 1.0
        assert get_preset("fig2_right", seed=1).behaviour is LendingBehaviour.MONEY_MULTIPLICATION

    def test_override_wins_over_preset(self):
        config = get_preset("baseline_perfect", seed=1, phi=0.4)
        assert config.phi == 0.4

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="see `minibank presets`"):
            get_preset("nope", seed=1)
        with pytest.raises(ConfigError, match="see `minibank presets`"):
            config_from_pairs([("preset", "nope"), ("seed", "1")])

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_preset_refused(self, value):
        with pytest.raises(ConfigError, match="^preset: unknown preset ''"):
            config_from_pairs([("seed", "1"), ("preset", value)])
        with pytest.raises(ConfigError, match="^preset: unknown preset ''"):
            config_from_pairs(parse_config_text(f"seed = 1\npreset ={value}\n"))


# The keys a test_out_of_range_values row sets besides its own, so that
# only the rule it aims at refuses it.
_OUT_OF_RANGE_CONTEXT = {
    ("lambda", "0"): [("matching", "endogenous"), ("alpha", "1")],
    ("A1_0", "1e-306"): [("A4_0", "1e-10")],
}


class TestKeyValueFormat:
    def test_round_trip_default(self):
        config = ScenarioConfig(seed=12)
        assert config_from_pairs(parse_config_text(config_to_text(config))) == config

    def test_round_trip_preset(self):
        config = get_preset("fig2_mid", seed=4, T=7)
        assert config_from_pairs(parse_config_text(config_to_text(config))) == config

    def test_round_trip_endogenous(self):
        config = ScenarioConfig(seed=3, matching=MatchingMode.ENDOGENOUS,
                                alpha=1.5, lam=2.0)
        assert config_from_pairs(parse_config_text(config_to_text(config))) == config

    def test_preset_expands_then_explicit_keys_override(self):
        config = config_from_pairs([("preset", "baseline_perfect"),
                                    ("seed", "5"), ("phi", "0.4")])
        assert config.phi == 0.4
        assert config.omega == 0.5

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_pairs([("preset", "baseline_perfect")])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_pairs([("seed", "1"), ("gamma", "0.1")])

    @pytest.mark.parametrize("key,value", [
        ("gamma_RR", "0"),          # lending targets divide by the ratio
        ("gamma_TR_noise", "-0.01"),
        ("phi", "1.5"),
        ("omega", "-0.1"),
        ("theta", "0.5, 0.2, 1"),   # ordering violated
        ("psi", "0, 0.5, 1.5"),     # a repayment ratio above one
        ("B", "1"),
        ("C", "5"),                 # fewer customers than the default ten banks
        ("T", "-3"),
        ("T", "0"),                  # a run models at least one period
        ("A1_0", "0"),
        ("A1_0", "5e-324"),          # A1_0 / C below the smallest normal float
        ("A1_0", "4.45e-308"),
        ("A1_0", "1e-310"),
        ("A1_0", "1e-300"),          # A4_0 / A1_0 = 1e8 / 1e-300 above 1e300
        ("A1_0", "1e-306"),          # with A4_0 = 1e-10 only A1_0 / C refuses it
        ("A4_0", "-1"),
        ("matching", "endogenous"),  # without alpha
        ("lambda", "0"),             # under endogenous matching with alpha = 1
        ("l5_spread", "inf"),        # every float key and triangular bound is finite
        ("l5_spread", "nan"),
        ("A1_0", "inf"),
        ("A4_0", "nan"),
        ("xi2", "nan"),
        ("gamma_TR_noise", "inf"),
        ("r_L2", "inf"),
        ("r_A1", "0, 0.01, inf"),
        ("r_A1", "nan, 0.01, 0.02"),  # a NaN bound fails every ordering too
        ("alpha", "inf"),
        ("seed", "-1"),              # RngStreams leaves the seed rule to validate
    ])
    def test_out_of_range_values(self, key, value):
        context = _OUT_OF_RANGE_CONTEXT.get((key, value), [])
        named = "alpha" if key == "matching" else key  # the key the message blames
        rule = "must be finite" if "inf" in value or "nan" in value else ""
        with pytest.raises(ConfigError, match=f"^{named}: {rule}"):
            config_from_pairs([("seed", "1"), *context, (key, value)])

    @pytest.mark.parametrize("key,value,message", [
        ("T", "ten", "expected an integer"),
        ("phi", "high", "expected a number"),
        ("theta", "0.1, 0.9", "expected 'value' or 'lower, peak, upper'"),
        ("transfer_on_issue", "maybe", "expected true/false"),
        ("matching", "random", "expected one of exogenous, endogenous"),
    ])
    def test_malformed_value(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}, got '{value}'$"):
            config_from_pairs([("seed", "1"), (key, value)])

    def test_line_without_equals_refused(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got 'phi 0.4'$"):
            parse_config_text("seed = 1\nphi 0.4\n")

    def test_key_layout_bounds_banks_and_periods(self):
        def config(B, T):
            return config_from_pairs([("seed", "1"), ("B", str(B)), ("C", str(B)),
                                      ("T", str(T))])

        # the last period a 100-bank key can carry fits int64, one more does not
        last = KeyLayout(100).last_period
        assert config(100, last).T == last
        with pytest.raises(ConfigError, match="^T: "):
            config(100, last + 1)
        # 2**30 banks leave one bit for the period; one more bank leaves none
        assert config(2**30, 1).B == 2**30
        with pytest.raises(ConfigError, match="^T: "):
            config(2**30, 2)
        with pytest.raises(ConfigError, match="^B: "):
            config(2**30 + 1, 1)
        for B, T in ((100, last), (2**30, 1)):
            layout = KeyLayout(B)
            key = layout.pack(T, B - 1, B - 2, LoanKind.ROLLOVER)
            assert unpack(layout, key) == (T, B - 1, B - 2, LoanKind.ROLLOVER)
            fields = layout.fields(np.fromiter([key], dtype=np.int64, count=1))
            assert [f.item() for f in fields] == [B - 1, B - 2, T, LoanKind.ROLLOVER]
            with pytest.raises(OverflowError):
                np.fromiter([layout.pack(T + 1, 0, 0, 0)], dtype=np.int64, count=1)

    def test_comments_and_blank_lines_ignored(self):
        text = "# scenario\n\nseed = 9\nphi = 0.4\n"
        config = config_from_pairs(parse_config_text(text))
        assert config.seed == 9 and config.phi == 0.4

    def test_scalar_becomes_point_mass(self):
        config = config_from_pairs([("seed", "1"), ("theta", "0.7")])
        assert config.theta == TriangularParams.point(0.7)


class TestArtifacts:
    def _trace(self, T=3):
        return run_scenario(ScenarioConfig(seed=8, T=T, B=4, C=80))

    def test_row_counts_and_headers(self, tmp_path):
        trace = self._trace(T=3)
        paths = emit_trace_artifacts(trace, tmp_path)
        aggregate = paths["aggregate"].read_text().splitlines()
        assert aggregate[0] == ",".join(AGGREGATE_HEADER)
        assert len(aggregate) == 1 + 3
        per_bank = paths["per_bank"].read_text().splitlines()
        assert per_bank[0] == ",".join(PER_BANK_HEADER)
        assert len(per_bank) == 1 + 3 * 4

    def test_values_round_trip_exactly(self, tmp_path):
        trace = self._trace()
        paths = emit_trace_artifacts(trace, tmp_path)
        lines = paths["aggregate"].read_text().splitlines()
        money_col = AGGREGATE_HEADER.index("money_total")
        parsed = [float(line.split(",")[money_col]) for line in lines[1:]]
        assert parsed == list(trace.aggregates["money_total"])

    def test_byte_determinism(self, tmp_path):
        a = emit_trace_artifacts(self._trace(), tmp_path / "a")
        b = emit_trace_artifacts(self._trace(), tmp_path / "b")
        for name in a:
            assert a[name].read_bytes() == b[name].read_bytes()

    def test_wall_time_is_the_only_varying_line(self, tmp_path):
        a = emit_trace_artifacts(self._trace(), tmp_path / "a", wall_time=1.0)
        b = emit_trace_artifacts(self._trace(), tmp_path / "b", wall_time=2.0)
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert strip(a["manifest"]) == strip(b["manifest"])

    def test_manifest_parses_back_to_the_config(self, tmp_path):
        trace = self._trace()
        paths = emit_trace_artifacts(trace, tmp_path)
        assert config_from_pairs(parse_config_text(paths["manifest"].read_text())) == trace.config

    def test_figure_subset(self, tmp_path):
        paths = emit_trace_artifacts(self._trace(), tmp_path, figure=7)
        header = paths["figure"].read_text().splitlines()[0]
        assert header == ",".join(("period",) + FIGURE_COLUMNS[7])

    def test_unknown_figure_rejected(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="^figure: "):
            emit_trace_artifacts(self._trace(), out, figure=9)
        assert not out.exists()  # refused before any file is written


class TestCli:
    def test_module_entry_point_exits_with_mains_status(self, tmp_path):
        # `python -m minibank.cli` hands main's status to the shell
        env = dict(os.environ, PYTHONPATH=str(Path(minibank.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "minibank.cli", "run", "--seed", "1",
                               "--set", "T=0", "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1
        assert done.stderr == "error: T: must be at least 1\n"

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    def test_run_emits_artifacts(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig1_left", "--seed", "3",
                     "--set", "T=4", "--set", "C=100", "--set", "B=4",
                     "--out", str(tmp_path), "--figure", "1"])
        assert code == 0
        assert (tmp_path / "aggregate.csv").exists()
        assert (tmp_path / "figure1.csv").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_run_with_config_file(self, tmp_path):
        config_file = tmp_path / "scenario.cfg"
        config_file.write_text("preset = baseline_perfect\nseed = 2\nT = 3\nB = 4\nC = 80\n")
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 0

    def test_ensemble(self, tmp_path):
        code = main(["ensemble", "--preset", "baseline_perfect", "--seed", "5",
                     "--seeds", "2", "--set", "T=3", "--set", "C=80", "--set", "B=4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ensemble_aggregate.csv").exists()
        assert (tmp_path / "ensemble_metrics.csv").exists()

    def test_compare(self, tmp_path, capsys):
        code = main(["compare", "--preset", "baseline_perfect", "--seed", "5",
                     "--seeds", "2", "--phis", "0,0.8",
                     "--set", "T=4", "--set", "C=80", "--set", "B=4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "compare_summary.csv").exists()
        assert "phi sweep" in capsys.readouterr().out

    def test_compare_table_tells_close_phis_apart(self, capsys):
        code = main(["compare", "--preset", "baseline_perfect", "--seed", "5",
                     "--seeds", "2", "--phis", "0.001,0.004",
                     "--set", "T=4", "--set", "C=80", "--set", "B=4"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[2:4]
        assert [row.split()[0] for row in rows] == ["0.001", "0.004"]

    def test_validate(self, capsys):
        code = main(["validate", "--preset", "baseline_perfect", "--seed", "5",
                     "--set", "T=3", "--set", "C=80", "--set", "B=4"])
        assert code == 0
        assert "[PASS] per-phase identity, currency and ledger checks" in capsys.readouterr().out

    def test_missing_seed_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig1_left", "--out", str(tmp_path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_empty_preset_flag_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--seed", "1", "--preset", "", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: preset: unknown preset ''")

    def test_bad_set_syntax(self, tmp_path, capsys):
        code = main(["run", "--seed", "1", "--set", "T4", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --set expects KEY=VALUE")

    @pytest.mark.parametrize("phis", ["0,abc", ""])
    def test_bad_phis_fail_cleanly(self, phis, capsys):
        code = main(["compare", "--preset", "baseline_perfect", "--seed", "5",
                     "--seeds", "2", "--phis", phis, "--set", "T=2", "--set", "C=80",
                     "--set", "B=4"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --phis: ")

    def test_duplicate_phis_fail_cleanly(self, capsys):
        # one phi orders nothing, so every trend line would hold vacuously
        for phis in ("0,0", "0.4"):
            code = main(["compare", "--preset", "baseline_perfect", "--seed", "5",
                         "--seeds", "2", "--phis", phis, "--set", "T=2", "--set", "C=80",
                         "--set", "B=4"])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: phis: ") and err.count("\n") == 1, phis

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --config: cannot read ")

    @pytest.mark.parametrize("key,sets", [
        # an infinite spread once ran into NumPy warnings and a NaN residual
        ("l5_spread", ["B=4", "C=40", "T=5", "l5_spread=inf"]),
        # 2**47 periods would overflow a 100-bank ledger key
        ("T", ["B=100", "C=100", f"T={2**47}"]),
        ("T", ["T=0"]),
        # an empty preset name once ran the defaults with no preset
        ("preset", ["preset="]),
        ("l5_spread", ["l5_spread=-0.01"]),
    ])
    def test_rejected_config_is_one_error_line(self, key, sets, tmp_path, capsys):
        args = ["run", "--seed", "3", "--out", str(tmp_path)]
        for pair in sets:
            args += ["--set", pair]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,seeds", [("ensemble", "0"), ("ensemble", "-1"),
                                               ("compare", "0")])
    def test_no_seeds_is_one_error_line(self, command, seeds, tmp_path, capsys):
        args = [command, "--preset", "baseline_perfect", "--seed", "5", "--seeds", seeds,
                "--set", "T=2", "--set", "C=80", "--set", "B=4"]
        if command == "ensemble":
            args += ["--out", str(tmp_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: n_seeds: must be at least 1\n"

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["run", "--seed", "1", "--set", "T=1", "--set", "B=2", "--set", "C=4",
                     "--out", str(afile)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
