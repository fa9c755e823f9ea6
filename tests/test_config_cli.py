import pytest

from minibank import (
    ConfigError,
    LendingBehaviour,
    MatchingMode,
    ReserveBase,
    ScenarioConfig,
    TriangularParams,
    config_from_pairs,
    config_to_text,
    emit_trace_artifacts,
    get_preset,
    load_config_file,
    preset_names,
    run_scenario,
)
from minibank.artifacts import AGGREGATE_HEADER, FIGURE_COLUMNS, PER_BANK_HEADER
from minibank.cli import main
from minibank.config import parse_config_text


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
        with pytest.raises(ConfigError):
            get_preset("nope", seed=1)


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
        ("A1_0", "0"),
        ("A4_0", "-1"),
        ("matching", "endogenous"),  # without alpha
        ("lambda", "0"),             # under endogenous matching with alpha = 1
    ])
    def test_out_of_range_values(self, key, value):
        endogenous = [("matching", "endogenous"), ("alpha", "1")] if key == "lambda" else []
        with pytest.raises(ConfigError):
            config_from_pairs([("seed", "1"), *endogenous, (key, value)])

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

    def test_empty_trace_gives_header_only_files(self, tmp_path):
        paths = emit_trace_artifacts(self._trace(T=0), tmp_path)
        for name in ("per_bank", "aggregate", "histogram"):
            assert len(paths[name].read_text().splitlines()) == 1

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
        assert load_config_file(paths["manifest"]) == trace.config

    def test_figure_subset(self, tmp_path):
        paths = emit_trace_artifacts(self._trace(), tmp_path, figure=7)
        header = paths["figure"].read_text().splitlines()[0]
        assert header == ",".join(("period",) + FIGURE_COLUMNS[7])

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_trace_artifacts(self._trace(), tmp_path, figure=11)


class TestCli:
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

    def test_validate(self, capsys):
        code = main(["validate", "--preset", "baseline_perfect", "--seed", "5",
                     "--set", "T=3", "--set", "C=80", "--set", "B=4"])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_missing_seed_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig1_left", "--out", str(tmp_path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_set_syntax(self, tmp_path, capsys):
        code = main(["run", "--seed", "1", "--set", "T4", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("phis", ["0,abc", ""])
    def test_bad_phis_fail_cleanly(self, phis, capsys):
        code = main(["compare", "--preset", "baseline_perfect", "--seed", "5",
                     "--seeds", "2", "--phis", phis, "--set", "T=2", "--set", "C=80",
                     "--set", "B=4"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --phis: ")

    def test_duplicate_phis_fail_cleanly(self, capsys):
        code = main(["compare", "--preset", "baseline_perfect", "--seed", "5",
                     "--seeds", "2", "--phis", "0,0", "--set", "T=2", "--set", "C=80",
                     "--set", "B=4"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: phis: ")

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --config: cannot read ")
