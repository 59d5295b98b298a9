import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cachegeo import experiments
from cachegeo.cli import main
from cachegeo.experiments import (
    FIGURES,
    ConfigError,
    ExperimentConfig,
    list_figures,
    load_config,
    run,
    select_c,
)
from cachegeo.model import NetworkParams, zipf_popularity
from cachegeo.simulator import MCEstimate


BASE_CONFIG = """
[network]
helper_density = 0.05
user_density = 0.002
snr_db = 20.0
pathloss_exp = 3.0
fading_desired = 1.0
fading_interf = 1.0

[library]
count = 6
gamma = 1.0
rate_mode = uniform
rho_max = 1.0
rate_seed = 3

[policy]
memory = 2
source = optimize-noise

[experiment]
trials = 2000
seed = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


class TestConfig:
    def test_loads_with_overrides(self, config_file):
        config = load_config(str(config_file), "simulate", trials=500, seed=11)
        assert config.count == 6
        assert config.trials == 500
        assert config.seed == 11

    def test_unknown_sweep_rejected(self, config_file):
        with pytest.raises(ConfigError):
            load_config(str(config_file), "simulate", sweep="bandwidth", sweep_grid=(1.0,))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini", "simulate")

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="dance").validate()

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="simulate", trials=0).validate()

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nets]\nhelper_density = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path), "simulate")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[network]\nhelper_densty = 0.05\n")
        with pytest.raises(ConfigError):
            load_config(str(path), "simulate")

    def test_snr_conversion(self):
        params = ExperimentConfig(scenario="simulate", snr_db=20.0, tx_power=1.0).network()
        assert params.snr == pytest.approx(100.0)


class TestRun:
    def test_simulate_noise_writes_csv_and_manifest(self, config_file, tmp_path):
        out = tmp_path / "result.csv"
        config = load_config(str(config_file), "simulate", output=str(out), trials=400)
        assert run(config) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep,")
        assert len(lines) == 2
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["trials"] == 400
        assert "snr" in manifest["notes"]

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            run(load_config(str(config_file), "simulate", output=str(out), trials=300))
        assert out1.read_bytes() == out2.read_bytes()

    def test_optimize_noise_with_sweep(self, config_file, tmp_path):
        out = tmp_path / "opt.csv"
        config = load_config(
            str(config_file),
            "optimize-noise",
            output=str(out),
            sweep="gamma",
            sweep_grid=(0.0, 1.0),
        )
        run(config)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 6  # header + per-content rows per sweep point
        header = lines[0].split(",")
        assert "p_opt" in header and "kkt_residual" in header

    def test_optimize_sir_fixed_c(self, config_file, tmp_path):
        out = tmp_path / "sir.csv"
        config = load_config(
            str(config_file), "optimize-sir", output=str(out), c_mode="fixed", c_value=10.0
        )
        run(config)
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 6
        assert rows[1].split(",")[2] == "10"

    def test_cdf_scenario(self, config_file, tmp_path):
        out = tmp_path / "cdf.csv"
        config = load_config(str(config_file), "cdf", output=str(out), trials=2000)
        run(config)
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert set(body.dtype.names) >= {"xi", "analytic_cdf", "empirical_cdf"}
        assert np.all(np.abs(body["analytic_cdf"] - body["empirical_cdf"]) < 0.1)

    def test_unknown_figure_raises_config_error(self):
        config = ExperimentConfig(scenario="figure", figure="99")
        with pytest.raises(ConfigError):
            run(config)


class TestFigureRegistry:
    def test_exactly_eight_entries(self):
        assert len(FIGURES) == 8
        assert set(FIGURES) == {"3", "4", "5", "6", "7", "approx-check", "8", "9"}

    def test_list_matches_registry(self):
        rows = list_figures()
        assert len(rows) == 8
        for row in rows:
            entry = FIGURES[row["figure"]]
            assert row["title"] == entry.title
            assert json.loads(row["parameters"]) == {
                k: v for k, v in entry.parameters.items()
            }

    def test_figure_4_runs_small(self, tmp_path):
        out = tmp_path / "fig4.csv"
        config = ExperimentConfig(scenario="figure", figure="4", output=str(out), trials=100)
        run(config)
        body = out.read_text().splitlines()
        assert body[0] == "gamma,ps_proposed,ps_mpc,ps_uc,policy_proposed"
        assert len(body) == 1 + 7
        for line in body[1:]:
            gamma, proposed, mpc, uc, _ = line.split(",")
            assert float(proposed) >= float(mpc) - 1e-12
            assert float(proposed) >= float(uc) - 1e-12


class TestCommandLine:
    def test_list_figures_command(self):
        result = CliRunner().invoke(main, ["list-figures"])
        assert result.exit_code == 0
        assert "approx-check" in result.output

    def test_simulate_command(self, config_file, tmp_path):
        out = tmp_path / "cli.csv"
        result = CliRunner().invoke(
            main,
            ["simulate", "--config", str(config_file), "--trials", "200", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[library]\ncount = -3\n")
        result = CliRunner().invoke(main, ["simulate", "--config", str(bad)])
        assert result.exit_code == 2

    def test_unknown_figure_exits_2(self, config_file):
        result = CliRunner().invoke(
            main, ["figure", "--config", str(config_file), "--figure", "99"]
        )
        assert result.exit_code == 2

    def test_figure_alias_ten(self, config_file, tmp_path):
        out = tmp_path / "fig10.csv"
        result = CliRunner().invoke(
            main,
            [
                "figure", "--config", str(config_file), "--figure", "10",
                "--trials", "60", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "user-density-sweep" in out.read_text()


class TestSelectC:
    def test_certified_c_bounds_reference(self):
        from cachegeo.analytics import InterferenceConstants, rayleigh_lower_bound
        from cachegeo.model import ContentLibrary
        from cachegeo.simulator import simulate_interference_limited
        from cachegeo.model import CachingPolicy

        lib = ContentLibrary(2, zipf_popularity(2, 1.0), np.array([0.001, 0.001]))
        params = NetworkParams(1e-5, 2e-5, 1.0, 0.0, 3.0, 1.0, 1.0)
        c = select_c(lib, params, 1, trials=400, seed=5)
        assert c >= 1.0
        consts = InterferenceConstants.from_library(lib, 3.0, c)
        policy = CachingPolicy(np.array([0.5, 0.5]), 1)
        ref = simulate_interference_limited(lib, params, policy, 400, 6, "long-term-assoc")
        assert rayleigh_lower_bound(lib, consts, policy) <= ref.estimate + 3 * ref.stderr + 0.05


    def test_zero_success_reference_does_not_block_certification(self):
        # figure-8 setting at rho = 0.6: with 200 trials and seed 3 one random
        # reference policy (p1 = 0.086) sees no success, so est + 3 se = 0
        # would reject every c; its z = 3 Wilson limit 9 / (n + 9) is used instead
        from cachegeo.model import ContentLibrary

        lib = ContentLibrary(2, zipf_popularity(2, 1.0), np.array([0.6, 0.6]))
        params = NetworkParams(1e-5, 2e-5, 1.0, 0.01, 3.0, 1.0, 1.0)
        c = select_c(lib, params, 1, trials=200, seed=3)
        assert c in experiments._C_GRID


    def test_upper_limit_of_a_reference(self):
        # no success: the z = 3 Wilson upper limit 9 / (n + 9); otherwise est + 3 se
        assert experiments._upper_limit(MCEstimate.from_counts(0, 200)) == pytest.approx(9 / 209)
        ref = MCEstimate.from_counts(50, 200)
        assert experiments._upper_limit(ref) == pytest.approx(0.25 + 3 * ref.stderr)


class TestSingleCResolution:
    def test_simulate_resolves_numeric_c_once_per_point(self, tmp_path, monkeypatch):
        calls = []
        original = experiments.select_c

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "select_c", spy)
        config = ExperimentConfig(
            scenario="simulate", count=2, memory=1, rate_mode="constant", rho=0.001,
            helper_density=1e-5, user_density=2e-5, policy_source="optimize-sir",
            c_mode="numeric", channel="interference", trials=40, seed=2,
            output=str(tmp_path / "sim.csv"),
        )
        run(config)
        assert len(calls) == 1


class TestExitCodes:
    def test_numeric_failure_exits_3(self, config_file, monkeypatch):
        import cachegeo.cli as cli_module
        from cachegeo.errors import NumericalError

        def exploding_run(config):
            raise NumericalError("quadrature blew up")

        monkeypatch.setattr(cli_module, "run", exploding_run)
        result = CliRunner().invoke(main, ["simulate", "--config", str(config_file)])
        assert result.exit_code == 3

    def test_infinite_snr_noise_scenario_exits_2(self, tmp_path):
        config = tmp_path / "noiseless.ini"
        config.write_text(BASE_CONFIG.replace("snr_db = 20.0", "snr_db = inf"))
        result = CliRunner().invoke(main, ["optimize-noise", "--config", str(config)])
        assert result.exit_code == 2
        assert "noise_power" in result.output

    def test_threshold_overflow_exits_2(self, tmp_path):
        # 2^(c rho) - 1 with c rho = 1200 overflows: a ValueError naming
        # c * max(rate), not a late bisection failure on a [nan, nan] bracket
        config = tmp_path / "overflow.ini"
        config.write_text(
            BASE_CONFIG.replace("rate_mode = uniform", "rate_mode = constant\nrho = 30.0")
            + "c_mode = fixed\nc_value = 40\n"
        )
        result = CliRunner().invoke(
            main, ["optimize-sir", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2
        assert "c * max(rate) = 1200" in result.output

    def test_fractional_memory_sweep_exits_2(self, tmp_path):
        config = tmp_path / "memory.ini"
        config.write_text(BASE_CONFIG + "sweep = memory\nsweep_grid = 2.5\n")
        result = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2
        assert "memory" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_unwritable_output_rejected(self, config_file):
        with pytest.raises(ConfigError):
            load_config(str(config_file), "simulate", output="/missing-dir/x.csv")


class TestInterferenceScenario:
    def test_simulate_interference_channel(self, tmp_path):
        config = tmp_path / "interf.ini"
        config.write_text(
            """
[network]
helper_density = 1e-5
user_density = 2e-5
snr_db = 20.0
pathloss_exp = 3.0

[library]
count = 2
gamma = 1.0
rate_mode = constant
rho = 0.001

[policy]
memory = 1
source = uc

[experiment]
channel = interference
load_mode = mean-approx
trials = 80
seed = 4
"""
        )
        out = tmp_path / "interf.csv"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, row = out.read_text().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["channel"] == "interference"
        assert record["load_mode"] == "mean-approx"
        assert 0.0 <= float(record["estimate"]) <= 1.0
        assert 0.0 <= float(record["analytic"]) <= 1.0

    def test_multi_slot_memory_uses_instantaneous_reference(self):
        from cachegeo.model import ContentLibrary

        lib = ContentLibrary(
            4, zipf_popularity(4, 1.0), np.full(4, 0.001)
        )
        params = NetworkParams(1e-5, 2e-5, 1.0, 0.0, 3.0, 1.0, 1.0)
        c = select_c(lib, params, memory=2, trials=120, seed=9, n_reference_policies=3)
        assert c >= 1.0


class TestFigureDeterminism:
    def test_monte_carlo_figure_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            config = ExperimentConfig(
                scenario="figure", figure="approx-check", output=str(out), trials=60, seed=3
            )
            run(config)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
