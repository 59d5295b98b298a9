import csv
import json
import math
import platform
import tracemalloc
from dataclasses import replace
from importlib import metadata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracle
from cachegeo import experiments
from cachegeo.cli import main
from cachegeo.experiments import (
    FIGURES,
    ConfigError,
    ExperimentConfig,
    FigureEntry,
    load_config,
    run,
    select_c,
)
from cachegeo.model import NetworkParams, uniform_rates, zipf_popularity
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
        assert manifest["write_s"] >= 0.0 and manifest["wall_time_s"] >= 0.0
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        }

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


def _manifest_rows(out: Path) -> int:
    return json.loads(Path(str(out) + ".manifest.json").read_text())["rows"]


# (the runner to capture: an experiments function or a figure id, config fields);
# their rows hold per-content arrays or only single values
WRITER_CASES = {
    "optimize-noise-sweep": ("_run_optimizer", dict(
        scenario="optimize-noise", count=2000, memory=20, sweep="rho_max",
        sweep_grid=(0.5, 2.0))),
    "optimize-sir-fixed-c": ("_run_optimizer", dict(
        scenario="optimize-sir", count=300, memory=5, c_mode="fixed", c_value=10.0,
        sweep="gamma", sweep_grid=(0.0, 1.5))),
    "optimize-sir-load-c": ("_run_optimizer", dict(
        scenario="optimize-sir", count=300, memory=5, sweep="rho_max",
        sweep_grid=(0.5, 2.0))),
    "figure-3": ("3", dict(scenario="figure", figure="3", trials=500)),
    "figure-4": ("4", dict(scenario="figure", figure="4")),
    "figure-5": ("5", dict(scenario="figure", figure="5")),
    "figure-approx-check": ("approx-check", dict(scenario="figure", figure="approx-check",
                                                 trials=60)),
    "figure-9": ("9", dict(scenario="figure", figure="9", trials=60)),
    "cdf": ("_run_cdf", dict(scenario="cdf", trials=500)),
    "simulate": ("_run_simulate", dict(
        scenario="simulate", sweep="gamma", sweep_grid=(0.5, 1.0), trials=300)),
}


def _run_rows(tmp_path, header: list, rows: list) -> Path:
    """The CSV run writes for a figure whose runner returns (header, rows)."""
    entry = FigureEntry("synthetic rows", {}, {}, runner=lambda config, sweeps: (header, rows))
    out = tmp_path / "run.csv"
    with mock.patch.dict(FIGURES, synthetic=entry):
        run(ExperimentConfig(scenario="figure", figure="synthetic", output=str(out)))
    return out


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1 / 3, 1e300)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# csv quotes a cell holding a comma, quote or newline; the template must keep % literal
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n%d.-')), max_size=6)
_SINGLE_VALUES = st.one_of(
    _FLOATS, _TEXT, st.booleans(), st.integers(-(2**70), 2**70),
    _FLOATS.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _array_column(lines: int):
    """Arrays of `lines` entries of every kind a runner may hand the writer."""
    def of(elements, dtype):
        return st.lists(elements, min_size=lines, max_size=lines).map(
            lambda v: np.array(v, dtype=dtype))
    return st.one_of(
        of(_FLOATS, np.float64), of(st.integers(-(2**63), 2**63 - 1), np.int64),
        of(st.integers(0, 2**64 - 1), np.uint64), of(st.booleans(), bool), of(_TEXT, str),
    )


@st.composite
def _tables(draw):
    """A header and rows of single values and arrays, each row its own line count."""
    header = draw(st.lists(_TEXT, min_size=1, max_size=4))
    rows = []
    for lines in draw(st.lists(st.integers(0, 3), max_size=3)):
        column = st.one_of(_SINGLE_VALUES, _array_column(lines))
        rows.append({name: draw(column) for name in header})
    return header, rows


class TestColumnarWriter:
    """run writes each row through one %-template; the per-cell writer is the reference."""

    @pytest.mark.parametrize("target, settings", WRITER_CASES.values(), ids=WRITER_CASES)
    def test_matches_the_per_cell_oracle(self, target, settings, tmp_path, monkeypatch):
        captured = []

        def capture(runner):
            def spy(*args):
                captured.append(runner(*args))
                return captured[-1]
            return spy

        if target in FIGURES:
            entry = FIGURES[target]
            monkeypatch.setitem(FIGURES, target, replace(entry, runner=capture(entry.runner)))
        else:
            monkeypatch.setattr(experiments, target, capture(getattr(experiments, target)))
        out = tmp_path / "run.csv"
        run(ExperimentConfig(output=str(out), seed=1, **settings))
        ((header, rows),) = captured
        lines = csv_oracle.write_csv(tmp_path / "oracle.csv", header, rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert _manifest_rows(out) == lines == len(out.read_text().splitlines()) - 1

    def test_synthetic_rows_match_the_oracle(self, tmp_path):
        header = ["label", "note", "big", "x", "k", "tiny", "zero"]
        rows = [
            {"label": 'a,b "quoted"', "note": "", "big": 10**13,
             "x": np.array([-0.0, math.inf, -math.inf, 5e-324, 1 / 3, 1e300]),
             "k": np.array([0, 2**40, 10**15, -7, 123456789012345, 5]),
             "tiny": 5e-324, "zero": -0.0},
            {"label": "single values", "note": "two\nlines", "big": 2**45,
             "x": np.float64(1 / 3), "k": np.int64(10**13), "tiny": 2.5e-310, "zero": 0.0},
            {"label": "", "note": ",", "big": -(10**12) - 1, "x": np.array([math.inf]),
             "k": np.array([-1]), "tiny": math.inf, "zero": -0.0},
        ]
        out = _run_rows(tmp_path, header, rows)
        lines = csv_oracle.write_csv(tmp_path / "oracle.csv", header, rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert _manifest_rows(out) == lines == 6 + 1 + 1
        with out.open(newline="") as handle:
            records = list(csv.reader(handle))[1:]
        assert len(records) == lines
        assert records[0] == ['a,b "quoted"', "", "10000000000000", "-0", "0",
                              "4.94065645841e-324", "-0"]
        assert [r[3] for r in records[1:4]] == ["inf", "-inf", "4.94065645841e-324"]
        assert [r[4] for r in records[1:5]] == ["1099511627776", "1000000000000000", "-7",
                                               "123456789012345"]
        assert records[6][:5] == ["single values", "two\nlines", "35184372088832",
                                  "0.333333333333", "10000000000000"]
        assert records[7][:2] == ["", ","]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=_tables())
    def test_random_rows_match_the_oracle(self, table, tmp_path):
        header, rows = table
        out = _run_rows(tmp_path, header, rows)
        lines = csv_oracle.write_csv(tmp_path / "oracle.csv", header, rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert _manifest_rows(out) == lines

    @pytest.mark.parametrize("cell", ["", np.array(["", "x", ""])], ids=["single", "array"])
    def test_empty_cell_of_a_one_column_line_is_quoted(self, cell, tmp_path):
        rows = [{"": cell}]
        out = _run_rows(tmp_path, [""], rows)
        csv_oracle.write_csv(tmp_path / "oracle.csv", [""], rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert out.read_text().splitlines()[:2] == ['""', '""']

    def test_arrays_of_unequal_length_raise(self, tmp_path):
        row = {"label": "x", "short": np.array([1.0]), "long": np.arange(6)}
        with pytest.raises(ValueError, match=r"differ in length: \{'short': 1, 'long': 6\}"):
            _run_rows(tmp_path, ["label", "short", "long"], [row])
        assert not Path(str(tmp_path / "run.csv") + ".manifest.json").exists()
        assert list(tmp_path.iterdir()) == []  # no run.csv, no partial file
        with pytest.raises(ValueError):
            csv_oracle.expand(row)

    def test_failed_run_keeps_an_earlier_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        out.write_bytes(b"earlier,result\r\n1,2\n")
        good = {"label": "x", "value": np.arange(3), "other": np.ones(3)}
        bad = {"label": "y", "value": np.array([1.0]), "other": np.arange(2)}
        with pytest.raises(ValueError, match="differ in length"):
            _run_rows(tmp_path, ["label", "value", "other"], [good, bad])
        assert out.read_bytes() == b"earlier,result\r\n1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]

    def test_policy_string_matches_per_value_format(self):
        probs = np.concatenate([
            np.random.default_rng(4).random(10_000), [0.0, 1.0, 5e-324, 1e-10, 1 / 3]
        ])
        expected = ";".join(format(p, ".9g") for p in probs)
        assert experiments._policy_string(probs) == expected
        assert experiments._policy_string(np.array([])) == ""


class TestFigureRegistry:
    def test_exactly_eight_entries(self):
        assert len(FIGURES) == 8
        assert set(FIGURES) == {"3", "4", "5", "6", "7", "approx-check", "8", "9"}

    def test_list_matches_registry(self):
        result = CliRunner().invoke(main, ["list-figures"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 3 * len(FIGURES)
        for title, setting, sweeps in zip(lines[::3], lines[1::3], lines[2::3]):
            fid, title = title.split(maxsplit=1)
            entry = FIGURES[fid]
            assert title == entry.title
            assert json.loads(setting.split("setting: ", 1)[1]) == entry.setting
            # tuples print as JSON lists
            assert json.loads(sweeps.split("sweeps: ", 1)[1]) == json.loads(
                json.dumps(entry.sweeps)
            )

    @pytest.mark.parametrize("fid", sorted(FIGURES))
    def test_setting_is_a_valid_config(self, fid, tmp_path):
        setting = FIGURES[fid].setting
        assert set(setting) <= set(ExperimentConfig.__dataclass_fields__)
        base = ExperimentConfig("figure", output=str(tmp_path / "x.csv"))
        replace(base, **setting).validate()

    @pytest.mark.parametrize(
        "fid, header, rows",
        [
            ("3", "lambda,m_d,xi,analytic_cdf,empirical_cdf,stderr", 3 * 40),
            ("4", "gamma,ps_proposed,ps_mpc,ps_uc,policy_proposed", 7),
            ("5", "setting,content,popularity,p_opt,objective", 4 * 10),
            ("6", "rho_max,content,popularity,p_opt,objective", 4 * 10),
            ("7", "memory,content,popularity,p_opt,objective", 6 * 10),
            ("approx-check",
             "p1,est_inst,se_inst,est_mean,se_mean,est_long,se_long,bound_c40", 9),
            ("8", "rho,c,p1_opt,est_opt,se_opt,p1_subopt,est_subopt,se_subopt,bound_subopt", 5),
            ("9", "block,sweep_value,strategy,content,p,bound,c", 7 * 4 + 3 * 7),
        ],
    )
    def test_every_figure_runs_and_records_its_setting(self, fid, header, rows, tmp_path):
        out = tmp_path / "fig.csv"
        run(ExperimentConfig(scenario="figure", figure=fid, output=str(out), trials=60, seed=1))
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        entry = FIGURES[fid]
        assert manifest["config"] == {**manifest["config"], **entry.setting}
        assert manifest["rows"] == rows

    def test_approx_check_manifest_records_the_run(self, tmp_path):
        # the manifest used to record the config defaults (count 10, memory 3, ...)
        out = tmp_path / "approx.csv"
        run(ExperimentConfig(scenario="figure", figure="approx-check", output=str(out),
                             trials=60, seed=1))
        config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
        assert (config["count"], config["memory"], config["rate_mode"]) == (2, 1, "constant")
        assert (config["helper_density"], config["user_density"]) == (1e-5, 2e-5)
        assert (config["c_mode"], config["c_value"]) == ("fixed", 40.0)

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

    def test_zero_helper_density_exits_2(self, tmp_path):
        # the default c_mode = load divides by the helper density
        config = tmp_path / "no_helpers.ini"
        config.write_text(BASE_CONFIG.replace("helper_density = 0.05", "helper_density = 0"))
        result = CliRunner().invoke(
            main, ["optimize-sir", "--config", str(config), "--out", str(tmp_path / "z.csv")]
        )
        assert result.exit_code == 2
        assert "helper_density" in result.output

    @pytest.mark.parametrize(
        "field, old, command",
        [
            # c_mode = load used to turn a NaN user density into c = 1 and exit 0
            ("user_density", "user_density = 0.002", "optimize-sir"),
            # a NaN power used to fail late on a [nan, nan] bisection bracket
            ("tx_power", "snr_db = 20.0", "optimize-noise"),
            # a NaN path loss exponent used to be reported as "kappa must be positive"
            ("pathloss_exp", "pathloss_exp = 3.0", "optimize-noise"),
        ],
        ids=["user_density", "tx_power", "pathloss_exp"],
    )
    def test_nan_network_parameter_exits_2(self, tmp_path, field, old, command):
        config = tmp_path / "nan.ini"
        new = f"{field} = nan" if old.startswith(field) else f"{field} = nan\n{old}"
        config.write_text(BASE_CONFIG.replace(old, new))
        result = CliRunner().invoke(
            main, [command, "--config", str(config), "--out", str(tmp_path / "n.csv")]
        )
        assert result.exit_code == 2
        assert field in result.output
        assert not (tmp_path / "n.csv").exists()

    @pytest.mark.parametrize(
        "field, old, command",
        [
            # optimize-sir wrote c = 1 and a policy for an infinite density
            ("helper_density", "helper_density = 0.05", "optimize-sir"),
            # a late bisection failure on a [nan, inf] bracket (exit 3)
            ("helper_density", "helper_density = 0.05", "optimize-noise"),
            # c = M inf blamed "c * max(rate) = inf"
            ("user_density", "user_density = 0.002", "optimize-sir"),
        ],
        ids=["helper_density-sir", "helper_density-noise", "user_density-sir"],
    )
    def test_infinite_density_exits_2(self, tmp_path, field, old, command):
        config = tmp_path / "inf.ini"
        config.write_text(BASE_CONFIG.replace(old, f"{field} = inf"))
        result = CliRunner().invoke(
            main, [command, "--config", str(config), "--out", str(tmp_path / "i.csv")]
        )
        assert result.exit_code == 2
        assert f"{field} must be" in result.output
        assert not (tmp_path / "i.csv").exists()

    @pytest.mark.parametrize("c_value", ["nan", "inf", "0.5"])
    def test_bad_fixed_c_value_exits_2(self, tmp_path, c_value):
        # c_value = nan was reported as "c * max(rate) = nan overflows ..."
        config = tmp_path / "c.ini"
        config.write_text(BASE_CONFIG + f"c_mode = fixed\nc_value = {c_value}\n")
        result = CliRunner().invoke(
            main, ["optimize-sir", "--config", str(config), "--out", str(tmp_path / "c.csv")]
        )
        assert result.exit_code == 2
        assert "c_value must be >= 1 and finite" in result.output
        assert not (tmp_path / "c.csv").exists()

    def test_c_value_is_checked_only_when_fixed(self):
        ExperimentConfig(scenario="optimize-sir", c_mode="load", c_value=math.nan).validate()
        with pytest.raises(ConfigError, match="c_value"):
            ExperimentConfig(scenario="optimize-sir", c_mode="fixed", c_value=math.nan).validate()

    @pytest.mark.parametrize("command", ["optimize-noise", "simulate"])
    def test_zero_tx_power_exits_2(self, tmp_path, command):
        # optimize-noise blamed snr_db, and interference-channel simulate of
        # the uc baseline wrote estimate 0 under a 0/0 RuntimeWarning
        config = tmp_path / "silent.ini"
        config.write_text(
            BASE_CONFIG.replace("snr_db = 20.0", "tx_power = 0\nsnr_db = 20.0")
            .replace("source = optimize-noise", "source = uc")
            + "channel = interference\n"
        )
        result = CliRunner().invoke(
            main, [command, "--config", str(config), "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 2
        assert "tx_power must be > 0" in result.output
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("snr_db", ["-inf", "-3500", "nan"])
    def test_non_finite_noise_power_exits_2(self, tmp_path, snr_db):
        # 10^(snr_db/10) rounds to 0 (or is NaN): a ZeroDivisionError traceback before
        config = tmp_path / "loud.ini"
        config.write_text(BASE_CONFIG.replace("snr_db = 20.0", f"snr_db = {snr_db}"))
        result = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "l.csv")]
        )
        assert result.exit_code == 2
        assert "snr_db" in result.output
        assert not (tmp_path / "l.csv").exists()

    def test_unrepresentable_snr_acts_as_noiseless(self, tmp_path):
        # 10^310 overflowed with an OverflowError traceback; it is +inf, noise power 0
        assert ExperimentConfig(scenario="simulate", snr_db=3100.0).network().noise_power == 0.0
        config = tmp_path / "huge.ini"
        config.write_text(BASE_CONFIG.replace("snr_db = 20.0", "snr_db = 3100"))
        noise = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "n.csv")]
        )
        assert noise.exit_code == 2
        assert "noise_power" in noise.output
        sir = CliRunner().invoke(
            main, ["optimize-sir", "--config", str(config), "--out", str(tmp_path / "s.csv")]
        )
        assert sir.exit_code == 0, sir.output

    @pytest.mark.parametrize("helper_density", ["1e-300", "1e-9"])
    def test_overpopulated_chunk_exits_2_before_drawing(self, tmp_path, helper_density):
        # 1e-300 failed with numpy's bare "lam value too large"; 1e-9 asked for
        # gigabytes in one chunk
        config = tmp_path / "crowded.ini"
        config.write_text(
            BASE_CONFIG.replace("helper_density = 0.05", f"helper_density = {helper_density}")
            .replace("source = optimize-noise", "source = uc") + "channel = interference\n"
        )
        tracemalloc.start()
        try:
            result = CliRunner().invoke(
                main, ["simulate", "--config", str(config), "--out", str(tmp_path / "c.csv")]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert "user_density / helper_density" in result.output
        assert peak < 5e6
        assert not (tmp_path / "c.csv").exists()

    def test_unknown_load_mode_exits_2(self, tmp_path):
        # the noise channel ignores load_mode, so a bogus one reached the manifest
        config = tmp_path / "mode.ini"
        config.write_text(BASE_CONFIG + "load_mode = bogus\n")
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        )
        assert result.exit_code == 2
        assert "load_mode" in result.output
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", v) for v in ("nan", "inf", "2000", "1e300")]
        + [("rho_max", v) for v in ("nan", "inf")]
        + [("rho", v) for v in ("nan", "inf")],
    )
    def test_bad_library_field_exits_2(self, tmp_path, field, value):
        # these failed in ContentLibrary, naming the popularity or rate array
        old = {"gamma": "gamma = 1.0", "rho_max": "rho_max = 1.0", "rho": "rate_mode = uniform"}
        new = f"{field} = {value}" if field != "rho" else f"rate_mode = constant\nrho = {value}"
        config = tmp_path / "library.ini"
        config.write_text(BASE_CONFIG.replace(old[field], new))
        result = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "r.csv")]
        )
        assert result.exit_code == 2
        assert f"{field} " in result.stderr
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("scenario", ["optimize-noise", "simulate"])
    def test_overflowing_rate_exits_2(self, tmp_path, scenario):
        # 2^rate overflowed and the run failed with "threshold factors must be
        # positive", naming neither the rate nor rho_max
        config = tmp_path / "rate.ini"
        config.write_text(BASE_CONFIG.replace("rho_max = 1.0", "rho_max = 1e300"))
        result = CliRunner().invoke(
            main, [scenario, "--config", str(config), "--out", str(tmp_path / "r.csv")]
        )
        assert result.exit_code == 2
        largest = uniform_rates(1e300, 6, 3).max()
        assert f"max(rate) = {largest:g} overflows" in result.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_infinite_fading_exits_2(self, tmp_path):
        # passed NetworkParams and died on a RuntimeWarning in _fading_moment
        config = tmp_path / "fading.ini"
        config.write_text(BASE_CONFIG.replace("fading_desired = 1.0", "fading_desired = inf"))
        result = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "f.csv")]
        )
        assert result.exit_code == 2
        assert "fading_desired" in result.stderr
        assert not (tmp_path / "f.csv").exists()

    def test_fractional_memory_sweep_exits_2(self, tmp_path):
        config = tmp_path / "memory.ini"
        config.write_text(BASE_CONFIG + "sweep = memory\nsweep_grid = 2.5\n")
        result = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2
        assert "memory" in result.output
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("channel", ["noise", "interference"])
    def test_nan_caching_probability_exits_2(self, tmp_path, channel):
        # every comparison with NaN is False, so p = (nan, 0.5, 0.5) passed the
        # bound checks and wrote analytic = nan beside a finite estimate
        config = tmp_path / "nanp.ini"
        config.write_text(
            BASE_CONFIG.replace("count = 6", "count = 3")
            .replace("memory = 2\nsource = optimize-noise",
                     "memory = 1\nsource = explicit\nprobs = nan, 0.5, 0.5")
            + f"channel = {channel}\n"
        )
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config), "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 2
        assert "p[0]=nan is not a number" in result.output
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "field, ini, flags",
        [
            ("seed", BASE_CONFIG, ["--seed", "-1"]),
            ("rate_seed", BASE_CONFIG.replace("rate_seed = 3", "rate_seed = -3"), []),
        ],
        ids=["seed", "rate_seed"],
    )
    def test_negative_seed_exits_2(self, tmp_path, field, ini, flags):
        # numpy's "expected non-negative integer" named no field
        config = tmp_path / "seed.ini"
        config.write_text(ini)
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config), *flags, "--out", str(tmp_path / "s.csv")]
        )
        assert result.exit_code == 2
        assert f"error: {field} must be >= 0" in result.output
        assert not (tmp_path / "s.csv").exists()

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
        c = select_c(lib, params, memory=2, trials=120, seed=9)
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
