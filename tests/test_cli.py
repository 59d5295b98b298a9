import csv
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from importlib import metadata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csv_oracle
import run_matrix
from cachegeo import experiments, model, optimizer, simulator
from cachegeo.cli import main
from cachegeo.experiments import (
    FIGURES,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    FigureEntry,
    load_config,
    run,
    select_c,
)
from cachegeo.model import MAX_COUNT, NetworkParams, zipf_popularity
from cachegeo.simulator import LOAD_MODES, MCEstimate
from test_model import NumpyWithoutAllocation


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

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            load_config(None, "simulate", bandwidth=5.0)

    def test_snr_conversion(self):
        # powers are in units of the transmit power, so snr_db alone sets the SNR
        params = ExperimentConfig(scenario="simulate", snr_db=20.0).network()
        assert params.tx_power == 1.0
        assert params.snr == pytest.approx(100.0)

    def test_unrepresentable_snr_acts_as_noiseless(self, tmp_path):
        # 10^310 overflowed with an OverflowError traceback; it is +inf, noise power 0
        # (the noise channel refuses it: run_matrix row snr_db=3100-optimize-noise)
        assert ExperimentConfig(scenario="simulate", snr_db=3100.0).network().noise_power == 0.0
        config = tmp_path / "huge.ini"
        config.write_text(BASE_CONFIG.replace("snr_db = 20.0", "snr_db = 3100"))
        sir = CliRunner().invoke(
            main, ["optimize-sir", "--config", str(config), "--out", str(tmp_path / "s.csv")]
        )
        assert sir.exit_code == 0, sir.output


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

    @pytest.mark.parametrize(
        "scenario, channel, header, rows",
        [
            ("cdf", "noise", "lambda,m_d,xi,analytic_cdf,empirical_cdf,stderr", 40),
            ("optimize-noise", "noise", "sweep,sweep_value,content,popularity,rate,p_opt,"
             "objective,omega,iterations,kkt_residual", 10),
            ("optimize-sir", "noise", "sweep,sweep_value,c,content,popularity,rate,p_opt,"
             "objective,omega,iterations,kkt_residual", 10),
            ("simulate", "noise", "sweep,sweep_value,channel,load_mode,policy,analytic,"
             "estimate,stderr,trials", 1),
            ("simulate", "interference", "sweep,sweep_value,channel,load_mode,policy,analytic,"
             "estimate,stderr,trials", 1),
        ],
        ids=["cdf", "optimize-noise", "optimize-sir", "simulate-noise", "simulate-interference"],
    )
    def test_every_scenario_writes_its_header(self, scenario, channel, header, rows, tmp_path):
        out = tmp_path / "scenario.csv"
        run(ExperimentConfig(scenario=scenario, channel=channel, output=str(out), trials=60,
                             seed=1))
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        assert _manifest_rows(out) == rows

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


def _run_rows(tmp_path, rows: list) -> Path:
    """The CSV run writes for a figure whose runner returns `rows`."""
    entry = FigureEntry("synthetic rows", {}, {}, runner=lambda config, sweeps: rows)
    out = tmp_path / "run.csv"
    with mock.patch.dict(FIGURES, synthetic=entry):
        run(ExperimentConfig(scenario="figure", figure="synthetic", output=str(out)))
    return out


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1 / 3, 1e300)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# csv quotes a cell holding a comma, quote, \n or \r; the template must keep % literal
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r%d.-')), max_size=6)
_SINGLE_VALUES = st.one_of(
    _FLOATS, _TEXT, st.booleans(), st.integers(-(2**70), 2**70),
    _FLOATS.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


_BLOCK = experiments._BLOCK
# a row's line count: a few lines, or one short of, at or one past a block of the writer
_LINES = st.one_of(st.integers(0, 3), st.sampled_from(
    [_BLOCK + d for d in (-1, 0, 1)]))
_ELEMENTS = {np.float64: _FLOATS, np.int64: st.integers(-(2**63), 2**63 - 1),
             np.uint64: st.integers(0, 2**64 - 1), bool: st.booleans(), str: _TEXT}


def _array_column(lines: int):
    """Arrays of `lines` entries of every kind a runner may hand the writer, floats
    (most of a runner's arrays) about as often as the rest together; past four
    lines, a drawn run of up to four entries repeated to length."""
    def of(dtype):
        drawn = st.lists(_ELEMENTS[dtype], min_size=lines if lines <= 4 else 1,
                         max_size=min(lines, 4))
        return drawn.map(lambda v: np.resize(np.array(v, dtype=dtype), lines))
    return st.sampled_from([np.float64] * 3 + [np.int64, np.uint64, bool, str]).flatmap(of)


def _repeat(draw, array: np.ndarray) -> tuple:
    """(the previous row's array, the next row's) for a column the next row repeats:
    the array itself twice, or it and an equal copy; for floats also a copy given
    a signed zero or a NaN at one entry, and its copy with that zero's sign or that
    NaN's payload changed."""
    floats = array.dtype.kind == "f" and array.size > 0
    kinds = ["same", "copy"] + ["zero", "zero", "nan"] * floats
    kind = draw(st.sampled_from(kinds))
    if kind == "same":
        return array, array
    before = array.copy()
    if kind != "copy":
        i = draw(st.integers(0, array.size - 1))
        before[i] = draw(st.sampled_from([0.0, -0.0])) if kind == "zero" else math.nan
    after = before.copy()
    if kind == "zero":
        after[i] = -before[i]
    elif kind == "nan":
        after.view(np.uint64)[i] ^= 1  # the quiet NaN's payload, 0 -> 1
    return before, after


@st.composite
def _tables(draw):
    """Rows of single values and arrays under one list of unique column names,
    each row its own line count.  A row may repeat the previous row's line
    count, and then the previous row's arrays, as `_repeat` draws them: the
    writer formats an array once when the next row's has the same bits, and
    reuses its cells there."""
    header = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows, counts = [], []
    for _ in range(draw(st.integers(1, 4))):
        repeat = bool(rows) and draw(st.booleans())
        counts.append(counts[-1] if repeat else draw(_LINES))
        row = {}
        for name in header:
            if repeat and isinstance(rows[-1][name], np.ndarray) and draw(st.booleans()):
                rows[-1][name], row[name] = _repeat(draw, rows[-1][name])
            else:
                fresh = _array_column(counts[-1]) if draw(st.booleans()) else _SINGLE_VALUES
                row[name] = draw(fresh)
        rows.append(row)
    return rows


class TestVersion:
    """`experiments._version` reads the METADATA header's `Version:` line
    and gives what `importlib.metadata.version` gives; for this package, when
    its source tree is a git checkout, that checkout's HEAD commit, whether a
    distribution is installed or not."""

    @pytest.mark.parametrize("package", ["numpy", "scipy", "pytest"])
    def test_installed_packages(self, package):
        assert experiments._version(package) == metadata.version(package)

    def test_absent_package(self):
        assert experiments._version("cachegeo-no-such-package") == "unknown"

    @pytest.mark.parametrize("name, folder, text, expected", [
        ("probenospace", "dist-info", "Version:1.2.3\n", "1.2.3"),
        ("probetab", "dist-info", "Version:\t4.5\n", "4.5"),
        # the header ends at the first blank line; the parser's fallback
        # reads the lower-case header, never the body's line
        ("probelowercase", "dist-info", "version: 2.0\n\nVersion: 9.9\n", "2.0"),
        ("probeegginfo", "egg-info", "Version: 3.1\n", "3.1"),
    ])
    def test_header_forms(self, tmp_path, monkeypatch, name, folder, text, expected):
        home = tmp_path / f"{name}-0.{folder}"
        home.mkdir()
        header = f"Metadata-Version: 2.1\nName: {name}\n{text}"
        (home / ("PKG-INFO" if folder == "egg-info" else "METADATA")).write_text(header)
        monkeypatch.syspath_prepend(str(tmp_path))
        assert metadata.version(name) == expected
        assert experiments._version(name) == expected

    def test_source_tree_gives_its_checkout_head(self, monkeypatch):
        # run with PYTHONPATH=src, the package has no distribution to read
        def absent(name):
            raise metadata.PackageNotFoundError(name)

        roots = []
        monkeypatch.setattr(experiments.metadata, "distribution", absent)
        monkeypatch.setattr(experiments, "_git_head", lambda root: roots.append(root) or "c0ffee")
        assert experiments._version.__wrapped__("cachegeo") == "c0ffee"
        assert experiments._version.__wrapped__("numpy") == "unknown"
        assert roots == [Path(experiments.__file__).resolve().parents[2]]

    def _version_of_a_copy(self, tmp_path, parent: Path) -> str:
        """_version("cachegeo") of the package copied into `parent`, in a fresh
        interpreter with a cachegeo 0.1.0 dist-info on the path ahead of it."""
        info = tmp_path / "dists" / "cachegeo-0.1.0.dist-info"
        info.mkdir(parents=True)
        (info / "METADATA").write_text("Metadata-Version: 2.1\nName: cachegeo\nVersion: 0.1.0\n")
        shutil.copytree(Path(experiments.__file__).parent, parent / "cachegeo",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = ("from cachegeo import experiments as e\n"
                "print(e.__file__)\nprint(e._version('cachegeo'))")
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (info.parent, parent)))))
        where, version = result.stdout.splitlines()
        assert Path(where) == parent / "cachegeo" / "experiments.py"
        return version

    def test_installed_checkout_gives_its_head(self, tmp_path):
        # `pip install -e .` puts a METADATA of the pyproject version on the
        # path, which named no revision; the source tree is still a checkout
        (tmp_path / "checkout" / ".git").mkdir(parents=True)
        (tmp_path / "checkout" / ".git" / "HEAD").write_text("d" * 40 + "\n")
        assert self._version_of_a_copy(tmp_path, tmp_path / "checkout" / "src") == "d" * 40

    def test_install_outside_a_checkout_gives_its_metadata_version(self, tmp_path):
        assert self._version_of_a_copy(tmp_path, tmp_path / "site-packages") == "0.1.0"

    _PACKED = ("# pack-refs with: peeled fully-peeled sorted\n" + "e" * 40 + " refs/heads/devel\n"
               + "b" * 40 + " refs/heads/dev\n" + "f" * 40 + " refs/tags/v1\n^" + "a" * 40 + "\n")

    @pytest.mark.parametrize("files, expected", [
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": "a" * 40 + "\n"}, "a" * 40),
        ({"HEAD": "ref: refs/heads/dev\n", "packed-refs": _PACKED}, "b" * 40),
        ({"HEAD": "ref: refs/heads/dev\n", "refs/heads/dev": "c" * 40 + "\n",
          "packed-refs": _PACKED}, "c" * 40),
        ({"HEAD": "d" * 40 + "\n"}, "d" * 40),
        ({"HEAD": "ref: refs/heads/gone\n", "packed-refs": _PACKED}, "unknown"),
        ({"HEAD": "ref: refs/heads/gone\n"}, "unknown"),
        ({}, "unknown"),
    ], ids=["branch-ref", "packed-ref", "loose-ref-over-packed", "detached-head",
            "ref-not-packed", "ref-missing", "no-head"])
    def test_git_head_reads_the_git_directory(self, tmp_path, files, expected):
        for name, text in files.items():
            path = tmp_path / ".git" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        (tmp_path / ".git").mkdir(exist_ok=True)
        assert experiments._git_head(tmp_path) == expected

    def test_git_file_or_no_checkout_gives_unknown(self, tmp_path):
        assert experiments._git_head(tmp_path) == "unknown"
        # a linked worktree's or a submodule's .git is a file naming the real one
        (tmp_path / ".git").write_text("gitdir: /elsewhere/.git/worktrees/x\n")
        assert experiments._git_head(tmp_path) == "unknown"


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
        (rows,) = captured
        lines = csv_oracle.write_csv(tmp_path / "oracle.csv", list(rows[0]), rows)
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
        out = _run_rows(tmp_path, rows)
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
    @given(rows=_tables())
    # always run: neighbours alike but in one zero's sign, one line past a block
    @example(rows=[{"p": np.arange(_BLOCK + 1), "z": np.zeros(_BLOCK + 1)},
                   {"p": np.arange(_BLOCK + 1), "z": -np.zeros(_BLOCK + 1)}])
    def test_random_rows_match_the_oracle(self, rows, tmp_path):
        out = _run_rows(tmp_path, rows)
        lines = csv_oracle.write_csv(tmp_path / "oracle.csv", list(rows[0]), rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert _manifest_rows(out) == lines

    @pytest.mark.parametrize("lines", [k * _BLOCK + d for k in (1, 2) for d in (-1, 0, 1)])
    def test_rows_across_block_boundaries_match_the_oracle(self, lines, tmp_path):
        # row to row, the content column repeats as an equal copy, then as the same
        # object; the float column as the same object, then with its last zero negated
        x = np.resize([1 / 3, -2.5e-310, math.inf, 0.0], lines)
        x[-1] = 0.0
        flipped = x.copy()
        flipped[-1] = -0.0
        content, flags = np.arange(lines), np.arange(lines) % 3 == 0
        header = ["label", "content", "x", "flag", "count"]
        rows = [
            {"label": "50%d %%s", "content": np.arange(lines), "x": x, "flag": flags,
             "count": lines},
            {"label": "b", "content": content, "x": x, "flag": ~flags, "count": 0},
            {"label": "c", "content": content, "x": flipped, "flag": flags, "count": -1},
        ]
        out = _run_rows(tmp_path, rows)
        written = csv_oracle.write_csv(tmp_path / "oracle.csv", header, rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert _manifest_rows(out) == written == 3 * lines
        text = out.read_text().splitlines()
        assert text[1] == f"50%d %%s,0,0.333333333333,True,{lines}"
        # the last lines of the second and third rows: their x is 0, then -0
        assert [text[k].split(",")[2] for k in (2 * lines, 3 * lines)] == ["0", "-0"]

    def test_a_one_line_row_is_not_repeated_to_a_block(self, tmp_path):
        # a policy string of 10^5 characters on a row's one line; _BLOCK copies
        # of that line would take 25 MB
        rows = [{"label": "x", "policy": "0.25;" * 20_000}]
        tracemalloc.start()
        try:
            out = _run_rows(tmp_path, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text() == "label,policy\nx," + "0.25;" * 20_000 + "\n"
        assert peak < 2e6

    @pytest.mark.parametrize("cell", ["", np.array(["", "x", ""])], ids=["single", "array"])
    def test_empty_cell_of_a_one_column_line_is_quoted(self, cell, tmp_path):
        rows = [{"": cell}]
        out = _run_rows(tmp_path, rows)
        csv_oracle.write_csv(tmp_path / "oracle.csv", [""], rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert out.read_text().splitlines()[:2] == ['""', '""']

    def test_arrays_of_unequal_length_raise(self, tmp_path):
        row = {"label": "x", "short": np.array([1.0]), "long": np.arange(6)}
        with pytest.raises(ValueError, match=r"differ in length: \{'short': 1, 'long': 6\}"):
            _run_rows(tmp_path, [row])
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
            _run_rows(tmp_path, [good, bad])
        assert out.read_bytes() == b"earlier,result\r\n1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]

    @pytest.mark.parametrize("second, keys", [
        ({"label": "y", "value": 2.0, "extra": 1}, ["label", "value", "extra"]),
        ({"label": "y"}, ["label"]),
        ({"value": 2.0, "label": "y"}, ["value", "label"]),
    ], ids=["one-key-more", "one-key-fewer", "reordered"])
    def test_row_with_other_keys_is_refused(self, second, keys, tmp_path):
        # the header is the first row's keys; a later row must have the same, in order
        out = tmp_path / "run.csv"
        out.write_bytes(b"earlier,result\r\n1,2\n")
        with pytest.raises(ValueError) as raised:
            _run_rows(tmp_path, [{"label": "x", "value": 1.0}, second])
        assert str(raised.value) == (
            f"a row's columns {keys} differ from the first row's ['label', 'value']")
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
        # a figure fixes its own load bound c, so a figure config may not set
        # c_mode or c_value; they are checked where a config may, on optimize-sir
        c_fields = {key: value for key, value in setting.items() if key.startswith("c_")}
        replace(base, **{key: setting[key] for key in setting.keys() - c_fields}).validate()
        replace(base, scenario="optimize-sir", **c_fields).validate()

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


    def test_figure_3_holds_one_row_per_curve_and_the_kernel_buffers(self, monkeypatch):
        # at 10^5 trials a row is 0.8 MB: a sorted copy of one, or a buffer
        # kept per curve, exceeds the 0.2 MB left for the counts and the grids
        trials, entry = 100_000, FIGURES["3"]
        axis = "(helper_density, fading_desired)"
        config = replace(ExperimentConfig(scenario="figure", figure="3", trials=trials, seed=1),
                         **entry.setting)
        # the largest chunk's helper count bounds the kernel's two buffers
        mean = simulator._NOISE_WINDOW_COUNT
        helpers = max(int(simulator._substream(1, c).poisson(mean, n).sum())
                      for c, n in simulator._chunk_grid(trials, simulator._NOISE_CHUNK))
        buffers = 2 * 8 * (helpers + helpers // 16 + 1)
        drawing = []

        def sample(*args):
            samples = simulator.sample_xi_min(*args)
            drawing.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return samples

        monkeypatch.setattr(experiments, "sample_xi_min", sample)
        tracemalloc.start()
        try:
            rows = experiments._run_cdf(config, axis, entry.sweeps[axis])
            sorting = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_bytes = 8 * len(rows) * trials
        assert len(rows) == 3 and len(drawing) == 1
        assert drawing[0] < rows_bytes + buffers + 0.2e6
        assert sorting < rows_bytes + 0.2e6


class TestCommandLine:
    def test_list_figures_command(self):
        result = CliRunner().invoke(main, ["list-figures"])
        assert result.exit_code == 0
        assert "approx-check" in result.output

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


    def test_six_reference_policies(self, monkeypatch):
        # uniform and most-popular caching, then four seeded random policies
        from cachegeo.model import ContentLibrary

        policies, simulate = [], experiments.simulate_interference_limited

        def spy(library, params, policy, *args, **kwargs):
            policies.append(policy.probs)
            return simulate(library, params, policy, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_interference_limited", spy)
        lib = ContentLibrary(3, zipf_popularity(3, 1.0), np.full(3, 0.001))
        params = NetworkParams(1e-5, 2e-5, 1.0, 0.0, 3.0, 1.0, 1.0)
        select_c(lib, params, 1, trials=50, seed=5)
        assert len(policies) == experiments._N_REFERENCE_POLICIES == 6
        assert len({p.tobytes() for p in policies}) == 6

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
    """Refusals that need a patch, a memory trace or an API call; every other
    refusal is a row of run_matrix.REFUSALS."""

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch):
        # one bisection step cannot close the bracket, so _bisect_budget raises
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 1)
        out = tmp_path / "noise.csv"
        result = CliRunner().invoke(main, ["optimize-noise", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "numeric failure: budget bisection failed" in result.stderr
        assert not out.exists()

    def test_uncertified_load_bound_exits_3(self, tmp_path, monkeypatch):
        # a reference with no success in 1e12 trials sits below every bound, so no c certifies
        monkeypatch.setattr(experiments, "simulate_interference_limited",
                            lambda *args, **kwargs: MCEstimate.from_counts(0, 10**12))
        config = tmp_path / "numeric.ini"
        config.write_text("[experiment]\nc_mode = numeric\n")
        out = tmp_path / "numeric.csv"
        result = CliRunner().invoke(main, ["optimize-sir", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "no c in" in result.stderr and "certifies" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, grid", [("simulate", "gamma", "1 0.5 nan"),
                                                     ("optimize-sir", "helper_density", "0.05 nan"),
                                                     ("simulate", "memory", "3 10"),
                                                     ("simulate", "memory", "3 0")],
                             ids=["simulate-gamma", "optimize-sir-helper_density",
                                  "simulate-memory=F", "simulate-memory=0"])
    def test_bad_late_sweep_value_is_refused_before_any_work(self, scenario, key, grid, tmp_path,
                                                             monkeypatch):
        # the earlier points were solved and simulated first: about 1 s of work
        # at 2e6 trials before simulate exited 2 on gamma = nan
        calls = []

        def no_work(name):
            def refuse(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran before the sweep was refused")
            return refuse

        for name in ("optimize_noise", "optimize_interference", "simulate_noise_limited"):
            monkeypatch.setattr(experiments, name, no_work(name))
        config = tmp_path / "late.ini"
        config.write_text(f"[experiment]\nsweep = {key}\nsweep_grid = {grid}\n")
        out = tmp_path / "late.csv"
        result = CliRunner().invoke(main, [scenario, "--config", str(config), "--out", str(out)])
        assert calls == []
        assert result.exit_code == 2, result.output
        assert key in result.stderr
        assert not out.exists()

    def test_c_value_is_checked_only_when_fixed(self):
        # under c_mode = load no part of the run reads c_value; under fixed it must be in range
        with pytest.raises(ConfigError, match=r"^c_value = nan: only optimize-sir"):
            ExperimentConfig(scenario="optimize-sir", c_mode="load", c_value=math.nan).validate()
        with pytest.raises(ConfigError, match=r"^c_value must be >= 1 and finite"):
            ExperimentConfig(scenario="optimize-sir", c_mode="fixed", c_value=math.nan).validate()

    @pytest.mark.parametrize("channel, source", [("interference", "uc"), ("noise", "optimize-sir")])
    def test_fixed_c_is_accepted_where_c_is_read(self, tmp_path, channel, source):
        # an interference simulate reads c for its bound, and a noise simulate
        # with source = optimize-sir for the policy it designs
        from cachegeo.analytics import InterferenceConstants, rayleigh_lower_bound

        out = tmp_path / "fixed.csv"
        config = ExperimentConfig(
            scenario="simulate", channel=channel, policy_source=source, c_mode="fixed",
            c_value=2.5, count=2, memory=1, rate_mode="constant", rho=0.001,
            helper_density=1e-5, user_density=2e-5, trials=40, seed=2, output=str(out),
        ).validate()
        assert run(config) == 0
        row = next(csv.DictReader(out.open()))
        library = config.make_library()
        consts = InterferenceConstants.from_library(library, 3.0, 2.5)
        if channel == "interference":
            assert float(row["analytic"]) == pytest.approx(
                rayleigh_lower_bound(library, consts, np.array([0.5, 0.5])), rel=1e-11)
        else:
            policy = optimizer.optimize_interference(library, consts, 1).policy
            assert row["policy"] == experiments._policy_string(policy.probs)

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

    def test_oversized_count_exits_2_before_allocation(self, tmp_path, monkeypatch):
        # count = 1e9 was killed for want of memory (exit 137)
        monkeypatch.setattr(model, "np", NumpyWithoutAllocation())
        config = tmp_path / "library.ini"
        config.write_text(BASE_CONFIG.replace("count = 6", "count = 1000000000"))
        result = CliRunner().invoke(
            main, ["optimize-noise", "--config", str(config), "--out", str(tmp_path / "r.csv")]
        )
        assert result.exit_code == 2
        assert f"count must be >= 1 and <= MAX_COUNT = {MAX_COUNT}" in result.stderr
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("scenario, column", [("optimize-noise", "objective"),
                                                  ("simulate", "estimate")],
                             ids=["optimize-noise", "simulate"])
    def test_tiny_rate_runs(self, tmp_path, scenario, column):
        # at rho_max = 1e-300, power(2, rate) - 1 rounded to 0 and both runs
        # exited 2; 2^rate - 1 is about 1.4e-301, so every request is delivered
        config = tmp_path / "rate.ini"
        config.write_text(BASE_CONFIG.replace("rho_max = 1.0", "rho_max = 1e-300"))
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = CliRunner().invoke(main, [scenario, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        cells = [float(x) for row in rows for key, cell in row.items()
                 if cell and key not in ("channel", "load_mode") for x in cell.split(";")]
        assert np.all(np.isfinite(cells))
        assert all(float(row[column]) == 1.0 for row in rows)

    def test_percent_in_a_value_is_literal(self, tmp_path):
        # the default interpolation read "50%.csv" as a broken %(name)s reference
        out = tmp_path / "50%.csv"
        config = tmp_path / "percent.ini"
        config.write_text(BASE_CONFIG + f"output = {out}\n")
        result = CliRunner().invoke(main, ["optimize-noise", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_default_cdf_grid_is_the_analytic_quantiles(self, config_file, tmp_path):
        out = tmp_path / "cdf.csv"
        result = CliRunner().invoke(main, ["cdf", "--config", str(config_file), "--out", str(out)])
        assert result.exit_code == 0
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.diff(body["xi"]) > 0)
        assert np.allclose(body["analytic_cdf"], np.linspace(0.02, 0.99, 40), rtol=1e-11, atol=0)

    def test_unwritable_output_rejected(self, config_file):
        with pytest.raises(ConfigError):
            load_config(str(config_file), "simulate", output="/missing-dir/x.csv")


class TestLargeFadingShape:
    """m_D = 1e17: the Nakagami moment behind kappa lost every digit to a
    log-Gamma difference, giving analytic 4.7e-11 against estimate 0.600 in
    noise simulate and an analytic CDF of 0.02 where the empirical one is 1."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "steady.ini"
        path.write_text(BASE_CONFIG.replace("fading_desired = 1.0", "fading_desired = 1e17")
                        .replace("count = 6", "count = 10"))
        return path

    def test_noise_simulate_agrees_with_its_analytic(self, config, tmp_path):
        out = tmp_path / "sim.csv"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config), "--trials", "10000", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        (row,) = csv.DictReader(out.open())
        gap = abs(float(row["estimate"]) - float(row["analytic"]))
        assert gap <= 3.0 * float(row["stderr"])

    def test_cdf_agrees_with_the_samples(self, config, tmp_path):
        out = tmp_path / "cdf.csv"
        result = CliRunner().invoke(
            main, ["cdf", "--config", str(config), "--trials", "100000", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert np.max(np.abs(body["analytic_cdf"] - body["empirical_cdf"])) < 0.01


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


class TestRunMatrix:
    @pytest.mark.parametrize("case", run_matrix.CASES, ids=[case.id for case in run_matrix.CASES])
    def test_case_exits_0_finite_and_reruns_byte_identical(self, case, tmp_path):
        # run_matrix.run raises on a non-zero exit, a warning or a non-finite cell
        first = run_matrix.run(case, 64, 1, tmp_path)
        assert run_matrix.run(case, 64, 1, tmp_path) == first

    @pytest.mark.parametrize("row", run_matrix.REFUSALS,
                             ids=[row.id for row in run_matrix.REFUSALS])
    def test_refusal_row(self, row, tmp_path):
        # run_matrix.refuse raises unless the row exits its status naming its text
        # with no CSV, no manifest, no traceback and no warning (or, generated, runs)
        run_matrix.refuse(row, tmp_path)

    def test_every_scenario_figure_load_mode_and_c_mode_has_a_case(self, tmp_path):
        covered = set()
        for case in run_matrix.CASES:
            ini = tmp_path / "case.ini"
            ini.write_text(case.ini)
            scenario, *flags = case.argv
            config = load_config(str(ini), scenario, **{
                flag.lstrip("-"): value for flag, value in zip(flags[::2], flags[1::2])})
            covered.add(("scenario", scenario))
            if scenario == "figure":
                covered.add(("figure", config.figure))
            if scenario == "simulate":
                covered.add(("policy_source", config.policy_source))
            if scenario == "simulate" and config.channel == "interference":
                covered.add(("load_mode", config.load_mode))
            if scenario == "optimize-sir":
                covered.add(("c_mode", config.c_mode))
        declared = ({("scenario", name) for name in SCENARIOS}
                    | {("figure", fid) for fid in FIGURES}
                    | {("load_mode", mode) for mode in LOAD_MODES}
                    | {(name, choice) for name in ("c_mode", "policy_source") for choice
                       in ExperimentConfig.__dataclass_fields__[name].metadata["choices"]})
        assert declared - covered == set()
