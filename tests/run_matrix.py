"""The declared run matrix: every command-line run that must keep working,
and every one that must be refused.

A success case is named once, as (case id, scenario argv, INI text), and
runs through `cachegeo.cli.main`, the console script's entry point, with
its `--config`, `--out`, `--trials` and `--seed` put after the scenario
and every warning an error.  It passes when it exits 0 and every numeric
cell of its CSV is finite.

A refusal row is (case id, argv, INI text, exit status, text).  It runs
with `--config` and `--out` put after the scenario, so the row's own
flags win, and passes when it exits with that status and the text in
stderr, with no traceback, no warning, and neither the CSV nor its
manifest at the runner's `--out`.  In argv and text, `{ini}` stands for
the config path and `{dir}` for the directory the row runs in.
Generated rows give every config field values outside its declared
domain, and every numeric field edge values, directly and through a
sweep, on every scenario that reads it.  A row of the latter kind
(status None) passes when it runs and passes the success check, or exits
2 naming the field.  A field added to `ExperimentConfig` is covered
without a new row.

Three readers use the lists:

- tier-1 (`tests/test_cli.py`) runs every case twice at 64 trials and
  asserts that the second CSV is byte-identical to the first, and checks
  every refusal row once;
- CI runs this script against the installed package;
- this script prints one `case seed sha256` line per case and seed, then
  one `case refused|ran status` line per refusal row, so the byte-identity
  of two revisions, and a value whose outcome changed, is a `diff` of two
  runs:

    python tests/run_matrix.py TRIALS [SEED ...]

It exits 1 if any case or row fails.  Seeds default to 1.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import math
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from click.testing import CliRunner

from cachegeo import cli
from cachegeo.experiments import FIGURES, SWEEPABLE, ExperimentConfig


class Case(NamedTuple):
    id: str
    argv: tuple
    ini: str = ""


class Refusal(NamedTuple):
    id: str
    argv: tuple
    ini: str
    status: int | None  # None: exit 2, or run and pass the success check
    text: str


def _ini(base: str, *settings) -> str:
    """INI text `base` with each (section, key, text) of `settings` set in it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(base)
    for section, key, text in settings:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, text)
    handle = io.StringIO()
    parser.write(handle)
    return handle.getvalue()


_INTERFERENCE = "[policy]\nsource = uc\n\n[experiment]\nchannel = interference\n"
_ALPHA_400 = "[network]\npathloss_exp = 400\n"
_RHO_1E_12 = "[network]\nsnr_db = -100\n\n[library]\nrate_mode = constant\nrho = 1e-12\n"


def _single_slot(load_mode: str) -> str:
    return f"[policy]\nmemory = 1\nsource = uc\n\n[experiment]\nchannel = interference\n" \
           f"load_mode = {load_mode}\n"


CASES = (
    Case("cdf", ("cdf",)),
    Case("simulate", ("simulate",)),
    # among them figure 8, the only run whose instantaneous load sees five rate
    # targets per trial, and figure 3, whose m_D = 3 curves draw Nakagami gains
    # into the noise kernel's buffer
    *(Case(f"figure-{fid}", ("figure", "--figure", fid)) for fid in FIGURES),
    # the noise engine and the xi_1 sampler where R^alpha overflows a float
    Case("simulate-alpha-400", ("simulate",), _ALPHA_400),
    Case("cdf-alpha-400", ("cdf",), _ALPHA_400),
    Case("optimize-noise", ("optimize-noise",)),
    # rate thresholds 2^rho - 1 that power(2, rho) - 1 cancelled (rho = 1e-12)
    # or rounded to 0 (rho = 1e-300)
    Case("optimize-noise-rho-1e-12", ("optimize-noise",), _RHO_1E_12),
    Case("simulate-rho-1e-12", ("simulate",), _RHO_1E_12),
    Case("simulate-rho-1e-300", ("simulate",),
         "[library]\nrate_mode = constant\nrho = 1e-300\n"),
    Case("optimize-sir", ("optimize-sir",)),
    Case("optimize-sir-c-fixed", ("optimize-sir",), "[experiment]\nc_mode = fixed\n"),
    Case("optimize-sir-c-numeric", ("optimize-sir",), "[experiment]\nc_mode = numeric\n"),
    # each policy source of simulate: optimize-noise above, uc below
    Case("simulate-explicit", ("simulate",),
         "[policy]\nsource = explicit\nprobs = 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0\n"),
    Case("simulate-mpc", ("simulate",), "[policy]\nsource = mpc\n"),
    Case("interference-optimize-sir", ("simulate",),
         "[policy]\nsource = optimize-sir\n\n[experiment]\nchannel = interference\n"),
    # the interference engine, which works in SIR, at the default M = 3
    Case("interference", ("simulate",), _INTERFERENCE),
    # the mean-load modes, whose distance association needs single-slot caches
    Case("interference-mean-approx", ("simulate",), _single_slot("mean-approx")),
    Case("interference-long-term-assoc", ("simulate",), _single_slot("long-term-assoc")),
    # the strongest-channel pairing on standard_gamma gains and a non-default alpha
    Case("nakagami", ("simulate",),
         "[network]\nfading_desired = 2.5\npathloss_exp = 4\n\n" + _INTERFERENCE),
)


def _refused(id: str, status: int | None, text: str, argv: tuple, *settings,
             ini: str = "") -> Refusal:
    """A refusal row that runs on INI text `ini` with each (section, key, text)
    of `settings` set in it."""
    return Refusal(id, argv, _ini(ini, *settings), status, text)


_UC_INTERFERENCE = (("policy", "source", "uc"), ("experiment", "channel", "interference"))
_CONSTANT_RHO = ("library", "rate_mode", "constant")
_FIXED_C = ("experiment", "c_mode", "fixed")
_PARSE_BASE = "[network]\nhelper_density = 0.05\n\n[library]\ncount = 6\ngamma = 1.0\n"

# each value once checked by a test of its own, with the text that test asserted
_DECLARED = (
    _refused("noiseless-optimize-noise", 2, "noise_power", ("optimize-noise",),
             ("network", "snr_db", "inf")),
    # 10^310 overflowed with an OverflowError traceback; it is noiseless
    _refused("snr_db=3100-optimize-noise", 2, "noise_power", ("optimize-noise",),
             ("network", "snr_db", "3100")),
    # a late bisection failure on a [nan, nan] bracket
    _refused("threshold-overflow", 2, "c * max(rate) = 1200", ("optimize-sir",), _CONSTANT_RHO,
             ("library", "rho", "30.0"), _FIXED_C, ("experiment", "c_value", "40")),
    # the default c_mode = load divides by the helper density
    _refused("zero-helper_density-sir", 2, "helper_density", ("optimize-sir",),
             ("network", "helper_density", "0")),
    # c_mode = load turned a NaN user density into c = 1 and exited 0
    _refused("nan-user_density-sir", 2, "user_density", ("optimize-sir",),
             ("network", "user_density", "nan")),
    # a NaN power failed late on a [nan, nan] bisection bracket
    _refused("nan-tx_power-noise", 2, "tx_power", ("optimize-noise",),
             ("network", "tx_power", "nan")),
    # reported as "kappa must be positive"
    _refused("nan-pathloss_exp-noise", 2, "pathloss_exp", ("optimize-noise",),
             ("network", "pathloss_exp", "nan")),
    # passed NetworkParams and raised ZeroDivisionError in cdf
    _refused("inf-pathloss_exp-cdf", 2, "pathloss_exp", ("cdf",),
             ("network", "pathloss_exp", "inf")),
    # delta = 2e-300 rounds A/B to 1 at every tau, blamed on c * min(rate) alone
    _refused("pathloss_exp=1e300-sir", 2, "pathloss_exp", ("optimize-sir",),
             ("network", "pathloss_exp", "1e300")),
    # optimize-sir wrote c = 1 and a policy, optimize-noise failed late on a
    # [nan, inf] bracket, and c = M inf was blamed on "c * max(rate) = inf"
    _refused("inf-helper_density-sir", 2, "helper_density must be", ("optimize-sir",),
             ("network", "helper_density", "inf")),
    _refused("inf-helper_density-noise", 2, "helper_density must be", ("optimize-noise",),
             ("network", "helper_density", "inf")),
    _refused("inf-user_density-sir", 2, "user_density must be", ("optimize-sir",),
             ("network", "user_density", "inf")),
    # the path losses d^-alpha overflowed and the run wrote estimate 0, stderr 0
    *(_refused(f"window-helper_density={density}", 2, text, ("simulate",), *_UC_INTERFERENCE,
               ("network", "helper_density", density), ("network", "user_density", twice))
      for density, twice, text in (("1e300", "2e300", "helper_density = 1e+300"),
                                   ("1e-300", "2e-300", "helper_density = 1e-300"))),
    # c_value = nan was reported as "c * max(rate) = nan overflows ..."
    *(_refused(f"c_value={v}", 2, "c_value must be >= 1 and finite", ("optimize-sir",),
               _FIXED_C, ("experiment", "c_value", v)) for v in ("nan", "inf", "0.5")),
    # the transmit power cancels from every output, so it is no config key; a
    # zero power once wrote estimate 0 under a 0/0 RuntimeWarning
    *(_refused(f"zero-tx_power-{command}", 2, "unknown keys in [network]: ['tx_power']",
               (command,), *_UC_INTERFERENCE, ("network", "tx_power", "0"))
      for command in ("optimize-noise", "simulate")),
    # 10^(snr_db/10) rounded to 0 (or was NaN): a ZeroDivisionError traceback
    *(_refused(f"snr_db={v}-noise", 2, "snr_db", ("optimize-noise",), ("network", "snr_db", v))
      for v in ("-inf", "-3500", "nan")),
    # the noise channel ignores load_mode, so a bogus one reached the manifest
    _refused("unknown-load_mode", 2, "load_mode", ("simulate",),
             ("experiment", "load_mode", "bogus")),
    # these failed in ContentLibrary, naming the popularity or rate array
    *(_refused(f"library-{key}={v}", 2, f"{key} ", ("optimize-noise",), *context,
               ("library", key, v))
      for key, values, context in (("gamma", ("nan", "inf", "2000", "1e300"), ()),
                                   ("rho_max", ("nan", "inf"), ()),
                                   ("rho", ("nan", "inf"), (_CONSTANT_RHO,)))
      for v in values),
    # 2^rate overflowed with "threshold factors must be positive"; at
    # snr_db = 3000 and rho = 1e-10, snr / (2^rho - 1) overflowed, and
    # optimize-noise exited 3 on a [nan, inf] bracket and simulate exited 0
    *(_refused(f"rate-overflow-{command}", 2, "max(rate) = 9.14351e+299 overflows", (command,),
               ("library", "count", "6"), ("library", "rate_seed", "3"),
               ("library", "rho_max", "1e300"))
      for command in ("optimize-noise", "simulate")),
    *(_refused(f"snr-threshold-overflow-{command}", 2,
               "snr / (2^rate - 1) overflows at snr = 1e+300 and min(rate) = 1e-10", (command,),
               ("network", "snr_db", "3000"), _CONSTANT_RHO, ("library", "rho", "1e-10"))
      for command in ("optimize-noise", "simulate")),
    # passed NetworkParams and died on a RuntimeWarning in _fading_moment
    _refused("inf-fading_desired", 2, "fading_desired", ("optimize-noise",),
             ("network", "fading_desired", "inf")),
    _refused("fractional-memory-sweep", 2, "memory", ("optimize-noise",),
             ("experiment", "sweep", "memory"), ("experiment", "sweep_grid", "2.5")),
    # every comparison with NaN is False, so p = (nan, 0.5, 0.5) passed the
    # bound checks and wrote analytic = nan beside a finite estimate
    *(_refused(f"nan-probability-{channel}", 2, "p[0]=nan is not a number", ("simulate",),
               ("library", "count", "3"), ("policy", "memory", "1"),
               ("policy", "source", "explicit"), ("policy", "probs", "nan, 0.5, 0.5"),
               ("experiment", "channel", channel))
      for channel in ("noise", "interference")),
    # numpy's "expected non-negative integer" named no field
    _refused("negative-seed", 2, "error: seed must be >= 0", ("simulate", "--seed", "-1")),
    _refused("negative-rate_seed", 2, "error: rate_seed must be >= 0", ("simulate",),
             ("library", "rate_seed", "-3")),
    # both ignored the sweep: cdf wrote one curve at the file's density
    *(_refused(f"sweep-on-{argv[0]}", 2,
               "takes no sweep, only optimize-noise, optimize-sir, simulate do", argv,
               ("experiment", "sweep", "helper_density"), ("experiment", "sweep_grid", "0.05 0.2"))
      for argv in (("cdf",), ("figure", "--figure", "6"))),
    # selectors the run does not read: both exited 0 and recorded the value in the manifest
    _refused("sweep_grid-without-sweep", 2, "sweep_grid = (1.0, 2.0) is set, but no sweep",
             ("optimize-noise",), ("experiment", "sweep_grid", "1 2")),
    _refused("figure-on-simulate", 2, "figure = '8': only the figure scenario", ("simulate",),
             ("experiment", "figure", "8")),
    _refused("probs-on-uc", 2, "probs = (0.5, 0.5) is set, but only simulate with source = "
             "explicit", ("simulate",), ("policy", "source", "uc"), ("policy", "probs", "0.5, 0.5")),
    _refused("sweep-without-sweep_grid", 2, "a sweep needs a nonempty sweep_grid",
             ("optimize-noise",), ("experiment", "sweep", "gamma")),
    _refused("explicit-probs-length", 2, "explicit probs must list one probability per content",
             ("simulate",), ("policy", "source", "explicit"), ("policy", "probs", "0.5, 0.5")),
    # configparser's own exceptions escaped with a traceback and exit 1
    Refusal("repeated-key", ("simulate",), _PARSE_BASE + "count = 7\n", 2, "{ini}"),
    Refusal("repeated-section", ("simulate",), _PARSE_BASE + "\n[library]\ngamma = 0.5\n", 2,
            "{ini}"),
    Refusal("missing-header", ("simulate",), "count = 6\n" + _PARSE_BASE, 2, "{ini}"),
    # (-log1p(-q) / kappa)^(1 / delta) overflowed with a RuntimeWarning at
    # alpha = 500, and at 1e300 wrote an xi column of 0s and infs; a helper
    # density of 1e+-300 moves kappa out of range and was blamed on alpha
    *(_refused(f"cdf-grid-{key}={v}", 2, f"{key} = ", ("cdf",), ("network", key, v))
      for key, v in (("pathloss_exp", "500"), ("pathloss_exp", "1e300"),
                     ("helper_density", "1e300"), ("helper_density", "1e-300"))),
    _refused("negative-count", 2, "count must be >= 1", ("simulate",), ("library", "count", "-3")),
    _refused("unknown-figure", 2, "unknown figure id '99'", ("figure", "--figure", "99")),
    # c = 6e297 was refused as "c * max(rate) overflows", naming no config field
    *(_refused(f"load-c-{id}", 2,
               "c = max(1, memory * user_density / helper_density) under c_mode = load",
               ("optimize-sir",), *settings)
      for id, settings in (
          ("helper_density=1e-300", [("network", "helper_density", "1e-300")]),
          ("user_density=1e300", [("network", "user_density", "1e300")]))),
    # a memory of 1e300 slots set c = 6e297 too; no policy takes it, so it is
    # refused with the other points' memories before c is resolved
    _refused("load-c-memory-sweep=1e300", 2, "memory = 1e+300 is outside 1 <= memory < 10",
             ("optimize-sir",), ("experiment", "sweep", "memory"),
             ("experiment", "sweep_grid", "1e300")),
    # each ran the whole scenario, then failed to write: exit 1 on
    # IsADirectoryError, exit 2 on "PosixPath('.') has an empty name", or
    # exit 1 on NotADirectoryError under a file
    _refused("output-directory", 2, "output '{dir}' must name a file",
             ("simulate", "--out", "{dir}")),
    _refused("output-empty", 2, "output '' must name a file", ("simulate", "--out", "")),
    _refused("output-under-a-file", 2, "output directory {ini} does not exist",
             ("simulate", "--out", "{ini}/run.csv")),
)

# the runs every generated value takes: a route id, its argv and the INI it adds to
_ROUTES = (
    ("optimize-noise", ("optimize-noise",), ""),
    ("optimize-sir", ("optimize-sir",), ""),
    ("cdf", ("cdf",), ""),
    ("simulate", ("simulate",), ""),
    ("interference", ("simulate",), _INTERFERENCE),
)
_FLOAT_EDGES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")
# a large count or trials would allocate or run for a long time unpatched
_INT_EDGES = ("0", "-1")
# settings under which a field is read at all
_CONTEXT = {"rho": (_CONSTANT_RHO,), "c_value": (_FIXED_C,)}
# the word the analytics use for a field: a refusal may name it instead
_ALIAS = {"rho": "rate", "rho_max": "rate"}


def _generated():
    """Rows for every config field with an INI key: values just outside its
    declared domain (an unknown choice, one below a lower bound, non-integer
    text for an int field) refused by `simulate`, and, for a numeric field,
    each edge value on every route, set directly and, if the field sweeps,
    as a one-point sweep_grid."""
    at_64 = ("experiment", "trials", "64")
    for f in fields(ExperimentConfig):
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        if not section:  # the scenario is the command itself
            continue
        texts = ["bogus"] if f.metadata["choices"] else []
        if f.metadata["minimum"] is not None:
            texts.append(str(f.metadata["minimum"] - 1))
        if type(f.default) is int:
            texts += ["nan", "inf", "1e300", "2.5"]
        for text in texts:
            yield _refused(f"domain-{key}={text}", 2, key, ("simulate",), (section, key, text))
        if type(f.default) not in (int, float):
            continue
        context = _CONTEXT.get(f.name, ())
        for route, argv, ini in _ROUTES:
            for text in _FLOAT_EDGES if type(f.default) is float else _INT_EDGES:
                yield _refused(f"{key}={text}-{route}", None, key, argv, at_64, *context,
                               (section, key, text), ini=ini)
            if f.name in SWEEPABLE and route != "cdf":
                for text in _FLOAT_EDGES:
                    yield _refused(f"sweep-{key}={text}-{route}", None, key, argv, at_64,
                                   *context, ("experiment", "sweep", f.name),
                                   ("experiment", "sweep_grid", text), ini=ini)


REFUSALS = (*_DECLARED, *_generated())


class CaseFailed(Exception):
    """A case or row ended otherwise than declared."""


def nonfinite_cells(text: str) -> list:
    """(line, column, cell) of every numeric cell of a CSV that is NaN or
    infinite; a policy cell holds ';'-separated numbers."""
    bad = []
    for line, row in enumerate(csv.DictReader(io.StringIO(text)), start=2):
        for column, cell in row.items():
            for part in cell.split(";"):
                try:
                    value = float(part)
                except ValueError:  # a label such as a channel or a load mode
                    continue
                if not math.isfinite(value):
                    bad.append((line, column, cell))
    return bad


def _invoke(case_id: str, argv: tuple, ini: str, flags: list, directory):
    """Run `cachegeo argv[0] --config INI --out CSV *flags *argv[1:]` in
    `directory` with every warning an error; return (result, CSV path, INI path)."""
    directory = Path(directory)
    out, config = directory / f"{case_id}.csv", directory / f"{case_id}.ini"
    config.write_text(ini)
    scenario, *rest = (arg.replace("{ini}", str(config)).replace("{dir}", str(directory))
                       for arg in argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(
            cli.main, [scenario, "--config", str(config), "--out", str(out), *flags, *rest],
            prog_name="cachegeo")
    return result, out, config


def _ran(case_id: str, result, out: Path, ini: str) -> bytes:
    """The CSV of a run that exited 0 with every numeric cell finite, but for
    a sweep_value that echoes the INI's sweep_grid."""
    if result.exit_code != 0:
        raise CaseFailed(f"{case_id}: exited {result.exit_code}: "
                         f"{result.output}{result.exception!r}")
    data = out.read_bytes()
    bad = [(line, column, cell) for line, column, cell in nonfinite_cells(data.decode())
           if not (column == "sweep_value" and f"sweep_grid = {cell}\n" in ini)]
    if bad:
        raise CaseFailed(f"{case_id}: non-finite cells (line, column, cell): {bad[:5]}")
    return data


def run(case: Case, trials: int, seed: int, directory) -> bytes:
    """Run one case in `directory` and return the bytes of its CSV."""
    result, out, _ = _invoke(case.id, case.argv, case.ini,
                             ["--trials", str(trials), "--seed", str(seed)], directory)
    return _ran(case.id, result, out, case.ini)


def refuse(row: Refusal, directory) -> int:
    """Run one refusal row in `directory` and return its exit status."""
    result, out, config = _invoke(row.id, row.argv, row.ini, [], directory)
    if row.status is None and result.exit_code == 0:
        _ran(row.id, result, out, row.ini)
        return 0
    status = 2 if row.status is None else row.status
    text = row.text.replace("{ini}", str(config)).replace("{dir}", str(directory))
    names = (text, _ALIAS[text]) if text in _ALIAS else (text,)
    if (result.exit_code != status or not isinstance(result.exception, SystemExit)
            or not any(name in result.stderr for name in names) or "Traceback" in result.output
            or out.exists() or Path(f"{out}.manifest.json").exists()):
        raise CaseFailed(f"{row.id}: exited {result.exit_code}, not {status} naming "
                         f"{' or '.join(map(repr, names))} with no CSV: "
                         f"{result.output}{result.exception!r}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print one `case seed sha256` line per "
                                     "matrix case and seed, then one `case refused|ran "
                                     "status` line per refusal row; exit 1 if any fails.")
    parser.add_argument("trials", type=int)
    parser.add_argument("seeds", type=int, nargs="*", default=[1])
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            for seed in args.seeds:
                try:
                    digest = hashlib.sha256(run(case, args.trials, seed, directory)).hexdigest()
                except CaseFailed as exc:
                    failed += 1
                    digest = "FAILED"
                    print(exc, file=sys.stderr)
                print(case.id, seed, digest, flush=True)
        for row in REFUSALS:
            try:
                status = refuse(row, directory)
                outcome = f"refused {status}" if status else "ran 0"
            except CaseFailed as exc:
                failed += 1
                outcome = "FAILED"
                print(exc, file=sys.stderr)
            print(row.id, outcome, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
