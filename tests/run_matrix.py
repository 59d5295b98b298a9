"""The declared run matrix: every command-line run that must keep working.

Each case is named once, as (case id, scenario argv, INI text), and runs
through `cachegeo.cli.main`, the console script's entry point, with its
`--config`, `--trials`, `--seed` and `--out` appended and RuntimeWarnings
as errors.  A case passes when it exits 0 and every numeric cell of its
CSV is finite.  Three readers use the list:

- tier-1 (`tests/test_cli.py`) runs every case twice at 64 trials and
  asserts that the second CSV is byte-identical to the first;
- CI runs this script against the installed package;
- this script prints one `case seed sha256` line per case and seed, so the
  byte-identity of two revisions is a `diff` of two runs:

    python tests/run_matrix.py TRIALS [SEED ...]

It exits 1 if any case fails.  Seeds default to 1.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

from click.testing import CliRunner

from cachegeo import cli
from cachegeo.experiments import FIGURES


class Case(NamedTuple):
    id: str
    argv: tuple
    ini: str = ""


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
    # the interference engine, which works in SIR, at the default M = 3
    Case("interference", ("simulate",), _INTERFERENCE),
    # the mean-load modes, whose distance association needs single-slot caches
    Case("interference-mean-approx", ("simulate",), _single_slot("mean-approx")),
    Case("interference-long-term-assoc", ("simulate",), _single_slot("long-term-assoc")),
    # the strongest-channel pairing on standard_gamma gains and a non-default alpha
    Case("nakagami", ("simulate",),
         "[network]\nfading_desired = 2.5\npathloss_exp = 4\n\n" + _INTERFERENCE),
)


class CaseFailed(Exception):
    """A case exited non-zero, raised, or wrote a non-finite cell."""


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


def run(case: Case, trials: int, seed: int, directory) -> bytes:
    """Run one case in `directory` and return the bytes of its CSV."""
    directory = Path(directory)
    out = directory / f"{case.id}.csv"
    argv = [*case.argv, "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
    if case.ini:
        config = directory / f"{case.id}.ini"
        config.write_text(case.ini)
        argv += ["--config", str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(cli.main, argv, prog_name="cachegeo")
    if result.exit_code != 0:
        raise CaseFailed(f"{case.id}: cachegeo {' '.join(argv)} exited {result.exit_code}: "
                         f"{result.output}{result.exception!r}")
    data = out.read_bytes()
    bad = nonfinite_cells(data.decode())
    if bad:
        raise CaseFailed(f"{case.id}: non-finite cells (line, column, cell): {bad[:5]}")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print one `case seed sha256` line per "
                                     "matrix case and seed; exit 1 if any case fails.")
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
