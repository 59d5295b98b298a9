"""Per-cell CSV writer: the reference for `cachegeo.experiments.run`.

A runner's row holds single values and 1-D arrays of one value per CSV
line.  This writer expands each row into one record per line (an array's
entries as Python scalars, a single value repeated) and formats every
cell on its own: floats to 12 significant digits, everything else by
`str`.  `run` formats each single value once and each array in one pass;
its file must be byte-identical to this one.
"""
from __future__ import annotations

import csv
import io

import numpy as np


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def expand(row: dict) -> list[dict]:
    """One record per CSV line of a row."""
    (lines,) = {v.size for v in row.values() if isinstance(v, np.ndarray)} or {1}
    columns = {k: v.tolist() if isinstance(v, np.ndarray) else [v] * lines
               for k, v in row.items()}
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def write_csv(path, fields: list[str], rows: list[dict]) -> int:
    """Write the header and every row cell by cell; returns the data lines written."""
    records = [record for row in rows for record in expand(row)]
    with open(path, "w", newline="") as handle:
        for cells in [fields] + [[_fmt(record[name]) for name in fields] for record in records]:
            # csv quotes a cell holding a character of the line terminator, and
            # from Python 3.13 on one holding \r or \n whatever the terminator:
            # "\r\n" gives the same quoting on every version
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(cells)
            handle.write(line.getvalue().removesuffix("\r\n") + "\n")
    return len(records)
