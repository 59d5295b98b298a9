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
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fields)
        for record in records:
            writer.writerow([_fmt(record[name]) for name in fields])
    return len(records)
