"""Grid-search oracle for the water-filling optimizers.

Scans the lattice {0, step, ..., 1}^F cut to sum <= M and keeps the best
point, using no structure of the objective beyond evaluating it.
`cachegeo.optimizer` reaches the optimum by bisection on the budget
multiplier; this scan stays as the independent reference.
"""
from __future__ import annotations

import numpy as np

from cachegeo.model import CachingPolicy

LATTICE_CAP = 2 * 10**10
CHUNK = 1 << 20


def brute_force_policy(objective, count: int, memory: int, grid_step: float):
    """(best grid policy, its value) for an objective mapping an (n, F)
    batch of policies to (n,) values.  Ties keep the lexicographically
    first grid point; the lattice is scanned in flat-index chunks."""
    if grid_step <= 0 or grid_step > 1:
        raise ValueError("grid_step must lie in (0, 1]")
    per_axis = int(round(1.0 / grid_step)) + 1
    step = 1.0 / (per_axis - 1)
    total = per_axis**count
    if total > LATTICE_CAP:
        raise ValueError(
            f"search space too large: {per_axis}^{count} grid points exceeds {LATTICE_CAP}"
        )
    budget_units = int(round(memory / step))

    best_value = -np.inf
    best_row = None
    for start in range(0, total, CHUNK):
        flat = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = np.empty((flat.size, count), dtype=np.int64)
        rem = flat
        for axis in range(count - 1, -1, -1):
            rem, digits[:, axis] = np.divmod(rem, per_axis)
        feasible = digits.sum(axis=1) <= budget_units
        if not np.any(feasible):
            continue
        rows = digits[feasible].astype(float) * step
        values = np.asarray(objective(rows), dtype=float)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_row = rows[k]
    return CachingPolicy(probs=best_row, memory=memory), best_value
