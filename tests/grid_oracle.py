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
    first grid point.  The trailing axes whose lattice holds at most CHUNK
    points are built once with np.indices; the scan loops over the
    leading axes' points in order and evaluates that block under each."""
    if grid_step <= 0 or grid_step > 1:
        raise ValueError("grid_step must lie in (0, 1]")
    per_axis = int(round(1.0 / grid_step)) + 1
    step = 1.0 / (per_axis - 1)
    if per_axis**count > LATTICE_CAP:
        raise ValueError(
            f"search space too large: {per_axis}^{count} grid points exceeds {LATTICE_CAP}"
        )
    budget_units = int(round(memory / step))

    lead = 0
    while lead < count - 1 and per_axis ** (count - lead) > CHUNK:
        lead += 1
    # C order of np.indices is lexicographic order
    tail = np.indices((per_axis,) * (count - lead)).reshape(count - lead, -1).T
    tail_units = tail.sum(axis=1)
    tail_rows = tail * step
    best_value = -np.inf
    best_row = None
    for head in np.ndindex(*(per_axis,) * lead):
        feasible = tail_units <= budget_units - sum(head)
        if not np.any(feasible):
            continue
        rows = np.empty((int(np.count_nonzero(feasible)), count))
        rows[:, :lead] = np.array(head) * step
        rows[:, lead:] = tail_rows[feasible]
        values = np.asarray(objective(rows), dtype=float)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_row = rows[k]
    return CachingPolicy(probs=best_row, memory=memory), best_value
