"""Per-step oracle for the water-filling candidate.

`cachegeo.optimizer` computes g(w) once per solve and passes it to
`water_fill`.  `per_step_water_fill` is the candidate that recomputes
g(w) = shape(width) at every bisection step; patched in for
`optimizer.water_fill`, it runs the same bisection, so a solve must
return the same bytes with either.
"""
from __future__ import annotations

import numpy as np


def per_step_water_fill(log_omega, log_upper, width, shape, g_width):
    """p = clip(g(min(log u - log omega, w)) / g(w), 0, 1), with g(w)
    recomputed from `width`; the caller's `g_width` is not read."""
    t = np.minimum(log_upper - log_omega, width)
    with np.errstate(over="ignore", divide="ignore"):
        p = np.divide(shape(t), shape(width), out=np.ones_like(t), where=t < width)
    return np.clip(p, 0.0, 1.0)
