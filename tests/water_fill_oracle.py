"""Oracles for the water-filling bisection.

`cachegeo.optimizer` computes g(w) once per solve and passes it to
`water_fill`.  `per_step_water_fill` is the candidate that recomputes
g(w) = shape(width) at every bisection step; patched in for
`optimizer.water_fill`, it runs the same bisection, so a solve must
return the same bytes with either.

`optimizer._bisect_budget` evaluates each step only on the entries whose
p still differs between the ends of the bracket.  `full_vector_bisect`
is the bisection that evaluates every entry at every step, with
`per_step_water_fill` as its candidate; patched in for
`optimizer._bisect_budget`, it must give a solve the same bytes too.
"""
from __future__ import annotations

import numpy as np

from cachegeo.errors import NumericalError
from cachegeo.optimizer import MAX_ITERATIONS


def per_step_water_fill(log_omega, log_upper, width, shape, g_width):
    """p = clip(g(min(log u - log omega, w)) / g(w), 0, 1), with g(w)
    recomputed from `width`; the caller's `g_width` is not read."""
    t = np.minimum(log_upper - log_omega, width)
    with np.errstate(over="ignore", divide="ignore"):
        p = np.divide(shape(t), shape(width), out=np.ones_like(t), where=t < width)
    return np.clip(p, 0.0, 1.0)


def full_vector_bisect(key_lo, key_hi, log_upper, width, shape, g_width, budget):
    """The budget bisection with every entry evaluated at every step:
    halve [a, b], one float outside [key_lo, key_hi], until sum p is the
    budget or a and b are adjacent floats, then split what is left of the
    budget in index order among the entries whose p is larger at a.
    Returns (key, p, iterations)."""

    def candidate(key):
        return per_step_water_fill(key, log_upper, width, shape, g_width)

    a, b = np.nextafter(key_lo, -np.inf), np.nextafter(key_hi, np.inf)
    p_a, p_b = candidate(a), candidate(b)
    iterations = 0
    while np.nextafter(a, np.inf) < b and iterations < MAX_ITERATIONS:
        iterations += 1
        key = 0.5 * (a + b)
        p = candidate(key)
        total = float(p.sum())
        if total == budget:
            return key, p, iterations
        if total > budget:
            a, p_a = key, p
        else:
            b, p_b = key, p
    step = p_a - p_b
    p = p_b + np.clip(budget - p_b.sum() - (np.cumsum(step) - step), 0.0, step)
    if not (np.nextafter(a, np.inf) >= b and np.isfinite(p.sum())):
        raise NumericalError(f"budget bisection failed after {iterations} iterations")
    return b, p, iterations
