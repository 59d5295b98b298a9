"""Caching-probability optimizers: one log-space water-filling solves both
the noise-limited objective and the Rayleigh lower bound of the
interference-limited one; plus the MPC and UC baseline placements.

Both problems are concave maximizations over the capped simplex
{0 <= p_i <= 1, sum p_i <= M}.  Given the budget multiplier omega, the
per-content stationarity condition inverts in closed form, and the cap
multiplier mu_i = [l_i - omega]+ folds p_i <= 1 into it.  In x = log omega
both inversions are one formula,

    p_i = clip(g(min(log u_i - x, w_i)) / g(w_i), 0, 1),

where u_i is the multiplier at which p_i reaches 0, w_i = log(u_i / l_i)
the width of its window and g an increasing shape with g(0) = 0:

- noise-limited: log u = log(f kappa T), w = kappa T, g(t) = t;
- interference-limited: log u = log f - log B, w = 2 log1p(k) with
  k = (1 - A) / B, g(t) = expm1(t / 2), the root of the quadratic
  condition; w = 0 (A = 1, a linear term) is the 0/1 step at u.

sum_i p_i is nonincreasing in x, so a single bisection on x drives it to M,
evaluating at each step only the contents whose p still moves in its
bracket; its endgame splits what is left of the budget at adjacent floats,
so every solve ends on sum p = M up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytics import InterferenceConstants, _kappa, _noise_thresholds, rayleigh_lower_bound, success_noise
from .errors import NumericalError
from .model import BUDGET_TOL, CachingPolicy, ContentLibrary, NetworkParams

__all__ = [
    "SolveReport",
    "water_fill",
    "optimize_noise",
    "optimize_interference",
    "baseline_policy",
]

MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SolveReport:
    """Optimizer output with its KKT certificate.

    kkt_residual is the largest violation among stationarity on the
    active set, dual feasibility at p_i = 0, and the complementary
    slackness products; mu[i] > 0 only where p_i = 1.
    """

    policy: CachingPolicy
    omega: float
    mu: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def water_fill(log_omega, log_upper, width, shape, g_width):
    """Caching probability at the budget multiplier omega = exp(log_omega):
    p = clip(g(min(log u - log omega, w)) / g(w), 0, 1) with g = `shape`;
    the caller computes g(w) = `g_width` once per solve, under this errstate.

    log_upper = log u is where p reaches 0 and width = w = log(u / l) >= 0;
    p = 1 at and below log l = log u - w, where the cap multiplier
    mu = [l - omega]+ binds.  Capping the argument at w, rather than
    flooring log omega at log l, keeps p = 1 exact when w is below the
    float spacing of log u (such a window, and w = 0, is a 0/1 step at u)
    and when l underflows in linear space.  The ratio is taken on every
    entry and set to 1 at the cap, where it is g(w) / g(w) (0/0 at w = 0).
    A subnormal or zero g(w) overflows the ratio below u, which the clip
    takes to 0.
    """
    t = np.asarray(log_upper - log_omega)
    np.minimum(t, width, out=t)
    cap = t >= width
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = np.divide(shape(t), g_width, out=t)
    p[cap] = 1.0
    return np.clip(p, 0.0, 1.0, out=p)


def _bisect_budget(
    key_lo: float,
    key_hi: float,
    log_upper: np.ndarray,
    width: np.ndarray,
    shape: Callable,
    g_width: np.ndarray,
    budget: float,
):
    """Bisection over the multiplier key x = log omega until sum p(x) meets
    the budget, for p = water_fill(x, log_upper, width, shape, g_width).

    Each p_i, and so sum p, is nonincreasing in the key.  The bracket
    [a, b] starts one float outside [key_lo, key_hi], so that
    sum p(a) >= M >= sum p(b) even with a step at either end, and halves
    until sum p is M exactly or a and b are adjacent floats.  An entry with
    p(a) == p(b) keeps that value over [a, b], so each step evaluates only
    the live entries, where p(a) != p(b), and writes them into the full
    vector whose sum it takes.  The budget left over at b then goes in
    index order to the contents whose p is larger at a: a jump of sum p (a
    window narrower than the float spacing of the key is a step) is split
    there, and a continuous sum is topped up by its last rounding gap.
    Returns (key, p, iterations).
    """
    a, b = np.nextafter(key_lo, -np.inf), np.nextafter(key_hi, np.inf)
    q_a = water_fill(a, log_upper, width, shape, g_width)
    q_b = water_fill(b, log_upper, width, shape, g_width)
    # p holds p(key) off the live entries, where p(a) == p(b); every entry
    # is live until a quarter of them have settled
    p, live = q_a.copy(), slice(None)
    upper, window, g_window = log_upper, width, g_width
    iterations = 0
    while math.nextafter(a, math.inf) < b and iterations < MAX_ITERATIONS:
        iterations += 1
        key = 0.5 * (a + b)
        q = water_fill(key, upper, window, shape, g_window)
        p[live] = q
        total = float(p.sum())
        if total == budget:
            return key, p, iterations
        if total > budget:
            a, q_a, moving = key, q, q != q_b
        else:
            b, q_b, moving = key, q, q != q_a
        if 4 * np.count_nonzero(moving) <= 3 * moving.size:
            keep = np.flatnonzero(moving)
            live = keep if isinstance(live, slice) else live[keep]
            q_a, q_b, upper, window, g_window = (
                v[keep] for v in (q_a, q_b, upper, window, g_window))
    p_a, p_b = p, p.copy()
    p_a[live], p_b[live] = q_a, q_b
    step = p_a - p_b
    p = p_b + np.clip(budget - p_b.sum() - (np.cumsum(step) - step), 0.0, step)
    if not (np.nextafter(a, np.inf) >= b and np.isfinite(p.sum())):
        raise NumericalError(
            f"budget bisection failed after {iterations} iterations: "
            f"bracket [{a}, {b}], sum(p) = {p.sum()}, target {budget}"
        )
    return b, p, iterations


def _kkt_residual(
    p: np.ndarray,
    omega: float,
    mu: np.ndarray,
    gradient: np.ndarray,
    budget: float,
) -> float:
    """Largest violation of stationarity, dual feasibility at p=0, and
    complementary slackness for min_p sum_i h_i(p_i) s.t. the capped simplex.

    `gradient` holds h_i'(p_i); the stationarity condition is
    gradient + omega + mu = 0 wherever p_i > 0 and >= 0 at p_i = 0.
    """
    station = gradient + omega + mu
    active = p > BUDGET_TOL
    residual = 0.0
    if np.any(active):
        residual = float(np.abs(station[active]).max())
    boundary = ~active
    if np.any(boundary):
        residual = max(residual, float(np.maximum(-station[boundary], 0.0).max()))
    residual = max(residual, float(np.abs(mu * (p - 1.0)).max()))
    residual = max(residual, abs(omega * (float(p.sum()) - budget)))
    return residual


def _check_problem(count: int, memory: int):
    if not 1 <= memory < count:
        raise ValueError("memory must satisfy 1 <= M < F")
    if int(memory) != memory:
        raise ValueError("memory must be an integer")


def _water_fill_solve(
    log_upper: np.ndarray,
    width: np.ndarray,
    shape: Callable,
    gradient: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[CachingPolicy], float],
    memory: int,
) -> SolveReport:
    """Bisect log omega over [min(log l), max(log u)] until sum p meets the
    budget, then certify the water-filling with its KKT residual.

    `gradient` maps p to h_i'(p_i) of the minimized objective sum_i h_i(p_i).
    """
    log_lower = log_upper - width
    with np.errstate(over="ignore", divide="ignore"):
        g_width = shape(width)
    log_omega, p, iterations = _bisect_budget(
        float(log_lower.min()), float(log_upper.max()), log_upper, width, shape, g_width,
        float(memory),
    )
    with np.errstate(under="ignore"):
        omega = float(np.exp(log_omega))
        mu = np.maximum(np.exp(log_lower) - omega, 0.0)
    residual = _kkt_residual(p, omega, mu, gradient(p), float(memory))
    policy = CachingPolicy(probs=p, memory=memory)
    return SolveReport(
        policy=policy,
        omega=omega,
        mu=mu,
        objective=objective(policy),
        iterations=iterations,
        kkt_residual=residual,
    )


def optimize_noise(library: ContentLibrary, params: NetworkParams, memory: int) -> SolveReport:
    """Maximize the noise-limited success probability over the capped simplex.

    Water-filling with log u = log(f kappa T), w = kappa T and g(t) = t,
    where T = theta^delta at the SNR threshold theta of each content.
    """
    _check_problem(library.count, memory)
    f = library.popularity
    kT = _kappa(params) * _noise_thresholds(library, params) ** params.delta
    return _water_fill_solve(
        np.log(f) + np.log(kT), kT, lambda t: t,
        lambda p: -f * kT * np.exp(-kT * p),
        lambda policy: success_noise(library, params, policy),
        memory,
    )


def optimize_interference(
    library: ContentLibrary, consts: InterferenceConstants, memory: int
) -> SolveReport:
    """Maximize the Rayleigh-fading success lower bound over the capped simplex.

    Water-filling with log u = log f - log B, w = 2 log1p(k) and
    g(t) = expm1(t / 2), k = (1 - A) / B.
    """
    _check_problem(library.count, memory)
    f = library.popularity
    B = consts.B
    k = (1.0 - consts.A) / B
    return _water_fill_solve(
        np.log(f) - np.log(B), 2.0 * np.log1p(k), lambda t: np.expm1(0.5 * t),
        lambda p: -(f / B) / (1.0 + k * p) ** 2,
        lambda policy: rayleigh_lower_bound(library, consts, policy),
        memory,
    )


def baseline_policy(kind: str, count: int, memory: int) -> CachingPolicy:
    """Reference placements: 'mpc' caches the M most popular contents with
    probability one, 'uc' spreads the budget uniformly as M/F."""
    _check_problem(count, memory)
    kind = kind.lower()
    if kind == "mpc":
        probs = np.zeros(count)
        probs[:memory] = 1.0
    elif kind == "uc":
        probs = np.full(count, memory / count)
    else:
        raise ValueError(f"unknown baseline kind: {kind!r} (expected 'mpc' or 'uc')")
    return CachingPolicy(probs=probs, memory=memory)
