"""Caching-probability optimizers: water-filling bisection on the budget
multiplier for the noise-limited and interference-limited objectives, plus
baseline placements and a grid-search oracle.

Both problems are concave maximizations over the capped simplex
{0 <= p_i <= 1, sum p_i <= M}.  The per-content stationarity condition
inverts in closed form given the budget multiplier omega, and the cap
multipliers mu_i = [l_i - omega]+ fold the p_i <= 1 constraint into the
same one-dimensional search, so a single bisection on omega drives
sum_i p_i(omega) to M.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytics import InterferenceConstants, NoiseConstants, rayleigh_lower_bound, success_noise
from .errors import NumericalError
from .model import CachingPolicy, ContentLibrary, NetworkParams

__all__ = [
    "SolveReport",
    "noise_candidate",
    "optimize_noise",
    "interference_candidate",
    "interference_multiplier_bounds",
    "optimize_interference",
    "brute_force_policy",
    "baseline_policy",
]

DEFAULT_EPS = 1e-9
MAX_ITERATIONS = 200
# A content is a water-filling "step" when its interior multiplier window
# [l, u] has relative width ~ 2 (1 - A) / B too narrow for bisection.
_STEP_WINDOW = 1e-9
_LATTICE_CAP = 2 * 10**10
_CHUNK = 1 << 20


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


def noise_candidate(log_omega, log_upper, kT):
    """Caching probability solving the noise-limited stationarity condition,
    in log space: p = (1/(kappa T)) [log u - log(omega + mu)]+, clipped to [0, 1].

    log_upper = log u = log(f kappa T) is where p reaches 0; p = 1 at and
    below log l = log u - kappa T.  The cap multiplier mu = [l - omega]+
    gives log(omega + mu) = max(log omega, log l), so p = 1 stays reachable
    even when l underflows to zero in linear space.
    """
    return np.clip((log_upper - np.maximum(log_omega, log_upper - kT)) / kT, 0.0, 1.0)


def interference_candidate(omega, mu, f, A, B):
    """Caching probability solving the interference-limited stationarity
    condition: p = (1/(1-A)) [-B + sqrt(f B / (omega + mu))]+, clipped to [0, 1].

    Requires A < 1; the A -> 1 limit degenerates to a linear objective and
    is handled inside optimize_interference.
    """
    omega_mu = np.asarray(omega + mu, dtype=float)
    if np.any(omega_mu <= 0):
        raise ValueError("omega + mu must be positive")
    A = np.asarray(A, dtype=float)
    if np.any(A >= 1.0):
        raise ValueError("interference_candidate requires A < 1")
    f = np.asarray(f, dtype=float)
    B = np.asarray(B, dtype=float)
    raw = (-B + np.sqrt(f * B / omega_mu)) / (1.0 - A)
    return np.clip(raw, 0.0, 1.0)


def interference_multiplier_bounds(f, A, B):
    """Multiplier range (l, u) for the interference problem:
    l = f B / (1 - A + B)^2, u = f / B; they coincide as A -> 1.
    """
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return f * B / (1.0 - A + B) ** 2, f / B


def _bisect_budget(
    key_lo: float,
    key_hi: float,
    candidate: Callable[[float], np.ndarray],
    budget: float,
    eps: float,
    max_iter: int,
):
    """Bisection over a multiplier key until sum p(key) meets the budget.

    `candidate` maps the key (the budget multiplier, possibly transformed,
    e.g. its logarithm for the noise problem) to the clipped probability
    vector; sum p is nonincreasing in the key.  The loop keeps halving past
    the requested eps down to the best float-achievable budget gap, so a
    converged solve is essentially exact and |sum p - M| < eps is demanded
    only as the acceptance threshold.  Returns (key, p, iterations).

    If the bracket collapses on a jump of sum p (possible only for
    stepwise candidates), the marginal contents get the fractional
    remainder in index order.
    """
    a, b = key_lo, key_hi
    best_gap = np.inf
    best = None
    for iteration in range(1, max_iter + 1):
        key = 0.5 * (a + b)
        p = candidate(key)
        total = float(p.sum())
        gap = abs(total - budget)
        if gap < best_gap:
            best_gap = gap
            best = (key, p, iteration)
        if gap == 0.0:
            break
        if total > budget:
            a = key
        else:
            b = key
        if np.nextafter(a, np.inf) >= b:
            break
    if best is not None and best_gap < eps:
        return best
    # Collapsed bracket: resolve a discontinuity of sum p, if any.  The
    # immediate neighbours of the bracket see the two sides of the jump
    # even when a == b lands exactly on a step threshold.
    p_high = candidate(np.nextafter(a, -np.inf))
    p_low = candidate(np.nextafter(b, np.inf))
    if float(p_high.sum()) >= budget >= float(p_low.sum()):
        p = p_low.copy()
        remainder = budget - float(p.sum())
        jumpers = np.nonzero(p_high > p_low + eps)[0]
        for i in jumpers:
            add = min(p_high[i] - p[i], remainder)
            p[i] += add
            remainder -= add
            if remainder <= eps:
                break
        if abs(float(p.sum()) - budget) < eps:
            return 0.5 * (a + b), p, max_iter
    raise NumericalError(
        f"budget bisection did not converge in {max_iter} iterations: "
        f"bracket [{a}, {b}], best |sum(p) - M| = {best_gap}, target {budget}"
    )


def _kkt_residual(
    p: np.ndarray,
    omega: float,
    mu: np.ndarray,
    gradient: np.ndarray,
    budget: float,
    eps: float,
) -> float:
    """Largest violation of stationarity, dual feasibility at p=0, and
    complementary slackness for min_p sum_i h_i(p_i) s.t. the capped simplex.

    `gradient` holds h_i'(p_i); the stationarity condition is
    gradient + omega + mu = 0 wherever p_i > 0 and >= 0 at p_i = 0.
    """
    station = gradient + omega + mu
    active = p > eps
    residual = 0.0
    if np.any(active):
        residual = float(np.abs(station[active]).max())
    boundary = ~active
    if np.any(boundary):
        residual = max(residual, float(np.maximum(-station[boundary], 0.0).max()))
    residual = max(residual, float(np.abs(mu * (p - 1.0)).max()))
    residual = max(residual, abs(omega * (float(p.sum()) - budget)))
    return residual


def _check_problem(library: ContentLibrary, memory: int, eps: float):
    if not 1 <= memory < library.count:
        raise ValueError("memory must satisfy 1 <= M < F")
    if int(memory) != memory:
        raise ValueError("memory must be an integer")
    if eps <= 0:
        raise ValueError("eps must be positive")


def optimize_noise(
    library: ContentLibrary,
    params: NetworkParams,
    memory: int,
    eps: float = DEFAULT_EPS,
    max_iter: int = MAX_ITERATIONS,
) -> SolveReport:
    """Maximize the noise-limited success probability over the capped simplex.

    The bisection runs on log(omega) through noise_candidate.
    """
    _check_problem(library, memory, eps)
    consts = NoiseConstants.from_params(library, params)
    f = library.popularity
    kT = consts.kappa * consts.T
    log_upper = np.log(f) + np.log(kT)
    log_lower = log_upper - kT
    log_omega, p, iterations = _bisect_budget(
        float(log_lower.min()), float(log_upper.max()),
        lambda key: noise_candidate(key, log_upper, kT), float(memory), eps, max_iter,
    )
    with np.errstate(under="ignore"):
        omega = float(np.exp(log_omega))
        mu = np.maximum(np.exp(log_lower) - omega, 0.0)
    gradient = -f * kT * np.exp(-kT * p)
    residual = _kkt_residual(p, omega, mu, gradient, float(memory), eps)
    policy = CachingPolicy(probs=p, memory=memory)
    return SolveReport(
        policy=policy,
        omega=omega,
        mu=mu,
        objective=success_noise(library, params, policy),
        iterations=iterations,
        kkt_residual=residual,
    )


def optimize_interference(
    library: ContentLibrary,
    consts: InterferenceConstants,
    memory: int,
    eps: float = DEFAULT_EPS,
    max_iter: int = MAX_ITERATIONS,
) -> SolveReport:
    """Maximize the Rayleigh-fading success lower bound over the capped simplex.

    Contents whose interior multiplier window is below bisection
    resolution (relative width ~ 2 (1 - A_i) / B_i, including A_i -> 1,
    where the objective term degenerates to the linear p_i / B_i) are
    treated as 0/1 steps at omega = f_i / B_i; any resulting jump of
    sum p is split fractionally by the bisection driver.
    """
    _check_problem(library, memory, eps)
    f = library.popularity
    A, B = consts.A, consts.B
    degenerate = (1.0 - A) <= _STEP_WINDOW * B
    lower, upper = interference_multiplier_bounds(f, A, B)

    def candidate(omega: float) -> np.ndarray:
        mu = np.maximum(lower - omega, 0.0)
        p = np.empty_like(f)
        if np.any(~degenerate):
            p[~degenerate] = interference_candidate(
                omega, mu[~degenerate], f[~degenerate], A[~degenerate], B[~degenerate]
            )
        if np.any(degenerate):
            p[degenerate] = np.where(omega <= upper[degenerate], 1.0, 0.0)
        return p

    omega, p, iterations = _bisect_budget(
        float(lower.min()), float(upper.max()), candidate, float(memory), eps, max_iter
    )
    mu = np.maximum(lower - omega, 0.0)
    gradient = np.where(
        degenerate,
        -f / B,
        -f * B / ((1.0 - A) * p + B) ** 2,
    )
    residual = _kkt_residual(p, omega, mu, gradient, float(memory), eps)
    policy = CachingPolicy(probs=p, memory=memory)
    return SolveReport(
        policy=policy,
        omega=omega,
        mu=mu,
        objective=rayleigh_lower_bound(library, consts, policy),
        iterations=iterations,
        kkt_residual=residual,
    )


def _batched(objective: Callable, count: int) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a policy objective so it maps an (n, F) batch to (n,) values."""
    probe = np.zeros((2, count))
    try:
        out = np.asarray(objective(probe))
        if out.shape == (2,):
            return lambda batch: np.asarray(objective(batch), dtype=float)
    except Exception:
        pass
    return lambda batch: np.array([float(objective(row)) for row in batch])


def brute_force_policy(
    objective: Callable,
    count: int,
    memory: int,
    grid_step: float,
) -> tuple[CachingPolicy, float]:
    """Exhaustive search over the grid {0, step, ..., 1}^F cut to sum <= M.

    The oracle companion of the bisection solvers: no structure of the
    objective is used beyond evaluating it.  Ties keep the lexicographically
    first grid point.  The lattice is scanned in flat-index chunks, so the
    objective may be called with an (n, F) batch when it supports it.
    """
    if grid_step <= 0 or grid_step > 1:
        raise ValueError("grid_step must lie in (0, 1]")
    per_axis = int(round(1.0 / grid_step)) + 1
    step = 1.0 / (per_axis - 1)
    total = per_axis**count
    if total > _LATTICE_CAP:
        raise ValueError(
            f"search space too large: {per_axis}^{count} grid points exceeds {_LATTICE_CAP}"
        )
    budget_units = int(round(memory / step))
    evaluate = _batched(objective, count)

    best_value = -np.inf
    best_row = None
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((flat.size, count), dtype=np.int64)
        rem = flat
        for axis in range(count - 1, -1, -1):
            rem, digits[:, axis] = np.divmod(rem, per_axis)
        feasible = digits.sum(axis=1) <= budget_units
        if not np.any(feasible):
            continue
        rows = digits[feasible].astype(float) * step
        values = evaluate(rows)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_row = rows[k]
    policy = CachingPolicy(probs=best_row, memory=memory)
    return policy, best_value


def baseline_policy(kind: str, count: int, memory: int) -> CachingPolicy:
    """Reference placements: 'mpc' caches the M most popular contents with
    probability one, 'uc' spreads the budget uniformly as M/F."""
    if not 1 <= memory < count:
        raise ValueError("memory must satisfy 1 <= M < F")
    kind = kind.lower()
    if kind == "mpc":
        probs = np.zeros(count)
        probs[:memory] = 1.0
    elif kind == "uc":
        probs = np.full(count, memory / count)
    else:
        raise ValueError(f"unknown baseline kind: {kind!r} (expected 'mpc' or 'uc')")
    return CachingPolicy(probs=probs, memory=memory)
