"""Domain types shared by every module: content library, network
parameters, and caching policies, plus their constructors and validators.

Content index 0 is the most popular content; popularity vectors are kept
nonincreasing so index doubles as popularity rank.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContentLibrary",
    "NetworkParams",
    "CachingPolicy",
    "zipf_popularity",
    "uniform_rates",
    "budget_violation",
    "BUDGET_TOL",
    "MAX_COUNT",
]

# Slack on the cache budget for the rounding of sum(p), and the level at
# or below which a caching probability counts as zero.
BUDGET_TOL = 1e-9

# The largest library the constructors build, refused before any
# allocation: 1000 times the F = 10^4 of the large-library runs.
# optimize-noise peaks at 0.79 GB for F = 4 * 10^6, so about 1.9 GB here;
# 10^9 contents would need some 190 GB.
MAX_COUNT = 10_000_000


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ContentLibrary:
    """A catalog of contents with request probabilities and target rates.

    popularity must sum to one, be strictly positive, and be nonincreasing
    in the content index; rates are per-content target bit rates in
    bits/s/Hz, strictly positive.
    """

    count: int
    popularity: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("library must contain at least one content")
        pop = _frozen_array(self.popularity)
        rates = _frozen_array(self.rates)
        if pop.shape != (self.count,) or rates.shape != (self.count,):
            raise ValueError("popularity and rates must have length count")
        if not np.all(pop > 0):
            raise ValueError("popularity entries must be > 0")
        if abs(pop.sum() - 1.0) > 1e-12:
            raise ValueError("popularity must sum to 1 within 1e-12")
        if np.any(np.diff(pop) > 0):
            raise ValueError("popularity must be nonincreasing in index")
        if not np.all(np.isfinite(rates)) or not np.all(rates > 0):
            raise ValueError("rates must be strictly positive and finite")
        object.__setattr__(self, "popularity", pop)
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class NetworkParams:
    """Physical layer and geometry parameters.

    Densities are per square meter, powers linear watts.  The path loss
    exponent must be finite and exceed 2 so that delta = 2/alpha lies in
    (0, 1); fading shapes are Nakagami-m parameters for the desired and
    interfering links.
    """

    helper_density: float
    user_density: float
    tx_power: float
    noise_power: float
    pathloss_exp: float
    fading_desired: float = 1.0
    fading_interf: float = 1.0

    def __post_init__(self):
        # written as not (x >= bound) so that NaN fails every check
        if not 2 < self.pathloss_exp < np.inf:
            raise ValueError(f"pathloss_exp must be > 2 and finite, got {self.pathloss_exp}")
        for name in ("helper_density", "tx_power"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        if not 0 <= self.user_density < np.inf:
            raise ValueError(f"user_density must be >= 0 and finite, got {self.user_density}")
        if not self.noise_power >= 0:
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power}")
        for name in ("fading_desired", "fading_interf"):
            m = getattr(self, name)
            if not 0.5 <= m < np.inf:
                raise ValueError(f"{name} (Nakagami m) must be >= 1/2 and finite, got {m}")

    @property
    def delta(self) -> float:
        return 2.0 / self.pathloss_exp

    @property
    def snr(self) -> float:
        """tx_power / noise_power; +inf when the noise power is zero."""
        if self.noise_power == 0:
            return np.inf
        return self.tx_power / self.noise_power


@dataclass(frozen=True)
class CachingPolicy:
    """Per-content caching probabilities under a cache of `memory` slots.

    Construction only checks shape; feasibility (probabilities in [0, 1]
    and the budget) is reported by :func:`budget_violation` so infeasible
    candidates can be inspected.
    """

    probs: np.ndarray
    memory: int

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if int(self.memory) != self.memory or self.memory < 1:
            raise ValueError("memory must be a positive integer")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "memory", int(self.memory))

    @property
    def count(self) -> int:
        return self.probs.size


def _check_count(count: int) -> None:
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be >= 1 and <= MAX_COUNT = {MAX_COUNT}, got {count}")


def zipf_popularity(count: int, gamma: float) -> np.ndarray:
    """Zipf request probabilities f_i = (1/i^gamma) / sum_j (1/j^gamma).

    gamma = 0 gives the uniform distribution; larger gamma skews requests
    toward low-index contents.  A gamma so large that count^-gamma
    underflows to 0 leaves the last content with no requests and is
    rejected.
    """
    _check_count(count)
    if not 0 <= gamma < np.inf:  # NaN fails too
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-gamma)
    if weights[-1] == 0:
        raise ValueError(f"gamma = {gamma} is too large: {count}^-gamma underflows to 0")
    return weights / weights.sum()


def uniform_rates(rho_max: float, count: int, seed: int) -> np.ndarray:
    """Draw per-content target rates independently uniform on (0, rho_max].

    Deterministic for a given seed.
    """
    if not 0 < rho_max < np.inf:  # NaN fails too
        raise ValueError(f"rho_max must be > 0 and finite, got {rho_max}")
    _check_count(count)
    rng = np.random.default_rng(seed)
    # 1 - U maps [0, 1) onto (0, 1], keeping every rate strictly positive.
    return rho_max * (1.0 - rng.random(count))


def budget_violation(policy: CachingPolicy) -> str | None:
    """First violated bound/budget constraint, or None.

    Checks only what placement and simulation mechanically require:
    0 <= p_i <= 1 and sum(p) <= memory (with a small numerical slack).
    NaN, which fails no comparison, is reported first.
    """
    p = policy.probs
    if np.any(np.isnan(p)):
        i = int(np.argmax(np.isnan(p)))
        return f"p[{i}]={p[i]} is not a number"
    if np.any(p < 0):
        i = int(np.argmax(p < 0))
        return f"p[{i}]={p[i]} is negative"
    if np.any(p > 1):
        i = int(np.argmax(p > 1))
        return f"p[{i}]={p[i]} exceeds 1"
    total = float(p.sum())
    if total > policy.memory + BUDGET_TOL:
        return f"sum(p)={total} exceeds the memory budget M={policy.memory}"
    return None
