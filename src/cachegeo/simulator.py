"""Monte Carlo engine: Poisson networks, Nakagami fading, probabilistic
cache placement, strongest-channel association, helper loads, and
delivery-success estimation.

Reproducibility: one root seed; substream k draws from
``SeedSequence(entropy=seed, spawn_key=(k,))``.  The interference engine
keys substreams by the global trial index (so different load modes on one
seed see identical networks); the noise engine keys them by fixed-size
trial chunks, which it processes vectorized.  Both aggregate integer
success counts, so estimates are bit-identical for a given seed
regardless of execution order, and chunks may run in parallel.

Finite window: helpers are sampled inside a disc whose radius makes the
probability of missing the nearest relevant helper at most
``window_miss_prob`` (default 1e-3); trials with no helper caching the
requested content inside the window count as delivery failures, and
interference from beyond the window is truncated.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import log, pi
from typing import Optional

import numpy as np

from .analytics import mean_load_m1
from .model import BUDGET_TOL, CachingPolicy, ContentLibrary, NetworkParams, budget_violation
from .placement import build_block_layout, cache_matrix

__all__ = [
    "MCEstimate",
    "Realization",
    "LinkOutcome",
    "sample_ppp",
    "nakagami_gain",
    "sample_realization",
    "smallest_reciprocal",
    "sample_xi_min",
    "simulate_noise_limited",
    "simulate_interference_limited",
    "empirical_mean_load",
    "window_radius",
    "LOAD_MODES",
]

DEFAULT_WINDOW_MISS = 1e-3
NOISE_WINDOW_MISS = 1e-6
_NOISE_CHUNK = 4096
_INTERF_CHUNK = 256

LOAD_MODES = ("instantaneous", "mean-approx", "long-term-assoc")


@dataclass(frozen=True)
class MCEstimate:
    """A success-probability estimate with its binomial standard error."""

    estimate: float
    stderr: float
    trials: int
    successes: int

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "MCEstimate":
        p = successes / trials
        return cls(
            estimate=p,
            stderr=float(np.sqrt(p * (1.0 - p) / trials)),
            trials=trials,
            successes=successes,
        )


@dataclass(frozen=True)
class Realization:
    """One sampled network, seen from the typical user at the origin.

    desired_gains / interf_gains are the typical user's per-helper fading
    power gains on the selection channel and on the interfering channels.
    """

    helpers: np.ndarray  # (H, 2) positions, meters
    users: np.ndarray  # (U, 2) positions, meters
    caches: np.ndarray  # (H, F) bool inclusion matrix
    desired_gains: np.ndarray  # (H,)
    interf_gains: np.ndarray  # (H,)
    requested: np.ndarray  # (U,) content index per user


@dataclass(frozen=True)
class LinkOutcome:
    """Per-trial delivery outcome for the typical user."""

    xi_min: float
    serving_helper: int
    interference: float
    load: float
    rate: float
    success: bool


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def window_radius(p: float, helper_density: float, miss_prob: float = DEFAULT_WINDOW_MISS) -> float:
    """Disc radius with P[nearest helper of a p-thinned process beyond it] = miss_prob."""
    if p <= 0 or helper_density <= 0:
        raise ValueError("window radius needs a positive thinned intensity")
    if not 0 < miss_prob < 1:
        raise ValueError("miss_prob must lie in (0, 1)")
    return float(np.sqrt(log(1.0 / miss_prob) / (pi * p * helper_density)))


def sample_ppp(intensity: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson process on a disc: Poisson count, uniform positions."""
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    count = rng.poisson(intensity * pi * radius**2)
    r = radius * np.sqrt(rng.random(count))
    theta = rng.random(count) * 2.0 * pi
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def nakagami_gain(m: float, rng: np.random.Generator, size=None):
    """Unit-mean Nakagami-m channel power gain(s): Gamma(m, 1/m)."""
    if m < 0.5:
        raise ValueError("Nakagami shape must be >= 1/2")
    return rng.gamma(m, 1.0 / m, size=size)


def sample_realization(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    radius: float,
    rng: np.random.Generator,
) -> Realization:
    """Draw one network: helper/user processes, caches, and the typical
    user's fading gains to every helper."""
    violation = budget_violation(policy)
    if violation is not None:
        raise ValueError(f"infeasible policy: {violation}")
    layout = build_block_layout(policy)
    helpers = sample_ppp(params.helper_density, radius, rng)
    users = sample_ppp(params.user_density, radius, rng)
    caches = cache_matrix(layout, rng.random(len(helpers)))
    desired = nakagami_gain(params.fading_desired, rng, len(helpers))
    interf = nakagami_gain(params.fading_interf, rng, len(helpers))
    requested = rng.choice(library.count, size=len(users), p=library.popularity)
    return Realization(helpers, users, caches, desired, interf, requested)


def smallest_reciprocal(
    realization: Realization, content: int, alpha: float
) -> Optional[tuple[float, int]]:
    """Smallest reciprocal channel power gain r^alpha / |h|^2 among helpers
    caching `content`, with its helper index (lowest index wins ties);
    None when no helper in the window caches the content."""
    mask = realization.caches[:, content]
    if not np.any(mask):
        return None
    idx = np.nonzero(mask)[0]
    dist = np.linalg.norm(realization.helpers[idx], axis=1)
    xi = dist**alpha / realization.desired_gains[idx]
    k = int(np.argmin(xi))
    return float(xi[k]), int(idx[k])


def _segment_minima(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment minima of a flat array split by counts; inf for empty segments."""
    out = np.full(counts.size, np.inf)
    nonzero = counts > 0
    if np.any(nonzero):
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1][nonzero]
        out[nonzero] = np.minimum.reduceat(values, starts)
    return out


def sample_xi_min(
    params: NetworkParams,
    p: float,
    trials: int,
    seed: int,
    window_miss_prob: float = 1e-6,
) -> np.ndarray:
    """Draw `trials` samples of the smallest reciprocal gain for one content.

    Helpers caching the content form a thinned Poisson process of
    intensity p * helper_density, sampled directly inside the window
    (+inf marks trials whose window held no helper).  The default window
    is tight (miss 1e-6) because the whole distribution is compared, not
    a single threshold.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    radius = window_radius(p, params.helper_density, window_miss_prob)
    mean_count = p * params.helper_density * pi * radius**2
    alpha = params.pathloss_exp
    out = np.empty(trials)
    done = 0
    chunk_index = 0
    while done < trials:
        n = min(_NOISE_CHUNK, trials - done)
        rng = _substream(seed, chunk_index)
        counts = rng.poisson(mean_count, size=n)
        total = int(counts.sum())
        radii = radius * np.sqrt(rng.random(total))
        gains = nakagami_gain(params.fading_desired, rng, total)
        out[done : done + n] = _segment_minima(radii**alpha / gains, counts)
        done += n
        chunk_index += 1
    return out


def _run_chunks(trials: int, chunk: int, worker, workers: int = 1) -> int:
    """Sum worker(chunk_index, chunk_size) over the fixed chunk grid."""
    sizes = [(c, min(chunk, trials - c * chunk)) for c in range((trials + chunk - 1) // chunk)]
    if workers <= 1:
        return sum(worker(c, n) for c, n in sizes)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(lambda cn: worker(*cn), sizes))


def simulate_noise_limited(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
    window_miss_prob: float = NOISE_WINDOW_MISS,
    workers: int = 1,
) -> MCEstimate:
    """Estimate the success probability without interference or load sharing.

    Each trial requests a content by popularity and succeeds when
    log2(1 + snr / xi_1) clears the content's target rate.  Helpers caching
    content i are drawn directly as a thinned Poisson process of intensity
    p_i * helper_density (placement keeps caches independent across
    helpers, so the thinning is exact), with a per-content window.

    The default window is tighter than the engine-wide 1e-3 because the
    success event compares the whole xi_1 distribution against fixed
    thresholds: at miss 1e-3 the truncation bias is a few per mille,
    visible against the closed form at 1e5 trials.
    """
    violation = budget_violation(policy)
    if violation is not None:
        raise ValueError(f"infeasible policy: {violation}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    probs = policy.probs
    alpha = params.pathloss_exp
    lam = params.helper_density
    with np.errstate(divide="ignore"):
        thresholds = params.snr / (np.power(2.0, library.rates) - 1.0)
    cached = probs > 0
    radius = np.zeros(library.count)
    radius[cached] = np.sqrt(log(1.0 / window_miss_prob) / (pi * probs[cached] * lam))
    mean_counts = probs * lam * pi * radius**2

    def worker(chunk_index: int, n: int) -> int:
        rng = _substream(seed, chunk_index)
        contents = rng.choice(library.count, size=n, p=library.popularity)
        successes = 0
        for i in np.unique(contents):
            k = int(np.sum(contents == i))
            if not cached[i]:
                continue
            counts = rng.poisson(mean_counts[i], size=k)
            total = int(counts.sum())
            radii = radius[i] * np.sqrt(rng.random(total))
            gains = nakagami_gain(params.fading_desired, rng, total)
            xi1 = _segment_minima(radii**alpha / gains, counts)
            successes += int(np.sum(np.isfinite(xi1) & (xi1 <= thresholds[i])))
        return successes

    successes = _run_chunks(trials, _NOISE_CHUNK, worker, workers)
    return MCEstimate.from_counts(successes, trials)


def _typical_link(
    realization: Realization,
    content: int,
    params: NetworkParams,
    instantaneous: bool,
) -> Optional[tuple[float, int, float]]:
    """(xi_min, serving index, interference) for the typical user, or None
    when no helper in the window caches the content.

    With instantaneous association, non-serving helpers that cache the
    content interfere through the gains already revealed for selection;
    the rest interfere through independent interfering-link gains.  With
    long-term association the serving helper is the nearest one and all
    interferers use interfering-link gains.
    """
    mask = realization.caches[:, content]
    if not np.any(mask):
        return None
    dist = np.linalg.norm(realization.helpers, axis=1)
    P = params.tx_power
    alpha = params.pathloss_exp
    idx = np.nonzero(mask)[0]
    if instantaneous:
        xi_set = dist[idx] ** alpha / realization.desired_gains[idx]
        k = int(np.argmin(xi_set))
        serving = int(idx[k])
        xi = float(xi_set[k])
        others = np.delete(idx, k)
        interference = float(np.sum(P / (dist[others] ** alpha / realization.desired_gains[others])))
        outside = np.nonzero(~mask)[0]
        interference += float(
            np.sum(P * realization.interf_gains[outside] * dist[outside] ** (-alpha))
        )
    else:
        k = int(np.argmin(dist[idx]))
        serving = int(idx[k])
        xi = float(dist[serving] ** alpha / realization.desired_gains[serving])
        others = np.delete(np.arange(len(dist)), serving)
        interference = float(
            np.sum(P * realization.interf_gains[others] * dist[others] ** (-alpha))
        )
    return xi, serving, interference


def delivery_rate(xi: float, interference: float, load: float, tx_power: float) -> float:
    """Shared-resource rate (1/N) log2(1 + P / (xi J)); infinite SIR when J = 0."""
    sir = tx_power / (xi * interference) if interference > 0 else np.inf
    return float(np.log2(1.0 + sir) / load)


def _instantaneous_load(
    realization: Realization,
    serving: int,
    params: NetworkParams,
    rng: np.random.Generator,
) -> int:
    """Users on the serving helper (typical user included) when every user
    associates with its own strongest instantaneous channel among helpers
    caching its requested content."""
    n_users = len(realization.users)
    n_helpers = len(realization.helpers)
    if n_users == 0 or n_helpers == 0:
        return 1
    dist = np.linalg.norm(
        realization.users[:, None, :] - realization.helpers[None, :, :], axis=2
    )
    gains = nakagami_gain(params.fading_desired, rng, (n_users, n_helpers))
    metric = gains * dist ** (-params.pathloss_exp)
    candidates = realization.caches[:, realization.requested].T  # (U, H)
    metric = np.where(candidates, metric, -np.inf)
    best = np.argmax(metric, axis=1)
    has_candidate = np.any(candidates, axis=1)
    return 1 + int(np.sum(has_candidate & (best == serving)))


def _interference_trial(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    layout_radius: float,
    load_mode: str,
    rng: np.random.Generator,
) -> Optional[LinkOutcome]:
    realization = sample_realization(library, params, policy, layout_radius, rng)
    content = int(rng.choice(library.count, p=library.popularity))
    link = _typical_link(
        realization, content, params, instantaneous=load_mode != "long-term-assoc"
    )
    if link is None:
        return None
    xi, serving, interference = link
    if load_mode == "instantaneous":
        load = float(_instantaneous_load(realization, serving, params, rng))
    else:
        load = mean_load_m1(
            float(library.popularity[content]),
            float(policy.probs[content]),
            params.user_density,
            params.helper_density,
        )
    rate = delivery_rate(xi, interference, load, params.tx_power)
    success = bool(rate >= library.rates[content])
    return LinkOutcome(
        xi_min=xi,
        serving_helper=serving,
        interference=interference,
        load=load,
        rate=rate,
        success=success,
    )


def simulate_interference_limited(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
    load_mode: str = "instantaneous",
    window_miss_prob: float = DEFAULT_WINDOW_MISS,
    workers: int = 1,
) -> MCEstimate:
    """Estimate the SIR-based success probability under resource sharing.

    load_mode picks the load model: 'instantaneous' counts the users that
    chose the serving helper by their own instantaneous channels,
    'mean-approx' replaces the random load by its closed-form mean, and
    'long-term-assoc' additionally associates by distance only.  The two
    mean-load modes need single-slot caches (M = 1), where the closed form
    exists.

    Interference beyond the window is dropped, which biases estimates
    upward; the bias shrinks with window_miss_prob but decays slowly for
    path loss exponents near 2 (the out-of-window interference scales as
    R^(2 - alpha)).  Comparisons between load modes at one seed share the
    truncation and the sampled networks.
    """
    if load_mode not in LOAD_MODES:
        raise ValueError(f"unknown load_mode {load_mode!r}, expected one of {LOAD_MODES}")
    violation = budget_violation(policy)
    if violation is not None:
        raise ValueError(f"infeasible policy: {violation}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if load_mode != "instantaneous" and policy.memory != 1:
        raise ValueError("mean-load modes require M = 1 (no closed-form mean load beyond it)")
    # Probabilities at the feasibility-tolerance scale (clip residue from
    # the optimizers) cannot place a helper inside any practical window;
    # requests for such contents fail naturally, so the window is sized by
    # the smallest probability that actually matters.
    positive = policy.probs[policy.probs > BUDGET_TOL]
    if positive.size == 0:
        return MCEstimate.from_counts(0, trials)
    radius = window_radius(float(positive.min()), params.helper_density, window_miss_prob)

    # One substream per trial, keyed by the global trial index: estimates do
    # not depend on chunking or scheduling, and different load modes on the
    # same seed see the same sampled networks (the load-model comparison
    # then runs on common random realizations).
    def worker(chunk_index: int, n: int) -> int:
        successes = 0
        base = chunk_index * _INTERF_CHUNK
        for t in range(base, base + n):
            rng = _substream(seed, t)
            outcome = _interference_trial(library, params, policy, radius, load_mode, rng)
            if outcome is not None and outcome.success:
                successes += 1
        return successes

    successes = _run_chunks(trials, _INTERF_CHUNK, worker, workers)
    return MCEstimate.from_counts(successes, trials)


def empirical_mean_load(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
    window_miss_prob: float = 1e-6,
) -> float:
    """Mean observed load of the typical user's serving helper under
    distance association (single-slot caches), for checking the closed-form
    mean; trials without an in-window helper are skipped.

    Users are sampled on half the helper window so every counted user sees
    its true nearest caching helper; otherwise edge users would pile onto
    interior cells and bias the load upward.
    """
    if policy.memory != 1:
        raise ValueError("the tagged-load check is defined for M = 1")
    positive = policy.probs[policy.probs > BUDGET_TOL]
    if positive.size == 0:
        raise ValueError("the policy caches no content, so no helper can serve a request")
    user_radius = window_radius(float(positive.min()), params.helper_density, window_miss_prob)
    helper_radius = 2.0 * user_radius
    layout = build_block_layout(policy)
    total = 0.0
    measured = 0
    for trial in range(trials):
        rng = _substream(seed, trial)
        helpers = sample_ppp(params.helper_density, helper_radius, rng)
        caches = cache_matrix(layout, rng.random(len(helpers)))
        users = sample_ppp(params.user_density, user_radius, rng)
        requested = rng.choice(library.count, size=len(users), p=library.popularity)
        content = int(rng.choice(library.count, p=library.popularity))
        mask = caches[:, content]
        if not np.any(mask):
            continue
        dist_t = np.linalg.norm(helpers, axis=1)
        idx = np.nonzero(mask)[0]
        serving = int(idx[np.argmin(dist_t[idx])])
        load = 1
        if len(users):
            dist = np.linalg.norm(users[:, None, :] - helpers[None, :, :], axis=2)
            cand = caches[:, requested].T
            dist = np.where(cand, dist, np.inf)
            best = np.argmin(dist, axis=1)
            has = np.any(cand, axis=1)
            load += int(np.sum(has & (best == serving)))
        total += load
        measured += 1
    if measured == 0:
        raise ValueError("no trial produced a serving helper; enlarge the window or trials")
    return total / measured
