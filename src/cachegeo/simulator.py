"""Monte Carlo engine: Poisson networks, Nakagami fading, probabilistic
cache placement, strongest-channel association, helper loads, and
delivery-success estimation.

Reproducibility: one root seed; both engines process trials in fixed-size
chunks, and chunk k draws from ``SeedSequence(entropy=seed,
spawn_key=(k,))``.  Both aggregate integer success counts, so estimates
are bit-identical for a given seed, and a chunk's draws do not depend on
how many chunks follow it.

The interference engine draws a chunk as flat arrays (every helper and
user of its trials, with per-trial counts, and each helper's cache as M
content slots) and reduces them per trial segment.  Its draws come in the
same order for every load mode, and the fresh channel gains of the
instantaneous load come last, so load modes on one seed evaluate
identical networks.  Rates enter only when a trial's rate is compared
with its target, so one pass over the chunks serves every load mode and
every row of a matrix of rate targets, with the counts of separate calls.
The instantaneous load is counted only in trials whose outcome it decides
for some row, and its gains are drawn only up to the last such trial's
users.  The noise engine makes four draws per chunk (requests, counts,
unit-disc radii, gains) whatever F is, the last two into buffers that each
call allocates once.  Requests of both engines are searched in a cdf built
once per call (noise) or chunk (interference), with the bits of
Generator.choice.

Finite window: helpers are sampled inside a disc sized so the nearest
relevant helper is missed with probability at most ``window_miss_prob``
in the interference engine (default 1e-3) and NOISE_WINDOW_MISS
elsewhere; trials with no helper caching the requested content inside
the window count as delivery failures, and interference from beyond the
window is truncated.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, pi
from typing import NamedTuple

import numpy as np

from .analytics import _noise_thresholds, _probs_of, mean_load_m1
from .model import BUDGET_TOL, CachingPolicy, ContentLibrary, NetworkParams, budget_violation
from .placement import BlockLayout, build_block_layout, cache_matrix

__all__ = [
    "MCEstimate",
    "nakagami_gain",
    "sample_xi_min",
    "simulate_noise_limited",
    "simulate_interference_limited",
    "LOAD_MODES",
]

DEFAULT_WINDOW_MISS = 1e-3
# Window of the noise engine and the xi_1 sampler: their estimates are
# checked against closed forms at a resolution where the 1e-3 truncation
# bias would show.
NOISE_WINDOW_MISS = 1e-6
# Mean helper count of every noise window: pi p lambda R^2 for caching
# probability p.
_NOISE_WINDOW_COUNT = log(1.0 / NOISE_WINDOW_MISS)
_NOISE_CHUNK = 4096
_INTERF_CHUNK = 64
# Users and candidate helpers paired per step of the instantaneous load,
# which bounds its working set whatever the window holds.
_PAIR_SLICE = 8192
# Mean helpers plus users of one interference chunk above which a call is
# refused before any draw (see _check_chunk_population).
_CHUNK_POPULATION = 4_000_000

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


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _window_r2(p, helper_density: float, miss_prob: float):
    """R^2 of the disc whose p-thinned helper process (p scalar or array)
    is empty with probability miss_prob: ln(1 / miss_prob) = pi p lambda R^2.
    +inf for p = 0 and where it overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return log(1.0 / miss_prob) / (pi * np.asarray(p, dtype=float) * helper_density)


def _disc_points(radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """(2, count) radii and angles of points uniform on a disc centred at the origin."""
    return np.array((radius * np.sqrt(rng.random(count)), rng.random(count) * 2.0 * pi))


def _cartesian(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(2, count) coordinates of the radii and angles that _disc_points draws."""
    return np.array((r * np.cos(theta), r * np.sin(theta)))


def nakagami_gain(m: float, rng: np.random.Generator, size=None, out=None):
    """Unit-mean Nakagami-m channel power gain(s): Gamma(m, 1/m), drawn
    into `out` when given."""
    if m < 0.5:
        raise ValueError("Nakagami shape must be >= 1/2")
    if m == 1:  # Rayleigh: the bits of gamma(1, 1), drawn faster
        return rng.standard_exponential(size, out=out)
    # the bits of gamma(m, 1/m), which multiplies standard_gamma(m) by 1/m
    gain = rng.standard_gamma(m, size, out=out)
    gain *= 1.0 / m
    return gain


def _segment_argmin(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat index of each segment's smallest finite value (lowest index wins
    ties); -1 for segments that are empty or hold only inf."""
    out = np.full(counts.size, -1, dtype=np.intp)
    nonzero = counts > 0
    if np.any(nonzero):
        starts = (np.cumsum(counts) - counts)[nonzero]
        minima = np.minimum.reduceat(values, starts)
        at_min = values == np.repeat(minima, counts[nonzero])
        first = np.minimum.reduceat(np.where(at_min, np.arange(values.size), values.size), starts)
        out[nonzero] = np.where(np.isfinite(minima), first, -1)
    return out


def _noise_scale(p, params: NetworkParams) -> np.ndarray:
    """R^alpha of the noise window of caching probability p (scalar or
    array): +inf for p = 0 and where it overflows."""
    with np.errstate(over="ignore"):
        return _window_r2(p, params.helper_density, NOISE_WINDOW_MISS) ** (params.pathloss_exp / 2.0)


class _UnitXiMin:
    """The noise chunk kernel: n minima of u^(alpha/2) / g over
    Poisson(_NOISE_WINDOW_COUNT) helpers uniform on the unit disc (+inf for
    empty trials); on the noise window of radius R, xi_1 = R^alpha times
    this.

    One is made per engine call, and every chunk of the call draws into its
    two buffers, so a chunk allocates no helper-sized array (fresh arrays
    per chunk made the noise benchmark 14 % slower).
    """

    def __init__(self, params: NetworkParams):
        self._exponent = params.pathloss_exp / 2.0
        self._fading = params.fading_desired
        self._unit = self._gain = np.empty(0)

    def __call__(self, rng: np.random.Generator, n: int, out: np.ndarray) -> np.ndarray:
        counts = rng.poisson(_NOISE_WINDOW_COUNT, size=n)
        total = int(counts.sum())
        if self._unit.size <= total:  # with headroom, so later chunks rarely regrow it
            size = total + total // 16 + 1
            self._unit, self._gain = np.empty(size), np.empty(size)
        # one slot past the draws holds +inf, which closes the last segment
        # even when it is empty
        unit = self._unit[: total + 1]
        drawn = rng.random(out=unit[:total])
        drawn **= self._exponent
        drawn /= nakagami_gain(self._fading, rng, out=self._gain[:total])
        unit[total] = np.inf
        np.minimum.reduceat(unit, np.cumsum(counts) - counts, out=out)
        out[counts == 0] = np.inf
        return out


class _Requests:
    """Content requests by popularity: the indices, and the generator state
    after them, of Generator.choice(F, n, p=popularity).

    choice re-validates p and rebuilds cdf = cumsum(p) / its last entry on
    every call before it searches one uniform per request in it; this
    builds the cdf once and only searches.
    """

    def __init__(self, popularity: np.ndarray):
        self._cdf = np.cumsum(popularity)
        self._cdf /= self._cdf[-1]

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._cdf.searchsorted(rng.random(n), "right")


def _chunk_grid(trials: int, chunk: int) -> list[tuple[int, int]]:
    """(chunk index, size) pairs of the fixed chunk grid, in chunk order."""
    return [(c, min(chunk, trials - c * chunk)) for c in range(-(-trials // chunk))]


def sample_xi_min(params: NetworkParams, p: float, trials: int, seed: int) -> np.ndarray:
    """Draw `trials` samples of the smallest reciprocal gain for one content.

    Helpers caching the content form a thinned Poisson process of
    intensity p * helper_density, sampled directly inside the window
    (+inf marks trials whose window held no helper, and every trial when
    the window radius^alpha overflows).  The window misses with
    probability NOISE_WINDOW_MISS, because the whole distribution is
    compared, not a single threshold.
    """
    if not 0 < p <= 1:
        raise ValueError(f"caching probability p must lie in (0, 1], got p = {p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kernel = _UnitXiMin(params)
    samples = np.empty(trials)
    for c, n in _chunk_grid(trials, _NOISE_CHUNK):
        kernel(_substream(seed, c), n, samples[c * _NOISE_CHUNK : c * _NOISE_CHUNK + n])
    samples *= _noise_scale(p, params)
    return samples


def simulate_noise_limited(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
) -> MCEstimate:
    """Estimate the success probability without interference or load sharing.

    Each trial requests a content by popularity and succeeds when
    log2(1 + snr / xi_1) clears the content's target rate.  Helpers caching
    content i are drawn directly as a thinned Poisson process of intensity
    p_i * helper_density (placement keeps caches independent across
    helpers, so the thinning is exact), with a per-content window.

    Every window radius R_i satisfies p_i * helper_density * pi * R_i^2 =
    ln(1 / NOISE_WINDOW_MISS), so xi_1 is R_i^alpha times one content-free
    unit-disc minimum and a chunk makes four draws (requests, counts, unit
    radii, gains) whatever F is.  Uncached contents, and those whose
    R_i^alpha overflows, always fail.

    The window is tighter than the interference engine's default 1e-3
    because the success event compares the whole xi_1 distribution against
    fixed thresholds: at miss 1e-3 the truncation bias is a few per mille,
    visible against the closed form at 1e5 trials.
    """
    probs = _probs_of(policy, library)
    violation = budget_violation(policy)
    if violation is not None:
        raise ValueError(f"infeasible policy: {violation}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    thresholds = _noise_thresholds(library, params)  # raises before any draw
    scale = _noise_scale(probs, params)
    requests, kernel = _Requests(library.popularity), _UnitXiMin(params)
    minima = np.empty(_NOISE_CHUNK)
    successes = 0
    for c, n in _chunk_grid(trials, _NOISE_CHUNK):
        rng = _substream(seed, c)
        contents = requests(rng, n)
        xi1 = scale[contents] * kernel(rng, n, minima[:n])
        # the thresholds are finite, and an inf or NaN xi1 never clears one
        successes += int(np.count_nonzero(xi1 <= thresholds[contents]))
    return MCEstimate.from_counts(successes, trials)


class _Chunk(NamedTuple):
    """The networks of a chunk of trials as flat arrays, trial-major.

    Helper arrays are split into trials by helper_counts and user arrays
    by user_counts; the typical user sits at the origin of every trial.
    """

    helper_counts: np.ndarray  # (n,)
    helper_xy: np.ndarray  # (2, H) coordinates, meters
    helper_dist: np.ndarray  # (H,) distance to the typical user
    caches: np.ndarray  # (H, M) content per cache slot, -1 for an empty slot
    content: np.ndarray  # (n,) typical user's request per trial
    caching: np.ndarray  # (H,) caches the typical user's request of its trial
    desired: np.ndarray  # (H,) typical user's selection-channel gains
    interf: np.ndarray  # (H,) typical user's interfering-channel gains
    user_counts: np.ndarray  # (n,)
    user_polar: np.ndarray  # (2, U) radii and angles, for _cartesian
    requested: np.ndarray  # (U,) content index per user


def _sample_chunk(
    rng: np.random.Generator,
    n: int,
    library: ContentLibrary,
    params: NetworkParams,
    layout: BlockLayout,
    radius: float,
) -> _Chunk:
    """Draw n trials' helper and user processes on the window disc, caches,
    typical-user gains and requests, in one fixed order."""
    requests = _Requests(library.popularity)
    helper_counts = rng.poisson(params.helper_density * pi * radius**2, n)
    user_counts = rng.poisson(params.user_density * pi * radius**2, n)
    n_helpers, n_users = int(helper_counts.sum()), int(user_counts.sum())
    helper_xy = _cartesian(*_disc_points(radius, n_helpers, rng))
    user_polar = _disc_points(radius, n_users, rng)
    caches = cache_matrix(layout, rng.random(n_helpers))
    desired = nakagami_gain(params.fading_desired, rng, n_helpers)
    interf = nakagami_gain(params.fading_interf, rng, n_helpers)
    requested = requests(rng, n_users)
    content = requests(rng, n)
    caching = (caches == np.repeat(content, helper_counts)[:, None]).any(1)
    return _Chunk(
        helper_counts, helper_xy, np.hypot(*helper_xy), caches,
        content, caching, desired, interf, user_counts, user_polar, requested,
    )


def _check_chunk_population(params: NetworkParams, r2: float, p_min: float) -> None:
    """Refuse a window of radius^2 r2 whose chunk would hold more than
    _CHUNK_POPULATION helpers and users on average."""
    ratio = params.user_density / params.helper_density
    population = _INTERF_CHUNK * pi * r2 * (params.helper_density + params.user_density)
    if population > _CHUNK_POPULATION:
        raise ValueError(
            f"a {_INTERF_CHUNK}-trial chunk would hold {population:.3g} helpers and users on "
            f"average, above the ceiling of {_CHUNK_POPULATION:.3g}: lower user_density / "
            f"helper_density (now {ratio:.3g}) or raise the smallest caching probability "
            f"(now {p_min:.3g})"
        )


def _typical_links(
    chunk: _Chunk, params: NetworkParams, nearest: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (xi, serving helper, interference) of the typical user.

    The serving helper is the caching helper with the smallest reciprocal
    gain dist^alpha / desired, or the nearest one when `nearest` (lowest
    index wins ties).  Every other helper interferes: under
    strongest-channel selection, caching helpers through the gains already
    revealed for selection and the rest through their interfering-link
    gains; under nearest association, all through interfering-link gains.
    Trials with no caching helper get xi = inf and serving helper -1.
    """
    alpha = params.pathloss_exp
    counts, dist, caching = chunk.helper_counts, chunk.helper_dist, chunk.caching
    reciprocal = dist**alpha / chunk.desired
    serving = _segment_argmin(np.where(caching, dist if nearest else reciprocal, np.inf), counts)
    served = serving >= 0
    xi = np.full(counts.size, np.inf)
    xi[served] = reciprocal[serving[served]]
    power = chunk.interf * dist ** (-alpha)
    if not nearest:
        power = np.where(caching, 1.0 / reciprocal, power)
    power[serving[served]] = 0.0
    trial = np.repeat(np.arange(counts.size), counts)
    return xi, serving, np.bincount(trial, weights=power, minlength=counts.size)


def _serving_loads(
    chunk: _Chunk,
    serving: np.ndarray,
    library: ContentLibrary,
    params: NetworkParams,
    rng: np.random.Generator,
    cap: np.ndarray,
    need: np.ndarray,
) -> np.ndarray:
    """Per-trial load of the serving helper: the typical user plus every
    user associating with it.

    A user associates with the one of its trial's helpers caching its
    request that has the strongest instantaneous channel, on selection
    gains drawn fresh from rng for each pair (lowest index wins ties).
    Only the e users whose request the serving helper caches can choose
    it, so the load lies in [1, 1 + e].  Given each trial's rate at load 1
    (cap) and the (k, n) rate targets it must clear (need), a trial whose
    outcome cap / load >= need is the same at both bounds for every target
    gets the load 1 + e; only the users of the other trials are paired,
    _PAIR_SLICE pairs at a time (cap = need = 1 pairs every eligible user:
    exact loads).  The gains are drawn slice by slice in user order up to
    the slice of the last paired user, so a pair's gain does not depend on
    cap, and nothing is drawn when no trial is paired.
    """
    n = serving.size
    trial = np.repeat(np.arange(n), chunk.user_counts)
    target = serving[trial]
    eligible = target >= 0
    eligible[eligible] = (chunk.caches[target[eligible]] == chunk.requested[eligible, None]).any(1)
    users = np.flatnonzero(eligible)
    upper = 1.0 + np.bincount(trial[users], minlength=n)
    undecided = ((cap >= need) & (cap / upper < need)).any(0)
    loads = np.where(undecided, 1.0, upper)
    paired = np.flatnonzero(undecided[trial[users]])  # indices into users
    if paired.size == 0:
        return loads
    xy = _cartesian(*chunk.user_polar[:, users[paired]])
    # the helpers caching each (trial, content), in ascending index order
    helper, slot = np.nonzero(chunk.caches >= 0)
    count = library.count
    key = np.repeat(np.arange(n), chunk.helper_counts)[helper] * count + chunk.caches[helper, slot]
    order = np.argsort(key, kind="stable")
    helper, key = helper[order], key[order]
    user_key = trial[users] * count + chunk.requested[users]
    first = np.searchsorted(key, user_key, "left")
    width = np.searchsorted(key, user_key, "right") - first
    ends = np.cumsum(width)
    starts = ends - width
    lo = 0
    while lo <= paired[-1]:
        # users lo..hi-1 hold at most _PAIR_SLICE pairs, or one user holds more
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _PAIR_SLICE, "right")))
        gain = nakagami_gain(params.fading_desired, rng, ends[hi - 1] - starts[lo])
        a, b = np.searchsorted(paired, (lo, hi))
        if a < b:  # the slice holds undecided users
            part = paired[a:b]
            w = width[part]
            rank = np.arange(w.sum()) - np.repeat(np.cumsum(w) - w, w)  # pair rank within its user
            pair_user = np.repeat(np.arange(a, b), w)
            pair_helper = helper[np.repeat(first[part], w) + rank]
            dx = xy[0, pair_user] - chunk.helper_xy[0, pair_helper]
            dy = xy[1, pair_user] - chunk.helper_xy[1, pair_helper]
            metric = (dx * dx + dy * dy) ** (params.pathloss_exp / 2.0) / gain[
                np.repeat(starts[part] - starts[lo], w) + rank
            ]
            chose = pair_helper[_segment_argmin(metric, w)] == target[users[part]]
            loads += np.bincount(trial[users[part[chose]]], minlength=n)
        lo = hi
    return loads


def _shared_rate(xi: np.ndarray, interference: np.ndarray) -> np.ndarray:
    """Rate at load 1, log2(1 + 1 / (xi J)), with the interference J in
    units of the transmit power; infinite SIR when J = 0."""
    with np.errstate(divide="ignore"):
        return np.log2(1.0 + 1.0 / (xi * interference))


def simulate_interference_limited(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
    load_mode: str = "instantaneous",
    window_miss_prob: float = DEFAULT_WINDOW_MISS,
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
    estimates = _simulate_interference_pass(
        library, params, policy, trials, seed, (load_mode,), library.rates[None], window_miss_prob
    )
    return estimates[load_mode][0]


def _simulate_interference_pass(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
    load_modes,
    rates: np.ndarray,
    window_miss_prob: float = DEFAULT_WINDOW_MISS,
) -> dict[str, list[MCEstimate]]:
    """simulate_interference_limited for several load modes and a (k, F)
    matrix of rate targets on one set of sampled networks: the estimate of
    every (mode, row) pair, per mode in row order.

    Each chunk is drawn once; the typical user's links are found once per
    association rule (strongest channel for 'instantaneous' and
    'mean-approx', nearest helper for 'long-term-assoc'), and the
    instantaneous load, whose fresh gains are the chunk's last draws, comes
    last.  Every count equals that of a separate call per (mode, row).
    """
    for mode in load_modes:
        if mode not in LOAD_MODES:
            raise ValueError(f"unknown load_mode {mode!r}, expected one of {LOAD_MODES}")
    if not 0 < window_miss_prob < 1:  # NaN fails too
        raise ValueError(f"window_miss_prob must lie in (0, 1), got {window_miss_prob}")
    _probs_of(policy, library)
    layout = build_block_layout(policy)  # raises on an infeasible policy
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mean_modes = set(load_modes) - {"instantaneous"}
    if mean_modes and policy.memory != 1:
        raise ValueError("mean-load modes require M = 1 (no closed-form mean load beyond it)")
    if rates.ndim != 2 or rates.shape[1] != library.count:
        raise ValueError(f"rates must be a (k, {library.count}) matrix, got shape {rates.shape}")
    # Probabilities at the feasibility-tolerance scale (clip residue from
    # the optimizers) cannot place a helper inside any practical window;
    # requests for such contents fail naturally, so the window is sized by
    # the smallest probability that actually matters.
    positive = policy.probs[policy.probs > BUDGET_TOL]
    successes = {mode: np.zeros(len(rates), np.int64) for mode in load_modes}
    if positive.size == 0:
        return {mode: [MCEstimate.from_counts(0, trials)] * len(rates) for mode in successes}
    p_min = float(positive.min())
    r2 = float(_window_r2(p_min, params.helper_density, window_miss_prob))
    _check_chunk_population(params, r2, p_min)
    radius = float(np.sqrt(r2))
    if mean_modes:
        # no helper caches a content of probability 0: its load is unbounded
        mean_load = np.array([
            mean_load_m1(float(f), float(p), params.user_density, params.helper_density)
            if p > 0 else np.inf
            for f, p in zip(library.popularity, policy.probs)
        ])
    # the instantaneous load draws, so it goes last
    modes = sorted(successes, key=lambda mode: mode == "instantaneous")

    for chunk_index, n in _chunk_grid(trials, _INTERF_CHUNK):
        rng = _substream(seed, chunk_index)
        chunk = _sample_chunk(rng, n, library, params, layout, radius)
        need = rates[:, chunk.content]
        links = {}  # association rule (nearest) -> (serving helper, rate at load 1)
        for mode in modes:
            nearest = mode == "long-term-assoc"
            if nearest not in links:
                xi, serving, interference = _typical_links(chunk, params, nearest)
                served = serving >= 0
                # a trial without a serving helper fails at any load
                cap = np.zeros(n)
                cap[served] = _shared_rate(xi[served], interference[served])
                links[nearest] = serving, cap
            serving, cap = links[nearest]
            if mode == "instantaneous":
                load = _serving_loads(chunk, serving, library, params, rng, cap, need)
            else:
                load = mean_load[chunk.content]
            successes[mode] += np.count_nonzero(cap / load >= need, axis=1)
    return {
        mode: [MCEstimate.from_counts(int(s), trials) for s in counts]
        for mode, counts in successes.items()
    }
