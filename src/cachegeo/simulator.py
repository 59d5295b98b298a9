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
call allocates once.  sample_xi_min draws the curves of several networks
that share pathloss_exp in one pass: a chunk's counts and radii once, and
the gains once per fading_desired from the generator state after the
radii, so each curve holds the bits of its own call.  Requests of both
engines are looked up in a bucket table over the popularity cdf, built
once per engine call, with the bits of Generator.choice.

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
from operator import index
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
# refused before any draw (see _check_window).
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


class _UnitXiMin:
    """The noise chunk kernel: n minima of u / g^delta over
    Poisson(_NOISE_WINDOW_COUNT) helpers uniform on the unit disc (u the
    squared radius, +inf for empty trials), one output per Nakagami shape
    of `fadings`; on the noise window of squared radius R^2, xi_1^delta =
    R^2 times this.

    A chunk draws its counts and radii once.  Every shape's gains start
    from the generator state after the radii, so each output holds the bits
    a kernel of that shape alone draws.

    One is made per engine call, and every chunk of the call draws into its
    two buffers, so a chunk allocates no helper-sized array (fresh arrays
    per chunk made the noise benchmark 14 % slower).
    """

    def __init__(self, delta: float, fadings):
        self._delta = delta
        self._fadings = fadings
        self._unit = self._ratio = np.empty(0)

    def __call__(self, rng: np.random.Generator, n: int, outs) -> None:
        counts = rng.poisson(_NOISE_WINDOW_COUNT, size=n)
        total = int(counts.sum())
        if self._unit.size <= total:  # with headroom, so later chunks rarely regrow it
            size = total + total // 16 + 1
            self._unit, self._ratio = np.empty(size), np.empty(size)
        unit = rng.random(out=self._unit[:total])
        # each further fading's gains restart from here; one fading reads no state
        after_radii = rng.bit_generator.state if len(self._fadings) > 1 else None
        # one slot past the draws holds +inf, which closes the last segment
        # even when it is empty
        ratio = self._ratio[: total + 1]
        ratio[total] = np.inf
        starts, empty = np.cumsum(counts) - counts, counts == 0
        for k, (fading, out) in enumerate(zip(self._fadings, outs)):
            if k:
                rng.bit_generator.state = after_radii
            gain = nakagami_gain(fading, rng, out=ratio[:total])
            # u / g^delta, not u * g^-delta: ** takes its sqrt fast path at alpha = 4
            gain **= self._delta
            np.divide(unit, gain, out=gain)
            np.minimum.reduceat(ratio, starts, out=out)
            out[empty] = np.inf


class _Requests:
    """Content requests by popularity: the indices, and the generator state
    after them, of Generator.choice(F, n, p=popularity).

    choice re-validates p, rebuilds cdf = cumsum(p) / its last entry and
    binary-searches cdf.searchsorted(u, "right") for one uniform u per
    request on every call.  This builds the cdf once, with a bucket table
    (Chen & Asau's guide table): K = 2^min(16, bit_length(F) + 2) buckets
    and start[j] = cdf.searchsorted(j / K, "right").  K is a power of two,
    so u K is exact, and the bucket b = floor(u K) has b / K <= u <
    (b + 1) / K: the answer lies in [start[b], start[b + 1]], and every cdf
    entry from start[b + 1] on exceeds u.  A branch-free bisection of
    bit_length(widest bucket) steps finds it; one step, the answer
    start[b] + (cdf[start[b]] <= u), when no bucket holds two cdf entries.
    """

    def __init__(self, popularity: np.ndarray):
        cdf = np.cumsum(popularity)
        cdf /= cdf[-1]
        buckets = 1 << min(16, cdf.size.bit_length() + 2)
        start = cdf.searchsorted(np.arange(buckets + 1) / buckets, "right")
        steps = int(np.diff(start).max()).bit_length()
        self._scale = float(buckets)
        self._start = start
        self._halves = [1 << k for k in reversed(range(steps))]
        # a probe reads up to 2^steps - 2 entries past start[b] <= F - 1;
        # the padding exceeds every u
        self._cdf = np.concatenate((cdf, np.full(1 << steps, 2.0)))

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        found = self._start.take((u * self._scale).astype(np.intp))
        for half in self._halves:
            found += half * (self._cdf.take(found + (half - 1)) <= u)
        return found


def _chunk_grid(trials: int, chunk: int) -> list[tuple[int, int]]:
    """(chunk index, size) pairs of the fixed chunk grid, in chunk order."""
    return [(c, min(chunk, trials - c * chunk)) for c in range(-(-trials // chunk))]


def _check_draw_args(trials, seed) -> None:
    """Refuse, before any draw, a trial count that is not an integer >= 1
    or a seed that is not an integer >= 0 (numpy integers pass, bools do
    not)."""
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        try:
            whole = not isinstance(value, bool) and index(value) >= least
        except TypeError:
            whole = False
        if not whole:
            raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")


def sample_xi_min(networks, trials: int, seed: int) -> np.ndarray:
    """Draw `trials` samples of the smallest reciprocal gain per network.

    A network's helpers form a Poisson process of intensity helper_density,
    sampled directly inside the window (+inf marks trials whose window held
    no helper, and samples beyond the float range); the cachers of a content
    cached with probability p are the network of density p * helper_density.
    The window misses with probability NOISE_WINDOW_MISS, because the whole
    distribution is compared, not a single threshold.

    `networks` is a sequence of NetworkParams sharing pathloss_exp; row j of
    the (k, trials) result is what [networks[j]] alone gives.  The rows
    share each chunk's counts and radii, rows with one fading_desired share
    its gains, and helper_density sets only a row's R^2.
    """
    _check_draw_args(trials, seed)
    points = list(networks)
    alphas = sorted({point.pathloss_exp for point in points})
    if len(alphas) != 1:
        raise ValueError(f"the points of one call must share one pathloss_exp, got {alphas}")
    # the first row of each fading_desired gets the kernel's output for it
    owner = {}
    for row, point in enumerate(points):
        owner.setdefault(point.fading_desired, row)
    kernel = _UnitXiMin(points[0].delta, list(owner))
    samples = np.empty((len(points), trials))
    for c, n in _chunk_grid(trials, _NOISE_CHUNK):
        span = slice(c * _NOISE_CHUNK, c * _NOISE_CHUNK + n)
        kernel(_substream(seed, c), n, [samples[row, span] for row in owner.values()])
    for row, point in enumerate(points):
        if owner[point.fading_desired] != row:
            samples[row] = samples[owner[point.fading_desired]]
    densities = np.array([point.helper_density for point in points])
    with np.errstate(over="ignore"):
        samples *= _window_r2(1.0, densities, NOISE_WINDOW_MISS)[:, None]
        samples **= alphas[0] / 2.0
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
    log2(1 + snr / xi_1) clears the content's target rate: xi_1^delta <=
    theta^delta.  Helpers caching content i are drawn directly as a thinned
    Poisson process of intensity p_i * helper_density (placement keeps
    caches independent across helpers, so the thinning is exact).

    Every window radius R_i satisfies p_i * helper_density * pi * R_i^2 =
    ln(1 / NOISE_WINDOW_MISS), so xi_1^delta is R_i^2 times one
    content-free unit-disc minimum and a chunk makes four draws (requests,
    counts, unit radii, gains) whatever F is.  Uncached contents always fail.

    The window is tighter than the interference engine's default 1e-3
    because the success event compares the whole xi_1 distribution against
    fixed thresholds: at miss 1e-3 the truncation bias is a few per mille,
    visible against the closed form at 1e5 trials.
    """
    probs = _probs_of(policy, library)
    violation = budget_violation(policy)
    if violation is not None:
        raise ValueError(f"infeasible policy: {violation}")
    _check_draw_args(trials, seed)
    # raises before any draw; theta^delta as in optimize_noise and xi1_cdf
    thresholds = _noise_thresholds(library, params) ** params.delta
    r2 = _window_r2(probs, params.helper_density, NOISE_WINDOW_MISS)
    requests = _Requests(library.popularity)
    kernel = _UnitXiMin(params.delta, [params.fading_desired])
    minima = np.empty(_NOISE_CHUNK)
    successes = 0
    for c, n in _chunk_grid(trials, _NOISE_CHUNK):
        rng = _substream(seed, c)
        contents = requests(rng, n)
        kernel(rng, n, [minima[:n]])
        with np.errstate(over="ignore"):  # near p = 0, +inf fails like an empty window
            xi_delta = r2[contents] * minima[:n]
        # the thresholds are finite, and an inf or NaN xi_delta never clears one
        successes += int(np.count_nonzero(xi_delta <= thresholds[contents]))
    return MCEstimate.from_counts(successes, trials)


class _Chunk(NamedTuple):
    """The networks of a chunk of trials as flat arrays, trial-major.

    Helper arrays are split into trials by helper_counts and user arrays
    by user_counts; the typical user sits at the origin of every trial.
    """

    helper_counts: np.ndarray  # (n,)
    helper_trial: np.ndarray  # (H,) trial of each helper
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
    requests: _Requests,
    params: NetworkParams,
    layout: BlockLayout,
    radius: float,
) -> _Chunk:
    """Draw n trials' helper and user processes on the window disc, caches,
    typical-user gains and requests, in one fixed order."""
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
    helper_trial = np.repeat(np.arange(n), helper_counts)
    caching = (caches == content.take(helper_trial)[:, None]).any(1)
    return _Chunk(
        helper_counts, helper_trial, helper_xy, np.hypot(*helper_xy), caches,
        content, caching, desired, interf, user_counts, user_polar, requested,
    )


def _check_window(params: NetworkParams, r2: float, p_min: float) -> None:
    """Refuse, before any draw, an interference window of radius^2 r2
    whose chunk would hold more than _CHUNK_POPULATION helpers and users on
    average, or whose R^alpha is outside the normal float range, where the
    path losses of its helpers overflow or lose their precision.  The SIR
    does not depend on the density scale, so scaling both densities
    together leaves every estimate unchanged."""
    ratio = params.user_density / params.helper_density
    population = _INTERF_CHUNK * pi * r2 * (params.helper_density + params.user_density)
    if population > _CHUNK_POPULATION:
        raise ValueError(
            f"a {_INTERF_CHUNK}-trial chunk would hold {population:.3g} helpers and users on "
            f"average, above the ceiling of {_CHUNK_POPULATION:.3g}: lower user_density / "
            f"helper_density (now {ratio:.3g}) or raise the smallest caching probability "
            f"(now {p_min:.3g})"
        )
    with np.errstate(over="ignore"):
        scale = np.float64(r2) ** (params.pathloss_exp / 2.0)
    if not np.finfo(float).tiny <= scale < np.inf:
        raise ValueError(
            f"helper_density = {params.helper_density:.3g} puts the window's R^alpha = "
            f"{scale:.3g} outside the normal float range (pathloss_exp {params.pathloss_exp:g}, "
            f"smallest caching probability {p_min:.3g}): scale helper_density and "
            f"user_density together, which leaves the SIR unchanged, or lower pathloss_exp"
        )


class _LinkTerms(NamedTuple):
    """Per-helper link terms of a chunk's typical user, computed once per
    chunk and shared by both association rules."""

    reciprocal: np.ndarray  # (H,) dist^alpha / desired, the reciprocal selection gain
    revealed: np.ndarray  # (H,) 1 / reciprocal, power through the selection gain
    interfering: np.ndarray  # (H,) interf * dist^-alpha


def _link_terms(chunk: _Chunk, params: NetworkParams) -> _LinkTerms:
    """The typical user's link terms of every helper of the chunk; raises
    when one is not finite, which a trial's xi, serving helper or
    interference could not absorb."""
    alpha, dist = params.pathloss_exp, chunk.helper_dist
    with np.errstate(over="ignore", divide="ignore"):
        reciprocal = dist**alpha / chunk.desired
        terms = _LinkTerms(reciprocal, 1.0 / reciprocal, chunk.interf * dist ** (-alpha))
    for term in terms:
        if not np.isfinite(term).all():
            raise ValueError(
                f"a helper's d^alpha / g or g_I d^-alpha is not finite at pathloss_exp = "
                f"{alpha:g} and helper_density = {params.helper_density:g}"
            )
    return terms


def _typical_links(
    chunk: _Chunk, terms: _LinkTerms, nearest: bool
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
    counts, caching, reciprocal = chunk.helper_counts, chunk.caching, terms.reciprocal
    key = chunk.helper_dist if nearest else reciprocal
    serving = _segment_argmin(np.where(caching, key, np.inf), counts)
    served = serving >= 0
    xi = np.full(counts.size, np.inf)
    xi[served] = reciprocal[serving[served]]
    if nearest:
        power = terms.interfering.copy()
    else:
        power = np.where(caching, terms.revealed, terms.interfering)
    power[serving[served]] = 0.0
    return xi, serving, np.bincount(chunk.helper_trial, weights=power, minlength=counts.size)


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
    gets the load 1 + e; only the users of the other trials are paired
    (cap = need = 1 pairs every eligible user: exact loads).  The gains are
    drawn _PAIR_SLICE pairs at a time in user order, up to the slice of the
    last paired user, so a pair's gain does not depend on cap, and nothing
    is drawn when no trial is paired.  Each slice's paired users are
    evaluated as soon as its gains are drawn.
    """
    n, slots = serving.size, chunk.caches.shape[1]
    trial = np.repeat(np.arange(n), chunk.user_counts)
    # the contents of each trial's serving helper, -1 where it has none
    held = np.full((n, slots), -1)
    served = serving >= 0
    held[served] = chunk.caches[serving[served]]
    eligible = held[:, 0].take(trial) == chunk.requested
    for column in held.T[1:]:
        eligible |= column.take(trial) == chunk.requested
    users = np.flatnonzero(eligible)
    user_trial = trial.take(users)
    upper = 1.0 + np.bincount(user_trial, minlength=n)
    undecided = ((cap >= need) & (cap / upper < need)).any(0)
    loads = np.where(undecided, 1.0, upper)
    is_open = undecided.take(user_trial)
    paired = np.flatnonzero(is_open)  # indices into users
    if paired.size == 0:
        return loads
    # the helpers caching each (trial, content) in ascending index order,
    # one run of equal keys per (trial, content); the serving helper of an
    # eligible user caches its request, so its key has a run
    cell = np.flatnonzero(chunk.caches >= 0)
    helper = cell // slots
    count = library.count
    key = chunk.helper_trial.take(helper) * count + chunk.caches.take(cell)
    order = np.argsort(key, kind="stable")
    helper, key = helper.take(order), key.take(order)
    run_first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    run_width = np.diff(np.append(run_first, key.size))
    run = key.take(run_first).searchsorted(user_trial * count + chunk.requested.take(users))
    width = run_width.take(run)
    ends = np.cumsum(width)
    starts = ends - width
    # the paired users' coordinates, runs and serving helpers, and the
    # helpers' coordinates in run order
    r, theta = chunk.user_polar
    open_users = users.take(paired)
    ux, uy = _cartesian(r.take(open_users), theta.take(open_users))
    first, open_width = run_first.take(run.take(paired)), width.take(paired)
    target = serving.take(user_trial.take(paired))
    hx, hy = chunk.helper_xy[0].take(helper), chunk.helper_xy[1].take(helper)
    exponent = params.pathloss_exp / 2.0
    picked = np.zeros(paired.size, bool)
    last = ends[paired[-1]]  # no gain past the last paired user's pairs is drawn
    hi = b = 0
    while hi <= paired[-1]:
        # users lo..hi-1 hold at most _PAIR_SLICE pairs, or one user holds more
        lo = hi
        hi = max(lo + 1, int(ends.searchsorted(starts[lo] + _PAIR_SLICE, "right")))
        gain = nakagami_gain(params.fading_desired, rng, min(ends[hi - 1], last) - starts[lo])
        a, b = b, int(paired.searchsorted(hi))
        if a == b:  # no paired user in the slice
            continue
        # whether each of the slice's paired users a..b-1 picks its serving
        # helper, given the gains of their pairs in user order
        gain = gain[np.repeat(is_open[lo:hi], width[lo:hi])[: gain.size]]
        w = open_width[a:b]
        seg_start = np.cumsum(w) - w
        pair_user = np.repeat(np.arange(b - a), w)
        position = (first[a:b] - seg_start).take(pair_user)  # in run order
        position += np.arange(gain.size)
        metric = ux[a:b].take(pair_user)
        metric -= hx.take(position)
        dy = uy[a:b].take(pair_user)
        dy -= hy.take(position)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            metric *= metric
            dy *= dy
            metric += dy
            metric **= exponent
            metric /= gain
        minima = np.minimum.reduceat(metric, seg_start)
        if not np.isfinite(minima).all():
            raise ValueError(
                f"a user's smallest d^alpha / g over the helpers caching its request is not "
                f"finite at pathloss_exp = {params.pathloss_exp:g}"
            )
        at = np.flatnonzero(metric == minima.take(pair_user))
        if at.size > b - a:  # ties: the lowest index wins
            tied = pair_user.take(at)
            at = at[np.concatenate(([True], tied[1:] != tied[:-1]))]
        picked[a:b] = helper.take(position.take(at)) == target[a:b]
    return loads + np.bincount(user_trial.take(paired[picked]), minlength=n)


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
    _check_draw_args(trials, seed)
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
    _check_window(params, r2, p_min)
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
    requests = _Requests(library.popularity)

    for chunk_index, n in _chunk_grid(trials, _INTERF_CHUNK):
        rng = _substream(seed, chunk_index)
        chunk = _sample_chunk(rng, n, requests, params, layout, radius)
        need = rates[:, chunk.content]
        terms = _link_terms(chunk, params)
        links = {}  # association rule (nearest) -> (serving helper, rate at load 1)
        for mode in modes:
            nearest = mode == "long-term-assoc"
            if nearest not in links:
                xi, serving, interference = _typical_links(chunk, terms, nearest)
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
