"""Load oracles for the interference engine.

strongest_channel_loads recounts the instantaneous load of
`cachegeo.simulator._serving_loads` one user at a time, from the
selection gains the engine drew, and shares none of its code;
typical_links_loop finds the typical user's serving helper, xi and
interference of `cachegeo.simulator._typical_links` one trial and one
helper at a time, likewise.  Both read positions as the chunk's drawn
uniforms and build coordinates with their own math calls.
empirical_mean_load measures the load of the typical user's serving
helper under distance association on the engine's sampled networks, so
`cachegeo.analytics.mean_load_m1` (single-slot caches) has a Monte Carlo
reference.  The engine's mean-load modes read the closed form instead.
"""
from __future__ import annotations

import math

import numpy as np

from cachegeo.model import BUDGET_TOL, CachingPolicy, ContentLibrary, NetworkParams
from cachegeo.placement import build_block_layout
from cachegeo.simulator import (
    _INTERF_CHUNK,
    NOISE_WINDOW_MISS,
    _chunk_grid,
    _Requests,
    _link_terms,
    _sample_chunk,
    _serving_loads,
    _substream,
    _typical_links,
    _window_r2,
)


def coordinates(radius, uniforms):
    """(x, y) of points from their (2, count) position uniforms (u, v): the
    distance radius sqrt(u) and the angle 2 pi v, one point at a time."""
    x, y = [], []
    for u, v in uniforms.T.tolist():
        r, theta = radius * math.sqrt(u), v * 2.0 * math.pi
        x.append(r * math.cos(theta))
        y.append(r * math.sin(theta))
    return np.array(x), np.array(y)


def exact_serving_loads(chunk, serving, library, params, rng):
    """_serving_loads at cap = need = 1, which leaves open every trial with
    an eligible user: the exact load of every trial."""
    n = serving.size
    return _serving_loads(chunk, serving, library, params, rng, np.ones(n), np.ones((1, n)))


def strongest_channel_loads(chunk, serving, params, gains):
    """Per-trial load of the serving helper under strongest-channel
    association, one user at a time.

    A user is eligible when its trial's serving helper caches its request.
    Each eligible user, in user order, takes the helpers of its trial that
    cache its request in ascending index, reads the next of `gains` (the
    selection gains the engine drew, in that (user, helper) order) for
    each, and picks the smallest (dx^2 + dy^2)^(alpha/2) / g, the lowest
    index on ties.  Every gain must be read.
    """
    user_x, user_y = coordinates(chunk.radius, chunk.user_uniforms)
    helper_x, helper_y = coordinates(chunk.radius, chunk.helper_uniforms)
    h_end, u_end = np.cumsum(chunk.helper_counts), np.cumsum(chunk.user_counts)
    loads = np.ones(serving.size)
    read = 0
    for t, server in enumerate(serving):
        helpers = np.arange(h_end[t] - chunk.helper_counts[t], h_end[t])
        for u in range(u_end[t] - chunk.user_counts[t], u_end[t]):
            content = chunk.requested[u]
            if server < 0 or content not in chunk.caches[server]:
                continue
            cachers = helpers[(chunk.caches[helpers] == content).any(axis=1)]
            g = gains[read : read + cachers.size]
            read += cachers.size
            dx = user_x[u] - helper_x[cachers]
            dy = user_y[u] - helper_y[cachers]
            metric = (dx * dx + dy * dy) ** (params.pathloss_exp / 2.0) / g
            loads[t] += cachers[np.argmin(metric)] == server
    assert read == gains.size, f"read {read} of {gains.size} drawn gains"
    return loads


def typical_links_loop(chunk, alpha, nearest):
    """Per-trial (xi, serving helper, interference) of the typical user at
    the origin, one helper at a time in ascending index; a helper's distance
    d is its drawn radius, radius sqrt(u).

    The serving helper is the helper caching the request with the
    smallest d^alpha / g (desired gain g), or the smallest distance d when
    `nearest`; the first one found wins ties.  xi is its d^alpha / g.
    Every other helper adds g' d^-alpha to the interference, where g' is
    its desired gain if it caches the request and `nearest` is false, and
    its interfering gain otherwise.  A trial with no caching helper has
    xi = inf and serving helper -1.
    """
    n = chunk.helper_counts.size
    xi, serving, interference = np.full(n, np.inf), np.full(n, -1), np.zeros(n)
    end = 0
    for t in range(n):
        start, end = end, end + int(chunk.helper_counts[t])
        dist = [chunk.radius * math.sqrt(chunk.helper_uniforms[0, h]) for h in range(start, end)]
        caching = [chunk.content[t] in chunk.caches[h] for h in range(start, end)]
        best = math.inf
        for h, d, cached in zip(range(start, end), dist, caching):
            metric = d if nearest else d**alpha / chunk.desired[h]
            if cached and metric < best:
                serving[t], best = h, metric
        for h, d, cached in zip(range(start, end), dist, caching):
            if h == serving[t]:
                xi[t] = d**alpha / chunk.desired[h]
            elif cached and not nearest:
                interference[t] += chunk.desired[h] / d**alpha
            else:
                interference[t] += chunk.interf[h] / d**alpha
    return xi, serving, interference


def brute_force_nearest_loads(chunk, serving, user_radius):
    """Per-trial load of the serving helper with a user x helper distance
    matrix per trial (nearest caching helper, lowest index on ties),
    counting only the users within user_radius of the typical user."""
    loads = []
    h_end, u_end = np.cumsum(chunk.helper_counts), np.cumsum(chunk.user_counts)
    for t in range(serving.size):
        h = np.arange(h_end[t] - chunk.helper_counts[t], h_end[t])
        u = np.arange(u_end[t] - chunk.user_counts[t], u_end[t])
        u = u[chunk.radius * np.sqrt(chunk.user_uniforms[0, u]) <= user_radius]
        load = 1
        if serving[t] >= 0 and u.size:
            user_x, user_y = coordinates(chunk.radius, chunk.user_uniforms[:, u])
            helper_x, helper_y = coordinates(chunk.radius, chunk.helper_uniforms[:, h])
            dist = np.hypot(user_x[:, None] - helper_x[None, :], user_y[:, None] - helper_y[None, :])
            candidates = (chunk.caches[h][None] == chunk.requested[u][:, None, None]).any(2)
            best = h[np.argmin(np.where(candidates, dist, np.inf), axis=1)]
            load += int(np.sum(candidates.any(axis=1) & (best == serving[t])))
        loads.append(load)
    return np.array(loads, float)


def empirical_mean_load(
    library: ContentLibrary,
    params: NetworkParams,
    policy: CachingPolicy,
    trials: int,
    seed: int,
) -> float:
    """Mean observed load of the typical user's serving helper under
    distance association (single-slot caches); trials without an
    in-window helper are skipped.

    Networks are sampled on twice the window radius R and only the users
    within R are counted, so every counted user sees its true nearest
    caching helper; otherwise edge users would pile onto interior cells
    and bias the load upward.  The window misses with probability
    NOISE_WINDOW_MISS, because a mean is compared against its closed form.
    """
    if policy.memory != 1:
        raise ValueError("the tagged-load check is defined for M = 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    positive = policy.probs[policy.probs > BUDGET_TOL]
    if positive.size == 0:
        raise ValueError("the policy caches no content, so no helper can serve a request")
    radius = float(np.sqrt(_window_r2(positive.min(), params.helper_density, NOISE_WINDOW_MISS)))
    layout, requests = build_block_layout(policy), _Requests(library.popularity)

    total, measured = 0.0, 0
    for chunk_index, n in _chunk_grid(trials, _INTERF_CHUNK):
        rng = _substream(seed, chunk_index)
        chunk = _sample_chunk(rng, n, requests, params, layout, 2.0 * radius)
        _, serving, _ = _typical_links(chunk, _link_terms(chunk, params), nearest=True)
        served = serving >= 0
        total += float(brute_force_nearest_loads(chunk, serving, radius)[served].sum())
        measured += int(served.sum())
    if measured == 0:
        raise ValueError("no trial produced a serving helper; enlarge the window or trials")
    return total / measured
