"""Empirical tagged-load oracle for the closed-form mean load.

Measures the load of the typical user's serving helper under distance
association on the interference engine's sampled networks, so
`cachegeo.analytics.mean_load_m1` (single-slot caches) has a Monte Carlo
reference.  The engine's mean-load modes read the closed form instead.
"""
from __future__ import annotations

import numpy as np

from cachegeo.model import BUDGET_TOL, CachingPolicy, ContentLibrary, NetworkParams
from cachegeo.placement import build_block_layout
from cachegeo.simulator import (
    _INTERF_CHUNK,
    NOISE_WINDOW_MISS,
    _cartesian,
    _chunk_grid,
    _sample_chunk,
    _substream,
    _typical_links,
    _window_r2,
)


def brute_force_nearest_loads(chunk, serving, user_radius):
    """Per-trial load of the serving helper with a user x helper distance
    matrix per trial (nearest caching helper, lowest index on ties),
    counting only the users within user_radius of the typical user."""
    loads = []
    h_end, u_end = np.cumsum(chunk.helper_counts), np.cumsum(chunk.user_counts)
    user_xy = _cartesian(*chunk.user_polar)
    for t in range(serving.size):
        h = np.arange(h_end[t] - chunk.helper_counts[t], h_end[t])
        u = np.arange(u_end[t] - chunk.user_counts[t], u_end[t])
        u = u[chunk.user_polar[0, u] <= user_radius]
        load = 1
        if serving[t] >= 0 and u.size:
            dist = np.hypot(
                user_xy[0, u][:, None] - chunk.helper_xy[0, h][None, :],
                user_xy[1, u][:, None] - chunk.helper_xy[1, h][None, :],
            )
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
    layout = build_block_layout(policy)

    total, measured = 0.0, 0
    for chunk_index, n in _chunk_grid(trials, _INTERF_CHUNK):
        rng = _substream(seed, chunk_index)
        chunk = _sample_chunk(rng, n, library, params, layout, 2.0 * radius)
        _, serving, _ = _typical_links(chunk, params, nearest=True)
        served = serving >= 0
        total += float(brute_force_nearest_loads(chunk, serving, radius)[served].sum())
        measured += int(served.sum())
    if measured == 0:
        raise ValueError("no trial produced a serving helper; enlarge the window or trials")
    return total / measured
