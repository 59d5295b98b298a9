"""Empirical tagged-load oracle for the closed-form mean load.

Measures the load of the typical user's serving helper under distance
association on the interference engine's sampled networks, so
`cachegeo.analytics.mean_load_m1` (single-slot caches) has a Monte Carlo
reference.  The engine's mean-load modes read the closed form instead.
"""
from __future__ import annotations

from cachegeo.model import BUDGET_TOL, CachingPolicy, ContentLibrary, NetworkParams
from cachegeo.placement import build_block_layout
from cachegeo.simulator import (
    _INTERF_CHUNK,
    NOISE_WINDOW_MISS,
    _chunk_grid,
    _sample_chunk,
    _serving_loads,
    _substream,
    _typical_links,
    window_radius,
)


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

    Users are sampled on half the helper window so every counted user sees
    its true nearest caching helper; otherwise edge users would pile onto
    interior cells and bias the load upward.  The window misses with
    probability NOISE_WINDOW_MISS, because a mean is compared against its
    closed form.
    """
    if policy.memory != 1:
        raise ValueError("the tagged-load check is defined for M = 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    positive = policy.probs[policy.probs > BUDGET_TOL]
    if positive.size == 0:
        raise ValueError("the policy caches no content, so no helper can serve a request")
    user_radius = window_radius(float(positive.min()), params.helper_density, NOISE_WINDOW_MISS)
    layout = build_block_layout(policy)

    total, measured = 0.0, 0
    for chunk_index, n in _chunk_grid(trials, _INTERF_CHUNK):
        rng = _substream(seed, chunk_index)
        chunk = _sample_chunk(rng, n, library, params, layout, 2.0 * user_radius, user_radius)
        _, serving, _ = _typical_links(
            chunk.helper_counts, chunk.helper_dist, chunk.caching, chunk.desired,
            chunk.interf, params, nearest=True,
        )
        served = serving >= 0
        total += float(_serving_loads(chunk, serving, library, params)[served].sum())
        measured += int(served.sum())
    if measured == 0:
        raise ValueError("no trial produced a serving helper; enlarge the window or trials")
    return total / measured
