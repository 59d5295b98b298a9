"""Probabilistic cache placement: map a caching-probability vector to a
random set of at most M distinct contents per helper.

The cache of M unit-size slots is viewed as the interval [0, M) cut into
M unit blocks.  Contents fill it in index order, content i owning
[P_i, P_{i+1}) for the cumulative sums P of p, so an interval that
overflows a block spills into the next one.  A single uniform draw u then
selects, in slot m, the content whose interval contains u + m.  Since
p_i <= 1, the selected set never repeats a content and includes content i
with marginal probability exactly p_i.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import CachingPolicy, budget_violation

__all__ = ["BlockLayout", "build_block_layout", "cache_matrix"]


class BlockLayout(NamedTuple):
    """Content i owns [edges[i], edges[i + 1]) of [0, memory)."""

    edges: np.ndarray  # (F + 1,) cumulative sums of p, from 0
    memory: int


def build_block_layout(policy: CachingPolicy) -> BlockLayout:
    """Lay the contents end to end over M unit blocks, in index order.

    Only the mechanical constraints matter here (probabilities in [0, 1]
    and total mass within the budget); the fill rule is well defined even
    when the cache could hold the whole library.
    """
    violation = budget_violation(policy)
    if violation is not None:
        raise ValueError(f"infeasible policy: {violation}")
    return BlockLayout(np.concatenate(([0.0], np.cumsum(policy.probs))), policy.memory)


def cache_matrix(layout: BlockLayout, us: np.ndarray) -> np.ndarray:
    """(len(us), M) content index per slot for a batch of draws, -1 for an
    empty slot; slot m of row k holds the content whose interval contains
    us[k] + m."""
    us = np.asarray(us, dtype=float)
    if us.size and (us.min() < 0.0 or us.max() >= 1.0):
        raise ValueError("draws must lie in [0, 1)")
    count = layout.edges.size - 1
    slots = np.searchsorted(layout.edges, us[:, None] + np.arange(layout.memory), "right") - 1
    slots[slots == count] = -1
    return slots
