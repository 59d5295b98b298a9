"""Sequential-fill oracle for block-fill cache placement.

Builds the block layout by walking the contents in index order and filling
M unit blocks with p_i of each content, spilling into the next block on
overflow, then samples a cache by scanning every segment for the draw u.
`cachegeo.placement` reaches the same sets with one lookup in the
cumulative sums of p; this walk stays as the independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FILL_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    content: int
    block: int  # 1-based
    start: float
    end: float


def fill_segments(probs) -> tuple[Segment, ...]:
    """Fill unit blocks sequentially with p_i of each content, in index
    order; segments come out ordered by (block, start)."""
    segments: list[Segment] = []
    block = 1
    offset = 0.0
    for i, p in enumerate(np.asarray(probs, dtype=float)):
        remaining = float(p)
        while remaining > FILL_TOL:
            chunk = min(remaining, 1.0 - offset)
            segments.append(Segment(i, block, offset, offset + chunk))
            offset += chunk
            remaining -= chunk
            if offset >= 1.0 - FILL_TOL:
                block += 1
                offset = 0.0
    return tuple(segments)


def sample_cache(segments, u: float) -> set[int]:
    """Contents selected by position u in each block; empty slots select none."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    return {seg.content for seg in segments if seg.start <= u < seg.end}
