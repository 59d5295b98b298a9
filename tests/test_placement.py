import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachegeo.model import CachingPolicy
from cachegeo.placement import build_block_layout, cache_matrix
from placement_oracle import fill_segments, sample_cache


def layout_for(probs, memory):
    return build_block_layout(CachingPolicy(np.array(probs, dtype=float), memory))


def slots_at(layout, u):
    """The cache selected by one draw u: its occupied slots as a set."""
    row = cache_matrix(layout, np.array([u]))[0]
    return set(row[row >= 0].tolist())


class TestBuildBlockLayout:
    def test_unit_probabilities_fill_one_block_each(self):
        layout = layout_for([1.0, 1.0, 1.0], 3)
        assert layout.edges.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert cache_matrix(layout, np.array([0.4]))[0].tolist() == [0, 1, 2]

    def test_hand_traced_overflow(self):
        # content 1 owns [0.8, 1.5): the end of block 1 and the start of block 2
        layout = layout_for([0.8, 0.7, 0.5], 2)
        np.testing.assert_allclose(layout.edges, [0.0, 0.8, 1.5, 2.0], rtol=0, atol=1e-15)
        slots = cache_matrix(layout, np.array([0.3, 0.6, 0.9]))
        assert slots.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_single_block_partition(self):
        layout = layout_for([0.5, 0.5], 1)
        assert layout.edges.tolist() == [0.0, 0.5, 1.0]
        assert cache_matrix(layout, np.array([0.2, 0.7])).tolist() == [[0], [1]]

    def test_rejects_infeasible_policy(self):
        with pytest.raises(ValueError):
            layout_for([0.9, 0.9], 1)

    @given(
        probs=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=10),
        memory=st.integers(1, 9),
    )
    @settings(max_examples=120, deadline=None)
    def test_layout_invariants(self, probs, memory):
        p = np.array(probs)
        if memory >= p.size or p.sum() > memory:
            return
        layout = layout_for(p, memory)
        # per-content mass equals p_i, laid end to end from 0
        assert layout.edges[0] == 0.0 and layout.memory == memory
        assert np.all(np.diff(layout.edges) >= 0.0)
        np.testing.assert_allclose(np.diff(layout.edges), p, atol=1e-12)
        # a content spans at most two adjacent blocks
        first, last = np.floor(layout.edges[:-1]), np.ceil(layout.edges[1:])
        assert np.all(last - first <= 2)


class TestSampleCache:
    """Single-draw lookups: one row of cache_matrix."""

    def test_hand_trace_u_06(self):
        layout = layout_for([0.8, 0.7, 0.5], 2)
        assert slots_at(layout, 0.6) == {0, 2}

    def test_full_blocks_select_everything(self):
        layout = layout_for([1.0, 1.0, 1.0], 3)
        for u in (0.0, 0.3, 0.999):
            assert slots_at(layout, u) == {0, 1, 2}

    def test_half_open_boundary(self):
        layout = layout_for([0.5, 0.5], 1)
        assert slots_at(layout, 0.49) == {0}
        assert slots_at(layout, 0.5) == {1}

    def test_rejects_u_outside_unit_interval(self):
        layout = layout_for([0.5, 0.5], 1)
        with pytest.raises(ValueError):
            cache_matrix(layout, np.array([1.0]))
        with pytest.raises(ValueError):
            cache_matrix(layout, np.array([-0.1]))

    def test_empty_tail_block_contributes_nothing(self):
        # c0 owns [0, 0.5) and c1 [0.5, 0.75) of block 1; block 2 is empty
        layout = layout_for([0.5, 0.25], 2)
        assert cache_matrix(layout, np.array([0.9]))[0].tolist() == [-1, -1]
        assert cache_matrix(layout, np.array([0.6]))[0].tolist() == [1, -1]

    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
        memory=st.integers(1, 7),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_duplicates_and_size_cap(self, probs, memory, u):
        p = np.array(probs)
        if memory >= p.size or p.sum() > memory:
            return
        row = cache_matrix(layout_for(p, memory), np.array([u]))[0]
        assert row.shape == (memory,)
        assert np.all((row >= -1) & (row < p.size))
        cached = row[row >= 0]
        assert np.unique(cached).size == cached.size  # one slot per selected content
        assert np.all(p[cached] > 0)


class TestCacheMatrix:
    def test_matches_scalar_sampler(self):
        rng = np.random.default_rng(5)
        probs = [0.8, 0.7, 0.5]
        layout, segments = layout_for(probs, 2), fill_segments(probs)
        us = rng.random(500)
        for row, u in zip(cache_matrix(layout, us), us):
            assert set(row[row >= 0].tolist()) == sample_cache(segments, float(u))

    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10),
        memory=st.integers(1, 9),
        us=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_sequential_fill_oracle(self, probs, memory, us):
        p = np.array(probs)
        if memory >= p.size or p.sum() > memory:
            return
        layout, segments = layout_for(p, memory), fill_segments(p)
        # within 1e-9 of an interval edge (or a block boundary), float
        # rounding of the cumulative sums decides the content
        edges = np.concatenate((layout.edges % 1.0, [0.0, 1.0]))
        us = np.array([u for u in us if np.abs(u - edges).min() > 1e-9])
        for row, u in zip(cache_matrix(layout, us), us):
            assert set(row[row >= 0].tolist()) == sample_cache(segments, float(u))

    def test_full_budget_gives_exactly_m_contents(self):
        layout = layout_for([0.9, 0.6, 0.5], 2)  # sums to 2 = M
        rng = np.random.default_rng(11)
        slots = cache_matrix(layout, rng.random(2000))
        assert np.all((slots >= 0).sum(axis=1) == 2)

    def test_marginal_inclusion_frequency(self):
        p = np.array([0.55, 0.4, 0.3, 0.2, 0.05])
        layout = layout_for(p, 2)
        n = 200_000
        rng = np.random.default_rng(17)
        slots = cache_matrix(layout, rng.random(n))
        freq = np.bincount(slots[slots >= 0], minlength=p.size) / n
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3.5 * se)
