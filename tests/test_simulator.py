import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from load_oracle import (
    empirical_mean_load,
    exact_serving_loads,
    strongest_channel_loads,
    typical_links_loop,
)
from cachegeo import simulator
from cachegeo.analytics import (
    InterferenceConstants,
    mean_load_m1,
    nakagami_lower_bound,
    rayleigh_lower_bound,
    success_noise,
    xi1_cdf,
)
from cachegeo.model import CachingPolicy, ContentLibrary, NetworkParams, zipf_popularity
from cachegeo.optimizer import optimize_noise
from cachegeo.placement import build_block_layout
from cachegeo.simulator import (
    LOAD_MODES,
    MCEstimate,
    _Chunk,
    _Requests,
    _cartesian,
    _disc_points,
    _link_terms,
    _shared_rate,
    _sample_chunk,
    _serving_loads,
    _typical_links,
    _window_r2,
    nakagami_gain,
    sample_xi_min,
    simulate_interference_limited,
    simulate_noise_limited,
)


def make_params(lam=0.05, lam_u=0.002, alpha=3.0, m_d=1.0, m_i=1.0, snr=100.0):
    return NetworkParams(lam, lam_u, 1.0, 1.0 / snr, alpha, m_d, m_i)


def make_library(count, gamma=1.0, rates=None):
    rates = np.ones(count) if rates is None else np.asarray(rates, float)
    return ContentLibrary(count, zipf_popularity(count, gamma), rates)


def sample_networks(n, lam, lam_u, radius, seed):
    """One chunk of n interference-engine networks on discs of one radius."""
    lib = make_library(3)
    layout = build_block_layout(CachingPolicy(np.array([0.5, 0.3, 0.2]), 1))
    rng = np.random.default_rng(seed)
    params = make_params(lam=lam, lam_u=lam_u)
    return _sample_chunk(rng, n, _Requests(lib.popularity), params, layout, radius)


class TestSamplePpp:
    """The helper and user processes of _sample_chunk: Poisson counts and
    positions uniform on the window disc."""

    def test_null_process(self):
        chunk = sample_networks(50, 0.02, 0.0, 10.0, seed=0)
        assert chunk.user_counts.sum() == 0
        assert chunk.user_polar.shape == (2, 0) and chunk.requested.shape == (0,)

    def test_mean_count(self):
        chunk = sample_networks(10_000, 0.05, 0.01, 20.0, seed=1)
        for counts, lam in ((chunk.helper_counts, 0.05), (chunk.user_counts, 0.01)):
            expected = lam * math.pi * 400.0
            assert np.mean(counts) == pytest.approx(expected, abs=3 * math.sqrt(expected / 10_000))

    def test_counts_are_poisson(self):
        counts = sample_networks(10_000, 0.02, 0.0, 10.0, seed=2).helper_counts
        mean = 0.02 * math.pi * 100.0  # ~6.28
        kmax = int(counts.max())
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        pmf = stats.poisson.pmf(np.arange(kmax + 1), mean)
        # lump the tail so expected counts stay above ~5
        keep = pmf * counts.size >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(pmf[keep], pmf[~keep].sum()) * counts.size
        _, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.01

    def test_disc_points_are_uniform(self):
        # uniform on a disc of radius R: r^2 / R^2 ~ U(0, 1), angle ~ U(-pi, pi)
        x, y = _cartesian(*_disc_points(7.0, 20_000, np.random.default_rng(3)))
        assert stats.kstest((x * x + y * y) / 49.0, "uniform").pvalue > 0.01
        assert stats.kstest(np.arctan2(y, x), "uniform", args=(-math.pi, 2 * math.pi)).pvalue > 0.01


class TestNakagamiGain:
    def test_rayleigh_draws_the_bits_of_gamma_one(self):
        # m = 1 takes the exponential draw; seeded estimates must not move
        fast, reference = np.random.default_rng(8), np.random.default_rng(8)
        assert nakagami_gain(1.0, fast) == reference.gamma(1.0, 1.0)
        assert np.array_equal(nakagami_gain(1.0, fast, 10**5), reference.gamma(1.0, 1.0, 10**5))
        assert fast.random() == reference.random()

    def test_rayleigh_moments(self):
        rng = np.random.default_rng(3)
        g = nakagami_gain(1.0, rng, 10**6)
        assert g.mean() == pytest.approx(1.0, abs=0.01)
        assert g.var() == pytest.approx(1.0, abs=0.02)

    def test_shape_three_variance(self):
        rng = np.random.default_rng(4)
        g = nakagami_gain(3.0, rng, 10**6)
        assert g.var() == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_large_shape_concentrates(self):
        rng = np.random.default_rng(5)
        g = nakagami_gain(1000.0, rng, 10**5)
        assert g.std() < 0.05
        assert g.mean() == pytest.approx(1.0, abs=0.005)

    def test_rejects_small_shape(self):
        with pytest.raises(ValueError):
            nakagami_gain(0.4, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 3.0])
    def test_drawing_into_a_buffer_keeps_the_bits(self, m):
        # the noise kernel draws its gains into a reused buffer
        fast, reference = np.random.default_rng(9), np.random.default_rng(9)
        buffer = np.empty(10**4)
        gain = nakagami_gain(m, fast, out=buffer)
        if m == 1:
            expected = reference.standard_exponential(10**4)
        else:
            expected = reference.gamma(m, 1.0 / m, 10**4)
        assert gain is buffer
        assert np.array_equal(gain, expected)
        assert fast.random() == reference.random()


def hand_links(dist, caching, desired, interf, nearest=False, counts=None, alpha=3.0):
    """_typical_links on hand-made helpers (one trial unless counts is given);
    the chunk fields it does not read are None."""
    dist = np.asarray(dist, float)
    counts = np.array([dist.size] if counts is None else counts)
    chunk = _Chunk(
        helper_counts=counts, helper_trial=np.repeat(np.arange(counts.size), counts),
        helper_xy=None, helper_dist=dist, caches=None, content=None,
        caching=np.asarray(caching, bool), desired=np.asarray(desired, float),
        interf=np.asarray(interf, float), user_counts=None, user_polar=None, requested=None,
    )
    return _typical_links(chunk, _link_terms(chunk, make_params(alpha=alpha)), nearest)


class TestSmallestReciprocal:
    def test_single_helper(self):
        xi, serving, _ = hand_links([2.0], [True], [0.5], [1.0])
        assert xi[0] == pytest.approx(16.0)
        assert serving[0] == 0

    def test_tie_breaks_to_lower_index(self):
        xi, serving, _ = hand_links([1.0, 2.0], [True, True], [1.0, 8.0], [1.0, 1.0])
        assert xi[0] == pytest.approx(1.0)
        assert serving[0] == 0

    def test_absent_content_returns_none(self):
        xi, serving, _ = hand_links([1.0], [False], [1.0], [1.0])
        assert serving[0] == -1
        assert xi[0] == np.inf


class TestXiMinDistribution:
    def test_tiny_probability_gives_empty_windows(self):
        # cachers at p = 1e-300 are a network of density 1e-300 lambda, whose
        # window's R^2 is near the float ceiling, so every sample overflows
        # to +inf, without a warning
        xi = sample_xi_min([make_params(lam=0.05 * 1e-300)], trials=5000, seed=5105)
        assert xi.shape == (1, 5000)
        assert np.all(xi == np.inf)

    @pytest.mark.parametrize("n", [1, simulator._NOISE_CHUNK, simulator._NOISE_CHUNK + 1])
    def test_returns_one_sample_per_trial(self, n):
        points = [make_params(lam=0.025), make_params(lam=0.05, m_d=2.0)]
        assert sample_xi_min(points, trials=n, seed=3).shape == (2, n)

    def test_a_chunk_does_not_depend_on_the_chunks_after_it(self):
        # chunk k draws from SeedSequence(entropy=seed, spawn_key=(k,)) alone
        chunk = simulator._NOISE_CHUNK
        one = sample_xi_min([make_params(lam=0.025)], trials=chunk, seed=3)
        two = sample_xi_min([make_params(lam=0.025)], trials=chunk + 1, seed=3)
        assert np.array_equal(two[:, :chunk], one)

    # fadings 0.5 and 1 each listed twice, at both densities; the kernel draws
    # each chunk's counts and radii once, and each fading's gains once
    BATCH = [(0.05, 0.5), (0.2, 1.0), (0.05, 2.5), (0.2, 3.0), (0.2, 0.5), (0.05, 1.0)]

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 2 * 4096 + 1])
    def test_batched_rows_equal_one_point_calls(self, trials, seed):
        points = [make_params(lam=0.3 * lam, alpha=2.5, m_d=m_d) for lam, m_d in self.BATCH]
        batched = sample_xi_min(points, trials, seed)
        assert batched.shape == (len(points), trials)
        for row, point in zip(batched, points):
            assert np.array_equal(row, sample_xi_min([point], trials, seed)[0])

    def test_batched_empty_trials_are_inf_in_every_row(self, monkeypatch):
        # about one trial in three holds no helper, where reduceat reads the
        # next trial's first quotient unless the kernel writes +inf
        monkeypatch.setattr(simulator, "_NOISE_WINDOW_COUNT", 1.0)
        points = [make_params(lam=lam, m_d=m_d) for lam, m_d in self.BATCH]
        batched = sample_xi_min(points, 5000, 11)
        assert 0.3 < np.mean(batched[0] == np.inf) < 0.4
        for row, point in zip(batched, points):
            assert np.array_equal(row, sample_xi_min([point], 5000, 11)[0])

    def test_batched_points_must_share_pathloss_exp(self, monkeypatch):
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        points = [make_params(alpha=3.0), make_params(alpha=4.0, m_d=2.0)]
        with pytest.raises(ValueError, match=r"share one pathloss_exp, got \[3.0, 4.0\]"):
            sample_xi_min(points, 10, 1)

    def test_empty_sequence_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        with pytest.raises(ValueError, match=r"share one pathloss_exp, got \[\]"):
            sample_xi_min([], 10, 1)

    def test_one_network_outside_a_sequence_is_refused(self, monkeypatch):
        # the one call form takes a sequence; a bare network has no 1-D form
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        with pytest.raises(TypeError, match="not iterable"):
            sample_xi_min(make_params(), 10, 1)

    # at alpha = 400 the window's R^alpha overflowed and every sample was
    # non-finite; p < 1 draws the cachers as the network of density p lambda
    @pytest.mark.parametrize("lam,m_d,alpha,p", [
        (0.05, 1.0, 2.5, 1.0), (0.2, 1.0, 2.5, 1.0), (0.05, 1.0, 400.0, 1.0), (0.2, 2.0, 3.0, 0.3),
    ], ids=["0.05-1.0-2.5", "0.2-1.0-2.5", "0.05-1.0-400.0", "thinned-0.3"])
    def test_cdf_matches_closed_form(self, lam, m_d, alpha, p):
        params = make_params(lam=lam, alpha=alpha, m_d=m_d)
        cachers = make_params(lam=p * lam, alpha=alpha, m_d=m_d)
        xi = np.sort(sample_xi_min([cachers], trials=30_000, seed=10)[0])
        finite = xi[np.isfinite(xi)]
        grid = np.quantile(finite, np.linspace(0.02, 0.98, 40))
        empirical = np.searchsorted(xi, grid, side="right") / xi.size
        analytic = xi1_cdf(grid, p, params)
        assert np.max(np.abs(empirical - analytic)) < 0.015


class TestRequests:
    """The request sampler must take Generator.choice(F, n, p=popularity)'s
    indices and leave the generator where choice leaves it."""

    @pytest.mark.parametrize("count", [1, 2, 20, 10**4, 10**6])
    @pytest.mark.parametrize("gamma", [0.0, 0.8, 1.5])
    def test_matches_choice_bit_for_bit(self, count, gamma):
        popularity = zipf_popularity(count, gamma)
        requests = simulator._Requests(popularity)
        for seed in range(5):
            fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = requests(fast, 5000)
            expected = reference.choice(count, 5000, p=popularity)
            assert drawn.dtype == expected.dtype
            assert np.array_equal(drawn, expected)
            assert fast.random() == reference.random()

    def test_a_uniform_on_a_cdf_value_takes_the_next_content(self):
        # continuous draws almost never tie, so pin choice's tie rule:
        # content i owns [cdf[i-1], cdf[i])
        class Fixed:
            def random(self, n):
                return u

        popularity = zipf_popularity(20, 0.8)
        cdf = np.cumsum(popularity)
        cdf /= cdf[-1]
        u = np.concatenate([[0.0], cdf[:-1], [np.nextafter(1.0, 0.0)]])
        drawn = simulator._Requests(popularity)(Fixed(), u.size)
        assert np.array_equal(drawn, np.concatenate([[0], np.arange(1, 20), [19]]))

    # F = 10^6 at gamma = 3: the cdf plateaus at 1.0 in its tail, so the last
    # buckets hold many cdf entries and the lookup bisects in several steps
    @pytest.mark.parametrize("count,gamma", [(1, 0.8), (2, 0.0), (2, 0.8), (20, 0.8),
                                             (10**4, 0.8), (10**4, 1.5), (10**6, 3.0)])
    def test_bucket_edges_match_searchsorted(self, count, gamma):
        class Fixed:
            def random(self, n):
                return u

        popularity = zipf_popularity(count, gamma)
        cdf = np.cumsum(popularity)
        cdf /= cdf[-1]
        buckets = 1 << min(16, count.bit_length() + 2)
        edges = np.arange(buckets + 1) / buckets
        u = np.concatenate([
            edges, np.nextafter(edges, 0.0),
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]  # the range of Generator.random
        requests = simulator._Requests(popularity)
        assert np.array_equal(requests(Fixed(), u.size), cdf.searchsorted(u, "right"))
        assert requests._start.size == buckets + 1 <= 2**16 + 1
        if count == 10**6:
            assert np.diff(cdf.searchsorted(edges, "right")).max() > 2**10

    def test_each_engine_call_builds_one_table(self, monkeypatch):
        built = []

        class Counted(simulator._Requests):
            def __init__(self, popularity):
                built.append(popularity.size)
                super().__init__(popularity)

        monkeypatch.setattr(simulator, "_Requests", Counted)
        lib, params, policy = fig4_setting()
        simulate_noise_limited(lib, params, policy, 2 * simulator._NOISE_CHUNK + 1, 1)
        assert built == [2]
        simulator._simulate_interference_pass(
            lib, params, policy, 3 * simulator._INTERF_CHUNK, 1, LOAD_MODES, lib.rates[None]
        )
        assert built == [2, 2]


class TestSimulateNoiseLimited:
    def test_empty_policy_never_succeeds(self):
        lib = make_library(3)
        params = make_params()
        policy = CachingPolicy(np.zeros(3), 1)
        est = simulate_noise_limited(lib, params, policy, trials=500, seed=0)
        assert est.estimate == 0.0
        assert est.stderr == 0.0

    def test_scalar_closed_form_point(self):
        # choose the rate so that kappa * T = 1: success -> 1 - 1/e
        params = make_params(lam=0.05, alpha=3.0, m_d=1.0)
        kappa = math.pi * 0.05 * math.gamma(2.0 / 3.0 + 1.0)
        ratio = (1.0 / kappa) ** (1.5)
        rho = math.log2(1.0 + params.snr / ratio)
        lib = ContentLibrary(2, np.array([0.5, 0.5]), np.array([rho, rho]))
        policy = CachingPolicy(np.array([1.0, 1.0]), 2)
        # M = F here is fine for the simulator: every helper caches both
        est = simulate_noise_limited(lib, params, policy, trials=40_000, seed=11)
        target = 1.0 - math.exp(-1.0)
        assert abs(est.estimate - target) <= 3.5 * est.stderr

    # from alpha = 250 the windows' R^alpha overflowed, which wrote 0 +- 0
    # after an invalid-value warning
    @pytest.mark.parametrize("alpha", [3.0, 250.0, 400.0, 1e300])
    def test_agrees_with_analytics_on_random_policy(self, alpha):
        lib = make_library(5, rates=np.linspace(0.3, 1.0, 5))
        params = make_params(alpha=alpha)
        rng = np.random.default_rng(7)
        p = rng.random(5)
        p *= min(1.0, 2.0 / p.sum())
        policy = CachingPolicy(p, 2)
        est = simulate_noise_limited(lib, params, policy, trials=60_000, seed=12)
        assert abs(est.estimate - success_noise(lib, params, policy)) <= 3.5 * est.stderr

    def test_bit_for_bit_determinism(self):
        lib = make_library(4)
        params = make_params()
        policy = CachingPolicy(np.array([0.6, 0.5, 0.3, 0.1]), 2)
        a = simulate_noise_limited(lib, params, policy, trials=5000, seed=42)
        b = simulate_noise_limited(lib, params, policy, trials=5000, seed=42)
        assert a == b

    def test_tiny_probability_fails_like_an_uncached_content(self):
        # p = 1e-300 puts the window's R^2 near the float ceiling, where
        # R^2 u / g^delta may overflow; the draws do not depend on p, so it
        # must match the uncached content bit for bit
        lib = make_library(3)
        params = make_params()
        tiny = CachingPolicy(np.array([0.6, 1e-300, 0.3]), 1)
        uncached = CachingPolicy(np.array([0.6, 0.0, 0.3]), 1)
        a = simulate_noise_limited(lib, params, tiny, trials=20_000, seed=5104)
        b = simulate_noise_limited(lib, params, uncached, trials=20_000, seed=5104)
        assert a == b

    def test_over_budget_policy_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        policy = CachingPolicy(np.array([0.75, 0.75]), 1)
        with pytest.raises(ValueError, match=r"^infeasible policy: sum\(p\)=1.5 exceeds the "
                                             r"memory budget M=1$"):
            simulate_noise_limited(make_library(2), make_params(), policy, trials=10, seed=1)

    @pytest.mark.parametrize(
        "rates, noise_power, message",
        [
            # an infinite 2^rate made every threshold 0, so every trial failed silently
            ([1.0, 2000.0], 0.01, r"max\(rate\) = 2000 overflows"),
            # an infinite threshold made every trial succeed
            ([1.0, 1.0], 0.0, r"need noise_power > 0"),
            ([1e-10, 1.0], 1e-300, r"snr / \(2\^rate - 1\) overflows"),
        ],
        ids=["rate", "noiseless", "threshold"],
    )
    def test_overflowing_rate_names_the_rate(self, monkeypatch, rates, noise_power, message):
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        params = NetworkParams(0.05, 0.002, 1.0, noise_power, 3.0)
        policy = CachingPolicy(np.array([0.5, 0.5]), 1)
        with pytest.raises(ValueError, match=message):
            simulate_noise_limited(make_library(2, rates=rates), params, policy, trials=10, seed=1)

    def test_a_larger_call_leaves_no_state_behind(self):
        # each call owns its draw buffers: an earlier, larger call with more
        # helpers per chunk must not change a later call's result
        lib = make_library(4)
        small, large = make_params(), make_params(lam=0.2, alpha=4.0, m_d=3.0)
        policy = CachingPolicy(np.array([0.6, 0.5, 0.3, 0.1]), 2)
        first = simulate_noise_limited(lib, small, policy, trials=3000, seed=4)
        xi = sample_xi_min([small], trials=3000, seed=4)
        simulate_noise_limited(lib, large, policy, trials=3 * simulator._NOISE_CHUNK, seed=5)
        sample_xi_min([large], trials=3 * simulator._NOISE_CHUNK, seed=5)
        sample_xi_min([large, make_params(lam=0.2, alpha=4.0)],
                      trials=3 * simulator._NOISE_CHUNK, seed=5)
        assert simulate_noise_limited(lib, small, policy, trials=3000, seed=4) == first
        assert np.array_equal(sample_xi_min([small], trials=3000, seed=4), xi)

    def test_chunk_draws_do_not_grow_with_the_library(self, monkeypatch):
        calls = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self._rng, name)

        substream = simulator._substream
        monkeypatch.setattr(simulator, "_substream", lambda *a: Counting(substream(*a)))
        params = make_params()
        for count in (20, 2000):
            calls.clear()
            lib = make_library(count, gamma=0.8)
            policy = CachingPolicy(np.full(count, 5.0 / count), 5)
            simulate_noise_limited(lib, params, policy, trials=simulator._NOISE_CHUNK, seed=1)
            assert calls == ["random", "poisson", "random", "standard_exponential"]


class TestLargeLibraryNoiseLimited:
    """F = 10 000 under Zipf 0.8 with M = 100, about 2 000 distinct requests per chunk."""

    @pytest.fixture(scope="class")
    def setting(self):
        lib = make_library(10_000, gamma=0.8)
        params = make_params()
        return lib, params, optimize_noise(lib, params, 100).policy

    def test_agrees_with_analytics(self, setting):
        lib, params, policy = setting
        est = simulate_noise_limited(lib, params, policy, trials=50_000, seed=5101)
        assert abs(est.estimate - success_noise(lib, params, policy)) <= 3.5 * est.stderr

    def test_uncached_popular_contents_agree_with_analytics(self, setting):
        lib, params, policy = setting
        probs = policy.probs.copy()
        probs[:10] = 0.0  # the ten most popular contents are never cached
        sparse = CachingPolicy(probs, policy.memory)
        est = simulate_noise_limited(lib, params, sparse, trials=50_000, seed=5103)
        assert abs(est.estimate - success_noise(lib, params, sparse)) <= 3.5 * est.stderr


class TestDeliveryRate:
    # a helper shared by N users gives each the load-1 rate over N, as the engine divides it
    def test_zero_interference_gives_infinite_rate(self):
        rate = _shared_rate(np.array([2.0]), np.array([0.0])) / 3.0
        assert rate[0] == np.inf

    def test_finite_case(self):
        # SIR = 1/(2*0.5) = 1 -> log2(2) = 1, load 2 -> 0.5
        rate = _shared_rate(np.array([2.0]), np.array([0.5])) / 2.0
        assert rate[0] == pytest.approx(0.5)


class TestTypicalLink:
    # helpers at distances 1, 2, 3; the first two cache the request
    dist, caching = [1.0, 2.0, 3.0], [True, True, False]
    desired, interf = [1.0, 8.0, 1.0], [2.0, 3.0, 4.0]

    def test_instantaneous_selection_and_interference(self):
        xi, serving, J = hand_links(self.dist, self.caching, self.desired, self.interf)
        # xi candidates: 1/1=1 and 8/8=1 -> tie, lowest index
        assert serving[0] == 0
        assert xi[0] == pytest.approx(1.0)
        # interferers: helper 1 through its revealed gain, helper 2 via interf gain
        expected = 1.0 / (8.0 / 8.0) + 4.0 / 27.0
        assert J[0] == pytest.approx(expected)

    def test_long_term_selection(self):
        xi, serving, J = hand_links(
            self.dist, self.caching, self.desired, self.interf, nearest=True
        )
        assert serving[0] == 0  # nearest caching helper
        assert xi[0] == pytest.approx(1.0 / 1.0)
        expected = 3.0 / 8.0 + 4.0 / 27.0
        assert J[0] == pytest.approx(expected)

    def test_no_caching_helper(self):
        _, serving, _ = hand_links([1.0], [False], [1.0], [1.0])
        assert serving[0] == -1

    def test_lone_helper_has_no_interference_and_always_succeeds(self):
        xi, serving, J = hand_links([5.0], [True], [2.0], [1.0])  # helper at (3, 4)
        assert serving[0] == 0
        assert xi[0] == pytest.approx(125.0 / 2.0)
        assert J[0] == 0.0
        assert _shared_rate(xi, J)[0] / 5.0 == np.inf  # succeeds for any rate and load

    def test_trials_are_separate_segments(self):
        # trial 0: the hand network above; trial 1: empty; trial 2: nobody caches;
        # trial 3: the lone helper; serving indices are flat indices
        xi, serving, J = hand_links(
            self.dist + [1.0, 5.0], self.caching + [False, True],
            self.desired + [1.0, 2.0], self.interf + [1.0, 1.0], counts=[3, 0, 1, 1],
        )
        assert serving.tolist() == [0, -1, -1, 4]
        assert xi[[0, 3]] == pytest.approx([1.0, 62.5])
        assert J == pytest.approx([1.0 + 4.0 / 27.0, 0.0, 1.0, 0.0])


def fig4_setting(p1=0.5):
    lib = make_library(2, gamma=1.0, rates=[0.001, 0.001])
    params = make_params(lam=1e-5, lam_u=2e-5, alpha=3.0, m_d=1.0, m_i=1.0)
    policy = CachingPolicy(np.array([p1, 1.0 - p1]), 1)
    return lib, params, policy


TRIALS_ENTRY_POINTS = {
    "sample_xi_min": lambda trials, seed=1: sample_xi_min([make_params()], trials, seed),
    "simulate_noise_limited": lambda trials, seed=1: simulate_noise_limited(
        *fig4_setting(), trials, seed),
    "simulate_interference_limited": lambda trials, seed=1: simulate_interference_limited(
        *fig4_setting(), trials, seed),
    "_simulate_interference_pass": lambda trials, seed=1: simulator._simulate_interference_pass(
        *fig4_setting(), trials, seed, LOAD_MODES, fig4_setting()[0].rates[None]),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("entry", sorted(TRIALS_ENTRY_POINTS))
def test_trials_below_one_refused(entry, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        TRIALS_ENTRY_POINTS[entry](trials)



@pytest.mark.parametrize("trials,seed,name", [
    (True, 1, "trials"), (np.True_, 1, "trials"), (10.5, 1, "trials"), (10.0, 1, "trials"),
    (np.float64(10), 1, "trials"), ("10", 1, "trials"), (10, -1, "seed"), (10, 1.5, "seed"),
    (10, True, "seed"), (10, np.int64(-3), "seed"),
])
@pytest.mark.parametrize("entry", sorted(TRIALS_ENTRY_POINTS))
def test_bad_trials_or_seed_refused_before_any_draw(monkeypatch, entry, trials, seed, name):
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(simulator, "_substream", no_draw)
    with pytest.raises(ValueError, match=f"^{name} must be >= [01] and an integer, got "):
        TRIALS_ENTRY_POINTS[entry](trials, seed)


@pytest.mark.parametrize("entry", sorted(TRIALS_ENTRY_POINTS))
def test_numpy_integer_trials_and_seed_accepted(entry):
    plain = TRIALS_ENTRY_POINTS[entry](70, 3)
    numpy = TRIALS_ENTRY_POINTS[entry](np.int32(70), np.uint64(3))
    if entry == "sample_xi_min":
        assert np.array_equal(numpy, plain)
    else:
        assert numpy == plain


class TestSimulateInterferenceLimited:
    def test_unknown_mode_rejected(self):
        lib, params, policy = fig4_setting()
        with pytest.raises(ValueError):
            simulate_interference_limited(lib, params, policy, 10, 0, load_mode="typo")

    def test_mean_load_modes_require_single_slot(self):
        lib = make_library(3, rates=[0.1, 0.1, 0.1])
        params = make_params(lam=1e-5, lam_u=2e-5)
        policy = CachingPolicy(np.array([0.9, 0.7, 0.4]), 2)
        with pytest.raises(ValueError):
            simulate_interference_limited(lib, params, policy, 10, 0, load_mode="mean-approx")

    def test_empty_policy_fails_all_trials(self):
        lib, params, _ = fig4_setting()
        policy = CachingPolicy(np.zeros(2), 1)
        est = simulate_interference_limited(lib, params, policy, 50, 0)
        assert est.estimate == 0.0

    def test_determinism(self):
        lib, params, policy = fig4_setting()
        a = simulate_interference_limited(lib, params, policy, 300, seed=3)
        b = simulate_interference_limited(lib, params, policy, 300, seed=3)
        assert a == b

    def test_mode_ordering_smoke(self):
        lib, params, policy = fig4_setting(0.5)
        trials = 1200
        inst = simulate_interference_limited(lib, params, policy, trials, 21, "instantaneous")
        mean = simulate_interference_limited(lib, params, policy, trials, 22, "mean-approx")
        long = simulate_interference_limited(lib, params, policy, trials, 23, "long-term-assoc")
        spread = 3.0 * math.sqrt(inst.stderr**2 + mean.stderr**2)
        assert abs(inst.estimate - mean.estimate) <= spread + 0.02
        assert mean.estimate >= long.estimate - 3.0 * math.sqrt(
            mean.stderr**2 + long.stderr**2
        )

    def test_negligible_rate_succeeds_exactly_when_the_window_holds_a_cacher(self, monkeypatch):
        # at a negligible target rate a trial succeeds iff some in-window helper
        # caches the request, whatever the load model: P = sum f_i (1 - e^(-p_i lambda pi R^2))
        monkeypatch.setattr(simulator, "INTERF_WINDOW_MISS", 0.5)
        _, params, policy = fig4_setting(0.6)
        lib = make_library(2, gamma=1.0, rates=[1e-12, 1e-12])
        estimates = [
            simulate_interference_limited(lib, params, policy, 4000, seed=41, load_mode=mode)
            for mode in LOAD_MODES
        ]
        assert len({e.successes for e in estimates}) == 1
        assert abs(estimates[0].estimate - window_presence(lib, params, policy)) <= (
            3.0 * estimates[0].stderr
        )

    def test_multi_slot_cache_lookup_matches_window_presence(self, monkeypatch):
        monkeypatch.setattr(simulator, "INTERF_WINDOW_MISS", 0.5)
        lib = make_library(3, gamma=1.0, rates=[1e-12] * 3)
        params = make_params(lam=1e-5, lam_u=2e-5)
        policy = CachingPolicy(np.array([0.9, 0.7, 0.4]), 2)
        est = simulate_interference_limited(lib, params, policy, 4000, seed=42)
        assert abs(est.estimate - window_presence(lib, params, policy)) <= 3.0 * est.stderr

    def test_crowded_chunk_is_refused_before_any_draw(self, monkeypatch):
        # p = 1e-4 sizes a window whose 64-trial chunk holds 4.6e6 points on average
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        policy = CachingPolicy(np.array([0.5, 1e-4]), 1)
        message = r"would hold 4\.6e\+06 helpers and users .* ceiling of 4e\+06"
        with pytest.raises(ValueError, match=message):
            simulate_interference_limited(make_library(2), make_params(), policy, 10, 0)

    def test_transmit_power_cancels_from_every_load_mode(self):
        # the engine works in SIR: scaling both powers leaves every count unchanged
        lib, _, policy = fig4_setting(0.6)
        estimates = [
            simulator._simulate_interference_pass(
                lib, NetworkParams(1e-5, 2e-5, power, power / 100.0, 3.0), policy, 640, 13,
                LOAD_MODES, np.array([[0.5, 0.5], [2.0, 2.0]]),
            )
            for power in (1e-3, 1.0, 1e3)
        ]
        assert estimates[0] == estimates[1] == estimates[2]
        assert 0 < estimates[1]["instantaneous"][0].successes < 640


def window_presence(library, params, policy, miss_prob=0.5):
    """Probability that the window holds a helper caching the request."""
    r2 = _window_r2(policy.probs.min(), params.helper_density, miss_prob)
    mean = policy.probs * params.helper_density * math.pi * r2
    return float(np.sum(library.popularity * (1.0 - np.exp(-mean))))


class TestPlacementDominanceUnderInterference:
    def test_optimized_placement_beats_most_popular_caching(self):
        from cachegeo.analytics import InterferenceConstants
        from cachegeo.optimizer import baseline_policy, optimize_interference

        lib = make_library(5, gamma=1.0, rates=np.full(5, 0.001))
        params = make_params(lam=1e-5, lam_u=2e-5)
        consts = InterferenceConstants.from_library(lib, params.pathloss_exp, c=2.0)
        proposed = optimize_interference(lib, consts, 1).policy
        mpc = baseline_policy("mpc", 5, 1)
        trials = 2500
        est_prop = simulate_interference_limited(lib, params, proposed, trials, seed=31)
        est_mpc = simulate_interference_limited(lib, params, mpc, trials, seed=31)
        spread = 3.0 * math.hypot(est_prop.stderr, est_mpc.stderr)
        assert est_prop.estimate >= est_mpc.estimate - spread


class TestRealizationAndLoad:
    lib = make_library(3, rates=[0.5, 0.5, 0.5])
    params = make_params(lam=0.02, lam_u=0.01)
    policy = CachingPolicy(np.array([0.8, 0.7, 0.5]), 2)

    def chunk(self, seed, n=64, radius=15.0):
        layout = build_block_layout(self.policy)
        rng = np.random.default_rng(seed)
        return _sample_chunk(rng, n, _Requests(self.lib.popularity), self.params, layout, radius)

    def test_realization_counts_and_caches(self):
        chunks = [self.chunk(seed) for seed in range(5)]
        for c in chunks:
            n_helpers, n_users = c.helper_counts.sum(), c.user_counts.sum()
            assert c.caches.shape == (n_helpers, 2)
            assert np.all((c.caches >= -1) & (c.caches < 3))
            # no content twice in a row
            twice = (c.caches[:, 0] == c.caches[:, 1]) & (c.caches[:, 0] >= 0)
            assert not np.any(twice)
            assert np.all(c.desired > 0) and np.all(c.interf > 0)
            assert c.requested.shape == (n_users,) and c.user_polar.shape == (2, n_users)
            assert np.all(c.helper_dist <= 15.0)
            trial = np.repeat(np.arange(64), c.helper_counts)
            assert np.array_equal(
                c.caching, [c.content[t] in row for t, row in zip(trial, c.caches.tolist())]
            )
        counts = np.concatenate([c.helper_counts for c in chunks])
        expected = 0.02 * math.pi * 225.0
        assert np.mean(counts) == pytest.approx(expected, rel=0.1)

    def test_chunk_memory_grows_with_slots_not_library(self):
        # F = 2000, M = 10: about 89k helpers per 64-trial chunk, so a dense
        # helpers x F cache would take 177 MB alone; M slots take 7 MB
        count, memory = 2000, 10
        lib = make_library(count)
        params = make_params(lam=1e-3, alpha=4.0)
        layout = build_block_layout(CachingPolicy(np.full(count, memory / count), memory))
        radius = math.sqrt(_window_r2(memory / count, params.helper_density, 1e-3))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            chunk = _sample_chunk(rng, 64, _Requests(lib.popularity), params, layout, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert chunk.caches.shape == (chunk.helper_counts.sum(), memory)

    def test_pair_slicing_does_not_change_strongest_channel_loads(self, monkeypatch):
        c = self.chunk(seed=17)
        _, serving, _ = _typical_links(c, _link_terms(c, self.params), False)
        whole = exact_serving_loads(c, serving, self.lib, self.params, np.random.default_rng(3))
        monkeypatch.setattr(simulator, "_PAIR_SLICE", 5)
        assert np.array_equal(
            exact_serving_loads(c, serving, self.lib, self.params, np.random.default_rng(3)), whole
        )
        assert whole.max() > 2

    def test_tagged_load_matches_closed_form(self):
        lib = make_library(2, rates=[0.001, 0.001])
        params = make_params(lam=1e-5, lam_u=2e-5)
        policy = CachingPolicy(np.array([0.6, 0.4]), 1)
        got = empirical_mean_load(lib, params, policy, trials=1500, seed=14)
        expected = sum(
            lib.popularity[i] * mean_load_m1(lib.popularity[i], policy.probs[i], 2e-5, 1e-5)
            for i in range(2)
        )
        assert got == pytest.approx(expected, rel=0.1)


    def test_tagged_load_rejects_a_policy_caching_nothing(self):
        lib = make_library(2, rates=[0.001, 0.001])
        params = make_params(lam=1e-5, lam_u=2e-5)
        policy = CachingPolicy(np.zeros(2), 1)
        with pytest.raises(ValueError, match="caches no content"):
            empirical_mean_load(lib, params, policy, trials=10, seed=1)


def eligible_users(chunk, serving):
    """The trial of every user, and whether its trial's serving helper caches its request."""
    trial = np.repeat(np.arange(serving.size), chunk.user_counts)
    target = serving[trial]
    return trial, (target >= 0) & (chunk.caches[target] == chunk.requested[:, None]).any(1)


def load_upper_bounds(chunk, serving):
    """1 + e per trial, for e users whose request the serving helper caches."""
    trial, eligible = eligible_users(chunk, serving)
    return 1.0 + np.bincount(trial[eligible], minlength=serving.size)


def eligible_pairs(chunk, serving):
    """The trial of each user whose request its trial's serving helper caches,
    in user order, and the number of that trial's helpers caching the request."""
    trial, eligible = eligible_users(chunk, serving)
    helper_trial = np.repeat(np.arange(serving.size), chunk.helper_counts)
    pairs = [int(((helper_trial == t) & (chunk.caches == content).any(1)).sum())
             for t, content in zip(trial[eligible], chunk.requested[eligible])]
    return trial[eligible], np.array(pairs, int)


class TestDecidedTrials:
    """The instantaneous load lies in [1, 1 + e] for e users whose request
    the serving helper caches, so _serving_loads pairs only the trials whose
    outcome those bounds leave open."""

    lib = make_library(4, rates=[0.3, 0.8, 1.5, 3.0])
    params = make_params(lam=0.02, lam_u=0.01)
    policies = {1: [0.4, 0.3, 0.2, 0.1], 3: [0.9, 0.8, 0.7, 0.6]}

    @pytest.mark.parametrize("pair_slice", [8192, 5])
    @pytest.mark.parametrize("memory", [1, 3])
    def test_bounded_loads_keep_outcomes_and_draws(self, monkeypatch, memory, pair_slice):
        monkeypatch.setattr(simulator, "_PAIR_SLICE", pair_slice)
        layout = build_block_layout(CachingPolicy(np.array(self.policies[memory]), memory))
        c = _sample_chunk(
            np.random.default_rng(29), 64, _Requests(self.lib.popularity), self.params, layout, 15.0
        )
        xi, serving, J = _typical_links(c, _link_terms(c, self.params), False)
        served = serving >= 0
        cap = np.zeros(serving.size)
        cap[served] = _shared_rate(xi[served], J[served])
        drawn, gain = [], simulator.nakagami_gain
        monkeypatch.setattr(
            simulator, "nakagami_gain", lambda m, rng, size: drawn.append(gain(m, rng, size)) or drawn[-1]
        )
        exact = exact_serving_loads(c, serving, self.lib, self.params, np.random.default_rng(3))
        exact_gains = np.concatenate(drawn)
        drawn.clear()
        bounded_rng = np.random.default_rng(3)
        need = self.lib.rates[c.content]
        bounded = _serving_loads(c, serving, self.lib, self.params, bounded_rng, cap, need[None])
        upper = load_upper_bounds(c, serving)
        undecided = (cap >= need) & (cap / upper < need)
        # the bounded call draws the exact call's gains up to the last pair of
        # the last user of an undecided trial, and nothing else
        trial, pairs = eligible_pairs(c, serving)
        drawn_to = int(pairs[: np.flatnonzero(undecided[trial])[-1] + 1].sum())
        assert np.concatenate(drawn).tobytes() == exact_gains[:drawn_to].tobytes()
        replay = np.random.default_rng(3)
        gain(self.params.fading_desired, replay, drawn_to)
        assert replay.random() == bounded_rng.random()
        assert np.array_equal(cap / bounded >= need, cap / exact >= need)
        assert np.array_equal(bounded[undecided], exact[undecided])
        assert np.array_equal(bounded[~undecided], upper[~undecided])
        # the chunk holds trials of every kind: open, and decided with a load that differs
        assert np.any(undecided & (exact > 1)) and np.any(~undecided & (exact < upper))

    def test_chunk_with_every_trial_decided_draws_nothing(self):
        layout = build_block_layout(CachingPolicy(np.array(self.policies[3]), 3))
        c = _sample_chunk(
            np.random.default_rng(29), 64, _Requests(self.lib.popularity), self.params, layout, 15.0
        )
        xi, serving, J = _typical_links(c, _link_terms(c, self.params), False)
        cap = np.zeros(serving.size)
        cap[serving >= 0] = _shared_rate(xi[serving >= 0], J[serving >= 0])
        rng = np.random.default_rng(3)
        # a vanishing target is met at any load, and a trial with no server fails at any load
        loads = _serving_loads(c, serving, self.lib, self.params, rng, cap, np.full((2, 64), 1e-12))
        assert rng.random() == np.random.default_rng(3).random()
        assert np.all(loads >= 1) and loads.max() > 2

    def test_approx_check_grid_matches_all_trial_loads(self, monkeypatch):
        def run_grid():
            return [
                simulate_interference_limited(*fig4_setting(p1), trials=600, seed=1).successes
                for p1 in np.arange(0.1, 0.91, 0.1)
            ]

        bounded = run_grid()
        monkeypatch.setattr(
            simulator, "_serving_loads",
            lambda chunk, serving, library, params, rng, cap, need: exact_serving_loads(
                chunk, serving, library, params, rng
            ),
        )
        assert bounded == run_grid()


class TestStrongestChannelOracle:
    """_serving_loads against strongest_channel_loads, a per-user loop that
    shares none of its code, on the gains the engine drew."""

    policies = {1: [0.3, 0.7], 2: [0.8, 0.7, 0.5], 3: [0.9, 0.6, 0.5, 0.5, 0.3, 0.2]}

    @pytest.mark.parametrize("m_d", [1.0, 2.5])
    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_loads_match_per_user_oracle(self, monkeypatch, memory, m_d):
        self.check(monkeypatch, memory, m_d, 3.5)

    @pytest.mark.parametrize("pair_slice", [5, 40])
    @pytest.mark.parametrize("m_d", [1.0, 2.5])
    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_small_draw_slices_match_per_user_oracle(self, monkeypatch, memory, m_d, pair_slice):
        # with slices this small, each call draws and evaluates its pairs in
        # many slices
        monkeypatch.setattr(simulator, "_PAIR_SLICE", pair_slice)
        self.check(monkeypatch, memory, m_d, 3.5)

    @pytest.mark.parametrize("memory", [1, 3])
    def test_each_draw_holds_one_slice_of_pairs(self, monkeypatch, memory):
        # each slice's pairs are evaluated on its own draw, so the working
        # set is one draw: at most _PAIR_SLICE gains, or one user's run
        monkeypatch.setattr(simulator, "_PAIR_SLICE", 5)
        probs = self.policies[memory]
        params = make_params(lam=0.02, lam_u=0.03, m_d=2.5)
        lib = make_library(len(probs))
        layout = build_block_layout(CachingPolicy(np.array(probs), memory))
        c = _sample_chunk(np.random.default_rng(0), 64, _Requests(lib.popularity), params, layout, 12.0)
        _, serving, _ = _typical_links(c, _link_terms(c, params), False)
        sizes, gain = [], simulator.nakagami_gain
        monkeypatch.setattr(
            simulator, "nakagami_gain", lambda m, rng, size: sizes.append(size) or gain(m, rng, size)
        )
        exact_serving_loads(c, serving, lib, params, np.random.default_rng(0))
        # every draw ends at a user's last pair, and the last draw at the last user's
        run_ends, draw_ends = np.cumsum(eligible_pairs(c, serving)[1]), np.cumsum(sizes)
        assert np.isin(draw_ends, run_ends).all() and draw_ends[-1] == run_ends[-1]
        users = np.diff(run_ends.searchsorted(draw_ends, "right"), prepend=0)
        sizes = np.array(sizes)
        assert np.all((sizes <= 5) | (users == 1))
        # the chunk holds runs longer than a slice and slices of several users
        assert np.any(sizes > 5) and np.any(users > 1)

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    @pytest.mark.parametrize("memory", [1, 3])
    def test_other_path_loss_exponents(self, monkeypatch, memory, alpha):
        self.check(monkeypatch, memory, 2.5, alpha)

    def test_ties_go_to_the_lowest_index(self, monkeypatch):
        # helpers at (1, 0) and (-1, 0) with unit gains; two users at the
        # origin tie, one at (0.5, 0) picks helper 0 and one at (-0.5, 0) helper 1
        lib, params = make_library(1), make_params(alpha=3.0)
        chunk = _Chunk(
            helper_counts=np.array([2]), helper_trial=np.array([0, 0]),
            helper_xy=np.array([[1.0, -1.0], [0.0, 0.0]]), helper_dist=np.ones(2),
            caches=np.array([[0], [0]]), content=np.array([0]), caching=np.ones(2, bool),
            desired=np.ones(2), interf=np.ones(2), user_counts=np.array([4]),
            user_polar=np.array([[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, math.pi]]),
            requested=np.zeros(4, int),
        )
        monkeypatch.setattr(simulator, "nakagami_gain", lambda m, rng, size: np.ones(size))
        for server, load in ((0, 4.0), (1, 2.0)):
            serving = np.array([server])
            loads = exact_serving_loads(chunk, serving, lib, params, None)
            assert loads.tolist() == [load]
            assert np.array_equal(loads, strongest_channel_loads(chunk, serving, params, np.ones(8)))

    def check(self, monkeypatch, memory, m_d, alpha):
        probs = self.policies[memory]
        params = make_params(lam=0.02, lam_u=0.03, alpha=alpha, m_d=m_d)
        lib = make_library(len(probs), rates=np.linspace(0.2, 1.2, len(probs)))
        layout = build_block_layout(CachingPolicy(np.array(probs), memory))
        gain, open_loads, decided = simulator.nakagami_gain, 0, 0
        for seed in range(5):
            c = _sample_chunk(
                np.random.default_rng(seed), 64, _Requests(lib.popularity), params, layout, 12.0
            )
            xi, serving, J = _typical_links(c, _link_terms(c, params), False)
            drawn = []

            def record(m, rng, size=None, out=None):
                drawn.append(gain(m, rng, size, out))
                return drawn[-1]

            with monkeypatch.context() as patch:
                patch.setattr(simulator, "nakagami_gain", record)
                exact = exact_serving_loads(c, serving, lib, params, np.random.default_rng(seed))
            oracle = strongest_channel_loads(c, serving, params, np.concatenate([[], *drawn]))
            assert np.array_equal(exact, oracle)
            # with real bounds: open trials get the exact load, decided ones its outcome
            cap = np.zeros(serving.size)
            served = serving >= 0
            cap[served] = _shared_rate(xi[served], J[served])
            need = np.array([lib.rates, 3.0 * lib.rates])[:, c.content]
            bounded = _serving_loads(c, serving, lib, params, np.random.default_rng(seed), cap, need)
            undecided = ((cap >= need) & (cap / load_upper_bounds(c, serving) < need)).any(0)
            assert np.array_equal(bounded[undecided], oracle[undecided])
            assert np.array_equal(cap / bounded >= need, cap / oracle >= need)
            open_loads += np.count_nonzero(undecided & (oracle > 1))
            decided += np.count_nonzero(~undecided & (bounded != oracle))
        # the setting pairs some trials and bounds others away from their exact load
        assert open_loads > 0 and decided > 0


class TestTypicalLinksOracle:
    """_typical_links against typical_links_loop, a per-trial, per-helper
    loop that shares none of its code, on sampled chunks."""

    @pytest.mark.parametrize("nearest", [False, True])
    @pytest.mark.parametrize("memory, alpha", [(1, 3.5), (3, 2.5), (3, 4.0)])
    def test_links_match_per_trial_loop(self, memory, alpha, nearest):
        probs = [0.9, 0.6, 0.5, 0.5, 0.3, 0.2][: 2 * memory]
        lib = make_library(len(probs))
        params = make_params(lam=0.01, alpha=alpha, m_d=2.5)
        layout = build_block_layout(CachingPolicy(np.array(probs) * memory / sum(probs), memory))
        unserved = 0
        for seed in range(3):
            c = _sample_chunk(
                np.random.default_rng(seed), 64, _Requests(lib.popularity), params, layout, 12.0
            )
            xi, serving, J = _typical_links(c, _link_terms(c, params), nearest)
            loop_xi, loop_serving, loop_J = typical_links_loop(c, alpha, nearest)
            assert np.array_equal(serving, loop_serving)
            assert np.allclose(xi, loop_xi, rtol=1e-12, atol=0)
            assert np.allclose(J, loop_J, rtol=1e-12, atol=0)
            unserved += np.count_nonzero(serving < 0)
        # some trials have no caching helper
        assert unserved > 0


class TestSharedPass:
    """One pass over several load modes and rate rows counts what separate
    simulate_interference_limited calls count, bit for bit."""

    params = make_params(lam=0.02, lam_u=0.01)
    popularity = zipf_popularity(4, 0.8)

    @pytest.mark.parametrize(
        "memory, probs",
        [(1, [0.4, 0.3, 0.2, 0.1]), (1, [0.6, 0.0, 0.3, 0.1]),
         (3, [0.9, 0.8, 0.7, 0.6]), (3, [1.0, 0.0, 1.0, 1.0])],
        ids=["M1", "M1-zero", "M3", "M3-zero"],
    )
    @settings(max_examples=12, deadline=None)
    @given(
        modes=st.lists(st.sampled_from(LOAD_MODES), min_size=1, max_size=3, unique=True),
        rates=st.integers(1, 5).flatmap(
            lambda k: st.lists(
                st.lists(st.floats(0.01, 3.0), min_size=4, max_size=4), min_size=k, max_size=k
            )
        ),
        trials=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_pass_equals_separate_calls(self, memory, probs, modes, rates, trials, seed):
        if memory != 1:  # the mean-load modes need M = 1
            modes = ["instantaneous"]
        policy = CachingPolicy(np.array(probs), memory)
        rates = np.array(rates)
        library = ContentLibrary(4, self.popularity, rates[0])
        shared = simulator._simulate_interference_pass(
            library, self.params, policy, trials, seed, modes, rates
        )
        assert sorted(shared) == sorted(modes)
        for mode in modes:
            assert shared[mode] == [
                simulate_interference_limited(
                    ContentLibrary(4, self.popularity, row), self.params, policy, trials, seed, mode
                )
                for row in rates
            ]

    @pytest.mark.parametrize("modes", [LOAD_MODES, ("mean-approx", "instantaneous"),
                                       ("long-term-assoc",), ("instantaneous",)],
                             ids=["all", "strongest", "nearest", "instantaneous"])
    def test_links_once_per_rule_and_mean_loads_once_per_call(self, monkeypatch, modes):
        # three chunks: each finds the links of every association rule a mode
        # reads once, and a call evaluates the mean loads as one array
        calls = []
        typical_links, mean_load = simulator._typical_links, simulator.mean_load_m1
        monkeypatch.setattr(simulator, "_typical_links", lambda chunk, terms, nearest: (
            calls.append(nearest) or typical_links(chunk, terms, nearest)))
        monkeypatch.setattr(simulator, "mean_load_m1", lambda *args: (
            calls.append("mean") or mean_load(*args)))
        policy = CachingPolicy(np.array([0.4, 0.3, 0.2, 0.1]), 1)
        library = ContentLibrary(4, self.popularity, np.ones(4))
        simulator._simulate_interference_pass(
            library, self.params, policy, 3 * simulator._INTERF_CHUNK, 1, modes, library.rates[None]
        )
        rules = {mode == "long-term-assoc" for mode in modes}
        mean_modes = set(modes) - {"instantaneous"}
        assert Counter(calls) == Counter({**dict.fromkeys(rules, 3), "mean": len(mean_modes) > 0})

    def test_rates_must_match_the_library(self):
        lib, params, policy = fig4_setting()
        with pytest.raises(ValueError, match=r"rates must be a \(k, 2\) matrix"):
            simulator._simulate_interference_pass(
                lib, params, policy, 10, 1, LOAD_MODES, np.ones((2, 3))
            )


class TestWindowRadius:
    """_window_r2, the squared window radius of both engines."""

    def test_formula(self):
        r2 = _window_r2(0.5, 0.05, 1e-3)
        assert math.exp(-0.5 * 0.05 * math.pi * r2) == pytest.approx(1e-3, rel=1e-9)

    def test_zero_probability_gives_infinite_window(self):
        # an uncached content's window never holds a cacher
        assert _window_r2(0.0, 0.05, 1e-3) == np.inf
        got = _window_r2(np.array([0.0, 0.5]), 0.05, 1e-3)
        assert np.array_equal(got, [np.inf, _window_r2(0.5, 0.05, 1e-3)])

    def test_overflow_gives_infinite_window(self):
        assert _window_r2(1e-300, 1e-300, 1e-3) == np.inf



class TestFloatRange:
    """Path losses outside the float range are refused, not counted: a
    helper density of 1e300 once wrote estimate 0 with stderr 0."""

    # at alpha = 1e300, R^alpha is normal only for R within 1e-297 of 1, so
    # the message names pathloss_exp besides the density scale
    @pytest.mark.parametrize("lam,alpha", [(1e300, 3.0), (1e-300, 3.0), (1e-5, 1e300)])
    def test_window_outside_the_normal_range_is_refused_before_any_draw(
        self, monkeypatch, lam, alpha
    ):
        lib, _, policy = fig4_setting()
        monkeypatch.setattr(simulator, "_substream", lambda *args: pytest.fail("drew"))
        params = make_params(lam=lam, lam_u=2 * lam, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="helper_density = .* outside the normal float "
                                                 ".* or lower pathloss_exp"):
                simulate_interference_limited(lib, params, policy, 10, 1)

    def test_density_scale_leaves_every_count_unchanged(self):
        lib, _, policy = fig4_setting()
        counts = {
            lam: [
                simulate_interference_limited(
                    lib, make_params(lam=lam, lam_u=2 * lam), policy, 200, 3, mode
                ).successes
                for mode in LOAD_MODES
            ]
            for lam in (0.05, 1e200)
        }
        assert counts[0.05] == counts[1e200]

    @pytest.mark.parametrize("dist", [1e-200, 1e200])
    def test_non_finite_link_term_raises(self, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite"):
                hand_links([1.0, dist], [True, True], [1.0, 1.0], [1.0, 1.0])

    def test_non_finite_selection_metric_raises(self, monkeypatch):
        lib = make_library(2, rates=[0.5, 0.5])
        params = make_params(lam=0.02, lam_u=0.03)
        layout = build_block_layout(CachingPolicy(np.array([0.6, 0.4]), 1))
        c = _sample_chunk(
            np.random.default_rng(4), 64, _Requests(lib.popularity), params, layout, 12.0
        )
        _, serving, _ = _typical_links(c, _link_terms(c, params), False)
        # a zero selection gain puts d^alpha / g at inf for every pair
        monkeypatch.setattr(simulator, "nakagami_gain", lambda m, rng, size: np.zeros(size))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite"):
                exact_serving_loads(c, serving, lib, params, np.random.default_rng(0))


def _rayleigh_bound(library, params, policy):
    consts = InterferenceConstants.from_library(library, params.pathloss_exp, 2.0)
    return rayleigh_lower_bound(library, consts, policy)


POLICY_ENTRY_POINTS = {
    "simulate_noise_limited": lambda lib, params, policy: simulate_noise_limited(
        lib, params, policy, 10, 1),
    "simulate_interference_limited": lambda lib, params, policy: simulate_interference_limited(
        lib, params, policy, 10, 1),
    "success_noise": success_noise,
    "rayleigh_lower_bound": _rayleigh_bound,
    "nakagami_lower_bound": lambda lib, params, policy: nakagami_lower_bound(
        lib, params, policy, 2.0),
}


class TestPolicyLength:
    """Every entry point that takes a policy refuses one whose length is
    not the library's (a longer one made the load keys of trials collide,
    a one-entry one broadcast)."""

    lib = make_library(2, rates=[0.5, 0.5])
    params = make_params(lam=1e-5, lam_u=2e-5)

    @pytest.mark.parametrize("probs", [[1.0], [0.4, 0.3, 0.3]], ids=["shorter", "longer"])
    @pytest.mark.parametrize("entry", sorted(POLICY_ENTRY_POINTS))
    def test_length_mismatch_names_both_lengths(self, monkeypatch, entry, probs):
        monkeypatch.setattr(simulator, "_substream", lambda *a: pytest.fail("drew before refusing"))
        policy = CachingPolicy(np.array(probs), 1)
        message = rf"the policy has {len(probs)} entries but the library has 2 contents"
        with pytest.raises(ValueError, match=message):
            POLICY_ENTRY_POINTS[entry](self.lib, self.params, policy)

    @pytest.mark.parametrize("entry", ["success_noise", "rayleigh_lower_bound"])
    def test_batches_are_checked_on_the_last_axis(self, entry):
        batch = np.full((2, 3), 0.3)  # two rows of three contents
        with pytest.raises(ValueError, match="the policy has 3 entries but the library has 2"):
            POLICY_ENTRY_POINTS[entry](self.lib, self.params, batch)
        assert POLICY_ENTRY_POINTS[entry](self.lib, self.params, batch.T).shape == (3,)

    def test_nakagami_bound_takes_one_policy(self):
        with pytest.raises(ValueError, match="one policy at a time"):
            POLICY_ENTRY_POINTS["nakagami_lower_bound"](self.lib, self.params, np.full((3, 2), 0.3))
