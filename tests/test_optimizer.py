import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grid_oracle import brute_force_policy
from water_fill_oracle import full_vector_bisect, per_step_water_fill
from cachegeo import optimizer
from cachegeo.analytics import (
    InterferenceConstants,
    _kappa,
    _noise_thresholds,
    rayleigh_lower_bound,
    success_noise,
)
from cachegeo.model import ContentLibrary, NetworkParams, uniform_rates, zipf_popularity
from cachegeo.optimizer import baseline_policy, optimize_interference, optimize_noise, water_fill


def library_with(gamma, count, rates):
    return ContentLibrary(count, zipf_popularity(count, gamma), np.asarray(rates, float))


def params_with_kappa_T(target_kT, f_count=2, gamma=None, lam=0.05):
    """Build (library, params) with kappa * T_i == target_kT for every content."""
    params = NetworkParams(
        helper_density=lam,
        user_density=0.002,
        tx_power=1.0,
        noise_power=0.01,
        pathloss_exp=4.0,
        fading_desired=1.0,
        fading_interf=1.0,
    )
    kappa = math.pi * lam * math.sqrt(math.pi) / 2.0
    T = target_kT / kappa
    rho = math.log2(1.0 + params.snr / T ** (1.0 / params.delta))
    gamma = math.log2(3.0) if gamma is None else gamma
    lib = library_with(gamma, f_count, [rho] * f_count)
    return lib, params, kappa


def noise_candidate(log_omega, log_upper, kT):
    """The noise-limited water-filling: window kappa T, linear shape."""
    return water_fill(log_omega, log_upper, kT, lambda t: t, kT)


def interference_candidate(log_omega, f, A, B):
    """The interference-limited water-filling: u = f / B, window
    2 log1p((1 - A) / B), square-root shape."""
    width = 2.0 * math.log1p((1.0 - A) / B)

    def shape(t):
        return np.expm1(0.5 * t)

    return water_fill(log_omega, math.log(f) - math.log(B), width, shape, shape(width))


def assert_certified(report, memory, objective):
    """KKT certificate, budget, box and dominance over both baselines."""
    p = report.policy.probs
    assert report.kkt_residual <= 1e-6
    assert abs(float(p.sum()) - memory) <= 1e-9
    assert np.all((p >= 0.0) & (p <= 1.0))
    for kind in ("mpc", "uc"):
        assert report.objective >= objective(baseline_policy(kind, p.size, memory)) - 1e-12


class TestNoiseCandidate:
    def test_zero_at_upper_multiplier(self):
        log_upper, kT = math.log(0.6 * 1.3 * 2.0), 1.3 * 2.0
        assert noise_candidate(log_upper, log_upper, kT) == 0.0

    def test_one_at_lower_multiplier(self):
        f, kT = 0.6, 1.3 * 2.0
        lower = f * kT * math.exp(-kT)
        assert noise_candidate(math.log(lower), math.log(f * kT), kT) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_clamped_beyond_upper(self):
        assert noise_candidate(math.log(10.0), math.log(0.6 * 2.6), 2.6) == 0.0

    def test_one_reachable_when_lower_multiplier_underflows(self):
        # l = f kT exp(-kT) is 0.0 in floating point at kT = 800
        f, kT = 0.6, 800.0
        assert f * kT * math.exp(-kT) == 0.0
        log_upper = math.log(f * kT)
        assert noise_candidate(log_upper - kT, log_upper, kT) == 1.0
        assert noise_candidate(-math.inf, log_upper, kT) == 1.0
        assert noise_candidate(log_upper - kT / 2, log_upper, kT) == pytest.approx(0.5)


class TestNoiseMultiplierBounds:
    """The multiplier range (l, u) of a content: p = 1 at omega <= l, p = 0 at omega >= u."""

    def test_substitution(self):
        # f = 0.5, kappa = 1, T = 2: u = f kappa T = 1 and l = u exp(-kappa T)
        log_upper, kT = math.log(0.5 * 1.0 * 2.0), 2.0
        assert log_upper == pytest.approx(0.0)
        assert noise_candidate(0.0, log_upper, kT) == 0.0
        assert noise_candidate(-2.0, log_upper, kT) == pytest.approx(1.0, abs=1e-12)
        assert noise_candidate(-1.0, log_upper, kT) == pytest.approx(0.5, abs=1e-12)

    def test_ratio_tends_to_one_for_small_exponent(self):
        # log(l / u) = -kappa T: p falls from 1 to 0 over a log window of 1e-9
        f, kT = 0.5, 1e-9
        log_upper = math.log(f * kT)
        assert noise_candidate(log_upper - 2 * kT, log_upper, kT) == 1.0
        assert noise_candidate(log_upper - kT, log_upper, kT) == pytest.approx(1.0, abs=1e-5)
        assert noise_candidate(log_upper, log_upper, kT) == 0.0

    def test_lower_strictly_below_upper(self):
        f, kT = np.array([0.5, 0.3, 0.2]), 0.7 * np.array([1.0, 2.0, 0.5])
        log_upper = np.log(f * kT)
        np.testing.assert_allclose(noise_candidate(log_upper - kT, log_upper, kT), 1.0, atol=1e-12)
        assert np.all(noise_candidate(log_upper, log_upper, kT) == 0.0)
        interior = noise_candidate(log_upper - kT / 2, log_upper, kT)
        assert np.all((interior > 0.0) & (interior < 1.0))


class TestOptimizeNoise:
    def test_symmetry_gives_uniform_budget_split(self):
        lib, params, _ = params_with_kappa_T(2.0, f_count=4, gamma=0.0)
        report = optimize_noise(lib, params, memory=2)
        np.testing.assert_allclose(report.policy.probs, 0.5, atol=1e-6)

    def test_interior_two_content_solution(self):
        lib, params, _ = params_with_kappa_T(2.0)
        report = optimize_noise(lib, params, memory=1)
        expected_p1 = 0.5 + math.log(3.0) / 4.0
        assert report.policy.probs[0] == pytest.approx(expected_p1, abs=1e-8)
        assert report.policy.probs[1] == pytest.approx(1.0 - expected_p1, abs=1e-8)
        assert report.objective == pytest.approx(
            success_noise(lib, params, report.policy), rel=1e-12
        )

    def test_grid_oracle_agreement(self):
        lib, params, _ = params_with_kappa_T(2.0)
        report = optimize_noise(lib, params, memory=1)
        oracle, value = brute_force_policy(
            lambda p: success_noise(lib, params, p), 2, 1, grid_step=1e-3
        )
        assert np.max(np.abs(report.policy.probs - oracle.probs)) <= 1e-3 + 1e-9
        assert report.objective >= value - 1e-12

    def test_kkt_certificate(self):
        lib = library_with(1.0, 8, np.linspace(0.3, 1.2, 8))
        params = NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0)
        report = optimize_noise(lib, params, memory=3)
        assert report.kkt_residual <= 1e-6
        assert abs(report.policy.probs.sum() - 3.0) <= 1e-9
        assert np.all((report.mu <= 0) | (report.policy.probs >= 1.0 - 1e-9))

    def test_budget_multiplier_sweep_is_monotone(self):
        lib = library_with(1.0, 5, np.linspace(0.4, 1.0, 5))
        params = NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0)
        kT = _kappa(params) * _noise_thresholds(lib, params) ** params.delta
        log_upper = np.log(lib.popularity * kT)
        grid = np.linspace((log_upper - kT).min(), log_upper.max(), 400)
        sums = np.array([noise_candidate(x, log_upper, kT).sum() for x in grid])
        assert sums[0] == pytest.approx(5.0, abs=1e-9)
        assert sums[-1] == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.diff(sums) <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        log10_kT=st.lists(st.floats(-6.0, 3.0), min_size=2, max_size=12),
        gamma=st.floats(0.0, 2.5),
        share=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_property_certified_over_kappa_T(self, log10_kT, gamma, share):
        # rates giving kappa T_i = 10^log10_kT[i], from T = (snr / (2^rho - 1))^delta
        count = len(log10_kT)
        memory = 1 + int(share * (count - 1))
        params = NetworkParams(0.05, 0.002, 1.0, 0.01, 4.0)
        kappa = math.pi * 0.05 * math.sqrt(math.pi) / 2.0
        T = 10.0 ** np.asarray(log10_kT) / kappa
        rates = np.log1p(params.snr / T ** (1.0 / params.delta)) / math.log(2.0)
        lib = library_with(gamma, count, rates)
        report = optimize_noise(lib, params, memory)
        assert_certified(report, memory, lambda policy: success_noise(lib, params, policy))

    def test_rejects_memory_not_below_library(self):
        lib, params, _ = params_with_kappa_T(2.0)
        with pytest.raises(ValueError):
            optimize_noise(lib, params, memory=2)

    def test_rejects_fractional_memory(self):
        lib, params, _ = params_with_kappa_T(2.0)
        with pytest.raises(ValueError, match="memory must be an integer"):
            optimize_noise(lib, params, memory=1.5)

    def test_rejects_zero_noise_power(self):
        lib = library_with(1.0, 4, [0.5] * 4)
        params = NetworkParams(0.05, 0.002, 1.0, 0.0, 3.0)
        with pytest.raises(ValueError, match="noise_power"):
            optimize_noise(lib, params, memory=2)

    def test_dominates_baselines(self):
        params = NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0)
        for gamma in (0.0, 0.5, 1.0, 2.0, 3.0):
            lib = library_with(gamma, 10, np.linspace(0.2, 1.0, 10))
            report = optimize_noise(lib, params, memory=3)
            for kind in ("mpc", "uc"):
                other = baseline_policy(kind, 10, 3)
                assert report.objective >= success_noise(lib, params, other) - 1e-12


class TestInterferenceCandidate:
    A = math.pi / 4.0
    B = math.pi / 2.0

    def test_zero_at_upper_multiplier(self):
        f = 0.55
        assert interference_candidate(math.log(f) - math.log(self.B), f, self.A, self.B) == 0.0

    def test_one_at_lower_multiplier(self):
        f = 0.55
        lower = f * self.B / (1.0 - self.A + self.B) ** 2
        assert interference_candidate(math.log(lower), f, self.A, self.B) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_clamped_far_beyond_upper(self):
        assert interference_candidate(math.log(50.0), 0.55, self.A, self.B) == 0.0

    def test_matches_square_root_root(self):
        # p = (-B + sqrt(f B / omega)) / (1 - A) inside the window (l, u)
        f = 0.55
        lower, upper = f * self.B / (1.0 - self.A + self.B) ** 2, f / self.B
        omega = np.geomspace(lower, upper, 50)[1:-1]
        expected = (-self.B + np.sqrt(f * self.B / omega)) / (1.0 - self.A)
        got = np.array([interference_candidate(x, f, self.A, self.B) for x in np.log(omega)])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_degenerate_a_is_a_step_at_upper(self):
        # A = 1 leaves the linear term p / B: w = 0 and p jumps from 1 to 0 at u = f / B
        f = 0.55
        log_upper = math.log(f) - math.log(self.B)
        assert interference_candidate(log_upper - 1e-12, f, 1.0, self.B) == 1.0
        assert interference_candidate(-math.inf, f, 1.0, self.B) == 1.0
        assert interference_candidate(log_upper + 1e-12, f, 1.0, self.B) == 0.0
        assert interference_candidate(math.log(50.0), f, 1.0, self.B) == 0.0


def interference_library(f1, rates=(1.0, 1.0)):
    pop = np.array([f1, 1.0 - f1])
    return ContentLibrary(2, pop, np.asarray(rates, float))


class TestOptimizeInterference:
    def consts(self):
        # alpha=4, tau=1 gives A = pi/4, B = pi/2 for both contents
        return InterferenceConstants.from_rates(np.array([1.0, 1.0]), alpha=4.0, c=1.0)

    def test_interior_solution_matches_formula(self):
        lib = interference_library(0.55)
        report = optimize_interference(lib, self.consts(), memory=1)
        A, B = math.pi / 4.0, math.pi / 2.0
        s1, s2 = math.sqrt(0.55), math.sqrt(0.45)
        expected_p1 = (-B + s1 * (1.0 - A + 2.0 * B) / (s1 + s2)) / (1.0 - A)
        assert report.policy.probs[0] == pytest.approx(expected_p1, abs=1e-8)
        assert expected_p1 == pytest.approx(0.892, abs=5e-4)

    def test_grid_oracle_agreement(self):
        lib = interference_library(0.55)
        consts = self.consts()
        report = optimize_interference(lib, consts, memory=1)
        oracle, value = brute_force_policy(
            lambda p: rayleigh_lower_bound(lib, consts, p), 2, 1, grid_step=1e-3
        )
        assert np.max(np.abs(report.policy.probs - oracle.probs)) <= 1e-3 + 1e-9
        assert report.objective >= value - 1e-12

    def test_cap_activates_for_skewed_popularity(self):
        lib = interference_library(0.75)
        report = optimize_interference(lib, self.consts(), memory=1)
        np.testing.assert_allclose(report.policy.probs, [1.0, 0.0], atol=1e-8)
        assert report.mu[0] > 0
        # any certifying omega lies between u_2 and l_1
        A, B = math.pi / 4.0, math.pi / 2.0
        assert 0.25 / B - 1e-9 <= report.omega <= 0.75 * B / (1.0 - A + B) ** 2 + 1e-9

    def test_symmetry(self):
        lib = ContentLibrary(4, zipf_popularity(4, 0.0), np.full(4, 0.5))
        consts = InterferenceConstants.from_rates(np.full(4, 0.5), alpha=3.0, c=2.0)
        report = optimize_interference(lib, consts, memory=2)
        np.testing.assert_allclose(report.policy.probs, 0.5, atol=1e-6)

    def test_kkt_certificate(self):
        lib = ContentLibrary(6, zipf_popularity(6, 1.2), np.linspace(0.2, 0.9, 6))
        consts = InterferenceConstants.from_library(lib, alpha=3.0, c=3.0)
        report = optimize_interference(lib, consts, memory=2)
        assert report.kkt_residual <= 1e-6
        assert abs(report.policy.probs.sum() - 2.0) <= 1e-9

    def test_degenerate_linear_objective_splits_budget(self):
        consts = InterferenceConstants(
            tau=np.array([5.0, 5.0]),
            A=np.array([1.0, 1.0]),
            B=np.array([1.5, 1.5]),
            c=1.0,
        )
        lib = interference_library(0.5)
        report = optimize_interference(lib, consts, memory=1)
        # linear tie: the budget goes to the first marginal content
        np.testing.assert_allclose(report.policy.probs, [1.0, 0.0], atol=1e-8)
        assert abs(report.policy.probs.sum() - 1.0) <= 1e-9
        assert report.kkt_residual <= 1e-6


    def test_huge_b_does_not_overflow(self):
        # alpha = 2.05, c rho = 1024: B ~ 2e302, so the linear-space window
        # bound f B / (1 - A + B)^2 overflowed
        count = 1000
        lib = ContentLibrary(count, zipf_popularity(count, 0.8), np.full(count, 8.0))
        consts = InterferenceConstants.from_library(lib, alpha=2.05, c=128.0)
        assert consts.B.max() > 1e302
        report = optimize_interference(lib, consts, memory=10)
        assert abs(report.policy.probs.sum() - 10.0) <= 1e-9
        assert report.kkt_residual <= 1e-6
        # equal B: the windows order as f, so the ten most popular are cached
        np.testing.assert_array_equal(report.policy.probs, np.r_[np.ones(10), np.zeros(count - 10)])

    @settings(max_examples=60, deadline=None)
    @given(
        rates=st.lists(st.floats(0.01, 1.6), min_size=2, max_size=12),
        gamma=st.floats(0.0, 2.5),
        alpha=st.floats(2.05, 6.0),
        c=st.floats(1.0, 60.0),
        share=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(rates=[1.6] * 6 + [1.2] * 4, gamma=0.8, alpha=4.0, c=60.0, share=0.25)
    # two equal windows 1e-6 wide: one float step of log omega moves sum p by 7e-10
    @example(rates=[1.125, 1.125], gamma=0.0, alpha=3.0625, c=9.80078125, share=0.0)
    def test_property_certified_up_to_saturated_windows(self, rates, gamma, alpha, c, share):
        # c rho up to 96: A -> 1, A == 1 exactly, and windows below the spacing of log u
        count = len(rates)
        memory = 1 + int(share * (count - 1))
        lib = library_with(gamma, count, rates)
        consts = InterferenceConstants.from_library(lib, alpha, c)
        report = optimize_interference(lib, consts, memory)
        assert_certified(report, memory, lambda policy: rayleigh_lower_bound(lib, consts, policy))


def same_solve(solve, name, oracle):
    """Run `solve` as it is and with `oracle` patched in for `optimizer.<name>`;
    the two must agree in policy bytes, omega and iterations."""
    fast, calls = solve(), []

    def patched(*args):
        calls.append(args)
        return oracle(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, name, patched)
        slow = solve()
    assert calls, f"the solve no longer calls optimizer.{name}"
    assert fast.policy.probs.tobytes() == slow.policy.probs.tobytes()
    assert fast.omega == slow.omega
    assert fast.iterations == slow.iterations


def same_solve_as_per_step(solve):
    """`solve` against the candidate that recomputes g(w) at every step."""
    same_solve(solve, "water_fill", per_step_water_fill)


def same_solve_as_full_vector(solve):
    """`solve` against the bisection that evaluates every entry at every step."""
    same_solve(solve, "_bisect_budget", full_vector_bisect)


def interference_solve(count, seed, steps, narrow):
    """A seeded interference solve over 0/1 steps (a share `steps` of the
    contents has A = 1, so w = 0) and windows narrower than the float
    spacing of log u (a share `narrow`)."""
    rng = np.random.default_rng(seed)
    lib = library_with(rng.uniform(0.0, 2.0), count, np.ones(count))
    A = rng.uniform(0.01, 1.0, count)
    B = A * (1.0 + 10.0 ** rng.uniform(-3.0, 4.0, count))
    kind = rng.uniform(size=count)
    step, thin = kind < steps, (kind >= steps) & (kind < steps + narrow)
    A[step], B[step] = 1.0, 1.0 + 10.0 ** rng.uniform(-3.0, 4.0, step.sum())
    # 1 - A a few ulps and B >= 1e3: w = 2 log1p((1 - A) / B) < 1e-18
    A[thin] = 1.0 - rng.integers(1, 5, thin.sum()) * 2.0**-53
    B[thin] = 10.0 ** rng.uniform(3.0, 6.0, thin.sum())
    consts = InterferenceConstants(tau=np.ones(count), A=A, B=B, c=1.0)
    memory = int(rng.integers(1, count))
    return lambda: optimize_interference(lib, consts, memory)


def noise_solve(count, seed, narrow):
    """A seeded noise-limited solve with a share `narrow` of windows below
    the float spacing of log u."""
    rng = np.random.default_rng(seed)
    # rates of 200-300 bits/s/Hz give kappa T below 6e-20 over these
    # params, so |log u| > 44 and kappa T is below the spacing of log u
    rates = np.where(rng.uniform(size=count) < narrow, rng.uniform(200.0, 300.0, count),
                     10.0 ** rng.uniform(-3.0, 1.0, count))
    lib = library_with(rng.uniform(0.0, 2.0), count, rates)
    params = NetworkParams(10.0 ** rng.uniform(-4.0, -1.0), 0.002, 1.0,
                           10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(2.1, 6.0),
                           rng.uniform(0.5, 4.0))
    memory = int(rng.integers(1, count))
    return lambda: optimize_noise(lib, params, memory)


class TestSolveOnceMatchesPerStep:
    """g(w) computed once per solve gives the bytes of the per-step
    candidate, over 0/1 steps (w = 0), windows narrower than the float
    spacing of log u, and libraries up to F = 10^4."""

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(3, 10_000), seed=st.integers(0, 2**32 - 1),
           steps=st.floats(0.0, 1.0), narrow=st.floats(0.0, 1.0))
    @example(count=10_000, seed=1, steps=0.2, narrow=0.2)
    @example(count=3, seed=2, steps=1.0, narrow=0.0)
    @example(count=50, seed=3, steps=0.0, narrow=1.0)
    def test_interference(self, count, seed, steps, narrow):
        same_solve_as_per_step(interference_solve(count, seed, steps, narrow))

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(3, 10_000), seed=st.integers(0, 2**32 - 1),
           narrow=st.floats(0.0, 1.0))
    @example(count=10_000, seed=1, narrow=0.2)
    @example(count=50, seed=3, narrow=1.0)
    def test_noise(self, count, seed, narrow):
        same_solve_as_per_step(noise_solve(count, seed, narrow))


class TestLiveSetMatchesFullVector:
    """Evaluating only the entries still moving in the bracket gives the
    bytes, omega and iteration count of the bisection that evaluates every
    entry at every step, over the same libraries as TestSolveOnceMatchesPerStep."""

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(3, 10_000), seed=st.integers(0, 2**32 - 1),
           steps=st.floats(0.0, 1.0), narrow=st.floats(0.0, 1.0))
    @example(count=10_000, seed=1, steps=0.2, narrow=0.2)
    @example(count=10_000, seed=4, steps=0.0, narrow=0.0)
    @example(count=3, seed=2, steps=1.0, narrow=0.0)
    @example(count=50, seed=3, steps=0.0, narrow=1.0)
    def test_interference(self, count, seed, steps, narrow):
        same_solve_as_full_vector(interference_solve(count, seed, steps, narrow))

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(3, 10_000), seed=st.integers(0, 2**32 - 1),
           narrow=st.floats(0.0, 1.0))
    @example(count=10_000, seed=1, narrow=0.2)
    @example(count=10_000, seed=4, narrow=0.0)
    @example(count=50, seed=3, narrow=1.0)
    def test_noise(self, count, seed, narrow):
        same_solve_as_full_vector(noise_solve(count, seed, narrow))

    @pytest.mark.parametrize("objective", ["noise", "interference"])
    def test_design_sweep_library(self, objective):
        # F = 10^4, Zipf 0.8 and rates uniform on (0, 0.5] at c = 2: the
        # live set falls to a few hundred to two thousand entries
        lib = ContentLibrary(10_000, zipf_popularity(10_000, 0.8), uniform_rates(0.5, 10_000, 7))
        if objective == "noise":
            params = NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0)
            same_solve_as_full_vector(lambda: optimize_noise(lib, params, 100))
        else:
            consts = InterferenceConstants.from_library(lib, 3.0, 2.0)
            same_solve_as_full_vector(lambda: optimize_interference(lib, consts, 100))


class TestBruteForce:
    def test_constant_objective_returns_origin(self):
        policy, value = brute_force_policy(lambda p: np.ones(len(p)), 3, 1, grid_step=0.5)
        np.testing.assert_array_equal(policy.probs, np.zeros(3))
        assert value == 1.0

    def test_respects_budget(self):
        policy, _ = brute_force_policy(lambda p: np.sum(p, axis=-1), 3, 1, grid_step=0.25)
        assert policy.probs.sum() <= 1.0 + 1e-12

    def test_search_space_guard(self):
        with pytest.raises(ValueError):
            brute_force_policy(lambda p: 0.0, 6, 2, grid_step=0.01)


class TestBaselines:
    def test_mpc(self):
        policy = baseline_policy("mpc", 5, 2)
        np.testing.assert_array_equal(policy.probs, [1, 1, 0, 0, 0])
        assert policy.probs.sum() == 2

    def test_uc(self):
        policy = baseline_policy("uc", 5, 2)
        np.testing.assert_allclose(policy.probs, 0.4)
        assert policy.probs.sum() == pytest.approx(2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            baseline_policy("lru", 5, 2)
