"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not tuned at runtime.
"""
import math
import time

import numpy as np
import pytest

from grid_oracle import brute_force_policy
from cachegeo.analytics import (
    InterferenceConstants,
    nakagami_lower_bound,
    rayleigh_lower_bound,
    success_noise,
    xi1_cdf,
)
from cachegeo.model import (
    CachingPolicy,
    ContentLibrary,
    NetworkParams,
    uniform_rates,
    zipf_popularity,
)
from cachegeo.optimizer import baseline_policy, optimize_interference, optimize_noise
from cachegeo.placement import build_block_layout, cache_matrix
from cachegeo.simulator import (
    sample_xi_min,
    simulate_interference_limited,
    simulate_noise_limited,
)


def report(criterion: str, passed: bool, detail: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion} [{status}] {detail} ({time.perf_counter() - started:.1f}s)")


def baseline_params(lam=0.05, m_d=1.0):
    # gamma=1, F=10, M=3, m_D=m_I=1, SNR=20 dB, alpha=3, lambda=0.05
    return NetworkParams(
        helper_density=lam,
        user_density=0.002,
        tx_power=1.0,
        noise_power=0.01,
        pathloss_exp=3.0,
        fading_desired=m_d,
        fading_interf=1.0,
    )


def baseline_library(count=10, gamma=1.0, rho_max=1.0, rate_seed=2024):
    return ContentLibrary(
        count, zipf_popularity(count, gamma), uniform_rates(rho_max, count, rate_seed)
    )


def constant_rate_library(count, gamma, rho):
    return ContentLibrary(count, zipf_popularity(count, gamma), np.full(count, rho))


def random_feasible_policy(rng, count, memory):
    p = rng.random(count)
    total = p.sum()
    if total > memory:
        p *= memory / total
    return CachingPolicy(p, memory)


def fig4_setting():
    library = constant_rate_library(2, 1.0, 0.001)
    params = NetworkParams(1e-5, 2e-5, 1.0, 0.0, 3.0, 1.0, 1.0)
    return library, params


def test_criterion_1_xi_min_cdf_agreement():
    started = time.perf_counter()
    trials = 100_000
    worst = 0.0
    for lam, m_d in ((0.05, 1.0), (0.05, 3.0), (0.2, 1.0)):
        params = NetworkParams(lam, 0.002, 1.0, 0.01, 2.5, m_d, 1.0)
        xi = np.sort(sample_xi_min([params], trials, seed=101)[0])
        finite = xi[np.isfinite(xi)]
        n = xi.size
        analytic = xi1_cdf(finite, 1.0, params)
        ranks = np.arange(1, finite.size + 1)
        dev = max(
            float(np.max(ranks / n - analytic)),
            float(np.max(analytic - (ranks - 1) / n)),
            1.0 - finite.size / n,
        )
        worst = max(worst, dev)
    passed = worst < 0.01
    report("1", passed, f"sup CDF deviation {worst:.5f} < 0.01 over 3 settings", started)
    assert passed


def test_criterion_2_noise_closed_form_vs_monte_carlo():
    started = time.perf_counter()
    library = baseline_library()
    params = baseline_params()
    rng = np.random.default_rng(77)
    worst_sigma = 0.0
    for k in range(20):
        policy = random_feasible_policy(rng, 10, 3)
        est = simulate_noise_limited(library, params, policy, trials=100_000, seed=500 + k)
        analytic = success_noise(library, params, policy)
        sigma = abs(est.estimate - analytic) / est.stderr if est.stderr > 0 else 0.0
        worst_sigma = max(worst_sigma, sigma)
    passed = worst_sigma <= 3.0
    report("2", passed, f"worst |analytic - MC| = {worst_sigma:.2f} sigma over 20 policies", started)
    assert passed


@pytest.mark.parametrize(
    "count,memory,grid_step",
    [(2, 1, 1e-3), (4, 2, 1e-2)],
    ids=["F2-M1-step1e-3", "F4-M2-step1e-2"],
)
def test_criterion_3_noise_optimizer_matches_brute_force(count, memory, grid_step):
    started = time.perf_counter()
    library = baseline_library(count=count, rate_seed=11)
    params = baseline_params()
    reported = optimize_noise(library, params, memory)
    oracle, oracle_value = brute_force_policy(
        lambda p: success_noise(library, params, p), count, memory, grid_step
    )
    coord_gap = float(np.max(np.abs(reported.policy.probs - oracle.probs)))
    value_gap = abs(reported.objective - oracle_value)
    passed = coord_gap <= grid_step + 1e-9 and value_gap <= 1e-5
    report(
        "3",
        passed,
        f"F={count} M={memory}: coordinate gap {coord_gap:.2e} <= {grid_step}, "
        f"objective gap {value_gap:.2e} <= 1e-5",
        started,
    )
    assert passed


def test_criterion_4_symmetry():
    started = time.perf_counter()
    library = constant_rate_library(8, 0.0, 0.5)
    params = baseline_params()
    noise = optimize_noise(library, params, 2).policy.probs
    consts = InterferenceConstants.from_library(library, params.pathloss_exp, c=4.0)
    interference = optimize_interference(library, consts, 2).policy.probs
    gap = max(float(np.max(np.abs(noise - 0.25))), float(np.max(np.abs(interference - 0.25))))
    passed = gap <= 1e-6
    report("4", passed, f"gamma=0 equal rates: max |p - M/F| = {gap:.2e} <= 1e-6", started)
    assert passed


def test_criterion_5_kkt_certificates():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_kkt = 0.0
    worst_budget = 0.0
    for case in range(100):
        count = int(rng.integers(3, 13))
        memory = int(rng.integers(1, count))
        gamma = float(rng.uniform(0.0, 3.0))
        rates = rng.uniform(0.05, 1.5, size=count)
        library = ContentLibrary(count, zipf_popularity(count, gamma), rates)
        if case % 2 == 0:
            params = NetworkParams(
                float(rng.uniform(0.01, 0.3)),
                0.002,
                1.0,
                float(rng.uniform(0.001, 0.1)),
                float(rng.uniform(2.2, 5.0)),
                float(rng.uniform(0.5, 4.0)),
                1.0,
            )
            rep = optimize_noise(library, params, memory)
        else:
            consts = InterferenceConstants.from_library(
                library, float(rng.uniform(2.2, 5.0)), float(rng.uniform(1.0, 50.0))
            )
            rep = optimize_interference(library, consts, memory)
        worst_kkt = max(worst_kkt, rep.kkt_residual)
        worst_budget = max(worst_budget, abs(float(rep.policy.probs.sum()) - memory))
    passed = worst_kkt <= 1e-6 and worst_budget <= 1e-9
    report(
        "5",
        passed,
        f"100 random solves: max KKT residual {worst_kkt:.2e} <= 1e-6, "
        f"max budget gap {worst_budget:.2e} <= 1e-9",
        started,
    )
    assert passed


def test_criterion_6_general_fading_bound_reduces_to_rayleigh():
    started = time.perf_counter()
    library = constant_rate_library(1, 0.0, 1.0)  # tau = 2^(c rho) - 1 = 1 at c = 1
    params = NetworkParams(1e-5, 2e-5, 1.0, 0.0, 4.0, 1.0, 1.0)
    consts = InterferenceConstants.from_library(library, 4.0, c=1.0)
    worst = 0.0
    for p in np.arange(0.1, 1.01, 0.1):
        closed = rayleigh_lower_bound(library, consts, np.array([p]))
        numeric = nakagami_lower_bound(library, params, np.array([p]), c=1.0)
        worst = max(worst, abs(numeric - closed) / closed)
    passed = worst <= 1e-3
    report("6", passed, f"max relative gap {worst:.2e} <= 1e-3 on p in 0.1..1.0", started)
    assert passed


def test_criterion_7_bound_chain_ordering():
    started = time.perf_counter()
    library, params = fig4_setting()
    consts40 = InterferenceConstants.from_library(library, params.pathloss_exp, c=40.0)
    trials = 10_000
    approx_gap = ordering_gap = bound_gap = -np.inf
    for k, p1 in enumerate(np.arange(0.1, 0.91, 0.1)):
        policy = CachingPolicy(np.array([p1, 1.0 - p1]), 1)
        # one seed per grid point: the three load modes then compare on
        # common random networks, isolating the load-model effect
        inst = simulate_interference_limited(
            library, params, policy, trials, seed=7000 + k, load_mode="instantaneous"
        )
        mean = simulate_interference_limited(
            library, params, policy, trials, seed=7000 + k, load_mode="mean-approx"
        )
        long = simulate_interference_limited(
            library, params, policy, trials, seed=7000 + k, load_mode="long-term-assoc"
        )
        bound = rayleigh_lower_bound(library, consts40, policy)
        approx_gap = max(
            approx_gap,
            abs(inst.estimate - mean.estimate) - 3.0 * math.hypot(inst.stderr, mean.stderr),
        )
        ordering_gap = max(
            ordering_gap,
            long.estimate - mean.estimate - 3.0 * math.hypot(long.stderr, mean.stderr),
        )
        bound_gap = max(bound_gap, bound - long.estimate - 3.0 * long.stderr)
    passed = approx_gap <= 0.0 and ordering_gap <= 0.0 and bound_gap <= 0.0
    report(
        "7",
        passed,
        "bound chain on p1 grid: "
        f"|est24-est29|-3sigma = {approx_gap:.4f}, est50-est29-3sigma = {ordering_gap:.4f}, "
        f"bound(c=40)-est50-3sigma = {bound_gap:.4f} (all <= 0)",
        started,
    )
    assert passed


def test_criterion_8_strategy_dominance():
    started = time.perf_counter()
    params = baseline_params()
    worst = np.inf
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        noise_lib = ContentLibrary(
            20, zipf_popularity(20, gamma), uniform_rates(1.0, 20, 2024)
        )
        rep = optimize_noise(noise_lib, params, 5)
        for kind in ("mpc", "uc"):
            other = success_noise(noise_lib, params, baseline_policy(kind, 20, 5))
            worst = min(worst, rep.objective - other)
        sir_lib = constant_rate_library(5, gamma, 0.001)
        consts = InterferenceConstants.from_library(sir_lib, 3.0, c=2.0)
        rep = optimize_interference(sir_lib, consts, 1)
        for kind in ("mpc", "uc"):
            other = rayleigh_lower_bound(sir_lib, consts, baseline_policy(kind, 5, 1).probs)
            worst = min(worst, rep.objective - other)
    passed = worst >= -1e-12
    report(
        "8",
        passed,
        f"proposed - max(MPC, UC) >= {worst:.3e} over 7 gammas, both objectives",
        started,
    )
    assert passed


def test_criterion_9_trend_properties():
    started = time.perf_counter()

    def noise_spread(lam=0.05, m_d=1.0, memory=3, rho=0.5, normalize=False):
        library = constant_rate_library(10, 1.0, rho)
        rep = optimize_noise(library, baseline_params(lam=lam, m_d=m_d), memory)
        spread = float(np.ptp(rep.policy.probs))
        return spread / (memory / 10.0) if normalize else spread

    trends = {
        "helper density up -> more uniform": [
            noise_spread(lam=lam) for lam in (0.02, 0.05, 0.2)
        ],
        "fading shape up -> more uniform": [
            noise_spread(m_d=m) for m in (1.0, 3.0, 8.0)
        ],
        "memory up -> more uniform (spread/scale)": [
            noise_spread(memory=m, normalize=True) for m in (1, 3, 9)
        ],
    }
    increasing = {
        "rate up -> more skewed": [noise_spread(rho=r) for r in (0.5, 1.0, 2.0)],
    }
    lam_u_spreads = []
    for lam_u in (2e-5, 5e-5, 1e-4):
        library = constant_rate_library(7, 1.0, 0.001)
        c = max(1.0, lam_u / 1e-5)
        consts = InterferenceConstants.from_library(library, 3.0, c)
        rep = optimize_interference(library, consts, 1)
        lam_u_spreads.append(float(np.ptp(rep.policy.probs)))
    increasing["user density up -> more skewed"] = lam_u_spreads

    failures = []
    for name, seq in trends.items():
        if not (seq[0] > seq[1] > seq[2]):
            failures.append(f"{name}: {np.round(seq, 4)}")
    for name, seq in increasing.items():
        if not (seq[0] < seq[1] < seq[2]):
            failures.append(f"{name}: {np.round(seq, 4)}")
    passed = not failures
    report("9", passed, "all 5 spread orderings hold" if passed else "; ".join(failures), started)
    assert passed


def test_criterion_10_placement_marginals_and_no_duplicates():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    draws = 100_000
    worst_sigma = 0.0
    duplicates = 0
    for case in range(10):
        memory = int(rng.integers(1, 4))
        count = int(rng.integers(memory + 1, 11))
        policy = random_feasible_policy(rng, count, memory)
        layout = build_block_layout(policy)
        us = np.random.default_rng(3100 + case).random(draws)
        slots = cache_matrix(layout, us)
        freq = np.bincount(slots[slots >= 0], minlength=count) / draws
        se = np.sqrt(policy.probs * (1.0 - policy.probs) / draws)
        for i in range(count):
            gap = abs(freq[i] - policy.probs[i])
            if se[i] > 0:
                worst_sigma = max(worst_sigma, gap / se[i])
            elif gap > 0:
                worst_sigma = np.inf
        # duplicate = one draw holding the same content in two slots
        ordered = np.sort(slots, axis=1)
        duplicates += int(np.sum((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)))
    passed = worst_sigma <= 3.0 and duplicates == 0
    report(
        "10",
        passed,
        f"worst marginal deviation {worst_sigma:.2f} sigma <= 3, duplicates {duplicates}",
        started,
    )
    assert passed
