"""Probabilistic content placement in stochastic wireless caching helper
networks: closed-form success-probability analytics, caching-probability
optimizers, and a Poisson Monte Carlo simulator that validates them.
"""
from .analytics import (
    InterferenceConstants,
    NoiseConstants,
    c_alpha,
    c_tau_alpha,
    intensity_xi,
    laplace_interference,
    mean_load_m1,
    nakagami_lower_bound,
    rayleigh_lower_bound,
    success_noise,
    xi1_cdf,
)
from .errors import NumericalError
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkParams,
    uniform_rates,
    validate_policy,
    zipf_popularity,
)
from .optimizer import (
    SolveReport,
    baseline_policy,
    brute_force_policy,
    optimize_interference,
    optimize_noise,
)
from .simulator import (
    MCEstimate,
    nakagami_gain,
    sample_ppp,
    simulate_interference_limited,
    simulate_noise_limited,
)

__all__ = [
    "CachingPolicy",
    "ContentLibrary",
    "NetworkParams",
    "zipf_popularity",
    "uniform_rates",
    "validate_policy",
    "NoiseConstants",
    "InterferenceConstants",
    "intensity_xi",
    "xi1_cdf",
    "success_noise",
    "c_alpha",
    "c_tau_alpha",
    "rayleigh_lower_bound",
    "laplace_interference",
    "nakagami_lower_bound",
    "mean_load_m1",
    "SolveReport",
    "optimize_noise",
    "optimize_interference",
    "brute_force_policy",
    "baseline_policy",
    "MCEstimate",
    "sample_ppp",
    "nakagami_gain",
    "simulate_noise_limited",
    "simulate_interference_limited",
    "NumericalError",
]
