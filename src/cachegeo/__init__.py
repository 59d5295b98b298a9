"""Probabilistic content placement in stochastic wireless caching helper
networks: closed-form success-probability analytics, caching-probability
optimizers, and a Poisson Monte Carlo simulator that validates them.
"""
from .analytics import (
    InterferenceConstants,
    c_alpha,
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
    zipf_popularity,
)
from .optimizer import (
    SolveReport,
    baseline_policy,
    optimize_interference,
    optimize_noise,
)
from .simulator import (
    MCEstimate,
    nakagami_gain,
    simulate_interference_limited,
    simulate_noise_limited,
)

__all__ = [
    "CachingPolicy",
    "ContentLibrary",
    "NetworkParams",
    "zipf_popularity",
    "uniform_rates",
    "InterferenceConstants",
    "xi1_cdf",
    "success_noise",
    "c_alpha",
    "rayleigh_lower_bound",
    "nakagami_lower_bound",
    "mean_load_m1",
    "SolveReport",
    "optimize_noise",
    "optimize_interference",
    "baseline_policy",
    "MCEstimate",
    "nakagami_gain",
    "simulate_noise_limited",
    "simulate_interference_limited",
    "NumericalError",
]
