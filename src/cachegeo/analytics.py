"""Closed-form and quadrature evaluation of the delivery-success analytics.

Noise-limited side: the distribution of the smallest reciprocal channel
power gain among helpers caching a content (a transformed Poisson process)
and the resulting average success probability.

Interference-limited side: the Laplace transform of the aggregate
interference, a general-fading lower bound on the success probability
built from its derivatives, and the Rayleigh specialization whose
per-content terms are the rational functions p / ((1-A) p + B).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import binom, gammaln, poch

from .errors import NumericalError
from .model import CachingPolicy, ContentLibrary, NetworkParams

__all__ = [
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
]

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-10, limit=200)


def _quad(fn, lo, hi, what: str) -> float:
    """Adaptive quadrature with convergence failures surfaced, not ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(fn, lo, hi, **_QUAD_OPTS)
        except integrate.IntegrationWarning as exc:
            raise NumericalError(f"quadrature for {what} on [{lo}, {hi}] failed: {exc}") from exc
    return value


def _fading_moment(delta: float, m: float) -> float:
    """E[h^(2 delta)] for a unit-mean Nakagami-m power gain h."""
    return math.exp(gammaln(delta + m) - gammaln(m) - delta * math.log(m))


def _kappa(params: NetworkParams) -> float:
    """pi lambda E[h^(2 delta)]: the reciprocal-gain process puts mass
    kappa p xi^delta on [0, xi)."""
    return math.pi * params.helper_density * _fading_moment(params.delta, params.fading_desired)


def _probs_of(policy) -> np.ndarray:
    if isinstance(policy, CachingPolicy):
        return policy.probs
    return np.asarray(policy, dtype=float)


@dataclass(frozen=True)
class NoiseConstants:
    """Constants of the noise-limited success formula.

    kappa scales the intensity of the reciprocal-gain process, delta is
    2/alpha, and T[i] = (snr / (2^rho_i - 1))^delta is the per-content
    threshold factor, decreasing in the target rate.
    """

    kappa: float
    delta: float
    T: np.ndarray

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        T = np.asarray(self.T, dtype=float)
        if np.any(T <= 0):
            raise ValueError("threshold factors must be positive")
        T.setflags(write=False)
        object.__setattr__(self, "T", T)

    @classmethod
    def from_params(cls, library: ContentLibrary, params: NetworkParams) -> "NoiseConstants":
        if params.noise_power == 0:
            raise ValueError("noise-limited analytics need noise_power > 0, i.e. a finite snr_db")
        T = (params.snr / (np.power(2.0, library.rates) - 1.0)) ** params.delta
        return cls(kappa=_kappa(params), delta=params.delta, T=T)


def intensity_xi(y, p: float, params: NetworkParams):
    """Intensity of the process of reciprocal channel power gains at y.

    Equals p * lambda * pi * delta * y^(delta-1) * E[h^(2 delta)]; its
    integral over [0, xi) is kappa * p * xi^delta.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be >= 0")
    if p == 0:
        return np.zeros_like(y) if y.ndim else 0.0
    delta = params.delta
    with np.errstate(divide="ignore"):
        out = _kappa(params) * p * delta * y ** (delta - 1.0)
    return out if y.ndim else float(out)


def xi1_cdf(xi, p: float, params: NetworkParams):
    """CDF of the smallest reciprocal channel power gain: 1 - exp(-kappa p xi^delta)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be >= 0")
    out = -np.expm1(-_kappa(params) * p * xi**params.delta)
    return out if xi.ndim else float(out)


def success_noise(library: ContentLibrary, params: NetworkParams, policy):
    """Average delivery success probability without interference.

    sum_i f_i (1 - exp(-kappa p_i T_i)).  `policy` may be a CachingPolicy
    or an array whose last axis indexes contents; leading axes broadcast,
    so a batch of policies evaluates in one call.
    """
    consts = NoiseConstants.from_params(library, params)
    probs = _probs_of(policy)
    per_content = -np.expm1(-consts.kappa * probs * consts.T)
    out = np.sum(library.popularity * per_content, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def c_alpha(alpha: float) -> float:
    """(2 pi / alpha) csc(2 pi / alpha); diverges as alpha -> 2."""
    if alpha <= 2:
        raise ValueError("alpha must be > 2")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def c_tau_alpha(tau: float, alpha: float) -> float:
    """The integral of 1/(1 + u^(alpha/2)) over [0, tau^(-2/alpha)].

    Equivalent to the Gauss hypergeometric form
    tau^(-2/alpha) 2F1(1, 2/alpha; 1 + 2/alpha; -1/tau) but evaluated on
    the finite interval, which stays stable as tau -> 0.
    """
    if alpha <= 2:
        raise ValueError("alpha must be > 2")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    upper = tau ** (-2.0 / alpha)
    half = alpha / 2.0

    def integrand(u):
        return 1.0 / (1.0 + u**half)

    if upper <= 10.0:
        return _quad(integrand, 0.0, upper, "c_tau_alpha")
    # Large interval: difference of two semi-infinite integrals keeps the
    # adaptive rule focused where the integrand actually varies.
    head = _quad(integrand, 0.0, np.inf, "c_tau_alpha head")
    tail = _quad(integrand, upper, np.inf, "c_tau_alpha tail")
    return head - tail


@dataclass(frozen=True)
class InterferenceConstants:
    """Per-content constants of the interference-limited lower bound.

    tau[i] = 2^(c rho_i) - 1 folds the load bound c into the SIR
    threshold; A[i] = tau^(2/alpha) C_{tau,alpha} in (0, 1] and
    B[i] = tau^(2/alpha) C_alpha > A[i].
    """

    tau: np.ndarray
    A: np.ndarray
    B: np.ndarray
    c: float

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if np.any(tau <= 0):
            raise ValueError("tau must be positive")
        if np.any(A <= 0) or np.any(A > 1 + 1e-12):
            raise ValueError("A must lie in (0, 1]")
        if np.any(B <= A):
            raise ValueError("B must exceed A")
        if self.c < 1:
            raise ValueError("load bound c must be >= 1")
        for name, arr in (("tau", tau), ("A", A), ("B", B)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_rates(cls, rates, alpha: float, c: float) -> "InterferenceConstants":
        if c < 1:
            raise ValueError("load bound c must be >= 1")
        rates = np.asarray(rates, dtype=float)
        delta = 2.0 / alpha
        tau = np.power(2.0, c * rates) - 1.0
        scale = tau**delta
        A = scale * np.array([c_tau_alpha(t, alpha) for t in tau])
        B = scale * c_alpha(alpha)
        return cls(tau=tau, A=A, B=B, c=float(c))

    @classmethod
    def from_library(cls, library: ContentLibrary, alpha: float, c: float) -> "InterferenceConstants":
        return cls.from_rates(library.rates, alpha, c)


def rayleigh_lower_bound(library: ContentLibrary, consts: InterferenceConstants, policy):
    """Lower bound on the success probability under Rayleigh fading.

    sum_i f_i p_i / ((1 - A_i) p_i + B_i), each term increasing and
    concave in p_i.  Accepts a CachingPolicy or an array with contents on
    the last axis (leading axes broadcast).
    """
    probs = _probs_of(policy)
    terms = probs / ((1.0 - consts.A) * probs + consts.B)
    out = np.sum(library.popularity * terms, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _scaled_integrand(alpha: float, m_i: float, n: int):
    """Radial integrand in units of the characteristic radius (s P / m_I)^(1/alpha).

    n = 0 gives [1 - (1 + u^-alpha)^-m] u; n >= 1 gives
    (1 + u^alpha)^-n (1 + u^-alpha)^-m u, the u-dependent part of the n-th
    s-derivative.  Both are O(1) and integrable at each end for alpha > 2.
    """
    if n == 0:

        def integrand(u):
            if u == 0.0:
                return 0.0
            return -math.expm1(-m_i * math.log1p(u ** (-alpha))) * u

    else:

        def integrand(u):
            if u == 0.0:
                return 0.0
            return (1.0 + u**alpha) ** (-n) * (1.0 + u ** (-alpha)) ** (-m_i) * u

    return integrand


@lru_cache(maxsize=None)
def _scaled_tail(alpha: float, m_i: float, n: int) -> float:
    """The scaled radial integral over (0, inf); constant in s, cached."""
    integrand = _scaled_integrand(alpha, m_i, n)
    return _quad(integrand, 0.0, 1.0, "interference exponent") + _quad(
        integrand, 1.0, np.inf, "interference exponent"
    )


def _scaled_head(alpha: float, m_i: float, n: int, x: float) -> float:
    """The scaled radial integral over (0, x)."""
    integrand = _scaled_integrand(alpha, m_i, n)
    if x <= 1.0:
        return _quad(integrand, 0.0, x, "interference exclusion")
    return _quad(integrand, 0.0, 1.0, "interference exclusion") + _quad(
        integrand, 1.0, x, "interference exclusion"
    )


def _radial_integrals(s: float, r: float, params: NetworkParams, n: int) -> tuple[float, float]:
    """n-th s-derivative of the two radial integrals in the interference exponent.

    Returns (integral over (0, inf), integral over (0, r)) of
    d^n/ds^n [1 - (1 + s P v^(-alpha)/m_I)^(-m_I)] * v dv, computed in
    rescaled coordinates so magnitudes stay O((s P)^(2/alpha)).
    """
    alpha = params.pathloss_exp
    m_i = params.fading_interf
    v_star = (s * params.tx_power / m_i) ** (1.0 / alpha)
    coeff = v_star**2 * s ** (-n)
    if n > 0:
        coeff *= -((-1.0) ** n) * poch(m_i, n)
    full = coeff * _scaled_tail(alpha, m_i, n)
    inner = 0.0 if r <= 0.0 else coeff * _scaled_head(alpha, m_i, n, r / v_star)
    return full, inner


def _log_laplace_derivatives(
    s: float, r: float, p: float, params: NetworkParams, order: int
) -> np.ndarray:
    """Derivatives 0..order of the log Laplace transform of the interference."""
    lam = params.helper_density
    out = np.empty(order + 1)
    for n in range(order + 1):
        full, inner = _radial_integrals(s, r, params, n)
        out[n] = -2.0 * math.pi * lam * full + 2.0 * math.pi * p * lam * inner
    return out


def laplace_interference(s: float, r: float, p: float, params: NetworkParams) -> float:
    """Laplace transform at s of the interference seen by a user served from
    distance r, when a fraction p of helpers cache the requested content
    (those within r are excluded as candidates, not interferers beyond r).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if r < 0:
        raise ValueError("r must be >= 0")
    if s == 0:
        return 1.0
    g = _log_laplace_derivatives(s, r, p, params, order=0)[0]
    return math.exp(g)


def _success_given_distance(r: float, tau: float, p: float, params: NetworkParams) -> float:
    """P[fading beats the interference threshold | serving distance r].

    Expands the Nakagami upper incomplete gamma into the k-sum of scaled
    Laplace-transform derivatives evaluated at s = m_D tau r^alpha / P.
    """
    m_d = int(params.fading_desired)
    s = m_d * tau * r**params.pathloss_exp / params.tx_power
    if s == 0.0:
        return 1.0
    g = _log_laplace_derivatives(s, r, p, params, order=m_d - 1)
    # exp-composition: L^(k) = sum_j C(k-1, j) g^(k-j) L^(j)
    L = np.empty(m_d)
    L[0] = math.exp(g[0])
    for k in range(1, m_d):
        L[k] = sum(binom(k - 1, j) * g[k - j] * L[j] for j in range(k))
    total = 0.0
    for k in range(m_d):
        total += (-s) ** k / math.factorial(k) * L[k]
    return total


def nakagami_lower_bound(
    library: ContentLibrary, params: NetworkParams, policy, c: float
) -> float:
    """Lower bound on the average success probability with integer Nakagami
    shape on the desired link and a fixed load bound c >= 1.

    Each content contributes the k-sum of Laplace-transform derivatives
    averaged over the distance to the nearest helper caching it.
    """
    if params.fading_desired != int(params.fading_desired):
        raise NotImplementedError("the k-sum requires an integer desired-link fading shape")
    if c < 1:
        raise ValueError("load bound c must be >= 1")
    probs = _probs_of(policy)
    if probs.ndim != 1:
        raise ValueError("nakagami_lower_bound evaluates one policy at a time")
    lam = params.helper_density
    tau = np.power(2.0, c * library.rates) - 1.0
    total = 0.0
    for i in range(library.count):
        p = float(probs[i])
        if p == 0.0:
            continue
        scale = math.pi * p * lam

        def integrand(t, tau_i=tau[i], p_i=p):
            # t = pi p lam r^2 turns the nearest-helper density into e^-t
            r = math.sqrt(t / scale)
            return _success_given_distance(r, tau_i, p_i, params) * math.exp(-t)

        total += library.popularity[i] * _quad(integrand, 0.0, np.inf, "distance average")
    return total


def mean_load_m1(f: float, p: float, user_density: float, helper_density: float) -> float:
    """Mean load of the helper serving the typical user for single-slot caches.

    1 + 1.28 f user_density / (p helper_density): one for the typical user
    plus the size-biased share of other users requesting the same content.
    """
    if p <= 0:
        raise ValueError("p must be > 0: with no helpers caching the content the load is unbounded")
    if helper_density <= 0:
        raise ValueError("helper_density must be > 0")
    return 1.0 + 1.28 * f * user_density / (p * helper_density)
