"""Adaptive-quadrature oracle for the closed-form interference analytics.

Evaluates the same integrals as `cachegeo.analytics` straight from their
definitions with `scipy.integrate.quad`: the truncated Rayleigh constant
C_{tau,alpha}, the scaled radial integrals of the interference exponent and
their s-derivatives, and the Nakagami lower bound with its distance average.
Slow (nested quadratures per content), so tests keep the libraries small.
"""
from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import binom, poch

from cachegeo.errors import NumericalError

QUAD_OPTS = dict(epsabs=1e-250, epsrel=1e-10, limit=200)


def quad(fn, lo, hi, what: str) -> float:
    """Adaptive quadrature with convergence failures surfaced, not ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(fn, lo, hi, **QUAD_OPTS)
        except integrate.IntegrationWarning as exc:
            raise NumericalError(f"quadrature for {what} on [{lo}, {hi}] failed: {exc}") from exc
    return value


def _log_quad(integrand, lo: float, hi: float, decay: float, what: str) -> float:
    """The integral over u in (lo, hi) of a function given as integrand(v) in
    v = log u (Jacobian included).  In log u the power-law ends decay
    exponentially; cuts at u = 1 and at multiples of 1/decay let quad
    resolve a decay as slow as e^(-(alpha-2) v) near alpha = 2."""
    bottom = math.log(lo) if lo > 0.0 else -math.inf
    top = math.log(hi) if hi < math.inf else math.inf
    inner = [v for v in (0.0, 4.0 / decay, 16.0 / decay, 64.0 / decay) if bottom < v < top]
    cuts = [bottom] + inner + [top]
    return math.fsum(quad(integrand, a, b, what) for a, b in zip(cuts, cuts[1:]))


def _log1p_exp(h: float) -> float:
    """log(1 + e^h) without overflow."""
    return h + math.log1p(math.exp(-h)) if h > 0 else math.log1p(math.exp(h))


def c_tau_alpha(tau: float, alpha: float) -> float:
    """The integral of 1/(1 + u^(alpha/2)) over [0, tau^(-2/alpha)]."""
    half = alpha / 2.0
    return _log_quad(
        lambda v: math.exp(v - _log1p_exp(half * v)), 0.0, tau ** (-2.0 / alpha), half - 1.0,
        "c_tau_alpha",
    )


def scaled_integrand(alpha: float, m_i: float, n: int):
    """In v = log u, times the Jacobian u: n = 0 gives [1 - (1 + u^-alpha)^-m] u^2,
    n >= 1 gives (1 + u^alpha)^-n (1 + u^-alpha)^-m u^2."""

    def integrand(v):
        # log(1 + u^-alpha) and log(1 + u^alpha), each free of cancellation
        if v > 0.0:
            lr = math.log1p(math.exp(-alpha * v))
            lb = alpha * v + lr
        else:
            lb = math.log1p(math.exp(alpha * v))
            lr = lb - alpha * v
        if n > 0:
            return math.exp(-m_i * lr - n * lb + 2.0 * v)
        if alpha * v > 40.0:
            # 1 - (1 + t)^-m = m t to double precision once t = u^-alpha < 5e-18
            return math.exp(math.log(m_i) + (2.0 - alpha) * v)
        return -math.expm1(-m_i * lr) * math.exp(2.0 * v)

    return integrand


@lru_cache(maxsize=None)
def scaled_radial(alpha: float, m_i: float, n: int, lo: float, hi: float) -> float:
    """The scaled radial integral over (lo, hi)."""
    integrand = scaled_integrand(alpha, m_i, n)
    return _log_quad(integrand, lo, hi, alpha * max(n, 1) - 2.0, "interference exponent")


def _log_laplace_derivatives(s, r, p, params, order):
    alpha, m_i, lam = params.pathloss_exp, params.fading_interf, params.helper_density
    v_star = (s * params.tx_power / m_i) ** (1.0 / alpha)
    out = np.empty(order + 1)
    for n in range(order + 1):
        coeff = v_star**2 * s ** (-n)
        if n > 0:
            coeff *= -((-1.0) ** n) * poch(m_i, n)
        full = coeff * scaled_radial(alpha, m_i, n, 0.0, math.inf)
        inner = 0.0 if r <= 0.0 else coeff * scaled_radial(alpha, m_i, n, 0.0, r / v_star)
        out[n] = -2.0 * math.pi * lam * full + 2.0 * math.pi * p * lam * inner
    return out


def success_given_distance(r: float, tau: float, p: float, params) -> float:
    """The k-sum of scaled Laplace-transform derivatives at s = m_D tau r^alpha / P."""
    m_d = int(params.fading_desired)
    s = m_d * tau * r**params.pathloss_exp / params.tx_power
    if s == 0.0:
        return 1.0
    g = _log_laplace_derivatives(s, r, p, params, order=m_d - 1)
    L = np.empty(m_d)
    L[0] = math.exp(g[0])
    for k in range(1, m_d):
        L[k] = sum(binom(k - 1, j) * g[k - j] * L[j] for j in range(k))
    return sum((-s) ** k / math.factorial(k) * L[k] for k in range(m_d))


def nakagami_lower_bound(library, params, probs, c: float) -> float:
    """The Nakagami bound with the distance average t = pi p lam r^2 done by quad."""
    lam = params.helper_density
    tau = np.power(2.0, c * library.rates) - 1.0
    total = 0.0
    for i in range(library.count):
        p = float(probs[i])
        if p == 0.0:
            continue
        scale = math.pi * p * lam

        def integrand(t, tau_i=tau[i], p_i=p):
            return success_given_distance(math.sqrt(t / scale), tau_i, p_i, params) * math.exp(-t)

        total += library.popularity[i] * quad(integrand, 0.0, np.inf, "distance average")
    return total
