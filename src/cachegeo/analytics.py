"""Closed-form evaluation of the delivery-success analytics.

Noise-limited side: the distribution of the smallest reciprocal channel
power gain among helpers caching a content (a transformed Poisson process)
and the resulting average success probability.

Interference-limited side: the Laplace transform of the aggregate
interference, a general-fading lower bound on the success probability
built from its derivatives, and the Rayleigh specialization whose
per-content terms are the rational functions p / ((1-A) p + B).  Every
integral has a closed form in the regularized incomplete beta function
I_z(a, b); with delta = 2/alpha:

- A / B = I_{1/(1+tau)}(delta, 1 - delta), so C_{tau,alpha} = C_alpha I;
- with W = x^alpha and z = W / (1 + W), the scaled radial integrals of the
  interference exponent over (0, x) are, for n >= 1,
  (delta/2) B(m_I + delta, n - delta) I_z(m_I + delta, n - delta), and for
  n = 0, (1/2) [W^delta (1 - z^m_I)
  + m_I B(m_I + delta, 1 - delta) I_z(m_I + delta, 1 - delta)];
- at s = m_D tau r^alpha / P the exclusion radius r is a fixed multiple of
  the characteristic radius, so success given distance is e^(a_0 y) Q(y)
  with y = pi lambda r^2 and Q a polynomial of degree m_D - 1, and its
  average over the nearest cacher's distance is a finite sum of Gamma
  integrals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betainc, factorial, gammaln, poch

from .model import CachingPolicy, ContentLibrary, NetworkParams, _frozen_array

__all__ = [
    "InterferenceConstants",
    "xi1_cdf",
    "success_noise",
    "c_alpha",
    "rayleigh_lower_bound",
    "nakagami_lower_bound",
    "mean_load_m1",
]


def _fading_moment(delta: float, m: float) -> float:
    """E[h^(2 delta)] = Gamma(m + delta) / (Gamma(m) m^delta) for a unit-mean
    Nakagami-m power gain h.  From m = 10 on the two log Gammas cancel, so
    their difference comes from Stirling's series with the large terms
    merged; its first omitted term is below 1e-12 at m = 10."""
    if m < 10:
        return math.exp(gammaln(delta + m) - gammaln(m) - delta * math.log(m))
    x = m + delta  # Stirling's coefficients B_2k / (2k (2k - 1)) for log Gamma
    tail = sum(c * (x ** (1 - 2 * k) - m ** (1 - 2 * k))
               for k, c in enumerate((1 / 12, -1 / 360, 1 / 1260, -1 / 1680), 1))
    return math.exp((x - 0.5) * math.log1p(delta / m) - delta + tail)


def _kappa(params: NetworkParams) -> float:
    """pi lambda E[h^(2 delta)]: the reciprocal-gain process puts mass
    kappa p xi^delta on [0, xi)."""
    return math.pi * params.helper_density * _fading_moment(params.delta, params.fading_desired)


def _probs_of(policy, library: ContentLibrary) -> np.ndarray:
    """The caching probabilities of a CachingPolicy, or of an array with
    contents on its last axis, once they are known to cover the library."""
    if isinstance(policy, CachingPolicy):
        probs, length = policy.probs, policy.count
    else:
        probs = np.asarray(policy, dtype=float)
        length = probs.shape[-1] if probs.ndim else 1
    if length != library.count:
        raise ValueError(f"the policy has {length} entries but the library has "
                         f"{library.count} contents")
    return probs


def _rate_threshold(rates, c: float) -> np.ndarray:
    """2^(c rho) - 1 per content: the SINR a link must clear to carry its
    rate rho while shared by up to c users.  c = 1 gives the SNR a link
    needs alone.  Below c rho = 1, expm1 keeps every digit for tiny c rho
    and is never 0; from 1 on, the rounding of c rho ln 2 would grow with
    c rho, and exp2 - 1 is exact to the rounding of exp2."""
    if not 1 <= c < math.inf:  # NaN fails too
        raise ValueError(f"load bound c must be >= 1 and finite, got {c}")
    exponent = c * np.asarray(rates, dtype=float)
    if not np.all(exponent <= 1024.0):
        raise ValueError(f"c * max(rate) = {np.max(exponent):g} overflows the rate threshold "
                         f"2^(c rate) - 1 at c = {c:g}")
    with np.errstate(over="ignore"):
        tau = np.where(exponent < 1.0, np.expm1(exponent * math.log(2.0)),
                       np.exp2(exponent) - 1.0)
    # 2^1024 - 1 rounds up to inf, but lies within an ulp of the largest float
    return np.minimum(tau, np.finfo(float).max)


def _noise_thresholds(library: ContentLibrary, params: NetworkParams) -> np.ndarray:
    """theta_i = snr / (2^rho_i - 1): content i is delivered without
    interference when the smallest reciprocal gain among its cachers is at
    most theta_i."""
    if params.noise_power == 0:
        raise ValueError("noise-limited analytics need noise_power > 0, i.e. a finite snr_db")
    with np.errstate(over="ignore"):
        theta = params.snr / _rate_threshold(library.rates, 1.0)
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"the SNR threshold snr / (2^rate - 1) overflows at snr = {params.snr:g} "
                         f"and min(rate) = {np.min(library.rates):g}")
    if not np.all(theta > 0):
        raise ValueError(f"snr = {params.snr:g} is too small: "
                         "the SNR threshold snr / (2^rate - 1) rounds to 0")
    return theta


def xi1_cdf(xi, p: float | np.ndarray, params: NetworkParams):
    """CDF of the smallest reciprocal channel power gain: 1 - exp(-kappa p xi^delta).
    xi and the caching probability p may be arrays that broadcast together."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be >= 0")
    out = -np.expm1(-_kappa(params) * p * xi**params.delta)
    return out if xi.ndim else float(out)


def success_noise(library: ContentLibrary, params: NetworkParams, policy):
    """Average delivery success probability without interference.

    sum_i f_i F_xi1(theta_i; p_i), the CDF of the smallest reciprocal gain
    at each content's SNR threshold.  `policy` may be a CachingPolicy or an
    array whose last axis indexes contents; leading axes broadcast, so a
    batch of policies evaluates in one call.
    """
    per_content = xi1_cdf(_noise_thresholds(library, params), _probs_of(policy, library), params)
    out = np.sum(library.popularity * per_content, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def c_alpha(alpha: float) -> float:
    """(2 pi / alpha) csc(2 pi / alpha); diverges as alpha -> 2."""
    if alpha <= 2:
        raise ValueError("alpha must be > 2")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def _a_over_b(tau, delta: float):
    """A / B = I_{1/(1+tau)}(delta, 1 - delta).  Below tau = 1 it is taken as
    1 - I_{tau/(1+tau)}(1 - delta, delta), whose argument keeps the digits of
    tau that 1/(1+tau) rounds away as tau -> 0."""
    tau = np.asarray(tau, dtype=float)
    return np.where(
        tau < 1.0,
        1.0 - betainc(1.0 - delta, delta, tau / (1.0 + tau)),
        betainc(delta, 1.0 - delta, 1.0 / (1.0 + tau)),
    )


def _require_resolvable(ok, rates, c: float, what: str) -> None:
    """Fail fast, naming c * rate, where a tiny SIR threshold underflows the analytics."""
    if not np.all(ok):
        small = c * np.min(np.asarray(rates, dtype=float)[~np.asarray(ok)])
        raise ValueError(f"c * min(rate) = {small:g} is too small: {what}")


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
        tau, A, B = (_frozen_array(arr) for arr in (self.tau, self.A, self.B))
        if not all(np.all(np.isfinite(arr)) for arr in (tau, A, B)):
            raise ValueError("tau, A and B must be finite")
        if np.any(tau <= 0):
            raise ValueError("tau must be positive")
        if np.any(A <= 0) or np.any(A > 1):
            raise ValueError("A must lie in (0, 1]")
        if np.any(B <= A):
            raise ValueError("B must exceed A")
        if not 1 <= self.c < math.inf:
            raise ValueError(f"load bound c must be >= 1 and finite, got {self.c}")
        for name, arr in (("tau", tau), ("A", A), ("B", B)):
            object.__setattr__(self, name, arr)

    @classmethod
    def from_rates(cls, rates, alpha: float, c: float) -> "InterferenceConstants":
        tau = _rate_threshold(rates, c)
        delta = 2.0 / alpha
        ratio = _a_over_b(tau, delta)
        _require_resolvable(ratio < 1.0, rates, c,
                            f"A/B rounds to 1 at tau = 2^(c rate) - 1 and pathloss_exp = {alpha:g}")
        B = tau**delta * c_alpha(alpha)
        # the exact A is below 1, but B * (A / B) can round above it
        return cls(tau=tau, A=np.minimum(B * ratio, 1.0), B=B, c=float(c))

    @classmethod
    def from_library(cls, library: ContentLibrary, alpha: float, c: float) -> "InterferenceConstants":
        return cls.from_rates(library.rates, alpha, c)


def rayleigh_lower_bound(library: ContentLibrary, consts: InterferenceConstants, policy):
    """Lower bound on the success probability under Rayleigh fading.

    sum_i f_i p_i / ((1 - A_i) p_i + B_i), each term increasing and
    concave in p_i.  Accepts a CachingPolicy or an array with contents on
    the last axis (leading axes broadcast).
    """
    probs = _probs_of(policy, library)
    terms = probs / ((1.0 - consts.A) * probs + consts.B)
    out = np.sum(library.popularity * terms, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _radial_integrals(alpha: float, m_i: float, n: int, W):
    """The scaled radial integral of the n-th s-derivative, split at
    x = W^(1/alpha): (integral over (0, x), integral over (x, inf)).

    In units of the characteristic radius (s P / m_I)^(1/alpha) the integrand
    is [1 - (1 + u^-alpha)^-m_I] u for n = 0 and
    (1 + u^alpha)^-n (1 + u^-alpha)^-m_I u for n >= 1.  w = u^alpha and
    z = w / (1 + w) turn both into incomplete beta functions (for n = 0
    after one integration by parts); the tail takes I_{1-z}(b, a) with
    1 - z = 1 / (1 + W), so neither piece is a difference of the other.
    """
    delta = 2.0 / alpha
    W = np.asarray(W, dtype=float)
    a, b = m_i + delta, max(n, 1) - delta
    scale = 0.5 * (m_i if n == 0 else delta) * beta(a, b)
    head = scale * betainc(a, b, W / (1.0 + W))
    tail = scale * betainc(b, a, 1.0 / (1.0 + W))
    if n == 0:
        # boundary term W^delta (1 - z^m_I) / 2 of the integration by parts
        with np.errstate(divide="ignore"):
            edge = -0.5 * W**delta * np.expm1(-m_i * np.log1p(1.0 / W))
        head, tail = head + edge, tail - edge
    return head, tail


def _exponent_coefficients(W, p, params: NetworkParams, order: int) -> np.ndarray:
    """c_0..c_order with s^n g^(n)(s) = pi lambda v*^2 c_n.

    g is the log Laplace transform of the interference, v* = (s P / m_I)^(1/alpha)
    and W = (r / v*)^alpha: a fraction p of the helpers within r cache the
    content, so they are candidates, not interferers.
    """
    alpha, m_i = params.pathloss_exp, params.fading_interf
    out = []
    for n in range(order + 1):
        head, tail = _radial_integrals(alpha, m_i, n, W)
        sign = 1.0 if n == 0 else (-1.0) ** (n + 1) * poch(m_i, n)
        out.append(-2.0 * sign * ((1.0 - p) * head + tail))
    return np.array(out)


def _success_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients in y of Q(y) = e^(-a_0 y) sum_k (-s)^k L^(k)(s) / k!.

    With s^k L^(k)(s) = e^(a_0 y) P_k(y), the exp-composition
    L^(k) = sum_j C(k-1, j) g^(k-j) L^(j) reads P_0 = 1 and
    P_k = y sum_j C(k-1, j) a_{k-j} P_j on coefficient arrays.  Every term
    of Q beyond the constant is nonnegative: no cancellation.
    """
    order = a.shape[0]
    P = np.zeros((order, order) + a.shape[1:])
    P[0, 0] = 1.0
    q = P[0].copy()
    for k in range(1, order):
        for j in range(k):
            P[k, 1 : j + 2] += math.comb(k - 1, j) * a[k - j] * P[j, : j + 1]
        q += (-1.0) ** k / math.factorial(k) * P[k]
    return q


def nakagami_lower_bound(
    library: ContentLibrary, params: NetworkParams, policy, c: float
) -> float:
    """Lower bound on the average success probability with integer Nakagami
    shape on the desired link and a fixed load bound c >= 1.

    Each content contributes the k-sum of Laplace-transform derivatives
    averaged over the distance to the nearest helper caching it: in
    y = pi lambda r^2 that distance has density p e^(-p y), so
    e^(a_0 y) y^j averages to p j! / (p - a_0)^(j+1).  The coefficient q_j
    of y^j is of degree j in the a_n, so the sum is taken in units of
    1 / (p - a_0), where the powers (p - a_0)^(j+1) cannot overflow.
    """
    if params.fading_desired != int(params.fading_desired):
        raise NotImplementedError("the k-sum requires an integer desired-link fading shape")
    tau = _rate_threshold(library.rates, c)
    probs = _probs_of(policy, library)
    if probs.ndim != 1:
        raise ValueError("nakagami_lower_bound evaluates one policy at a time")
    cached = probs > 0
    p = probs[cached]
    # at s = m_D tau r^alpha / P, W = (r / v*)^alpha = m_I / (m_D tau) does
    # not depend on r, so neither do the a_n of s^n g^(n)(s) = a_n pi lambda r^2
    with np.errstate(over="ignore", divide="ignore"):
        W = params.fading_interf / (params.fading_desired * tau[cached])
    _require_resolvable(
        np.isfinite(W), library.rates[cached], c, "m_I / (m_D tau) overflows at tau = 2^(c rate) - 1"
    )
    if np.any(W == 0):  # m_D tau overflowed, and W^(-delta) would divide by zero
        raise ValueError(f"c * max(rate) = {c * np.max(library.rates[cached]):g} is too large "
                         f"at m_D = {params.fading_desired:g}: m_D tau overflows")
    a = W ** (-params.delta) * _exponent_coefficients(W, p, params, int(params.fading_desired) - 1)
    unit = p - a[0]
    q = _success_polynomial(a / unit)
    j = np.arange(q.shape[0])[:, None]
    per_content = p / unit * np.sum(q * factorial(j), axis=0)
    return float(np.sum(library.popularity[cached] * per_content))


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
