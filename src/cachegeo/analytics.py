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

from .model import CachingPolicy, ContentLibrary, NetworkParams, _frozen_array, _probability_violation

__all__ = [
    "InterferenceConstants",
    "xi1_cdf",
    "success_noise",
    "c_alpha",
    "rayleigh_lower_bound",
    "nakagami_lower_bound",
    "mean_load_m1",
]


def _gamma_ratio(x: float, s: float) -> float:
    """Gamma(x + s) / Gamma(x) for x > 0 and s in [0, 1).

    Below x = 30 it is a quotient of math.gamma, finite since x + s < 31.
    From x = 30 on the two log Gammas cancel, so their difference comes
    from Stirling's series with the large terms merged, and x^s (below x,
    so finite) is applied last; the first omitted term is below 5e-17 at
    x = 30.
    """
    if x < 30:
        return math.gamma(x + s) / math.gamma(x)
    y = x + s  # Stirling's coefficients B_2k / (2k (2k - 1)) for log Gamma
    tail = sum(c * (y ** (1 - 2 * k) - x ** (1 - 2 * k))
               for k, c in enumerate((1 / 12, -1 / 360, 1 / 1260, -1 / 1680), 1))
    # the exp of log(ratio / x^s) <= 0, so the product cannot overflow
    return math.exp((y - 0.5) * math.log1p(s / x) - s + tail) * x**s


def _fading_moment(delta: float, m: float) -> float:
    """E[h^(2 delta)] = Gamma(m + delta) / (Gamma(m) m^delta) for a unit-mean
    Nakagami-m power gain h."""
    return _gamma_ratio(m, delta) / m**delta


def _kappa(params: NetworkParams) -> float:
    """pi lambda E[h^(2 delta)]: the reciprocal-gain process puts mass
    kappa p xi^delta on [0, xi)."""
    return math.pi * params.helper_density * _fading_moment(params.delta, params.fading_desired)


def _checked_probs(p) -> np.ndarray:
    """p as a float array, once every entry is known to lie in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if (violation := _probability_violation(p)) is not None:
        raise ValueError(violation)
    return p


def _probs_of(policy, library: ContentLibrary) -> np.ndarray:
    """The caching probabilities of a CachingPolicy, or of an array with
    contents on its last axis, once they are known to cover the library
    and to lie in [0, 1]."""
    probs = _checked_probs(policy.probs if isinstance(policy, CachingPolicy) else policy)
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
    xi, p = np.asarray(xi, dtype=float), _checked_probs(p)
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
    if not 2 < alpha < math.inf:  # NaN fails too
        raise ValueError(f"alpha must be > 2 and finite, got {alpha}")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def _incomplete_beta_reflected(x: np.ndarray, a: float) -> np.ndarray:
    """I_x(a, 1 - a) for 0 < a < 1 and 0 <= x <= 1/2, by the series

        I_x(a, 1 - a) = (sin(pi a) / pi) x^a sum_n (a)_n / n! x^n / (a + n).

    Since (a)_n / n! <= 1 and a / (a + n) <= 1/2, term n >= 1 is at most
    x^n / 2 times the first, 1 / a, so from n = ceil(54 / log2(1 / max x))
    on it is below half an ulp of every entry's sum and adds nothing.  The
    terms are added in order, so an entry's value does not depend on how
    many terms the others need."""
    if x.size == 0:
        return x
    top = float(x.max())
    steps = math.ceil(54.0 / -math.log2(top)) if top > 0.0 else 0
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    for n in range(steps):
        # t_(n+1) / t_n = x (a + n)^2 / ((n + 1) (a + n + 1))
        term *= x
        term *= (a + n) * (a + n) / ((n + 1) * (a + n + 1))
        total += term
    # sin(pi a) = sin(pi (1 - a)), and the smaller argument keeps its digits
    total *= math.sin(math.pi * min(a, 1.0 - a)) / math.pi
    return total * x**a


def _a_over_b(tau, delta: float):
    """A / B = I_{1/(1+tau)}(delta, 1 - delta).  Below tau = 1 it is taken as
    1 - I_{tau/(1+tau)}(1 - delta, delta), whose argument keeps the digits of
    tau that 1/(1+tau) rounds away as tau -> 0.  Each branch is evaluated
    only on the entries that take it, and both have x <= 1/2."""
    tau = np.asarray(tau, dtype=float)
    small = tau < 1.0
    ratio, low = np.empty_like(tau), tau[small]
    ratio[small] = 1.0 - _incomplete_beta_reflected(low / (1.0 + low), 1.0 - delta)
    ratio[~small] = _incomplete_beta_reflected(1.0 / (1.0 + tau[~small]), delta)
    return ratio


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
    x = W^(1/alpha): (integral over (0, x), integral over (x, inf)), for
    n >= 1 times (m_I)_n / (n - 1)!.

    In units of the characteristic radius (s P / m_I)^(1/alpha) the integrand
    is [1 - (1 + u^-alpha)^-m_I] u for n = 0 and
    (1 + u^alpha)^-n (1 + u^-alpha)^-m_I u for n >= 1.  w = u^alpha and
    z = w / (1 + w) turn both into incomplete beta functions (for n = 0
    after one integration by parts); the tail takes I_{1-z}(b, a) with
    1 - z = 1 / (1 + W), so neither piece is a difference of the other.
    """
    from scipy.special import betainc

    delta = 2.0 / alpha
    W = np.asarray(W, dtype=float)
    a, b = m_i + delta, max(n, 1) - delta
    # m_I B(a, b) at n = 0, (m_I)_n B(a, b) / (n - 1)! from 1 on, with no factor that overflows
    scale = 0.5 * _gamma_ratio(m_i, delta) * (
        math.gamma(b) if n == 0 else delta / _gamma_ratio(b, delta))
    head = scale * betainc(a, b, W / (1.0 + W))
    tail = scale * betainc(b, a, 1.0 / (1.0 + W))
    if n == 0:
        # boundary term W^delta (1 - z^m_I) / 2 of the integration by parts
        with np.errstate(divide="ignore"):
            edge = -0.5 * W**delta * np.expm1(-m_i * np.log1p(1.0 / W))
        head, tail = head + edge, tail - edge
    return head, tail


def _exponent_coefficients(W, p, params: NetworkParams, order: int) -> np.ndarray:
    """c_0..c_order with s^n g^(n)(s) = pi lambda v*^2 c_n (n - 1)! for n >= 1.

    g is the log Laplace transform of the interference, v* = (s P / m_I)^(1/alpha)
    and W = (r / v*)^alpha: a fraction p of the helpers within r cache the
    content, so they are candidates, not interferers.
    """
    alpha, m_i = params.pathloss_exp, params.fading_interf
    out = []
    for n in range(order + 1):
        head, tail = _radial_integrals(alpha, m_i, n, W)
        out.append((-2.0 if n == 0 else 2.0 * (-1.0) ** n) * ((1.0 - p) * head + tail))
    return np.array(out)


def _success_polynomial(a: np.ndarray) -> np.ndarray:
    """q_j = j! [y^j] Q(y), Q(y) = e^(-a_0 y) sum_k (-s)^k L^(k)(s) / k!, from
    a_0 and a_n / (n - 1)! for n >= 1 (the a_n of s^n g^(n)(s) in y).

    With s^k L^(k)(s) = e^(a_0 y) P_k(y), the exp-composition
    L^(k) = sum_i C(k-1, i) g^(k-i) L^(i) reads P_0 = 1 and
    P_k = y sum_i C(k-1, i) a_{k-i} P_i.  In T_k[j] = (j! / k!) [y^j] P_k it
    is T_k[j+1] = ((j+1) / k) sum_i a_{k-i} / (k-i-1)! T_i[j], and q = sum_k
    (-1)^k T_k.  Every term of Q beyond the constant is nonnegative.
    """
    order = a.shape[0]
    T = np.zeros((order, order) + a.shape[1:])
    T[0, 0] = 1.0
    q = T[0].copy()
    j1 = np.arange(1.0, order).reshape((-1,) + (1,) * (a.ndim - 1))  # j + 1
    for k in range(1, order):
        for i in range(k):
            T[k, 1 : i + 2] += a[k - i] * T[i, : i + 1]
        T[k, 1 : k + 1] *= j1[:k] / k
        q += (-1.0) ** k * T[k]
    return q


def nakagami_lower_bound(
    library: ContentLibrary, params: NetworkParams, policy, c: float
) -> float:
    """Lower bound on the average success probability with integer Nakagami
    shape on the desired link and a fixed load bound c >= 1.

    Each content contributes the k-sum of Laplace-transform derivatives
    averaged over the distance to the nearest helper caching it: in
    y = pi lambda r^2 that distance has density p e^(-p y), so
    e^(a_0 y) y^j / j! averages to p / (p - a_0)^(j+1).  The coefficient
    q_j of y^j / j! is of degree j in the a_n, so the sum is taken in units
    of 1 / (p - a_0), where the powers (p - a_0)^(j+1) cannot overflow.
    """
    m_d = params.fading_desired
    if m_d != int(m_d) or m_d > 171:
        raise ValueError(f"fading_desired = {m_d:g} is "
                         f"{'too large' if m_d > 171 else 'not an integer'}: the k-sum takes "
                         "an integer m_D, tested up to m_D = 171")
    tau = _rate_threshold(library.rates, c)
    probs = _probs_of(policy, library)
    if probs.ndim != 1:
        raise ValueError("nakagami_lower_bound evaluates one policy at a time")
    cached = probs > 0
    p = probs[cached]
    # at s = m_D tau r^alpha / P, W = (r / v*)^alpha = m_I / (m_D tau) does
    # not depend on r, so neither do the a_n of s^n g^(n)(s) = a_n pi lambda r^2
    with np.errstate(over="ignore", divide="ignore"):
        W = params.fading_interf / (m_d * tau[cached])
    _require_resolvable(np.isfinite(W), library.rates[cached], c,
                        "m_I / (m_D tau) overflows at tau = 2^(c rate) - 1")
    if np.any(W == 0):  # m_D tau overflowed, and W^(-delta) would divide by zero
        raise ValueError(f"c * max(rate) = {c * np.max(library.rates[cached]):g} is too large "
                         f"at m_D = {m_d:g}: m_D tau overflows")
    a = W ** (-params.delta) * _exponent_coefficients(W, p, params, int(m_d) - 1)
    unit = p - a[0]
    per_content = p / unit * np.sum(_success_polynomial(a / unit), axis=0)
    return float(np.sum(library.popularity[cached] * per_content))


def mean_load_m1(f, p, user_density: float, helper_density: float):
    """Mean load of the helper serving the typical user for single-slot caches.

    1 + 1.28 f user_density / (p helper_density): one for the typical user
    plus the size-biased share of other users requesting the same content.
    f and p may be arrays, taken elementwise (an overflow gives inf).
    """
    if not np.all((0 < p) & (p < math.inf)):  # NaN fails too
        raise ValueError(f"p must be > 0 and finite, got {p}: with no helpers caching the "
                         "content the load is unbounded")
    if not 0 <= user_density < math.inf:
        raise ValueError(f"user_density must be >= 0 and finite, got {user_density}")
    if not 0 < helper_density < math.inf:
        raise ValueError(f"helper_density must be > 0 and finite, got {helper_density}")
    with np.errstate(over="ignore"):
        return 1.0 + 1.28 * f * user_density / (p * helper_density)
