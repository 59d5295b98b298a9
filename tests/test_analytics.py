import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import hyp2f1

import quad_oracle
import run_matrix
from cachegeo.analytics import (
    InterferenceConstants,
    _a_over_b,
    _exponent_coefficients,
    _fading_moment,
    _gamma_ratio,
    _kappa,
    _noise_thresholds,
    _success_polynomial,
    c_alpha,
    mean_load_m1,
    nakagami_lower_bound,
    rayleigh_lower_bound,
    success_noise,
    xi1_cdf,
)
from cachegeo.model import ContentLibrary, NetworkParams, uniform_rates, zipf_popularity


def make_params(lam=0.05, alpha=3.0, m_d=1.0, m_i=1.0, snr=100.0, lam_u=0.002):
    return NetworkParams(
        helper_density=lam,
        user_density=lam_u,
        tx_power=1.0,
        noise_power=1.0 / snr,
        pathloss_exp=alpha,
        fading_desired=m_d,
        fading_interf=m_i,
    )


def make_library(count, gamma=1.0, rates=None):
    pop = zipf_popularity(count, gamma)
    if rates is None:
        rates = np.ones(count)
    return ContentLibrary(count, pop, np.asarray(rates, dtype=float))


def laplace_interference(s: float, r: float, p: float, params: NetworkParams) -> float:
    """Laplace transform at s of the interference seen by a user served from
    distance r when a fraction p of helpers cache the request, through the
    zeroth exponent coefficient: exp(pi lambda v*^2 c_0)."""
    if s == 0:
        return 1.0
    sp = s * params.tx_power
    W = params.fading_interf * r**params.pathloss_exp / sp
    c0 = _exponent_coefficients(W, p, params, order=0)[0]
    v_star2 = (sp / params.fading_interf) ** params.delta
    return math.exp(math.pi * params.helper_density * v_star2 * float(c0))


def test_package_exports_no_noise_constants_class():
    # kappa and the SNR thresholds are private helpers; the CDF is the API
    import cachegeo
    import cachegeo.analytics as analytics

    assert "NoiseConstants" not in analytics.__all__
    assert not hasattr(cachegeo, "NoiseConstants")
    assert not hasattr(analytics, "NoiseConstants")
    assert {"xi1_cdf", "success_noise"} <= set(analytics.__all__)
    assert not any(name.startswith("_") for name in analytics.__all__)


def _python(script: str) -> str:
    """The stdout of `script` in a fresh interpreter that sees this one's sys.path."""
    return subprocess.run([sys.executable, "-c", script], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout


@pytest.mark.parametrize("modules, absent", [
    ("cachegeo", ("cachegeo.", "numpy", "scipy")),
    ("cachegeo.model, cachegeo.placement, cachegeo.errors", ("scipy",)),
    ("cachegeo.experiments, cachegeo.cli", ("scipy",)),
], ids=["package", "model-placement-errors", "experiments-cli"])
def test_import_loads_only_what_it_names(modules, absent):
    # the package root once re-exported every module, so `import cachegeo.model`
    # loaded scipy through the analytics
    loaded = _python(f"import sys, {modules}\n"
                     f"print(sorted(m for m in sys.modules if m.startswith({absent!r})))")
    assert loaded.strip() == "[]"


def test_no_run_matrix_case_loads_scipy(tmp_path):
    # the analytics imported scipy.special when loaded, for every run; then
    # betainc loaded it on every interference run (optimize-sir, the
    # interference figures and approx-check), until A / B became a series.
    # The run matrix holds a case for every scenario, figure, load mode and
    # c_mode; all run in one fresh interpreter
    loaded = _python(
        "import sys\n"
        "import run_matrix\n"
        "for case in run_matrix.CASES:\n"
        f"    run_matrix.run(case, 16, 1, {str(tmp_path)!r})\n"
        "    print(case.id, 'scipy' in sys.modules)\n"
    ).split()
    assert len(loaded) == 2 * len(run_matrix.CASES)
    assert [case for case, scipy in zip(loaded[::2], loaded[1::2]) if scipy != "False"] == []


class TestIntensity:
    @pytest.mark.parametrize("xi", [0.1, 1.0, 10.0])
    def test_integral_matches_cdf_exponent(self, xi):
        params = make_params(alpha=2.5, m_d=3.0)
        p, delta, m = 0.7, params.delta, params.fading_desired

        def intensity(y):
            # of the reciprocal-gain process, from its definition
            moment = math.gamma(m + delta) / (math.gamma(m) * m**delta)
            return p * params.helper_density * math.pi * delta * y ** (delta - 1.0) * moment

        val, _ = integrate.quad(intensity, 0.0, xi, epsabs=1e-12)
        kappa = _kappa(params)
        assert val == pytest.approx(kappa * p * xi**params.delta, abs=1e-10)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_fading_moment_matches_high_precision(self, alpha):
        # the log-Gamma difference cancelled as m grew: 0.049 at m = 1e15 and
        # 4.6e-12 at m = 1e17, where the moment is 1 to double precision
        import mpmath

        delta = 2.0 / alpha
        for m in [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 9.99, 10.0, 30.0, 1e2, 1e3, 1e4,
                  1e6, 1e10, 1e15, 1e17, 1e50, 1e100, 1e200, 1e300]:
            # the reference cancels too unless its digits outgrow log10(m)
            with mpmath.workdps(int(math.log10(m)) + 40):
                M, D = mpmath.mpf(m), mpmath.mpf(delta)
                ref = float(mpmath.exp(mpmath.loggamma(M + D) - mpmath.loggamma(M) - D * mpmath.log(M)))
            assert _fading_moment(delta, m) == pytest.approx(ref, rel=1e-11, abs=0), m

    @pytest.mark.parametrize("m_i", [0.5, 1.0, 2.5, 5.0, 50.0, 1e3, 1e6])
    def test_gamma_ratio_matches_high_precision(self, m_i):
        # scipy's beta erred by up to 1.7e-12 relative at m_I = 1e3 and 2.4e-9 at 1e6
        import mpmath

        for n in range(8):
            with mpmath.workdps(50):
                poch = float(mpmath.rf(m_i, n))
            assert _gamma_ratio(m_i, n) == pytest.approx(poch, rel=1e-14, abs=0), n
            for alpha in [2.05, 3.0, 4.0, 8.0, 100.0]:
                # B(a, b) = Gamma(b) / [Gamma(a + b) / Gamma(a)]
                a, b = m_i + 2.0 / alpha, max(n, 1) - 2.0 / alpha
                with mpmath.workdps(50):
                    beta = float(mpmath.beta(a, b))
                rel = 4e-15 if m_i <= 5 else 5e-14
                assert math.gamma(b) / _gamma_ratio(a, b) == pytest.approx(beta, rel=rel, abs=0), \
                    (n, alpha)

    @pytest.mark.parametrize("m_i", [0.5, 1.0, 2.5, 5.0, 50.0, 1e3, 1e6])
    def test_radial_scales_match_high_precision(self, m_i):
        # the products _radial_integrals takes in place of (m_I)_n B(m_I + delta,
        # n - delta) / (n - 1)! and m_I B(m_I + delta, 1 - delta), whose factors
        # overflowed on their own; every _gamma_ratio call has s = delta < 1
        import mpmath

        for alpha in [2.05, 3.0, 4.0, 8.0, 100.0]:
            delta = 2.0 / alpha
            for n in [0, 1, 2, 3, 7, 29, 30, 31, 50, 120, 170]:
                with mpmath.workdps(50):
                    M, D = mpmath.mpf(m_i), mpmath.mpf(delta)
                    if n == 0:
                        ref = float(M * mpmath.beta(M + D, 1 - D))
                    else:
                        ref = float(mpmath.rf(M, n) * mpmath.beta(M + D, n - D)
                                    / mpmath.factorial(n - 1))
                other = math.gamma(1.0 - delta) if n == 0 else 1.0 / _gamma_ratio(n - delta, delta)
                got = _gamma_ratio(m_i, delta) * other
                assert got == pytest.approx(ref, rel=1e-14, abs=0), (alpha, n)


class TestXi1Cdf:
    def test_limits(self):
        params = make_params()
        assert xi1_cdf(0.0, 1.0, params) == 0.0
        assert xi1_cdf(1e12, 1.0, params) == pytest.approx(1.0, abs=1e-9)

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError, match="xi must be >= 0"):
            xi1_cdf(np.array([1.0, -1e-9]), 1.0, make_params())

    def test_unit_exponent_point(self):
        params = make_params(alpha=2.5, m_d=1.0)
        kappa = _kappa(params)
        xi = 20.0  # large enough that p = 0.62 is a probability
        p = 1.0 / (kappa * xi**params.delta)
        assert xi1_cdf(xi, p, params) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_monotone_in_density_and_fading(self):
        xi = np.linspace(0.01, 50.0, 40)
        base = xi1_cdf(xi, 1.0, make_params(lam=0.05, alpha=2.5, m_d=1.0))
        denser = xi1_cdf(xi, 1.0, make_params(lam=0.2, alpha=2.5, m_d=1.0))
        steadier = xi1_cdf(xi, 1.0, make_params(lam=0.05, alpha=2.5, m_d=3.0))
        assert np.all(denser >= base)
        assert np.all(steadier >= base)


class TestSuccessNoise:
    def test_nothing_cached_fails(self):
        lib = make_library(4)
        params = make_params()
        assert success_noise(lib, params, np.zeros(4)) == 0.0

    def test_zero_noise_power_rejected(self):
        # an infinite SNR made kappa p T = 0 * inf, a NaN success probability
        lib = make_library(3)
        params = NetworkParams(0.05, 0.002, 1.0, 0.0, 3.0)
        with pytest.raises(ValueError, match="noise_power"):
            _noise_thresholds(lib, params)
        with pytest.raises(ValueError, match="snr_db"):
            success_noise(lib, params, np.full(3, 0.5))

    def test_overflowing_rate_names_the_rate(self):
        # 2^rate overflowed with a RuntimeWarning, then T = 0 failed as
        # "threshold factors must be positive"
        lib = make_library(2, rates=[1.0, 2000.0])
        with pytest.raises(ValueError, match=r"max\(rate\) = 2000 overflows"):
            _noise_thresholds(lib, make_params())

    def test_thresholds_match_high_precision(self):
        # 2^rho - 1 was taken as power(2, rho) - 1, which cancels: 1e-4 off at
        # rho = 1e-12, 1.6e-9 off at 1e-8, and refused as 0 below about 1.6e-16;
        # then as expm1(rho ln 2), 1.8e-15 off at rho = 100 and 6.9e-14 at 1000
        import mpmath

        rates = [1e-300, 1e-16, 1e-12, 1e-8, 1e-3, 0.5, 3.0, 100.0, 1000.0]
        params = make_params()
        theta = _noise_thresholds(make_library(len(rates), rates=rates), params)
        with mpmath.workdps(50):
            exact = [float(mpmath.mpf(params.snr) / mpmath.expm1(mpmath.mpf(r) * mpmath.log(2)))
                     for r in rates]
        assert np.all(np.abs(theta / exact - 1.0) <= 4e-16), theta / exact - 1.0

    def test_scalar_case_unit_exponent(self):
        params = make_params()
        kappa = _kappa(params)
        # solve for the rate that makes kappa * T = 1
        ratio = (1.0 / kappa) ** (1.0 / params.delta)
        rho = math.log2(1.0 + params.snr / ratio)
        lib = make_library(1, rates=[rho])
        got = success_noise(lib, params, np.ones(1))
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_equals_popularity_weighted_cdf(self):
        lib = make_library(6, gamma=0.8, rates=np.linspace(0.2, 1.0, 6))
        params = make_params()
        rng = np.random.default_rng(3)
        p = rng.random(6) * 0.5
        direct = success_noise(lib, params, p)
        thresholds = params.snr / (2.0**lib.rates - 1.0)
        via_cdf = sum(
            lib.popularity[i] * xi1_cdf(thresholds[i], p[i], params) for i in range(6)
        )
        assert direct == pytest.approx(via_cdf, rel=1e-12)

    def test_is_the_xi1_cdf_at_each_threshold_bit_for_bit(self):
        lib = make_library(5, gamma=0.7, rates=np.linspace(0.3, 1.5, 5))
        params = make_params(alpha=2.5, m_d=3.0)
        theta = _noise_thresholds(lib, params)
        batch = np.random.default_rng(11).random((4, 5))
        for policy in (batch[0], batch):
            expected = np.sum(lib.popularity * xi1_cdf(theta, policy, params), axis=-1)
            assert np.array_equal(success_noise(lib, params, policy), expected)

    def test_threshold_rounding_to_zero_rejected(self):
        # snr = tx_power / noise_power underflows to 0; the message named only
        # "threshold factors"
        lib = make_library(3)
        params = NetworkParams(0.05, 0.002, 1e-300, 1e300, 3.0)
        with pytest.raises(ValueError, match="rounds to 0"):
            success_noise(lib, params, np.full(3, 0.5))

    def test_batched_policies_broadcast(self):
        lib = make_library(3)
        params = make_params()
        batch = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 0.5]])
        got = success_noise(lib, params, batch)
        assert got.shape == (2,)
        assert got[0] == pytest.approx(success_noise(lib, params, batch[0]))

    def test_concave_nondecreasing_per_content(self):
        lib = make_library(3)
        params = make_params()
        base = np.array([0.2, 0.3, 0.1])
        h = 1e-5
        for i in range(3):
            up = base.copy()
            up[i] += h
            down = base.copy()
            down[i] -= h
            f0 = success_noise(lib, params, base)
            fup = success_noise(lib, params, up)
            fdown = success_noise(lib, params, down)
            assert fup >= f0 >= fdown
            assert fup - 2 * f0 + fdown <= 1e-12  # concavity


def constants_at(tau, alpha):
    """InterferenceConstants for one content with SIR threshold tau (c = 1):
    A = tau^delta C_{tau,alpha} = 2F1(1, delta; 1 + delta; -1/tau)."""
    rates = np.log1p(np.asarray(tau, dtype=float)) / math.log(2.0)
    return InterferenceConstants.from_rates(np.atleast_1d(rates), alpha, 1.0)


def distance_exponents(tau, p, params):
    """a_0..a_{m_D-1} with s^n g^(n)(s) = a_n pi lambda r^2 at s = m_D tau r^alpha / P,
    computed as nakagami_lower_bound computes them (W = (r / v*)^alpha), which
    carries a_n / (n - 1)! for n >= 1."""
    m_d = int(params.fading_desired)
    W = params.fading_interf / (m_d * np.asarray(tau, dtype=float))
    scaled = W ** (-params.delta) * _exponent_coefficients(W, p, params, m_d - 1)
    return scaled * np.array([1.0] + [math.factorial(n - 1) for n in range(1, m_d)])


def success_given_distance(r, tau, p, params):
    """P[fading beats the interference threshold | serving distance r]:
    e^(a_0 y) Q(y) at y = pi lambda r^2, the integrand of the distance
    average in nakagami_lower_bound."""
    a = distance_exponents(tau, p, params)
    y = math.pi * params.helper_density * r * r
    # _success_polynomial takes a_n / (n - 1)! for n >= 1 and gives j! [y^j] Q(y)
    factorials = np.array([math.factorial(j) for j in range(len(a))], dtype=float)
    q = _success_polynomial(a / np.append(1.0, factorials[:-1])) / factorials
    return math.exp(a[0] * y) * float(np.polyval(q[::-1], y))


def series_a_over_b(t: float, delta: float) -> float:
    """A / B at one tau: I_x(a, 1 - a) = (sin(pi a) / pi) x^a sum_n (a)_n / n!
    x^n / (a + n), with x = tau / (1 + tau) and a = 1 - delta below tau = 1
    (A / B = 1 - I) and x = 1 / (1 + tau), a = delta from there, summed
    term by term until x^n <= 2^-54 for this entry alone."""
    small = t < 1.0
    a = 1.0 - delta if small else delta
    x = np.array([t / (1.0 + t) if small else 1.0 / (1.0 + t)])
    steps = math.ceil(54.0 / -math.log2(x[0])) if x[0] > 0.0 else 0
    term = np.array([1.0 / a])
    total = term.copy()
    for n in range(steps):
        term = term * x * ((a + n) * (a + n) / ((n + 1) * (a + n + 1)))
        total = total + term
    value = total * (math.sin(math.pi * min(a, 1.0 - a)) / math.pi) * x**a
    return float(1.0 - value[0] if small else value[0])


class TestHypergeometricConstants:
    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 7.5])
    def test_a_over_b_takes_one_branch_per_entry(self, alpha):
        delta = 2.0 / alpha
        edges = [0.0, 1e-300, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1e300]
        tau = np.random.default_rng(5).permutation(np.r_[edges, np.geomspace(1e-12, 1e12, 49)])
        assert np.array_equal(_a_over_b(tau, delta), [series_a_over_b(t, delta) for t in tau])
        for t in edges:
            got = _a_over_b(t, delta)
            assert got.shape == () and np.array_equal(got, series_a_over_b(t, delta))
        assert _a_over_b(np.empty(0), delta).shape == (0,)

    def test_a_over_b_against_high_precision(self):
        # the worst relative error over this grid, against 50-digit values at
        # the float tau and delta, was 4.4e-16 for the series and 6.1e-16 for
        # scipy 1.17's two-branch betainc (both at alpha = 2.05, tau = 6e-5)
        import mpmath

        tau = np.geomspace(1e-300, 1e300, 72)
        worst = 0.0
        for alpha in (2.05, 2.5, 3.0, 4.0, 7.5, 20.0, 100.0):
            got = _a_over_b(tau, 2.0 / alpha)
            with mpmath.workdps(50):
                d = mpmath.mpf(2.0 / alpha)
                for t, value in zip(tau, got):
                    T = mpmath.mpf(t)
                    if t < 1.0:
                        exact = 1 - mpmath.betainc(1 - d, d, 0, T / (1 + T), regularized=True)
                    else:
                        exact = mpmath.betainc(d, 1 - d, 0, 1 / (1 + T), regularized=True)
                    worst = max(worst, float(abs(value - exact) / exact))
        assert worst <= 6e-16

    def test_c_alpha_at_four(self):
        assert c_alpha(4.0) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_c_alpha_rejects_critical_exponent(self):
        with pytest.raises(ValueError):
            c_alpha(2.0)

    def test_arctangent_identity(self):
        # tau = 1, alpha = 4: 2F1(1, 1/2; 3/2; -1) = arctan(1) = pi/4
        consts = constants_at(1.0, 4.0)
        assert consts.tau[0] == pytest.approx(1.0, rel=1e-15)
        assert consts.A[0] == pytest.approx(math.pi / 4.0, rel=1e-10)

    def test_matches_hypergeometric_series(self):
        for alpha in (2.5, 3.0, 4.0, 6.0):
            delta = 2.0 / alpha
            consts = constants_at([0.2, 1.0, 3.0, 40.0], alpha)
            expected = hyp2f1(1.0, delta, 1.0 + delta, -1.0 / consts.tau)
            np.testing.assert_allclose(consts.A, expected, rtol=1e-9)
            np.testing.assert_allclose(consts.B, consts.tau**delta * c_alpha(alpha), rtol=1e-15)

    def test_large_tau_saturates_a_to_one(self):
        assert constants_at(1e9, 3.0).A[0] == pytest.approx(1.0, abs=1e-3)

    def test_a_in_unit_interval_and_below_b(self):
        taus = np.geomspace(1e-4, 1e4, 50)
        for alpha in np.linspace(2.05, 8.0, 50):
            consts = constants_at(taus, alpha)
            assert np.all((consts.A > 0.0) & (consts.A <= 1.0))
            assert np.all(consts.B > consts.A)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0, 5.0, 6.0])
    def test_a_never_rounds_above_one(self, alpha):
        # B * (A / B) rounded to as much as 1 + 6.7e-16 at c rho >= 8 (369
        # of these 400 contents at alpha = 6, c = 128)
        rates = np.linspace(0.02, 8.0, 400)
        for c in (1.0, 8.0, 16.0, 32.0, 64.0, 128.0):
            assert np.all(InterferenceConstants.from_rates(rates, alpha, c).A <= 1.0)

    def test_a_above_one_rejected(self):
        with pytest.raises(ValueError, match="A must lie"):
            InterferenceConstants(tau=np.array([5.0]), A=np.array([1.0 + 2e-16]),
                                  B=np.array([2.0]), c=1.0)

    @pytest.mark.parametrize(
        "rate,c", [(1e-20, 1.0), (1e-9, 1.0)], ids=["rate-1e-20", "rate-1e-9"]
    )
    def test_tiny_rates_give_valid_constants(self, rate, c):
        # 2^(c rho) - 1 once rounded to 0 (rate 1e-20) or sent the tail
        # quadrature into a convergence failure (rate 1e-9)
        consts = InterferenceConstants.from_rates([rate], 3.0, c)
        assert consts.tau[0] == pytest.approx(c * rate * math.log(2.0), rel=1e-9)
        assert 0.0 < consts.A[0] <= 1.0 < consts.B[0] / consts.A[0]

    def test_tiny_tau_c_tau_alpha(self):
        alpha = 3.0
        delta = 2.0 / alpha
        consts = constants_at(1e-8, alpha)
        tau, A, B = consts.tau[0], consts.A[0], consts.B[0]
        assert tau == pytest.approx(1e-8, rel=1e-12)
        assert 0.0 < A <= 1.0 < B / A
        # 1 - A/B = I_{tau/(1+tau)}(1 - delta, delta)
        #         ~ tau^(1-delta) / ((1-delta) B(1-delta, delta))
        leading = tau ** (1.0 - delta) / ((1.0 - delta) * math.pi / math.sin(math.pi * delta))
        assert 1.0 - A / B == pytest.approx(leading, rel=1e-2)

    def test_sir_threshold_matches_high_precision(self):
        # expm1(c rho ln 2) rounded c rho ln 2 first: 1.8e-15 off at c rho = 100
        import mpmath

        tau = InterferenceConstants.from_rates([25.0], 3.0, 4.0).tau[0]
        with mpmath.workdps(50):
            exact = float(mpmath.mpf(2) ** 100 - 1)
        assert abs(tau / exact - 1.0) <= 4e-16, tau / exact - 1.0

    def test_threshold_overflow_fails_fast(self):
        # 2^(40 * 30) overflowed to tau = inf, A = NaN, B = inf, and the
        # optimizer later failed on a [nan, nan] bracket
        with pytest.raises(ValueError, match=r"c \* max\(rate\) = 1200"):
            InterferenceConstants.from_rates(np.linspace(1.0, 30.0, 10), 3.0, 40.0)

    def test_threshold_underflow_fails_fast(self):
        # tau ~ 7e-51 left A/B = 1, and only "B must exceed A" was raised
        with pytest.raises(ValueError, match=r"c \* min\(rate\) = 1e-50 is too small"):
            InterferenceConstants.from_rates([1e-50], 3.0, 1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.5])
    def test_load_bound_must_be_finite_and_at_least_one(self, c):
        # c = nan passed `c < 1` and was blamed on the rate as an overflow
        with pytest.raises(ValueError, match="load bound c must be >= 1 and finite"):
            InterferenceConstants.from_rates([0.5], 3.0, c)
        with pytest.raises(ValueError, match="load bound c must be >= 1 and finite"):
            InterferenceConstants(tau=np.array([1.0]), A=np.array([0.5]), B=np.array([1.5]), c=c)

    def test_fields_are_frozen_copies(self):
        # the caller's float arrays themselves were frozen and stored
        values = dict(tau=np.array([1.0]), A=np.array([0.5]), B=np.array([1.5]))
        consts = InterferenceConstants(c=1.0, **values)
        for name, arr in values.items():
            field = getattr(consts, name)
            assert arr.flags.writeable and not field.flags.writeable
            assert field is not arr and np.array_equal(field, arr)

    @pytest.mark.parametrize("field", ["tau", "A", "B"])
    def test_non_finite_constants_rejected(self, field):
        values = dict(tau=np.array([1.0]), A=np.array([0.5]), B=np.array([1.5]))
        values[field] = np.array([np.nan if field == "A" else np.inf])
        with pytest.raises(ValueError, match="finite"):
            InterferenceConstants(c=1.0, **values)

    @pytest.mark.parametrize("field, value, message", [
        ("tau", 0.0, "tau must be positive"), ("tau", -1.0, "tau must be positive"),
        ("B", 0.5, "B must exceed A"), ("B", 0.25, "B must exceed A"),
    ], ids=["tau=0", "tau<0", "B=A", "B<A"])
    def test_constants_outside_their_domain_rejected(self, field, value, message):
        values = dict(tau=np.array([1.0]), A=np.array([0.5]), B=np.array([1.5]))
        values[field] = np.array([value])
        with pytest.raises(ValueError, match=message):
            InterferenceConstants(c=1.0, **values)

    @given(
        tau=st.floats(1e-6, 1e6),
        alpha=st.floats(2.05, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_over_b_matches_quadrature(self, tau, alpha):
        consts = constants_at(tau, alpha)
        tau = consts.tau[0]
        expected = tau ** (2.0 / alpha) * quad_oracle.c_tau_alpha(tau, alpha)
        assert consts.A[0] == pytest.approx(expected, rel=1e-9)


class TestRadialIntegrals:
    """The incomplete-beta radial integrals T_n (over (0, inf)) and H_n(x)
    (over (0, x)) against adaptive quadrature of their definitions."""

    @given(
        alpha=st.floats(2.05, 8.0),
        m_i=st.floats(0.5, 5.0),
        n=st.integers(0, 4),
        x=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_match_quadrature(self, alpha, m_i, n, x):
        from cachegeo.analytics import _radial_integrals

        head, tail = _radial_integrals(alpha, m_i, n, x**alpha)
        # _radial_integrals carries the n >= 1 integrals times (m_I)_n / (n - 1)!
        scale = 1.0 if n == 0 else math.gamma(m_i + n) / math.gamma(m_i) / math.factorial(n - 1)

        def oracle(*args):
            return scale * quad_oracle.scaled_radial(*args)

        assert head == pytest.approx(oracle(alpha, m_i, n, 0.0, x), rel=1e-9)
        assert tail == pytest.approx(oracle(alpha, m_i, n, x, math.inf), rel=1e-9)
        assert head + tail == pytest.approx(oracle(alpha, m_i, n, 0.0, math.inf), rel=1e-9)


class TestRayleighLowerBound:
    def setup_method(self):
        self.consts = InterferenceConstants(
            tau=np.array([1.0]),
            A=np.array([math.pi / 4.0]),
            B=np.array([math.pi / 2.0]),
            c=1.0,
        )
        self.lib = make_library(1)

    def test_zero_policy(self):
        assert rayleigh_lower_bound(self.lib, self.consts, np.zeros(1)) == 0.0

    def test_scalar_substitution(self):
        got = rayleigh_lower_bound(self.lib, self.consts, np.ones(1))
        assert got == pytest.approx(1.0 / (1.0 - math.pi / 4.0 + math.pi / 2.0), rel=1e-12)
        assert got == pytest.approx(0.5601, abs=1e-4)

    def test_per_content_term_shape(self):
        # g(0)=0, g' = B/((1-A)p+B)^2 > 0, g'' <= 0 by finite differences
        consts = InterferenceConstants.from_rates(np.array([0.5]), alpha=4.0, c=2.0)
        lib = make_library(1)
        h = 1e-5
        for p in (0.1, 0.5, 0.9):
            g0 = rayleigh_lower_bound(lib, consts, np.array([p]))
            gp = rayleigh_lower_bound(lib, consts, np.array([p + h]))
            gm = rayleigh_lower_bound(lib, consts, np.array([p - h]))
            slope = (gp - gm) / (2 * h)
            expected = consts.B[0] / ((1 - consts.A[0]) * p + consts.B[0]) ** 2
            assert slope == pytest.approx(expected, rel=1e-5)
            assert gp - 2 * g0 + gm <= 1e-6
        assert rayleigh_lower_bound(lib, consts, np.zeros(1)) == 0.0

    def test_constants_factory_spec(self):
        consts = InterferenceConstants.from_rates(np.array([1.0]), alpha=4.0, c=1.0)
        assert consts.tau[0] == pytest.approx(1.0)
        assert consts.A[0] == pytest.approx(math.pi / 4.0, rel=1e-9)
        assert consts.B[0] == pytest.approx(math.pi / 2.0, rel=1e-12)


class TestLaplaceInterference:
    def test_at_zero_is_one(self):
        params = make_params(alpha=4.0)
        assert laplace_interference(0.0, 10.0, 0.5, params) == 1.0

    def test_rayleigh_closed_form_without_exclusion(self):
        # for m_I=1, p=0: log L = -pi lam (s P)^(2/alpha) C_alpha
        params = make_params(lam=0.05, alpha=4.0, m_i=1.0)
        for s in (0.5, 2.0, 7.0):
            sp = s * params.tx_power
            expected = math.exp(-math.pi * params.helper_density * math.sqrt(sp) * math.pi / 2.0)
            assert laplace_interference(s, 0.0, 0.0, params) == pytest.approx(expected, rel=1e-8)

    def test_monotone_in_s_and_p(self):
        params = make_params(lam=0.01, alpha=3.0, m_i=2.0)
        vals = [laplace_interference(s, 5.0, 0.3, params) for s in (0.1, 1.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]
        more_excluded = [laplace_interference(1.0, 5.0, p, params) for p in (0.0, 0.4, 0.9)]
        assert more_excluded[0] < more_excluded[1] < more_excluded[2]
        for v in vals + more_excluded:
            assert 0.0 < v <= 1.0


class TestNakagamiLowerBound:
    def test_reduces_to_rayleigh_closed_form(self):
        lib = make_library(1, rates=[1.0])
        params = make_params(lam=1e-5, alpha=4.0, m_d=1.0, m_i=1.0)
        consts = InterferenceConstants.from_library(lib, alpha=4.0, c=1.0)
        for p in (0.1, 0.4, 1.0):
            closed = rayleigh_lower_bound(lib, consts, np.array([p]))
            numeric = nakagami_lower_bound(lib, params, np.array([p]), c=1.0)
            assert numeric == pytest.approx(closed, rel=1e-3)

    def test_rayleigh_reduction_is_exact(self):
        lib = make_library(4, gamma=0.7, rates=[0.05, 0.4, 1.0, 2.5])
        params = make_params(lam=1e-5, alpha=3.0, m_d=1.0, m_i=1.0)
        policy = np.array([1.0, 0.45, 0.0, 1e-3])
        for c in (1.0, 2.0, 7.5):
            consts = InterferenceConstants.from_library(lib, alpha=3.0, c=c)
            closed = rayleigh_lower_bound(lib, consts, policy)
            got = nakagami_lower_bound(lib, params, policy, c=c)
            assert got == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("m_d,m_i", [(1, 1), (2, 1), (3, 2), (4, 2.5), (2, 0.7), (6, 1),
                                         (3, 50), (4, 1e3)])
    def test_matches_quadrature(self, m_d, m_i):
        lib = make_library(5, gamma=0.8, rates=[0.02, 0.3, 0.7, 1.0, 1.6])
        params = make_params(lam=1e-5, alpha=3.5, m_d=m_d, m_i=m_i)
        policy = np.array([0.95, 0.0, 0.4, 0.05, 0.0])
        expected = quad_oracle.nakagami_lower_bound(lib, params, policy, 2.0)
        got = nakagami_lower_bound(lib, params, policy, c=2.0)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_success_given_distance_matches_quadrature(self):
        params = make_params(lam=1e-5, alpha=3.0, m_d=4.0, m_i=2.5)
        for r in (0.5, 40.0, 300.0):
            for p in (0.0, 0.3, 1.0):
                expected = quad_oracle.success_given_distance(r, 0.8, p, params)
                got = success_given_distance(r, 0.8, p, params)
                assert got == pytest.approx(expected, rel=1e-10)

    def test_uncached_content_contributes_nothing(self):
        lib = make_library(2, rates=[0.5, 0.5])
        params = make_params(lam=1e-5, alpha=3.0)
        only_first = nakagami_lower_bound(lib, params, np.array([0.6, 0.0]), c=2.0)
        scaled = nakagami_lower_bound(lib, params, np.array([0.6, 1e-12]), c=2.0)
        assert only_first == pytest.approx(scaled, abs=1e-6)

    @pytest.mark.parametrize("alpha", [3.0, 2.05])
    def test_threshold_underflow_fails_fast(self, alpha):
        # tau ~ 7e-311 overflowed m_I / (m_D tau) and the bound came back NaN;
        # at alpha = 2.05 A/B is still below 1 there
        lib = make_library(1, rates=[1e-310])
        params = make_params(lam=1e-5, alpha=alpha, m_d=2.0)
        with pytest.raises(ValueError, match=r"c \* min\(rate\) = 1e-310 is too small"):
            nakagami_lower_bound(lib, params, np.array([0.5]), c=1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_desired_threshold_overflow_fails_fast(self):
        # tau ~ 1.6e308 is finite, but m_D tau overflowed to W = m_I / (m_D tau) = 0,
        # W^(-delta) divided by zero, and the bound came back NaN
        lib = make_library(1, rates=[1023.9])
        params = make_params(lam=1e-5, m_d=3.0)
        with pytest.raises(ValueError, match=r"c \* max\(rate\) = 1023\.9 is too large at m_D = 3"):
            nakagami_lower_bound(lib, params, np.array([0.5]), c=1.0)
        # at m_D = 1 the same threshold still gives a finite bound
        assert 0.0 < nakagami_lower_bound(lib, make_params(lam=1e-5), np.array([0.5]), c=1.0) < 1e-200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_desired_fading_up_to_171(self):
        # the k-sum once divided by k! up to k = m_D - 1: 171! overflowed into a
        # bare OverflowError from m_D = 172, after an invalid-value warning at 200
        lib = ContentLibrary(10, zipf_popularity(10, 0.8), uniform_rates(1.0, 10, 1))
        policy = np.full(10, 0.3)

        def bound(m_d):
            params = NetworkParams(1e-5, 2e-5, 1.0, 0.01, 3.0, m_d, 1.0)
            return nakagami_lower_bound(lib, params, policy, c=2.0)

        # the value with scipy's beta, poch and factorial
        assert bound(171.0) == pytest.approx(0.24222702294988405, rel=1e-14)
        for m_d in (172.0, 200.0):
            with pytest.raises(ValueError, match=r"fading_desired = \d+ is too large.*m_D = 171"):
                bound(m_d)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m_d,m_i,c,expected", [
        (120, 1e3, 1.0, 0.3319703658318417),
        (171, 2.0, 1.0, 0.3417240817952609),
        (171, 0.5, 20.0, 0.03929423554068152),
        (171, 1e3, 20.0, 0.03349359771335382),
    ])
    def test_finite_where_the_pochhammer_overflowed(self, m_d, m_i, c, expected):
        # (m_I)_n and B(m_I + delta, n - delta), whose product is moderate,
        # over- and underflowed on their own: the bound was NaN at the first,
        # second and fourth setting and inf at the third
        lib = ContentLibrary(10, zipf_popularity(10, 0.8), uniform_rates(1.0, 10, 1))
        params = NetworkParams(1e-5, 2e-5, 1.0, 0.01, 3.0, float(m_d), m_i)
        got = nakagami_lower_bound(lib, params, np.full(10, 0.3), c=c)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m_d,rho", [(4, 20), (3, 28), (2, 40), (3, 40), (4, 28), (4, 40),
                                         (3, 1), (4, 2), (5, 0.5)])
    def test_large_thresholds_match_high_precision(self, m_d, rho):
        # the powers (p - a_0)^(j+1) overflowed: the bound was 11-40 % low
        # at the first three settings and NaN at the next three; at the last
        # three the y^j terms from j = 2 on carry weight, so they check the
        # exp-composition's recurrence as well
        import warnings

        import mpmath

        lib = make_library(4, gamma=0.0, rates=[float(rho)] * 4)
        params = make_params(lam=1e-5, alpha=3.0, m_d=float(m_d), m_i=1.0)
        policy = np.full(4, 0.25)  # UC with M = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nakagami_lower_bound(lib, params, policy, c=20.0)
        # the same k-sum at 80 digits, from the same double-precision a_n
        a = distance_exponents(np.expm1(20.0 * rho * math.log(2.0)), 0.25, params)
        with mpmath.workdps(80):
            a = [mpmath.mpf(float(x)) for x in np.ravel(a)]
            P = [[mpmath.mpf(k == 0)] + [mpmath.mpf(0)] * (m_d - 1) for k in range(m_d)]
            for k in range(1, m_d):
                for j in range(k):
                    for d in range(j + 1):
                        P[k][d + 1] += math.comb(k - 1, j) * a[k - j] * P[j][d]
            p = mpmath.mpf(0.25)
            expected = float(sum(
                (-1) ** k / mpmath.factorial(k) * P[k][j] * p * mpmath.factorial(j)
                / (p - a[0]) ** (j + 1)
                for k in range(m_d) for j in range(m_d)
            ))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_fractional_desired_fading(self):
        lib = make_library(1)
        params = make_params(m_d=1.5)
        with pytest.raises(ValueError, match="fading_desired = 1.5 is not an integer"):
            nakagami_lower_bound(lib, params, np.array([0.5]), c=1.0)

    @pytest.mark.parametrize("m_d", [2.0, 3.0])
    def test_integer_fading_shapes(self, m_d):
        # m_D >= 2 exercises the derivative recursion; bound must stay in (0, 1]
        lib = make_library(1, rates=[0.5])
        params = make_params(lam=1e-5, alpha=3.5, m_d=m_d, m_i=1.0)
        val = nakagami_lower_bound(lib, params, np.array([0.7]), c=2.0)
        assert 0.0 < val <= 1.0

    def test_steadier_fading_improves_the_bound(self):
        # at a fixed placement the bound should not degrade as the desired
        # link hardens (more diversity never hurts the k-sum expansion)
        lib = make_library(1, rates=[0.5])
        vals = [
            nakagami_lower_bound(
                lib,
                make_params(lam=1e-5, alpha=3.5, m_d=m, m_i=1.0),
                np.array([0.7]),
                c=2.0,
            )
            for m in (1.0, 2.0, 3.0)
        ]
        assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("function, args, name", [
    (c_alpha, (math.nan,), "alpha"),
    (c_alpha, (math.inf,), "alpha"),
    (mean_load_m1, (0.5, math.nan, 2e-5, 1e-5), "p"),
    (mean_load_m1, (0.5, 0.5, math.nan, 1e-5), "user_density"),
    (mean_load_m1, (0.5, 0.5, 2e-5, math.nan), "helper_density"),
    (mean_load_m1, (0.5, 0.5, 2e-5, math.inf), "helper_density"),
], ids=["c_alpha-nan", "c_alpha-inf", "load-p-nan", "load-users-nan", "load-helpers-nan",
        "load-helpers-inf"])
def test_non_finite_arguments_are_refused(function, args, name):
    # c_alpha returned nan or raised ZeroDivisionError; mean_load_m1 returned
    # nan, or 1.0 at an infinite helper density
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        function(*args)


@pytest.mark.parametrize("bad", [-0.5, 2.0, math.nan])
@pytest.mark.parametrize("function", ["success_noise", "rayleigh_lower_bound",
                                      "nakagami_lower_bound", "xi1_cdf"])
def test_probabilities_outside_the_unit_interval_are_refused(function, bad):
    # at p[0] = -0.5 success_noise gave -7.55, rayleigh_lower_bound -0.0297 and
    # xi1_cdf -0.073; nakagami_lower_bound dropped a NaN or negative entry and
    # gave 0.0951; a NaN gave NaN
    lib = make_library(3, rates=[0.5] * 3)
    params = NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0)
    policy = np.array([bad, 0.5, 0.5])
    evaluate = {
        "success_noise": lambda: success_noise(lib, params, policy),
        "rayleigh_lower_bound": lambda: rayleigh_lower_bound(
            lib, InterferenceConstants.from_library(lib, 3.0, 1.0), policy),
        "nakagami_lower_bound": lambda: nakagami_lower_bound(lib, params, policy, 1.0),
        "xi1_cdf": lambda: xi1_cdf(1.0, bad, params),
    }[function]
    name = "p" if function == "xi1_cdf" else r"p\[0\]"
    what = {-0.5: "is negative", 2.0: "exceeds 1"}.get(bad, "is not a number")
    with pytest.raises(ValueError, match=rf"^{name}={bad} {what}$"):
        evaluate()


class TestMeanLoad:
    def test_only_typical_user_without_others(self):
        assert mean_load_m1(0.5, 0.5, 0.0, 1e-5) == 1.0

    def test_direct_substitution(self):
        assert mean_load_m1(0.5, 0.5, 2e-5, 1e-5) == pytest.approx(3.56, rel=1e-12)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            mean_load_m1(0.5, 0.0, 2e-5, 1e-5)

    def test_zero_helper_density_rejected(self):
        with pytest.raises(ValueError, match="helper_density must be > 0"):
            mean_load_m1(0.5, 0.5, 2e-5, 0.0)


class TestNumericFailureSurface:
    def test_divergent_quadrature_raises(self):
        from cachegeo.errors import NumericalError

        with pytest.raises(NumericalError):
            quad_oracle.quad(lambda v: 1.0 / v, 0.0, 1.0, "divergent probe")

    def test_thresholds_decrease_with_rate(self):
        lib = make_library(4, rates=np.array([0.2, 0.5, 0.9, 1.4]))
        params = make_params()
        T = _noise_thresholds(lib, params) ** params.delta
        assert np.all(np.diff(T) < 0)


class TestInterferenceOracle:
    """Brute-force check of the Laplace transform and the k-sum success term:
    interference sampled directly on a huge disc (alpha = 4 keeps the
    truncated tail ~1e-4 of the signal), fading integrated exactly per
    sample via the regularized upper incomplete gamma."""

    @staticmethod
    def interference_samples(lam, alpha, p, r, m_i, R, draws, seed):
        rng = np.random.default_rng(seed)
        out = np.empty(draws)
        mean_n = lam * math.pi * R * R
        for k in range(draws):
            n = rng.poisson(mean_n)
            radii = R * np.sqrt(rng.random(n))
            caching = rng.random(n) < p
            keep = ~(caching & (radii < r))  # helpers caching the content inside r are candidates, not interferers
            radii = radii[keep]
            gains = rng.gamma(m_i, 1.0 / m_i, radii.size)
            out[k] = np.sum(gains * radii ** (-alpha))
        return out

    @pytest.mark.parametrize("m_d,m_i,c_rho", [(1.0, 1.0, 0.3), (2.0, 1.0, 0.3), (3.0, 2.0, 0.5)])
    def test_laplace_and_success_term_match_sampling(self, m_d, m_i, c_rho):
        from scipy.special import gammaincc

        lam, alpha, P, r, p = 1e-5, 4.0, 1.0, 150.0, 0.6
        params = NetworkParams(lam, 2e-5, P, 0.0, alpha, m_d, m_i)
        samples = self.interference_samples(lam, alpha, p, r, m_i, R=3e4, draws=1500, seed=99)
        tau = 2.0**c_rho - 1.0
        s = m_d * tau * r**alpha / P

        transformed = np.exp(-s * samples)
        analytic_L = laplace_interference(s, r, p, params)
        assert abs(transformed.mean() - analytic_L) <= 3.0 * transformed.std() / math.sqrt(
            samples.size
        )

        conditional = gammaincc(m_d, m_d * tau * r**alpha * samples / P)
        analytic = success_given_distance(r, tau, p, params)
        assert abs(conditional.mean() - analytic) <= 3.0 * conditional.std() / math.sqrt(
            samples.size
        )
