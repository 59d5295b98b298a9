import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import hyp2f1

import quad_oracle
from cachegeo.analytics import (
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
from cachegeo.model import ContentLibrary, NetworkParams, zipf_popularity


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


class TestIntensity:
    def test_zero_probability_gives_null_process(self):
        params = make_params()
        assert intensity_xi(1.3, 0.0, params) == 0.0

    def test_prefactor_rayleigh_alpha4(self):
        # Gamma(1.5)/Gamma(1) = sqrt(pi)/2
        params = make_params(alpha=4.0, m_d=1.0)
        y = 1.0
        expected = params.helper_density * math.pi * 0.5 * math.sqrt(math.pi) / 2.0
        assert intensity_xi(y, 1.0, params) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("xi", [0.1, 1.0, 10.0])
    def test_integral_matches_cdf_exponent(self, xi):
        params = make_params(alpha=2.5, m_d=3.0)
        p = 0.7
        val, _ = integrate.quad(lambda y: intensity_xi(y, p, params), 0.0, xi, epsabs=1e-12)
        kappa = NoiseConstants.from_params(make_library(1), params).kappa
        assert val == pytest.approx(kappa * p * xi**params.delta, abs=1e-10)


class TestXi1Cdf:
    def test_limits(self):
        params = make_params()
        assert xi1_cdf(0.0, 1.0, params) == 0.0
        assert xi1_cdf(1e12, 1.0, params) == pytest.approx(1.0, abs=1e-9)

    def test_unit_exponent_point(self):
        params = make_params(alpha=2.5, m_d=1.0)
        kappa = NoiseConstants.from_params(make_library(1), params).kappa
        xi = 2.0
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
            NoiseConstants.from_params(lib, params)
        with pytest.raises(ValueError, match="snr_db"):
            success_noise(lib, params, np.full(3, 0.5))

    def test_scalar_case_unit_exponent(self):
        params = make_params()
        consts = NoiseConstants.from_params(make_library(1), params)
        # solve for the rate that makes kappa * T = 1
        ratio = (1.0 / consts.kappa) ** (1.0 / params.delta)
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


class TestHypergeometricConstants:
    def test_c_alpha_at_four(self):
        assert c_alpha(4.0) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_c_alpha_rejects_critical_exponent(self):
        with pytest.raises(ValueError):
            c_alpha(2.0)

    def test_arctangent_identity(self):
        # 2F1(1, 1/2; 3/2; -1) = arctan(1) = pi/4
        assert c_tau_alpha(1.0, 4.0) == pytest.approx(math.pi / 4.0, rel=1e-10)

    def test_matches_hypergeometric_series(self):
        for tau in (0.2, 1.0, 3.0, 40.0):
            for alpha in (2.5, 3.0, 4.0, 6.0):
                delta = 2.0 / alpha
                expected = tau ** (-delta) * hyp2f1(1.0, delta, 1.0 + delta, -1.0 / tau)
                assert c_tau_alpha(tau, alpha) == pytest.approx(expected, rel=1e-9)

    def test_large_tau_saturates_a_to_one(self):
        tau = 1e9
        alpha = 3.0
        A = tau ** (2.0 / alpha) * c_tau_alpha(tau, alpha)
        assert A == pytest.approx(1.0, abs=1e-3)

    def test_a_in_unit_interval_and_below_b(self):
        taus = np.geomspace(1e-4, 1e4, 50)
        alphas = np.linspace(2.05, 8.0, 50)
        for alpha in alphas:
            ca = c_alpha(alpha)
            delta = 2.0 / alpha
            for tau in taus:
                A = tau**delta * c_tau_alpha(tau, alpha)
                B = tau**delta * ca
                assert 0.0 < A <= 1.0 + 1e-12
                assert B > A

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
        tau, alpha = 1e-8, 3.0
        delta = 2.0 / alpha
        value = c_tau_alpha(tau, alpha)
        A, B = tau**delta * value, tau**delta * c_alpha(alpha)
        assert 0.0 < A <= 1.0 < B / A
        # 1 - A/B = I_{tau/(1+tau)}(1 - delta, delta)
        #         ~ tau^(1-delta) / ((1-delta) B(1-delta, delta))
        leading = tau ** (1.0 - delta) / ((1.0 - delta) * math.pi / math.sin(math.pi * delta))
        assert 1.0 - A / B == pytest.approx(leading, rel=1e-2)

    def test_threshold_overflow_fails_fast(self):
        # 2^(40 * 30) overflowed to tau = inf, A = NaN, B = inf, and the
        # optimizer later failed on a [nan, nan] bracket
        with pytest.raises(ValueError, match=r"c \* max\(rate\) = 1200"):
            InterferenceConstants.from_rates(np.linspace(1.0, 30.0, 10), 3.0, 40.0)

    @pytest.mark.parametrize("field", ["tau", "A", "B"])
    def test_non_finite_constants_rejected(self, field):
        values = dict(tau=np.array([1.0]), A=np.array([0.5]), B=np.array([1.5]))
        values[field] = np.array([np.nan if field == "A" else np.inf])
        with pytest.raises(ValueError, match="finite"):
            InterferenceConstants(c=1.0, **values)

    @given(
        tau=st.floats(1e-6, 1e6),
        alpha=st.floats(2.05, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_over_b_matches_quadrature(self, tau, alpha):
        got = c_tau_alpha(tau, alpha)
        assert got == pytest.approx(quad_oracle.c_tau_alpha(tau, alpha), rel=1e-9)


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
        oracle = quad_oracle.scaled_radial
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

    @pytest.mark.parametrize("m_d,m_i", [(1, 1), (2, 1), (3, 2), (4, 2.5), (2, 0.7), (6, 1)])
    def test_matches_quadrature(self, m_d, m_i):
        lib = make_library(5, gamma=0.8, rates=[0.02, 0.3, 0.7, 1.0, 1.6])
        params = make_params(lam=1e-5, alpha=3.5, m_d=m_d, m_i=m_i)
        policy = np.array([0.95, 0.0, 0.4, 0.05, 0.0])
        expected = quad_oracle.nakagami_lower_bound(lib, params, policy, 2.0)
        got = nakagami_lower_bound(lib, params, policy, c=2.0)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_success_given_distance_matches_quadrature(self):
        from cachegeo.analytics import _success_given_distance

        params = make_params(lam=1e-5, alpha=3.0, m_d=4.0, m_i=2.5)
        for r in (0.5, 40.0, 300.0):
            for p in (0.0, 0.3, 1.0):
                expected = quad_oracle.success_given_distance(r, 0.8, p, params)
                got = _success_given_distance(r, 0.8, p, params)
                assert got == pytest.approx(expected, rel=1e-10)

    def test_uncached_content_contributes_nothing(self):
        lib = make_library(2, rates=[0.5, 0.5])
        params = make_params(lam=1e-5, alpha=3.0)
        only_first = nakagami_lower_bound(lib, params, np.array([0.6, 0.0]), c=2.0)
        scaled = nakagami_lower_bound(lib, params, np.array([0.6, 1e-12]), c=2.0)
        assert only_first == pytest.approx(scaled, abs=1e-6)

    def test_rejects_fractional_desired_fading(self):
        lib = make_library(1)
        params = make_params(m_d=1.5)
        with pytest.raises(NotImplementedError):
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


class TestMeanLoad:
    def test_only_typical_user_without_others(self):
        assert mean_load_m1(0.5, 0.5, 0.0, 1e-5) == 1.0

    def test_direct_substitution(self):
        assert mean_load_m1(0.5, 0.5, 2e-5, 1e-5) == pytest.approx(3.56, rel=1e-12)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            mean_load_m1(0.5, 0.0, 2e-5, 1e-5)


class TestNumericFailureSurface:
    def test_divergent_quadrature_raises(self):
        from cachegeo.errors import NumericalError

        with pytest.raises(NumericalError):
            quad_oracle.quad(lambda v: 1.0 / v, 0.0, 1.0, "divergent probe")

    def test_thresholds_decrease_with_rate(self):
        lib = make_library(4, rates=np.array([0.2, 0.5, 0.9, 1.4]))
        consts = NoiseConstants.from_params(lib, make_params())
        assert np.all(np.diff(consts.T) < 0)


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

        from cachegeo.analytics import _success_given_distance

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
        analytic = _success_given_distance(r, tau, p, params)
        assert abs(conditional.mean() - analytic) <= 3.0 * conditional.std() / math.sqrt(
            samples.size
        )
