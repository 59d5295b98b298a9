import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachegeo import model
from cachegeo.analytics import InterferenceConstants
from cachegeo.model import (
    MAX_COUNT,
    CachingPolicy,
    ContentLibrary,
    NetworkParams,
    budget_violation,
    uniform_rates,
    zipf_popularity,
)
from cachegeo.optimizer import optimize_interference


class TestZipfPopularity:
    def test_gamma_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_popularity(4, 0.0), [0.25] * 4)

    def test_hand_evaluated_f3(self):
        # denominator 1 + 1/2 + 1/3 = 11/6
        np.testing.assert_allclose(
            zipf_popularity(3, 1.0), [6 / 11, 3 / 11, 2 / 11], rtol=1e-14
        )

    def test_f10_leading_mass(self):
        # H_10 = 7381/2520
        f = zipf_popularity(10, 1.0)
        np.testing.assert_allclose(f[0], 2520 / 7381, rtol=1e-14)
        assert f[0] == pytest.approx(0.3414, abs=5e-5)

    def test_rejects_empty_library(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 1.0)

    @given(
        count=st.integers(min_value=1, max_value=2000),
        gamma=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_normalized_and_nonincreasing(self, count, gamma):
        f = zipf_popularity(count, gamma)
        assert abs(f.sum() - 1.0) < 1e-12
        assert np.all(np.diff(f) <= 1e-18)
        assert np.all(f > 0)

    def test_large_library_normalization(self):
        f = zipf_popularity(10**6, 5.0)
        assert abs(f.sum() - 1.0) < 1e-12


class NumpyWithoutAllocation:
    """numpy as cachegeo.model sees it, failing the test at any array constructor."""

    def __getattr__(self, name):
        if name in ("arange", "array", "empty", "full", "ones", "zeros", "random"):
            pytest.fail(f"cachegeo.model reached np.{name} before refusing the count")
        return getattr(np, name)


class TestLibraryCeiling:
    # count = 1e9 was killed for want of memory in optimize-noise; never run it unpatched
    @pytest.mark.parametrize("count", [MAX_COUNT + 1, 10**9])
    @pytest.mark.parametrize("build", [lambda n: zipf_popularity(n, 1.0),
                                       lambda n: uniform_rates(1.0, n, seed=1)],
                             ids=["zipf_popularity", "uniform_rates"])
    def test_oversized_count_refused_before_allocation(self, monkeypatch, build, count):
        monkeypatch.setattr(model, "np", NumpyWithoutAllocation())
        with pytest.raises(ValueError, match=f"count must be >= 1 and <= MAX_COUNT = "
                                             f"{MAX_COUNT}, got {count}"):
            build(count)


class TestUniformRates:
    def test_deterministic_given_seed(self):
        a = uniform_rates(1.0, 10, seed=123)
        b = uniform_rates(1.0, 10, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        rho = uniform_rates(1.0, 10**5, seed=7)
        assert abs(rho.mean() - 0.5) < 0.01

    def test_support_is_half_open_above_zero(self):
        rho = uniform_rates(0.001, 5, seed=99)
        assert np.all(rho > 0)
        assert np.all(rho <= 0.001)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            uniform_rates(0.0, 5, seed=1)


class TestValidatePolicy:
    """Policy feasibility as placement and both engines check it: budget_violation."""

    def test_memory_must_be_below_library_size(self):
        # a full cache is a feasible placement; only the optimization
        # problem is posed for M < F
        policy = CachingPolicy(probs=np.ones(3), memory=3)
        assert budget_violation(policy) is None
        lib = ContentLibrary(3, zipf_popularity(3, 1.0), np.full(3, 0.5))
        consts = InterferenceConstants.from_library(lib, 3.0, 1.0)
        with pytest.raises(ValueError, match="M < F"):
            optimize_interference(lib, consts, memory=3)

    def test_budget_violation(self):
        policy = CachingPolicy(probs=np.array([0.5, 0.5, 0.5]), memory=1)
        msg = budget_violation(policy)
        assert msg is not None and "budget" in msg

    def test_feasible_policy_passes(self):
        policy = CachingPolicy(probs=np.array([0.6, 0.3, 0.1]), memory=1)
        assert budget_violation(policy) is None

    def test_negative_and_oversized_probabilities(self):
        assert "negative" in budget_violation(CachingPolicy(np.array([-0.1, 0.5, 0.1]), 1))
        assert "exceeds 1" in budget_violation(CachingPolicy(np.array([1.2, 0.5, 0.1]), 2))
        # NaN fails every comparison: reported before the bound checks
        msg = budget_violation(CachingPolicy(np.array([0.5, np.nan, -0.1]), 1))
        assert msg == "p[1]=nan is not a number"

    def test_budget_tolerance_accepts_bisection_output(self):
        policy = CachingPolicy(probs=np.array([0.5, 0.5 + 5e-10, 0.0]), memory=1)
        assert budget_violation(policy) is None

    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
        memory=st.integers(min_value=1, max_value=11),
    )
    @settings(max_examples=80, deadline=None)
    def test_accepts_exactly_the_feasible_set(self, probs, memory):
        p = np.array(probs)
        policy = CachingPolicy(probs=p, memory=memory)
        feasible = p.sum() <= memory + 1e-9
        assert (budget_violation(policy) is None) == feasible


class TestDomainTypes:
    def test_library_rejects_unsorted_popularity(self):
        with pytest.raises(ValueError):
            ContentLibrary(2, np.array([0.3, 0.7]), np.array([1.0, 1.0]))

    def test_library_rejects_unnormalized_popularity(self):
        with pytest.raises(ValueError):
            ContentLibrary(2, np.array([0.7, 0.2]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("count, popularity, message", [
        (0, [], "at least one content"),
        (2, [1.0], "length count"),
        (2, [1.0, 0.0], "popularity entries must be > 0"),
    ], ids=["count=0", "wrong-length", "zero-popularity"])
    def test_library_rejects_bad_count_or_popularity(self, count, popularity, message):
        with pytest.raises(ValueError, match=message):
            ContentLibrary(count, np.array(popularity), np.ones(count))

    @pytest.mark.parametrize("probs, memory, message", [
        (np.full((2, 2), 0.25), 1, "1-D"),
        (np.array([0.5, 0.5]), 0, "memory must be a positive integer"),
    ], ids=["2-D", "memory=0"])
    def test_policy_rejects_bad_shape_or_memory(self, probs, memory, message):
        with pytest.raises(ValueError, match=message):
            CachingPolicy(probs, memory)

    def test_library_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ContentLibrary(2, np.array([0.7, 0.3]), np.array([1.0, 0.0]))

    def test_params_require_supercritical_pathloss(self):
        with pytest.raises(ValueError):
            NetworkParams(0.05, 0.002, 1.0, 0.01, pathloss_exp=2.0)

    @pytest.mark.parametrize("density", [0.0, -0.05])
    def test_params_require_positive_helper_density(self, density):
        with pytest.raises(ValueError, match="helper_density"):
            NetworkParams(density, 0.002, 1.0, 0.01, 3.0)

    @pytest.mark.parametrize(
        "field, value",
        [pytest.param(name, math.nan, id=name)
         for name in ("helper_density", "user_density", "tx_power", "noise_power",
                      "pathloss_exp", "fading_desired", "fading_interf")]
        # an infinite density gave c = 1 or a [nan, inf] bisection bracket
        + [pytest.param(name, math.inf, id=f"{name}-inf")
           for name in ("helper_density", "user_density")],
    )
    def test_params_reject_nan(self, field, value):
        values = dict(helper_density=0.05, user_density=0.002, tx_power=1.0, noise_power=0.01,
                      pathloss_exp=3.0, fading_desired=1.0, fading_interf=1.0)
        values[field] = value
        with pytest.raises(ValueError, match=field):
            NetworkParams(**values)

    @pytest.mark.parametrize("power", [0.0, -1.0, math.inf])
    def test_params_require_positive_finite_tx_power(self, power):
        # tx_power = 0 used to surface as an snr_db complaint or a 0/0 estimate
        with pytest.raises(ValueError, match="tx_power"):
            NetworkParams(0.05, 0.002, power, 0.01, 3.0)

    def test_params_require_half_fading(self):
        with pytest.raises(ValueError):
            NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0, fading_desired=0.2)

    @pytest.mark.parametrize("field", ["fading_desired", "fading_interf"])
    def test_params_require_finite_fading(self, field):
        with pytest.raises(ValueError, match=f"{field} .* finite"):
            NetworkParams(0.05, 0.002, 1.0, 0.01, 3.0, **{field: math.inf})

    def test_snr_with_zero_noise_is_infinite(self):
        params = NetworkParams(0.05, 0.002, 1.0, 0.0, 3.0)
        assert params.snr == np.inf

    def test_types_are_immutable(self):
        lib = ContentLibrary(2, np.array([0.7, 0.3]), np.array([1.0, 1.0]))
        with pytest.raises(Exception):
            lib.count = 5
        with pytest.raises(ValueError):
            lib.popularity[0] = 0.5
