import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from porelife.strain_life import (
    StrainLifeParams,
    WeibullLifetime,
    cycles_to_failure,
    element_lifetime,
    element_scale_array,
    strain_amplitude,
    weibull_cdf,
    weibull_pdf,
)
from oracles import trapezoid_pdf_mass

TWO_LINE = StrainLifeParams(m=2.0, A=0.1, alpha=0.3, B=0.5, beta=0.7, C=0.001)
ONE_LINE = StrainLifeParams(m=2.0, A=1.0, alpha=0.5)


def bisect_inverse(params, eps, lo=1e-6, hi=1e18):
    """Plain interval bisection, independent of the library's root finder."""
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if strain_amplitude(params, mid) > eps:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestCurve:
    def test_single_power_law(self):
        assert_allclose(strain_amplitude(ONE_LINE, 100.0), 0.1, rtol=1e-14)

    def test_two_line_value(self):
        # 0.1*10^-1.2 + 0.5*10^-2.8 + 0.001 evaluated directly
        expected = 0.1 * 10.0**-1.2 + 0.5 * 10.0**-2.8 + 0.001
        assert abs(expected - 0.0081020) < 1e-7
        assert_allclose(strain_amplitude(TWO_LINE, 1e4), expected, atol=1e-12)

    def test_asymptote(self):
        assert strain_amplitude(TWO_LINE, 1e50) == pytest.approx(TWO_LINE.C, rel=1e-9)

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(ValueError):
            strain_amplitude(ONE_LINE, 0.0)
        with pytest.raises(ValueError):
            strain_amplitude(ONE_LINE, np.array([10.0, -1.0]))

    def test_strictly_decreasing_random_params(self, rng):
        for _ in range(200):
            params = StrainLifeParams(
                m=rng.uniform(0.5, 5),
                A=rng.uniform(1e-3, 1.0),
                alpha=rng.uniform(0.05, 1.0),
                B=rng.uniform(0.0, 1.0),
                beta=rng.uniform(0.0, 2.0),
                C=rng.uniform(0.0, 1e-3),
            )
            n = np.sort(rng.uniform(1.0, 1e9, size=8))
            vals = strain_amplitude(params, n)
            assert np.all(np.diff(vals) < 0.0)


class TestInverse:
    def test_analytic_single_power(self):
        assert_allclose(cycles_to_failure(ONE_LINE, 0.1), 100.0, rtol=1e-10)

    def test_round_trip_against_bisection(self):
        eps = 0.0081020
        n = cycles_to_failure(TWO_LINE, eps)
        assert_allclose(n, bisect_inverse(TWO_LINE, eps), rtol=1e-6)
        assert_allclose(strain_amplitude(TWO_LINE, n), eps, rtol=1e-10)

    def test_below_limit_infinite(self):
        assert cycles_to_failure(TWO_LINE, TWO_LINE.C / 2) == math.inf
        assert cycles_to_failure(TWO_LINE, TWO_LINE.C) == math.inf

    def test_round_trip_random(self, rng):
        for _ in range(50):
            params = StrainLifeParams(
                m=2.0,
                A=rng.uniform(1e-3, 1.0),
                alpha=rng.uniform(0.05, 0.8),
                B=rng.uniform(0.0, 0.5),
                beta=rng.uniform(0.2, 1.5),
                C=rng.uniform(0.0, 1e-3),
            )
            top = strain_amplitude(params, 1.0)
            eps = params.C + (top - params.C) * rng.uniform(1e-6, 1.0, size=20)
            n = cycles_to_failure(params, eps)
            assert_allclose(strain_amplitude(params, n), eps, rtol=1e-8)

    def test_closed_form_one_line_matches_bisection(self, rng):
        for _ in range(30):
            params = StrainLifeParams(
                m=2.0, A=rng.uniform(1e-3, 1.0), alpha=rng.uniform(0.05, 0.8), C=rng.uniform(0.0, 1e-3)
            )
            top = strain_amplitude(params, 1.0)
            eps = params.C + (top - params.C) * rng.uniform(0.05, 1.0, size=5)
            closed = cycles_to_failure(params, eps)
            reference = [bisect_inverse(params, float(e)) for e in eps]
            assert_allclose(closed, reference, rtol=1e-12)
        assert cycles_to_failure(ONE_LINE, np.array([0.0, 0.1]))[0] == math.inf

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError):
            cycles_to_failure(ONE_LINE, np.array([0.1, math.nan]))

    def test_vector_matches_scalar(self):
        eps = np.array([0.002, 0.05, 0.0005])
        vec = cycles_to_failure(TWO_LINE, eps)
        for e, v in zip(eps, vec):
            scalar = cycles_to_failure(TWO_LINE, float(e))
            if math.isinf(scalar):
                assert math.isinf(v)
            else:
                assert_allclose(v, scalar, rtol=1e-12)


class TestElementLifetime:
    def test_median_at_reference_volume(self):
        params = StrainLifeParams(m=2.5, A=1.0, alpha=0.5, V0=593.0)
        delta = 2.0 * strain_amplitude(params, 5000.0)
        dist = element_lifetime(params, delta, volume=params.V0)
        assert_allclose(dist.median(), 5000.0, rtol=1e-9)

    def test_below_limit_infinite(self):
        params = StrainLifeParams(m=2.0, A=1.0, alpha=0.5, C=0.01)
        dist = element_lifetime(params, delta_eps=0.01, volume=10.0)
        assert dist.is_infinite
        assert weibull_cdf(dist, 1e9) == 0.0

    def test_scale_formula_direct(self):
        # base inverse 1000 cycles, m = 2, V = 4 V0:
        # 1000 * (1 / (4 ln 2))^(1/2) = 600.5612...
        params = StrainLifeParams(m=2.0, A=1.0, alpha=0.5, V0=593.0)
        eps = strain_amplitude(params, 1000.0)
        dist = element_lifetime(params, 2.0 * eps, volume=4.0 * params.V0)
        assert_allclose(dist.scale, 1000.0 / (2.0 * math.sqrt(math.log(2.0))), atol=1e-3)
        assert_allclose(dist.scale, 600.561, atol=1e-3)

    def test_scale_monotone_in_volume_and_strain(self):
        params = StrainLifeParams(m=2.0, A=0.05, alpha=0.3, C=1e-4)
        volumes = np.logspace(-3, 3, 13)
        scales = [element_lifetime(params, 0.004, v).scale for v in volumes]
        assert np.all(np.diff(scales) < 0.0)
        deltas = np.linspace(0.001, 0.05, 25)
        scales = [element_lifetime(params, d, 10.0).scale for d in deltas]
        assert np.all(np.diff(scales) < 0.0)

    def test_array_path_matches_scalar(self):
        params = StrainLifeParams(m=1.7, A=0.02, alpha=0.25, C=2e-4)
        deltas = np.array([0.003, 1e-4, 0.01, 2 * params.C])
        volumes = np.array([1.0, 2.0, 0.5, 3.0])
        scales = element_scale_array(params, deltas, volumes)
        for d, v, s in zip(deltas, volumes, scales):
            ref = element_lifetime(params, float(d), float(v))
            if ref.is_infinite:
                assert math.isinf(s)
            else:
                assert_allclose(s, ref.scale, rtol=1e-12)


class TestWeibull:
    def test_median_identity(self):
        dist = WeibullLifetime(scale=1000.0, shape=2.0)
        assert_allclose(weibull_cdf(dist, 1000.0 * math.log(2.0) ** 0.5), 0.5, atol=1e-9)

    def test_infinite_scale(self):
        dist = WeibullLifetime.infinite(2.0)
        assert weibull_cdf(dist, 1e9) == 0.0
        assert weibull_pdf(dist, 1e9) == 0.0

    def test_direct_value(self):
        dist = WeibullLifetime(scale=3e6, shape=2.0)
        assert_allclose(weibull_cdf(dist, 2e6), 1.0 - math.exp(-4.0 / 9.0), atol=1e-5)

    def test_cdf_is_distribution(self):
        dist = WeibullLifetime(scale=1234.0, shape=1.6)
        grid = np.linspace(0.0, 20 * dist.scale, 500)
        cdf = weibull_cdf(dist, grid)
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert_allclose(cdf, 1.0 - np.exp(-((grid / dist.scale) ** dist.shape)), atol=1e-14)

    def test_pdf_integrates_to_one(self):
        dist = WeibullLifetime(scale=1000.0, shape=2.0)
        assert abs(trapezoid_pdf_mass(dist, 20 * dist.scale) - 1.0) < 1e-6

    def test_quantile_inverts_cdf(self):
        dist = WeibullLifetime(scale=5e4, shape=1.3)
        for q in (0.01, 0.15, 0.5, 0.85, 0.99):
            assert_allclose(weibull_cdf(dist, dist.quantile(q)), q, rtol=1e-12)


class TestValidation:
    def test_params_reject_nonpositive(self):
        with pytest.raises(ValueError):
            StrainLifeParams(m=0.0, A=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            StrainLifeParams(m=1.0, A=1.0, alpha=0.5, C=-1e-4)

    @pytest.mark.parametrize("name", ["m", "A", "alpha", "B", "beta", "C", "V0"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_reject_non_finite(self, name, value):
        fields = dict(m=2.0, A=0.01, alpha=0.2, B=0.0, beta=0.0, C=3e-4, V0=593.0)
        fields[name] = value
        with pytest.raises(ValueError, match="finite"):
            StrainLifeParams(**fields)

    def test_lifetime_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            WeibullLifetime(scale=0.0, shape=1.0)
        with pytest.raises(ValueError):
            WeibullLifetime(scale=100.0, shape=0.0)

    def test_vector_round_trip(self):
        vec = TWO_LINE.as_vector()
        back = StrainLifeParams.from_vector(vec, TWO_LINE.V0)
        assert back == TWO_LINE
