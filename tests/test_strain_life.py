import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

from porelife.strain_life import (
    StrainLifeParams,
    _curve_and_slope,
    _density,
    _survival,
    cycles_to_failure,
    element_scale_array,
)
from porelife.weakest_link import StructureLifetime
from oracles import strain_amplitude

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


def curve(params, cycles):
    """The library's forward curve, which the two-line inverse bisects, at cycle count(s)."""
    return _curve_and_slope(params, np.log(cycles))[0]


class TestCurve:
    def test_single_power_law(self):
        assert_allclose(curve(ONE_LINE, 100.0), 0.1, rtol=1e-14)

    def test_two_line_value(self):
        # 0.1*10^-1.2 + 0.5*10^-2.8 + 0.001 evaluated directly
        expected = 0.1 * 10.0**-1.2 + 0.5 * 10.0**-2.8 + 0.001
        assert abs(expected - 0.0081020) < 1e-7
        assert_allclose(curve(TWO_LINE, 1e4), expected, atol=1e-12)

    def test_asymptote(self):
        assert curve(TWO_LINE, 1e50) == pytest.approx(TWO_LINE.C, rel=1e-9)

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
            vals = curve(params, n)
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


class TestElementScale:
    def test_median_at_reference_volume(self):
        params = StrainLifeParams(m=2.5, A=1.0, alpha=0.5, V0=593.0)
        delta = 2.0 * strain_amplitude(params, 5000.0)
        dist = StructureLifetime(scale=float(element_scale_array(params, delta, params.V0)), shape=params.m)
        assert_allclose(dist.median(), 5000.0, rtol=1e-9)

    def test_below_limit_infinite(self):
        params = StrainLifeParams(m=2.0, A=1.0, alpha=0.5, C=0.01)
        assert element_scale_array(params, 0.01, 10.0) == math.inf

    def test_scale_formula_direct(self):
        # base inverse 1000 cycles, m = 2, V = 4 V0:
        # 1000 * (1 / (4 ln 2))^(1/2) = 600.5612...
        params = StrainLifeParams(m=2.0, A=1.0, alpha=0.5, V0=593.0)
        eps = strain_amplitude(params, 1000.0)
        scale = element_scale_array(params, 2.0 * eps, 4.0 * params.V0)
        assert_allclose(scale, 1000.0 / (2.0 * math.sqrt(math.log(2.0))), atol=1e-3)
        assert_allclose(scale, 600.561, atol=1e-3)

    def test_scale_monotone_in_volume_and_strain(self):
        params = StrainLifeParams(m=2.0, A=0.05, alpha=0.3, C=1e-4)
        volumes = np.logspace(-3, 3, 13)
        assert np.all(np.diff(element_scale_array(params, np.full(13, 0.004), volumes)) < 0.0)
        deltas = np.linspace(0.001, 0.05, 25)
        assert np.all(np.diff(element_scale_array(params, deltas, np.full(25, 10.0))) < 0.0)

    def test_array_path_matches_scalar(self):
        params = StrainLifeParams(m=1.7, A=0.02, alpha=0.25, C=2e-4)
        deltas = np.array([0.003, 1e-4, 0.01, 2 * params.C])
        volumes = np.array([1.0, 2.0, 0.5, 3.0])
        scales = element_scale_array(params, deltas, volumes)
        for d, v, s in zip(deltas, volumes, scales):
            ref = float(element_scale_array(params, float(d), float(v)))
            if math.isinf(ref):
                assert math.isinf(s)
            else:
                assert_allclose(s, ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "delta_eps, volume",
        [(-1e-3, 1.0), (math.nan, 1.0), (math.inf, 1.0), (3e-3, 0.0), (3e-3, -2.0), (3e-3, math.nan), (3e-3, math.inf)],
    )
    def test_array_path_rejects_what_the_scalar_path_rejects(self, delta_eps, volume):
        params = StrainLifeParams(m=1.7, A=0.02, alpha=0.25, C=2e-4)
        with pytest.raises(ValueError):
            element_scale_array(params, delta_eps, volume)
        with pytest.raises(ValueError):
            element_scale_array(params, [3e-3, delta_eps], [1.0, volume])


SHAPES = st.floats(0.3, 12.0)
SCALES = st.floats(1.0, 1e9)


class TestWeibull:
    """The kernel's density and survival, at log rate 0 and ln(n / scale) as for a lifetime in units of its scale."""

    @settings(max_examples=200, deadline=None)
    @given(shape=SHAPES, scale=st.one_of(SCALES, st.just(math.inf)), x=st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=5))
    def test_survival_matches_scipy(self, shape, scale, x):
        # x is n/scale for finite scales; an infinite scale is evaluated at n = x * 1e6;
        # below 1e-300 the survival nears the subnormals, where a relative error of 1e-12 is not kept
        n = np.array(x) * (scale if math.isfinite(scale) else 1e6)
        with np.errstate(divide="ignore"):  # ln(n / inf) = -inf
            survival = _survival(0.0, shape, np.log(n / scale))
        assert_allclose(survival, scipy_stats.weibull_min.sf(n, shape, scale=scale), rtol=1e-12, atol=1e-300)

    @settings(max_examples=200, deadline=None)
    @given(shape=SHAPES, scale=SCALES, x=st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=5))
    def test_density_matches_scipy(self, shape, scale, x):
        # below 1e-280 the density meets the hazard's e^700 cap and the log density's -700 clamp
        n = np.array(x) * scale
        density = _density(0.0, shape, np.log(n / scale)) / scale
        assert_allclose(density, scipy_stats.weibull_min.pdf(n, shape, scale=scale), rtol=1e-12, atol=1e-280)

    @pytest.mark.parametrize("shape, limit", [(0.5, math.inf), (1.0, 1e-3), (2.0, 0.0)])
    def test_pdf_limit_at_zero(self, shape, limit):
        # the kernel takes ln n, so n = 0 is approached down to 1e-300 at scale 1e3
        density = _density(-shape * math.log(1e3), shape, np.log([1e-100, 1e-200, 1e-300]))
        if math.isinf(limit):
            assert np.all(np.diff(density) > 0.0) and density[-1] > 1e140
        else:
            assert_allclose(density, limit, rtol=1e-12, atol=1e-100)

    def test_median_identity(self):
        assert_allclose(_survival(-2.0 * math.log(1000.0), 2.0, math.log(1000.0 * math.log(2.0) ** 0.5)), 0.5,
                        atol=1e-9)

    def test_infinite_scale(self):
        # log rate -inf: the survival is exactly 1, the density the -700 clamp, below the likelihood's floor
        for shape in (0.5, 1.0, 2.0):
            log_n = np.log([1.0, 1e9, 1e300])
            assert np.all(_survival(-math.inf, shape, log_n) == 1.0)
            assert np.all(_density(-math.inf, shape, log_n) == math.exp(-700.0))

    def test_direct_value(self):
        assert_allclose(_survival(-2.0 * math.log(3e6), 2.0, math.log(2e6)), math.exp(-4.0 / 9.0), atol=1e-5)

    def test_survival_is_a_distribution(self):
        scale, shape = 1234.0, 1.6
        grid = np.linspace(0.0, 20 * scale, 500)
        with np.errstate(divide="ignore"):
            survival = _survival(-shape * math.log(scale), shape, np.log(grid))
        assert survival[0] == 1.0
        assert np.all(np.diff(survival) <= 0.0)
        assert_allclose(survival, np.exp(-((grid / scale) ** shape)), atol=1e-14)

    def test_density_integrates_to_one(self):
        scale, shape = 1000.0, 2.0
        grid = np.linspace(0.0, 20 * scale, 200_001)
        # the density's limit at n = 0 is 0 for shape > 1
        density = np.append(0.0, _density(-shape * math.log(scale), shape, np.log(grid[1:])))
        assert abs(np.trapezoid(density, grid) - 1.0) < 1e-6

    def test_quantile_inverts_survival(self):
        dist = StructureLifetime(scale=5e4, shape=1.3)
        for q in (0.01, 0.15, 0.5, 0.85, 0.99):
            survival = _survival(-dist.shape * math.log(dist.scale), dist.shape, math.log(dist.quantile(q)))
            assert_allclose(survival, 1.0 - q, rtol=1e-12)


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
            StructureLifetime(scale=0.0, shape=1.0)
        with pytest.raises(ValueError):
            StructureLifetime(scale=100.0, shape=0.0)

    def test_vector_round_trip(self):
        vec = TWO_LINE.as_vector()
        back = StrainLifeParams.from_vector(vec, TWO_LINE.V0)
        assert back == TWO_LINE
