import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from porelife.strain_life import _survival
from porelife.weakest_link import (
    DEFAULT_RUNOUT_CYCLES,
    WOHLER_QUANTILES,
    StructureLifetime,
    _linear_quantiles,
    pooled_lifetimes,
    sample_lifetimes,
    structure_scale,
    wohler_quantiles,
    write_quantile_csv,
)
from oracles import loop_pooled_draws, loop_wohler_quantiles, survival_product_cdf, weibull_cdf

#: Structures censored now and then, always (infinite life) and never.
MIXED_POOL = (
    StructureLifetime(scale=1.5e6, shape=2.0),
    StructureLifetime.infinite(2.0),
    StructureLifetime(scale=3e4, shape=4.0),
)


class TestStructureScale:
    def test_equal_elements(self):
        assert_allclose(structure_scale([100.0] * 8, 2.0), 100.0 * 8 ** -0.5, atol=1e-6)

    def test_single_element_identity_exact(self):
        assert structure_scale([123.456], 3.3) == 123.456

    def test_infinite_elements_drop_out(self):
        assert structure_scale([50.0, math.inf, math.inf], 3.0) == 50.0
        assert structure_scale([math.inf, math.inf], 2.0) == math.inf

    def test_wide_dynamic_range_no_overflow(self):
        scales = [1e-8, 1e2, 1e300, 1e12]
        out = structure_scale(scales, 4.0)
        assert 0.0 < out <= 1e-8

    def test_bound_by_minimum(self, rng):
        for _ in range(50):
            scales = rng.uniform(10.0, 1e6, size=rng.integers(2, 15))
            s = structure_scale(scales, 2.5)
            assert s < np.min(scales)

    def test_permutation_invariance(self, rng):
        scales = list(rng.uniform(1.0, 1e5, size=12))
        a = structure_scale(scales, 1.7)
        b = structure_scale(list(reversed(scales)), 1.7)
        assert_allclose(a, b, rtol=1e-13)

    def test_adding_element_decreases_scale(self, rng):
        scales = list(rng.uniform(100.0, 1e4, size=6))
        base = structure_scale(scales, 2.0)
        assert structure_scale(scales + [5e4], 2.0) < base

    def test_tiling_law(self, rng):
        scales = list(rng.uniform(10.0, 1e8, size=9))
        m = 2.2
        base = structure_scale(scales, m)
        for k in (2, 4, 8):
            tiled = structure_scale(scales * k, m)
            assert_allclose(tiled, base * k ** (-1.0 / m), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            structure_scale([], 2.0)
        with pytest.raises(ValueError):
            structure_scale([1.0], 0.0)
        with pytest.raises(ValueError):
            structure_scale([-1.0], 2.0)


class TestStructureCdf:
    def test_brute_force_product(self, rng):
        m = 2.7
        scales = rng.uniform(50.0, 5e4, size=10)
        struct = StructureLifetime(scale=structure_scale(scales, m), shape=m)
        for n in np.linspace(10.0, 1e5, 20):
            assert_allclose(
                weibull_cdf(struct, n),
                survival_product_cdf(scales, m, n),
                atol=1e-12,
            )

    def test_zero_at_origin(self):
        struct = StructureLifetime(scale=1e4, shape=2.0)
        with np.errstate(divide="ignore"):  # ln 0 = -inf
            survival = _survival(-struct.shape * math.log(struct.scale), struct.shape, np.log(0.0))
        assert 1.0 - survival == 0.0

    def test_median_identity(self):
        struct = StructureLifetime(scale=1e4, shape=3.0)
        median = 1e4 * math.log(2.0) ** (1.0 / 3.0)
        assert_allclose(struct.median(), median, rtol=1e-12)
        assert_allclose(1.0 - _survival(-3.0 * math.log(1e4), 3.0, math.log(median)), 0.5, atol=1e-12)


class TestSampling:
    def test_empirical_median(self):
        struct = StructureLifetime(scale=1000.0, shape=2.0)
        values, censored = sample_lifetimes(struct, 10**6, seed=42)
        assert_allclose(np.median(values), 1000.0 * math.log(2.0) ** 0.5, rtol=0.01)
        assert not censored.any()

    def test_deterministic(self):
        struct = StructureLifetime(scale=1e5, shape=1.5)
        a, _ = sample_lifetimes(struct, 1000, seed=7)
        b, _ = sample_lifetimes(struct, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_infinite_yields_sentinel(self):
        struct = StructureLifetime.infinite(2.0)
        values, censored = sample_lifetimes(struct, 100, seed=0, runout_cycles=2e6)
        assert np.all(values == 2e6)
        assert censored.all()

    def test_matches_inverse_cdf(self):
        struct = StructureLifetime(scale=2e4, shape=2.5)
        values, _ = sample_lifetimes(struct, 5000, seed=3)
        # every draw must satisfy the distribution exactly through the CDF
        u = weibull_cdf(struct, values)
        assert np.all((u > 0.0) & (u < 1.0))
        ks = np.max(np.abs(np.sort(u) - (np.arange(1, 5001) - 0.5) / 5000))
        assert ks < 0.03


class TestPooledLifetimes:
    @pytest.mark.parametrize("structs", [MIXED_POOL, MIXED_POOL[:1], MIXED_POOL[1:2]],
                             ids=["mixed", "one-structure", "one-infinite"])
    def test_equals_loop_oracle(self, structs):
        lifetimes, censored = pooled_lifetimes(structs, 300, np.random.SeedSequence(11), 2e6)
        want_lifetimes, want_censored = loop_pooled_draws(structs, 300, 11, 2e6)
        assert lifetimes.tobytes() == want_lifetimes.tobytes()
        assert censored.tobytes() == want_censored.tobytes()

    def test_mixed_pool_is_partly_censored(self):
        _, censored = pooled_lifetimes(MIXED_POOL, 300, np.random.SeedSequence(11), 2e6)
        assert censored[300:600].all() and not censored[600:].any()
        assert 0 < np.count_nonzero(censored[:300]) < 300

    def test_wohler_quantiles_equal_loop_oracle(self):
        structs_per_level = {40.0: MIXED_POOL, 60.0: MIXED_POOL[2:], 80.0: MIXED_POOL[1:2]}
        table = wohler_quantiles(structs_per_level, samples_per_struct=300, seed=4)
        want = loop_wohler_quantiles(structs_per_level, WOHLER_QUANTILES, 300, 4, DEFAULT_RUNOUT_CYCLES)
        assert repr(table) == repr(want)


class TestWohlerQuantiles:
    def test_single_structure_closed_form(self):
        struct = StructureLifetime(scale=1e5, shape=2.0)
        table = wohler_quantiles({80.0: [struct]}, samples_per_struct=10_000, seed=1)
        for q, value in table[80.0]["quantiles"].items():
            assert_allclose(value, struct.quantile(q), rtol=0.02)

    def test_pooling_identical_structures(self):
        struct = StructureLifetime(scale=5e4, shape=2.0)
        ten = wohler_quantiles({60.0: [struct] * 10}, samples_per_struct=2000, seed=5)
        one = wohler_quantiles({60.0: [struct]}, samples_per_struct=20_000, seed=6)
        for q in ten[60.0]["quantiles"]:
            assert_allclose(
                ten[60.0]["quantiles"][q], one[60.0]["quantiles"][q], rtol=0.05
            )

    def test_pooled_median_between_individual_medians(self):
        m = 20.0
        a = StructureLifetime(scale=1e4, shape=m)
        b = StructureLifetime(scale=2e4, shape=m)
        table = wohler_quantiles({50.0: [a, b]}, samples_per_struct=20_000, seed=2)
        q50 = table[50.0]["quantiles"][0.5]
        assert a.median() < q50 < b.median()

    def test_censored_fraction(self):
        struct = StructureLifetime(scale=2e6, shape=2.0)
        table = wohler_quantiles({40.0: [struct]}, samples_per_struct=50_000, seed=9)
        # P(N >= 2e6) = exp(-1)
        assert_allclose(table[40.0]["censored_fraction"], math.exp(-1.0), atol=0.01)

    @settings(max_examples=400)
    @given(
        # few distinct values make ties; the run-out cap is one of them
        pool=st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 1.0, 3e4, DEFAULT_RUNOUT_CYCLES])),
                      min_size=1, max_size=80),
        quantiles=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
            [0.0, 2.0**-1074, 1e-17, 0.5, 1.0 - 2.0**-53, 1.0, *WOHLER_QUANTILES])), min_size=1, max_size=6),
    )
    @example(pool=[5.0], quantiles=[2.0**-1074, 0.5, 1.0 - 2.0**-53])
    @example(pool=[DEFAULT_RUNOUT_CYCLES] * 7, quantiles=list(WOHLER_QUANTILES))
    def test_linear_quantiles_equal_numpy(self, pool, quantiles):
        pool = np.array(pool)
        before = pool.copy()
        got = _linear_quantiles(pool, quantiles)
        want = [float(np.quantile(pool, q)) for q in quantiles]
        assert got == want
        assert list(map(repr, got)) == list(map(repr, want))  # the bytes wohler.csv writes
        assert pool.tobytes() == before.tobytes()

    def test_validation(self):
        struct = StructureLifetime(scale=1e4, shape=2.0)
        with pytest.raises(ValueError):
            wohler_quantiles({})
        with pytest.raises(ValueError):
            wohler_quantiles({40.0: []})
        with pytest.raises(ValueError):
            wohler_quantiles({40.0: [struct]}, quantiles=[0.0])

    def test_csv_format(self, tmp_path):
        struct = StructureLifetime(scale=1e4, shape=2.0)
        table = wohler_quantiles({40.0: [struct], 60.0: [struct]}, samples_per_struct=100, seed=0)
        path = tmp_path / "wohler.csv"
        write_quantile_csv(path, table)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "load_MPa,q01,q15,q50,q85,q99,censored_fraction"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 40.0
