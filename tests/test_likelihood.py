import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

from porelife.field import CriterionTable, ExtrapolationError, FieldFormatError, PoreFieldStats
from porelife.likelihood import (
    LOG_FLOOR,
    OBSERVATIONS_HEADER,
    ObservationArrays,
    Homogeneous,
    ReducedTable,
    heterogeneous_objective,
    homogeneous_objective,
    load_observations,
    loglik_heterogeneous,
    loglik_homogeneous,
    loglik_unknown_pores,
    structure_for,
    unknown_pores_objective,
)
from porelife.strain_life import StrainLifeParams, element_scale_array
from porelife.weakest_link import structure_scale
from oracles import (
    chain_objective,
    failure_term,
    from_rows,
    line_load_observations,
    runout_term,
    save_observations,
    survival_product_loglik,
    table_amplitudes,
)

PARAMS = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4, V0=593.0)


def bulk_table(volume=593.0, levels=(40.0, 80.0, 120.0, 160.0), youngs=75500.0):
    levels = np.asarray(levels, dtype=float)
    return CriterionTable(
        element_ids=np.array([0]),
        volumes=np.array([volume]),
        load_levels=levels,
        delta_eps=(2.0 * levels / youngs)[None, :],
    )


def columns(obs):
    """The amplitude, cycle and run-out columns of observations as lists; every row must count one."""
    assert obs.count.tolist() == [1] * len(obs)
    return obs.sigma_a.tolist(), obs.n_cycles.tolist(), obs.censored.tolist()


def scipy_pdf(scale, shape, n):
    return scipy_stats.weibull_min.pdf(n, shape, scale=scale)


def scipy_survival(scale, shape, n):
    return scipy_stats.weibull_min.sf(n, shape, scale=scale)


#: Spellings of a float both observation readers take.
FLOAT_SPELLINGS = (repr, "{:.17g}".format, "{:.17e}".format, lambda value: f" {value!r}\t")
#: Lines both observation readers skip between rows.
OBSERVATION_FILLER = st.sampled_from(["", "   ", "# a comment", "  # indented: comment", "#"])
#: Amplitude or cycle cells that neither reader takes: unparseable, non-finite or nonpositive.
BAD_NUMBERS = st.sampled_from(["abc", "", "1.0.0", "0x1p3", "1 # c", "5x", "nan", "inf", "-inf", "0", "-1.5", "-0.0"])
#: Censored flags that neither reader takes (``01``, ``+1`` and ``-0`` are integer spellings only the new one takes).
BAD_FLAGS = st.sampled_from(["7", "2", "-1", "10", "true", "", " ", "1.0", "1e0", "0x1", "yes", "nan"])


@st.composite
def observation_lines(draw):
    """The lines of a valid observations file, with comments and blank lines around its rows, and its rows' indices."""
    lines = draw(st.lists(st.sampled_from(["# source: lab", "", "# a comment"]), max_size=2)) + [OBSERVATIONS_HEADER]
    rows = []
    positive = st.floats(1e-300, 1e300)
    for sigma_a, n_cycles, censored in draw(st.lists(st.tuples(positive, positive, st.booleans()), min_size=1, max_size=6)):
        lines += draw(st.lists(OBSERVATION_FILLER, max_size=2))
        rows.append(len(lines))
        sigma_cell, cycles_cell = (draw(st.sampled_from(FLOAT_SPELLINGS))(v) for v in (sigma_a, n_cycles))
        lines.append(f"{sigma_cell},{cycles_cell},{draw(st.sampled_from(['', ' ']))}{int(censored)}")
    return lines + draw(st.lists(OBSERVATION_FILLER, max_size=2)), rows


class TestObservationFiles:
    def test_round_trip(self, tmp_path):
        obs = ObservationArrays([80.0, 60.0], [12345.0, 2e6], [False, True])
        path = tmp_path / "obs.csv"
        save_observations(path, obs)
        assert columns(load_observations(path)) == columns(obs)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sigma,n,c\n80,1000,0\n")
        with pytest.raises(ValueError):
            load_observations(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationArrays([0.0], [1000.0], [False])
        with pytest.raises(ValueError):
            ObservationArrays([80.0], [0.0], [False])

    @pytest.mark.parametrize("sigma_a, n_cycles", [
        (math.nan, 1e5), (math.inf, 1e5), (80.0, math.nan), (80.0, math.inf),
    ])
    def test_non_finite_rejected(self, sigma_a, n_cycles):
        with pytest.raises(ValueError, match="finite"):
            ObservationArrays([sigma_a], [n_cycles], [False])

    def test_non_finite_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("sigma_a_MPa,n_cycles,censored\n80,1e5,0\nnan,1e5,0\n")
        with pytest.raises(ValueError, match=r"obs\.csv:3:"):
            load_observations(path)

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.booleans()),
                         min_size=1, max_size=8))
    def test_round_trip_random_finite(self, tmp_path_factory, rows):
        obs = from_rows(rows)
        path = tmp_path_factory.mktemp("obs") / "obs.csv"
        save_observations(path, obs)
        assert columns(load_observations(path)) == columns(obs)

    @pytest.mark.parametrize("flag", ["7", "2", "-1", "true", ""])
    def test_censored_flag_must_be_zero_or_one(self, tmp_path, flag):
        path = tmp_path / "obs.csv"
        path.write_text(f"sigma_a_MPa,n_cycles,censored\n80,1e5,1\n80,1e5,{flag}\n")
        with pytest.raises(ValueError, match=r"obs\.csv:3: censored must be 0 or 1"):
            load_observations(path)

    @settings(max_examples=60, deadline=None)
    @given(file=observation_lines())
    def test_reader_equals_line_oracle(self, tmp_path_factory, file):
        path = tmp_path_factory.mktemp("obs") / "obs.csv"
        path.write_text("\n".join(file[0]) + "\n")
        assert columns(load_observations(path)) == line_load_observations(path)

    @settings(max_examples=100, deadline=None)
    @given(file=observation_lines(), data=st.data())
    def test_malformed_line_rejected_where_the_line_oracle_rejects_it(self, tmp_path_factory, file, data):
        lines, rows = file
        row = data.draw(st.sampled_from(rows))
        cells = lines[row].split(",")
        how = data.draw(st.sampled_from(["number", "flag", "fewer", "more"]))
        if how == "number":
            cells[data.draw(st.integers(0, 1))] = data.draw(BAD_NUMBERS)
        elif how == "flag":
            cells[2] = data.draw(BAD_FLAGS)
        elif how == "fewer":
            del cells[data.draw(st.integers(0, 2))]
        else:
            cells.insert(data.draw(st.integers(0, 3)), "0")
        lines[row] = ",".join(cells)
        path = tmp_path_factory.mktemp("obs") / "obs.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FieldFormatError) as err:
            load_observations(path)
        with pytest.raises(FieldFormatError) as oracle:
            line_load_observations(path)
        assert err.value.line_no == oracle.value.line_no == row + 1
        if how == "flag":  # the oracle quotes the cell, the reader prints an integer flag as a number
            assert str(err.value).startswith(f"{path}:{row + 1}: censored must be 0 or 1, got ")
        else:
            assert str(err.value) == str(oracle.value)

    @pytest.mark.parametrize("text, message", [
        ("", ":0: missing header line"),
        ("# only a comment\n\n", ":0: missing header line"),
        (OBSERVATIONS_HEADER + "\n# no rows\n", ":0: no observations found"),
        ("sigma,n,c\n80,1000,0\n", ":1: expected header 'sigma_a_MPa,n_cycles,censored'"),
        (OBSERVATIONS_HEADER + "\n80,1e5,1\n80,1e5,7\n", ":3: censored must be 0 or 1, got 7"),
        (OBSERVATIONS_HEADER + "\n80,1e5,1\n80,1e5,99999999999999999999\n",
         ":3: censored must be 0 or 1, got '99999999999999999999'"),
        (OBSERVATIONS_HEADER + "\n80,1e5,1\n80,1e5,0.5\n", ":3: censored must be 0 or 1, got '0.5'"),
        (OBSERVATIONS_HEADER + "\n80,1e5,1\n80,1e5,1.0\n", ":3: censored must be 0 or 1, got '1.0'"),
    ], ids=["empty", "comments-only", "no-rows", "header", "flag", "flag-overflow", "flag-fraction", "flag-float-one"])
    def test_file_level_messages(self, tmp_path, text, message):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with warnings.catch_warnings():  # as outside the test suite, where a DeprecationWarning is ignored
            warnings.simplefilter("ignore")
            with pytest.raises(FieldFormatError) as err:
                load_observations(path)
        assert str(err.value) == f"{path}{message}"

    def test_integer_read_via_float_goes_to_the_line_parser(self, tmp_path, monkeypatch):
        def loadtxt_via_float(*args, dtype, **kwargs):
            """numpy 1.23 to 1.26: a float-spelled integer cell is truncated after a DeprecationWarning."""
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string '0.5' to int64") from exc
            return np.array([(80.0, 1e5, 1), (80.0, 1e5, 0)], dtype=dtype)

        path = tmp_path / "obs.csv"
        path.write_text(f"{OBSERVATIONS_HEADER}\n80,1e5,1\n80,1e5,0.5\n")
        monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FieldFormatError) as err:
                load_observations(path)
        assert str(err.value) == f"{path}:3: censored must be 0 or 1, got '0.5'"

    @pytest.mark.parametrize("flag, censored", [("01", True), ("+1", True), ("-0", False), (" 1 ", True)])
    def test_integer_spellings_of_a_flag_accepted(self, tmp_path, flag, censored):
        path = tmp_path / "obs.csv"
        path.write_text(f"{OBSERVATIONS_HEADER}\n80,1e5,{flag}\n")
        assert columns(load_observations(path)) == ([80.0], [1e5], [censored])

    @pytest.mark.parametrize("volume, modulus", [(math.nan, 75500.0), (math.inf, 75500.0), (593.0, math.nan)])
    def test_homogeneous_non_finite_rejected(self, volume, modulus):
        with pytest.raises(ValueError, match="finite"):
            Homogeneous(volume=volume, youngs_modulus=modulus)


class TestObservationArrays:
    def test_columns_from_lists(self):
        arrays = ObservationArrays([80.0, 60.0], [1e4, 2e6], [False, True])
        assert [arrays.sigma_a.dtype, arrays.n_cycles.dtype, arrays.censored.dtype] == [np.float64, np.float64, bool]
        assert columns(arrays) == ([80.0, 60.0], [1e4, 2e6], [False, True])

    @pytest.mark.parametrize("sigma_a, n_cycles, match", [
        ([80.0, math.nan], [1e4, 1e5], "sigma_a must be positive and finite, got nan"),
        ([80.0, 0.0], [1e4, 1e5], "sigma_a must be positive and finite, got 0.0"),
        ([80.0, 90.0], [1e4, math.inf], "n_cycles must be positive and finite, got inf"),
        ([80.0, 90.0], [1e4, -1.0], "n_cycles must be positive and finite, got -1.0"),
        ([80.0, 90.0], [1e4], "one length"),
        ([], [], "no observations"),
    ])
    def test_invalid_columns_rejected(self, sigma_a, n_cycles, match):
        with pytest.raises(ValueError, match=match):
            ObservationArrays(sigma_a, n_cycles, np.zeros(len(n_cycles), dtype=bool))

    def test_objectives_equal_on_loaded_and_built_arrays(self, tmp_path):
        obs = oracle_observations()
        save_observations(tmp_path / "obs.csv", obs)
        loaded = load_observations(tmp_path / "obs.csv")
        tables = [grid_table(s) for s in range(3)]
        for build in (
            lambda o: homogeneous_objective(o, 593.0),
            lambda o: heterogeneous_objective(o, tables[0]),
            lambda o: heterogeneous_objective(o, [tables[i % 3] for i in range(len(obs))]),
            lambda o: unknown_pores_objective(o, tables),
        ):
            assert build(loaded)(PARAMS) == build(obs)(PARAMS)


TWO_LINE = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, B=0.35, beta=0.72, C=6e-4, V0=593.0)


@st.composite
def tables_and_load(draw):
    """A criterion table whose strain ranges come from a small pool, so amplitudes
    repeat, with ranges below the limit 2C = 1.2e-3, and a load within its grid."""
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    pool = draw(st.lists(st.floats(0.0, 2e-2), min_size=1, max_size=5)) + [1e-3]
    rows = [sorted(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))) for _ in range(n)]
    table = CriterionTable(
        element_ids=np.arange(n),
        volumes=np.array(draw(st.lists(st.floats(1e-4, 1e3), min_size=n, max_size=n))),
        load_levels=np.cumsum(draw(st.lists(st.floats(1.0, 50.0), min_size=k, max_size=k))),
        delta_eps=np.array(rows),
    )
    return table, draw(st.floats(table.load_levels[0], table.load_levels[-1]))


class TestStructureFor:
    @settings(max_examples=150, deadline=None)
    @given(case=tables_and_load(), params=st.sampled_from([PARAMS, TWO_LINE]))
    def test_matches_per_element_aggregation(self, case, params):
        table, load = case
        struct = structure_for(params, table, load)
        scale = structure_scale(element_scale_array(params, table.interpolate(load), table.volumes), params.m)
        if math.isinf(scale):
            assert struct.is_infinite
        else:
            assert_allclose(struct.scale, scale, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=tables_and_load(), params=st.sampled_from([PARAMS, TWO_LINE]), data=st.data())
    def test_scale_does_not_increase_with_load_or_volume(self, case, params, data):
        # weakest link: a higher load or a larger element never lengthens the life;
        # the 1e-12 slack allows for the rounding of differently grouped sums
        table, load = case
        scale = structure_for(params, table, load).scale
        higher = data.draw(st.floats(load, table.load_levels[-1]))
        assert structure_for(params, table, higher).scale <= scale * (1.0 + 1e-12)
        volumes = table.volumes.copy()
        volumes[data.draw(st.integers(0, volumes.size - 1))] *= data.draw(st.floats(1.0, 1e3))
        larger = CriterionTable(table.element_ids, volumes, table.load_levels, table.delta_eps)
        assert structure_for(params, larger, load).scale <= scale * (1.0 + 1e-12)

    def test_homogeneous_below_limit_infinite(self):
        # strain amplitude at 20 MPa is 2.65e-4 < C = 6e-4
        struct = structure_for(PARAMS, Homogeneous(volume=593.0), 20.0)
        assert struct.is_infinite

    def test_heterogeneous_single_bulk_matches_homogeneous(self):
        table = bulk_table()
        for level in (40.0, 80.0, 120.0):
            het = structure_for(PARAMS, table, level)
            hom = structure_for(PARAMS, Homogeneous(volume=593.0), level)
            if hom.is_infinite:
                assert het.is_infinite
            else:
                assert_allclose(het.scale, hom.scale, rtol=1e-12)

    def test_multi_element_matches_hand_rolled_aggregation(self, rng):
        n = 10
        volumes = rng.uniform(0.1, 10.0, size=n)
        base = 2.0 * 90.0 / 75500.0
        deltas = base * rng.uniform(1.0, 2.5, size=n)
        levels = np.array([90.0])
        table = CriterionTable(
            element_ids=np.arange(n),
            volumes=volumes,
            load_levels=levels,
            delta_eps=deltas[:, None],
        )
        struct = structure_for(PARAMS, table, 90.0)
        scales = element_scale_array(PARAMS, deltas, volumes)
        assert_allclose(struct.scale, structure_scale(scales, PARAMS.m), rtol=1e-12)


class TestReducedTable:
    """A table reduced at some amplitudes stands in for it there, bit for bit."""

    AMPLITUDES = (40.0, 55.5, 80.0, 101.25, 160.0)  # the grid's ends, levels and points between them

    @staticmethod
    def table(rng, n=12):
        levels = np.array([40.0, 80.0, 120.0, 160.0])
        deltas = 2.0 * levels / 75500.0 * rng.uniform(1.0, 3.0, size=(n, 1))
        return CriterionTable(np.arange(n), rng.uniform(0.1, 10.0, size=n), levels, deltas)

    @pytest.mark.parametrize("params", [PARAMS, TWO_LINE], ids=["one-line", "two-line"])
    def test_structure_for_gives_the_tables_bits(self, rng, params):
        table = self.table(rng)
        reduced = ReducedTable.of(table, self.AMPLITUDES)
        for sigma_a in self.AMPLITUDES:
            assert structure_for(params, reduced, sigma_a) == structure_for(params, table, sigma_a)

    @pytest.mark.parametrize("params", [PARAMS, TWO_LINE], ids=["one-line", "two-line"])
    def test_heterogeneous_objective_gives_the_tables_bits(self, rng, params):
        tables = [self.table(rng), self.table(rng, n=5)]
        reduced = [ReducedTable.of(t, self.AMPLITUDES) for t in tables]
        obs = ObservationArrays(
            np.repeat(self.AMPLITUDES, 2), np.tile([3e4, 2e6], len(self.AMPLITUDES)), np.tile([False, True], 5)
        )
        assert heterogeneous_objective(obs, reduced[0])(params) == heterogeneous_objective(obs, tables[0])(params)
        per_obs = [0, 1] * 5  # one table per observation, shared by several
        assert (heterogeneous_objective(obs, [reduced[k] for k in per_obs])(params)
                == heterogeneous_objective(obs, [tables[k] for k in per_obs])(params))

    @pytest.mark.parametrize("params", [PARAMS, TWO_LINE], ids=["one-line", "two-line"])
    def test_unknown_pores_objective_gives_the_tables_bits(self, rng, params):
        """Every table reduced at every observation amplitude, as calibrate reduces them."""
        levels = [40.0, 80.0, 120.0]  # the short table is off its grid at 160 MPa
        short = CriterionTable(np.arange(4), rng.uniform(0.1, 10.0, size=4), levels,
                               np.outer(rng.uniform(1.0, 3.0, size=4), levels) * 2.0 / 75500.0)
        tables = [self.table(rng), self.table(rng, n=5), self.table(rng, n=7), short]
        obs = ObservationArrays(
            np.repeat(self.AMPLITUDES, 2), np.tile([3e4, 2e6], len(self.AMPLITUDES)), np.tile([False, True], 5)
        )
        reduced = [ReducedTable.of(t, np.unique(obs.sigma_a)) for t in tables]
        # the last two observations, at 160 MPa, are not assigned the short table
        assignments = [(0, 3), (1, 2, 3), (3,), (0, 1), (2, 3), (3, 1), (0, 2, 3), (1,), (0, 1), (2,)]
        assert (unknown_pores_objective(obs, reduced, assignments=assignments)(params)
                == unknown_pores_objective(obs, tables, assignments=assignments)(params))
        with pytest.raises(ExtrapolationError) as own:
            unknown_pores_objective(obs, tables)
        with pytest.raises(ExtrapolationError) as kept:
            unknown_pores_objective(obs, reduced)
        assert str(kept.value) == str(own.value)

    def test_off_grid_amplitude_raises_only_where_asked(self, rng):
        table = self.table(rng)
        reduced = ReducedTable.of(table, (80.0, 200.0))  # 200 MPa is past the grid's 160; reducing does not raise
        assert structure_for(PARAMS, reduced, 80.0) == structure_for(PARAMS, table, 80.0)
        on_grid = ObservationArrays([80.0, 80.0], [3e4, 2e6], [False, True])
        assert heterogeneous_objective(on_grid, reduced)(PARAMS) == heterogeneous_objective(on_grid, table)(PARAMS)
        with pytest.raises(ExtrapolationError) as own:
            structure_for(PARAMS, table, 200.0)
        with pytest.raises(ExtrapolationError) as kept:
            structure_for(PARAMS, reduced, 200.0)
        assert str(kept.value) == str(own.value)
        with pytest.raises(ExtrapolationError):
            heterogeneous_objective(from_rows([(80.0, 3e4, False), (80.0, 2e6, True), (200.0, 1e4, False)]), reduced)


class TestTerms:
    def test_runout_survival_value(self):
        # scale 3e6, shape 2, cap 2e6: survival = exp(-4/9)
        assert_allclose(runout_term(3e6, 2.0, 2e6), math.log(math.exp(-4.0 / 9.0) + LOG_FLOOR), atol=1e-15)
        assert_allclose(runout_term(3e6, 2.0, 2e6), -4.0 / 9.0, atol=1e-9)

    def test_terms_match_scipy_closed_forms(self, rng):
        for _ in range(50):
            scale = rng.uniform(1e3, 1e7)
            shape = rng.uniform(0.5, 5.0)
            n = rng.uniform(10.0, 5e6)
            assert_allclose(
                failure_term(scale, shape, n),
                math.log(scipy_pdf(scale, shape, n) + LOG_FLOOR),
                atol=1e-12,
            )
            assert_allclose(
                runout_term(scale, shape, n),
                math.log(scipy_survival(scale, shape, n) + LOG_FLOOR),
                atol=1e-12,
            )

    def test_floor_exact_on_zero_density(self):
        assert failure_term(math.inf, 2.0, 1e5) == math.log(1e-10)

    def test_runout_under_infinite_life_is_zero(self):
        assert abs(runout_term(math.inf, 2.0, 2e6)) < 1e-9

    def test_failure_term_stationary_at_scale_equal_cycles(self):
        # d/dscale log pdf vanishes at scale = N (single-observation optimum)
        n, shape = 5e4, 2.3
        h = 1e-3 * n
        grad = (failure_term(n + h, shape, n) - failure_term(n - h, shape, n)) / (2 * h)
        assert abs(grad) < 1e-6
        assert failure_term(n, shape, n) > failure_term(0.7 * n, shape, n)
        assert failure_term(n, shape, n) > failure_term(1.4 * n, shape, n)


class TestHomogeneous:
    def test_failure_at_median_matches_closed_form(self):
        struct = structure_for(PARAMS, Homogeneous(volume=593.0), 100.0)
        n = struct.median()
        obs = ObservationArrays([100.0], [n], [False])
        value = loglik_homogeneous(PARAMS, obs, 593.0)
        assert_allclose(value, math.log(scipy_pdf(struct.scale, PARAMS.m, n) + LOG_FLOOR), rtol=1e-12)

    def test_runout_example(self):
        # engineered so the structure scale is exactly 3e6 at this amplitude
        level = 100.0
        struct = structure_for(PARAMS, Homogeneous(volume=593.0), level)
        obs = ObservationArrays([level], [2e6], [True])
        value = loglik_homogeneous(PARAMS, obs, 593.0)
        assert_allclose(value, math.log(scipy_survival(struct.scale, PARAMS.m, 2e6) + LOG_FLOOR), atol=1e-12)

    def test_additivity_and_permutation(self, rng):
        rows = [(100.0, 5e4, False), (120.0, 1e4, False), (80.0, 2e6, True)]
        total = loglik_homogeneous(PARAMS, from_rows(rows), 593.0)
        parts = sum(loglik_homogeneous(PARAMS, from_rows([row]), 593.0) for row in rows)
        assert_allclose(total, parts, rtol=1e-12)
        shuffled = [rows[2], rows[0], rows[1]]
        assert_allclose(total, loglik_homogeneous(PARAMS, from_rows(shuffled), 593.0), rtol=1e-14)


class TestHeterogeneous:
    def test_reduces_to_homogeneous_for_bulk_table(self):
        obs = ObservationArrays([80.0, 120.0], [3e5, 2e6], [False, True])
        het = loglik_heterogeneous(PARAMS, obs, [bulk_table()])
        hom = loglik_homogeneous(PARAMS, obs, 593.0)
        assert_allclose(het, hom, rtol=1e-12)

    def test_composition_oracle(self, rng):
        # from-scratch composition: element scales -> structure scale -> density
        n = 6
        volumes = rng.uniform(0.5, 5.0, size=n)
        deltas = 2.0 * 90.0 / 75500.0 * rng.uniform(1.0, 2.0, size=n)
        table = CriterionTable(
            element_ids=np.arange(n),
            volumes=volumes,
            load_levels=np.array([90.0]),
            delta_eps=deltas[:, None],
        )
        obs = ObservationArrays([90.0, 90.0], [4e4, 2e6], [False, True])
        value = loglik_heterogeneous(PARAMS, obs, [table, table])
        lam = structure_scale(element_scale_array(PARAMS, deltas, volumes), PARAMS.m)
        expected = math.log(scipy_pdf(lam, PARAMS.m, 4e4) + LOG_FLOOR) + math.log(
            scipy_survival(lam, PARAMS.m, 2e6) + LOG_FLOOR
        )
        assert_allclose(value, expected, rtol=1e-12)

    def test_table_count_mismatch(self):
        obs = ObservationArrays([80.0] * 3, [1e4] * 3, [False] * 3)
        with pytest.raises(ValueError):
            loglik_heterogeneous(PARAMS, obs, [bulk_table(), bulk_table()])


class TestUnknownPores:
    def test_single_table_equals_heterogeneous(self):
        obs = ObservationArrays([80.0, 100.0], [3e5, 2e6], [False, True])
        table = bulk_table()
        marginal = loglik_unknown_pores(PARAMS, obs, [table])
        known = loglik_heterogeneous(PARAMS, obs, [table])
        # identical up to the floor, which both sides apply
        assert_allclose(marginal, known, atol=1e-9)

    def test_copies_of_one_table_equal_single(self):
        obs = ObservationArrays([80.0], [3e5], [False])
        table = bulk_table()
        assert_allclose(
            loglik_unknown_pores(PARAMS, obs, [table] * 5),
            loglik_unknown_pores(PARAMS, obs, [table]),
            rtol=1e-14,
        )

    def test_inner_loop_hand_evaluation(self):
        # average the two per-realization densities, then log with the floor
        tables = [bulk_table(volume=593.0), bulk_table(volume=50.0)]
        n = 2e5
        obs = ObservationArrays([80.0], [n], [False])
        value = loglik_unknown_pores(PARAMS, obs, tables)
        pdfs = [
            scipy_pdf(structure_for(PARAMS, t, 80.0).scale, PARAMS.m, n)
            for t in tables
        ]
        assert_allclose(value, math.log(0.5 * sum(pdfs) + 1e-10), rtol=1e-12)

    def test_floor_on_all_infinite(self):
        # below the fatigue limit every realization has zero density
        table = bulk_table(levels=(10.0, 20.0, 30.0, 40.0))
        obs = ObservationArrays([20.0], [1e5], [False])
        value = loglik_unknown_pores(PARAMS, obs, [table, table])
        assert value == math.log(1e-10)

    def test_table_permutation_invariance(self):
        obs = ObservationArrays([80.0, 120.0], [3e5, 1e4], [False, False])
        tables = [bulk_table(volume=v) for v in (100.0, 300.0, 593.0)]
        a = loglik_unknown_pores(PARAMS, obs, tables)
        b = loglik_unknown_pores(PARAMS, obs, tables[::-1])
        assert_allclose(a, b, rtol=1e-14)

    def test_assignments(self):
        obs = ObservationArrays([80.0], [3e5], [False])
        tables = [bulk_table(volume=593.0), bulk_table(volume=50.0)]
        only_first = loglik_unknown_pores(PARAMS, obs, tables, assignments=[[0]])
        assert_allclose(only_first, loglik_unknown_pores(PARAMS, obs, [tables[0]]), rtol=1e-14)
        with pytest.raises(ValueError):
            loglik_unknown_pores(PARAMS, obs, tables, assignments=[[0], [1]])


def grid_table(seed, n=24, levels=(40.0, 60.0, 80.0, 100.0), youngs=75500.0):
    """Elements on a shared concentration grid; the lowest one stays below C
    at the low levels, so some elements have infinite life there."""
    rng = np.random.default_rng(seed)
    kt = rng.choice([0.5, 1.0, 1.3, 1.7, 2.2], size=n)
    levels = np.asarray(levels, dtype=float)
    return CriterionTable(
        element_ids=np.arange(n),
        volumes=rng.uniform(0.05, 3.0, size=n),
        load_levels=levels,
        delta_eps=kt[:, None] * (2.0 * levels / youngs)[None, :],
    )


#: Failures and run-outs on and between the grid levels, with repeats.
ORACLE_ROWS = [
    (40.0, 2e6, True), (40.0, 8e5, False), (50.0, 3e5, False), (50.0, 2e6, True),
    (60.0, 1.2e5, False), (60.0, 1.2e5, False), (70.0, 2e6, True), (80.0, 4e4, False),
    (95.0, 9e3, False), (95.0, 2e6, True), (95.0, 2e6, True), (100.0, 6e3, False),
]


def oracle_observations():
    """:data:`ORACLE_ROWS` as observations."""
    return from_rows(ORACLE_ROWS)


class TestKernelAgainstSurvivalProduct:
    """Every regime against the per-element survival product in oracles.py."""

    PARAMS = (
        PARAMS,
        StrainLifeParams(m=0.8, A=0.01, alpha=0.2, C=3e-4, V0=593.0),
        StrainLifeParams(m=4.5, A=0.03, alpha=0.35, C=9e-4, V0=100.0),
    )
    TABLES = (grid_table(1), grid_table(2), grid_table(3))

    @pytest.mark.parametrize("params", PARAMS)
    def test_homogeneous(self, params):
        obs = from_rows(ORACLE_ROWS + [(20.0, 3e5, False), (20.0, 2e6, True)])
        structures = [[(np.array([sigma_a / 75500.0]), np.array([27.1]))] for sigma_a in obs.sigma_a.tolist()]
        expected = survival_product_loglik(params, obs, structures, 2e6)
        assert_allclose(loglik_homogeneous(params, obs, 27.1), expected, rtol=1e-12)

    @pytest.mark.parametrize("params", PARAMS)
    def test_heterogeneous_shared_table(self, params):
        obs = oracle_observations()
        table = self.TABLES[0]
        structures = [[table_amplitudes(table, sigma_a)] for sigma_a in obs.sigma_a.tolist()]
        expected = survival_product_loglik(params, obs, structures, 2e6)
        assert_allclose(loglik_heterogeneous(params, obs, [table]), expected, rtol=1e-12)

    @pytest.mark.parametrize("params", PARAMS)
    def test_heterogeneous_table_per_observation(self, params):
        obs = oracle_observations()
        tables = [self.TABLES[i % 3] for i in range(len(obs))]
        structures = [[table_amplitudes(t, sigma_a)] for t, sigma_a in zip(tables, obs.sigma_a.tolist())]
        expected = survival_product_loglik(params, obs, structures, 2e6)
        assert_allclose(loglik_heterogeneous(params, obs, tables), expected, rtol=1e-12)

    @pytest.mark.parametrize("params", PARAMS)
    def test_unknown_pores_all_tables(self, params):
        obs = oracle_observations()
        structures = [[table_amplitudes(t, sigma_a) for t in self.TABLES] for sigma_a in obs.sigma_a.tolist()]
        expected = survival_product_loglik(params, obs, structures, 2e6)
        assert_allclose(loglik_unknown_pores(params, obs, self.TABLES), expected, rtol=1e-12)

    @pytest.mark.parametrize("params", PARAMS)
    def test_unknown_pores_assignments(self, params):
        obs = oracle_observations()
        assignments = [[i % 3] if i % 4 == 0 else [i % 3, (i + 1) % 3] for i in range(len(obs))]
        structures = [
            [table_amplitudes(self.TABLES[k], sigma_a) for k in assigned]
            for sigma_a, assigned in zip(obs.sigma_a.tolist(), assignments)
        ]
        expected = survival_product_loglik(params, obs, structures, 2e6)
        value = loglik_unknown_pores(params, obs, self.TABLES, assignments=assignments)
        assert_allclose(value, expected, rtol=1e-12)

    def test_joint_mode_fit(self, tmp_path):
        from porelife.cli import main
        from porelife.field import save_criterion_table

        conf = tmp_path / "run.conf"
        conf.write_text("[protocol]\nload_levels = 40, 60, 80, 100\nn_starts = 1\nbudget = 30\n")
        table_paths = []
        for i, table in enumerate(self.TABLES):
            table_paths.append(str(tmp_path / f"t{i}.criterion.csv"))
            save_criterion_table(table_paths[-1], table)
        porous, bare = oracle_observations(), from_rows(ORACLE_ROWS[2:])
        save_observations(tmp_path / "porous.csv", porous)
        save_observations(tmp_path / "bare.csv", bare)
        rc = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "fit"), "--mode", "joint",
            "--observations", str(tmp_path / "porous.csv"), "--tables", *table_paths,
            "--homogeneous-observations", str(tmp_path / "bare.csv"),
        ])
        assert rc == 0
        fitted = json.loads((tmp_path / "fit" / "fitted.json").read_text())
        params = StrainLifeParams(**fitted["params"])
        gauge = PoreFieldStats().gauge_volume
        expected = survival_product_loglik(
            params, bare, [[(np.array([s / 75500.0]), np.array([gauge]))] for s in bare.sigma_a.tolist()], 2e6
        ) + survival_product_loglik(
            params, porous, [[table_amplitudes(t, s) for t in self.TABLES] for s in porous.sigma_a.tolist()], 2e6
        )
        assert_allclose(fitted["log_likelihood"], expected, rtol=1e-12)


GRID_TABLES = (grid_table(1), grid_table(2), grid_table(3))
#: Objective regimes; a row's pick chooses its table or tables where the regime assigns them.
REGIMES = ("homogeneous", "heterogeneous", "heterogeneous-per-row", "unknown-pores", "unknown-pores-assigned")


def regime_objective(regime, obs, picks):
    if regime == "homogeneous":
        return homogeneous_objective(obs, 27.1)
    if regime == "heterogeneous":
        return heterogeneous_objective(obs, GRID_TABLES[0])
    if regime == "heterogeneous-per-row":
        return heterogeneous_objective(obs, [GRID_TABLES[p % 3] for p in picks])
    if regime == "unknown-pores":
        return unknown_pores_objective(obs, GRID_TABLES)
    return unknown_pores_objective(obs, GRID_TABLES, assignments=[[p % 3, (p + 1) % 3][:1 + p // 3] for p in picks])


#: Cycle counts from subnormal to huge: with extreme parameters they drive terms to 0, inf or NaN.
CYCLES = st.one_of(st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 9e3, 1.2e5, 2e6, 1e300]), st.floats(1e-300, 1e300))


@st.composite
def weighted_rows(draw):
    """Columns (sigma_a, n_cycles, censored, count) on and between the grid levels, and a pick per row."""
    rows = draw(st.lists(st.tuples(st.sampled_from([40.0, 55.0, 60.0, 80.0, 97.5, 100.0]), CYCLES, st.booleans(),
                                   st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=12))
    sigma_a, n_cycles, censored, count, picks = (np.array(column) for column in zip(*rows))
    return ObservationArrays(sigma_a, n_cycles, censored, count), picks


EXTREME = st.sampled_from([1e-300, 1e-12, 1e12, 1e300])


@st.composite
def extreme_params(draw):
    """Ordinary to extreme parameters: tiny and huge m, B > 0 with beta > 0, C = 0."""
    B, beta = draw(st.one_of(st.just((0.0, 0.0)),
                             st.tuples(st.one_of(st.floats(1e-3, 1.0), EXTREME), st.one_of(st.floats(0.05, 1.5), EXTREME))))
    return StrainLifeParams(
        m=draw(st.one_of(st.floats(0.3, 8.0), EXTREME)),
        A=draw(st.one_of(st.floats(1e-3, 0.05), EXTREME)),
        alpha=draw(st.one_of(st.floats(0.05, 1.0), EXTREME)),
        B=B, beta=beta,
        C=draw(st.one_of(st.just(0.0), st.floats(1e-5, 2e-3))),
        V0=draw(st.one_of(st.just(593.0), EXTREME)),
    )


def repeated(obs):
    """``obs`` with every row written out ``count`` times."""
    return ObservationArrays(*(np.repeat(column, obs.count) for column in (obs.sigma_a, obs.n_cycles, obs.censored)))


def same(a, b):
    """``==``, with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


class TestWeightedObservations:
    @settings(max_examples=150, deadline=None)
    @given(case=weighted_rows(), regime=st.sampled_from(REGIMES + ("joint",)), params=extreme_params())
    def test_weighted_rows_equal_repeated_rows(self, case, regime, params):
        obs, picks = case
        if regime == "joint":  # the homogeneous and the unknown-pores terms summed, as calibrate's joint mode does
            def build(o, p):
                terms = regime_objective("homogeneous", o, p), regime_objective("unknown-pores", o, p)
                return lambda params: terms[0](params) + terms[1](params)
        else:
            def build(o, p):
                return regime_objective(regime, o, p)
        weighted, written_out = build(obs, picks)(params), build(repeated(obs), np.repeat(picks, obs.count))(params)
        assert np.float64(weighted).tobytes() == np.float64(written_out).tobytes()

    def test_nan_objective_is_one_nan(self):
        # Failures and run-outs both NaN, with opposite signs from numpy's loops: every call returns one NaN.
        obs = ObservationArrays([60.0, 80.0, 97.5, 60.0], [1e300, 4.48304395e16, 4.48304395e16, 1e300],
                                [True, False, True, True], [3, 1, 2, 3])
        params = StrainLifeParams(m=1.0436925527708105, A=1e300, alpha=1e12, B=1e300, beta=1.0371705454126685,
                                  C=0.001257195381934404, V0=593.0)
        for o in (obs, repeated(obs)):
            objective = unknown_pores_objective(o, GRID_TABLES)
            assert [np.float64(objective(params)).tobytes() for _ in range(3)] == [np.float64(math.nan).tobytes()] * 3

    def test_fit_rows_count_their_observations(self):
        obs = ObservationArrays([80.0, 80.0, 60.0], [1e5, 2e6, 2e6], [False, True, True], [3, 5, 2])
        assert obs.count.dtype == np.int64 and obs.count.tolist() == [3, 5, 2]
        assert ObservationArrays([80.0], [1e5], [False]).count.tolist() == [1]
        kernel = homogeneous_objective(obs, 593.0)
        assert kernel.failures.count.tolist() == [3.0] and kernel.runouts.count.tolist() == [2.0, 5.0]


#: One failure at the smallest positive cycle count, and its pick.
SUBNORMAL_FAILURE = (ObservationArrays([40.0], [5e-324], [False]), np.array([0]))


class TestInPlaceKernel:
    """The kernel evaluates in its rows' buffers exactly as the allocating chain in ``oracles``."""

    @settings(max_examples=300, deadline=None)
    @given(case=weighted_rows(), regime=st.sampled_from(REGIMES), params=extreme_params(), other=extreme_params())
    @example(case=SUBNORMAL_FAILURE, regime="homogeneous", other=PARAMS,  # an infinite density: the objective is inf
             params=StrainLifeParams(m=0.375, A=1e-300, alpha=1.0))
    @example(case=SUBNORMAL_FAILURE, regime="heterogeneous", other=PARAMS,  # a NaN density: the objective is NaN
             params=StrainLifeParams(m=1.0, A=1e-3, alpha=1e300, B=1e-300, beta=1.0))
    def test_equals_allocating_chain(self, case, regime, params, other):
        kernel = regime_objective(regime, *case)
        assert same(kernel(params), chain_objective(kernel, params))
        kernel(other)  # the buffers carry nothing from one evaluation to the next
        assert same(kernel(params), chain_objective(kernel, params))

    @pytest.mark.parametrize("amplitude", [-1e-3, math.nan])
    def test_segments_check_their_amplitudes_once_when_built(self, amplitude):
        from porelife.likelihood import _Segments

        with pytest.raises(ValueError, match="strain amplitude must be nonnegative"):
            _Segments([(np.array([1e-3, amplitude]), np.array([1.0, 1.0]))])
