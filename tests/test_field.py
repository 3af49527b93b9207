import dataclasses
import hashlib
import importlib.util
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

import porelife.field
import porelife.material_point
from porelife import voigt
from porelife.field import (
    FIELD_HEADER,
    TABLE_HEADER,
    CriterionError,
    CriterionTable,
    ElasticElementField,
    ExtrapolationError,
    FieldFormatError,
    FieldGenerationError,
    PoreFieldStats,
    cavity_peak_kt,
    criterion_table,
    load_criterion_table,
    load_field,
    notch_variant,
    read_header,
    read_sidecar,
    save_criterion_table,
    save_field,
    synth_field_report,
    thin_variant,
    tile_field,
)
from porelife.material_point import ALSI7MG
from porelife.weakest_link import structure_scale
from porelife.strain_life import StrainLifeParams, element_scale_array
from oracles import (
    cell_criterion_table,
    cell_save_criterion_table,
    cell_save_field,
    line_load_criterion_table,
    line_load_field,
    loop_synth_field_report,
    rotate,
    synth_field,
)

SMALL = PoreFieldStats(gauge_radius_mm=1.5, gauge_length_mm=8.0)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: A one-element, one-level table.
ONE_CELL = CriterionTable(element_ids=[0], volumes=[1.0], load_levels=[40.0], delta_eps=[[1e-3]])

#: Tag and comment text: any character, with line breaks and spaces common.
TAG_TEXT = st.text(st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(" \t\r\n")), max_size=10)


def refusal(*tags):
    """What a writer says of the first of ``tags`` it refuses (line breaks, then outer whitespace); None if none."""
    for text in tags:
        if "\n" in text or "\r" in text:
            return "holds a line break"
        if text != text.strip():
            return "has leading or trailing whitespace"
    return None

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
IDS = st.integers(-(2**63), 2**63 - 1)
#: Lines both loaders skip between rows.
FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment", "#"])
#: Cells that neither ``int`` nor ``float`` accepts.
UNPARSEABLE = st.sampled_from(["abc", "", " ", "1.0.0", "0x1p3", "1d5", "nan(1)", "1 # c", "--1", "1e", "5x"])


def render(value, style: int) -> str:
    """One cell in one of several spellings both loaders read."""
    if isinstance(value, int):
        return (str(value), f" {value} ", f"+{value}" if value >= 0 else str(value))[style % 3]
    return (repr(value), f"{value:.17g}", f"{value:.17e}", f" {value!r}\t")[style % 4]


def pooled(draw, n: int, row, pool: bool):
    """n rows drawn with ``row``, or picked from a pool of at most three, so that rows repeat."""
    if not pool:
        return [draw(row) for _ in range(n)]
    rows = [draw(row) for _ in range(draw(st.integers(1, 3)))]
    return [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))]


@st.composite
def random_field(draw, pool: bool = False):
    n = draw(st.integers(1, 8 if pool else 6))
    return ElasticElementField(
        ids=draw(st.lists(IDS, min_size=n, max_size=n, unique=True)),
        volumes=draw(st.lists(POSITIVE, min_size=n, max_size=n)),
        sigma_unit=pooled(draw, n, st.lists(FINITE, min_size=6, max_size=6), pool),
        geometry_tag=draw(st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12)).strip(),
        nominal_area_note=draw(st.sampled_from(["", "unit nominal amplitude = 1 MPa uniaxial along x"])),
    )


@st.composite
def random_table(draw, pool: bool = False):
    n, k = draw(st.integers(1, 8 if pool else 5)), draw(st.integers(1, 4))
    # a row of -0.0 steps sums to -0.0, the same value as 0.0 but other bytes
    steps = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e3)), min_size=k, max_size=k)
    return CriterionTable(
        element_ids=draw(st.lists(IDS, min_size=n, max_size=n, unique=True)),
        volumes=draw(st.lists(POSITIVE, min_size=n, max_size=n)),
        load_levels=sorted(draw(st.lists(st.floats(1e-3, 1e6), min_size=k, max_size=k, unique=True))),
        delta_eps=np.cumsum(pooled(draw, n, steps, pool), axis=1),
        geometry_tag=draw(st.sampled_from(["", "cylinder r=3.072 L=20.0"])),
    )


def rewrite(data, text: str, shuffle: bool):
    """The file text with its rows respelled, optionally shuffled, and filler lines between them."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line in (FIELD_HEADER, TABLE_HEADER)) + 1
    rows = [
        ",".join(render(int(c) if j == 0 else float(c), data.draw(st.integers(0, 11))) for j, c in enumerate(line.split(",")))
        for line in lines[start:]
    ]
    if shuffle:
        rows = data.draw(st.permutations(rows))
    body = []
    for row in rows:
        body += data.draw(st.lists(FILLER, max_size=2)) + [row]
    return "\n".join(lines[:start] + body + data.draw(st.lists(FILLER, max_size=2))) + "\n"


def assert_same_arrays(new, old, names):
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert new.geometry_tag == old.geometry_tag


def corrupt(data, text: str, n_columns: int):
    """The file text with one row spoiled: a cell that does not parse, or a column too few or too many.

    Returns the text and the spoiled row's line number.
    """
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line in (FIELD_HEADER, TABLE_HEADER)) + 1
    row = data.draw(st.sampled_from([i for i in range(start, len(lines)) if lines[i].strip()[:1] not in ("", "#")]))
    cells = lines[row].split(",")
    how = data.draw(st.sampled_from(["cell", "fewer", "more"]))
    if how == "cell":
        cells[data.draw(st.integers(0, n_columns - 1))] = data.draw(UNPARSEABLE)
    elif how == "fewer":
        del cells[data.draw(st.integers(0, n_columns - 1))]
    else:
        cells.insert(data.draw(st.integers(0, n_columns)), "0")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n", row + 1


#: Load levels of the batched-criterion tests.  At 85 MPa the "at_yield"
#: element's elastic peak is exactly the yield stress, 170 MPa.
CRITERION_LEVELS = (20.0, 40.0, 60.0, 85.0, 100.0, 150.0)


def multiaxial_unit(seed, kt):
    """A uniaxial-plus-random unit-load tensor scaled to von Mises equivalent kt."""
    shape = voigt.UNIAXIAL_X + 0.4 * np.random.default_rng(seed).standard_normal(6)
    return shape * (kt / voigt.von_mises(shape))


#: Unit-load tensors of every kind the criterion must handle, from (seed, kt).
ELEMENT_KINDS = {
    "multiaxial": multiaxial_unit,
    "zero": lambda seed, kt: np.zeros(6),
    "hydrostatic": lambda seed, kt: kt * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
    "degenerate": lambda seed, kt: kt * np.array([1.0, 1.0, -0.5, 0.0, 0.0, 0.0]),  # top eigenvalue twice
    "at_yield": lambda seed, kt: np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    # the Neuber bracket doubling cannot reach the product: CorrectionError
    "bracket": lambda seed, kt: np.array([1e100, 0.0, 0.0, 0.0, 0.0, 0.0]),
    # critical_direction's tensor norm overflows
    "overflow": lambda seed, kt: np.array([1e200, 0.0, 0.0, 0.0, 0.0, 0.0]),
    # the cycle's stresses themselves overflow at the higher levels
    "huge": lambda seed, kt: np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e307]),
    # the direction is found, but the history's squared norm overflows
    "history_overflow": lambda seed, kt: np.array([1e153, 0.0, 0.0, 0.0, 0.0, 0.0]),
}


@st.composite
def criterion_field(draw):
    """A field mixing every element kind, with repeated tensors."""
    n = draw(st.integers(1, 9))
    tensors = []
    for _ in range(n):
        kind = draw(st.sampled_from([*ELEMENT_KINDS, "repeat"]))
        if kind == "repeat" and tensors:
            tensors.append(tensors[draw(st.integers(0, len(tensors) - 1))].copy())
        else:
            make = ELEMENT_KINDS.get(kind, multiaxial_unit)
            tensors.append(make(draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.3, 2.5))))
    return ElasticElementField(
        ids=draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)),
        volumes=np.ones(n),
        sigma_unit=np.array(tensors),
    )


def table_outcome(build, field, levels, collect: bool, **protocol):
    """A criterion build's table bytes (or raised message) and failure list."""
    failures = [] if collect else None
    try:
        table = build(field, ALSI7MG, levels, failures=failures, **protocol)
    except CriterionError as exc:
        result = ("raised", exc.element_id, str(exc), type(exc.cause))
    else:
        result = tuple(getattr(table, name).tobytes() for name in ("element_ids", "volumes", "load_levels", "delta_eps"))
    return result, [(eid, str(err), type(err.cause)) for eid, err in failures or []]


def assert_matches_cell_oracle(field, levels):
    for collect in (True, False):
        assert table_outcome(criterion_table, field, levels, collect) == table_outcome(
            cell_criterion_table, field, levels, collect)


#: What ``neuber_correct`` raises for a plastic history whose peak and trough are equal.
NO_REVERSAL = "elastic history has no load reversal: its peak and trough equivalents are equal"


def oracle_outcome(field, levels, collect: bool, **protocol):
    """``table_outcome`` of the cell oracle, its corrector's refusals spelled as ``neuber_correct`` spells them.

    The oracle's corrector divides by the zero span of a plastic history
    without a load reversal, which ``neuber_correct`` refuses.
    """
    def spelled(text, cause):
        if cause is ZeroDivisionError:
            return text.replace("float division by zero", NO_REVERSAL), ValueError
        return text, cause

    result, failures = table_outcome(cell_criterion_table, field, levels, collect, **protocol)
    if result[0] == "raised":
        result = (*result[:2], *spelled(*result[2:]))
    return result, [(eid, *spelled(text, cause)) for eid, text, cause in failures]


#: Unit tensors of the oracle gate, from (rng, kt): every path of the stacked
#: kernel and every case its certificates must leave to the corrector.
GATE_KINDS = {
    "uniaxial": lambda rng, kt: kt * voigt.UNIAXIAL_X,
    "multiaxial": lambda rng, kt: multiaxial_unit(rng.integers(2**32), kt),
    "compressive": lambda rng, kt: -multiaxial_unit(rng.integers(2**32), kt),
    # the elastic coefficient along n* is zero up to rounding for nu = 0.3
    "zero_coefficient": lambda rng, kt: kt * np.array([-0.9, -1.5, -1.5, 0.0, 0.0, 0.0]),
    # elastic and plastic coefficients of opposite signs
    "opposite_coefficients": lambda rng, kt: kt * np.array([-1.0, -1.5, -1.5, 0.0, 0.0, 0.0]),
    # a peak equivalent within a few slacks of the yield stress at one of the levels
    "near_yield": lambda rng, kt: multiaxial_unit(rng.integers(2**32), 1.0) * ALSI7MG.sigma_y / float(
        rng.choice(GATE_LEVELS)) * (1.0 + float(rng.choice([0.0, 1e-16, -1e-16, 1e-9, -1e-9, 3e-9, -3e-9]))),
    **{kind: lambda rng, kt, make=ELEMENT_KINDS[kind]: make(0, kt) for kind in ("zero", "hydrostatic", "degenerate")},
}

#: Load levels of the oracle gate, on both sides of the yield stress for Kt 0.3 to 2.5.
GATE_LEVELS = (20.0, 40.0, 85.0, 100.0, 150.0, 250.0)


@st.composite
def gate_field(draw):
    """A field mixing the gate's kinds, with repeated tensors."""
    n = draw(st.integers(1, 9))
    tensors = []
    for _ in range(n):
        kind = draw(st.sampled_from([*GATE_KINDS, "repeat"]))
        if kind == "repeat" and tensors:
            tensors.append(tensors[draw(st.integers(0, len(tensors) - 1))].copy())
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            tensors.append(GATE_KINDS.get(kind, GATE_KINDS["multiaxial"])(rng, draw(st.floats(0.3, 2.5))))
    return ElasticElementField(ids=np.arange(n)[::-1], volumes=np.ones(n), sigma_unit=np.array(tensors))


def bulk_only(volume=10.0):
    return ElasticElementField(
        ids=np.array([0]),
        volumes=np.array([volume]),
        sigma_unit=voigt.UNIAXIAL_X[None, :],
        geometry_tag="bulk",
    )


class TestFieldFiles:
    def test_round_trip(self, tmp_path, rng):
        field = synth_field(SMALL, seed=11)
        path = tmp_path / "field.csv"
        save_field(path, field)
        back = load_field(path)
        assert np.array_equal(back.ids, field.ids)
        assert np.array_equal(back.volumes, field.volumes)
        assert np.array_equal(back.sigma_unit, field.sigma_unit)
        assert back.geometry_tag == field.geometry_tag

    def test_well_formed_three_elements(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "# a comment\n"
            "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz\n"
            "1,2.5,1.0,0.0,0.0,0.0,0.0,0.0\n"
            "2,1.5,2.0,0.5,0.0,0.0,0.0,0.0\n"
            "3,0.5,3.0,0.0,0.0,0.1,0.0,0.0\n"
        )
        field = load_field(path)
        assert field.n_elements == 3
        assert field.total_volume == 4.5

    def test_zero_volume_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz\n"
            "1,1.0,1.0,0,0,0,0,0\n"
            "2,0.0,1.0,0,0,0,0,0\n"
        )
        with pytest.raises(FieldFormatError) as err:
            load_field(path)
        assert err.value.line_no == 3

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz\n"
            "1,1.0,1.0,0,0,0,0,0\n"
            "1,2.0,1.0,0,0,0,0,0\n"
        )
        with pytest.raises(FieldFormatError):
            load_field(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,1.0,1.0,0,0,0,0,0\n")
        with pytest.raises(FieldFormatError):
            load_field(path)

    @pytest.mark.parametrize("volume, sxz", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_dataclass_rejected(self, volume, sxz):
        with pytest.raises(ValueError, match="finite"):
            ElasticElementField(ids=[0], volumes=[volume], sigma_unit=[[1.0, 0, 0, 0, 0, sxz]])

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(st.lists(FINITE, min_size=6, max_size=6), min_size=1, max_size=6),
           volumes=st.lists(POSITIVE, min_size=6, max_size=6))
    def test_round_trip_random_finite(self, tmp_path_factory, rows, volumes):
        field = ElasticElementField(ids=np.arange(len(rows)) * 7, volumes=volumes[: len(rows)], sigma_unit=rows)
        path = tmp_path_factory.mktemp("field") / "field.csv"
        save_field(path, field)
        back = load_field(path)
        assert np.array_equal(back.ids, field.ids)
        assert np.array_equal(back.volumes, field.volumes)
        assert np.array_equal(back.sigma_unit, field.sigma_unit)

    @settings(max_examples=15, deadline=None)
    @given(n_rows=st.integers(1, 5), data=st.data(), bad=NON_FINITE)
    def test_non_finite_cell_rejected_at_its_line(self, tmp_path_factory, n_rows, data, bad):
        rows = [[str(i), "1.0", "1.0", "0", "0", "0", "0", "0"] for i in range(n_rows)]
        row = data.draw(st.integers(0, n_rows - 1))
        rows[row][data.draw(st.integers(1, 7))] = bad
        path = tmp_path_factory.mktemp("field") / "field.csv"
        path.write_text(FIELD_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(FieldFormatError, match="non-finite") as err:
            load_field(path)
        assert err.value.line_no == row + 2

    @settings(max_examples=40, deadline=None)
    @given(field=random_field(), data=st.data())
    def test_loader_equals_line_oracle(self, tmp_path_factory, field, data):
        path = tmp_path_factory.mktemp("field") / "field.csv"
        cell_save_field(path, field)
        path.write_text(rewrite(data, path.read_text(), shuffle=data.draw(st.booleans())))
        assert_same_arrays(load_field(path), line_load_field(path), ("ids", "volumes", "sigma_unit"))

    @settings(max_examples=60, deadline=None)
    @given(field=st.one_of(random_field(), random_field(pool=True)))
    def test_writer_bytes_equal_cell_oracle(self, tmp_path_factory, field):
        folder = tmp_path_factory.mktemp("field")
        save_field(folder / "new.csv", field)
        cell_save_field(folder / "old.csv", field)
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(field=random_field(), data=st.data())
    def test_bad_row_reported_at_its_line(self, tmp_path_factory, field, data):
        path = tmp_path_factory.mktemp("field") / "field.csv"
        save_field(path, field)
        text, line_no = corrupt(data, rewrite(data, path.read_text(), shuffle=False), 8)
        path.write_text(text)
        with pytest.raises(FieldFormatError) as err:
            load_field(path)
        with pytest.raises(FieldFormatError) as oracle:
            line_load_field(path)
        assert err.value.line_no == oracle.value.line_no == line_no
        assert str(err.value) == str(oracle.value)

    @pytest.mark.parametrize("header, row", [
        (FIELD_HEADER, "0,1.0,1.0,0,0,0,0,0"), (TABLE_HEADER, "0,40.0,0.001,1.0"),
    ], ids=["field", "table"])
    def test_hash_after_a_cell_is_not_a_comment(self, tmp_path, header, row):
        path = tmp_path / "file.csv"
        path.write_text(f"{header}\n{row}\n{row.replace('0,', '1,', 1)} # note\n")
        load = load_field if header == FIELD_HEADER else load_criterion_table
        with pytest.raises(FieldFormatError, match="could not convert string to float") as err:
            load(path)
        assert err.value.line_no == 3

    def test_every_key_value_comment_before_the_header_is_a_tag(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "# content-hash: abc\n# note: first\n\n# a comment\n# note: a: b\n"
            f"{TABLE_HEADER}\n# after: the header\n0,40.0,0.001,1.0\n"
        )
        with open(path, encoding="utf-8") as fh:
            assert read_header(fh, TABLE_HEADER) == ({"content-hash": "abc", "note": "a: b"}, 6)
            assert fh.readline() == "# after: the header\n"

    @pytest.mark.parametrize("tag, note", [("a\rb", ""), ("cyl\nr=3", ""), ("", "one\ntwo"), ("", "x\r\n")])
    def test_line_break_refused_before_the_file_opens(self, tmp_path, tag, note):
        field = dataclasses.replace(bulk_only(), geometry_tag=tag, nominal_area_note=note)
        with pytest.raises(ValueError, match="holds a line break"):
            save_field(tmp_path / "field.csv", field)
        assert not (tmp_path / "field.csv").exists()

    @settings(max_examples=80, deadline=None)
    @given(tag=TAG_TEXT, note=TAG_TEXT)
    @example(tag=" cyl r=3 ", note="")
    @example(tag="\tcyl ", note="note ")
    @example(tag="cyl", note="x\x85")
    @example(tag="cylinder r=3.072 L=20.0", note="unit nominal amplitude = 1 MPa uniaxial along x")
    def test_tags_and_notes_load_back_as_saved(self, tmp_path_factory, tag, note):
        folder = tmp_path_factory.mktemp("tags")
        field = dataclasses.replace(bulk_only(), geometry_tag=tag, nominal_area_note=note)
        table = dataclasses.replace(ONE_CELL, geometry_tag=tag)
        for save, load, saved, refused in (
            (save_field, load_field, field, refusal(tag, note)),
            (save_criterion_table, load_criterion_table, table, refusal(tag)),
        ):
            first, second = folder / f"first.{save.__name__}.csv", folder / f"second.{save.__name__}.csv"
            if refused:
                with pytest.raises(ValueError, match=refused):
                    save(first, saved)
                assert not first.exists()
                continue
            save(first, saved)
            first.with_suffix(".npy").unlink(missing_ok=True)  # the CSV header is what strips
            loaded = load(first)
            assert loaded.geometry_tag == tag
            assert getattr(loaded, "nominal_area_note", note) == note
            save(second, loaded)
            assert second.read_bytes() == first.read_bytes()

    def test_duplicate_id_named_at_its_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(FIELD_HEADER + "\n" + "".join(f"{i},1.0,1.0,0,0,0,0,0\n" for i in (3, 1, 2, 1, 3)))
        with pytest.raises(FieldFormatError, match="duplicate element id 1") as err:
            load_field(path)
        assert err.value.line_no == 5

    @pytest.mark.parametrize("name", [
        "pore_density", "radius_median_um", "radius_log_sd", "accept_radius_um",
        "gauge_radius_mm", "gauge_length_mm", "surface_kt_boost",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_pore_stats_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            PoreFieldStats(**{name: value})


@st.composite
def pore_stats(draw):
    """Pore statistics from pore-free to gauges too thin for their pores' shells."""
    return PoreFieldStats(
        pore_density=draw(st.floats(0.0, 3.0)),
        radius_median_um=draw(st.floats(30.0, 200.0)),
        radius_log_sd=draw(st.floats(0.2, 0.8)),
        accept_radius_um=draw(st.floats(20.0, 80.0)),
        gauge_radius_mm=draw(st.floats(0.05, 3.0)),
        gauge_length_mm=draw(st.floats(0.5, 20.0)),
        surface_kt_boost=draw(st.floats(1.0, 2.0)),
    )


def synth_outcome(synth, stats, resolution, seed, n_pores):
    """A synthesized field's array bytes, tags and report, or the generation error's message."""
    try:
        field, info = synth(stats, resolution, seed, n_pores=n_pores)
    except FieldGenerationError as exc:
        return str(exc)
    arrays = [(a.dtype, a.shape, a.tobytes()) for a in (field.ids, field.volumes, field.sigma_unit)]
    return arrays, field.geometry_tag, field.nominal_area_note, info


class TestSynthField:
    @settings(max_examples=80, deadline=None)
    @given(stats=pore_stats(), resolution=st.integers(1, 33), seed=st.integers(0, 2**32 - 1),
           n_pores=st.one_of(st.none(), st.integers(0, 30)))
    @example(stats=SMALL, resolution=8, seed=0, n_pores=0)
    @example(stats=PoreFieldStats(gauge_radius_mm=0.06, gauge_length_mm=2000.0), resolution=33, seed=4, n_pores=3)
    @example(stats=PoreFieldStats(gauge_radius_mm=0.1, gauge_length_mm=0.1), resolution=1, seed=0, n_pores=5)
    def test_equals_loop_oracle(self, stats, resolution, seed, n_pores):
        assert synth_outcome(synth_field_report, stats, resolution, seed, n_pores) == synth_outcome(
            loop_synth_field_report, stats, resolution, seed, n_pores)

    @settings(max_examples=150, deadline=None)
    @given(median=st.floats(1.0, 200.0), log_sd=st.floats(0.01, 0.5), accept=st.floats(1.0, 1000.0),
           seed=st.integers(0, 2**32 - 1))
    @example(median=20.0, log_sd=0.05, accept=100.0, seed=0)  # the law lies wholly below the floor
    @example(median=20.0, log_sd=0.05, accept=30.113, seed=0)  # one double of the law stays above it
    def test_every_accepted_radius_law_draws(self, median, log_sd, accept, seed):
        # radii stay below median * exp(8.3 * log_sd), so the shells fit this gauge
        try:
            stats = PoreFieldStats(radius_median_um=median, radius_log_sd=log_sd, accept_radius_um=accept,
                                   gauge_radius_mm=100.0, gauge_length_mm=100.0)
        except ValueError as exc:
            assert f"accept_radius_um {accept} leaves no radius to draw" in str(exc)
            return
        field, info = synth_field_report(stats, resolution=2, seed=seed, n_pores=3)
        assert info["pore_count"] == 3 and field.n_elements == 7
        assert np.all(np.isfinite(field.volumes) & (field.volumes > 0.0))
        # the floor's CDF value is rounded, so far in the tail a radius may fall a little short of it
        radii_um = 1000.0 * porelife.field._sample_radii_mm(stats, 3, np.random.default_rng(seed))
        assert np.all(radii_um >= 0.99 * accept)

    @pytest.mark.parametrize("median, log_sd, accept", [(48.0, 0.306640625, 586.0), (70.0, 0.35, 50.0)])
    def test_no_radius_falls_below_the_acceptance_radius(self, median, log_sd, accept):
        # 586 um lies 8.16 log sd up; its CDF value rounds to 1 - 2**-52, whose
        # quantile is 8.13, so unclamped draws at that floor fell 1 % short
        stats = PoreFieldStats(radius_median_um=median, radius_log_sd=log_sd, accept_radius_um=accept)
        radii = porelife.field._sample_radii_mm(stats, 200, np.random.default_rng(0))
        assert np.all(radii >= accept / 1000.0)

    def test_pore_free_limit(self):
        field = synth_field(SMALL, seed=0, n_pores=0)
        assert field.n_elements == 1
        assert_allclose(field.volumes[0], SMALL.gauge_volume, rtol=1e-12)
        assert np.array_equal(field.sigma_unit[0], voigt.UNIAXIAL_X)

    def test_cavity_peak_kt(self):
        assert_allclose(cavity_peak_kt(0.3), 2.0454545454545454, atol=1e-12)
        field, info = synth_field_report(SMALL, seed=1, n_pores=3)
        peak = np.max(field.sigma_unit[:, 0])
        boost = SMALL.surface_kt_boost if info["surface_breaking_count"] else 1.0
        assert_allclose(peak, cavity_peak_kt(0.3) * boost, atol=1e-3)

    def test_volume_conservation(self):
        for seed in range(5):
            field = synth_field(SMALL, seed=seed)
            assert_allclose(field.total_volume, SMALL.gauge_volume, rtol=1e-6)

    def test_determinism(self):
        a = synth_field(SMALL, seed=123)
        b = synth_field(SMALL, seed=123)
        assert np.array_equal(a.volumes, b.volumes)
        assert np.array_equal(a.sigma_unit, b.sigma_unit)

    def test_volume_fraction_calibration(self):
        fractions = [
            synth_field_report(SMALL, seed=s)[1]["pore_volume_fraction"] for s in range(100)
        ]
        assert abs(float(np.mean(fractions)) - 0.0028) < 0.0005

    def test_surface_flag_boosts_peak_shell(self):
        # a pore centred at the axis of a tight cylinder must break the surface
        tight = PoreFieldStats(gauge_radius_mm=0.06, gauge_length_mm=2000.0)
        field, info = synth_field_report(tight, seed=4, n_pores=1)
        assert info["surface_breaking_count"] == 1
        assert_allclose(
            np.max(field.sigma_unit[:, 0]),
            cavity_peak_kt(0.3) * tight.surface_kt_boost,
            rtol=1e-12,
        )

    def test_statistical_fidelity(self):
        counts = []
        radii_pool = []
        stats = PoreFieldStats(gauge_radius_mm=1.0, gauge_length_mm=5.0)
        for seed in range(200):
            field, info = synth_field_report(stats, seed=seed)
            counts.append(info["pore_count"])
            # recover radii from the innermost shell volumes: v0 = 4/3 pi a^3 (s^3 - 1)
            s = 4.0 ** (1.0 / 8)
            n = field.n_elements
            shells0 = np.arange(1, n, 8)
            a = (field.volumes[shells0] * 3.0 / (4.0 * math.pi * (s**3 - 1.0))) ** (1.0 / 3.0)
            radii_pool.extend(a * 1000.0)
        counts = np.array(counts)
        lam = stats.pore_density * stats.gauge_volume
        # chi-square against the Poisson law; half-integer edges keep the
        # integer counts unambiguously binned
        quantile_edges = scipy_stats.poisson.ppf([0.2, 0.4, 0.6, 0.8], lam)
        edges = np.concatenate([[-0.5], quantile_edges + 0.5, [np.inf]])
        observed, _ = np.histogram(counts, bins=edges)
        cdf_vals = np.concatenate([[0.0], scipy_stats.poisson.cdf(quantile_edges, lam), [1.0]])
        expected = len(counts) * np.diff(cdf_vals)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        p_value = 1.0 - scipy_stats.chi2.cdf(chi2, df=len(observed) - 1)
        assert p_value > 0.01

        # Kolmogorov-Smirnov against the truncated log-normal radius law
        mu, s_log = math.log(stats.radius_median_um), stats.radius_log_sd
        floor = scipy_stats.norm.cdf((math.log(stats.accept_radius_um) - mu) / s_log)

        def truncated_cdf(r):
            z = scipy_stats.norm.cdf((np.log(r) - mu) / s_log)
            return np.clip((z - floor) / (1.0 - floor), 0.0, 1.0)

        ks = scipy_stats.kstest(np.array(radii_pool), truncated_cdf)
        assert ks.pvalue > 0.01


class TestVariants:
    def test_tile_identity(self):
        field = synth_field(SMALL, seed=2, n_pores=5)
        assert tile_field(field, 1) is field

    def test_tile_counts_and_volumes(self):
        field = synth_field(SMALL, seed=2, n_pores=3)
        tiled = tile_field(field, 4)
        assert tiled.n_elements == 4 * field.n_elements
        assert_allclose(tiled.total_volume, 4 * field.total_volume, rtol=1e-12)
        assert np.unique(tiled.ids).size == tiled.n_elements

    def test_tile_weakest_link_law(self):
        params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4)
        field = synth_field(SMALL, seed=3)
        tiled = tile_field(field, 2)
        delta = 2.0 * 60.0 / ALSI7MG.E * field.sigma_unit[:, 0]
        scale_1 = structure_scale(element_scale_array(params, delta, field.volumes), params.m)
        delta2 = 2.0 * 60.0 / ALSI7MG.E * tiled.sigma_unit[:, 0]
        scale_2 = structure_scale(element_scale_array(params, delta2, tiled.volumes), params.m)
        assert_allclose(scale_2, scale_1 * 2.0 ** (-1.0 / params.m), rtol=1e-12)

    def test_thin_preserves_volume(self):
        thin = thin_variant(SMALL, 4.0)
        assert_allclose(thin.gauge_volume, SMALL.gauge_volume, rtol=1e-12)
        assert thin.gauge_radius_mm == SMALL.gauge_radius_mm / 4.0
        assert thin.gauge_length_mm == SMALL.gauge_length_mm * 16.0

    def test_thin_identity(self):
        assert thin_variant(SMALL, 1.0) is SMALL

    @pytest.mark.parametrize("divisor", [0.5, math.nan, math.inf])
    def test_thin_out_of_range_rejected(self, divisor):
        with pytest.raises(ValueError, match=f"radius divisor must be finite and >= 1, got {divisor}"):
            thin_variant(SMALL, divisor)

    def test_thin_increases_surface_fraction(self):
        thin = thin_variant(SMALL, 4.0)
        base_frac, thin_frac = [], []
        for seed in range(100):
            _, info = synth_field_report(SMALL, seed=seed)
            base_frac.append(info["surface_breaking_count"] / max(info["pore_count"], 1))
            _, info = synth_field_report(thin, seed=seed)
            thin_frac.append(info["surface_breaking_count"] / max(info["pore_count"], 1))
        assert np.mean(thin_frac) > np.mean(base_frac)

    @pytest.mark.parametrize("kt", [1.0, 0.5, math.nan])
    def test_notch_kt_out_of_range_rejected(self, kt):
        with pytest.raises(ValueError, match=f"kt must exceed 1, got {kt}"):
            notch_variant(synth_field(SMALL, seed=5, n_pores=1), kt, 0.02)

    def test_infinite_notch_kt_rejected(self):
        with pytest.raises(ValueError, match="kt must be finite, got inf"):
            notch_variant(synth_field(SMALL, seed=5, n_pores=1), math.inf, 0.02)

    def test_variants_of_an_untagged_field_save(self, tmp_path):
        field = dataclasses.replace(bulk_only(), geometry_tag="")
        for variant, tag in ((tile_field(field, 2), "x2"), (notch_variant(field, 2.0, 0.1), "notch kt=2.0 f=0.1")):
            assert variant.geometry_tag == tag
            save_field(tmp_path / "variant.csv", variant)
            assert load_field(tmp_path / "variant.csv").geometry_tag == tag

    def test_notch_variant_splits_volume(self):
        field = synth_field(SMALL, seed=5, n_pores=4)
        notched = notch_variant(field, kt=2.2, volume_fraction=0.02)
        assert notched.n_elements == 2 * field.n_elements
        assert_allclose(notched.total_volume, field.total_volume, rtol=1e-12)
        assert_allclose(
            np.max(notched.sigma_unit[:, 0]), 2.2 * np.max(field.sigma_unit[:, 0]), rtol=1e-12
        )


class TestCriterionTable:
    def test_bulk_element_elastic_value(self, material):
        table = criterion_table(bulk_only(), material, [80.0])
        assert_allclose(table.delta_eps[0, 0], 2.0 * 80.0 / material.E, rtol=1e-12)

    def test_rows_nondecreasing(self, material):
        field = synth_field(SMALL, seed=6, n_pores=10)
        levels = [20.0, 40.0, 60.0, 80.0, 100.0]
        table = criterion_table(field, material, levels)
        assert np.all(np.diff(table.delta_eps, axis=1) >= 0.0)

    def test_sub_yield_rows_exact_hooke(self, material):
        field = bulk_only()
        levels = [20.0, 50.0, 100.0]
        table = criterion_table(field, material, levels)
        assert_allclose(table.delta_eps[0], [2 * lv / material.E for lv in levels], rtol=1e-12)

    def test_biaxial_element_matches_direct_correction(self, material):
        from porelife.material_point import cosine_cycle, criterion_delta_eps, critical_direction, neuber_correct

        tensor = np.array([1.0, 0.5, 0, 0, 0, 0])
        field = ElasticElementField(
            ids=np.array([0]), volumes=np.array([1.0]), sigma_unit=tensor[None, :]
        )
        level = 150.0
        table = criterion_table(field, material, [level])
        _, strain = neuber_correct(material, cosine_cycle(tensor, amplitude=level))
        direct = criterion_delta_eps(strain, critical_direction(tensor))
        assert table.delta_eps[0, 0] == direct

    def test_plastic_entry_exceeds_elastic(self, material):
        # peak shell of a cavity at 100 MPa: 204.5 MPa elastic peak, beyond yield
        field = ElasticElementField(
            ids=np.array([0]),
            volumes=np.array([1.0]),
            sigma_unit=np.array([[cavity_peak_kt(0.3), 0, 0, 0, 0, 0]]),
        )
        table = criterion_table(field, material, [100.0])
        assert table.delta_eps[0, 0] > 2.0 * 100.0 * cavity_peak_kt(0.3) / material.E

    def test_levels_validation(self, material):
        with pytest.raises(ValueError):
            criterion_table(bulk_only(), material, [80.0, 40.0])
        with pytest.raises(ValueError):
            criterion_table(bulk_only(), material, [-10.0])
        with pytest.raises(ValueError):
            criterion_table(bulk_only(), material, [])

    def test_interpolation(self, material):
        table = criterion_table(bulk_only(), material, [40.0, 80.0])
        exact = table.interpolate(80.0)
        assert exact[0] == table.delta_eps[0, 1]
        mid = table.interpolate(60.0)
        assert_allclose(mid[0], 0.5 * (table.delta_eps[0, 0] + table.delta_eps[0, 1]), rtol=1e-12)
        with pytest.raises(ExtrapolationError):
            table.interpolate(120.0)
        with pytest.raises(ExtrapolationError):
            table.interpolate(10.0)

    def test_save_load_round_trip(self, tmp_path, material):
        field = synth_field(SMALL, seed=7, n_pores=6)
        table = criterion_table(field, material, [40.0, 80.0])
        path = tmp_path / "table.csv"
        save_criterion_table(path, table, comments=["content-hash: abc"])
        back = load_criterion_table(path)
        assert np.array_equal(back.element_ids, np.sort(table.element_ids))
        order = np.argsort(table.element_ids)
        assert np.array_equal(back.delta_eps, table.delta_eps[order])
        assert np.array_equal(back.volumes, table.volumes[order])
        assert np.array_equal(back.load_levels, table.load_levels)

    def test_failure_collection(self, material):
        # a unit stress of 1e100 MPa puts the Neuber product out of reach of
        # the bracket doubling (CorrectionError); with a failures list the run
        # continues and the bad element is reported
        field = ElasticElementField(
            ids=np.array([0, 1]),
            volumes=np.array([1.0, 1.0]),
            sigma_unit=np.array([[1.0, 0, 0, 0, 0, 0], [1e100, 0, 0, 0, 0, 0]]),
        )
        failures = []
        table = criterion_table(field, material, [50.0], failures=failures)
        assert len(failures) == 1 and failures[0][0] == 1
        assert table.element_ids.tolist() == [0]
        with pytest.raises(CriterionError):
            criterion_table(field, material, [50.0])

    @pytest.mark.parametrize("field, value", [
        ("volumes", np.nan), ("volumes", np.inf), ("volumes", 0.0),
        ("delta_eps", np.nan), ("delta_eps", np.inf), ("load_levels", np.nan),
    ])
    def test_table_non_finite_rejected(self, field, value):
        arrays = dict(
            element_ids=np.array([0, 1]),
            volumes=np.array([1.0, 2.0]),
            load_levels=np.array([40.0, 80.0]),
            delta_eps=np.array([[1e-3, 2e-3], [1.5e-3, 3e-3]]),
        )
        arrays[field] = arrays[field].copy()
        arrays[field].flat[-1] = value
        with pytest.raises(ValueError):
            CriterionTable(**arrays)

    @pytest.mark.parametrize("levels", [[40.0, 80.0, 60.0], [80.0, 40.0, 60.0], [40.0, 40.0, 60.0]])
    def test_table_levels_not_ascending_rejected(self, levels):
        # interpolate assumes an ascending grid: [40, 80, 60] would refuse 70 MPa as outside [40, 60]
        with pytest.raises(ValueError, match="load levels must be strictly ascending"):
            CriterionTable(element_ids=[0], volumes=[1.0], load_levels=levels, delta_eps=[[1e-3, 1e-3, 1e-3]])

    @settings(max_examples=15, deadline=None)
    @given(volumes=st.lists(POSITIVE, min_size=1, max_size=5),
           levels=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=4, unique=True),
           steps=st.lists(st.floats(0.0, 1e3), min_size=20, max_size=20))
    def test_table_round_trip_random_finite(self, tmp_path_factory, volumes, levels, steps):
        n, k = len(volumes), len(levels)
        delta = np.cumsum(np.array(steps[: n * k]).reshape(n, k), axis=1)  # nondecreasing rows
        table = CriterionTable(element_ids=np.arange(n), volumes=volumes, load_levels=sorted(levels), delta_eps=delta)
        path = tmp_path_factory.mktemp("table") / "table.csv"
        save_criterion_table(path, table)
        back = load_criterion_table(path)
        assert np.array_equal(back.volumes, table.volumes)
        assert np.array_equal(back.load_levels, table.load_levels)
        assert np.array_equal(back.delta_eps, table.delta_eps)

    @settings(max_examples=15, deadline=None)
    @given(n_rows=st.integers(1, 6), data=st.data(), bad=NON_FINITE)
    def test_table_non_finite_cell_rejected_at_its_line(self, tmp_path_factory, n_rows, data, bad):
        rows = [[str(i // 2), ("40.0", "80.0")[i % 2], "0.001", "1.0"] for i in range(n_rows)]
        row = data.draw(st.integers(0, n_rows - 1))
        rows[row][data.draw(st.integers(1, 3))] = bad
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_text("# geometry: g\n" + TABLE_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(FieldFormatError, match="non-finite") as err:
            load_criterion_table(path)
        assert err.value.line_no == row + 3

    @settings(max_examples=40, deadline=None)
    @given(table=random_table(), data=st.data())
    def test_table_loader_equals_line_oracle(self, tmp_path_factory, table, data):
        path = tmp_path_factory.mktemp("table") / "table.csv"
        cell_save_criterion_table(path, table, comments=["content-hash: abc"])
        path.write_text(rewrite(data, path.read_text(), shuffle=True))
        assert_same_arrays(
            load_criterion_table(path), line_load_criterion_table(path),
            ("element_ids", "volumes", "load_levels", "delta_eps"),
        )

    @settings(max_examples=60, deadline=None)
    @given(table=st.one_of(random_table(), random_table(pool=True)),
           comments=st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=8), max_size=2))
    @example(table=ONE_CELL, comments=["content-hash: abc", "two\nlines"])
    @example(table=ONE_CELL, comments=["carriage\rreturn"])
    def test_table_writer_bytes_equal_cell_oracle(self, tmp_path_factory, table, comments):
        folder = tmp_path_factory.mktemp("table")
        if any(ch in text for text in comments for ch in "\r\n"):
            with pytest.raises(ValueError, match="table comment .* holds a line break"):
                save_criterion_table(folder / "new.csv", table, comments=comments)
            assert not (folder / "new.csv").exists()
            return
        save_criterion_table(folder / "new.csv", table, comments=comments)
        cell_save_criterion_table(folder / "old.csv", table, comments=comments)
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()

    @pytest.mark.parametrize("n, levels", [(1, 1), (1, 3), (4, 1), (5, 3)])
    def test_writers_keep_signed_zeros_apart(self, tmp_path, n, levels):
        # -0.0 equals 0.0 as a float: rows keyed on their values would share one text
        pick = np.arange(n) % 2
        table = CriterionTable(
            element_ids=np.arange(n), volumes=np.ones(n), load_levels=np.arange(1.0, levels + 1),
            delta_eps=np.array([[-0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])[pick, :levels],
        )
        field = ElasticElementField(ids=np.arange(n), volumes=np.ones(n), sigma_unit=np.array([
            [-0.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])[pick])
        same = []
        for save, oracle, data in ((save_criterion_table, cell_save_criterion_table, table),
                                   (save_field, cell_save_field, field)):
            save(tmp_path / "new.csv", data)
            oracle(tmp_path / "old.csv", data)
            assert b",-0.0," in (tmp_path / "new.csv").read_bytes()
            same.append((tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes())
        assert same == [True, True]  # [table, field]

    def test_table_without_levels_writes_only_its_header(self, tmp_path):
        table = CriterionTable(element_ids=[3, 4], volumes=[1.0, 2.0], load_levels=[], delta_eps=np.zeros((2, 0)))
        save_criterion_table(tmp_path / "new.csv", table)
        cell_save_criterion_table(tmp_path / "old.csv", table)
        assert (tmp_path / "new.csv").read_text() == (tmp_path / "old.csv").read_text() == TABLE_HEADER + "\n"

    @settings(max_examples=40, deadline=None)
    @given(table=random_table(), data=st.data())
    def test_table_bad_row_reported_at_its_line(self, tmp_path_factory, table, data):
        path = tmp_path_factory.mktemp("table") / "table.csv"
        save_criterion_table(path, table)
        text, line_no = corrupt(data, rewrite(data, path.read_text(), shuffle=True), 4)
        path.write_text(text)
        with pytest.raises(FieldFormatError) as err:
            load_criterion_table(path)
        with pytest.raises(FieldFormatError) as oracle:
            line_load_criterion_table(path)
        assert err.value.line_no == oracle.value.line_no == line_no
        assert str(err.value) == str(oracle.value)

    def test_repeated_level_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_HEADER + "\n0,40.0,0.001,1.0\n1,40.0,0.001,1.0\n0,40.0,0.002,1.0\n")
        assert line_load_criterion_table(path).delta_eps[0, 0] == 0.002  # the last row used to win
        with pytest.raises(FieldFormatError, match="repeated load level 40.0 for element 0") as err:
            load_criterion_table(path)
        assert err.value.line_no == 4

    def test_volume_mismatch_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_HEADER + "\n0,80.0,0.002,1.0\n1,40.0,0.001,1.0\n# c\n0,40.0,0.001,2.0\n1,80.0,0.002,1.0\n")
        assert line_load_criterion_table(path).volumes[0] == 1.0  # the later volume used to be ignored
        with pytest.raises(FieldFormatError, match="volume 2.0 for element 0 differs from its first row's 1.0") as err:
            load_criterion_table(path)
        assert err.value.line_no == 5

    @settings(max_examples=25, deadline=None)
    @given(table=random_table(), data=st.data())
    def test_repeated_row_rejected_at_its_line(self, tmp_path_factory, table, data):
        path = tmp_path_factory.mktemp("table") / "table.csv"
        save_criterion_table(path, table)
        header, *rows = path.read_text().splitlines()[-table.delta_eps.size - 1:]
        source = data.draw(st.integers(0, len(rows) - 1))
        target = data.draw(st.integers(source + 1, len(rows)))
        eid, level, _, volume = rows[source].split(",")
        rows.insert(target, f"{eid},{level},{data.draw(st.floats(0.0, 1e3))!r},{volume}")
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(FieldFormatError, match=f"repeated load level {float(level)} for element {eid}") as err:
            load_criterion_table(path)
        assert err.value.line_no == target + 2

    def test_inconsistent_grids_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_HEADER + "\n0,40.0,0.001,1.0\n0,80.0,0.002,1.0\n1,40.0,0.001,1.0\n1,60.0,0.002,1.0\n")
        with pytest.raises(FieldFormatError, match="inconsistent load-level grids") as err:
            load_criterion_table(path)
        assert err.value.line_no == 0

    def test_overflowing_element_recorded(self, material):
        # the squared norm of a 1e200 MPa history overflows; the element
        # fails instead of passing as hydrostatic with a 1e197 strain range
        field = ElasticElementField(
            ids=np.array([0, 1]),
            volumes=np.array([1.0, 1.0]),
            sigma_unit=np.array([[1.0, 0, 0, 0, 0, 0], [1e200, 0, 0, 0, 0, 0]]),
        )
        failures = []
        table = criterion_table(field, material, [50.0], failures=failures)
        assert [eid for eid, _ in failures] == [1]
        assert "not finite" in str(failures[0][1])
        assert table.element_ids.tolist() == [0]

    def test_history_without_reversal_recorded(self, material):
        # one sample per cycle has no load reversal: the Kt 2 element yields at 100 MPa
        field = ElasticElementField(
            ids=np.array([0, 1]),
            volumes=np.array([1.0, 1.0]),
            sigma_unit=np.array([[2.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]]),
        )
        failures = []
        table = criterion_table(field, material, [40.0, 100.0], samples=1, failures=failures)
        assert [eid for eid, _ in failures] == [0]
        assert "no load reversal" in str(failures[0][1])
        assert table.element_ids.tolist() == [1]

    def test_samples_validation(self, material):
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            criterion_table(bulk_only(), material, [80.0], samples=0)

    @pytest.mark.parametrize("name", ["cycles", "samples"])
    @pytest.mark.parametrize("value, message", [
        (-3, "must be at least 1, got -3"), (0, "must be at least 1, got 0"),
        (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    ])
    def test_counts_validated_up_front(self, material, name, value, message):
        with mock.patch.object(porelife.material_point, "critical_directions") as directions:
            with pytest.raises(ValueError, match=f"{name} {message}"):
                criterion_table(bulk_only(), material, [100.0], **{name: value})
        directions.assert_not_called()

    def test_integral_float_counts_give_the_int_table(self, material):
        field = ElasticElementField(ids=[0, 1], volumes=[1.0, 1.0], sigma_unit=[voigt.UNIAXIAL_X, 2.5 * voigt.UNIAXIAL_X])
        table = criterion_table(field, material, [40.0, 100.0], cycles=20.0, samples=40.0)
        assert table.delta_eps.tobytes() == criterion_table(field, material, [40.0, 100.0]).delta_eps.tobytes()

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            CriterionTable(
                element_ids=np.array([0]),
                volumes=np.array([1.0]),
                load_levels=np.array([40.0, 80.0]),
                delta_eps=np.array([[2e-3, 1e-3]]),  # decreasing along levels
            )


TABLE_ARRAYS = ("element_ids", "volumes", "load_levels", "delta_eps")


def load_outcome(path):
    """What loading ``path`` gives: the table's arrays and tag, or the error's message and line."""
    try:
        table = load_criterion_table(path)
    except FieldFormatError as exc:
        return "error", str(exc), exc.line_no
    arrays = [getattr(table, name) for name in TABLE_ARRAYS]
    return "table", [(a.dtype, a.shape, a.tobytes()) for a in arrays], table.geometry_tag


def relayout(record, shape=(), **formats):
    """``record`` rebuilt with some fields in another format, each field's values cast and cut or repeated to fit."""
    dtype = np.dtype([(name, *formats.get(name, (record.dtype[name].base, record.dtype[name].shape)))
                      for name in record.dtype.names])
    out = np.zeros(shape, dtype)
    for name in dtype.names:
        out[name] = np.resize(record[name].astype(dtype[name].base), dtype[name].shape)
    return out


def resave(record, save=np.save, **kwargs):
    """A sidecar spoiler that saves ``record`` (a function of the valid one) in its place."""
    def spoil(sidecar, csv):
        spoiled = record(np.load(sidecar))
        with open(sidecar, "wb") as fh:
            save(fh, spoiled, **kwargs)
    return spoil


#: Ways a sidecar goes bad, as ``spoil(sidecar, csv)``.  Each one but ``stale``
#: and ``damaged_row`` keeps the CSV's digest, so only its layout is wrong.
SPOILED_SIDECARS = {
    "missing": lambda sidecar, csv: sidecar.unlink(),
    "stale": lambda sidecar, csv: csv.write_text(csv.read_text().replace(",27.1\n", ",27.2\n")),
    "damaged_row": lambda sidecar, csv: csv.write_text(csv.read_text().replace("\n2,60.0,", "\n2,60.0x,")),
    "truncated_data": lambda sidecar, csv: sidecar.write_bytes(sidecar.read_bytes()[:-8]),
    "truncated_header": lambda sidecar, csv: sidecar.write_bytes(sidecar.read_bytes()[:40]),
    "empty": lambda sidecar, csv: sidecar.write_bytes(b""),
    "not_npy": lambda sidecar, csv: sidecar.write_bytes(b"element_id,load_MPa\n"),
    "directory": lambda sidecar, csv: (sidecar.unlink(), sidecar.mkdir()),
    "npz_archive": resave(lambda r: r, save=lambda fh, r: np.savez(fh, record=r)),
    "object_array": resave(lambda r: np.array([r.item()], dtype=object), allow_pickle=True),
    "object_field": resave(lambda r: relayout(r, sha256=(object, ())), allow_pickle=True),
    "int32_ids": resave(lambda r: relayout(r, element_ids=("<i4", r.dtype["element_ids"].shape))),
    "big_endian_strains": resave(lambda r: relayout(r, delta_eps=(">f8", r.dtype["delta_eps"].shape))),
    "flat_strains": resave(lambda r: relayout(r, delta_eps=("<f8", (r["delta_eps"].size,)))),
    "scalar_tag": resave(lambda r: relayout(r, geometry=("u1", ()))),
    "record_array": resave(lambda r: relayout(r, shape=(1,))),
    "plain_array": resave(lambda r: r["delta_eps"]),
    "missing_field": resave(lambda r: r[["sha256", "element_ids", "volumes", "load_levels", "delta_eps"]]),
}


class TestTableSidecar:
    """The binary sidecar gives the CSV path's table, and only for the CSV it was made from."""

    @settings(max_examples=60, deadline=None)
    @given(table=st.one_of(random_table(), random_table(pool=True)), tag=TAG_TEXT, comments=st.lists(TAG_TEXT, max_size=2))
    @example(table=ONE_CELL, tag="g\n7,40.0,0.5,1.0", comments=[])
    @example(table=ONE_CELL, tag="g", comments=["c\r7,40.0,0.5,1.0"])
    @example(table=ONE_CELL, tag="g\r\nh", comments=[])
    @example(table=ONE_CELL, tag="", comments=["geometry: h\n"])
    def test_sidecar_equals_csv_path(self, tmp_path_factory, table, tag, comments):
        # ids come shuffled and rows repeat; -0.0 steps leave signed zeros
        path = tmp_path_factory.mktemp("table") / "t.criterion.csv"
        sidecar = path.with_suffix(".npy")
        refused = refusal(tag) or ("holds a line break" if any(ch in text for text in comments for ch in "\r\n") else None)
        if refused:  # a line break would add or split CSV lines; outer whitespace would not load back
            with pytest.raises(ValueError, match=refused):
                save_criterion_table(path, dataclasses.replace(table, geometry_tag=tag), comments=comments)
            assert not path.exists() and not sidecar.exists()
            return
        save_criterion_table(path, dataclasses.replace(table, geometry_tag=tag), comments=comments)
        assert read_sidecar(path) is not None
        fast = load_criterion_table(path)
        sidecar.unlink()
        assert_same_arrays(fast, load_criterion_table(path), TABLE_ARRAYS)

    @pytest.mark.parametrize("table", [
        CriterionTable(element_ids=[3, 1, 3], volumes=[1.0, 2.0, 1.0], load_levels=[40.0], delta_eps=[[1e-3]] * 3),
        CriterionTable(element_ids=[3, 4], volumes=[1.0, 2.0], load_levels=[], delta_eps=np.zeros((2, 0))),
        CriterionTable(element_ids=[], volumes=[], load_levels=[40.0], delta_eps=np.zeros((0, 1))),
    ], ids=["repeated_ids", "no_levels", "no_elements"])
    def test_no_sidecar_for_a_table_the_csv_reader_refuses(self, tmp_path, table):
        path = tmp_path / "t.criterion.csv"
        save_criterion_table(path, table)
        assert not path.with_suffix(".npy").exists()
        with pytest.raises(FieldFormatError):
            load_criterion_table(path)

    def test_no_sidecar_when_the_csv_path_reorders_levels(self, tmp_path):
        # a CriterionTable refuses descending levels, so only a hand-written CSV has them
        (tmp_path / "t.criterion.csv").write_text(f"{TABLE_HEADER}\n0,80.0,0.002,1.0\n0,40.0,0.001,1.0\n")
        table = load_criterion_table(tmp_path / "t.criterion.csv")
        assert not (tmp_path / "t.criterion.npy").exists()
        assert table.load_levels.tolist() == [40.0, 80.0]
        assert table.delta_eps.tolist() == [[0.001, 0.002]]

    def test_sidecar_is_never_the_csv_itself(self, tmp_path):
        path = tmp_path / "table.npy"
        save_criterion_table(path, ONE_CELL)
        assert path.read_text().endswith(TABLE_HEADER + "\n0,40.0,0.001,1.0\n")
        assert read_sidecar(path) is None

    @pytest.mark.parametrize("how", SPOILED_SIDECARS)
    def test_spoiled_sidecar_gives_the_csv_path(self, tmp_path, how):
        path = tmp_path / "t.criterion.csv"
        table = CriterionTable(
            element_ids=[2, 0, 1], volumes=[27.1, 27.1, 3.0], load_levels=[40.0, 60.0],
            delta_eps=[[1e-3, 2e-3], [-0.0, 0.0], [1e-3, 1e-3]], geometry_tag="cylinder r=3.072 L=20.0",
        )
        save_criterion_table(path, table, comments=["content-hash: abc"])
        sidecar = path.with_suffix(".npy")
        assert read_sidecar(path) is not None
        SPOILED_SIDECARS[how](sidecar, path)
        assert read_sidecar(path) is None
        spoiled = load_outcome(path)
        if sidecar.is_file():
            sidecar.unlink()
        assert spoiled == load_outcome(path)
        if how == "damaged_row":
            assert spoiled[0] == "error" and spoiled[2] == 5
        elif how == "stale":
            assert load_criterion_table(path).volumes.tolist() == [27.2, 3.0, 27.2]

    def test_no_sidecar_file_means_no_hashing(self, tmp_path, monkeypatch):
        path = tmp_path / "t.criterion.csv"
        save_criterion_table(path, ONE_CELL)
        path.with_suffix(".npy").unlink()
        monkeypatch.setattr(porelife.field, "_digest", mock.Mock(side_effect=AssertionError("hashed")))
        assert load_criterion_table(path).element_ids.tolist() == [0]

    def test_digest_reads_in_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "big.csv"
        path.write_bytes(bytes(range(256)) * 1000)
        monkeypatch.setattr(porelife.field, "SIDECAR_HASH_BLOCK", 1000)
        assert porelife.field._digest(path) == hashlib.sha256(path.read_bytes()).hexdigest().encode()


class TestBatchedCriterion:
    """The batched table equals the one-cell-at-a-time oracle bit for bit."""

    @settings(max_examples=60)
    @given(field=criterion_field(), data=st.data())
    def test_equals_cell_oracle(self, field, data):
        levels = sorted(data.draw(st.sets(st.sampled_from(CRITERION_LEVELS), min_size=1, max_size=4)))
        chunk = data.draw(st.sampled_from([1, 2, 3, porelife.material_point.CRITERION_CHUNK]))
        with mock.patch.object(porelife.material_point, "CRITERION_CHUNK", chunk):
            assert_matches_cell_oracle(field, levels)

    @pytest.mark.parametrize("extra", [-porelife.material_point.CRITERION_CHUNK + 1, 0, 1], ids=["one", "chunk", "chunk+1"])
    def test_chunk_boundaries(self, extra):
        n = porelife.material_point.CRITERION_CHUNK + extra
        kinds = list(ELEMENT_KINDS)
        tensors = [ELEMENT_KINDS[kinds[i % len(kinds)]](i, 0.5 + 0.05 * i) for i in range(n)]
        tensors[-1] = tensors[0].copy()  # at n = chunk + 1 a repeat across the boundary
        field = ElasticElementField(ids=np.arange(n)[::-1], volumes=np.ones(n), sigma_unit=np.array(tensors))
        assert_matches_cell_oracle(field, [40.0, 85.0, 150.0])

    def test_failures_in_element_order(self, material):
        tensors = [ELEMENT_KINDS[kind](1, 1.5) for kind in ("overflow", "multiaxial", "bracket", "history_overflow")]
        field = ElasticElementField(ids=[7, 3, 5, 1], volumes=np.ones(4), sigma_unit=np.array(tensors))
        failures = []
        table = criterion_table(field, material, [40.0, 150.0], failures=failures)
        assert [eid for eid, _ in failures] == [7, 5, 1]
        assert "tensor norm is not finite" in str(failures[0][1])
        assert "could not bracket" in str(failures[1][1])
        assert "history norm is not finite" in str(failures[2][1])
        assert table.element_ids.tolist() == [3]

    def test_every_element_failed_raises_the_first_recorded_failure(self, material):
        tensors = [ELEMENT_KINDS[kind](1, 1.5) for kind in ("overflow", "bracket", "history_overflow")]
        field = ElasticElementField(ids=[7, 5, 1], volumes=np.ones(3), sigma_unit=np.array(tensors))
        failures = []
        with pytest.raises(CriterionError) as raised:
            criterion_table(field, material, [40.0, 150.0], failures=failures)
        assert [eid for eid, _ in failures] == [7, 5, 1]
        assert raised.value.element_id == 7 and raised.value.cause is failures[0][1].cause
        assert str(raised.value) == str(failures[0][1]) and "tensor norm is not finite" in str(raised.value)

    def test_falling_row_is_a_failed_element(self, material):
        # diag(-2, -3, -3): elastic and plastic coefficients of opposite signs
        tensors = [np.array([-2.0, -3.0, -3.0, 0.0, 0.0, 0.0]), voigt.UNIAXIAL_X, np.array([-2.0, -3.0, -3.0, 0.0, 0.0, 0.0])]
        field = ElasticElementField(ids=[4, 9, 2], volumes=np.ones(3), sigma_unit=np.array(tensors))
        failures = []
        table = criterion_table(field, material, [40.0, 250.0], cycles=1, samples=2, failures=failures)
        assert [(eid, str(err)) for eid, err in failures] == [
            (4, "element 4: strain range falls as the load rises"), (2, "element 2: strain range falls as the load rises")]
        assert table.element_ids.tolist() == [9]
        with pytest.raises(CriterionError, match="element 4: strain range falls"):
            criterion_table(field, material, [40.0, 250.0], cycles=1, samples=2)
        # the rows fall only over both levels: each level alone is a healthy table
        for level in (40.0, 250.0):
            assert criterion_table(field, material, [level], cycles=1, samples=2).element_ids.tolist() == [4, 9, 2]

    def test_only_cells_that_are_not_elastic_reach_the_corrector(self, material, monkeypatch):
        # uniaxial Kt 0.5 ... 2.5 (2.0 twice), a zero and a hydrostatic element
        tensors = [kt * voigt.UNIAXIAL_X for kt in (0.5, 1.0, 1.5, 2.0, 2.5, 2.0)]
        tensors += [np.zeros(6), np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])]
        field = ElasticElementField(ids=np.arange(8), volumes=np.ones(8), sigma_unit=np.array(tensors))
        levels = [40.0, 85.0, 100.0]
        calls = []
        original = porelife.material_point.neuber_correct

        def counting(params, history, *args, **kwargs):
            calls.append(history.values[0].tolist())  # the t = 0 sample: level * tensor
            return original(params, history, *args, **kwargs)

        monkeypatch.setattr(porelife.material_point, "neuber_correct", counting)
        table = criterion_table(field, material, levels)
        # the yielding cells (Kt 2.0 at 100 MPa, Kt 2.5 at 85 and 100 MPa) settle
        # from one loop solve each, and Kt 2.0 at 85 MPa peaks exactly at the
        # yield stress and stays elastic; only the zero and the hydrostatic
        # element, which have no direction, go to the corrector
        assert calls == [
            [0.0] * 6, [0.0] * 6, [0.0] * 6,
            [40.0, 40.0, 40.0, 0, 0, 0], [85.0, 85.0, 85.0, 0, 0, 0], [100.0, 100.0, 100.0, 0, 0, 0],
        ]
        monkeypatch.setattr(porelife.material_point, "neuber_correct", original)
        assert table.delta_eps.tobytes() == cell_criterion_table(field, material, levels).delta_eps.tobytes()

    @settings(max_examples=80)
    @given(field=gate_field(), levels=st.sets(st.sampled_from(GATE_LEVELS), min_size=1, max_size=4),
           samples=st.sampled_from([1, 2, 3, 40, 41]), cycles=st.sampled_from([1, 20]))
    @example(  # yielding with opposite coefficients: its anchors do not bound the projection
        field=ElasticElementField(ids=[0, 1], volumes=[1.0, 1.0], sigma_unit=[
            GATE_KINDS["opposite_coefficients"](None, 1.5), GATE_KINDS["uniaxial"](None, 2.0)]),
        levels={85.0, 250.0}, samples=40, cycles=20)
    @example(  # its range falls from 40 to 250 MPa: a failed element, the other kept
        field=ElasticElementField(ids=[0, 1], volumes=[1.0, 1.0], sigma_unit=[
            GATE_KINDS["opposite_coefficients"](None, 2.0), GATE_KINDS["uniaxial"](None, 1.0)]),
        levels={40.0, 250.0}, samples=2, cycles=1)
    def test_equals_cell_oracle_on_every_path(self, field, levels, samples, cycles):
        levels = sorted(levels)
        for collect in (True, False):
            assert table_outcome(criterion_table, field, levels, collect, samples=samples, cycles=cycles) == (
                oracle_outcome(field, levels, collect, samples=samples, cycles=cycles))

    def test_equals_cell_oracle_on_a_benchmark_mesh(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        workloads.write_mesh_field(tmp_path / "mesh.csv", 7)
        field = load_field(tmp_path / "mesh.csv")
        assert table_outcome(criterion_table, field, workloads.LEVELS, True) == oracle_outcome(
            field, workloads.LEVELS, True)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_frame_invariance_of_a_whole_field(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        # Kt up to 2.4 yields at the top levels (2.4 * 150 = 360 MPa > 170 MPa),
        # so both the elastic cells and the loop path are exercised
        tensors = [multiaxial_unit(rng.integers(2**32), kt) for kt in (0.6, 1.0, 1.4, 1.8, 2.4)]
        tensors += [ELEMENT_KINDS[kind](0, 1.7) for kind in ("zero", "hydrostatic", "degenerate", "at_yield")]
        sigma = np.array(tensors)
        levels = [40.0, 85.0, 100.0, 150.0]
        kernel, plastic_settled = porelife.material_point.settled_delta_eps, []

        def recording(params, tensors, n_stars, levels, *args):
            delta_eps, settled = kernel(params, tensors, n_stars, levels, *args)
            plastic_settled.append(np.any(settled & (np.outer(voigt.von_mises(tensors), levels) > params.sigma_y)))
            return delta_eps, settled

        with mock.patch.object(porelife.material_point, "settled_delta_eps", recording):
            base = criterion_table(ElasticElementField(ids=np.arange(9), volumes=np.ones(9), sigma_unit=sigma), ALSI7MG, levels)
        assert any(plastic_settled)  # the loop path settles yielding cells
        turned = criterion_table(
            ElasticElementField(ids=np.arange(9), volumes=np.ones(9), sigma_unit=rotate(sigma, q)), ALSI7MG, levels
        )
        assert_allclose(turned.delta_eps, base.delta_eps, rtol=1e-9, atol=0.0)
