import configparser
import dataclasses
import inspect
import json
import os
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from porelife.cli import (
    DEFAULT_NOTCH_VOLUME_FRACTION,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_VALIDATION,
    _pooled_median,
    cmd_calibrate,
    main,
    synthesize_observations,
)
import porelife.cli
import porelife.field
import porelife.forks
from porelife.config import ConfigError, RunConfig, load_config
from porelife.field import (
    FIELD_HEADER,
    TABLE_HEADER,
    CriterionTable,
    load_criterion_table,
    load_field,
    notch_variant,
    save_criterion_table,
    save_field,
    synth_field_report,
)
from porelife.likelihood import (
    FatigueObservation,
    Heterogeneous,
    Homogeneous,
    ObservationArrays,
    homogeneous_objective,
    load_observations,
    structure_for,
    unknown_pores_objective,
)
from porelife.optimize import CalibrationProblem, calibrate, one_line_mask
from porelife.weakest_link import DEFAULT_SAMPLES_PER_STRUCT, StructureLifetime, sample_lifetimes, wohler_quantiles
from porelife.strain_life import DEFAULT_REFERENCE_VOLUME, StrainLifeParams
from oracles import aggregate_runouts, loop_pooled_draws, loop_synthesize_observations, save_observations

SMALL_CONF = """
[protocol]
load_levels = 40, 60, 80, 100
samples_per_struct = 500
n_starts = 2
budget = 120
seed = 5
[pores]
gauge_radius_mm = 1.2
gauge_length_mm = 6.0
"""


REFERENCE_CONF = Path(__file__).resolve().parents[1] / "porelife.conf.example"


def reference_keys():
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    parser.read(REFERENCE_CONF, encoding="utf-8")
    return [(section, key, raw) for section in parser.sections() for key, raw in parser.items(section)]


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(SMALL_CONF)
    return path


def write_bulk_table(path):
    """A one-element criterion table on SMALL_CONF's load levels."""
    levels = (40.0, 60.0, 80.0, 100.0)
    save_criterion_table(path, CriterionTable(
        element_ids=[0], volumes=[27.1], load_levels=levels, delta_eps=[[2 * lv / 75500.0 for lv in levels]],
    ))
    return path


#: Malformed contents per input kind, each refused when the file is loaded.
MALFORMED = {
    "field": FIELD_HEADER + "\n0,1.0,nan,0,0,0,0,0\n",
    "table": TABLE_HEADER.replace("load_MPa", "level") + "\n0,40.0,0.001,27.1\n",
    "observations": "sigma_a_MPa,n_cycles,censored\n80,1e5,7\n",
    "params": "[2.0, 0.02, 0.2]",
}


def spoil(path, kind: str, how: str):
    """``path`` removed (``missing``) or rewritten with a malformed ``kind`` file (``malformed``)."""
    if how == "missing":
        path.unlink()
    else:
        path.write_text(MALFORMED[kind])
    return path


def assert_refused_without_out(capsys, argv, out, path):
    """The command exits 2 naming ``path`` and leaves no ``out`` behind."""
    assert main(argv) == EXIT_VALIDATION
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


#: Per input kind: a file whose line 3 holds the byte 0xba, which is not UTF-8.
UNDECODABLE = {
    "field": FIELD_HEADER + "\n0,1.0,1.0,0,0,0,0,0\n",
    "table": TABLE_HEADER + "\n0,40.0,0.001,27.1\n",
    "observations": "sigma_a_MPa,n_cycles,censored\n80,1e5,0\n",
    "config": "[protocol]\nseed = 3\n",
}


def write_synthetic_obs(path, levels=(60.0, 80.0, 100.0), runouts=False):
    true = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4, V0=593.0)
    rng = np.random.default_rng(2)
    obs = []
    for level in levels:
        struct = structure_for(true, Homogeneous(volume=27.1), level)
        if struct.is_infinite:
            continue
        draws = struct.scale * (-np.log1p(-rng.random(25))) ** 0.5
        for value in draws:
            censored = value >= 2e6
            obs.append(FatigueObservation(level, min(float(value), 2e6), censored))
    if runouts:
        obs = [FatigueObservation(o.sigma_a, 2e6, True) for o in obs]
    save_observations(path, obs)
    return obs


class TestConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.load_levels == tuple(float(x) for x in range(20, 101, 10))
        assert config.n_k == 10
        assert config.n_cycles == 20
        assert config.runout_cycles == 2e6
        assert config.quantiles == (0.01, 0.15, 0.50, 0.85, 0.99)

    def test_samples_per_struct_declared_once(self):
        default = inspect.signature(wohler_quantiles).parameters["samples_per_struct"].default
        assert RunConfig().samples_per_struct == default == DEFAULT_SAMPLES_PER_STRUCT == 1000

    def test_free_mask_and_reference_volume_declared_once(self):
        assert RunConfig().free_mask == one_line_mask() == (True, True, False, True, False, True)
        assert RunConfig().fatigue.V0 == DEFAULT_REFERENCE_VOLUME == 593.0

    def test_reference_file_parses(self):
        from pathlib import Path

        ref = Path(__file__).resolve().parents[1] / "porelife.conf.example"
        config = load_config(ref)
        assert config.material.E == 75500.0
        assert config.free_mask == (True, True, False, True, False, True)

    def test_reference_file_is_every_default(self):
        config, defaults = load_config(REFERENCE_CONF), RunConfig()
        for field in dataclasses.fields(RunConfig):
            assert getattr(config, field.name) == getattr(defaults, field.name), field.name

    @pytest.mark.parametrize("section, key, raw", reference_keys(), ids=lambda v: str(v))
    def test_every_reference_key_accepted_alone(self, tmp_path, section, key, raw):
        path = tmp_path / "one.conf"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        config, defaults = load_config(path), RunConfig()
        for field in dataclasses.fields(RunConfig):
            assert getattr(config, field.name) == getattr(defaults, field.name), field.name

    @pytest.mark.parametrize("section, key", [
        ("pores", "pore_density"), ("protocol", "runout_cycles"), ("protocol", "free_mask"),
        ("protocol", "shells"), ("material", "seed"), ("protocol", "pores"),
    ])
    def test_field_names_and_misplaced_keys_rejected(self, tmp_path, section, key):
        path = tmp_path / "bad.conf"
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
            load_config(path)

    @pytest.mark.parametrize("text, named", [
        ("[protocol]\nbudget = 0\n", "budget must be at least 1, got 0"),
        ("[protocol]\nn_starts = 0\n", "n_starts must be at least 1, got 0"),
        ("[protocol]\nsamples_per_struct = 0\n", "samples_per_struct must be at least 1, got 0"),
        ("[protocol]\ncycle_samples = 1\n", "cycle_samples must be at least 2, got 1"),
        ("[pores]\nshells = 0\n", "shells must be at least 1, got 0"),
        ("[protocol]\nquantiles = 0.5, 1.0\n", "quantiles must lie in (0, 1), got (0.5, 1.0)"),
        ("[protocol]\nquantiles = 0, 0.5\n", "quantiles must lie in (0, 1), got (0.0, 0.5)"),
        ("[protocol]\nquantiles = nan\n", "quantiles must lie in (0, 1), got (nan,)"),
        ("[protocol]\nquantiles =\n", "quantiles must lie in (0, 1), got ()"),
        ("[fatigue]\nfree =\n", "[fatigue] free must name at least one parameter"),
        ("[fatigue]\nfree = , ,\n", "[fatigue] free must name at least one parameter"),
        ("[pores]\nradius_median_um = 20\nradius_log_sd = 0.05\naccept_radius_um = 100\n",
         "accept_radius_um 100.0 leaves no radius to draw"),
        ("[protocol]\nseed = -1\n", "seed must be in [0, 2**64), got -1"),
        ("[protocol]\nseed = 18446744073709551616\n", "seed must be in [0, 2**64), got 18446744073709551616"),
    ], ids=["budget", "n_starts", "samples_per_struct", "cycle_samples", "shells", "q-one", "q-zero", "q-nan", "q-empty",
            "free-empty", "free-commas", "empty-radius-law", "seed-negative", "seed-2**64"])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.conf"
        path.write_text(text)
        out = tmp_path / "f"
        assert main(["genfield", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "123456789012345678901234567890"])
    @pytest.mark.parametrize("command", ["genfield", "criterion", "calibrate", "wohler", "homogenize"])
    def test_seed_flag_outside_u64_refused_before_any_out(self, conf, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        inputs = {"genfield": [], "calibrate": ["--mode", "homogeneous", "--observations", str(tmp_path / "obs.csv")]}
        argv = [command, "--config", str(conf), "--seed", seed, "--out", str(out)]
        assert main(argv + inputs.get(command, [str(tmp_path / "in.csv")])) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_bad_interpolation_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text("[protocol]\nseed = 5%\n")
        assert main(["genfield", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_VALIDATION
        assert "'%' must be followed by '%' or '('" in capsys.readouterr().err

    def test_descending_levels_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[protocol]\nload_levels = 100, 80, 60\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_misspelled_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text("[protocol]\nbudjet = 10\n")
        with pytest.raises(ConfigError, match=r"\[protocol\] budjet: unknown key"):
            load_config(path)
        assert main(["genfield", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_VALIDATION
        assert "budjet" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["paths", "DEFAULT"])
    def test_unknown_section_rejected(self, tmp_path, capsys, section):
        path = tmp_path / "bad.conf"
        path.write_text(f"[{section}]\nobservations = obs.csv\n")
        assert main(["genfield", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_VALIDATION
        assert f"unknown section [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[material]\nE = nan\n", "E must be finite, got nan"),
        ("[material]\nb = nan\n", "b must be finite, got nan"),
        ("[protocol]\nload_levels = 20, nan, 100\n", "load levels must be finite, got (20.0, nan, 100.0)"),
        ("[protocol]\nN_max = nan\n", "N_max must be positive and finite, got nan"),
        ("[protocol]\nN_max = inf\n", "N_max must be positive and finite, got inf"),
        ("[pores]\ndensity = nan\n", "[pores] density must be finite, got nan"),
        ("[pores]\ngauge_radius_mm = inf\n", "[pores] gauge_radius_mm must be finite, got inf"),
    ], ids=["E", "b", "load_levels", "N_max-nan", "N_max-inf", "density", "gauge_radius_mm"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.conf"
        path.write_text(text)
        assert main(["genfield", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    def test_unknown_free_name_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[fatigue]\nfree = m, bogus\n")
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.mark.parametrize("kind", UNDECODABLE)
def test_undecodable_input_named_with_its_line(conf, tmp_path, capsys, kind):
    path = tmp_path / ("in.criterion.csv" if kind == "table" else "in.csv")  # a table without a sidecar
    path.write_bytes(UNDECODABLE[kind].encode() + b"# \xba\n")
    out = tmp_path / "out"
    argv = {
        "field": ["criterion", "--config", str(conf), str(path)],
        "table": ["wohler", "--config", str(conf), str(path)],
        "observations": ["calibrate", "--config", str(conf), "--mode", "homogeneous", "--observations", str(path)],
        "config": ["genfield", "--config", str(path)],
    }[kind]
    assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:3: byte 0xba is not UTF-8 (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["wohler", "homogenize"])
def test_undecodable_params_named_with_its_line(conf, tmp_path, capsys, command):
    params = tmp_path / "fitted.json"
    params.write_bytes(b'{\n"m": 2.0,\n# \xba\n')
    out = tmp_path / "out"
    table = write_bulk_table(tmp_path / "t.criterion.csv")
    argv = [command, "--config", str(conf), "--params", str(params), "--out", str(out), str(table)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {params}:3: byte 0xba is not UTF-8 (invalid start byte)\n"
    assert not out.exists()


class TestGenfield:
    def test_pore_free(self, conf, tmp_path):
        rc = main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        assert rc == EXIT_OK
        field = load_field(tmp_path / "f" / "field_000.csv")
        assert field.n_elements == 1
        assert_allclose(field.sigma_unit[0], [1, 0, 0, 0, 0, 0])

    def test_thin_preserves_manifest_volume(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "base")])
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "thin"), "--thin", "4"])
        base = json.loads((tmp_path / "base" / "manifest.json").read_text())
        thin = json.loads((tmp_path / "thin" / "manifest.json").read_text())
        assert_allclose(thin["gauge_volume_mm3"], base["gauge_volume_mm3"], rtol=1e-9)

    def test_tile_doubles_elements(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "a"), "--pores", "3"])
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "b"), "--pores", "3", "--tile", "2"])
        a = load_field(tmp_path / "a" / "field_000.csv")
        b = load_field(tmp_path / "b" / "field_000.csv")
        assert b.n_elements == 2 * a.n_elements

    def test_loaded_field_saves_to_its_own_bytes(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "3"])
        source = tmp_path / "f" / "field_000.csv"
        assert b"\n# note: " in source.read_bytes()
        save_field(tmp_path / "again.csv", load_field(source))
        assert (tmp_path / "again.csv").read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("flags, named", [
        (["--count", "0"], "--count must be at least 1, got 0"),
        (["--pores", "-3"], "--pores must be nonnegative, got -3"),
        (["--tile", "0"], "--tile must be at least 1, got 0"),
        (["--thin", "0.5"], "--thin must be finite and at least 1, got 0.5"),
        (["--thin", "nan"], "--thin must be finite and at least 1, got nan"),
        (["--thin", "inf"], "--thin must be finite and at least 1, got inf"),
        (["--notch-kt", "0.5"], "--notch-kt must exceed 1, got 0.5"),
        (["--notch-kt", "nan"], "--notch-kt must exceed 1, got nan"),
        (["--notch-kt", "inf"], "--notch-kt must be finite, got inf"),
        (["--notch-kt", "2", "--notch-volume-fraction", "1.5"], "--notch-volume-fraction must be in (0, 1), got 1.5"),
    ], ids=["count", "pores", "tile", "thin", "thin-nan", "thin-inf", "notch-kt", "notch-kt-nan", "notch-kt-inf",
            "notch-fraction"])
    def test_out_of_range_flag_rejected(self, conf, tmp_path, capsys, flags, named):
        out = tmp_path / "f"
        assert main(["genfield", "--config", str(conf), "--out", str(out), *flags]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_notch_kt_fields_are_notch_variants(self, conf, tmp_path):
        out = tmp_path / "f"
        assert main(["genfield", "--config", str(conf), "--out", str(out), "--count", "2", "--pores", "3",
                     "--notch-kt", "2.5"]) == EXIT_OK
        config = load_config(conf)
        for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(2)):
            field, _ = synth_field_report(config.pores, config.shells, child, nu=config.material.nu, n_pores=3)
            save_field(tmp_path / "want.csv", notch_variant(field, 2.5, DEFAULT_NOTCH_VOLUME_FRACTION))
            assert (out / f"field_{i:03d}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["notch_kt"] == 2.5

    def test_seed_flag_overrides_config(self, conf, tmp_path):
        reseeded = tmp_path / "reseeded.conf"
        reseeded.write_text(SMALL_CONF.replace("seed = 5", "seed = 9"))
        main(["genfield", "--config", str(conf), "--seed", "9", "--out", str(tmp_path / "flag")])
        main(["genfield", "--config", str(reseeded), "--out", str(tmp_path / "file")])
        assert json.loads((tmp_path / "flag" / "manifest.json").read_text())["seed"] == 9
        for name in ("field_000.csv", "manifest.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    def test_reproducible_bytes(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "r1"), "--count", "2"])
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "r2"), "--count", "2"])
        for name in ("field_000.csv", "field_001.csv", "manifest.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestCriterion:
    def test_bulk_row_and_idempotency(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        field_path = tmp_path / "f" / "field_000.csv"
        out = tmp_path / "t"
        rc = main(["criterion", "--config", str(conf), "--out", str(out), str(field_path)])
        assert rc == EXIT_OK
        table = load_criterion_table(out / "field_000.criterion.csv")
        assert_allclose(table.delta_eps[0], [2 * lv / 75500.0 for lv in (40, 60, 80, 100)], rtol=1e-12)
        first = (out / "field_000.criterion.csv").read_bytes()
        rc = main(["criterion", "--config", str(conf), "--out", str(out), str(field_path)])
        assert rc == EXIT_OK
        assert (out / "field_000.criterion.csv").read_bytes() == first

    def test_partial_failure_exit_code(self, conf, tmp_path):
        # element 1's Neuber solve cannot be bracketed (see test_field's
        # test_failure_collection); the other element still gets its row
        bad = tmp_path / "bad_field.csv"
        bad.write_text(
            "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz\n"
            "0,1.0,1.0,0,0,0,0,0\n"
            "1,1.0,1e100,0,0,0,0,0\n"
        )
        rc = main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(bad)])
        assert rc == EXIT_PARTIAL
        table = load_criterion_table(tmp_path / "t" / "bad_field.criterion.csv")
        assert table.element_ids.tolist() == [0]

    def test_overflowing_element_is_a_partial_failure(self, conf, tmp_path, capsys):
        bad = tmp_path / "huge_field.csv"
        bad.write_text(
            "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz\n"
            "0,1.0,1.0,0,0,0,0,0\n"
            "1,1.0,1e200,0,0,0,0,0\n"
        )
        rc = main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(bad)])
        assert rc == EXIT_PARTIAL
        assert "element 1 failed" in capsys.readouterr().err
        table = load_criterion_table(tmp_path / "t" / "huge_field.criterion.csv")
        assert table.element_ids.tolist() == [0]

    def test_falling_strain_range_is_a_partial_failure(self, tmp_path, capsys):
        # element 0's elastic and plastic coefficients have opposite signs, so
        # with 2 samples and 1 cycle its range falls from 40 to 250 MPa
        conf = tmp_path / "falling.conf"
        conf.write_text("[protocol]\nload_levels = 40, 250\nn_cycles = 1\ncycle_samples = 2\n")
        field = tmp_path / "falling_field.csv"
        field.write_text(f"{FIELD_HEADER}\n0,1.0,-2,-3,-3,0,0,0\n1,1.0,1,0,0,0,0,0\n")
        out = tmp_path / "t"
        assert main(["criterion", "--config", str(conf), "--out", str(out), str(field)]) == EXIT_PARTIAL
        assert "element 0 failed: element 0: strain range falls as the load rises" in capsys.readouterr().err
        table = load_criterion_table(out / "falling_field.criterion.csv")
        assert table.element_ids.tolist() == [1]
        assert table.load_levels.tolist() == [40.0, 250.0]

    def test_field_files_sharing_a_name_are_refused(self, conf, tmp_path, capsys):
        # both would write t/field.criterion.csv, so the second table would replace the first
        first, second = tmp_path / "a" / "field.csv", tmp_path / "b" / "field.csv"
        for path, kt in ((first, 1.0), (second, 2.0)):
            path.parent.mkdir()
            path.write_text(f"{FIELD_HEADER}\n0,1.0,{kt},0,0,0,0,0\n")
        out = tmp_path / "t"
        assert main(["criterion", "--config", str(conf), "--out", str(out), str(first), str(second)]) == EXIT_VALIDATION
        assert f"error: {first} and {second} would both write {out / 'field.criterion.csv'}" in capsys.readouterr().err
        assert not out.exists()
        # the same file given twice writes its one table, then finds it up to date
        assert main(["criterion", "--config", str(conf), "--out", str(out), str(first), str(first)]) == EXIT_OK
        assert capsys.readouterr().out == ("field.criterion.csv: 1 elements x 4 levels\n"
                                           "field.criterion.csv: up to date, skipped\n")

    def test_field_where_every_element_fails_names_the_file_and_each_cause(self, conf, tmp_path, capsys):
        field = tmp_path / "huge_field.csv"
        field.write_text(f"{FIELD_HEADER}\n0,1.0,1e300,0,0,0,0,0\n1,1.0,1e100,0,0,0,0,0\n")
        out = tmp_path / "t"
        assert main(["criterion", "--config", str(conf), "--out", str(out), str(field)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "huge_field.csv: element 0 failed: element 0: tensor norm is not finite" in err
        assert "huge_field.csv: element 1 failed: element 1: could not bracket" in err
        assert err.endswith(f"error: {field}: criterion failed for every element\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["two\nlines.csv", "carriage\rreturn.csv"])
    def test_field_name_with_a_line_break_is_refused(self, conf, tmp_path, capsys, name):
        # the name goes into the table's `source:` comment, which must stay one line
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        field = (tmp_path / "f" / "field_000.csv").rename(tmp_path / "f" / name)
        out = tmp_path / "t"
        assert main(["criterion", "--config", str(conf), "--out", str(out), str(field)]) == EXIT_VALIDATION
        assert f"field file name {name!r} holds a line break" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_field_cell_is_a_validation_error(self, conf, tmp_path, capsys):
        bad = tmp_path / "nan_field.csv"
        bad.write_text(
            "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz\n"
            "0,1.0,1.0,0,0,0,0,0\n"
            "1,1.0,nan,0,0,0,0,0\n"
        )
        rc = main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(bad)])
        assert rc == EXIT_VALIDATION
        assert "nan_field.csv:3: non-finite value for element 1" in capsys.readouterr().err

    def test_damaged_header_recomputes_the_table(self, conf, tmp_path, capsys):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        argv = ["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")]
        assert main(argv) == EXIT_OK
        table = tmp_path / "t" / "field_000.criterion.csv"
        first = table.read_bytes()
        table.write_bytes(first.replace(TABLE_HEADER.encode(), TABLE_HEADER.replace("load_MPa", "level").encode()))
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "field_000.criterion.csv: 1 elements x 4 levels\n"
        assert table.read_bytes() == first

    def test_damaged_row_recomputes_the_table(self, conf, tmp_path, capsys):
        # the header and its content-hash stay intact; only the sidecar's digest sees the row
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        argv = ["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")]
        assert main(argv) == EXIT_OK
        table = tmp_path / "t" / "field_000.criterion.csv"
        first, sidecar = table.read_bytes(), table.with_suffix(".npy").read_bytes()
        assert b"\n0,60.0," in first
        table.write_bytes(first.replace(b"\n0,60.0,", b"\n0,60.0x,"))
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "field_000.criterion.csv: 1 elements x 4 levels\n"
        assert table.read_bytes() == first
        assert table.with_suffix(".npy").read_bytes() == sidecar
        assert main(["wohler", "--config", str(conf), "--out", str(tmp_path / "w"), str(table)]) == EXIT_OK

    def test_sidecar_bytes_are_deterministic(self, conf, tmp_path, capsys):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "2", "--count", "2"])
        fields = [str(tmp_path / "f" / f"field_{i:03d}.csv") for i in range(2)]
        for out in ("t1", "t2"):
            assert main(["criterion", "--config", str(conf), "--out", str(tmp_path / out), *fields]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "t1").iterdir())
        assert names == ["field_000.criterion.csv", "field_000.criterion.npy",
                         "field_001.criterion.csv", "field_001.criterion.npy"]
        assert names == sorted(p.name for p in (tmp_path / "t2").iterdir())  # no *.tmp left behind
        for name in names:
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in (tmp_path / "t1").iterdir()}
        capsys.readouterr()
        assert main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t1"), *fields]) == EXIT_OK
        assert capsys.readouterr().out == "".join(f"field_{i:03d}.criterion.csv: up to date, skipped\n" for i in range(2))
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in (tmp_path / "t1").iterdir()} == before

    def test_table_without_sidecar_is_recomputed_once(self, conf, tmp_path, capsys):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        argv = ["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")]
        assert main(argv) == EXIT_OK
        sidecar = tmp_path / "t" / "field_000.criterion.npy"
        first = sidecar.read_bytes()
        sidecar.unlink()
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == ("field_000.criterion.csv: 1 elements x 4 levels\n"
                                           "field_000.criterion.csv: up to date, skipped\n")
        assert sidecar.read_bytes() == first

    @pytest.mark.parametrize("how", ["missing", "malformed"])
    def test_bad_field_leaves_no_out(self, conf, tmp_path, capsys, how):
        field = tmp_path / "field.csv"
        field.write_text(FIELD_HEADER + "\n0,1.0,1.0,0,0,0,0,0\n")
        out = tmp_path / "t"
        argv = ["criterion", "--config", str(conf), "--out", str(out), str(spoil(field, "field", how))]
        assert_refused_without_out(capsys, argv, out, field)


def run_on(cpus, capsys, argv, out):
    """``main(argv)`` seeing ``cpus.n`` usable CPUs: its forks, and its exit code, stdout, stderr and files.

    The files are ``None`` when there is no ``out``, else a dict of the bytes under it (read through a
    link); the name of ``out`` in stderr reads ``OUT``.
    """
    cpus.set(cpus.n)
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    stdout, stderr = capsys.readouterr()
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()} if out.exists() else None
    return len(cpus.forks), (code, stdout, stderr.replace(str(out), "OUT"), files)


#: id -> the contents of three field files; ``None`` is a generated field, ``"repeat"`` the first file again.
#: "partial": element 1's Neuber solve cannot be bracketed; "all-failed-first": neither element's can.
FIELD_SETS = {
    "generated": [None, None, None],
    "partial": [None, f"{FIELD_HEADER}\n0,1.0,1.0,0,0,0,0,0\n1,1.0,1e100,0,0,0,0,0\n", None],
    "malformed-second": [None, MALFORMED["field"], None],
    "all-failed-first": [f"{FIELD_HEADER}\n0,1.0,1e300,0,0,0,0,0\n1,1.0,1e100,0,0,0,0,0\n", None, None],
    "repeated": [None, None, "repeat"],
}


class TestForkedFields:
    """``genfield`` and ``criterion`` on two usable CPUs give the exit code, output and files of one."""

    def test_genfield(self, conf, tmp_path, usable_cpus, capsys):
        runs = [run_on(usable_cpus.set(n), capsys, ["genfield", "--config", conf, "--out", tmp_path / f"f{n}",
                                                "--count", "3"], tmp_path / f"f{n}") for n in (1, 2)]
        assert [forks for forks, _ in runs] == [0, 1]
        assert runs[0][1] == runs[1][1]
        code, stdout, stderr, files = runs[1][1]
        assert (code, stdout, stderr) == (EXIT_OK, "", "")
        assert sorted(files) == ["field_000.csv", "field_001.csv", "field_002.csv", "manifest.json"]

    @pytest.mark.parametrize("case", FIELD_SETS)
    def test_criterion(self, conf, tmp_path, usable_cpus, capsys, case):
        assert main(["genfield", "--config", str(conf), "--out", str(tmp_path / "gen"), "--pores", "2",
                     "--count", "3"]) == EXIT_OK
        fields = []
        for i, text in enumerate(FIELD_SETS[case]):
            if text is None:
                fields.append(tmp_path / "gen" / f"field_{i:03d}.csv")
            elif text == "repeat":
                fields.append(fields[0])
            else:
                fields.append(tmp_path / f"given_{i}.csv")
                fields[-1].write_text(text)
        runs = [run_on(usable_cpus.set(n), capsys, ["criterion", "--config", conf, "--out", tmp_path / f"t{n}", *fields],
                       tmp_path / f"t{n}") for n in (1, 2)]
        assert [forks for forks, _ in runs] == [0, 1]
        assert runs[0][1] == runs[1][1]
        code, stdout, stderr, files = runs[1][1]
        written = "{}.criterion.csv: {} elements x 4 levels"
        if case == "partial":
            assert code == EXIT_PARTIAL and stderr.startswith("given_1.csv: element 1 failed: element 1: ")
            assert stdout.splitlines()[1] == written.format("given_1", 1)
        elif case == "malformed-second":
            assert code == EXIT_VALIDATION and stderr == f"error: {fields[1]}:2: non-finite value for element 0\n"
            assert sorted(files) == ["field_000.criterion.csv", "field_000.criterion.npy"]
        elif case == "all-failed-first":
            assert code == EXIT_VALIDATION and stdout == "" and files is None
            assert stderr.endswith(f"error: {fields[0]}: criterion failed for every element\n")
        elif case == "repeated":
            assert code == EXIT_OK and stdout.splitlines()[2] == "field_000.criterion.csv: up to date, skipped"
        if code != EXIT_VALIDATION:  # every table and its sidecar, and no other file
            assert sorted(files) == sorted(f"{path.stem}.criterion.{ext}" for path in set(fields) for ext in ("csv", "npy"))

    @pytest.mark.parametrize("command", ["genfield", "criterion"])
    def test_a_job_that_failed_in_a_child_runs_here_in_place(self, conf, tmp_path, monkeypatch, usable_cpus, capsys,
                                                             command):
        assert main(["genfield", "--config", str(conf), "--out", str(tmp_path / "gen"), "--count", "3"]) == EXIT_OK
        argv = {"genfield": ["genfield", "--count", "3"],
                "criterion": ["criterion", *sorted((tmp_path / "gen").glob("*.csv"))]}[command]
        runs = [run_on(usable_cpus.set(1), capsys, [*argv, "--config", conf, "--out", tmp_path / "one"], tmp_path / "one")]
        parent, name = os.getpid(), {"genfield": "save_field", "criterion": "save_criterion_table"}[command]
        save = getattr(porelife.field, name)

        def save_here_only(path, *args, **kwargs):
            if os.getpid() != parent:
                raise OSError(f"no save in a child: {path}")
            return save(path, *args, **kwargs)

        monkeypatch.setattr(porelife.field, name, save_here_only)
        runs.append(run_on(usable_cpus.set(2), capsys, [*argv, "--config", conf, "--out", tmp_path / "two"], tmp_path / "two"))
        assert [forks for forks, _ in runs] == [0, 1]
        assert runs[0][1] == runs[1][1] and runs[1][1][0] == EXIT_OK

    def test_no_field_after_a_failed_one_is_solved_here(self, conf, tmp_path, monkeypatch, capsys, cpus):
        solved, solve = [], porelife.cli._criterion
        monkeypatch.setattr(porelife.cli, "_criterion", lambda *args: solved.append(None) or solve(*args))
        assert main(["genfield", "--config", str(conf), "--out", str(tmp_path / "gen"), "--count", "2"]) == EXIT_OK
        bad = tmp_path / "bad.csv"
        bad.write_text(MALFORMED["field"])
        forks, (code, stdout, _, files) = run_on(cpus, capsys, [
            "criterion", "--config", conf, "--out", tmp_path / "t", bad, *sorted((tmp_path / "gen").glob("*.csv"))],
            tmp_path / "t")
        assert (forks, code, stdout, files) == (cpus.n - 1, EXIT_VALIDATION, "", None)
        assert solved == []  # this process's share stopped at the malformed first field

    @pytest.mark.parametrize("standing", ["link", "directory"])
    @pytest.mark.parametrize("command", ["genfield", "criterion"])
    def test_an_output_path_taken_by_a_link_or_a_directory(self, conf, tmp_path, capsys, cpus, command, standing):
        """A link there is written through; a directory there is named alone in the error, as by the serial loop."""
        fields = []
        if command == "criterion":
            assert main(["genfield", "--config", str(conf), "--out", str(tmp_path / "gen"), "--count", "3"]) == EXIT_OK
            fields = sorted((tmp_path / "gen").glob("*.csv"))
        argv = [command, "--count", "3"] if command == "genfield" else [command, *fields]
        name = "field_001.csv" if command == "genfield" else "field_001.criterion.csv"
        _, clean = run_on(cpus, capsys, [*argv, "--config", conf, "--out", tmp_path / "clean"], tmp_path / "clean")
        out, target = tmp_path / "out", tmp_path / "elsewhere" / "target.csv"
        out.mkdir()
        target.parent.mkdir()
        if standing == "link":
            (out / name).symlink_to(target)
        else:
            (out / name).mkdir()
        forks, (code, stdout, stderr, files) = run_on(cpus, capsys, [*argv, "--config", conf, "--out", out], out)
        assert forks == cpus.n - 1
        if standing == "link":
            assert (code, stdout, stderr, files) == clean  # the table's sidecar is a file of its own, as serially
            assert os.readlink(out / name) == str(target) and target.read_bytes() == clean[3][name]
        else:
            assert (code, stderr) == (EXIT_VALIDATION, f"error: [Errno 21] Is a directory: 'OUT/{name}'\n")
            assert stdout == "".join(clean[1].splitlines(keepends=True)[:1 if command == "criterion" else 0])
            assert files == {path: data for path, data in clean[3].items() if path.startswith("field_000.")}
            assert (out / name).is_dir() and list((out / name).iterdir()) == []


class TestCalibrate:
    def test_homogeneous_mode(self, conf, tmp_path):
        obs_path = tmp_path / "obs.csv"
        write_synthetic_obs(obs_path)
        rc = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "cal"),
            "--mode", "homogeneous", "--observations", str(obs_path),
        ])
        assert rc == EXIT_OK
        fitted = json.loads((tmp_path / "cal" / "fitted.json").read_text())
        assert set(fitted["params"]) == {"m", "A", "alpha", "B", "beta", "C", "V0"}
        trace = (tmp_path / "cal" / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,m,A,B,alpha,beta,C,log_likelihood"

    def test_runout_only_degenerate(self, conf, tmp_path):
        obs_path = tmp_path / "obs.csv"
        write_synthetic_obs(obs_path, runouts=True)
        rc = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "cal"),
            "--mode", "homogeneous", "--observations", str(obs_path),
        ])
        assert rc == EXIT_DEGENERATE

    def test_unknown_pores_single_table_matches_heterogeneous(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "4"])
        main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")])
        table_path = tmp_path / "t" / "field_000.criterion.csv"
        obs_path = tmp_path / "obs.csv"
        write_synthetic_obs(obs_path)
        rc1 = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "c1"),
            "--mode", "unknown-pores", "--observations", str(obs_path),
            "--tables", str(table_path),
        ])
        rc2 = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "c2"),
            "--mode", "heterogeneous", "--observations", str(obs_path),
            "--tables", str(table_path),
        ])
        assert rc1 == EXIT_OK and rc2 == EXIT_OK
        ll1 = json.loads((tmp_path / "c1" / "fitted.json").read_text())["log_likelihood"]
        ll2 = json.loads((tmp_path / "c2" / "fitted.json").read_text())["log_likelihood"]
        assert abs(ll1 - ll2) < 1e-9

    def test_joint_mode(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "4"])
        main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")])
        obs_path = tmp_path / "obs.csv"
        write_synthetic_obs(obs_path)
        hom_path = tmp_path / "hom.csv"
        write_synthetic_obs(hom_path, levels=(100.0, 140.0))
        rc = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "cal"),
            "--mode", "joint", "--observations", str(obs_path),
            "--tables", str(tmp_path / "t" / "field_000.criterion.csv"),
            "--homogeneous-observations", str(hom_path), "--reduce-per-level",
        ])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("mode", ["unknown-pores", "joint"])
    def test_more_tables_than_n_k_freeze_a_subset_per_observation(self, tmp_path, mode):
        conf = tmp_path / "nk.conf"
        conf.write_text(SMALL_CONF.replace("[protocol]\n", "[protocol]\nn_k = 2\n"))
        levels = (40.0, 60.0, 80.0, 100.0)
        tables = []
        for kt in (2.0, 3.0, 4.0):
            tables.append(tmp_path / f"kt{kt:g}.criterion.csv")
            save_criterion_table(tables[-1], CriterionTable(
                element_ids=[0], volumes=[27.1], load_levels=levels, delta_eps=[[kt * lv / 75500.0 for lv in levels]]))
        obs_path, hom_path = tmp_path / "obs.csv", tmp_path / "hom.csv"
        write_synthetic_obs(obs_path)
        write_synthetic_obs(hom_path, levels=(100.0, 140.0))
        argv = ["calibrate", "--config", str(conf), "--mode", mode, "--observations", str(obs_path),
                "--tables", *map(str, tables), "--homogeneous-observations", str(hom_path)]
        assert main(argv + ["--out", str(tmp_path / "c1")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "c2")]) == EXIT_OK

        config = load_config(conf)
        observations = load_observations(obs_path)
        rng = np.random.default_rng(config.seed)
        subsets = [rng.choice(len(tables), size=config.n_k, replace=False) for _ in observations]
        loaded = [load_criterion_table(path) for path in tables]
        term_u = unknown_pores_objective(observations, loaded, config.runout_cycles, subsets)
        every_table = unknown_pores_objective(observations, loaded, config.runout_cycles)
        assert term_u(config.fatigue) != every_table(config.fatigue)  # the subsets matter
        objective = term_u
        if mode == "joint":
            term_h = homogeneous_objective(load_observations(hom_path), config.pores.gauge_volume, config.material.E,
                                           config.runout_cycles)

            def objective(params):
                return term_h(params) + term_u(params)

        want = calibrate(CalibrationProblem(objective=objective, x0=config.fatigue, free_mask=config.free_mask,
                                            budget=config.budget), n_starts=config.n_starts, seed=config.seed)
        fitted = json.loads((tmp_path / "c1" / "fitted.json").read_text())
        assert (fitted["params"], fitted["log_likelihood"]) == (dataclasses.asdict(want.params), want.log_likelihood)
        for name in ("fitted.json", "trace.csv"):
            assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()

    def test_mode_without_tables_is_validation_error(self, conf, tmp_path):
        obs_path = tmp_path / "obs.csv"
        write_synthetic_obs(obs_path)
        rc = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "cal"),
            "--mode", "unknown-pores", "--observations", str(obs_path),
        ])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("missing, named", [
        ("--tables", "joint mode needs at least one criterion table"),
        ("--homogeneous-observations", "joint mode needs --homogeneous-observations"),
    ])
    def test_joint_mode_without_an_input_is_validation_error(self, conf, tmp_path, capsys, missing, named):
        obs_path = tmp_path / "obs.csv"
        write_synthetic_obs(obs_path)
        inputs = {"--tables": str(tmp_path / "t.csv"), "--homogeneous-observations": str(obs_path)}
        del inputs[missing]
        out = tmp_path / "cal"
        args = ["calibrate", "--config", str(conf), "--out", str(out), "--mode", "joint", "--observations", str(obs_path)]
        assert main(args + [item for pair in inputs.items() for item in pair]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["missing", "malformed"])
    @pytest.mark.parametrize("flag", ["--observations", "--tables", "--homogeneous-observations"])
    def test_bad_input_leaves_no_out(self, conf, tmp_path, capsys, flag, how):
        inputs = {
            "--observations": tmp_path / "obs.csv",
            "--tables": write_bulk_table(tmp_path / "t.criterion.csv"),
            "--homogeneous-observations": tmp_path / "hom.csv",
        }
        write_synthetic_obs(inputs["--observations"])
        write_synthetic_obs(inputs["--homogeneous-observations"], levels=(100.0, 140.0))
        spoil(inputs[flag], "table" if flag == "--tables" else "observations", how)
        out = tmp_path / "cal"
        argv = ["calibrate", "--config", str(conf), "--out", str(out), "--mode", "joint"]
        assert_refused_without_out(capsys, argv + [str(item) for pair in inputs.items() for item in pair], out, inputs[flag])

    def test_unknown_mode_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "cal"
        with pytest.raises(ConfigError, match="unknown calibration mode 'jiont'"):
            cmd_calibrate(RunConfig(), out, "jiont", tmp_path / "none.csv", [tmp_path / "t.csv"], tmp_path / "h.csv", False)
        assert not out.exists()


class TestWohler:
    def test_single_bulk_closed_form_median(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "0"])
        main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")])
        table_path = tmp_path / "t" / "field_000.criterion.csv"
        rc = main(["wohler", "--config", str(conf), "--out", str(tmp_path / "w"), str(table_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "w" / "wohler.csv").read_text().strip().splitlines()
        assert lines[0] == "load_MPa,q01,q15,q50,q85,q99,censored_fraction"
        config = load_config(conf)
        table = load_criterion_table(table_path)
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            struct = structure_for(config.fatigue, Heterogeneous(table), cells[0])
            if struct.is_infinite:
                assert cells[3] == config.runout_cycles
            else:
                assert_allclose(cells[3], struct.median(), rtol=0.1)

    def test_reproducible(self, conf, tmp_path):
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--pores", "2"])
        main(["criterion", "--config", str(conf), "--out", str(tmp_path / "t"), str(tmp_path / "f" / "field_000.csv")])
        table_path = tmp_path / "t" / "field_000.criterion.csv"
        main(["wohler", "--config", str(conf), "--out", str(tmp_path / "w1"), str(table_path)])
        main(["wohler", "--config", str(conf), "--out", str(tmp_path / "w2"), str(table_path)])
        assert (tmp_path / "w1" / "wohler.csv").read_bytes() == (tmp_path / "w2" / "wohler.csv").read_bytes()

    def test_tiled_field_median_ratio(self, tmp_path):
        # doubling the volume by tiling shifts the sampled median by 2^(-1/m)
        conf = tmp_path / "tile.conf"
        conf.write_text(
            "[protocol]\nload_levels = 60, 80, 100\nsamples_per_struct = 10000\nseed = 5\n"
            "[pores]\ngauge_radius_mm = 1.2\ngauge_length_mm = 6.0\n"
        )
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "b"), "--pores", "5"])
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "d"), "--pores", "5", "--tile", "2"])
        main(["criterion", "--config", str(conf), "--out", str(tmp_path / "tb"), str(tmp_path / "b" / "field_000.csv")])
        main(["criterion", "--config", str(conf), "--out", str(tmp_path / "td"), str(tmp_path / "d" / "field_000.csv")])
        main(["wohler", "--config", str(conf), "--out", str(tmp_path / "wb"), str(tmp_path / "tb" / "field_000.criterion.csv")])
        main(["wohler", "--config", str(conf), "--out", str(tmp_path / "wd"), str(tmp_path / "td" / "field_000.criterion.csv")])
        base = {float(r.split(",")[0]): float(r.split(",")[3]) for r in (tmp_path / "wb" / "wohler.csv").read_text().splitlines()[1:]}
        tiled = {float(r.split(",")[0]): float(r.split(",")[3]) for r in (tmp_path / "wd" / "wohler.csv").read_text().splitlines()[1:]}
        m = load_config(conf).fatigue.m
        for level in base:
            assert_allclose(tiled[level] / base[level], 2.0 ** (-1.0 / m), rtol=0.03)


    @pytest.fixture
    def bulk_table(self, tmp_path):
        path = tmp_path / "bulk.criterion.csv"
        levels = (40.0, 60.0, 80.0, 100.0)
        save_criterion_table(path, CriterionTable(
            element_ids=[0], volumes=[27.1], load_levels=levels, delta_eps=[[2 * lv / 75500.0 for lv in levels]],
        ))
        return path

    def test_params_file_sets_the_model(self, conf, tmp_path, bulk_table):
        record = dataclasses.asdict(dataclasses.replace(load_config(conf).fatigue, m=3.0, A=0.02))
        params = tmp_path / "fitted.json"
        params.write_text(json.dumps({"mode": "homogeneous", "params": record}))
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"m": 3.0, "A": 0.02, "alpha": record["alpha"], "C": record["C"]}))
        in_config = tmp_path / "model.conf"
        in_config.write_text(SMALL_CONF + "[fatigue]\nm = 3.0\nA = 0.02\n")
        main(["wohler", "--config", str(conf), "--params", str(params), "--out", str(tmp_path / "p"), str(bulk_table)])
        main(["wohler", "--config", str(conf), "--params", str(flat), "--out", str(tmp_path / "f"), str(bulk_table)])
        main(["wohler", "--config", str(in_config), "--out", str(tmp_path / "c"), str(bulk_table)])
        expected = (tmp_path / "c" / "wohler.csv").read_bytes()
        assert (tmp_path / "p" / "wohler.csv").read_bytes() == expected
        assert (tmp_path / "f" / "wohler.csv").read_bytes() == expected

    @pytest.mark.parametrize("payload", [
        [2.0, 0.02, 0.2],
        {"params": {"A": 0.02, "alpha": 0.2}},
        {"m": None, "A": 0.02, "alpha": 0.2},
    ], ids=["list", "missing-m", "null-m"])
    def test_malformed_params_file_rejected(self, conf, tmp_path, capsys, bulk_table, payload):
        params = tmp_path / "bad_params.json"
        params.write_text(json.dumps(payload))
        rc = main(["wohler", "--config", str(conf), "--params", str(params), "--out", str(tmp_path / "w"), str(bulk_table)])
        assert rc == EXIT_VALIDATION
        assert str(params) in capsys.readouterr().err
        assert not (tmp_path / "w" / "wohler.csv").exists()

    @pytest.mark.parametrize("how", ["missing", "malformed"])
    @pytest.mark.parametrize("kind", ["params", "table"])
    def test_bad_input_leaves_no_out(self, conf, tmp_path, capsys, kind, how):
        params = tmp_path / "fitted.json"
        params.write_text(json.dumps(dataclasses.asdict(load_config(conf).fatigue)))
        table = write_bulk_table(tmp_path / "t.criterion.csv")
        bad = spoil(params if kind == "params" else table, kind, how)
        out = tmp_path / "w"
        argv = ["wohler", "--config", str(conf), "--params", str(params), "--out", str(out), str(table)]
        assert_refused_without_out(capsys, argv, out, bad)


class TestHomogenize:
    def test_report_structure(self, tmp_path):
        conf = tmp_path / "h.conf"
        conf.write_text(
            "[fatigue]\nm = 2.0\nA = 0.0047\nalpha = 0.129\nC = 0.0003\n"
            "[protocol]\nload_levels = 65, 80, 95\nsamples_per_struct = 300\n"
            "n_starts = 2\nbudget = 150\nseed = 3\n"
            "[pores]\ngauge_radius_mm = 1.2\ngauge_length_mm = 6.0\n"
        )
        main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f"), "--count", "3"])
        args = ["criterion", "--config", str(conf), "--out", str(tmp_path / "t")]
        args += [str(tmp_path / "f" / f"field_{i:03d}.csv") for i in range(3)]
        main(args)
        tables = [str(tmp_path / "t" / f"field_{i:03d}.criterion.csv") for i in range(3)]
        rc = main(["homogenize", "--config", str(conf), "--out", str(tmp_path / "h"), *tables])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "h" / "homogenize.json").read_text())
        assert report["levels"] == [65.0, 80.0, 95.0]
        assert len(report["cylinder"]["median_A"]) == 3
        assert len(report["challenge"]["median_B"]) == 3
        fitted_b = report["model_b"]
        StrainLifeParams(
            m=fitted_b["m"], A=fitted_b["A"], alpha=fitted_b["alpha"],
            B=fitted_b["B"], beta=fitted_b["beta"], C=fitted_b["C"], V0=fitted_b["V0"],
        )


    def test_synthesized_observations_match_one_at_a_time_build(self):
        params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
        levels = (55.0, 75.0, 95.0)
        tables = [
            CriterionTable(
                element_ids=[0, 1], volumes=[590.0, 3.0], load_levels=levels,
                delta_eps=np.outer([1.0, k], levels) * 2.0 / 75500.0,
            )
            for k in (1.5, 2.2)
        ]
        structs_by_table = [[structure_for(params, Heterogeneous(t), level) for level in levels] for t in tables]
        arrays = synthesize_observations(structs_by_table, levels, 200, 7, 2e6)
        children = iter(np.random.SeedSequence(7).spawn(len(tables) * len(levels)))
        objects = []
        for table in tables:
            for level in levels:
                struct = structure_for(params, Heterogeneous(table), level)
                values, censored = sample_lifetimes(struct, 200, next(children), 2e6)
                objects += [FatigueObservation(level, min(float(v), 2e6), bool(c)) for v, c in zip(values, censored)]
        drawn = ObservationArrays.of(objects)
        expected = aggregate_runouts(drawn.sigma_a, drawn.n_cycles, drawn.censored, 200)
        for name, column in zip(("sigma_a", "n_cycles", "censored", "count"), expected):
            assert getattr(arrays, name).tobytes() == column.tobytes()
        assert 0 < np.count_nonzero(arrays.censored) < len(arrays)
        assert homogeneous_objective(arrays, 593.0)(params) == homogeneous_objective(objects, 593.0)(params)


    def test_supplied_challenge_tables_give_the_challenge_medians(self, conf, tmp_path):
        levels = (40.0, 60.0, 80.0, 100.0)
        paths = {}
        for name, kt in (("cylinder", 8.0), ("porous", 10.0), ("bare", 6.0)):
            paths[name] = tmp_path / f"{name}.criterion.csv"
            save_criterion_table(paths[name], CriterionTable(
                element_ids=[0], volumes=[27.1], load_levels=levels, delta_eps=[[kt * lv / 75500.0 for lv in levels]]))
        out = tmp_path / "h"
        assert main(["homogenize", "--config", str(conf), "--out", str(out), "--challenge-porous", str(paths["porous"]),
                     "--challenge-bare", str(paths["bare"]), str(paths["cylinder"])]) == EXIT_OK
        report = json.loads((out / "homogenize.json").read_text())
        config = load_config(conf)
        for model, params, name in (("median_A", config.fatigue, "porous"),
                                    ("median_B", StrainLifeParams(**report["model_b"]), "bare")):
            table = load_criterion_table(paths[name])
            assert report["challenge"][model] == [
                structure_for(params, Heterogeneous(table), level).median() for level in config.load_levels]

    def test_notch_kt_named_before_any_work(self, conf, tmp_path, capsys):
        out = tmp_path / "h"
        rc = main(["homogenize", "--config", str(conf), "--out", str(out), "--notch-kt", "0.5", str(tmp_path / "none.csv")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --notch-kt must exceed 1, got 0.5\n"
        assert not out.exists()

    def test_infinite_notch_kt_named_before_any_work(self, conf, tmp_path, capsys):
        out = tmp_path / "h"
        rc = main(["homogenize", "--config", str(conf), "--out", str(out), "--notch-kt", "inf", str(tmp_path / "none.csv")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --notch-kt must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["missing", "malformed"])
    @pytest.mark.parametrize("flag", ["--params", "--challenge-porous", "--challenge-bare", "cylinder"])
    def test_bad_input_leaves_no_out(self, conf, tmp_path, capsys, flag, how):
        params = tmp_path / "fitted.json"
        params.write_text(json.dumps(dataclasses.asdict(load_config(conf).fatigue)))
        inputs = {"--params": params, **{name: write_bulk_table(tmp_path / f"{name.strip('-')}.criterion.csv")
                                         for name in ("--challenge-porous", "--challenge-bare", "cylinder")}}
        spoil(inputs[flag], "params" if flag == "--params" else "table", how)
        out = tmp_path / "h"
        argv = ["homogenize", "--config", str(conf), "--out", str(out)]
        argv += [str(item) for name in ("--params", "--challenge-porous", "--challenge-bare") for item in (name, inputs[name])]
        assert_refused_without_out(capsys, argv + [str(inputs["cylinder"])], out, inputs[flag])

    @pytest.mark.parametrize("n_structs", [3, 1])
    def test_pooled_median_equals_loop_oracle(self, n_structs):
        structs = [StructureLifetime(scale=1.5e6, shape=2.0), StructureLifetime.infinite(2.0),
                   StructureLifetime(scale=3e4, shape=4.0)][:n_structs]
        want, _ = loop_pooled_draws(structs, 301, 7, 2e6)
        assert _pooled_median(structs, 301, 7, 2e6) == float(np.median(want))

    @pytest.mark.parametrize("n_tables, levels", [(2, (5.0, 55.0, 95.0)), (1, (75.0,))], ids=["pools", "one-structure"])
    def test_synthesized_observations_equal_loop_oracle(self, n_tables, levels):
        params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
        tables = [
            CriterionTable(
                element_ids=[0, 1], volumes=[590.0, 3.0], load_levels=levels,
                delta_eps=np.outer([1.0, k], levels) * 2.0 / 75500.0,
            )
            for k in (1.5, 2.2)[:n_tables]
        ]
        structs_by_table = [[structure_for(params, Heterogeneous(t), level) for level in levels] for t in tables]
        assert any(s.is_infinite for row in structs_by_table for s in row) == (n_tables == 2)
        arrays = synthesize_observations(structs_by_table, levels, 200, 7, 2e6)
        want = aggregate_runouts(*loop_synthesize_observations(structs_by_table, levels, 200, 7, 2e6), 200)
        for got, expected in zip((arrays.sigma_a, arrays.n_cycles, arrays.censored, arrays.count), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_synthesized_rows_scale_with_the_failures(self):
        params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
        levels = (55.0, 75.0, 95.0)
        tables = [CriterionTable(element_ids=[0, 1], volumes=[590.0, 3.0], load_levels=levels,
                                 delta_eps=np.outer([1.0, k], levels) * 2.0 / 75500.0) for k in (1.5, 2.2)]
        structs_by_table = [[structure_for(params, Heterogeneous(t), level) for level in levels] for t in tables]
        failures = np.count_nonzero(~loop_synthesize_observations(structs_by_table, levels, 300, 3, 2e6)[2])
        arrays = synthesize_observations(structs_by_table, levels, 300, 3, 2e6)
        structures = len(tables) * len(levels)
        assert 0 < failures < structures * 300
        assert len(arrays) <= failures + structures
        assert arrays.count.sum() == structures * 300

    def test_all_run_outs_exit_4_without_out(self, conf, tmp_path, capsys):
        params = tmp_path / "fitted.json"
        params.write_text(json.dumps({"m": 2.0, "A": 0.025, "alpha": 0.2, "C": 0.5}))  # C above every amplitude
        out = tmp_path / "h"
        argv = ["homogenize", "--config", str(conf), "--out", str(out), "--params", str(params)]
        assert main(argv + [str(write_bulk_table(tmp_path / "t.criterion.csv"))]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            "error: all observations are run-outs; the likelihood is maximized by infinite life\n")
        assert not out.exists()

    def test_overflowing_challenge_table_named_without_out(self, conf, tmp_path, capsys):
        table = tmp_path / "t.criterion.csv"
        save_criterion_table(table, CriterionTable(element_ids=[0], volumes=[27.1], load_levels=(40.0, 60.0, 80.0, 100.0),
                                                   delta_eps=[[8 * lv / 75500.0 for lv in (40.0, 60.0, 80.0, 100.0)]]))
        out = tmp_path / "h"
        argv = ["homogenize", "--config", str(conf), "--out", str(out), "--notch-kt", "1e200", str(table)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: challenge table for --challenge-porous at --notch-kt 1e+200: element ")
        assert err.endswith(": tensor norm is not finite (inf): the stresses overflow\n")
        assert not out.exists()


class TestExitCodes:
    def test_descending_levels_config(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("[protocol]\nload_levels = 100, 50\n")
        rc = main(["genfield", "--config", str(conf), "--out", str(tmp_path / "f")])
        assert rc == EXIT_VALIDATION

    def test_missing_observation_file(self, conf, tmp_path):
        rc = main([
            "calibrate", "--config", str(conf), "--out", str(tmp_path / "cal"),
            "--mode", "homogeneous", "--observations", str(tmp_path / "nope.csv"),
        ])
        assert rc == EXIT_VALIDATION


#: Load levels of one-element tables: on SMALL_CONF's grid, and off it at 100 MPa ("A") or at 40 MPa ("B").
GRIDS = {"good": (40.0, 60.0, 80.0, 100.0), "A": (40.0, 60.0, 80.0), "B": (60.0, 80.0, 100.0)}
#: One row per table of a three-table heterogeneous run: table 1 is asked at 100 MPa, table 2 at 40 MPa.
THREE_ROWS = "sigma_a_MPa,n_cycles,censored\n60,1e5,0\n100,2e4,0\n40,1e6,1\n"
OFF_A = "amplitude 100.0 MPa outside the table grid [40.0, 80.0]"
OFF_B = "amplitude 40.0 MPa outside the table grid [60.0, 100.0]"
MALFORMED_TABLE = "{}:1: expected header 'element_id,load_MPa,delta_eps,volume_mm3'"


def write_tables(directory, names):
    """One table file per name (a key of GRIDS, or "malformed"), in order."""
    directory.mkdir(exist_ok=True)
    paths = []
    for i, name in enumerate(names):
        paths.append(directory / f"{i}-{name}.criterion.csv")
        if name == "malformed":
            paths[-1].write_text(MALFORMED["table"])
        else:
            levels = GRIDS[name]
            save_criterion_table(paths[-1], CriterionTable(
                element_ids=[0], volumes=[27.1], load_levels=levels, delta_eps=[[2 * lv / 75500.0 for lv in levels]]))
    return paths


def table_argv(conf, tmp_path, command, names, rows=THREE_ROWS, porous=None, bare=None):
    """argv of ``command`` (``wohler``, ``homogenize`` or a calibrate mode) on the tables ``names``, and its --out."""
    tables = write_tables(tmp_path / "tables", names)
    out = tmp_path / "out"
    challenges = dict(zip(("porous", "bare"), write_tables(tmp_path / "challenge", [porous or "good", bare or "good"])))
    if command == "wohler":
        return ["wohler", "--config", conf, "--out", out, *tables], out, tables
    if command == "homogenize":
        return ["homogenize", "--config", conf, "--out", out, "--challenge-porous", challenges["porous"],
                "--challenge-bare", challenges["bare"], *tables], out, [*tables, *challenges.values()]
    (tmp_path / "obs.csv").write_text(rows)
    (tmp_path / "hom.csv").write_text(MALFORMED["observations"])  # read after the tables, so never its error here
    extra = ["--homogeneous-observations", tmp_path / "hom.csv"] if command == "joint" else []
    return ["calibrate", "--config", conf, "--out", out, "--mode", command, "--observations", tmp_path / "obs.csv",
            "--tables", *tables, *extra], out, tables


#: id -> (command, table names, observation rows or None, (porous, bare)), and what the run gives:
#: exit code, stderr (``{}`` stands for the malformed table), and whether --out is left (empty).
PRECEDENCE = {
    "wohler-malformed-after-off-grid": ("wohler", ["good", "A", "malformed"], None, (None, None),
                                        (EXIT_VALIDATION, MALFORMED_TABLE, False)),
    # level by level: B is off at the first level, A at the last
    "wohler-off-grid": ("wohler", ["good", "A", "B"], None, (None, None), (EXIT_VALIDATION, OFF_B, True)),
    "homogenize-malformed-after-off-grid": ("homogenize", ["good", "A", "malformed"], None, (None, None),
                                            (EXIT_VALIDATION, MALFORMED_TABLE, False)),
    # table by table, before the fit
    "homogenize-off-grid": ("homogenize", ["good", "A", "B"], None, (None, None), (EXIT_VALIDATION, OFF_A, False)),
    # a challenge table loads before any cylinder structure is used
    "homogenize-malformed-challenge-after-off-grid": ("homogenize", ["good", "A", "good"], None, (None, "malformed"),
                                                      (EXIT_VALIDATION, MALFORMED_TABLE, False)),
    # after the fit, level by level, porous before bare: bare (B) is off at the first level, porous (A) at the last
    "homogenize-off-grid-challenges": ("homogenize", ["good", "good", "good"], None, ("A", "B"),
                                       (EXIT_VALIDATION, OFF_B, False)),
    **{f"{mode}-malformed-after-off-grid": (mode, ["good", "A", "malformed"], THREE_ROWS, (None, None),
                                            (EXIT_VALIDATION, MALFORMED_TABLE, False))
       for mode in ("heterogeneous", "unknown-pores", "joint")},
    # one table per row: table 1 (A) is asked at 100 MPa before table 2 (B) at 40 MPa
    "heterogeneous-off-grid": ("heterogeneous", ["good", "A", "B"], THREE_ROWS, (None, None),
                               (EXIT_VALIDATION, OFF_A, False)),
    # every table at every amplitude, amplitude by amplitude: B at 40 MPa comes first
    **{f"{mode}-off-grid": (mode, ["good", "A", "B"], THREE_ROWS, (None, None), (EXIT_VALIDATION, OFF_B, False))
       for mode in ("unknown-pores", "joint")},
    "heterogeneous-count-mismatch-then-malformed": ("heterogeneous", ["good", "good", "malformed"],
                                                    THREE_ROWS.rsplit("\n", 2)[0] + "\n", (None, None),
                                                    (EXIT_VALIDATION, MALFORMED_TABLE, False)),
    # refused on the count: no table is histogrammed, so neither off-grid one raises
    "heterogeneous-count-mismatch-off-grid": ("heterogeneous", ["good", "A", "B"],
                                              THREE_ROWS.rsplit("\n", 2)[0] + "\n", (None, None),
                                              (EXIT_VALIDATION, "2 observations but 3 tables", False)),
}


class TestOneTableAtATime:
    """wohler, homogenize and calibrate reduce each table as they load it, with the errors and outputs of loading all first."""

    @pytest.mark.parametrize("case", PRECEDENCE)
    def test_errors_in_the_order_of_loading_every_table_first(self, conf, tmp_path, capsys, case):
        command, names, rows, (porous, bare), (code, message, out_left) = PRECEDENCE[case]
        argv, out, tables = table_argv(conf, tmp_path, command, names, rows or THREE_ROWS, porous, bare)
        malformed = next((path for path in tables if "malformed" in path.name), None)
        assert main([str(arg) for arg in argv]) == code
        assert capsys.readouterr() == ("", f"error: {message.format(malformed)}\n")
        assert (sorted(out.iterdir()) if out.exists() else None) == ([] if out_left else None)

    @pytest.mark.parametrize("names", [["good"] * 3, ["good", "A", "good"]], ids=["on-grid", "one-off-grid"])
    @pytest.mark.parametrize("command", ["wohler", "homogenize", "heterogeneous", "unknown-pores", "joint"])
    def test_no_table_outlives_its_reduction(self, conf, tmp_path, monkeypatch, command, names):
        """Also where a table's reduction raised: the error it keeps holds no frame of the table."""
        argv, out, _ = table_argv(conf, tmp_path, command, names)
        if command == "joint":
            write_synthetic_obs(tmp_path / "hom.csv")
        loaded, load = [], porelife.field.load_criterion_table

        def load_alone(path):
            assert [ref() for ref in loaded if ref() is not None] == [], f"a table is alive as {path} loads"
            table = load(path)
            loaded.append(weakref.ref(table))
            return table

        monkeypatch.setattr(porelife.field, "load_criterion_table", load_alone)
        assert main([str(arg) for arg in argv]) == (EXIT_VALIDATION if "A" in names else EXIT_OK)
        assert len(loaded) == (5 if command == "homogenize" else 3)
