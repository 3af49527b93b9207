import configparser
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from porelife.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_VALIDATION,
    _pooled_median,
    cmd_calibrate,
    main,
    synthesize_observations,
)
from porelife.config import ConfigError, RunConfig, load_config
from porelife.field import (
    FIELD_HEADER,
    TABLE_HEADER,
    CriterionTable,
    load_criterion_table,
    load_field,
    save_criterion_table,
    save_field,
)
from porelife.likelihood import (
    FatigueObservation,
    Heterogeneous,
    Homogeneous,
    ObservationArrays,
    homogeneous_objective,
    save_observations,
    structure_for,
)
from porelife.optimize import one_line_mask
from porelife.weakest_link import DEFAULT_SAMPLES_PER_STRUCT, StructureLifetime, sample_lifetimes, wohler_quantiles
from porelife.strain_life import DEFAULT_REFERENCE_VOLUME, StrainLifeParams
from oracles import loop_pooled_draws, loop_synthesize_observations

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
    ], ids=["budget", "n_starts", "samples_per_struct", "cycle_samples", "shells", "q-one", "q-zero", "q-nan", "q-empty",
            "free-empty", "free-commas", "empty-radius-law"])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.conf"
        path.write_text(text)
        out = tmp_path / "f"
        assert main(["genfield", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
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
        arrays = synthesize_observations(params, tables, levels, 200, 7, 2e6)
        children = iter(np.random.SeedSequence(7).spawn(len(tables) * len(levels)))
        objects = []
        for table in tables:
            for level in levels:
                struct = structure_for(params, Heterogeneous(table), level)
                values, censored = sample_lifetimes(struct, 200, next(children), 2e6)
                objects += [FatigueObservation(level, min(float(v), 2e6), bool(c)) for v, c in zip(values, censored)]
        expected = ObservationArrays.of(objects)
        for name in ("sigma_a", "n_cycles", "censored"):
            assert getattr(arrays, name).tobytes() == getattr(expected, name).tobytes()
        assert 0 < np.count_nonzero(arrays.censored) < len(arrays)
        assert homogeneous_objective(arrays, 593.0)(params) == homogeneous_objective(objects, 593.0)(params)


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
        arrays = synthesize_observations(params, tables, levels, 200, 7, 2e6)
        want = loop_synthesize_observations(structs_by_table, levels, 200, 7, 2e6)
        for got, expected in zip((arrays.sigma_a, arrays.n_cycles, arrays.censored), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


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
