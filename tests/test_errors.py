import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import porelife
from porelife.config import ConfigError, RunConfig, load_config
from porelife.field import (
    FIELD_HEADER,
    CriterionError,
    CriterionTable,
    ElasticElementField,
    ExtrapolationError,
    FieldFormatError,
    PoreFieldStats,
    load_field,
    notch_variant,
    synth_field_report,
    tile_field,
)
from porelife.likelihood import (FatigueObservation, Heterogeneous, Homogeneous, ObservationArrays, UnknownPores,
                                  structure_for, unknown_pores_objective)
from porelife.material import ALSI7MG
from porelife.material_point import TensorHistory, cosine_cycle, criterion_delta_eps, neuber_correct
from porelife.optimize import CalibrationProblem, _to_internal, calibrate, nelder_mead
from porelife.return_mapping import IntegrationError, chaboche_cycle, stress_driven_cycle
from porelife.strain_life import StrainLifeParams, WeibullLifetime, weibull_cdf
from porelife.weakest_link import StructureLifetime, sample_lifetimes

#: Constructor arguments of the exceptions whose constructor is their own.
ARGUMENTS = {
    FieldFormatError: (Path("fields/f.csv"), 7, "expected 8 columns, got 3"),
    CriterionError: (41, FieldFormatError("t.csv", 2, "bad cell")),
    IntegrationError: ("return mapping did not converge", 2.5e-3),
}


def porelife_exceptions():
    modules = [importlib.import_module(f"porelife.{info.name}") for info in pkgutil.iter_modules(porelife.__path__)]
    return {
        obj for module in modules for _, obj in inspect.getmembers(module, inspect.isclass)
        if issubclass(obj, BaseException) and obj.__module__.startswith("porelife")
    }


def state(error):
    """Type, message and attributes of an exception; exceptions among the attributes by their own state."""
    return type(error), str(error), {
        key: state(value) if isinstance(value, BaseException) else value for key, value in vars(error).items()
    }


def test_every_exception_survives_pickling():
    """Exceptions cross process boundaries (a ``multiprocessing`` pool pickles them) unchanged."""
    classes = porelife_exceptions()
    assert {c for c in classes if "__init__" in vars(c)} == set(ARGUMENTS)
    for cls in sorted(classes, key=lambda c: c.__name__):
        error = cls(*ARGUMENTS.get(cls, ("something went wrong",)))
        error.add_note("raised while testing")
        assert state(pickle.loads(pickle.dumps(error))) == state(error), cls


EMPTY_HISTORY = TensorHistory(times=np.zeros(0), values=np.zeros((0, 6)))
ONE_ELEMENT = ElasticElementField(ids=[0], volumes=[27.1], sigma_unit=[[1.0, 0, 0, 0, 0, 0]])
LIFETIME = WeibullLifetime(scale=1e5, shape=2.0)
PARAMS = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4)
OBSERVATIONS = [FatigueObservation(80.0, 1e5)]


def bulk_table():
    return CriterionTable(element_ids=[0], volumes=[27.1], load_levels=[80.0], delta_eps=[[2e-3]])


def header_only_field(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(FIELD_HEADER + "\n")
    return load_field(path)


def unparsable_config(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("[protocol]\nseed = abc\n")
    return load_config(path)


#: id -> (call on a scratch directory, the exception's type, its message; ``{tmp}`` stands for the directory).
REFUSALS = {
    "load_field-header-only": (header_only_field, FieldFormatError, "{tmp}/f.csv:0: field file has no element rows"),
    "stats-negative-density": (lambda _: PoreFieldStats(pore_density=-0.1), ValueError,
                               "pore density must be nonnegative"),
    "stats-radius-law": (lambda _: PoreFieldStats(radius_log_sd=0.0), ValueError,
                         "radius law parameters must be positive"),
    "stats-gauge": (lambda _: PoreFieldStats(gauge_length_mm=0.0), ValueError, "gauge dimensions must be positive"),
    "stats-boost": (lambda _: PoreFieldStats(surface_kt_boost=0.9), ValueError, "surface_kt_boost must be at least 1"),
    "synth-resolution": (lambda _: synth_field_report(PoreFieldStats(), resolution=0), ValueError,
                         "resolution must be at least 1"),
    "synth-n_pores": (lambda _: synth_field_report(PoreFieldStats(), n_pores=-1), ValueError,
                      "n_pores must be nonnegative, got -1"),
    "tile-k": (lambda _: tile_field(ONE_ELEMENT, 0), ValueError, "k must be at least 1"),
    "notch-fraction-0": (lambda _: notch_variant(ONE_ELEMENT, 2.0, 0.0), ValueError,
                         "volume_fraction must be in (0, 1)"),
    "notch-fraction-1": (lambda _: notch_variant(ONE_ELEMENT, 2.0, 1.0), ValueError,
                         "volume_fraction must be in (0, 1)"),
    "field-shape": (lambda _: ElasticElementField(ids=[0, 1], volumes=[1.0], sigma_unit=np.zeros((2, 6))), ValueError,
                    "inconsistent field array shapes"),
    "field-empty": (lambda _: ElasticElementField(ids=[], volumes=[], sigma_unit=np.zeros((0, 6))), ValueError,
                    "field must contain at least one element"),
    "field-duplicate-id": (lambda _: ElasticElementField(ids=[3, 3], volumes=[1.0, 1.0], sigma_unit=np.zeros((2, 6))),
                           ValueError, "element ids must be unique"),
    "table-shape": (lambda _: CriterionTable(element_ids=[0], volumes=[1.0], load_levels=[40.0, 80.0],
                                             delta_eps=[[1e-3]]),
                    ValueError, "inconsistent criterion table shapes"),
    "table-negative-range": (lambda _: CriterionTable(element_ids=[0], volumes=[1.0], load_levels=[40.0, 80.0],
                                                      delta_eps=[[-1e-3, 1e-3]]),
                             ValueError, "strain ranges must be nonnegative"),
    "chaboche-hardening": (lambda _: dataclasses.replace(ALSI7MG, C_kin=-1.0), ValueError,
                           "hardening constants must be nonnegative"),
    "history-values-shape": (lambda _: TensorHistory(times=[0.0, 1.0], values=np.zeros((2, 3))), ValueError,
                             "values must have shape (n, 6)"),
    "history-times-shape": (lambda _: TensorHistory(times=[0.0], values=np.zeros((2, 6))), ValueError,
                            "times and values lengths differ"),
    "chaboche_cycle-empty": (lambda _: chaboche_cycle(ALSI7MG, EMPTY_HISTORY), ValueError, "empty strain path"),
    "stress_driven_cycle-empty": (lambda _: stress_driven_cycle(ALSI7MG, EMPTY_HISTORY), ValueError,
                                  "empty stress path"),
    "neuber_correct-empty": (lambda _: neuber_correct(ALSI7MG, EMPTY_HISTORY), ValueError, "empty elastic history"),
    "criterion_delta_eps-nan": (lambda _: criterion_delta_eps(cosine_cycle([1.0, 0, 0, 0, 0, 0]), [math.nan, 0.0, 0.0]),
                                ValueError, "n_star must be a unit vector"),
    "interpolate-nan": (lambda _: bulk_table().interpolate(math.nan), ExtrapolationError,
                        "amplitude nan MPa outside the table grid [80.0, 80.0]"),
    "config-missing-file": (lambda tmp: load_config(tmp / "none.conf"), ConfigError,
                            "config file not found: {tmp}/none.conf"),
    "config-unparsable": (unparsable_config, ConfigError, "[protocol] seed: cannot parse 'abc'"),
    "config-no-levels": (lambda _: RunConfig(load_levels=()), ConfigError, "load_levels must not be empty"),
    "config-nonpositive-level": (lambda _: RunConfig(load_levels=(0.0, 40.0)), ConfigError,
                                 "load levels must be positive"),
    "unknown-pores-no-tables": (lambda _: UnknownPores(()), ValueError, "need at least one synthetic table"),
    "structure_for-sigma": (lambda _: structure_for(PARAMS, Homogeneous(27.1), 0.0), ValueError,
                            "sigma_a must be positive"),
    "structure_for-nan-table": (lambda _: structure_for(PARAMS, Heterogeneous(bulk_table()), math.nan), ValueError,
                                "sigma_a must be finite, got nan"),
    "structure_for-nan": (lambda _: structure_for(PARAMS, Homogeneous(593.0), math.nan), ValueError,
                          "sigma_a must be finite, got nan"),
    "structure_for-inf": (lambda _: structure_for(PARAMS, Homogeneous(593.0), math.inf), ValueError,
                          "sigma_a must be finite, got inf"),
    "structure_for-model": (lambda _: structure_for(PARAMS, "cylinder", 80.0), TypeError,
                            "unknown specimen model str"),
    "objective-no-tables": (lambda _: unknown_pores_objective(OBSERVATIONS, []), ValueError, "no synthetic tables"),
    "objective-empty-assignment": (lambda _: unknown_pores_objective(OBSERVATIONS, [bulk_table(), bulk_table()],
                                                                     assignments=[()]),
                                   ValueError, "every observation needs at least one table"),
    **{f"observations-count-{name}": (lambda _, count=count: ObservationArrays([80.0], [1e5], [False], count),
                                      ValueError, f"count must be an integer in [1, 2**53), got {shown}")
       for name, count, shown in (("0", [0], "0"), ("negative", [-1], "-1"), ("fraction", [1.5], "1.5"),
                                  ("nan", [math.nan], "nan"), ("inf", [math.inf], "inf"))},
    "observations-count-length": (lambda _: ObservationArrays([80.0, 60.0], [1e5, 2e6], [False, True], [1]),
                                  ValueError, "observation columns must be 1-D and of one length"),
    "nelder_mead-no-coordinate": (lambda _: nelder_mead(lambda x: 0.0, []), ValueError,
                                  "need at least one free parameter"),
    "calibrate-no-start": (lambda _: calibrate(CalibrationProblem(objective=lambda p: 0.0, x0=PARAMS),
                                               n_starts=0),
                           ValueError, "n_starts must be at least 1"),
    "optimize-nonpositive": (lambda _: _to_internal(np.array([-1.0, 0.02, 0.0, 0.2, 0.0, 0.0]), [0]), ValueError,
                             "m must be positive to be optimized, got -1.0"),
    "quantile-0": (lambda _: LIFETIME.quantile(0.0), ValueError, "quantile level must be in (0, 1), got 0.0"),
    "quantile-1": (lambda _: LIFETIME.quantile(1.0), ValueError, "quantile level must be in (0, 1), got 1.0"),
    "weibull_cdf-negative": (lambda _: weibull_cdf(LIFETIME, -1.0), ValueError, "cycle count must be nonnegative"),
    "sample_lifetimes-none": (lambda _: sample_lifetimes(StructureLifetime(scale=1e5, shape=2.0), 0, seed=0),
                              ValueError, "count must be at least 1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals(tmp_path, case):
    call, error, message = REFUSALS[case]
    with pytest.raises(Exception) as info:
        call(tmp_path)
    assert (type(info.value), str(info.value)) == (error, message.format(tmp=tmp_path))


def test_quantile_of_an_infinite_life_is_infinite():
    assert WeibullLifetime.infinite(2.0).quantile(0.5) == math.inf
