"""numpy is the only third-party package porelife needs at run time (``pyproject.toml``)."""
import importlib
import json
import os
import subprocess
import sys

import pytest

import porelife
from porelife.field import CriterionTable, ElasticElementField, save_criterion_table, save_field
from porelife.likelihood import FatigueObservation
from oracles import save_observations

#: Top-level packages in ``sys.modules`` after importing the CLI, printed as JSON.
LOADED = "import json, sys, porelife.cli; print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))"


def test_cli_import_loads_no_third_party_package_but_numpy():
    # -S skips site's .pth hooks, which may import packages of their own;
    # the test's own path still finds porelife and numpy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in sys.path if path)}
    run = subprocess.run([sys.executable, "-S", "-c", LOADED], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout)) - set(sys.stdlib_module_names) - {"__main__"}
    assert loaded == {"numpy", "porelife"}


#: porelife modules in ``sys.modules`` after importing the CLI and loading the default config, then
#: running ``main`` on the arguments if there are any; the exit code and the modules are printed as JSON.
PORELIFE_LOADED = """
import json, sys
import porelife.cli
from porelife.config import load_config
load_config(None)
code = porelife.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("porelife"))]))
"""

LEVELS = (40.0, 60.0, 80.0, 100.0)


def fresh(code, *args):
    """The JSON that ``code`` prints last when run with ``args`` in a fresh ``-S`` interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in sys.path if path)}
    run = subprocess.run([sys.executable, "-S", "-c", code, *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config for short fits, a one-element field, a one-element table and two observation files.

    The table's strain ranges are those of a Kt 4 element, so homogenize's synthetic specimens fail before run-out.
    """
    root = tmp_path_factory.mktemp("inputs")
    paths = {name: root / name for name in ("run.conf", "field.csv", "t.criterion.csv", "obs.csv", "hom.csv")}
    paths["run.conf"].write_text(f"[protocol]\nload_levels = {', '.join(map(str, LEVELS))}\n"
                                 "n_starts = 1\nbudget = 30\nn_k = 1\nsamples_per_struct = 50\n")
    save_field(paths["field.csv"], ElasticElementField(ids=[0], volumes=[27.1], sigma_unit=[[1.0, 0, 0, 0, 0, 0]]))
    save_criterion_table(paths["t.criterion.csv"], CriterionTable(
        element_ids=[0], volumes=[27.1], load_levels=LEVELS, delta_eps=[[8 * level / 75500.0 for level in LEVELS]]))
    lives = {60.0: (8e5, 2e6), 80.0: (2e5, 4e5), 100.0: (5e4, 9e4)}
    save_observations(paths["obs.csv"], [FatigueObservation(level, min(n, 2e6), n >= 2e6)
                                         for level, ns in lives.items() for n in ns])
    save_observations(paths["hom.csv"], [FatigueObservation(100.0, 6e4), FatigueObservation(140.0, 1e4)])
    return paths


#: id -> (arguments of ``main``, whether the command solves the criterion); an input file's name stands for its path.
COMMANDS = {
    "load_config": ([], False),
    "genfield": (["genfield"], False),
    "wohler": (["wohler", "t.criterion.csv"], False),
    "calibrate-homogeneous": (["calibrate", "--mode", "homogeneous", "--observations", "obs.csv"], False),
    "calibrate-heterogeneous": (["calibrate", "--mode", "heterogeneous", "--observations", "obs.csv",
                                 "--tables", "t.criterion.csv"], False),
    "calibrate-unknown-pores": (["calibrate", "--mode", "unknown-pores", "--observations", "obs.csv",
                                 "--tables", "t.criterion.csv"], False),
    "calibrate-joint": (["calibrate", "--mode", "joint", "--observations", "obs.csv", "--tables", "t.criterion.csv",
                         "--homogeneous-observations", "hom.csv"], False),
    "criterion": (["criterion", "field.csv"], True),
    "homogenize": (["homogenize", "t.criterion.csv"], True),
    "homogenize-challenges": (["homogenize", "t.criterion.csv", "--challenge-porous", "t.criterion.csv",
                               "--challenge-bare", "t.criterion.csv"], False),
}


def run_command(inputs, tmp_path, case, code=PORELIFE_LOADED):
    argv = [str(inputs.get(arg, arg)) for arg in COMMANDS[case][0]]
    if argv:
        argv += ["--config", str(inputs["run.conf"]), "--out", str(tmp_path / "out")]
    return fresh(code, *argv)


@pytest.mark.parametrize("case", COMMANDS)
def test_only_the_commands_that_solve_load_the_solvers(inputs, tmp_path, case):
    code, loaded = run_command(inputs, tmp_path, case)
    assert code == 0
    assert ("porelife.material_point" in loaded) == COMMANDS[case][1], loaded
    assert "porelife.return_mapping" not in loaded  # the reference integrator: no command runs it


#: The modules of the lifetime model and the fit.
FIT_MODULES = {"porelife.likelihood", "porelife.optimize", "porelife.strain_life", "porelife.weakest_link"}


@pytest.mark.parametrize("case", ["genfield", "criterion"])
def test_the_commands_that_predict_no_lifetime_load_no_fit_module(inputs, tmp_path, case):
    code, loaded = run_command(inputs, tmp_path, case)
    assert code == 0 and not FIT_MODULES & set(loaded), loaded


def test_the_start_up_path_loads_cli_config_and_material_alone():
    # every command pays this before it runs: the probe of perfbench's setup_s
    loaded = fresh("import json, sys\nimport porelife.cli\nfrom porelife.config import load_config\nload_config(None)\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if name.startswith("porelife")] == [
        "porelife", "porelife.cli", "porelife.config", "porelife.material"]
    assert "hashlib" not in loaded  # imported where a digest is taken


#: Runs the cli helpers that the tests call directly, in an interpreter where ``main`` has imported nothing:
#: argv is the config, a table, the observations, the homogeneous observations and an output directory.
HELPERS = """
import json, math, sys
from pathlib import Path
from porelife.cli import _gauge_structure, _pooled_median, cmd_calibrate, fit_homogenized_model, synthesize_observations
from porelife.config import load_config
from porelife.field import load_criterion_table
config = load_config(sys.argv[1])
table, observations, homogeneous, out = sys.argv[2], *map(Path, sys.argv[3:])
structs = [_gauge_structure(config.fatigue, config, level) for level in config.load_levels]
median = _pooled_median(structs, config.samples_per_struct, config.seed, config.runout_cycles)
synthetic = synthesize_observations(config.fatigue, [load_criterion_table(table)], config.load_levels,
                                    config.samples_per_struct, config.seed, config.runout_cycles)
fitted = fit_homogenized_model(config, synthetic)
codes = [cmd_calibrate(config, out / mode, mode, observations, [Path(table)], homogeneous, True)
         for mode in ("homogeneous", "heterogeneous", "unknown-pores", "joint")]
print(json.dumps([math.isfinite(median), len(synthetic), fitted.m > 0, codes]))
"""


def test_the_cli_helpers_import_what_they_run(inputs, tmp_path):
    result = fresh(HELPERS, *(str(inputs[name]) for name in ("run.conf", "t.criterion.csv", "obs.csv", "hom.csv")),
                   str(tmp_path))
    assert result[0] and result[1] > 0 and result[2] and result[3] == [0, 0, 0, 0]


#: Like ``PORELIFE_LOADED``, but prints the exit code and which of ``numpy.ma`` and ``numpy.random`` were loaded.
NUMPY_LOADED = """
import json, sys
import porelife.cli
from porelife.config import load_config
load_config(None)
code = porelife.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, [name for name in ("numpy.ma", "numpy.random") if name in sys.modules]]))
"""


# np.quantile, np.median and a plain np.unique load numpy.ma
@pytest.mark.parametrize("case", COMMANDS)
def test_the_commands_load_no_masked_arrays(inputs, tmp_path, case):
    code, loaded = run_command(inputs, tmp_path, case, NUMPY_LOADED)
    assert code == 0 and "numpy.ma" not in loaded


# run.conf asks for one start, so no fit draws a jitter
@pytest.mark.parametrize("case", [case for case in COMMANDS if case.startswith("calibrate")])
def test_single_start_calibrations_load_no_numpy_random(inputs, tmp_path, case):
    assert run_command(inputs, tmp_path, case, NUMPY_LOADED) == [0, []]


#: Like ``PORELIFE_LOADED``, but prints the exit code and whether ``statistics`` was loaded.
STATISTICS_LOADED = """
import json, sys
import porelife.cli
from porelife.config import load_config
load_config(None)
code = porelife.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, "statistics" in sys.modules]))
"""


# statistics (with fractions and decimal) only draws genfield's pore radii
@pytest.mark.parametrize("case", ["load_config", "criterion", "wohler"]
                         + [case for case in COMMANDS if case.startswith("calibrate")])
def test_only_the_pore_draws_load_statistics(inputs, tmp_path, case):
    assert run_command(inputs, tmp_path, case, STATISTICS_LOADED) == [0, False]


def test_the_integrator_names_are_return_mappings_objects():
    import porelife.return_mapping

    for name in ("MaterialPointState", "chaboche_step", "chaboche_cycle", "stress_driven_cycle", "uniaxial_strain_cycle"):
        assert getattr(porelife, name) is getattr(porelife.return_mapping, name), name


@pytest.mark.parametrize("statement, modules", [
    ("import porelife.optimize", ["porelife", "porelife.forks", "porelife.material", "porelife.optimize"]),
    ("from porelife.config import load_config; load_config(None)", ["porelife", "porelife.config", "porelife.material"]),
], ids=["optimize", "load_config"])
def test_the_optimizer_and_the_config_load_no_likelihood(statement, modules):
    # the all-run-outs rule is about the observations, so it lives in likelihood, which the optimizer does not import;
    # the config's defaults and parameter sets live in material
    loaded = fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if name.startswith("porelife")] == modules


def test_package_names_are_their_modules_objects():
    # dir() lists every name before any is loaded: a fresh interpreter has loaded none
    assert set(porelife.__all__) <= set(fresh("import json, porelife; print(json.dumps(dir(porelife)))"))
    namespace = {}
    exec("from porelife import *", namespace)
    for name in porelife.__all__:
        value = getattr(porelife, name)
        assert value is getattr(importlib.import_module(value.__module__), name) is namespace[name], name
    with pytest.raises(AttributeError, match="module 'porelife' has no attribute 'no_such_name'"):
        porelife.no_such_name
