"""The benchmark's tracer wraps porelife functions by name: every such name must still exist.

A refactor that deletes or renames a traced function would otherwise leave
its layer silently empty in the per-layer metrics.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

# with likelihood (field, strain_life, weakest_link): every module the tracer looks in
import porelife.cli  # noqa: F401  (config)
import porelife.likelihood
import porelife.material_point  # noqa: F401
import porelife.optimize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.SPANS], ids=lambda v: v)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("factory", [f for f, _ in tracing.FACTORIES])
def test_traced_objective_factory_exists(factory):
    assert callable(getattr(porelife.likelihood, factory, None))


def test_traced_nelder_mead_keeps_its_budget():
    assert "budget" in inspect.signature(porelife.optimize.nelder_mead).parameters


def test_tracer_installs_with_no_name_missing():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert not hasattr(porelife.optimize.nelder_mead, "__wrapped__")


def test_output_checks_import():
    checks = load_perfbench("checks")
    assert callable(checks.file_hashes)
