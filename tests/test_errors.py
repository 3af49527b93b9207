import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import porelife
from porelife.field import CriterionError, FieldFormatError
from porelife.material_point import IntegrationError

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
