"""Probabilistic high-cycle fatigue lifetimes for porous structures.

Per-element probabilistic strain-life model, elasto-plastic criterion
computation with a fast proportional Neuber-type corrector, weakest-link
aggregation of a structure (a ``Homogeneous`` gauge, a criterion table or its
reduced histograms) into its one Weibull lifetime (``structure_for``), and
censored maximum-likelihood calibration (including marginalization over
synthetic pore fields when the tested pore distributions are unknown).

Each public name below loads its module on first use (PEP 562), so a
command imports only the modules it runs: ``porelife.neuber_correct``
imports :mod:`porelife.material_point`, ``porelife.ALSI7MG`` and
``porelife.StrainLifeParams`` only :mod:`porelife.material`.
"""

import importlib

__version__ = "0.1.0"

#: Module -> the public names it exports through the package.
_EXPORTS = {
    "strain_life": ("cycles_to_failure",),
    "weakest_link": ("StructureLifetime", "structure_scale", "sample_lifetimes", "wohler_quantiles"),
    "material": ("ALSI7MG", "ChabocheParams", "StrainLifeParams", "PoreFieldStats"),
    "material_point": ("TensorHistory", "neuber_correct", "critical_direction", "criterion_delta_eps"),
    "return_mapping": (
        "MaterialPointState", "chaboche_step", "chaboche_cycle", "stress_driven_cycle", "uniaxial_strain_cycle",
    ),
    "field": (
        "CriterionTable", "ElasticElementField", "criterion_table", "load_field", "save_field",
        "thin_variant", "tile_field",
    ),
    "likelihood": (
        "Homogeneous", "ObservationArrays", "loglik_heterogeneous", "loglik_homogeneous", "loglik_unknown_pores",
        "structure_for",
    ),
    "optimize": ("CalibrationProblem", "calibrate", "nelder_mead"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
