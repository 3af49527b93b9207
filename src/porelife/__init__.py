"""Probabilistic high-cycle fatigue lifetimes for porous structures.

Per-element probabilistic strain-life model, elasto-plastic criterion
computation with a fast proportional Neuber-type corrector, weakest-link
aggregation into structure lifetime distributions, and censored
maximum-likelihood calibration (including marginalization over synthetic
pore fields when the tested pore distributions are unknown).
"""

__version__ = "0.1.0"

from .strain_life import (
    StrainLifeParams,
    WeibullLifetime,
    strain_amplitude,
    cycles_to_failure,
    element_lifetime,
    weibull_cdf,
    weibull_pdf,
)
from .weakest_link import (
    StructureLifetime,
    structure_scale,
    structure_lifetime,
    structure_cdf,
    sample_lifetimes,
    wohler_quantiles,
)
from .material_point import (
    ALSI7MG,
    ChabocheParams,
    MaterialPointState,
    TensorHistory,
    chaboche_step,
    chaboche_cycle,
    stress_driven_cycle,
    uniaxial_strain_cycle,
    neuber_correct,
    critical_direction,
    criterion_delta_eps,
)
from .field import (
    CriterionTable,
    ElasticElementField,
    PoreFieldStats,
    criterion_table,
    load_field,
    save_field,
    synth_field,
    thin_variant,
    tile_field,
)
from .likelihood import (
    FatigueObservation,
    Heterogeneous,
    Homogeneous,
    ObservationArrays,
    UnknownPores,
    loglik_heterogeneous,
    loglik_homogeneous,
    loglik_unknown_pores,
    structure_for,
)
from .optimize import CalibrationProblem, calibrate, nelder_mead

__all__ = [
    "StrainLifeParams",
    "WeibullLifetime",
    "strain_amplitude",
    "cycles_to_failure",
    "element_lifetime",
    "weibull_cdf",
    "weibull_pdf",
    "StructureLifetime",
    "structure_scale",
    "structure_lifetime",
    "structure_cdf",
    "sample_lifetimes",
    "wohler_quantiles",
    "ALSI7MG",
    "ChabocheParams",
    "MaterialPointState",
    "TensorHistory",
    "chaboche_step",
    "chaboche_cycle",
    "stress_driven_cycle",
    "uniaxial_strain_cycle",
    "neuber_correct",
    "critical_direction",
    "criterion_delta_eps",
    "CriterionTable",
    "ElasticElementField",
    "PoreFieldStats",
    "criterion_table",
    "load_field",
    "save_field",
    "synth_field",
    "thin_variant",
    "tile_field",
    "FatigueObservation",
    "Heterogeneous",
    "Homogeneous",
    "ObservationArrays",
    "UnknownPores",
    "loglik_heterogeneous",
    "loglik_homogeneous",
    "loglik_unknown_pores",
    "structure_for",
    "CalibrationProblem",
    "calibrate",
    "nelder_mead",
]
