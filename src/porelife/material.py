"""Material constants, parameter sets, run defaults and errors shared by the commands.

:class:`ChabocheParams` holds the constants of the cyclic plasticity model
and :data:`ALSI7MG` the cast Al-Si7Mg set used throughout;
:class:`StrainLifeParams` the fatigue model's parameters and
:class:`PoreFieldStats` the pore population's statistics.  With the
protocol defaults and the errors :func:`porelife.cli.main` reports, they
are what :func:`porelife.config.load_config` and ``main`` need, so they live
apart from the code that uses them: every command starts on ``cli``,
``config`` and this module, and imports only the modules it runs.  Each
name is also importable from the module that uses it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Samples per load cycle; bounds the range error of the criterion below
#: 0.3 % for fully reversed proportional loading.
DEFAULT_CYCLE_SAMPLES = 40

#: Cycles integrated before the stabilized cycle is extracted.  Cycle
#: ``n_cycles`` is taken as the stabilized cycle by convention; the loop is
#: not fully saturated there (with ALSI7MG at strain amplitude 0.004 the
#: isotropic stress has reached about 68 % of Q after 20 cycles).
DEFAULT_STABILIZATION_CYCLES = 20


@dataclass(frozen=True)
class ChabocheParams:
    """Constants of the cyclic plasticity model.

    E        Young's modulus, MPa
    nu       Poisson ratio
    sigma_y  initial yield stress, MPa
    b, Q     rate and saturation stress of isotropic hardening
    C_kin, D modulus and recall constant of kinematic hardening
    """

    E: float
    nu: float
    sigma_y: float
    b: float
    Q: float
    C_kin: float
    D: float

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.E <= 0 or self.sigma_y <= 0:
            raise ValueError("E and sigma_y must be positive")
        if not 0.0 < self.nu < 0.5:
            raise ValueError(f"nu must be in (0, 0.5), got {self.nu}")
        if min(self.b, self.Q, self.C_kin, self.D) < 0:
            raise ValueError("hardening constants must be nonnegative")

    @property
    def shear_modulus(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    def isotropic_stress(self, p: float) -> float:
        """Isotropic hardening stress at cumulative plastic strain p."""
        return self.Q * (1.0 - math.exp(-self.b * p))


#: Cast Al-Si7Mg constants used throughout the experiments (Poisson ratio is
#: an assumed 0.3, not part of the identified set).
ALSI7MG = ChabocheParams(E=75500.0, nu=0.3, sigma_y=170.0, b=19.0, Q=20.0, C_kin=127499.0, D=1334.0)


def check_count(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` for a bool, a non-integral value or one below 1."""
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return int(value)


#: Gauge volume of the reference cylindrical specimen, mm^3.
DEFAULT_REFERENCE_VOLUME = 593.0


@dataclass(frozen=True)
class StrainLifeParams:
    """Six-parameter fatigue model plus the Weibull reference volume.

    m      Weibull shape of the lifetime scatter
    A, alpha   coefficient/exponent of the high-cycle line
    B, beta    coefficient/exponent of the low-cycle line (B = 0 disables it)
    C      fatigue-limit strain amplitude; life is infinite at or below it
    V0     reference volume in mm^3 for the volume scaling
    """

    m: float
    A: float
    alpha: float
    B: float = 0.0
    beta: float = 0.0
    C: float = 0.0
    V0: float = DEFAULT_REFERENCE_VOLUME

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m, self.A, self.alpha, self.B, self.beta, self.C, self.V0))):
            raise ValueError(f"every parameter must be finite, got {self}")
        if not (self.m > 0 and self.A > 0 and self.alpha > 0 and self.V0 > 0):
            raise ValueError(f"m, A, alpha, V0 must be positive, got {self}")
        if self.B < 0 or self.beta < 0 or self.C < 0:
            raise ValueError(f"B, beta, C must be nonnegative, got {self}")

    def as_vector(self):
        """Parameter vector in the canonical order [m, A, B, alpha, beta, C]."""
        return np.array([self.m, self.A, self.B, self.alpha, self.beta, self.C])

    @classmethod
    def from_vector(cls, vec, v0=DEFAULT_REFERENCE_VOLUME) -> "StrainLifeParams":
        m, a, b, alpha, beta, c = (float(x) for x in vec)
        return cls(m=m, A=a, alpha=alpha, B=b, beta=beta, C=c, V0=v0)


#: Canonical parameter order of the optimization vector.
PARAM_ORDER = ("m", "A", "B", "alpha", "beta", "C")

DEFAULT_BUDGET = 400
DEFAULT_STARTS = 5


def one_line_mask() -> tuple[bool, ...]:
    """Free mask of the one-line model."""
    return (True, True, False, True, False, True)


#: Test stop for run-outs, cycles.
DEFAULT_RUNOUT_CYCLES = 2.0e6

#: Lifetime draws per structure when pooling realizations into quantiles.
DEFAULT_SAMPLES_PER_STRUCT = 1000

#: Quantile levels of the load-life table (1/15/50/85/99 %).
WOHLER_QUANTILES = (0.01, 0.15, 0.50, 0.85, 0.99)

#: Shell elements per pore; the innermost sits at the cavity surface.
DEFAULT_SHELLS = 8


def _radius_law(stats) -> tuple[float, float, float]:
    """Log-median radius in mm, log standard deviation, and the normal CDF at the acceptance radius.

    The CDF is ``statistics.NormalDist().cdf``'s own formula, bit for bit,
    without importing ``statistics`` (and its ``fractions`` and ``decimal``)
    on every command's start-up path.
    """
    mu = math.log(stats.radius_median_um / 1000.0)
    s = stats.radius_log_sd
    return mu, s, 0.5 * (1.0 + math.erf((math.log(stats.accept_radius_um / 1000.0) - mu) / s / math.sqrt(2.0)))


@dataclass(frozen=True)
class PoreFieldStats:
    """Statistical description of the pore population and gauge geometry.

    Radii follow a log-normal law (median in micrometres, log standard
    deviation) truncated below the acceptance radius, mirroring the size
    filter applied to tomography data.  The default density reproduces a
    0.28 % pore volume fraction for the default radius law.
    """

    pore_density: float = 0.9553
    radius_median_um: float = 70.0
    radius_log_sd: float = 0.35
    accept_radius_um: float = 50.0
    gauge_radius_mm: float = 3.072
    gauge_length_mm: float = 20.0
    surface_kt_boost: float = 1.25

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.pore_density < 0:
            raise ValueError("pore density must be nonnegative")
        if min(self.radius_median_um, self.radius_log_sd, self.accept_radius_um) <= 0:
            raise ValueError("radius law parameters must be positive")
        if not _radius_law(self)[2] < 1.0:
            raise ValueError(f"accept_radius_um {self.accept_radius_um} leaves no radius to draw "
                             f"(median {self.radius_median_um} um, log sd {self.radius_log_sd})")
        if min(self.gauge_radius_mm, self.gauge_length_mm) <= 0:
            raise ValueError("gauge dimensions must be positive")
        if self.surface_kt_boost < 1.0:
            raise ValueError("surface_kt_boost must be at least 1")
        if not (self.gauge_radius_mm < 1e154 and math.isfinite(self.gauge_volume)):  # from 1e154, pi r**2 overflows
            raise ValueError(f"gauge_radius_mm {self.gauge_radius_mm} and gauge_length_mm {self.gauge_length_mm} "
                             "give a gauge volume that is not finite")

    @property
    def gauge_volume(self) -> float:
        return math.pi * self.gauge_radius_mm**2 * self.gauge_length_mm


def utf8_error(path) -> tuple[int, str]:
    """Line number and description of the first bytes of ``path`` that are not UTF-8 (line 0 if there are none)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1, f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    return 0, "not UTF-8 text"


class FieldFormatError(ValueError):
    """Malformed input CSV file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path, self.line_no, self.message = path, line_no, message

    def __reduce__(self):  # the default would call the constructor with the message alone
        return type(self), (self.path, self.line_no, self.message), self.__dict__


class FieldGenerationError(RuntimeError):
    """Synthetic field generation produced an inconsistent geometry."""


class CriterionError(RuntimeError):
    """Criterion computation failed for one element."""

    def __init__(self, element_id: int, cause: Exception):
        super().__init__(f"element {element_id}: {cause}")
        self.element_id = element_id
        self.cause = cause

    def __reduce__(self):  # the default would call the constructor with the message alone
        return type(self), (self.element_id, self.cause), self.__dict__


class CalibrationDegeneracyError(RuntimeError):
    """Dataset contains no failures; the likelihood is unbounded toward infinite life."""
