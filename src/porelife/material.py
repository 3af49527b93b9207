"""Material constants and the protocol defaults of the criterion stage.

:class:`ChabocheParams` holds the constants of the cyclic plasticity model
and :data:`ALSI7MG` the cast Al-Si7Mg set used throughout.  They live apart
from the solvers in :mod:`porelife.material_point`, so that the commands
that run no solver (``genfield``, ``wohler``, ``calibrate``) can take the
material's constants without importing the solvers.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

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
