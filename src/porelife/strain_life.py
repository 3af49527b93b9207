"""Probabilistic strain-life model at the material-point level.

A two-line strain-life curve (HCF line + LCF line + fatigue-limit offset)
relates strain amplitude to cycles to failure.  Its numerical inverse feeds a
volume-scaled two-parameter Weibull lifetime distribution per finite element.
Loading below the fatigue limit yields an explicit infinite-life state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Gauge volume of the reference cylindrical specimen, mm^3.
DEFAULT_REFERENCE_VOLUME = 593.0

_LN2 = math.log(2.0)


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


@dataclass(frozen=True)
class WeibullLifetime:
    """Two-parameter Weibull lifetime; ``scale = math.inf`` marks infinite life.

    Every operation branches on the infinite state explicitly, so the CDF is
    exactly zero for any finite cycle count and no arithmetic is ever done on
    the infinite scale.
    """

    scale: float
    shape: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0:  # inf passes, nan/0/negatives fail
            raise ValueError(f"scale must be positive or infinite, got {self.scale}")

    @classmethod
    def infinite(cls, shape: float) -> "WeibullLifetime":
        return cls(scale=math.inf, shape=shape)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.scale)

    def median(self) -> float:
        if self.is_infinite:
            return math.inf
        return self.scale * _LN2 ** (1.0 / self.shape)

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        if self.is_infinite:
            return math.inf
        return self.scale * (-math.log1p(-q)) ** (1.0 / self.shape)


def strain_amplitude(params: StrainLifeParams, cycles):
    """Strain amplitude of the two-line curve at the given cycle count(s).

    Strictly decreasing in cycles, with the fatigue limit C as asymptote.
    Accepts scalars or arrays; raises on nonpositive cycle counts.
    """
    n = np.asarray(cycles, dtype=float)
    if np.any(n <= 0.0):
        raise ValueError("cycle count must be positive")
    out = params.A * n ** (-params.alpha) + params.C
    if params.B != 0.0:
        out = out + params.B * n ** (-params.beta)
    if np.isscalar(cycles):
        return float(out)
    return out


def _curve_and_slope(params, log_n):
    """Curve value and d(curve)/d(ln N) at ln N, elementwise."""
    val = params.A * np.exp(-params.alpha * log_n) + params.C
    slope = -params.alpha * params.A * np.exp(-params.alpha * log_n)
    if params.B != 0.0:
        val = val + params.B * np.exp(-params.beta * log_n)
        slope = slope - params.beta * params.B * np.exp(-params.beta * log_n)
    return val, slope


def cycles_to_failure(params: StrainLifeParams, eps_amp):
    """Invert the strain-life curve; infinite at or below the fatigue limit.

    The one-line curve (B = 0) has the closed form N = ((eps - C)/A)^(-1/alpha).
    The two-line curve uses bisection in ln N over [-700, 700] down to 1e-12,
    then one Newton polish; monotonicity of the curve guarantees convergence.
    Accepts scalars or arrays.
    """
    eps = np.atleast_1d(np.asarray(eps_amp, dtype=float))
    if not np.all(eps >= 0.0):
        raise ValueError("strain amplitude must be nonnegative")
    out = np.full(eps.shape, np.inf)
    finite = eps > params.C
    if params.B == 0.0:
        with np.errstate(over="ignore"):
            out[finite] = ((eps[finite] - params.C) / params.A) ** (-1.0 / params.alpha)
    elif np.any(finite):
        target = eps[finite]
        lo = np.full(target.shape, -700.0)
        hi = np.full(target.shape, 700.0)
        with np.errstate(over="ignore"):
            while np.max(hi - lo) > 1e-12:
                mid = 0.5 * (lo + hi)
                above = _curve_and_slope(params, mid)[0] > target
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
        mid = 0.5 * (lo + hi)
        val, slope = _curve_and_slope(params, mid)  # slope < 0 everywhere
        out[finite] = np.exp(mid - (val - target) / slope)
    if np.isscalar(eps_amp):
        return float(out[0])
    return out.reshape(np.shape(eps_amp))


def element_lifetime(params: StrainLifeParams, delta_eps: float, volume: float) -> WeibullLifetime:
    """Weibull lifetime of one element from its strain range and volume.

    The scale is the inverted curve at delta_eps/2, shrunk by the volume
    factor (V0 / (V ln 2))^(1/m); larger volume or larger strain range both
    shorten the characteristic life.
    """
    if delta_eps < 0.0:
        raise ValueError("strain range must be nonnegative")
    if volume <= 0.0:
        raise ValueError("volume must be positive")
    if 0.5 * delta_eps <= params.C:
        return WeibullLifetime.infinite(params.m)
    base = cycles_to_failure(params, 0.5 * delta_eps)
    scale = base * (params.V0 / (volume * _LN2)) ** (1.0 / params.m)
    return WeibullLifetime(scale=scale, shape=params.m)


def element_scale_array(params: StrainLifeParams, delta_eps, volumes):
    """Vectorized Weibull scales for many elements; inf where below the limit.

    Bulk path behind :func:`element_lifetime` used by the structure-level
    aggregation, where one call covers every element of a specimen.
    """
    delta_eps = np.asarray(delta_eps, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    amp = 0.5 * delta_eps
    # strain values repeat heavily across elements (shared concentration
    # grids), so invert the curve only once per distinct amplitude
    uniq, inverse = np.unique(amp, return_inverse=True)
    base_uniq = cycles_to_failure(params, np.where(uniq > params.C, uniq, params.C + 1.0))
    base = base_uniq[inverse].reshape(amp.shape)
    scales = base * (params.V0 / (volumes * _LN2)) ** (1.0 / params.m)
    return np.where(amp > params.C, scales, np.inf)


def weibull_cdf(dist: WeibullLifetime, cycles):
    """Failure probability by the given cycle count(s); 0 for infinite life."""
    n = np.asarray(cycles, dtype=float)
    if np.any(n < 0.0):
        raise ValueError("cycle count must be nonnegative")
    if dist.is_infinite:
        out = np.zeros(n.shape)
    else:
        out = -np.expm1(-((n / dist.scale) ** dist.shape))
    if np.isscalar(cycles):
        return float(out)
    return out


def weibull_pdf(dist: WeibullLifetime, cycles):
    """Failure density at the given cycle count(s); 0 for infinite life."""
    n = np.asarray(cycles, dtype=float)
    if np.any(n < 0.0):
        raise ValueError("cycle count must be nonnegative")
    if dist.is_infinite:
        out = np.zeros(n.shape)
    else:
        ratio = n / dist.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = dist.shape / dist.scale * ratio ** (dist.shape - 1.0) * np.exp(-(ratio**dist.shape))
        at_zero = ratio == 0.0
        if np.any(at_zero):
            if dist.shape > 1.0:
                limit = 0.0
            elif dist.shape == 1.0:
                limit = 1.0 / dist.scale
            else:
                limit = np.inf
            out = np.where(at_zero, limit, out)
    if np.isscalar(cycles):
        return float(out)
    return out
