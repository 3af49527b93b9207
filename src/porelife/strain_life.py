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
        return self.quantile(0.5)  # the inverse CDF at 0.5 is scale * (ln 2)^(1/shape) exactly

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        if self.is_infinite:
            return math.inf
        return float(self._inverse_cdf(q))

    def _inverse_cdf(self, q):
        """Cycles at failure probability q (scalar or array) of a finite-scale lifetime."""
        return self.scale * (-np.log1p(-q)) ** (1.0 / self.shape)


def _hazard(log_rate, shape, log_n):
    """log (n/scale)^shape and (n/scale)^shape capped at e^700, from log rate -shape ln(scale)."""
    log_t = shape * log_n + log_rate
    return log_t, np.exp(np.minimum(log_t, 700.0))


def _density(log_rate, shape, log_n):
    """Weibull density at n = e^log_n: exactly 0 once the hazard reaches 700, log density clamped at -700."""
    log_t, t = _hazard(log_rate, shape, log_n)
    log_pdf = log_t - t - log_n + math.log(shape)
    return np.where(t >= 700.0, 0.0, np.exp(np.maximum(log_pdf, -700.0)))


def _survival(log_rate, shape, log_n):
    """Weibull survival at n = e^log_n; exactly 1 at infinite scale."""
    return np.exp(-_hazard(log_rate, shape, log_n)[1])


def _at_cycles(dist: WeibullLifetime, cycles, term):
    """``term`` at cycle count(s) n, in units of the scale; 0 for infinite life.

    In those units the log rate is 0, so (n/scale)^shape is formed from the
    one rounded ratio n/scale instead of the difference of two large logs.
    """
    n = np.asarray(cycles, dtype=float)
    if np.any(n < 0.0):
        raise ValueError("cycle count must be nonnegative")
    if dist.is_infinite:
        out = np.zeros(n.shape)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = term(0.0, dist.shape, np.log(n / dist.scale))
    if np.isscalar(cycles):
        return float(out)
    return out


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


def _log_rates(params: StrainLifeParams, amplitudes, index, log_volumes, combine=None):
    """Weakest-link log rates log(V ln 2 / V0 * N(u)^-m) of volumes V at u = amplitudes[index].

    ``combine`` sums the terms per structure in the log domain before the
    factor.  The scale rate^(-1/m) is infinite at or below the fatigue limit.
    """
    terms = log_volumes - params.m * np.log(cycles_to_failure(params, amplitudes))[index]
    return (terms if combine is None else combine(terms)) + math.log(math.log(2.0) / params.V0)


def element_lifetime(params: StrainLifeParams, delta_eps: float, volume: float) -> WeibullLifetime:
    """Weibull lifetime of one element from its strain range and volume.

    The scale is the inverted curve at delta_eps/2, shrunk by the volume
    factor (V0 / (V ln 2))^(1/m); larger volume or larger strain range both
    shorten the characteristic life.
    """
    return WeibullLifetime(scale=float(element_scale_array(params, delta_eps, volume)), shape=params.m)


def element_scale_array(params: StrainLifeParams, delta_eps, volumes):
    """Vectorized Weibull scales for many elements; inf where below the limit.

    Bulk path behind :func:`element_lifetime`; strain ranges must be
    nonnegative and volumes positive, both finite.
    """
    delta_eps = np.asarray(delta_eps, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if not np.all(np.isfinite(delta_eps) & (delta_eps >= 0.0)):
        raise ValueError("strain range must be nonnegative and finite")
    if not np.all(np.isfinite(volumes) & (volumes > 0.0)):
        raise ValueError("volume must be positive and finite")
    # strain values repeat heavily across elements (shared concentration
    # grids), so invert the curve only once per distinct amplitude
    amplitudes, index = np.unique(0.5 * delta_eps, return_inverse=True)
    log_rate = _log_rates(params, amplitudes, index.reshape(delta_eps.shape), np.log(volumes))
    return np.exp(-log_rate / params.m)


def weibull_cdf(dist: WeibullLifetime, cycles):
    """Failure probability by the given cycle count(s); 0 for infinite life."""
    return _at_cycles(dist, cycles, lambda *args: -np.expm1(-_hazard(*args)[1]))


def weibull_pdf(dist: WeibullLifetime, cycles):
    """Failure density at the given cycle count(s); 0 for infinite life.

    At n = 0 it is the limit: 0 for shape > 1, 1/scale for shape 1, inf below.
    """
    at_zero = 0.0 if dist.shape > 1.0 else 1.0 if dist.shape == 1.0 else math.inf

    def density(log_rate, shape, log_x):  # of x = n / scale, hence the division
        return np.where(log_x == -np.inf, at_zero, _density(log_rate, shape, log_x)) / dist.scale

    return _at_cycles(dist, cycles, density)
