"""Probabilistic strain-life model at the material-point level.

A two-line strain-life curve (HCF line + LCF line + fatigue-limit offset)
relates strain amplitude to cycles to failure.  Its inverse gives each
element's weakest-link log rate log(V ln 2 / V0 * N^-m), from which the
likelihood kernel builds the structures' rates and evaluates the capped
Weibull hazard, density and survival.  Loading at or below the fatigue limit
gives an explicit infinite life (log rate -inf).
"""
from __future__ import annotations

import math
import numpy as np

from .material import DEFAULT_REFERENCE_VOLUME, StrainLifeParams  # noqa: F401  (importable from here too)


def _hazard(log_rate, shape, log_n, out=(None, None)):
    """log (n/scale)^shape and (n/scale)^shape capped at e^700, from log rate -shape ln(scale).

    Buffers ``out`` receive the two, and ``_density``'s and ``_survival``'s results; ``log_rate`` may be ``out[0]``.
    """
    log_t = np.add(log_rate, np.multiply(shape, log_n, out=out[1]), out=out[0])
    return log_t, np.exp(np.minimum(log_t, 700.0, out=out[1]), out=out[1])


def _density(log_rate, shape, log_n, out=(None, None)):
    """Weibull density at n = e^log_n: exactly 0 once the hazard reaches 700, log density clamped at -700."""
    log_t, t = _hazard(log_rate, shape, log_n, out)
    log_pdf = np.add(np.subtract(np.subtract(log_t, t, out=out[0]), log_n, out=out[0]), math.log(shape), out=out[0])
    pdf = np.asarray(np.exp(np.maximum(log_pdf, -700.0, out=out[0]), out=out[0]))  # an array for scalars too
    np.copyto(pdf, 0.0, where=t >= 700.0)
    return pdf


def _survival(log_rate, shape, log_n, out=(None, None)):
    """Weibull survival at n = e^log_n; exactly 1 at infinite scale."""
    return np.exp(np.negative(_hazard(log_rate, shape, log_n, out)[1], out=out[1]), out=out[1])


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
    out = _cycles_to_failure(params, eps)
    return float(out[0]) if np.isscalar(eps_amp) else out.reshape(np.shape(eps_amp))


def _cycles_to_failure(params: StrainLifeParams, eps: np.ndarray) -> np.ndarray:
    """:func:`cycles_to_failure` of a float array whose amplitudes are known to be nonnegative."""
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
    return out


def _log_rates(params: StrainLifeParams, amplitudes, index, log_volumes, combine=None):
    """Weakest-link log rates log(V ln 2 / V0 * N(u)^-m) of volumes V at u = amplitudes[index].

    ``combine`` sums the terms per structure in the log domain before the
    factor.  The scale rate^(-1/m) is infinite at or below the fatigue limit.
    Every caller has checked that the amplitudes are nonnegative.
    """
    terms = log_volumes - params.m * np.log(_cycles_to_failure(params, amplitudes))[index]
    return (terms if combine is None else combine(terms)) + math.log(math.log(2.0) / params.V0)


def element_scale_array(params: StrainLifeParams, delta_eps, volumes):
    """Weibull scales N(delta_eps / 2) (V0 / (V ln 2))^(1/m) of elements; inf at or below the limit.

    Strain ranges must be nonnegative and volumes positive, both finite.
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
