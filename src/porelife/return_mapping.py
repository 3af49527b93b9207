"""Backward-Euler return mapping of the hardening model: the reference the Neuber-type corrector is checked against.

Three cycle drivers (strain, stress, uniaxial) share one mixed-control step
solve.  No command runs it, and :mod:`porelife.material_point` never imports it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import voigt
from .material import DEFAULT_CYCLE_SAMPLES, DEFAULT_STABILIZATION_CYCLES, ChabocheParams, check_count
from .material_point import TensorHistory, _cosine_wave


class IntegrationError(RuntimeError):
    """Return mapping failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e} MPa)")
        self.message, self.residual = message, residual

    def __reduce__(self):  # the default would call the constructor with the message alone
        return type(self), (self.message, self.residual), self.__dict__


@dataclass(frozen=True, eq=False)
class MaterialPointState:
    """Internal variables: plastic strain, backstress, cumulative plastic strain."""

    eps_p: np.ndarray
    X: np.ndarray
    p: float

    @classmethod
    def virgin(cls) -> "MaterialPointState":
        return cls(eps_p=np.zeros(6), X=np.zeros(6), p=0.0)


def _step_kernel(params: ChabocheParams, eps_p, X, p, eps_total):
    """Backward-Euler update on raw arrays; returns (eps_p, X, p, stress)."""
    g2 = 2.0 * params.shear_modulus
    sig_trial = voigt.elastic_stress(eps_total - eps_p, params.E, params.nu)
    s_trial = voigt.deviator(sig_trial)
    xi_trial = s_trial - X
    j_trial = math.sqrt(1.5 * voigt.contract(xi_trial, xi_trial))
    f_trial = j_trial - params.sigma_y - params.isotropic_stress(p)
    if f_trial <= 0.0:
        return eps_p, X, p, sig_trial

    ckin, drec, b, q = params.C_kin, params.D, params.b, params.Q
    three_g = 1.5 * g2

    def residual_and_slope(dp):
        theta = 1.0 / (1.0 + drec * dp)
        xi_eff = s_trial - theta * X
        j_eff = math.sqrt(1.5 * voigt.contract(xi_eff, xi_eff))
        r_new = params.isotropic_stress(p + dp)
        res = j_eff - (three_g + theta * ckin) * dp - params.sigma_y - r_new
        dtheta = -drec * theta * theta
        dj = -1.5 * dtheta * voigt.contract(xi_eff, X) / j_eff if j_eff > 0.0 else 0.0
        slope = dj - three_g - theta * ckin - dp * ckin * dtheta - q * b * math.exp(-b * (p + dp))
        return res, slope, theta, xi_eff, j_eff

    dp = 0.0
    lo, hi = 0.0, None  # bracket maintained alongside Newton
    res = f_trial
    for _ in range(100):
        res, slope, theta, xi_eff, j_eff = residual_and_slope(dp)
        if abs(res) < 1e-10:
            break
        if res > 0.0:
            lo = dp
        else:
            hi = dp if hi is None else min(hi, dp)
        step = res / slope if slope != 0.0 else -res
        candidate = dp - step
        if candidate <= lo or (hi is not None and candidate >= hi):
            candidate = 0.5 * (lo + hi) if hi is not None else 2.0 * max(dp, f_trial / three_g)
        dp = candidate
    else:
        raise IntegrationError("return mapping did not converge", res)

    flow = 1.5 * dp / j_eff * xi_eff
    eps_p_new = eps_p + flow
    x_new = theta * (X + (2.0 / 3.0) * ckin * flow)
    stress = sig_trial - g2 * flow
    return eps_p_new, x_new, p + dp, stress


def chaboche_step(params: ChabocheParams, state: MaterialPointState, eps_total):
    """One implicit return-mapping update for an imposed total strain tensor.

    Returns ``(new_state, stress)``.  The return mapping stops once the
    consistency residual is below 1e-10 MPa in magnitude.
    """
    eps_total = np.asarray(eps_total, dtype=float)
    eps_p, x_back, p, stress = _step_kernel(params, state.eps_p, state.X, state.p, eps_total)
    return MaterialPointState(eps_p=eps_p, X=x_back, p=p), stress


@dataclass(frozen=True, eq=False)
class CycleResult:
    """Stabilized-cycle output of the cycle drivers.

    ``peak_history`` holds the per-cycle maximum von Mises stress, one entry
    per integrated cycle.  The stabilization metric is the max pointwise (per
    sample, per component) stress difference between the last two cycles;
    NaN when n_cycles == 1.
    """

    stress: TensorHistory
    strain: TensorHistory
    stabilization_metric: float
    peak_history: np.ndarray = field(repr=False, default=None)
    metric_history: np.ndarray = field(repr=False, default=None)
    state: MaterialPointState = field(repr=False, default=None)


def _repeat_cycle(times: np.ndarray, n_cycles: int, step) -> CycleResult:
    """Repeat one cycle of ``len(times)`` samples from a virgin state.

    The one cycle loop behind the public drivers: ``step(i, eps_p, X, p)``
    solves sample ``i`` from the current internal variables and returns
    ``(eps_p, X, p, stress, strain)``.
    """
    n_cycles = check_count("n_cycles", n_cycles)
    eps_p, x_back, p = np.zeros(6), np.zeros(6), 0.0
    sig_hist = np.empty((len(times), 6))
    eps_hist = np.empty((len(times), 6))
    peaks = np.empty(n_cycles)
    metrics = np.full(n_cycles, np.nan)
    prev = None
    for cycle in range(n_cycles):
        for i in range(len(times)):
            eps_p, x_back, p, sig_hist[i], eps_hist[i] = step(i, eps_p, x_back, p)
        peaks[cycle] = np.max(voigt.von_mises(sig_hist))
        if prev is not None:
            metrics[cycle] = np.max(np.abs(sig_hist - prev))
        prev = sig_hist.copy()
    return CycleResult(
        stress=TensorHistory(times=times, values=sig_hist),
        strain=TensorHistory(times=times, values=eps_hist),
        stabilization_metric=float(metrics[-1]),
        peak_history=peaks,
        metric_history=metrics,
        state=MaterialPointState(eps_p=eps_p, X=x_back, p=p),
    )


def _controlled_cycle(params: ChabocheParams, times, targets, free: list, n_cycles: int, what: str) -> CycleResult:
    """The one step solve of the drivers: components ``free`` of the (n, 6) ``targets`` are stresses, the rest strains.

    Each try corrects the free strains by the inverse of the free block of
    the elastic stiffness, warm-started from the previous sample, until each
    free stress is within 1e-9 max(sigma_y, peak |target stress|); 400 tries.
    """
    fixed = [k for k in range(6) if k not in free]
    compliance = np.linalg.inv(voigt.elastic_stress(np.eye(6), params.E, params.nu)[np.ix_(free, free)])
    tol = 1e-9 * max(params.sigma_y, float(np.max(np.abs(targets[:, free]), initial=0.0)))
    eps = np.zeros(6)

    def step(i, eps_p, x_back, p):
        eps[fixed] = targets[i, fixed]
        for _ in range(400):
            *state, sig = _step_kernel(params, eps_p, x_back, p, eps)
            gap = targets[i, free] - sig[free]
            if np.max(np.abs(gap), initial=0.0) < tol:
                return (*state, sig, eps)
            eps[free] += compliance @ gap
        raise IntegrationError(f"{what} did not converge", float(np.max(np.abs(gap))))

    return _repeat_cycle(times, n_cycles, step)


def chaboche_cycle(params: ChabocheParams, eps_path: TensorHistory, n_cycles: int = DEFAULT_STABILIZATION_CYCLES) -> CycleResult:
    """Repeat one strain cycle from a virgin state and return the final cycle; every component is prescribed."""
    if len(eps_path) == 0:
        raise ValueError("empty strain path")
    return _controlled_cycle(params, eps_path.times, eps_path.values, [], n_cycles, "strain-driven step")


def stress_driven_cycle(params: ChabocheParams, stress_path: TensorHistory, n_cycles: int = DEFAULT_STABILIZATION_CYCLES) -> CycleResult:
    """Repeat one imposed *stress* cycle from a virgin state.

    Every component is a prescribed stress, so each step corrects the total
    strain by the elastic compliance, warm-started from the previous step's
    strain; this converges while the path stays below the saturation stress
    of the hardening.  Returns the final cycle's histories.
    """
    if len(stress_path) == 0:
        raise ValueError("empty stress path")
    return _controlled_cycle(params, stress_path.times, stress_path.values, list(range(6)), n_cycles, "stress-driven step")


def uniaxial_strain_cycle(
    params: ChabocheParams,
    amplitude: float,
    n_cycles: int = DEFAULT_STABILIZATION_CYCLES,
    samples: int = DEFAULT_CYCLE_SAMPLES,
) -> CycleResult:
    """Fully reversed uniaxial-stress cycling at a given axial strain amplitude.

    The axial strain follows a cosine wave and the shear strains stay zero,
    while the lateral stresses are prescribed zero: each step solves for the
    lateral strains (warm-started from the previous step), so the stress
    state stays uniaxial along x.
    """
    t, axial = _cosine_wave(amplitude, samples)
    targets = np.column_stack([axial, np.zeros((len(t), 5))])
    return _controlled_cycle(params, t, targets, [1, 2], n_cycles, "uniaxial lateral solve")
