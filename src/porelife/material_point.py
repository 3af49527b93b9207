"""Cyclic elasto-plastic response at a material point.

Three pieces live here:

* a backward-Euler return-mapping integrator for a von Mises model with
  nonlinear kinematic hardening and saturating isotropic hardening (the
  reference path),
* a proportional cyclic Neuber-type corrector that recovers the stabilized
  elasto-plastic cycle from a purely elastic stress history (the fast path),
* extraction of the critical-plane strain range over the stabilized cycle.

Tensors are 6-vectors in the :mod:`porelife.voigt` convention.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import voigt

#: Samples per load cycle; bounds the range error of the criterion below
#: 0.3 % for fully reversed proportional loading.
DEFAULT_CYCLE_SAMPLES = 40

#: Cycles integrated before the stabilized cycle is extracted.  Cycle
#: ``n_cycles`` is taken as the stabilized cycle by convention; the loop is
#: not fully saturated there (with ALSI7MG at strain amplitude 0.004 the
#: isotropic stress has reached about 68 % of Q after 20 cycles).
DEFAULT_STABILIZATION_CYCLES = 20


class IntegrationError(RuntimeError):
    """Return mapping failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e} MPa)")
        self.residual = residual


class ProportionalityError(ValueError):
    """Elastic history is not proportional to a single direction tensor."""


class CorrectionError(RuntimeError):
    """The scalar Neuber solve did not converge."""


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


@dataclass(frozen=True, eq=False)
class MaterialPointState:
    """Internal variables: plastic strain, backstress, cumulative plastic strain."""

    eps_p: np.ndarray
    X: np.ndarray
    p: float

    @classmethod
    def virgin(cls) -> "MaterialPointState":
        return cls(eps_p=np.zeros(6), X=np.zeros(6), p=0.0)


@dataclass(frozen=True, eq=False)
class TensorHistory:
    """Time-stamped sequence of symmetric tensors (6 components each)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2 or self.values.shape[1] != 6:
            raise ValueError("values must have shape (n, 6)")
        if self.times.shape != (self.values.shape[0],):
            raise ValueError("times and values lengths differ")
        if self.times.size and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


def check_count(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` for a bool, a non-integral value or one below 1."""
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return int(value)


def _cosine_wave(amplitude, samples: int):
    """Sample times t in [0, 1) and amplitude * cos(2 pi t), one wave per amplitude."""
    samples = check_count("samples", samples)
    t = np.arange(samples) / samples
    return t, np.multiply.outer(amplitude, np.cos(2.0 * math.pi * t))


def cosine_cycle(tensor, amplitude: float = 1.0, samples: int = DEFAULT_CYCLE_SAMPLES) -> TensorHistory:
    """One fully reversed cycle: amplitude * tensor * cos(2 pi t), t in [0, 1)."""
    t, wave = _cosine_wave(amplitude, samples)
    return TensorHistory(times=t, values=np.outer(wave, np.asarray(tensor, dtype=float)))


# ---------------------------------------------------------------------------
# Return mapping
# ---------------------------------------------------------------------------

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


def chaboche_cycle(params: ChabocheParams, eps_path: TensorHistory, n_cycles: int = DEFAULT_STABILIZATION_CYCLES) -> CycleResult:
    """Repeat one strain cycle from a virgin state and return the final cycle."""
    if len(eps_path) == 0:
        raise ValueError("empty strain path")

    def step(i, eps_p, x_back, p):
        return (*_step_kernel(params, eps_p, x_back, p, eps_path.values[i]), eps_path.values[i])

    return _repeat_cycle(eps_path.times, n_cycles, step)


def stress_driven_cycle(params: ChabocheParams, stress_path: TensorHistory, n_cycles: int = DEFAULT_STABILIZATION_CYCLES) -> CycleResult:
    """Repeat one imposed *stress* cycle from a virgin state.

    Each step solves for the total strain producing the target stress by
    fixed-point iteration with the elastic compliance, warm-started from the
    previous step's strain; converges for any hardening material.  Returns
    the final cycle's histories.
    """
    if len(stress_path) == 0:
        raise ValueError("empty stress path")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(stress_path.values))))
    eps = np.zeros(6)

    def step(i, eps_p, x_back, p):
        nonlocal eps
        for _ in range(400):
            *state, sig = _step_kernel(params, eps_p, x_back, p, eps)
            gap = stress_path.values[i] - sig
            if np.max(np.abs(gap)) < tol:
                return (*state, sig, eps)
            eps = eps + voigt.elastic_strain(gap, params.E, params.nu)
        raise IntegrationError("stress-driven step did not converge", float(np.max(np.abs(gap))))

    return _repeat_cycle(stress_path.times, n_cycles, step)


def uniaxial_strain_cycle(
    params: ChabocheParams,
    amplitude: float,
    n_cycles: int = DEFAULT_STABILIZATION_CYCLES,
    samples: int = DEFAULT_CYCLE_SAMPLES,
) -> CycleResult:
    """Fully reversed uniaxial-stress cycling at a given axial strain amplitude.

    The axial strain follows a cosine wave while the lateral strains are left
    free: each step solves for the transverse strain that keeps the lateral
    stresses at zero (warm-started from the previous step), so the stress
    state stays uniaxial along x.
    """
    t, axial = _cosine_wave(amplitude, samples)
    lam = params.E * params.nu / ((1.0 + params.nu) * (1.0 - 2.0 * params.nu))
    stiff = 2.0 * (lam + params.shear_modulus)  # d(sigma_yy)/d(lateral strain)
    eps = np.zeros(6)
    lateral = 0.0

    def step(i, eps_p, x_back, p):
        nonlocal lateral
        eps[0] = axial[i]
        for _ in range(200):
            eps[1] = eps[2] = lateral
            *state, sig = _step_kernel(params, eps_p, x_back, p, eps)
            if abs(sig[1]) < 1e-9 * params.sigma_y:
                return (*state, sig, eps)
            lateral -= sig[1] / stiff
        raise IntegrationError("uniaxial lateral solve did not converge", abs(sig[1]))

    return _repeat_cycle(t, n_cycles, step)


# ---------------------------------------------------------------------------
# Proportional cyclic Neuber correction
# ---------------------------------------------------------------------------

class _Decomposition(NamedTuple):
    """Per-history arrays of :func:`_decompose`; ``...`` is the stack shape."""

    norms: np.ndarray  # (..., n) sample norms
    res_norm: np.ndarray  # (..., n) norms of the samples' parts off the reference
    ref_norm: np.ndarray  # (...) largest sample norm
    proportional: np.ndarray  # (...) every nonzero sample within tol of the reference
    j_ref: np.ndarray  # (...) von Mises equivalent of the unit reference
    direction: np.ndarray  # (..., 6) reference scaled to unit equivalent
    amp: np.ndarray  # (..., n) signed equivalents

    @property
    def has_direction(self) -> np.ndarray:
        """(...) finite, nonzero, proportional and not hydrostatic: ``direction`` and ``amp`` hold."""
        return np.isfinite(self.ref_norm) & (self.ref_norm != 0.0) & self.proportional & (self.j_ref != 0.0)


def _decompose(values) -> _Decomposition:
    """Reference direction and amplitudes of each history in a (..., n, 6) stack.

    The reference is the sample of largest norm; a nonzero sample off it by
    more than 1e-6 in angle makes the history non-proportional.  Nothing is
    checked: where ``has_direction`` is False the direction and amplitudes
    are meaningless.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # see the docstring
        norms = np.sqrt(voigt.contract(values, values))
        ref_idx = np.argmax(norms, axis=-1)[..., None]
        ref_norm = np.take_along_axis(norms, ref_idx, axis=-1)
        ref = np.take_along_axis(values, ref_idx[..., None], axis=-2)[..., 0, :] / ref_norm
        coeffs = voigt.contract(values, ref[..., None, :])
        residual = values - coeffs[..., None] * ref[..., None, :]
        res_norm = np.sqrt(voigt.contract(residual, residual))
        bad = (res_norm > 1e-6 * np.maximum(norms, 1e-300)) & (norms > 0.0)
        j_ref = voigt.von_mises(ref)
        return _Decomposition(
            norms, res_norm, ref_norm[..., 0], ~np.any(bad, axis=-1), j_ref,
            ref / j_ref[..., None], coeffs * j_ref[..., None],
        )


def _proportional_decomposition(values):
    """Split one proportional history into (unit-equivalent direction, amplitudes).

    The direction is normalized to unit von Mises equivalent; amplitudes are
    the signed equivalents.  A zero or purely hydrostatic history, which
    never yields, has no direction (None).  Raises ProportionalityError when
    any sample deviates from the common direction by more than 1e-6 in
    angle, or when the history's norm is not finite (its square overflows).
    """
    split = _decompose(values)
    if not math.isfinite(split.ref_norm):
        raise ProportionalityError(f"history norm is not finite ({split.ref_norm}): the stresses overflow")
    if split.ref_norm == 0.0:
        return None, np.zeros(len(values))
    if not split.proportional:
        nonzero = split.norms > 0.0
        worst = float(np.max(split.res_norm[nonzero] / split.norms[nonzero]))
        raise ProportionalityError(f"history is not proportional (angular deviation {worst:.3e})")
    if split.j_ref == 0.0:
        return None, np.zeros(len(values))  # purely hydrostatic, never yields
    return split.direction, split.amp


def _below_yield(params: ChabocheParams, amp):
    """Whether each history's peak equivalent stays within the yield stress."""
    return np.max(np.abs(amp), axis=-1) <= params.sigma_y


def _branch_range(params: ChabocheParams):
    """``range(dep, floor)``: stress range of the stabilized uniaxial hysteresis branch.

    ``dep`` is the plastic strain range and ``floor = 2 (sigma_y + r)`` the
    elastic part at isotropic stress ``r``.  The material's constants are
    bound once, in the operation order of ``floor + 2 C / D tanh(D / 2 dep)``.
    """
    if params.D > 0:
        two_c_over_d, half_d = 2.0 * params.C_kin / params.D, 0.5 * params.D
        return lambda dep, floor: floor + two_c_over_d * math.tanh(half_d * dep)
    c_kin = params.C_kin
    return lambda dep, floor: floor + c_kin * dep


def _bisect(residual, hi: float, rel_tol: float, what: str) -> float:
    """Root in (0, inf) of a residual that is negative at 0 and increasing.

    ``hi`` is doubled until the residual turns nonnegative, then the bracket
    ``[0, hi]`` is halved until its width is ``rel_tol * max(hi, 1)``.
    """
    lo = 0.0
    for _ in range(200):
        if residual(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise CorrectionError(f"could not bracket the {what}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * (1.0 if 1.0 > hi else hi):  # max(hi, 1.0), NaN included
            break
    return 0.5 * (lo + hi)


def _branch_solver(params: ChabocheParams, r_stab: float):
    """``solve(product, dep_hi)``: range * strain-range = product on the cyclic branch.

    The branch is the one at isotropic stress ``r_stab``.  ``solve`` returns
    (stress range, plastic strain range), elastic whenever the elastic
    solution stays within the doubled yield surface.
    """
    branch_range, young = _branch_range(params), params.E
    floor = 2.0 * (params.sigma_y + r_stab)

    def solve(product: float, dep_hi: float) -> tuple[float, float]:
        elastic_range = math.sqrt(product * young)
        if elastic_range <= floor:
            return elastic_range, 0.0

        def residual(dep):
            rng = branch_range(dep, floor)
            return rng * (rng / young + dep) - product

        dep = _bisect(residual, max(dep_hi, 1e-12), 1e-14, "scalar Neuber solve")
        return branch_range(dep, floor), dep

    return solve


def neuber_correct(
    params: ChabocheParams,
    elastic_stress_history: TensorHistory,
    n_cycles: int = DEFAULT_STABILIZATION_CYCLES,
) -> tuple[TensorHistory, TensorHistory]:
    """Stabilized elasto-plastic cycle from a proportional elastic history.

    The local direction is locked from the elastic tensor; per time step the
    product of von Mises equivalent stress and strain ranges measured from
    the last load reversal is conserved, with the plastic part following the
    stabilized uniaxial hysteresis branch of the hardening model.  The scalar
    solution is mapped back through the proportional direction.  Below yield
    the correction is the identity.

    "Stabilized" means cycle ``n_cycles`` by convention: the isotropic stress
    is taken at the cumulative plastic strain of ``n_cycles`` loops, which
    need not be saturated (about 68 % of Q for ALSI7MG at strain amplitude
    0.004 after the default 20 cycles).

    Returns ``(stress_history, strain_history)``.
    """
    n_cycles = check_count("n_cycles", n_cycles)
    if len(elastic_stress_history) == 0:
        raise ValueError("empty elastic history")
    values = elastic_stress_history.values
    times = elastic_stress_history.times
    direction, amp = _proportional_decomposition(values)

    if direction is None or _below_yield(params, amp):
        strain = voigt.elastic_strain(values, params.E, params.nu)
        return (
            TensorHistory(times=times, values=values.copy()),
            TensorHistory(times=times, values=strain),
        )

    a_max = float(np.max(amp))
    a_min = float(np.min(amp))
    young, sigma_y = params.E, params.sigma_y
    span = a_max - a_min
    product_loop = span * span / young

    # stabilized-loop solve: the isotropic stress is coupled to the plastic
    # range through the cumulative plastic strain accumulated over n_cycles
    # (p grows by twice the plastic range per cycle); the coupled residual is
    # monotone in the plastic range, so one bisection settles it
    branch_range, two_n = _branch_range(params), 2.0 * n_cycles

    def loop_residual(dep):
        rng = branch_range(dep, 2.0 * (sigma_y + params.isotropic_stress(two_n * dep)))
        return rng * (rng / young + dep) - product_loop

    if loop_residual(0.0) >= 0.0:
        dep_loop = 0.0
    else:
        dep_loop = _bisect(loop_residual, span / young, 1e-16, "stabilized-loop solve")
    solve = _branch_solver(params, params.isotropic_stress(two_n * dep_loop))
    rng_loop, dep_loop = solve(product_loop, max(dep_loop, span / young))

    # reversal anchors; means scale with the corrected/elastic range ratio
    mean_a = 0.5 * (a_max + a_min)
    sig_top = mean_a * rng_loop / span + 0.5 * rng_loop
    dep_top = mean_a * dep_loop / span + 0.5 * dep_loop

    idx_top = int(np.argmax(amp))
    idx_bot = int(np.argmin(amp))

    sig_scalar = np.empty(len(amp))
    dep_scalar = np.empty(len(amp))
    for i, a in enumerate(amp.tolist()):
        descending = _on_descending_branch(i, idx_top, idx_bot, len(amp))
        origin = a_max if descending else a_min
        span_t = abs(a - origin)
        rng_t, dep_t = solve(span_t * span_t / young, dep_loop)
        if descending:
            sig_scalar[i] = sig_top - rng_t
            dep_scalar[i] = dep_top - dep_t
        else:
            sig_scalar[i] = (sig_top - rng_loop) + rng_t
            dep_scalar[i] = (dep_top - dep_loop) + dep_t

    elastic_dir = voigt.elastic_strain(direction, params.E, params.nu)
    plastic_dir = 1.5 * voigt.deviator(direction)
    stress_vals = np.outer(sig_scalar, direction)
    strain_vals = np.outer(sig_scalar, elastic_dir) + np.outer(dep_scalar, plastic_dir)
    return (
        TensorHistory(times=times, values=stress_vals),
        TensorHistory(times=times, values=strain_vals),
    )


def _on_descending_branch(i: int, idx_top: int, idx_bot: int, n: int) -> bool:
    """Whether sample i sits on the branch leaving the maximum reversal."""
    if idx_top < idx_bot:
        return idx_top <= i < idx_bot
    return not (idx_bot <= i < idx_top)


# ---------------------------------------------------------------------------
# Critical-plane criterion
# ---------------------------------------------------------------------------

def critical_direction(sigma) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue, with deterministic ties.

    When the top eigenvalues are degenerate (within 1e-9 of the tensor norm)
    the returned vector is the one in the degenerate subspace with the
    lexicographically largest absolute components (x, then y, then z),
    sign-normalized to a positive first nonzero component.  Raises
    ValueError when the tensor's norm is not finite (its square overflows).
    """
    sigma = np.asarray(sigma, dtype=float)
    mat = voigt.to_matrix(sigma)
    with np.errstate(over="ignore"):  # reported below
        norm = float(np.linalg.norm(mat))
    if not math.isfinite(norm):
        raise ValueError(f"tensor norm is not finite ({norm}): the stresses overflow")
    return _tie_rule(*np.linalg.eigh(mat), norm)


def _tie_rule(evals, evecs, norm: float) -> np.ndarray:
    """:func:`critical_direction` of one tensor from its ascending eigenpairs and finite norm."""
    tol = 1e-9 * max(norm, 1e-300)
    top = evals >= evals[-1] - tol
    basis = evecs[:, top]
    vec = None
    for axis in range(3):
        proj = basis @ basis[axis, :]
        length = np.linalg.norm(proj)
        if length > 1e-12:
            vec = proj / length
            break
    if vec is None:  # degenerate numerics; fall back to the raw eigenvector
        vec = evecs[:, -1]
    for comp in vec:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                vec = -vec
            break
    return vec


def _dot_rows(a):
    """``a[..., i] . a[..., i]`` for each last-axis row, with the kernel of ``np.linalg.norm``: one BLAS dot per row."""
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


def critical_directions(tensors) -> tuple[np.ndarray, dict]:
    """:func:`critical_direction` of each row of a (k, 6) stack, bit for bit.

    Returns ``(n_stars, errors)``: the (k, 3) directions and ``{row:
    ValueError}`` for the rows whose norm is not finite, which go to
    :func:`critical_direction` itself (their directions stay zero).  The
    others share one ``np.linalg.eigh``.  Where the top eigenvalue is single
    the tie rule runs on the whole stack through the kernels it uses on one
    tensor: ``basis @ basis[axis]`` as a stacked ``matmul``, and
    ``np.linalg.norm`` as one BLAS dot per row.  Degenerate tops take
    :func:`_tie_rule` on their stacked eigenpairs.
    """
    tensors = np.asarray(tensors, dtype=float)
    mats = voigt.to_matrix(tensors)
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: critical_direction reports it
        norms = np.sqrt(_dot_rows(mats.reshape(-1, 9)))
    n_stars = np.zeros((len(tensors), 3))
    errors = {}
    for k in np.flatnonzero(~np.isfinite(norms)).tolist():
        try:
            n_stars[k] = critical_direction(tensors[k])
        except ValueError as exc:
            errors[k] = exc
    rows = np.flatnonzero(np.isfinite(norms))
    evals, evecs = np.linalg.eigh(mats[rows])
    top = evals >= evals[:, -1:] - (1e-9 * np.maximum(norms[rows], 1e-300))[:, None]
    basis = evecs[:, :, 2:]  # the rule's basis where the top eigenvalue is single
    proj = np.matmul(basis[:, None], basis[:, :, None])[..., 0]  # (rows, axis, 3): basis @ basis[axis]
    lengths = np.sqrt(_dot_rows(proj))
    found = lengths > 1e-12
    picked, axis = np.arange(rows.size), np.argmax(found, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):  # only where no axis is found
        vec = proj[picked, axis] / lengths[picked, axis][:, None]
    lead = np.abs(vec) > 1e-12
    flip = np.any(lead, axis=1) & (vec[picked, np.argmax(lead, axis=1)] < 0.0)
    stacked = (np.sum(top, axis=1) == 1) & np.any(found, axis=1)
    n_stars[rows[stacked]] = np.where(flip[:, None], -vec, vec)[stacked]
    for i in np.flatnonzero(~stacked).tolist():
        n_stars[rows[i]] = _tie_rule(evals[i], evecs[i], float(norms[rows[i]]))
    return n_stars, errors


def criterion_delta_eps(strain_history: TensorHistory, n_star) -> float:
    """Range of the normal strain n . eps(t) . n over the provided cycle."""
    if len(strain_history) == 0:
        raise ValueError("empty strain history")
    n_star = np.asarray(n_star, dtype=float)
    if abs(np.linalg.norm(n_star) - 1.0) > 1e-9:
        raise ValueError("n_star must be a unit vector")
    projected = voigt.normal_projection(strain_history.values, n_star)
    return float(np.max(projected) - np.min(projected))


#: Relative slack of :func:`_settled_cells`.  The peak equivalent ``max
#: |amp|`` that :func:`_decompose` computes for a cell and the per-tensor
#: ``level * vm(t)`` round the same exact value through short chains of
#: products, quotients and sums of normal doubles (the one cancellation, in
#: the deviator, costs a few ulp of ``|t|``), so they differ by a few dozen
#: ulp of ``level * |t|`` at most: 1.1e-15 (10 ulp) over the 27,000 cells of
#: the benchmark mesh.  A slack of 1e-9 covers that about 1e5 times over.
CERTIFICATE_SLACK = 1e-9

#: Bounds of every nonzero sample component for :func:`_settled_cells`: the
#: squares of the components and of their roundings stay normal doubles.
_SAFE_LOW, _SAFE_HIGH = 2.0**-500, 2.0**500


def _settled_cells(params: ChabocheParams, tensors, wave):
    """(elastic, plastic) masks of the (k, j) cells that per-tensor arithmetic settles.

    Cell (k, j) is the history ``wave[j, n] * t`` with ``t = tensors[k]``
    and level ``max |wave[j]|``.  A cell qualifies when ``t`` is finite with
    ``vm(t) > slack |t|`` and every nonzero component of ``t`` and of its
    samples lies within the safe bounds.  :func:`_decompose` then finds the
    history proportional with a direction, and its ``max |amp|`` lies in
    ``level (vm(t) -/+ slack |t|)``; the cell is ``elastic`` when that band
    ends a slack below the yield stress and ``plastic`` when it starts a
    slack above.  Every other cell (near yield, near hydrostatic, zero,
    extreme or not finite) is in neither mask.
    """
    slack = CERTIFICATE_SLACK
    magnitude = np.abs(tensors)
    biggest = np.max(magnitude, axis=-1)
    smallest = np.min(np.where(magnitude > 0.0, magnitude, np.inf), axis=-1)
    norm = np.sqrt(voigt.contract(tensors, tensors))
    vm = voigt.von_mises(tensors)
    clear = (np.isfinite(norm) & (smallest >= _SAFE_LOW) & (biggest <= _SAFE_HIGH) & (vm > slack * norm))[:, None]
    w_abs = np.abs(wave)
    level = np.max(w_abs, axis=-1)
    clear = clear & (np.outer(smallest, np.min(w_abs, axis=-1)) >= _SAFE_LOW) & (np.outer(biggest, level) <= _SAFE_HIGH)
    elastic = clear & (np.outer(vm + slack * norm, level) <= params.sigma_y * (1.0 - slack))
    plastic = clear & (np.outer(vm - slack * norm, level) >= params.sigma_y * (1.0 + slack))
    return elastic, plastic


def elastic_delta_eps(params: ChabocheParams, tensors, n_stars, levels, samples: int = DEFAULT_CYCLE_SAMPLES):
    """Criterion strain ranges of every (tensor, level) cell that stays elastic.

    One broadcast pass over the (k, 6) unit ``tensors``, their (k, 3)
    critical directions ``n_stars`` and the (j,) amplitudes ``levels`` runs
    :func:`cosine_cycle`, the elastic branch of :func:`neuber_correct` and
    :func:`criterion_delta_eps` in their own operation order, so every
    elastic cell equals that chain bit for bit.  Returns ``(delta_eps,
    elastic)``, both (k, j).  Where ``elastic`` is False the range is
    meaningless: the cell yields, or its history is zero, hydrostatic, not
    proportional or not finite, and :func:`neuber_correct` must handle it.
    ``elastic`` is the mask of the stacked :func:`_decompose`, which runs
    only on the cells :func:`_settled_cells` leaves open.
    """
    tensors = np.asarray(tensors, dtype=float)
    _, wave = _cosine_wave(np.asarray(levels, dtype=float), samples)
    with np.errstate(over="ignore", invalid="ignore"):  # only in cells that are not elastic
        values = wave[None, :, :, None] * tensors[:, None, None, :]
        elastic, plastic = _settled_cells(params, tensors, wave)
        open_cells = ~(elastic | plastic)
        if np.any(open_cells):
            split = _decompose(values[open_cells])
            elastic[open_cells] = split.has_direction & _below_yield(params, split.amp)
        strain = voigt.elastic_strain(values, params.E, params.nu)
        projected = voigt.normal_projection(strain, np.asarray(n_stars, dtype=float)[:, None, None, :])
        return np.max(projected, axis=-1) - np.min(projected, axis=-1), elastic
