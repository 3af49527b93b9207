"""The elasto-plastic criterion at a material point, from a proportional cyclic Neuber-type corrector.

The corrector recovers the stabilized elasto-plastic cycle from a purely
elastic stress history; the criterion is the critical-plane strain range over
that cycle, and :func:`criterion_rows` gives it for unit tensors across levels.

Tensors are 6-vectors in the :mod:`porelife.voigt` convention.  The model's
constants and the protocol defaults are defined in :mod:`porelife.material`
and imported here, so callers of the solvers find them beside the solvers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import voigt
from .material import ALSI7MG  # noqa: F401  (callers of the solvers take it from here too)
from .material import DEFAULT_CYCLE_SAMPLES, DEFAULT_STABILIZATION_CYCLES, ChabocheParams, check_count


class ProportionalityError(ValueError):
    """Elastic history is not proportional to a single direction tensor."""


class CorrectionError(RuntimeError):
    """The scalar Neuber solve did not converge."""


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

        dep = _bisect(residual, max(dep_hi, 1e-12), _BRANCH_TOL, "scalar Neuber solve")
        return branch_range(dep, floor), dep

    return solve


def _stabilized_loop(params: ChabocheParams, a_max: float, a_min: float, n_cycles: int):
    """``(solve, rng, dep, start, sig_top, dep_top)`` of the stabilized loop between signed equivalents a_max and a_min.

    The isotropic stress is coupled to the plastic range through the
    cumulative plastic strain accumulated over n_cycles (p grows by twice the
    plastic range per cycle); the coupled residual is monotone in the plastic
    range, so one bisection settles it.  ``solve`` is the branch solver at
    the loop's isotropic stress and gave the loop's stress and plastic strain
    ranges ``rng`` and ``dep`` from bracket start ``start``.  The peak
    reversal anchor ``(sig_top, dep_top)`` has its mean scaled by the
    corrected/elastic range ratio.
    """
    young, sigma_y = params.E, params.sigma_y
    span = a_max - a_min
    if span == 0.0:  # the reversal anchors below scale by 1 / span
        raise ValueError("elastic history has no load reversal: its peak and trough equivalents are equal")
    product_loop = span * span / young
    branch_range, two_n = _branch_range(params), 2.0 * n_cycles

    def loop_residual(dep):
        rng = branch_range(dep, 2.0 * (sigma_y + params.isotropic_stress(two_n * dep)))
        return rng * (rng / young + dep) - product_loop

    if loop_residual(0.0) >= 0.0:
        dep_loop = 0.0
    else:
        dep_loop = _bisect(loop_residual, span / young, 1e-16, "stabilized-loop solve")
    solve = _branch_solver(params, params.isotropic_stress(two_n * dep_loop))
    start = max(dep_loop, span / young)
    rng_loop, dep_loop = solve(product_loop, start)
    mean_a = 0.5 * (a_max + a_min)
    return (solve, rng_loop, dep_loop, start,
            mean_a * rng_loop / span + 0.5 * rng_loop, mean_a * dep_loop / span + 0.5 * dep_loop)


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
    the correction is the identity; above it, a history without a load
    reversal raises ValueError.

    "Stabilized" means cycle ``n_cycles`` by convention: the isotropic stress
    is taken at the cumulative plastic strain of ``n_cycles`` loops, which
    need not be saturated (about 68 % of Q for ALSI7MG at strain amplitude
    0.004 after the default 20 cycles).  The loop is :func:`_stabilized_loop`'s;
    each sample then takes one branch solve from its last reversal.

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
    solve, rng_loop, dep_loop, _, sig_top, dep_top = _stabilized_loop(params, a_max, a_min, n_cycles)

    descending, _, products = _reversal_products(amp, params.E)
    rng_t, dep_t = np.array([solve(product, dep_loop) for product in products.tolist()]).T
    sig_scalar = np.where(descending, sig_top - rng_t, (sig_top - rng_loop) + rng_t)
    dep_scalar = np.where(descending, dep_top - dep_t, (dep_top - dep_loop) + dep_t)

    elastic_dir = voigt.elastic_strain(direction, params.E, params.nu)
    plastic_dir = 1.5 * voigt.deviator(direction)
    stress_vals = np.outer(sig_scalar, direction)
    strain_vals = np.outer(sig_scalar, elastic_dir) + np.outer(dep_scalar, plastic_dir)
    return (
        TensorHistory(times=times, values=stress_vals),
        TensorHistory(times=times, values=strain_vals),
    )


def _reversal_products(amp, young: float):
    """``(descending, inner, product)`` of a (..., n) stack of signed equivalents.

    ``descending`` marks the samples on the branch leaving the maximum
    reversal (up to the minimum, cyclically), ``inner`` the samples that are
    neither reversal, and ``product`` is each sample's Neuber product
    ``span^2 / E`` of its span from its last reversal.
    """
    i = np.arange(amp.shape[-1])
    top, bot = np.argmax(amp, axis=-1)[..., None], np.argmin(amp, axis=-1)[..., None]
    descending = np.where(top < bot, (top <= i) & (i < bot), (i < bot) | (top <= i))
    span = np.abs(amp - np.where(descending, np.take_along_axis(amp, top, -1), np.take_along_axis(amp, bot, -1)))
    return descending, (i != top) & (i != bot), span * span / young


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
    This is row 0 of :func:`critical_directions` of the one tensor.
    """
    n_stars, errors = critical_directions([sigma])
    if errors:
        raise errors[0]
    return n_stars[0]


def _tie_rule(evals, evecs, norm: float) -> np.ndarray:
    """:func:`critical_direction` of one tensor from its ascending eigenpairs and finite norm."""
    tol = 1e-9 * max(norm, 1e-300)
    top = evals >= evals[-1] - tol
    basis = evecs[:, top]
    for axis in range(3):  # always breaks: for k basis columns the squared lengths sum to k >= 1 over the axes
        proj = basis @ basis[axis, :]
        length = np.linalg.norm(proj)
        if length > 1e-12:
            break
    vec = proj / length
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
    """:func:`critical_direction` of each row of a (k, 6) stack.

    Returns ``(n_stars, errors)``: the (k, 3) directions and ``{row:
    ValueError}`` for the rows whose norm is not finite (their directions
    stay zero).  The others share one ``np.linalg.eigh``.  Where the top
    eigenvalue is single the tie rule runs on the whole stack through the
    kernels it uses on one tensor: ``basis @ basis[axis]`` as a stacked
    ``matmul``, and ``np.linalg.norm`` as one BLAS dot per row.  Degenerate
    tops take :func:`_tie_rule` on their stacked eigenpairs, one by one: a
    stacked ``matmul`` over their bases rounds differently.
    """
    tensors = np.asarray(tensors, dtype=float)
    mats = voigt.to_matrix(tensors)
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: reported per row
        norms = np.sqrt(_dot_rows(mats.reshape(-1, 9)))
    n_stars = np.zeros((len(tensors), 3))
    errors = {k: ValueError(f"tensor norm is not finite ({float(norms[k])}): the stresses overflow")
              for k in np.flatnonzero(~np.isfinite(norms)).tolist()}
    rows = np.flatnonzero(np.isfinite(norms))
    evals, evecs = np.linalg.eigh(mats[rows])
    top = evals >= evals[:, -1:] - (1e-9 * np.maximum(norms[rows], 1e-300))[:, None]
    basis = evecs[:, :, 2:]  # the rule's basis where the top eigenvalue is single
    proj = np.matmul(basis[:, None], basis[:, :, None])[..., 0]  # (rows, axis, 3): basis @ basis[axis]
    lengths = np.sqrt(_dot_rows(proj))
    picked, axis = np.arange(rows.size), np.argmax(lengths > 1e-12, axis=1)
    vec = proj[picked, axis] / lengths[picked, axis][:, None]
    lead = np.abs(vec) > 1e-12
    flip = np.any(lead, axis=1) & (vec[picked, np.argmax(lead, axis=1)] < 0.0)
    stacked = np.sum(top, axis=1) == 1
    n_stars[rows[stacked]] = np.where(flip[:, None], -vec, vec)[stacked]
    for i in np.flatnonzero(~stacked).tolist():
        n_stars[rows[i]] = _tie_rule(evals[i], evecs[i], float(norms[rows[i]]))
    return n_stars, errors


def criterion_delta_eps(strain_history: TensorHistory, n_star) -> float:
    """Range of the normal strain n . eps(t) . n over the provided cycle."""
    if len(strain_history) == 0:
        raise ValueError("empty strain history")
    n_star = np.asarray(n_star, dtype=float)
    if not abs(np.linalg.norm(n_star) - 1.0) <= 1e-9:  # NaN included
        raise ValueError("n_star must be a unit vector")
    projected = voigt.normal_projection(strain_history.values, n_star)
    return float(np.max(projected) - np.min(projected))


#: Relative slack of the certificates of :func:`settled_delta_eps`.
#:
#: *Elastic cells* (:func:`_settled_cells`).  The peak equivalent ``max
#: |amp|`` that :func:`_decompose` computes for a cell and the per-tensor
#: ``level * vm(t)`` round the same exact value through short chains of
#: products, quotients and sums of normal doubles (the one cancellation, in
#: the deviator, costs a few ulp of ``|t|``), so they differ by a few dozen
#: ulp of ``level * |t|`` at most: 1.1e-15 (10 ulp) over the 27,000 cells of
#: the benchmark mesh.  A slack of 1e-9 covers that about 1e5 times over.
#:
#: *Elastic ranges.*  Sample n projects to ``w_n Q`` within ``_ROUNDING
#: level S`` (and 2^-1000 of underflow), ``Q`` the projection of the
#: tensor's elastic strain and ``S = 3 (1 + 4 nu) / E max|t|`` a bound on its
#: terms.  A sample whose cosine is a slack inside the wave's extremes then
#: projects strictly between theirs when ``(slack |Q| - 4 _ROUNDING S) level
#: > 2^-1000``.
#:
#: *Plastic ranges.*  Sample i projects to ``sig_i Pe + dep_i Pp`` (``Pe``
#: and ``Pp`` the projections of the elastic and plastic directions) within
#: ``_ROUNDING`` of its terms; its branch solve lies within the bisection's
#: width and a rounding window of the exact branch point at its product
#: ``p_i``, as the loop's does at ``p``.  Where ``Pe`` and ``Pp`` share one
#: sign, the projection moves along the branch by at least ``c = min(|Pe| /
#: (2 rng / E + dep), |Pp| / rng)`` per unit of product, so ``c p_i`` and
#: ``c (p - p_i)`` above those errors put it strictly between the anchors'.
CERTIFICATE_SLACK = 1e-9

#: Bounds of every nonzero sample component for :func:`_settled_cells`: the
#: squares of the components and of their roundings stay normal doubles.
_SAFE_LOW, _SAFE_HIGH = 2.0**-500, 2.0**500

#: Relative rounding of a sample's projection and of a Neuber residual (about ten roundings each), 50 times over.
_ROUNDING = 2.0**-44

#: Final bracket width of the Neuber branch bisection, relative to ``max(hi, 1)``.
_BRANCH_TOL = 1e-14


def _settled_cells(params: ChabocheParams, tensors, wave):
    """Mask of the (k, j) cells that per-tensor arithmetic certifies elastic.

    Cell (k, j) is the history ``wave[j, n] * t`` with ``t = tensors[k]``
    and level ``max |wave[j]|``.  A cell qualifies when ``t`` is finite with
    ``vm(t) > slack |t|`` and every nonzero component of ``t`` and of its
    samples lies within the safe bounds.  :func:`_decompose` then finds the
    history proportional with a direction, and its ``max |amp|`` lies in
    ``level (vm(t) -/+ slack |t|)``; the cell is elastic when that band ends
    a slack below the yield stress.
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
    return clear & (np.outer(vm + slack * norm, level) <= params.sigma_y * (1.0 - slack))


def _reversal_ranges(params: ChabocheParams, split: _Decomposition, n_stars, n_cycles: int):
    """(delta_eps, settled) of plastic cells, from the :func:`_decompose` ``split`` of their histories.

    Each cell takes one loop solve and projects its two reversal anchors on
    its row of ``n_stars``; it is settled where the solve succeeds and the
    certificate of :data:`CERTIFICATE_SLACK` holds.
    """
    young, amp = params.E, split.amp
    a_max, a_min = np.max(amp, axis=-1), np.min(amp, axis=-1)
    loops = np.full((len(amp), 5), np.nan)  # rng, dep, start, sig_top, dep_top; NaN where the solve fails
    for m, peaks in enumerate(zip(a_max.tolist(), a_min.tolist())):
        try:
            loops[m] = _stabilized_loop(params, *peaks, n_cycles)[1:]
        except (ValueError, CorrectionError):
            pass  # the chain of neuber_correct raises the same
    rng, dep, start, sig_top, dep_top = loops.T
    # the anchors' branch solves are solve(0) = (0, 0), applied as neuber_correct applies them
    sig = np.stack([sig_top - 0.0, (sig_top - rng) + 0.0], axis=-1)
    dep_anchor = np.stack([dep_top - 0.0, (dep_top - dep) + 0.0], axis=-1)
    elastic_dir = voigt.elastic_strain(split.direction, young, params.nu)
    plastic_dir = 1.5 * voigt.deviator(split.direction)
    strain = sig[..., None] * elastic_dir[:, None, :] + dep_anchor[..., None] * plastic_dir[:, None, :]
    projected = voigt.normal_projection(strain, n_stars[:, None, :])

    # the certificate: products of the samples other than the anchors
    _, inner, product_i = _reversal_products(amp, young)
    span = a_max - a_min
    product = span * span / young
    pe, pp, se, sp = voigt.normal_projection(  # the coefficients and the magnitudes of their terms
        np.stack([elastic_dir, plastic_dir, np.abs(elastic_dir), np.abs(plastic_dir)]),
        np.stack([n_stars, n_stars, np.abs(n_stars), np.abs(n_stars)]))
    err_dep = _BRANCH_TOL + _ROUNDING * product / (2.0 * params.sigma_y)  # brackets within [0, 1]: see the last line
    err_rng = 2.0 * params.C_kin * err_dep + _ROUNDING * rng
    rng_hi, dep_hi = rng + err_rng, dep + err_dep
    c = np.minimum((np.abs(pe) - _ROUNDING * se) / (2.0 * rng_hi / young + dep_hi),
                   (np.sign(pe) * pp - _ROUNDING * sp) / rng_hi)
    terms = (np.abs(sig_top) + rng_hi) * se + (np.abs(dep_top) + dep_hi) * sp
    err = 2.0 * (se * err_rng + sp * err_dep) + 4.0 * _ROUNDING * terms
    settled = ((c * np.min(np.where(inner, product_i, np.inf), axis=-1) > err)
               & (c * (product * (1.0 - _ROUNDING) - np.max(np.where(inner, product_i, 0.0), axis=-1)) > err)
               & (start <= 0.5) & (dep <= 0.25))
    return np.max(projected, axis=-1) - np.min(projected, axis=-1), settled


def settled_delta_eps(
    params: ChabocheParams,
    tensors,
    n_stars,
    levels,
    samples: int = DEFAULT_CYCLE_SAMPLES,
    n_cycles: int = DEFAULT_STABILIZATION_CYCLES,
):
    """Criterion strain ranges of the (tensor, level) cells settled from their reversal samples.

    Cell (k, j) is the chain :func:`cosine_cycle` (unit ``tensors[k]``,
    ``levels[j]``), :func:`neuber_correct` (``n_cycles``) and
    :func:`criterion_delta_eps` (``n_stars[k]``).  Returns ``(delta_eps,
    settled)``, both (k, j): a settled range equals the chain bit for bit;
    elsewhere it is meaningless and the cell must take the chain.  Elastic
    cells (:func:`_settled_cells`, then the stacked :func:`_decompose` of the
    cells it leaves open) are projected at the wave's extreme samples only;
    plastic cells go through :func:`_reversal_ranges`.  The certificates of
    :data:`CERTIFICATE_SLACK` leave open the cells that are zero, hydrostatic
    or not proportional, that have an elastic coefficient near zero or
    elastic and plastic coefficients of opposite signs, whose extremes nearly
    tie, or whose loop solve fails.
    """
    tensors, n_stars = np.asarray(tensors, dtype=float), np.asarray(n_stars, dtype=float)
    _, wave = _cosine_wave(np.asarray(levels, dtype=float), samples)
    _, unit = _cosine_wave(1.0, samples)
    slack, young, nu = CERTIFICATE_SLACK, params.E, params.nu
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # only in cells left open
        elastic = _settled_cells(params, tensors, wave)
        k, j = np.nonzero(~elastic)
        split = _decompose(wave[j, :, None] * tensors[k, None, :])
        below = _below_yield(params, split.amp)
        elastic[k, j] = split.has_direction & below

        ends = (unit >= np.max(unit) - slack) | (unit <= np.min(unit) + slack)
        values = wave[:, ends][None, :, :, None] * tensors[:, None, None, :]
        projected = voigt.normal_projection(voigt.elastic_strain(values, young, nu), n_stars[:, None, None, :])
        delta_eps = np.max(projected, axis=-1) - np.min(projected, axis=-1)
        coefficient = voigt.normal_projection(voigt.elastic_strain(tensors, young, nu), n_stars)
        bound = 3.0 * (1.0 + 4.0 * nu) / young * np.max(np.abs(tensors), axis=-1)
        margin = np.outer(slack * np.abs(coefficient) - 4.0 * _ROUNDING * bound, np.max(np.abs(wave), axis=-1))
        settled = elastic & (margin > _SAFE_LOW**2)

        plastic = np.flatnonzero(split.has_direction & ~below)
        rows, cols = k[plastic], j[plastic]
        delta_eps[rows, cols], settled[rows, cols] = _reversal_ranges(
            params, _Decomposition(*(part[plastic] for part in split)), n_stars[rows], n_cycles)
    return delta_eps, settled


#: Distinct unit tensors per :func:`settled_delta_eps` call of
#: :func:`criterion_rows`; bounds the stacked ``_decompose`` of the open
#: cells (at most chunk x levels x samples x 6) and the end-sample projection.
CRITERION_CHUNK = 32


def criterion_rows(params: ChabocheParams, tensors, levels, samples: int, n_cycles: int):
    """Criterion strain ranges of a (k, 6) stack of distinct unit tensors at ascending ``levels``.

    Returns ``(rows, errors)``: the (k, levels) ranges, each equal to the cell
    chain of :func:`settled_delta_eps` bit for bit, and ``{row: first
    exception}`` of the failed tensors.  Chunks of :data:`CRITERION_CHUNK`
    tensors go through :func:`settled_delta_eps`; its open cells take the chain.
    """
    n_stars, errors = critical_directions(tensors)  # errors: tensor -> its first exception
    rows = np.empty((len(tensors), len(levels)))
    for start in range(0, len(tensors), CRITERION_CHUNK):
        chunk = slice(start, start + CRITERION_CHUNK)
        rows[chunk], settled = settled_delta_eps(params, tensors[chunk], n_stars[chunk], levels, samples, n_cycles)
        for k, j in zip(*np.nonzero(~settled)):  # per tensor, levels ascending
            if start + k in errors:
                continue
            try:
                history = cosine_cycle(tensors[start + k], amplitude=levels[j], samples=samples)
                _, strain = neuber_correct(params, history, n_cycles=n_cycles)
                rows[start + k, j] = criterion_delta_eps(strain, n_stars[start + k])
            except Exception as exc:  # noqa: BLE001
                errors[start + k] = exc
    return rows, errors
