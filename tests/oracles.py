"""Independent oracles used by the test suite.

Everything here re-derives expected values through a different route than
the library: explicit rate integration instead of return mapping, scalar
incremental cycling instead of the analytic hysteresis branch, one
eigensolve per tensor and one Neuber correction per criterion cell instead
of the stacked eigensolve and the certified elastic cells (the direction
takes its own `eigh`, norm and tie rule for each tensor, the corrector is a
copy of the library's that looks the material's constants up in every
residual call), one loop iteration per pore shell instead of the array
synthesis, survival products instead of the closed-form structure scale,
line-by-line parsers and per-cell writers instead of the column-wise file
I/O, one Python loop per Monte Carlo pool (spawn, draw, append) instead of
the shared pooled draw, and a Nelder-Mead that keeps its simplex as Python
lists and draws each start's jitter on its own instead of the simplex array
and the one jitter matrix.  The likelihood kernel's evaluation is also kept
as the chain it replaced, with a checked inverse and a new array per step
instead of the rows' own buffers.  The helpers that only the tests use
live here too: tensor rotation and the matrix-to-voigt map, the strain-life
curve and the Weibull CDF in closed form, the field of a synthesis without
its report, the scalar log-likelihood terms and the observations writer.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from porelife import voigt
from porelife.field import (
    DEFAULT_SHELLS,
    FIELD_HEADER,
    SHELL_EXTENT,
    TABLE_HEADER,
    CriterionError,
    CriterionTable,
    ElasticElementField,
    FieldFormatError,
    FieldGenerationError,
    PoreFieldStats,
    _sample_radii_mm,
    cavity_peak_kt,
    synth_field_report,
)
from porelife.material_point import (
    DEFAULT_CYCLE_SAMPLES,
    DEFAULT_STABILIZATION_CYCLES,
    ChabocheParams,
    CorrectionError,
    TensorHistory,
    _below_yield,
    _cosine_wave,
    _decompose,
    _proportional_decomposition,
    cosine_cycle,
    criterion_delta_eps,
)
from porelife.likelihood import LOG_FLOOR, OBSERVATIONS_HEADER, ObservationArrays
from porelife.optimize import (
    DEFAULT_BUDGET,
    DEFAULT_STARTS,
    CalibrationProblem,
    CalibrationResult,
    NelderMeadResult,
    _from_internal,
    _to_internal,
)
from porelife.strain_life import StrainLifeParams, _density, _survival
from porelife.weakest_link import sample_lifetimes


# ---------------------------------------------------------------------------
# Explicit forward-Euler integration of the constitutive rates
# ---------------------------------------------------------------------------

def tensor_forward_euler(params: ChabocheParams, eps_path, substeps: int = 10_000):
    """Integrate the hardening-model rate equations along a dense strain path.

    ``eps_path`` is an (n, 6) array of strain waypoints; each segment is cut
    into equal sub-increments and the plastic multiplier follows from the
    consistency condition on the rates.  Returns (stress, eps_p, X, p) at
    the end of the path.
    """
    eps_path = np.asarray(eps_path, dtype=float)
    g2 = 2.0 * params.shear_modulus
    eps = eps_path[0] * 0.0
    eps_p = np.zeros(6)
    x_back = np.zeros(6)
    p = 0.0
    per_segment = max(1, substeps // max(1, len(eps_path) - 1))
    waypoints = [eps] + [eps_path[i] for i in range(len(eps_path))]
    stress = np.zeros(6)
    for seg in range(len(waypoints) - 1):
        d_eps = (waypoints[seg + 1] - waypoints[seg]) / per_segment
        for _ in range(per_segment):
            eps = eps + d_eps
            stress = voigt.elastic_stress(eps - eps_p, params.E, params.nu)
            xi = voigt.deviator(stress) - x_back
            j = math.sqrt(1.5 * voigt.contract(xi, xi))
            f = j - params.sigma_y - params.isotropic_stress(p)
            if f <= 0.0 or j == 0.0:
                continue
            n_dir = 1.5 * xi / j
            hard = (
                3.0 * params.shear_modulus
                + params.C_kin
                - params.D * voigt.contract(x_back, n_dir)
                + params.Q * params.b * math.exp(-params.b * p)
            )
            dp = g2 * voigt.contract(n_dir, voigt.deviator(d_eps)) / hard
            if dp <= 0.0:
                continue
            flow = dp * n_dir
            eps_p = eps_p + flow
            x_back = x_back + (2.0 / 3.0) * params.C_kin * flow - params.D * x_back * dp
            p += dp
            stress = voigt.elastic_stress(eps - eps_p, params.E, params.nu)
    return stress, eps_p, x_back, p


def scalar_uniaxial_forward_euler(
    params: ChabocheParams,
    axial_strain_path,
    substeps: int = 10_000,
    waypoint_stress: bool = False,
):
    """Uniaxial-stress explicit integration: returns final (sigma, p).

    The uniaxial reduction of the model: trial d_sigma = E d_eps, yield at
    |sigma - X| = sigma_y + R(p), flow rate from the scalar consistency
    condition.  With ``waypoint_stress`` the return is (sigma, p, history),
    where ``history`` holds the axial stress reached at each waypoint of the
    path.
    """
    path = np.asarray(axial_strain_path, dtype=float)
    sigma = 0.0
    x_back = 0.0
    p = 0.0
    eps = 0.0
    per_segment = max(1, substeps // max(1, len(path)))
    waypoints = np.concatenate([[0.0], path])
    history = np.empty(len(path))
    for seg in range(len(waypoints) - 1):
        d_eps = (waypoints[seg + 1] - waypoints[seg]) / per_segment
        for _ in range(per_segment):
            eps += d_eps
            sigma_trial = sigma + params.E * d_eps
            r_iso = params.isotropic_stress(p)
            f = abs(sigma_trial - x_back) - params.sigma_y - r_iso
            if f <= 0.0:
                sigma = sigma_trial
                continue
            sgn = math.copysign(1.0, sigma_trial - x_back)
            hard = (
                params.E
                + params.C_kin
                - params.D * x_back * sgn
                + params.Q * params.b * math.exp(-params.b * p)
            )
            dp = sgn * params.E * d_eps / hard
            if dp <= 0.0:
                sigma = sigma_trial
                continue
            sigma = sigma_trial - params.E * dp * sgn
            x_back += params.C_kin * dp * sgn - params.D * x_back * dp
            p += dp
        history[seg] = sigma
    if waypoint_stress:
        return sigma, p, history
    return sigma, p


# ---------------------------------------------------------------------------
# The critical direction of one tensor at a time
# ---------------------------------------------------------------------------

def from_matrix(m):
    """The voigt 6-vector(s) of symmetric 3x3 matrices, each shear the mean of its two entries."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], 0.5 * (m[..., 0, 1] + m[..., 1, 0]),
                     0.5 * (m[..., 1, 2] + m[..., 2, 1]), 0.5 * (m[..., 0, 2] + m[..., 2, 0])], axis=-1)


def rotate(t, rotation):
    """Return R . T . R^T of each tensor in voigt form."""
    m = voigt.to_matrix(t)
    r = np.asarray(rotation, dtype=float)
    return from_matrix(r @ m @ r.T)


def scalar_critical_direction(sigma) -> np.ndarray:
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
    """:func:`scalar_critical_direction` of one tensor from its ascending eigenpairs and finite norm."""
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


# ---------------------------------------------------------------------------
# Scalar incremental cycling for the corrector reference
# ---------------------------------------------------------------------------

def _scalar_stress_step(params: ChabocheParams, ep, x_back, p, sigma):
    """Backward-Euler stress-driven update of the scalar hardening model."""
    f = abs(sigma - x_back) - params.sigma_y - params.isotropic_stress(p)
    if f <= 0.0:
        return ep, x_back, p
    sgn = math.copysign(1.0, sigma - x_back)

    def residual(dp):
        x_new = (x_back + params.C_kin * dp * sgn) / (1.0 + params.D * dp)
        return sgn * (sigma - x_new) - params.sigma_y - params.isotropic_stress(p + dp)

    lo, hi = 0.0, f / params.C_kin if params.C_kin > 0 else f / params.E
    for _ in range(200):
        if residual(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("stress-driven scalar step could not bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    dp = 0.5 * (lo + hi)
    x_new = (x_back + params.C_kin * dp * sgn) / (1.0 + params.D * dp)
    return ep + dp * sgn, x_new, p + dp


def scalar_stress_cycles(params: ChabocheParams, amplitudes, n_cycles: int):
    """Drive the scalar model through n_cycles of a signed stress wave.

    Returns (plastic_strain_history, p) for the final cycle.
    """
    ep, x_back, p = 0.0, 0.0, 0.0
    n = len(amplitudes)
    ep_hist = np.empty(n)
    for cycle in range(n_cycles):
        for i in range(n):
            ep, x_back, p = _scalar_stress_step(params, ep, x_back, p, amplitudes[i])
            ep_hist[i] = ep
    return ep_hist, p


def neuber_reference(params: ChabocheParams, elastic_history: TensorHistory, n_cycles: int = 20):
    """Independent reference for the fast plastic correction.

    The local direction and the conserved stress-strain product are shared
    contracts; everything else (hysteresis shape, hardening evolution) comes
    from incremental integration of the model.  The corrected equivalent
    stress range solves  range * integrated_strain_range(range) = product
    by secant iteration, with each evaluation a full n_cycles stress-driven
    integration.  Returns the critical-plane strain range of the stabilized
    cycle.
    """
    direction, amp = _proportional_decomposition(elastic_history.values)
    if direction is None:
        return 0.0
    n_star = scalar_critical_direction(direction)
    peak = float(np.max(np.abs(amp)))
    if peak <= params.sigma_y:
        strain = voigt.elastic_strain(elastic_history.values, params.E, params.nu)
        return criterion_delta_eps(
            TensorHistory(times=elastic_history.times, values=strain), n_star
        )
    span = float(np.max(amp) - np.min(amp))
    product = span * span / params.E
    shape = np.asarray(amp) / span  # signed wave normalized to unit range

    def strain_range(rng_eq: float):
        ep_hist, _ = scalar_stress_cycles(params, shape * rng_eq, n_cycles)
        sig_hist = shape * rng_eq
        eps_eq = sig_hist / params.E + ep_hist
        return float(np.max(eps_eq) - np.min(eps_eq)), sig_hist, ep_hist

    r0 = span
    d0 = strain_range(r0)[0]
    f0 = r0 * d0 - product
    r1 = product / d0
    best = (abs(f0), r0)
    for _ in range(40):
        d1 = strain_range(r1)[0]
        f1 = r1 * d1 - product
        if abs(f1) < best[0]:
            best = (abs(f1), r1)
        if abs(f1) < 1e-9 * product:
            break
        if f1 == f0:
            break
        r2 = r1 - f1 * (r1 - r0) / (f1 - f0)
        r0, f0 = r1, f1
        r1 = min(max(r2, 0.05 * span), 1.5 * span)
    _, sig_hist, ep_hist = strain_range(best[1])

    elastic_dir = voigt.elastic_strain(direction, params.E, params.nu)
    plastic_dir = 1.5 * voigt.deviator(direction)
    strain_vals = np.outer(sig_hist, elastic_dir) + np.outer(ep_hist, plastic_dir)
    return criterion_delta_eps(
        TensorHistory(times=elastic_history.times, values=strain_vals), n_star
    )


# ---------------------------------------------------------------------------
# The scalar Neuber corrector with residuals that look their constants up,
# and the elastic cells masked by decomposing every history
# ---------------------------------------------------------------------------

def _branch_stress_range(params: ChabocheParams, dep: float, r_stab: float) -> float:
    """Stress range of the stabilized uniaxial hysteresis branch."""
    kin = 2.0 * params.C_kin / params.D * math.tanh(0.5 * params.D * dep) if params.D > 0 else params.C_kin * dep
    return 2.0 * (params.sigma_y + r_stab) + kin


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
        if hi - lo <= rel_tol * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def _solve_branch_neuber(params: ChabocheParams, product: float, r_stab: float, dep_hi: float) -> tuple[float, float]:
    """Solve range * strain-range = product on the cyclic branch curve.

    Returns (stress range, plastic strain range).  Elastic whenever the
    elastic solution stays within the doubled yield surface.
    """
    elastic_range = math.sqrt(product * params.E)
    if elastic_range <= 2.0 * (params.sigma_y + r_stab):
        return elastic_range, 0.0

    def residual(dep):
        rng = _branch_stress_range(params, dep, r_stab)
        return rng * (rng / params.E + dep) - product

    dep = _bisect(residual, max(dep_hi, 1e-12), 1e-14, "scalar Neuber solve")
    return _branch_stress_range(params, dep, r_stab), dep


def _on_descending_branch(i: int, idx_top: int, idx_bot: int, n: int) -> bool:
    """Whether sample i sits on the branch leaving the maximum reversal."""
    if idx_top < idx_bot:
        return idx_top <= i < idx_bot
    return not (idx_bot <= i < idx_top)


def scalar_neuber_correct(
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
    span = a_max - a_min
    product_loop = span * span / params.E

    # stabilized-loop solve: the isotropic stress is coupled to the plastic
    # range through the cumulative plastic strain accumulated over n_cycles
    # (p grows by twice the plastic range per cycle); the coupled residual is
    # monotone in the plastic range, so one bisection settles it
    def loop_residual(dep):
        r_s = params.isotropic_stress(2.0 * n_cycles * dep)
        rng = _branch_stress_range(params, dep, r_s)
        return rng * (rng / params.E + dep) - product_loop

    if loop_residual(0.0) >= 0.0:
        dep_loop = 0.0
    else:
        dep_loop = _bisect(loop_residual, span / params.E, 1e-16, "stabilized-loop solve")
    r_stab = params.isotropic_stress(2.0 * n_cycles * dep_loop)
    rng_loop, dep_loop = _solve_branch_neuber(params, product_loop, r_stab, max(dep_loop, span / params.E))

    # reversal anchors; means scale with the corrected/elastic range ratio
    mean_a = 0.5 * (a_max + a_min)
    sig_top = mean_a * rng_loop / span + 0.5 * rng_loop
    dep_top = mean_a * dep_loop / span + 0.5 * dep_loop

    idx_top = int(np.argmax(amp))
    idx_bot = int(np.argmin(amp))

    sig_scalar = np.empty(len(amp))
    dep_scalar = np.empty(len(amp))
    for i, a in enumerate(amp):
        descending = _on_descending_branch(i, idx_top, idx_bot, len(amp))
        origin = a_max if descending else a_min
        span_t = abs(a - origin)
        rng_t, dep_t = _solve_branch_neuber(params, span_t * span_t / params.E, r_stab, dep_loop)
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


def decompose_elastic_delta_eps(params: ChabocheParams, tensors, n_stars, levels, samples: int = DEFAULT_CYCLE_SAMPLES):
    """The elastic cells of ``settled_delta_eps``, all samples projected, with the mask from the stacked ``_decompose`` of every cell.

    Returns ``(delta_eps, elastic)``, both (k, j): the elastic-chain strain
    ranges of the (k, 6) ``tensors`` along their (k, 3) ``n_stars`` at the
    (j,) ``levels``, and whether each cell's history has a direction and
    stays within the yield stress.
    """
    _, wave = _cosine_wave(np.asarray(levels, dtype=float), samples)
    with np.errstate(over="ignore", invalid="ignore"):  # only in cells that are not elastic
        values = wave[None, :, :, None] * np.asarray(tensors, dtype=float)[:, None, None, :]
        split = _decompose(values)
        elastic = split.has_direction & _below_yield(params, split.amp)
        strain = voigt.elastic_strain(values, params.E, params.nu)
        projected = voigt.normal_projection(strain, np.asarray(n_stars, dtype=float)[:, None, None, :])
        return np.max(projected, axis=-1) - np.min(projected, axis=-1), elastic


def cell_criterion_table(
    field: ElasticElementField,
    mat: ChabocheParams,
    load_levels,
    cycles: int = DEFAULT_STABILIZATION_CYCLES,
    samples: int = DEFAULT_CYCLE_SAMPLES,
    failures: list | None = None,
) -> CriterionTable:
    """Criterion table built one (element, level) cell at a time.

    Every cell of a distinct unit tensor goes through cosine_cycle,
    scalar_neuber_correct and criterion_delta_eps, elastic or not; a failing
    element stops at its first exception (direction, then levels ascending),
    and an element whose strain range falls as the load rises fails too.
    When every element fails, the first one's error is raised.
    """
    levels = np.asarray(load_levels, dtype=float)
    cache: dict = {}
    rows = []
    kept = []
    first_failure = None
    for i in range(field.n_elements):
        tensor = field.sigma_unit[i]
        key = tensor.tobytes()
        try:
            row = cache.get(key)
            if row is None:
                n_star = scalar_critical_direction(tensor)
                row = np.empty(levels.size)
                for j, level in enumerate(levels):
                    history = cosine_cycle(tensor, amplitude=level, samples=samples)
                    _, strain = scalar_neuber_correct(mat, history, n_cycles=cycles)
                    row[j] = criterion_delta_eps(strain, n_star)
                if any(later - earlier < -1e-15 for earlier, later in zip(row[:-1], row[1:])):
                    raise ValueError("strain range falls as the load rises")
                cache[key] = row
        except Exception as exc:  # noqa: BLE001 - annotated and optionally collected
            err = CriterionError(int(field.ids[i]), exc)
            if failures is None:
                raise err from exc
            failures.append((int(field.ids[i]), err))
            first_failure = first_failure or err
            continue
        rows.append(row)
        kept.append(i)
    if not rows:
        raise CriterionError(first_failure.element_id, first_failure.cause) from first_failure.cause
    kept = np.array(kept)
    return CriterionTable(
        element_ids=field.ids[kept],
        volumes=field.volumes[kept],
        load_levels=levels,
        delta_eps=np.vstack(rows),
        geometry_tag=field.geometry_tag,
    )


# ---------------------------------------------------------------------------
# Pore-field synthesis one shell at a time
# ---------------------------------------------------------------------------

def synth_field(stats: PoreFieldStats, seed=0, n_pores: int | None = None) -> ElasticElementField:
    """The field of :func:`porelife.field.synth_field_report`, without its report."""
    return synth_field_report(stats, seed=seed, n_pores=n_pores)[0]


def loop_synth_field_report(
    stats: PoreFieldStats,
    resolution: int = DEFAULT_SHELLS,
    seed=0,
    nu: float = 0.3,
    n_pores: int | None = None,
) -> tuple[ElasticElementField, dict]:
    """Synthetic porous field built pore by pore and shell by shell.

    Same recipe and random draws as ``synth_field_report``; each shell's
    volume, stress concentration and surface boost is appended in a Python
    loop, and the shell volumes are summed pore by pore.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    rng = np.random.default_rng(seed)
    gauge_volume = stats.gauge_volume
    if n_pores is None:
        count = int(rng.poisson(stats.pore_density * gauge_volume))
    elif n_pores < 0:
        raise ValueError(f"n_pores must be nonnegative, got {n_pores}")
    else:
        count = int(n_pores)
    kt_peak = cavity_peak_kt(nu)

    ids = [0]
    volumes = [gauge_volume]
    tensors = [voigt.UNIAXIAL_X.copy()]
    surface_breaking = 0
    if count > 0:
        radii = _sample_radii_mm(stats, count, rng)
        # uniform centers in the cylinder; only the radial coordinate matters
        # for the lateral surface-breaking classification
        radial = stats.gauge_radius_mm * np.sqrt(rng.random(count))
        is_surface = radial > stats.gauge_radius_mm - radii
        surface_breaking = int(np.sum(is_surface))
        ratio = SHELL_EXTENT ** (np.arange(resolution + 1) / resolution)
        kt_shells = 1.0 + (kt_peak - 1.0) * ratio[:-1] ** -3
        next_id = 1
        shell_total = 0.0
        for a, surf in zip(radii, is_surface):
            bounds = a * ratio
            shell_vols = 4.0 / 3.0 * math.pi * (bounds[1:] ** 3 - bounds[:-1] ** 3)
            shell_total += float(np.sum(shell_vols))
            for k in range(resolution):
                kt = kt_shells[k]
                if surf and k == 0:
                    kt *= stats.surface_kt_boost
                ids.append(next_id)
                volumes.append(shell_vols[k])
                tensors.append(kt * voigt.UNIAXIAL_X)
                next_id += 1
        bulk = gauge_volume - shell_total
        if bulk <= 0.0:
            raise FieldGenerationError(
                f"shell volume {shell_total:.3f} mm^3 exceeds the gauge volume {gauge_volume:.3f} mm^3"
            )
        volumes[0] = bulk

    field = ElasticElementField(
        ids=np.array(ids),
        volumes=np.array(volumes),
        sigma_unit=np.array(tensors),
        geometry_tag=f"cylinder r={stats.gauge_radius_mm} L={stats.gauge_length_mm}",
        nominal_area_note="unit nominal amplitude = 1 MPa uniaxial along x",
    )
    info = {
        "seed": seed if isinstance(seed, int) else str(seed),
        "pore_count": count,
        "surface_breaking_count": surface_breaking,
        "gauge_volume_mm3": gauge_volume,
        "pore_volume_fraction": float(
            np.sum(4.0 / 3.0 * math.pi * radii**3) / gauge_volume
        )
        if count > 0
        else 0.0,
    }
    return field, info


# ---------------------------------------------------------------------------
# Weakest-link and distribution oracles
# ---------------------------------------------------------------------------

def failure_term(scale: float, shape: float, n_cycles: float) -> float:
    """log(density + floor) of one failure observation."""
    return math.log(_density(-shape * math.log(scale), shape, math.log(n_cycles)) + LOG_FLOOR)


def runout_term(scale: float, shape: float, runout_cycles: float) -> float:
    """log(survival + floor) of one run-out observation."""
    return math.log(_survival(-shape * math.log(scale), shape, math.log(runout_cycles)) + LOG_FLOOR)


def survival_product_cdf(element_scales, shape: float, cycles: float) -> float:
    """Structure failure probability as 1 - product of element survivals."""
    survival = 1.0
    for scale in element_scales:
        if math.isinf(scale):
            continue
        survival *= math.exp(-((cycles / scale) ** shape))
    return 1.0 - survival


def weibull_cdf(dist, cycles):
    """Failure probability -expm1(-(n/scale)^shape) of a lifetime by cycle count(s) n; 0 at infinite scale."""
    out = -np.expm1(-((np.asarray(cycles, dtype=float) / dist.scale) ** dist.shape))
    return float(out) if np.isscalar(cycles) else out


def strain_amplitude(params, cycles):
    """The strain-life curve A n^-alpha + B n^-beta + C at cycle count(s) n."""
    n = np.asarray(cycles, dtype=float)
    out = params.A * n ** -params.alpha + params.B * n ** -params.beta + params.C
    return float(out) if np.isscalar(cycles) else out


def _oracle_cycles(params, eps_amp: float) -> float:
    """Strain-life inverse by Brent's method in ln N; infinite at or below C."""
    from scipy.optimize import brentq

    if eps_amp <= params.C:
        return math.inf
    log_n = brentq(
        lambda x: strain_amplitude(params, math.exp(x)) - eps_amp,
        -50.0, 300.0, xtol=1e-15, rtol=1e-15, maxiter=500,
    )
    return math.exp(log_n)


def survival_product_terms(params, amplitudes, volumes, n_cycles: float):
    """(density, survival) at ``n_cycles`` of a structure of Weibull elements.

    Each element gets its own scale N(eps_a) (V0 / (V ln 2))^(1/m) and its own
    ``scipy.stats.weibull_min``; the structure survives if every element
    does, so S = prod S_e and the density is S * sum_e pdf_e / S_e.  Elements
    at or below the fatigue limit never fail and are left out.
    """
    from scipy.stats import weibull_min

    m = params.m
    scales = np.array([
        _oracle_cycles(params, float(a)) * (params.V0 / (float(v) * math.log(2.0))) ** (1.0 / m)
        for a, v in zip(amplitudes, volumes)
    ])
    scales = scales[np.isfinite(scales)]
    if scales.size == 0:
        return 0.0, 1.0
    survival = float(np.prod(weibull_min.sf(n_cycles, m, scale=scales)))
    log_hazard = weibull_min.logpdf(n_cycles, m, scale=scales) - weibull_min.logsf(n_cycles, m, scale=scales)
    return survival * float(np.sum(np.exp(log_hazard))), survival


def survival_product_loglik(params, observations, structures, runout_cycles: float, floor: float = 1e-10) -> float:
    """Censored log-likelihood from per-element survival products.

    ``structures[i]`` lists the (strain amplitudes, volumes) of every
    realization row ``i`` of the :class:`ObservationArrays` is scored
    against; its term is the log of the mean density (failure) or survival
    at the cap (run-out) over them, plus the floor, times the row's count.
    """
    total = 0.0
    rows = zip(observations.n_cycles.tolist(), observations.censored.tolist(), observations.count.tolist())
    for (n_cycles, censored, count), realizations in zip(rows, structures, strict=True):
        values = []
        for amplitudes, volumes in realizations:
            n = runout_cycles if censored else n_cycles
            density, survival = survival_product_terms(params, amplitudes, volumes, n)
            values.append(survival if censored else density)
        total += count * math.log(sum(values) / len(values) + floor)
    return total


def _chain_hazard(log_rate, shape, log_n):
    log_t = shape * log_n + log_rate
    return log_t, np.exp(np.minimum(log_t, 700.0))


def _chain_density(log_rate, shape, log_n):
    log_t, t = _chain_hazard(log_rate, shape, log_n)
    log_pdf = log_t - t - log_n + math.log(shape)
    return np.where(t >= 700.0, 0.0, np.exp(np.maximum(log_pdf, -700.0)))


def _chain_survival(log_rate, shape, log_n):
    return np.exp(-_chain_hazard(log_rate, shape, log_n)[1])


def chain_objective(kernel, params) -> float:
    """The value of a likelihood kernel at ``params``, by the evaluation chain it replaced.

    Reads the kernel's segments and rows as built, then evaluates them with
    the checked public inverse and a new array at every step.
    """
    from porelife.strain_life import cycles_to_failure
    from porelife.weakest_link import _log_sum_exp

    segments, total = kernel.segments, 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = segments.bin_log_volume - params.m * np.log(cycles_to_failure(params, segments.amplitudes))[
            segments.bin_amplitude]
        log_rate = _log_sum_exp(terms, segments.start, segments.bin_segment) + math.log(math.log(2.0) / params.V0)
        for rows, term in ((kernel.failures, _chain_density), (kernel.runouts, _chain_survival)):
            if rows is not None:
                values = term(log_rate[rows.segment], params.m, rows.log_n)
                if rows.first is not None:
                    values = np.add.reduceat(values, rows.first) / rows.size
                total += float(np.sum(rows.count * np.log(values + LOG_FLOOR)))
    return total


def table_amplitudes(table, sigma_a: float):
    """Per-element strain amplitudes of a criterion table, by np.interp per row."""
    return np.array([0.5 * np.interp(sigma_a, table.load_levels, row) for row in table.delta_eps]), table.volumes


# ---------------------------------------------------------------------------
# Line-by-line field, criterion-table and observations files
# ---------------------------------------------------------------------------

def cell_save_field(path, field: ElasticElementField) -> None:
    """Field file written one formatted cell at a time, joined in memory."""
    lines = []
    if field.geometry_tag:
        lines.append(f"# geometry: {field.geometry_tag}")
    if field.nominal_area_note:
        lines.append(f"# note: {field.nominal_area_note}")
    lines.append(FIELD_HEADER)
    for i in range(field.n_elements):
        row = [str(int(field.ids[i])), repr(float(field.volumes[i]))]
        row += [repr(float(x)) for x in field.sigma_unit[i]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def line_load_field(path) -> ElasticElementField:
    """Field file parsed one line at a time with ``int``/``float``."""
    ids, volumes, tensors = [], [], []
    seen_ids = set()
    geometry_tag = ""
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    continue
                if line.startswith("# geometry:"):
                    geometry_tag = line.split(":", 1)[1].strip()
                continue
            if not header_seen:
                if line != FIELD_HEADER:
                    raise FieldFormatError(path, line_no, f"expected header '{FIELD_HEADER}'")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise FieldFormatError(path, line_no, f"expected 8 columns, got {len(parts)}")
            try:
                eid = int(parts[0])
                vol = float(parts[1])
                tensor = [float(x) for x in parts[2:]]
            except ValueError as exc:
                raise FieldFormatError(path, line_no, str(exc)) from exc
            if not all(map(math.isfinite, (vol, *tensor))):
                raise FieldFormatError(path, line_no, f"non-finite value for element {eid}")
            if vol <= 0.0:
                raise FieldFormatError(path, line_no, f"nonpositive volume {vol} for element {eid}")
            if eid in seen_ids:
                raise FieldFormatError(path, line_no, f"duplicate element id {eid}")
            seen_ids.add(eid)
            ids.append(eid)
            volumes.append(vol)
            tensors.append(tensor)
    if not header_seen:
        raise FieldFormatError(path, 0, "missing header line")
    if not ids:
        raise FieldFormatError(path, 0, "field file has no element rows")
    return ElasticElementField(
        ids=np.array(ids),
        volumes=np.array(volumes),
        sigma_unit=np.array(tensors),
        geometry_tag=geometry_tag,
    )


def cell_save_criterion_table(path, table: CriterionTable, comments=()) -> None:
    """Criterion table written one formatted cell at a time, joined in memory."""
    lines = [f"# {c}" for c in comments]
    if table.geometry_tag:
        lines.append(f"# geometry: {table.geometry_tag}")
    lines.append(TABLE_HEADER)
    for i in range(table.element_ids.size):
        for j, level in enumerate(table.load_levels):
            lines.append(
                f"{int(table.element_ids[i])},{float(level)!r},"
                f"{float(table.delta_eps[i, j])!r},{float(table.volumes[i])!r}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def line_load_criterion_table(path) -> CriterionTable:
    """Criterion table parsed one line at a time into a dict per element.

    It predates the repeated-pair and volume-mismatch checks: a repeated
    (element, level) row overwrites the earlier one, and an element's later
    volumes are ignored.
    """
    per_element: dict[int, dict] = {}
    geometry_tag = ""
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# geometry:") and not header_seen:
                    geometry_tag = line.split(":", 1)[1].strip()
                continue
            if not header_seen:
                if line != TABLE_HEADER:
                    raise FieldFormatError(path, line_no, f"expected header '{TABLE_HEADER}'")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FieldFormatError(path, line_no, f"expected 4 columns, got {len(parts)}")
            try:
                eid = int(parts[0])
                level = float(parts[1])
                value = float(parts[2])
                vol = float(parts[3])
            except ValueError as exc:
                raise FieldFormatError(path, line_no, str(exc)) from exc
            if not (math.isfinite(level) and math.isfinite(value) and math.isfinite(vol)):
                raise FieldFormatError(path, line_no, f"non-finite value for element {eid}")
            entry = per_element.setdefault(eid, {"volume": vol, "levels": {}})
            entry["levels"][level] = value
    if not per_element:
        raise FieldFormatError(path, 0, "criterion table has no rows")
    eids = sorted(per_element)
    level_sets = {tuple(sorted(per_element[e]["levels"])) for e in eids}
    if len(level_sets) != 1:
        raise FieldFormatError(path, 0, "elements carry inconsistent load-level grids")
    levels = np.array(next(iter(level_sets)))
    delta = np.array([[per_element[e]["levels"][lv] for lv in levels] for e in eids])
    return CriterionTable(
        element_ids=np.array(eids),
        volumes=np.array([per_element[e]["volume"] for e in eids]),
        load_levels=levels,
        delta_eps=delta,
        geometry_tag=geometry_tag,
    )


def line_load_observations(path) -> tuple[list, list, list]:
    """Observations file parsed one line at a time with ``float`` and a literal ``0``/``1`` flag: its columns.

    A row's flag is checked before its amplitude and cycles are converted,
    and both are converted before either is checked to be positive and finite.
    """
    columns = ([], [], [])
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != OBSERVATIONS_HEADER:
                    raise FieldFormatError(path, line_no, f"expected header '{OBSERVATIONS_HEADER}'")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FieldFormatError(path, line_no, f"expected 3 columns, got {len(parts)}")
            flag = parts[2].strip()
            if flag not in ("0", "1"):
                raise FieldFormatError(path, line_no, f"censored must be 0 or 1, got {flag!r}")
            try:
                values = [float(cell) for cell in parts[:2]]
            except ValueError as exc:
                raise FieldFormatError(path, line_no, str(exc)) from exc
            for name, value in zip(("sigma_a", "n_cycles"), values):
                if not (math.isfinite(value) and value > 0.0):
                    raise FieldFormatError(path, line_no, f"{name} must be positive and finite, got {value}")
            for column, value in zip(columns, [*values, flag == "1"]):
                column.append(value)
    if not columns[0]:
        raise ValueError(f"{path}: no observations found")
    return columns


def from_rows(rows) -> ObservationArrays:
    """Observations from ``(sigma_a, n_cycles, censored)`` rows, each counting one."""
    return ObservationArrays(*zip(*rows))


def save_observations(path, observations: ObservationArrays) -> None:
    """Write an observations file with one line per observation: a row that counts ``k`` is written ``k`` times."""
    lines = [OBSERVATIONS_HEADER]
    columns = (np.repeat(column, observations.count).tolist()
               for column in (observations.sigma_a, observations.n_cycles, observations.censored))
    for sigma_a, n_cycles, censored in zip(*columns):
        lines.append(f"{sigma_a!r},{n_cycles!r},{int(censored)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Monte Carlo pools built one structure at a time
# ---------------------------------------------------------------------------

def loop_pooled_draws(structs, samples_per_struct: int, seed, runout_cycles: float):
    """Draws of each structure from its own child of ``SeedSequence(seed)``, appended in a loop."""
    pools, flags = [], []
    children = np.random.SeedSequence(seed).spawn(len(structs))
    for struct, child in zip(structs, children):
        values, censored = sample_lifetimes(struct, samples_per_struct, child, runout_cycles)
        pools.append(values)
        flags.append(censored)
    return np.concatenate(pools), np.concatenate(flags)


def loop_wohler_quantiles(structs_per_level, quantiles, samples_per_struct: int, seed, runout_cycles: float):
    """Quantile table with one pool per level, seeded by spawn key ``(level index,)``."""
    root = np.random.SeedSequence(seed)
    table = {}
    for li, level in enumerate(list(structs_per_level)):
        structs = list(structs_per_level[level])
        level_seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=(li,))
        child_seeds = level_seq.spawn(len(structs))
        pools, flags = [], []
        for struct, child in zip(structs, child_seeds):
            values, censored = sample_lifetimes(struct, samples_per_struct, child, runout_cycles)
            pools.append(values)
            flags.append(censored)
        pool = np.concatenate(pools)
        table[level] = {
            "quantiles": {q: float(np.quantile(pool, q)) for q in quantiles},
            "censored_fraction": float(np.mean(np.concatenate(flags))),
        }
    return table


def loop_synthesize_observations(structs_by_table, levels, samples_per_struct: int, seed, runout_cycles: float):
    """(sigma_a, n_cycles, censored) columns drawn table by table, level by level.

    ``structs_by_table[t][l]`` is the structure of table ``t`` at ``levels[l]``.
    """
    children = iter(np.random.SeedSequence(seed).spawn(len(structs_by_table) * len(levels)))
    sigma_a, n_cycles, censored = [], [], []
    for structs in structs_by_table:
        for level, struct in zip(levels, structs):
            values, flags = sample_lifetimes(struct, samples_per_struct, next(children), runout_cycles)
            sigma_a.append(np.full(values.size, level, dtype=float))
            n_cycles.append(np.minimum(values, runout_cycles))
            censored.append(flags)
    return np.concatenate(sigma_a), np.concatenate(n_cycles), np.concatenate(censored)


def aggregate_runouts(sigma_a, n_cycles, censored, samples_per_struct: int):
    """(sigma_a, n_cycles, censored, count) columns with each structure's run-outs folded into one row.

    The draws come in blocks of ``samples_per_struct``, one block per
    structure.  A block's failures keep their order and count 1 each; its
    run-outs, if any, follow as one row that counts them.
    """
    rows = []
    for start in range(0, len(sigma_a), samples_per_struct):
        block = range(start, start + samples_per_struct)
        rows += [(sigma_a[i], n_cycles[i], False, 1) for i in block if not censored[i]]
        runouts = [i for i in block if censored[i]]
        if runouts:
            rows.append((sigma_a[runouts[0]], n_cycles[runouts[0]], True, len(runouts)))
    columns = list(zip(*rows))
    return tuple(np.array(column, dtype=dtype) for column, dtype in zip(columns, (float, float, bool, np.int64)))


# ---------------------------------------------------------------------------
# Nelder-Mead with the simplex kept as Python lists
# ---------------------------------------------------------------------------

def list_nelder_mead(
    f: Callable[[np.ndarray], float],
    x0,
    budget: int = DEFAULT_BUDGET,
) -> NelderMeadResult:
    """Maximize f by the simplex method; returns the best vertex and trace.

    Standard coefficients (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5); the initial simplex perturbs each coordinate by 5 %
    (absolute 0.05 at zero coordinates).  Stops on the iteration budget or
    when the simplex function spread falls below 1e-9 while the
    vertex spread is also small (equal values at symmetric vertices must not
    stop a fresh simplex).  NaN values rank as -inf, never best.  The trace
    holds one ``(iteration, best_x, best_f)`` entry per iteration, and
    ``stop`` says which rule ended the run: ``"spread"`` or ``"budget"``.
    """
    objective, calls = f, []

    def f(x):
        calls.append(None)
        value = objective(x)
        return -math.inf if math.isnan(value) else value

    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if dim < 1:
        raise ValueError("need at least one free parameter")
    verts = [x0.copy()]
    for i in range(dim):
        x = x0.copy()
        x[i] += 0.05 * x[i] if x[i] != 0.0 else 0.05
        verts.append(x)
    vals = [f(v) for v in verts]

    trace = []
    iterations = 0
    stop = "budget"
    for iteration in range(budget):
        order = np.argsort(vals)[::-1]  # best first
        verts = [verts[i] for i in order]
        vals = [vals[i] for i in order]
        trace.append((iteration, verts[0].copy(), vals[0]))
        iterations = iteration + 1
        x_spread = max(float(np.max(np.abs(v - verts[0]))) for v in verts[1:])
        if vals[0] - vals[-1] < 1e-9 and x_spread < 1e-8:
            stop = "spread"
            break

        centroid = np.mean(verts[:-1], axis=0)
        reflected = centroid + (centroid - verts[-1])
        fr = f(reflected)
        if fr > vals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            fe = f(expanded)
            if fe > fr:
                verts[-1], vals[-1] = expanded, fe
            else:
                verts[-1], vals[-1] = reflected, fr
            continue
        if fr > vals[-2]:
            verts[-1], vals[-1] = reflected, fr
            continue
        if fr > vals[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid + 0.5 * (verts[-1] - centroid)
        fc = f(contracted)
        if fc > max(fr, vals[-1]):
            verts[-1], vals[-1] = contracted, fc
            continue
        for i in range(1, dim + 1):
            verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
            vals[i] = f(verts[i])

    order = np.argsort(vals)[::-1]
    best = order[0]
    return NelderMeadResult(x=verts[best].copy(), fun=vals[best], trace=trace, iterations=iterations,
                            evaluations=len(calls), stop=stop)


def list_calibrate(
    problem: CalibrationProblem,
    n_starts: int = DEFAULT_STARTS,
    seed=0,
) -> CalibrationResult:
    """Maximize the objective over the free parameters; best of all starts.

    Start 0 is the supplied initialization; the remaining starts jitter the
    free coordinates in the transformed space with deterministic Gaussian
    noise of standard deviation 0.25.  The winning start's per-iteration
    trace is returned as rows of ``(iteration, params_vector,
    log_likelihood)`` in untransformed units.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    free_idx = [i for i, b in enumerate(problem.free_mask) if b]
    pinned = problem.x0.as_vector()
    v0 = problem.x0.V0
    y0 = _to_internal(pinned, free_idx)

    def wrapped(y: np.ndarray) -> float:
        vec = _from_internal(y, free_idx, pinned)
        return problem.objective(StrainLifeParams.from_vector(vec, v0))

    rng = np.random.default_rng(seed)
    starts = [y0]
    for _ in range(n_starts - 1):
        starts.append(y0 + 0.25 * rng.standard_normal(y0.size))

    results = []
    for y_start in starts:
        results.append(list_nelder_mead(wrapped, y_start, budget=problem.budget))
    winner = max(results, key=lambda r: r.fun)

    trace = [
        (it, _from_internal(y, free_idx, pinned), val)
        for it, y, val in winner.trace
    ]
    best_vec = _from_internal(winner.x, free_idx, pinned)
    return CalibrationResult(
        params=StrainLifeParams.from_vector(best_vec, v0),
        log_likelihood=winner.fun,
        trace=trace,
        start_results=results,
    )
