"""Derivative-free calibration of the fatigue model.

A self-contained Nelder-Mead maximizer with a full per-iteration trace, and
calibration drivers that optimize in a log-transformed space so every
candidate parameter set is feasible by construction.  Parameters may be
pinned (e.g. B = beta = 0 for the one-line model); multi-start with
deterministic jitter mitigates initialization sensitivity.  The starts run
in forked processes, one per usable CPU, where the platform can fork.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .forks import fork_map
from .material import DEFAULT_BUDGET, DEFAULT_STARTS, PARAM_ORDER, StrainLifeParams, one_line_mask  # noqa: F401  (importable from here too)

#: Indices transformed as log(x + shift) because zero is a legal value.
_SHIFTED = (2, 4, 5)  # B, beta, C
_LOG_SHIFT = 1e-12
#: Clamp of internal coordinates: math.exp neither overflows nor reaches 0.
_MAX_LOG = 700.0


@dataclass(eq=False)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    trace: list
    iterations: int
    evaluations: int  # objective calls
    stop: str  # "spread" when the simplex converged, "budget" when the iterations ran out


def nelder_mead(
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
    objective, evaluations = f, 0

    def f(x):
        nonlocal evaluations
        evaluations += 1
        value = objective(x)
        return -math.inf if math.isnan(value) else value

    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if dim < 1:
        raise ValueError("need at least one free parameter")
    verts = np.tile(x0, (dim + 1, 1))
    verts[1:][np.diag_indices(dim)] += np.where(x0 != 0.0, 0.05 * x0, 0.05)  # row i + 1 steps coordinate i
    vals = np.fromiter(map(f, verts), dtype=float, count=dim + 1)

    trace, stop = [], "budget"
    for iteration in range(budget):
        order = np.argsort(vals)[::-1]  # best first
        verts, vals = verts[order], vals[order]
        trace.append((iteration, verts[0].copy(), float(vals[0])))
        # Python floats: -inf - -inf is NaN without a numpy warning
        if float(vals[0]) - float(vals[-1]) < 1e-9 and np.max(np.abs(verts[1:] - verts[0])) < 1e-8:
            stop = "spread"
            break

        centroid = np.mean(verts[:-1], axis=0)
        reflected = centroid + (centroid - verts[-1])
        fr = f(reflected)
        if fr > vals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            fe = f(expanded)
            verts[-1], vals[-1] = (expanded, fe) if fe > fr else (reflected, fr)
            continue
        if fr > vals[-2]:
            verts[-1], vals[-1] = reflected, fr
            continue
        contracted = centroid + 0.5 * ((reflected if fr > vals[-1] else verts[-1]) - centroid)
        fc = f(contracted)
        if fc > max(fr, vals[-1]):
            verts[-1], vals[-1] = contracted, fc
            continue
        verts[1:] = verts[0] + 0.5 * (verts[1:] - verts[0])
        for i in range(1, dim + 1):
            vals[i] = f(verts[i])

    best = np.argsort(vals)[-1]
    return NelderMeadResult(verts[best].copy(), float(vals[best]), trace, len(trace), evaluations, stop)


# ---------------------------------------------------------------------------
# Calibration over StrainLifeParams
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CalibrationProblem:
    """Objective plus parameterization of one calibration run.

    ``x0`` supplies both the starting point and the pinned values; the mask
    follows :data:`PARAM_ORDER`.  Pinning B and beta gives the one-line
    model; pinning C = 0 removes the fatigue limit.
    """

    objective: Callable[[StrainLifeParams], float]
    x0: StrainLifeParams
    free_mask: Sequence[bool] = (True,) * 6
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        self.free_mask = tuple(bool(b) for b in self.free_mask)
        if len(self.free_mask) != 6:
            raise ValueError("free_mask must cover the 6 model parameters")
        if not any(self.free_mask):
            raise ValueError("at least one parameter must be free")


def _to_internal(vec: np.ndarray, free_idx) -> np.ndarray:
    out = np.empty(len(free_idx))
    for j, i in enumerate(free_idx):
        if i in _SHIFTED:
            out[j] = math.log(vec[i] + _LOG_SHIFT)
        else:
            if vec[i] <= 0.0:
                raise ValueError(f"{PARAM_ORDER[i]} must be positive to be optimized, got {vec[i]}")
            out[j] = math.log(vec[i])
    return out


def _from_internal(y: np.ndarray, free_idx, pinned: np.ndarray) -> np.ndarray:
    vec = pinned.copy()
    for j, i in enumerate(free_idx):
        value = math.exp(min(max(y[j], -_MAX_LOG), _MAX_LOG))
        vec[i] = max(value - _LOG_SHIFT, 0.0) if i in _SHIFTED else value
    return vec


@dataclass(eq=False)
class CalibrationResult:
    params: StrainLifeParams
    log_likelihood: float
    trace: list
    start_results: list = field(repr=False, default_factory=list)


def calibrate(
    problem: CalibrationProblem,
    n_starts: int = DEFAULT_STARTS,
    seed=0,
) -> CalibrationResult:
    """Maximize the objective over the free parameters; best of all starts.

    Start 0 is the supplied initialization; the remaining starts jitter the
    free coordinates in the transformed space with deterministic Gaussian
    noise of standard deviation 0.25.  The winning start's per-iteration
    trace is returned as rows of ``(iteration, params_vector,
    log_likelihood)`` in untransformed units.  The starts run on up to
    ``min(n_starts, usable CPUs)`` processes (see :func:`porelife.forks.fork_map`); the
    result does not depend on how many.
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

    starts = y0[None, :]
    if n_starts > 1:  # importing numpy.random costs a process about 2 MB, which a single start need not pay
        jitter = np.random.default_rng(seed).standard_normal((n_starts - 1, y0.size))
        starts = np.vstack([y0, y0 + 0.25 * jitter])
    results = fork_map(lambda y_start: nelder_mead(wrapped, y_start, budget=problem.budget), starts)
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


def write_trace_csv(path, trace) -> None:
    """Emit the winning trace as CSV: iteration, parameters, log-likelihood."""
    lines = ["iteration," + ",".join(PARAM_ORDER) + ",log_likelihood"]
    for it, vec, val in trace:
        lines.append(f"{it}," + ",".join(repr(float(x)) for x in vec) + f",{float(val)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
