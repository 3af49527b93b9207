"""Censored log-likelihood of fatigue observations.

Three regimes share one kernel: homogeneous specimens (uniform elastic
stress in the gauge), heterogeneous specimens with a known per-element
criterion table, and specimens whose pore distribution is unknown, where the
likelihood marginalizes over a set of synthetic realizations by Monte Carlo
averaging of the per-realization densities.  Every structure enters as a
histogram of volume over distinct strain amplitudes, so a table can be
reduced to its histograms before the objective is built (:class:`ReducedTable`).
Run-outs contribute their survival probability at the test cap.  A small
floor inside every logarithm keeps the objective finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .field import CriterionTable, FieldFormatError, _check_rows, _read_rows, _row_dtype
from .material import ALSI7MG, CalibrationDegeneracyError
from .strain_life import StrainLifeParams, _density, _log_rates, _survival
from .weakest_link import DEFAULT_RUNOUT_CYCLES, StructureLifetime, _log_sum_exp

OBSERVATIONS_HEADER = "sigma_a_MPa,n_cycles,censored"

#: Floor added inside every log term.
LOG_FLOOR = 1e-10

#: Default Young's modulus for mapping stress amplitudes to strain on
#: homogeneous specimens (the cast Al-Si7Mg value).
DEFAULT_YOUNGS_MODULUS = ALSI7MG.E


def _positive_finite(name: str, values: np.ndarray):
    """The rows of an observation column that are not positive and finite, and the message for row ``i``."""
    bad = ~(np.isfinite(values) & (values > 0.0))
    return bad, lambda i: f"{name} must be positive and finite, got {float(values[i])}"


@dataclass(frozen=True, eq=False)
class ObservationArrays:
    """Fatigue observations as columns: amplitudes, cycles, run-out flags and counts.

    It is the one observation type: :func:`load_observations` returns it and
    every objective takes it.  Amplitudes and cycles must be positive and
    finite.  A row stands for ``count`` equal observations (default 1).
    """

    sigma_a: np.ndarray
    n_cycles: np.ndarray
    censored: np.ndarray
    count: np.ndarray | None = None

    def __post_init__(self):
        if self.count is None:
            object.__setattr__(self, "count", np.ones(np.shape(self.sigma_a), dtype=np.int64))
        for name, dtype in (("sigma_a", float), ("n_cycles", float), ("censored", bool), ("count", None)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        columns = (self.sigma_a, self.n_cycles, self.censored, self.count)
        if self.sigma_a.ndim != 1 or len({column.shape for column in columns}) > 1:
            raise ValueError("observation columns must be 1-D and of one length")
        if self.sigma_a.size == 0:
            raise ValueError("no observations")
        for bad, message in (_positive_finite("sigma_a", self.sigma_a), _positive_finite("n_cycles", self.n_cycles)):
            if bad.any():
                raise ValueError(message(int(np.argmax(bad))))
        counts = self.count.astype(float)
        bad = ~((counts >= 1.0) & (counts < 2.0**53) & (counts == np.floor(counts)))
        if bad.any():
            raise ValueError(f"count must be an integer in [1, 2**53), got {self.count[bad][0]}")
        object.__setattr__(self, "count", counts.astype(np.int64))

    def __len__(self) -> int:
        return int(self.sigma_a.size)


def ensure_failures(observations: ObservationArrays) -> None:
    """Raise unless some observation failed."""
    if observations.censored.all():
        raise CalibrationDegeneracyError(
            "all observations are run-outs; the likelihood is maximized by infinite life"
        )


def load_observations(path) -> ObservationArrays:
    """Parse an observations CSV (``sigma_a_MPa,n_cycles,censored``) with line-numbered errors."""
    _, header_line, rows = _read_rows(path, _row_dtype(OBSERVATIONS_HEADER, "censored"), {"censored": "censored must be 0 or 1"})
    if rows.size == 0:
        raise FieldFormatError(path, 0, "no observations found")
    sigma_a, n_cycles, flag = rows["sigma_a_MPa"], rows["n_cycles"], rows["censored"]
    _check_rows(path, header_line, [  # a row's flag first, then its columns as ObservationArrays checks them
        (~np.isin(flag, (0, 1)), lambda i: f"censored must be 0 or 1, got {flag[i]}"),
        _positive_finite("sigma_a", sigma_a),
        _positive_finite("n_cycles", n_cycles),
    ])
    return ObservationArrays(sigma_a, n_cycles, flag == 1)


# ---------------------------------------------------------------------------
# Specimen models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Homogeneous:
    """Uniformly stressed gauge volume; amplitude maps to strain by Hooke."""

    volume: float
    youngs_modulus: float = DEFAULT_YOUNGS_MODULUS

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0 for x in (self.volume, self.youngs_modulus)):
            raise ValueError("volume and modulus must be positive and finite")


@dataclass(frozen=True, eq=False)
class ReducedTable:
    """A criterion table reduced to its volume histograms at the amplitudes asked of it.

    It stands in for the table wherever the likelihood reads one, which is
    only through :func:`_histogram`, so a command can drop each table as
    soon as it is loaded.  ``histograms`` maps each amplitude to its
    histogram, or to the error computing it raised (an amplitude off the
    table's grid), kept without its traceback, whose frames hold the table;
    :func:`_histogram` raises it where that amplitude is asked for.  A histogram
    does not depend on the other amplitudes, so extra ones change no objective.
    """

    histograms: dict

    @classmethod
    def of(cls, table: CriterionTable, amplitudes) -> ReducedTable:
        histograms = {}
        for sigma_a in amplitudes:
            try:
                histograms[sigma_a] = _histogram(table, sigma_a)
            except Exception as exc:
                histograms[sigma_a] = exc.with_traceback(None)
        return cls(histograms)


def _histogram(structure: Homogeneous | CriterionTable | ReducedTable, sigma_a: float):
    """Distinct strain amplitudes of a structure at a load, and the volume at each."""
    if isinstance(structure, Homogeneous):
        return np.array([sigma_a / structure.youngs_modulus]), np.array([structure.volume])
    if isinstance(structure, ReducedTable):
        if isinstance(structure.histograms[sigma_a], Exception):
            raise structure.histograms[sigma_a]
        return structure.histograms[sigma_a]
    distinct, inverse = np.unique(0.5 * structure.interpolate(sigma_a), return_inverse=True)
    return distinct, np.bincount(inverse, weights=structure.volumes, minlength=distinct.size)


class _Segments:
    """Volume histograms of structures at given loads (segments).

    Elements at one strain amplitude share one Weibull scale, so a segment's
    weakest-link rate (see ``strain_life._log_rates``) needs only the volume
    at each distinct amplitude.
    """

    def __init__(self, histograms):
        sizes = [amps.size for amps, _ in histograms]
        self.amplitudes, self.bin_amplitude = np.unique(
            np.concatenate([amps for amps, _ in histograms]), return_inverse=True
        )
        if not np.all(self.amplitudes >= 0.0):  # checked here once, not by the inverse at every evaluation
            raise ValueError("strain amplitude must be nonnegative")
        self.bin_log_volume = np.log(np.concatenate([vols for _, vols in histograms]))
        self.start = np.cumsum([0] + sizes[:-1])
        self.bin_segment = np.repeat(np.arange(len(sizes)), sizes)

    def log_rates(self, params: StrainLifeParams) -> np.ndarray:
        """log Lambda per segment: one inversion, then a max-shifted log-sum-exp."""
        return _log_rates(
            params, self.amplitudes, self.bin_amplitude, self.bin_log_volume,
            lambda terms: _log_sum_exp(terms, self.start, self.bin_segment),
        )


def structure_for(params: StrainLifeParams, structure, sigma_a: float) -> StructureLifetime:
    """Weibull lifetime of a structure (a :class:`Homogeneous`, a table or its :class:`ReducedTable`) at an amplitude.

    A scale too large for a float raises ``ValueError``; an infinite life does not.
    """
    if not math.isfinite(sigma_a):
        raise ValueError(f"sigma_a must be finite, got {sigma_a}")
    if sigma_a <= 0.0:
        raise ValueError("sigma_a must be positive")
    if not isinstance(structure, (Homogeneous, CriterionTable, ReducedTable)):
        raise TypeError(f"unknown specimen model {type(structure).__name__}")
    with np.errstate(divide="ignore"):
        log_rate = _Segments([_histogram(structure, sigma_a)]).log_rates(params)[0]
    try:
        return StructureLifetime(scale=math.exp(-log_rate / params.m), shape=params.m)
    except OverflowError:
        raise ValueError(f"structure scale at sigma_a {sigma_a} MPa overflows a float") from None


# ---------------------------------------------------------------------------
# The censored-likelihood kernel behind every objective
# ---------------------------------------------------------------------------

class _Rows:
    """Distinct (segment group, cycles) rows with multiplicities, as (row, segment) pairs.

    A row's term is log(mean over its group + LOG_FLOOR) times its count.
    Every evaluation works in the rows' own buffers.
    """

    def __init__(self, row_group, count, cycles, groups):
        self.size = np.array([len(groups[g]) for g in row_group])
        self.segment = np.array([k for g in row_group for k in groups[g]], dtype=np.intp)
        self.log_n = np.repeat(np.log(cycles), self.size)
        self.count = count
        self.first = np.cumsum(self.size) - self.size if np.any(self.size > 1) else None
        self.scratch = (np.empty(self.segment.size), np.empty(self.segment.size))
        self.means = None if self.first is None else np.empty(self.first.size)

    def total(self, term, log_rate, shape) -> float:
        """Sum of the row terms of ``term`` (``_density`` or ``_survival``) at the segment log rates."""
        values = term(np.take(log_rate, self.segment, out=self.scratch[0], mode="clip"), shape, self.log_n, self.scratch)
        if self.first is not None:
            values = np.divide(np.add.reduceat(values, self.first, out=self.means), self.size, out=self.means)
        values = np.log(np.add(values, LOG_FLOOR, out=values), out=values)
        return float(np.sum(np.multiply(self.count, values, out=values)))


class _Kernel:
    """Censored log-likelihood of observation arrays over assigned structures.

    An observation's group is the segments (structure, amplitude) of its
    assigned structures (all when ``assignments`` is None) at its amplitude.
    Failures sharing group and cycles share a row; run-outs share one row per
    group.  Only the segment log rates depend on the parameters.
    """

    def __init__(self, obs: ObservationArrays, structures, assignments, runout_cycles):
        cycles, censored = obs.n_cycles, obs.censored
        amps, amp_index = np.unique(obs.sigma_a, return_inverse=True)
        if assignments is None:
            distinct = [tuple(range(len(structures)))]
            assigned = np.zeros(len(obs), dtype=np.intp)
        else:
            ids: dict[tuple, int] = {}
            assigned = np.array([ids.setdefault(a, len(ids)) for a in assignments], dtype=np.intp)
            distinct = list(ids)
        keys, obs_group = np.unique(assigned * amps.size + amp_index, return_inverse=True)
        segment_ids: dict[tuple, int] = {}
        groups = [
            [segment_ids.setdefault((k, key % amps.size), len(segment_ids)) for k in distinct[key // amps.size]]
            for key in keys
        ]
        self.segments = _Segments([_histogram(structures[k], amps[i]) for k, i in segment_ids])
        self.failures = self.runouts = None
        if not np.all(censored):  # weighted counts: exact sums of integers, as floats
            rows, row = np.unique(
                np.column_stack([obs_group[~censored], cycles[~censored]]), axis=0, return_inverse=True
            )
            count = np.bincount(row, weights=obs.count[~censored])
            self.failures = _Rows(rows[:, 0].astype(np.intp), count, rows[:, 1], groups)
        if np.any(censored):
            count = np.bincount(obs_group[censored], weights=obs.count[censored], minlength=len(groups))
            group = np.nonzero(count)[0]
            self.runouts = _Rows(group, count[group], np.full(group.size, runout_cycles), groups)

    def __call__(self, params: StrainLifeParams) -> float:
        total = 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_rate = self.segments.log_rates(params)
            for rows, term in ((self.failures, _density), (self.runouts, _survival)):
                if rows is not None:
                    total += rows.total(term, log_rate, params.m)
        return math.nan if math.isnan(total) else total  # a NaN's sign follows numpy's loop paths: return one NaN


def homogeneous_objective(
    observations: ObservationArrays,
    volume: float,
    youngs_modulus: float = DEFAULT_YOUNGS_MODULUS,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> Callable[[StrainLifeParams], float]:
    """Fast evaluator of the homogeneous-specimen log-likelihood.

    Each distinct amplitude is a one-element segment (sigma_a / E, volume).
    """
    return _Kernel(observations, [Homogeneous(volume, youngs_modulus)], None, runout_cycles)


def heterogeneous_objective(
    observations: ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> Callable[[StrainLifeParams], float]:
    """Fast evaluator for known-field specimens (one table per observation).

    A single table may be shared across all observations; segments are
    (table, amplitude) pairs, so a shared table is histogrammed once per level.
    """
    tables = [tables] if isinstance(tables, (CriterionTable, ReducedTable)) else list(tables)
    if len(tables) == 1:
        return _Kernel(observations, tables, None, runout_cycles)
    if len(tables) != len(observations):
        raise ValueError(f"{len(observations)} observations but {len(tables)} tables")
    structures = list({id(t): t for t in tables}.values())
    position = {id(t): k for k, t in enumerate(structures)}
    return _Kernel(observations, structures, [(position[id(t)],) for t in tables], runout_cycles)


def unknown_pores_objective(
    observations: ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
    assignments: Sequence[Sequence[int]] | None = None,
) -> Callable[[StrainLifeParams], float]:
    """Fast evaluator of the Monte Carlo marginalized log-likelihood.

    Per observation the density (or survival, for run-outs) is averaged over
    the assigned synthetic realizations before the log; ``assignments`` maps
    each observation to table indices and defaults to all tables for all
    observations.  The assignment is fixed, so the objective stays
    deterministic across optimizer iterations.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("no synthetic tables")
    if assignments is not None:
        assignments = [tuple(int(k) for k in a) for a in assignments]
        if len(assignments) != len(observations):
            raise ValueError("one table assignment per observation required")
        if any(len(a) < 1 for a in assignments):
            raise ValueError("every observation needs at least one table")
    return _Kernel(observations, tables, assignments, runout_cycles)


# ---------------------------------------------------------------------------
# One-shot likelihood evaluations
# ---------------------------------------------------------------------------

def loglik_homogeneous(
    params: StrainLifeParams,
    observations: ObservationArrays,
    volume: float,
    youngs_modulus: float = DEFAULT_YOUNGS_MODULUS,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> float:
    """Censored log-likelihood for homogeneous specimens of a given volume."""
    return homogeneous_objective(observations, volume, youngs_modulus, runout_cycles)(params)


def loglik_heterogeneous(
    params: StrainLifeParams,
    observations: ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> float:
    """Censored log-likelihood for specimens with known criterion tables."""
    return heterogeneous_objective(observations, tables, runout_cycles)(params)


def loglik_unknown_pores(
    params: StrainLifeParams,
    observations: ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
    assignments: Sequence[Sequence[int]] | None = None,
) -> float:
    """Censored log-likelihood marginalized over synthetic pore fields."""
    return unknown_pores_objective(observations, tables, runout_cycles, assignments)(params)
