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


@dataclass(frozen=True)
class FatigueObservation:
    """One experimental point: amplitude, cycles, run-out flag."""

    sigma_a: float
    n_cycles: float
    censored: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.sigma_a) and self.sigma_a > 0.0):
            raise ValueError(f"sigma_a must be positive and finite, got {self.sigma_a}")
        if not (math.isfinite(self.n_cycles) and self.n_cycles > 0.0):
            raise ValueError(f"n_cycles must be positive and finite, got {self.n_cycles}")


@dataclass(frozen=True, eq=False)
class ObservationArrays:
    """Observations as columns: amplitudes, cycles, run-out flags and counts.

    Every objective takes them; ``of`` converts a sequence of
    :class:`FatigueObservation`.  Amplitudes and cycles are checked like a
    single observation's.  A row stands for ``count`` equal observations (default 1).
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
        for name in ("sigma_a", "n_cycles"):
            values = getattr(self, name)
            bad = ~(np.isfinite(values) & (values > 0.0))
            if bad.any():
                raise ValueError(f"{name} must be positive and finite, got {values[bad][0]}")
        counts = self.count.astype(float)
        bad = ~((counts >= 1.0) & (counts < 2.0**53) & (counts == np.floor(counts)))
        if bad.any():
            raise ValueError(f"count must be an integer in [1, 2**53), got {self.count[bad][0]}")
        object.__setattr__(self, "count", counts.astype(np.int64))

    @classmethod
    def of(cls, observations: Sequence[FatigueObservation] | ObservationArrays) -> ObservationArrays:
        if isinstance(observations, cls):
            return observations
        obs = list(observations)
        return cls(
            np.array([o.sigma_a for o in obs], dtype=float),
            np.array([o.n_cycles for o in obs], dtype=float),
            np.array([o.censored for o in obs], dtype=bool),
        )

    def __len__(self) -> int:
        return int(self.sigma_a.size)


def ensure_failures(observations) -> None:
    """Raise unless some observation (a sequence or :class:`ObservationArrays`) failed."""
    if ObservationArrays.of(observations).censored.all():
        raise CalibrationDegeneracyError(
            "all observations are run-outs; the likelihood is maximized by infinite life"
        )


def load_observations(path) -> list[FatigueObservation]:
    """Parse an observations CSV (``sigma_a_MPa,n_cycles,censored``) with line-numbered errors."""
    _, header_line, rows = _read_rows(path, _row_dtype(OBSERVATIONS_HEADER, "censored"), {"censored": "censored must be 0 or 1"})
    if rows.size == 0:
        raise FieldFormatError(path, 0, "no observations found")
    observations, rejected = [], np.zeros(rows.size, dtype=bool)
    try:
        for sigma, cycles, flag in rows.tolist():
            observations.append(FatigueObservation(sigma, cycles, flag == 1))
    except ValueError as exc:  # the first row FatigueObservation refuses
        rejected[len(observations)], error = True, str(exc)
    _check_rows(path, header_line, [
        (~np.isin(rows["censored"], (0, 1)), lambda i: f"censored must be 0 or 1, got {rows['censored'][i]}"),
        (rejected, lambda i: error),
    ])
    return observations


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
class Heterogeneous:
    """Known per-element criterion table of one specimen, or its :class:`ReducedTable`."""

    table: CriterionTable | ReducedTable


@dataclass(frozen=True, eq=False)
class UnknownPores:
    """Synthetic realizations standing in for an unknown pore distribution."""

    tables: tuple[CriterionTable, ...]

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        if len(self.tables) < 1:
            raise ValueError("need at least one synthetic table")


SpecimenModel = Homogeneous | Heterogeneous | UnknownPores


def held(run, *args):
    """``run(*args)``, or the exception it raises, kept without its traceback (whose frames hold their tables)."""
    try:
        return run(*args)
    except Exception as exc:
        return exc.with_traceback(None)


def unheld(value):
    """``value``, raised where it is an exception that :func:`held` kept."""
    if isinstance(value, Exception):
        raise value
    return value


@dataclass(frozen=True, eq=False)
class ReducedTable:
    """A criterion table reduced to its volume histograms at the amplitudes asked of it.

    It stands in for the table wherever the likelihood reads one, which is
    only through :func:`_histogram`, so a command can drop each table as
    soon as it is loaded.  ``histograms`` maps each amplitude to its
    :func:`held` histogram: the error computing it raised (an amplitude off
    the table's grid) is raised where that amplitude is asked for.
    """

    histograms: dict

    @classmethod
    def of(cls, table: CriterionTable, amplitudes) -> ReducedTable:
        return cls({sigma_a: held(_histogram, table, sigma_a) for sigma_a in amplitudes})


def _histogram(structure: Homogeneous | CriterionTable | ReducedTable, sigma_a: float):
    """Distinct strain amplitudes of a structure at a load, and the volume at each."""
    if isinstance(structure, Homogeneous):
        return np.array([sigma_a / structure.youngs_modulus]), np.array([structure.volume])
    if isinstance(structure, ReducedTable):
        return unheld(structure.histograms[sigma_a])
    distinct, inverse = np.unique(0.5 * structure.interpolate(sigma_a), return_inverse=True)
    return distinct, np.bincount(inverse, weights=structure.volumes, minlength=distinct.size)


def assigned_amplitudes(observations, n_tables: int, assignments=None) -> list:
    """Per table, the distinct amplitudes at which an objective histograms it.

    They are the amplitudes of the observations assigned to the table
    (``assignments`` as for :func:`unknown_pores_objective`; every
    observation's when it is None).  A :class:`ReducedTable` at them gives
    the objective the table's own segments.
    """
    amps, amp_index = np.unique(ObservationArrays.of(observations).sigma_a, return_inverse=True)
    if assignments is None:
        return [amps] * n_tables
    assigned = np.zeros((n_tables, amps.size), dtype=bool)
    for tables, i in zip(assignments, amp_index.tolist()):
        assigned[list(tables), i] = True
    return [amps[row] for row in assigned]


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


def _structure(params: StrainLifeParams, structure, sigma_a: float) -> StructureLifetime:
    with np.errstate(divide="ignore"):
        log_rate = _Segments([_histogram(structure, sigma_a)]).log_rates(params)[0]
    return StructureLifetime(scale=math.exp(-log_rate / params.m), shape=params.m)


def structure_for(params: StrainLifeParams, model: SpecimenModel, sigma_a: float):
    """Structure lifetime distribution(s) of a specimen model at an amplitude.

    Returns one :class:`StructureLifetime` for ``Homogeneous``/``Heterogeneous``
    and a list (one per synthetic realization) for ``UnknownPores``.
    """
    if not math.isfinite(sigma_a):
        raise ValueError(f"sigma_a must be finite, got {sigma_a}")
    if sigma_a <= 0.0:
        raise ValueError("sigma_a must be positive")
    if isinstance(model, Homogeneous):
        return _structure(params, model, sigma_a)
    if isinstance(model, Heterogeneous):
        return _structure(params, model.table, sigma_a)
    if isinstance(model, UnknownPores):
        return [_structure(params, t, sigma_a) for t in model.tables]
    raise TypeError(f"unknown specimen model {type(model).__name__}")


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
        return total


def homogeneous_objective(
    observations: Sequence[FatigueObservation] | ObservationArrays,
    volume: float,
    youngs_modulus: float = DEFAULT_YOUNGS_MODULUS,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> Callable[[StrainLifeParams], float]:
    """Fast evaluator of the homogeneous-specimen log-likelihood.

    Each distinct amplitude is a one-element segment (sigma_a / E, volume).
    """
    return _Kernel(ObservationArrays.of(observations), [Homogeneous(volume, youngs_modulus)], None, runout_cycles)


def heterogeneous_objective(
    observations: Sequence[FatigueObservation] | ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> Callable[[StrainLifeParams], float]:
    """Fast evaluator for known-field specimens (one table per observation).

    A single table may be shared across all observations; segments are
    (table, amplitude) pairs, so a shared table is histogrammed once per level.
    """
    obs = ObservationArrays.of(observations)
    tables = [tables] if isinstance(tables, (CriterionTable, ReducedTable)) else list(tables)
    if len(tables) == 1:
        return _Kernel(obs, tables, None, runout_cycles)
    if len(tables) != len(obs):
        raise ValueError(f"{len(obs)} observations but {len(tables)} tables")
    structures = list({id(t): t for t in tables}.values())
    position = {id(t): k for k, t in enumerate(structures)}
    return _Kernel(obs, structures, [(position[id(t)],) for t in tables], runout_cycles)


def unknown_pores_objective(
    observations: Sequence[FatigueObservation] | ObservationArrays,
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
    obs = ObservationArrays.of(observations)
    tables = list(tables)
    if not tables:
        raise ValueError("no synthetic tables")
    if assignments is not None:
        assignments = [tuple(int(k) for k in a) for a in assignments]
        if len(assignments) != len(obs):
            raise ValueError("one table assignment per observation required")
        if any(len(a) < 1 for a in assignments):
            raise ValueError("every observation needs at least one table")
    return _Kernel(obs, tables, assignments, runout_cycles)


# ---------------------------------------------------------------------------
# One-shot likelihood evaluations
# ---------------------------------------------------------------------------

def loglik_homogeneous(
    params: StrainLifeParams,
    observations: Sequence[FatigueObservation] | ObservationArrays,
    volume: float,
    youngs_modulus: float = DEFAULT_YOUNGS_MODULUS,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> float:
    """Censored log-likelihood for homogeneous specimens of a given volume."""
    return homogeneous_objective(observations, volume, youngs_modulus, runout_cycles)(params)


def loglik_heterogeneous(
    params: StrainLifeParams,
    observations: Sequence[FatigueObservation] | ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
) -> float:
    """Censored log-likelihood for specimens with known criterion tables."""
    return heterogeneous_objective(observations, tables, runout_cycles)(params)


def loglik_unknown_pores(
    params: StrainLifeParams,
    observations: Sequence[FatigueObservation] | ObservationArrays,
    tables: Sequence[CriterionTable],
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
    assignments: Sequence[Sequence[int]] | None = None,
) -> float:
    """Censored log-likelihood marginalized over synthetic pore fields."""
    return unknown_pores_objective(observations, tables, runout_cycles, assignments)(params)
