"""Weakest-link aggregation of element lifetimes into a structure lifetime.

Independent Weibull elements sharing one shape parameter combine into a
structure lifetime that is again Weibull; the structure scale is accumulated
in the log domain so elements whose scales span many orders of magnitude
neither overflow nor underflow.  Sampling and pooled-quantile machinery for
building probabilistic load-life tables lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .material import DEFAULT_RUNOUT_CYCLES, DEFAULT_SAMPLES_PER_STRUCT, WOHLER_QUANTILES
from .strain_life import WeibullLifetime, weibull_cdf


@dataclass(frozen=True)
class StructureLifetime(WeibullLifetime):
    """Weibull lifetime of a whole structure (scale never above any element's)."""


def _log_sum_exp(terms, start, segment):
    """Max-shifted log sum exp over terms[start[k]:start[k + 1]], where terms[i] is in segment[i]; -inf if all are."""
    peak = np.maximum.reduceat(terms, start)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    sums = np.add.reduceat(np.exp(terms - peak[segment]), start)
    return peak + np.log(sums)


def structure_scale(element_scales: Iterable[float], shape: float) -> float:
    """Combine element Weibull scales into the structure scale.

    Computes (sum_i scale_i^-shape)^(-1/shape) via a max-shifted log-sum-exp.
    Infinite-life elements contribute exactly zero; if every element is
    infinite the structure life is infinite.
    """
    if shape <= 0:
        raise ValueError(f"shape must be positive, got {shape}")
    scales = np.asarray(list(element_scales) if not isinstance(element_scales, np.ndarray) else element_scales, dtype=float)
    if scales.size == 0:
        raise ValueError("need at least one element")
    if np.any(scales <= 0) or np.any(np.isnan(scales)):
        raise ValueError("element scales must be positive or infinite")
    finite = scales[np.isfinite(scales)]
    if finite.size == 0:
        return math.inf
    if finite.size == 1:
        return float(finite[0])
    log_sum = _log_sum_exp(-shape * np.log(finite), [0], np.zeros(finite.size, dtype=np.intp))[0]
    return float(math.exp(-log_sum / shape))


def structure_lifetime(element_scales: Iterable[float], shape: float) -> StructureLifetime:
    return StructureLifetime(scale=structure_scale(element_scales, shape), shape=shape)


def structure_cdf(struct: StructureLifetime, cycles):
    """Failure probability of the structure by the given cycle count(s)."""
    return weibull_cdf(struct, cycles)


def sample_lifetimes(
    struct: StructureLifetime,
    count: int,
    seed,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
):
    """Draw lifetimes by inverse-CDF sampling; deterministic given the seed.

    Returns ``(lifetimes, censored)``.  An infinite-life structure yields the
    run-out cap as sentinel value with every draw flagged censored; finite
    draws keep their raw value and are flagged when they reach the cap, so
    downstream quantile code can report ">= cap".
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if struct.is_infinite:
        values = np.full(count, runout_cycles)
        return values, np.ones(count, dtype=bool)
    values = struct._inverse_cdf(np.random.default_rng(seed).random(count))
    return values, values >= runout_cycles


def pooled_lifetimes(
    structs: Sequence[StructureLifetime],
    samples_per_struct: int,
    seed: np.random.SeedSequence,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
):
    """Draws of every structure pooled in order; each draws from its own child spawned from ``seed``.

    Returns the concatenated ``(lifetimes, censored)`` of :func:`sample_lifetimes`.
    """
    draws = [
        sample_lifetimes(struct, samples_per_struct, child, runout_cycles)
        for struct, child in zip(structs, seed.spawn(len(structs)))
    ]
    lifetimes, censored = zip(*draws)
    return np.concatenate(lifetimes), np.concatenate(censored)


def _linear_quantiles(pool: np.ndarray, quantiles: Sequence[float]) -> list[float]:
    """``float(np.quantile(pool, q))`` of each ``q`` in [0, 1] for a 1-D ``pool`` without NaN, from one partition.

    numpy's default 'linear' rule, bit for bit: the value at the virtual
    index (n - 1) q interpolated between its neighbours with the weight g,
    as ``a + (b - a) g`` below g = 0.5 and ``b - (b - a)(1 - g)`` from it; an
    index at or past the end reads the last value on both sides, and g is
    taken from the neighbour -1.  ``np.quantile`` imports ``numpy.ma``.
    """
    last = pool.size - 1
    rules = []  # (virtual index, lower neighbour, upper neighbour)
    for q in quantiles:
        index = last * float(q)
        lower = math.floor(index) if index < last else -1
        rules.append((index, lower, lower + 1 if lower >= 0 else -1))
    part = np.partition(pool, sorted({k % pool.size for _, lower, upper in rules for k in (lower, upper)}))
    values = []
    for index, lower, upper in rules:
        a, b, g = float(part[lower]), float(part[upper]), index - lower
        values.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return values


def wohler_quantiles(
    structs_per_level: Mapping[float, Sequence[StructureLifetime]],
    quantiles: Sequence[float] = WOHLER_QUANTILES,
    samples_per_struct: int = DEFAULT_SAMPLES_PER_STRUCT,
    seed=0,
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES,
):
    """Pooled empirical lifetime quantiles per load level.

    For each level the draws from all provided structures are pooled (the
    master-curve construction over pore-field realizations) and empirical
    quantiles plus the fraction of censored draws are reported.

    Returns ``{level: {"quantiles": {q: value}, "censored_fraction": f}}``.
    """
    quantile_columns(quantiles)
    if not structs_per_level:
        raise ValueError("no load levels given")
    root = np.random.SeedSequence(seed)
    table = {}
    for li, (level, structs) in enumerate(structs_per_level.items()):
        structs = list(structs)
        if not structs:
            raise ValueError(f"no structures at load level {level}")
        level_seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=(li,))
        pool, censored = pooled_lifetimes(structs, samples_per_struct, level_seq, runout_cycles)
        table[level] = {
            "quantiles": dict(zip(quantiles, _linear_quantiles(pool, quantiles))),
            "censored_fraction": float(np.mean(censored)),
        }
    return table


def quantile_columns(quantiles: Sequence[float]) -> list[str]:
    """The CSV column of each quantile level in (0, 1): ``q`` and its percent, rounded.  No two levels may share one."""
    columns = []
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        column = f"q{round(100 * q):02d}"
        if column in columns:
            raise ValueError(f"quantiles {quantiles[columns.index(column)]} and {q} share the column {column}")
        columns.append(column)
    return columns


def write_quantile_csv(path, table, quantiles: Sequence[float] = WOHLER_QUANTILES) -> None:
    """Emit the pooled quantile table as CSV (one row per load level)."""
    lines = ["load_MPa," + ",".join(quantile_columns(quantiles)) + ",censored_fraction"]
    for level in sorted(table):
        entry = table[level]
        vals = ",".join(repr(float(entry["quantiles"][q])) for q in quantiles)
        lines.append(f"{float(level)!r},{vals},{float(entry['censored_fraction'])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
