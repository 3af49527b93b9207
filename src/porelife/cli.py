"""Batch pipeline commands: field generation, criterion precomputation,
calibration, load-life quantile prediction, and the homogenization study.

Every command reads one config file, writes CSV/JSON into an output
directory (``criterion`` also a binary sidecar per table, which later
commands load in place of the CSV it was made from), and is
byte-reproducible from its seed.  Exit codes: 0 success,
2 validation error, 3 partial element failures, 4 calibration degeneracy.

This module and :func:`load_config` need only :mod:`porelife.config` and
:mod:`porelife.material`; each command and helper imports the library
modules it runs, so a command loads no module it does not run.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, fatigue_from_dict, load_config
from .material import (
    CalibrationDegeneracyError,
    CriterionError,
    FieldFormatError,
    FieldGenerationError,
    StrainLifeParams,
    one_line_mask,
    utf8_error,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARTIAL = 3
EXIT_DEGENERATE = 4

DEFAULT_NOTCH_KT = 2.5
DEFAULT_NOTCH_VOLUME_FRACTION = 0.02

CALIBRATION_MODES = ("homogeneous", "heterogeneous", "unknown-pores", "joint")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_params_arg(config: RunConfig, params_path) -> StrainLifeParams:
    if params_path is None:
        return config.fatigue
    try:
        with open(params_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return fatigue_from_dict(payload.get("params", payload) if isinstance(payload, dict) else payload)
    except UnicodeDecodeError as exc:
        line, message = utf8_error(params_path)
        raise ConfigError(f"{params_path}:{line}: {message}") from exc
    except ValueError as exc:
        raise ConfigError(f"{params_path}: {exc}") from exc


def _criterion(config: RunConfig, field, failures=None):
    from .field import criterion_table

    return criterion_table(
        field,
        config.material,
        config.load_levels,
        cycles=config.n_cycles,
        samples=config.cycle_samples,
        failures=failures,
    )


def _check_notch(notch_kt, notch_volume_fraction) -> None:
    """Reject notch flags that :func:`notch_variant` would refuse, naming the flag."""
    if not notch_kt > 1.0:
        raise ConfigError(f"--notch-kt must exceed 1, got {notch_kt}")
    if notch_kt == math.inf:
        raise ConfigError(f"--notch-kt must be finite, got {notch_kt}")
    if not 0.0 < notch_volume_fraction < 1.0:
        raise ConfigError(f"--notch-volume-fraction must be in (0, 1), got {notch_volume_fraction}")


# ---------------------------------------------------------------------------
# genfield
# ---------------------------------------------------------------------------

def cmd_genfield(config: RunConfig, out, count, pores, thin, tile, notch_kt, notch_volume_fraction) -> int:
    """Generate synthetic field files plus a JSON manifest.

    The fields are synthesized and saved in :func:`porelife.forks.fork_files` jobs.
    """
    from .field import notch_variant, save_field, synth_field_report, thin_variant, tile_field
    from .forks import fork_files

    if count < 1:
        raise ConfigError(f"--count must be at least 1, got {count}")
    if pores is not None and pores < 0:
        raise ConfigError(f"--pores must be nonnegative, got {pores}")
    if tile is not None and tile < 1:
        raise ConfigError(f"--tile must be at least 1, got {tile}")
    if thin is not None and not 1.0 <= thin < math.inf:
        raise ConfigError(f"--thin must be finite and at least 1, got {thin}")
    if notch_kt is not None:
        _check_notch(notch_kt, notch_volume_fraction)
    stats = config.pores
    if thin is not None:
        stats = thin_variant(stats, thin)
    children = np.random.SeedSequence(config.seed).spawn(count)
    paths = [out / f"field_{i:03d}.csv" for i in range(count)]

    def write(i, path):
        """Synthesize field ``i`` and save it to ``path``; its manifest entry."""
        field, info = synth_field_report(
            stats, config.shells, children[i], nu=config.material.nu, n_pores=pores
        )
        if tile is not None:
            field = tile_field(field, tile)
        if notch_kt is not None:
            field = notch_variant(field, notch_kt, notch_volume_fraction)
        save_field(path, field)
        return {
            "file": paths[i].name,
            "spawn_index": i,
            "n_elements": field.n_elements,
            "total_volume_mm3": field.total_volume,
            "pore_count": info["pore_count"],
            "surface_breaking_count": info["surface_breaking_count"],
            "pore_volume_fraction": info["pore_volume_fraction"],
        }

    manifest = {
        "seed": config.seed,
        "count": count,
        "gauge_volume_mm3": stats.gauge_volume,
        "thin": thin,
        "tile": tile,
        "notch_kt": notch_kt,
        "fields": [],
    }
    fork_files(out, write, paths, lambda i, entry: manifest["fields"].append(entry))
    manifest["stats"] = {**dataclasses.asdict(stats), "shells": config.shells}
    _write_json(out / "manifest.json", manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

def _criterion_content_hash(config: RunConfig, field_path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    digest.update(field_path.read_bytes())
    recipe = (
        repr(config.material),
        tuple(config.load_levels),
        config.n_cycles,
        config.cycle_samples,
    )
    digest.update(repr(recipe).encode())
    return digest.hexdigest()


def _criterion_job(config: RunConfig, field_path: Path, table_path: Path, save_to: Path, failure_lines: list) -> str:
    """Bring ``table_path`` up to date from ``field_path``: its stdout line.

    A new table and its sidecar are saved as ``save_to``.  Each failed
    element's stderr line is appended to ``failure_lines``, also when every
    element failed.  Nothing is printed.
    """
    from .field import TABLE_HEADER, load_field, read_header, read_sidecar, save_criterion_table

    content_hash = _criterion_content_hash(config, field_path)
    try:
        with open(table_path, "r", encoding="utf-8") as fh:
            up_to_date = read_header(fh, TABLE_HEADER)[0].get("content-hash") == content_hash
    except (OSError, ValueError):  # no table yet, or one whose header is not a table's
        up_to_date = False
    # the header scan does not read the rows: the sidecar's digest of the whole file vouches for them
    if up_to_date and read_sidecar(table_path) is not None:
        return f"{table_path.name}: up to date, skipped"
    field = load_field(field_path)
    failures: list = []
    try:
        table = _criterion(config, field, failures)
    except CriterionError as exc:  # with a failures list, only when every element failed
        raise ConfigError(f"{field_path}: criterion failed for every element") from exc
    finally:  # the causes, also of a field where every element failed
        failure_lines.extend(f"{field_path.name}: element {eid} failed: {err}" for eid, err in failures)
    save_criterion_table(
        save_to,
        table,
        comments=[f"content-hash: {content_hash}", f"source: {field_path.name}"],
    )
    return f"{table_path.name}: {table.element_ids.size} elements x {len(config.load_levels)} levels"


def cmd_criterion(config: RunConfig, out, fields) -> int:
    """Precompute criterion tables and their sidecars for field files; skips unchanged inputs.

    Each table's :func:`_criterion_job` runs in a
    :func:`porelife.forks.fork_files` job, which prints its failure lines
    and stdout line in its turn, so the output, the exit code and the files
    under ``--out`` are the serial loop's.
    """
    from .field import check_one_line, table_files
    from .forks import fork_files

    # each name goes into its table's one-line `source:` comment
    check_one_line("field file name", *(field_path.name for field_path in fields))
    tables = [out / (field_path.stem + ".criterion.csv") for field_path in fields]
    firsts: dict = {}  # table -> the first field file that writes it
    for field_path, table_path in zip(fields, tables):
        first = firsts.setdefault(table_path, field_path)
        if first.resolve() != field_path.resolve():
            raise ConfigError(f"{first} and {field_path} would both write {table_path}")
    failed = []  # the tables whose fields had failed elements

    def job(i, save_to):
        failure_lines: list = []
        try:
            return _criterion_job(config, fields[i], tables[i], save_to, failure_lines), failure_lines
        except Exception:
            if save_to == tables[i]:  # run in place: its lines come before its error, as in the serial loop
                sys.stderr.writelines(f"{message}\n" for message in failure_lines)
            raise

    def take(i, result):
        line, failure_lines = result
        sys.stderr.writelines(f"{message}\n" for message in failure_lines)
        if failure_lines:
            failed.append(i)
        print(line)

    fork_files(out, job, tables, take, table_files)
    return EXIT_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _reduce_per_level(observations, seed):
    """One observation per distinct amplitude, picked deterministically."""
    rng = np.random.default_rng(seed)
    by_level: dict[float, list] = {}
    for o in observations:
        by_level.setdefault(o.sigma_a, []).append(o)
    return [lvl[rng.integers(len(lvl))] for _, lvl in sorted(by_level.items())]


def _unknown_pores_assignments(n_obs: int, pool_size: int, n_k: int, seed):
    """Frozen per-observation table subsets drawn once from the master seed."""
    if pool_size <= n_k:
        return None
    rng = np.random.default_rng(seed)
    return [rng.choice(pool_size, size=n_k, replace=False) for _ in range(n_obs)]


def _homogeneous_term(config: RunConfig, observations):
    """Homogeneous-regime objective on the plain gauge volume."""
    from .likelihood import homogeneous_objective

    return homogeneous_objective(observations, config.pores.gauge_volume, config.material.E, config.runout_cycles)


def _fit(config: RunConfig, objective, free_mask):
    """Best of the config's starts for one objective, from the config's fatigue parameters."""
    from .optimize import CalibrationProblem, calibrate

    problem = CalibrationProblem(objective=objective, x0=config.fatigue, free_mask=free_mask, budget=config.budget)
    return calibrate(problem, n_starts=config.n_starts, seed=config.seed)


def cmd_calibrate(
    config: RunConfig, out, mode, observations, tables, homogeneous_observations, reduce_per_level
) -> int:
    """Fit the fatigue model in one of the four likelihood modes.

    Each table is reduced to its histograms at the amplitudes of the
    observations assigned to it (see :class:`porelife.likelihood.ReducedTable`)
    as it is loaded, so one table at a time is held.
    """
    from .field import load_criterion_table
    from .likelihood import (
        ReducedTable,
        assigned_amplitudes,
        ensure_failures,
        heterogeneous_objective,
        load_observations,
        unknown_pores_objective,
    )
    from .optimize import write_trace_csv

    if mode not in CALIBRATION_MODES:
        raise ConfigError(f"unknown calibration mode '{mode}'")
    if mode != "homogeneous" and not tables:
        raise ConfigError(f"{mode} mode needs at least one criterion table")
    if mode == "joint" and homogeneous_observations is None:
        raise ConfigError("joint mode needs --homogeneous-observations")
    observations = load_observations(observations)
    ensure_failures(observations)
    n_obs, n_tables = len(observations), len(tables)
    if mode == "homogeneous" or mode == "heterogeneous" and 1 < n_tables != n_obs:
        amplitudes = [()] * n_tables  # no objective reads these tables: only their loading can fail
    elif mode == "heterogeneous":  # one table for every observation, or one each
        assignments = None if n_tables == 1 else [(k,) for k in range(n_obs)]
        amplitudes = assigned_amplitudes(observations, n_tables, assignments)
    else:
        assignments = _unknown_pores_assignments(n_obs, n_tables, config.n_k, config.seed)
        amplitudes = assigned_amplitudes(observations, n_tables, assignments)
    tables = [ReducedTable.of(load_criterion_table(p), a) for p, a in zip(tables, amplitudes)]

    if mode == "homogeneous":
        objective = _homogeneous_term(config, observations)
    elif mode == "heterogeneous":
        objective = heterogeneous_objective(observations, tables, config.runout_cycles)
    else:
        objective = unknown_pores_objective(observations, tables, config.runout_cycles, assignments)

    if mode == "joint":
        homogeneous_obs = load_observations(homogeneous_observations)
        if reduce_per_level:
            homogeneous_obs = _reduce_per_level(homogeneous_obs, config.seed)
        ensure_failures(homogeneous_obs)
        term_h, term_u = _homogeneous_term(config, homogeneous_obs), objective

        def objective(params):
            return term_h(params) + term_u(params)

    out.mkdir(parents=True, exist_ok=True)
    result = _fit(config, objective, config.free_mask)
    _write_json(
        out / "fitted.json",
        {
            "mode": mode,
            "params": dataclasses.asdict(result.params),
            "log_likelihood": result.log_likelihood,
            "n_observations": len(observations),
            "n_censored": sum(1 for o in observations if o.censored),
            "n_starts": config.n_starts,
            "budget": config.budget,
            "seed": config.seed,
        },
    )
    write_trace_csv(out / "trace.csv", result.trace)
    print(
        f"mode={mode}: log-likelihood {result.log_likelihood:.4f} "
        f"({len(observations)} observations)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# wohler
# ---------------------------------------------------------------------------

def cmd_wohler(config: RunConfig, out, params, tables) -> int:
    """Pooled lifetime quantiles per load level across criterion tables.

    Each table is reduced to its histograms at the levels (see
    :class:`porelife.likelihood.ReducedTable`) as it is loaded, so one table
    at a time is held.
    """
    from .field import load_criterion_table
    from .likelihood import Heterogeneous, ReducedTable, structure_for
    from .weakest_link import wohler_quantiles, write_quantile_csv

    params = _load_params_arg(config, params)
    levels = config.load_levels
    tables = [ReducedTable.of(load_criterion_table(p), levels) for p in tables]
    if not tables:
        raise ConfigError("wohler needs at least one criterion table")
    structs_per_level = {level: [structure_for(params, Heterogeneous(t), level) for t in tables] for level in levels}
    table = wohler_quantiles(
        structs_per_level,
        quantiles=config.quantiles,
        samples_per_struct=config.samples_per_struct,
        seed=config.seed,
        runout_cycles=config.runout_cycles,
    )
    out.mkdir(parents=True, exist_ok=True)  # only now: a run that fails leaves no --out behind
    write_quantile_csv(out / "wohler.csv", table, config.quantiles)
    print(f"wohler.csv: {len(levels)} levels x {len(tables)} fields")
    return EXIT_OK


# ---------------------------------------------------------------------------
# homogenize
# ---------------------------------------------------------------------------

def _pooled_median(structs, samples_per_struct, seed, runout_cycles) -> float:
    """``np.median`` of the pooled draws, which are never NaN, from a partition (``np.median`` loads ``numpy.ma``)."""
    from .weakest_link import pooled_lifetimes

    lifetimes, _ = pooled_lifetimes(structs, samples_per_struct, np.random.SeedSequence(seed), runout_cycles)
    half = lifetimes.size // 2
    part = np.partition(lifetimes, (half - 1, half))
    return float(part[half] if lifetimes.size % 2 else (part[half - 1] + part[half]) / 2.0)


def synthesize_observations(structs_by_table, levels, samples_per_struct, seed, runout_cycles):
    """Multi-scale-model lifetimes on known fields, censored at the cap.

    ``structs_by_table[k][i]`` is field ``k``'s structure at ``levels[i]``.
    Each structure (table by table, level by level) draws from its own child
    of ``seed``; its failures are one row each, its run-outs one row that counts them.
    """
    from .likelihood import ObservationArrays
    from .weakest_link import sample_lifetimes

    children = iter(np.random.SeedSequence(seed).spawn(len(structs_by_table) * len(levels)))
    rows = []  # (sigma_a, n_cycles, censored, count) of each structure; its run-out row last, dropped if it counts none
    for structs in structs_by_table:
        for struct, level in zip(structs, levels):
            lifetimes, censored = sample_lifetimes(struct, samples_per_struct, next(children), runout_cycles)
            cycles = np.append(lifetimes[~censored], runout_cycles)
            rows.append((np.full(cycles.size, level), cycles, np.arange(cycles.size) == cycles.size - 1,
                         np.append(np.ones(cycles.size - 1, dtype=np.int64), np.count_nonzero(censored))))
    sigma_a, n_cycles, censored, count = map(np.concatenate, zip(*rows))
    return ObservationArrays(*(column[count > 0] for column in (sigma_a, n_cycles, censored, count)))


def fit_homogenized_model(config: RunConfig, observations) -> StrainLifeParams:
    """0D homogeneous fit (one-line model) on synthetic lifetime data."""
    from .likelihood import ensure_failures

    ensure_failures(observations)
    return _fit(config, _homogeneous_term(config, observations), one_line_mask()).params


def _challenge_table(config: RunConfig, flag, seed, n_pores, notch_kt, notch_volume_fraction):
    """A table computed on a notched synthetic field, standing in for the one ``flag`` would supply."""
    from .field import notch_variant, synth_field_report

    field, _ = synth_field_report(config.pores, config.shells, seed, nu=config.material.nu, n_pores=n_pores)
    try:
        return _criterion(config, notch_variant(field, notch_kt, notch_volume_fraction))
    except CriterionError as exc:
        raise ConfigError(f"challenge table for {flag} at --notch-kt {notch_kt}: {exc}") from exc


def cmd_homogenize(
    config: RunConfig, out, params, challenge_porous, challenge_bare, notch_kt, notch_volume_fraction, tables
) -> int:
    """Homogenization transferability study.

    Generates synthetic lifetimes with the multi-scale model (A) on the
    cylinder fields, fits a 0D homogenized model (B) on them, then compares
    the two models' median predictions on the cylinder and on a high-Kt
    challenge geometry (porous for A, pore-free for B).  Challenge tables
    are generated from the config when not supplied.  Each table is reduced
    to its histograms at the levels (see :class:`porelife.likelihood.ReducedTable`)
    as it is loaded or made, so one table at a time is held.
    """
    from .field import load_criterion_table
    from .likelihood import Heterogeneous, ReducedTable, structure_for

    if challenge_porous is None or challenge_bare is None:
        _check_notch(notch_kt, notch_volume_fraction)
    params_a = _load_params_arg(config, params)
    levels = config.load_levels
    cylinder = [ReducedTable.of(load_criterion_table(p), levels) for p in tables]
    if not cylinder:
        raise ConfigError("homogenize needs at least one cylinder criterion table")
    porous = bare = None
    if challenge_porous is not None:
        porous = ReducedTable.of(load_criterion_table(challenge_porous), levels)
    if challenge_bare is not None:
        bare = ReducedTable.of(load_criterion_table(challenge_bare), levels)
    # challenge tables first: a failing one stops the run before the fit, and their solve peaks without the fit's arrays
    notch = (notch_kt, notch_volume_fraction)
    if porous is None:
        seed = np.random.SeedSequence(config.seed).spawn(len(cylinder) + 1)[-1]
        porous = ReducedTable.of(_challenge_table(config, "--challenge-porous", seed, None, *notch), levels)
    if bare is None:
        bare = ReducedTable.of(_challenge_table(config, "--challenge-bare", config.seed, 0, *notch), levels)

    cylinder = [[structure_for(params_a, Heterogeneous(t), level) for level in levels] for t in cylinder]
    samples, runout = config.samples_per_struct, config.runout_cycles
    params_b = fit_homogenized_model(config, synthesize_observations(cylinder, levels, samples, config.seed, runout))

    report = {
        "model_a": dataclasses.asdict(params_a),
        "model_b": dataclasses.asdict(params_b),
        "levels": list(levels),
        "notch_kt": notch_kt,
        "cylinder": {"median_A": [], "median_B": []},
        "challenge": {"median_A": [], "median_B": []},
    }
    for i, level in enumerate(levels):
        structs_a = [structs[i] for structs in cylinder]
        report["cylinder"]["median_A"].append(_pooled_median(structs_a, samples, config.seed, runout))
        report["cylinder"]["median_B"].append(_gauge_structure(params_b, config, level).median())
        report["challenge"]["median_A"].append(structure_for(params_a, Heterogeneous(porous), level).median())
        report["challenge"]["median_B"].append(structure_for(params_b, Heterogeneous(bare), level).median())
    out.mkdir(parents=True, exist_ok=True)  # only now: a run that fails leaves no --out behind
    _write_json(out / "homogenize.json", report)
    print("homogenize.json written")
    return EXIT_OK


def _gauge_structure(params: StrainLifeParams, config: RunConfig, level: float):
    """Homogenized prediction on the plain gauge volume: a :class:`porelife.weakest_link.StructureLifetime`."""
    from .likelihood import Homogeneous, structure_for

    return structure_for(
        params, Homogeneous(config.pores.gauge_volume, config.material.E), level
    )


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _add_common(sub, command):
    sub.set_defaults(command=command)
    sub.add_argument("--config", type=Path, default=None, help="run configuration file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porelife",
        description="Probabilistic fatigue lifetimes of porous structures",
    )
    parser.add_argument("--version", action="version", version=f"porelife {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genfield", help="generate synthetic pore fields")
    _add_common(p, cmd_genfield)
    p.add_argument("--count", type=int, default=1, help="number of fields")
    p.add_argument("--pores", type=int, default=None, help="pin the pore count (0 = bulk only)")
    p.add_argument("--thin", type=float, default=None, help="iso-volume radius divisor")
    p.add_argument("--tile", type=int, default=None, help="tile the field this many times")
    p.add_argument("--notch-kt", type=float, default=None, help="add a notch block at this Kt")
    p.add_argument(
        "--notch-volume-fraction",
        type=float,
        default=DEFAULT_NOTCH_VOLUME_FRACTION,
        help="volume fraction of the notch block",
    )

    p = sub.add_parser("criterion", help="precompute criterion tables")
    _add_common(p, cmd_criterion)
    p.add_argument("fields", nargs="+", type=Path, help="field files")

    p = sub.add_parser("calibrate", help="maximum-likelihood calibration")
    _add_common(p, cmd_calibrate)
    p.add_argument("--mode", required=True, choices=CALIBRATION_MODES)
    p.add_argument("--observations", required=True, type=Path)
    p.add_argument("--tables", nargs="*", type=Path, default=[])
    p.add_argument("--homogeneous-observations", type=Path, default=None)
    p.add_argument("--reduce-per-level", action="store_true")

    p = sub.add_parser("wohler", help="pooled lifetime quantiles per load level")
    _add_common(p, cmd_wohler)
    p.add_argument("--params", type=Path, default=None, help="fitted.json parameter file")
    p.add_argument("tables", nargs="+", type=Path)

    p = sub.add_parser("homogenize", help="homogenization transferability study")
    _add_common(p, cmd_homogenize)
    p.add_argument("--params", type=Path, default=None)
    p.add_argument("--challenge-porous", type=Path, default=None)
    p.add_argument("--challenge-bare", type=Path, default=None)
    p.add_argument("--notch-kt", type=float, default=DEFAULT_NOTCH_KT)
    p.add_argument(
        "--notch-volume-fraction", type=float, default=DEFAULT_NOTCH_VOLUME_FRACTION
    )
    p.add_argument("tables", nargs="+", type=Path, help="cylinder criterion tables")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, seed = args.pop("command"), args.pop("seed")
    try:
        config = load_config(args.pop("config"))
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        return command(config, **args)
    except CalibrationDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConfigError, FieldFormatError, FieldGenerationError, CriterionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
