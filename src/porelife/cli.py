"""Batch pipeline commands: field generation, criterion precomputation,
calibration, load-life quantile prediction, and the homogenization study.

Every command reads one config file, writes CSV/JSON into an output
directory (``criterion`` also a binary sidecar per table, which later
commands load in place of the CSV it was made from), and is
byte-reproducible from its seed.  Exit codes: 0 success,
2 validation error, 3 partial element failures, 4 calibration degeneracy.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, fatigue_from_dict, load_config
from .field import (
    TABLE_HEADER,
    CriterionError,
    FieldFormatError,
    criterion_table,
    load_criterion_table,
    load_field,
    notch_variant,
    read_header,
    read_sidecar,
    save_criterion_table,
    save_field,
    synth_field_report,
    thin_variant,
    tile_field,
)
from .likelihood import (
    Heterogeneous,
    Homogeneous,
    ObservationArrays,
    heterogeneous_objective,
    homogeneous_objective,
    load_observations,
    structure_for,
    unknown_pores_objective,
)
from .optimize import (
    CalibrationDegeneracyError,
    CalibrationProblem,
    calibrate,
    ensure_failures,
    one_line_mask,
    write_trace_csv,
)
from .strain_life import StrainLifeParams
from .weakest_link import StructureLifetime, pooled_lifetimes, wohler_quantiles, write_quantile_csv

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
    except ValueError as exc:
        raise ConfigError(f"{params_path}: {exc}") from exc


def _criterion(config: RunConfig, field, failures=None):
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
    """Generate synthetic field files plus a JSON manifest."""
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
    out.mkdir(parents=True, exist_ok=True)
    stats = config.pores
    if thin is not None:
        stats = thin_variant(stats, thin)
    children = np.random.SeedSequence(config.seed).spawn(count)
    manifest = {
        "seed": config.seed,
        "count": count,
        "gauge_volume_mm3": stats.gauge_volume,
        "thin": thin,
        "tile": tile,
        "notch_kt": notch_kt,
        "fields": [],
    }
    for i in range(count):
        field, info = synth_field_report(
            stats, config.shells, children[i], nu=config.material.nu, n_pores=pores
        )
        if tile is not None:
            field = tile_field(field, tile)
        if notch_kt is not None:
            field = notch_variant(field, notch_kt, notch_volume_fraction)
        name = f"field_{i:03d}.csv"
        save_field(out / name, field)
        manifest["fields"].append(
            {
                "file": name,
                "spawn_index": i,
                "n_elements": field.n_elements,
                "total_volume_mm3": field.total_volume,
                "pore_count": info["pore_count"],
                "surface_breaking_count": info["surface_breaking_count"],
                "pore_volume_fraction": info["pore_volume_fraction"],
            }
        )
    manifest["stats"] = {**dataclasses.asdict(stats), "shells": config.shells}
    _write_json(out / "manifest.json", manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

def _criterion_content_hash(config: RunConfig, field_path: Path) -> str:
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


def cmd_criterion(config: RunConfig, out, fields) -> int:
    """Precompute criterion tables and their sidecars for field files; skips unchanged inputs."""
    for field_path in fields:  # the name goes into the table's one-line `source:` comment
        if "\n" in field_path.name or "\r" in field_path.name:
            raise ConfigError(f"field file name {field_path.name!r} holds a line break")
    any_failures = False
    for field_path in fields:
        table_path = out / (field_path.stem + ".criterion.csv")
        content_hash = _criterion_content_hash(config, field_path)
        try:
            with open(table_path, "r", encoding="utf-8") as fh:
                up_to_date = read_header(fh, TABLE_HEADER)[0].get("content-hash") == content_hash
        except (OSError, ValueError):  # no table yet, or one whose header is not a table's
            up_to_date = False
        # the header scan does not read the rows: the sidecar's digest of the whole file vouches for them
        if up_to_date and read_sidecar(table_path) is not None:
            print(f"{table_path.name}: up to date, skipped")
            continue
        field = load_field(field_path)
        failures: list = []
        table = _criterion(config, field, failures)
        for eid, err in failures:
            any_failures = True
            print(f"{field_path.name}: element {eid} failed: {err}", file=sys.stderr)
        out.mkdir(parents=True, exist_ok=True)
        save_criterion_table(
            table_path,
            table,
            comments=[f"content-hash: {content_hash}", f"source: {field_path.name}"],
        )
        print(f"{table_path.name}: {table.element_ids.size} elements x {len(config.load_levels)} levels")
    return EXIT_PARTIAL if any_failures else EXIT_OK


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
    return homogeneous_objective(observations, config.pores.gauge_volume, config.material.E, config.runout_cycles)


def _fit(config: RunConfig, objective, free_mask):
    """Best of the config's starts for one objective, from the config's fatigue parameters."""
    problem = CalibrationProblem(objective=objective, x0=config.fatigue, free_mask=free_mask, budget=config.budget)
    return calibrate(problem, n_starts=config.n_starts, seed=config.seed)


def cmd_calibrate(
    config: RunConfig, out, mode, observations, tables, homogeneous_observations, reduce_per_level
) -> int:
    """Fit the fatigue model in one of the four likelihood modes."""
    if mode not in CALIBRATION_MODES:
        raise ConfigError(f"unknown calibration mode '{mode}'")
    if mode != "homogeneous" and not tables:
        raise ConfigError(f"{mode} mode needs at least one criterion table")
    if mode == "joint" and homogeneous_observations is None:
        raise ConfigError("joint mode needs --homogeneous-observations")
    observations = load_observations(observations)
    ensure_failures(observations)
    tables = [load_criterion_table(p) for p in tables]

    if mode == "homogeneous":
        objective = _homogeneous_term(config, observations)
    elif mode == "heterogeneous":
        objective = heterogeneous_objective(observations, tables, config.runout_cycles)
    else:
        assignments = _unknown_pores_assignments(len(observations), len(tables), config.n_k, config.seed)
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
    """Pooled lifetime quantiles per load level across criterion tables."""
    params = _load_params_arg(config, params)
    tables = [load_criterion_table(p) for p in tables]
    if not tables:
        raise ConfigError("wohler needs at least one criterion table")
    out.mkdir(parents=True, exist_ok=True)
    structs_per_level = {
        level: [structure_for(params, Heterogeneous(t), level) for t in tables]
        for level in config.load_levels
    }
    table = wohler_quantiles(
        structs_per_level,
        quantiles=config.quantiles,
        samples_per_struct=config.samples_per_struct,
        seed=config.seed,
        runout_cycles=config.runout_cycles,
    )
    write_quantile_csv(out / "wohler.csv", table, config.quantiles)
    print(f"wohler.csv: {len(config.load_levels)} levels x {len(tables)} fields")
    return EXIT_OK


# ---------------------------------------------------------------------------
# homogenize
# ---------------------------------------------------------------------------

def _pooled_median(structs, samples_per_struct, seed, runout_cycles) -> float:
    lifetimes, _ = pooled_lifetimes(structs, samples_per_struct, np.random.SeedSequence(seed), runout_cycles)
    return float(np.median(lifetimes))


def synthesize_observations(params, tables, levels, samples_per_struct, seed, runout_cycles):
    """Multi-scale-model lifetimes on known fields, censored at the cap."""
    structs = [structure_for(params, Heterogeneous(table), level) for table in tables for level in levels]
    lifetimes, censored = pooled_lifetimes(structs, samples_per_struct, np.random.SeedSequence(seed), runout_cycles)
    sigma_a = np.tile(np.repeat(levels, samples_per_struct), len(tables))
    return ObservationArrays(sigma_a, np.minimum(lifetimes, runout_cycles), censored)


def fit_homogenized_model(config: RunConfig, observations) -> StrainLifeParams:
    """0D homogeneous fit (one-line model) on synthetic lifetime data."""
    ensure_failures(observations)
    return _fit(config, _homogeneous_term(config, observations), one_line_mask()).params


def _challenge_table(config: RunConfig, table, seed, n_pores, notch_kt, notch_volume_fraction):
    """``table`` if given, else one computed on a notched synthetic field."""
    if table is not None:
        return table
    field, _ = synth_field_report(config.pores, config.shells, seed, nu=config.material.nu, n_pores=n_pores)
    return _criterion(config, notch_variant(field, notch_kt, notch_volume_fraction))


def cmd_homogenize(
    config: RunConfig, out, params, challenge_porous, challenge_bare, notch_kt, notch_volume_fraction, tables
) -> int:
    """Homogenization transferability study.

    Generates synthetic lifetimes with the multi-scale model (A) on the
    cylinder fields, fits a 0D homogenized model (B) on them, then compares
    the two models' median predictions on the cylinder and on a high-Kt
    challenge geometry (porous for A, pore-free for B).  Challenge tables
    are generated from the config when not supplied.
    """
    if challenge_porous is None or challenge_bare is None:
        _check_notch(notch_kt, notch_volume_fraction)
    params_a = _load_params_arg(config, params)
    cylinder_tables = [load_criterion_table(p) for p in tables]
    if not cylinder_tables:
        raise ConfigError("homogenize needs at least one cylinder criterion table")
    porous, bare = (None if p is None else load_criterion_table(p) for p in (challenge_porous, challenge_bare))
    out.mkdir(parents=True, exist_ok=True)
    levels = config.load_levels

    observations = synthesize_observations(
        params_a,
        cylinder_tables,
        levels,
        config.samples_per_struct,
        config.seed,
        config.runout_cycles,
    )
    params_b = fit_homogenized_model(config, observations)

    porous_seed = np.random.SeedSequence(config.seed).spawn(len(cylinder_tables) + 1)[-1]
    porous = _challenge_table(config, porous, porous_seed, None, notch_kt, notch_volume_fraction)
    bare = _challenge_table(config, bare, config.seed, 0, notch_kt, notch_volume_fraction)

    report = {
        "model_a": dataclasses.asdict(params_a),
        "model_b": dataclasses.asdict(params_b),
        "levels": list(levels),
        "notch_kt": notch_kt,
        "cylinder": {"median_A": [], "median_B": []},
        "challenge": {"median_A": [], "median_B": []},
    }
    for level in levels:
        structs_a = [structure_for(params_a, Heterogeneous(t), level) for t in cylinder_tables]
        report["cylinder"]["median_A"].append(
            _pooled_median(structs_a, config.samples_per_struct, config.seed, config.runout_cycles)
        )
        report["cylinder"]["median_B"].append(_gauge_structure(params_b, config, level).median())
        report["challenge"]["median_A"].append(structure_for(params_a, Heterogeneous(porous), level).median())
        report["challenge"]["median_B"].append(structure_for(params_b, Heterogeneous(bare), level).median())
    _write_json(out / "homogenize.json", report)
    print("homogenize.json written")
    return EXIT_OK


def _gauge_structure(params: StrainLifeParams, config: RunConfig, level: float) -> StructureLifetime:
    """Homogenized prediction on the plain gauge volume."""
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
            config.seed = seed
        return command(config, **args)
    except CalibrationDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConfigError, FieldFormatError, CriterionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
