"""Checks on the files each porelife command wrote.

Each check returns a list of problems (empty when the output is right).
Recomputations go through the program's public functions, so a fast path
that drifts from them shows up here as a failed command.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from porelife import loglik_heterogeneous, loglik_homogeneous, loglik_unknown_pores
from porelife.config import fatigue_from_dict, load_config
from porelife.field import load_criterion_table, load_field
from porelife.likelihood import load_observations
from porelife.material_point import cosine_cycle, criterion_delta_eps, critical_direction, neuber_correct

REL_TOL = 1e-9
#: Criterion cells recomputed per table: random ones plus the largest cell.
SAMPLED_CELLS = 8


def file_hashes(out: Path) -> dict:
    """SHA-256 of every file a command wrote, by path relative to its output directory."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


class Checker:
    """Runs the check of a command kind; caches parsed tables between checks."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 99])
        self._tables: dict = {}

    def table(self, path):
        key = str(path)
        if key not in self._tables:
            self._tables[key] = load_criterion_table(path)
        return self._tables[key]

    def check(self, command) -> list:
        try:
            return getattr(self, f"_{command.kind}")(command.out, **command.check)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed check
            return [f"{command.name}: output check raised {type(exc).__name__}: {exc}"]

    def _genfield(self, out, config, count) -> list:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        files = [entry["file"] for entry in manifest["fields"]]
        problems = [] if len(files) == count else [f"genfield: {len(files)} fields, expected {count}"]
        problems += [f"genfield: {name} missing" for name in files if not (out / name).is_file()]
        return problems

    def _criterion(self, out, config, fields) -> list:
        cfg = load_config(config)
        problems = []
        for field_path in fields:
            field = load_field(field_path)
            table = self.table(out / (Path(field_path).stem + ".criterion.csv"))
            name = Path(field_path).name
            if list(table.load_levels) != list(cfg.load_levels):
                problems.append(f"criterion {name}: load levels {list(table.load_levels)}")
            if not np.array_equal(table.element_ids, np.sort(field.ids)):
                problems.append(f"criterion {name}: element ids differ from the field")
                continue
            if np.any(np.diff(table.delta_eps, axis=1) < 0.0):
                problems.append(f"criterion {name}: strain range decreases with load")
            row_of = {int(eid): i for i, eid in enumerate(field.ids)}
            n, levels = table.delta_eps.shape
            cells = list(zip(self.rng.integers(n, size=SAMPLED_CELLS),
                             self.rng.integers(levels, size=SAMPLED_CELLS)))
            cells.append(np.unravel_index(int(np.argmax(table.delta_eps)), table.delta_eps.shape))
            for i, j in cells:
                tensor = field.sigma_unit[row_of[int(table.element_ids[i])]]
                history = cosine_cycle(tensor, amplitude=float(table.load_levels[j]), samples=cfg.cycle_samples)
                _, strain = neuber_correct(cfg.material, history, n_cycles=cfg.n_cycles)
                expected = criterion_delta_eps(strain, critical_direction(tensor))
                if not math.isclose(table.delta_eps[i, j], expected, rel_tol=REL_TOL):
                    problems.append(f"criterion {name}: element {int(table.element_ids[i])} level "
                                    f"{float(table.load_levels[j])}: {float(table.delta_eps[i, j])!r} != {expected!r}")
        return problems

    def _wohler(self, out, config) -> list:
        cfg = load_config(config)
        with open(out / "wohler.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        problems = []
        if len(body) != len(cfg.load_levels):
            problems.append(f"wohler: {len(body)} rows, expected {len(cfg.load_levels)}")
        loads = [float(r[0]) for r in body]
        if loads != sorted(loads):
            problems.append("wohler: load levels not ascending")
        # a draw at or above the run-out cap only says ">= cap", so compare capped values
        q = np.minimum(np.array([[float(x) for x in r[1:-1]] for r in body]), cfg.runout_cycles)
        if np.any(np.diff(q, axis=1) < 0.0):
            problems.append("wohler: quantiles decrease with q")
        if np.any(np.diff(q, axis=0) > 0.0):
            problems.append("wohler: quantiles increase with load")
        if header[-1] != "censored_fraction" or not all(0.0 <= float(r[-1]) <= 1.0 for r in body):
            problems.append("wohler: bad censored_fraction column")
        return problems

    def _homogenize(self, out, config) -> list:
        cfg = load_config(config)
        report = json.loads((out / "homogenize.json").read_text(encoding="utf-8"))
        problems = []
        for part in ("cylinder", "challenge"):
            for model in ("median_A", "median_B"):
                values = report[part][model]
                if len(values) != len(cfg.load_levels) or not all(v > 0.0 for v in values):
                    problems.append(f"homogenize: {part}.{model} = {values}")
        fatigue_from_dict(report["model_b"])  # raises on a nonpositive or missing parameter
        return problems

    def _calibrate(self, out, config, mode, observations, tables, homogeneous_observations) -> list:
        cfg = load_config(config)
        fitted = json.loads((out / "fitted.json").read_text(encoding="utf-8"))
        params = fatigue_from_dict(fitted["params"])
        obs = load_observations(observations)
        loaded = [self.table(p) for p in tables]
        volume, modulus, cap = cfg.pores.gauge_volume, cfg.material.E, cfg.runout_cycles
        if mode == "homogeneous":
            expected = loglik_homogeneous(params, obs, volume, modulus, cap)
        elif mode == "heterogeneous":
            expected = loglik_heterogeneous(params, obs, loaded, cap)
        else:
            # with no more tables than n_k every observation averages over all of them
            if len(loaded) > cfg.n_k:
                return [f"calibrate {mode}: more tables than n_k; the check cannot rebuild the assignment"]
            expected = loglik_unknown_pores(params, obs, loaded, cap)
            if mode == "joint":
                expected += loglik_homogeneous(params, load_observations(homogeneous_observations),
                                               volume, modulus, cap)
        got = fitted["log_likelihood"]
        problems = []
        if fitted["mode"] != mode:
            problems.append(f"calibrate {mode}: fitted.json says mode {fitted['mode']}")
        if not math.isclose(got, expected, rel_tol=REL_TOL):
            problems.append(f"calibrate {mode}: log-likelihood {got!r}, recomputed {expected!r}")
        if not (out / "trace.csv").is_file():
            problems.append(f"calibrate {mode}: trace.csv missing")
        return problems
