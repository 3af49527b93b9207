"""Run configuration: line-oriented key-value files with section headers.

Every key is optional; defaults reproduce the calibration protocol used
throughout (9 load levels from 20 to 100 MPa, 20 stabilization cycles,
10 synthetic realizations, run-out cap at 2e6 cycles).  A section or key
that no command reads is rejected, so a misspelling cannot silently fall
back to the default.  A commented reference file ships at the repository
root as ``porelife.conf.example``.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import DEFAULT_SHELLS, PoreFieldStats
from .material_point import ALSI7MG, ChabocheParams
from .strain_life import StrainLifeParams
from .weakest_link import DEFAULT_RUNOUT_CYCLES, WOHLER_QUANTILES
from .optimize import PARAM_ORDER


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


DEFAULT_LOAD_LEVELS = tuple(float(x) for x in np.linspace(20.0, 100.0, 9))

#: Fallback fatigue parameters; a plausible cast-aluminium curve that keeps
#: predicted lifetimes in a testable window over the default level grid.
DEFAULT_FATIGUE = StrainLifeParams(m=2.0, A=0.025, alpha=0.2, B=0.0, beta=0.0, C=3e-4, V0=593.0)


@dataclass(eq=False)
class RunConfig:
    """Everything a pipeline command needs beyond its file arguments."""

    material: ChabocheParams = ALSI7MG
    fatigue: StrainLifeParams = DEFAULT_FATIGUE
    free_mask: tuple = (True, True, False, True, False, True)
    load_levels: tuple = DEFAULT_LOAD_LEVELS
    n_k: int = 10
    n_cycles: int = 20
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES
    seed: int = 0
    n_starts: int = 5
    budget: int = 400
    samples_per_struct: int = 1000
    quantiles: tuple = WOHLER_QUANTILES
    cycle_samples: int = 40
    pores: PoreFieldStats = PoreFieldStats()
    shells: int = DEFAULT_SHELLS

    def __post_init__(self):
        levels = tuple(float(x) for x in self.load_levels)
        if not levels:
            raise ConfigError("load_levels must not be empty")
        if not all(map(math.isfinite, levels)):
            raise ConfigError(f"load levels must be finite, got {levels}")
        if any(x <= 0 for x in levels):
            raise ConfigError("load levels must be positive")
        if any(nxt <= cur for cur, nxt in zip(levels, levels[1:])):
            raise ConfigError(f"load levels must be strictly ascending, got {levels}")
        self.load_levels = levels
        if self.n_k < 1:
            raise ConfigError("n_k must be at least 1")
        if self.n_cycles < 1:
            raise ConfigError("n_cycles must be at least 1")
        if not (math.isfinite(self.runout_cycles) and self.runout_cycles > 0):
            raise ConfigError(f"N_max must be positive and finite, got {self.runout_cycles}")


def _float_list(raw: str):
    return tuple(float(x) for x in raw.replace(";", ",").split(",") if x.strip())


def load_config(path=None) -> RunConfig:
    """Read a config file; a missing path yields pure defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    known = set()  # every (section, key) this function reads

    def get(section, key, cast, default):
        known.add((section, key))
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
        return default

    def finite(section, key, default):
        value = get(section, key, float, default)
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value}")
        return value

    try:
        material = ChabocheParams(
            E=get("material", "E", float, ALSI7MG.E),
            nu=get("material", "nu", float, ALSI7MG.nu),
            sigma_y=get("material", "sigma_y", float, ALSI7MG.sigma_y),
            b=get("material", "b", float, ALSI7MG.b),
            Q=get("material", "Q", float, ALSI7MG.Q),
            C_kin=get("material", "C_kin", float, ALSI7MG.C_kin),
            D=get("material", "D", float, ALSI7MG.D),
        )
        fatigue = StrainLifeParams(
            m=get("fatigue", "m", float, DEFAULT_FATIGUE.m),
            A=get("fatigue", "A", float, DEFAULT_FATIGUE.A),
            B=get("fatigue", "B", float, DEFAULT_FATIGUE.B),
            alpha=get("fatigue", "alpha", float, DEFAULT_FATIGUE.alpha),
            beta=get("fatigue", "beta", float, DEFAULT_FATIGUE.beta),
            C=get("fatigue", "C", float, DEFAULT_FATIGUE.C),
            V0=get("fatigue", "V0", float, DEFAULT_FATIGUE.V0),
        )
        free_raw = get("fatigue", "free", str, "m, A, alpha, C")
        names = [s.strip() for s in free_raw.split(",") if s.strip()]
        unknown = [n for n in names if n not in PARAM_ORDER]
        if unknown:
            raise ConfigError(f"unknown free parameter names: {unknown}")
        free_mask = tuple(name in names for name in PARAM_ORDER)

        pores = PoreFieldStats(
            pore_density=finite("pores", "density", PoreFieldStats().pore_density),
            radius_median_um=finite("pores", "radius_median_um", 70.0),
            radius_log_sd=finite("pores", "radius_log_sd", 0.35),
            accept_radius_um=finite("pores", "accept_radius_um", 50.0),
            gauge_radius_mm=finite("pores", "gauge_radius_mm", 3.072),
            gauge_length_mm=finite("pores", "gauge_length_mm", 20.0),
            surface_kt_boost=finite("pores", "surface_kt_boost", 1.25),
        )
        config = RunConfig(
            material=material,
            fatigue=fatigue,
            free_mask=free_mask,
            load_levels=get("protocol", "load_levels", _float_list, DEFAULT_LOAD_LEVELS),
            n_k=get("protocol", "n_k", int, 10),
            n_cycles=get("protocol", "n_cycles", int, 20),
            runout_cycles=get("protocol", "N_max", float, DEFAULT_RUNOUT_CYCLES),
            seed=get("protocol", "seed", int, 0),
            n_starts=get("protocol", "n_starts", int, 5),
            budget=get("protocol", "budget", int, 400),
            samples_per_struct=get("protocol", "samples_per_struct", int, 1000),
            quantiles=get("protocol", "quantiles", _float_list, WOHLER_QUANTILES),
            cycle_samples=get("protocol", "cycle_samples", int, 40),
            pores=pores,
            shells=get("pores", "shells", int, DEFAULT_SHELLS),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    known_sections = {section for section, _ in known}
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ConfigError(f"{path}: [{section}] {key}: unknown key")
    return config


def fatigue_as_dict(params: StrainLifeParams) -> dict:
    """Flat key-value record of the fatigue model (config serialization order)."""
    return {
        "m": params.m,
        "A": params.A,
        "alpha": params.alpha,
        "B": params.B,
        "beta": params.beta,
        "C": params.C,
        "V0": params.V0,
    }


def fatigue_from_dict(record: dict) -> StrainLifeParams:
    return StrainLifeParams(
        m=float(record["m"]),
        A=float(record["A"]),
        alpha=float(record["alpha"]),
        B=float(record.get("B", 0.0)),
        beta=float(record.get("beta", 0.0)),
        C=float(record.get("C", 0.0)),
        V0=float(record.get("V0", 593.0)),
    )
