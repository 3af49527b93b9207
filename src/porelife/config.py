"""Run configuration: line-oriented key-value files with section headers.

Every key is optional and defaults to the dataclass field it sets:
``[material]`` fills :class:`ChabocheParams`, ``[fatigue]``
:class:`StrainLifeParams`, ``[pores]`` :class:`PoreFieldStats` and
``[protocol]`` :class:`RunConfig` itself.  The defaults reproduce the
calibration protocol used throughout (9 load levels from 20 to 100 MPa, 20
stabilization cycles, 10 synthetic realizations, run-out cap at 2e6
cycles).  A section or key that no command reads is rejected, so a
misspelling cannot silently fall back to the default.  A commented
reference file ships at the repository root as ``porelife.conf.example``.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .material import (
    ALSI7MG,
    DEFAULT_BUDGET,
    DEFAULT_CYCLE_SAMPLES,
    DEFAULT_RUNOUT_CYCLES,
    DEFAULT_SAMPLES_PER_STRUCT,
    DEFAULT_SHELLS,
    DEFAULT_STABILIZATION_CYCLES,
    DEFAULT_STARTS,
    PARAM_ORDER,
    WOHLER_QUANTILES,
    ChabocheParams,
    PoreFieldStats,
    StrainLifeParams,
    one_line_mask,
    utf8_error,
)


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


DEFAULT_LOAD_LEVELS = tuple(float(x) for x in np.linspace(20.0, 100.0, 9))

#: Fallback fatigue parameters; a plausible cast-aluminium curve that keeps
#: predicted lifetimes in a testable window over the default level grid.
DEFAULT_FATIGUE = StrainLifeParams(m=2.0, A=0.025, alpha=0.2, B=0.0, beta=0.0, C=3e-4)


@dataclass(eq=False)
class RunConfig:
    """Everything a pipeline command needs beyond its file arguments."""

    material: ChabocheParams = ALSI7MG
    fatigue: StrainLifeParams = DEFAULT_FATIGUE
    free_mask: tuple = one_line_mask()
    load_levels: tuple = DEFAULT_LOAD_LEVELS
    n_k: int = 10
    n_cycles: int = DEFAULT_STABILIZATION_CYCLES
    runout_cycles: float = DEFAULT_RUNOUT_CYCLES
    seed: int = 0
    n_starts: int = DEFAULT_STARTS
    budget: int = DEFAULT_BUDGET
    samples_per_struct: int = DEFAULT_SAMPLES_PER_STRUCT
    quantiles: tuple = WOHLER_QUANTILES
    cycle_samples: int = DEFAULT_CYCLE_SAMPLES
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
        for name, low in (("n_k", 1), ("n_cycles", 1), ("n_starts", 1), ("budget", 1),
                          ("samples_per_struct", 1), ("cycle_samples", 2), ("shells", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if not (math.isfinite(self.runout_cycles) and self.runout_cycles > 0):
            raise ConfigError(f"N_max must be positive and finite, got {self.runout_cycles}")
        if not self.quantiles or not all(0.0 < q < 1.0 for q in self.quantiles):
            raise ConfigError(f"quantiles must lie in (0, 1), got {tuple(self.quantiles)}")


#: Section -> the RunConfig field it fills (None: RunConfig itself).
_SECTIONS = {"material": "material", "fatigue": "fatigue", "pores": "pores", "protocol": None}

#: Keys not spelled like the field they set: (section, key) -> (owner, field).
_RENAMED = {
    ("pores", "density"): ("pores", "pore_density"),
    ("pores", "shells"): (None, "shells"),
    ("fatigue", "free"): (None, "free_mask"),
    ("protocol", "N_max"): (None, "runout_cycles"),
}


def _key_table(defaults: RunConfig) -> dict:
    """Every accepted (section, key) -> (owner, field); each field has one key."""
    taken = set(_RENAMED.values()) | {(None, owner) for owner in _SECTIONS.values()}
    table = dict(_RENAMED)
    for section, owner in _SECTIONS.items():
        for f in fields(defaults if owner is None else getattr(defaults, owner)):
            if (owner, f.name) not in taken:
                table[section, f.name] = (owner, f.name)
    return table


_KEYS = _key_table(RunConfig())


def _float_list(raw: str):
    return tuple(float(x) for x in raw.replace(";", ",").split(",") if x.strip())


def _free_mask(raw: str) -> tuple:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if not names:
        raise ConfigError("[fatigue] free must name at least one parameter")
    unknown = [n for n in names if n not in PARAM_ORDER]
    if unknown:
        raise ConfigError(f"unknown free parameter names: {unknown}")
    return tuple(name in names for name in PARAM_ORDER)


def _parse(section: str, key: str, raw: str, name: str, default):
    """``raw`` read as the type of the field's default; a tuple is a comma list."""
    if name == "free_mask":
        return _free_mask(raw)
    cast = _float_list if isinstance(default, tuple) else type(default)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def load_config(path=None) -> RunConfig:
    """Read a config file; a missing path yields pure defaults."""
    defaults = RunConfig()
    if path is None:
        return defaults
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line, message = utf8_error(path)
        raise ConfigError(f"{path}:{line}: {message}") from exc
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")

    values = {owner: {} for owner in _SECTIONS.values()}
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in items:
            if (section, key) not in _KEYS:
                raise ConfigError(f"{path}: [{section}] {key}: unknown key")
            owner, name = _KEYS[section, key]
            target = defaults if owner is None else getattr(defaults, owner)
            value = _parse(section, key, raw, name, getattr(target, name))
            # nested parameter sets name their fields; name the key instead
            if owner is not None and not math.isfinite(value):
                raise ConfigError(f"[{section}] {key} must be finite, got {value}")
            values[owner][name] = value
    try:
        nested = {owner: replace(getattr(defaults, owner), **values[owner]) for owner in _SECTIONS.values() if owner}
        return replace(defaults, **nested, **values[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def fatigue_from_dict(record) -> StrainLifeParams:
    """Fatigue parameters from a record keyed by field name (``fitted.json``'s ``params``).

    Fields with a dataclass default may be absent; keys that name no field are ignored.
    """
    if not isinstance(record, dict):
        raise ValueError(f"fatigue parameters must be a JSON object, got {type(record).__name__}")
    values = {}
    for f in fields(StrainLifeParams):
        if f.name not in record:
            if f.default is MISSING:
                raise ValueError(f"missing fatigue parameter '{f.name}'")
            continue
        value = record[f.name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):  # JSON numbers only; true is not one
            raise ValueError(f"fatigue parameter '{f.name}' must be a number, got {value!r}")
        try:
            values[f.name] = float(value)
        except OverflowError:  # an integer past the float range
            raise ValueError(f"fatigue parameter '{f.name}' must be finite, got {str(value)[:20]}...") from None
    return StrainLifeParams(**values)
