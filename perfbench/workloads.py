"""Workloads of the porelife benchmark and their seeded inputs.

Every input a workload hands to the program (config files, observation
files, the mesh field) is written here from the workload seed alone, with
the benchmark's own numpy code: the program under test only ever receives
the generated files.  Observations are drawn from the closed-form
weakest-link model of the one-line strain-life curve at fixed "true"
parameters, so the calibration runs on data of known origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

LEVELS = tuple(float(x) for x in range(20, 101, 10))
YOUNGS_MODULUS = 75500.0
N_MAX = 2.0e6
GAUGE_VOLUME = math.pi * 3.072**2 * 20.0
TRUE_PARAMS = {"m": 2.0, "A": 0.01, "alpha": 0.2, "C": 3e-4, "V0": 593.0}

FORWARD_FIELDS = 10
CALIBRATE_TABLES = 10
NONPOROUS_PER_LEVEL = 5
MESH_ELEMENTS = 3000
MESH_PER_LEVEL = 5

#: Iteration budget and start count of the table-based calibrations.  The
#: defaults (400 x 5) take minutes per mode; these keep one mode to a few
#: seconds while every start still ends on its budget.
REDUCED_BUDGET = 10
REDUCED_STARTS = 1

#: Salts that separate the random streams drawn from one workload seed.
_SALT_POROUS, _SALT_HET, _SALT_NONPOROUS, _SALT_MESH, _SALT_MESH_OBS = range(5)


@dataclass
class Command:
    """One timed CLI invocation; ``name`` is the metric stem (``<name>_s``)."""

    name: str
    argv: list
    out: Path
    kind: str  # which output check applies
    check: dict = field(default_factory=dict)  # what that check needs to know


@dataclass
class Workload:
    config: Path  # the config ``setup_s`` loads
    commands: object  # callable(iteration_dir) -> list[Command]
    prepare: list = field(default_factory=list)  # untimed commands run once per run
    make_inputs: object = None  # callable run after prepare, writes further inputs


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def write_config(path: Path, seed: int, reduced: bool) -> Path:
    """Config with the protocol values the benchmark relies on spelled out."""
    lines = [
        "[material]",
        f"E = {YOUNGS_MODULUS!r}",
        "[protocol]",
        "load_levels = " + ", ".join(repr(x) for x in LEVELS),
        f"N_max = {N_MAX!r}",
        f"seed = {seed}",
        f"n_k = {CALIBRATE_TABLES}",
    ]
    if reduced:
        lines += [f"budget = {REDUCED_BUDGET}", f"n_starts = {REDUCED_STARTS}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# The benchmark's own sampler
# ---------------------------------------------------------------------------

def _cycles(eps_amp: np.ndarray) -> np.ndarray:
    """Inverse of the one-line curve eps = A N^-alpha + C; inf at or below C."""
    p = TRUE_PARAMS
    out = np.full(eps_amp.shape, np.inf)
    above = eps_amp > p["C"]
    out[above] = ((eps_amp[above] - p["C"]) / p["A"]) ** (-1.0 / p["alpha"])
    return out


def _structure_scale(delta_eps: np.ndarray, volumes: np.ndarray) -> float:
    """Weakest-link scale (sum V ln2/V0 N^-m)^(-1/m) of independent elements."""
    m = TRUE_PARAMS["m"]
    n = _cycles(0.5 * np.asarray(delta_eps, dtype=float))
    finite = np.isfinite(n)
    total = float(np.sum(volumes[finite] * math.log(2.0) / TRUE_PARAMS["V0"] * n[finite] ** (-m)))
    return math.inf if total == 0.0 else total ** (-1.0 / m)


def _draw(scale: float, rng) -> tuple[float, bool]:
    """One censored Weibull lifetime at the run-out cap."""
    u = rng.random()
    if math.isinf(scale):
        return N_MAX, True
    life = scale * (-math.log1p(-u)) ** (1.0 / TRUE_PARAMS["m"])
    if life >= N_MAX:
        return N_MAX, True
    return max(life, 1.0), False


def write_observations(path: Path, rows) -> Path:
    lines = ["sigma_a_MPa,n_cycles,censored"]
    lines += [f"{a!r},{n!r},{int(c)}" for a, n, c in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(delta_eps[element, level], volumes) of a criterion table CSV."""
    rows = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ][1:]
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    order = np.lexsort((data[:, 1], data[:, 0]))
    data = data[order]
    n_levels = len(LEVELS)
    delta = data[:, 2].reshape(-1, n_levels)
    volumes = data[::n_levels, 3]
    return delta, volumes


def nonporous_rows(seed: int) -> list:
    rng = np.random.default_rng([seed, _SALT_NONPOROUS])
    rows = []
    for level in LEVELS:
        scale = _structure_scale(np.array([2.0 * level / YOUNGS_MODULUS]), np.array([GAUGE_VOLUME]))
        for _ in range(NONPOROUS_PER_LEVEL):
            rows.append((level, *_draw(scale, rng)))
    return rows


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _cli(*args) -> list:
    return [str(a) for a in args]


def _genfield(cfg: Path, out: Path, count: int) -> Command:
    return Command("genfield", _cli("genfield", "--config", cfg, "--out", out, "--count", count),
                   out, "genfield", {"config": cfg, "count": count})


def _criterion(cfg: Path, out: Path, fields: list) -> Command:
    return Command("criterion", _cli("criterion", "--config", cfg, "--out", out, *fields),
                   out, "criterion", {"config": cfg, "fields": fields})


def _wohler(cfg: Path, out: Path, tables: list) -> Command:
    return Command("wohler", _cli("wohler", "--config", cfg, "--out", out, *tables),
                   out, "wohler", {"config": cfg})


def _calibrate(name: str, mode: str, cfg: Path, out: Path, observations: Path, tables=(),
               homogeneous_observations: Path | None = None) -> Command:
    argv = ["calibrate", "--config", cfg, "--out", out, "--mode", mode, "--observations", observations]
    if tables:
        argv += ["--tables", *tables]
    if homogeneous_observations is not None:
        argv += ["--homogeneous-observations", homogeneous_observations]
    return Command(name, _cli(*argv), out, "calibrate",
                   {"config": cfg, "mode": mode, "observations": observations, "tables": list(tables),
                    "homogeneous_observations": homogeneous_observations})


def forward(work: Path, seed: int) -> Workload:
    """Prediction path: genfield -> criterion -> wohler -> homogenize."""
    cfg = write_config(work / "forward.conf", seed, reduced=False)

    def commands(it: Path):
        fields = [it / "fields" / f"field_{i:03d}.csv" for i in range(FORWARD_FIELDS)]
        tables = [it / "tables" / f"field_{i:03d}.criterion.csv" for i in range(FORWARD_FIELDS)]
        return [
            _genfield(cfg, it / "fields", FORWARD_FIELDS),
            _criterion(cfg, it / "tables", fields),
            _wohler(cfg, it / "wohler", tables),
            Command("homogenize", _cli("homogenize", "--config", cfg, "--out", it / "homogenize", *tables),
                    it / "homogenize", "homogenize", {"config": cfg}),
        ]

    return Workload(cfg, commands)


def calibrate(work: Path, seed: int) -> Workload:
    """All four calibrate modes on ten tables built once in prepare.

    Homogeneous mode runs at the default budget; the table-based modes read
    the reduced budget from ``calibrate.conf``.
    """
    default_cfg = write_config(work / "calibrate-default.conf", seed, reduced=False)
    cfg = write_config(work / "calibrate.conf", seed, reduced=True)
    prep = work / "prepare"
    fields = [prep / "fields" / f"field_{i:03d}.csv" for i in range(CALIBRATE_TABLES)]
    tables = [prep / "tables" / f"field_{i:03d}.criterion.csv" for i in range(CALIBRATE_TABLES)]
    porous = work / "porous.csv"
    het = work / "heterogeneous.csv"
    nonporous = work / "nonporous.csv"

    def observations():
        """Drawn after prepare, from the tables it built."""
        rng_p = np.random.default_rng([seed, _SALT_POROUS])
        rng_h = np.random.default_rng([seed, _SALT_HET])
        porous_rows, het_rows = [], []
        upper = len(LEVELS) // 2
        for k, path in enumerate(tables):
            delta, volumes = read_table(path)
            for j, level in enumerate(LEVELS):
                porous_rows.append((level, *_draw(_structure_scale(delta[:, j], volumes), rng_p)))
            # a known-field specimen is tested once, at a level cycling over
            # the upper half of the grid; its table is passed in the same order
            j = upper + k % (len(LEVELS) - upper)
            het_rows.append((LEVELS[j], *_draw(_structure_scale(delta[:, j], volumes), rng_h)))
        write_observations(porous, porous_rows)
        write_observations(het, het_rows)
        write_observations(nonporous, nonporous_rows(seed))

    def commands(it: Path):
        return [
            _calibrate("calibrate_homogeneous", "homogeneous", default_cfg, it / "homogeneous", nonporous),
            _calibrate("calibrate_heterogeneous", "heterogeneous", cfg, it / "heterogeneous", het, tables),
            _calibrate("calibrate_unknown_pores", "unknown-pores", cfg, it / "unknown_pores", porous, tables),
            _calibrate("calibrate_joint", "joint", cfg, it / "joint", porous, tables, nonporous),
        ]

    return Workload(
        cfg, commands,
        prepare=[_genfield(default_cfg, prep / "fields", CALIBRATE_TABLES),
                 _criterion(default_cfg, prep / "tables", fields)],
        make_inputs=observations,
    )


def _von_mises(t: np.ndarray) -> np.ndarray:
    sxx, syy, szz, sxy, syz, sxz = t.T
    return np.sqrt(0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2)
                   + 3.0 * (sxy**2 + syz**2 + sxz**2))


def write_mesh_field(path: Path, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A field standing in for a tomography FE mesh; returns (Kt, volumes).

    Every element has its own unit-stress tensor (uniaxial plus a random
    multiaxial part, scaled to a von Mises Kt), so no two elements share a
    criterion solve.  Kt is 1 + log-normal (median 0.3): about 8 % of the
    elements exceed Kt 1.7 and yield at the top load levels.  The Kt values
    are the law's quantiles at (i + 1/2)/n, assigned to elements by the
    seed, so every seed has the same number of plastic criterion cells and
    the same criterion work; directions and volumes are drawn freely.
    """
    rng = np.random.default_rng([seed, _SALT_MESH])
    n = MESH_ELEMENTS
    weights = rng.lognormal(0.0, 0.5, n)
    volumes = GAUGE_VOLUME * weights / np.sum(weights)
    shape = np.tile([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], (n, 1)) + 0.2 * rng.standard_normal((n, 6))
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    kt = 1.0 + 0.3 * np.exp(0.6 * rng.permutation(z))
    tensors = shape * (kt / _von_mises(shape))[:, None]
    lines = ["# geometry: benchmark mesh", "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz"]
    for i in range(n):
        lines.append(",".join([str(i), repr(float(volumes[i]))] + [repr(float(x)) for x in tensors[i]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return kt, volumes


def mesh(work: Path, seed: int) -> Workload:
    """One large field of distinct elements: criterion -> wohler -> heterogeneous fit."""
    cfg = write_config(work / "mesh.conf", seed, reduced=True)
    field_path = work / "mesh.csv"
    kt, volumes = write_mesh_field(field_path, seed)
    # observations from the elastic strain ranges 2 sigma Kt / E of the mesh
    rng = np.random.default_rng([seed, _SALT_MESH_OBS])
    rows = []
    for level in LEVELS:
        scale = _structure_scale(2.0 * level * kt / YOUNGS_MODULUS, volumes)
        for _ in range(MESH_PER_LEVEL):
            rows.append((level, *_draw(scale, rng)))
    obs = write_observations(work / "mesh-observations.csv", rows)

    def commands(it: Path):
        table = it / "tables" / "mesh.criterion.csv"
        return [
            _criterion(cfg, it / "tables", [field_path]),
            _wohler(cfg, it / "wohler", [table]),
            _calibrate("calibrate_heterogeneous", "heterogeneous", cfg, it / "calibrate", obs, [table]),
        ]

    return Workload(cfg, commands)


WORKLOADS = {"forward": forward, "calibrate": calibrate, "mesh": mesh}
