"""Every byte six small pipelines write, pinned by the SHA-256 digests in ``golden.json``.

* **forward-mini**: ``genfield --count 2`` at seed 11 with the default
  config, then ``criterion``, ``wohler`` and ``homogenize`` on its fields.
* **calibrate-mini**: the four ``calibrate`` modes on those two tables, at
  the 10-iteration budget of the benchmark's ``calibrate.conf``, on
  observations drawn with the library at fixed seeds.
* **genfield-variants**: ``genfield --count 2`` at seed 11 with
  ``--tile 2``, with ``--thin 4`` and with ``--notch-kt 2.5``.
* **mesh-mini**: ``criterion``, ``wohler`` and ``calibrate --mode
  heterogeneous`` on one field of distinct elements, each with its own unit
  tensor, whose Kt tail yields at the upper load levels.
* **corrector-mini**: ``criterion`` and ``wohler`` on mesh-mini's field at
  41 samples per cycle, where 27 yielding cells are left open by the
  certificates and take the per-cell Neuber chain (none are at 40), then
  ``calibrate --mode joint --reduce-per-level`` on calibrate-mini's tables
  and observation files; both with the two-line curve (``B = 0.35``,
  ``beta = 0.72``, all six parameters free), whose inverse is a bisection.
* **handoff-mini**: calibrate-mini's heterogeneous ``fitted.json`` read by
  ``wohler --params`` and by ``homogenize --params`` with forward-mini's two
  tables as ``--challenge-porous`` and ``--challenge-bare``.

Each runs on 1 and on 2 usable CPUs.  The digests hold for the Python, numpy
and scipy versions stored beside them (``eigh`` and the libm functions may
round differently elsewhere); with other versions the test is skipped.  A
change that alters outputs on purpose regenerates the digests of the
scenarios it names, and leaves the others byte for byte, with

    PYTHONPATH=src python tests/test_golden.py NAME...

and every scenario's, with the versions, when no name is given.
"""
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from porelife.cli import EXIT_OK, main
from porelife.config import load_config
from porelife.field import ElasticElementField, load_criterion_table, save_field
from porelife.likelihood import FatigueObservation, Heterogeneous, Homogeneous, structure_for
from porelife.strain_life import StrainLifeParams
from porelife.weakest_link import sample_lifetimes

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import save_observations  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: The benchmark's "true" one-line parameters, which its calibrate observations are drawn from.
TRUE = StrainLifeParams(m=2.0, A=0.01, alpha=0.2, C=3e-4, V0=593.0)
#: Three starts, so every fit forks on two CPUs; n_k = 1 freezes one table per unknown-pores observation.
CALIBRATE_CONF = "[protocol]\nseed = 11\nbudget = 10\nn_starts = 3\nn_k = 1\n"
MODES = ("homogeneous", "heterogeneous", "unknown-pores", "joint")
#: The genfield flags of each genfield-variants run, by its output directory.
VARIANTS = {"tile": ["--tile", 2], "thin": ["--thin", 4], "notch": ["--notch-kt", 2.5]}
#: Elements of the mesh-mini field.
MESH_ELEMENTS = 300
#: 41 samples per cycle and the two-line curve, fitted in all six parameters.
CORRECTOR_CONF = (CALIBRATE_CONF + "cycle_samples = 41\n"
                  "[fatigue]\nB = 0.35\nbeta = 0.72\nfree = m, A, B, alpha, beta, C\n")
SCENARIOS = ("forward-mini", "calibrate-mini", "genfield-variants", "mesh-mini", "corrector-mini", "handoff-mini")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == EXIT_OK, argv


def draws(struct, count, seed, level) -> list:
    lifetimes, censored = sample_lifetimes(struct, count, seed, 2e6)
    return [FatigueObservation(level, min(float(n), 2e6), bool(c)) for n, c in zip(lifetimes, censored)]


def forward_mini(root: Path) -> list:
    """The forward pipeline under ``root``; its two table paths."""
    run("genfield", "--seed", 11, "--count", 2, "--out", root / "fields")
    fields = sorted((root / "fields").glob("field_*.csv"))
    run("criterion", "--seed", 11, "--out", root / "tables", *fields)
    tables = [root / "tables" / f"{field.stem}.criterion.csv" for field in fields]
    run("wohler", "--seed", 11, "--out", root / "wohler", *tables)
    run("homogenize", "--seed", 11, "--out", root / "homogenize", *tables)
    return tables


def calibrate_mini(root: Path, tables: list) -> None:
    """The four calibrate modes under ``root`` on ``tables``, with their observation files."""
    root.mkdir()
    conf = root / "calibrate.conf"
    conf.write_text(CALIBRATE_CONF)
    config = load_config(conf)
    loaded = [load_criterion_table(path) for path in tables]
    gauge = Homogeneous(config.pores.gauge_volume, config.material.E)
    obs = {
        "homogeneous": [o for level in (60.0, 80.0, 100.0)
                        for o in draws(structure_for(TRUE, gauge, level), 4, [1, int(level)], level)],
        # one specimen per table, at 80 and 100 MPa
        "heterogeneous": [o for k, (table, level) in enumerate(zip(loaded, (80.0, 100.0)))
                          for o in draws(structure_for(TRUE, Heterogeneous(table), level), 1, [2, k], level)],
        "porous": [o for k, table in enumerate(loaded) for level in (60.0, 80.0, 100.0)
                   for o in draws(structure_for(TRUE, Heterogeneous(table), level), 2, [3, k, int(level)], level)],
    }
    for name, rows in obs.items():
        assert not all(o.censored for o in rows), name
        save_observations(root / f"{name}.csv", rows)
    for mode in MODES:
        argv = ["calibrate", "--config", conf, "--out", root / mode, "--mode", mode]
        if mode == "homogeneous":
            argv += ["--observations", root / "homogeneous.csv"]
        else:
            argv += ["--observations", root / ("heterogeneous.csv" if mode == "heterogeneous" else "porous.csv"),
                     "--tables", *tables]
        if mode == "joint":
            argv += ["--homogeneous-observations", root / "homogeneous.csv"]
        run(*argv)


def genfield_variants(root: Path) -> None:
    """``genfield --count 2`` under ``root``, once per :data:`VARIANTS` entry."""
    for name, flags in VARIANTS.items():
        run("genfield", "--seed", 11, "--count", 2, *flags, "--out", root / name)


def mesh_mini(root: Path) -> None:
    """Criterion, Wohler and a heterogeneous fit under ``root`` on one field of distinct tensors.

    Kt is 1 + log-normal (median 0.3), so about 8 % of the elements exceed
    the 1.7 that yields at 100 MPa; the observations are drawn from the
    table the run makes.
    """
    root.mkdir()
    rng = np.random.default_rng([11, 4])
    shape = np.array([1.0, 0, 0, 0, 0, 0]) + 0.2 * rng.standard_normal((MESH_ELEMENTS, 6))
    sxx, syy, szz, sxy, syz, sxz = shape.T
    mises = np.sqrt(0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2) + 3.0 * (sxy**2 + syz**2 + sxz**2))
    kt = 1.0 + 0.3 * rng.lognormal(0.0, 0.6, MESH_ELEMENTS)
    assert np.sum(kt * 100.0 > 170.0) > 10  # the default sigma_y: these elements yield at 100 MPa
    save_field(root / "mesh.csv", ElasticElementField(
        ids=np.arange(MESH_ELEMENTS), volumes=593.0 * rng.dirichlet(np.ones(MESH_ELEMENTS)),
        sigma_unit=shape * (kt / mises)[:, None], geometry_tag="mesh-mini"))
    conf = root / "mesh.conf"
    conf.write_text(CALIBRATE_CONF)
    run("criterion", "--config", conf, "--out", root / "tables", root / "mesh.csv")
    table = root / "tables" / "mesh.criterion.csv"
    run("wohler", "--config", conf, "--out", root / "wohler", table)
    model = Heterogeneous(load_criterion_table(table))
    rows = [o for level in (60.0, 80.0, 100.0)
            for o in draws(structure_for(TRUE, model, level), 3, [4, int(level)], level)]
    assert not all(o.censored for o in rows)
    save_observations(root / "observations.csv", rows)
    run("calibrate", "--config", conf, "--out", root / "calibrate", "--mode", "heterogeneous",
        "--observations", root / "observations.csv", "--tables", table)


def corrector_mini(root: Path, field: Path, tables: list, observations: Path) -> None:
    """Criterion and Wohler on ``field``, and a joint fit on ``tables``, under ``root``.

    The fit reads ``observations``' ``porous.csv`` and, one row per load
    level, its ``homogeneous.csv``.
    """
    root.mkdir()
    conf = root / "corrector.conf"
    conf.write_text(CORRECTOR_CONF)
    run("criterion", "--config", conf, "--out", root / "tables", field)
    run("wohler", "--config", conf, "--out", root / "wohler", root / "tables" / f"{field.stem}.criterion.csv")
    run("calibrate", "--config", conf, "--out", root / "joint", "--mode", "joint", "--reduce-per-level",
        "--observations", observations / "porous.csv", "--tables", *tables,
        "--homogeneous-observations", observations / "homogeneous.csv")


def handoff_mini(root: Path, params: Path, tables: list) -> None:
    """Wohler and homogenize under ``root`` on ``tables``, at the fitted ``params``.

    homogenize takes the first table as its porous challenge and the second
    as its bare one, so it makes no challenge table of its own.
    """
    run("wohler", "--seed", 11, "--params", params, "--out", root / "wohler", *tables)
    run("homogenize", "--seed", 11, "--params", params, "--challenge-porous", tables[0],
        "--challenge-bare", tables[1], "--out", root / "homogenize", *tables)


def scenario_digests(root: Path) -> dict:
    """Every scenario run under ``root``: per scenario, each file's SHA-256 by its path under the scenario."""
    tables = forward_mini(root / "forward-mini")
    calibrate_mini(root / "calibrate-mini", tables)
    genfield_variants(root / "genfield-variants")
    mesh_mini(root / "mesh-mini")
    corrector_mini(root / "corrector-mini", root / "mesh-mini" / "mesh.csv", tables, root / "calibrate-mini")
    handoff_mini(root / "handoff-mini", root / "calibrate-mini" / "heterogeneous" / "fitted.json", tables)
    return {
        name: {str(p.relative_to(root / name)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((root / name).rglob("*")) if p.is_file()}
        for name in SCENARIOS
    }


def test_every_output_byte_matches_its_golden_digest(tmp_path, cpus):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["versions"] != versions():
        pytest.skip(f"digests made with {golden['versions']}, running {versions()}")
    assert sorted(golden["scenarios"]) == sorted(SCENARIOS)
    got = scenario_digests(tmp_path)
    differ = [
        f"{name}/{path}: {'missing' if path not in got[name] else 'not golden' if path not in want else 'differs'}"
        for name, want in golden["scenarios"].items()
        for path in sorted(set(want) | set(got[name]))
        if want.get(path) != got[name].get(path)
    ]
    assert differ == [], f"{len(differ)} files differ on {cpus.n} CPU(s):\n" + "\n".join(differ)
    assert len(cpus.forks) > 0 if cpus.n > 1 else cpus.forks == []


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(SCENARIOS)
    if set(names) - set(SCENARIOS):
        sys.exit(f"unknown scenarios {sorted(set(names) - set(SCENARIOS))}; the scenarios are {', '.join(SCENARIOS)}")
    payload = {"versions": versions(), "scenarios": {}}
    if sys.argv[1:]:  # the other scenarios keep their digests, which hold only for the versions they were made with
        payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if payload["versions"] != versions():
            sys.exit(f"digests made with {payload['versions']}, running {versions()}: regenerate every scenario")
    with tempfile.TemporaryDirectory() as tmp:
        got = scenario_digests(Path(tmp))
    payload["scenarios"].update({name: got[name] for name in names})
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {sum(len(got[name]) for name in names)} digests of {', '.join(names)}")
