"""Every byte two small pipelines write, pinned by the SHA-256 digests in ``golden.json``.

* **forward-mini**: ``genfield --count 2`` at seed 11 with the default
  config, then ``criterion``, ``wohler`` and ``homogenize`` on its fields.
* **calibrate-mini**: the four ``calibrate`` modes on those two tables, at
  the 10-iteration budget of the benchmark's ``calibrate.conf``, on
  observations drawn with the library at fixed seeds.

Both run on 1 and on 2 usable CPUs.  The digests hold for the Python, numpy
and scipy versions stored beside them (``eigh`` and the libm functions may
round differently elsewhere); with other versions the test is skipped.  A
change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
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
from porelife.field import load_criterion_table
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


def scenario_digests(root: Path) -> dict:
    """Both scenarios run under ``root``: per scenario, each file's SHA-256 by its path under the scenario."""
    tables = forward_mini(root / "forward-mini")
    calibrate_mini(root / "calibrate-mini", tables)
    return {
        name: {str(p.relative_to(root / name)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((root / name).rglob("*")) if p.is_file()}
        for name in ("forward-mini", "calibrate-mini")
    }


def test_every_output_byte_matches_its_golden_digest(tmp_path, cpus):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["versions"] != versions():
        pytest.skip(f"digests made with {golden['versions']}, running {versions()}")
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

    with tempfile.TemporaryDirectory() as tmp:
        payload = {"versions": versions(), "scenarios": scenario_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {sum(map(len, payload['scenarios'].values()))} digests")
