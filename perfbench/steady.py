#!/usr/bin/env python3
"""Steadiness and exact-repeat check of the benchmark.

    python3 perfbench/steady.py --workload forward --seeds 1-10
    python3 perfbench/steady.py --workload mesh --seeds 1-5 --repeat 3

Runs ``run.py`` once per seed with tracing off and reports, for each
end-to-end metric, the median and the spread between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  A spread is steady when
it stays below a third of the bound.  The unscaled wall times are
reported beside them, to show what the scaling to the reference speed
removes.  With ``--repeat SEED`` it also runs that seed twice untraced and
twice traced, and asserts that the output hashes and the traced counters
(evaluations, Nelder-Mead starts and stop reasons, Neuber solves, distinct
amplitudes, elements) repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, full record) of one benchmark run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    return json.loads(lines[-1]), json.loads(Path(record_path).read_text(encoding="utf-8"))


def spread(values: list) -> tuple[float, float]:
    """(median, interquartile range over the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def steadiness(workload: str, seeds: list, seconds: int, bench: dict) -> dict:
    values: dict = {}
    walls: dict = {}
    for seed in seeds:
        result, record = run(workload, seed, seconds, 0)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        for name in ("setup_wall_s", "workload_wall_s"):
            walls.setdefault(name, []).append(record[name])
        print(f"  seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    summary = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        med, share = spread(values[name])
        summary[name] = {"median": med, "iqr_share": share, "bound": bound, "values": values[name],
                         "steady": share < bound / 3.0}
        flag = "ok" if share < bound / 3.0 else ("WITHIN BOUND" if share <= bound else "TOO WIDE")
        print(f"  {name:14s} median {med:10.4g}  IQR/median {share:7.4f}  bound {bound:5.3f}  {flag}")
    for name, v in walls.items():
        med, share = spread(v)
        summary[name] = {"median": med, "iqr_share": share, "values": v}
        print(f"  {name:14s} median {med:10.4g}  IQR/median {share:7.4f}  (unscaled, not gated)")
    return summary


def exact_repeat(workload: str, seed: int, seconds: int) -> dict:
    """Same seed, twice untraced and twice traced: hashes and counters must match."""
    untraced = [run(workload, seed, seconds, 0)[1] for _ in range(2)]
    traced = [run(workload, seed, seconds, 1)[1] for _ in range(2)]
    checks = {
        "untraced_hashes_repeat": untraced[0]["output_sha256"] == untraced[1]["output_sha256"],
        "traced_hashes_repeat": traced[0]["output_sha256"] == traced[1]["output_sha256"],
        "in_process_matches_cli": all(
            traced[0]["output_sha256"].get(name) == hashes
            for name, hashes in untraced[0]["output_sha256"].items()),
        "counters_repeat": traced[0]["counters"] == traced[1]["counters"],
        "counters_repeat_within_run": all(r["counters_repeat_within_run"] for r in traced),
        "all_correct": all(r["failed"] == 0 for r in untraced + traced),
    }
    for name, ok in checks.items():
        print(f"  {name:30s} {'ok' if ok else 'MISMATCH'}")
    coverage = traced[0]["command_coverage"]
    print("  coverage by command: " + ", ".join(f"{k}={v:.3f}" for k, v in sorted(coverage.items())))
    return {"checks": checks, "coverage": coverage, "counters": traced[0]["counters"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--repeat", type=int, default=None, help="seed for the exact-repeat check")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    report = {"workload": args.workload, "seconds": seconds}
    print(f"{args.workload}: steadiness over seeds {args.seeds}", flush=True)
    report["steadiness"] = steadiness(args.workload, _seeds(args.seeds), seconds, bench)
    ok = all(report["steadiness"][m["name"]]["steady"] or m["name"] == "setup_s" for m in bench["end_to_end"])
    if args.repeat is not None:
        print(f"{args.workload}: exact repeat on seed {args.repeat}", flush=True)
        report["repeat"] = exact_repeat(args.workload, args.repeat, seconds)
        ok = ok and all(report["repeat"]["checks"].values())
    out = ROOT / ".perfbench_results" / f"steady-{args.workload}-{time.time_ns()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
