#!/usr/bin/env python3
"""porelife benchmark: the CLI pipeline end to end, and its layers traced.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each of the workload's commands runs as a fresh
``porelife`` process, the way users run it, one at a time (a closed loop
with one client).  The workload repeats at least twice, and then while
the next repetition would end at most half a repetition past ``--seconds``
(output checks are not counted), and the end-to-end times are medians over the repetitions,
scaled to the reference speeds that ``reference.py`` defines and this
process measures alongside the timed children (peak RSS is each command's
own high-water mark).
With ``--trace 1`` the same commands run in this process through
``porelife.cli.main``, alternately untraced and with the spans of
``tracing.py`` installed; the per-layer metrics come from the traced
passes and the tracing overhead from the difference.  Every output is
checked (``checks.py``); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(sample counts, per-command times, counters, output hashes, machine facts)
goes to ``.perfbench_results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

#: Fresh interpreters timed for the import metrics of a traced run.
IMPORT_REPEATS = 3
#: No child may outlive this many seconds after the run started.
HARD_LIMIT_S = 170.0
#: Repetitions an end-to-end run makes however slow the machine is, so that
#: every command time is a median of more than one sample.
MIN_REPETITIONS = 2

#: A command as ``python -c``.  At exit it writes its own peak RSS (VmHWM, in
#: kB) to the file ``PERFBENCH_HWM`` names.  The ``ru_maxrss`` that
#: ``os.wait4`` returns cannot serve: a spawned child starts on this
#: process's memory map, so its maximum includes this process's own peak.
CLI_ENTRY = """
import atexit, os, sys

def _peak_rss(path=os.environ["PERFBENCH_HWM"]):
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kb)

atexit.register(_peak_rss)
from porelife.cli import main
sys.exit(main())
"""
SETUP_CODE = "import sys; import porelife.cli; from porelife.config import load_config; load_config(sys.argv[1])"
IMPORT_CODE = (
    "import json, sys, time; t0 = time.perf_counter(); import porelife.cli; t1 = time.perf_counter(); "
    "from porelife.config import load_config; load_config(sys.argv[1]); t2 = time.perf_counter(); "
    "print(json.dumps([t1 - t0, t2 - t1]))"
)

END_TO_END = {
    "setup_s": "s",
    "workload_s": "s",
    "peak_rss_mb": "MB",
}


class Failure(Exception):
    """The benchmark cannot run here (no program, or bad arguments)."""


# ---------------------------------------------------------------------------
# Fresh processes
# ---------------------------------------------------------------------------

class Processes:
    """Runs porelife in fresh interpreters and times each one."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self._n = 0

    def run(self, argv: list, log_name: str, peak_rss: bool = False):
        """(exit code, wall seconds, peak RSS MB or None, log path) of one fresh interpreter.

        With ``peak_rss`` the child must be started through ``CLI_ENTRY``,
        which reports its own peak RSS at exit.
        """
        self._n += 1
        log = self.work / "logs" / f"{self._n:04d}-{log_name}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        hwm = log.with_suffix(".hwm")
        env = dict(self.env, PERFBENCH_HWM=str(hwm)) if peak_rss else self.env
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        peak = None
        if peak_rss:
            with contextlib.suppress(OSError, ValueError):
                peak = int(hwm.read_text(encoding="ascii")) / 1024.0
        return proc.returncode, elapsed, peak, log

    def cli(self, command):
        return self.run(["-c", CLI_ENTRY, *command.argv], command.name, peak_rss=True)


# ---------------------------------------------------------------------------
# Bookkeeping shared by both modes
# ---------------------------------------------------------------------------

class Tally:
    """Commands attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Window:
    """The ``--seconds`` measuring window; time spent checking outputs is left out."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.restart()

    def restart(self) -> None:
        self.start = time.perf_counter()
        self.excluded = 0.0
        self.rounds = 0

    @contextlib.contextmanager
    def excluding(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - start

    def another(self) -> bool:
        """Whether one more repetition ends at most half a repetition past the window."""
        self.rounds += 1
        used = time.perf_counter() - self.start - self.excluded
        return used + 0.5 * used / self.rounds < self.seconds


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def machine_facts() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }


def _check_outputs(checker, command, reference_hashes, hashes_out):
    """Check one command's outputs: fully the first time, by hash after that."""
    from checks import file_hashes

    hashes = file_hashes(command.out)
    hashes_out[command.name] = hashes
    reference = reference_hashes.get(command.name)
    if reference is None:
        reference_hashes[command.name] = hashes
        return checker.check(command)
    if hashes != reference:
        changed = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
        return [f"outputs differ from the first repetition: {changed}"]
    return []


# ---------------------------------------------------------------------------
# --trace 0: end to end
# ---------------------------------------------------------------------------

def end_to_end(workload, seed: int, seconds: float, work: Path, started: float) -> dict:
    from checks import Checker
    from reference import IMPORTS_CODE, IMPORTS_S, REFERENCE_S, Speed, reference

    procs = Processes(work, started + HARD_LIMIT_S)
    tally = Tally()
    checker = Checker(seed)
    speed = Speed()

    def probe(code: str, name: str, *args) -> float:
        status, elapsed, _, log = procs.run(["-c", code, *args], name)
        if status != 0:
            raise Failure(f"{name} failed: {_tail(log)}")
        return elapsed

    # warm-up: writes the byte-code caches and runs each reference once
    probe(IMPORTS_CODE, "imports")
    probe(SETUP_CODE, "setup", str(workload.config))
    reference()

    setup, imports = [], []

    def setup_probe():
        imports.append(probe(IMPORTS_CODE, "imports"))
        setup.append(probe(SETUP_CODE, "setup", str(workload.config)))

    walls: dict = {}
    rss = []
    reference_hashes: dict = {}
    hashes: dict = {}

    window = Window(seconds)

    def run(command, label):
        code, elapsed, peak, log = procs.cli(command)
        if code != 0:
            tally.record(label, [f"exit code {code}: {_tail(log)}"])
        elif peak is None:
            tally.record(label, ["the command wrote no peak RSS"])
        else:
            rss.append(peak)
            with window.excluding():
                tally.record(label, _check_outputs(checker, command, reference_hashes, hashes))
        return elapsed

    prepare = {}
    for command in workload.prepare:
        prepare[command.name] = run(command, f"prepare/{command.name}")
    if workload.make_inputs is not None:
        workload.make_inputs()

    # set-up is probed (each probe right after its own reference) before
    # every other command rather than in one burst, so its median spans the
    # whole run, as the command times do; the reference passes after each
    # command sample the machine's speed in proportion to its time
    repetitions = 0
    window.restart()
    while True:
        it = work / f"it{repetitions:02d}"
        for i, command in enumerate(workload.commands(it)):
            if i % 2 == 0:
                setup_probe()
            elapsed = run(command, f"{it.name}/{command.name}")
            speed.follow(elapsed)
            walls.setdefault(command.name, []).append(elapsed)
        repetitions += 1
        shutil.rmtree(it, ignore_errors=True)
        if not window.another() and repetitions >= MIN_REPETITIONS:
            break

    # a command is a process start-up (the import reference's clock) and
    # then computation (the pass's clock), so its scale is the geometric
    # mean of the two
    workload_wall = sum(statistics.median(v) for v in walls.values())
    setup_scale = IMPORTS_S / statistics.median(imports)
    scale = math.sqrt(speed.scale() * setup_scale)
    metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "workload_s": workload_wall * scale,
        "peak_rss_mb": max(rss, default=0.0),
    }
    detail = {
        "samples": {"setup_s": len(setup), "workload_s": repetitions, "peak_rss_mb": len(rss)},
        "commands_s": {f"{name}_s": {"median": statistics.median(v) * scale, "n": len(v)}
                       for name, v in walls.items()},
        "commands_wall_s": {f"{name}_s": {"median": statistics.median(v), "n": len(v), "values": v}
                            for name, v in walls.items()},
        "setup_wall_s": statistics.median(setup),
        "workload_wall_s": workload_wall,
        "reference_s": {"mean": REFERENCE_S / speed.scale(), "n": len(speed.passes), "values": speed.passes},
        "speed_scale": scale,
        "imports_s": {"median": IMPORTS_S / setup_scale, "n": len(imports), "values": imports},
        "setup_scale": setup_scale,
        "prepare_s": sum(prepare.values()) if prepare else None,
        "prepare_commands_s": prepare,
        "setup_values_s": setup,
        "failed_share": tally.failed / tally.attempted,
        "output_sha256": hashes,
    }
    return {"metrics": metrics, "tally": tally, "detail": detail}


# ---------------------------------------------------------------------------
# --trace 1: layers
# ---------------------------------------------------------------------------

def _import_metrics(procs: Processes, config: Path) -> dict:
    """import.porelife_s, import.scipy_special_s and config.load_s in fresh interpreters."""
    porelife_s, scipy_s, config_s = [], [], []
    for _ in range(IMPORT_REPEATS):
        code, _, _, log = procs.run(["-X", "importtime", "-c", IMPORT_CODE, str(config)], "import")
        if code != 0:
            raise Failure(f"importing porelife failed: {_tail(log)}")
        scipy_us = 0
        result = None
        for line in log.read_text(encoding="utf-8").splitlines():
            if line.startswith("import time:"):
                fields = [f.strip() for f in line[len("import time:"):].split("|")]
                if fields[2] == "scipy.special":
                    scipy_us = int(fields[1])
            elif line.startswith("["):
                result = json.loads(line)
        porelife_s.append(result[0])
        config_s.append(result[1])
        scipy_s.append(scipy_us / 1e6)
    return {
        "import.porelife_s": statistics.median(porelife_s),
        "import.scipy_special_s": statistics.median(scipy_s),
        "config.load_s": statistics.median(config_s),
    }


def _in_process(main, commands, log: Path, tracer=None):
    """Run commands through porelife.cli.main here; (wall seconds, {name: exit code or error})."""
    outcomes = {}
    start = time.perf_counter()
    with open(log, "a", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        for command in commands:
            try:
                if tracer is None:
                    outcomes[command.name] = main(command.argv)
                else:
                    outcomes[command.name] = tracer.run_command(command.argv[0], main, command.argv)
            except Exception:  # noqa: BLE001 - a crash is a failed command, reported below
                outcomes[command.name] = traceback.format_exc(limit=3)
    return time.perf_counter() - start, outcomes


def traced(workload, seed: int, seconds: float, work: Path, started: float) -> dict:
    from checks import Checker
    from tracing import PER_LAYER, Tracer

    import porelife.cli

    procs = Processes(work, started + HARD_LIMIT_S)
    tally = Tally()
    checker = Checker(seed)
    metrics = _import_metrics(procs, workload.config)

    reference_hashes: dict = {}
    hashes: dict = {}
    for command in workload.prepare:
        code, _, _, log = procs.cli(command)
        tally.record(f"prepare/{command.name}", [f"exit code {code}: {_tail(log)}"] if code else
                     _check_outputs(checker, command, reference_hashes, hashes))
    if workload.make_inputs is not None:
        workload.make_inputs()

    # untraced and traced passes alternate, starting and ending untraced, so
    # warm-up costs do not land on one side of the overhead difference
    walls = {"untraced": [], "traced": []}
    tracers = []
    window = Window(seconds)
    modes = ["untraced", "traced", "untraced"]
    while modes:
        mode = modes.pop(0)
        it = work / f"{mode}{len(walls[mode]):02d}"
        commands = workload.commands(it)
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            tracer.install()
        try:
            wall, outcomes = _in_process(porelife.cli.main, commands, work / "in_process.log", tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
        walls[mode].append(wall)
        with window.excluding():
            for command in commands:
                label = f"{it.name}/{command.name}"
                if outcomes[command.name] != 0:
                    tally.record(label, [f"exit {outcomes[command.name]}"])
                else:
                    tally.record(label, _check_outputs(checker, command, reference_hashes, hashes))
        shutil.rmtree(it, ignore_errors=True)
        if not modes and window.another():
            modes = ["traced", "untraced"]

    per_pass = [t.layer_metrics() for t in tracers]
    for name, _, _ in PER_LAYER:
        if name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    counters = [t.counters() for t in tracers]
    detail = {
        "passes": {mode: len(w) for mode, w in walls.items()},
        "untraced_wall_s": walls["untraced"],
        "traced_wall_s": walls["traced"],
        "command_coverage": tracers[0].command_coverage(),
        "self_s_by_span": tracers[0].self_seconds_by_span(),
        "counters": counters[0],
        "counters_repeat_within_run": all(c == counters[0] for c in counters),
        "traced_names_missing": tracers[0].missing,
        "output_sha256": hashes,
        "failed_share": tally.failed / tally.attempted,
    }
    return {"metrics": metrics, "tally": tally, "detail": detail}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "porelife" / "cli.py").is_file():
        print(f"error: no porelife sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        measure = traced if args.trace else end_to_end
        result = measure(workload, args.seed, args.seconds, work, started)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = result["tally"]
    units = END_TO_END
    if args.trace:
        from tracing import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "run_wall_s": time.perf_counter() - started,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        **result["detail"],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    facts = record["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} commands, {tally.failed} failed, {record['run_wall_s']:.1f} s")
    print(f"  machine: {facts['nproc']} cpus, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}, load {load_before[0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    samples = record.get("samples", {})
    for name, entry in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}{n}")
    for name, entry in record.get("commands_s", {}).items():
        wall = record["commands_wall_s"][name]["median"]
        print(f"  {name:42s} {entry['median']:14.6g} s  (n={entry['n']}, not gated; wall {wall:.6g} s)")
    if "reference_s" in record:
        print(f"  {'wall time, not gated':42s} setup {record['setup_wall_s']:.6g} s, "
              f"workload {record['workload_wall_s']:.6g} s, reference {record['reference_s']['mean']:.6g} s "
              f"(n={record['reference_s']['n']}), imports {record['imports_s']['median']:.6g} s "
              f"(n={record['imports_s']['n']})")
    if record.get("prepare_s"):
        print(f"  {'prepare_s (wall)':42s} {record['prepare_s']:14.6g} s  (n=1, not gated)")
    print(f"  {'failed_share':42s} {record['failed_share']:14.6g} ratio")
    print(f"record: {path}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
