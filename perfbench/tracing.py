"""Spans and counters around porelife's layers, installed from outside.

The tracer replaces public functions of each porelife module with wrappers
that record a span (name, start, end, parent) and counts at that boundary.
A function is replaced under every name any porelife module holds for it
(``porelife.cli.criterion_table`` as well as ``porelife.field.criterion_table``),
so calls through ``from .x import f`` are caught too.  Objective evaluations
are caught by wrapping the closures the three ``*_objective`` factories
return.  Spans stay in memory; self time of a span is its duration minus the
time covered by its direct children.
"""
from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: (module, function, span name).  Spans sharing a name form one layer.
SPANS = (
    ("porelife.config", "load_config", "config.load"),
    ("porelife.field", "synth_field_report", "field.synth"),
    ("porelife.field", "save_field", "field.field_io"),
    ("porelife.field", "load_field", "field.field_io"),
    ("porelife.field", "notch_variant", "field.variant"),
    ("porelife.field", "tile_field", "field.variant"),
    ("porelife.field", "criterion_table", "field.criterion"),
    ("porelife.field", "save_criterion_table", "field.table_save"),
    ("porelife.field", "load_criterion_table", "field.table_load"),
    ("porelife.material_point", "neuber_correct", "material_point.neuber"),
    ("porelife.material_point", "critical_direction", "material_point.direction"),
    ("porelife.strain_life", "cycles_to_failure", "strain_life.inverse"),
    ("porelife.strain_life", "element_scale_array", "strain_life.scale"),
    ("porelife.weakest_link", "structure_scale", "weakest_link.aggregate"),
    ("porelife.weakest_link", "sample_lifetimes", "weakest_link.sample"),
    ("porelife.weakest_link", "wohler_quantiles", "weakest_link.quantile"),
    ("porelife.weakest_link", "write_quantile_csv", "weakest_link.quantile_io"),
    ("porelife.likelihood", "load_observations", "likelihood.observations_io"),
    ("porelife.likelihood", "structure_for", "likelihood.structure"),
    ("porelife.optimize", "calibrate", "optimize.calibrate"),
    ("porelife.optimize", "write_trace_csv", "optimize.trace_io"),
)

#: Objective factories and the regime their evaluations are counted under.
FACTORIES = (
    ("homogeneous_objective", "homogeneous"),
    ("heterogeneous_objective", "heterogeneous"),
    ("unknown_pores_objective", "unknown_pores"),
)

COMMANDS = ("genfield", "criterion", "calibrate", "wohler", "homogenize")

#: Per-layer metrics: (name, unit, better).
PER_LAYER = (
    ("import.porelife_s", "s", "lower"),
    ("import.scipy_special_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("field.synth_s", "s", "lower"),
    ("field.synth_elements", "count", "lower"),
    ("field.field_io_s", "s", "lower"),
    ("field.criterion_s", "s", "lower"),
    ("field.criterion_cells", "count", "lower"),
    ("field.criterion_reuse_ratio", "ratio", "higher"),
    ("material_point.neuber_calls", "count", "lower"),
    ("material_point.neuber_s", "s", "lower"),
    ("material_point.direction_calls", "count", "lower"),
    ("material_point.direction_s", "s", "lower"),
    ("field.table_load_s", "s", "lower"),
    ("field.table_bytes_read", "B", "lower"),
    ("field.table_load_mb_per_s", "MB/s", "higher"),
    ("field.table_save_s", "s", "lower"),
    ("strain_life.inverse_calls", "count", "lower"),
    ("strain_life.inverse_values", "count", "lower"),
    ("strain_life.inverse_s", "s", "lower"),
    ("strain_life.scale_calls", "count", "lower"),
    ("strain_life.scale_elements", "count", "lower"),
    ("strain_life.scale_s", "s", "lower"),
    ("strain_life.distinct_ratio", "ratio", "lower"),
    ("weakest_link.aggregate_calls", "count", "lower"),
    ("weakest_link.aggregate_elements", "count", "lower"),
    ("weakest_link.aggregate_s", "s", "lower"),
    ("weakest_link.sample_draws", "count", "lower"),
    ("weakest_link.sample_s", "s", "lower"),
    ("weakest_link.quantile_s", "s", "lower"),
    *[(f"likelihood.{stem}.{regime}", unit, "lower")
      for _, regime in FACTORIES
      for stem, unit in (("evals", "count"), ("eval_ms_p50", "ms"), ("eval_ms_p99", "ms"), ("build_s", "s"))],
    ("optimize.starts", "count", "lower"),
    ("optimize.iterations", "count", "lower"),
    ("optimize.evals_per_iteration", "ratio", "lower"),
    ("optimize.budget_stops", "count", "lower"),
    ("optimize.self_s", "s", "lower"),
    *[(f"cli.self_s.{command}", "s", "lower") for command in COMMANDS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage_min", "ratio", "higher"),
)


def _size(value) -> int:
    return int(np.size(value))


class Tracer:
    """Spans and counts of one traced pass over a workload's commands."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.starts = []  # one record per Nelder-Mead start
        self.tables = {}  # table file name -> elements and distinct amplitudes per level
        self.missing = []  # traced names the program no longer has
        self.command = ""
        self._undo = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None):
        spans = self.spans
        idx = len(spans)
        spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            spans[idx][1] = start
            spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def run_command(self, command: str, main, argv) -> int:
        self.command = command
        return self.call(f"cli.{command}", main, (argv,))

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every porelife module's reference to ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "porelife" or mod_name.startswith("porelife.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _wrap(self, name, original, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        after = {
            "field.synth": lambda a, k, r: self.counts.update({"field.synth_elements": r[0].n_elements}),
            "field.criterion": lambda a, k, r: self.counts.update({"field.criterion_cells": _size(r.delta_eps)}),
            "field.table_load": self._on_table_load,
            "strain_life.inverse": lambda a, k, r: self.counts.update({"strain_life.inverse_values": _size(r)}),
            "strain_life.scale": lambda a, k, r: self.counts.update({"strain_life.scale_elements": _size(r)}),
            "weakest_link.aggregate": lambda a, k, r: self.counts.update(
                {"weakest_link.aggregate_elements": _size(a[0] if a else k["element_scales"])}),
            "weakest_link.sample": lambda a, k, r: self.counts.update({"weakest_link.sample_draws": _size(r[0])}),
        }
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._replace(original, self._wrap(name, original, after.get(name)))
        likelihood = sys.modules["porelife.likelihood"]
        for attr, regime in FACTORIES:
            original = getattr(likelihood, attr, None)
            if original is None:
                self.missing.append(f"porelife.likelihood.{attr}")
                continue
            self._replace(original, self._factory(original, regime))
        optimize = sys.modules["porelife.optimize"]
        self._replace(optimize.nelder_mead, self._nelder_mead(optimize.nelder_mead))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _factory(self, original, regime):
        tracer = self

        def build(*args, **kwargs):
            evaluate = tracer.call(f"likelihood.build.{regime}", original, args, kwargs)

            def traced_evaluate(params):
                return tracer.call(f"likelihood.eval.{regime}", evaluate, (params,))

            return traced_evaluate

        return build

    def _nelder_mead(self, original):
        tracer = self
        default_budget = inspect.signature(original).parameters["budget"].default

        def wrapper(f, x0, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            result = tracer.call("optimize.nelder_mead", original, (counted, x0, *args), kwargs)
            budget = kwargs.get("budget", args[0] if args else default_budget)
            tracer.starts.append({
                "command": tracer.command,
                "iterations": int(result.iterations),
                "evals": evals[0],
                "budget": int(budget),
                "stop": "budget" if result.iterations >= budget else "spread_tol",
            })
            return result

        return wrapper

    def _on_table_load(self, args, kwargs, table) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["field.table_bytes_read"] += os.path.getsize(path)
        name = os.path.basename(str(path))
        if name not in self.tables:
            self.tables[name] = {
                "elements": int(table.element_ids.size),
                "distinct_per_level": [int(np.unique(col).size) for col in table.delta_eps.T],
            }

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """(self seconds by span name, calls by span name, durations by span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, calls, durations = defaultdict(float), Counter(), defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
            calls[name] += 1
            durations[name].append(end - start)
        return own, calls, durations

    def command_coverage(self) -> dict:
        """Share of each command's wall time that falls in named layer spans."""
        own, _, durations = self.self_times()
        return {
            name[len("cli."):]: 1.0 - own[name] / sum(durations[name])
            for name in durations if name.startswith("cli.")
        }

    def counters(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        _, calls, _ = self.self_times()
        return {
            "calls": dict(sorted(calls.items())),
            "counts": dict(sorted(self.counts.items())),
            "starts": self.starts,
            "tables": dict(sorted(self.tables.items())),
        }

    def layer_metrics(self) -> dict:
        own, calls, durations = self.self_times()
        counts = self.counts
        cells = counts["field.criterion_cells"]
        scale_elements = counts["strain_life.scale_elements"]
        table_load_s = own["field.table_load"]
        metrics = {
            "field.synth_s": own["field.synth"],
            "field.synth_elements": counts["field.synth_elements"],
            "field.field_io_s": own["field.field_io"],
            "field.criterion_s": own["field.criterion"],
            "field.criterion_cells": cells,
            "field.criterion_reuse_ratio": 1.0 - calls["material_point.neuber"] / cells if cells else 0.0,
            "material_point.neuber_calls": calls["material_point.neuber"],
            "material_point.neuber_s": own["material_point.neuber"],
            "material_point.direction_calls": calls["material_point.direction"],
            "material_point.direction_s": own["material_point.direction"],
            "field.table_load_s": table_load_s,
            "field.table_bytes_read": counts["field.table_bytes_read"],
            "field.table_load_mb_per_s": counts["field.table_bytes_read"] / 1e6 / table_load_s if table_load_s else 0.0,
            "field.table_save_s": own["field.table_save"],
            "strain_life.inverse_calls": calls["strain_life.inverse"],
            "strain_life.inverse_values": counts["strain_life.inverse_values"],
            "strain_life.inverse_s": own["strain_life.inverse"],
            "strain_life.scale_calls": calls["strain_life.scale"],
            "strain_life.scale_elements": scale_elements,
            "strain_life.scale_s": own["strain_life.scale"],
            "strain_life.distinct_ratio": counts["strain_life.inverse_values"] / scale_elements if scale_elements else 0.0,
            "weakest_link.aggregate_calls": calls["weakest_link.aggregate"],
            "weakest_link.aggregate_elements": counts["weakest_link.aggregate_elements"],
            "weakest_link.aggregate_s": own["weakest_link.aggregate"],
            "weakest_link.sample_draws": counts["weakest_link.sample_draws"],
            "weakest_link.sample_s": own["weakest_link.sample"],
            "weakest_link.quantile_s": own["weakest_link.quantile"],
        }
        for _, regime in FACTORIES:
            ms = [1e3 * d for d in durations[f"likelihood.eval.{regime}"]]
            metrics[f"likelihood.evals.{regime}"] = len(ms)
            metrics[f"likelihood.eval_ms_p50.{regime}"] = statistics.median(ms) if ms else 0.0
            metrics[f"likelihood.eval_ms_p99.{regime}"] = float(np.percentile(ms, 99)) if ms else 0.0
            metrics[f"likelihood.build_s.{regime}"] = own[f"likelihood.build.{regime}"]
        iterations = sum(s["iterations"] for s in self.starts)
        metrics.update({
            "optimize.starts": len(self.starts),
            "optimize.iterations": iterations,
            "optimize.evals_per_iteration": sum(s["evals"] for s in self.starts) / iterations if iterations else 0.0,
            "optimize.budget_stops": sum(1 for s in self.starts if s["stop"] == "budget"),
            "optimize.self_s": own["optimize.calibrate"] + own["optimize.nelder_mead"],
        })
        for command in COMMANDS:
            metrics[f"cli.self_s.{command}"] = own[f"cli.{command}"]
        coverage = self.command_coverage()
        metrics["trace.coverage_min"] = min(coverage.values()) if coverage else 0.0
        return metrics

    def self_seconds_by_span(self) -> dict:
        own, calls, _ = self.self_times()
        return {name: {"self_s": own[name], "calls": calls[name]} for name in sorted(own)}
