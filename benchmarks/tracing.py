"""Per-layer tracing from outside the package: wrap public functions, keep spans.

While a :class:`Tracer` is installed, each wrapped function records a span
``[layer, start, end, parent span, operation]`` in memory.  A function
imported by value into another module (``solver.temporal_weights``,
``properties.singular_integral``, ``gamma_fn`` in ``fracops``, ``assembly``
and ``properties``) is rebound there too, by finding every fracstep module
attribute that is the original object.  Uninstalling restores the originals.

Counts that describe the work rather than its timing are computed here from
the call's own arguments and from the cache files, never from the program's
reports of itself: ``SolveReport.history_flops`` counts the naive history sum
only, and a faster history path will make it stale.
"""

import inspect
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from fracstep import (assembly, fem1d, fracops, gammafn, harness, properties,
                      quadrature, solver)

# layer name -> (owner, attribute); the layer name prefixes the metric names
LAYERS = {
    "fracops.history": (fracops.TemporalWeightMatrix, "history_dot"),
    "fracops.weights": (fracops, "temporal_weights"),
    "fem1d.step_solve": (fem1d.ThomasFactor, "solve"),
    "fem1d.factor": (fem1d.TridiagonalMatrix, "factor"),
    "fem1d.quadform": (fem1d.TridiagonalMatrix, "quadform_rows"),
    "fem1d.prolong": (fem1d, "prolong_rows"),
    "assembly.load": (assembly, "assemble_load"),
    "solver.solve": (solver, "solve"),
    "harness.sweep": (harness, "run_sweep"),
    "harness.error": (harness, "space_time_error"),
    "harness.cache_read": (harness, "load_cached_reference"),
    "harness.cache_write": (harness, "store_reference"),
    "quadrature.singular": (quadrature, "singular_integral"),
    "quadrature.fixed_order": (quadrature, "fixed_order_integral"),
    "properties.suite": (properties, "run_property_suite"),
    "gammafn.gamma": (gammafn, "gamma_fn"),
}

# per-layer metric -> (unit, better); ``_s`` is seconds per operation and
# counts are per operation unless they are a ratio or a maximum
METRICS = {
    "fracops.history_s": ("s", "lower"),
    "fracops.history_calls": ("count", "lower"),
    "fracops.history_madds": ("madd", "lower"),
    "fracops.history_bytes": ("B", "lower"),
    "fracops.weights_s": ("s", "lower"),
    "fem1d.step_solve_s": ("s", "lower"),
    "fem1d.step_solve_calls": ("count", "lower"),
    "fem1d.factor_s": ("s", "lower"),
    "fem1d.quadform_s": ("s", "lower"),
    "fem1d.prolong_s": ("s", "lower"),
    "assembly.load_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.solves": ("count", "lower"),
    "solver.unknowns": ("count", "lower"),
    "solver.max_residual": ("1", "lower"),
    "solver.max_energy_gap": ("1", "lower"),
    "harness.sweep_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.error_s": ("s", "lower"),
    "harness.cache_read_s": ("s", "lower"),
    "harness.cache_bytes_read": ("B", "lower"),
    "harness.cache_write_s": ("s", "lower"),
    "harness.cache_bytes_written": ("B", "lower"),
    "harness.cache_hit_ratio": ("ratio", "higher"),
    "quadrature.singular_s": ("s", "lower"),
    "quadrature.singular_calls": ("count", "lower"),
    "quadrature.fixed_order_s": ("s", "lower"),
    "properties.suite_s": ("s", "lower"),
    "properties.self_s": ("s", "lower"),
    "properties.passed": ("count", "higher"),
    "gammafn.gamma_s": ("s", "lower"),
    "gammafn.calls": ("count", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_SOLVE_SIGNATURE = inspect.signature(solver.solve)


def _directory_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path))


# Counters run after the wrapped call returns, outside its span.  The cache
# counters read file sizes: each sweep the benchmark runs has its own cache
# directory holding at most its one reference entry.

def _count_solve(counts, args, kwargs, result):
    bound = _SOLVE_SIGNATURE.bind(*args, **kwargs)
    steps = bound.arguments["grid"].num_steps
    unknowns = bound.arguments["mesh"].n_interior
    _, report = result
    counts["solver.solves"] += 1
    counts["solver.unknowns"] += steps * unknowns
    # naive history sum: step k multiplies k past rows of length N
    madds = unknowns * steps * (steps - 1) // 2
    counts["fracops.history_madds"] += madds
    counts["fracops.history_bytes"] += 8 * madds
    counts["solver.max_residual"] = max(counts["solver.max_residual"],
                                        float(report.residual_norms.max()))
    counts["solver.max_energy_gap"] = max(counts["solver.max_energy_gap"],
                                          report.energy_gap)


def _count_cache_read(counts, args, kwargs, result):
    counts["harness.cache_lookups"] += 1
    if result is not None:
        counts["harness.cache_hits"] += 1
        counts["harness.cache_bytes_read"] += _directory_bytes(args[0])


def _count_cache_write(counts, args, kwargs, result):
    counts["harness.cache_bytes_written"] += _directory_bytes(args[0])


def _count_suite(counts, args, kwargs, result):
    counts["properties.passed"] += sum(r.passed for r in result)


COUNTERS = {
    "solver.solve": _count_solve,
    "harness.cache_read": _count_cache_read,
    "harness.cache_write": _count_cache_write,
    "properties.suite": _count_suite,
}


class Tracer:
    """Spans and counts of the traced operations of one run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, layer, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self, op: int) -> None:
        """Wrap every layer, and its by-value bindings, for operation ``op``."""
        self.op = op
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fracstep" or name.startswith("fracstep.")]
        for layer, (owner, attr) in LAYERS.items():
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original)
            holders = [(owner, attr)]
            holders += [(m, name) for m in modules if m is not owner
                        for name, value in vars(m).items() if value is original]
            for holder, name in holders:
                self._restore.append((holder, name, original))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def self_times(self) -> dict:
        """Seconds per layer outside its child spans, summed over the run."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            own[layer] += end - start - child[index]
        return own

    def metrics(self, traced_times, untraced_times) -> dict:
        """Every per-layer metric, per traced operation; absent layers read 0."""
        ops = len(traced_times)
        total = defaultdict(float)
        calls = defaultdict(int)
        for layer, start, end, _, _ in self.spans:
            total[layer] += end - start
            calls[layer] += 1
        own = self.self_times()
        c = self.counts
        values = {f"{layer}_s": total[layer] / ops for layer in LAYERS}
        values.update({
            "fracops.history_calls": calls["fracops.history"] / ops,
            "fem1d.step_solve_calls": calls["fem1d.step_solve"] / ops,
            "quadrature.singular_calls": calls["quadrature.singular"] / ops,
            "gammafn.calls": calls["gammafn.gamma"] / ops,
            "solver.self_s": own["solver.solve"] / ops,
            "harness.self_s": own["harness.sweep"] / ops,
            "properties.self_s": own["properties.suite"] / ops,
            "harness.cache_hit_ratio": (c["harness.cache_hits"] / c["harness.cache_lookups"]
                                        if c["harness.cache_lookups"] else 0.0),
            "solver.max_residual": c["solver.max_residual"],
            "solver.max_energy_gap": c["solver.max_energy_gap"],
            "trace.op_s": statistics.median(traced_times),
            "trace.overhead_s": (statistics.median(traced_times)
                                 - statistics.median(untraced_times)),
        })
        for name in ("fracops.history_madds", "fracops.history_bytes",
                     "solver.solves", "solver.unknowns",
                     "harness.cache_bytes_read", "harness.cache_bytes_written",
                     "properties.passed"):
            values[name] = c[name] / ops
        return {name: values[name] for name in METRICS}

    def table(self, metrics, traced_ops: int) -> list:
        """Lines for people: seconds per traced operation and self-time share."""
        op_s = metrics["trace.op_s"]
        own = self.self_times()
        lines = [f"  traced op_s {op_s:.4f} s over {traced_ops} operations, tracing "
                 f"overhead {metrics['trace.overhead_s']:+.4f} s per operation",
                 f"  {'layer':24} {'total s/op':>11} {'self s/op':>10} {'self share':>10}"]
        for layer in LAYERS:
            total = metrics[f"{layer}_s"]
            if total > 0.0:
                self_s = own[layer] / traced_ops
                lines.append(f"  {layer:24} {total:11.4f} {self_s:10.4f} "
                             f"{self_s / op_s:10.1%}")
        return lines
