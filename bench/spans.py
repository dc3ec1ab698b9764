"""In-memory spans around the layer calls of a verdict, and per-layer metrics.

Tracing rebinds the module attributes through which ``stokes``,
``darboux``, ``forms`` and ``cubes`` reach each other, so the program
itself is unchanged: a wrapped function records a span (name, start,
end, parent) and, where a metric needs it, a count taken from its
arguments or result.  Spans stay in memory for one pass and are folded
into per-layer metrics when the pass ends.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) call sites that are rebound, by span name
_SITES = {
    "expr.parse_expr": [("stokes", "parse_expr")],
    "expr.eval_enclosure": [("darboux", "eval_enclosure")],
    "expr.partial_diff": [("forms", "partial_diff")],
    "expr.compose": [("forms", "compose"), ("cubes", "compose")],
    "forms.exterior_derivative": [("stokes", "exterior_derivative")],
    "forms.pullback": [("stokes", "pullback")],
    "cubes.boundary": [("stokes", "boundary")],
    "cubes.chain_normalize": [("stokes", "chain_normalize")],
    "cubes.cubes_equal": [("cubes", "cubes_equal")],
    "darboux.integral_estimate": [("stokes", "integral_estimate")],
    "darboux.uniform_partition": [("darboux", "uniform_partition")],
    "darboux.darboux_sums": [("darboux", "darboux_sums")],
    "stokes.scenario_from_dict": [("stokes", "scenario_from_dict")],
    "stokes.run_scenario": [("stokes", "run_scenario")],
    "stokes.integrate_over_cube": [("stokes", "integrate_over_cube")],
}

# name, unit, better; the predicted moves are listed in bench/README.md
PER_LAYER = (
    ("expr.parse.calls", "count", "lower"),
    ("expr.parse.s", "s", "lower"),
    ("expr.enclose.calls", "count", "lower"),
    ("expr.enclose.us_per_call", "us", "lower"),
    ("expr.symbolic.calls", "count", "lower"),
    ("expr.symbolic.s", "s", "lower"),
    ("forms.d.s", "s", "lower"),
    ("forms.pullback.calls", "count", "lower"),
    ("forms.pullback.s", "s", "lower"),
    ("cubes.boundary.s", "s", "lower"),
    ("cubes.normalize.calls", "count", "lower"),
    ("cubes.normalize.s", "s", "lower"),
    ("cubes.equal.calls", "count", "lower"),
    ("cubes.normalize.terms_in", "count", "lower"),
    ("cubes.normalize.terms_out", "count", "lower"),
    ("darboux.levels", "count", "lower"),
    ("darboux.cells", "count", "lower"),
    ("darboux.useful_cells_frac", "ratio", "higher"),
    ("darboux.partition.s", "s", "lower"),
    ("darboux.sums.s", "s", "lower"),
    ("darboux.us_per_cell", "us", "lower"),
    ("darboux.us_per_cell.1d", "us", "lower"),
    ("darboux.us_per_cell.2d", "us", "lower"),
    ("darboux.us_per_cell.3d", "us", "lower"),
    ("darboux.noconv", "count", "lower"),
    ("stokes.load.s", "s", "lower"),
    ("stokes.verify.s", "s", "lower"),
    ("stokes.verdicts", "count", "higher"),
    ("stokes.gap_re.max", "abs", "lower"),
    ("stokes.gap_ze.max", "abs", "lower"),
    ("stokes.lhs.gap_re.max", "abs", "lower"),
    ("stokes.lhs.gap_ze.max", "abs", "lower"),
    ("stokes.rhs.gap_re.max", "abs", "lower"),
    ("stokes.rhs.gap_ze.max", "abs", "lower"),
    ("stokes.lhs.cube_gap_re.max", "abs", "lower"),
    ("stokes.lhs.cube_gap_ze.max", "abs", "lower"),
    ("stokes.rhs.cube_gap_re.max", "abs", "lower"),
    ("stokes.rhs.cube_gap_ze.max", "abs", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# work counts: a pass does the same work every time, so these must repeat
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")

_DIMS = (1, 2, 3)


class Tracer:
    """Traced wrappers for every call site, and the spans of the current pass.

    `modules` maps the names used in _SITES to the imported modules.  The
    wrappers are installed by ``switch(True)`` and removed by
    ``switch(False)``.
    """

    def __init__(self, modules: dict):
        self.spans = []   # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = Counter()
        self.gaps = defaultdict(float)
        self.pending_cubes = []  # (cube.k, estimate) in the current verdict
        self.last_cells = 0
        hooks = {
            "cubes.chain_normalize": self._normalized,
            "darboux.uniform_partition": self._partitioned,
            "darboux.darboux_sums": self._summed,
            "darboux.integral_estimate": self._estimated,
            "stokes.integrate_over_cube": self._cube_integrated,
            "stokes.run_scenario": self._verified,
        }
        self.sites = []  # (module, attribute, original, traced)
        for name, sites in _SITES.items():
            for module_name, attr in sites:
                module = modules[module_name]
                original = getattr(module, attr)
                self.sites.append((module, attr, original, self.wrap(
                    name, original, hooks.get(name))))

    def switch(self, traced: bool) -> None:
        for module, attr, original, wrapper in self.sites:
            setattr(module, attr, wrapper if traced else original)

    def wrap(self, name, fn, on_exit=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_exit is not None:
                on_exit(args, result, end - start)
            return result

        return traced

    def _reset(self):
        self.spans.clear()
        self.counts.clear()
        self.gaps.clear()
        self.pending_cubes.clear()

    # hooks -----------------------------------------------------------------

    def _normalized(self, args, chain, _seconds):
        self.counts["terms_in"] += len(args[0].terms)
        self.counts["terms_out"] += len(chain.terms)

    def _partitioned(self, _args, partition, _seconds):
        self.last_cells = len(partition.cells)
        self.counts[f"cells.{partition.rect.dim}d"] += self.last_cells

    def _summed(self, args, _sums, seconds):
        self.counts[f"sums_s.{args[1].rect.dim}d"] += seconds

    def _estimated(self, _args, _estimate, _seconds):
        # the last partition of a converged estimate is its accepted level
        self.counts["estimates_converged"] += 1
        self.counts["cells_accepted"] += self.last_cells

    def _cube_integrated(self, args, estimate, _seconds):
        self.pending_cubes.append((args[1].k, estimate))

    def _verified(self, args, report, _seconds):
        k = args[0].k
        for cube_k, est in self.pending_cubes:
            side = "lhs" if cube_k == k else "rhs"
            self._max(f"{side}.cube_gap_re", est.gap_re)
            self._max(f"{side}.cube_gap_ze", est.gap_ze)
        self.pending_cubes.clear()
        for side, est in (("lhs", report.lhs), ("rhs", report.rhs)):
            if est is not None:
                self._max(f"{side}.gap_re", est.gap_re)
                self._max(f"{side}.gap_ze", est.gap_ze)

    def _max(self, key, value):
        self.gaps[key] = max(self.gaps[key], value)

    # metrics ---------------------------------------------------------------

    def fold(self) -> dict:
        """Per-layer metrics of the pass just run; clears the pass's spans."""
        calls = Counter()
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        c = self.counts
        cells = sum(c[f"cells.{d}d"] for d in _DIMS)
        sums_s = sum(c[f"sums_s.{d}d"] for d in _DIMS)
        gaps = self.gaps

        def per(seconds, count):
            return 1e6 * seconds / count if count else 0.0

        m = {
            "expr.parse.calls": calls["expr.parse_expr"],
            "expr.parse.s": own["expr.parse_expr"],
            "expr.enclose.calls": calls["expr.eval_enclosure"],
            "expr.enclose.us_per_call": per(total["expr.eval_enclosure"],
                                            calls["expr.eval_enclosure"]),
            "expr.symbolic.calls": (calls["expr.partial_diff"]
                                    + calls["expr.compose"]),
            "expr.symbolic.s": own["expr.partial_diff"] + own["expr.compose"],
            "forms.d.s": own["forms.exterior_derivative"],
            "forms.pullback.calls": calls["forms.pullback"],
            "forms.pullback.s": own["forms.pullback"],
            "cubes.boundary.s": own["cubes.boundary"],
            "cubes.normalize.calls": calls["cubes.chain_normalize"],
            "cubes.normalize.s": (own["cubes.chain_normalize"]
                                  + own["cubes.cubes_equal"]),
            "cubes.equal.calls": calls["cubes.cubes_equal"],
            "cubes.normalize.terms_in": c["terms_in"],
            "cubes.normalize.terms_out": c["terms_out"],
            "darboux.levels": calls["darboux.uniform_partition"],
            "darboux.cells": cells,
            "darboux.useful_cells_frac": (c["cells_accepted"] / cells
                                          if cells else 0.0),
            "darboux.partition.s": own["darboux.uniform_partition"],
            "darboux.sums.s": (own["darboux.darboux_sums"]
                               + own["darboux.integral_estimate"]),
            "darboux.us_per_cell": per(sums_s, cells),
            "darboux.noconv": (calls["darboux.integral_estimate"]
                               - c["estimates_converged"]),
            "stokes.load.s": own["stokes.scenario_from_dict"],
            "stokes.verify.s": (own["stokes.run_scenario"]
                                + own["stokes.integrate_over_cube"]),
            "stokes.verdicts": calls["stokes.run_scenario"],
            "stokes.gap_re.max": max(gaps["lhs.gap_re"], gaps["rhs.gap_re"]),
            "stokes.gap_ze.max": max(gaps["lhs.gap_ze"], gaps["rhs.gap_ze"]),
        }
        for d in _DIMS:
            m[f"darboux.us_per_cell.{d}d"] = per(c[f"sums_s.{d}d"],
                                                 c[f"cells.{d}d"])
        for side in ("lhs", "rhs"):
            for part in ("re", "ze"):
                m[f"stokes.{side}.gap_{part}.max"] = gaps[f"{side}.gap_{part}"]
                m[f"stokes.{side}.cube_gap_{part}.max"] = \
                    gaps[f"{side}.cube_gap_{part}"]
        self._reset()
        return m


def summarize(passes: list[dict]) -> tuple[dict, list[str]]:
    """Median of each metric over traced passes, and the counts that differ."""
    summary = {name: passes[0][name] if name in COUNTS
               else statistics.median(p[name] for p in passes)
               for name in passes[0]}
    unsteady = [name for name in COUNTS
                if len({p[name] for p in passes}) != 1]
    return summary, unsteady
