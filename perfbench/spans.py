"""Outside-in span tracing of sharpcheck's public functions.

``installed`` replaces each traced function on every ``sharpcheck`` module
that holds a reference to it, so a call is recorded under the name its
caller looks it up by (``harness.catalog.geometric_maximal``) and counted
under the layer that defines it (``operators.geometric_maximal``).  Ladder
steps are traced by swapping each catalog entry's runner.  Nothing under
``src/`` is edited, and every original is put back on exit.

Spans stay in memory on a :class:`Recorder`; the caller writes them out.
Work counts are computed from call arguments only, never from results, so a
change that alters what a function returns cannot change its counts.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "sharpcheck"


@dataclasses.dataclass
class Span:
    name: str          # lookup site, e.g. harness.catalog.geometric_maximal
    metric: str        # defining layer, e.g. operators.geometric_maximal
    parent: int        # index of the enclosing span in Recorder.spans, -1 at top
    run: str           # pass the span belongs to
    counts: dict
    start: float = 0.0
    end: float = 0.0


class Recorder:
    """Span collector for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    def call(self, name, metric, counts, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, metric, parent, self.run, counts)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> dict:
        fields = ["name", "metric", "parent", "run", "start", "end", "counts"]
        return {"fields": fields,
                "spans": [[getattr(s, f) for f in fields] for s in self.spans]}


# ---------------------------------------------------------------------------
# work counts, from call arguments

def _nodes(grid) -> int:
    return int(np.prod(grid.shape))


def _kept_radii(family, rho, mode) -> list[float]:
    # the radius filter geometric_maximal / geometric_sharp apply
    if mode == "at_least" and rho is not None:
        return [r for r in family.radii if r >= rho * (1 - 1e-12)]
    if mode == "at_most" and rho is not None:
        return [r for r in family.radii if r <= rho * (1 + 1e-12)]
    return list(family.radii) if mode == "all" else []


def _shape_nodes(grid, family, r: float) -> int:
    """Grid nodes in one shape of radius ``r``: the open spatial ball, times
    the forward time offsets ``t < r**2`` for cylinders."""
    axes = []
    for ax in grid.space_axes:
        k = int(np.floor(r / grid.spacing(ax) * (1 - 1e-12)))
        axes.append(np.arange(-k, k + 1) * grid.spacing(ax))
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    n = int((sum(m * m for m in mesh) < r * r).sum())
    if family.shape in ("cylinder", "half_cylinder"):
        kt = max(int(np.ceil(r * r / grid.spacing(0) * (1 - 1e-12))) - 1, 0)
        n *= int((np.arange(kt + 1) * grid.spacing(0) < r * r).sum())
    return n


def _count_geometric_maximal(a) -> dict:
    kept = _kept_radii(a["family"], a["rho"], a["mode"])
    return {"node_radii": _nodes(a["h"].grid) * len(kept)}


def _count_geometric_sharp(a) -> dict:
    grid, budget = a["h"].grid, int(a["pair_budget"])
    subsampled = pairs = 0
    for r in _kept_radii(a["family"], a["rho"], "at_most"):
        m = _shape_nodes(grid, a["family"], r)
        full = m * (m - 1) // 2
        subsampled += full > budget
        pairs += min(full, budget)
    return {"subsampled": subsampled, "pairs": pairs}


def _count_nodes(a) -> dict:
    return {"nodes": _nodes(a["u"].grid)}


def _count_entry(a) -> dict:
    return {"id": a["spec"].id}


# (defining module, function, counter); the layer name is the module path
# below the package, as in operators.geometric_maximal
TARGETS = (
    ("operators", "geometric_maximal", _count_geometric_maximal),
    ("operators", "geometric_sharp", _count_geometric_sharp),
    ("operators", "dyadic_maximal", None),
    ("operators", "dyadic_sharp", None),
    ("calculus", "evaluate_operator", _count_nodes),
    ("calculus", "fd_derivatives", _count_nodes),
    ("calculus", "check_operator_class", None),
    ("weights", "mixed_norm", None),
    ("weights", "node_masses", None),
    ("weights", "cell_masses", None),
    ("weights", "beta_type_constant", None),
    ("filtration", "cz_stopping_time", None),
    ("filtration", "stopped_value", None),
    ("harness.identity", "exact_identity_suite", None),
    ("harness.identity", "check_instance", None),
    ("harness.study", "run_estimate_check", _count_entry),
    ("harness.report", "suite_to_json", None),
    ("harness.report", "suite_to_csv", None),
)


def _largest_array(args) -> dict:
    # grid size of the first argument carrying node values, for the
    # working-set fact beside the cache sizes
    for arg in args:
        values = getattr(arg, "values", None)
        if isinstance(values, np.ndarray):
            grid = getattr(arg, "grid", None)
            nodes = _nodes(grid) if grid is not None else int(values.size)
            return {"grid_nodes": nodes, "grid_bytes": int(values.nbytes)}
    return {}


def _wrap(recorder, name, metric, fn, counter):
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        counts = _largest_array(args)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts.update(counter(bound.arguments))
        return recorder.call(name, metric, counts, fn, args, kwargs)

    traced.perfbench_span = True
    return traced


def _step_runner(recorder, entry_id, runner):
    def traced(params, x, seed):
        return recorder.call("harness.catalog.step", "harness.catalog.step",
                             {"id": entry_id, "x": float(x)}, runner, (params, x, seed), {})
    traced.perfbench_span = True
    return traced


def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def installed(recorder: Recorder):
    """Trace every function in ``TARGETS`` and every ladder step into
    ``recorder`` for the duration of the block."""
    catalog = importlib.import_module(PACKAGE + ".harness.catalog")
    patches = []                      # (namespace, key, original, wrapped)
    for layer, func, counter in TARGETS:
        original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), func, None)
        if original is None:
            continue                  # removed from the package: reported as 0 calls
        metric = f"{layer}.{func}"
        for mod_name, mod in _package_modules():
            site = mod_name[len(PACKAGE) + 1:] or PACKAGE
            for attr, value in list(vars(mod).items()):
                if value is original:
                    wrapped = _wrap(recorder, f"{site}.{attr}", metric, original, counter)
                    patches.append((vars(mod), attr, original, wrapped))
    for eid, entry in list(catalog.ENTRIES.items()):
        stepped = dataclasses.replace(entry, runner=_step_runner(recorder, eid, entry.runner))
        patches.append((catalog.ENTRIES, eid, entry, stepped))
    try:
        for space, key, _, wrapped in patches:
            space[key] = wrapped
        yield
    finally:
        for space, key, original, _ in reversed(patches):
            space[key] = original


def leftover_wrappers() -> list[str]:
    """Names of tracing wrappers still installed anywhere in the package."""
    catalog = importlib.import_module(PACKAGE + ".harness.catalog")
    found = [f"{name}.{attr}" for name, mod in _package_modules()
             for attr, value in vars(mod).items() if getattr(value, "perfbench_span", False)]
    return found + [f"ENTRIES[{eid}]" for eid, e in catalog.ENTRIES.items()
                    if getattr(e.runner, "perfbench_span", False)]


# ---------------------------------------------------------------------------
# aggregation

def per_pass_metrics(spans: list[Span], run: str) -> dict:
    """Per-layer ``.s``, ``.calls`` and work counts of one traced pass.

    ``.s`` sums the outermost spans of a metric, so a function that reaches
    itself again through another traced site is not counted twice.
    """
    out: dict[str, float] = {}
    for span in spans:
        if span.run != run:
            continue
        if span.metric == "harness.study.run_estimate_check":
            key = f"harness.study.entry.{span.counts['id']}"
        else:
            key = span.metric
        nested = False
        p = span.parent
        while p >= 0:
            if spans[p].metric == span.metric:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            out[f"{key}.s"] = out.get(f"{key}.s", 0.0) + (span.end - span.start)
        out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
        for name in ("node_radii", "subsampled", "pairs", "nodes"):
            if name in span.counts:
                out[f"{key}.{name}"] = out.get(f"{key}.{name}", 0) + span.counts[name]
    return out


def self_times(spans: list[Span], run: str) -> dict:
    """Self time per span name: duration minus the time child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.run == run and span.parent >= 0:
            child[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        if span.run == run:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - child[i]
    return out


def largest_grid(spans: list[Span]) -> dict:
    best = {"grid_nodes": 0, "grid_bytes": 0}
    for span in spans:
        if span.counts.get("grid_bytes", 0) > best["grid_bytes"]:
            best = {k: span.counts[k] for k in best}
    return best


def median_metrics(passes: list[dict]) -> dict:
    keys = sorted(set().union(*passes))
    return {k: statistics.median(p.get(k, 0) for p in passes) for k in keys}
