"""Span recording around the epistab modules, installed from outside the package.

Every public function of each layer module is replaced, for the duration of
a ``Patch`` context, by a wrapper that records one span: the function, its
start and end, and the span that was open when it was called.  The wrapper is
set on every module attribute bound to the original function, so names that
other modules bound with ``from .x import y`` are traced too.  Spans stay in
memory until ``Recorder.save`` writes them at the end of the run.

Self time is a span's duration minus the durations of its child spans.
Per-layer metrics sum self time and calls over groups of functions and are
reported per benchmark op.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "linalg", "compound", "lozinskii", "stability", "covid", "seir", "sim",
          "paper_check")

# metric prefix -> traced functions whose calls and self time it sums
GROUPS = {
    "cli.main": ("cli.main",),
    "cli.build_parser": ("cli.build_parser",),
    "linalg.determinant": ("linalg.determinant",),
    "linalg.eigenvalues": ("linalg.eigenvalues",),
    "linalg.inverse": ("linalg.inverse", "linalg.solve"),
    "compound.add_compound": ("compound.add_compound",),
    "compound.mult_compound": ("compound.mult_compound",),
    "lozinskii.measure": ("lozinskii.measure",),
    "stability.criteria": ("stability.hurwitz_exact", "stability.li_wang_exact",
                           "stability.li_wang_sufficient", "stability.schur_sufficient",
                           "stability.m_matrix", "stability.cubic_stability"),
    "covid.rhs": ("covid.rhs",),
    "covid.sum_rate": ("covid.sum_rate",),
    "covid.report": ("covid.stability_report", "covid.ngm_full", "covid.dfe", "covid.endemic",
                     "covid.det_jp0", "covid.chi_cubic"),
    "seir.rhs3": ("seir.rhs3",),
    "seir.report": ("seir.seir_stability", "seir.endemic3"),
    "sim.integrate": ("sim.integrate",),
    "sim.invariance_audit": ("sim.invariance_audit",),
    "sim.trajectory_to_csv": ("sim.trajectory_to_csv",),
    "paper_check.build_report": ("paper_check.build_report",),
}

# counters reported per op; cli.out_bytes is counted by the CLI op runner
COUNTERS = ("cli.out_bytes", "compound.entries", "covid.rhs.states", "sim.steps",
            "sim.csv_bytes", "paper_check.claims", "paper_check.flagged")

_VERDICT_FUNCTIONS = ("stability.hurwitz_exact", "stability.li_wang_exact",
                      "stability.li_wang_sufficient", "stability.cubic_stability")


def _count_verdict(counters, out):
    counters["stability.verdicts"] += 1
    counters["stability.inconclusive"] += out.outcome == "inconclusive"


def _count_entries(counters, out):
    counters["compound.entries"] += out.size


def _count_states(counters, out):
    counters["covid.rhs.states"] += out.size // 5


def _count_steps(counters, out):
    counters["sim.steps"] += (len(out.times) - 1) * int(np.prod(out.states.shape[1:-1]))


def _count_csv(counters, out):
    counters["sim.csv_bytes"] += len(out)


def _count_claims(counters, out):
    counters["paper_check.claims"] += len(out)
    counters["paper_check.flagged"] += sum(c.verdict == "flagged" for c in out)


# counters read off a call's result, after its span has closed
HOOKS = {
    "compound.add_compound": _count_entries,
    "compound.mult_compound": _count_entries,
    "covid.rhs": _count_states,
    "sim.integrate": _count_steps,
    "sim.trajectory_to_csv": _count_csv,
    "paper_check.build_report": _count_claims,
    **{name: _count_verdict for name in _VERDICT_FUNCTIONS},
}


class Recorder:
    """Spans and counters of one traced run, held in flat arrays."""

    def __init__(self):
        self.functions = []            # span name per function id
        self.name = array("l")         # function id per span
        self.parent = array("l")       # index of the enclosing span, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._open = [-1]

    def wrap(self, qualname, fn):
        """``fn`` recording one span per call under ``qualname``."""
        fid = len(self.functions)
        self.functions.append(qualname)
        hook = HOOKS.get(qualname)
        name, parent, start, end, open_spans = (self.name, self.parent, self.start, self.end,
                                                self._open)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(fid)
            parent.append(open_spans[-1])
            start.append(0.0)
            end.append(0.0)
            open_spans.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                start[i] = t0
                end[i] = t1
            if hook is not None:
                hook(counters, out)
            return out

        return traced

    def spans(self):
        """(name id, parent, start, end) as NumPy arrays."""
        return (np.frombuffer(self.name, dtype=np.int_), np.frombuffer(self.parent, dtype=np.int_),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        name, parent, start, end = self.spans()
        np.savez(path, functions=np.array(self.functions), name=name, parent=parent,
                 start=start, end=end)


def self_times(parent, start, end):
    """Each span's duration minus the summed durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - children


class Patch:
    """Context manager that swaps every binding of each public layer function
    for its traced wrapper, and restores the originals on exit."""

    def __init__(self, recorder):
        package = importlib.import_module("epistab")
        modules = {layer: importlib.import_module(f"epistab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = recorder.wrap(f"{layer}.{attr}", obj)
        self._bindings = [
            (mod, attr, obj, wrappers[obj])
            for mod in (package, *modules.values())
            for attr, obj in vars(mod).items()
            if isinstance(obj, types.FunctionType) and obj in wrappers
        ]

    def __enter__(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)
        return False


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for group in GROUPS:
        units[f"{group}.calls"] = "count/op"
        units[f"{group}.self_ms"] = "ms/op"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms/op"
    for counter in COUNTERS:
        units[counter] = "bytes/op" if counter.endswith("bytes") else "count/op"
    units["stability.inconclusive_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_layer_metrics(recorder, ops, overhead_ratio):
    """Per-layer metrics of a traced run covering ``ops`` benchmark ops."""
    name, parent, start, end = recorder.spans()
    own = self_times(parent, start, end)
    n = len(recorder.functions)
    calls = dict(zip(recorder.functions, np.bincount(name, minlength=n).tolist()))
    self_ms = dict(zip(recorder.functions,
                       (np.bincount(name, weights=own, minlength=n) * 1e3).tolist()))

    values = {}
    for group, members in GROUPS.items():
        values[f"{group}.calls"] = sum(calls.get(m, 0) for m in members) / ops
        values[f"{group}.self_ms"] = sum(self_ms.get(m, 0.0) for m in members) / ops
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(
            s for q, s in self_ms.items() if q.split(".")[0] == layer) / ops
    for counter in COUNTERS:
        values[counter] = recorder.counters[counter] / ops
    verdicts = recorder.counters["stability.verdicts"]
    values["stability.inconclusive_ratio"] = (
        recorder.counters["stability.inconclusive"] / verdicts if verdicts else 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}
