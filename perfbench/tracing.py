"""Spans around lctk's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``lctk`` module that binds it, and replaces the dispatcher's two
kernel lanes (``lctk.kernels._compiled`` and ``lctk.kernels._py``) by
namespaces of wrapped functions, so lane calls are counted where the
dispatcher makes them.  A span is ``[name, start, end, parent, item]``;
spans stay in memory until the pass ends.  ``remove`` restores every
original binding.
"""

import sys
import types
from collections import defaultdict
from time import perf_counter

#: (module, function) pairs wrapped by the tracer; the span name is
#: "<module>.<function>".
TRACED = [
    ("kernels", "count_cut_complement"),
    ("kernels", "diagonal_cell"),
    ("kernels", "power_minimal"),
    ("kernels", "product_minimal"),
    ("simplex", "solve_min"),
    ("thresholds", "kiselman_lct"),
    ("thresholds", "howald_lct"),
    ("thresholds", "worst_diagonal_minorant"),
    ("multiplicities", "hilbert_table"),
    ("multiplicities", "fit_multiplicities"),
    ("multiplicities", "covolume_times_factorial"),
    ("bounds", "build_bounds_report"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "initial_ideal"),
    ("report", "build_ideal_report"),
]

#: Kernel functions the dispatcher calls on a lane.
LANE_FUNCTIONS = ("minimalize", "product_minimal", "count_cut_complement",
                  "diagonal_cell")

#: Attribute that marks a wrapper, so leftovers can be found.
MARK = "_perfbench_span"


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self.table_cells = 0
        self.initial_ideals = 0
        self.repeated_initial_ideals = 0
        self._seen_initial = {}

    def wrap(self, name, fn, on_return=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, perf_counter(), None,
                    stack[-1] if stack else None, self.item]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        setattr(traced, MARK, name)
        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span named name."""
        return self.wrap(name, fn)(*args)

    def _count_table(self, table):
        self.table_cells += (table.window + 1) ** 2

    def _count_initial(self, ideal):
        seen = self._seen_initial.setdefault(self.item, set())
        self.initial_ideals += 1
        if (ideal.n, ideal.generators) in seen:
            self.repeated_initial_ideals += 1
        seen.add((ideal.n, ideal.generators))

    def install(self, lctk):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"hilbert_table": self._count_table,
                 "initial_ideal": self._count_initial}
        modules = loaded_modules(lctk)
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(lctk, mod_name), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original,
                                hooks.get(fn_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        kernels = lctk.kernels
        for attr, lane in (("_compiled", "compiled"), ("_py", "python")):
            real = getattr(kernels, attr)
            proxy = types.SimpleNamespace(**{
                fn: self.wrap(f"lane.{lane}.{fn}", getattr(real, fn))
                for fn in LANE_FUNCTIONS})
            setattr(proxy, MARK, lane)
            self._patch(kernels, attr, proxy)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def loaded_modules(lctk):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lctk" or name.startswith("lctk."))]


def leftover_wrappers(lctk):
    """Names of traced wrappers still bound anywhere in lctk."""
    return sorted(f"{m.__name__}.{attr}"
                  for m in loaded_modules(lctk)
                  for attr, value in vars(m).items()
                  if hasattr(value, MARK))


class SpanIndex:
    """Busy, self and call figures per span name."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, (name, start, end, parent, _) in enumerate(spans):
            self.calls[name] += 1
            self.self_time[name] += end - start - child_time[sid]
            if not self._nested_in_same(spans, parent, name):
                self.busy[name] += end - start

    @staticmethod
    def _nested_in_same(spans, parent, name):
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def prefix_calls(self, prefix):
        return sum(c for name, c in self.calls.items()
                   if name.startswith(prefix))


def layer_metrics(tracer):
    """Per-layer figures of one traced pass, keyed by metric name."""
    idx = SpanIndex(tracer.spans)
    compiled = idx.prefix_calls("lane.compiled.")
    python = idx.prefix_calls("lane.python.")
    lane_count_busy = (idx.busy["lane.compiled.count_cut_complement"]
                       + idx.busy["lane.python.count_cut_complement"])
    initial = tracer.initial_ideals
    return {
        "item.busy_s": idx.busy["item"],
        "kernels.dispatch_s":
            idx.busy["kernels.count_cut_complement"] - lane_count_busy,
        "kernels.count_cut_complement.calls":
            idx.calls["kernels.count_cut_complement"],
        "kernels.count_cut_complement.busy_s":
            idx.busy["kernels.count_cut_complement"],
        "kernels.diagonal_cell.calls": idx.calls["kernels.diagonal_cell"],
        "kernels.diagonal_cell.busy_s": idx.busy["kernels.diagonal_cell"],
        "kernels.power_minimal.busy_s": idx.busy["kernels.power_minimal"],
        "kernels.product_minimal.busy_s":
            idx.busy["kernels.product_minimal"],
        "kernels.compiled_calls": compiled,
        "kernels.python_calls": python,
        "kernels.fallback_share":
            python / (compiled + python) if compiled + python else 0.0,
        "simplex.solve_min.calls": idx.calls["simplex.solve_min"],
        "simplex.solve_min.busy_s": idx.busy["simplex.solve_min"],
        "thresholds.kiselman_lct.calls":
            idx.calls["thresholds.kiselman_lct"],
        "thresholds.kiselman_lct.self_s":
            idx.self_time["thresholds.kiselman_lct"],
        "thresholds.howald_lct.busy_s": idx.busy["thresholds.howald_lct"],
        "thresholds.worst_diagonal_minorant.busy_s":
            idx.busy["thresholds.worst_diagonal_minorant"],
        "multiplicities.hilbert_table.calls":
            idx.calls["multiplicities.hilbert_table"],
        "multiplicities.table_cells": tracer.table_cells,
        "multiplicities.hilbert_table.busy_s":
            idx.busy["multiplicities.hilbert_table"],
        "multiplicities.fit_self_s":
            idx.self_time["multiplicities.fit_multiplicities"],
        "multiplicities.covolume_times_factorial.busy_s":
            idx.busy["multiplicities.covolume_times_factorial"],
        "bounds.build_bounds_report.busy_s":
            idx.busy["bounds.build_bounds_report"],
        "groebner.buchberger.calls": idx.calls["groebner.buchberger"],
        "groebner.buchberger.busy_s": idx.busy["groebner.buchberger"],
        "groebner.normal_form.calls": idx.calls["groebner.normal_form"],
        "groebner.repeat_initial_share":
            tracer.repeated_initial_ideals / initial if initial else 0.0,
        "report.build_ideal_report.self_s":
            idx.self_time["report.build_ideal_report"],
        "serialize.busy_s": idx.busy["serialize"],
    }
