"""Spans around psdo's public functions, recorded from outside the package.

Every public function defined in a layer module is wrapped, and every module
attribute in the package bound to it is patched, because psdo modules import
each other's functions by name (`verification.solve_principal` is a binding
of `elliptic.solve_principal`).  Spans stay in memory in flat arrays.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("cli", "verification", "operators", "elliptic", "spaces", "symbols",
          "parabolic", "sweep")


def _bytes_computed(result):
    vals = result.values               # grid.shape + (N,)
    n_comp = vals.shape[-1]
    return vals.size // n_comp * n_comp * n_comp * 16


# Counters read from a wrapped call: name -> (function, reader(args, kwargs, result)).
COUNTERS = {
    "operators.operator_norm.bracket_calls": (
        "operators.operator_norm",
        lambda a, k, r: float((a[1] if len(a) > 1 else k["q"]) not in (1, 2, float("inf")))),
    "elliptic.solve_principal.mode_systems": (
        "elliptic.solve_principal", lambda a, k, r: r.values.size // r.values.shape[-1]),
    "elliptic.solve_principal.bytes_computed": (
        "elliptic.solve_principal", lambda a, k, r: _bytes_computed(r)),
    "elliptic.solve_full.iterations": (
        "elliptic.solve_full", lambda a, k, r: r[1].iterations),
    "verification.estimate_rbound.tuples_tried": (
        "verification.estimate_rbound", lambda a, k, r: r.tuples_tried),
}


def self_times(start, end, parent):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        covered, reach = 0.0, float("-inf")
        for k in sorted(kids, key=lambda i: start[i]):
            lo = max(start[k], reach)
            if end[k] > lo:
                covered += end[k] - lo
            reach = max(reach, end[k])
        out[p] -= covered
    return out


class Tracer:
    """Wraps the layer modules of a package while installed; records spans."""

    def __init__(self, package: str = "psdo"):
        self.package = package
        self.names = []                 # function index -> "module.function"
        self.originals = []             # function index -> original function
        self.fn = array("i")            # per span: function index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")        # span index, -1 for a root span
        self.task = array("i")          # task run the span belongs to
        self.nested = array("b")        # 1 if the same function is already on the stack
        self.counts = defaultdict(float)  # (task, counter name) -> value
        self.task_id = -1
        self._stack = [-1]
        self._depth = []
        self._wrappers = []
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._add(f"{layer}.{attr}", obj)

    def _add(self, name, fn):
        ix = len(self.names)
        self.names.append(name)
        self.originals.append(fn)
        self._depth.append(0)
        readers = [(c, read) for c, (f, read) in COUNTERS.items() if f == name]
        rec_fn, rec_start, rec_end = self.fn, self.start, self.end
        rec_parent, rec_task, rec_nested = self.parent, self.task, self.nested
        stack, depth, counts = self._stack, self._depth, self.counts
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(rec_fn)
            rec_fn.append(ix)
            rec_parent.append(stack[-1])
            rec_task.append(tracer.task_id)
            rec_nested.append(depth[ix] > 0)
            rec_start.append(0.0)
            rec_end.append(0.0)
            stack.append(k)
            depth[ix] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[ix] -= 1
                stack.pop()
                rec_start[k] = t0
                rec_end[k] = t1
            for counter, read in readers:
                try:
                    counts[tracer.task_id, counter] += read(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the function's signature changed: the counter stays absent
            return result

        self._wrappers.append(wrapper)

    def _bindings(self):
        """(module, attribute, function index) for every binding of a wrapped function."""
        ids = {id(fn): ix for ix, fn in enumerate(self.originals)}
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                ix = ids.get(id(obj))
                if ix is not None and obj is self.originals[ix]:
                    yield module, attr, ix

    @contextmanager
    def installed(self):
        patched = list(self._bindings())
        for module, attr, ix in patched:
            setattr(module, attr, self._wrappers[ix])
        try:
            yield self
        finally:
            for module, attr, ix in patched:
                setattr(module, attr, self.originals[ix])

    def has(self, name: str) -> bool:
        return name in self.names

    def aggregate(self, scale: dict) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over spans of the tasks in
        `scale`, which maps a task id to the factor its span times are
        multiplied by.

        total_s counts only the outermost span of a function, so recursion is
        not counted twice."""
        keep = [i for i, t in enumerate(self.task) if t in scale]
        index = {old: new for new, old in enumerate(keep)}
        start = [self.start[i] for i in keep]
        end = [self.end[i] for i in keep]
        parent = [index.get(self.parent[i], -1) for i in keep]
        selfs = self_times(start, end, parent)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for j, i in enumerate(keep):
            agg = out[self.names[self.fn[i]]]
            factor = scale[self.task[i]]
            agg["calls"] += 1
            agg["self_s"] += selfs[j] * factor
            if not self.nested[i]:
                agg["total_s"] += (end[j] - start[j]) * factor
        return out

    def calls_under(self, name: str, ancestor: str, task_ids) -> int:
        """Spans of `name` that have a span of `ancestor` on their parent chain."""
        if not (self.has(name) and self.has(ancestor)):
            return 0
        fn_ix, anc_ix = self.names.index(name), self.names.index(ancestor)
        wanted = set(task_ids)
        count = 0
        for i, t in enumerate(self.task):
            if self.fn[i] != fn_ix or t not in wanted:
                continue
            p = self.parent[i]
            while p >= 0 and self.fn[p] != anc_ix:
                p = self.parent[p]
            count += p >= 0
        return count

    def counter(self, name: str, task_ids) -> float:
        return sum(self.counts.get((t, name), 0.0) for t in task_ids)

    def counter_seen(self, name: str) -> bool:
        return any(c == name for _, c in self.counts)

    def save(self, path):
        """Write every span (and the function names) as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), fn=np.asarray(self.fn),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), task=np.asarray(self.task))
