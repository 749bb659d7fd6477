"""Span and counter recorder for the traced benchmark run.

Installed only when the benchmark runs with --trace 1.  It wraps named
dimermod functions and methods from outside the package: a function is
replaced in every dimermod module that holds it by name (``groups`` imports
``interior_lattice_points``, ``moves`` imports ``discrete_abel_map``), a
method is replaced on its class.  Span wrappers record (operation, span,
parent span, name, start, end) in memory, with the parent taken from a
context variable; counter wrappers only count calls, for methods called so
often that timing each call would swamp the run.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, metric prefix); "Class.method" attributes are wrapped on the class.
SPANS = (
    ("intlin", "smith_normal_form", "intlin.smith_normal_form"),
    ("polygon", "interior_lattice_points", "polygon.interior_lattice_points"),
    ("polygon", "find_building_block", "polygon.find_building_block"),
    ("groups", "cluster_modular_group", "groups.cluster_modular_group"),
    ("groups", "torsion_lattice", "groups.torsion_lattice"),
    ("groups", "pic0_stack_presentation", "groups.pic0_stack_presentation"),
    ("groups", "max_translation_polygon", "groups.max_translation_polygon"),
    ("torusgraph", "check_minimality", "torusgraph.check_minimality"),
    ("torusgraph", "newton_polygon", "torusgraph.newton_polygon"),
    ("torusgraph", "TorusGraph.__init__", "torusgraph.TorusGraph"),
    ("spectral", "kasteleyn_polynomial", "spectral.kasteleyn_polynomial"),
    ("spectral", "kasteleyn_signs", "spectral.kasteleyn_signs"),
    ("spectral", "normalized_poly", "spectral.normalized_poly"),
    ("spectral", "discrete_abel_map", "spectral.discrete_abel_map"),
    ("moves", "run_sequence", "moves.run_sequence"),
    ("moves", "spider_move", "moves.spider_move"),
    ("moves", "contract_vertex", "moves.contract_vertex"),
    ("moves", "abel_shift", "moves.abel_shift"),
    ("cli", "main", "cli.main"),
)
COUNTERS = (
    ("polygon", "ConvexIntegralPolygon.contains", "polygon.contains"),
    ("spectral", "LaurentPoly2.__mul__", "spectral.LaurentPoly2.mul"),
)

_current = contextvars.ContextVar("bench_span", default=None)


class Recorder:
    """Spans and counts of one traced run; `op` names the operation in flight."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._next_id = 0
        self._undo = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("dimermod.")]
        for mod, attr, name in SPANS:
            self._wrap(modules, "dimermod." + mod, attr, self._span(name))
        for mod, attr, name in COUNTERS:
            self._wrap(modules, "dimermod." + mod, attr, self._counter(name))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, modules, modname, attr, make):
        home = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(home, attr)
        wrapper = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    def _span(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = _current.get()
                sid = self._next_id
                self._next_id += 1
                token = _current.set(sid)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    _current.reset(token)
                    self.spans.append((self.op, sid, parent, name, t0, t1))

            return wrapper

        return make

    def _counter(self, name):
        def make(fn):
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def summary(self, rung_of_op, rounds):
        """Per-round metrics: `<name>.calls`, `.ms`, `.self_ms` and `.ms.<rung>`.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because there is one caller thread.
        """
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for op, sid, _, name, t0, t1 in self.spans:
            ms = (t1 - t0) * 1000
            out[name + ".calls"] += 1
            out[name + ".ms"] += ms
            out[name + ".self_ms"] += ms - child[sid] * 1000
            out["%s.ms.%s" % (name, rung_of_op[op])] += ms
        for name, n in self.counts.items():
            out[name + ".calls"] += n
        return {k: v / rounds for k, v in out.items()}

    def write(self, path):
        """Spans as JSON lines: op, span, parent, name, start and end in seconds."""
        with open(path, "w") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent, "name": name, "t0": t0, "t1": t1}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
