"""Spans and counters recorded around gradedk's public functions.

The tracer wraps functions from outside the program: it replaces each target
in every gradedk module that binds it (modules import names with
`from .x import y`, so patching the defining module alone would miss callers).
Every wrapped call records one span (name, start, end, parent span, operation
id); spans stay in memory and are written out when the run ends. Self time is
a span's duration minus the time covered by its direct child spans.
`FieldSpec.scalar` and the element scans are counted only: a span per call
would swamp the run.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path inside the module)
SPANS = [
    ("algebra.construct", "algebra", "Algebra.__init__"),
    ("algebra.multiply", "algebra", "multiply"),
    ("algebra.ideal_closure", "algebra", "two_sided_ideal_closure"),
    ("algebra.center", "algebra", "center"),
    ("algebra.minimal_polynomial", "algebra", "minimal_polynomial"),
    ("algebra.commutator_subspace", "algebra", "commutator_subspace"),
    ("algebra.is_central_simple", "algebra", "is_central_simple"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.charpoly", "linalg", "charpoly"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("snf.smith_normal_form", "snf", "smith_normal_form"),
    ("groups.coset_label", "groups", "coset_label"),
    ("graded.graded_tensor", "graded", "graded_tensor"),
    ("graded.is_graded_simple", "graded", "is_graded_simple"),
    ("graded.is_graded_division", "graded", "is_graded_division"),
    ("graded.is_strongly_graded", "graded", "is_strongly_graded"),
    ("matrixring.identity_component", "matrixring", "identity_component"),
    ("matrixring.central_scalar_check", "matrixring", "central_scalar_check"),
    ("matrixring.canonical_shift", "matrixring", "canonical_shift"),
    ("matrixring.shifted_iso_decision", "matrixring", "shifted_iso_decision"),
    ("matrixring.solve_shift_matrix", "matrixring", "solve_shift_matrix"),
    ("azumaya.enveloping", "azumaya", "EnvelopingAlgebra.__init__"),
    ("azumaya.psi_matrix", "azumaya", "EnvelopingAlgebra.psi_matrix"),
    ("azumaya.psi_bijective", "azumaya", "psi_bijective"),
    ("azumaya.psi_graded_field", "azumaya", "psi_bijective_matrix_over_graded_field"),
    ("azumaya.braun_check", "azumaya", "braun_check"),
    ("ktheory.split_identity_component", "ktheory", "split_identity_component"),
    ("ktheory.k0gr_strongly_graded", "ktheory", "k0gr_strongly_graded"),
    ("ktheory.k0gr_graded_division", "ktheory", "k0gr_graded_division"),
    ("trace.reduced_char_poly", "trace", "reduced_char_poly"),
    ("constructors.quaternion", "constructors", "construct_quaternion"),
    ("constructors.symbol_algebra", "constructors", "construct_symbol_algebra"),
    ("constructors.group_ring", "constructors", "construct_group_ring"),
    ("constructors.truncated", "constructors", "construct_truncated_polynomial"),
    ("constructors.matrix_algebra", "constructors", "construct_matrix_algebra"),
    ("fileformat.parse", "fileformat", "parse_graded_algebra"),
    ("cli.main", "cli", "main"),
]

# (counter name, module, attribute path); generators count the items yielded
COUNTED_CALLS = [("fields.scalar", "fields", "FieldSpec.scalar")]
COUNTED_YIELDS = [
    ("algebra.scan.elements", "algebra", "Algebra.elements"),
    ("algebra.scan.elements", "graded", "GradedAlgebra.component_elements"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # one row per finished span, column-wise to keep memory small
        self.span_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("i")
        self.op = -1
        self._next = 0
        self._stack = []          # [span id, name id, child seconds]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.active = Counter()   # name id -> open spans with that name
        self.routes = Counter()   # reduced_char_poly result routes
        self.minpoly_in_split = 0
        self.blocks_resolved = 0

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, on_result=None):
        nid = self._name(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            frame = [sid, nid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            self.active[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.active[nid] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                self.span_id.append(sid)
                self.name_id.append(nid)
                self.start.append(t0)
                self.end.append(t1)
                self.parent.append(parent)
                self.op_id.append(self.op)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_yields(self, name, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for the ratio metrics ------------------------------------

    def _on_rcp(self, result):
        self.routes[result.route] += 1

    def _on_split(self, result):
        self.blocks_resolved += sum(1 for b in result.blocks if b.resolved)

    def _on_minpoly(self, _result):
        if self.active[self._ids["ktheory.split_identity_component"]]:
            self.minpoly_in_split += 1

    def take_totals(self):
        """The counters accumulated since the last call, which resets them."""
        totals = {"calls": self.calls, "self_s": self.self_s, "counts": self.counts,
                  "routes": self.routes, "minpoly_in_split": self.minpoly_in_split,
                  "blocks_resolved": self.blocks_resolved}
        self.calls, self.self_s, self.counts, self.routes = (Counter(), Counter(),
                                                             Counter(), Counter())
        self.minpoly_in_split = self.blocks_resolved = 0
        return totals

    # -- installation ---------------------------------------------------

    def install(self, package, extra_targets=()):
        """Wrap every target in `package` and its loaded submodules, and
        each (module, attribute, span name) triple in extra_targets."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        hooks = {"trace.reduced_char_poly": self._on_rcp,
                 "ktheory.split_identity_component": self._on_split,
                 "algebra.minimal_polynomial": self._on_minpoly}
        for name, mod, path in SPANS:
            _replace(modules, package, mod, path,
                     lambda fn, name=name: self.span(name, fn, hooks.get(name)))
        for name, mod, path in COUNTED_CALLS:
            _replace(modules, package, mod, path,
                     lambda fn, name=name: self.counted(name, fn))
        for name, mod, path in COUNTED_YIELDS:
            _replace(modules, package, mod, path,
                     lambda fn, name=name: self.counted_yields(name, fn))
        for module, attr, name in extra_targets:
            setattr(module, attr, self.span(name, getattr(module, attr)))

    def write(self, path):
        """Tab-separated spans: id, name, start, end, parent id, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            names = self.names
            for row in zip(self.span_id, self.name_id, self.start, self.end,
                           self.parent, self.op_id):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (row[0], names[row[1]], row[2], row[3], row[4], row[5]))


def _replace(modules, package, mod, path, make_wrapper):
    """Replace the target named by `path` in package.mod with a wrapper, in
    every module namespace that binds the same object."""
    owner = getattr(package, mod)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    wrapper = make_wrapper(original)
    if len(parts) > 1:       # a method: patching the class reaches every caller
        setattr(owner, parts[-1], wrapper)
        return
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
