"""Layer tracing from outside the library.

``Tracer.install`` wraps the public functions of every ``qfc`` module, and
rebinds each wrapper in every ``qfc`` module that imported the name with
``from .x import f``.  A wrapper records a span (name, start, end, parent)
and a call count.  Three hot kernels are only counted: ``BaseElement``
and ``ExtElement`` multiplication and ``Fraction`` construction; time
spent in ``fractions`` is summed at its outermost call.  Spans stay in
memory until ``write_spans``.  A span's self time is its duration minus
the time its child spans cover.
"""

import inspect
import os
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

import qfc
import qfc.base_field
import qfc.cli
import qfc.contfrac
import qfc.correspondence
import qfc.extension
import qfc.forms
import qfc.ideals
import qfc.serialize

LAYERS = ("base_field", "extension", "contfrac", "ideals", "forms",
          "correspondence", "serialize", "cli")
MODULES = [getattr(qfc, name) for name in LAYERS]
# methods traced like functions: the per-layer table names their counts
METHODS = [
    ("ideals", qfc.ideals.IdealBasis, "same_module"),
    ("ideals", qfc.ideals.IdealBasis, "contains"),
    ("forms", qfc.forms.QuadraticForm, "is_primitive"),
]
COUNTED = [
    ("base_field.mul", qfc.base_field.BaseElement, ("__mul__", "__rmul__")),
    ("extension.mul", qfc.extension.ExtElement, ("__mul__", "__rmul__")),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # [name id, span index, start, child time]
        self.calls = Counter()
        self.self_time = Counter()
        self.incl_time = Counter()  # outermost call per name
        self.layer_time = Counter()  # outermost call per layer
        self.active = Counter()
        self.fraction_time = 0.0
        self.fraction_depth = 0
        self.extension_keys = set()
        self.unknown = 0
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, layer, fn):
        tracer = self
        nid = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.calls[name] += 1
            tracer.active[name] += 1
            tracer.active[layer] += 1
            frame = [nid, idx, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                tracer.span_start[idx] = frame[2]
                tracer.span_end[idx] = end
                tracer.self_time[layer] += dur - frame[3]
                tracer.active[name] -= 1
                tracer.active[layer] -= 1
                if not tracer.active[name]:
                    tracer.incl_time[name] += dur
                if not tracer.active[layer]:
                    tracer.layer_time[layer] += dur
                if stack:
                    stack[-1][3] += dur
            tracer.observe(name, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def _fraction_timer(self, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if count:
                tracer.calls[count] += 1
            if tracer.fraction_depth:
                return fn(*args, **kwargs)
            tracer.fraction_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.fraction_time += perf_counter() - start
                tracer.fraction_depth = 0

        return wrapper

    def observe(self, name, args, result):
        """Arguments and answers that the per-layer ratios need."""
        if name == "extension.make_extension":
            base, d = args[0], args[1]
            key = d if isinstance(d, qfc.base_field.BaseElement) else base(d)
            self.extension_keys.add((base.tag, key.c0, key.c1))
        elif name == "ideals.oriented_equivalent" and result.status == qfc.ideals.UNKNOWN:
            self.unknown += 1

    # -- install and remove ------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, callers=()):
        """Wrap and rebind; `callers` are further modules whose imported
        qfc names get the wrappers too."""
        wrapped = {}
        for layer, mod in zip(LAYERS, MODULES):
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._span(f"{layer}.{attr}", layer, obj)
        for mod in [qfc, *MODULES, *callers]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        for layer, cls, attr in METHODS:
            self._set(cls, attr, self._span(f"{layer}.{attr}", layer, cls.__dict__[attr]))
        for name, cls, attrs in COUNTED:
            fn = cls.__dict__[attrs[0]]
            wrapper = self._counter(name, fn)
            for attr in attrs:
                self._set(cls, attr, wrapper)
        for attr, obj in list(vars(Fraction).items()):
            if attr == "__new__":
                self._set(Fraction, attr, staticmethod(
                    self._fraction_timer(obj.__func__, "fraction_new")))
            elif attr.startswith("__") and inspect.isfunction(obj):
                self._set(Fraction, attr, self._fraction_timer(obj))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        """One line per span: index, parent, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{int(self.span_start[i] * 1e9)},{int(self.span_end[i] * 1e9)}\n")

    def layer_metrics(self, ops):
        """Per-operation figures of the per-layer table in README.md."""
        ms = 1000.0 / ops
        c, t = self.calls, self.incl_time

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "base_field.self_ms": self.self_time["base_field"] * ms,
            "base_field.fraction_ms": self.fraction_time * ms,
            "base_field.mul_calls": c["base_field.mul"] / ops,
            "base_field.fraction_new_calls": c["fraction_new"] / ops,
            "base_field.gcd_k_calls": c["base_field.gcd_k"] / ops,
            "base_field.gcd_k_ms": t["base_field.gcd_k"] * ms,
            "base_field.canonical_associate_calls": c["base_field.canonical_associate"] / ops,
            "base_field.is_fundamental_calls": c["base_field.is_fundamental"] / ops,
            "extension.self_ms": self.self_time["extension"] * ms,
            "extension.make_extension_calls": c["extension.make_extension"] / ops,
            "extension.make_extension_ms": t["extension.make_extension"] * ms,
            "extension.make_extension_distinct_ratio": ratio(
                len(self.extension_keys), c["extension.make_extension"]),
            "extension.mul_calls": c["extension.mul"] / ops,
            "contfrac.fundamental_unit_xy_calls": c["contfrac.fundamental_unit_xy"] / ops,
            "contfrac.ms": self.layer_time["contfrac"] * ms,
            "ideals.self_ms": self.self_time["ideals"] * ms,
            "ideals.reduce_generators_calls": c["ideals.reduce_generators"] / ops,
            "ideals.reduce_generators_ms": t["ideals.reduce_generators"] * ms,
            "ideals.ideal_mul_calls": c["ideals.ideal_mul"] / ops,
            "ideals.same_module_calls": c["ideals.same_module"] / ops,
            "ideals.contains_calls": c["ideals.contains"] / ops,
            "ideals.principal_generator_q_ms": t["ideals.principal_generator_q"] * ms,
            "ideals.oriented_equivalent_ms": t["ideals.oriented_equivalent"] * ms,
            "ideals.unknown_ratio": ratio(self.unknown, c["ideals.oriented_equivalent"]),
            "forms.is_primitive_calls": c["forms.is_primitive"] / ops,
            "forms.reduce_form_q_ms": t["forms.reduce_form_q"] * ms,
            "forms.enumerate_classes_q_ms": t["forms.enumerate_classes_q"] * ms,
            "correspondence.psi_ms": t["correspondence.psi"] * ms,
            "correspondence.phi_ms": t["correspondence.phi"] * ms,
            "correspondence.compose_ms": t["correspondence.compose"] * ms,
            "correspondence.canonical_disc_ms": t["correspondence.canonical_disc"] * ms,
            "correspondence.ocl_structure_q_ms": t["correspondence.ocl_structure_q"] * ms,
            "serialize.ms": self.layer_time["serialize"] * ms,
        }


def trace_path(root, workload, seed):
    out = os.path.join(root, ".bench-out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}-seed{seed}.csv")
