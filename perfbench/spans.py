"""Per-layer spans recorded from outside the program.

``install()`` wraps the public functions and methods of each todatau layer
(one layer per module) and returns a :class:`Tracer`.  A call that enters a
layer from another layer, or from the benchmark, opens a span; a call that
stays inside its own layer only passes through.  From the spans the tracer
derives, per layer L:

* ``L.calls``  -- spans opened in L;
* ``L.busy_s`` -- wall time inside L's outermost spans;
* ``L.self_s`` -- span time minus the time of spans it opened in other
  layers.

The methods that the ROADMAP's optimisation items target get their own
``<key>_calls`` (every call, same-layer ones too) and ``<key>_s``
(inclusive time of the outermost call, so recursion is not counted twice).

Functions are replaced in every module namespace that holds them (``hqe``
imports ``tau_to_waves`` by name); methods are replaced on their class, so
an alias such as ``Scalar.__rmul__ = __mul__`` is wrapped under both names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("scalars", "weyl", "shift_algebra", "time_series", "eth_core",
          "tau", "hqe")

# dunder methods that carry the ring and series arithmetic
_DUNDERS = frozenset(("__init__", "__add__", "__radd__", "__sub__",
                      "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
                      "__eq__"))

# metric key -> the (layer, qualified name) entry points it aggregates
METHODS = {
    "scalars.mul": (("scalars", "Scalar.__mul__"),
                    ("scalars", "Scalar.__rmul__")),
    "weyl.shift_x": (("weyl", "XPoly.shift_x"),),
    "weyl.discrete_antiderivative": (("weyl", "XPoly.discrete_antiderivative"),),
    "weyl.diffop_mul": (("weyl", "DiffOp.__mul__"), ("weyl", "DiffOp.__rmul__")),
    "shift_algebra.mul": (("shift_algebra", "ShiftSeries.__mul__"),),
    "shift_algebra.invert": (("shift_algebra", "ShiftSeries.invert"),),
    "shift_algebra.sharp": (("shift_algebra", "ShiftSeries.sharp"),),
    "shift_algebra.lambda_mul": (("shift_algebra", "LambdaSeries.__mul__"),),
    "shift_algebra.exp_nilpotent": (
        ("shift_algebra", "ShiftSeries.exp_nilpotent"),
        ("shift_algebra", "LambdaSeries.exp_nilpotent")),
    "time_series.mul": (("time_series", "TimeSeries.__mul__"),),
    "time_series.bilinear": (("time_series", "TimeSeries.bilinear"),),
    "time_series.miwa_shift": (("time_series", "TimeSeries.miwa_shift"),),
    "time_series.exp": (("time_series", "TimeSeries.exp"),),
    "eth_core.evolve_waves": (("eth_core", "evolve_waves"),),
    "eth_core.log_lax": (("eth_core", "log_lax"),),
    "eth_core.flow_generator": (("eth_core", "flow_generator"),),
    "eth_core.prop2_operator_residual": (("eth_core", "prop2_operator_residual"),),
    "eth_core.prop2_residue_residual": (("eth_core", "prop2_residue_residual"),),
    "tau.build_tau": (("tau", "build_tau"),),
    "tau.tau_to_waves": (("tau", "tau_to_waves"),),
    "tau.fay_residual": (("tau", "fay_residual"),),
    "hqe.hqe_residual": (("hqe", "hqe_residual"),),
    "hqe.hqe_regularity": (("hqe", "hqe_regularity"),),
    "hqe.verdicts_agree": (("hqe", "verdicts_agree"),),
    "hqe.toda_regularity": (("hqe", "toda_regularity"),),
}


class Tracer:
    def __init__(self):
        self.top = None             # layer of the innermost open span
        self.stack = []             # open spans: [time of nested spans]
        self.layer = {L: [0, 0.0, 0.0, 0] for L in LAYERS}  # calls, busy, self, depth
        self.method = {k: [0, 0.0, 0] for k in METHODS}      # calls, s, active
        self._undo = []

    def wrap(self, fn, layer, stat):
        tracer, stack, lstat = self, self.stack, self.layer[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.top is layer:
                if stat is None:
                    return fn(*args, **kwargs)
                stat[0] += 1
                if stat[2]:
                    return fn(*args, **kwargs)
                stat[2] = 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[1] += clock() - t0
                    stat[2] = 0
            outer_top = tracer.top
            tracer.top = layer
            frame = [0.0]
            stack.append(frame)
            lstat[3] += 1
            timed = stat is not None and not stat[2]
            if stat is not None:
                stat[0] += 1
                if timed:
                    stat[2] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                tracer.top = outer_top
                lstat[0] += 1
                lstat[2] += dur - frame[0]
                lstat[3] -= 1
                if not lstat[3]:
                    lstat[1] += dur
                if timed:
                    stat[1] += dur
                    stat[2] = 0
                if stack:
                    stack[-1][0] += dur

        return traced

    def metrics(self):
        out = {}
        for L, (calls, busy, self_s, _) in self.layer.items():
            out[L + ".calls"] = calls
            out[L + ".busy_s"] = busy
            out[L + ".self_s"] = self_s
        for key, (calls, seconds, _) in self.method.items():
            out[key + "_calls"] = calls
            out[key + "_s"] = seconds
        return out

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _public(name):
    return not name.startswith("_") or name in _DUNDERS


def install(extra_namespaces=()):
    """Wrap every layer's public functions and methods; returns the tracer.

    ``extra_namespaces`` are further modules whose references to wrapped
    functions are replaced too (the benchmark's own workload module)."""
    tracer = Tracer()
    stat_of = {entry: tracer.method[key]
               for key, entries in METHODS.items() for entry in entries}
    modules = {L: importlib.import_module("todatau." + L) for L in LAYERS}
    replaced = {}                   # id(original function) -> wrapper
    for L, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and _public(name):
                replaced[id(obj)] = (obj, tracer.wrap(obj, L,
                                                      stat_of.get((L, name))))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, obj, L, stat_of)
    namespaces = [m for m in sys.modules.values()
                  if getattr(m, "__name__", "").startswith("todatau.")]
    namespaces += list(extra_namespaces)
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer._undo.append((ns, name, obj))
                setattr(ns, name, hit[1])
    return tracer


def _wrap_class(tracer, cls, layer, stat_of):
    for name, attr in list(vars(cls).items()):
        if not _public(name):
            continue
        stat = stat_of.get((layer, cls.__name__ + "." + name))
        if inspect.isfunction(attr):
            new = tracer.wrap(attr, layer, stat)
        elif isinstance(attr, classmethod):
            new = classmethod(tracer.wrap(attr.__func__, layer, stat))
        elif isinstance(attr, staticmethod):
            new = staticmethod(tracer.wrap(attr.__func__, layer, stat))
        else:
            continue
        tracer._undo.append((cls, name, attr))
        setattr(cls, name, new)
