"""Per-layer tracing for the benchmark's traced run.

`install()` wraps every public function (and public method of every class)
defined in each layer module of bruhatpoly, then rebinds each wrapped name
in every bruhatpoly module that holds it: `from .perms import bruhat_leq`
binds early, so patching only `perms.bruhat_leq` would miss the calls made
from intervals, polytopes, rpoly, parabolic and checks.

Every wrapper keeps, per function, the number of calls, total time, self
time (its duration minus the time of the wrapped calls it made) and how
many calls returned True.  Wrappers outside the kernel layer also record a
span (parent span, name, start, end) in memory; the kernel (perms, called
10^5 times and more on one op) accumulates counts and time only.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

LAYERS = ("perms", "intervals", "polytopes", "rpoly", "parabolic", "exactlp", "checks", "cli")
KERNEL_LAYERS = frozenset({"perms"})


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s, calls returning True]
        self.caches = {}  # name -> lru_cache object, read through cache_info()
        self.spans = []  # (parent span index or op tag, name, start, end)
        self._child = []  # time spent in wrapped callees, one slot per open call
        self._open = []  # span index of each open call

    def wrap(self, name, fn, span):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        child, opened, spans, clock = self._child, self._open, self.spans, time.perf_counter

        if span:
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = opened[-1]
                opened.append(sid)
                child.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    opened.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child.pop()
                    child[-1] += dt
                    spans[sid] = (parent, name, t0, t1)
                if result is True:
                    st[3] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child.pop()
                    child[-1] += dt
                if result is True:
                    st[3] += 1
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin_op(self, i):
        self._open.append(f"op{i}")
        self._child.append(0.0)

    def end_op(self, dt):
        """Close op i; the runner's own time in it is the op's self time."""
        self._open.pop()
        st = self.stats.setdefault("op", [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - self._child.pop()

    def report(self):
        return {
            "stats": self.stats,
            "caches": {name: fn.cache_info()._asdict() for name, fn in self.caches.items()},
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (parent, name, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")


def install():
    tracer = Tracer()
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = importlib.import_module(f"bruhatpoly.{layer}")
        span = layer not in KERNEL_LAYERS
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for mname, meth in list(vars(obj).items()):
                    if not mname.startswith("_") and isinstance(meth, types.FunctionType):
                        setattr(obj, mname, tracer.wrap(f"{layer}.{obj.__name__}.{mname}", meth, span))
            elif callable(obj):  # functions and lru_cache objects
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj, span))
                if hasattr(obj, "cache_info"):
                    tracer.caches[f"{layer}.{attr}"] = obj
    for name, mod in list(sys.modules.items()):
        if name == "bruhatpoly" or name.startswith("bruhatpoly."):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
    return tracer
