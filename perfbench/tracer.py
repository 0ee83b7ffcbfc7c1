"""In-memory span tracer that wraps surfrep's public functions from outside.

`Tracer.install()` replaces every public function of every surfrep module
(and a few public methods of `Representation`) with a wrapper that records
one span per call: the function, its start and end (perf_counter_ns) and
the index of the enclosing span.  surfrep modules import each other's
functions by name (`from .x import y`), so the wrapper is rebound under
every name in every surfrep module that holds the original object;
otherwise calls made through those names would bypass it.

Spans stay in memory in flat `array('q')` buffers, across any number of
install/uninstall cycles; `save()` writes them out at the end of the run.
`summary()` turns them into per-layer self time and call counts: a span's
self time is its duration minus the durations of its direct children,
and a layer is the module that defines the function.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Modules are the layers; their names prefix every per-layer metric.
LAYERS = ("unitary", "linalg", "presentation", "cohomology", "pairing",
          "deformation", "solver", "corpus", "serialize", "cli")

# Public methods that the module-level wrapping cannot reach.
METHODS = (("presentation", "Representation",
            ("validate", "evaluate", "relation_residual", "class_residuals")),)

BENCH_LAYER = "bench"


class Tracer:
    def __init__(self):
        self.names = []          # span name id -> "layer.function"
        self.layers = []         # span name id -> layer name
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches = []       # (owner, attribute, original), in order
        self.results = {}        # name -> return values of the functions in keep_results

    # ------------------------------------------------------------------
    # recording

    def _intern(self, layer: str, name: str) -> int:
        key = f"{layer}.{name}"
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self.names)
            self._ids[key] = nid
            self.names.append(key)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a benchmark-side span (layer `bench`)."""
        return _Span(self, self._intern(BENCH_LAYER, name))

    def _wrap(self, layer: str, name: str, fn, keep_result: bool):
        nid = self._intern(layer, name)
        kept = self.results.setdefault(f"{layer}.{name}", []) if keep_result else None
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if kept is not None:
                kept.append(out)
            return out

        return wrapper

    # ------------------------------------------------------------------
    # installing

    def install(self, keep_results=("solver.solve",)) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: m for name, m in list(sys.modules.items())
                if m is not None and (name == "surfrep" or name.startswith("surfrep."))}
        for layer in LAYERS:
            mod = mods[f"surfrep.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped = self._wrap(layer, attr, obj, f"{layer}.{attr}" in keep_results)
                for owner in mods.values():
                    for key, value in list(vars(owner).items()):
                        if value is obj:
                            self._patches.append((owner, key, obj))
                            setattr(owner, key, wrapped)
        for layer, cls_name, methods in METHODS:
            cls = getattr(mods[f"surfrep.{layer}"], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", original, False))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reading

    @property
    def span_count(self) -> int:
        return len(self.start)

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return names, start, end, parent

    def save(self, path) -> None:
        names, start, end, parent = self.arrays()
        np.savez_compressed(path, name=np.array(self.names), name_id=names,
                            start_ns=start, end_ns=end, parent=parent)

    def summary(self):
        """Per function and per layer: calls, inclusive and self time (ns).

        `entries` counts the calls made from another layer (or from the
        benchmark), which is how often work crossed into the layer, and
        `entered_ns` is the time spent under those calls.
        Inclusive time counts only the outermost span of a function, so a
        function that calls itself is not counted twice.
        """
        names, start, end, parent = self.arrays()
        nn = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        caller = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        layer_ids = {layer: k for k, layer in enumerate(dict.fromkeys(self.layers))}
        name_layer = np.array([layer_ids[layer] for layer in self.layers], dtype=np.int64)
        caller_layer = np.where(has_parent, name_layer[np.maximum(caller, 0)], -1)

        def per_name(mask=None, weights=None):
            sel = names if mask is None else names[mask]
            w = None if weights is None else (weights if mask is None else weights[mask])
            return np.bincount(sel, weights=w, minlength=nn)

        entered = caller_layer != name_layer[names]
        calls = per_name()
        entries = per_name(entered)
        entered_ns = per_name(entered, dur)
        inclusive = per_name(caller != names, dur)
        self_time = per_name(None, self_ns)
        functions = {
            self.names[i]: {"calls": int(calls[i]), "entries": int(entries[i]),
                            "entered_ns": int(entered_ns[i]),
                            "inclusive_ns": int(inclusive[i]),
                            "self_ns": int(self_time[i])}
            for i in range(nn) if calls[i]
        }
        layers = {}
        for i in range(nn):
            entry = layers.setdefault(self.layers[i], {"calls": 0, "self_ns": 0})
            entry["calls"] += int(calls[i])
            entry["self_ns"] += int(self_time[i])
        return functions, layers


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
