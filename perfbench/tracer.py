"""Spans and counters around ctxfuse's public functions, installed from outside.

The program is not edited: :meth:`Tracer.install` replaces every public
function and method of each layer module with a wrapper that records a span
(function, parent span, start, end), at every place the function object is
bound. ``from .x import f`` binds ``f`` a second time in the importing
module, and ``data._EXTRACTORS`` holds extractor functions in a dict, so the
installer scans the globals (and dict-valued globals) of every ctxfuse
module for the original objects. :meth:`Tracer.uninstall` restores them.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its functions' spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "cli", "ingestion", "model", "data", "features", "audio",
    "kernels", "classifier", "fusion", "evaluation",
)


def _count_hooks():
    """Work counters recorded at a function boundary besides its calls."""

    def feature_matrix(args, kwargs, result, counters):
        counters["data.feature_matrix.rows"] += len(args[0])

    def predict_proba_matrix(args, kwargs, result, counters):
        counters["classifier.predict_rows"] += int(np.shape(result)[0])

    def pair_cosine(args, kwargs, result, counters):
        n = int(np.shape(args[0])[0])
        counters["kernels.pair_cosine.pairs"] += n * (n - 1) // 2

    def parse_features_csv(args, kwargs, result, counters):
        counters["ingestion.parse_rows"] += len(result)

    def write_features_csv(args, kwargs, result, counters):
        counters["ingestion.write_rows"] += len(args[1])

    return {
        "data.feature_matrix": feature_matrix,
        "classifier.predict_proba_matrix": predict_proba_matrix,
        "kernels.pair_cosine_lag_stats": pair_cosine,
        "ingestion.parse_features_csv": parse_features_csv,
        "ingestion.write_features_csv": write_features_csv,
    }


def _public_callables(layer: str, module):
    """``(qualified name, owner, attribute, original, kind)`` for one layer.

    ``kind`` is ``None`` for a plain function or ``staticmethod`` /
    ``classmethod`` for a method wrapped in one. A function bound under
    several public names in its module (``logistic_terms`` and
    ``logistic_terms_numpy``) is named by the shortest. Methods are named
    ``layer.method``, or ``layer.Class.method`` when two classes share it.
    """
    names_of = {}
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            names_of.setdefault(id(obj), (obj, []))[1].append(name)
    out = []
    for obj, names in names_of.values():
        out.append((f"{layer}.{min(names, key=lambda n: (len(n), n))}", module, None, obj, None))

    methods = []
    for cname, cls in vars(module).items():
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        for mname, attr in vars(cls).items():
            if mname.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                methods.append((cname, cls, mname, attr.__func__, type(attr)))
            elif inspect.isfunction(attr):
                methods.append((cname, cls, mname, attr, None))
    taken = Counter(m[2] for m in methods)
    taken.update(entry[0].split(".", 1)[1] for entry in out)
    for cname, cls, mname, func, kind in methods:
        qual = f"{layer}.{mname}" if taken[mname] == 1 else f"{layer}.{cname}.{mname}"
        out.append((qual, cls, mname, func, kind))
    return out


class Tracer:
    """Records spans for one or more traced invocations of the program."""

    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        import ctxfuse  # noqa: F401 - loads every submodule the package imports
        import ctxfuse.cli  # noqa: F401

        hooks = _count_hooks()
        wrapper_of = {}
        for layer in LAYERS:
            module = sys.modules[f"ctxfuse.{layer}"]
            for qual, owner, attr, func, kind in _public_callables(layer, module):
                wrapped = self._wrap(qual, layer, func, hooks.get(qual))
                wrapper_of[id(func)] = wrapped
                if attr is not None:  # a method: rebind on its class
                    self._set(owner, attr, kind(wrapped) if kind else wrapped)

        modules = [m for n, m in sys.modules.items() if n == "ctxfuse" or n.startswith("ctxfuse.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrapper_of:
                    self._set(module, name, wrapper_of[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapper_of:
                            self._patches.append((value, key, item, True))
                            value[key] = wrapper_of[id(item)]

        classifier = sys.modules["ctxfuse.classifier"]
        self._set(classifier, "minimize", self._count_iterations(classifier.minimize))

    def uninstall(self):
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name), False))
        setattr(owner, name, value)

    def _wrap(self, qual, layer, func, hook):
        if qual not in self.names:  # the same index across install cycles
            self.names.append(qual)
            self.layer_of.append(LAYERS.index(layer))
        fid_index = self.names.index(qual)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid_index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        return wrapper

    def _count_iterations(self, minimize):
        counters = self.counters

        def counting_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            counters["classifier.lbfgs_iters"] += int(res.nit)
            return res

        return counting_minimize

    # -- results --------------------------------------------------------------

    def reset(self):
        for arr in (self.fid, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def summary(self) -> dict:
        """Calls and seconds per function, self seconds and calls per layer.

        A function's seconds are the summed durations of its spans (no
        public ctxfuse function calls itself on the benchmarked paths, so
        this is its inclusive time).
        """
        fid = np.asarray(self.fid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
        self_time = dur - child

        n_funcs = len(self.names)
        calls = np.bincount(fid, minlength=n_funcs)
        seconds = np.bincount(fid, weights=dur, minlength=n_funcs)
        self_by_func = np.bincount(fid, weights=self_time, minlength=n_funcs)
        layer = np.asarray(self.layer_of, dtype=np.int64)

        out = {"functions": {}, "layers": {}, "counters": dict(self.counters)}
        for i, name in enumerate(self.names):
            if calls[i]:
                out["functions"][name] = {"calls": int(calls[i]), "s": float(seconds[i])}
        for j, name in enumerate(LAYERS):
            in_layer = layer == j
            out["layers"][name] = {
                "calls": int(calls[in_layer].sum()),
                "self_s": float(self_by_func[in_layer].sum()),
            }
        return out

    def write_spans(self, path):
        """All recorded spans as arrays: function index, parent span, start, end."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            fid=np.asarray(self.fid, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
