"""Record which Python functions a list of ``ctxfuse`` command lines calls,
and which dataclass fields they read.

    python tests/reachability_probe.py RUNS.json OUT.json

``RUNS.json`` holds a list of argument lists for ``ctxfuse.cli.main``. The
profiler is installed before ``ctxfuse`` is imported, so a helper that runs
at import time counts as reached. ``OUT.json`` gets ``{"codes": [exit code
of each run], "reached": [[file, first line], ...], "defaulted": [[file,
first line, parameter], ...], "set": [[file, first line, parameter], ...],
"fields_read": ["Class.field", ...]}``: one ``reached`` entry per code
object called, a function's first line being its first decorator's line
when it has one; one ``defaulted`` entry per parameter with a default of
each called ``ctxfuse`` function; one ``set`` entry per such parameter that
some call bound to a value other than its default; and one ``fields_read``
entry per field of a ``ctxfuse`` dataclass that the runs read on an
instance, as an attribute or by ``getattr``, named by the class that
declares it.
"""

import dataclasses
import gc
import importlib.util
import inspect
import json
import os
import sys
import threading
from pathlib import Path


def _same(value, default) -> bool:
    """Whether a bound argument is its parameter's default; a value that
    cannot be compared to it (an array) is not."""
    try:
        return value is default or bool(value == default)
    except Exception:  # noqa: BLE001 - an ambiguous comparison is a set value
        return False


def _defaults_of(code) -> dict:
    """``{parameter: default}`` of the function whose code is ``code``."""
    for obj in gc.get_referrers(code):
        if inspect.isfunction(obj) and obj.__code__ is code:
            return {name: p.default for name, p in inspect.signature(obj).parameters.items()
                    if p.default is not p.empty}
    return {}


class CallRecorder:
    """A ``sys.setprofile`` hook that keeps ``(file, first line)`` of each
    called code object; as a context manager it profiles this thread and
    every thread started inside it. For code in a file under ``watch`` it
    also keeps ``(file, first line, parameter)`` of each defaulted
    parameter (``defaulted``) and of each one a call bound to another
    value than its default (``set``)."""

    def __init__(self, watch=None):
        self.watch = watch
        self.reached = set()
        self.defaulted = set()
        self.set = set()
        self._defaults = {}

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        self.reached.add(key)
        if self.watch is None or not code.co_filename.startswith(self.watch):
            return
        defaults = self._defaults.get(code)
        if defaults is None:
            defaults = self._defaults[code] = _defaults_of(code)
            self.defaulted.update(key + (name,) for name in defaults)
        if defaults:
            bound = frame.f_locals
            self.set.update(key + (name,) for name, default in defaults.items()
                            if not _same(bound[name], default))

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self)
        threading.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous)
        threading.setprofile(None)


class FieldRecorder:
    """Keeps ``"Class.field"`` of each field read on an instance of the
    given dataclasses (other classes are skipped), ``Class`` being the class
    that declares the field. As a context manager it wraps each class's
    ``__getattribute__`` and restores it on exit."""

    def __init__(self, classes):
        self.classes = [c for c in classes if dataclasses.is_dataclass(c)]
        self.read = set()

    def _recording(self, cls):
        owners = {}
        for f in dataclasses.fields(cls):
            owner = next(k for k in cls.__mro__ if f.name in inspect.get_annotations(k))
            owners[f.name] = f"{owner.__name__}.{f.name}"
        original, read = cls.__getattribute__, self.read

        def __getattribute__(obj, name):
            if name in owners:
                read.add(owners[name])
            return original(obj, name)

        return __getattribute__

    def __enter__(self):
        self._saved = [(cls, cls.__dict__.get("__getattribute__")) for cls in self.classes]
        for cls in self.classes:
            cls.__getattribute__ = self._recording(cls)
        return self

    def __exit__(self, *exc):
        for cls, saved in self._saved:
            if saved is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = saved


def package_classes() -> list:
    """Every class defined in an imported ``ctxfuse`` module."""
    return [value for name, module in list(sys.modules.items())
            if name == "ctxfuse" or name.startswith("ctxfuse.")
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == name]


def main(runs_path, out_path):
    runs = json.loads(Path(runs_path).read_text(encoding="utf-8"))
    package = str(Path(importlib.util.find_spec("ctxfuse").origin).parent) + os.sep
    with CallRecorder(watch=package) as recorder:
        import ctxfuse.cli

        with FieldRecorder(package_classes()) as fields:
            codes = [ctxfuse.cli.main(argv) for argv in runs]
    Path(out_path).write_text(json.dumps({
        "codes": codes,
        "reached": sorted(recorder.reached),
        "defaulted": sorted(recorder.defaulted),
        "set": sorted(recorder.set),
        "fields_read": sorted(fields.read),
    }), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
