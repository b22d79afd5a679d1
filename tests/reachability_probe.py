"""Record which Python functions a list of ``ctxfuse`` command lines calls.

    python tests/reachability_probe.py RUNS.json OUT.json

``RUNS.json`` holds a list of argument lists for ``ctxfuse.cli.main``. The
profiler is installed before ``ctxfuse`` is imported, so a helper that runs
at import time counts as reached. ``OUT.json`` gets ``{"codes": [exit code
of each run], "reached": [[file, first line], ...], "defaulted": [[file,
first line, parameter], ...], "set": [[file, first line, parameter],
...]}``: one ``reached`` entry per code object called, a function's first
line being its first decorator's line when it has one; one ``defaulted``
entry per parameter with a default of each called ``ctxfuse`` function;
and one ``set`` entry per such parameter that some call bound to a value
other than its default.
"""

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


def main(runs_path, out_path):
    runs = json.loads(Path(runs_path).read_text(encoding="utf-8"))
    package = str(Path(importlib.util.find_spec("ctxfuse").origin).parent) + os.sep
    with CallRecorder(watch=package) as recorder:
        import ctxfuse.cli

        codes = [ctxfuse.cli.main(argv) for argv in runs]
    Path(out_path).write_text(json.dumps({
        "codes": codes,
        "reached": sorted(recorder.reached),
        "defaulted": sorted(recorder.defaulted),
        "set": sorted(recorder.set),
    }), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
