"""Record which Python functions a list of ``ctxfuse`` command lines calls.

    python tests/reachability_probe.py RUNS.json OUT.json

``RUNS.json`` holds a list of argument lists for ``ctxfuse.cli.main``. The
profiler is installed before ``ctxfuse`` is imported, so a helper that runs
at import time counts as reached. ``OUT.json`` gets ``{"codes": [exit code
of each run], "reached": [[file, first line], ...]}``, one entry per code
object called; a function's first line is its first decorator's line when
it has one.
"""

import json
import sys
import threading
from pathlib import Path


class CallRecorder:
    """A ``sys.setprofile`` hook that keeps ``(file, first line)`` of each
    called code object; as a context manager it profiles this thread and
    every thread started inside it."""

    def __init__(self):
        self.reached = set()

    def __call__(self, frame, event, arg):
        if event == "call":
            self.reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

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
    with CallRecorder() as recorder:
        import ctxfuse.cli

        codes = [ctxfuse.cli.main(argv) for argv in runs]
    Path(out_path).write_text(
        json.dumps({"codes": codes, "reached": sorted(recorder.reached)}), encoding="utf-8"
    )


if __name__ == "__main__":
    main(*sys.argv[1:])
