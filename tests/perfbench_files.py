"""The benchmark's own files, loaded read-only by path for tier-1 tests.

``perfbench/`` is not a package; each file is loaded once under a private
module name, so a test compares exactly as the benchmark does.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[key]
