"""Every function of the package is reached by a command, or is listed.

A subprocess (``tests/reachability_probe.py``, run once per session by the
``probe`` fixture of ``conftest.py``) installs a profiler before ``import
ctxfuse`` and runs the CLI on the benchmark's tiny corpora: ``extract``;
``evaluate`` in cv5 mode with a partition file, with a two-fold partition
directory (whose second fold trains trivial models) and with no partition
(and ``--markdown --seed 3 --jobs 2``); ``evaluate --mode loo``;
``personalize --partition --markdown --seed 3``; ``rerun``; and
``evaluate`` with a labels file that is not UTF-8. A ``def`` in
``src/ctxfuse`` that none of these calls fails the check unless
:data:`LIBRARY_ONLY` names it with its reason, so code that no command
needs does not linger in the package. One level down, a parameter with a
default that no call of these binds to another value fails the check
unless :data:`FIXED_DEFAULTS` names it with its reason: a setting that no
command sets is a constant.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from reachability_probe import CallRecorder

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctxfuse"

#: ``module.qualified_name`` -> why the function stays although no command calls it
LIBRARY_ONLY = {
    "fusion.predict_late_fusion_learned": "LFL scoring; the fold loop calls it once its columns are fixed (ROADMAP 1)",
    "fusion.LateFusionLearned.sensor_weights": "LFL weights per sensor; reported in the manifest once ROADMAP 4 lands",
}

#: ``module.qualified_name.parameter`` -> why the default stays although no command sets another value
FIXED_DEFAULTS = {
    "evaluation.partition_folds.k": "cv5 passes min(5, users), which is 5 on the probe corpus; fewer users lower it",
}


def definitions(source: str) -> dict:
    """``{first line: qualified name}`` of every ``def`` in ``source``,
    methods and nested functions included; the first line is the first
    decorator's when there is one, as a code object's ``co_firstlineno``."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[first] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def unreached(source: str, filename: str, reached) -> list:
    """Qualified names of the ``def``s in ``source`` (read from ``filename``)
    whose code no ``(file, first line)`` pair of ``reached`` names."""
    lines = {line for file, line in reached if file == filename}
    return sorted(name for line, name in definitions(source).items() if line not in lines)


def test_the_check_sees_a_function_never_called(tmp_path):
    source = (
        "import functools\n"
        "def used():\n    def inner():\n        return 1\n    return inner()\n"
        "def unused():\n    return 2\n"
        "class C:\n    @functools.cached_property\n    def read(self):\n        return 3\n"
        "    def unread(self):\n        return 4\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    with CallRecorder() as recorder:
        namespace["used"]()
        namespace["C"]().read
    assert unreached(source, str(path), recorder.reached) == ["C.unread", "unused"]


def never_set(source: str, filename: str, defaulted, set_) -> list:
    """``qualified_name.parameter`` of each defaulted parameter that
    ``defaulted`` records for a ``def`` in ``source`` (read from
    ``filename``) and that no entry of ``set_`` names."""
    names = definitions(source)
    return sorted(f"{names[line]}.{param}" for file, line, param in set(defaulted) - set(set_)
                  if file == filename and line in names)


def test_the_check_sees_a_parameter_never_set(tmp_path):
    source = (
        "def f(a, b=1, *, c=None, d=2, e=()):\n    return a\n"
        "class C:\n    def m(self, rows=None):\n        return rows\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    with CallRecorder(watch=str(tmp_path)) as recorder:
        namespace["f"](0, b=3)
        namespace["f"](0, d=2, e=np.arange(2))  # d at its default, e to an array
        namespace["C"]().m()
    assert never_set(source, str(path), recorder.defaulted, recorder.set) == ["C.m.rows", "f.c", "f.d"]


@pytest.fixture(scope="module")
def reached(probe):
    """``{(file, first line)}`` of every function the command lines call."""
    return probe["reached"]


def _unreached_in_package(reached) -> list:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out += [f"{path.stem}.{name}" for name in unreached(source, str(path), reached)]
    return out


def test_every_function_is_reached_or_library_only(reached):
    assert [name for name in _unreached_in_package(reached) if name not in LIBRARY_ONLY] == []


def test_library_only_lists_only_unreached_functions(reached):
    """An entry whose function is gone, or that a command now reaches, goes."""
    assert sorted(set(LIBRARY_ONLY) - set(_unreached_in_package(reached))) == []


def _never_set_in_package(probe) -> list:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out += [f"{path.stem}.{name}" for name in never_set(source, str(path), probe["defaulted"], probe["set"])]
    return out


def test_every_defaulted_parameter_is_set_by_a_command_or_fixed(probe):
    unlisted = [name for name in _never_set_in_package(probe) if name not in FIXED_DEFAULTS]
    assert unlisted == [], "\n".join(unlisted)


def test_fixed_defaults_lists_only_parameters_no_command_sets(probe):
    """An entry whose parameter is gone, or that a command now sets, goes."""
    assert sorted(set(FIXED_DEFAULTS) - set(_never_set_in_package(probe))) == []
