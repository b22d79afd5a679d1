"""Static checks on the package source.

Every name a module imports must be used in that module, and every private
(``_``-prefixed) top-level function, class or constant must be read by some
module of the package. A deletion or refactor that leaves an import or a
private helper behind fails here instead of lingering. The package
``__init__`` is exempt from the import check: its imports are the public
API it re-exports. Every dataclass field must be read on an instance of its
own class by some command (the ``probe`` fixture of ``conftest.py`` records
the reads), unless :data:`FIELDS_READ_ELSEWHERE` names it with its reason:
a field that is only ever set is data no command uses. No dataclass field
of the package may be an optional float or int: NaN is the one encoding of
a missing value or an undefined score, and a None beside it is a second
one. Importing the command line loads no package
outside the standard library but numpy, the one dependency an install
brings: the test-only ones (scipy, hypothesis) would hide such an import.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reachability_probe import FieldRecorder

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctxfuse"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing else in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as ``-> "Dataset"`` reads the name too
    used |= {
        n.value for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier()
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import json\nfrom typing import Union, Optional\nx: Optional[int]\n") == [
        (1, "json"), (2, "Union"),
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict:
    """``{name: line}`` of the private top-level functions, classes and
    constants that ``source`` defines."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out.update((n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def names_read(source: str) -> set:
    """Every name ``source`` reads, bare (``_f``) or as an attribute (``m._f``)."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def test_the_check_sees_an_unread_private_name():
    source = "_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n__all__ = []\n"
    defined = private_definitions(source)
    assert defined == {"_A": 1, "_B": 2, "_f": 3, "_C": 5}
    assert sorted(set(defined) - names_read(source)) == ["_B", "_C", "_f"]
    assert "_f" in names_read("import m\nm._f()\n")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_top_level_name_is_read(path):
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    defined = private_definitions(path.read_text(encoding="utf-8"))
    assert sorted((line, name) for name, line in defined.items() if name not in read) == []


def dataclass_fields(source: str) -> dict:
    """``{"Class.field": line}`` of every field the dataclasses in ``source`` declare."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    out[f"{node.name}.{stmt.target.id}"] = stmt.lineno
    return out


def unread_fields(fields: dict, read: set) -> list:
    """``(line, "Class.field")`` of each field of ``fields`` that ``read`` does not name."""
    return sorted((line, name) for name, line in fields.items() if name not in read)


#: ``Class.field`` -> why the field stays although no command reads it
FIELDS_READ_ELSEWHERE = {}


def _package_fields() -> dict:
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        fields.update(dataclass_fields(path.read_text(encoding="utf-8")))
    return fields


def test_the_check_sees_a_field_never_read():
    # Reading.unit is read and Series.unit is not: a field counts as read
    # only on its own class
    source = (
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class Series:\n"
        "    samples: list\n"
        "    unit: str\n"
        "    rate: float = 1.0\n"
        "    scale: ClassVar[float] = 2.0\n"
        "@dataclass(frozen=True)\n"
        "class Reading:\n"
        "    unit: str\n"
        "class Plain:\n"
        "    note: str = ''\n"
        "def load(rows):\n"
        "    s = Series(samples=rows, unit='G', rate=2.0)\n"
        "    return s.samples, getattr(s, 'rate'), Reading(unit='G').unit, Plain().note\n"
    )
    fields = dataclass_fields(source)
    assert fields == {"Series.samples": 5, "Series.unit": 6, "Series.rate": 7, "Reading.unit": 11}
    namespace = {"__name__": "series"}
    exec(compile(source, "series.py", "exec"), namespace)
    classes = [namespace[name] for name in ("Series", "Reading", "Plain")]
    with FieldRecorder(classes) as recorder:
        namespace["load"]([1.0])
    assert unread_fields(fields, recorder.read) == [(6, "Series.unit")]
    assert all("__getattribute__" not in vars(cls) for cls in classes)  # restored


def test_every_dataclass_field_is_read(probe):
    unread = unread_fields(_package_fields(), probe["fields_read"])
    assert [(line, name) for line, name in unread if name not in FIELDS_READ_ELSEWHERE] == []


def test_fields_read_elsewhere_lists_only_unread_fields(probe):
    """An entry whose field is gone, or that a command now reads, goes."""
    unread = {name for _, name in unread_fields(_package_fields(), probe["fields_read"])}
    assert sorted(set(FIELDS_READ_ELSEWHERE) - unread) == []


#: an optional scalar annotation, in the spellings the typing module allows
_OPTIONAL_SCALAR = re.compile(
    r"(typing\.)?Optional\[(float|int)\]|(float|int) \| None|None \| (float|int)"
)


def optional_scalar_fields(source: str) -> list:
    """``(line, field)`` of each dataclass field in ``source`` annotated as
    an optional float or int."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann = stmt.annotation
                text = ann.value if isinstance(ann, ast.Constant) else ast.unparse(ann)
                if _OPTIONAL_SCALAR.fullmatch(str(text)):
                    out.append((stmt.lineno, stmt.target.id))
    return out


def test_the_check_sees_an_optional_scalar_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Fix:\n"
        "    t: float\n"
        "    lat: Optional[float] = None\n"
        "    n: 'Optional[int]' = None\n"
        "    speed: float | None = None\n"
        "    quick: Optional[np.ndarray] = None\n"
        "class Plain:\n"
        "    alt: Optional[float] = None\n"
    )
    assert optional_scalar_fields(source) == [(5, "lat"), (6, "n"), (7, "speed")]


def test_model_dataclasses_have_no_optional_scalar_field():
    """No dataclass of any module of the package: a score, too, is NaN when undefined."""
    found = [(path.name, line, name) for path in sorted(PACKAGE.glob("*.py"))
             for line, name in optional_scalar_fields(path.read_text(encoding="utf-8"))]
    assert found == []


def packages_loaded_by(statement: str) -> list:
    """The top-level packages outside the standard library (and other than
    ``ctxfuse``) that ``statement`` loads in a fresh interpreter, beyond those
    the interpreter loaded at startup."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - before))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    top = {name.split(".")[0] for name in run.stdout.split()}
    return sorted(top - set(sys.stdlib_module_names) - {"ctxfuse"})


def test_the_check_sees_a_package_outside_the_standard_library():
    assert packages_loaded_by("import json, csv") == []
    assert "scipy" in packages_loaded_by("import scipy.linalg")


def test_cli_imports_only_the_installed_dependencies():
    assert set(packages_loaded_by("import ctxfuse.cli")) <= {"numpy"}  # pyproject's dependencies
