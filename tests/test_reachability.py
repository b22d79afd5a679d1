"""Every function of the package is reached by a command, or is listed.

A subprocess (``tests/reachability_probe.py``) installs a profiler before
``import ctxfuse`` and runs the CLI on the benchmark's tiny corpora:
``extract``; ``evaluate`` in cv5 mode with a partition file, with a
partition directory and with no partition (and ``--markdown``);
``evaluate --mode loo``; ``personalize --partition --markdown``; ``rerun``;
and ``evaluate`` with a labels file that is not UTF-8. A ``def`` in
``src/ctxfuse`` that none of these calls fails the check unless
:data:`LIBRARY_ONLY` names it with its reason, so code that no command
needs does not linger in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench_files import perfbench_module
from reachability_probe import CallRecorder

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "ctxfuse"

#: ``module.qualified_name`` -> why the function stays although no command calls it
LIBRARY_ONLY = {
    "classifier.loss_and_gradient": "the objective at the raw inputs; tests check the solver's gradient on it",
    "classifier.fit_single_sensor_model": "the array-level fit of README Fitting; the tracer and fit oracles use it",
    "fusion.early_fusion": "the one-label EF fit of README Fitting; fusion tests use it as the fit oracle",
    "data.label_vector": "an example list's targets; the per-example oracles build their labels with it",
    "data.FeatureStore.from_examples": "a store of example objects; the per-example oracles and README Fitting use it",
    "ingestion.parse_features_csv": "a feature table as examples; the table-reader tests compare against it",
    "fusion.predict_late_fusion_learned": "LFL scoring; the fold loop calls it once its columns are fixed (ROADMAP 1)",
    "fusion.LateFusionLearned.sensor_weights": "LFL weights per sensor; reported in the manifest once ROADMAP 4 lands",
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


def _evaluate(root, out, *extra, labels=None):
    return ["evaluate", "--features-dir", str(root / "features"),
            "--labels", str(labels or root / "labels.txt"), "--out", str(out), *extra]


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """``{(file, first line)}`` of every function the command lines call."""
    corpus = perfbench_module("corpus")
    work = tmp_path_factory.mktemp("reach")
    tables, _ = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, True, work / "inputs")
    raw, _ = corpus.materialize(corpus.WORKLOADS["extract-raw"], 0, True, work / "inputs")
    folds = work / "folds"
    folds.mkdir()
    for i, line in enumerate((tables / "partition.txt").read_text(encoding="utf-8").splitlines()):
        (folds / f"fold_{i}_test_uuids.txt").write_text(line + "\n", encoding="utf-8")
    latin1 = work / "labels-latin1.txt"
    latin1.write_bytes("SITTING # assis \xe0 la table\n".encode("latin-1"))
    out = work / "out"
    runs = [
        ["extract", "--input", str(raw / "sessions"), "--utc-offset", "-7", "--out", str(out / "extract")],
        _evaluate(tables, out / "cv5-file", "--partition", str(tables / "partition.txt")),
        _evaluate(tables, out / "cv5-dir", "--partition", str(folds)),
        _evaluate(tables, out / "cv5-random", "--markdown"),
        _evaluate(tables, out / "loo", "--mode", "loo"),
        ["personalize", "--features-dir", str(tables / "features"), "--labels", str(tables / "labels.txt"),
         "--user", "user00", "--partition", str(tables / "partition.txt"), "--markdown",
         "--out", str(out / "personalize")],
        ["rerun", str(out / "personalize" / "run_manifest.json")],
        _evaluate(tables, out / "latin1", labels=latin1),
    ]
    (work / "runs.json").write_text(json.dumps(runs), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TESTS / "reachability_probe.py"), str(work / "runs.json"),
                          str(work / "probe.json")], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    probe = json.loads((work / "probe.json").read_text(encoding="utf-8"))
    assert probe["codes"] == [0] * (len(runs) - 1) + [2]
    return {tuple(pair) for pair in probe["reached"]}


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
