"""Shared pytest setup: the hypothesis import below, and the ``probe``
fixture that ``test_reachability.py`` and ``test_source_hygiene.py`` read.

When a ``@given`` test fails, hypothesis's failure reporter imports
``hypothesis.extra._patching``, which imports ``libcst``; that import
raises a ``mypy_extensions`` ``DeprecationWarning``. Under the project's
``filterwarnings = ["error"]`` the warning became an INTERNALERROR that
ended the session at the first failing property test. Importing the module
once here, with that one warning ignored, leaves the error filter in force
for everything else.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from perfbench_files import perfbench_module

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def _evaluate(root, out, *extra, labels=None):
    return ["evaluate", "--features-dir", str(root / "features"),
            "--labels", str(labels or root / "labels.txt"), "--out", str(out), *extra]


@pytest.fixture(scope="session")
def probe(tmp_path_factory):
    """The record of ``tests/reachability_probe.py`` running every command
    on the benchmark's tiny corpora: ``reached``, ``{(file, first line)}``
    of every function they call; ``defaulted`` and ``set``, ``{(file, first
    line, parameter)}`` of the called functions' defaulted parameters and
    of those some call set; and ``fields_read``, ``{"Class.field"}`` of the
    dataclass fields they read."""
    corpus = perfbench_module("corpus")
    work = tmp_path_factory.mktemp("reach")
    tables, _ = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, True, work / "inputs")
    raw, _ = corpus.materialize(corpus.WORKLOADS["extract-raw"], 0, True, work / "inputs")
    # two folds, the first holding out every user with a BICYCLING minute,
    # so that the second fold's BICYCLING models are trivial
    folds = work / "folds"
    folds.mkdir()
    for i, fold in enumerate((["user00", "user01", "user04"], ["user02", "user03"])):
        (folds / f"fold_{i}_test_uuids.txt").write_text("\n".join(fold) + "\n", encoding="utf-8")
    latin1 = work / "labels-latin1.txt"
    latin1.write_bytes("SITTING # assis \xe0 la table\n".encode("latin-1"))
    # a table with an infinite cell, which the bulk parse rejects: the
    # per-cell reader reads it again and reports the line
    infinite = work / "infinite"
    (infinite / "features").mkdir(parents=True)
    header, first, *rest = (tables / "features" / "user00.features.csv").read_text(encoding="utf-8").splitlines()
    first = ",".join([first.split(",")[0], "inf", *first.split(",")[2:]])
    (infinite / "features" / "user00.features.csv").write_text("\n".join([header, first, *rest]) + "\n",
                                                                encoding="utf-8")
    out = work / "out"
    runs = [
        ["extract", "--input", str(raw / "sessions"), "--utc-offset", "-7", "--out", str(out / "extract")],
        _evaluate(tables, out / "cv5-file", "--partition", str(tables / "partition.txt")),
        _evaluate(tables, out / "cv5-dir", "--partition", str(folds)),
        _evaluate(tables, out / "cv5-random", "--markdown", "--seed", "3", "--jobs", "2"),
        _evaluate(tables, out / "loo", "--mode", "loo"),
        ["personalize", "--features-dir", str(tables / "features"), "--labels", str(tables / "labels.txt"),
         "--user", "user00", "--partition", str(tables / "partition.txt"), "--markdown",
         "--seed", "3", "--out", str(out / "personalize")],
        ["rerun", str(out / "personalize" / "run_manifest.json")],
        _evaluate(tables, out / "latin1", labels=latin1),
        _evaluate(infinite, out / "infinite", labels=tables / "labels.txt"),
    ]
    (work / "runs.json").write_text(json.dumps(runs), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TESTS / "reachability_probe.py"), str(work / "runs.json"),
                          str(work / "probe.json")], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads((work / "probe.json").read_text(encoding="utf-8"))
    assert record["codes"] == [0] * (len(runs) - 2) + [2, 2]
    return {
        **{key: {tuple(entry) for entry in record[key]} for key in ("reached", "defaulted", "set")},
        "fields_read": set(record["fields_read"]),
    }
