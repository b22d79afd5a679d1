"""Tier-1 guards for the protocol outputs and the benchmark's contract.

``ctxfuse evaluate --mode cv5`` on the benchmark's seed-0 corpus must give
the stored reference cells: summed counts, chosen costs, BA/F1 and p99
cells, compared by ``perfbench/reference.py`` exactly as the benchmark
counts a failed operation. The tracer must keep seeing every fit, every
raw session ``extract`` loads and every table row it writes, and
importing the CLI must not load scipy. The perfbench files are read only.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.cli as cli
from perfbench_files import perfbench_module
from synth import fit_single_sensor_model

corpus = perfbench_module("corpus")
reference = perfbench_module("reference")
tracer = perfbench_module("tracer")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_evaluate_matches_reference_cells(tmp_path, tiny, monkeypatch, capsys):
    workload = corpus.WORKLOADS["cv5-fusion"]
    refs = reference.load(reference.reference_path(workload.name, tiny))
    assert refs["spec_key"] == corpus.spec_key(workload.sized(tiny))
    root, info = corpus.materialize(workload, 0, tiny, tmp_path / "inputs")

    captured = {}
    original = cli.cross_validate

    def capturing(*args, **kwargs):  # the counts, as perfbench/worker.py keeps them
        captured["result"] = original(*args, **kwargs)
        return captured["result"]

    monkeypatch.setattr(cli, "cross_validate", capturing)
    out = tmp_path / "out"
    code = cli.main([
        "evaluate",
        "--features-dir", str(root / "features"),
        "--labels", str(root / "labels.txt"),
        "--partition", str(root / "partition.txt"),
        "--systems", ",".join(corpus.ALL_SYSTEMS),
        "--mode", "cv5",
        "--jobs", "1",
        "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    observed = reference.evaluate_cells(captured["result"], out, corpus.ALL_SYSTEMS, info["labels"])
    attempted, failed, notes = reference.compare_evaluate(observed, refs["corpora"]["0"])
    assert attempted == len(corpus.ALL_SYSTEMS) * len(info["labels"])
    assert failed == 0, notes


def _bindings():
    """Every object the tracer may rebind: module globals, dict-valued
    globals' items and class attributes of every ctxfuse module."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "ctxfuse" and not name.startswith("ctxfuse."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    out[(name, attr, repr(key))] = item
            elif inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, "." + cattr)] = cvalue
    return out


def test_tracer_counts_every_grid_fit_and_restores_bindings():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(90, 46))
    y = (X[:, 0] + 0.5 * rng.normal(size=90) > 0.3).astype(int)
    before = _bindings()

    t = tracer.Tracer()
    t.install()
    try:
        fit_single_sensor_model("acc", "SITTING", X, y)
    finally:
        t.uninstall()
    summary = t.summary()
    # six grid costs and the final fit, each through the traced binding
    assert summary["functions"]["classifier.train_linear"]["calls"] == len(classifier.COST_GRID) + 1
    assert summary["counters"]["classifier.lbfgs_iters"] > 0

    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_every_extracted_session_and_written_row(tmp_path, capsys):
    workload = corpus.WORKLOADS["extract-raw"]
    root, info = corpus.materialize(workload, 0, True, tmp_path / "inputs")
    before = _bindings()

    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["extract", "--input", str(root / "sessions"), "--utc-offset", "-7",
                         "--out", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert code == 0, capsys.readouterr().err
    summary = t.summary()
    # one load per session bundle, and one written table row per session
    assert summary["functions"]["ingestion.load_raw_session"]["calls"] == info["n_sessions"]
    assert summary["counters"]["ingestion.write_rows"] == info["n_sessions"]
    assert summary["functions"]["ingestion.write_features_csv"]["calls"] == len(
        list((tmp_path / "out").glob("*.features.csv")))

    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, ctxfuse.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert run.stdout.strip() == "[]"
