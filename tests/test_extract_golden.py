"""``ctxfuse extract`` on the benchmark's raw corpus matches its stored tables.

The inputs come from ``perfbench/corpus.py`` (seeded, written without
ctxfuse code) and the expected feature tables from
``perfbench/reference/extract-raw[-tiny].json.gz``; the comparison is
``perfbench/reference.py``'s, so a row fails here exactly when the
benchmark would count it as a failed operation.
"""

import pytest

from ctxfuse.cli import main
from perfbench_files import perfbench_module

corpus = perfbench_module("corpus")
reference = perfbench_module("reference")


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_extract_matches_reference_tables(tmp_path, tiny, capsys):
    workload = corpus.WORKLOADS["extract-raw"]
    refs = reference.load(reference.reference_path(workload.name, tiny))
    assert refs["spec_key"] == corpus.spec_key(workload.sized(tiny))
    root, info = corpus.materialize(workload, 0, tiny, tmp_path / "inputs")
    out = tmp_path / "out"
    code = main(["extract", "--input", str(root / "sessions"), "--utc-offset", "-7",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    attempted, failed, notes = reference.compare_extract(
        reference.extract_tables(out), refs["corpora"]["0"])
    assert attempted == info["n_sessions"]
    assert failed == 0, notes
