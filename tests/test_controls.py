"""Control corpora through ``ctxfuse evaluate``: relations that a right
protocol must satisfy on labels whose answer is known from how they were
built (``tests/controls.py``), checked on the results CSV alone.
"""

import csv

import ctxfuse.cli as cli
from controls import with_random_label
from perfbench_files import perfbench_module

corpus = perfbench_module("corpus")

#: How far above its p99 a system's BA on the random label may read. Over
#: 10 corpus seeds x 3 label seeds (270 cells) the largest excess was 0.033.
RANDOM_LABEL_MARGIN = 0.05


def test_random_label_stays_within_p99_in_every_system(tmp_path, capsys):
    root, _ = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, False, tmp_path / "inputs")
    control = with_random_label(root, tmp_path / "control", seed=0)
    out = tmp_path / "out"
    code = cli.main([
        "evaluate",
        "--features-dir", str(control / "features"),
        "--labels", str(control / "labels.txt"),
        "--partition", str(control / "partition.txt"),
        "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    with open(out / "results_ba.csv", encoding="utf-8") as fh:
        rows = {row["label"]: row for row in csv.DictReader(fh)}

    def above_bound(label):
        bound = float(rows[label]["p99"]) + RANDOM_LABEL_MARGIN
        return {s: float(rows[label][s]) for s in corpus.ALL_SYSTEMS if float(rows[label][s]) > bound}

    assert above_bound("RANDOM_30") == {}
    # a label the sensors carry clears the same bound in every system
    assert sorted(above_bound("SITTING")) == sorted(corpus.ALL_SYSTEMS)
