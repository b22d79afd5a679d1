"""Control corpora: feature tables plus a label whose right answer is known
from how it was built, so a test needs no stored reference.

:func:`with_random_label` adds a label drawn at random, independent of
every feature and of every user. No system can learn it, so every system's
balanced accuracy must stay within the random baseline's p99.
"""

import shutil
from pathlib import Path

import numpy as np


def with_random_label(root, out, *, seed) -> Path:
    """Copy the corpus at ``root`` (``features/``, ``partition.txt``) to
    ``out``, appending a ``label:RANDOM_30`` column to every feature table.

    The label is relevant on ``round(0.3 * n)`` of each table's ``n``
    minutes, picked by a generator seeded with ``seed``, tables in file
    name order. ``out/labels.txt`` names the new label first, then the
    corpus's own labels. Returns ``out``.
    """
    root, out = Path(root), Path(out)
    (out / "features").mkdir(parents=True)
    rng = np.random.default_rng(seed)
    for table in sorted((root / "features").glob("*.features.csv")):
        header, *rows = table.read_text(encoding="utf-8").splitlines()
        relevant = np.zeros(len(rows), dtype=bool)
        relevant[rng.permutation(len(rows))[: round(0.3 * len(rows))]] = True
        lines = [f"{header},label:RANDOM_30"] + [f"{row},{int(y)}" for row, y in zip(rows, relevant)]
        (out / "features" / table.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels = (root / "labels.txt").read_text(encoding="utf-8")
    (out / "labels.txt").write_text(f"RANDOM_30\n{labels}", encoding="utf-8")
    shutil.copy(root / "partition.txt", out / "partition.txt")
    return out
