"""Record the reference outputs the benchmark compares every run against.

    python3 perfbench/make_reference.py [--size full|tiny]

Run from the root of a source checkout of the commit whose outputs are
the reference. For each workload and corpus seed it generates the inputs,
invokes the CLI once and stores the result cells (evaluate) or the
extracted rows (extract) in ``perfbench/reference/``. Regenerating them on
a later commit would hide exactly the changes the benchmark must catch;
do it only when the inputs themselves change (``corpus.GENERATOR_VERSION``
or a workload's sizes).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import reference  # noqa: E402
from run import WORK  # noqa: E402
from worker import CaptureEvaluations, cli_argv  # noqa: E402

#: corpora with stored references; a run's seed selects one modulo this
CORPUS_SEEDS = {"full": 10, "tiny": 1}


def record(workload, tiny: bool, seed: int) -> dict:
    import ctxfuse.cli as cli

    inputs, info = corpus.materialize(workload, seed, tiny, WORK / "inputs")
    out_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    capture = CaptureEvaluations(cli)
    capture.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_argv(workload, inputs) + ["--out", str(out_dir)])
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: the CLI exited with {code}")
        if workload.kind == "extract":
            return {"tables": reference.extract_reference(reference.extract_tables(out_dir))}
        cells = reference.evaluate_cells(capture.result, out_dir, corpus.ALL_SYSTEMS, info["labels"])
        return {"cells": cells}
    finally:
        capture.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(CORPUS_SEEDS), default="full")
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"
    for name, workload in corpus.WORKLOADS.items():
        n = CORPUS_SEEDS[args.size]
        data = {
            "workload": name,
            "spec_key": corpus.spec_key(workload.sized(tiny)),
            "corpus_seeds": n,
            "corpora": {str(seed): record(workload, tiny, seed) for seed in range(n)},
        }
        path = reference.reference_path(name, tiny)
        reference.store(path, data)
        print(f"{path.relative_to(HERE.parent)}: {n} corpora")
    return 0


if __name__ == "__main__":
    sys.exit(main())
