"""The benchmark's own smoke test.

    python3 perfbench/selftest.py

Runs every workload at tiny size (seconds each), untraced and traced, and
checks that each run passes its reference check and prints every metric
``BENCHMARK.json`` names, with its unit. Then checks that the benchmark
cannot be fooled: a corrupted copy of each tiny reference must be reported
as failed operations, and a checkout without the program's sources must
exit non-zero without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import reference  # noqa: E402
from run import WORK  # noqa: E402

SECONDS = "0.5"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_line(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list, where: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def corrupt(data: dict) -> int:
    """Change the expected output of a few operations; returns how many."""
    entry = data["corpora"]["0"]
    if "cells" in entry:  # one cell's counts, another cell's chosen cost
        cells = [entry["cells"][k] for k in sorted(entry["cells"])]
        cells[0]["counts"][0] += 1
        with_cost = next(c for c in cells[1:] if c["costs"])
        with_cost["costs"][sorted(with_cost["costs"])[0]] *= 10
        return 2
    table = entry["tables"][sorted(entry["tables"])[0]]
    row = table["rows"][sorted(table["rows"])[0]]
    i = next(i for i, v in enumerate(row) if v not in ("", "0", "1"))
    row[i] = format(float(row[i]) * (1 + 1e-4) + 1e-6, ".9g")
    return 1


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(corpus.WORKLOADS), names
    WORK.mkdir(exist_ok=True)

    for name in names:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            res = result_line(bench("--workload", name, "--seed", "0", "--seconds", SECONDS,
                                    "--trace", trace, "--size", "tiny"))
            check_metrics(res, declared[key], f"{name} --trace {trace}")
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (name, trace, res)
            print(f"ok: {name} --trace {trace}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} operations checked")

        data = reference.load(reference.reference_path(name, tiny=True))
        n_bad = corrupt(data)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            bad = Path(tmp) / "corrupted.json.gz"
            reference.store(bad, data)
            res = result_line(bench("--workload", name, "--seed", "0", "--seconds", SECONDS,
                                    "--trace", "0", "--size", "tiny", "--reference", str(bad)))
        # every invocation fails exactly the corrupted operations
        assert not res["correct"] and res["failed"] > 0 and res["failed"] % n_bad == 0, (name, res)
        print(f"ok: {name}: corrupted reference reported as {res['failed']} failed operations")

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", names[0], "--seed", "0", "--seconds", SECONDS,
                     cwd=bare, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok: without the program's sources the benchmark exits "
              f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
