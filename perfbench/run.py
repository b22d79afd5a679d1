"""End-to-end and per-layer benchmark of the ctxfuse CLI.

    python3 perfbench/run.py --workload cv5-fusion --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout. Workloads: ``cv5-fusion`` and
``extract-raw`` (see ``corpus.py`` for why each exists and what it varies). The seed picks one of the corpora that have stored
reference outputs (``seed % corpus_seeds``), generates it under
``.perfbench_work/inputs`` (kept for later runs) and then:

1. measures ``setup_s``: the median, over several fresh interpreters, of
   the time to ``import ctxfuse.cli``;
2. runs the workload in a fresh worker process (``worker.py``) for
   ``--seconds``, checking every invocation's outputs against the reference;
3. prints a summary and, as the last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The worker runs with one BLAS thread, like the CLI's ``--jobs 1``, so its
wall time does not depend on a second core being free. Exit code 2 (and no
JSON line) when the program cannot be imported or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import reference  # noqa: E402
from worker import PER_LAYER  # noqa: E402

#: fresh interpreters timed for setup_s (after one untimed import that
#: leaves the byte-code cache behind)
N_IMPORTS = 3

#: a run must end well inside 180 s
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "minutes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import ctxfuse.cli; "
    "print(repr(time.perf_counter() - t0))"
)


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list:
    """Seconds to import ``ctxfuse.cli`` in each of N fresh interpreters."""
    times = []
    for i in range(N_IMPORTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError("importing ctxfuse.cli failed:\n" + proc.stderr[-2000:])
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(args, env, inputs: Path, ref: dict, run_dir: Path, deadline: float) -> dict:
    ref_path = run_dir / "reference.json"
    ref_path.write_text(json.dumps(ref), encoding="utf-8")
    result_path = run_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--inputs", str(inputs),
        "--reference-json", str(ref_path),
        "--work-dir", str(run_dir),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    log_path = run_dir / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("the workload did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n" + log_path.read_text()[-3000:])
    return json.loads(result_path.read_text(encoding="utf-8"))


def _describe(workload, spec, info) -> str:
    if workload.kind == "extract":
        return (f"{info['n_sessions']} raw sessions from {spec.n_users} users, watch "
                f"{spec.watch_samples[0]}-{spec.watch_samples[1]} samples, "
                f"{info['waveform_sessions']} with waveform audio")
    return (f"{info['minutes']} minutes = {spec.n_users} users x {spec.minutes_per_user}, "
            f"{len(spec.prevalence)} labels, {len(corpus.ALL_SYSTEMS)} systems, --mode cv5")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctxfuse end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep invoking the CLI")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: shrunken inputs for the benchmark's own smoke test")
    parser.add_argument("--reference", help="reference file to compare against (default: the stored one)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if not (ROOT / "src" / "ctxfuse" / "cli.py").is_file():
            raise BenchError(f"no ctxfuse sources under {ROOT / 'src'}; run from a source checkout")
        workload = corpus.WORKLOADS[args.workload]
        tiny = args.size == "tiny"
        spec = workload.sized(tiny)
        ref_file = Path(args.reference) if args.reference else reference.reference_path(workload.name, tiny)
        refs = reference.load(ref_file)
        if refs.get("spec_key") != corpus.spec_key(spec):
            raise BenchError(f"{ref_file} was recorded for other inputs; rerun make_reference.py")
        corpus_seed = args.seed % refs["corpus_seeds"]
        inputs, info = corpus.materialize(workload, corpus_seed, tiny, WORK / "inputs")

        env = _env()
        setup_times = measure_setup(env)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        try:
            result = run_worker(args, env, inputs, refs["corpora"][str(corpus_seed)], run_dir, deadline)
            if (run_dir / "spans.npz").exists():
                os.replace(run_dir / "spans.npz", WORK / f"spans_{workload.name}.npz")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    walls = result["untraced_wall_s"]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setup_times)
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in result["per_layer"].items()}
    else:
        values = {
            "wall_s": wall_s,
            "minutes_per_s": info["minutes"] / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    correct = result["failed"] == 0 and result["checks_ok"]
    detail = {
        "workload": workload.name, "seed": args.seed, "corpus_seed": corpus_seed, "size": args.size,
        "input": _describe(workload, spec, info), "setup_s_samples": setup_times, **result,
    }
    (WORK / f"BENCH_{workload.name}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"{workload.name} seed {args.seed} (corpus {corpus_seed}): {detail['input']}")
    print(f"wall_s median {wall_s:.4f} s over n={len(walls)} invocations "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); setup_s median {setup_s:.4f} s over "
          f"n={len(setup_times)} imports; peak_rss_mb {result['peak_rss_mb']:.1f}; "
          f"fail_frac {result['failed']}/{result['attempted']}")
    for note in result["notes"]:
        print(f"check: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
