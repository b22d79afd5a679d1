"""Runs one workload in a fresh process and writes its measurements as JSON.

Started by ``run.py`` with the generated inputs already on disk. The CLI
runs in-process (``ctxfuse.cli.main``, ``--jobs 1``), so a timing excludes
interpreter start and import. Invocations repeat while one more, as long
as the median one so far, still ends within ``--seconds`` (at least one
runs); every invocation's outputs are checked against the reference.

With ``--trace 1`` untraced and traced invocations alternate (at least two
traced ones): the traced ones give the per-layer numbers, their difference
to the untraced ones the tracing overhead, and their call counts must repeat
exactly. On cv5 the ``train_linear`` calls must also equal the count derived
from the inputs, which shows that no call path bypassed the wrappers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import corpus
import reference
from tracer import LAYERS, Tracer

#: per-layer metrics of a traced run: name -> (unit, better)
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
PER_LAYER.update({
    # cv5-fusion: grid search, EF and LFL
    "classifier.train_linear.calls": ("count", "lower"),
    "classifier.train_linear.s": ("s", "lower"),
    "classifier.lbfgs_iters": ("count", "lower"),
    "classifier.select_cost.s": ("s", "lower"),
    "kernels.logistic_terms.calls": ("count", "lower"),
    "fusion.late_fusion_learned.s": ("s", "lower"),
    "fusion.component_probabilities.calls": ("count", "lower"),
    "fusion.early_fusion.s": ("s", "lower"),
    "classifier.predict_proba.calls": ("count", "lower"),
    "classifier.predict_proba_matrix.calls": ("count", "lower"),
    "classifier.predict_rows": ("count", "lower"),
    "classifier.predict_rows_per_call": ("rows/call", "higher"),
    # per-fold matrix assembly and table parsing (cv5-fusion, behind the fits)
    "data.feature_matrix.calls": ("count", "lower"),
    "data.feature_matrix.rows": ("count", "lower"),
    "data.label_vector.calls": ("count", "lower"),
    "model.has_sensor.calls": ("count", "lower"),
    "model.core_subset.s": ("s", "lower"),
    "classifier.fit_standardizer.calls": ("count", "lower"),
    "ingestion.parse_rows": ("count", "lower"),
    "ingestion.parse_features_csv.s": ("s", "lower"),
    "ingestion.parse_rows_per_s": ("rows/s", "higher"),
    # extract-raw: raw readers, feature kernels and the table writer
    "ingestion.load_raw_session.calls": ("count", "lower"),
    "ingestion.load_raw_session.s": ("s", "lower"),
    "ingestion.raw_sessions_per_s": ("sessions/s", "higher"),
    "ingestion.write_rows": ("count", "lower"),
    "ingestion.write_features_csv.s": ("s", "lower"),
    "ingestion.write_rows_per_s": ("rows/s", "higher"),
    "kernels.pair_cosine.calls": ("count", "lower"),
    "kernels.pair_cosine.s": ("s", "lower"),
    "kernels.pair_cosine.pairs": ("count", "lower"),
    "features.extract_watch_features.s": ("s", "lower"),
    "audio.compute_mfcc.s": ("s", "lower"),
    # every workload
    "evaluation.cross_validate.s": ("s", "lower"),
    "evaluation.random_baseline.s": ("s", "lower"),
    "evaluation.results_table.s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
})

#: per-layer metric prefixes that name a traced function differently
_ALIASES = {
    "kernels.pair_cosine": "kernels.pair_cosine_lag_stats",
    "evaluation.random_baseline": "evaluation.random_baseline_scores",
}


def cli_argv(workload: corpus.Workload, root: Path) -> list:
    if workload.kind == "extract":
        return ["extract", "--input", str(root / "sessions"), "--utc-offset", "-7"]
    return [
        "evaluate",
        "--features-dir", str(root / "features"),
        "--labels", str(root / "labels.txt"),
        "--partition", str(root / "partition.txt"),
        "--systems", ",".join(corpus.ALL_SYSTEMS),
        "--mode", "cv5",
        "--jobs", "1",
    ]


class CaptureEvaluations:
    """Keeps the ``cross_validate`` result the CLI receives (for the counts)."""

    def __init__(self, cli):
        self.cli = cli
        self.result = None
        self._original = None

    def install(self):
        self._original = original = self.cli.cross_validate

        def capturing(*args, **kwargs):
            self.result = original(*args, **kwargs)
            return self.result

        self.cli.cross_validate = capturing

    def uninstall(self):
        self.cli.cross_validate = self._original


class Runner:
    def __init__(self, workload, root, info, ref, work_dir):
        import ctxfuse.cli as cli

        self.cli = cli
        self.workload = workload
        self.labels = info.get("labels")
        self.argv = cli_argv(workload, root)
        self.ref = ref
        self.out_dir = work_dir / "out"
        self.capture = CaptureEvaluations(cli)
        self.capture.install()
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def invoke(self) -> float:
        """One CLI invocation: returns its wall seconds and checks its outputs."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.capture.result = None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(self.argv + ["--out", str(self.out_dir)])
            wall = time.perf_counter() - t0
        self.check(code)
        return wall

    def check(self, code: int):
        if self.workload.kind == "extract":
            observed = reference.extract_tables(self.out_dir) if code == 0 else None
            attempted, failed, notes = reference.compare_extract(observed, self.ref)
        else:
            observed = None
            if code == 0:
                observed = reference.evaluate_cells(
                    self.capture.result, self.out_dir, corpus.ALL_SYSTEMS, self.labels)
            attempted, failed, notes = reference.compare_evaluate(observed, self.ref)
        if code != 0:
            notes = [f"exit code {code}"] + notes
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes[: max(0, 5 - len(self.notes))])


def _rate(num, den):
    return num / den if den > 0 else 0.0


def per_layer_metrics(summaries: list, traced: list, untraced: list, fail_frac: float) -> dict:
    """Per-layer metrics: counts from the first traced invocation, times as medians."""
    first = summaries[0]

    def seconds(func):
        return statistics.median(s["functions"].get(func, {}).get("s", 0.0) for s in summaries)

    def calls(func):
        return first["functions"].get(func, {}).get("calls", 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(s["layers"][layer]["self_s"] for s in summaries)
        out[f"{layer}.calls"] = first["layers"][layer]["calls"]
    for name in PER_LAYER:
        prefix, _, suffix = name.rpartition(".")
        if suffix in ("calls", "s") and prefix not in LAYERS:
            func = _ALIASES.get(prefix, prefix)
            out[name] = calls(func) if suffix == "calls" else seconds(func)
    counters = first["counters"]
    for name in ("classifier.lbfgs_iters", "classifier.predict_rows", "data.feature_matrix.rows",
                 "ingestion.parse_rows", "ingestion.write_rows", "kernels.pair_cosine.pairs"):
        out[name] = counters.get(name, 0)
    out["classifier.predict_rows_per_call"] = _rate(
        out["classifier.predict_rows"], out["classifier.predict_proba_matrix.calls"])
    out["ingestion.parse_rows_per_s"] = _rate(out["ingestion.parse_rows"], out["ingestion.parse_features_csv.s"])
    out["ingestion.raw_sessions_per_s"] = _rate(
        out["ingestion.load_raw_session.calls"], out["ingestion.load_raw_session.s"])
    out["ingestion.write_rows_per_s"] = _rate(out["ingestion.write_rows"], out["ingestion.write_features_csv.s"])
    out["trace.traced_wall_s"] = statistics.median(traced)
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    out["fail_frac"] = fail_frac
    assert set(out) == set(PER_LAYER), sorted(set(out) ^ set(PER_LAYER))
    return out


def _work_signature(summary: dict) -> dict:
    """Everything a traced invocation counts; must repeat exactly."""
    return {
        "functions": {k: v["calls"] for k, v in summary["functions"].items()},
        "counters": summary["counters"],
    }


def run(args) -> dict:
    workload = corpus.WORKLOADS[args.workload]
    root = Path(args.inputs)
    info = json.loads((root / "info.json").read_text(encoding="utf-8"))
    ref = json.loads(Path(args.reference_json).read_text(encoding="utf-8"))
    work_dir = Path(args.work_dir)
    runner = Runner(workload, root, info, ref, work_dir)

    deadline = time.perf_counter() + args.seconds

    def time_left_for(walls) -> bool:
        """Whether another round, as long as the median one so far, ends by the deadline."""
        return time.perf_counter() + statistics.median(walls) <= deadline

    untraced, traced, summaries = [], [], []
    checks_ok, check_notes = True, []
    if not args.trace:
        while not untraced or time_left_for(untraced):
            untraced.append(runner.invoke())
    else:
        tracer = Tracer()
        while len(traced) < 2 or time_left_for([u + t for u, t in zip(untraced, traced)]):
            untraced.append(runner.invoke())
            runner.capture.uninstall()
            tracer.install()
            runner.capture.install()
            try:
                traced.append(runner.invoke())
            finally:
                runner.capture.uninstall()
                tracer.uninstall()
                runner.capture.install()
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                tracer.write_spans(work_dir / "spans.npz")
            tracer.reset()
        first = _work_signature(summaries[0])
        for i, s in enumerate(summaries[1:], start=2):
            if _work_signature(s) != first:
                checks_ok = False
                check_notes.append(f"traced invocation {i} counted different work than the first")
        expected = info.get("expected_train_linear_calls")  # evaluate workloads only
        got = summaries[0]["functions"].get("classifier.train_linear", {}).get("calls", 0)
        if expected is not None and got != expected:
            checks_ok = False
            check_notes.append(f"train_linear calls {got} != {expected} derived from the inputs")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": workload.name,
        "minutes": info["minutes"],
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "notes": runner.notes + check_notes,
        "checks_ok": checks_ok,
    }
    if args.trace:
        result["per_layer"] = per_layer_metrics(
            summaries, traced, untraced, runner.failed / max(runner.attempted, 1))
        result["functions"] = summaries[0]["functions"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--inputs", required=True, help="directory of generated inputs")
    parser.add_argument("--reference-json", required=True, help="reference entry for this corpus")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="where to write the measurements")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
