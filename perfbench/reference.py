"""Reference outputs and the per-operation comparison behind ``fail_frac``.

An operation of an ``evaluate`` workload is one (system, label) result
cell. It fails when its summed counts (tp, tn, fp, fn), its chosen cost in
any fold, its BA or F1 cell, or its label's p99 baselines differ from the
reference. Counts are read from the ``cross_validate`` result the CLI
receives; everything else from ``results_*.csv`` and ``run_manifest.json``.

An operation of ``extract`` is one session row of the written feature
tables. It fails when the row is missing or extra, or any feature differs
by more than a relative 1e-7 (stored references keep 9 significant digits;
a reordered floating-point sum stays far inside that), or its missing
cells or label cells differ.

References live in ``reference/<workload>[-tiny].json.gz``, one entry per
corpus seed, and were recorded from the program as it was when the
benchmark was added (``make_reference.py``).
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-7
ABS_TOL = 1e-10


def reference_path(workload: str, tiny: bool) -> Path:
    return REFERENCE_DIR / f"{workload}{'-tiny' if tiny else ''}.json.gz"


def load(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def store(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    raw = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:  # mtime 0: the same references give the same bytes
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(raw)


# ---------------------------------------------------------------------------
# Observed outputs
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def evaluate_cells(evaluations, out_dir: Path, systems, labels) -> dict:
    """The observed (system, label) cells of one ``evaluate`` invocation."""
    tables = {m: _read_csv(out_dir / f"results_{m}.csv") for m in ("ba", "f1")}
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    cells = {}
    for metric, rows in tables.items():
        header = rows[0]
        for row in rows[1:]:
            if row[0] not in labels:
                continue
            for system in systems:
                cell = cells.setdefault(f"{system}|{row[0]}", {})
                cell[metric] = row[header.index(system)]
                cell[f"p99_{metric}"] = row[header.index("p99")]
    for label in labels:
        chosen = manifest["chosen_costs"].get(label, {})
        for system in systems:
            cell = cells.setdefault(f"{system}|{label}", {})
            cell["costs"] = {k: v for k, v in sorted(chosen.items()) if k.split(":", 1)[1] == system}
            if evaluations is not None:
                c = evaluations[system][label].counts
                cell["counts"] = [c.tp, c.tn, c.fp, c.fn]
    return cells


def _round(cell: str) -> str:
    try:
        return format(float(cell), ".9g")
    except ValueError:
        return cell


def extract_tables(out_dir: Path) -> dict:
    """``{user: {"header": [...], "rows": {timestamp: [cells]}}}`` of the written tables."""
    tables = {}
    for path in sorted(out_dir.glob("*.features.csv")):
        rows = _read_csv(path)
        tables[path.name.split(".")[0]] = {
            "header": rows[0],
            "rows": {row[0]: row[1:] for row in rows[1:]},
        }
    return tables


def extract_reference(tables: dict) -> dict:
    """Observed tables rounded to the stored precision."""
    return {
        user: {
            "header": t["header"],
            "rows": {ts: [_round(c) for c in cells] for ts, cells in t["rows"].items()},
        }
        for user, t in tables.items()
    }


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def compare_evaluate(observed, ref: dict) -> tuple:
    """``(attempted, failed, first differences)``; ``observed=None`` fails all."""
    attempted = len(ref["cells"])
    if observed is None:
        return attempted, attempted, ["invocation failed"]
    failed, notes = 0, []
    for key, want in sorted(ref["cells"].items()):
        got = observed.get(key)
        if got != want:
            failed += 1
            if len(notes) < 3:
                notes.append(f"{key}: expected {want}, got {got}")
    extra = sorted(set(observed) - set(ref["cells"]))
    return attempted + len(extra), failed + len(extra), notes + [f"unexpected cell {k}" for k in extra[:3]]


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_extract(observed, ref: dict) -> tuple:
    """``(attempted, failed, first differences)`` over session rows."""
    want_rows = {(u, ts): (t["header"], cells) for u, t in ref["tables"].items() for ts, cells in t["rows"].items()}
    attempted = len(want_rows)
    if observed is None:
        return attempted, attempted, ["invocation failed"]
    got_rows = {(u, ts): (t["header"], cells) for u, t in observed.items() for ts, cells in t["rows"].items()}
    failed, notes = 0, []
    for key, (header, cells) in sorted(want_rows.items()):
        got = got_rows.get(key)
        ok = (
            got is not None
            and got[0] == header
            and len(got[1]) == len(cells)
            and all(_cell_matches(g, w) for g, w in zip(got[1], cells))
        )
        if not ok:
            failed += 1
            if len(notes) < 3:
                notes.append(f"row {key}: differs from the reference" if got else f"row {key}: missing")
    extra = sorted(set(got_rows) - set(want_rows))
    return attempted + len(extra), failed + len(extra), notes + [f"unexpected row {k}" for k in extra[:3]]
