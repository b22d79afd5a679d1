"""Reading and writing the on-disk formats.

Three formats, all versioned by convention and documented in the README:

* per-user feature tables: UTF-8 CSV, one row per minute, first column a
  unix timestamp, sensor feature columns grouped by name prefix, label
  columns prefixed ``label:`` with cells 1/0/empty;
* fold partition: a text file with one line per fold of whitespace-separated
  user ids (a directory of ``fold_<i>_test*uuids*.txt`` files also loads);
* raw session bundles: one directory per recorded minute with per-sensor
  column files and a ``session.json`` manifest.

Parsing never coerces silently: empty cells become NaN, malformed cells
become errors with line numbers.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .audio import compute_mfcc
from .evaluation import FoldPartition
from .model import (
    AudioMfccSeries,
    Example,
    FEATURE_DIMS,
    LABEL_VALUES,
    LabelAssignment,
    LocationSeries,
    MISSING,
    NOT_RELEVANT,
    PHONE_STATE_VALUES,
    PhoneStateSnapshot,
    RELEVANT,
    SENSORS,
    TriaxialSeries,
    canonical_label_name,
)

log = logging.getLogger(__name__)

STANDARD_GRAVITY = 9.80665  # m/s^2 per G

#: column-name prefixes marking each sensor's feature group; the quick
#: location features ship under their own prefix ahead of the main group
SENSOR_COLUMN_PREFIXES = {
    "acc": ("raw_acc:",),
    "gyro": ("proc_gyro:",),
    "wacc": ("watch_acceleration:",),
    "loc": ("location_quick_features:", "location:"),
    "aud": ("audio_naive:",),
    "ps": ("discrete:",),
}

LABEL_COLUMN_PREFIX = "label:"

_MAGNITUDE_STAT_NAMES = (
    "mean",
    "std",
    "moment3",
    "moment4",
    "percentile25",
    "percentile50",
    "percentile75",
    "value_entropy",
    "time_entropy",
    "log_energy_band0",
    "log_energy_band1",
    "log_energy_band2",
    "log_energy_band3",
    "log_energy_band4",
    "spectral_entropy",
    "dominant_period",
    "dominant_period_autocorr",
)

_AXIS_STAT_NAMES = (
    "mean_x",
    "mean_y",
    "mean_z",
    "std_x",
    "std_y",
    "std_z",
    "corr_xy",
    "corr_xz",
    "corr_yz",
)


def _motion_names(prefix):
    return [f"{prefix}magnitude:{n}" for n in _MAGNITUDE_STAT_NAMES] + [
        f"{prefix}axes:{n}" for n in _AXIS_STAT_NAMES
    ]


def _watch_names():
    names = _motion_names("watch_acceleration:")
    for axis in "xyz":
        names += [f"watch_acceleration:axes:log_energy_{axis}_band{b}" for b in range(5)]
    for lo, hi in (("0", "0.5"), ("0.5", "1"), ("1", "5"), ("5", "10"), ("10", "inf")):
        names.append(f"watch_acceleration:direction:cos_lag_{lo}_to_{hi}")
    return names


def _location_names():
    quick = [
        "location_quick_features:std_lat",
        "location_quick_features:std_long",
        "location_quick_features:lat_change",
        "location_quick_features:long_change",
        "location_quick_features:mean_abs_lat_deriv",
        "location_quick_features:mean_abs_long_deriv",
    ]
    main = [
        "location:num_valid_updates",
        "location:log_latitude_range",
        "location:log_longitude_range",
        "location:min_altitude",
        "location:max_altitude",
        "location:min_speed",
        "location:max_speed",
        "location:best_vertical_accuracy",
        "location:best_horizontal_accuracy",
        "location:diameter",
        "location:log_diameter",
    ]
    return quick + main


def _audio_names():
    return [f"audio_naive:mfcc{c}:mean" for c in range(13)] + [
        f"audio_naive:mfcc{c}:std" for c in range(13)
    ]


def _phone_state_names():
    names = []
    for prop, allowed in PHONE_STATE_VALUES.items():
        names += [f"discrete:{prop}:is_{v}" for v in allowed]
    starts = (0, 3, 6, 9, 12, 15, 18, 21)
    names += [f"discrete:time_of_day:between{s}and{(s + 6) % 24}" for s in starts]
    return names


#: canonical column names per sensor, in feature-vector order
FEATURE_COLUMNS = {
    "acc": _motion_names("raw_acc:"),
    "gyro": _motion_names("proc_gyro:"),
    "wacc": _watch_names(),
    "loc": _location_names(),
    "aud": _audio_names(),
    "ps": _phone_state_names(),
}

for _s, _cols in FEATURE_COLUMNS.items():
    assert len(_cols) == FEATURE_DIMS[_s], _s

_CANONICAL_RANK = {
    s: {name: i for i, name in enumerate(cols)} for s, cols in FEATURE_COLUMNS.items()
}


class IngestionError(ValueError):
    """A structural problem in an input file; the message carries context."""


def _read_table(stream, origin: str) -> tuple:
    """``(header, rows)`` of a CSV with unique column names and no ragged row."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{origin}: empty file") from None
    seen = set()
    for name in header:
        if name in seen:
            raise IngestionError(f"{origin}: line 1: duplicate column {name!r} in header")
        seen.add(name)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise IngestionError(
                f"{origin}: line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        rows.append(row)
    return header, rows


def _group_columns(header: Sequence[str], origin: str):
    """Map each sensor to its column indices, validating group widths.

    A group whose names are exactly the canonical ones (``FEATURE_COLUMNS``)
    is mapped by name; any other naming is mapped by position, and the
    sensor is listed in the returned ``positional``. A column of no sensor
    group and no label is skipped; the skipped names come back last, for
    the caller's one warning per file (:func:`_warn_skipped`).
    """
    groups = {s: [] for s in SENSORS}
    label_cols = []
    skipped = []
    label_column_of = {}
    for idx, name in enumerate(header[1:], start=1):
        if name.startswith(LABEL_COLUMN_PREFIX):
            label = canonical_label_name(name[len(LABEL_COLUMN_PREFIX):])
            if not label:
                raise IngestionError(f"{origin}: line 1: label column {name!r} has an empty canonical name")
            if label_column_of.setdefault(label, name) != name:
                raise IngestionError(f"{origin}: line 1: label columns {label_column_of[label]!r} "
                                     f"and {name!r} both canonicalize to {label!r}")
            label_cols.append((idx, label))
            continue
        owner = next((s for s, prefixes in SENSOR_COLUMN_PREFIXES.items() if name.startswith(prefixes)), None)
        if owner is None:
            skipped.append(name)
        else:
            groups[owner].append((idx, name))

    positional = []
    for sensor, cols in groups.items():
        rank = _CANONICAL_RANK[sensor]
        if len(cols) == len(rank) and all(name in rank for _, name in cols):
            # the canonical names: map by name, whatever their order in the file
            cols.sort(key=lambda t: rank[t[1]])
        elif cols:
            positional.append(sensor)
            if sensor == "loc":
                # unfamiliar names map by position; the quick-feature prefix
                # must come before the main location block
                cols.sort(key=lambda t: 0 if t[1].startswith("location_quick_features:") else 1)
        if cols and len(cols) != FEATURE_DIMS[sensor]:
            raise IngestionError(
                f"{origin}: sensor group {sensor!r} has {len(cols)} columns, "
                f"expected {FEATURE_DIMS[sensor]}"
            )
    return groups, label_cols, tuple(positional), skipped


def _warn_skipped(origin: str, skipped) -> None:
    """The one warning of a file whose columns :func:`_group_columns` skipped."""
    if skipped:
        log.warning(
            "%s: skipping %d unknown columns: %s",
            origin,
            len(skipped),
            ", ".join(sorted({n.split(":")[0] for n in skipped})),
        )


def _parse_cell(cell: str, origin: str, lineno: int, colname: str) -> float:
    cell = cell.strip()
    if cell == "" or cell.lower() == "nan":
        return np.nan
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(
            f"{origin}: line {lineno}: malformed value {cell!r} in column {colname!r}"
        ) from None
    if math.isinf(value):
        # one infinite cell would make its column's training mean non-finite
        # and the standardizer would then zero the whole column
        raise IngestionError(
            f"{origin}: line {lineno}: non-finite value {cell!r} in column {colname!r}"
        )
    return value


@dataclass(frozen=True)
class FeatureTable:
    """One user's feature table as columns, rows sorted by timestamp:
    ``(n,)`` int64 timestamps; an ``(n, d)`` matrix per sensor group, NaN
    for an empty cell; an ``(n,)`` int8 column per canonical label name,
    in column order, 1 relevant, 0 not, -1 unreported; and the sensor
    groups whose columns were mapped by position, their names not being
    the canonical ones. Its length is its number of rows."""

    user_id: str
    timestamps: np.ndarray
    features: Mapping[str, np.ndarray]
    labels: Mapping[str, np.ndarray]
    positional: tuple

    def __len__(self):
        return len(self.timestamps)


_LABEL_CODES = {"": -1, "1": 1, "1.0": 1, "0": 0, "0.0": 0}

_LABEL_CELLS = {1: "1", 0: "0", -1: ""}

_VALUE_CODES = {RELEVANT: 1, NOT_RELEVANT: 0, MISSING: -1}


def feature_table(user_id: str, minutes) -> FeatureTable:
    """One user's extracted minutes as a table.

    ``minutes`` holds a ``(timestamp, {sensor: feature vector}, label
    assignments)`` triple per minute, in any order. The table has a row
    per minute by timestamp, every sensor group (NaN where a minute lacks
    the sensor) and a column per label name that some minute carries,
    sorted by name.
    """
    minutes = sorted(minutes, key=lambda m: m[0])
    features = {s: np.full((len(minutes), FEATURE_DIMS[s]), np.nan) for s in SENSORS}
    values = []
    for i, (_, vectors, labels) in enumerate(minutes):
        for s, fv in vectors.items():
            features[s][i] = fv
        values.append({la.label_name: la.value for la in labels})
    return FeatureTable(
        user_id=user_id,
        timestamps=np.array([m[0] for m in minutes], dtype=np.int64),
        features=features,
        labels={
            name: np.array([_VALUE_CODES[v.get(name, MISSING)] for v in values], dtype=np.int8)
            for name in sorted({name for v in values for name in v})
        },
        positional=(),
    )


def read_features_table(path) -> FeatureTable:
    """Parse one user's feature table into columns.

    The user id is the file name up to its first dot, and must not be
    empty. A group absent from the header has no matrix. The file is
    parsed by one ``np.loadtxt`` call (:func:`_bulk_table`); a file that
    parse rejects or that fails a check afterwards is read again cell by
    cell (:func:`_table_cells`), which returns the same table or raises
    the line-numbered error, so it is the only source of error messages.
    """
    path = Path(path)
    origin = str(path)
    user_id = path.name.split(".")[0]
    if not user_id:
        raise IngestionError(f"{origin}: the file name gives an empty user id")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IngestionError(f"cannot read feature table {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    table = _bulk_table(text, origin, user_id)
    return _table_cells(text, origin, user_id) if table is None else table


#: the spelling :func:`_bulk_table` gives an empty cell, which ``np.loadtxt``
#: reads as NaN; a file that already holds it is read cell by cell, so in a
#: label column it always stands for an empty cell
_EMPTY_CELL = "nAn"

_LABEL_FLOATS = {"": np.nan, _EMPTY_CELL: np.nan, "1": 1.0, "1.0": 1.0, "0": 0.0, "0.0": 0.0}


def _label_float(cell: str) -> float:
    """A label cell as ``np.loadtxt`` converts it: NaN for empty, or 1.0 or
    0.0; any other cell raises, which sends the file to the per-cell reader."""
    return _LABEL_FLOATS[cell.strip()]


def _bulk_table(text: str, origin: str, user_id: str) -> Optional[FeatureTable]:
    """The table of ``text`` from one ``np.loadtxt`` call, or None when the
    file needs the per-cell reader.

    Empty cells are filled with :data:`_EMPTY_CELL` first, and the
    timestamps come from one ``int64`` conversion of each line's first
    cell. None is returned for whatever :func:`_table_cells` might read
    otherwise or reject: quotes, a carriage return or a NUL; a header that
    is rejected; no data line, a blank line or a row of another width; a
    cell that the parse or the conversion rejects (a timestamp outside
    int64 included); a label cell other than 0, 1 or empty; a repeated
    timestamp; or an infinite feature cell.
    """
    if any(c in text for c in ('"', "\r", "\x00", _EMPTY_CELL)):
        return None
    head, _, body = text.partition("\n")
    header = head.split(",")
    if not body or header[0] != "timestamp" or len(set(header)) != len(header):
        return None
    try:
        groups, label_cols, positional, skipped = _group_columns(header, origin)
    except IngestionError:
        return None
    if not body.endswith("\n"):
        body += "\n"
    # two passes fill every cell of a run of empty ones
    body = body.replace(",,", f",{_EMPTY_CELL},").replace(",,", f",{_EMPTY_CELL},")
    lines = body.replace(",\n", f",{_EMPTY_CELL}\n").split("\n")[:-1]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None,
                                converters={idx: _label_float for idx, _ in label_cols})
        timestamps = np.array([line.partition(",")[0] for line in lines], dtype=np.int64)
    except (ValueError, OverflowError, Warning):
        return None
    n = len(lines)
    if values.shape != (n, len(header)) or np.unique(timestamps).size != n:
        return None

    order = np.argsort(timestamps, kind="stable")
    cells = values[np.ix_(order, [idx for cols in groups.values() for idx, _ in cols])]
    if np.isinf(cells).any():
        return None
    cells[np.isnan(cells)] = np.nan  # one NaN bit pattern, whatever the cell spelled
    _warn_skipped(origin, skipped)
    label_values = values[np.ix_(order, [idx for idx, _ in label_cols])]
    codes = np.where(np.isnan(label_values), -1, label_values).astype(np.int8)
    return FeatureTable(
        user_id=user_id,
        timestamps=timestamps[order],
        features=_group_blocks(groups, cells),
        labels={name: codes[:, k].copy() for k, (_, name) in enumerate(label_cols)},
        positional=positional,
    )


def _group_blocks(groups, values) -> dict:
    """``{sensor: its columns of values}`` for each group the header has,
    ``values`` holding the groups' columns side by side in ``groups`` order."""
    features, start = {}, 0
    for sensor, cols in groups.items():
        if cols:
            features[sensor] = values[:, start:start + len(cols)]
            start += len(cols)
    return features


def _table_cells(text: str, origin: str, user_id: str) -> FeatureTable:
    """The per-cell reader behind :func:`read_features_table`, and the
    source of its error messages."""
    header, rows = _read_table(io.StringIO(text, newline=""), origin)
    if not header or header[0] != "timestamp":
        raise IngestionError(f"{origin}: first column must be 'timestamp'")
    groups, label_cols, positional, skipped = _group_columns(header, origin)
    _warn_skipped(origin, skipped)
    # every feature cell of a row in one pass, group by group in SENSORS order
    cells = [col for cols in groups.values() for col in cols]

    n = len(rows)
    timestamps = np.empty(n, dtype=np.int64)
    values = np.empty((n, len(cells)))
    labels = np.empty((len(label_cols), n), dtype=np.int8)
    seen_ts = set()
    for r, (lineno, row) in enumerate(enumerate(rows, start=2)):
        ts_cell = row[0].strip()
        try:
            ts = int(ts_cell)
        except ValueError:
            raise IngestionError(
                f"{origin}: line {lineno}: timestamp {ts_cell!r} is not an integer"
            ) from None
        if not -2**63 <= ts < 2**63:
            raise IngestionError(f"{origin}: line {lineno}: timestamp {ts} is out of range")
        if ts in seen_ts:
            raise IngestionError(f"{origin}: line {lineno}: duplicate timestamp {ts}")
        seen_ts.add(ts)
        timestamps[r] = ts
        values[r] = [_parse_cell(row[i], origin, lineno, name) for i, name in cells]
        for k, (idx, _) in enumerate(label_cols):
            cell = row[idx].strip()
            if cell not in _LABEL_CODES:
                raise IngestionError(
                    f"{origin}: line {lineno}: label cell must be 0, 1 or empty, got {cell!r}"
                )
            labels[k, r] = _LABEL_CODES[cell]

    order = np.argsort(timestamps, kind="stable")
    values = values[order]
    values[np.isnan(values)] = np.nan  # one NaN bit pattern, whatever the cell spelled
    return FeatureTable(
        user_id=user_id,
        timestamps=timestamps[order],
        features=_group_blocks(groups, values),
        labels={name: labels[k, order] for k, (_, name) in enumerate(label_cols)},
        positional=positional,
    )


def write_features_csv(path, table: FeatureTable) -> None:
    """Write a table as CSV, the inverse of :func:`read_features_table`.

    The columns are the timestamp, the canonical names of each group the
    table has, in ``SENSORS`` order, and the table's label columns in
    order. A NaN cell is written empty, any other its ``repr``; a label
    code is written 1, 0 or empty.
    """
    groups = [s for s in SENSORS if s in table.features]
    header = ["timestamp"] + [name for s in groups for name in FEATURE_COLUMNS[s]]
    header += [f"{LABEL_COLUMN_PREFIX}{name}" for name in table.labels]
    n = len(table)
    values = np.hstack([np.empty((n, 0))] + [table.features[s] for s in groups]).tolist()
    codes = np.array(list(table.labels.values()), dtype=np.int8).reshape(len(table.labels), n)
    codes = codes.T.tolist()

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for ts, row, labels in zip(table.timestamps.tolist(), values, codes):
            writer.writerow(
                [str(ts)]
                + ["" if math.isnan(v) else repr(v) for v in row]
                + [_LABEL_CELLS[c] for c in labels]
            )


def load_feature_tables(root) -> list:
    """Every per-user feature table under a directory, sorted by file name.

    The user id is the file name up to its first dot; two tables that give
    the same id are an error naming both files.
    """
    root = Path(root)
    files = sorted(root.glob("*.features.csv"))
    if not files:
        raise IngestionError(f"{root}: no *.features.csv files found")
    for a, b in zip(files, files[1:]):  # one user's tables sort next to each other
        if a.name.split(".")[0] == b.name.split(".")[0]:
            raise IngestionError(
                f"{a} and {b} are both tables of user {a.name.split('.')[0]!r}; keep one table per user"
            )
    return [read_features_table(path) for path in files]


# ---------------------------------------------------------------------------
# Fold partition files
# ---------------------------------------------------------------------------

def load_fold_partition(path) -> FoldPartition:
    """Load a partition file, or a directory of per-fold test-uuid files."""
    path = Path(path)
    if path.is_dir():
        return _load_partition_dir(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot read partition {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    folds = [tuple(line.split()) for line in text.split("\n") if line.split()]
    if not folds:
        raise IngestionError(f"{path}: no folds found")
    return _fold_partition(folds, path)


def _fold_partition(folds, path) -> FoldPartition:
    try:
        return FoldPartition(folds=tuple(folds))
    except ValueError as exc:  # a user listed twice
        raise IngestionError(f"{path}: {exc}") from exc


_FOLD_FILE = re.compile(r"fold_(\d+)_test.*uuids.*\.txt$")


def fold_partition_files(path) -> list:
    """The files ``load_fold_partition(path)`` reads, in sorted order: in a
    directory, the regular files named like fold files."""
    path = Path(path)
    if path.is_dir():
        return [p for p in sorted(path.iterdir()) if _FOLD_FILE.match(p.name) and p.is_file()]
    return [path] if path.is_file() else []


def _load_partition_dir(root: Path) -> FoldPartition:
    by_fold: dict = {}
    for p in fold_partition_files(root):
        idx = int(_FOLD_FILE.match(p.name).group(1))
        users = by_fold.setdefault(idx, [])
        try:
            users.extend(p.read_text(encoding="utf-8").split())
        except OSError as exc:
            raise IngestionError(f"cannot read partition file {p}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(p, exc) from None
    if not by_fold:
        raise IngestionError(f"{root}: no fold_<i>_test*uuids*.txt files found")
    folds = [tuple(sorted(set(by_fold[i]))) for i in sorted(by_fold)]
    return _fold_partition(folds, root)


# ---------------------------------------------------------------------------
# Raw session bundles
# ---------------------------------------------------------------------------

def _read_numeric_rows(path: Path, n_cols: int, allow_missing_cols=False) -> np.ndarray:
    """A raw column file as a ``(rows, n_cols)`` float64 array.

    The whole file is parsed by one numpy call (``_bulk_rows``). When that
    fails, the file is read again cell by cell (``_read_cells``), which
    either returns the array or raises the line-numbered error. A file that
    cannot be read is an error naming it.
    """
    try:
        arr = _bulk_rows(path, n_cols)
        if arr is not None:
            return arr
        return _read_cells(path, n_cols, allow_missing_cols)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> IngestionError:
    return IngestionError(f"{path}: not UTF-8 text ({exc.reason})")


def _read_json_object(path: Path) -> dict:
    """A JSON file that holds one object; anything else names the file."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: line {exc.lineno}: malformed JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise IngestionError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _bulk_rows(path: Path, n_cols: int) -> Optional[np.ndarray]:
    """The file parsed by one ``np.loadtxt`` call, or None when the parse
    fails (an empty file included) or its result has another width or a
    non-finite value.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is only a warning to numpy
            warnings.simplefilter("error")
            arr = np.loadtxt(
                path, delimiter=",", dtype=np.float64, ndmin=2, comments=None, encoding="utf-8"
            )
    except (ValueError, Warning):
        return None
    if arr.shape[1] != n_cols or not np.isfinite(arr).all():
        return None
    return arr


def _read_cells(path: Path, n_cols: int, allow_missing_cols=False) -> np.ndarray:
    """The per-cell reader behind ``_read_numeric_rows`` and its error messages.

    Lines with no cell or one blank cell are skipped; a cell is a Python
    float literal. An allowed empty cell becomes NaN; a ``nan`` cell is
    rejected, so NaN in the result always means an empty cell.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != n_cols:
                raise IngestionError(
                    f"{path}: line {lineno}: expected {n_cols} columns, got {len(raw)}"
                )
            vals = []
            for cell in raw:
                cell = cell.strip()
                if cell == "":
                    if not allow_missing_cols:
                        raise IngestionError(f"{path}: line {lineno}: empty cell")
                    vals.append(np.nan)
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise IngestionError(
                            f"{path}: line {lineno}: malformed value {cell!r}"
                        ) from None
                    if not math.isfinite(value):
                        # nan passes the monotone-time check and inf breaks the
                        # spectral features; missing values are empty cells
                        raise IngestionError(
                            f"{path}: line {lineno}: non-finite value {cell!r}"
                        )
                    vals.append(value)
            rows.append(vals)
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_cols)


def _load_triaxial(path: Path, rate: float) -> TriaxialSeries:
    arr = _read_numeric_rows(path, 4)
    if arr.shape[0] == 0:
        raise IngestionError(f"{path}: empty series")
    ts = arr[:, 0]
    if np.any(np.diff(ts) < 0):
        raise IngestionError(f"{path}: timestamps are not monotone non-decreasing")
    return TriaxialSeries(relative_timestamps=ts, samples=arr[:, 1:], nominal_rate=rate)


def load_raw_session(path, *, utc_offset_hours: float) -> Example:
    """Load one session bundle directory into an example.

    The bundle holds ``session.json`` (user_id, timestamp, acc_unit) plus
    optional per-sensor files: acc.csv / gyro.csv / wacc.csv (t,x,y,z rows),
    location.csv (t,lat,lon,alt,speed,vacc,hacc with empty cells allowed),
    location_quick.csv (a single 6-value row), audio.csv (one waveform
    sample per line at 22050 Hz) or mfcc.csv (13 coefficients per row), and
    phone_state.json. Missing files mean the sensor is absent. Android
    accelerometer readings declared in m/s^2 are converted to G. A value
    that breaks a rule of the format is an error naming its file.
    """
    root = Path(path)
    manifest_path = root / "session.json"
    if not manifest_path.exists():
        raise IngestionError(f"{root}: session.json not found")
    manifest = _read_json_object(manifest_path)
    for key in ("user_id", "timestamp"):
        if key not in manifest:
            raise IngestionError(f"{manifest_path}: missing key {key!r}")
    # the id names the user's feature table, read back up to its first dot
    user_id = manifest["user_id"]
    if not isinstance(user_id, str) or not user_id or any(c in user_id for c in "/\\."):
        raise IngestionError(
            f"{manifest_path}: user_id {user_id!r} is not a non-empty string "
            "free of '/', '\\' and '.'"
        )
    try:
        timestamp = int(manifest["timestamp"])
    except (TypeError, ValueError):
        raise IngestionError(
            f"{manifest_path}: timestamp {manifest['timestamp']!r} is not an integer"
        ) from None
    label_values = manifest.get("labels", {})
    if not isinstance(label_values, dict):
        raise IngestionError(
            f"{manifest_path}: labels must be an object of label -> value, "
            f"got {type(label_values).__name__}"
        )

    sensor_data = {}

    acc_path = root / "acc.csv"
    if acc_path.exists():
        unit = manifest.get("acc_unit", "G")
        if unit not in ("G", "m/s2"):
            raise IngestionError(f"{manifest_path}: unknown acc_unit {unit!r}")
        series = _load_triaxial(acc_path, 40.0)
        if unit == "m/s2":
            series = TriaxialSeries(
                relative_timestamps=series.relative_timestamps,
                samples=series.samples / STANDARD_GRAVITY,
                nominal_rate=40.0,
            )
        sensor_data["acc"] = series

    gyro_path = root / "gyro.csv"
    if gyro_path.exists():
        sensor_data["gyro"] = _load_triaxial(gyro_path, 40.0)

    wacc_path = root / "wacc.csv"
    if wacc_path.exists():
        sensor_data["wacc"] = _load_triaxial(wacc_path, 25.0)

    loc_path = root / "location.csv"
    quick_path = root / "location_quick.csv"
    if loc_path.exists() or quick_path.exists():
        updates = np.empty((0, 7))
        if loc_path.exists():
            updates = _read_numeric_rows(loc_path, 7, allow_missing_cols=True)
            if np.isnan(updates[:, 0]).any():
                raise IngestionError(f"{loc_path}: update without relative time")
            negative = np.argwhere(updates[:, 5:] < 0)  # an unreported accuracy is NaN, not < 0
            if negative.size:
                i, j = negative[0]
                name = ("vertical_accuracy", "horizontal_accuracy")[j]
                raise IngestionError(f"{loc_path}: update {i} has negative {name}")
        quick = None
        if quick_path.exists():
            rows = _read_numeric_rows(quick_path, 6, allow_missing_cols=True)
            if rows.shape[0] != 1:
                raise IngestionError(f"{quick_path}: expected a single 6-value row")
            quick = rows[0]
        sensor_data["loc"] = LocationSeries(updates=updates, quick_features=quick)

    mfcc_path = root / "mfcc.csv"
    audio_path = root / "audio.csv"
    if mfcc_path.exists():
        # the factor the device scaled its audio by: nothing reads it, but a
        # bundle that states one must state a finite, positive one
        factor = manifest.get("audio_normalization", 1.0)
        try:
            factor = float(factor)
        except (TypeError, ValueError):
            raise IngestionError(
                f"{manifest_path}: audio_normalization {factor!r} is not a number"
            ) from None
        if not 0 < factor < np.inf:  # NaN fails too
            raise IngestionError(
                f"{manifest_path}: audio_normalization {factor!r} is not finite and positive"
            )
        frames = _read_numeric_rows(mfcc_path, 13)
        if frames.shape[0] < 1:
            raise IngestionError(f"{mfcc_path}: at least one frame required")
        sensor_data["aud"] = AudioMfccSeries(frames=frames)
    elif audio_path.exists():
        wave = _read_numeric_rows(audio_path, 1).ravel()
        try:
            sensor_data["aud"] = compute_mfcc(wave)
        except ValueError as exc:
            raise IngestionError(
                f"{root}: sensor 'aud': {exc} ({wave.size} samples in {audio_path.name})"
            ) from None

    ps_path = root / "phone_state.json"
    if ps_path.exists():
        ps_raw = _read_json_object(ps_path)
        states = {prop: ps_raw.get(prop, "missing") for prop in PHONE_STATE_VALUES}
        for prop, value in states.items():
            if value not in PHONE_STATE_VALUES[prop]:
                raise IngestionError(
                    f"{ps_path}: {prop} value {value!r} not in {PHONE_STATE_VALUES[prop]}"
                )
        hour = int((timestamp + utc_offset_hours * 3600) // 3600 % 24)
        sensor_data["ps"] = PhoneStateSnapshot(**states, hour_of_day=hour)

    labels, label_key = [], {}
    for key, value in label_values.items():
        name = canonical_label_name(key)
        if not name:
            raise IngestionError(f"{manifest_path}: label {key!r} has an empty canonical name")
        if label_key.setdefault(name, key) != key:
            raise IngestionError(f"{manifest_path}: labels {label_key[name]!r} and {key!r} "
                                 f"both canonicalize to {name!r}")
        if value not in LABEL_VALUES:
            raise IngestionError(
                f"{manifest_path}: label {key!r} has value {value!r}, not one of {LABEL_VALUES}"
            )
        labels.append(LabelAssignment(name, value))

    return Example(
        user_id=user_id, timestamp=timestamp, sensor_data=sensor_data, labels=tuple(labels)
    )


def iter_session_dirs(root) -> list:
    """Session bundle directories under a root, sorted for determinism."""
    root = Path(root)
    return sorted(p.parent for p in root.glob("**/session.json"))
