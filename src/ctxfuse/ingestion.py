"""Reading and writing the on-disk formats.

Three formats, all versioned by convention and documented in the README:

* per-user feature tables: UTF-8 CSV, one row per minute, first column a
  unix timestamp, sensor feature columns grouped by name prefix, label
  columns prefixed ``label:`` with cells 1/0/empty;
* fold partition: a text file with one line per fold of whitespace-separated
  user ids (a directory of ``fold_<i>_test*uuids*.txt`` files also loads);
* raw session bundles: one directory per recorded minute with per-sensor
  column files and a ``session.json`` manifest.

Parsing never coerces silently: empty cells become mask bits, malformed
cells become errors with line numbers.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .audio import compute_mfcc
from .evaluation import FoldPartition
from .model import (
    AudioMfccSeries,
    Example,
    FEATURE_DIMS,
    FeatureVector,
    LabelAssignment,
    LocationSeries,
    LocationUpdate,
    MISSING,
    NOT_RELEVANT,
    PHONE_STATE_VALUES,
    PhoneStateSnapshot,
    RELEVANT,
    SENSORS,
    TriaxialSeries,
    canonical_label_name,
    validate_example,
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
    is mapped by name; any other naming is mapped by position.
    """
    groups = {s: [] for s in SENSORS}
    label_cols = []
    extra_cols = []
    for idx, name in enumerate(header[1:], start=1):
        if name.startswith(LABEL_COLUMN_PREFIX):
            label_cols.append((idx, canonical_label_name(name[len(LABEL_COLUMN_PREFIX):])))
            continue
        owner = None
        for sensor, prefixes in SENSOR_COLUMN_PREFIXES.items():
            if any(name.startswith(p) for p in prefixes):
                owner = sensor
                break
        if owner is None:
            extra_cols.append((idx, name))
        else:
            groups[owner].append((idx, name))

    for sensor, cols in groups.items():
        rank = _CANONICAL_RANK[sensor]
        if len(cols) == len(rank) and all(name in rank for _, name in cols):
            # the canonical names: map by name, whatever their order in the file
            cols.sort(key=lambda t: rank[t[1]])
        elif sensor == "loc":
            # unfamiliar names map by position; the quick-feature prefix
            # must come before the main location block
            cols.sort(key=lambda t: 0 if t[1].startswith("location_quick_features:") else 1)
        if cols and len(cols) != FEATURE_DIMS[sensor]:
            raise IngestionError(
                f"{origin}: sensor group {sensor!r} has {len(cols)} columns, "
                f"expected {FEATURE_DIMS[sensor]}"
            )
    if extra_cols:
        log.warning(
            "%s: ignoring %d unknown columns (kept as metadata): %s",
            origin,
            len(extra_cols),
            ", ".join(sorted({n.split(":")[0] for _, n in extra_cols})),
        )
    return groups, label_cols, extra_cols


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


def parse_features_csv(source, user_id: Optional[str] = None) -> list:
    """Parse one user's feature table into examples with precomputed features.

    ``source`` is a path or a text stream. The user id defaults to the file
    name up to the first dot. Sensors whose group is absent from the header
    produce no feature vector; empty cells become mask bits.
    """
    if hasattr(source, "read"):
        origin = getattr(source, "name", "<stream>")
        header, rows = _read_table(source, origin)
    else:
        path = Path(source)
        origin = str(path)
        if user_id is None:
            user_id = path.name.split(".")[0]
        with open(path, newline="", encoding="utf-8") as fh:
            header, rows = _read_table(fh, origin)
    if user_id is None:
        raise ValueError("user_id is required when parsing a stream")

    if not header or header[0] != "timestamp":
        raise IngestionError(f"{origin}: first column must be 'timestamp'")
    groups, label_cols, extra_cols = _group_columns(header, origin)

    examples = []
    seen_ts = set()
    for lineno, row in enumerate(rows, start=2):
        ts_cell = row[0].strip()
        try:
            ts = int(ts_cell)
        except ValueError:
            raise IngestionError(
                f"{origin}: line {lineno}: timestamp {ts_cell!r} is not an integer"
            ) from None
        if ts in seen_ts:
            raise IngestionError(f"{origin}: line {lineno}: duplicate timestamp {ts}")
        seen_ts.add(ts)

        feats = {}
        for sensor, cols in groups.items():
            if not cols:
                continue
            vals = np.array(
                [_parse_cell(row[i], origin, lineno, name) for i, name in cols]
            )
            feats[sensor] = FeatureVector.from_values(sensor, vals)

        labels = []
        for idx, lname in label_cols:
            cell = row[idx].strip()
            if cell == "":
                labels.append(LabelAssignment(lname, MISSING))
            elif cell in ("1", "1.0"):
                labels.append(LabelAssignment(lname, RELEVANT))
            elif cell in ("0", "0.0"):
                labels.append(LabelAssignment(lname, NOT_RELEVANT))
            else:
                raise IngestionError(
                    f"{origin}: line {lineno}: label cell must be 0, 1 or empty, got {cell!r}"
                )

        metadata = {name: row[idx] for idx, name in extra_cols}
        examples.append(
            Example(
                user_id=user_id,
                timestamp=ts,
                precomputed_features=feats,
                labels=tuple(labels),
                metadata=metadata,
            )
        )
    examples.sort(key=lambda ex: ex.timestamp)
    return examples


def write_features_csv(target, examples: Sequence[Example], label_names=None) -> None:
    """Write examples as a canonical feature table (inverse of the parser)."""
    if label_names is None:
        label_names = sorted({la.label_name for ex in examples for la in ex.labels})
    meta_names = sorted({k for ex in examples for k in ex.metadata})

    header = ["timestamp"]
    for sensor in SENSORS:
        header += FEATURE_COLUMNS[sensor]
    header += [f"{LABEL_COLUMN_PREFIX}{n}" for n in label_names]
    header += meta_names

    def render(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for ex in sorted(examples, key=lambda e: e.timestamp):
            row = [str(ex.timestamp)]
            for sensor in SENSORS:
                fv = ex.precomputed_features.get(sensor)
                if fv is None:
                    row += [""] * FEATURE_DIMS[sensor]
                else:
                    row += [
                        "" if m else repr(float(v))
                        for v, m in zip(fv.values, fv.missing_mask)
                    ]
            for name in label_names:
                v = ex.label_value(name)
                row.append("" if v == MISSING else ("1" if v == RELEVANT else "0"))
            row += [ex.metadata.get(k, "") for k in meta_names]
            writer.writerow(row)

    if hasattr(target, "write"):
        render(target)
    else:
        with open(target, "w", newline="", encoding="utf-8") as fh:
            render(fh)


def load_features_dir(root) -> list:
    """All per-user feature tables under a directory, in deterministic order."""
    root = Path(root)
    files = sorted(root.glob("*.features.csv"))
    if not files:
        raise IngestionError(f"{root}: no *.features.csv files found")
    examples = []
    for path in files:
        examples.extend(parse_features_csv(path))
    return examples


# ---------------------------------------------------------------------------
# Fold partition files
# ---------------------------------------------------------------------------

def save_fold_partition(partition: FoldPartition, path) -> None:
    """One line per fold, user ids whitespace-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for fold in partition.folds:
            fh.write(" ".join(fold) + "\n")


def load_fold_partition(path) -> FoldPartition:
    """Load a partition file, or a directory of per-fold test-uuid files."""
    path = Path(path)
    if path.is_dir():
        return _load_partition_dir(path)
    folds = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            users = line.split()
            if users:
                folds.append(tuple(users))
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
    """The files ``load_fold_partition(path)`` reads, in sorted order."""
    path = Path(path)
    if path.is_dir():
        return [p for p in sorted(path.iterdir()) if _FOLD_FILE.match(p.name)]
    return [path] if path.is_file() else []


def _load_partition_dir(root: Path) -> FoldPartition:
    by_fold: dict = {}
    for p in fold_partition_files(root):
        idx = int(_FOLD_FILE.match(p.name).group(1))
        users = by_fold.setdefault(idx, [])
        users.extend(p.read_text(encoding="utf-8").split())
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
    either returns the array or raises the line-numbered error.
    """
    arr = _bulk_rows(path, n_cols)
    if arr is not None:
        return arr
    try:
        return _read_cells(path, n_cols, allow_missing_cols)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> IngestionError:
    return IngestionError(f"{path}: not UTF-8 text ({exc.reason})")


def _read_json_object(path: Path) -> dict:
    """A JSON file that holds one object; anything else names the file."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
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


def _load_triaxial(path: Path, unit: str, rate: float) -> TriaxialSeries:
    arr = _read_numeric_rows(path, 4)
    if arr.shape[0] == 0:
        raise IngestionError(f"{path}: empty series")
    ts = arr[:, 0]
    if np.any(np.diff(ts) < 0):
        raise IngestionError(f"{path}: timestamps are not monotone non-decreasing")
    return TriaxialSeries(
        relative_timestamps=ts, samples=arr[:, 1:], unit=unit, nominal_rate=rate
    )


def load_raw_session(path, *, utc_offset_hours: float) -> Example:
    """Load one session bundle directory into a validated example.

    The bundle holds ``session.json`` (user_id, timestamp, acc_unit) plus
    optional per-sensor files: acc.csv / gyro.csv / wacc.csv (t,x,y,z rows),
    location.csv (t,lat,lon,alt,speed,vacc,hacc with empty cells allowed),
    location_quick.csv (a single 6-value row), audio.csv (one waveform
    sample per line at 22050 Hz) or mfcc.csv (13 coefficients per row), and
    phone_state.json. Missing files mean the sensor is absent. Android
    accelerometer readings declared in m/s^2 are converted to G.
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
        series = _load_triaxial(acc_path, "G", 40.0)
        if unit == "m/s2":
            series = TriaxialSeries(
                relative_timestamps=series.relative_timestamps,
                samples=series.samples / STANDARD_GRAVITY,
                unit="G",
                nominal_rate=40.0,
            )
        sensor_data["acc"] = series

    gyro_path = root / "gyro.csv"
    if gyro_path.exists():
        sensor_data["gyro"] = _load_triaxial(gyro_path, "rad/s", 40.0)

    wacc_path = root / "wacc.csv"
    if wacc_path.exists():
        sensor_data["wacc"] = _load_triaxial(wacc_path, "milli-G", 25.0)

    loc_path = root / "location.csv"
    quick_path = root / "location_quick.csv"
    if loc_path.exists() or quick_path.exists():
        updates = []
        if loc_path.exists():
            for row in _read_numeric_rows(loc_path, 7, allow_missing_cols=True):
                # NaN is an empty cell; features test location fields for None
                vals = [None if math.isnan(v) else v for v in row.tolist()]
                if vals[0] is None:
                    raise IngestionError(f"{loc_path}: update without relative time")
                updates.append(
                    LocationUpdate(
                        relative_time=vals[0],
                        latitude=vals[1],
                        longitude=vals[2],
                        altitude=vals[3],
                        speed=vals[4],
                        vertical_accuracy=vals[5],
                        horizontal_accuracy=vals[6],
                    )
                )
        quick = None
        if quick_path.exists():
            rows = _read_numeric_rows(quick_path, 6, allow_missing_cols=True)
            if rows.shape[0] != 1:
                raise IngestionError(f"{quick_path}: expected a single 6-value row")
            quick = rows[0]
        sensor_data["loc"] = LocationSeries(updates=tuple(updates), quick_features=quick)

    mfcc_path = root / "mfcc.csv"
    audio_path = root / "audio.csv"
    if mfcc_path.exists():
        factor = manifest.get("audio_normalization", 1.0)
        try:
            factor = float(factor)
        except (TypeError, ValueError):
            raise IngestionError(
                f"{manifest_path}: audio_normalization {factor!r} is not a number"
            ) from None
        sensor_data["aud"] = AudioMfccSeries(
            frames=_read_numeric_rows(mfcc_path, 13), normalization_factor=factor
        )
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
        hour = int((timestamp + utc_offset_hours * 3600) // 3600 % 24)
        sensor_data["ps"] = PhoneStateSnapshot(
            app_state=ps_raw.get("app_state", "missing"),
            battery_plugged=ps_raw.get("battery_plugged", "missing"),
            battery_state=ps_raw.get("battery_state", "missing"),
            in_phone_call=ps_raw.get("in_phone_call", "missing"),
            ringer_mode=ps_raw.get("ringer_mode", "missing"),
            wifi_status=ps_raw.get("wifi_status", "missing"),
            hour_of_day=hour,
        )

    labels = tuple(
        LabelAssignment(canonical_label_name(k), v)
        for k, v in label_values.items()
    )

    example = Example(
        user_id=user_id,
        timestamp=timestamp,
        sensor_data=sensor_data,
        labels=labels,
    )
    violations = validate_example(example)
    if violations:
        raise IngestionError(f"{root}: invalid session: " + "; ".join(violations))
    return example


def iter_session_dirs(root) -> list:
    """Session bundle directories under a root, sorted for determinism."""
    root = Path(root)
    return sorted(p.parent for p in root.glob("**/session.json"))
