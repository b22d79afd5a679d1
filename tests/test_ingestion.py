import csv
import io
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctxfuse.evaluation import FoldPartition
from ctxfuse.ingestion import (
    FEATURE_COLUMNS,
    IngestionError,
    load_fold_partition,
    load_raw_session,
    parse_features_csv,
    save_fold_partition,
    write_features_csv,
)
from ctxfuse.model import FEATURE_DIMS, MISSING, RELEVANT, SENSORS
from synth import feature_example, random_full_example


# ---------------------------------------------------------------------------
# feature tables
# ---------------------------------------------------------------------------

def _some_examples(n=5, user="u0"):
    rng = np.random.default_rng(0)
    out = []
    for t in range(n):
        ex = random_full_example(rng, user, 1000 + t * 60, labels={"SITTING": t % 2, "WALKING": None})
        out.append(ex)
    return out


def test_feature_csv_roundtrip_bit_identical(tmp_path):
    examples = _some_examples()
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, examples)
    first = path.read_bytes()

    parsed = parse_features_csv(path)
    assert len(parsed) == len(examples)
    for orig, back in zip(examples, parsed):
        assert back.user_id == "u0"
        assert back.timestamp == orig.timestamp
        for s in SENSORS:
            assert np.array_equal(
                back.precomputed_features[s].values,
                orig.precomputed_features[s].values,
                equal_nan=True,
            )
        assert back.label_value("SITTING") == orig.label_value("SITTING")
        assert back.label_value("WALKING") == MISSING

    path2 = tmp_path / "u0b.features.csv"
    write_features_csv(path2, parsed)
    assert path2.read_bytes() == first


def test_masked_cells_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
    vals["acc"][:] = np.nan  # all acc cells empty
    vals["loc"][3] = np.nan
    ex = feature_example("u0", 60, vals, {"SITTING": 1})
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, [ex])
    back = parse_features_csv(path)[0]
    assert back.precomputed_features["acc"].fully_masked
    assert not back.has_sensor("acc")
    assert back.precomputed_features["loc"].missing_mask[3]
    assert not back.precomputed_features["loc"].missing_mask[4]


def test_header_group_widths_enforced():
    cols = ["timestamp"] + FEATURE_COLUMNS["acc"][:-1]  # 25 acc columns
    stream = io.StringIO(",".join(cols) + "\n" + ",".join(["0"] + ["1"] * 25) + "\n")
    with pytest.raises(IngestionError, match="25 columns"):
        parse_features_csv(stream, user_id="u0")


def test_duplicate_timestamp_rejected(tmp_path):
    examples = _some_examples(2)
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, examples)
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # repeat the first data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match="duplicate timestamp"):
        parse_features_csv(path)


def test_ragged_row_rejected_with_line_number(tmp_path):
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, _some_examples(2))
    lines = path.read_text().splitlines()
    lines[2] = lines[2] + ",999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match="line 3"):
        parse_features_csv(path)


def test_malformed_cell_names_column(tmp_path):
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, _some_examples(1))
    text = path.read_text()
    row = text.splitlines()[1].split(",")
    row[1] = "not-a-number"
    path.write_text(text.splitlines()[0] + "\n" + ",".join(row) + "\n")
    with pytest.raises(IngestionError, match="malformed value"):
        parse_features_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_infinite_cell_rejected_with_file_line_and_column(tmp_path, cell):
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, _some_examples(3))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[5] = cell
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError) as err:
        parse_features_csv(path)
    message = str(err.value)
    assert str(path) in message
    assert "line 3" in message
    assert "non-finite" in message
    assert repr(header[5]) in message


def test_duplicate_header_names_file_and_column(tmp_path):
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, _some_examples(2))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    header[2] = header[1]
    lines[0] = ",".join(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError) as err:
        parse_features_csv(path)
    message = str(err.value)
    assert str(path) in message
    assert "duplicate column" in message
    assert repr(header[1]) in message


def _permute_group_columns(text, sensor, order):
    """The table with ``sensor``'s columns (header and cells) in ``order``."""
    rows = list(csv.reader(io.StringIO(text)))
    idx = [rows[0].index(name) for name in FEATURE_COLUMNS[sensor]]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        cells = [row[i] for i in idx]
        for pos, j in zip(idx, order):
            row[pos] = cells[j]
        writer.writerow(row)
    return out.getvalue()


def test_canonical_group_columns_map_by_name(tmp_path):
    examples = _some_examples(3)
    buf = io.StringIO()
    write_features_csv(buf, examples)
    order = list(range(FEATURE_DIMS["acc"]))
    order[0], order[1] = order[1], order[0]
    swapped = _permute_group_columns(buf.getvalue(), "acc", order)
    assert swapped.splitlines()[0].split(",")[1] == FEATURE_COLUMNS["acc"][1]

    back = parse_features_csv(io.StringIO(swapped), user_id="u0")
    for orig, got in zip(examples, back):
        assert np.array_equal(
            got.precomputed_features["acc"].values, orig.precomputed_features["acc"].values
        )

    # names outside the canonical set keep their positional mapping
    renamed = swapped.replace("raw_acc:magnitude:", "raw_acc:mag_")
    back = parse_features_csv(io.StringIO(renamed), user_id="u0")
    for orig, got in zip(examples, back):
        want = orig.precomputed_features["acc"].values[order]
        assert np.array_equal(got.precomputed_features["acc"].values, want)


_LABEL_CODES = st.sampled_from([1, 0, None])


@st.composite
def _tables(draw):
    """Examples with random present/absent sensors, masks, labels and
    metadata, plus one sensor group and an order to permute its columns."""
    timestamps = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    label_names = draw(st.lists(st.sampled_from(["SITTING", "WALKING", "LYING_DOWN"]), unique=True))
    meta_names = draw(st.lists(st.sampled_from(["label_source", "device"]), unique=True))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    examples = []
    for ts in timestamps:
        values = {}
        for s in SENSORS:
            if draw(st.booleans()):
                v = draw(hnp.arrays(np.float64, FEATURE_DIMS[s], elements=cells))
                v[draw(hnp.arrays(bool, FEATURE_DIMS[s]))] = np.nan
                values[s] = v
        labels = {name: draw(_LABEL_CODES) for name in label_names}
        ex = feature_example("u0", ts, values, labels)
        meta = {k: draw(st.text(alphabet="ab ,'\"0:", max_size=6)) for k in meta_names}
        object.__setattr__(ex, "metadata", meta)
        examples.append(ex)
    sensor = draw(st.sampled_from(SENSORS))
    order = draw(st.permutations(range(FEATURE_DIMS[sensor])))
    return examples, label_names, sensor, order


@settings(max_examples=40, deadline=None)
@given(_tables())
def test_feature_csv_round_trip_property(table):
    examples, label_names, sensor, order = table
    buf = io.StringIO()
    write_features_csv(buf, examples, label_names=label_names)
    text = buf.getvalue()
    for variant in (text, _permute_group_columns(text, sensor, order)):
        back = parse_features_csv(io.StringIO(variant), user_id="u0")
        assert [ex.timestamp for ex in back] == sorted(ex.timestamp for ex in examples)
        by_ts = {ex.timestamp: ex for ex in examples}
        for got in back:
            orig = by_ts[got.timestamp]
            for s in SENSORS:
                fv = orig.precomputed_features.get(s)
                parsed = got.precomputed_features[s]
                if fv is None:
                    assert parsed.fully_masked
                else:
                    assert np.array_equal(parsed.values, fv.values, equal_nan=True)
                    assert np.array_equal(parsed.missing_mask, fv.missing_mask)
            for name in label_names:
                assert got.label_value(name) == orig.label_value(name)
            assert got.metadata == orig.metadata


def test_unknown_columns_kept_as_metadata(tmp_path, caplog):
    examples = [
        feature_example(
            "u0", 60, {"acc": np.arange(26.0)}, {"SITTING": 1}
        )
    ]
    object.__setattr__(examples[0], "metadata", {"label_source": "notification"})
    path = tmp_path / "u0.features.csv"
    write_features_csv(path, examples)
    with caplog.at_level(logging.WARNING):
        back = parse_features_csv(path)
    assert back[0].metadata == {"label_source": "notification"}
    assert any("unknown columns" in r.message for r in caplog.records)


def test_bad_label_cell_rejected(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text("timestamp,label:SITTING\n60,maybe\n")
    with pytest.raises(IngestionError, match="label cell"):
        parse_features_csv(path)


def test_label_names_canonicalized(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text("timestamp,label:Lying down\n60,1\n")
    back = parse_features_csv(path)
    assert back[0].label_value("LYING_DOWN") == RELEVANT


# ---------------------------------------------------------------------------
# fold partition files
# ---------------------------------------------------------------------------

def test_partition_file_roundtrip(tmp_path):
    part = FoldPartition(folds=(("u00", "u01"), ("u02",), ("u03", "u04")))
    path = tmp_path / "folds.txt"
    save_fold_partition(part, path)
    loaded = load_fold_partition(path)
    assert loaded.folds == part.folds
    # save(load(f)) == f modulo whitespace
    path2 = tmp_path / "folds2.txt"
    save_fold_partition(loaded, path2)
    assert path.read_text().split() == path2.read_text().split()


def test_partition_five_by_twelve(tmp_path):
    folds = tuple(tuple(f"user{f:02d}{i:02d}" for i in range(12)) for f in range(5))
    path = tmp_path / "folds.txt"
    save_fold_partition(FoldPartition(folds=folds), path)
    loaded = load_fold_partition(path)
    assert len(loaded) == 5
    assert all(len(f) == 12 for f in loaded.folds)
    assert len(loaded.users) == 60


def test_duplicated_user_across_folds_rejected(tmp_path):
    path = tmp_path / "folds.txt"
    path.write_text("alice bob\nbob carol\n")
    with pytest.raises(ValueError, match="bob"):
        load_fold_partition(path)


def test_user_listed_twice_in_one_fold_named_as_such(tmp_path):
    path = tmp_path / "folds.txt"
    path.write_text("u0 u0\nu1\n")
    with pytest.raises(ValueError) as caught:
        load_fold_partition(path)
    assert str(caught.value) == f"{path}: user 'u0' is listed twice in fold 0"


def test_partition_directory_layout(tmp_path):
    d = tmp_path / "cv_folds"
    d.mkdir()
    (d / "fold_0_test_iphone_uuids.txt").write_text("a\nb\n")
    (d / "fold_0_test_android_uuids.txt").write_text("c\n")
    (d / "fold_1_test_iphone_uuids.txt").write_text("d\n")
    (d / "fold_0_train_iphone_uuids.txt").write_text("d\n")  # ignored
    part = load_fold_partition(d)
    assert part.folds == (("a", "b", "c"), ("d",))


# ---------------------------------------------------------------------------
# raw session bundles
# ---------------------------------------------------------------------------

def _write_session(root, *, user="u0", ts=1_600_000_000, acc_unit="G",
                   with_loc=True, monotone=True, n=64, audio="mfcc"):
    rng = np.random.default_rng(7)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "user_id": user,
        "timestamp": ts,
        "acc_unit": acc_unit,
        "labels": {"SITTING": "relevant"},
    }
    (root / "session.json").write_text(json.dumps(manifest))

    def write_triaxial(name, rate, scale=1.0):
        t = np.arange(n) / rate
        if not monotone and name == "acc.csv":
            t = t[::-1]
        rows = [
            f"{t[i]},{scale * rng.normal()},{scale * rng.normal()},{scale * rng.normal()}"
            for i in range(n)
        ]
        (root / name).write_text("\n".join(rows) + "\n")

    write_triaxial("acc.csv", 40.0, scale=9.8 if acc_unit == "m/s2" else 1.0)
    write_triaxial("gyro.csv", 40.0)
    write_triaxial("wacc.csv", 25.0)

    if with_loc:
        (root / "location.csv").write_text(
            "0.0,32.88,-117.23,100.0,1.0,8.0,10.0\n"
            "5.0,32.8801,-117.2301,,1.2,6.0,12.0\n"
        )
    if audio == "mfcc":
        rows = [",".join(f"{rng.normal():.6f}" for _ in range(13)) for _ in range(5)]
        (root / "mfcc.csv").write_text("\n".join(rows) + "\n")
    elif audio == "wave":
        wave = rng.normal(size=4096)
        (root / "audio.csv").write_text("\n".join(f"{v:.6f}" for v in wave) + "\n")
    (root / "phone_state.json").write_text(
        json.dumps({"app_state": "active", "wifi_status": "via_wifi"})
    )
    return root


def test_session_bundle_loads_and_extracts_everything(tmp_path):
    root = _write_session(tmp_path / "s1")
    ex = load_raw_session(root, utc_offset_hours=-8)
    assert set(ex.sensor_data) == set(SENSORS)
    assert ex.label_value("SITTING") == RELEVANT

    from ctxfuse.data import extract_all_features

    feats = extract_all_features(ex)
    assert {s: len(feats[s].values) for s in SENSORS} == FEATURE_DIMS


def test_android_acceleration_converted_to_g(tmp_path):
    root_si = _write_session(tmp_path / "si", acc_unit="m/s2")
    ex = load_raw_session(root_si, utc_offset_hours=0)
    acc = ex.sensor_data["acc"]
    assert acc.unit == "G"
    raw_rows = np.loadtxt(root_si / "acc.csv", delimiter=",")
    assert np.allclose(acc.samples, raw_rows[:, 1:] / 9.80665)


def test_missing_location_file_is_absent_sensor(tmp_path):
    root = _write_session(tmp_path / "s2", with_loc=False)
    ex = load_raw_session(root, utc_offset_hours=0)
    assert "loc" not in ex.sensor_data
    assert not ex.has_sensor("loc")


def test_non_monotone_timestamps_rejected(tmp_path):
    root = _write_session(tmp_path / "s3", monotone=False)
    with pytest.raises(IngestionError, match="monotone"):
        load_raw_session(root, utc_offset_hours=0)


@pytest.mark.parametrize(
    "name, line, col, cell",
    [
        ("wacc.csv", 3, 0, "nan"),  # a timestamp
        ("acc.csv", 5, 2, "inf"),  # a sample
        ("mfcc.csv", 2, 7, "-Infinity"),
        ("location.csv", 2, 1, "1e999"),  # a location cell
    ],
)
def test_non_finite_raw_cell_rejected_with_file_and_line(tmp_path, name, line, col, cell):
    root = _write_session(tmp_path / "s", n=8)
    path = root / name
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[col] = cell
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError) as err:
        load_raw_session(root, utc_offset_hours=0)
    message = str(err.value)
    assert str(path) in message
    assert f"line {line}:" in message
    assert f"non-finite value {cell!r}" in message


def test_unknown_unit_rejected(tmp_path):
    root = _write_session(tmp_path / "s4", acc_unit="furlongs")
    with pytest.raises(IngestionError, match="acc_unit"):
        load_raw_session(root, utc_offset_hours=0)


def test_raw_audio_is_processed_into_coefficients(tmp_path):
    root = _write_session(tmp_path / "s5", audio="wave")
    ex = load_raw_session(root, utc_offset_hours=0)
    assert ex.sensor_data["aud"].frames.shape == ((4096 - 2048) // 1024 + 1, 13)


def test_hour_of_day_uses_utc_offset(tmp_path):
    ts = 1_600_000_000  # 2020-09-13 12:26:40 UTC
    root = _write_session(tmp_path / "s6", ts=ts)
    ex_utc = load_raw_session(root, utc_offset_hours=0)
    ex_sd = load_raw_session(root, utc_offset_hours=-8)
    assert ex_utc.sensor_data["ps"].hour_of_day == 12
    assert ex_sd.sensor_data["ps"].hour_of_day == 4


@pytest.mark.parametrize("factor", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_audio_normalization_rejected(tmp_path, factor):
    root = _write_session(tmp_path / "s7")
    manifest = json.loads((root / "session.json").read_text())
    manifest["audio_normalization"] = factor
    text = json.dumps(manifest)  # the bare NaN / Infinity tokens Python's json reads
    assert "NaN" in text or "Infinity" in text
    (root / "session.json").write_text(text)
    with pytest.raises(IngestionError, match="normalization_factor must be finite and positive"):
        load_raw_session(root, utc_offset_hours=0)
