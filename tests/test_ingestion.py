import csv
import io
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ctxfuse.ingestion as ingestion
from ctxfuse.cli import main
from ctxfuse.data import FeatureStore
from ctxfuse.ingestion import (
    FEATURE_COLUMNS,
    FeatureTable,
    IngestionError,
    feature_table,
    load_feature_tables,
    load_fold_partition,
    load_raw_session,
    read_features_table,
    write_features_csv,
)
from ctxfuse.model import (
    FEATURE_DIMS,
    MISSING,
    NOT_RELEVANT,
    RELEVANT,
    SENSORS,
    LabelAssignment,
)
from perfbench_files import perfbench_module
from synth import (
    example_store,
    feature_example,
    has_sensors,
    ordered,
    random_full_example,
    table_examples,
    write_examples,
)


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
    write_examples(path, examples)
    first = path.read_bytes()

    table = read_features_table(path)
    assert len(table) == len(examples)
    assert table.user_id == "u0"
    assert table.timestamps.tolist() == [ex.timestamp for ex in examples]
    for s in SENSORS:
        assert np.array_equal(table.features[s], np.vstack([ex.features[s] for ex in examples]))
    assert table.labels["SITTING"].tolist() == [t % 2 for t in range(len(examples))]
    assert table.labels["WALKING"].tolist() == [-1] * len(examples)  # unreported

    path2 = tmp_path / "u0b.features.csv"
    write_features_csv(path2, table)
    assert path2.read_bytes() == first


def test_feature_table_sorts_rows_and_label_columns():
    acc = np.arange(26.0)
    table = feature_table("u0", [
        (120, {"acc": acc}, (LabelAssignment("WALKING", RELEVANT),)),
        (60, {}, (LabelAssignment("WALKING", NOT_RELEVANT), LabelAssignment("SITTING", MISSING))),
        (90, {"acc": -acc}, ()),
    ])
    assert len(table) == 3 and table.user_id == "u0" and table.positional == ()
    assert table.timestamps.dtype == np.int64 and table.timestamps.tolist() == [60, 90, 120]
    assert list(table.features) == list(SENSORS)
    assert table.features["acc"].tobytes() == np.vstack([np.full(26, np.nan), -acc, acc]).tobytes()
    for s in SENSORS[1:]:
        assert table.features[s].shape == (3, FEATURE_DIMS[s]) and np.isnan(table.features[s]).all()
    assert list(table.labels) == ["SITTING", "WALKING"]
    assert all(col.dtype == np.int8 for col in table.labels.values())
    assert table.labels["SITTING"].tolist() == [-1, -1, -1]
    assert table.labels["WALKING"].tolist() == [0, -1, 1]


def test_masked_cells_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
    vals["acc"][:] = np.nan  # all acc cells empty
    vals["loc"][3] = np.nan
    ex = feature_example("u0", 60, vals, {"SITTING": 1})
    path = tmp_path / "u0.features.csv"
    write_examples(path, [ex])
    header, row = path.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells[FEATURE_COLUMNS["loc"][3]] == "" and "nan" not in row
    back = read_features_table(path)
    assert np.isnan(back.features["acc"]).all()
    assert not has_sensors(table_examples(back)[0], ("acc",))
    assert np.isnan(back.features["loc"][0, 3])
    assert not np.isnan(back.features["loc"][0, 4])


def test_header_group_widths_enforced(tmp_path):
    cols = ["timestamp"] + FEATURE_COLUMNS["acc"][:-1]  # 25 acc columns
    path = tmp_path / "u0.features.csv"
    path.write_text(",".join(cols) + "\n" + ",".join(["0"] + ["1"] * 25) + "\n")
    with pytest.raises(IngestionError, match="25 columns"):
        read_features_table(path)


def test_duplicate_timestamp_rejected(tmp_path):
    examples = _some_examples(2)
    path = tmp_path / "u0.features.csv"
    write_examples(path, examples)
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # repeat the first data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match="duplicate timestamp"):
        read_features_table(path)


def test_ragged_row_rejected_with_line_number(tmp_path):
    path = tmp_path / "u0.features.csv"
    write_examples(path, _some_examples(2))
    lines = path.read_text().splitlines()
    lines[2] = lines[2] + ",999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match="line 3"):
        read_features_table(path)


def test_malformed_cell_names_column(tmp_path):
    path = tmp_path / "u0.features.csv"
    write_examples(path, _some_examples(1))
    text = path.read_text()
    row = text.splitlines()[1].split(",")
    row[1] = "not-a-number"
    path.write_text(text.splitlines()[0] + "\n" + ",".join(row) + "\n")
    with pytest.raises(IngestionError, match="malformed value"):
        read_features_table(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_infinite_cell_rejected_with_file_line_and_column(tmp_path, cell):
    path = tmp_path / "u0.features.csv"
    write_examples(path, _some_examples(3))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[5] = cell
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError) as err:
        read_features_table(path)
    message = str(err.value)
    assert str(path) in message
    assert "line 3" in message
    assert "non-finite" in message
    assert repr(header[5]) in message


def test_duplicate_header_names_file_and_column(tmp_path):
    path = tmp_path / "u0.features.csv"
    write_examples(path, _some_examples(2))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    header[2] = header[1]
    lines[0] = ",".join(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError) as err:
        read_features_table(path)
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
    path = tmp_path / "u0.features.csv"
    write_examples(path, examples)
    acc = np.vstack([ex.features["acc"] for ex in examples])
    order = list(range(FEATURE_DIMS["acc"]))
    order[0], order[1] = order[1], order[0]
    swapped = _permute_group_columns(path.read_text(), "acc", order)
    assert swapped.splitlines()[0].split(",")[1] == FEATURE_COLUMNS["acc"][1]

    path.write_text(swapped)
    assert np.array_equal(read_features_table(path).features["acc"], acc)

    # names outside the canonical set keep their positional mapping
    path.write_text(swapped.replace("raw_acc:magnitude:", "raw_acc:mag_"))
    assert np.array_equal(read_features_table(path).features["acc"], acc[:, order])


@st.composite
def _feature_tables(draw, user="u0"):
    """A table as :func:`read_features_table` returns one: up to four rows
    by timestamp, some sensor groups in ``SENSORS`` order with NaN cells
    and all-NaN rows (a group may be all NaN), and label columns in any
    order coded 1, 0 or -1."""
    timestamps = sorted(draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=4, unique=True)))
    n = len(timestamps)
    cells = st.floats(allow_nan=False, allow_infinity=False)
    features = {}
    for s in SENSORS:
        if draw(st.booleans()):
            block = draw(hnp.arrays(np.float64, (n, FEATURE_DIMS[s]), elements=cells))
            block[draw(hnp.arrays(bool, (n, FEATURE_DIMS[s])))] = np.nan
            block[draw(hnp.arrays(bool, n))] = np.nan
            features[s] = block
    names = draw(st.lists(st.sampled_from(["SITTING", "WALKING", "LYING_DOWN"]), unique=True))
    codes = st.sampled_from([1, 0, -1])
    labels = {name: draw(hnp.arrays(np.int8, n, elements=codes)) for name in names}
    return FeatureTable(user, np.array(timestamps, dtype=np.int64), features, labels, ())


def _assert_same_table(got, want):
    """Equal tables, bit for bit: NaN positions, signed zeros and dtypes."""
    assert got.user_id == want.user_id
    assert got.timestamps.dtype == want.timestamps.dtype == np.int64
    assert got.timestamps.tolist() == want.timestamps.tolist()
    assert list(got.features) == list(want.features)
    for s, block in want.features.items():
        assert got.features[s].dtype == block.dtype == np.float64, s
        assert got.features[s].shape == block.shape, s
        assert got.features[s].tobytes() == block.tobytes(), s
    assert list(got.labels) == list(want.labels)
    for name, col in want.labels.items():
        assert got.labels[name].dtype == col.dtype == np.int8, name
        assert got.labels[name].tolist() == col.tolist(), name
    assert got.positional == want.positional


@settings(max_examples=60, deadline=None)
@given(_feature_tables(), st.data())
def test_feature_table_round_trip_property(tmp_path_factory, table, data):
    path = tmp_path_factory.mktemp("table") / "u0.features.csv"
    write_features_csv(path, table)
    assert len(table) == len(table.timestamps)
    _assert_same_table(read_features_table(path), table)
    text = path.read_text(encoding="utf-8")
    write_features_csv(path, read_features_table(path))
    assert path.read_text(encoding="utf-8") == text
    if table.features:
        # a group's canonical names map by name, in any order
        sensor = data.draw(st.sampled_from(list(table.features)))
        order = data.draw(st.permutations(range(FEATURE_DIMS[sensor])))
        path.write_text(_permute_group_columns(text, sensor, order), encoding="utf-8")
        _assert_same_table(read_features_table(path), table)


#: spellings of an empty feature cell that the per-cell reader reads as NaN
_EMPTY_SPELLINGS = ("", "nan", "NaN", "-nan", " nan ", " ")

#: cells that ``float`` reads and ``np.loadtxt`` does not
_FLOAT_ONLY_CELLS = ("1_000", "\uff11\uff12")

_LABEL_SPELLINGS = {"1": ("1", "1.0"), "0": ("0", "0.0"), "": ("", " ")}


@settings(max_examples=80, deadline=None)
@given(_feature_tables(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_bulk_reader_returns_the_per_cell_readers_table(tmp_path_factory, table, seed, float_only, data):
    """Whatever the spelling of its cells, the order of its rows or of a
    group's canonical columns, a table reads bit for bit as the per-cell
    reader reads it; one ``np.loadtxt`` call reads it unless a cell needs
    the per-cell reader."""
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("bulk") / "u0.features.csv"
    write_features_csv(path, table)
    text = path.read_text(encoding="utf-8")
    if table.features and data.draw(st.booleans()):
        sensor = data.draw(st.sampled_from(list(table.features)))
        text = _permute_group_columns(text, sensor, data.draw(st.permutations(range(FEATURE_DIMS[sensor]))))
    header, *body = csv.reader(io.StringIO(text))
    labels = {i for i, name in enumerate(header) if name.startswith("label:")}
    needs_cells = False
    for row in body:
        for i, cell in enumerate(row[1:], start=1):
            if i in labels:
                row[i] = str(rng.choice(_LABEL_SPELLINGS[cell]))
            elif cell == "":
                row[i] = str(rng.choice(_EMPTY_SPELLINGS))
                needs_cells |= row[i] == " "
            elif float_only and rng.random() < 0.05:
                row[i] = str(rng.choice(_FLOAT_ONLY_CELLS))
                needs_cells = True
            elif rng.random() < 0.1:
                row[i] = f" {cell} "
    rng.shuffle(body)
    text = "".join(",".join(row) + "\n" for row in [header, *body])
    path.write_text(text, encoding="utf-8")
    _assert_same_table(read_features_table(path), ingestion._table_cells(text, str(path), "u0"))
    if body and not needs_cells:
        assert ingestion._bulk_table(text, str(path), "u0") is not None


@pytest.mark.parametrize("cell, value", [("1_000", 1000.0), ("\uff11\uff12", 12.0), (" 1_0 ", 10.0)])
def test_cells_that_only_float_reads_take_the_per_cell_reader(tmp_path, cell, value):
    path = tmp_path / "u0.features.csv"
    write_examples(path, _some_examples(2))
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = rows[0].split(",")
    cells[header.split(",").index(FEATURE_COLUMNS["acc"][0])] = cell
    text = "\n".join([header, ",".join(cells), *rows[1:]]) + "\n"
    path.write_text(text, encoding="utf-8")
    assert ingestion._bulk_table(text, str(path), "u0") is None
    assert read_features_table(path).features["acc"][0, 0] == value


@pytest.mark.parametrize("timestamp", [2**63, -2**63 - 1])
def test_timestamp_past_int64_gets_the_per_cell_range_message(tmp_path, timestamp):
    path = tmp_path / "u0.features.csv"
    text = f"timestamp,label:A\n60,1\n{timestamp},0\n"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(OverflowError):
        np.array(["60", str(timestamp)], dtype=np.int64)
    assert ingestion._bulk_table(text, str(path), "u0") is None
    with pytest.raises(IngestionError, match=f"line 3: timestamp {timestamp} is out of range"):
        read_features_table(path)


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_extract_tables_write_back_byte_identical(tmp_path, tiny, capsys):
    corpus = perfbench_module("corpus")
    root, _ = corpus.materialize(corpus.WORKLOADS["extract-raw"], 0, tiny, tmp_path / "inputs")
    out = tmp_path / "out"
    code = main(["extract", "--input", str(root / "sessions"), "--utc-offset", "-7",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    paths = sorted(out.glob("*.features.csv"))
    assert paths
    (tmp_path / "again").mkdir()
    for path in paths:
        again = tmp_path / "again" / path.name
        write_features_csv(again, read_features_table(path))
        assert again.read_bytes() == path.read_bytes(), path.name


def test_unknown_columns_skipped_with_one_warning(tmp_path, caplog):
    path = tmp_path / "u0.features.csv"
    write_examples(path, _some_examples(3))
    plain = read_features_table(path)
    rows = list(csv.reader(io.StringIO(path.read_text())))
    for i, row in enumerate(rows):  # two columns of one unknown group, one of another
        row[3:3] = ["label_source:app", "label_source:when", "device"] if i == 0 else ["x", "", "7"]
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with caplog.at_level(logging.WARNING):
        table = read_features_table(path)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: skipping 3 unknown columns: device, label_source"]
    assert not table.positional
    assert table.timestamps.tolist() == plain.timestamps.tolist()
    for s in SENSORS:
        assert table.features[s].tobytes() == plain.features[s].tobytes(), s
    assert {k: v.tolist() for k, v in table.labels.items()} == {
        k: v.tolist() for k, v in plain.labels.items()}


def test_bad_label_cell_rejected(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text("timestamp,label:SITTING\n60,maybe\n")
    with pytest.raises(IngestionError, match="label cell"):
        read_features_table(path)


def test_label_names_canonicalized(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text("timestamp,label:Lying down\n60,1\n")
    assert read_features_table(path).labels["LYING_DOWN"].tolist() == [1]


def test_label_columns_that_canonicalize_to_one_name_rejected(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text("timestamp,label:A,label:a\n60,1,0\n")
    with pytest.raises(IngestionError) as err:
        read_features_table(path)
    assert str(err.value) == (
        f"{path}: line 1: label columns 'label:A' and 'label:a' both canonicalize to 'A'"
    )


def test_timestamp_outside_int64_rejected_with_line(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text(f"timestamp,label:A\n60,1\n{2**63},0\n")
    with pytest.raises(IngestionError, match="line 3: timestamp 9223372036854775808 is out of range"):
        read_features_table(path)


# ---------------------------------------------------------------------------
# the feature store built from tables
# ---------------------------------------------------------------------------

def _assert_same_store(got, want):
    """Bit-identical columns, NaN positions included, in the same row order."""
    assert got.users.dtype == want.users.dtype
    assert got.users.tolist() == want.users.tolist()
    assert got.timestamps.dtype == want.timestamps.dtype
    assert got.timestamps.tolist() == want.timestamps.tolist()
    assert list(got.features) == list(want.features) == list(SENSORS)
    for s in SENSORS:
        assert got.features[s].shape == want.features[s].shape, s
        assert got.features[s].tobytes() == want.features[s].tobytes(), s
        assert got.present[s].tolist() == want.present[s].tolist(), s
    assert list(got.relevant) == list(want.relevant)
    for label, col in want.relevant.items():
        assert got.relevant[label].dtype == col.dtype, label
        assert got.relevant[label].tolist() == col.tolist(), label


def _stores(paths, labels):
    """The store built from the tables' columns, and the per-example
    oracle's store of the tables' rows in user-then-timestamp order."""
    tables = [read_features_table(path) for path in paths]
    examples = [ex for table in tables for ex in table_examples(table)]
    return (FeatureStore.from_tables(tables, labels=labels),
            example_store(ordered(examples), labels=labels))


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_store_from_tables_matches_store_from_examples_on_golden_corpus(tmp_path, tiny):
    corpus = perfbench_module("corpus")
    root, info = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, tiny, tmp_path / "inputs")
    paths = sorted((root / "features").glob("*.features.csv"))
    got, want = _stores(paths, info["labels"])
    _assert_same_store(got, want)
    assert got.complete().sum() > 0 and not got.complete().all()
    assert not got.present["wacc"].all()


def _without_group(text, sensor):
    """The table with ``sensor``'s columns removed from header and rows."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0])
            if not name.startswith(ingestion.SENSOR_COLUMN_PREFIXES[sensor])]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([[row[i] for i in keep] for row in rows])
    return out.getvalue()


@st.composite
def _directories(draw):
    """Up to three users' tables (``_feature_tables``) as ``{user: (table,
    sensor groups to drop, row order)}``, and the labels to look up."""
    users = draw(st.lists(st.sampled_from(["u0", "u1", "u2"]), min_size=1, max_size=3, unique=True))
    tables, labels = {}, set()
    for user in users:
        table = draw(_feature_tables(user))
        dropped = draw(st.lists(st.sampled_from(SENSORS), unique=True, max_size=3))
        tables[user] = table, dropped, draw(st.permutations(range(len(table))))
        labels.update(table.labels)
    return tables, sorted(labels) + ["NEVER_REPORTED"]


@settings(max_examples=30, deadline=None)
@given(_directories())
def test_store_from_tables_matches_store_from_examples_property(tmp_path_factory, directory):
    tables, labels = directory
    root = tmp_path_factory.mktemp("tables")
    paths = []
    for user, (table, dropped, order) in tables.items():
        path = root / f"{user}.features.csv"
        write_features_csv(path, table)
        text = path.read_text(encoding="utf-8")
        for sensor in dropped:
            text = _without_group(text, sensor)
        header, *rows = text.splitlines()
        path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n", encoding="utf-8")
        paths.append(path)
    got, want = _stores(paths, labels)
    _assert_same_store(got, want)


def test_store_from_tables_keeps_one_nan_bit_pattern(tmp_path):
    # "-nan" parses to a NaN with the sign bit set; the example path stores
    # numpy's NaN, and so must the table path
    cols = FEATURE_COLUMNS["aud"]
    cells = ["-nan", "NaN", ""] + ["1.5"] * (len(cols) - 3)
    path = tmp_path / "u0.features.csv"
    path.write_text(",".join(["timestamp", *cols]) + "\n" + ",".join(["60", *cells]) + "\n")
    got, want = _stores([path], [])
    _assert_same_store(got, want)


def test_store_from_tables_of_header_only_tables_is_empty(tmp_path):
    path = tmp_path / "u0.features.csv"
    path.write_text("timestamp,label:A\n")
    store = FeatureStore.from_tables(load_feature_tables(tmp_path), labels=["A"])
    _assert_same_store(store, example_store([], labels=["A"]))
    assert store.user_ids() == []


# ---------------------------------------------------------------------------
# fold partition files
# ---------------------------------------------------------------------------

def test_partition_file_roundtrip(tmp_path):
    # one fold per line, user ids whitespace-separated; blank lines skipped
    path = tmp_path / "folds.txt"
    path.write_text("u00 u01\n\nu02\nu03\tu04  \n", encoding="utf-8")
    loaded = load_fold_partition(path)
    assert loaded.folds == (("u00", "u01"), ("u02",), ("u03", "u04"))
    assert " ".join(" ".join(f) for f in loaded.folds).split() == path.read_text().split()


def test_partition_five_by_twelve(tmp_path):
    folds = tuple(tuple(f"user{f:02d}{i:02d}" for i in range(12)) for f in range(5))
    path = tmp_path / "folds.txt"
    path.write_text("".join(" ".join(f) + "\n" for f in folds), encoding="utf-8")
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
    assert ex.labels == (LabelAssignment("SITTING", RELEVANT),)

    from ctxfuse.data import extract_all_features

    feats = extract_all_features(ex)
    assert {s: len(feats[s]) for s in SENSORS} == FEATURE_DIMS


def test_android_acceleration_converted_to_g(tmp_path):
    root_si = _write_session(tmp_path / "si", acc_unit="m/s2")
    ex = load_raw_session(root_si, utc_offset_hours=0)
    acc = ex.sensor_data["acc"]
    raw_rows = np.loadtxt(root_si / "acc.csv", delimiter=",")
    assert np.allclose(acc.samples, raw_rows[:, 1:] / 9.80665)


def test_missing_location_file_is_absent_sensor(tmp_path):
    root = _write_session(tmp_path / "s2", with_loc=False)
    ex = load_raw_session(root, utc_offset_hours=0)
    assert "loc" not in ex.sensor_data
    assert not has_sensors(ex, ("loc",))


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
    with pytest.raises(IngestionError) as err:
        load_raw_session(root, utc_offset_hours=0)
    assert str(err.value) == (
        f"{root / 'session.json'}: audio_normalization {factor!r} is not finite and positive")
