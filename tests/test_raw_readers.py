"""The bulk raw-file reader against the per-cell reader it falls back to.

``_read_numeric_rows`` parses a raw bundle file with one ``np.loadtxt``
call (``_bulk_rows``) and hands anything that call rejects to
``_read_cells``, the per-cell reader that owns every error message. These
tests hold the two to the same arrays, bit for bit, and to the same errors.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxfuse.ingestion import (
    IngestionError,
    _bulk_rows,
    _read_cells,
    _read_numeric_rows,
    load_raw_session,
)
from test_ingestion import _write_session


def _write(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _outcome(read, path, n_cols, allow_missing):
    """``("rows", shape, bytes)`` or ``("error", message)`` of one read."""
    try:
        arr = read(path, n_cols, allow_missing)
    except IngestionError as exc:
        return ("error", str(exc))
    assert arr.dtype == np.float64
    return ("rows", arr.shape, arr.tobytes())


def _assert_readers_agree(path, n_cols, allow_missing=False):
    bulk = _outcome(_read_numeric_rows, path, n_cols, allow_missing)
    assert bulk == _outcome(_read_cells, path, n_cols, allow_missing)
    return bulk


# (id, file text, n_cols, allow_missing, rows as lists or an error fragment)
_EDGE_CASES = [
    ("blank-lines", "1,2\n\n3,4\n\n", 2, False, [[1, 2], [3, 4]]),
    ("whitespace-only-lines", "1,2\n \t \n3,4\n  \n", 2, False, [[1, 2], [3, 4]]),
    ("whitespace-only-line-one-column", "1\n \n2\n", 1, False, [[1], [2]]),
    ("crlf", "1,2\r\n3,4\r\n", 2, False, [[1, 2], [3, 4]]),
    ("cr-only", "1,2\r3,4\r", 2, False, [[1, 2], [3, 4]]),
    ("no-final-newline", "1,2\n3,4", 2, False, [[1, 2], [3, 4]]),
    ("spaces-around-cells", " 1 , 2\n3 ,\t4 \n", 2, False, [[1, 2], [3, 4]]),
    ("signs-and-short-forms", "+1.5,.5\n-0.,1.\n1E3,-2e-3\n", 2, False,
     [[1.5, 0.5], [-0.0, 1.0], [1000.0, -0.002]]),
    ("hash-line", "# comment\n1,2\n", 2, False, "line 1: expected 2 columns, got 1"),
    ("hash-line-with-comma", "# t,x\n1,2\n", 2, False, "line 1: malformed value '# t'"),
    ("hash-after-cell", "1,2 # note\n", 2, False, "line 1: malformed value '2 # note'"),
    ("quoted-cells", '"1","2.5"\n3,4\n', 2, False, [[1, 2.5], [3, 4]]),
    ("underscore-digits", "1_000,2\n", 2, False, [[1000, 2]]),
    ("hex", "0x10,2\n", 2, False, "line 1: malformed value '0x10'"),
    ("empty-file", "", 2, False, []),
    ("only-blank-lines", "\n\n  \n", 3, False, []),
    ("empty-cell", "1,\n", 2, False, "line 1: empty cell"),
    ("empty-cell-allowed", "1,\n,2\n", 2, True, [[1, math.nan], [math.nan, 2]]),
    ("all-empty-row-allowed", ",,\n", 3, True, [[math.nan] * 3]),
    ("ragged-row", "1,2\n3\n", 2, False, "line 2: expected 2 columns, got 1"),
    ("wide-file", "1,2,3\n", 2, False, "line 1: expected 2 columns, got 3"),
    ("trailing-comma", "1,2,\n", 2, False, "line 1: expected 2 columns, got 3"),
    ("nan", "1,2\nnan,1\n", 2, False, "line 2: non-finite value 'nan'"),
    ("nan-allowed-missing", "nan,1\n", 2, True, "line 1: non-finite value 'nan'"),
    ("inf", "1,-inf\n", 2, False, "line 1: non-finite value '-inf'"),
    ("infinity", "Infinity,1\n", 2, False, "line 1: non-finite value 'Infinity'"),
    ("overflow", "1e999,1\n", 2, False, "line 1: non-finite value '1e999'"),
    ("underflow-to-zero", "1e-400,-1e-400\n", 2, False, [[0.0, -0.0]]),
    ("byte-order-mark", "\ufeff1,2\n", 2, False, "line 1: malformed value '\\ufeff1'"),
]


@pytest.mark.parametrize(
    "text, n_cols, allow_missing, expected",
    [case[1:] for case in _EDGE_CASES],
    ids=[case[0] for case in _EDGE_CASES],
)
def test_edge_cases_match_the_per_cell_reader(tmp_path, text, n_cols, allow_missing, expected):
    path = _write(tmp_path / "f.csv", text)
    outcome = _assert_readers_agree(path, n_cols, allow_missing)
    if isinstance(expected, str):
        assert outcome[0] == "error"
        assert outcome[1] == f"{path}: {expected}"
    else:
        want = np.array(expected, dtype=np.float64).reshape(len(expected), n_cols)
        assert outcome == ("rows", want.shape, want.tobytes())


def test_bulk_path_takes_plain_files_and_declines_the_rest(tmp_path):
    plain = _write(tmp_path / "plain.csv", "0.0,1.5,-2\n0.025,3e-5,4\n")
    assert _bulk_rows(plain, 3) is not None
    for name, text in (("empty", ""), ("nan", "nan,1,2\n"), ("blank-cell", "1,,2\n")):
        assert _bulk_rows(_write(tmp_path / f"{name}.csv", text), 3) is None, name
    assert _bulk_rows(plain, 4) is None  # another width


@pytest.mark.parametrize("n_cols", [1, 4])
def test_empty_file_emits_no_warning(tmp_path, n_cols):
    path = _write(tmp_path / "f.csv", "\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy's "no data" warning would show here
        arr = _read_numeric_rows(path, n_cols)
    assert arr.shape == (0, n_cols)
    assert caught == []


# ---------------------------------------------------------------------------
# finite cells: the bulk path parses exactly what float() parses
# ---------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _long_mantissa(draw):
    digits = draw(st.text(alphabet="0123456789", min_size=17, max_size=60))
    point = draw(st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-", "+"]))
    # below 10**(point + e) <= 10**308: finite, down to subnormal and zero
    exponent = draw(st.one_of(st.just(""), st.integers(-330, 308 - point).map(lambda e: f"e{e}")))
    return f"{sign}{digits[:point]}.{digits[point:]}{exponent}"


_cells = st.one_of(
    _finite.map(repr),
    st.tuples(st.floats(-1e15, 1e15), st.integers(0, 20)).map(lambda t: f"{t[0]:.{t[1]}f}"),
    _long_mantissa(),
    st.floats(-2.3e-308, 2.3e-308).map(repr),  # subnormals and zeros
    st.sampled_from(["-0.0", "-0.", "0", "-0", "5e-324", "-4.9406564584124654e-324",
                     "1.7976931348623157e308"]),
)


@settings(max_examples=150, deadline=None)
@given(n_cols=st.integers(1, 7), data=st.data())
def test_bulk_path_is_bit_identical_to_the_per_cell_reader(tmp_path_factory, n_cols, data):
    rows = data.draw(st.lists(st.lists(_cells, min_size=n_cols, max_size=n_cols),
                              min_size=1, max_size=12))
    path = _write(tmp_path_factory.mktemp("bulk") / "f.csv",
                  "\n".join(",".join(row) for row in rows) + "\n")
    bulk = _bulk_rows(path, n_cols)
    assert bulk is not None
    cells = _read_cells(path, n_cols)
    assert bulk.shape == cells.shape == (len(rows), n_cols)
    assert bulk.tobytes() == cells.tobytes()


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="019.,-+eE \t\r\n#\"_nafi\x0b\x85 \xa0", max_size=40),
       n_cols=st.integers(1, 3), allow_missing=st.booleans())
def test_any_text_reads_as_the_per_cell_reader_reads_it(tmp_path_factory, text, n_cols, allow_missing):
    path = _write(tmp_path_factory.mktemp("fuzz") / "f.csv", text)
    _assert_readers_agree(path, n_cols, allow_missing)


# ---------------------------------------------------------------------------
# what the bundle loader builds from the arrays
# ---------------------------------------------------------------------------

def test_empty_location_cells_load_as_nan(tmp_path):
    root = _write_session(tmp_path / "s", n=16)
    ex = load_raw_session(root, utc_offset_hours=0)
    updates = ex.sensor_data["loc"].updates
    assert updates.dtype == np.float64 and updates.shape == (2, 7)
    first, second = updates
    assert first[3] == 100.0  # altitude
    assert math.isnan(second[3])
    assert second[0] == 5.0 and second[4] == 1.2  # relative time and speed
    assert np.isnan(updates).sum() == 1


def test_location_update_without_time_rejected(tmp_path):
    root = _write_session(tmp_path / "s", n=16)
    _write(root / "location.csv", ",32.88,-117.23,,,,\n")
    with pytest.raises(IngestionError, match="update without relative time"):
        load_raw_session(root, utc_offset_hours=0)


def test_quick_location_row_keeps_empty_cells_as_nan(tmp_path):
    root = _write_session(tmp_path / "s", n=16)
    _write(root / "location_quick.csv", "1e-4,,3e-4,4e-4,,6e-4\n")
    quick = load_raw_session(root, utc_offset_hours=0).sensor_data["loc"].quick_features
    assert quick.shape == (6,)
    assert np.array_equal(quick, [1e-4, np.nan, 3e-4, 4e-4, np.nan, 6e-4], equal_nan=True)
    _write(root / "location_quick.csv", "1,2,3,4,5,6\n1,2,3,4,5,6\n")
    with pytest.raises(IngestionError, match="expected a single 6-value row"):
        load_raw_session(root, utc_offset_hours=0)


def test_empty_mfcc_file_needs_a_frame(tmp_path):
    root = _write_session(tmp_path / "s", n=16)
    _write(root / "mfcc.csv", "")
    with pytest.raises(IngestionError) as err:
        load_raw_session(root, utc_offset_hours=0)
    assert str(err.value) == f"{root / 'mfcc.csv'}: at least one frame required"


def test_short_waveform_names_session_and_sensor(tmp_path):
    root = _write_session(tmp_path / "s", n=16, audio="wave")
    _write(root / "audio.csv", "0.1\n-0.2\n0.3\n")
    with pytest.raises(IngestionError) as err:
        load_raw_session(root, utc_offset_hours=0)
    assert str(err.value) == f"{root}: sensor 'aud': audio too short (3 samples in audio.csv)"
