import math

import numpy as np
import pytest

from ctxfuse.data import FeatureStore, extract_all_features
from ctxfuse.features import (
    DIRECTION_LAG_EDGES,
    LOG_RANGE_EPSILON,
    axis_statistics,
    band_energies,
    dominant_periodicity,
    extract_location_features,
    extract_motion_features,
    extract_phone_state_features,
    extract_watch_features,
    haversine_m,
    magnitude_series,
    scalar_series_features,
    time_bin_indicators,
)
from ctxfuse.ingestion import feature_table
from ctxfuse.model import (
    AudioMfccSeries,
    Example,
    FEATURE_DIMS,
    LocationSeries,
    PhoneStateSnapshot,
    SENSORS,
    TriaxialSeries,
)
from synth import make_triaxial


def _series(samples, rate=40.0):
    samples = np.asarray(samples, dtype=float)
    ts = np.arange(samples.shape[0]) / rate
    return TriaxialSeries(ts, samples, rate)


# ---------------------------------------------------------------------------
# magnitude
# ---------------------------------------------------------------------------

def test_magnitude_unit_vector():
    s = _series(np.tile([0.0, 0.0, 1.0], (16, 1)))
    assert np.allclose(magnitude_series(s), 1.0)


def test_magnitude_pythagorean():
    s = _series(np.tile([3.0, 4.0, 0.0], (8, 1)))
    assert np.allclose(magnitude_series(s), 5.0)


def test_magnitude_matches_elementwise_oracle():
    rng = np.random.default_rng(3)
    xyz = rng.normal(size=(10, 3))
    expected = [math.sqrt(x * x + y * y + z * z) for x, y, z in xyz]
    got = magnitude_series(_series(xyz))
    assert np.allclose(got, expected, atol=1e-15)


def test_magnitude_empty_errors():
    s = TriaxialSeries(np.zeros(0), np.zeros((0, 3)), 40.0)
    with pytest.raises(ValueError, match="empty"):
        magnitude_series(s)


def test_magnitude_absolute_homogeneity():
    rng = np.random.default_rng(4)
    xyz = rng.normal(size=(32, 3))
    for c in (-2.5, 0.5, 7.0):
        assert np.allclose(
            magnitude_series(_series(c * xyz)), abs(c) * magnitude_series(_series(xyz))
        )


# ---------------------------------------------------------------------------
# scalar series features
# ---------------------------------------------------------------------------

def test_constant_signal_degenerate_statistics():
    f = scalar_series_features(np.full(800, 1.0), 40.0)
    assert f[0] == 1.0  # mean
    assert f[1] == 0.0  # std
    assert f[7] == 0.0  # value entropy
    assert np.isclose(f[8], math.log(800))  # time entropy of a flat signal
    assert f[15] == 800 / 40.0  # periodicity sentinel: the signal duration
    assert f[16] == 0.0


def test_uniform_histogram_reaches_max_value_entropy():
    # 20 distinct values, equally often: the 20-bin histogram is uniform
    x = np.repeat(np.arange(20) + 0.5, 40) / 20.0
    f = scalar_series_features(x, 40.0)
    assert np.isclose(f[7], math.log(20), atol=1e-12)


def test_too_short_signal_errors():
    with pytest.raises(ValueError, match="short"):
        scalar_series_features(np.arange(7.0), 40.0)


def _dft_band_energy_oracle(x, rate, edges):
    """Direct DFT accumulation, quadratic time."""
    n = len(x)
    xm = np.asarray(x) - np.mean(x)
    energies = np.zeros(len(edges))
    for k in range(n):
        re = sum(xm[t] * math.cos(-2 * math.pi * k * t / n) for t in range(n))
        im = sum(xm[t] * math.sin(-2 * math.pi * k * t / n) for t in range(n))
        power = (re * re + im * im) / n
        freq = abs(k / n * rate if k <= n / 2 else (k - n) / n * rate)
        band = 0
        while band + 1 < len(edges) and freq >= edges[band + 1]:
            band += 1
        energies[band] += power
    return energies


def _autocorr_peak_oracle(x, rate):
    """Full O(n^2) autocorrelation and the after-main-lobe peak rule."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    xm = x - x.mean()
    ac = np.array([np.dot(xm[: n - k], xm[k:]) for k in range(n)])
    if ac[0] <= 0:
        return n / rate, 0.0
    ac = ac / ac[0]
    neg = np.nonzero(ac < 0)[0]
    if neg.size == 0:
        return n / rate, 0.0
    start = neg[0]
    lag = start + int(np.argmax(ac[start:]))
    return lag / rate, float(ac[lag])


def test_sinusoid_periodicity_and_band():
    t = np.arange(800) / 40.0
    x = 2.0 + np.sin(2 * np.pi * 2.0 * t)
    f = scalar_series_features(x, 40.0)
    # 2 Hz -> 0.5 s, within one sample-lag quantum
    assert abs(f[15] - 0.5) <= 1.0 / 40.0
    # 1-3 Hz band dominates
    energies = band_energies(x, 40.0)
    assert energies.argmax() == 2
    period, value = _autocorr_peak_oracle(x, 40.0)
    assert f[15] == period
    assert np.isclose(f[16], value, atol=1e-9)


def test_band_energies_match_direct_dft():
    rng = np.random.default_rng(11)
    x = rng.normal(size=40)
    edges = (0.0, 0.5, 1.0, 3.0, 5.0)
    oracle = _dft_band_energy_oracle(x, 40.0, edges)
    assert np.allclose(band_energies(x, 40.0), oracle, rtol=1e-9, atol=1e-9)


def test_parseval_band_energy_sum():
    rng = np.random.default_rng(12)
    for n in (64, 800, 801):
        x = rng.normal(size=n) * 3 + 1
        total = ((x - x.mean()) ** 2).sum()
        assert np.isclose(band_energies(x, 40.0).sum(), total, rtol=1e-6)


def test_autocorrelation_peak_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.normal(size=64) + np.sin(np.arange(64) * rng.uniform(0.1, 2.0))
        period, value = dominant_periodicity(x, 40.0)
        o_period, o_value = _autocorr_peak_oracle(x, 40.0)
        assert period == o_period
        assert np.isclose(value, o_value, atol=1e-9)
        assert -1.0 <= value <= 1.0


def test_entropy_bounds_random_signals():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(8, 400))
        x = np.abs(rng.normal(size=n)) * rng.uniform(0.1, 10)
        f = scalar_series_features(x, 40.0)
        assert 0.0 <= f[7] <= math.log(20) + 1e-12
        assert 0.0 <= f[8] <= math.log(n) + 1e-12
        n_bins = n // 2 + 1
        assert 0.0 <= f[14] <= math.log(n_bins) + 1e-12


# ---------------------------------------------------------------------------
# axis statistics
# ---------------------------------------------------------------------------

def test_identical_axes_correlate_perfectly():
    rng = np.random.default_rng(5)
    x = rng.normal(size=32)
    xyz = np.column_stack([x, x, rng.normal(size=32)])
    f = axis_statistics(_series(xyz))
    assert np.isclose(f[6], 1.0)


def test_independent_axes_nearly_uncorrelated():
    rng = np.random.default_rng(6)
    xyz = rng.normal(size=(10_000, 3))
    f = axis_statistics(_series(xyz))
    assert np.all(np.abs(f[6:9]) < 0.05)


def test_constant_axis_correlation_is_zero():
    rng = np.random.default_rng(7)
    xyz = rng.normal(size=(32, 3))
    xyz[:, 2] = 4.2
    f = axis_statistics(_series(xyz))
    assert f[7] == 0.0 and f[8] == 0.0
    assert f[5] == 0.0  # std of the constant axis


def test_axis_statistics_population_std():
    xyz = np.column_stack([np.array([1.0, 2.0, 3.0])] * 3)
    f = axis_statistics(_series(xyz))
    assert np.allclose(f[3:6], math.sqrt(2.0 / 3.0))


# ---------------------------------------------------------------------------
# motion features
# ---------------------------------------------------------------------------

def test_motion_feature_length_is_26():
    rng = np.random.default_rng(8)
    fv = extract_motion_features(make_triaxial(rng, n=200))
    assert fv.shape == (26,)
    assert not np.isnan(fv).any()


def test_motion_constant_unit_vector_head():
    s = _series(np.tile([0.0, 0.0, 1.0], (64, 1)))
    fv = extract_motion_features(s)
    assert fv[0] == 1.0
    assert fv[1] == 0.0


def test_motion_is_composition_of_suboracles():
    rng = np.random.default_rng(9)
    s = make_triaxial(rng, n=128)
    fv = extract_motion_features(s)
    expected = np.concatenate(
        [scalar_series_features(magnitude_series(s), s.nominal_rate), axis_statistics(s)]
    )
    assert np.array_equal(fv, expected)


# ---------------------------------------------------------------------------
# watch features
# ---------------------------------------------------------------------------

def _direction_bucket_oracle(series):
    """All-pairs cosine means per lag bucket, by exhaustive enumeration."""
    xyz = series.samples
    ts = series.relative_timestamps
    edges = DIRECTION_LAG_EDGES
    sums = np.zeros(5)
    counts = np.zeros(5)
    n = len(series)
    for i in range(n):
        for j in range(i + 1, n):
            ni, nj = np.linalg.norm(xyz[i]), np.linalg.norm(xyz[j])
            if ni == 0 or nj == 0:
                continue
            lag = abs(ts[j] - ts[i])
            for b in range(5):
                if edges[b] <= lag < edges[b + 1]:
                    sums[b] += float(xyz[i] @ xyz[j]) / (ni * nj)
                    counts[b] += 1
                    break
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def test_watch_feature_length_is_46():
    rng = np.random.default_rng(15)
    fv = extract_watch_features(make_triaxial(rng, n=300, rate=25.0))
    assert fv.shape == (46,)


def test_watch_constant_direction_gives_unit_cosines():
    ts = np.arange(500) / 25.0
    mags = 1.0 + np.linspace(0, 3, 500)[:, None]
    samples = np.tile([0.0, 0.0, 1.0], (500, 1)) * mags
    fv = extract_watch_features(TriaxialSeries(ts, samples, 25.0))
    assert np.allclose(fv[41:46], 1.0)
    assert not np.isnan(fv[41:46]).any()


def test_watch_alternating_direction_matches_pair_enumeration():
    n = 40
    ts = np.arange(n) / 25.0
    samples = np.tile([1.0, 0.0, 0.0], (n, 1))
    samples[1::2] *= -1
    series = TriaxialSeries(ts, samples, 25.0)
    fv = extract_watch_features(series)
    oracle = _direction_bucket_oracle(series)
    got = fv[41:46]
    assert np.allclose(got[~np.isnan(oracle)], oracle[~np.isnan(oracle)], atol=1e-12)
    assert np.array_equal(np.isnan(got), np.isnan(oracle))


def test_watch_random_directions_match_pair_enumeration():
    rng = np.random.default_rng(16)
    series = make_triaxial(rng, n=60, rate=25.0)
    fv = extract_watch_features(series)
    oracle = _direction_bucket_oracle(series)
    mask = np.isnan(oracle)
    assert np.allclose(fv[41:46][~mask], oracle[~mask], atol=1e-9)


def test_watch_short_series_masks_empty_lag_buckets():
    rng = np.random.default_rng(17)
    series = make_triaxial(rng, n=10, rate=25.0)  # 0.36 s span
    fv = extract_watch_features(series)
    assert not np.isnan(fv[41])
    assert np.isnan(fv[42:46]).all()


def test_watch_direction_features_scale_invariant():
    rng = np.random.default_rng(18)
    series = make_triaxial(rng, n=64, rate=25.0)
    scaled = TriaxialSeries(
        series.relative_timestamps, series.samples * 5.0, 25.0
    )
    a = extract_watch_features(series)
    b = extract_watch_features(scaled)
    assert np.allclose(a[41:46], b[41:46], atol=1e-12, equal_nan=True)
    # inter-axis correlations are scale invariant too
    assert np.allclose(a[23:26], b[23:26], atol=1e-12)


# ---------------------------------------------------------------------------
# location features
# ---------------------------------------------------------------------------

def _fix(t, lat=np.nan, lon=np.nan, alt=np.nan, speed=np.nan, vacc=np.nan, hacc=np.nan):
    """One row of ``LocationSeries.updates``; NaN is an unreported value."""
    return (t, lat, lon, alt, speed, vacc, hacc)


def test_single_update_location():
    series = LocationSeries(updates=[_fix(0.0, lat=32.88, lon=-117.23)])
    fv = extract_location_features(series)
    assert fv[6] == 1.0  # number of updates
    assert fv[15] == 0.0  # diameter of a single point
    assert not np.isnan(fv[7])  # ranges computable (zero range)


def _haversine_oracle(lat1, lon1, lat2, lon2):
    # independent formulation: spherical law of cosines
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    cosc = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return 6_371_000.0 * math.acos(min(1.0, max(-1.0, cosc)))


def test_equator_latitude_step_diameter():
    series = LocationSeries(
        updates=[_fix(0.0, lat=0.0, lon=0.0), _fix(1.0, lat=0.001, lon=0.0)]
    )
    fv = extract_location_features(series)
    assert abs(fv[15] - 111.0) <= 2.0
    assert np.isclose(fv[15], _haversine_oracle(0.0, 0.0, 0.001, 0.0), atol=0.5)


def test_haversine_agrees_with_independent_formula():
    rng = np.random.default_rng(19)
    for _ in range(25):
        lat1, lat2 = rng.uniform(-80, 80, 2)
        lon1, lon2 = rng.uniform(-179, 179, 2)
        d1 = haversine_m(lat1, lon1, lat2, lon2)
        d2 = _haversine_oracle(lat1, lon1, lat2, lon2)
        assert np.isclose(d1, d2, rtol=1e-6, atol=1e-3)


def test_hidden_coordinates_mask_only_coordinate_features():
    quick = np.arange(6, dtype=float)
    series = LocationSeries(
        updates=[
            _fix(0.0, alt=100.0, speed=1.5, vacc=8.0, hacc=12.0),
            _fix(5.0, alt=104.0, speed=0.5, vacc=6.0, hacc=20.0),
        ],
        quick_features=quick,
    )
    fv = extract_location_features(series)
    assert np.array_equal(fv[0:6], quick)
    assert fv[6] == 2.0
    assert np.isnan(fv[7]) and np.isnan(fv[8])  # lat/lon ranges
    assert (fv[9], fv[10]) == (100.0, 104.0)
    assert (fv[11], fv[12]) == (0.5, 1.5)
    assert fv[13] == 6.0 and fv[14] == 12.0
    assert np.isnan(fv[15]) and np.isnan(fv[16])  # diameter


def test_empty_location_series_masks_everything_but_count():
    fv = extract_location_features(LocationSeries())
    assert fv[6] == 0.0
    assert np.isnan(fv[:6]).all()
    assert np.isnan(fv[7:]).all()


def test_quick_features_computed_per_second_from_raw():
    series = LocationSeries(
        updates=[_fix(0.0, lat=10.0, lon=20.0), _fix(2.0, lat=10.2, lon=19.9)]
    )
    fv = extract_location_features(series)
    assert np.isclose(fv[0], np.std([10.0, 10.2]))
    assert np.isclose(fv[2], 0.2)
    assert np.isclose(fv[4], 0.2 / 2.0)  # |dlat/dt| per second
    assert np.isclose(fv[5], 0.1 / 2.0)


@pytest.mark.parametrize("updates", [np.zeros(7), np.zeros((2, 6)), np.zeros((1, 7, 1))],
                         ids=["one-row-flat", "six-columns", "three-dims"])
def test_location_updates_must_be_an_n_by_7_array(updates):
    with pytest.raises(ValueError, match=r"\(n, 7\)"):
        LocationSeries(updates=updates)


def _per_fix_location_features(fixes, quick):
    """The location extractor as it ran fix by fix, on ``(t, lat, lon, alt,
    speed, vacc, hacc)`` tuples with None for an unreported value."""
    values = np.full(17, np.nan)
    if quick is not None:
        values[0:6] = quick
    else:
        for k in (0, 1):
            pts = [(f[0], f[1 + k]) for f in fixes if f[1 + k] is not None]
            if not pts:
                continue
            vals = np.array([v for _, v in pts])
            values[k] = vals.std()
            values[2 + k] = vals[-1] - vals[0]
            rates = [
                abs(v1 - v0) / (t1 - t0)
                for (t0, v0), (t1, v1) in zip(pts, pts[1:])
                if t1 > t0
            ]
            if rates:
                values[4 + k] = float(np.mean(rates))
    values[6] = len(fixes)
    lats, lons, alts, speeds, vaccs, haccs = (
        [f[j] for f in fixes if f[j] is not None] for j in range(1, 7)
    )
    if lats:
        values[7] = math.log(max(lats) - min(lats) + LOG_RANGE_EPSILON)
    if lons:
        values[8] = math.log(max(lons) - min(lons) + LOG_RANGE_EPSILON)
    if alts:
        values[9], values[10] = min(alts), max(alts)
    if speeds:
        values[11], values[12] = min(speeds), max(speeds)
    if vaccs:
        values[13] = min(vaccs)
    if haccs:
        values[14] = min(haccs)
    coords = [(f[1], f[2]) for f in fixes if f[1] is not None and f[2] is not None]
    if coords:
        diameter = 0.0
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                d = haversine_m(*coords[i], *coords[j])
                if d > diameter:
                    diameter = d
        values[15] = diameter
        values[16] = math.log(diameter + LOG_RANGE_EPSILON)
    return values


def _assert_matches_per_fix_oracle(fixes, quick):
    fixes = np.asarray(fixes, dtype=np.float64).reshape(-1, 7)
    rows = [tuple(None if math.isnan(v) else v for v in row) for row in fixes.tolist()]
    got = extract_location_features(LocationSeries(updates=fixes, quick_features=quick))
    want = _per_fix_location_features(rows, quick)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got.tobytes() == want.tobytes(), (fixes, quick, got, want)


_LOCATION_EDGE_CASES = {
    "no-fix": [],
    "one-fix": [_fix(0.0, 32.88, -117.23, 100.0, 1.0, 8.0, 10.0)],
    "equal-times": [_fix(1.0, 0.1, 0.2), _fix(1.0, 0.3, 0.1), _fix(1.0, 0.2, 0.4)],
    "decreasing-times": [_fix(5.0, 0.1, 0.2), _fix(2.5, 0.3, 0.1), _fix(0.0, 0.2, 0.4)],
    "equal-then-later": [_fix(0.0, 0.1, 0.2), _fix(0.0, 0.3, 0.1), _fix(2.0, 0.2, 0.4)],
    "all-nan-latitude": [_fix(0.0, lon=0.2, alt=5.0), _fix(1.0, lon=0.1, alt=6.0)],
    "all-nan-longitude": [_fix(0.0, lat=0.2, alt=5.0), _fix(1.0, lat=0.1, alt=6.0)],
    "latitude-and-longitude-on-different-fixes": [_fix(0.0, lat=0.1), _fix(1.0, lon=0.2)],
    "tied-signed-zeros": [_fix(0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0),
                          _fix(1.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)],
}


@pytest.mark.parametrize("with_quick", [False, True], ids=["computed-quick", "given-quick"])
@pytest.mark.parametrize("case", sorted(_LOCATION_EDGE_CASES))
def test_location_edge_cases_match_the_per_fix_oracle(case, with_quick):
    quick = np.array([1e-4, np.nan, 3e-4, 4e-4, np.nan, 6e-4]) if with_quick else None
    _assert_matches_per_fix_oracle(_LOCATION_EDGE_CASES[case], quick)


def _random_fixes(rng):
    n = int(rng.integers(0, 12))
    times = (
        np.cumsum(rng.choice([0.0, 0.5, 2.5], size=n)),  # non-decreasing, with repeats
        rng.choice([0.0, 1.0, 2.0], size=n),  # repeated and decreasing
        rng.uniform(-5.0, 20.0, size=n),
    )[int(rng.integers(3))]
    fixes = np.column_stack([
        times,
        32.88 + rng.normal(size=n) * 1e-3,
        -117.23 + rng.normal(size=n) * 1e-3,
        rng.normal(100.0, 50.0, size=n),
        np.abs(rng.normal(size=n)) * 2,
        rng.uniform(0.0, 50.0, size=n),
        rng.uniform(0.0, 50.0, size=n),
    ])
    fixes[:, 1:][rng.random((n, 6)) < 0.25] = np.nan
    for j in range(1, 7):
        u = rng.random()
        if u < 0.1:
            fixes[:, j] = np.nan  # a value the phone never reported
        elif u < 0.2:
            fixes[:, j] = rng.choice([0.0, -0.0], size=n)  # ties of signed zeros
    return fixes


def test_random_fix_tables_match_the_per_fix_oracle():
    rng = np.random.default_rng(2016)
    for _ in range(2000):
        fixes = _random_fixes(rng)
        quick = rng.normal(size=6) * 1e-4 if rng.random() < 0.5 else None
        _assert_matches_per_fix_oracle(fixes, quick)


# ---------------------------------------------------------------------------
# phone state features
# ---------------------------------------------------------------------------

def test_phone_state_hour4_active_app():
    ps = PhoneStateSnapshot(app_state="active", hour_of_day=4)
    fv = extract_phone_state_features(ps)
    assert fv.shape == (34,)
    bins = fv[26:]
    assert np.array_equal(np.nonzero(bins)[0], [0, 1])  # midnight-6am, 3am-9am
    # exactly one indicator per property group
    group_sizes = (4, 4, 7, 3, 4, 4)
    start = 0
    for size in group_sizes:
        assert fv[start : start + size].sum() == 1.0
        start += size


def test_every_hour_lights_exactly_two_bins():
    for hour in range(24):
        assert time_bin_indicators(hour).sum() == 2.0


def test_all_properties_present_gives_eight_ones():
    ps = PhoneStateSnapshot(
        app_state="background",
        battery_plugged="usb",
        battery_state="charging",
        in_phone_call="false",
        ringer_mode="normal",
        wifi_status="via_wifi",
        hour_of_day=13,
    )
    fv = extract_phone_state_features(ps)
    assert fv.sum() == 8.0


def test_invalid_phone_state_value_rejected():
    with pytest.raises(ValueError, match="app_state"):
        extract_phone_state_features(PhoneStateSnapshot(app_state="launched"))


# ---------------------------------------------------------------------------
# presence: a payload always yields a vector that is not all NaN
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fill", ["zeros", "random"])
def test_every_extractor_on_a_minimal_payload_is_not_all_nan(fill):
    # a raw payload must make its sensor present, and the feature store calls
    # a sensor present unless its vector is all NaN: so no extractor may
    # return an all-NaN vector
    rng = np.random.default_rng(17)

    def samples(n, width):
        return np.zeros((n, width)) if fill == "zeros" else rng.normal(size=(n, width))

    payloads = {
        "acc": _series(samples(8, 3)),
        "gyro": _series(samples(8, 3)),
        "wacc": _series(samples(8, 3), rate=25.0),
        "loc": LocationSeries(),  # no update and no quick features
        "aud": AudioMfccSeries(frames=samples(1, 13)),
        "ps": PhoneStateSnapshot(),
    }
    vectors = extract_all_features(Example("u0", 0, sensor_data=payloads))
    store = FeatureStore.from_tables([feature_table("u0", [(0, vectors, ())])])
    for sensor in SENSORS:
        fv = vectors[sensor]
        assert fv.shape == (FEATURE_DIMS[sensor],), sensor
        assert not np.isnan(fv).all(), sensor
        assert store.present[sensor].tolist() == [True], sensor
