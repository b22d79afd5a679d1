"""Per-sensor feature vectors from raw recordings.

Each extractor returns a fixed-dimension :class:`~ctxfuse.model.FeatureVector`
(26 for phone motion sensors, 46 for the watch, 17 for location, 26 for
audio, 34 for phone state). Features that cannot be computed from the
available data are emitted masked, never zero-filled.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import pair_cosine_lag_stats
from .model import (
    FeatureVector,
    LocationSeries,
    PhoneStateSnapshot,
    PHONE_STATE_VALUES,
    TriaxialSeries,
)

EARTH_RADIUS_M = 6_371_000.0

LOG_RANGE_EPSILON = 1e-6

#: time-lag bucket edges (seconds) for the watch relative-direction features
DIRECTION_LAG_EDGES = (0.0, 0.5, 1.0, 5.0, 10.0, np.inf)

#: start hours of the 8 half-overlapping 6-hour time-of-day windows
TIME_BIN_STARTS = (0, 3, 6, 9, 12, 15, 18, 21)

#: lower edges (Hz) of the 5 spectral sub-bands; the last band is open-ended
BAND_EDGES_HZ = (0.0, 0.5, 1.0, 3.0, 5.0)

LOG_FLOOR_EPSILON = 1e-12


def magnitude_series(series: TriaxialSeries) -> np.ndarray:
    """Euclidean norm of the 3-axis samples at each time point."""
    if len(series) < 1:
        raise ValueError("empty signal")
    return np.sqrt((series.samples ** 2).sum(axis=1))


def band_energies(signal: np.ndarray, rate: float) -> np.ndarray:
    """Signal power per frequency sub-band, after removing the mean.

    Bands are half-open ``[lo, hi)`` at :data:`BAND_EDGES_HZ`; the last band
    is open-ended, so the energies sum to the total power of the
    mean-removed signal (Parseval).
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    spec = np.fft.fft(x - x.mean())
    power = (spec.real ** 2 + spec.imag ** 2) / n
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / rate))
    band = np.searchsorted(BAND_EDGES_HZ[1:], freqs, side="right")
    out = np.zeros(len(BAND_EDGES_HZ), dtype=np.float64)
    np.add.at(out, band, power)
    return out


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _value_entropy(x: np.ndarray, bins: int = 20) -> float:
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return 0.0
    counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
    return _entropy(counts / x.shape[0])


def _time_entropy(x: np.ndarray) -> float:
    # the signal itself, normalized, read as a distribution over time;
    # a flat signal gives ln(n), a single burst gives ~0
    mass = np.abs(x)
    total = mass.sum()
    if total <= 0:
        return math.log(x.shape[0])
    return _entropy(mass / total)


def _spectral_entropy(x: np.ndarray) -> float:
    spec = np.fft.rfft(x - x.mean())
    power = spec.real ** 2 + spec.imag ** 2
    total = power.sum()
    if total <= 0:
        return 0.0
    return _entropy(power / total)


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """Raw autocorrelation r[k] = sum_t x[t] x[t+k] of the mean-removed signal."""
    n = x.shape[0]
    xm = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(xm, nfft)
    return np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft)[:n]


def dominant_periodicity(signal: np.ndarray, rate: float) -> tuple:
    """Dominant period (seconds) and its normalized autocorrelation value.

    The autocorrelation is normalized to 1 at lag 0; the reported peak is
    the highest value at lags past the main lobe, where the main lobe ends
    at the first lag whose autocorrelation drops below zero. When the
    autocorrelation never goes negative (constant or trivially smooth
    signals) the sentinel (signal duration, 0.0) is returned.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    duration = n / rate
    ac = _autocorrelation(x)
    if ac[0] <= 0:
        return duration, 0.0
    ac = ac / ac[0]
    below = np.nonzero(ac < 0)[0]
    if below.size == 0:
        return duration, 0.0
    start = below[0]
    lag = start + int(np.argmax(ac[start:]))
    return lag / rate, float(ac[lag])


def scalar_series_features(signal: np.ndarray, rate: float) -> np.ndarray:
    """The 17 statistics of a scalar (magnitude) signal, in fixed order.

    0 mean, 1 std, 2 third central moment, 3 fourth central moment,
    4-6 the 25th/50th/75th percentiles,
    7 value entropy (20-bin histogram over [min, max]),
    8 time entropy (signal normalized to a distribution over time),
    9-13 log energies of the 5 frequency sub-bands,
    14 spectral entropy,
    15 dominant periodicity in seconds, 16 its normalized autocorrelation.

    Standard deviations and moments are population statistics.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.shape[0] < 8:
        raise ValueError("signal too short for scalar features (need >= 8 samples)")
    mu = x.mean()
    centered = x - mu
    out = np.empty(17, dtype=np.float64)
    out[0] = mu
    out[1] = centered.std()
    out[2] = (centered ** 3).mean()
    out[3] = (centered ** 4).mean()
    out[4:7] = np.percentile(x, (25, 50, 75))
    out[7] = _value_entropy(x)
    out[8] = _time_entropy(x)
    out[9:14] = np.log(band_energies(x, rate) + LOG_FLOOR_EPSILON)
    out[14] = _spectral_entropy(x)
    out[15], out[16] = dominant_periodicity(x, rate)
    return out


def axis_statistics(series: TriaxialSeries) -> np.ndarray:
    """Per-axis mean and std plus the three inter-axis correlations.

    Order: mean x/y/z, std x/y/z, corr(x,y), corr(x,z), corr(y,z).
    Correlations against a constant axis are defined as 0.
    """
    xyz = series.samples
    if xyz.shape[0] < 2:
        raise ValueError("axis statistics need at least 2 samples")
    means = xyz.mean(axis=0)
    stds = xyz.std(axis=0)
    # a value-constant axis has zero variance by definition, not by rounding
    constant = np.ptp(xyz, axis=0) == 0.0
    stds[constant] = 0.0
    centered = xyz - means
    out = np.empty(9, dtype=np.float64)
    out[0:3] = means
    out[3:6] = stds
    pairs = ((0, 1), (0, 2), (1, 2))
    for k, (a, b) in enumerate(pairs):
        denom = stds[a] * stds[b]
        if denom == 0.0:
            out[6 + k] = 0.0
        else:
            out[6 + k] = (centered[:, a] * centered[:, b]).mean() / denom
    return out


def extract_motion_features(series: TriaxialSeries, sensor: str = "acc") -> FeatureVector:
    """The 26 phone-motion features: magnitude statistics + axis statistics."""
    if sensor not in ("acc", "gyro"):
        raise ValueError("motion features apply to the phone acc/gyro sensors")
    mag = magnitude_series(series)
    values = np.concatenate(
        [scalar_series_features(mag, series.nominal_rate), axis_statistics(series)]
    )
    return FeatureVector(sensor=sensor, values=values, missing_mask=np.zeros(26, dtype=bool))


def extract_watch_features(series: TriaxialSeries) -> FeatureVector:
    """The 46 watch-accelerometer features.

    The 26 base motion features, then log sub-band energies of each axis
    (x, y, z; 5 each), then the mean direction cosine between sample pairs
    in the five time-lag buckets (0-0.5 s, 0.5-1 s, 1-5 s, 5-10 s, >10 s).
    Lag buckets with no pairs are emitted masked.
    """
    mag = magnitude_series(series)
    rate = series.nominal_rate
    base = np.concatenate([scalar_series_features(mag, rate), axis_statistics(series)])

    per_axis = np.concatenate(
        [
            np.log(band_energies(series.samples[:, ax], rate) + LOG_FLOOR_EPSILON)
            for ax in range(3)
        ]
    )

    edges = np.asarray(DIRECTION_LAG_EDGES, dtype=np.float64)
    sums, counts = pair_cosine_lag_stats(
        series.samples, series.relative_timestamps, edges
    )
    direction = np.full(5, np.nan)
    filled = counts > 0
    direction[filled] = sums[filled] / counts[filled]

    values = np.concatenate([base, per_axis, direction])
    return FeatureVector(
        sensor="wacc", values=values, missing_mask=np.isnan(values)
    )


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def _quick_location_features(updates) -> np.ndarray:
    out = np.full(6, np.nan)
    for k, attr in enumerate(("latitude", "longitude")):
        pts = [(u.relative_time, getattr(u, attr)) for u in updates if getattr(u, attr) is not None]
        if not pts:
            continue
        vals = np.array([v for _, v in pts])
        out[k] = vals.std()
        out[2 + k] = vals[-1] - vals[0]
        # mean absolute derivative, per second of elapsed time
        rates = [
            abs(v1 - v0) / (t1 - t0)
            for (t0, v0), (t1, v1) in zip(pts, pts[1:])
            if t1 > t0
        ]
        if rates:
            out[4 + k] = float(np.mean(rates))
    return out


def extract_location_features(series: LocationSeries) -> FeatureVector:
    """The 17 location features, based on relative coordinates only.

    Order: the 6 quick features (std lat, std lon, change lat, change lon,
    mean |dlat/dt|, mean |dlon/dt|), number of updates, log latitude range,
    log longitude range, min/max altitude, min/max speed, best (lowest)
    vertical and horizontal accuracy, diameter in meters, log diameter.
    Entries not derivable from the transmitted data are masked.
    """
    ups = series.updates
    values = np.full(17, np.nan)

    if series.quick_features is not None:
        values[0:6] = series.quick_features
    else:
        values[0:6] = _quick_location_features(ups)

    values[6] = len(ups)

    lats = [u.latitude for u in ups if u.latitude is not None]
    lons = [u.longitude for u in ups if u.longitude is not None]
    if lats:
        values[7] = math.log(max(lats) - min(lats) + LOG_RANGE_EPSILON)
    if lons:
        values[8] = math.log(max(lons) - min(lons) + LOG_RANGE_EPSILON)

    alts = [u.altitude for u in ups if u.altitude is not None]
    if alts:
        values[9], values[10] = min(alts), max(alts)
    speeds = [u.speed for u in ups if u.speed is not None]
    if speeds:
        values[11], values[12] = min(speeds), max(speeds)
    vaccs = [u.vertical_accuracy for u in ups if u.vertical_accuracy is not None]
    if vaccs:
        values[13] = min(vaccs)
    haccs = [u.horizontal_accuracy for u in ups if u.horizontal_accuracy is not None]
    if haccs:
        values[14] = min(haccs)

    coords = [(u.latitude, u.longitude) for u in ups if u.latitude is not None and u.longitude is not None]
    if coords:
        diameter = 0.0
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                d = haversine_m(*coords[i], *coords[j])
                if d > diameter:
                    diameter = d
        values[15] = diameter
        values[16] = math.log(diameter + LOG_RANGE_EPSILON)

    return FeatureVector(sensor="loc", values=values, missing_mask=np.isnan(values))


def time_bin_indicators(hour_of_day: int) -> np.ndarray:
    """8 half-overlapping 6-hour window indicators; every hour lights exactly 2."""
    if not 0 <= hour_of_day <= 23:
        raise ValueError(f"hour_of_day {hour_of_day} outside [0, 23]")
    out = np.zeros(8, dtype=np.float64)
    for k, start in enumerate(TIME_BIN_STARTS):
        if (hour_of_day - start) % 24 < 6:
            out[k] = 1.0
    return out


def extract_phone_state_features(ps: PhoneStateSnapshot) -> FeatureVector:
    """One-hot phone-state properties (26) plus time-of-day bins (8).

    Each property contributes one indicator per possible value plus one for
    missing data, so exactly one indicator per property group is set.
    """
    parts = []
    for prop, allowed in PHONE_STATE_VALUES.items():
        value = getattr(ps, prop)
        if value not in allowed:
            raise ValueError(f"phone state {prop} has invalid value {value!r}")
        onehot = np.zeros(len(allowed), dtype=np.float64)
        onehot[allowed.index(value)] = 1.0
        parts.append(onehot)
    parts.append(time_bin_indicators(ps.hour_of_day))
    values = np.concatenate(parts)
    return FeatureVector(sensor="ps", values=values, missing_mask=np.zeros(34, dtype=bool))
