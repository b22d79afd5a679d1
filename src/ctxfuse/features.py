"""Per-sensor feature vectors from raw recordings.

Each extractor returns a fixed-length float64 array (26 for phone motion
sensors, 46 for the watch, 17 for location, 26 for audio, 34 for phone
state). Features that cannot be computed from the available data are NaN,
never zero-filled. No extractor returns an all-NaN vector for a finite
payload, so a sensor with a payload is present on its minute.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import pair_cosine_lag_stats
from .model import (
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

#: the quantiles of the scalar features' 25th/50th/75th percentiles
QUARTILES = np.array([0.25, 0.5, 0.75])


def magnitude_series(series: TriaxialSeries) -> np.ndarray:
    """Euclidean norm of the 3-axis samples at each time point."""
    if len(series) < 1:
        raise ValueError("empty signal")
    return np.sqrt((series.samples ** 2).sum(axis=1))


def _power_spectrum(centered: np.ndarray) -> np.ndarray:
    """``|rfft|^2`` of a mean-removed real signal: the one-sided power
    spectrum, one bin per frequency ``k * rate / n`` for ``k <= n // 2``."""
    spec = np.fft.rfft(centered)
    return spec.real ** 2 + spec.imag ** 2


def _band_energies(power: np.ndarray, n: int, rate: float) -> np.ndarray:
    """:func:`band_energies` from the one-sided power spectrum of ``n`` samples.

    The full spectrum of a real signal mirrors every bin but 0 (and the
    Nyquist bin of an even ``n``) at the same absolute frequency, so those
    interior bins count twice.
    """
    weights = power * (2.0 / n)
    weights[0] = power[0] / n
    if n % 2 == 0:
        weights[-1] = power[-1] / n
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    band = np.searchsorted(BAND_EDGES_HZ[1:], freqs, side="right")
    return np.bincount(band, weights=weights, minlength=len(BAND_EDGES_HZ))


def band_energies(signal: np.ndarray, rate: float) -> np.ndarray:
    """Signal power per frequency sub-band, after removing the mean.

    Bands are half-open ``[lo, hi)`` at :data:`BAND_EDGES_HZ`; the last band
    is open-ended, so the energies sum to the total power of the
    mean-removed signal (Parseval).
    """
    x = np.asarray(signal, dtype=np.float64)
    return _band_energies(_power_spectrum(x - x.mean()), x.shape[0], rate)


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _value_entropy(x: np.ndarray) -> float:
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return 0.0
    counts, _ = np.histogram(x, bins=20, range=(lo, hi))
    return _entropy(counts / x.shape[0])


def _time_entropy(x: np.ndarray) -> float:
    # the signal itself, normalized, read as a distribution over time;
    # a flat signal gives ln(n), a single burst gives ~0
    mass = np.abs(x)
    total = mass.sum()
    if total <= 0:
        return math.log(x.shape[0])
    return _entropy(mass / total)


def _spectral_entropy(power: np.ndarray) -> float:
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


def _quartiles(ordered: np.ndarray) -> np.ndarray:
    """The 25th/50th/75th percentiles of sorted values by numpy's default
    linear rule, with its arithmetic: position ``(n - 1) q``, and the
    interpolation taken from the upper neighbour when its weight is at
    least 1/2, so the result equals ``np.percentile`` bit for bit."""
    pos = (ordered.shape[0] - 1) * QUARTILES
    below = np.floor(pos)
    weight = pos - below
    index = below.astype(np.intp)
    lo, hi = ordered[index], ordered[index + 1]
    step = hi - lo
    return np.where(weight >= 0.5, hi - step * (1 - weight), lo + step * weight)


def scalar_series_features(signal: np.ndarray, rate: float) -> np.ndarray:
    """The 17 statistics of a scalar (magnitude) signal, in fixed order.

    0 mean, 1 std, 2 third central moment, 3 fourth central moment,
    4-6 the 25th/50th/75th percentiles,
    7 value entropy (20-bin histogram over [min, max]),
    8 time entropy (signal normalized to a distribution over time),
    9-13 log energies of the 5 frequency sub-bands,
    14 spectral entropy,
    15 dominant periodicity in seconds, 16 its normalized autocorrelation.

    Standard deviations and moments are population statistics. One power
    spectrum of the mean-removed signal gives both the band energies and
    the spectral entropy.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    if n < 8:
        raise ValueError("signal too short for scalar features (need >= 8 samples)")
    mu = x.mean()
    centered = x - mu
    squared = centered * centered
    power = _power_spectrum(centered)
    out = np.empty(17, dtype=np.float64)
    out[0] = mu
    out[1] = centered.std()
    out[2] = (squared * centered).mean()
    out[3] = (squared * squared).mean()
    out[4:7] = _quartiles(np.sort(x))
    out[7] = _value_entropy(x)
    out[8] = _time_entropy(x)
    out[9:14] = np.log(_band_energies(power, n, rate) + LOG_FLOOR_EPSILON)
    out[14] = _spectral_entropy(power)
    out[15], out[16] = dominant_periodicity(x, rate)
    return out


def axis_statistics(series: TriaxialSeries) -> np.ndarray:
    """Per-axis mean and std plus the three inter-axis correlations.

    Order: mean x/y/z, std x/y/z, corr(x,y), corr(x,z), corr(y,z).
    Correlations against a constant axis are defined as 0.
    """
    xyz = series.samples
    n = xyz.shape[0]
    if n < 2:
        raise ValueError("axis statistics need at least 2 samples")
    means = xyz.mean(axis=0)
    centered = xyz - means
    cov = centered.T @ centered / n
    stds = np.sqrt(np.diag(cov))
    # a value-constant axis has zero variance by definition, not by rounding
    stds[np.ptp(xyz, axis=0) == 0.0] = 0.0
    a, b = [0, 0, 1], [1, 2, 2]
    denom = stds[a] * stds[b]
    out = np.zeros(9, dtype=np.float64)
    out[0:3] = means
    out[3:6] = stds
    np.divide(cov[a, b], denom, out=out[6:9], where=denom != 0.0)
    return out


def extract_motion_features(series: TriaxialSeries) -> np.ndarray:
    """The 26 phone-motion (acc or gyro) features: magnitude statistics +
    axis statistics."""
    mag = magnitude_series(series)
    return np.concatenate(
        [scalar_series_features(mag, series.nominal_rate), axis_statistics(series)]
    )


def extract_watch_features(series: TriaxialSeries) -> np.ndarray:
    """The 46 watch-accelerometer features.

    The 26 base motion features, then log sub-band energies of each axis
    (x, y, z; 5 each), then the mean direction cosine between sample pairs
    in the five time-lag buckets (0-0.5 s, 0.5-1 s, 1-5 s, 5-10 s, >10 s).
    Lag buckets with no pairs are NaN.
    """
    base = extract_motion_features(series)
    per_axis = np.concatenate(
        [
            np.log(band_energies(series.samples[:, ax], series.nominal_rate) + LOG_FLOOR_EPSILON)
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

    return np.concatenate([base, per_axis, direction])


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def _quick_location_features(updates: np.ndarray) -> np.ndarray:
    out = np.full(6, np.nan)
    for k in range(2):
        fixes = updates[~np.isnan(updates[:, 1 + k])]
        if not fixes.shape[0]:
            continue
        t, v = fixes[:, 0], fixes[:, 1 + k]
        out[k] = v.std()
        out[2 + k] = v[-1] - v[0]
        # mean absolute derivative, per second of elapsed time
        dt = np.diff(t)
        moving = dt > 0
        if moving.any():
            out[4 + k] = np.mean(np.abs(np.diff(v))[moving] / dt[moving])
    return out


def extract_location_features(series: LocationSeries) -> np.ndarray:
    """The 17 location features, based on relative coordinates only.

    Order: the 6 quick features (std lat, std lon, change lat, change lon,
    mean |dlat/dt|, mean |dlon/dt|), number of updates, log latitude range,
    log longitude range, min/max altitude, min/max speed, best (lowest)
    vertical and horizontal accuracy, diameter in meters, log diameter.
    Entries not derivable from the transmitted data are NaN; the number of
    updates is always set.
    """
    ups = series.updates
    values = np.full(17, np.nan)

    if series.quick_features is not None:
        values[0:6] = series.quick_features
    else:
        values[0:6] = _quick_location_features(ups)

    values[6] = ups.shape[0]

    # each column's reported values; the builtin min and max keep the first of
    # tied signed zeros, as numpy's reductions do not
    _, lats, lons, alts, speeds, vaccs, haccs = (c[~np.isnan(c)].tolist() for c in ups.T)
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

    coords = ups[~np.isnan(ups[:, 1:3]).any(axis=1), 1:3].tolist()
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


def time_bin_indicators(hour_of_day: int) -> np.ndarray:
    """8 half-overlapping 6-hour window indicators; every hour lights exactly 2."""
    if not 0 <= hour_of_day <= 23:
        raise ValueError(f"hour_of_day {hour_of_day} outside [0, 23]")
    out = np.zeros(8, dtype=np.float64)
    for k, start in enumerate(TIME_BIN_STARTS):
        if (hour_of_day - start) % 24 < 6:
            out[k] = 1.0
    return out


def extract_phone_state_features(ps: PhoneStateSnapshot) -> np.ndarray:
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
    return np.concatenate(parts)
