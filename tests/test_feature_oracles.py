"""The extraction kernels against the code paths they replaced.

Each oracle below is the earlier implementation of one kernel: the band
energies of the full complex FFT, the per-pair axis correlations, the
quartiles of ``np.percentile``, the moments of ``**`` powers and the mel
filterbank built one band at a time. Quartiles, the spectral entropy and the
filterbank keep their arithmetic and must be equal bit for bit; the rest sum
or round in another order and must agree within 1e-12 relative, with the
scale a quantity's rounding follows as its floor: the total power for the
band energies, ``mean |c|^k`` for the k-th central moment, and 1 for a
correlation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxfuse.audio import AUDIO_SAMPLE_RATE, FRAME_LENGTH, N_MEL_BANDS, hz_to_mel, mel_filterbank, mel_to_hz
from ctxfuse.features import (
    BAND_EDGES_HZ,
    _quartiles,
    axis_statistics,
    band_energies,
    scalar_series_features,
)
from ctxfuse.model import TriaxialSeries

RTOL = 1e-12


def _full_fft_band_energies(signal, rate):
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    spec = np.fft.fft(x - x.mean())
    power = (spec.real ** 2 + spec.imag ** 2) / n
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / rate))
    band = np.searchsorted(BAND_EDGES_HZ[1:], freqs, side="right")
    out = np.zeros(len(BAND_EDGES_HZ), dtype=np.float64)
    np.add.at(out, band, power)
    return out


def _rfft_spectral_entropy(x):
    spec = np.fft.rfft(x - x.mean())
    power = spec.real ** 2 + spec.imag ** 2
    total = power.sum()
    if total <= 0:
        return 0.0
    p = power[power > 0] / total
    return float(-(p * np.log(p)).sum())


def _per_pair_axis_statistics(xyz):
    means = xyz.mean(axis=0)
    stds = xyz.std(axis=0)
    stds[np.ptp(xyz, axis=0) == 0.0] = 0.0
    centered = xyz - means
    out = np.empty(9, dtype=np.float64)
    out[0:3] = means
    out[3:6] = stds
    for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        denom = stds[a] * stds[b]
        out[6 + k] = 0.0 if denom == 0.0 else (centered[:, a] * centered[:, b]).mean() / denom
    return out


def _looped_mel_filterbank():
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(AUDIO_SAMPLE_RATE / 2.0), N_MEL_BANDS + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.fft.rfftfreq(FRAME_LENGTH, d=1.0 / AUDIO_SAMPLE_RATE)
    weights = np.zeros((N_MEL_BANDS, bin_freqs.shape[0]), dtype=np.float64)
    for b in range(N_MEL_BANDS):
        lo, mid, hi = hz_points[b], hz_points[b + 1], hz_points[b + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        weights[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


def _signal(kind, n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 40.0
    if kind == "noise":
        return rng.normal(size=n) * 2.0 + 0.5
    if kind == "magnitude":  # positive and skewed, like a magnitude series
        return np.sqrt(((rng.normal(size=(n, 3)) + [0.0, 0.0, 9.8]) ** 2).sum(axis=1))
    if kind == "sinusoid":
        return 1.0 + np.sin(2 * np.pi * 2.0 * t) + 0.01 * rng.normal(size=n)
    if kind == "ties":
        return np.round(rng.normal(size=n) * 2.0) / 2.0
    return np.full(n, {"constant-1": 1.0, "constant-0.1": 0.1, "constant-9.81": 9.81}[kind])


SIGNAL_KINDS = ("noise", "magnitude", "sinusoid", "ties", "constant-1", "constant-0.1", "constant-9.81")
LENGTHS = (8, 9, 64, 65, 800, 801)


@pytest.mark.parametrize("kind", SIGNAL_KINDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_band_energies_match_the_full_fft(kind, n):
    x = _signal(kind, n, seed=n)
    for rate in (40.0, 25.0, 1.5):
        want = _full_fft_band_energies(x, rate)
        np.testing.assert_allclose(band_energies(x, rate), want, rtol=RTOL, atol=RTOL * want.sum())


@pytest.mark.parametrize("kind", SIGNAL_KINDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_scalar_features_match_the_replaced_paths(kind, n):
    x = _signal(kind, n, seed=100 + n)
    f = scalar_series_features(x, 40.0)
    centered = x - x.mean()
    assert np.array_equal(f[4:7], np.percentile(x, (25, 50, 75)))
    assert f[14] == _rfft_spectral_entropy(x)
    for k, col in ((3, 2), (4, 3)):
        scale = (np.abs(centered) ** k).mean()
        assert math.isclose(f[col], (centered ** k).mean(), rel_tol=RTOL, abs_tol=RTOL * scale)
    energies = _full_fft_band_energies(x, 40.0)
    want = np.log(energies + 1e-12)
    # log(E + eps) moves by the energy's own rounding, floored at the total power's
    tol = RTOL * (energies + energies.sum()) / (energies + 1e-12)
    assert np.all(np.abs(f[9:14] - want) <= tol + RTOL * np.abs(want))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from((0.0, 1.0, -2.5))), min_size=2, max_size=300))
def test_quartiles_equal_percentile_bit_for_bit(values):
    x = np.array(values)
    assert np.array_equal(_quartiles(np.sort(x)), np.percentile(x, (25, 50, 75)))


def _axes(kind, n, seed):
    rng = np.random.default_rng(seed)
    xyz = rng.normal(size=(n, 3)) * [1.0, 3.0, 0.2] + [0.1, -9.8, 4.2]
    xyz[:, 1] += 0.6 * xyz[:, 0]  # one correlated pair
    if kind == "constant-z":
        xyz[:, 2] = 4.2
    elif kind == "constant-xz":
        xyz[:, 0], xyz[:, 2] = 0.1, -7.0
    elif kind == "constant-all":
        xyz[:] = [0.1, 9.81, 4.2]
    elif kind == "identical-xy":
        xyz[:, 1] = xyz[:, 0]
    return xyz


@pytest.mark.parametrize("kind", ("random", "constant-z", "constant-xz", "constant-all", "identical-xy"))
@pytest.mark.parametrize("n", (2, 3, 8, 9, 64, 65, 800, 801))
def test_axis_statistics_match_the_per_pair_oracle(kind, n):
    xyz = _axes(kind, n, seed=n)
    got = axis_statistics(TriaxialSeries(np.arange(n) / 40.0, xyz, 40.0))
    want = _per_pair_axis_statistics(xyz)
    assert np.array_equal(got[0:3], want[0:3])
    np.testing.assert_allclose(got[3:6], want[3:6], rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got[6:9], want[6:9], rtol=RTOL, atol=RTOL)
    constant = np.ptp(xyz, axis=0) == 0.0
    assert np.all(got[3:6][constant] == 0.0)


def test_mel_filterbank_equals_the_looped_build():
    assert np.array_equal(mel_filterbank(), _looped_mel_filterbank())
