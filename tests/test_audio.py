import math

import numpy as np
import pytest

from ctxfuse.audio import (
    AUDIO_SAMPLE_RATE,
    DCT_MATRIX,
    FRAME_LENGTH,
    HOP_LENGTH,
    LOG_EPSILON,
    N_MEL_BANDS,
    compute_mfcc,
    extract_audio_features,
    mel_filterbank,
)
from ctxfuse.model import AudioMfccSeries


# ---------------------------------------------------------------------------
# Independent reference chain: explicit window formula, DFT by matrix
# product (not np.fft), filterbank and DCT from their defining sums.
# ---------------------------------------------------------------------------

def _reference_dct2(v, n_out=13):
    """The first ``n_out`` orthonormal DCT-II coefficients, from the defining sum."""
    n_in = len(v)
    out = np.zeros(n_out)
    for c in range(n_out):
        acc = sum(v[n] * math.cos(math.pi * c * (2 * n + 1) / (2 * n_in)) for n in range(n_in))
        out[c] = (math.sqrt(1.0 / n_in) if c == 0 else math.sqrt(2.0 / n_in)) * acc
    return out


def _reference_mfcc(audio, rate=AUDIO_SAMPLE_RATE):
    x = np.asarray(audio, dtype=np.float64)
    peak = np.abs(x).max()
    if peak > 0:
        x = x / peak

    n_frames = (len(x) - FRAME_LENGTH) // HOP_LENGTH + 1
    n_bins = FRAME_LENGTH // 2 + 1

    window = np.array(
        [0.5 - 0.5 * math.cos(2 * math.pi * k / FRAME_LENGTH) for k in range(FRAME_LENGTH)]
    )
    t = np.arange(FRAME_LENGTH)
    k = np.arange(n_bins)
    dft = np.exp(-2j * np.pi * np.outer(k, t) / FRAME_LENGTH)

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def mel_inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_pts = np.linspace(mel(0.0), mel(rate / 2.0), N_MEL_BANDS + 2)
    hz_pts = [mel_inv(m) for m in mel_pts]
    bin_freqs = [b * rate / FRAME_LENGTH for b in range(n_bins)]
    filters = np.zeros((N_MEL_BANDS, n_bins))
    for m in range(N_MEL_BANDS):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        for b, f in enumerate(bin_freqs):
            if lo < f < mid:
                filters[m, b] = (f - lo) / (mid - lo)
            elif mid <= f < hi:
                filters[m, b] = (hi - f) / (hi - mid)
        # peak bin exactly at the center frequency
        for b, f in enumerate(bin_freqs):
            if f == mid:
                filters[m, b] = 1.0

    out = np.zeros((n_frames, 13))
    for fr in range(n_frames):
        frame = x[fr * HOP_LENGTH : fr * HOP_LENGTH + FRAME_LENGTH] * window
        spectrum = dft @ frame
        power = np.abs(spectrum) ** 2
        out[fr] = _reference_dct2(np.log(filters @ power + LOG_EPSILON))
    return out


def test_twenty_seconds_gives_429_frames():
    rng = np.random.default_rng(0)
    series = compute_mfcc(rng.normal(size=441_000))
    assert series.frames.shape == (429, 13)


def test_frame_count_arithmetic():
    rng = np.random.default_rng(1)
    for n in (2048, 2049, 3071, 3072, 10_000):
        series = compute_mfcc(rng.normal(size=n))
        assert series.frames.shape[0] == (n - 2048) // 1024 + 1


def test_audio_too_short_errors():
    with pytest.raises(ValueError, match="too short"):
        compute_mfcc(np.zeros(2047))


def test_input_scale_does_not_change_coefficients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4096) * 0.25
    series = compute_mfcc(x)
    # already-normalized input gives the same coefficients
    series2 = compute_mfcc(x / np.abs(x).max())
    assert np.allclose(series.frames, series2.frames, atol=1e-9)


def test_constant_signal_coefficient0_dominates():
    series = compute_mfcc(np.full(8192, 0.5))
    frames = series.frames
    assert np.all(np.abs(frames[:, 0]) > 10 * np.abs(frames[:, 1:]).max())


def test_flat_mel_spectrum_gives_zero_higher_coefficients():
    # the flat-spectrum case lives at the cepstral stage: equal energy in
    # every mel band leaves everything in coefficient 0
    flat = DCT_MATRIX @ np.full(N_MEL_BANDS, -3.7)
    assert abs(flat[0]) > 1.0
    assert np.all(np.abs(flat[1:13]) < 1e-12)


def test_dct_matrix_matches_defining_sum_and_scipy():
    from scipy.fft import dct

    assert DCT_MATRIX.shape == (13, N_MEL_BANDS)
    # orthonormal rows: the kept part of an orthogonal transform
    assert np.allclose(DCT_MATRIX @ DCT_MATRIX.T, np.eye(13), rtol=0, atol=1e-12)
    rng = np.random.default_rng(11)
    log_mel = rng.normal(scale=5.0, size=(6, N_MEL_BANDS)) - 10.0
    got = log_mel @ DCT_MATRIX.T
    by_sum = np.array([_reference_dct2(row) for row in log_mel])
    by_scipy = dct(log_mel, type=2, norm="ortho", axis=1)[:, :13]
    assert np.allclose(got, by_sum, rtol=0, atol=1e-12)
    assert np.allclose(got, by_scipy, rtol=0, atol=1e-12)


def test_white_noise_matches_reference_chain():
    rng = np.random.default_rng(3)
    x = rng.normal(size=2048 + 2 * 1024)  # 3 frames
    got = compute_mfcc(x).frames
    expected = _reference_mfcc(x)
    assert got.shape == expected.shape == (3, 13)
    assert np.allclose(got, expected, atol=1e-6)


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank()
    assert fb.shape == (40, 1025)
    assert np.all(fb >= 0)
    # every filter has some mass, and interior bins are covered by some filter
    assert np.all(fb.sum(axis=1) > 0)


def test_audio_features_single_frame():
    frame = np.arange(13, dtype=float)
    fv = extract_audio_features(AudioMfccSeries(frames=frame[None, :]))
    assert np.array_equal(fv[:13], frame)
    assert np.array_equal(fv[13:], np.zeros(13))


def test_audio_features_length_26():
    rng = np.random.default_rng(4)
    fv = extract_audio_features(AudioMfccSeries(frames=rng.normal(size=(7, 13))))
    assert fv.shape == (26,)


def test_audio_features_hand_computed():
    frames = np.array(
        [
            [1.0] + [0.0] * 12,
            [3.0] + [1.0] * 12,
            [5.0] + [2.0] * 12,
        ]
    )
    fv = extract_audio_features(AudioMfccSeries(frames=frames))
    assert fv[0] == 3.0  # mean of 1,3,5
    assert np.isclose(fv[13], math.sqrt(8.0 / 3.0))  # population std
    assert np.isclose(fv[1], 1.0)
    assert np.isclose(fv[14], math.sqrt(2.0 / 3.0))
