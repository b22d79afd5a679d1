"""Cepstral-coefficient chain for the phone microphone signal.

The convention is fixed so results are reproducible: periodic Hann window,
magnitude-squared spectrum, 40 triangular mel filters spanning 0..Nyquist
(mel(f) = 2595 log10(1 + f/700)), natural log with a 1e-10 floor, and an
orthonormal type-II DCT of which the first 13 coefficients are kept. The
DCT is one product with :data:`DCT_MATRIX`, a fixed 13 x 40 matrix built at
import.
"""

from __future__ import annotations

import numpy as np

from .model import AudioMfccSeries

AUDIO_SAMPLE_RATE = 22_050
FRAME_LENGTH = 2048
HOP_LENGTH = 1024
N_MEL_BANDS = 40
N_COEFFICIENTS = 13
LOG_EPSILON = 1e-10


def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """The first ``n_out`` rows of the orthonormal type-II DCT of length ``n_in``.

    Row ``k`` is ``f_k cos(pi k (2n + 1) / (2 n_in))`` with
    ``f_0 = sqrt(1 / n_in)`` and ``f_k = sqrt(2 / n_in)`` otherwise.
    """
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    basis = np.sqrt(2.0 / n_in) * np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))
    basis[0] /= np.sqrt(2.0)
    return basis


#: ``log_mel @ DCT_MATRIX.T`` gives the 13 kept cepstral coefficients
DCT_MATRIX = _dct_matrix(N_COEFFICIENTS, N_MEL_BANDS)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filter weights, shape (N_MEL_BANDS, FRAME_LENGTH // 2 + 1)."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(AUDIO_SAMPLE_RATE / 2.0), N_MEL_BANDS + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.fft.rfftfreq(FRAME_LENGTH, d=1.0 / AUDIO_SAMPLE_RATE)

    lo, mid, hi = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    # in place: each (40, 1025) temporary costs more than the arithmetic on it
    rising = bin_freqs - lo
    rising /= mid - lo
    falling = hi - bin_freqs
    falling /= hi - mid
    np.minimum(rising, falling, out=rising)
    return np.clip(rising, 0.0, None, out=rising)


def compute_mfcc(audio) -> AudioMfccSeries:
    """13 cepstral coefficients per half-overlapping 2048-sample window of
    a waveform sampled at 22050 Hz.

    The waveform is first normalized to maximal magnitude 1. Frame count is
    ``(len(audio) - 2048) // 1024 + 1``.
    """
    x = np.asarray(audio, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("audio must be a 1-D sample sequence")
    if x.shape[0] < FRAME_LENGTH:
        raise ValueError("audio too short")

    peak = float(np.abs(x).max())
    if peak > 0:
        x = x / peak

    n_frames = (x.shape[0] - FRAME_LENGTH) // HOP_LENGTH + 1
    offsets = np.arange(n_frames) * HOP_LENGTH
    frames = np.stack([x[o : o + FRAME_LENGTH] for o in offsets])

    k = np.arange(FRAME_LENGTH)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / FRAME_LENGTH)
    spectrum = np.fft.rfft(frames * window, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2

    mel_energy = power @ mel_filterbank().T
    log_mel = np.log(mel_energy + LOG_EPSILON)
    coefficients = log_mel @ DCT_MATRIX.T
    return AudioMfccSeries(frames=coefficients)


def extract_audio_features(mfcc: AudioMfccSeries) -> np.ndarray:
    """Mean then standard deviation of each of the 13 coefficients (26 total)."""
    frames = mfcc.frames
    if frames.shape[0] < 1 or frames.shape[1] != 13:
        raise ValueError("need at least one 13-coefficient frame")
    return np.concatenate([frames.mean(axis=0), frames.std(axis=0)])
