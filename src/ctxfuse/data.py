"""Bridges between example objects and the numeric matrices models consume."""

from __future__ import annotations

import numpy as np

from . import audio, features
from .model import Example, FEATURE_DIMS, RELEVANT, SENSORS

_EXTRACTORS = {
    "acc": lambda payload: features.extract_motion_features(payload, "acc"),
    "gyro": lambda payload: features.extract_motion_features(payload, "gyro"),
    "wacc": features.extract_watch_features,
    "loc": features.extract_location_features,
    "aud": audio.extract_audio_features,
    "ps": features.extract_phone_state_features,
}


def sensor_features(example: Example, sensor: str):
    """The example's feature vector for a sensor: precomputed, else extracted.

    Returns None when the sensor contributed nothing to this minute.
    """
    fv = example.precomputed_features.get(sensor)
    if fv is not None:
        return fv
    payload = example.sensor_data.get(sensor)
    if payload is None:
        return None
    return _EXTRACTORS[sensor](payload)


def extract_all_features(example: Example) -> dict:
    """Feature vectors for every sensor present on the example.

    A ``ValueError`` from an extractor (a series too short for its
    features) is raised again with the sensor named.
    """
    out = {}
    for sensor in SENSORS:
        try:
            fv = sensor_features(example, sensor)
        except ValueError as exc:
            raise ValueError(f"sensor {sensor!r}: {exc}") from exc
        if fv is not None:
            out[sensor] = fv
    return out


def feature_matrix(examples, sensor: str) -> np.ndarray:
    """Stack one sensor's features; absent sensors become all-NaN rows."""
    d = FEATURE_DIMS[sensor]
    X = np.full((len(examples), d), np.nan)
    for i, ex in enumerate(examples):
        fv = sensor_features(ex, sensor)
        if fv is not None:
            X[i] = fv.values
    return X


def concat_feature_matrix(examples, sensors=SENSORS) -> np.ndarray:
    """Concatenation of per-sensor features in canonical sensor order."""
    return np.hstack([feature_matrix(examples, s) for s in sensors])


def label_vector(examples, label: str) -> np.ndarray:
    """Binary target: 1 where the label is relevant, else 0.

    Unreported (missing) assignments count as negative, matching how the
    self-reported data is scored.
    """
    return np.array(
        [1 if ex.label_value(label) == RELEVANT else 0 for ex in examples],
        dtype=np.int64,
    )


def has_all_sensors(example: Example, sensors=SENSORS) -> bool:
    return all(example.has_sensor(s) for s in sensors)
