"""Bridges between example objects and the numeric arrays models consume."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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


def label_vector(examples, label: str) -> np.ndarray:
    """Binary target: 1 where the label is relevant, else 0.

    Unreported (missing) assignments count as negative, matching how the
    self-reported data is scored.
    """
    return np.array(
        [1 if ex.label_value(label) == RELEVANT else 0 for ex in examples],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class FeatureStore:
    """The numeric columns of a fixed list of examples; row i is example i.

    Built in one pass over the examples and then read by index arrays only:

    * ``features[s]``: sensor ``s``'s ``(n, d)`` feature matrix, NaN where
      the sensor is absent or a cell is masked;
    * ``present[s]``: ``(n,)`` presence mask, :meth:`Example.has_sensor`;
    * ``relevant[label]``: :func:`label_vector` of each requested label;
    * ``users``: each row's user id.
    """

    users: np.ndarray
    features: Mapping[str, np.ndarray]
    present: Mapping[str, np.ndarray]
    relevant: Mapping[str, np.ndarray]

    @classmethod
    def from_examples(cls, examples, *, sensors=SENSORS, labels=()) -> "FeatureStore":
        n = len(examples)
        columns = {s: np.full((n, FEATURE_DIMS[s]), np.nan) for s in sensors}
        present = {s: np.zeros(n, dtype=bool) for s in sensors}
        for i, ex in enumerate(examples):
            for s in sensors:
                present[s][i] = ex.has_sensor(s)
                fv = sensor_features(ex, s)
                if fv is not None:
                    columns[s][i] = fv.values
        return cls(
            users=np.array([ex.user_id for ex in examples], dtype=str),
            features=columns,
            present=present,
            relevant={label: label_vector(examples, label) for label in labels},
        )

    def rows(self, users) -> np.ndarray:
        """Indices of the rows of ``users``, in store order."""
        return np.flatnonzero(np.isin(self.users, list(users)))

    def complete(self, sensors=SENSORS) -> np.ndarray:
        """``(n,)`` mask of the rows where every one of ``sensors`` is present."""
        return np.logical_and.reduce([self.present[s] for s in sensors])

    def matrix(self, sensors, rows=None) -> np.ndarray:
        """The sensors' feature columns side by side, in the order given
        (early fusion's layout), for ``rows`` or for every row."""
        return np.hstack([self.features[s] if rows is None else self.features[s][rows]
                          for s in sensors])


def has_all_sensors(example: Example, sensors=SENSORS) -> bool:
    return all(example.has_sensor(s) for s in sensors)
