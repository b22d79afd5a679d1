"""From raw examples to feature vectors, and the feature store models read."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import audio, features
from .model import Example, FEATURE_DIMS, SENSORS

_EXTRACTORS = {
    "acc": features.extract_motion_features,
    "gyro": features.extract_motion_features,
    "wacc": features.extract_watch_features,
    "loc": features.extract_location_features,
    "aud": audio.extract_audio_features,
    "ps": features.extract_phone_state_features,
}


def sensor_features(example: Example, sensor: str):
    """The feature vector extracted from the example's payload for a sensor.

    Returns None when the sensor contributed nothing to this minute.
    """
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


@dataclass(frozen=True)
class FeatureStore:
    """The numeric columns of a fixed list of minutes; row i is minute i.

    Built in one pass and then read by index arrays only:

    * ``features[s]``: sensor ``s``'s ``(n, d)`` feature matrix, NaN where
      the sensor is absent or a cell is missing;
    * ``present[s]``: ``(n,)`` presence mask, derived from ``features[s]``:
      a sensor is present on a row unless all its cells are NaN;
    * ``relevant[label]``: per requested label, an ``(n,)`` int64 target, 1
      where the label is relevant and 0 where it is not or is unreported;
    * ``users`` and ``timestamps``: each row's user id and minute.
    """

    users: np.ndarray
    timestamps: np.ndarray
    features: Mapping[str, np.ndarray]
    relevant: Mapping[str, np.ndarray]
    present: Mapping[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "present", {s: ~np.isnan(X).all(axis=1) for s, X in self.features.items()}
        )

    @classmethod
    def from_tables(cls, tables, *, labels=()) -> "FeatureStore":
        """The store of ``ingestion.FeatureTable``s, rows by user id, then by
        timestamp; a group a table lacks is all NaN on its rows."""
        tables = sorted((t for t in tables if len(t)), key=lambda t: t.user_id)
        sizes = [len(t) for t in tables]
        columns = {s: np.full((sum(sizes), FEATURE_DIMS[s]), np.nan) for s in SENSORS}
        relevant = {label: np.zeros(sum(sizes), dtype=np.int64) for label in labels}
        for table, stop in zip(tables, np.cumsum(sizes)):
            rows = slice(stop - len(table), stop)
            for s, block in table.features.items():
                columns[s][rows] = block
            for label in set(labels) & set(table.labels):
                relevant[label][rows] = table.labels[label] == 1
        return cls(
            users=np.repeat(np.array([t.user_id for t in tables], dtype=str), sizes),
            timestamps=np.concatenate([np.zeros(0, np.int64)] + [t.timestamps for t in tables]),
            features=columns,
            relevant=relevant,
        )

    def user_ids(self) -> list:
        """The distinct user ids, sorted."""
        return np.unique(self.users).tolist()

    def rows(self, users) -> np.ndarray:
        """Indices of the rows of ``users``, in store order."""
        return np.flatnonzero(np.isin(self.users, list(users)))

    def complete(self, sensors=SENSORS) -> np.ndarray:
        """``(n,)`` mask of the rows where every one of ``sensors`` is present."""
        return np.logical_and.reduce([self.present[s] for s in sensors])

    def matrix(self, sensors, rows) -> np.ndarray:
        """The sensors' feature columns side by side, in the order given
        (early fusion's layout), for ``rows``."""
        return np.hstack([self.features[s][rows] for s in sensors])
