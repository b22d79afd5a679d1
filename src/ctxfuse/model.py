"""Domain types for recordings, examples and labels.

One example is one recorded minute as its session bundle holds it: a raw
payload per sensor that contributed, plus a set of label assignments.
Raw location fixes are a float64 array, with NaN for each value the phone
left unreported. Extracted features live in columns, never on an
example: ``ingestion.FeatureTable`` per user and ``data.FeatureStore``
per run. All types are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

SENSORS = ("acc", "gyro", "wacc", "loc", "aud", "ps")

FEATURE_DIMS = {"acc": 26, "gyro": 26, "wacc": 46, "loc": 17, "aud": 26, "ps": 34}

RELEVANT = "relevant"
NOT_RELEVANT = "not_relevant"
MISSING = "missing"
LABEL_VALUES = (RELEVANT, NOT_RELEVANT, MISSING)

PHONE_STATE_VALUES = {
    "app_state": ("active", "inactive", "background", "missing"),
    "battery_plugged": ("ac", "usb", "wireless", "missing"),
    "battery_state": (
        "unknown",
        "unplugged",
        "not_charging",
        "discharging",
        "charging",
        "full",
        "missing",
    ),
    "in_phone_call": ("false", "true", "missing"),
    "ringer_mode": ("normal", "silent_no_vibrate", "silent_with_vibrate", "missing"),
    "wifi_status": ("not_reachable", "via_wifi", "via_wwan", "missing"),
}


def canonical_label_name(name: str) -> str:
    """Normalize a display label name to the canonical vocabulary form.

    Uppercase, with every run of non-alphanumeric characters collapsed to a
    single underscore: "Drive (I'm the driver)" -> "DRIVE_I_M_THE_DRIVER".
    """
    return re.sub(r"[^A-Z0-9]+", "_", name.upper()).strip("_")


@dataclass(frozen=True)
class TriaxialSeries:
    """A 3-axis signal sampled over the ~20 s recording session."""

    relative_timestamps: np.ndarray  # seconds within the session
    samples: np.ndarray  # shape (n, 3)
    nominal_rate: float  # Hz

    def __post_init__(self):
        ts = np.asarray(self.relative_timestamps, dtype=np.float64)
        xyz = np.asarray(self.samples, dtype=np.float64).reshape(-1, 3)
        if ts.shape[0] != xyz.shape[0]:
            raise ValueError("timestamps and samples must have equal length")
        object.__setattr__(self, "relative_timestamps", ts)
        object.__setattr__(self, "samples", xyz)

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class LocationSeries:
    """Location updates of a session plus the on-device quick features.

    ``updates`` is an ``(n, 7)`` array of one row per update: relative time,
    latitude, longitude, altitude, speed, vertical accuracy and horizontal
    accuracy, with NaN for each unreported value. ``quick_features`` is the
    6-vector (std-lat, std-lon, change-lat, change-lon, mean |dlat/dt|,
    mean |dlon/dt|) computed by the provider; it may be present even when
    absolute coordinates were withheld.
    """

    updates: np.ndarray = field(default_factory=lambda: np.empty((0, 7)))
    quick_features: Optional[np.ndarray] = None

    def __post_init__(self):
        ups = np.asarray(self.updates, dtype=np.float64)
        if ups.ndim != 2 or ups.shape[1] != 7:
            raise ValueError("updates must be an (n, 7) array")
        object.__setattr__(self, "updates", ups)
        if self.quick_features is not None:
            qf = np.asarray(self.quick_features, dtype=np.float64)
            if qf.shape != (6,):
                raise ValueError("quick_features must be a 6-vector")
            object.__setattr__(self, "quick_features", qf)


@dataclass(frozen=True)
class AudioMfccSeries:
    """Per-frame cepstral coefficient vectors (13 each, coefficient 0 first)."""

    frames: np.ndarray  # shape (n_frames, 13)

    def __post_init__(self):
        fr = np.atleast_2d(np.asarray(self.frames, dtype=np.float64))
        object.__setattr__(self, "frames", fr)


@dataclass(frozen=True)
class PhoneStateSnapshot:
    app_state: str = "missing"
    battery_plugged: str = "missing"
    battery_state: str = "missing"
    in_phone_call: str = "missing"
    ringer_mode: str = "missing"
    wifi_status: str = "missing"
    hour_of_day: int = 0


@dataclass(frozen=True)
class LabelAssignment:
    label_name: str
    value: str = MISSING


@dataclass(frozen=True)
class Example:
    """One labeled minute of recorded behavior: the raw payload of each
    sensor that contributed to it, and its label assignments."""

    user_id: str
    timestamp: int
    sensor_data: Mapping[str, object] = field(default_factory=dict)
    labels: tuple = ()
