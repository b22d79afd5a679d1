"""Domain types for recordings, examples and labels.

One example is one recorded minute: an optional raw payload and/or a
precomputed feature vector per sensor (a float64 array, NaN for each
missing cell), plus a set of label assignments. Raw location fixes are a
float64 array too, with NaN for each value the phone left unreported.
All types are immutable after construction and safe to share across
workers.
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

SENSOR_UNITS = {"acc": "G", "gyro": "rad/s", "wacc": "milli-G"}

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
    unit: str
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
    normalization_factor: float = 1.0

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
    """One labeled minute of recorded behavior."""

    user_id: str
    timestamp: int
    sensor_data: Mapping[str, object] = field(default_factory=dict)
    precomputed_features: Mapping[str, np.ndarray] = field(default_factory=dict)
    labels: tuple = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sensor_data", dict(self.sensor_data))
        object.__setattr__(self, "precomputed_features", {
            s: np.asarray(v, dtype=np.float64) for s, v in self.precomputed_features.items()
        })
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def label_value(self, label_name: str) -> str:
        for la in self.labels:
            if la.label_name == label_name:
                return la.value
        return MISSING


def validate_example(example: Example) -> list:
    """Check the structural invariants of an example.

    Returns a list of human-readable violations; an empty list means the
    example is well-formed. Violations are data, not failures.
    """
    out = []

    for sensor in ("acc", "gyro", "wacc"):
        series = example.sensor_data.get(sensor)
        if series is None:
            continue
        if not isinstance(series, TriaxialSeries):
            out.append(f"{sensor}: payload is not a TriaxialSeries")
            continue
        expected_unit = SENSOR_UNITS[sensor]
        if series.unit != expected_unit:
            out.append(f"{sensor}: unit {series.unit!r} does not match expected {expected_unit!r}")
        if len(series) < 1:
            out.append(f"{sensor}: series is empty")
        if np.any(np.diff(series.relative_timestamps) < 0):
            out.append(f"{sensor}: relative_timestamps are not monotone non-decreasing")

    loc = example.sensor_data.get("loc")
    if loc is not None:
        if not isinstance(loc, LocationSeries):
            out.append("loc: payload is not a LocationSeries")
        else:
            # NaN, an unreported accuracy, is not negative
            for i, j in zip(*np.nonzero(loc.updates[:, 5:] < 0)):
                name = ("vertical_accuracy", "horizontal_accuracy")[j]
                out.append(f"loc: update {i} has negative {name}")

    aud = example.sensor_data.get("aud")
    if aud is not None:
        if not isinstance(aud, AudioMfccSeries):
            out.append("aud: payload is not an AudioMfccSeries")
        else:
            if aud.frames.shape[1] != 13:
                out.append(
                    f"aud: frames have width {aud.frames.shape[1]}, expected 13"
                )
            if aud.frames.shape[0] < 1:
                out.append("aud: at least one frame required")
            if not 0 < aud.normalization_factor < np.inf:  # NaN fails too
                out.append("aud: normalization_factor must be finite and positive")

    ps = example.sensor_data.get("ps")
    if ps is not None:
        if not isinstance(ps, PhoneStateSnapshot):
            out.append("ps: payload is not a PhoneStateSnapshot")
        else:
            for prop, allowed in PHONE_STATE_VALUES.items():
                v = getattr(ps, prop)
                if v not in allowed:
                    out.append(f"ps: {prop} value {v!r} not in {allowed}")
            if not 0 <= ps.hour_of_day <= 23:
                out.append(f"ps: hour_of_day {ps.hour_of_day} outside [0, 23]")

    for sensor, fv in example.precomputed_features.items():
        if sensor not in FEATURE_DIMS:
            out.append(f"features: unknown sensor {sensor!r}")
        elif fv.shape != (FEATURE_DIMS[sensor],):
            out.append(
                f"features: {sensor} has shape {fv.shape}, "
                f"expected ({FEATURE_DIMS[sensor]},)"
            )

    names = [la.label_name for la in example.labels]
    if len(names) != len(set(names)):
        out.append("labels: label names are not unique")
    for la in example.labels:
        if not la.label_name:
            out.append("labels: empty label name")
        if la.value not in LABEL_VALUES:
            out.append(f"labels: {la.label_name} has invalid value {la.value!r}")

    return out
