"""Domain types for recordings, examples, labels, and datasets.

One example is one recorded minute: an optional raw payload and/or a
precomputed feature vector per sensor, plus a set of label assignments.
All types are immutable after construction and safe to share across
workers; operations that "modify" labels return new objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

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
class LocationUpdate:
    relative_time: float
    latitude: Optional[float] = None
    longitude: Optional[float] = None
    altitude: Optional[float] = None
    speed: Optional[float] = None
    vertical_accuracy: Optional[float] = None
    horizontal_accuracy: Optional[float] = None


@dataclass(frozen=True)
class LocationSeries:
    """Location updates of a session plus the on-device quick features.

    ``quick_features`` is the 6-vector (std-lat, std-lon, change-lat,
    change-lon, mean |dlat/dt|, mean |dlon/dt|) computed by the provider; it
    may be present even when absolute coordinates were withheld.
    """

    updates: tuple = ()
    quick_features: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "updates", tuple(self.updates))
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
class FeatureVector:
    """Fixed-dimension per-sensor feature vector with a missingness mask.

    Masked entries hold NaN and must be imputed (the standardizer does so)
    before any model consumes them.
    """

    sensor: str
    values: np.ndarray
    missing_mask: np.ndarray

    def __post_init__(self):
        if self.sensor not in FEATURE_DIMS:
            raise ValueError(f"unknown sensor {self.sensor!r}")
        vals = np.array(self.values, dtype=np.float64)
        mask = np.array(self.missing_mask, dtype=bool)
        d = FEATURE_DIMS[self.sensor]
        if vals.shape != (d,):
            raise ValueError(
                f"{self.sensor} feature vector must have length {d}, got {vals.shape}"
            )
        if mask.shape != (d,):
            raise ValueError("missing_mask length must match values")
        vals[mask] = np.nan
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing_mask", mask)

    @classmethod
    def from_values(cls, sensor: str, values) -> "FeatureVector":
        """Build a vector whose mask marks the NaN entries of ``values``."""
        vals = np.asarray(values, dtype=np.float64)
        return cls(sensor=sensor, values=vals, missing_mask=np.isnan(vals))

    @property
    def fully_masked(self) -> bool:
        return bool(self.missing_mask.all())


@dataclass(frozen=True)
class Example:
    """One labeled minute of recorded behavior."""

    user_id: str
    timestamp: int
    sensor_data: Mapping[str, object] = field(default_factory=dict)
    precomputed_features: Mapping[str, FeatureVector] = field(default_factory=dict)
    labels: tuple = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sensor_data", dict(self.sensor_data))
        object.__setattr__(self, "precomputed_features", dict(self.precomputed_features))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def has_sensor(self, sensor: str) -> bool:
        """True when the sensor contributed usable data to this minute."""
        if self.sensor_data.get(sensor) is not None:
            return True
        fv = self.precomputed_features.get(sensor)
        return fv is not None and not fv.fully_masked

    def label_value(self, label_name: str) -> str:
        for la in self.labels:
            if la.label_name == label_name:
                return la.value
        return MISSING

    def with_labels(self, updates: Sequence[LabelAssignment]) -> "Example":
        """Return a copy with the given assignments replacing/extending labels."""
        by_name = {la.label_name: la for la in self.labels}
        for la in updates:
            by_name[la.label_name] = la
        return replace(self, labels=tuple(by_name.values()))


@dataclass(frozen=True)
class Dataset:
    """Examples grouped by user, with the label vocabulary of the collection."""

    examples_by_user: Mapping[str, tuple]
    label_vocabulary: tuple

    @classmethod
    def from_examples(cls, examples: Sequence[Example], label_vocabulary=None) -> "Dataset":
        grouped: dict = {}
        for ex in examples:
            grouped.setdefault(ex.user_id, []).append(ex)
        by_user = {
            uid: tuple(sorted(grouped[uid], key=lambda e: e.timestamp))
            for uid in sorted(grouped)
        }
        if label_vocabulary is None:
            vocab = sorted({la.label_name for ex in examples for la in ex.labels})
        else:
            vocab = list(label_vocabulary)
        return cls(examples_by_user=by_user, label_vocabulary=tuple(vocab))

    @property
    def users(self) -> tuple:
        return tuple(self.examples_by_user)

    def examples(self, users=None):
        """Iterate deterministically: by user id, then by timestamp."""
        pool = self.users if users is None else sorted(users)
        out = []
        for uid in pool:
            out.extend(self.examples_by_user.get(uid, ()))
        return out

    def core_subset(self) -> "Dataset":
        """Restrict to examples with all six core sensors present (idempotent)."""
        kept = [
            ex
            for ex in self.examples()
            if all(ex.has_sensor(s) for s in SENSORS)
        ]
        return Dataset.from_examples(kept, label_vocabulary=self.label_vocabulary)

    def __len__(self):
        return sum(len(v) for v in self.examples_by_user.values())


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
            for i, up in enumerate(loc.updates):
                for name in ("vertical_accuracy", "horizontal_accuracy"):
                    v = getattr(up, name)
                    if v is not None and v < 0:
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
        elif fv.values.shape != (FEATURE_DIMS[sensor],):
            out.append(
                f"features: {sensor} has length {fv.values.shape[0]}, "
                f"expected {FEATURE_DIMS[sensor]}"
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
