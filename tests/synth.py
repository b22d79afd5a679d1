"""Synthetic data builders shared by the test modules."""

import numpy as np

from ctxfuse.data import sensor_features
from ctxfuse.model import (
    Dataset,
    Example,
    FEATURE_DIMS,
    FeatureVector,
    LabelAssignment,
    MISSING,
    NOT_RELEVANT,
    RELEVANT,
    SENSORS,
    TriaxialSeries,
)


def label_tuple(mapping):
    value_by_code = {1: RELEVANT, 0: NOT_RELEVANT, None: MISSING}
    return tuple(
        LabelAssignment(name, value_by_code[v] if v in value_by_code else v)
        for name, v in mapping.items()
    )


def feature_example(user_id, timestamp, values_by_sensor, labels=None):
    """Example carrying precomputed feature vectors and optional labels."""
    feats = {
        s: FeatureVector.from_values(s, np.asarray(v, dtype=float))
        for s, v in values_by_sensor.items()
    }
    return Example(
        user_id=user_id,
        timestamp=timestamp,
        precomputed_features=feats,
        labels=label_tuple(labels or {}),
    )


def feature_matrix(examples, sensor):
    """One sensor's features stacked example by example, all-NaN rows where
    absent: the per-example assembly ``FeatureStore`` replaced, kept as an
    oracle."""
    X = np.full((len(examples), FEATURE_DIMS[sensor]), np.nan)
    for i, ex in enumerate(examples):
        fv = sensor_features(ex, sensor)
        if fv is not None:
            X[i] = fv.values
    return X


def concat_feature_matrix(examples, sensors=SENSORS):
    """The sensors' :func:`feature_matrix` side by side (the EF layout)."""
    return np.hstack([feature_matrix(examples, s) for s in sensors])


def random_full_example(rng, user_id, timestamp, labels=None):
    vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
    return feature_example(user_id, timestamp, vals, labels)


def make_triaxial(rng, n=128, rate=40.0, unit="G", scale=1.0):
    ts = np.arange(n) / rate
    return TriaxialSeries(
        relative_timestamps=ts,
        samples=rng.normal(scale=scale, size=(n, 3)),
        unit=unit,
        nominal_rate=rate,
    )


def drift_user_scenario(seed=30, label="T", n_background_users=4,
                        n_per_background=300, n_test_user=2600):
    """Background users plus one test user whose signal channel differs.

    Everyone's target is the sign of a latent (margin-banded so the concept
    is clean). Background users expose it in acc[0] with noise, and 10% of
    their labels are flipped so the universal model stays calibrated rather
    than overconfident. The test user's acc[0] is attenuated (the universal
    model degrades but stays directionally right) while gyro[0] carries the
    latent cleanly for them alone (an individual model can learn it).
    Returns (background_examples, test_user_examples, label).
    """
    rng = np.random.default_rng(seed)

    def make(user, n, base_ts, attenuation=1.0, personal_channel=False,
             label_flip=0.0):
        exs = []
        while len(exs) < n:
            h = rng.normal()
            if abs(h) < 0.2:
                continue
            y = int(h > 0)
            if label_flip and rng.random() < label_flip:
                y = 1 - y
            vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
            vals["acc"][0] = attenuation * h + 0.3 * rng.normal()
            if personal_channel:
                vals["gyro"][0] = h + 0.05 * rng.normal()
            exs.append(feature_example(user, base_ts + len(exs), vals, {label: y}))
        return exs

    background = []
    for u in range(n_background_users):
        background += make(f"bg{u}", n_per_background, u * 10_000, label_flip=0.10)
    test_user = make("tu", n_test_user, 10**6, attenuation=0.25, personal_channel=True)
    return background, test_user, label


def complementary_sensor_dataset(
    n=5000, n_users=10, seed=0, label="TARGET", informative=("acc", "gyro")
):
    """Two sensors carry disjoint halves of the signal, the rest pure noise.

    The target is y = 1[h1 + h2 > 0] with h1 visible (noisily) only in the
    first informative sensor's first feature and h2 only in the second's.
    Either sensor alone supports partial accuracy; together they determine y.
    """
    rng = np.random.default_rng(seed)
    h1 = rng.normal(size=n)
    h2 = rng.normal(size=n)
    y = (h1 + h2 > 0).astype(int)

    examples = []
    for i in range(n):
        vals = {}
        for s in SENSORS:
            v = rng.normal(scale=1.0, size=FEATURE_DIMS[s])
            vals[s] = v
        vals[informative[0]][0] = h1[i] + 0.3 * rng.normal()
        vals[informative[1]][0] = h2[i] + 0.3 * rng.normal()
        user = f"u{i % n_users:02d}"
        examples.append(
            feature_example(user, 1_600_000_000 + i * 60, vals, {label: int(y[i])})
        )
    return Dataset.from_examples(examples), label
