"""Synthetic data builders shared by the test modules, and the per-example
oracles: a minute as one object, assembled into stores, matrices and
targets example by example."""

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ctxfuse import classifier, data, fusion
from ctxfuse.data import FeatureStore
from ctxfuse.ingestion import feature_table, write_features_csv
from ctxfuse.model import (
    FEATURE_DIMS,
    LabelAssignment,
    MISSING,
    NOT_RELEVANT,
    RELEVANT,
    SENSORS,
    TriaxialSeries,
)


@dataclass(frozen=True)
class FeatureExample:
    """One minute as the per-example oracles hold it: a float64 feature
    vector per sensor (NaN for a missing cell), raw payloads for sensors
    without one, and label assignments."""

    user_id: str
    timestamp: int
    features: Mapping[str, np.ndarray] = field(default_factory=dict)
    labels: tuple = ()
    sensor_data: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "features", {
            s: np.asarray(v, dtype=np.float64) for s, v in self.features.items()
        })
        object.__setattr__(self, "labels", tuple(self.labels))

    def label_value(self, label_name: str) -> str:
        for la in self.labels:
            if la.label_name == label_name:
                return la.value
        return MISSING


def label_tuple(mapping):
    """Label assignments from ``{name: value}``; a value may be a table code
    (1, 0, or -1 or None for unreported) or a label value."""
    value_by_code = {1: RELEVANT, 0: NOT_RELEVANT, -1: MISSING, None: MISSING}
    return tuple(
        LabelAssignment(name, value_by_code[v] if v in value_by_code else v)
        for name, v in mapping.items()
    )


def feature_example(user_id, timestamp, values_by_sensor, labels=None):
    """Example carrying feature vectors and optional labels."""
    return FeatureExample(
        user_id=user_id,
        timestamp=timestamp,
        features=values_by_sensor,
        labels=label_tuple(labels or {}),
    )


def sensor_features(example, sensor):
    """The example's feature vector for a sensor: its own, else extracted
    from its payload (a raw ``ctxfuse.model.Example`` has only payloads);
    None when the sensor contributed nothing."""
    fv = getattr(example, "features", {}).get(sensor)
    return fv if fv is not None else data.sensor_features(example, sensor)


def label_vector(examples, label):
    """Binary target: 1 where the label is relevant, else 0 (unreported
    counts as negative, as the store's relevant-vector does)."""
    return np.array(
        [1 if ex.label_value(label) == RELEVANT else 0 for ex in examples],
        dtype=np.int64,
    )


def example_store(examples, labels=()):
    """The feature store of the examples assembled example by example, row
    i being example i: the per-example construction that
    ``FeatureStore.from_tables`` replaced, kept as an oracle."""
    return FeatureStore(
        users=np.array([ex.user_id for ex in examples], dtype=str),
        timestamps=np.array([ex.timestamp for ex in examples], dtype=np.int64),
        features={s: feature_matrix(examples, s) for s in SENSORS},
        relevant={label: label_vector(examples, label) for label in labels},
    )


def table_of(examples):
    """One user's examples as the table ``extract`` builds: every sensor's
    vector (extracted from a payload where the example has none) and the
    examples' labels."""
    minutes = []
    for ex in examples:
        vectors = {s: sensor_features(ex, s) for s in SENSORS}
        minutes.append((ex.timestamp, {s: v for s, v in vectors.items() if v is not None}, ex.labels))
    return feature_table(examples[0].user_id, minutes)


def write_examples(path, examples):
    """Write one user's examples as a feature table (:func:`table_of`)."""
    write_features_csv(path, table_of(examples))


def table_examples(table):
    """A feature table's rows as examples: each group's vector the table
    has, and the label codes as assignments."""
    return [
        feature_example(
            table.user_id,
            ts,
            {s: m[i] for s, m in table.features.items()},
            {name: int(col[i]) for name, col in table.labels.items()},
        )
        for i, ts in enumerate(table.timestamps.tolist())
    ]


def ordered(examples, users=None):
    """The examples of ``users`` (of everyone by default) by user id, then
    timestamp: the row order of a feature store built from tables."""
    keep = None if users is None else set(users)
    return sorted(
        (ex for ex in examples if keep is None or ex.user_id in keep),
        key=lambda ex: (ex.user_id, ex.timestamp),
    )


def store_of(examples, labels=()):
    """``(store, rows)``: the feature store of the examples, row i being
    example i, with the relevant-vector of each of ``labels``, and the index
    array of all its rows (the arguments the fusion functions take)."""
    return example_store(examples, labels), np.arange(len(examples))


def user_ids(examples):
    return sorted({ex.user_id for ex in examples})


def has_sensors(example, sensors=SENSORS):
    """True when every one of ``sensors`` is present on the example: its
    feature vector exists and is not all NaN (the feature store's rule,
    restated per example)."""
    for sensor in sensors:
        fv = sensor_features(example, sensor)
        if fv is None or np.isnan(fv).all():
            return False
    return True


def core_examples(examples):
    """The examples with all six sensors: the minutes the protocol scores."""
    return [ex for ex in examples if has_sensors(ex)]


def by_user(examples):
    out = {}
    for ex in examples:
        out.setdefault(ex.user_id, []).append(ex)
    return out


def feature_matrix(examples, sensor):
    """One sensor's features stacked example by example, all-NaN rows where
    absent: the per-example assembly ``FeatureStore`` replaced, kept as an
    oracle."""
    X = np.full((len(examples), FEATURE_DIMS[sensor]), np.nan)
    for i, ex in enumerate(examples):
        fv = sensor_features(ex, sensor)
        if fv is not None:
            X[i] = fv
    return X


def concat_feature_matrix(examples, sensors=SENSORS):
    """The sensors' :func:`feature_matrix` side by side (the EF layout)."""
    return np.hstack([feature_matrix(examples, s) for s in sensors])


def random_full_example(rng, user_id, timestamp, labels=None):
    vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
    return feature_example(user_id, timestamp, vals, labels)


def make_triaxial(rng, n=128, rate=40.0, scale=1.0):
    ts = np.arange(n) / rate
    return TriaxialSeries(
        relative_timestamps=ts,
        samples=rng.normal(scale=scale, size=(n, 3)),
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
    Returns (examples in :func:`ordered` order, label).
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
    return ordered(examples), label


def loss_and_gradient(params, X, y_signed, example_weights, C):
    """The training objective and its gradient at packed parameters
    (weights..., intercept) on raw rows ``X``: the library's objective,
    taken without a Hessian, so its rows need no workspace."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows = classifier._TrainingRows(classifier._with_intercept_column(X), y_signed, example_weights, None)
    loss, grad, _ = classifier._objective(params, *classifier._fit_args(rows, C))
    return loss, grad


def fit_single_sensor_model(sensor, label, X, y, *, cost=None, seed=0):
    """One (sensor, label) model fit on the raw feature matrix ``X`` (NaN
    for missing entries): a standardizer fit on ``X``, then the library's
    cost selection and fit on the standardized rows. ``cost=None``
    grid-searches the cost; single-class labels give the flagged trivial
    model. The array-level fit oracle of ``fusion.fit_labels``, whose
    models are bit-identical to fitting each label on its own this way."""
    return classifier._fit_standardized(label, (sensor,), *classifier._standardized(X), y, cost=cost, seed=seed)


def early_fusion(store, rows, label, *, sensors=SENSORS, cost=None, seed=0):
    """The one-label EF fit on the complete-sensor rows among ``rows``:
    ``fusion.fit_labels`` on all of ``sensors`` with seed ``seed``."""
    rows = rows[store.complete(sensors)[rows]]
    if not rows.size:
        raise ValueError("early fusion has no complete-sensor training examples")
    return fusion.fit_labels(store, sensors, rows, (label,), cost=cost, seeds=lambda _: seed)[label]
