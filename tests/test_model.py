import numpy as np
import pytest

from ctxfuse.data import FeatureStore
from ctxfuse.model import (
    AudioMfccSeries,
    Example,
    FEATURE_DIMS,
    LabelAssignment,
    PhoneStateSnapshot,
    SENSORS,
    TriaxialSeries,
    canonical_label_name,
    validate_example,
)
from synth import feature_example, has_sensors, random_full_example


def _well_formed_example():
    rng = np.random.default_rng(0)
    n = 64
    ts = np.arange(n) / 40.0
    sensor_data = {
        "acc": TriaxialSeries(ts, rng.normal(size=(n, 3)), "G", 40.0),
        "gyro": TriaxialSeries(ts, rng.normal(size=(n, 3)), "rad/s", 40.0),
        "wacc": TriaxialSeries(np.arange(n) / 25.0, rng.normal(size=(n, 3)), "milli-G", 25.0),
        "aud": AudioMfccSeries(frames=rng.normal(size=(5, 13))),
        "ps": PhoneStateSnapshot(app_state="active", hour_of_day=4),
    }
    return Example(
        user_id="u0",
        timestamp=1_600_000_000,
        sensor_data=sensor_data,
        labels=(LabelAssignment("SITTING", "relevant"),),
    )


def test_well_formed_example_has_no_violations():
    assert validate_example(_well_formed_example()) == []


def test_twelve_coefficient_frames_flagged():
    ex = _well_formed_example()
    bad = dict(ex.sensor_data)
    bad["aud"] = AudioMfccSeries(frames=np.zeros((3, 12)))
    violations = validate_example(Example("u0", 0, sensor_data=bad))
    assert len(violations) == 1
    assert "width 12" in violations[0]


def test_hour_out_of_range_flagged():
    ex = Example("u0", 0, sensor_data={"ps": PhoneStateSnapshot(hour_of_day=24)})
    violations = validate_example(ex)
    assert len(violations) == 1
    assert "hour_of_day" in violations[0]


def test_unit_mismatch_flagged():
    ts = np.arange(16) / 40.0
    series = TriaxialSeries(ts, np.zeros((16, 3)), "m/s2", 40.0)
    violations = validate_example(Example("u0", 0, sensor_data={"acc": series}))
    assert any("unit" in v for v in violations)


def test_duplicate_label_names_flagged():
    ex = Example(
        "u0",
        0,
        labels=(LabelAssignment("A", "relevant"), LabelAssignment("A", "missing")),
    )
    assert any("unique" in v for v in validate_example(ex))


def test_feature_dims_are_the_published_counts():
    assert FEATURE_DIMS == {"acc": 26, "gyro": 26, "wacc": 46, "loc": 17, "aud": 26, "ps": 34}
    assert sum(FEATURE_DIMS.values()) == 175


@pytest.mark.parametrize("sensor", SENSORS)
def test_feature_vector_rejects_wrong_length(sensor):
    d = FEATURE_DIMS[sensor]
    assert validate_example(Example("u0", 0, precomputed_features={sensor: np.zeros(d)})) == []
    for bad in (np.zeros(d + 1), np.zeros((1, d))):
        violations = validate_example(Example("u0", 0, precomputed_features={sensor: bad}))
        assert violations == [f"features: {sensor} has shape {bad.shape}, expected ({d},)"]


def test_store_complete_keeps_the_minutes_with_all_six_sensors():
    rng = np.random.default_rng(1)
    full = [random_full_example(rng, "u0", t) for t in range(3)]
    partial = [
        feature_example("u1", t, {"acc": rng.normal(size=26)}) for t in range(2)
    ]
    store = FeatureStore.from_examples(full + partial)
    core = store.complete()
    assert core.tolist() == [True, True, True, False, False]
    assert set(store.users[core]) == {"u0"}


def test_fully_masked_features_do_not_count_as_available():
    one_cell = np.full(26, np.nan)
    one_cell[5] = 0.0
    ex = Example("u0", 0, precomputed_features={"acc": np.full(26, np.nan), "gyro": one_cell})
    assert not has_sensors(ex, ("acc",))
    assert has_sensors(ex, ("gyro",))
    store = FeatureStore.from_examples([ex])
    assert [bool(store.present[s][0]) for s in ("acc", "gyro", "wacc")] == [False, True, False]
    # an all-NaN precomputed vector wins over a payload: the sensor is absent
    ps = Example("u0", 0, sensor_data={"ps": PhoneStateSnapshot()},
                 precomputed_features={"ps": np.full(34, np.nan)})
    assert not has_sensors(ps, ("ps",))
    assert not FeatureStore.from_examples([ps]).present["ps"][0]


def test_canonical_label_names():
    assert canonical_label_name("Lying down") == "LYING_DOWN"
    assert canonical_label_name("Drive (I'm the driver)") == "DRIVE_I_M_THE_DRIVER"
    assert canonical_label_name("Bathing - shower") == "BATHING_SHOWER"
    assert canonical_label_name("Drinking (alcohol)") == "DRINKING_ALCOHOL"
