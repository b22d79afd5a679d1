import numpy as np

from ctxfuse.data import FeatureStore
from ctxfuse.ingestion import feature_table
from ctxfuse.model import FEATURE_DIMS, canonical_label_name
from synth import example_store, feature_example, has_sensors, random_full_example


def test_feature_dims_are_the_published_counts():
    assert FEATURE_DIMS == {"acc": 26, "gyro": 26, "wacc": 46, "loc": 17, "aud": 26, "ps": 34}
    assert sum(FEATURE_DIMS.values()) == 175


def test_store_complete_keeps_the_minutes_with_all_six_sensors():
    rng = np.random.default_rng(1)
    full = [random_full_example(rng, "u0", t) for t in range(3)]
    partial = [
        feature_example("u1", t, {"acc": rng.normal(size=26)}) for t in range(2)
    ]
    store = example_store(full + partial)
    core = store.complete()
    assert core.tolist() == [True, True, True, False, False]
    assert set(store.users[core]) == {"u0"}


def test_fully_masked_features_do_not_count_as_available():
    one_cell = np.full(26, np.nan)
    one_cell[5] = 0.0
    vectors = {"acc": np.full(26, np.nan), "gyro": one_cell}
    ex = feature_example("u0", 0, vectors)
    assert not has_sensors(ex, ("acc",))
    assert has_sensors(ex, ("gyro",))
    store = FeatureStore.from_tables([feature_table("u0", [(0, vectors, ())])])
    assert [bool(store.present[s][0]) for s in ("acc", "gyro", "wacc")] == [False, True, False]


def test_canonical_label_names():
    assert canonical_label_name("Lying down") == "LYING_DOWN"
    assert canonical_label_name("Drive (I'm the driver)") == "DRIVE_I_M_THE_DRIVER"
    assert canonical_label_name("Bathing - shower") == "BATHING_SHOWER"
    assert canonical_label_name("Drinking (alcohol)") == "DRINKING_ALCOHOL"
