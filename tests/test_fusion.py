import math

import numpy as np
import pytest

import ctxfuse.fusion as fusion
from ctxfuse.classifier import (
    LinearModel,
    SensorModel,
    TrivialModel,
    fit_standardizer,
    predict_proba_features,
    predict_proba_matrix,
    train_linear,
)
from ctxfuse.evaluation import count_outcomes, compute_metrics
from ctxfuse.fusion import (
    late_fusion_average,
    late_fusion_learned,
    predict_late_fusion_learned,
)
from ctxfuse.model import FEATURE_DIMS, SENSORS
from synth import (
    complementary_sensor_dataset,
    concat_feature_matrix,
    early_fusion,
    feature_example,
    feature_matrix,
    fit_single_sensor_model,
    label_vector,
    ordered,
    random_full_example,
    store_of,
    user_ids,
)


def _constant_prob_model(sensor, p):
    return SensorModel(
        label="L", sensors=(sensor,), standardizer=None, model=TrivialModel(probability=p)
    )


def _make_components(probs):
    return {s: _constant_prob_model(s, p) for s, p in zip(SENSORS, probs)}


def _ef_probabilities(model, examples):
    """An EF model's probabilities on the examples, through a store of them."""
    store, rows = store_of(examples)
    return predict_proba_features(model, store.matrix(model.sensors, rows))


@pytest.fixture(scope="module")
def any_example():
    rng = np.random.default_rng(0)
    return random_full_example(rng, "u0", 0)


# ---------------------------------------------------------------------------
# early fusion
# ---------------------------------------------------------------------------

#: each sensor's columns in the matrix EF fits on, ``store.matrix(SENSORS, rows)``
_EF_BLOCKS = {"acc": (0, 26), "gyro": (26, 52), "wacc": (52, 98), "loc": (98, 115),
              "aud": (115, 141), "ps": (141, 175)}


def test_concatenation_dimension_and_order():
    assert list(_EF_BLOCKS) == ["acc", "gyro", "wacc", "loc", "aud", "ps"] == list(SENSORS)
    assert 26 + 26 + 46 + 17 + 26 + 34 == 175

    rng = np.random.default_rng(1)
    exs = [random_full_example(rng, "u0", t) for t in range(3)]
    store, rows = store_of(exs)
    X = store.matrix(SENSORS, rows)
    assert X.shape == (3, 175)
    for s, (start, stop) in _EF_BLOCKS.items():
        assert np.array_equal(X[:, start:stop], np.vstack([ex.features[s] for ex in exs]))
    assert np.array_equal(X, concat_feature_matrix(exs))


def test_early_fusion_trains_and_predicts():
    rng = np.random.default_rng(2)
    exs = []
    for i in range(80):
        ex = random_full_example(rng, f"u{i%4}", i, labels={"T": int(i % 2)})
        vals = dict(ex.features)
        arr = vals["acc"].copy()
        arr[0] = (2 * (i % 2) - 1) + 0.1 * rng.normal()
        exs.append(feature_example(ex.user_id, i, {**{s: vals[s] for s in SENSORS}, "acc": arr}, {"T": int(i % 2)}))
    model = early_fusion(*store_of(exs, ["T"]), "T", cost=10.0)
    assert model.standardizer.dim == 175
    pred = _ef_probabilities(model, exs) > 0.5
    y = label_vector(exs, "T") > 0
    assert (pred == y).mean() > 0.95


def test_early_fusion_requires_complete_examples():
    rng = np.random.default_rng(3)
    partial = [
        feature_example("u0", i, {"acc": rng.normal(size=26)}, {"T": i % 2})
        for i in range(10)
    ]
    with pytest.raises(ValueError, match="complete"):
        early_fusion(*store_of(partial, ["T"]), "T")


def test_constant_sensor_equals_dropping_it():
    rng = np.random.default_rng(4)
    n = 60
    exs = []
    raw = {}
    for i in range(n):
        vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
        vals["aud"] = np.full(26, 3.3)  # one sensor entirely constant
        y = int(rng.random() < 0.5)
        vals["acc"][0] += 2.0 * (2 * y - 1)
        exs.append(feature_example("u0", i, vals, {"T": y}))
    model = early_fusion(*store_of(exs, ["T"]), "T", cost=1.0)

    # manual training on the 149 informative dims
    X = concat_feature_matrix(exs)
    keep = np.ones(175, dtype=bool)
    keep[115:141] = False
    y = label_vector(exs, "T")
    sub_std = fit_standardizer(X[:, keep])
    sub_model = train_linear(sub_std.transform(X[:, keep]), y, 1.0)

    p_full = _ef_probabilities(model, exs)
    p_sub = predict_proba_matrix(sub_model, sub_std.transform(X[:, keep]))
    assert np.allclose(p_full, p_sub, atol=1e-6)
    # the constant block carries (numerically) zero weight
    assert np.allclose(model.model.weights[115:141], 0.0, atol=1e-6)


def test_linear_model_cannot_learn_feature_products():
    # the signal is the product of two sensors' features: linear EF stays at
    # chance on held-out data while the same pipeline with an explicit
    # interaction column wins
    rng = np.random.default_rng(5)

    def gen(n, base_ts):
        a = rng.choice([-1.0, 1.0], size=n)
        b = rng.choice([-1.0, 1.0], size=n)
        y = (a * b > 0).astype(int)
        exs = []
        for i in range(n):
            vals = {s: 0.1 * rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
            vals["acc"][0] = a[i] + 0.05 * rng.normal()
            vals["gyro"][0] = b[i] + 0.05 * rng.normal()
            exs.append(feature_example(f"u{i%4}", base_ts + i, vals, {"T": int(y[i])}))
        return exs, y

    train, y_train = gen(400, 0)
    test, y_test = gen(400, 10_000)

    model = early_fusion(*store_of(train, ["T"]), "T", cost=1.0)
    p = _ef_probabilities(model, test)
    ba_linear = compute_metrics(count_outcomes(y_test > 0, p > 0.5)).ba

    def augmented(exs):
        X = concat_feature_matrix(exs)
        return np.column_stack([X, X[:, 0] * X[:, 26]])

    X_aug = augmented(train)
    std = fit_standardizer(X_aug)
    aug_model = train_linear(std.transform(X_aug), y_train, 1.0)
    p_aug = predict_proba_matrix(aug_model, std.transform(augmented(test)))
    ba_aug = compute_metrics(count_outcomes(y_test > 0, p_aug > 0.5)).ba

    assert ba_linear < 0.6
    assert ba_aug > 0.95


def test_early_fusion_sensor_order_only_permutes_weights():
    rng = np.random.default_rng(22)
    exs = []
    for i in range(60):
        vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
        y = int(rng.random() < 0.5)
        vals["acc"][0] += 1.5 * (2 * y - 1)
        vals["aud"][3] += 1.0 * (2 * y - 1)
        exs.append(feature_example("u0", i, vals, {"T": y}))

    store, rows = store_of(exs, ["T"])
    forward = early_fusion(store, rows, "T", cost=1.0)
    reversed_order = tuple(reversed(SENSORS))
    backward = early_fusion(store, rows, "T", sensors=reversed_order, cost=1.0)
    p_fwd = _ef_probabilities(forward, exs)
    p_bwd = _ef_probabilities(backward, exs)
    assert np.allclose(p_fwd, p_bwd, atol=1e-6)
    # the acc block sits first in one model's matrix and last in the other's
    X_fwd, X_bwd = store.matrix(SENSORS, rows), store.matrix(reversed_order, rows)
    assert np.array_equal(X_fwd[:, :26], X_bwd[:, -26:])
    assert np.allclose(forward.model.weights[:26], backward.model.weights[-26:], atol=1e-6)


# ---------------------------------------------------------------------------
# late fusion, average
# ---------------------------------------------------------------------------

def test_lfa_all_half_is_negative(any_example):
    p = late_fusion_average(_make_components([0.5] * 6), *store_of([any_example]))[0]
    assert p == 0.5 and not p > 0.5


def test_lfa_arithmetic(any_example):
    comps = _make_components([0.9, 0.7, 0.5, 0.5, 0.5, 0.5])
    p = late_fusion_average(comps, *store_of([any_example]))[0]
    assert np.isclose(p, 0.6, atol=1e-12)
    assert p > 0.5


def test_lfa_identical_models_equal_single(any_example):
    comps = _make_components([0.73] * 6)
    p = late_fusion_average(comps, *store_of([any_example]))[0]
    assert np.isclose(p, 0.73, atol=1e-12)


def test_lfa_permutation_invariant(any_example):
    probs = [0.1, 0.9, 0.3, 0.6, 0.2, 0.8]
    store, rows = store_of([any_example])
    p1 = late_fusion_average(_make_components(probs), store, rows)[0]
    p2 = late_fusion_average(_make_components(probs[::-1]), store, rows)[0]
    assert np.isclose(p1, p2, atol=1e-12)


def test_lfa_output_within_component_range(any_example):
    rng = np.random.default_rng(6)
    store, rows = store_of([any_example])
    for _ in range(25):
        probs = rng.uniform(0.01, 0.99, size=6)
        p = late_fusion_average(_make_components(probs), store, rows)[0]
        assert probs.min() - 1e-12 <= p <= probs.max() + 1e-12


def test_lfa_strict_mode_requires_all_sensors():
    rng = np.random.default_rng(7)
    comps = {
        "acc": _constant_prob_model("acc", 0.8),
        "aud": SensorModel(
            label="L",
            sensors=("aud",),
            standardizer=fit_standardizer(rng.normal(size=(3, 26))),
            model=LinearModel(weights=np.zeros(26), intercept=2.0, cost=1.0, newton_steps=0),
        ),
    }
    only_acc = feature_example("u0", 0, {"acc": rng.normal(size=26)})
    with pytest.raises(ValueError, match=r"missing sensors.*\['aud'\]"):
        late_fusion_average(comps, *store_of([only_acc]))
    # a trivial component needs no features: its absent sensor counts as present
    only_aud = feature_example("u0", 0, {"aud": rng.normal(size=26)})
    p = late_fusion_average(comps, *store_of([only_aud]))[0]
    assert np.isclose(p, (0.8 + 1 / (1 + math.exp(-2.0))) / 2, atol=1e-12)


def test_trivial_component_models_make_fusion_negative(any_example):
    comps = _make_components([0.5] * 6)
    p = late_fusion_average(comps, *store_of([any_example]))[0]
    assert not p > 0.5


# ---------------------------------------------------------------------------
# late fusion, learned
# ---------------------------------------------------------------------------

def test_lfl_weights_informative_sensor_highest():
    rng = np.random.default_rng(8)
    n = 300
    y = rng.integers(0, 2, n)
    exs = []
    for i in range(n):
        vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
        vals["wacc"][0] = 3.0 * (2 * y[i] - 1) + 0.3 * rng.normal()
        exs.append(feature_example(f"u{i%3}", i, vals, {"T": int(y[i])}))
    components = {
        s: fit_single_sensor_model(
            s, "T", feature_matrix(exs, s), label_vector(exs, "T"), cost=1.0
        )
        for s in SENSORS
    }
    lfl = late_fusion_learned(*store_of(exs, ["T"]), "T", components, cost=1.0)
    weights = lfl.sensor_weights()
    assert max(weights, key=weights.get) == "wacc"
    p = predict_late_fusion_learned(lfl, *store_of([exs[0]]))[0]
    assert 0.0 < p < 1.0


def test_lfl_constant_inputs_flagged_degenerate(any_example):
    rng = np.random.default_rng(9)
    exs = [random_full_example(rng, "u0", i, labels={"T": int(i % 2)}) for i in range(20)]
    comps = _make_components([0.5] * 6)
    lfl = late_fusion_learned(*store_of(exs, ["T"]), "T", comps)
    assert lfl.notes == ("degenerate_inputs",)
    # the balanced intercept-only optimum: the constant 0.5, with no weight on any sensor
    assert lfl.second_layer == TrivialModel(0.5)
    assert lfl.sensor_weights() == {s: 0.0 for s in SENSORS}
    p = predict_late_fusion_learned(lfl, *store_of([any_example]))[0]
    assert p == 0.5 and not p > 0.5  # decided negative


def test_lfl_not_worse_than_lfa_on_complementary_sensors():
    examples, label = complementary_sensor_dataset(n=1200, n_users=6, seed=10)
    users = user_ids(examples)
    train = ordered(examples, users[:3])
    test = ordered(examples, users[3:])

    components = {
        s: fit_single_sensor_model(
            s, label, feature_matrix(train, s), label_vector(train, label),
            cost=1.0,
        )
        for s in SENSORS
    }
    lfl = late_fusion_learned(*store_of(train, [label]), label, components, cost=1.0)

    y = label_vector(test, label) > 0
    p_cols = {}
    for s in SENSORS:
        m = components[s]
        Z = m.standardizer.transform(feature_matrix(test, s))
        p_cols[s] = predict_proba_matrix(m.model, Z)
    P = np.column_stack([p_cols[s] for s in SENSORS])
    ba_lfa = compute_metrics(count_outcomes(y, P.mean(axis=1) > 0.5)).ba
    ba_lfl = compute_metrics(
        count_outcomes(y, predict_proba_matrix(lfl.second_layer, P) > 0.5)
    ).ba
    assert ba_lfl >= ba_lfa - 0.02


def test_nearly_constant_second_layer_inputs_still_train():
    # inputs that vary by less than 1e-3 are not constant: the second layer
    # learns from them instead of deciding negative everywhere
    rng = np.random.default_rng(3)
    P = 0.5 + 4e-4 * rng.random((200, 6))
    y = (P[:, 0] > 0.5 + 2e-4).astype(int)
    lfl = fusion._fit_late_fusion("T", dict.fromkeys(SENSORS), P, y, cost=None, seed=0)
    assert "degenerate_inputs" not in lfl.notes
    assert lfl.second_layer.weights[0] > 0
