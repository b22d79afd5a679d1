import math
from dataclasses import replace

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.fusion as fusion
from ctxfuse.classifier import (
    COST_GRID,
    LinearModel,
    SensorModel,
    TrivialModel,
    fit_single_sensor_model,
    fit_standardizer,
    predict_proba_features,
    predict_proba_matrix,
    train_linear,
)
from ctxfuse.data import label_vector
from ctxfuse.evaluation import confusion_matrix, count_outcomes, compute_metrics
from ctxfuse.fusion import (
    early_fusion,
    late_fusion_average,
    late_fusion_learned,
    multiclass_one_vs_rest,
    predict_late_fusion_learned,
    predict_multiclass,
    sensor_spans,
)
from ctxfuse.model import FEATURE_DIMS, RELEVANT, SENSORS, PhoneStateSnapshot
from synth import (
    complementary_sensor_dataset,
    concat_feature_matrix,
    feature_example,
    feature_matrix,
    has_sensors,
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

def test_concatenation_dimension_and_order():
    spans = sensor_spans()
    assert list(spans) == ["acc", "gyro", "wacc", "loc", "aud", "ps"]
    assert spans["acc"] == (0, 26)
    assert spans["gyro"] == (26, 52)
    assert spans["wacc"] == (52, 98)
    assert spans["loc"] == (98, 115)
    assert spans["aud"] == (115, 141)
    assert spans["ps"] == (141, 175)
    assert 26 + 26 + 46 + 17 + 26 + 34 == 175

    rng = np.random.default_rng(1)
    ex = random_full_example(rng, "u0", 0)
    X = concat_feature_matrix([ex])
    assert X.shape == (1, 175)
    assert np.array_equal(X[0, 26:52], ex.precomputed_features["gyro"])


def test_early_fusion_trains_and_predicts():
    rng = np.random.default_rng(2)
    exs = []
    for i in range(80):
        ex = random_full_example(rng, f"u{i%4}", i, labels={"T": int(i % 2)})
        vals = dict(ex.precomputed_features)
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
    # the acc block sits first in one model and last in the other
    spans_fwd = sensor_spans(SENSORS)["acc"]
    spans_bwd = sensor_spans(reversed_order)["acc"]
    assert np.allclose(
        forward.model.weights[spans_fwd[0] : spans_fwd[1]],
        backward.model.weights[spans_bwd[0] : spans_bwd[1]],
        atol=1e-6,
    )


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
    partial = feature_example("u0", 0, {"acc": rng.normal(size=26)})
    comps = {
        "acc": _constant_prob_model("acc", 0.8),
        "aud": SensorModel(
            label="L",
            sensors=("aud",),
            standardizer=fit_standardizer(rng.normal(size=(3, 26))),
            model=LinearModel(weights=np.zeros(26), intercept=2.0, cost=1.0),
        ),
    }
    store, rows = store_of([partial])
    with pytest.raises(ValueError, match="missing sensors"):
        late_fusion_average(comps, store, rows)
    p = late_fusion_average(comps, store, rows, lenient=True)[0]
    assert np.isclose(p, 0.8, atol=1e-12)


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
    assert "degenerate_inputs" in lfl.notes
    assert np.allclose(lfl.second_layer.weights, 0.0)
    p = predict_late_fusion_learned(lfl, *store_of([any_example]))[0]
    assert not p > 0.5  # decided by the (zero) intercept: negative


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


# ---------------------------------------------------------------------------
# multiclass one-vs-rest
# ---------------------------------------------------------------------------

def test_two_separable_classes_no_confusion():
    rng = np.random.default_rng(11)
    exs = []
    truth = []
    for i in range(200):
        cls = "CLASS_A" if i % 2 == 0 else "CLASS_B"
        vals = {"acc": 0.1 * rng.normal(size=26)}
        vals["acc"][0] = 5.0 if cls == "CLASS_A" else -5.0
        exs.append(
            feature_example("u0", i, vals, {"CLASS_A": int(cls == "CLASS_A"), "CLASS_B": int(cls == "CLASS_B")})
        )
        truth.append(cls)
    classes = ("CLASS_A", "CLASS_B")
    store, rows = store_of(exs, classes)
    model = multiclass_one_vs_rest(store, rows, classes, sensors=("acc",))
    cm = confusion_matrix(truth, predict_multiclass(model, store, rows), classes)
    assert np.allclose(cm, np.eye(2))


def _eligible(examples, class_labels, sensors):
    """``(example, class)`` for the examples with every one of ``sensors``
    and exactly one class relevant: the one-vs-rest training rows, restated
    example by example."""
    out = []
    for ex in examples:
        relevant = [cls for cls in class_labels if ex.label_value(cls) == RELEVANT]
        if has_sensors(ex, sensors) and len(relevant) == 1:
            out.append((ex, relevant[0]))
    return out


def test_examples_with_two_subset_labels_excluded(monkeypatch):
    rng = np.random.default_rng(12)

    def vals():
        return {"acc": rng.normal(size=26), "ps": rng.normal(size=34)}

    examples = [
        feature_example("u0", 0, vals(), {"A": 1, "B": 0}),
        feature_example("u0", 1, vals(), {"A": 1, "B": 1}),  # both classes
        feature_example("u0", 2, vals(), {"A": 0, "B": 0}),  # neither
        feature_example("u0", 3, vals(), {"A": 0, "B": 1}),
        feature_example("u0", 4, {"acc": rng.normal(size=26)}, {"A": 0, "B": 1}),  # no ps
    ]
    # a phone-state payload with an all-NaN precomputed vector: the vector
    # wins, so ps is absent
    nan_ps = examples[0].precomputed_features | {"ps": np.full(34, np.nan)}
    examples.append(replace(examples[0], timestamp=5, precomputed_features=nan_ps,
                            sensor_data={"ps": PhoneStateSnapshot()}))
    trained = []
    fit = fusion.fit_labels

    def recording(store, sensors, rows, *args, **kwargs):
        trained.append(store.timestamps[rows].tolist())
        return fit(store, sensors, rows, *args, **kwargs)

    monkeypatch.setattr(fusion, "fit_labels", recording)
    fusion.multiclass_one_vs_rest(*store_of(examples, ("A", "B")), ("A", "B"), ("acc", "ps"))
    assert trained == [[0, 3]]
    assert [ex.timestamp for ex, _ in _eligible(examples, ("A", "B"), ("acc", "ps"))] == [0, 3]


def test_empty_class_error_names_it():
    rng = np.random.default_rng(13)
    exs = [
        feature_example("u0", i, {"acc": rng.normal(size=26)}, {"A": 1, "B": 0})
        for i in range(10)
    ]
    with pytest.raises(ValueError, match="'B'"):
        multiclass_one_vs_rest(*store_of(exs, ("A", "B")), ("A", "B"), sensors=("acc",))


_THREE_CLASS_MEANS = {
    "CLASS_A": np.array([0.0, 2.0]),
    "CLASS_B": np.array([-math.sqrt(3), -1.0]),
    "CLASS_C": np.array([math.sqrt(3), -1.0]),
}


def _three_class_corpus(rng, n, base_ts):
    """Three unit-variance Gaussian classes in the first two ``acc`` features."""
    classes = list(_THREE_CLASS_MEANS)
    exs, truth = [], []
    for i in range(n):
        cls = classes[i % 3]
        x = _THREE_CLASS_MEANS[cls] + rng.normal(size=2)
        vals = {"acc": np.concatenate([x, 0.1 * rng.normal(size=24)])}
        labels = {c: int(c == cls) for c in classes}
        exs.append(feature_example(f"u{i%5}", base_ts + i, vals, labels))
        truth.append(cls)
    return exs, truth


def test_three_class_confusion_matches_generative_oracle():
    rng = np.random.default_rng(21)
    mus = _THREE_CLASS_MEANS
    classes = list(mus)
    train, _ = _three_class_corpus(rng, 9999, 0)
    test, truth = _three_class_corpus(rng, 9999, 10**6)
    model = multiclass_one_vs_rest(*store_of(train, classes), classes, sensors=("acc",), cost=1.0)
    cm = confusion_matrix(truth, predict_multiclass(model, *store_of(test)), classes)

    # oracle: nearest-mean (Bayes) assignment rates, estimated generatively
    mc = 500_000
    bayes = np.zeros((3, 3))
    orng = np.random.default_rng(99)
    for i, ci in enumerate(classes):
        pts = mus[ci] + orng.normal(size=(mc, 2))
        dists = np.stack([np.linalg.norm(pts - mus[cj], axis=1) for cj in classes])
        pick = dists.argmin(axis=0)
        for j in range(3):
            bayes[i, j] = (pick == j).mean()

    assert np.abs(cm - bayes).max() <= 0.03
    assert np.allclose(cm.sum(axis=1), 1.0, atol=1e-12)


def _one_vs_rest_oracle(examples, class_labels, sensors, cost):
    """The one-vs-rest fit before it went through ``early_fusion``: one
    standardizer on the concatenated pool, then ``train_linear`` per class."""
    eligible = _eligible(examples, class_labels, sensors)
    truth = [cls for _, cls in eligible]
    X = concat_feature_matrix([ex for ex, _ in eligible], sensors)
    standardizer = fit_standardizer(X)
    Z = standardizer.transform(X)
    per_class = {
        cls: train_linear(Z, np.array([int(t == cls) for t in truth]), cost)
        for cls in class_labels
    }
    return standardizer, per_class


def _one_vs_rest_oracle_predict(standardizer, per_class, class_labels, examples, sensors):
    Z = standardizer.transform(concat_feature_matrix(examples, sensors))
    probs = np.column_stack([predict_proba_matrix(per_class[c], Z) for c in class_labels])
    return [class_labels[i] for i in probs.argmax(axis=1)]


def test_one_vs_rest_equals_the_shared_standardizer_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    classes = list(_THREE_CLASS_MEANS)
    train, _ = _three_class_corpus(rng, 9999, 0)
    test, _ = _three_class_corpus(rng, 9999, 10**6)
    model = multiclass_one_vs_rest(*store_of(train, classes), classes, sensors=("acc",), cost=1.0)
    standardizer, per_class = _one_vs_rest_oracle(train, classes, ("acc",), 1.0)
    for cls in classes:
        ef = model.per_class[cls]
        assert ef.sensors == ("acc",) and ef.notes == ()
        assert np.array_equal(ef.standardizer.means, standardizer.means)
        assert np.array_equal(ef.standardizer.stds, standardizer.stds)
        assert np.array_equal(ef.model.weights, per_class[cls].weights)
        assert ef.model.intercept == per_class[cls].intercept
        assert ef.model.cost == per_class[cls].cost == 1.0
    want = _one_vs_rest_oracle_predict(standardizer, per_class, classes, test, ("acc",))
    assert predict_multiclass(model, *store_of(test)) == want


@pytest.mark.parametrize("cost", [1.0, None], ids=["fixed", "grid"])
def test_one_vs_rest_shares_one_standardizer_and_equals_per_class_early_fusion(monkeypatch, cost):
    rng = np.random.default_rng(22)
    classes = list(_THREE_CLASS_MEANS)
    train, _ = _three_class_corpus(rng, 600, 0)
    test, _ = _three_class_corpus(rng, 300, 10**6)
    # the oracle: one early_fusion per class on the eligible pool, each
    # fitting its own standardizer
    pool = [ex for ex, _ in _eligible(train, classes, ("acc",))]
    pool_store = store_of(pool, classes)
    oracle = {cls: early_fusion(*pool_store, cls, sensors=("acc",), cost=cost) for cls in classes}

    fits = []
    monkeypatch.setattr(classifier, "fit_standardizer",
                        lambda X, fit=classifier.fit_standardizer: fits.append(1) or fit(X))
    model = multiclass_one_vs_rest(*store_of(train, classes), classes, sensors=("acc",), cost=cost)
    assert len(fits) == 1

    for cls in classes:
        got, want = model.per_class[cls], oracle[cls]
        assert got.notes == want.notes and got.model.cost == want.model.cost
        assert np.array_equal(_ef_probabilities(got, test), _ef_probabilities(want, test))
    probs = np.column_stack([_ef_probabilities(oracle[c], test) for c in classes])
    assert predict_multiclass(model, *store_of(test)) == [classes[i] for i in probs.argmax(axis=1)]


def _small_three_class_corpus(n_per_class, seed=31):
    rng = np.random.default_rng(seed)
    classes = list(_THREE_CLASS_MEANS)
    exs = []
    for cls, n in zip(classes, n_per_class):
        for _ in range(n):
            x = _THREE_CLASS_MEANS[cls] + rng.normal(size=2)
            vals = {"acc": np.concatenate([x, 0.1 * rng.normal(size=24)])}
            exs.append(
                feature_example("u0", len(exs), vals, {c: int(c == cls) for c in classes})
            )
    return exs, classes


def test_one_vs_rest_grid_search_falls_back_for_a_rare_class():
    exs, classes = _small_three_class_corpus((20, 20, 2))
    model = multiclass_one_vs_rest(*store_of(exs, classes), classes, sensors=("acc",), cost=None)
    rare = model.per_class["CLASS_C"]
    assert rare.notes == ("cost_fallback:C=1",) and rare.model.cost == 1.0
    for cls in ("CLASS_A", "CLASS_B"):
        assert model.per_class[cls].notes == ()
        assert model.per_class[cls].model.cost in COST_GRID


@pytest.mark.parametrize("n_per_class", [(3, 3, 3), (20, 20, 20)])
def test_one_vs_rest_grid_search_picks_from_the_grid(n_per_class):
    exs, classes = _small_three_class_corpus(n_per_class)
    model = multiclass_one_vs_rest(*store_of(exs, classes), classes, sensors=("acc",), cost=None)
    for cls in classes:
        assert model.per_class[cls].notes == ()
        assert model.per_class[cls].model.cost in COST_GRID


def test_one_vs_rest_with_one_class_raises():
    exs, classes = _small_three_class_corpus((10, 0, 0))
    with pytest.raises(ValueError, match="at least two classes"):
        multiclass_one_vs_rest(*store_of(exs, classes), classes[:1], sensors=("acc",))


def test_nearly_constant_second_layer_inputs_still_train():
    # inputs that vary by less than 1e-3 are not constant: the second layer
    # learns from them instead of deciding negative everywhere
    rng = np.random.default_rng(3)
    P = 0.5 + 4e-4 * rng.random((200, 6))
    y = (P[:, 0] > 0.5 + 2e-4).astype(int)
    lfl = fusion._fit_late_fusion("T", dict.fromkeys(SENSORS), P, y, cost=None, seed=0)
    assert "degenerate_inputs" not in lfl.notes
    assert lfl.second_layer.weights[0] > 0
