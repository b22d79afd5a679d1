"""The batched inference path against the per-row construction it replaced.

``_rowwise_lfl_inputs`` and ``_rowwise_late_fusion_learned`` rebuild the LFL
second-layer inputs one example and one sensor at a time from the model
primitives (standardize one row, score it, clip), as the library did before
the inputs were built with one matrix call per sensor. ``_inline_ef`` and
``_inline_lfa`` are the EF and LFA scoring that ``cross_validate`` once did
inline. They are test oracles only.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

import ctxfuse.evaluation as evaluation
import ctxfuse.fusion as fusion
from ctxfuse.classifier import (
    PROBABILITY_CLIP,
    TrivialModel,
    predict_proba_features,
    predict_proba_matrix,
    select_cost,
    train_linear,
)
from ctxfuse.evaluation import MetricCounts, count_outcomes, cross_validate, partition_folds
from ctxfuse.fusion import (
    LateFusionLearned,
    component_probabilities,
    late_fusion_average,
    late_fusion_learned,
    predict_late_fusion_learned,
)
from ctxfuse.model import FEATURE_DIMS, SENSORS
from synth import (
    concat_feature_matrix,
    core_examples,
    early_fusion,
    example_store,
    feature_example,
    feature_matrix,
    fit_single_sensor_model,
    has_sensors,
    label_vector,
    make_triaxial,
    ordered,
    sensor_features,
    store_of,
    user_ids,
)


def _rowwise_probability(model, example, sensor):
    fv = sensor_features(example, sensor)
    if model.is_trivial:
        p = model.model.probability
    elif fv is not None and not np.isnan(fv).all():
        z = model.standardizer.transform(fv[None, :])
        p = expit(z[0] @ model.model.weights + model.model.intercept)
    else:
        raise KeyError(sensor)
    return float(np.clip(p, 1e-15, 1 - 1e-15))


def _rowwise_lfl_inputs(components, examples):
    complete = [ex for ex in examples if has_sensors(ex, components)]
    P = np.array(
        [[_rowwise_probability(components[s], ex, s) for s in components] for ex in complete]
    )
    return complete, P


def _rowwise_late_fusion_learned(
    examples, label, components, *, cost=None, seed=0
):
    complete, P = _rowwise_lfl_inputs(components, examples)
    if not complete:
        raise ValueError("late fusion has no complete-sensor training examples")
    y = label_vector(complete, label)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        # always negative, also when every row is positive
        return LateFusionLearned(label, dict(components), TrivialModel(0.0), ("trivial:single_class",))
    if np.all(P == P[0:1, :]):
        return LateFusionLearned(label, dict(components), TrivialModel(0.5), ("degenerate_inputs",))
    notes, start = [], None
    if cost is None:
        cost, fell_back, start = select_cost(P, y, seed=seed)
        if fell_back:
            notes.append("cost_fallback:C=1")
    return LateFusionLearned(
        label=label,
        components=dict(components),
        second_layer=train_linear(P, y, cost, start=start),
        notes=tuple(notes),
    )


def _mixed_examples(seed=0, n=150):
    """Examples with a latent target; acc and gyro carry raw payloads, the
    rest feature vectors; some minutes lack the watch or location."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        h = rng.normal()
        vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in ("wacc", "loc", "aud", "ps")}
        vals["wacc"][0] += 1.5 * h
        vals["aud"][0] += h
        if i % 7 == 0:
            del vals["wacc"]
        if i % 11 == 0:
            vals["loc"][:] = np.nan  # fully masked: absent
        labels = {"T": int(h > 0.3), "NONE": 0}
        base = feature_example(f"u{i % 5}", 1_600_000_000 + 60 * i, vals, labels)
        raw = {
            "acc": make_triaxial(rng, n=96, scale=1.0 + 0.5 * (h > 0)),
            "gyro": make_triaxial(rng, n=96),
        }
        out.append(replace(base, sensor_data=raw))
    return out


def _components(examples, label, trivial_sensor=None):
    comps = {}
    for s in SENSORS:
        exs = [ex for ex in examples if has_sensors(ex, (s,))]
        y = label_vector(exs, "NONE" if s == trivial_sensor else label)
        comps[s] = fit_single_sensor_model(s, label, feature_matrix(exs, s), y, cost=1.0)
    return comps


@pytest.fixture(scope="module")
def mixed():
    examples = _mixed_examples()
    return examples, _components(examples, "T", trivial_sensor="loc")


def test_mixed_fixture_covers_raw_payloads_and_a_trivial_component(mixed):
    examples, comps = mixed
    assert comps["loc"].is_trivial
    assert not comps["acc"].is_trivial
    assert all(ex.sensor_data.get("acc") is not None for ex in examples)
    assert "acc" not in examples[0].features
    complete = [ex for ex in examples if has_sensors(ex)]
    assert 0 < len(complete) < len(examples)


def test_batched_lfl_inputs_match_rowwise_oracle(mixed):
    examples, comps = mixed
    complete, P_oracle = _rowwise_lfl_inputs(comps, examples)
    P = component_probabilities(comps, *store_of(complete))
    assert P.shape == P_oracle.shape == (len(complete), len(SENSORS))
    assert np.max(np.abs(P - P_oracle)) <= 1e-12
    assert np.array_equal(P > 0.5, P_oracle > 0.5)
    assert np.all(P[:, SENSORS.index("loc")] == PROBABILITY_CLIP)


@pytest.mark.parametrize("grid_search", [True, False])
def test_late_fusion_learned_matches_rowwise_oracle(mixed, grid_search):
    examples, comps = mixed
    cost = None if grid_search else 1.0
    got = late_fusion_learned(*store_of(examples, ["T"]), "T", comps, cost=cost, seed=5)
    want = _rowwise_late_fusion_learned(examples, "T", comps, cost=cost, seed=5)
    assert got.notes == want.notes
    assert got.second_layer.cost == want.second_layer.cost
    assert np.allclose(got.second_layer.weights, want.second_layer.weights, rtol=0, atol=1e-8)
    assert abs(got.second_layer.intercept - want.second_layer.intercept) <= 1e-8


def test_single_class_label_gives_an_always_negative_trivial_second_layer(mixed):
    examples, comps = mixed
    store, rows = store_of(examples, ["NONE"])
    lfl = late_fusion_learned(store, rows, "NONE", comps)
    assert (lfl.second_layer, lfl.notes) == (TrivialModel(0.0), ("trivial:single_class",))
    assert lfl.sensor_weights() == {s: 0.0 for s in comps}
    complete = rows[store.complete()[rows]]
    assert np.all(predict_late_fusion_learned(lfl, store, complete) == PROBABILITY_CLIP)
    # a label relevant on every row is decided negative as well
    P = component_probabilities(comps, store, complete)
    lfl = fusion._fit_late_fusion("ALL", comps, P, np.ones(len(complete), dtype=int), cost=None, seed=0)
    assert (lfl.second_layer, lfl.notes) == (TrivialModel(0.0), ("trivial:single_class",))


def test_per_example_calls_are_rows_of_the_matrix_path(mixed):
    examples, comps = mixed
    complete = [ex for ex in examples if has_sensors(ex)]
    store, rows = store_of(complete, ["T"])
    lfl = late_fusion_learned(store, rows, "T", comps, cost=1.0)
    P = component_probabilities(comps, store, rows)
    for i, ex in enumerate(complete[:10]):
        one = store_of([ex])
        probs = component_probabilities(comps, *one)[0]
        assert list(probs) == pytest.approx(P[i], abs=1e-12)
        p = predict_late_fusion_learned(lfl, *one)[0]
        assert p == pytest.approx(float(expit(P[i] @ lfl.second_layer.weights
                                              + lfl.second_layer.intercept)), abs=1e-12)


def test_matrix_path_validates_dimension(mixed):
    _, comps = mixed
    with pytest.raises(ValueError, match="dimension"):
        predict_proba_features(comps["acc"], np.zeros((3, FEATURE_DIMS["acc"] + 1)))
    with pytest.raises(ValueError, match="dimension"):
        predict_proba_features(comps["loc"], np.zeros((3, 2)))


def test_missing_sensor_still_rejected_by_per_example_lfl(mixed):
    examples, comps = mixed
    lfl = late_fusion_learned(*store_of(examples, ["T"]), "T", comps, cost=1.0)
    no_watch = next(ex for ex in examples if not has_sensors(ex, ("wacc",)))
    with pytest.raises(ValueError, match="missing sensors"):
        predict_late_fusion_learned(lfl, *store_of([no_watch]))


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cost", [None, 1.0], ids=["grid", "fixed"])
def test_fusion_on_a_shuffled_subset_of_rows_equals_a_store_of_those_rows(mixed, cost):
    # each function reads only ``rows``, in their order: on a shuffled
    # subset of a store it gives, bit for bit, what it gives on a store
    # built from only those examples, in that order
    examples, comps = mixed
    store, _ = store_of(examples, ["T"])
    rows = np.random.default_rng(1).permutation(len(examples))[:110]
    sub, sub_rows = store_of([examples[i] for i in rows], ["T"])
    complete, sub_complete = rows[store.complete()[rows]], sub_rows[sub.complete()]
    assert 0 < len(complete) < len(rows)

    _same_bytes(component_probabilities(comps, store, rows), component_probabilities(comps, sub, sub_rows))
    _same_bytes(late_fusion_average(comps, store, complete), late_fusion_average(comps, sub, sub_complete))
    # loc's component is trivial, so the rows that lack only loc are scored too
    no_loc = [s for s in SENSORS if s != "loc"]
    _same_bytes(late_fusion_average(comps, store, rows[store.complete(no_loc)[rows]]),
                late_fusion_average(comps, sub, sub_rows[sub.complete(no_loc)]))
    with pytest.raises(ValueError, match="missing sensors"):
        late_fusion_average(comps, store, rows)

    got = late_fusion_learned(store, rows, "T", comps, cost=cost, seed=5)
    want = late_fusion_learned(sub, sub_rows, "T", comps, cost=cost, seed=5)
    assert got.notes == want.notes and got.second_layer.cost == want.second_layer.cost
    _same_bytes(got.second_layer.weights, want.second_layer.weights)
    assert got.second_layer.intercept == want.second_layer.intercept
    _same_bytes(predict_late_fusion_learned(got, store, complete),
                predict_late_fusion_learned(want, sub, sub_complete))
    with pytest.raises(ValueError, match="missing sensors"):
        predict_late_fusion_learned(got, store, rows)

    got = early_fusion(store, rows, "T", cost=cost, seed=5)
    want = early_fusion(sub, sub_rows, "T", cost=cost, seed=5)
    assert got.notes == want.notes and got.model.cost == want.model.cost
    for a, b in ((got.standardizer.means, want.standardizer.means),
                 (got.standardizer.stds, want.standardizer.stds),
                 (got.model.weights, want.model.weights)):
        _same_bytes(a, b)
    assert got.model.intercept == want.model.intercept


def _small_cv_dataset(seed=4, n=400, n_users=6):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        user = f"u{i % n_users}"
        h = rng.normal(size=2)
        vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
        vals["acc"][0] += h[0]
        vals["wacc"][0] += h[1]
        vals["aud"][1] += h[0] - h[1]
        if i % 5 == 0:
            del vals["wacc"]
        labels = {
            "COMMON": int(h[0] + h[1] > 0),
            "MEDIUM": int(h[0] > 0.8),
            # positives only for one user: trivial models in the fold holding it out
            "RARE": int(user == "u0" and h[1] > 0),
        }
        examples.append(feature_example(user, 1_600_000_000 + 60 * i, vals, labels))
    return ordered(examples)


def _follow_folds(monkeypatch):
    """Wrap ``evaluation._fold_counts`` so the returned dict names the held-out
    and training users of the fold being trained (folds run one at a time)."""
    current = {}
    fold_counts = evaluation._fold_counts

    def following(store, labels, systems, fold_users, train_users, **kwargs):
        current.update(fold_users=fold_users, train_users=train_users)
        return fold_counts(store, labels, systems, fold_users, train_users, **kwargs)

    monkeypatch.setattr(evaluation, "_fold_counts", following)
    return current


def test_cross_validate_counts_and_costs_match_rowwise_path(monkeypatch):
    examples = _small_cv_dataset()
    labels = ["COMMON", "MEDIUM", "RARE"]
    systems = list(SENSORS) + ["ef", "lfa", "lfl"]
    partition = partition_folds(user_ids(examples), k=5, seed=1)
    store = example_store(examples, labels=labels)

    batched = cross_validate(store, labels, systems, partition, seed=9)
    fold = _follow_folds(monkeypatch)

    def rowwise_lfl(store, rows, label, components, *, cost, seed):
        # drop the fold's store; rebuild the inputs row by row from its training examples
        assert set(store.users[rows]) <= set(fold["train_users"])
        train_examples = ordered(examples, fold["train_users"])
        return _rowwise_late_fusion_learned(train_examples, label, components, cost=cost, seed=seed)

    monkeypatch.setattr(evaluation, "late_fusion_learned", rowwise_lfl)
    rowwise = cross_validate(store, labels, systems, partition, seed=9)

    assert any("lfl:trivial" in fl for fl in batched["lfl"]["RARE"].flags)
    for system in systems:
        for label in labels:
            got, want = batched[system][label], rowwise[system][label]
            assert got.counts == want.counts, (system, label)
            assert got.chosen_costs == want.chosen_costs, (system, label)
            assert got.flags == want.flags, (system, label)


def _inline_ef(ef, pool):
    X = np.hstack([feature_matrix(pool, s) for s in SENSORS])
    if ef.is_trivial:
        return predict_proba_matrix(ef.model, X)
    return predict_proba_matrix(ef.model, ef.standardizer.transform(X))


def _inline_lfa(components, pool):
    return np.vstack(
        [predict_proba_features(components[s], feature_matrix(pool, s)) for s in SENSORS]
    ).mean(axis=0)


def test_early_fusion_scores_through_the_matrix_path(mixed):
    examples, _ = mixed
    complete = [ex for ex in examples if has_sensors(ex)]
    ef = early_fusion(*store_of(complete, ["T"]), "T", cost=1.0)
    assert ef.dim == 175 and not ef.is_trivial
    store, rows = store_of(examples)
    p = predict_proba_features(ef, store.matrix(ef.sensors, rows))
    assert p.shape == (len(examples),)
    assert np.array_equal(p, _inline_ef(ef, examples))
    assert np.array_equal(p, predict_proba_features(ef, concat_feature_matrix(examples)))
    with pytest.raises(ValueError, match="dimension"):
        predict_proba_features(ef, np.zeros((2, 174)))


def test_trivial_early_fusion_model_has_no_standardizer(mixed):
    examples, _ = mixed
    complete = [ex for ex in examples if has_sensors(ex)]
    ef = early_fusion(*store_of(complete, ["NONE"]), "NONE", cost=1.0)
    assert ef.is_trivial and ef.standardizer is None
    assert "trivial:single_class" in ef.notes
    store, rows = store_of(examples)
    assert np.all(predict_proba_features(ef, store.matrix(ef.sensors, rows)) == PROBABILITY_CLIP)


def test_late_fusion_average_matches_per_example_means(mixed):
    examples, comps = mixed
    complete = [ex for ex in examples if has_sensors(ex)]
    assert np.array_equal(
        late_fusion_average(comps, *store_of(complete)), _inline_lfa(comps, complete)
    )
    store, rows = store_of(examples)
    with pytest.raises(ValueError, match="missing sensors"):
        late_fusion_average(comps, store, rows)

    # loc is trivial: it counts as present without features, so the minutes
    # that lack only loc are scored, with all six components
    no_loc = [ex for ex in examples if has_sensors(ex, [s for s in SENSORS if s != "loc"])]
    assert any(not has_sensors(ex, ("loc",)) for ex in no_loc)
    p = late_fusion_average(comps, *store_of(no_loc))
    for i, ex in enumerate(no_loc):
        want = np.mean([_rowwise_probability(comps[s], ex, s) for s in SENSORS])
        assert p[i] == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def captured_cv():
    """``cross_validate`` on the small corpus, with the held-out pool and the
    EF and LFL fold models (``None`` for a degenerate LFL) of every call."""
    examples = _small_cv_dataset()
    labels = ["COMMON", "MEDIUM", "RARE"]
    systems = list(SENSORS) + ["ef", "lfa", "lfl"]
    partition = partition_folds(user_ids(examples), k=5, seed=1)
    captured = {"ef": [], "lfl": []}
    fit_labels, fit_lfl = evaluation.fit_labels, evaluation.late_fusion_learned

    def held_out():
        return core_examples(ordered(examples, fold["fold_users"]))

    def capture_ef(store, sensors, *args, **kwargs):
        fits = fit_labels(store, sensors, *args, **kwargs)
        if tuple(sensors) == SENSORS:  # the EF fit; the others are single-sensor
            captured["ef"] += [(held_out(), label, model) for label, model in fits.items()]
        return fits

    def capture_lfl(store, rows, label, components, **kwargs):
        entry = [held_out(), label, dict(components), None]
        captured["lfl"].append(entry)
        entry[3] = fit_lfl(store, rows, label, components, **kwargs)
        return entry[3]

    with pytest.MonkeyPatch.context() as monkeypatch:
        fold = _follow_folds(monkeypatch)
        monkeypatch.setattr(evaluation, "fit_labels", capture_ef)
        monkeypatch.setattr(evaluation, "late_fusion_learned", capture_lfl)
        store = example_store(examples, labels=labels)
        results = cross_validate(store, labels, systems, partition, seed=9)
    assert len(captured["ef"]) == len(captured["lfl"]) == 5 * len(labels)
    return labels, results, captured


def _summed(entries, probabilities):
    totals = {}
    for pool, label, *models in entries:
        y = label_vector(pool, label) > 0
        counts = count_outcomes(y, probabilities(pool, *models) > 0.5)
        totals[label] = totals.get(label, MetricCounts()) + counts
    return totals


def test_cross_validate_ef_and_lfa_counts_match_inline_scoring(captured_cv):
    labels, results, captured = captured_cv
    ef = _summed(captured["ef"], lambda pool, model: _inline_ef(model, pool))
    lfa = _summed(
        [(pool, label, comps) for pool, label, comps, _ in captured["lfl"]],
        lambda pool, comps: _inline_lfa(comps, pool),
    )
    for label in labels:
        assert results["ef"][label].counts == ef[label], label
        assert results["lfa"][label].counts == lfa[label], label


@pytest.mark.xfail(
    strict=True,
    reason="cross_validate trains the LFL second layer on component columns in "
    "sorted-name order but scores it on SENSORS-order columns; fixing the "
    "column order moves LFL counts, so it must land together with re-recorded "
    "benchmark references",
)
def test_cross_validate_lfl_counts_match_predict_late_fusion_learned(captured_cv):
    labels, results, captured = captured_cv

    def library(pool, comps, model):
        if model is None:  # degenerate fold: the always-negative classifier
            return np.zeros(len(pool))
        return predict_late_fusion_learned(model, *store_of(pool))

    lfl = _summed(captured["lfl"], library)
    for label in labels:
        assert results["lfl"][label].counts == lfl[label], label
