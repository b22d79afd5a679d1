"""The columnar fold loop against the per-example loop it replaced.

``_per_example_fold`` is ``evaluation._fold_models_and_counts`` as it was
before the feature store: it selects examples one by one, rebuilds every
feature matrix per label and fits one standardizer per model; the fusion
functions run on stores it builds from the fold's training examples and
held-out pool. It is a test oracle only. ``cross_validate`` must give the
same counts, flags and chosen costs with either fold loop, in both modes
and with threads, and the flags and chosen costs it reads off the fitted
models must be the ones the per-example loop keeps by hand. The
work-count guard holds the fold loop to one standardizer per (fold,
sensor) plus one for EF, and a store built from feature tables to no
feature lookup on an example.
"""

from dataclasses import replace

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.data as data
import ctxfuse.evaluation as evaluation
from ctxfuse.classifier import (
    PROBABILITY_CLIP,
    SensorModel,
    TrivialModel,
    fit_standardizer,
    predict_proba_features,
    predict_proba_matrix,
    select_cost,
    train_linear,
)
from ctxfuse.cli import _read_labels_file
from ctxfuse.data import FeatureStore
from ctxfuse.evaluation import (
    FoldPartition,
    count_outcomes,
    cross_validate,
    derive_seed,
    loo_partition,
)
from ctxfuse.fusion import fit_labels, late_fusion_average, late_fusion_learned
from ctxfuse.ingestion import load_feature_tables, load_fold_partition
from ctxfuse.model import FEATURE_DIMS, SENSORS
from perfbench_files import perfbench_module
from synth import (
    by_user,
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
    store_of,
    table_of,
    user_ids,
)

SYSTEMS = list(SENSORS) + ["ef", "lfa", "lfl"]


def _per_example_fold(examples, labels, systems, fold_users, train_users, *, cost, seed, fold_index):
    """``(counts, models, flags, costs)``: the fold loop's counts and fitted
    models, plus each label's flags and chosen costs kept by hand from the
    fits' training labels alone, as the fold loop once kept them."""
    train_examples = ordered(examples, train_users)
    pool = core_examples(ordered(examples, fold_users))
    if not pool:
        return {}, [], {}, {}

    needed_sensors = set(s for s in systems if s in SENSORS)
    if {"lfa", "lfl"} & set(systems):
        needed_sensors |= set(SENSORS)

    sensor_train = {
        s: [ex for ex in train_examples if has_sensors(ex, (s,))] for s in needed_sensors
    }
    test_X = {s: feature_matrix(pool, s) for s in needed_sensors}
    train_store, pool_store = store_of(train_examples, labels), store_of(pool)
    complete_train = core_examples(train_examples)

    counts = {sys: {} for sys in systems}
    models = []
    flags = {lbl: [] for lbl in labels}
    costs = {lbl: {} for lbl in labels}

    def keep(label, system, model, layer, y):
        """Record the fit; a single class is trivial, a trivial layer on two
        classes is LFL's constant inputs, and a learned layer chose its cost
        (the fallback C = 1 below 3 examples of either class in cv5)."""
        models.append((system, model))
        n_pos = int(np.sum(y))
        if n_pos in (0, len(y)):
            flags[label].append(f"fold{fold_index}:{system}:trivial")
        elif isinstance(layer, TrivialModel):
            flags[label].append(f"fold{fold_index}:{system}:degenerate_inputs")
        else:
            costs[label][f"fold{fold_index}:{system}"] = layer.cost
            if cost is None and min(n_pos, len(y) - n_pos) < 3:
                flags[label].append(f"fold{fold_index}:{system}:cost_fallback")

    for label in labels:
        y_true = label_vector(pool, label) > 0

        sensor_probs = {}
        single_models = {}
        for s in sorted(needed_sensors):
            exs = sensor_train[s]
            model = fit_single_sensor_model(
                s,
                label,
                feature_matrix(exs, s),
                label_vector(exs, label),
                cost=cost,
                seed=derive_seed(seed, fold_index, label, s),
            )
            single_models[s] = model
            keep(label, s, model, model.model, label_vector(exs, label))
            sensor_probs[s] = predict_proba_features(model, test_X[s])

        for s in systems:
            if s in SENSORS:
                counts[s][label] = count_outcomes(y_true, sensor_probs[s] > 0.5)

        if "ef" in systems:
            ef = early_fusion(
                *train_store,
                label,
                cost=cost,
                seed=derive_seed(seed, fold_index, label, "ef"),
            )
            keep(label, "ef", ef, ef.model, label_vector(complete_train, label))
            p_ef = predict_proba_features(ef, concat_feature_matrix(pool))
            counts["ef"][label] = count_outcomes(y_true, p_ef > 0.5)

        if "lfa" in systems:
            components = {s: single_models[s] for s in SENSORS}
            p_lfa = late_fusion_average(components, *pool_store)
            counts["lfa"][label] = count_outcomes(y_true, p_lfa > 0.5)

        if "lfl" in systems:
            lfl = late_fusion_learned(
                *train_store,
                label,
                single_models,
                cost=cost,
                seed=derive_seed(seed, fold_index, label, "lfl"),
            )
            keep(label, "lfl", lfl, lfl.second_layer, label_vector(complete_train, label))
            P = np.vstack([sensor_probs[s] for s in SENSORS]).T
            p_lfl = predict_proba_matrix(lfl.second_layer, P)
            counts["lfl"][label] = count_outcomes(y_true, p_lfl > 0.5)

    return counts, models, flags, costs


def _mixed_dataset(seed=7):
    """Six users, 30 minutes each. ``u1``'s phone motion is raw samples, not
    features; ``u5`` never wears the watch (no all-six-sensor minute). Every
    seventh minute lacks location. Labels: ``COMMON`` (a signal in acc and
    the watch), ``NONE`` (never relevant: every model trivial), ``FEW`` (two
    relevant minutes: the cost grid falls back) and ``PARTIAL`` (relevant
    only on minutes without location: EF and LFL labels single-class)."""
    rng = np.random.default_rng(seed)
    examples = []
    for u in range(6):
        user = f"u{u}"
        for i in range(30):
            h = rng.normal()
            vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
            vals["acc"][0] += 1.5 * h
            vals["wacc"][0] += h
            no_loc = i % 7 == 3
            if no_loc:
                vals["loc"][:] = np.nan  # fully masked: absent
            if user == "u5":
                del vals["wacc"]
            labels = {
                "COMMON": int(h > 0.2),
                "NONE": 0,
                "FEW": int(user == "u0" and i in (4, 9)),
                "PARTIAL": int(no_loc and h > -0.5),
            }
            ex = feature_example(user, 1_600_000_000 + 60 * i, vals, labels)
            if user == "u1":
                raw = {
                    "acc": make_triaxial(rng, n=96, scale=1.0 + (h > 0.2)),
                    "gyro": make_triaxial(rng, n=96),
                }
                feats = {s: fv for s, fv in ex.features.items() if s not in raw}
                ex = replace(ex, sensor_data=raw, features=feats)
            examples.append(ex)
    return ordered(examples)


def _flat_complete_dataset(seed=8):
    """Four users whose all-six-sensor minutes share one feature vector, so
    every LFL training input is constant although its label has both
    classes (``lfl:degenerate_inputs``); the other minutes lack location."""
    rng = np.random.default_rng(seed)
    flat = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
    examples = []
    for u in range(4):
        for i in range(24):
            h = rng.normal()
            if i % 3 == 0:
                vals = {s: v.copy() for s, v in flat.items()}
                y = (i // 3) % 2
            else:
                vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS if s != "loc"}
                vals["acc"][0] += 2 * h
                y = int(h > 0)
            examples.append(feature_example(f"u{u}", 1_600_000_000 + 60 * i, vals, {"T": y}))
    return ordered(examples)


CASES = {
    "mixed": (_mixed_dataset, ["COMMON", "NONE", "FEW", "PARTIAL"],
              FoldPartition(folds=(("u0", "u3"), ("u1",), ("u2",), ("u4",), ("u5",)))),
    "flat": (_flat_complete_dataset, ["T"],
             FoldPartition(folds=(("u0",), ("u1",), ("u2",), ("u3",)))),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, labels, partition = CASES[request.param]
    return request.param, make(), labels, partition


def _run(examples, labels, partition, mode, jobs=1, oracle=False):
    """``cross_validate``, the cost-grid fallbacks it took and, with
    ``oracle``, every fold run through ``_per_example_fold``: each label's
    flags and chosen costs as that fold loop kept them by hand."""
    fallbacks = []
    kept = {label: ([], {}) for label in labels}
    select_cost = classifier.select_cost

    def recording(*args, **kwargs):
        result = select_cost(*args, **kwargs)
        fallbacks.append(result[1])
        return result

    def per_example(store, *args, **kwargs):
        counts, models, flags, costs = _per_example_fold(examples, *args, **kwargs)
        for label, (kept_flags, kept_costs) in kept.items():
            kept_flags += flags.get(label, [])
            kept_costs.update(costs.get(label, {}))
        return counts, models

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "select_cost", recording)
        if oracle:
            mp.setattr(evaluation, "_fold_counts", per_example)
        store = example_store(examples, labels=labels)
        out = cross_validate(store, labels, SYSTEMS, partition, mode=mode, seed=3, jobs=jobs)
    return out, any(fallbacks), kept


@pytest.mark.parametrize("mode", ["cv5", "loo"])
def test_columnar_fold_loop_matches_per_example_oracle(case, mode):
    name, examples, labels, partition = case
    if mode == "loo":
        partition = loo_partition(user_ids(examples))
    want, oracle_fell_back, kept = _run(examples, labels, partition, mode, oracle=True)
    got, fell_back, _ = _run(examples, labels, partition, mode)
    threaded, _, _ = _run(examples, labels, partition, mode, jobs=2)

    for system in SYSTEMS:
        for label in labels:
            w = want[system][label]
            assert (list(w.flags), w.chosen_costs) == kept[label], (system, label)
            for run in (got, threaded):
                g = run[system][label]
                assert g.counts == w.counts, (system, label)
                assert g.flags == w.flags, (system, label)
                assert g.chosen_costs == w.chosen_costs, (system, label)
                assert (g.n_examples, g.n_subjects) == (w.n_examples, w.n_subjects), label
    assert fell_back == oracle_fell_back

    # the cases these datasets exist to reach (flags are per label)
    flags = {label: got["lfl"][label].flags for label in labels}
    if name == "flat":
        assert any(fl.endswith(":lfl:degenerate_inputs") for fl in flags["T"])
        return
    assert any(fl.endswith(":acc:trivial") for fl in flags["NONE"])
    assert any(fl.endswith(":lfl:trivial") for fl in flags["PARTIAL"])
    assert not any(fl.endswith(":acc:trivial") for fl in flags["PARTIAL"])
    assert mode == "loo" or fell_back  # loo fits at a fixed cost: no grid
    # two relevant minutes: in cv5 the grid falls back to C = 1, and the fit keeps that cost
    fallen_back = [fl.rsplit(":", 1)[0] for fl in flags["FEW"] if fl.endswith(":cost_fallback")]
    assert bool(fallen_back) == (mode == "cv5")
    assert all(got["lfl"]["FEW"].chosen_costs[key] == 1.0 for key in fallen_back)
    store = example_store(examples)
    assert not evaluation._held_out_pool(store, ["u5"]).size
    assert all(ex.sensor_data.get("acc") is not None for ex in ordered(examples, ["u1"]))


def test_feature_store_matches_per_example_assembly():
    examples = _mixed_dataset()
    labels = ["COMMON", "FEW"]
    tables = [table_of(exs) for exs in by_user(examples).values()]
    store = FeatureStore.from_tables(tables, labels=labels)
    for s in SENSORS:
        assert np.array_equal(store.features[s], feature_matrix(examples, s), equal_nan=True)
        assert store.present[s].tolist() == [has_sensors(ex, (s,)) for ex in examples]
    for label in labels:
        assert np.array_equal(store.relevant[label], label_vector(examples, label))
    assert store.complete().tolist() == [has_sensors(ex) for ex in examples]
    assert store.timestamps.tolist() == [ex.timestamp for ex in examples]
    rows = store.rows(["u4", "u1"])
    assert [examples[i] for i in rows] == ordered(examples, ["u1", "u4"])
    assert np.array_equal(store.matrix(SENSORS, rows),
                          concat_feature_matrix(ordered(examples, ["u1", "u4"])), equal_nan=True)


def test_fold_loop_work_counts_on_golden_corpus(tmp_path, monkeypatch):
    corpus = perfbench_module("corpus")
    root, info = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, True, tmp_path / "inputs")
    labels = _read_labels_file(root / "labels.txt")
    store = FeatureStore.from_tables(load_feature_tables(root / "features"), labels=labels)
    partition = load_fold_partition(root / "partition.txt")

    standardizers = []
    fit_standardizer = classifier.fit_standardizer
    monkeypatch.setattr(classifier, "fit_standardizer",
                        lambda X: standardizers.append(1) or fit_standardizer(X))
    lookups = []
    monkeypatch.setattr(data, "sensor_features", lambda ex, sensor: lookups.append(sensor))
    out = cross_validate(store, labels, list(corpus.ALL_SYSTEMS), partition)

    assert len(out["lfl"]) == len(labels)
    assert len(standardizers) == len(partition) * (len(SENSORS) + 1)
    assert lookups == []


MIXED_LABELS = ["COMMON", "NONE", "FEW", "PARTIAL"]


def _fit_alone(label, sensors, X, y, *, cost, seed) -> SensorModel:
    """One label's model fit on its own from the public primitives: its own
    standardizer, the cost grid (or ``cost``), ``train_linear`` started from
    the grid's solution at the chosen cost; a single class gives the trivial
    model, which has no standardizer."""
    n_pos = int(y.sum())
    if n_pos in (0, len(y)):
        return SensorModel(label, sensors, None, TrivialModel(float(n_pos > 0)), ("trivial:single_class",))
    standardizer = fit_standardizer(X)
    Z = standardizer.transform(X)
    notes, start = (), None
    if cost is None:
        cost, fell_back, start = select_cost(Z, y, seed=seed)
        notes = ("cost_fallback:C=1",) if fell_back else ()
    return SensorModel(label, sensors, standardizer, train_linear(Z, y, cost, start=start), notes)


def _assert_same_model(got: SensorModel, want: SensorModel):
    assert (got.label, got.sensors, got.notes) == (want.label, want.sensors, want.notes)
    assert (got.standardizer is None) == (want.standardizer is None)
    if got.standardizer is not None:
        assert got.standardizer.means.tobytes() == want.standardizer.means.tobytes()
        assert got.standardizer.stds.tobytes() == want.standardizer.stds.tobytes()
    assert type(got.model) is type(want.model)
    if isinstance(want.model, TrivialModel):
        assert got.model == want.model
    else:
        assert got.model.weights.tobytes() == want.model.weights.tobytes()
        assert (got.model.intercept, got.model.cost) == (want.model.intercept, want.model.cost)


@pytest.mark.parametrize("cost", [None, 1.0], ids=["grid", "fixed"])
@pytest.mark.parametrize("sensors", [("acc",), ("loc",), SENSORS], ids=["acc", "loc", "ef"])
def test_fit_labels_equals_a_fit_per_label_alone(sensors, cost):
    store = example_store(_mixed_dataset(), labels=MIXED_LABELS)
    train = store.rows(["u0", "u1", "u2", "u5"])
    rows = train[store.complete(sensors)[train]]

    def seeds(label):
        return derive_seed(1, label)

    fits = fit_labels(store, sensors, rows, MIXED_LABELS, cost=cost, seeds=seeds)
    assert list(fits) == MIXED_LABELS
    for label, model in fits.items():
        X, y = store.matrix(sensors, rows), store.relevant[label][rows]
        want = _fit_alone(label, sensors, X, y, cost=cost, seed=seeds(label))
        _assert_same_model(model, want)
        if len(sensors) == 1:
            _assert_same_model(model, fit_single_sensor_model(sensors[0], label, X, y, cost=cost, seed=seeds(label)))

    # the cases the mixed dataset reaches: a trivial label, a grid fallback
    # (grid only) and, without location, a label with one class
    assert fits["NONE"].is_trivial
    assert fits["PARTIAL"].is_trivial == ("loc" in sensors)
    assert (fits["FEW"].notes == ("cost_fallback:C=1",)) == (cost is None)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_fit_labels_on_fewer_than_two_rows_is_trivial(n_rows):
    store = example_store(_mixed_dataset(), labels=MIXED_LABELS)
    rows = store.rows(["u0"])
    rows = rows[store.relevant["FEW"][rows] == 1][:n_rows]  # a relevant FEW minute
    scored = store.rows(["u3"])
    fits = fit_labels(store, ("acc",), rows, ["FEW", "NONE"], cost=None, seeds=lambda _: 0)
    for label, model in fits.items():
        X, y = store.features["acc"][rows], store.relevant[label][rows]
        _assert_same_model(model, fit_single_sensor_model("acc", label, X, y))
        assert model.is_trivial and model.standardizer is None
        p = predict_proba_features(model, store.features["acc"][scored])
        positive = label == "FEW" and n_rows == 1
        assert np.all(p == (1.0 - PROBABILITY_CLIP if positive else PROBABILITY_CLIP))
        assert p.shape == scored.shape
