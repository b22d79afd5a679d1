"""The columnar fold loop against the per-example loop it replaced.

``_per_example_fold`` is ``evaluation._fold_models_and_counts`` as it was
before the feature store: it selects examples one by one, rebuilds every
feature matrix per label and fits one standardizer per model. It is a test
oracle only. ``cross_validate`` must give the same counts, flags and chosen
costs with either fold loop, in both modes and with threads. The work-count
guard holds the fold loop to one standardizer per (fold, sensor) plus one
for EF, and to one presence check per (example, sensor).
"""

from collections import Counter

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.evaluation as evaluation
from ctxfuse.classifier import (
    DegenerateLabelError,
    fit_single_sensor_model,
    predict_proba_features,
    predict_proba_matrix,
)
from ctxfuse.cli import _load_dataset, _read_labels_file
from ctxfuse.data import FeatureStore, label_vector
from ctxfuse.evaluation import (
    FoldPartition,
    count_outcomes,
    cross_validate,
    derive_seed,
    loo_partition,
)
from ctxfuse.fusion import early_fusion, late_fusion_average, late_fusion_learned, predict_early_fusion
from ctxfuse.ingestion import load_fold_partition
from ctxfuse.model import FEATURE_DIMS, SENSORS, Dataset, Example
from perfbench_files import perfbench_module
from synth import concat_feature_matrix, feature_example, feature_matrix, make_triaxial

SYSTEMS = list(SENSORS) + ["ef", "lfa", "lfl"]


def _per_example_fold(dataset, labels, systems, fold_users, train_users, *, cost, seed, fold_index):
    train_examples = dataset.examples(train_users)
    pool = Dataset.from_examples(dataset.examples(fold_users)).core_subset().examples()
    if not pool:
        return {}, {}, {}

    needed_sensors = set(s for s in systems if s in SENSORS)
    if {"lfa", "lfl"} & set(systems):
        needed_sensors |= set(SENSORS)

    sensor_train = {
        s: [ex for ex in train_examples if ex.has_sensor(s)] for s in needed_sensors
    }
    test_X = {s: feature_matrix(pool, s) for s in needed_sensors}

    counts = {sys: {} for sys in systems}
    flags = {lbl: [] for lbl in labels}
    costs = {lbl: {} for lbl in labels}

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
            if model.is_trivial:
                flags[label].append(f"fold{fold_index}:{s}:trivial")
            else:
                costs[label][s] = model.model.cost
            sensor_probs[s] = predict_proba_features(model, test_X[s])

        for s in systems:
            if s in SENSORS:
                counts[s][label] = count_outcomes(y_true, sensor_probs[s] > 0.5)

        if "ef" in systems:
            ef = early_fusion(
                train_examples,
                label,
                cost=cost,
                seed=derive_seed(seed, fold_index, label, "ef"),
            )
            if ef.is_trivial:
                flags[label].append(f"fold{fold_index}:ef:trivial")
            else:
                costs[label]["ef"] = ef.model.cost
            counts["ef"][label] = count_outcomes(y_true, predict_early_fusion(ef, pool) > 0.5)

        if "lfa" in systems:
            components = {s: single_models[s] for s in SENSORS}
            p_lfa = late_fusion_average(components, pool)
            counts["lfa"][label] = count_outcomes(y_true, p_lfa > 0.5)

        if "lfl" in systems:
            try:
                lfl = late_fusion_learned(
                    train_examples,
                    label,
                    single_models,
                    cost=cost,
                    seed=derive_seed(seed, fold_index, label, "lfl"),
                )
            except DegenerateLabelError:
                flags[label].append(f"fold{fold_index}:lfl:trivial")
                p_lfl = np.zeros(len(pool))
            else:
                if "degenerate_inputs" in lfl.notes:
                    flags[label].append(f"fold{fold_index}:lfl:degenerate_inputs")
                else:
                    costs[label]["lfl"] = lfl.second_layer.cost
                P = np.vstack([sensor_probs[s] for s in SENSORS]).T
                p_lfl = predict_proba_matrix(lfl.second_layer, P)
            counts["lfl"][label] = count_outcomes(y_true, p_lfl > 0.5)

    return counts, flags, costs


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
                    "acc": make_triaxial(rng, n=96, unit="G", scale=1.0 + (h > 0.2)),
                    "gyro": make_triaxial(rng, n=96, unit="rad/s"),
                }
                feats = {s: fv for s, fv in ex.precomputed_features.items() if s not in raw}
                ex = Example(user_id=user, timestamp=ex.timestamp, sensor_data=raw,
                             precomputed_features=feats, labels=ex.labels)
            examples.append(ex)
    return Dataset.from_examples(examples)


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
    return Dataset.from_examples(examples)


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


def _run(dataset, labels, partition, mode, jobs=1, oracle=False):
    """``cross_validate`` and the cost-grid fallbacks it took; with
    ``oracle``, every fold runs through ``_per_example_fold``."""
    fallbacks = []
    select_cost = classifier.select_cost

    def recording(*args, **kwargs):
        result = select_cost(*args, **kwargs)
        fallbacks.append(result[1])
        return result

    def per_example(store, *args, **kwargs):
        return _per_example_fold(dataset, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "select_cost", recording)
        if oracle:
            mp.setattr(evaluation, "_fold_counts", per_example)
        out = cross_validate(dataset, labels, SYSTEMS, partition, mode=mode, seed=3, jobs=jobs)
    return out, any(fallbacks)


@pytest.mark.parametrize("mode", ["cv5", "loo"])
def test_columnar_fold_loop_matches_per_example_oracle(case, mode):
    name, dataset, labels, partition = case
    if mode == "loo":
        partition = loo_partition(dataset.users)
    want, oracle_fell_back = _run(dataset, labels, partition, mode, oracle=True)
    got, fell_back = _run(dataset, labels, partition, mode)
    threaded, _ = _run(dataset, labels, partition, mode, jobs=2)

    for system in SYSTEMS:
        for label in labels:
            w = want[system][label]
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
    store = FeatureStore.from_examples(dataset.examples())
    assert not evaluation._held_out_pool(store, ["u5"]).size
    assert all(ex.sensor_data.get("acc") is not None for ex in dataset.examples(["u1"]))


def test_feature_store_matches_per_example_assembly():
    dataset = _mixed_dataset()
    examples = dataset.examples()
    labels = ["COMMON", "FEW"]
    store = FeatureStore.from_examples(examples, labels=labels)
    for s in SENSORS:
        assert np.array_equal(store.features[s], feature_matrix(examples, s), equal_nan=True)
        assert store.present[s].tolist() == [ex.has_sensor(s) for ex in examples]
    for label in labels:
        assert np.array_equal(store.relevant[label], label_vector(examples, label))
    assert store.complete().tolist() == [all(ex.has_sensor(s) for s in SENSORS) for ex in examples]
    rows = store.rows(["u4", "u1"])
    assert [examples[i] for i in rows] == dataset.examples(["u1", "u4"])
    assert np.array_equal(store.matrix(SENSORS, rows),
                          concat_feature_matrix(dataset.examples(["u1", "u4"])), equal_nan=True)


def test_fold_loop_work_counts_on_golden_corpus(tmp_path, monkeypatch):
    corpus = perfbench_module("corpus")
    root, info = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, True, tmp_path / "inputs")
    dataset = _load_dataset(root / "features")
    labels = _read_labels_file(root / "labels.txt")
    partition = load_fold_partition(root / "partition.txt")

    standardizers = []
    fit_standardizer = classifier.fit_standardizer
    monkeypatch.setattr(classifier, "fit_standardizer",
                        lambda X: standardizers.append(1) or fit_standardizer(X))
    presence = Counter()
    has_sensor = Example.has_sensor

    def counting(self, sensor):
        presence[id(self), sensor] += 1
        return has_sensor(self, sensor)

    monkeypatch.setattr(Example, "has_sensor", counting)
    out = cross_validate(dataset, labels, list(corpus.ALL_SYSTEMS), partition)

    assert len(out["lfl"]) == len(labels)
    assert len(standardizers) == len(partition) * (len(SENSORS) + 1)
    assert presence and max(presence.values()) == 1
    assert len(presence) <= len(dataset) * len(SENSORS)
