"""The personalization protocol on the feature store, and the per-example
path it replaced.

``_per_example_personalization`` is ``evaluate_personalization`` as it was
before the store: EF models trained per label through ``early_fusion`` on
a store of their own examples, and scored on the per-example feature
matrix of the user's deployment examples (split by ``_split_examples``).
``_per_example_protocol`` is the CLI's use of it. They are test oracles
only: ``personalize`` must give the same scores, and score bit-identical
probabilities, which :func:`scored_probabilities` records.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ctxfuse.cli as cli
import ctxfuse.personalization as personalization
from ctxfuse.classifier import predict_proba_features
from ctxfuse.cli import _read_labels_file
from ctxfuse.data import FeatureStore
from ctxfuse.evaluation import compute_metrics, count_outcomes, derive_seed
from ctxfuse.ingestion import load_feature_tables, load_fold_partition
from ctxfuse.model import RELEVANT, SENSORS
from ctxfuse.personalization import (
    ModelScore,
    PersonalizationResult,
    personalization_table,
    personalize,
    split_user_timeline,
)
from perfbench_files import perfbench_module
from synth import (
    concat_feature_matrix,
    drift_user_scenario,
    early_fusion,
    example_store,
    has_sensors,
    label_vector,
    ordered,
    random_full_example,
    store_of,
    table_examples,
    user_ids,
)

REFERENCE = Path(__file__).parent / "reference" / "personalization-cv5-fusion-0.json"


def _split_examples(user_examples):
    """``(adaptation, deployment)``: sorted by timestamp (stable), the first
    ceil(n/2) to adaptation."""
    ordered_examples = sorted(user_examples, key=lambda ex: ex.timestamp)
    cut = (len(ordered_examples) + 1) // 2
    return tuple(ordered_examples[:cut]), tuple(ordered_examples[cut:])


def _chance_score():
    return ModelScore(ba=0.5, f1=0.0)


def scored_probabilities(store, user, labels, train_users, **kwargs) -> tuple:
    """``(results, probabilities)`` of :func:`personalize`, with
    ``probabilities[label]`` the ``{"universal", "individual", "adapted"}``
    deployment probabilities it scored that label on (the individual entry
    None for a trivial individual model), recorded at the call that scores
    them."""
    scored = []
    result = personalization._result

    def recording(y_true, p_universal, p_individual, p_adapted, n_user_positives):
        scored.append({"universal": p_universal, "individual": p_individual, "adapted": p_adapted})
        return result(y_true, p_universal, p_individual, p_adapted, n_user_positives)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(personalization, "_result", recording)
        results = personalize(store, user, labels, train_users, **kwargs)
    assert len(scored) == len(labels)
    return results, dict(zip(labels, scored))


def _scored(counts):
    report = compute_metrics(counts)
    return ModelScore(ba=float(report.ba), f1=float(report.f1))


def _per_example_personalization(universal_models, adaptation, deployment, labels, *, seed):
    deploy = [ex for ex in deployment if has_sensors(ex)]
    if not deploy:
        raise ValueError("no complete-sensor deployment examples")
    adapt_complete = [ex for ex in adaptation if has_sensors(ex)]
    adapt_store = store_of(adapt_complete, labels)
    X_deploy = concat_feature_matrix(deploy)

    results, probabilities = {}, {}
    for label in labels:
        p_universal = predict_proba_features(universal_models[label], X_deploy)
        y_true = label_vector(deploy, label) > 0
        universal_score = _scored(count_outcomes(y_true, p_universal > 0.5))

        individual = None
        if adapt_complete:
            individual = early_fusion(*adapt_store, label, seed=seed)
        if individual is None or individual.is_trivial:
            individual_score = _chance_score()
            p_individual = None
            p_adapted = p_universal
        else:
            p_individual = predict_proba_features(individual, X_deploy)
            individual_score = _scored(count_outcomes(y_true, p_individual > 0.5))
            p_adapted = (p_universal + p_individual) / 2.0

        adapted_score = _scored(count_outcomes(y_true, p_adapted > 0.5))
        n_pos = sum(
            1 for ex in list(adaptation) + list(deployment) if ex.label_value(label) == RELEVANT
        )
        results[label] = PersonalizationResult(
            universal=universal_score,
            individual=individual_score,
            adapted=adapted_score,
            n_user_positives=n_pos,
        )
        probabilities[label] = {"universal": p_universal, "individual": p_individual, "adapted": p_adapted}
    return results, probabilities


def _per_example_protocol(examples, user, labels, train_users, *, seed):
    train = store_of(ordered(examples, train_users), labels)
    universal = {
        label: early_fusion(*train, label, seed=derive_seed(seed, "universal", label))
        for label in labels
    }
    adaptation, deployment = _split_examples(ordered(examples, [user]))
    return _per_example_personalization(
        universal, adaptation, deployment, labels, seed=derive_seed(seed, "individual", user)
    )


def _assert_same_results(got, want, labels):
    """``got`` and ``want`` are ``(results, probabilities)`` pairs, as
    :func:`scored_probabilities` and the oracles return them."""
    for label in labels:
        g, w = got[0][label], want[0][label]
        assert g.n_user_positives == w.n_user_positives, label
        for model in ("universal", "individual", "adapted"):
            gs, ws = getattr(g, model), getattr(w, model)
            # bitwise, so that NaN (an undefined score) equals NaN
            assert np.array([gs.ba, gs.f1]).tobytes() == np.array([ws.ba, ws.f1]).tobytes(), (label, model)
            gp, wp = got[1][label][model], want[1][label][model]
            assert (gp is None) == (wp is None), (label, model)
            if gp is not None:
                assert gp.tobytes() == wp.tobytes(), (label, model)


def _user_store(n, user="u0", order=None):
    rng = np.random.default_rng(0)
    examples = [random_full_example(rng, user, 100 + t) for t in range(n)]
    if order is not None:
        examples = [examples[i] for i in order]
    return example_store(examples)


def _timestamps(store, rows):
    return store.timestamps[rows].tolist()


def test_split_four_examples():
    store = _user_store(4)
    adaptation, deployment = split_user_timeline(store, "u0")
    assert _timestamps(store, adaptation) == [100, 101]
    assert _timestamps(store, deployment) == [102, 103]


def test_split_odd_count_gives_adaptation_the_extra():
    adaptation, deployment = split_user_timeline(_user_store(5), "u0")
    assert len(adaptation) == 3
    assert len(deployment) == 2


def test_split_is_order_invariant():
    a = _user_store(7)
    b = _user_store(7, order=(3, 0, 6, 2, 5, 1, 4))
    for half_a, half_b in zip(split_user_timeline(a, "u0"), split_user_timeline(b, "u0")):
        assert _timestamps(a, half_a) == _timestamps(b, half_b)


def test_split_needs_two_examples():
    with pytest.raises(ValueError):
        split_user_timeline(_user_store(1), "u0")


def test_split_takes_only_the_users_rows():
    rng = np.random.default_rng(0)
    examples = [random_full_example(rng, u, 100 + t) for t in range(2) for u in ("u0", "u1")]
    store = example_store(examples)
    rows = np.concatenate(split_user_timeline(store, "u1"))
    assert store.users[rows].tolist() == ["u1", "u1"]


@pytest.fixture(scope="module")
def drift():
    background, test_user, label = drift_user_scenario(seed=30)
    labels = [label, "NEVER_SEEN"]
    store = example_store(ordered(background + test_user), labels=labels)
    train_users = user_ids(background)
    results, probabilities = scored_probabilities(store, "tu", labels, train_users, seed=2)
    return store, train_users, label, results, probabilities


def test_zero_positive_adaptation_label_reports_chance(drift):
    *_, results, probabilities = drift
    r = results["NEVER_SEEN"]
    assert probabilities["NEVER_SEEN"]["individual"] is None  # trivial
    assert r.individual.ba == 0.5
    assert r.individual.f1 == 0.0
    # the adapted model falls back to the universal probabilities alone
    assert np.array_equal(
        probabilities["NEVER_SEEN"]["adapted"], probabilities["NEVER_SEEN"]["universal"]
    )


def test_adapted_probability_is_exact_mean(drift):
    _, _, label, _, probabilities = drift
    pr = probabilities[label]
    assert pr["individual"] is not None
    assert np.array_equal(pr["adapted"], (pr["universal"] + pr["individual"]) / 2.0)


def test_adaptation_with_enough_positives_helps(drift):
    store, _, label, results, _ = drift
    r = results[label]
    adaptation, _ = split_user_timeline(store, "tu")
    assert store.relevant[label][adaptation].sum() >= 300
    assert r.adapted.ba >= max(r.universal.ba, r.individual.ba) - 0.02
    assert r.individual.ba > r.universal.ba  # the drift makes individual win


def test_identical_models_average_to_themselves(monkeypatch):
    _, test_user, label = drift_user_scenario(
        seed=40, n_background_users=1, n_per_background=2, n_test_user=400
    )
    # "bg" holds a copy of the test user's adaptation half; with one seed for
    # every fit, the universal and the individual model coincide
    adaptation, _ = _split_examples(test_user)
    clone = [replace(ex, user_id="bg") for ex in adaptation]
    store = example_store(ordered(clone + test_user), labels=[label])
    monkeypatch.setattr(personalization, "derive_seed", lambda *parts: 2)
    pr = scored_probabilities(store, "tu", [label], ["bg"])[1][label]
    assert pr["universal"].tobytes() == pr["individual"].tobytes()
    assert pr["adapted"].tobytes() == pr["universal"].tobytes()


def test_overlapping_split_rejected(monkeypatch):
    def overlapping(store, user):
        adaptation, deployment = split_user_timeline(store, user)
        return np.append(adaptation, deployment[0]), deployment

    monkeypatch.setattr(personalization, "split_user_timeline", overlapping)
    with pytest.raises(AssertionError, match="overlap"):
        personalize(_user_store(4), "u0", [], [])


def test_universal_trained_on_test_user_rejected(drift):
    store, _, label, _, _ = drift
    with pytest.raises(AssertionError, match="trained on the test user"):
        personalize(store, "tu", [label], ["bg0", "tu"])


def test_no_leakage_with_proper_train_users(drift, monkeypatch):
    store, train_users, label, _, _ = drift
    fitted_users = []
    fit = personalization.fit_labels

    def recording(store, sensors, rows, *args, **kwargs):
        fitted_users.append(set(store.users[rows].tolist()))
        return fit(store, sensors, rows, *args, **kwargs)

    monkeypatch.setattr(personalization, "fit_labels", recording)
    results = personalize(store, "tu", [label], train_users)
    assert label in results
    assert fitted_users == [set(train_users), {"tu"}]  # universal, then individual


def test_personalization_table_rows_and_averages(drift):
    _, _, label, results, _ = drift
    r = results[label]
    rows = personalization_table({label: r}, [label])
    assert rows[0][0] == "label"
    assert rows[1][0] == label
    assert rows[-2][0] == "average_all"
    assert rows[-1][0] == "average_300plus"
    # this label clears the threshold, so both averages cover one label
    assert rows[-2][1] == 1 and rows[-1][1] == 1
    assert np.isclose(rows[-2][4], r.adapted.ba)


def test_store_path_matches_per_example_oracle_on_drift():
    background, test_user, label = drift_user_scenario(
        seed=31, n_per_background=120, n_test_user=400
    )
    examples = ordered(background + test_user)
    labels = [label, "NEVER_SEEN"]
    store = example_store(examples, labels=labels)
    train_users = user_ids(background)
    _assert_same_results(
        scored_probabilities(store, "tu", labels, train_users, seed=5),
        _per_example_protocol(examples, "tu", labels, train_users, seed=5),
        labels,
    )


def test_store_path_matches_per_example_oracle_on_golden_corpus(tmp_path):
    corpus = perfbench_module("corpus")
    root, _ = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, False, tmp_path / "inputs")
    labels = _read_labels_file(root / "labels.txt")
    tables = load_feature_tables(root / "features")
    store = FeatureStore.from_tables(tables, labels=labels)
    examples = [ex for table in tables for ex in table_examples(table)]
    partition = load_fold_partition(root / "partition.txt")
    for user in json.loads(REFERENCE.read_text(encoding="utf-8")):
        train_users = [u for f in partition.folds if user not in f for u in f]
        _assert_same_results(
            scored_probabilities(store, user, labels, train_users),
            _per_example_protocol(examples, user, labels, train_users, seed=0),
            labels,
        )


def test_personalize_matches_reference(tmp_path, capsys):
    """``ctxfuse personalize`` on the benchmark's seed-0 ``cv5-fusion`` corpus,
    with its partition, for two users: ``user04``'s individual model is
    trivial for two labels (no positive in the adaptation half)."""
    corpus = perfbench_module("corpus")
    root, _ = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, False, tmp_path / "inputs")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert sorted(reference) == ["user04", "user06"]
    for user, want in reference.items():
        out = tmp_path / user
        code = cli.main([
            "personalize",
            "--features-dir", str(root / "features"),
            "--labels", str(root / "labels.txt"),
            "--partition", str(root / "partition.txt"),
            "--user", user,
            "--out", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        assert (out / "personalization.csv").read_text(encoding="utf-8") == want, user
