import numpy as np
import pytest

from ctxfuse.fusion import early_fusion
from ctxfuse.personalization import (
    PersonalizationSplit,
    evaluate_personalization,
    personalization_table,
    split_user_timeline,
)
from synth import drift_user_scenario, random_full_example


def _user_examples(n, user="u0"):
    rng = np.random.default_rng(0)
    return [random_full_example(rng, user, 100 + t) for t in range(n)]


def test_split_four_examples():
    exs = _user_examples(4)
    split = split_user_timeline(exs)
    assert [ex.timestamp for ex in split.adaptation] == [100, 101]
    assert [ex.timestamp for ex in split.deployment] == [102, 103]


def test_split_odd_count_gives_adaptation_the_extra():
    split = split_user_timeline(_user_examples(5))
    assert len(split.adaptation) == 3
    assert len(split.deployment) == 2


def test_split_is_order_invariant():
    exs = _user_examples(7)
    shuffled = [exs[i] for i in (3, 0, 6, 2, 5, 1, 4)]
    a = split_user_timeline(exs)
    b = split_user_timeline(shuffled)
    assert [e.timestamp for e in a.adaptation] == [e.timestamp for e in b.adaptation]
    assert [e.timestamp for e in a.deployment] == [e.timestamp for e in b.deployment]


def test_split_needs_two_examples():
    with pytest.raises(ValueError):
        split_user_timeline(_user_examples(1))


def test_split_rejects_mixed_users():
    with pytest.raises(ValueError, match="more than one user"):
        split_user_timeline(_user_examples(2) + _user_examples(2, user="u1"))


@pytest.fixture(scope="module")
def drift():
    background, test_user, label = drift_user_scenario(seed=30)
    universal = {
        label: early_fusion(background, label, seed=1)
    }
    split = split_user_timeline(test_user)
    results = evaluate_personalization(universal, split, [label], seed=2)
    return background, split, label, results[label]


def test_zero_positive_adaptation_label_reports_chance(drift):
    background, split, label, _ = drift
    universal = {
        label: early_fusion(background, label, seed=1),
        "NEVER_SEEN": early_fusion(background, label, seed=1),
    }
    results = evaluate_personalization(universal, split, [label, "NEVER_SEEN"], seed=2)
    r = results["NEVER_SEEN"]
    assert r.individual.trivial
    assert r.individual.ba == 0.5
    assert r.individual.f1 == 0.0
    # the adapted model falls back to the universal probabilities alone
    assert np.array_equal(
        r.probabilities["adapted"], r.probabilities["universal"]
    )


def test_adapted_probability_is_exact_mean(drift):
    _, _, _, r = drift
    pr = r.probabilities
    assert pr["individual"] is not None
    assert np.array_equal(pr["adapted"], (pr["universal"] + pr["individual"]) / 2.0)


def test_adaptation_with_enough_positives_helps(drift):
    _, split, label, r = drift
    n_pos = sum(
        1 for ex in split.adaptation if ex.label_value(label) == "relevant"
    )
    assert n_pos >= 300
    assert r.adapted.ba >= max(r.universal.ba, r.individual.ba) - 0.02
    assert r.individual.ba > r.universal.ba  # the drift makes individual win


def test_identical_models_average_to_themselves():
    background, test_user, label = drift_user_scenario(
        seed=40, n_background_users=1, n_per_background=2, n_test_user=400
    )
    split = split_user_timeline(test_user)
    # train the "universal" model on this user's own adaptation half so both
    # models coincide; leakage checking stays out of the way when the
    # training users are not supplied
    same = early_fusion(list(split.adaptation), label, cost=1.0)
    results = evaluate_personalization({label: same}, split, [label], seed=2)
    pr = results[label].probabilities
    assert np.allclose(pr["universal"], pr["individual"], atol=1e-9)
    assert np.allclose(pr["adapted"], pr["universal"], atol=1e-9)


def test_overlapping_split_rejected():
    exs = _user_examples(4)
    bad = PersonalizationSplit(
        user_id="u0", adaptation=tuple(exs[:3]), deployment=tuple(exs[2:])
    )
    with pytest.raises(AssertionError, match="overlap"):
        evaluate_personalization({}, bad, [])


def test_universal_trained_on_test_user_rejected(drift):
    background, split, label, _ = drift
    universal = {label: early_fusion(background, label, cost=1.0)}
    with pytest.raises(AssertionError, match="trained on the test user"):
        evaluate_personalization(
            universal, split, [label], universal_train_users=["bg0", "tu"]
        )


def test_no_leakage_with_proper_train_users(drift):
    background, split, label, _ = drift
    universal = {label: early_fusion(background, label, cost=1.0)}
    train_users = sorted({ex.user_id for ex in background})
    results = evaluate_personalization(
        universal, split, [label], universal_train_users=train_users
    )
    assert label in results


def test_personalization_table_rows_and_averages(drift):
    _, _, label, r = drift
    results = {label: r}
    rows = personalization_table(results, [label], min_examples=300)
    assert rows[0][0] == "label"
    assert rows[1][0] == label
    assert rows[-2][0] == "average_all"
    assert rows[-1][0] == "average_300plus"
    # this label clears the threshold, so both averages cover one label
    assert rows[-2][1] == 1 and rows[-1][1] == 1
    assert np.isclose(rows[-2][4], r.adapted.ba)
