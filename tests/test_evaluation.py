from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxfuse.evaluation import (
    FoldPartition,
    MetricCounts,
    compute_metrics,
    confusion_matrix,
    count_outcomes,
    cross_validate,
    loo_partition,
    p99_of_average,
    p99_of_defined,
    partition_folds,
    random_baseline_p99,
    random_baseline_scores,
    results_table,
    table_to_csv,
    table_to_markdown,
)
from ctxfuse.model import Dataset
from synth import complementary_sensor_dataset, random_full_example


# ---------------------------------------------------------------------------
# fold partition
# ---------------------------------------------------------------------------

def _sixty_users():
    platforms = {}
    for i in range(34):
        platforms[f"iph{i:02d}"] = "iphone"
    for i in range(26):
        platforms[f"and{i:02d}"] = "android"
    return platforms


def test_sixty_user_partition_balances_platforms():
    platforms = _sixty_users()
    part = partition_folds(platforms, k=5, seed=0)
    assert len(part) == 5
    for fold in part.folds:
        assert len(fold) == 12
        n_iphone = sum(1 for u in fold if platforms[u] == "iphone")
        assert n_iphone in (6, 7)
    assert sorted(part.users) == sorted(platforms)


def test_single_fold_contains_everyone():
    platforms = {"a": "x", "b": "x", "c": "y"}
    part = partition_folds(platforms, k=1, seed=0)
    assert len(part) == 1
    assert sorted(part.folds[0]) == ["a", "b", "c"]


def test_partition_deterministic_given_seed():
    platforms = _sixty_users()
    p1 = partition_folds(platforms, k=5, seed=7)
    p2 = partition_folds(platforms, k=5, seed=7)
    assert p1.folds == p2.folds
    p3 = partition_folds(platforms, k=5, seed=8)
    assert p1.folds != p3.folds


def test_partition_rejects_too_few_users():
    with pytest.raises(ValueError):
        partition_folds({"a": "x", "b": "x"}, k=3, seed=0)


def test_fold_partition_rejects_duplicates():
    with pytest.raises(ValueError, match="two folds"):
        FoldPartition(folds=(("a", "b"), ("b", "c")))


@st.composite
def _platforms_and_k(draw):
    """A user -> platform map of at least k users, k and a seed."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 40))
    tags = draw(st.lists(st.sampled_from(["iphone", "android", "other"]), min_size=n, max_size=n))
    return {f"u{i:02d}": tag for i, tag in enumerate(tags)}, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_platforms_and_k())
def test_partition_folds_properties(case):
    platforms, k, seed = case
    part = partition_folds(platforms, k=k, seed=seed)
    assert len(part) == k
    assert sorted(part.users) == sorted(platforms)  # every user in exactly one fold
    sizes = [len(f) for f in part.folds]
    assert max(sizes) - min(sizes) <= 1
    for tag in set(platforms.values()):
        n_tag = sum(1 for t in platforms.values() if t == tag)
        for fold in part.folds:
            in_fold = sum(1 for uid in fold if platforms[uid] == tag)
            assert abs(in_fold - Fraction(n_tag, k)) < 1
    assert partition_folds(platforms, k=k, seed=seed).folds == part.folds


def test_loo_partition_is_one_user_per_fold():
    part = loo_partition(["u2", "u0", "u1"])
    assert part.folds == (("u0",), ("u1",), ("u2",))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_perfect_classifier_metrics():
    r = compute_metrics(MetricCounts(tp=10, tn=20, fp=0, fn=0))
    assert r.accuracy == r.tpr == r.tnr == r.precision == r.ba == r.f1 == 1.0
    assert r.f1_defined


def test_worked_example():
    r = compute_metrics(MetricCounts(tp=3, fn=1, tn=4, fp=2))
    assert np.isclose(r.tpr, 0.75, atol=1e-12)
    assert np.isclose(r.tnr, 2 / 3, atol=1e-12)
    assert np.isclose(r.ba, 0.7083333333333333, atol=1e-12)
    assert np.isclose(r.precision, 0.6, atol=1e-12)
    assert np.isclose(r.f1, 2 / 3, atol=1e-12)


def test_always_negative_on_rare_label():
    # 1% positive: high accuracy, chance-level BA, F1 reported 0 and flagged
    r = compute_metrics(MetricCounts(tp=0, fn=10, tn=990, fp=0))
    assert r.accuracy == 0.99
    assert r.ba == 0.5
    assert r.f1 == 0.0
    assert not r.f1_defined
    assert r.precision is None  # undefined, not silently zero


def test_undefined_ratios_are_none():
    r = compute_metrics(MetricCounts(tp=0, fn=0, tn=5, fp=5))
    assert r.tpr is None and r.ba is None and r.f1 is None
    r2 = compute_metrics(MetricCounts(tp=5, fn=5, tn=0, fp=0))
    assert r2.tnr is None and r2.ba is None


def test_counts_match_bruteforce_tally():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        y_true = rng.integers(0, 2, n).astype(bool)
        y_pred = rng.integers(0, 2, n).astype(bool)
        counts = count_outcomes(y_true, y_pred)
        tp = tn = fp = fn = 0
        for t, p in zip(y_true, y_pred):
            if t and p:
                tp += 1
            elif t and not p:
                fn += 1
            elif not t and p:
                fp += 1
            else:
                tn += 1
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
        assert counts.total == n


_counts = st.builds(
    MetricCounts,
    tp=st.integers(0, 50),
    tn=st.integers(0, 50),
    fp=st.integers(0, 50),
    fn=st.integers(0, 50),
)


def _exact(value, num, den):
    """``value`` is ``num / den`` as a float, or None when ``den`` is 0."""
    return value is None if den == 0 else value == num / den


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60))
def test_metrics_match_bruteforce_tally_property(pairs):
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    counts = count_outcomes(y_true, y_pred)
    tp = sum(t and p for t, p in pairs)
    tn = sum(not t and not p for t, p in pairs)
    fp = sum(not t and p for t, p in pairs)
    fn = sum(t and not p for t, p in pairs)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
    r = compute_metrics(counts)
    assert _exact(r.accuracy, tp + tn, len(pairs))
    assert _exact(r.tpr, tp, tp + fn)
    assert _exact(r.tnr, tn, tn + fp)
    assert _exact(r.precision, tp, tp + fp)


@settings(max_examples=300, deadline=None)
@given(_counts, _counts, _counts)
def test_metric_counts_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + MetricCounts() == a
    assert (a + b).total == a.total + b.total


@settings(max_examples=300, deadline=None)
@given(_counts)
def test_ba_is_the_mean_of_tpr_and_tnr(counts):
    r = compute_metrics(counts)
    if r.tpr is None or r.tnr is None:
        assert r.ba is None
    else:
        assert r.ba == (r.tpr + r.tnr) / 2


@settings(max_examples=300, deadline=None)
@given(_counts)
def test_f1_follows_the_trivial_classifier_convention(counts):
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    r = compute_metrics(counts)
    if tp + fn == 0:
        assert r.f1 is None  # no positives: recall and F1 are undefined
    elif tp == 0:
        assert r.f1 == 0.0 and not r.f1_defined
    else:
        assert r.f1_defined
        assert np.isclose(r.f1, 2 * tp / (2 * tp + fp + fn), rtol=1e-12, atol=0)


def test_summed_counts_not_mean_of_fold_scores():
    # two folds with very different sizes: pooling counts is the contract
    a = MetricCounts(tp=90, fn=10, tn=90, fp=10)   # BA 0.9 on 200 examples
    b = MetricCounts(tp=0, fn=1, tn=1, fp=0)       # BA 0.5 on 2 examples
    pooled = compute_metrics(a + b)
    mean_of_folds = (compute_metrics(a).ba + compute_metrics(b).ba) / 2
    assert not np.isclose(pooled.ba, mean_of_folds, atol=0.05)
    assert np.isclose(pooled.ba, ((90 / 101) + (91 / 101)) / 2)


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        MetricCounts(tp=-1, tn=0, fp=0, fn=0)


# ---------------------------------------------------------------------------
# random baseline
# ---------------------------------------------------------------------------

def test_p99_reproduces_published_values():
    p_common = random_baseline_p99(54359, 176941, seed=1)
    assert abs(p_common["ba"] - 0.50) <= 0.005
    p_rare = random_baseline_p99(122, 176941, seed=1)
    assert abs(p_rare["ba"] - 0.55) <= 0.02


def test_random_classifier_ba_centered_at_half():
    scores = random_baseline_scores(500, 10_000, n_sims=100, seed=3)
    assert abs(np.nanmean(scores["ba"]) - 0.5) < 0.01


def test_p99_at_least_median():
    for n_pos in (10, 500, 5000):
        scores = random_baseline_scores(n_pos, 10_000, n_sims=100, seed=4)
        for name, vals in scores.items():
            if np.isnan(vals).all():
                continue
            assert np.nanpercentile(vals, 99) >= np.nanmedian(vals)


def test_p99_of_average_pairs_simulations():
    arrays = [random_baseline_scores(100, 5000, seed=s)["ba"] for s in (1, 2, 3)]
    avg = p99_of_average(arrays)
    assert 0.45 < avg < 0.6
    # averaging reduces spread: the average's p99 sits below the mean of p99s
    individual = [np.nanpercentile(a, 99) for a in arrays]
    assert avg <= max(individual)


def test_p99_is_none_only_when_no_simulation_defines_the_metric():
    p = random_baseline_p99(0, 50, seed=2)  # no positives: TPR never defined
    assert p["tpr"] is None and p["ba"] is None
    assert p["tnr"] is not None
    assert p99_of_average([np.full(10, np.nan)] * 2) is None
    vals = np.array([np.nan, 0.1, 0.7, 0.3])
    assert p99_of_defined(vals) == float(np.nanpercentile(vals, 99))


def test_random_baseline_validates_inputs():
    with pytest.raises(ValueError):
        random_baseline_scores(5, 0)
    with pytest.raises(ValueError):
        random_baseline_scores(11, 10)


# ---------------------------------------------------------------------------
# confusion matrix
# ---------------------------------------------------------------------------

def test_confusion_identity_for_perfect_predictions():
    truth = ["a", "b", "c", "a"]
    cm = confusion_matrix(truth, truth, ("a", "b", "c"))
    assert np.array_equal(cm, np.eye(3))


def test_confusion_uniform_random_predictions():
    rng = np.random.default_rng(5)
    classes = ("a", "b", "c", "d")
    truth = [classes[i % 4] for i in range(10_000)]
    pred = [classes[i] for i in rng.integers(0, 4, 10_000)]
    cm = confusion_matrix(truth, pred, classes)
    assert np.all(np.abs(cm - 0.25) <= 0.02)
    assert np.allclose(cm.sum(axis=1), 1.0, atol=1e-12)


def test_confusion_empty_class_row_is_nan():
    cm = confusion_matrix(["a", "a"], ["a", "b"], ("a", "b"))
    assert np.isnan(cm[1]).all()
    assert np.allclose(cm[0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# cross-validation harness
# ---------------------------------------------------------------------------

def test_cross_validation_on_separable_synthetic():
    dataset, label = complementary_sensor_dataset(n=600, n_users=6, seed=6)
    part = partition_folds({u: "p" for u in dataset.users}, k=3, seed=0)
    out = cross_validate(dataset, [label], ["acc", "ef", "lfa", "lfl"], part, seed=0)
    ev = out["ef"][label]
    assert ev.report.ba is not None and ev.report.ba > 0.8
    assert ev.counts.total == 600
    assert ev.n_examples == sum(
        1 for ex in dataset.examples() if ex.label_value(label) == "relevant"
    )
    assert ev.n_subjects == 6


def test_label_missing_from_a_fold_flags_trivial():
    rng = np.random.default_rng(7)
    examples = []
    for i in range(60):
        user = f"u{i % 3}"
        # only user u0 ever reports the label
        y = 1 if (user == "u0" and i % 2 == 0) else 0
        examples.append(random_full_example(rng, user, i, labels={"RARE": y}))
    dataset = Dataset.from_examples(examples)
    part = FoldPartition(folds=(("u0",), ("u1",), ("u2",)))
    out = cross_validate(dataset, ["RARE"], ["acc"], part, seed=0)
    ev = out["acc"]["RARE"]
    # the fold holding out u1/u2 trains fine; the fold holding out u0 cannot
    assert any("trivial" in f for f in ev.flags)
    assert ev.counts.total == 60


def test_heterogeneous_sensor_availability():
    # some users lack the watch entirely and some minutes drop other
    # sensors: single-sensor models train on whatever carries their sensor,
    # while evaluation sticks to complete-sensor minutes
    rng = np.random.default_rng(13)
    examples = []
    for i in range(360):
        user = f"u{i % 6}"
        ex = random_full_example(rng, user, i, labels={"T": int(rng.random() < 0.4)})
        feats = dict(ex.precomputed_features)
        if user in ("u4", "u5"):
            feats.pop("wacc")  # watchless users
        elif i % 7 == 0:
            feats.pop("loc")
        examples.append(
            type(ex)(user_id=ex.user_id, timestamp=ex.timestamp,
                     precomputed_features=feats, labels=ex.labels)
        )
    dataset = Dataset.from_examples(examples)
    core_n = len(dataset.core_subset())
    assert 0 < core_n < 360

    part = partition_folds({u: "p" for u in dataset.users}, k=3, seed=1)
    out = cross_validate(dataset, ["T"], ["wacc", "lfa"], part, seed=0)
    # only complete-sensor minutes are scored
    assert out["wacc"]["T"].counts.total == core_n
    assert out["lfa"]["T"].counts.total == core_n


def test_cross_validate_early_fusion_alone():
    dataset, label = complementary_sensor_dataset(n=150, n_users=3, seed=12)
    part = partition_folds({u: "p" for u in dataset.users}, k=3, seed=0)
    out = cross_validate(dataset, [label], ["ef"], part, seed=0)
    assert out["ef"][label].counts.total == 150


def test_cross_validate_rejects_unknown_system_and_bad_partition():
    dataset, label = complementary_sensor_dataset(n=60, n_users=3, seed=8)
    part = partition_folds({u: "p" for u in dataset.users}, k=3, seed=0)
    with pytest.raises(ValueError, match="unknown system"):
        cross_validate(dataset, [label], ["svm"], part)
    bad = FoldPartition(folds=(("nobody",),))
    with pytest.raises(ValueError, match="partition users"):
        cross_validate(dataset, [label], ["acc"], bad)


def test_cross_validate_rejects_jobs_below_one():
    dataset, label = complementary_sensor_dataset(n=60, n_users=3, seed=8)
    part = partition_folds({u: "p" for u in dataset.users}, k=3, seed=0)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            cross_validate(dataset, [label], ["acc"], part, jobs=jobs)


def test_loo_mode_equals_per_user_folds_with_fixed_cost():
    dataset, label = complementary_sensor_dataset(n=120, n_users=4, seed=9)
    part = loo_partition(dataset.users)
    out = cross_validate(dataset, [label], ["acc"], part, mode="loo", seed=0)
    ev = out["acc"][label]
    assert ev.counts.total == 120
    # fixed C=1 everywhere, nothing grid-searched
    assert all(c == 1.0 for c in ev.chosen_costs.values())


def test_jobs_do_not_change_results():
    dataset, label = complementary_sensor_dataset(n=300, n_users=6, seed=10)
    part = partition_folds({u: "p" for u in dataset.users}, k=3, seed=0)
    out1 = cross_validate(dataset, [label], ["acc", "lfa"], part, seed=5, jobs=1)
    out2 = cross_validate(dataset, [label], ["acc", "lfa"], part, seed=5, jobs=3)
    for sys_name in ("acc", "lfa"):
        c1, c2 = out1[sys_name][label].counts, out2[sys_name][label].counts
        assert (c1.tp, c1.tn, c1.fp, c1.fn) == (c2.tp, c2.tn, c2.fp, c2.fn)


# ---------------------------------------------------------------------------
# results tables
# ---------------------------------------------------------------------------

def _tiny_results():
    dataset, label = complementary_sensor_dataset(n=200, n_users=4, seed=11)
    part = partition_folds({u: "p" for u in dataset.users}, k=2, seed=0)
    evaluations = cross_validate(dataset, [label], ["acc", "lfa"], part, seed=0)
    return evaluations, [label]


def test_results_table_shape_and_average_row():
    evaluations, labels = _tiny_results()
    rows = results_table(evaluations, labels, ["acc", "lfa"], {labels[0]: 0.51}, metric="ba")
    assert rows[0] == ["label", "n_e", "n_s", "p99", "acc", "lfa"]
    assert rows[1][0] == labels[0]
    assert rows[-1][0] == "average"
    csv_text = table_to_csv(rows)
    assert csv_text.splitlines()[0] == "label,n_e,n_s,p99,acc,lfa"

    f1_rows = results_table(evaluations, labels, ["acc", "lfa"], {}, metric="f1")
    assert f1_rows[-1][0] == "average_defined_only"


def test_markdown_renderer():
    evaluations, labels = _tiny_results()
    rows = results_table(evaluations, labels, ["acc"], {}, metric="ba")
    md = table_to_markdown(rows)
    lines = md.splitlines()
    assert lines[0].startswith("| label")
    assert set(lines[1]) <= {"|", "-"}
