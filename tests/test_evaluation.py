import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxfuse.evaluation import (
    BASELINE_SIMULATIONS,
    FoldPartition,
    MetricCounts,
    compute_metrics,
    count_outcomes,
    cross_validate,
    format_cell,
    loo_partition,
    p99_of_average,
    p99_of_defined,
    partition_folds,
    random_baseline_scores,
    results_table,
    table_to_csv,
    table_to_markdown,
)
from synth import (
    complementary_sensor_dataset,
    core_examples,
    example_store,
    random_full_example,
    user_ids,
)


# ---------------------------------------------------------------------------
# fold partition
# ---------------------------------------------------------------------------

def _sixty_users():
    return [f"iph{i:02d}" for i in range(34)] + [f"and{i:02d}" for i in range(26)]


def test_single_fold_contains_everyone():
    part = partition_folds(["a", "b", "c"], k=1, seed=0)
    assert len(part) == 1
    assert sorted(part.folds[0]) == ["a", "b", "c"]


def test_partition_deterministic_given_seed():
    users = _sixty_users()
    p1 = partition_folds(users, k=5, seed=7)
    p2 = partition_folds(users, k=5, seed=7)
    assert p1.folds == p2.folds
    p3 = partition_folds(users, k=5, seed=8)
    assert p1.folds != p3.folds


def test_partition_rejects_too_few_users():
    with pytest.raises(ValueError):
        partition_folds(["a", "b"], k=3, seed=0)


def test_fold_partition_rejects_duplicates():
    with pytest.raises(ValueError, match="two folds"):
        FoldPartition(folds=(("a", "b"), ("b", "c")))


@st.composite
def _users_and_k(draw):
    """At least k distinct users, k and a seed."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 40))
    return [f"u{i:02d}" for i in range(n)], k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_users_and_k())
def test_partition_folds_properties(case):
    users, k, seed = case
    part = partition_folds(users, k=k, seed=seed)
    assert len(part) == k
    assert sorted(part.users) == sorted(users)  # every user in exactly one fold
    sizes = [len(f) for f in part.folds]
    assert max(sizes) - min(sizes) <= 1
    assert all(list(fold) == sorted(fold) for fold in part.folds)
    assert partition_folds(users[::-1], k=k, seed=seed).folds == part.folds


def test_loo_partition_is_one_user_per_fold():
    part = loo_partition(["u2", "u0", "u1"])
    assert part.folds == (("u0",), ("u1",), ("u2",))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _total(counts):
    return counts.tp + counts.tn + counts.fp + counts.fn


def test_perfect_classifier_metrics():
    r = compute_metrics(MetricCounts(tp=10, tn=20, fp=0, fn=0))
    assert r.ba == r.f1 == 1.0
    assert r.f1_defined


def test_worked_example():
    r = compute_metrics(MetricCounts(tp=3, fn=1, tn=4, fp=2))
    assert np.isclose(r.ba, 0.7083333333333333, atol=1e-12)
    assert np.isclose(r.f1, 2 / 3, atol=1e-12)


def test_f1_formats_as_the_result_cells_record():
    # acc|SITTING on the seed-0 cv5-fusion corpus; the exact-rounded
    # 2tp / (2tp + fp + fn) is 0.79375, which would format as 0.7937
    r = compute_metrics(MetricCounts(tp=127, tn=120, fp=32, fn=34))
    assert format_cell(r.f1) == "0.7938"


def test_always_negative_on_rare_label():
    # 1% positive: chance-level BA, F1 reported 0 and flagged
    r = compute_metrics(MetricCounts(tp=0, fn=10, tn=990, fp=0))
    assert r.ba == 0.5
    assert r.f1 == 0.0
    assert not r.f1_defined


def test_undefined_scores_are_nan():
    r = compute_metrics(MetricCounts(tp=0, fn=0, tn=5, fp=5))
    assert math.isnan(r.ba) and math.isnan(r.f1) and not r.f1_defined
    r2 = compute_metrics(MetricCounts(tp=5, fn=5, tn=0, fp=0))
    assert math.isnan(r2.ba) and r2.f1 == 2 / 3 and r2.f1_defined
    assert format_cell(r.ba) == ""


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
        assert _total(counts) == n


_counts = st.builds(
    MetricCounts,
    tp=st.integers(0, 50),
    tn=st.integers(0, 50),
    fp=st.integers(0, 50),
    fn=st.integers(0, 50),
)


def _oracle(tp, tn, fp, fn):
    """``(ba, f1, f1_defined)`` of the counts by the definitions, in exact
    fractions; an undefined score is None."""
    tpr = Fraction(tp, tp + fn) if tp + fn else None
    tnr = Fraction(tn, tn + fp) if tn + fp else None
    ba = (tpr + tnr) / 2 if tpr is not None and tnr is not None else None
    if tpr is None:
        return ba, None, False
    if tp == 0:
        return ba, Fraction(0), False
    precision = Fraction(tp, tp + fp)
    return ba, 2 * tpr * precision / (tpr + precision), True


def _matches(value, exact) -> bool:
    """``value`` is NaN where ``exact`` is None, and within one rounding of it otherwise."""
    return math.isnan(value) if exact is None else math.isclose(value, exact, rel_tol=1e-15, abs_tol=0)


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
    ba, f1, f1_defined = _oracle(tp, tn, fp, fn)
    assert _matches(r.ba, ba)
    assert _matches(r.f1, f1)
    assert r.f1_defined == f1_defined


@settings(max_examples=300, deadline=None)
@given(_counts, _counts, _counts)
def test_metric_counts_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + MetricCounts() == a
    assert _total(a + b) == _total(a) + _total(b)


@settings(max_examples=300, deadline=None)
@given(_counts)
def test_ba_is_the_mean_of_tpr_and_tnr(counts):
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    r = compute_metrics(counts)
    if tp + fn == 0 or tn + fp == 0:
        assert math.isnan(r.ba)
    else:
        assert r.ba == (tp / (tp + fn) + tn / (tn + fp)) / 2


@settings(max_examples=300, deadline=None)
@given(_counts)
def test_f1_follows_the_trivial_classifier_convention(counts):
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    r = compute_metrics(counts)
    if tp + fn == 0:
        assert math.isnan(r.f1) and not r.f1_defined  # no positives: recall and F1 are undefined
    elif tp == 0:
        assert r.f1 == 0.0 and not r.f1_defined
    else:
        assert r.f1_defined
        assert np.isclose(r.f1, 2 * tp / (2 * tp + fp + fn), rtol=1e-12, atol=0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_counts, min_size=1, max_size=20))
def test_count_arrays_score_as_each_cell_alone(cells):
    arrays = MetricCounts(*(np.array([getattr(c, f) for c in cells]) for f in ("tp", "tn", "fp", "fn")))
    r = compute_metrics(arrays)
    for i, c in enumerate(cells):
        alone = compute_metrics(c)
        assert np.array([r.ba[i], r.f1[i]]).tobytes() == np.array([alone.ba, alone.f1]).tobytes()
        assert r.f1_defined[i] == alone.f1_defined


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

def _p99(n_positive, n_examples, seed, metric):
    """A label's p99 cell as ``cli.cmd_evaluate`` computes it."""
    return p99_of_defined(random_baseline_scores(n_positive, n_examples, seed=seed)[metric])


def test_p99_reproduces_published_values():
    assert abs(_p99(54359, 176941, 1, "ba") - 0.50) <= 0.005
    assert abs(_p99(122, 176941, 1, "ba") - 0.55) <= 0.02


def test_random_classifier_ba_centered_at_half():
    scores = random_baseline_scores(500, 10_000, seed=3)
    assert abs(np.nanmean(scores["ba"]) - 0.5) < 0.01


def test_p99_at_least_median():
    for n_pos in (10, 500, 5000):
        scores = random_baseline_scores(n_pos, 10_000, seed=4)
        assert sorted(scores) == ["ba", "f1"]
        for name, vals in scores.items():
            assert vals.shape == (BASELINE_SIMULATIONS,)
            assert np.nanpercentile(vals, 99) >= np.nanmedian(vals)


def test_random_baseline_scores_each_simulation_as_its_own_cell():
    # the simulations' draws are (TP, FP) pairs in order, as one scalar
    # binomial draw after another; each is scored like a results cell
    for n_pos, n_examples, seed in ((0, 50, 2), (7, 7, 3), (1, 2, 4), (30, 1000, 5), (600, 10**6, 6)):
        scores = random_baseline_scores(n_pos, n_examples, seed=seed)
        rng = np.random.default_rng(seed)
        n_neg = n_examples - n_pos
        for s in range(BASELINE_SIMULATIONS):
            tp, fp = int(rng.binomial(n_pos, 0.5)), int(rng.binomial(n_neg, 0.5))
            cell = compute_metrics(MetricCounts(tp=tp, tn=n_neg - fp, fp=fp, fn=n_pos - tp))
            for name in ("ba", "f1"):
                assert np.array(scores[name][s]).tobytes() == np.array(getattr(cell, name)).tobytes()


def test_p99_of_average_pairs_simulations():
    arrays = [random_baseline_scores(100, 5000, seed=s)["ba"] for s in (1, 2, 3)]
    avg = p99_of_average(arrays)
    assert 0.45 < avg < 0.6
    # averaging reduces spread: the average's p99 sits below the mean of p99s
    individual = [np.nanpercentile(a, 99) for a in arrays]
    assert avg <= max(individual)


def test_p99_is_nan_only_when_no_simulation_defines_the_metric():
    # no positives: BA and F1 are never defined
    assert math.isnan(_p99(0, 50, 2, "ba")) and math.isnan(_p99(0, 50, 2, "f1"))
    # no negatives: BA is never defined, F1 always is
    assert math.isnan(_p99(50, 50, 2, "ba")) and not math.isnan(_p99(50, 50, 2, "f1"))
    assert math.isnan(p99_of_average([np.full(10, np.nan)] * 2))
    vals = np.array([np.nan, 0.1, 0.7, 0.3])
    assert p99_of_defined(vals) == float(np.nanpercentile(vals, 99))


def test_random_baseline_validates_inputs():
    with pytest.raises(ValueError):
        random_baseline_scores(5, 0)
    with pytest.raises(ValueError):
        random_baseline_scores(11, 10)


# ---------------------------------------------------------------------------
# cross-validation harness
# ---------------------------------------------------------------------------

def _store(**kwargs):
    examples, label = complementary_sensor_dataset(**kwargs)
    return example_store(examples, labels=[label]), label


def test_cross_validation_on_separable_synthetic():
    examples, label = complementary_sensor_dataset(n=600, n_users=6, seed=6)
    part = partition_folds(user_ids(examples), k=3, seed=0)
    store = example_store(examples, labels=[label])
    out = cross_validate(store, [label], ["acc", "ef", "lfa", "lfl"], part, seed=0)
    ev = out["ef"][label]
    assert compute_metrics(ev.counts).ba > 0.8
    assert _total(ev.counts) == 600
    assert ev.n_examples == sum(
        1 for ex in examples if ex.label_value(label) == "relevant"
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
    store = example_store(examples, labels=["RARE"])
    part = FoldPartition(folds=(("u0",), ("u1",), ("u2",)))
    out = cross_validate(store, ["RARE"], ["acc"], part, seed=0)
    ev = out["acc"]["RARE"]
    # the fold holding out u1/u2 trains fine; the fold holding out u0 cannot
    assert any("trivial" in f for f in ev.flags)
    assert _total(ev.counts) == 60


def test_heterogeneous_sensor_availability():
    # some users lack the watch entirely and some minutes drop other
    # sensors: single-sensor models train on whatever carries their sensor,
    # while evaluation sticks to complete-sensor minutes
    rng = np.random.default_rng(13)
    examples = []
    for i in range(360):
        user = f"u{i % 6}"
        ex = random_full_example(rng, user, i, labels={"T": int(rng.random() < 0.4)})
        feats = dict(ex.features)
        if user in ("u4", "u5"):
            feats.pop("wacc")  # watchless users
        elif i % 7 == 0:
            feats.pop("loc")
        examples.append(
            type(ex)(user_id=ex.user_id, timestamp=ex.timestamp,
                     features=feats, labels=ex.labels)
        )
    core_n = len(core_examples(examples))
    assert 0 < core_n < 360

    part = partition_folds(user_ids(examples), k=3, seed=1)
    out = cross_validate(example_store(examples, labels=["T"]), ["T"], ["wacc", "lfa"], part, seed=0)
    # only complete-sensor minutes are scored
    assert _total(out["wacc"]["T"].counts) == core_n
    assert _total(out["lfa"]["T"].counts) == core_n


def test_n_s_counts_users_with_a_relevant_all_six_sensor_minute():
    # u2 reports the label only on minutes without the watch: its minutes
    # are never scored, so it is not one of the label's subjects
    rng = np.random.default_rng(14)
    examples = []
    for i in range(90):
        user = f"u{i % 3}"
        ex = random_full_example(rng, user, i, labels={"T": int(i % 2 == 0)})
        if user == "u2" and i % 2 == 0:
            feats = {s: fv for s, fv in ex.features.items() if s != "wacc"}
            ex = type(ex)(user_id=user, timestamp=i, features=feats, labels=ex.labels)
        examples.append(ex)
    store = example_store(examples, labels=["T"])
    part = FoldPartition(folds=(("u0",), ("u1",), ("u2",)))
    ev = cross_validate(store, ["T"], ["acc"], part, mode="loo", seed=0)["acc"]["T"]
    assert ev.n_subjects == 2
    assert ev.n_examples == 30


def test_cross_validate_early_fusion_alone():
    store, label = _store(n=150, n_users=3, seed=12)
    part = partition_folds(store.user_ids(), k=3, seed=0)
    out = cross_validate(store, [label], ["ef"], part, seed=0)
    assert _total(out["ef"][label].counts) == 150


def test_cross_validate_rejects_unknown_system_and_bad_partition():
    store, label = _store(n=60, n_users=3, seed=8)
    part = partition_folds(store.user_ids(), k=3, seed=0)
    with pytest.raises(ValueError, match="unknown system"):
        cross_validate(store, [label], ["svm"], part)
    bad = FoldPartition(folds=(("nobody",),))
    with pytest.raises(ValueError, match="partition users"):
        cross_validate(store, [label], ["acc"], bad)


def test_cross_validate_rejects_jobs_below_one():
    store, label = _store(n=60, n_users=3, seed=8)
    part = partition_folds(store.user_ids(), k=3, seed=0)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            cross_validate(store, [label], ["acc"], part, jobs=jobs)


def test_loo_mode_equals_per_user_folds_with_fixed_cost():
    store, label = _store(n=120, n_users=4, seed=9)
    part = loo_partition(store.user_ids())
    out = cross_validate(store, [label], ["acc"], part, mode="loo", seed=0)
    ev = out["acc"][label]
    assert _total(ev.counts) == 120
    # fixed C=1 everywhere, nothing grid-searched
    assert all(c == 1.0 for c in ev.chosen_costs.values())


def test_jobs_do_not_change_results():
    store, label = _store(n=300, n_users=6, seed=10)
    part = partition_folds(store.user_ids(), k=3, seed=0)
    out1 = cross_validate(store, [label], ["acc", "lfa"], part, seed=5, jobs=1)
    out2 = cross_validate(store, [label], ["acc", "lfa"], part, seed=5, jobs=3)
    for sys_name in ("acc", "lfa"):
        c1, c2 = out1[sys_name][label].counts, out2[sys_name][label].counts
        assert (c1.tp, c1.tn, c1.fp, c1.fn) == (c2.tp, c2.tn, c2.fp, c2.fn)


# ---------------------------------------------------------------------------
# results tables
# ---------------------------------------------------------------------------

def _tiny_results():
    store, label = _store(n=200, n_users=4, seed=11)
    part = partition_folds(store.user_ids(), k=2, seed=0)
    evaluations = cross_validate(store, [label], ["acc", "lfa"], part, seed=0)
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
