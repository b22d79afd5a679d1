"""The acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Criterion 10 needs the public dataset and is skipped
unless the CTXFUSE_DATASET_* environment variables point at it.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from ctxfuse.audio import compute_mfcc, extract_audio_features
from ctxfuse.classifier import (
    balanced_weights,
    fit_single_sensor_model,
    loss_and_gradient,
    predict_proba_matrix,
    train_linear,
)
from ctxfuse.data import label_vector
from ctxfuse.evaluation import (
    MetricCounts,
    compute_metrics,
    count_outcomes,
    cross_validate,
    random_baseline_p99,
)
from ctxfuse.features import (
    extract_location_features,
    extract_motion_features,
    extract_phone_state_features,
    extract_watch_features,
    scalar_series_features,
    time_bin_indicators,
)
from ctxfuse.fusion import early_fusion, late_fusion_average, late_fusion_learned
from ctxfuse.ingestion import load_features_dir, load_fold_partition
from ctxfuse.model import (
    Dataset,
    LocationSeries,
    LocationUpdate,
    PhoneStateSnapshot,
    PHONE_STATE_VALUES,
    SENSORS,
)
from ctxfuse.personalization import evaluate_personalization, split_user_timeline
from synth import (
    complementary_sensor_dataset,
    concat_feature_matrix,
    drift_user_scenario,
    feature_example,
    feature_matrix,
    make_triaxial,
)


def _report(cid, passed, detail=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {cid} failed: {detail}"


def test_criterion_1_dimension_contract():
    rng = np.random.default_rng(100)
    start = time.time()
    checked = 0
    for i in range(1000):
        motion = make_triaxial(rng, n=int(rng.integers(64, 257)), rate=40.0)
        watch = make_triaxial(rng, n=int(rng.integers(64, 200)), rate=25.0, unit="milli-G")
        updates = tuple(
            LocationUpdate(
                relative_time=float(t),
                latitude=float(rng.uniform(-60, 60)),
                longitude=float(rng.uniform(-120, 120)),
                altitude=float(rng.uniform(0, 500)),
                speed=float(rng.uniform(0, 10)),
                vertical_accuracy=float(rng.uniform(1, 50)),
                horizontal_accuracy=float(rng.uniform(1, 50)),
            )
            for t in range(int(rng.integers(0, 6)))
        )
        audio = rng.normal(size=int(rng.integers(2048, 4097)))
        ps = PhoneStateSnapshot(
            **{
                prop: allowed[int(rng.integers(0, len(allowed)))]
                for prop, allowed in PHONE_STATE_VALUES.items()
            },
            hour_of_day=int(rng.integers(0, 24)),
        )

        dims = {
            "acc": extract_motion_features(motion, "acc"),
            "gyro": extract_motion_features(motion, "gyro"),
            "wacc": extract_watch_features(watch),
            "loc": extract_location_features(LocationSeries(updates=updates)),
            "aud": extract_audio_features(compute_mfcc(audio)),
            "ps": extract_phone_state_features(ps),
        }
        assert [len(dims[s].values) for s in SENSORS] == [26, 26, 46, 17, 26, 34]

        ex = feature_example("u0", i, {s: dims[s].values for s in SENSORS})
        assert concat_feature_matrix([ex]).shape == (1, 175)
        checked += 1
    elapsed = time.time() - start
    _report(1, checked == 1000 and elapsed < 60, f"{checked} inputs in {elapsed:.1f}s")


def test_criterion_2_metric_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        y_true = rng.integers(0, 2, n).astype(bool)
        y_pred = rng.integers(0, 2, n).astype(bool)
        counts = count_outcomes(y_true, y_pred)
        tp = sum(1 for t, p in zip(y_true, y_pred) if t and p)
        tn = sum(1 for t, p in zip(y_true, y_pred) if not t and not p)
        fp = sum(1 for t, p in zip(y_true, y_pred) if not t and p)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t and not p)
        if (counts.tp, counts.tn, counts.fp, counts.fn) != (tp, tn, fp, fn):
            exact = False
            break
        report = compute_metrics(counts)
        if tp + fn > 0 and not math.isclose(report.tpr, tp / (tp + fn)):
            exact = False
            break

    worked = compute_metrics(MetricCounts(tp=3, fn=1, tn=4, fp=2))
    ok = (
        exact
        and abs(worked.ba - 17 / 24) <= 1e-12
        and abs(worked.f1 - 2 / 3) <= 1e-12
    )
    _report(2, ok and time.time() - start < 60,
            f"1000 vectors exact; BA={worked.ba:.6f} F1={worked.f1:.6f}")


def test_criterion_3_gradient_check():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 12))
        X = rng.normal(size=(n, d)) * rng.uniform(0.2, 5)
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        params = rng.normal(size=d + 1)
        C = float(10 ** rng.uniform(-3, 2))
        ys = np.where(y > 0, 1.0, -1.0)
        wts = balanced_weights(y)
        _, g = loss_and_gradient(params, X, ys, wts, C)
        num = np.zeros(d + 1)
        for j in range(d + 1):
            e = np.zeros(d + 1)
            e[j] = 1e-6 * max(1.0, abs(params[j]))
            fp_, _ = loss_and_gradient(params + e, X, ys, wts, C)
            fm_, _ = loss_and_gradient(params - e, X, ys, wts, C)
            num[j] = (fp_ - fm_) / (2 * e[j])
        rel = np.linalg.norm(g - num) / max(1.0, np.linalg.norm(num))
        worst = max(worst, rel)
    _report(3, worst <= 1e-4 and time.time() - start < 60,
            f"worst relative gradient error {worst:.2e}")


def test_criterion_4_balanced_weights_nine_vs_one():
    start = time.time()
    X = np.array([[-1.0]] * 9 + [[1.0]])
    y = np.array([0] * 9 + [1])
    C = 0.01

    balanced = train_linear(X, y, C)
    control = train_linear(X, y, C, balanced=False)
    p_bal = predict_proba_matrix(balanced, np.array([[1.0]]))[0]
    p_ctl = predict_proba_matrix(control, np.array([[1.0]]))[0]

    def reference_loss(params, use_balance):
        w, b = params
        total = 0.5 * w * w
        n, n_pos = 10, 1
        for xi, yi in zip(X[:, 0], y):
            a = (n / (2 * n_pos) if yi else n / (2 * (n - n_pos))) if use_balance else 1.0
            m = (w * xi + b) * (1 if yi else -1)
            total += C * a * (math.log1p(math.exp(-abs(m))) + max(0.0, -m))
        return total

    agreement = True
    for model, use_balance in ((balanced, True), (control, False)):
        res = minimize(reference_loss, np.zeros(2), args=(use_balance,),
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
        mine = reference_loss((model.weights[0], model.intercept), use_balance)
        if mine > res.fun + 1e-9 or not np.allclose(
            [model.weights[0], model.intercept], res.x, atol=1e-4
        ):
            agreement = False

    ok = p_bal > 0.5 and p_ctl < 0.5 and agreement and time.time() - start < 60
    _report(4, ok, f"balanced P={p_bal:.3f} control P={p_ctl:.3f}, optima verified")


def test_criterion_5_random_baseline_p99():
    start = time.time()
    common = random_baseline_p99(54359, 176941, n_sims=100, seed=1)["ba"]
    rare = random_baseline_p99(122, 176941, n_sims=100, seed=1)["ba"]
    ok = abs(common - 0.50) <= 0.005 and abs(rare - 0.55) <= 0.02
    _report(5, ok and time.time() - start < 60,
            f"p99 BA common={common:.4f} rare={rare:.4f}")


def test_criterion_6_fusion_on_complementary_sensors():
    start = time.time()
    dataset, label = complementary_sensor_dataset(n=5000, n_users=10, seed=60)
    train_users, test_users = dataset.users[:5], dataset.users[5:]
    train, test = dataset.examples(train_users), dataset.examples(test_users)
    y = label_vector(test, label) > 0

    singles, p_cols, single_bas = {}, {}, {}
    for s in SENSORS:
        m = fit_single_sensor_model(
            s, label, feature_matrix(train, s), label_vector(train, label),
            seed=1,
        )
        singles[s] = m
        Z = m.standardizer.transform(feature_matrix(test, s))
        p_cols[s] = predict_proba_matrix(m.model, Z)
        single_bas[s] = compute_metrics(count_outcomes(y, p_cols[s] > 0.5)).ba
    best_single = max(single_bas.values())

    ef = early_fusion(train, label, seed=1)
    p_ef = predict_proba_matrix(
        ef.model, ef.standardizer.transform(concat_feature_matrix(test))
    )
    ba_ef = compute_metrics(count_outcomes(y, p_ef > 0.5)).ba

    P = np.column_stack([p_cols[s] for s in SENSORS])
    ba_lfa = compute_metrics(count_outcomes(y, P.mean(axis=1) > 0.5)).ba

    lfl = late_fusion_learned(train, label, singles, seed=1)
    ba_lfl = compute_metrics(
        count_outcomes(y, predict_proba_matrix(lfl.second_layer, P) > 0.5)
    ).ba

    weights = lfl.sensor_weights()
    top2 = set(sorted(weights, key=weights.get, reverse=True)[:2])
    elapsed = time.time() - start
    ok = (
        all(b >= best_single - 0.02 for b in (ba_ef, ba_lfa, ba_lfl))
        and top2 == {"acc", "gyro"}
        and elapsed < 300
    )
    _report(
        6,
        ok,
        f"best single={best_single:.3f} ef={ba_ef:.3f} lfa={ba_lfa:.3f} "
        f"lfl={ba_lfl:.3f} top2={sorted(top2)} in {elapsed:.0f}s",
    )


def test_criterion_7_time_bins():
    start = time.time()
    ok = all(time_bin_indicators(h).sum() == 2.0 for h in range(24))
    elapsed = time.time() - start
    _report(7, ok and elapsed < 1.0, f"24 hours exhaustive in {elapsed * 1e3:.1f}ms")


def test_criterion_8_normalization_invariants():
    start = time.time()
    rng = np.random.default_rng(103)
    ok = True

    for _ in range(300):
        n = int(rng.integers(8, 500))
        x = np.abs(rng.normal(size=n)) * rng.uniform(0.01, 100)
        ve = scalar_series_features(x, 40.0)[7]
        if not 0.0 <= ve <= math.log(20) + 1e-12:
            ok = False

    for _ in range(200):
        ps = PhoneStateSnapshot(
            **{
                prop: allowed[int(rng.integers(0, len(allowed)))]
                for prop, allowed in PHONE_STATE_VALUES.items()
            },
            hour_of_day=int(rng.integers(0, 24)),
        )
        fv = extract_phone_state_features(ps)
        sizes = [len(v) for v in PHONE_STATE_VALUES.values()]
        pos = 0
        for size in sizes:
            if fv.values[pos : pos + size].sum() != 1.0:
                ok = False
            pos += size

    from ctxfuse.classifier import SingleSensorModel, TrivialModel

    ex = feature_example("u0", 0, {s: rng.normal(size=d) for s, d in
                                   zip(SENSORS, (26, 26, 46, 17, 26, 34))})
    for _ in range(200):
        probs = rng.uniform(0.001, 0.999, size=6)
        comps = {
            s: SingleSensorModel(sensor=s, label="L", standardizer=None,
                                 model=TrivialModel(probability=p))
            for s, p in zip(SENSORS, probs)
        }
        p = late_fusion_average(comps, [ex])[0]
        if not probs.min() - 1e-12 <= p <= probs.max() + 1e-12:
            ok = False

    _report(8, ok and time.time() - start < 60,
            "entropy bounds, one-hot groups, LFA range all hold")


def test_criterion_9_personalization_protocol():
    start = time.time()
    background, test_user, label = drift_user_scenario(
        seed=41, n_per_background=150, n_test_user=600
    )
    universal = {
        label: early_fusion(background, label, cost=1.0),
        "NEVER_POSITIVE": early_fusion(background, label, cost=1.0),
    }
    split = split_user_timeline(test_user)
    results = evaluate_personalization(
        universal, split, [label, "NEVER_POSITIVE"], seed=2,
        universal_train_users=sorted({ex.user_id for ex in background}),
    )

    chance = results["NEVER_POSITIVE"]
    ok = chance.individual.trivial and chance.individual.ba == 0.5 and chance.individual.f1 == 0.0

    pr = results[label].probabilities
    ok = ok and pr["individual"] is not None
    ok = ok and np.array_equal(pr["adapted"], (pr["universal"] + pr["individual"]) / 2.0)

    adapt_ids = {(ex.user_id, ex.timestamp) for ex in split.adaptation}
    deploy_ids = {(ex.user_id, ex.timestamp) for ex in split.deployment}
    train_ids = {(ex.user_id, ex.timestamp) for ex in background}
    ok = ok and not (deploy_ids & adapt_ids) and not (deploy_ids & train_ids)

    _report(9, ok and time.time() - start < 60,
            "chance convention, exact-mean adaptation, no identity overlap")


@pytest.mark.skipif(
    not os.environ.get("CTXFUSE_DATASET_FEATURES"),
    reason="public dataset not available (set CTXFUSE_DATASET_FEATURES, "
    "CTXFUSE_DATASET_PARTITION, CTXFUSE_DATASET_LABELS)",
)
def test_criterion_10_dataset_reproduction():
    features_dir = os.environ["CTXFUSE_DATASET_FEATURES"]
    partition_path = os.environ["CTXFUSE_DATASET_PARTITION"]
    labels_path = os.environ["CTXFUSE_DATASET_LABELS"]

    labels = [
        line.strip()
        for line in open(labels_path, encoding="utf-8")
        if line.strip() and not line.startswith("#")
    ]
    dataset = Dataset.from_examples(load_features_dir(features_dir))
    partition = load_fold_partition(partition_path)

    out = cross_validate(
        dataset, labels, ["ef", "lfa", "lfl"], partition, mode="cv5", seed=0,
        jobs=int(os.environ.get("CTXFUSE_JOBS", "1")),
    )
    averages = {
        sys_name: float(np.mean([out[sys_name][l].report.ba for l in labels]))
        for sys_name in ("ef", "lfa", "lfl")
    }
    lying = next((l for l in labels if l == "LYING_DOWN"), None)
    lying_ok = True
    detail = f"avg BA {averages}"
    if lying is not None:
        lying_ba = out["lfl"][lying].report.ba
        lying_ok = abs(lying_ba - 0.88) <= 0.03
        detail += f", LYING_DOWN lfl={lying_ba:.3f}"
    ok = (
        abs(averages["lfl"] - 0.80) <= 0.03
        and abs(averages["lfa"] - 0.80) <= 0.03
        and abs(averages["ef"] - 0.77) <= 0.03
        and lying_ok
    )
    _report(10, ok, detail)
