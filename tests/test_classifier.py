import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import ctxfuse.classifier as classifier
from ctxfuse.classifier import (
    COST_GRID,
    DegenerateLabelError,
    LinearModel,
    balanced_weights,
    f1_binary,
    fit_single_sensor_model,
    fit_standardizer,
    loss_and_gradient,
    predict_proba_matrix,
    select_cost,
    stratified_split_third,
    train_linear,
)


def _independent_loss(params, X, y, C, balanced=True):
    """The objective rewritten from its definition, for oracle optimizers."""
    w, b = np.asarray(params[:-1]), params[-1]
    n = len(y)
    n_pos = int(sum(y))
    total = 0.5 * float(w @ w)
    for i in range(n):
        if balanced:
            a = n / (2.0 * n_pos) if y[i] == 1 else n / (2.0 * (n - n_pos))
        else:
            a = 1.0
        z = float(X[i] @ w + b)
        margin = z if y[i] == 1 else -z
        # log(1 + exp(-margin)), computed stably
        total += C * a * (math.log1p(math.exp(-abs(margin))) + max(0.0, -margin))
    return total


def _old_loss_and_gradient(params, X, ys, wts, C):
    """The objective as the library computed it before the Newton solver."""
    w, b = params[:-1], params[-1]
    m = ys * (X @ w + b)
    resid = -wts * ys * expit(-m)
    grad = np.empty_like(params)
    grad[:-1] = w + C * (X.T @ resid)
    grad[-1] = C * resid.sum()
    return 0.5 * float(w @ w) + C * float(np.dot(wts, np.logaddexp(0.0, -m))), grad


def _lbfgs_polish_fit(X, y, C, balanced=True):
    """The fit the Newton solver replaced, kept as its oracle: scipy's
    L-BFGS-B from zero, then full Newton steps until the gradient norm is
    within the tolerance. Returns ``(params, tol)``.
    """
    wts = balanced_weights(y) if balanced else np.ones(len(y))
    ys = np.where(y > 0, 1.0, -1.0)
    x0 = np.zeros(X.shape[1] + 1)
    _, g0 = _old_loss_and_gradient(x0, X, ys, wts, C)
    tol = 1e-6 * max(1.0, float(np.linalg.norm(g0)))
    res = minimize(_old_loss_and_gradient, x0, args=(X, ys, wts, C), method="L-BFGS-B",
                   jac=True, options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})

    params = res.x
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    reg = np.ones(params.shape[0])
    reg[-1] = 0.0
    loss, grad = _old_loss_and_gradient(params, X, ys, wts, C)
    for _ in range(100):
        if np.linalg.norm(grad) <= tol:
            break
        s = expit(Xa @ params)
        H = (Xa * (C * wts * s * (1.0 - s))[:, None]).T @ Xa + np.diag(reg)
        step = np.linalg.solve(H, grad)
        t = 1.0
        for _ in range(60):
            trial = params - t * step
            new_loss, new_grad = _old_loss_and_gradient(trial, X, ys, wts, C)
            if new_loss <= loss - 1e-4 * t * float(grad @ step):
                params, loss, grad = trial, new_loss, new_grad
                break
            t *= 0.5
        else:
            break
    assert np.linalg.norm(grad) <= tol
    return params, tol


def _solver_problem(d, separable, n=240, seed=0):
    """Standardized-scale rows with a 30 % positive class; ``separable``
    drops the label noise, so large costs push the weights far out."""
    rng = np.random.default_rng(seed + d)
    X = rng.normal(size=(n, d))
    s = X @ rng.normal(size=d) + (0.0 if separable else 2.0) * rng.normal(size=n)
    return X, (s > np.quantile(s, 0.7)).astype(int)


def _assert_same_fit(model, params, X, y, tol, balanced):
    """Parameters within 1e-6 relative (in norm), identical training-row
    decisions, and the model's gradient norm within ``tol``."""
    got = np.append(model.weights, model.intercept)
    assert np.linalg.norm(got - params) <= 1e-6 * max(1.0, np.linalg.norm(params))
    assert np.array_equal(X @ model.weights + model.intercept > 0, X @ params[:-1] + params[-1] > 0)
    wts = balanced_weights(y) if balanced else np.ones(len(y))
    _, g = loss_and_gradient(got, X, np.where(y > 0, 1.0, -1.0), wts, model.cost)
    assert np.linalg.norm(g) <= tol


# ---------------------------------------------------------------------------
# standardizer
# ---------------------------------------------------------------------------

def test_standardizer_population_statistics():
    s = fit_standardizer(np.array([[1.0], [2.0], [3.0]]))
    assert s.means[0] == 2.0
    assert np.isclose(s.stds[0], math.sqrt(2.0 / 3.0))
    assert np.isclose(s.stds[0], 0.816496580927726)


def test_standardizer_constant_column_maps_to_zero():
    X = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
    s = fit_standardizer(X)
    assert s.stds[1] == 1.0
    assert np.allclose(s.transform(X)[:, 1], 0.0)


def test_standardized_training_matrix_has_unit_statistics():
    rng = np.random.default_rng(0)
    X = rng.normal(loc=5, scale=3, size=(200, 6))
    Z = fit_standardizer(X).transform(X)
    assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(Z.std(axis=0) - 1) < 1e-9)


def test_fully_masked_column_flagged_and_imputed():
    X = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan]])
    s = fit_standardizer(X)
    assert s.means[1] == 0.0 and s.stds[1] == 1.0
    Z = s.transform(X)
    assert np.all(Z[:, 1] == 0.0)


def test_masked_entries_impute_to_training_mean():
    X = np.array([[1.0], [3.0]])
    s = fit_standardizer(X)
    Z = s.transform(np.array([[np.nan]]))
    assert Z[0, 0] == 0.0  # the training mean, standardized


def test_standardizer_needs_two_rows():
    with pytest.raises(ValueError):
        fit_standardizer(np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 10))
        X = rng.normal(size=(n, d))
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
            e[j] = 1e-6
            fp, _ = loss_and_gradient(params + e, X, ys, wts, C)
            fm, _ = loss_and_gradient(params - e, X, ys, wts, C)
            num[j] = (fp - fm) / 2e-6
        assert np.linalg.norm(g - num) <= 1e-4 * max(1.0, np.linalg.norm(num))


def test_loss_and_gradient_extreme_scores_stable():
    # scores z = X w + b with w = 1, b = 0: the regularizer adds 0.5
    z = np.array([-800.0, -50.0, 0.0, 50.0, 800.0])
    ys = np.ones(5)
    wts = np.ones(5)
    loss, grad = loss_and_gradient(np.array([1.0, 0.0]), z[:, None], ys, wts, 1.0)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))
    # for a large positive margin the loss term vanishes; for a large
    # negative margin it grows linearly
    assert np.isclose(loss - 0.5, 800.0 + 50.0 + np.log(2) + np.log1p(np.exp(-50)), atol=1e-9)


def test_expit_matches_scipy():
    z = np.concatenate([[-800.0, 800.0, 0.0, -0.0],
                        np.random.default_rng(8).normal(scale=20.0, size=1000)])
    got = classifier._expit(z)
    assert got[0] == 0.0 and got[1] == 1.0 and got[2] == got[3] == 0.5
    assert np.allclose(got, expit(z), rtol=1e-15, atol=0)


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unweighted"])
@pytest.mark.parametrize("separable", [False, True], ids=["noisy", "separable"])
@pytest.mark.parametrize("d", [1, 46, 175])
def test_newton_matches_lbfgs_polish_oracle(d, separable, balanced):
    X, y = _solver_problem(d, separable)
    for c in COST_GRID:
        params, tol = _lbfgs_polish_fit(X, y, c, balanced)
        _assert_same_fit(train_linear(X, y, c, balanced=balanced), params, X, y, tol, balanced)


@pytest.mark.parametrize("separable", [False, True], ids=["noisy", "separable"])
@pytest.mark.parametrize("d", [1, 46, 175])
def test_warm_started_grid_matches_cold_starts(d, separable):
    X, y = _solver_problem(d, separable, seed=1)
    warm = None
    for c in COST_GRID:
        cold = train_linear(X, y, c)
        warm = train_linear(X, y, c, warm_start=warm)
        params, tol = _lbfgs_polish_fit(X, y, c)
        _assert_same_fit(cold, params, X, y, tol, True)
        _assert_same_fit(warm, np.append(cold.weights, cold.intercept), X, y, tol, True)


def test_select_cost_warm_starts_each_grid_fit_from_the_previous(monkeypatch):
    starts = []
    original = classifier.train_linear

    def recording(X, y, C, **kwargs):
        starts.append(kwargs.get("warm_start"))
        model = original(X, y, C, **kwargs)
        starts.append(model)
        return model

    monkeypatch.setattr(classifier, "train_linear", recording)
    X, y = _solver_problem(5, False)
    select_cost(X, y, seed=0)
    # (start, result) per grid cost: each fit starts from the one before
    assert len(starts) == 2 * len(COST_GRID)
    assert starts[0] is None
    for i in range(1, len(COST_GRID)):
        assert starts[2 * i] is starts[2 * i - 1]


def test_solver_held_to_one_step_raises_naming_both_norms(monkeypatch):
    monkeypatch.setattr(classifier, "NEWTON_MAX_STEPS", 1)
    X, y = _solver_problem(46, False)
    with pytest.raises(RuntimeError,
                       match=r"gradient tolerance \(\d\.\d{3}e[+-]\d+ > \d\.\d{3}e[+-]\d+\)"):
        train_linear(X, y, 10.0)


def test_minimize_reports_point_gradient_and_steps():
    X, y = _solver_problem(3, False)
    ys = np.where(y > 0, 1.0, -1.0)
    Xa = classifier._with_intercept_column(X)
    res = classifier.minimize(classifier._objective, np.zeros(4),
                              args=(Xa, ys, balanced_weights(y), 1.0), tol=1e-6)
    _, g = loss_and_gradient(res.x, X, ys, balanced_weights(y), 1.0)
    assert np.array_equal(res.jac, g)
    assert np.linalg.norm(g) <= 1e-6
    assert 1 <= res.nit <= 20


def _block_hessian(params, X, ys, wts, C):
    """The Hessian as separate weight, cross and intercept blocks, from the
    unaugmented rows (the formula the symmetric product replaced)."""
    w, b = params[:-1], params[-1]
    m = ys * (X @ w + b)
    e = np.exp(-np.abs(m))
    d = C * wts * e / (1.0 + e) ** 2
    p = w.shape[0]
    H = np.empty((p + 1, p + 1))
    H[:p, :p] = (X.T * d) @ X + np.eye(p)
    H[:p, p] = H[p, :p] = X.T @ d
    H[p, p] = d.sum()
    return H


@pytest.mark.parametrize("rows", ["n<d+1", "n>d+1"])
@pytest.mark.parametrize("d", [1, 46, 175])
def test_symmetric_product_hessian_matches_block_formula(d, rows):
    rng = np.random.default_rng(d)
    n = max(1, d // 2) if rows == "n<d+1" else 3 * d + 10
    X = rng.normal(size=(n, d))
    ys = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    wts = rng.uniform(0.5, 2.0, size=n)
    params = rng.normal(scale=0.3, size=d + 1)
    for C in (0.01, 1.0, 100.0):
        _, _, hessian = classifier._objective(
            params, classifier._with_intercept_column(X), ys, wts, C)
        H = hessian()
        want = _block_hessian(params, X, ys, wts, C)
        assert H.shape == (d + 1, d + 1)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - want)) <= 1e-12 * np.max(np.abs(want))


def test_separable_symmetric_data():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    m = train_linear(X, y, 100.0)
    assert predict_proba_matrix(m, np.array([[1.0]]))[0] > 0.9
    assert np.isclose(predict_proba_matrix(m, np.array([[0.0]]))[0], 0.5, atol=1e-9)
    # the minimum agrees with a derivative-free optimizer on the
    # independently written objective
    res = minimize(
        _independent_loss, np.zeros(2), args=(X, y, 100.0, True),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000},
    )
    mine = _independent_loss(np.array([m.weights[0], m.intercept]), X, y, 100.0, True)
    assert mine <= res.fun + 1e-9
    assert np.allclose([m.weights[0], m.intercept], res.x, atol=1e-4)


def test_single_class_raises_degenerate():
    with pytest.raises(DegenerateLabelError):
        train_linear(np.array([[1.0], [2.0]]), np.array([1, 1]), 1.0)


def test_balanced_class_totals_exactly_equal():
    rng = np.random.default_rng(1)
    y = (rng.random(1000) < 0.07).astype(int)
    w = balanced_weights(y)
    assert w[y == 1].sum() == w[y == 0].sum()


def test_duplication_equals_doubled_cost():
    # per-example balanced weights are invariant to duplication; the data
    # term doubles, which is exactly a doubled cost on the original set
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
    assert np.array_equal(balanced_weights(np.tile(y, 2))[:30], balanced_weights(y))
    m_dup = train_linear(np.vstack([X, X]), np.hstack([y, y]), 1.0)
    m_2c = train_linear(X, y, 2.0)
    assert np.allclose(m_dup.weights, m_2c.weights, atol=1e-6)
    assert np.isclose(m_dup.intercept, m_2c.intercept, atol=1e-6)


def test_imbalanced_nine_vs_one():
    X = np.array([[-1.0]] * 9 + [[1.0]])
    y = np.array([0] * 9 + [1])
    C = 0.01
    balanced = train_linear(X, y, C)
    control = train_linear(X, y, C, balanced=False)
    assert balanced.weights[0] > 0
    assert predict_proba_matrix(balanced, np.array([[1.0]]))[0] > 0.5
    assert predict_proba_matrix(control, np.array([[1.0]]))[0] < 0.5

    # verify both optima against a derivative-free optimizer on an
    # independently written loss
    for model, is_balanced in ((balanced, True), (control, False)):
        res = minimize(
            _independent_loss,
            np.zeros(2),
            args=(X, y, C, is_balanced),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000},
        )
        mine = _independent_loss(np.array([model.weights[0], model.intercept]), X, y, C, is_balanced)
        assert mine <= res.fun + 1e-9
        assert np.allclose([model.weights[0], model.intercept], res.x, atol=1e-4)


def test_loss_at_model_not_worse_than_zero_model():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    y = (X @ rng.normal(size=4) > 0).astype(int)
    m = train_linear(X, y, 1.0)
    params = np.append(m.weights, m.intercept)
    ys = np.where(y > 0, 1.0, -1.0)
    wts = balanced_weights(y)
    loss_model, _ = loss_and_gradient(params, X, ys, wts, 1.0)
    loss_zero, _ = loss_and_gradient(np.zeros(5), X, ys, wts, 1.0)
    assert loss_model <= loss_zero


def test_nonfinite_parameters_rejected():
    with pytest.raises(ValueError):
        LinearModel(weights=np.array([np.inf]), intercept=0.0, cost=1.0)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_zero_model_predicts_half_and_negative():
    m = LinearModel(weights=np.zeros(3), intercept=0.0, cost=1.0)
    p = predict_proba_matrix(m, np.ones((1, 3)))[0]
    assert p == 0.5
    assert not p > 0.5  # the tie decides negative


def test_log3_score_gives_three_quarters():
    m = LinearModel(weights=np.array([math.log(3.0)]), intercept=0.0, cost=1.0)
    p = predict_proba_matrix(m, np.array([[1.0]]))[0]
    assert np.isclose(p, 0.75, atol=1e-12)


def test_probability_strictly_inside_unit_interval():
    m = LinearModel(weights=np.array([1000.0]), intercept=0.0, cost=1.0)
    hi = predict_proba_matrix(m, np.array([[1.0]]))[0]
    lo = predict_proba_matrix(m, np.array([[-1.0]]))[0]
    assert 0.0 < lo < hi < 1.0


def test_probability_monotone_in_score():
    m = LinearModel(weights=np.array([1.0]), intercept=0.3, cost=1.0)
    xs = np.linspace(-5, 5, 50)[:, None]
    ps = predict_proba_matrix(m, xs)
    assert np.all(np.diff(ps) > 0)


# ---------------------------------------------------------------------------
# cost selection
# ---------------------------------------------------------------------------

def test_grid_is_the_six_published_values():
    assert COST_GRID == (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


def test_all_ties_choose_smallest_cost():
    X = np.array([[-1.0]] * 6 + [[1.0]] * 6)
    y = np.array([0] * 6 + [1] * 6)
    c, fell_back = select_cost(X, y, seed=0)
    assert not fell_back
    assert c == 0.001


def test_underfit_cost_rejected():
    # a large-scale noisy feature next to a small-scale clean one: at tiny C
    # the cheap noisy direction wins and the validation F1 collapses, while
    # C=10 affords the weight the clean feature needs
    rng = np.random.default_rng(5)
    n = 150
    y = rng.integers(0, 2, n)
    sgn = 2 * y - 1
    noisy = 100.0 * (0.25 * sgn + rng.normal(size=n))
    clean = 0.1 * (sgn + 0.05 * rng.normal(size=n))
    X = np.column_stack([noisy, clean])

    train_idx, val_idx = stratified_split_third(y, seed=9)
    scores = {}
    for c in (0.001, 10.0):
        m = train_linear(X[train_idx], y[train_idx], c)
        pred = predict_proba_matrix(m, X[val_idx]) > 0.5
        scores[c] = f1_binary(y[val_idx], pred)
    assert scores[10.0] - scores[0.001] > 0.1  # the premise of the check

    c, _ = select_cost(X, y, seed=9)
    assert c != 0.001


def test_too_few_positives_falls_back_flagged():
    X = np.arange(10.0)[:, None]
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    c, fell_back = select_cost(X, y, seed=0)
    assert (c, fell_back) == (1.0, True)


def test_split_preserves_class_proportions():
    rng = np.random.default_rng(6)
    y = (rng.random(90) < 0.3).astype(int)
    train_idx, val_idx = stratified_split_third(y, seed=1)
    assert len(set(train_idx) & set(val_idx)) == 0
    assert len(train_idx) + len(val_idx) == 90
    n_pos = y.sum()
    assert y[val_idx].sum() == round(n_pos / 3)


def test_selection_is_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0.2).astype(int)
    c1, _ = select_cost(X, y, seed=123)
    c2, _ = select_cost(X, y, seed=123)
    assert c1 == c2
    m1 = train_linear(X, y, c1)
    m2 = train_linear(X, y, c1)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.intercept == m2.intercept


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_single_class_pipeline_gives_trivial_model():
    X = np.random.default_rng(8).normal(size=(5, 17))
    m = fit_single_sensor_model("loc", "RARE", X, np.zeros(5, dtype=int))
    assert m.is_trivial
    assert m.model.probability == 0.0
    assert "trivial:single_class" in m.notes
