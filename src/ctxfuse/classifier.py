"""Per-(sensor, label) linear classifier pipeline.

Training standardizes features, weights examples so both classes carry
equal total weight, and minimizes

    0.5 * ||w||^2 + C * sum_i a_i * log(1 + exp(-y_i (w.x_i + b)))

with an unregularized intercept, to gradient norm <= 1e-6 * max(1, initial).
The cost C comes from a validation grid search on F1 unless fixed by the
caller. :func:`minimize` is the one solver: damped Newton with the exact
Hessian (the fits are small, d <= 175) and an Armijo line search, stopping
well inside the tolerance. Each grid fit after the first starts from the
previous cost's solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import FEATURE_DIMS

COST_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

GRADIENT_TOLERANCE = 1e-6

#: :func:`minimize` stops at this fraction of its tolerance: a solve stopped
#: at the tolerance itself can flip a grid-searched cost
NEWTON_STOP_FRACTION = 1e-4

ARMIJO_SLOPE = 1e-4

NEWTON_MAX_STEPS = 100

PROBABILITY_CLIP = 1e-15


class DegenerateLabelError(ValueError):
    """Raised when training data contains a single class."""


@dataclass(frozen=True)
class Standardizer:
    """Column means/stds estimated on training data.

    Zero-variance columns store std 1 (their standardized value is 0);
    fully-masked columns store mean 0 and std 1 and standardize to 0 as well.
    """

    means: np.ndarray
    stds: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(X, dtype=np.float64)) - self.means
        Z /= self.stds  # in place: one temporary of X's size, not three
        return np.nan_to_num(Z, copy=False, nan=0.0, posinf=0.0, neginf=0.0)

    @property
    def dim(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    cost: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(w)) or not np.isfinite(self.intercept):
            raise ValueError("non-finite model parameters")
        object.__setattr__(self, "weights", w)

    def scores(self, Z: np.ndarray) -> np.ndarray:
        return np.atleast_2d(Z) @ self.weights + self.intercept


@dataclass(frozen=True)
class TrivialModel:
    """Constant-output classifier used when training data has one class."""

    probability: float


@dataclass(frozen=True)
class SingleSensorModel:
    sensor: str
    label: str
    standardizer: Optional[Standardizer]
    model: Union[LinearModel, TrivialModel]
    notes: tuple = ()

    def __post_init__(self):
        if isinstance(self.model, LinearModel) and self.standardizer is not None:
            if self.standardizer.dim != self.model.weights.shape[0]:
                raise ValueError("standardizer and model dimensions differ")

    @property
    def dim(self) -> int:
        return FEATURE_DIMS[self.sensor]

    @property
    def is_trivial(self) -> bool:
        return isinstance(self.model, TrivialModel)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Column statistics over unmasked (non-NaN) entries; population std."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 rows")
    all_masked = np.isnan(X).all(axis=0)
    means = np.zeros(X.shape[1])
    stds = np.ones(X.shape[1])
    if not all_masked.all():
        cols = ~all_masked
        means[cols] = np.nanmean(X[:, cols], axis=0)
        col_stds = np.nanstd(X[:, cols], axis=0)
        col_stds[col_stds == 0.0] = 1.0
        stds[cols] = col_stds
    return Standardizer(means=means, stds=stds)


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Per-example weights n / (2 * n_class), equalizing class totals."""
    y = np.asarray(y)
    n = y.shape[0]
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelError("degenerate label: a single class is present")
    w = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return w.astype(np.float64)


def _expit(z):
    """The logistic sigmoid ``1 / (1 + exp(-z))``, free of overflow at any ``z``."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _with_intercept_column(X: np.ndarray) -> np.ndarray:
    """``X`` with a column of ones appended: the intercept's column."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _objective(params, Xa, y_signed, example_weights, C):
    """Loss, gradient and Hessian of the training objective at packed
    parameters (weights..., intercept), on rows ``Xa`` whose last column is
    the intercept's column of ones (:func:`_with_intercept_column`).

    The Hessian comes back as a function of no arguments, so a line search
    pays for it only at the point it accepts. With margins ``m = y z`` and
    ``e = exp(-|m|)``, the loss terms are ``log1p(e) + max(-m, 0)``,
    ``sigmoid(-m)`` is ``e / (1 + e)`` or ``1 / (1 + e)`` and the curvature
    ``sigmoid(m) sigmoid(-m)`` is ``e / (1 + e)^2``: finite at every score.
    With ``Xs`` the rows scaled by the square roots of their curvatures, the
    Hessian is the one symmetric product ``Xs.T @ Xs`` plus 1 on the weight
    diagonal (the intercept is unregularized).
    """
    w = params[:-1]
    m = y_signed * (Xa @ params)
    e = np.exp(-np.abs(m))
    loss = 0.5 * float(w @ w) + C * float(example_weights @ (np.log1p(e) + np.maximum(-m, 0.0)))
    resid = -C * example_weights * y_signed * np.where(m >= 0, e, 1.0) / (1.0 + e)
    grad = Xa.T @ resid
    grad[:-1] += w

    def hessian():
        Xs = Xa * np.sqrt(C * example_weights * e / (1.0 + e) ** 2)[:, None]
        H = Xs.T @ Xs
        H[np.diag_indices(w.shape[0])] += 1.0
        return H

    return loss, grad, hessian


def loss_and_gradient(params, X, y_signed, example_weights, C):
    """Objective and gradient at packed parameters (weights..., intercept)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    loss, grad, _ = _objective(params, _with_intercept_column(X), y_signed, example_weights, C)
    return loss, grad


@dataclass(frozen=True)
class NewtonResult:
    """The point :func:`minimize` stopped at, its gradient and its Newton steps."""

    x: np.ndarray
    jac: np.ndarray
    nit: int


def minimize(fun, x0, *, args=(), tol) -> NewtonResult:
    """Damped Newton minimization of a smooth convex objective.

    ``fun(x, *args)`` returns ``(f, g, hessian)`` with ``hessian()`` the
    Hessian at ``x``. Each iteration solves ``H p = g`` and halves the step
    from 1 until the Armijo condition holds. Inside ``tol`` the loss moves
    at rounding level, so a step that lowers the gradient norm is accepted
    too. The solver stops at ``||g|| <= NEWTON_STOP_FRACTION * tol``; or
    once an accepted step that ends inside ``tol`` lowers neither the loss
    nor the gradient norm; or when no step is accepted; or after
    ``NEWTON_MAX_STEPS`` steps. Whether ``tol`` was reached is the caller's
    check.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, g, hessian = fun(x, *args)
    g_norm = np.linalg.norm(g)
    nit = 0
    while nit < NEWTON_MAX_STEPS and g_norm > NEWTON_STOP_FRACTION * tol:
        H = hessian()
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-10 * np.eye(H.shape[0]), g)
        nit += 1
        slope = ARMIJO_SLOPE * float(g @ step)
        inside = g_norm <= tol
        t = 1.0
        for _ in range(60):
            trial = x - t * step
            f_new, g_new, h_new = fun(trial, *args)
            g_norm_new = np.linalg.norm(g_new)
            if f_new <= f - t * slope or (inside and g_norm_new < g_norm):
                break
            t *= 0.5
        else:
            break
        stalled = f_new >= f and g_norm_new >= g_norm
        x, f, g, hessian, g_norm = trial, f_new, g_new, h_new, g_norm_new
        if stalled and g_norm <= tol:
            break
    return NewtonResult(x=x, jac=g, nit=nit)


def train_linear(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    *,
    balanced: bool = True,
    warm_start: Optional[LinearModel] = None,
) -> LinearModel:
    """Fit the regularized logistic model on a standardized matrix.

    ``balanced=False`` gives the unweighted control used in tests.
    ``warm_start`` is a fit on the same rows at another cost; the solver
    starts from it instead of from zero (:func:`select_cost` passes the
    previous grid fit). The tolerance is always taken at zero. Raises
    :class:`DegenerateLabelError` when only one class is present.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y).astype(np.float64)
    if C <= 0:
        raise ValueError("cost C must be positive")
    if y.sum() == 0 or y.sum() == y.shape[0]:
        raise DegenerateLabelError("degenerate label: a single class is present")
    wts = balanced_weights(y) if balanced else np.ones(y.shape[0])

    args = (_with_intercept_column(X), np.where(y > 0, 1.0, -1.0), wts, C)
    zero = np.zeros(X.shape[1] + 1)
    _, g0, _ = _objective(zero, *args)
    tol = GRADIENT_TOLERANCE * max(1.0, float(np.linalg.norm(g0)))
    x0 = zero if warm_start is None else np.append(warm_start.weights, warm_start.intercept)

    res = minimize(_objective, x0, args=args, tol=tol)
    g_norm = np.linalg.norm(res.jac)
    if g_norm > tol:
        raise RuntimeError(
            f"optimizer failed to reach gradient tolerance ({g_norm:.3e} > {tol:.3e})"
        )
    return LinearModel(weights=res.x[:-1], intercept=float(res.x[-1]), cost=float(C))


def predict_proba_matrix(model: Union[LinearModel, TrivialModel], Z: np.ndarray) -> np.ndarray:
    """Probabilities for standardized rows, clipped strictly inside (0, 1)."""
    Z = np.atleast_2d(Z)
    if isinstance(model, TrivialModel):
        p = np.full(Z.shape[0], model.probability)
    else:
        p = _expit(model.scores(Z))
    return np.clip(p, PROBABILITY_CLIP, 1.0 - PROBABILITY_CLIP)


def predict_proba_features(model, X: np.ndarray) -> np.ndarray:
    """Probabilities for raw ``(n, model.dim)`` feature rows.

    The one inference path for standardized models: a
    :class:`SingleSensorModel` or an early-fusion model, whose rows are the
    concatenated sensor features. Standardize (NaN entries impute to the
    training mean), then score. A trivial model carries no standardizer and
    gives its clipped constant for every row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dim:
        raise ValueError("feature dimension mismatch")
    if model.is_trivial:
        return predict_proba_matrix(model.model, X)
    return predict_proba_matrix(model.model, model.standardizer.transform(X))


def f1_binary(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 with the trivial-classifier convention: no TP and no FP gives 0."""
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    tp = int(np.sum(y_true & y_pred))
    fp = int(np.sum(~y_true & y_pred))
    fn = int(np.sum(y_true & ~y_pred))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def stratified_split_third(y: np.ndarray, seed: int):
    """Validation third preserving class proportions; returns (train, val) indices."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.shape[0])]
        n_val = min(max(1, round(idx.shape[0] / 3)), idx.shape[0] - 1)
        val_idx.append(idx[:n_val])
        train_idx.append(idx[n_val:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def select_cost(X: np.ndarray, y: np.ndarray, *, seed: int = 0) -> tuple:
    """Grid-search the cost on a held-out validation third.

    Returns ``(C, fell_back)``. Ties keep the smallest C. Each fit after
    the first starts from the previous cost's solution on the same rows.
    With fewer than 3 examples of either class the split cannot be
    stratified and the fallback C = 1 is returned flagged.
    """
    y = np.asarray(y)
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    if n_pos < 3 or n_neg < 3:
        return 1.0, True

    train_idx, val_idx = stratified_split_third(y, seed)
    X_train, y_train, X_val, y_val = X[train_idx], y[train_idx], X[val_idx], y[val_idx]
    best_c, best_f1 = None, -1.0
    model = None
    for c in COST_GRID:
        model = train_linear(X_train, y_train, c, warm_start=model)
        pred = predict_proba_matrix(model, X_val) > 0.5
        score = f1_binary(y_val, pred)
        if score > best_f1:
            best_c, best_f1 = c, score
    return float(best_c), False


def _train_at_selected_cost(Z, y, *, cost: Optional[float], seed: int) -> tuple:
    """``(model, notes)``: fit at ``cost``, or at the grid-searched one when None."""
    notes = ()
    if cost is None:
        cost, fell_back = select_cost(Z, y, seed=seed)
        if fell_back:
            notes = ("cost_fallback:C=1",)
    return train_linear(Z, y, cost), notes


def _standardized(X) -> tuple:
    """``(standardizer, Z)``: a standardizer fit on the raw rows ``X`` and
    ``X`` standardized by it.

    A standardizer does not depend on the label, so callers that fit several
    labels on the same rows call this once and share the result. Fewer than 2
    rows can only carry one class, whose model is trivial and scored without
    features: no standardizer, and ``Z`` is ``X``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] < 2:
        return None, X
    standardizer = fit_standardizer(X)
    return standardizer, standardizer.transform(X)


def _fit_standardized(standardizer, Z, y, *, cost: Optional[float], seed: int) -> tuple:
    """Select the cost and fit on rows ``Z`` that ``standardizer`` produced:
    ``(standardizer, model, notes)``.

    The one array-level fit of single-sensor and early-fusion models.
    Single-class targets give a flagged trivial constant model instead of an
    error; it is never scored on features, so its standardizer is None.
    """
    y = np.asarray(y).astype(np.int64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        trivial = TrivialModel(probability=0.0 if n_pos == 0 else 1.0)
        return None, trivial, ("trivial:single_class",)
    model, notes = _train_at_selected_cost(Z, y, cost=cost, seed=seed)
    return standardizer, model, notes


def _fit_single_sensor(sensor, label, standardizer, Z, y, *, cost, seed) -> SingleSensorModel:
    """:func:`fit_single_sensor_model` on rows already standardized by ``standardizer``."""
    standardizer, model, notes = _fit_standardized(standardizer, Z, y, cost=cost, seed=seed)
    return SingleSensorModel(
        sensor=sensor, label=label, standardizer=standardizer, model=model, notes=notes
    )


def fit_single_sensor_model(
    sensor: str,
    label: str,
    X: np.ndarray,
    y: np.ndarray,
    *,
    cost: Optional[float] = None,
    seed: int = 0,
) -> SingleSensorModel:
    """Full training pipeline for one (sensor, label) pair.

    ``X`` is the raw feature matrix with NaN marking masked entries.
    ``cost=None`` grid-searches :data:`COST_GRID` on a validation third; a
    number fits at that C. Single-class labels yield a flagged trivial
    constant model instead of an error so evaluation harnesses can proceed.
    """
    return _fit_single_sensor(sensor, label, *_standardized(X), y, cost=cost, seed=seed)
