"""Per-(sensor, label) linear classifier pipeline.

Training standardizes features, weights examples so both classes carry
equal total weight, and minimizes

    0.5 * ||w||^2 + C * sum_i a_i * log(1 + exp(-y_i (w.x_i + b)))

with an unregularized intercept, to gradient norm <= 1e-6 * max(1, initial).
The cost C comes from a validation grid search on F1 unless fixed by the
caller. :func:`minimize` is the one solver: damped Newton with the exact
Hessian (the fits are small, d <= 175) and an Armijo line search, stopping
well inside the tolerance. The rows a fit trains on carry its per-row setup:
the intercept's column, the +-1 labels, the balanced weights and one
workspace (the float32 curvature-scaled rows and their product, and the
float64 Hessian), which every Newton step overwrites. :func:`select_cost`
builds that setup once for its six grid fits.

:data:`COST_GRID` is geometric, so the grid fits lie on a path along log C.
The first fit starts from zero, the second from the first's solution and
each later one from the secant step ``2 x(k-1) - x(k-2)`` through the two
before it. The final fit on all rows starts from the grid's solution at the
chosen cost. Starts change how many Newton steps a fit takes, not the
minimizer it reaches; each fit's step count is kept on its model.
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
    all-NaN columns store mean 0 and std 1 and standardize to 0 as well.
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
    newton_steps: int  # the solver's steps from its start to this fit

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
class SensorModel:
    """One label's standardized model on the concatenated features of
    ``sensors``: a single-sensor model is the one-sensor case, an
    early-fusion model the six-sensor one."""

    label: str
    sensors: tuple
    standardizer: Optional[Standardizer]
    model: Union[LinearModel, TrivialModel]
    notes: tuple = ()

    def __post_init__(self):
        if isinstance(self.model, LinearModel) and self.standardizer is not None:
            if self.standardizer.dim != self.model.weights.shape[0]:
                raise ValueError("standardizer and model dimensions differ")

    @property
    def dim(self) -> int:
        return sum(FEATURE_DIMS[s] for s in self.sensors)

    @property
    def is_trivial(self) -> bool:
        return isinstance(self.model, TrivialModel)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Column statistics over the non-NaN entries; population std."""
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


def _hessian_workspace(Xa) -> tuple:
    """``(Xs, P, H)``: the curvature-scaled rows of ``Xa`` and their product
    ``Xs.T @ Xs`` in float32, and the float64 Hessian; allocated once per
    training rows and overwritten by every Hessian taken on them."""
    k = Xa.shape[1]
    return np.empty(Xa.shape, dtype=np.float32), np.empty((k, k), dtype=np.float32), np.empty((k, k))


@dataclass(frozen=True)
class _TrainingRows:
    """What every fit on one set of training rows shares: the rows with the
    intercept's column (:func:`_with_intercept_column`), the labels as +-1,
    the :func:`balanced_weights` and the :func:`_hessian_workspace`."""

    Xa: np.ndarray
    y_signed: np.ndarray
    weights: np.ndarray
    workspace: tuple


def _training_rows(X, y) -> _TrainingRows:
    """The per-row setup of fits on rows ``X`` with 0/1 labels ``y``."""
    Xa = _with_intercept_column(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    y = np.asarray(y)
    return _TrainingRows(Xa, np.where(y > 0, 1.0, -1.0), balanced_weights(y), _hessian_workspace(Xa))


def _fit_args(rows: _TrainingRows, C) -> tuple:
    """:func:`_objective`'s arguments after the parameters, for a fit at cost
    ``C`` on ``rows``: the products ``C a`` and ``-C a y`` are formed once
    per fit rather than in every objective call."""
    Ca = C * rows.weights
    return rows, C, Ca, -Ca * rows.y_signed


def _objective(params, rows, C, Ca, neg_Cay):
    """Loss, gradient and Hessian of the training objective at packed
    parameters (weights..., intercept) on :class:`_TrainingRows` ``rows``,
    with ``Ca`` and ``neg_Cay`` from :func:`_fit_args`.

    The Hessian comes back as a function of no arguments, so a line search
    pays for it only at the point it accepts. It is written into the rows'
    workspace and returned there, so it holds only until the next Hessian
    on those rows. With margins ``m = y z`` and ``e = exp(-|m|)``, the loss
    terms are ``log1p(e) + max(-m, 0)``, ``sigmoid(-m)`` is ``e / (1 + e)``
    or ``1 / (1 + e)`` and the curvature ``sigmoid(m) sigmoid(-m)`` is
    ``e / (1 + e)^2``: finite at every score. With ``Xs`` the rows scaled by
    the square roots of their curvatures, the Hessian is the one symmetric
    product ``Xs.T @ Xs`` plus 1 on the weight diagonal (the intercept is
    unregularized). ``Xs`` and the product are float32, which halves the
    product's cost; the product is then copied into the float64 Hessian.
    Only the Newton direction carries that rounding: the loss and gradient,
    which decide where the solver stops, are float64.
    """
    Xa, w = rows.Xa, params[:-1]
    m = rows.y_signed * (Xa @ params)
    e = np.exp(-np.abs(m))
    one_e = 1.0 + e
    loss = 0.5 * float(w @ w) + C * float(rows.weights @ (np.log1p(e) + np.maximum(-m, 0.0)))
    grad = Xa.T @ (neg_Cay * np.where(m >= 0, e, 1.0) / one_e)
    grad[:-1] += w

    def hessian():
        Xs, P, H = rows.workspace
        np.multiply(Xa, np.sqrt(Ca * e / one_e ** 2)[:, None], out=Xs, casting="same_kind")
        np.matmul(Xs.T, Xs, out=P)
        H[...] = P
        d = w.shape[0]
        H.reshape(-1)[: d * (d + 2) : d + 2] += 1.0  # the weight diagonal, as a strided view
        return H

    return loss, grad, hessian


def _gradient_at_zero(rows: _TrainingRows, neg_Cay) -> np.ndarray:
    """:func:`_objective`'s gradient at zero without its loss or Hessian:
    every margin is 0 there, so each row's residual is ``-C a y / 2``."""
    return rows.Xa.T @ (neg_Cay / 2.0)


@dataclass(frozen=True)
class NewtonResult:
    """The point :func:`minimize` stopped at, its gradient and its Newton steps."""

    x: np.ndarray
    jac: np.ndarray
    nit: int


def minimize(fun, x0, *, args=(), tol, at_x0=None) -> NewtonResult:
    """Damped Newton minimization of a smooth convex objective.

    ``fun(x, *args)`` returns ``(f, g, hessian)`` with ``hessian()`` the
    Hessian at ``x``; ``at_x0`` is ``fun(x0, *args)`` when the caller has
    already evaluated it. Each iteration solves ``H p = g`` and halves the step
    from 1 until the Armijo condition holds. Inside ``tol`` the loss moves
    at rounding level, so a step that lowers the gradient norm is accepted
    too. The solver stops at ``||g|| <= NEWTON_STOP_FRACTION * tol``; or
    once an accepted step that ends inside ``tol`` lowers neither the loss
    nor the gradient norm; or when no step is accepted; or after
    ``NEWTON_MAX_STEPS`` steps. Whether ``tol`` was reached is the caller's
    check.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, g, hessian = fun(x, *args) if at_x0 is None else at_x0
    g_norm = np.sqrt(g @ g)
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
            g_norm_new = np.sqrt(g_new @ g_new)
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
    X,
    y: np.ndarray,
    C: float,
    *,
    start: Optional[np.ndarray] = None,
) -> LinearModel:
    """Fit the regularized logistic model on a standardized matrix, each
    example weighted by :func:`balanced_weights`.

    ``X`` is the matrix, or the :class:`_TrainingRows` that
    :func:`select_cost` builds once from its training rows and labels ``y``
    for all its grid fits. ``start`` is the packed (weights..., intercept)
    point the solver starts from, zero when None (:func:`select_cost`
    passes extrapolations along the grid). The tolerance is always taken
    at zero; a started fit evaluates only the gradient there. Raises
    :class:`DegenerateLabelError` when only one class is present.
    """
    if C <= 0:
        raise ValueError("cost C must be positive")
    rows = X if isinstance(X, _TrainingRows) else _training_rows(X, y)
    args = _fit_args(rows, C)
    zero = np.zeros(rows.Xa.shape[1])
    if start is None:
        x0, at_x0 = zero, _objective(zero, *args)
        g0 = at_x0[1]
    else:
        x0, at_x0 = start, None
        g0 = _gradient_at_zero(rows, args[-1])
    tol = GRADIENT_TOLERANCE * max(1.0, float(np.sqrt(g0 @ g0)))

    res = minimize(_objective, x0, args=args, tol=tol, at_x0=at_x0)
    g_norm = np.sqrt(res.jac @ res.jac)
    if g_norm > tol:
        raise RuntimeError(
            f"optimizer failed to reach gradient tolerance ({g_norm:.3e} > {tol:.3e})"
        )
    return LinearModel(
        weights=res.x[:-1], intercept=float(res.x[-1]), cost=float(C), newton_steps=res.nit
    )


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

    The one inference path for a :class:`SensorModel`, whose rows are its
    sensors' features side by side. Standardize (NaN entries impute to the
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

    Returns ``(C, fell_back, x)`` with ``x`` the packed (weights...,
    intercept) grid solution at C, the final fit's start. Ties keep the
    smallest C. The grid fits share one per-row setup of the training
    rows (:func:`_training_rows`). The first fit starts from zero, the
    second from the first's solution and each later one from the secant
    step through the two solutions before it. With fewer than 3 examples
    of either class the split cannot be stratified and the fallback C = 1
    is returned flagged, with ``x`` None.
    """
    y = np.asarray(y)
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    if n_pos < 3 or n_neg < 3:
        return 1.0, True, None

    train_idx, val_idx = stratified_split_third(y, seed)
    y_train, X_val, y_val = y[train_idx], X[val_idx], y[val_idx]
    rows = _training_rows(X[train_idx], y_train)  # shared by the six grid fits
    best_c, best_f1, best_x = None, -1.0, None
    start = previous = None
    for c in COST_GRID:
        model = train_linear(rows, y_train, c, start=start)
        x = np.append(model.weights, model.intercept)
        # COST_GRID is geometric: the secant step along log C
        start = x if previous is None else 2.0 * x - previous
        previous = x
        pred = predict_proba_matrix(model, X_val) > 0.5
        score = f1_binary(y_val, pred)
        if score > best_f1:
            best_c, best_f1, best_x = c, score, x
    return float(best_c), False, best_x


def _train_at_selected_cost(Z, y, *, cost: Optional[float], seed: int) -> tuple:
    """``(model, notes)``: fit at ``cost``, or at the grid-searched one when
    None, started from the grid's solution at that cost."""
    notes, start = (), None
    if cost is None:
        cost, fell_back, start = select_cost(Z, y, seed=seed)
        if fell_back:
            notes = ("cost_fallback:C=1",)
    return train_linear(Z, y, cost, start=start), notes


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


def _fit_standardized(
    label, sensors: tuple, standardizer, Z, y, *, cost: Optional[float], seed: int
) -> SensorModel:
    """Select the cost and fit ``label``'s model on rows ``Z`` that
    ``standardizer`` produced from the features of ``sensors``.

    The one array-level fit of standardized models. Single-class targets
    give a flagged trivial constant model instead of an error; it is never
    scored on features, so its standardizer is None.
    """
    y = np.asarray(y).astype(np.int64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        trivial = TrivialModel(probability=0.0 if n_pos == 0 else 1.0)
        return SensorModel(label, sensors, None, trivial, ("trivial:single_class",))
    model, notes = _train_at_selected_cost(Z, y, cost=cost, seed=seed)
    return SensorModel(label, sensors, standardizer, model, notes)

