"""Per-(sensor, label) linear classifier pipeline.

Training standardizes features, weights examples so both classes carry
equal total weight, and minimizes

    0.5 * ||w||^2 + C * sum_i a_i * log(1 + exp(-y_i (w.x_i + b)))

with an unregularized intercept, to gradient norm <= 1e-6 * max(1, initial).
The cost C comes from a validation grid search on F1 unless fixed by the
caller. The contract is the minimizer, not the algorithm: a quasi-Newton
pass does the bulk of the work and full Newton steps polish to tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .kernels import logistic_terms
from .model import FEATURE_DIMS, FeatureVector

COST_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

GRADIENT_TOLERANCE = 1e-6

PROBABILITY_CLIP = 1e-15

MODEL_FORMAT_VERSION = "ctxfuse-model/1"


class DegenerateLabelError(ValueError):
    """Raised when training data contains a single class."""


@dataclass(frozen=True)
class Standardizer:
    """Column means/stds estimated on training data.

    Zero-variance columns store std 1 (their standardized value is 0);
    fully-masked columns are flagged and standardize to 0 as well.
    """

    means: np.ndarray
    stds: np.ndarray
    all_masked: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        Z = (np.atleast_2d(np.asarray(X, dtype=np.float64)) - self.means) / self.stds
        return np.nan_to_num(Z, nan=0.0, posinf=0.0, neginf=0.0)

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
    return Standardizer(means=means, stds=stds, all_masked=all_masked)


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


def loss_and_gradient(params, X, y_signed, example_weights, C):
    """Objective and gradient at packed parameters (weights..., intercept)."""
    w, b = params[:-1], params[-1]
    z = X @ w + b
    data_loss, resid = logistic_terms(z, y_signed, example_weights)
    loss = 0.5 * float(w @ w) + C * data_loss
    grad = np.empty_like(params)
    grad[:-1] = w + C * (X.T @ resid)
    grad[-1] = C * resid.sum()
    return loss, grad


def _newton_polish(params, X, y_signed, example_weights, C, tol, max_iter=100):
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    reg = np.ones(params.shape[0])
    reg[-1] = 0.0  # intercept is unregularized
    loss, grad = loss_and_gradient(params, X, y_signed, example_weights, C)
    for _ in range(max_iter):
        if np.linalg.norm(grad) <= tol:
            break
        z = Xa @ params
        s = expit(z)
        d = C * example_weights * s * (1.0 - s)
        H = (Xa * d[:, None]).T @ Xa + np.diag(reg)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-10 * np.eye(H.shape[0]), grad)
        t = 1.0
        for _ in range(60):
            trial = params - t * step
            new_loss, new_grad = loss_and_gradient(trial, X, y_signed, example_weights, C)
            if new_loss <= loss - 1e-4 * t * float(grad @ step):
                params, loss, grad = trial, new_loss, new_grad
                break
            t *= 0.5
        else:
            break
    return params, grad


def train_linear(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    *,
    balanced: bool = True,
) -> LinearModel:
    """Fit the regularized logistic model on a standardized matrix.

    ``balanced=False`` gives the unweighted control used in tests. Raises
    :class:`DegenerateLabelError` when only one class is present.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y).astype(np.float64)
    if C <= 0:
        raise ValueError("cost C must be positive")
    if y.sum() == 0 or y.sum() == y.shape[0]:
        raise DegenerateLabelError("degenerate label: a single class is present")
    wts = balanced_weights(y) if balanced else np.ones(y.shape[0])

    y_signed = np.where(y > 0, 1.0, -1.0)
    x0 = np.zeros(X.shape[1] + 1)
    _, g0 = loss_and_gradient(x0, X, y_signed, wts, C)
    tol = GRADIENT_TOLERANCE * max(1.0, float(np.linalg.norm(g0)))

    res = minimize(
        loss_and_gradient,
        x0,
        args=(X, y_signed, wts, C),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10},
    )
    params, grad = _newton_polish(res.x, X, y_signed, wts, C, tol)
    if np.linalg.norm(grad) > tol:
        raise RuntimeError(
            f"optimizer failed to reach gradient tolerance ({np.linalg.norm(grad):.3e} > {tol:.3e})"
        )
    return LinearModel(weights=params[:-1], intercept=float(params[-1]), cost=float(C))


def predict_proba_matrix(model: Union[LinearModel, TrivialModel], Z: np.ndarray) -> np.ndarray:
    """Probabilities for standardized rows, clipped strictly inside (0, 1)."""
    Z = np.atleast_2d(Z)
    if isinstance(model, TrivialModel):
        p = np.full(Z.shape[0], model.probability)
    else:
        p = expit(model.scores(Z))
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


def predict_proba(model: SingleSensorModel, features: FeatureVector) -> float:
    """P(label relevant | sensor features) for a single example (one row)."""
    if features.sensor != model.sensor:
        raise ValueError(f"feature sensor {features.sensor!r} != model sensor {model.sensor!r}")
    return float(predict_proba_features(model, features.values[None, :])[0])


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

    Returns ``(C, fell_back)``. Ties keep the smallest C. With fewer than
    3 examples of either class the split cannot be stratified and the
    fallback C = 1 is returned flagged.
    """
    y = np.asarray(y)
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    if n_pos < 3 or n_neg < 3:
        return 1.0, True

    train_idx, val_idx = stratified_split_third(y, seed)
    best_c, best_f1 = None, -1.0
    for c in COST_GRID:
        model = train_linear(X[train_idx], y[train_idx], c)
        pred = predict_proba_matrix(model, X[val_idx]) > 0.5
        score = f1_binary(y[val_idx], pred)
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


def _fit_pipeline(X, y, *, cost: Optional[float], seed: int) -> tuple:
    """Standardize, select the cost, fit: ``(standardizer, model, notes)``.

    Single-class targets give a flagged trivial constant model instead of an
    error; it is never scored on features, so its standardizer is None.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y).astype(np.int64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        trivial = TrivialModel(probability=0.0 if n_pos == 0 else 1.0)
        return None, trivial, ("trivial:single_class",)

    standardizer = fit_standardizer(X)
    Z = standardizer.transform(X)
    model, notes = _train_at_selected_cost(Z, y, cost=cost, seed=seed)
    return standardizer, model, notes


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
    standardizer, model, notes = _fit_pipeline(X, y, cost=cost, seed=seed)
    return SingleSensorModel(
        sensor=sensor, label=label, standardizer=standardizer, model=model, notes=notes
    )


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; arrays as lists)
# ---------------------------------------------------------------------------

def _standardizer_to_dict(s: Optional[Standardizer]):
    if s is None:
        return None
    return {
        "means": s.means.tolist(),
        "stds": s.stds.tolist(),
        "all_masked": s.all_masked.astype(int).tolist(),
    }


def _standardizer_from_dict(d) -> Optional[Standardizer]:
    if d is None:
        return None
    return Standardizer(
        means=np.asarray(d["means"], dtype=np.float64),
        stds=np.asarray(d["stds"], dtype=np.float64),
        all_masked=np.asarray(d["all_masked"], dtype=bool),
    )


def _core_model_to_dict(m):
    if isinstance(m, TrivialModel):
        return {"kind": "trivial", "probability": m.probability}
    return {
        "kind": "linear",
        "weights": m.weights.tolist(),
        "intercept": m.intercept,
        "cost": m.cost,
    }


def _core_model_from_dict(d):
    if d["kind"] == "trivial":
        return TrivialModel(probability=float(d["probability"]))
    return LinearModel(
        weights=np.asarray(d["weights"], dtype=np.float64),
        intercept=float(d["intercept"]),
        cost=float(d["cost"]),
    )


def single_sensor_model_to_dict(m: SingleSensorModel) -> dict:
    return {
        "format": MODEL_FORMAT_VERSION,
        "kind": "single_sensor",
        "sensor": m.sensor,
        "label": m.label,
        "dim": None if m.standardizer is None else m.standardizer.dim,
        "standardizer": _standardizer_to_dict(m.standardizer),
        "model": _core_model_to_dict(m.model),
        "notes": list(m.notes),
    }


def single_sensor_model_from_dict(d: dict) -> SingleSensorModel:
    if d.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {d.get('format')!r}")
    return SingleSensorModel(
        sensor=d["sensor"],
        label=d["label"],
        standardizer=_standardizer_from_dict(d["standardizer"]),
        model=_core_model_from_dict(d["model"]),
        notes=tuple(d.get("notes", ())),
    )


def save_model(model: SingleSensorModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(single_sensor_model_to_dict(model), fh)


def load_model(path) -> SingleSensorModel:
    with open(path, encoding="utf-8") as fh:
        return single_sensor_model_from_dict(json.load(fh))
