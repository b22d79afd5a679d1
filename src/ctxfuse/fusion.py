"""Sensor fusion: early feature concatenation, probability averaging, and a
learned second layer over the per-sensor probabilities.

Early fusion (EF) trains one linear model on the 175-dim standardized
concatenation and can only learn from examples with all sensors present.
Late fusion reuses the six single-sensor models: LFA averages their
probabilities, LFL learns a 6-input second-layer logistic model on them.

Every function reads a :class:`~ctxfuse.data.FeatureStore` at an index
array ``rows`` of its rows; ``cross_validate`` calls the same functions on
each fold's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .classifier import (
    DegenerateLabelError,
    LinearModel,
    SensorModel,
    TrivialModel,
    _fit_standardized,
    _standardized,
    _train_at_selected_cost,
    predict_proba_features,
    predict_proba_matrix,
)
from .data import FeatureStore
from .model import FEATURE_DIMS, SENSORS


def sensor_spans(sensors=SENSORS) -> dict:
    """Column span of each sensor inside the concatenated feature vector."""
    spans, start = {}, 0
    for s in sensors:
        spans[s] = (start, start + FEATURE_DIMS[s])
        start += FEATURE_DIMS[s]
    return spans


def fit_labels(store: FeatureStore, sensors, rows, labels, *, cost, seeds, score_rows=()) -> dict:
    """Fit every label's :class:`SensorModel` on the ``sensors`` features
    of the store's ``rows``: ``{label: (model, *probabilities)}``, one
    ``(len(r),)`` probability array per index array ``r`` of ``score_rows``.

    The one fit step of single-sensor, early-fusion, personalization and
    one-vs-rest models. A standardizer does not depend on the label: one is
    fit on ``rows`` and shared by every label, whose model is fit with seed
    ``seeds(label)`` at ``cost`` (grid-searched when None).
    """
    sensors = tuple(sensors)
    standardizer, Z = _standardized(store.matrix(sensors, rows))
    scored = [store.matrix(sensors, r) for r in score_rows]
    if standardizer is not None:
        scored = [standardizer.transform(X) for X in scored]
    fits = {}
    for label in labels:
        model = _fit_standardized(
            label, sensors, standardizer, Z, store.relevant[label][rows], cost=cost, seed=seeds(label)
        )
        fits[label] = (model, *(predict_proba_matrix(model.model, X) for X in scored))
    return fits


@dataclass(frozen=True)
class LateFusionLearned:
    label: str
    components: Mapping[str, SensorModel]
    second_layer: Union[LinearModel, TrivialModel]
    notes: tuple = ()

    def sensor_weights(self) -> dict:
        """The learned per-sensor weights of the second layer (for reporting)."""
        if isinstance(self.second_layer, TrivialModel):
            return {s: 0.0 for s in self.components}
        return dict(zip(self.components, self.second_layer.weights))


def early_fusion(store: FeatureStore, rows, label: str, *, sensors=SENSORS,
                 cost: Optional[float] = None, seed: int = 0) -> SensorModel:
    """Train the EF classifier on the complete-sensor rows among ``rows``.

    ``cost=None`` grid-searches the cost; a number fits at that C.
    """
    rows = rows[store.complete(sensors)[rows]]
    if not rows.size:
        raise ValueError("early fusion has no complete-sensor training examples")
    (model,) = fit_labels(store, sensors, rows, (label,), cost=cost, seeds=lambda _: seed)[label]
    return model


def component_probabilities(components: Mapping[str, SensorModel], store: FeatureStore, rows) -> np.ndarray:
    """``(len(rows), k)`` probabilities of the k components, one matrix call
    per sensor, in the components' order.

    A sensor absent from a row gives an all-NaN row, which standardizes to
    the training mean; callers that must not score absent sensors check
    presence first.
    """
    return np.column_stack(
        [predict_proba_features(model, store.features[s][rows]) for s, model in components.items()]
    )


def _component_presence(components: Mapping[str, SensorModel], store: FeatureStore, rows) -> np.ndarray:
    """``(len(rows), k)`` mask of the components that can score each row:
    the store's presence of the component's sensor (the rule training uses);
    a trivial component needs no features and is always present."""
    return np.column_stack([m.is_trivial | store.present[s][rows] for s, m in components.items()])


def _require_all_present(components, present: np.ndarray) -> None:
    missing = [s for s, col in zip(components, present.T) if not col.all()]
    if missing:
        raise ValueError(f"missing sensors for late fusion: {sorted(missing)}")


def late_fusion_average(components: Mapping[str, SensorModel], store: FeatureStore, rows,
                        *, lenient: bool = False) -> np.ndarray:
    """``(len(rows),)`` means of the component probabilities (decide with ``> 0.5``).

    Strict mode (the evaluation protocol) requires every component's sensor
    on every row; lenient mode averages whatever is present per row.
    """
    present = _component_presence(components, store, rows)
    if not lenient:
        _require_all_present(components, present)
    elif not present.any(axis=1).all():
        raise ValueError("no sensors available for lenient late fusion")
    P = component_probabilities(components, store, rows)
    return np.where(present, P, 0.0).sum(axis=1) / present.sum(axis=1)


def _fit_late_fusion(label, components, P, y, *, cost, seed) -> LateFusionLearned:
    """The LFL second-layer fit on the components' probabilities ``P`` (one
    column per component, in the components' order) of complete-sensor rows.

    Raises :class:`DegenerateLabelError` when ``y`` holds a single class.
    """
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        raise DegenerateLabelError("degenerate label: a single class is present")

    if np.all(P == P[0:1, :]):
        # constant inputs carry no signal; the balanced intercept-only
        # optimum is 0, deciding negative everywhere
        return LateFusionLearned(
            label=label,
            components=dict(components),
            second_layer=LinearModel(weights=np.zeros(P.shape[1]), intercept=0.0, cost=1.0),
            notes=("degenerate_inputs",),
        )

    second, notes = _train_at_selected_cost(P, y, cost=cost, seed=seed)
    return LateFusionLearned(
        label=label,
        components=dict(components),
        second_layer=second,
        notes=notes,
    )


def late_fusion_learned(store: FeatureStore, rows, label: str, components: Mapping[str, SensorModel],
                        *, cost: Optional[float] = None, seed: int = 0) -> LateFusionLearned:
    """Train the LFL second layer on the component probabilities of the
    complete-sensor rows among ``rows``.

    Inputs are the raw probabilities (not logits), so the learned weights
    read directly as how much each sensor is listened to. The second layer
    uses the same balanced-weight and cost-selection pipeline as any
    classifier but no standardization.
    """
    rows = rows[store.complete(components)[rows]]
    if not rows.size:
        raise ValueError("late fusion has no complete-sensor training examples")
    P = component_probabilities(components, store, rows)
    return _fit_late_fusion(label, components, P, store.relevant[label][rows], cost=cost, seed=seed)


def predict_late_fusion_learned(model: LateFusionLearned, store: FeatureStore, rows) -> np.ndarray:
    """``(len(rows),)`` second-layer probabilities; every component's sensor must be present."""
    _require_all_present(model.components, _component_presence(model.components, store, rows))
    return predict_proba_matrix(model.second_layer, component_probabilities(model.components, store, rows))


# ---------------------------------------------------------------------------
# Multiclass (one-versus-rest) pipeline for confusion analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulticlassModel:
    class_labels: tuple
    per_class: Mapping[str, SensorModel]


def multiclass_one_vs_rest(store: FeatureStore, rows, class_labels: Sequence[str],
                           sensors=SENSORS, *, cost: Optional[float] = 1.0) -> MulticlassModel:
    """One balanced EF model per class on the chosen sensors' features.

    The models train on the rows among ``rows`` with every one of
    ``sensors`` present and exactly one class relevant, so each class's
    binary target is the one-hot truth of that class; they share one
    standardizer (:func:`fit_labels`).
    """
    if len(class_labels) < 2:
        raise ValueError("one-vs-rest needs at least two classes")
    one_class = np.sum([store.relevant[cls][rows] for cls in class_labels], axis=0) == 1
    rows = rows[store.complete(sensors)[rows] & one_class]
    for cls in class_labels:
        if not store.relevant[cls][rows].any():
            raise ValueError(f"class {cls!r} has no training examples")
    fits = fit_labels(store, sensors, rows, class_labels, cost=cost, seeds=lambda _: 0)
    return MulticlassModel(
        class_labels=tuple(class_labels),
        per_class={cls: model for cls, (model,) in fits.items()},
    )


def predict_multiclass(model: MulticlassModel, store: FeatureStore, rows) -> list:
    """Argmax of the per-class probabilities for each row."""
    X = store.matrix(model.per_class[model.class_labels[0]].sensors, rows)
    probs = np.column_stack(
        [predict_proba_features(model.per_class[c], X) for c in model.class_labels]
    )
    return [model.class_labels[i] for i in probs.argmax(axis=1)]
