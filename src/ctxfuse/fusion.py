"""Sensor fusion: early feature concatenation, probability averaging, and a
learned second layer over the per-sensor probabilities.

Early fusion (EF) is :func:`fit_labels` on all six sensors: one linear
model on the 175-dim standardized concatenation, which can only learn from
examples with all sensors present.
Late fusion reuses the six single-sensor models: LFA averages their
probabilities, LFL learns a 6-input second-layer logistic model on them.

Every function reads a :class:`~ctxfuse.data.FeatureStore` at an index
array ``rows`` of its rows; ``cross_validate`` calls the same functions on
each fold's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .classifier import (
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


def fit_labels(store: FeatureStore, sensors, rows, labels, *, cost, seeds) -> dict:
    """Fit every label's :class:`SensorModel` on the ``sensors`` features
    of the store's ``rows``: ``{label: model}``.

    The one fit step of single-sensor, early-fusion and personalization
    models. A standardizer does not depend on the label: one is
    fit on ``rows`` and shared by every label, whose model is fit with seed
    ``seeds(label)`` at ``cost`` (grid-searched when None). A fit that fails
    to converge raises a ``RuntimeError`` that names its label.
    """
    sensors = tuple(sensors)
    standardizer, Z = _standardized(store.matrix(sensors, rows))
    fits = {}
    for label in labels:
        try:
            fits[label] = _fit_standardized(
                label, sensors, standardizer, Z, store.relevant[label][rows], cost=cost, seed=seeds(label)
            )
        except RuntimeError as exc:
            raise RuntimeError(f"label {label!r}: {exc}") from exc
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


def late_fusion_average(components: Mapping[str, SensorModel], store: FeatureStore, rows) -> np.ndarray:
    """``(len(rows),)`` means of the component probabilities (decide with ``> 0.5``).

    Every component's sensor must be present on every row.
    """
    _require_all_present(components, _component_presence(components, store, rows))
    return component_probabilities(components, store, rows).mean(axis=1)


def _fit_late_fusion(label, components, P, y, *, cost, seed) -> LateFusionLearned:
    """The LFL second-layer fit on the components' probabilities ``P`` (one
    column per component, in the components' order) of complete-sensor rows.

    A single-class ``y`` gives a flagged trivial layer that decides negative
    even when every row is positive, as LFL always has (a :class:`SensorModel`
    gives 1.0 then). Constant inputs give the flagged constant 0.5, the
    balanced intercept-only optimum, which decides negative everywhere too.
    """
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        return LateFusionLearned(label, dict(components), TrivialModel(0.0), ("trivial:single_class",))
    if np.all(P == P[0:1, :]):
        return LateFusionLearned(label, dict(components), TrivialModel(0.5), ("degenerate_inputs",))
    return LateFusionLearned(label, dict(components), *_train_at_selected_cost(P, y, cost=cost, seed=seed))


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
