"""Sensor fusion: early feature concatenation, probability averaging, and a
learned second layer over the per-sensor probabilities.

Early fusion (EF) trains one linear model on the 175-dim standardized
concatenation and can only learn from examples with all sensors present.
Late fusion reuses the six single-sensor models: LFA averages their
probabilities, LFL learns a 6-input second-layer logistic model on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .classifier import (
    DegenerateLabelError,
    LinearModel,
    SingleSensorModel,
    Standardizer,
    TrivialModel,
    _fit_standardized,
    _standardized,
    _train_at_selected_cost,
    predict_proba_features,
    predict_proba_matrix,
)
from .data import FeatureStore, has_all_sensors
from .model import FEATURE_DIMS, RELEVANT, SENSORS


def sensor_spans(sensors=SENSORS) -> dict:
    """Column span of each sensor inside the concatenated feature vector."""
    spans, start = {}, 0
    for s in sensors:
        spans[s] = (start, start + FEATURE_DIMS[s])
        start += FEATURE_DIMS[s]
    return spans


@dataclass(frozen=True)
class EarlyFusionModel:
    label: str
    sensors: tuple
    standardizer: Optional[Standardizer]
    model: Union[LinearModel, TrivialModel]
    notes: tuple = ()

    @property
    def dim(self) -> int:
        return sum(FEATURE_DIMS[s] for s in self.sensors)

    @property
    def is_trivial(self) -> bool:
        return isinstance(self.model, TrivialModel)


@dataclass(frozen=True)
class LateFusionLearned:
    label: str
    components: Mapping[str, SingleSensorModel]
    second_layer: Union[LinearModel, TrivialModel]
    notes: tuple = ()

    def sensor_weights(self) -> dict:
        """The learned per-sensor weights of the second layer (for reporting)."""
        if isinstance(self.second_layer, TrivialModel):
            return {s: 0.0 for s in self.components}
        return dict(zip(self.components, self.second_layer.weights))


def _fit_early_fusion(label, sensors, standardizer, Z, y, *, cost, seed) -> EarlyFusionModel:
    """The EF fit on complete-sensor rows already standardized by ``standardizer``."""
    standardizer, model, notes = _fit_standardized(standardizer, Z, y, cost=cost, seed=seed)
    return EarlyFusionModel(
        label=label,
        sensors=tuple(sensors),
        standardizer=standardizer,
        model=model,
        notes=notes,
    )


def early_fusion(
    examples: Sequence,
    label: str,
    *,
    sensors=SENSORS,
    cost: Optional[float] = None,
    seed: int = 0,
) -> EarlyFusionModel:
    """Train the EF classifier on complete-sensor examples only.

    ``cost=None`` grid-searches the cost; a number fits at that C.
    """
    store = FeatureStore.from_examples(examples, sensors=sensors, labels=(label,))
    rows = np.flatnonzero(store.complete(sensors))
    if not rows.size:
        raise ValueError("early fusion has no complete-sensor training examples")
    standardizer, Z = _standardized(store.matrix(sensors, rows))
    return _fit_early_fusion(
        label, sensors, standardizer, Z, store.relevant[label][rows], cost=cost, seed=seed
    )


def predict_early_fusion(model: EarlyFusionModel, examples: Sequence) -> np.ndarray:
    """``(n,)`` EF probabilities; an absent sensor imputes to the training mean."""
    store = FeatureStore.from_examples(examples, sensors=model.sensors)
    return predict_proba_features(model, store.matrix(model.sensors))


def _component_probabilities(components: Mapping[str, SingleSensorModel], features) -> np.ndarray:
    """``(n, k)`` probabilities of the k components on raw per-sensor rows
    ``features[sensor]``, one matrix call per sensor, in the components' order."""
    return np.column_stack(
        [predict_proba_features(model, features[sensor]) for sensor, model in components.items()]
    )


def component_probability_matrix(
    components: Mapping[str, SingleSensorModel], examples: Sequence
) -> np.ndarray:
    """``(n, k)`` probabilities of the k components, one matrix call per sensor.

    Column order is the components' order. A sensor absent from an example
    gives an all-NaN row, which standardizes to the training mean; callers
    that must not score absent sensors check presence first.
    """
    store = FeatureStore.from_examples(examples, sensors=list(components))
    return _component_probabilities(components, store.features)


def _component_presence(components: Mapping[str, SingleSensorModel], present) -> np.ndarray:
    """``(n, k)`` mask of the components that can score each row.

    ``present[sensor]`` is the rows' presence of that sensor
    (``Example.has_sensor``, the rule training uses); a trivial component
    needs no features and is always present.
    """
    return np.column_stack([m.is_trivial | present[s] for s, m in components.items()])


def _require_all_present(components, present: np.ndarray) -> None:
    missing = [s for s, col in zip(components, present.T) if not col.all()]
    if missing:
        raise ValueError(f"missing sensors for late fusion: {sorted(missing)}")


def _average_probabilities(components, P: np.ndarray, present: np.ndarray, *, lenient: bool = False):
    """``(n,)`` means of the component probabilities ``P`` over the present
    components; strict mode first requires every component on every row."""
    if not lenient:
        _require_all_present(components, present)
    elif not present.any(axis=1).all():
        raise ValueError("no sensors available for lenient late fusion")
    return np.where(present, P, 0.0).sum(axis=1) / present.sum(axis=1)


def late_fusion_average(
    components: Mapping[str, SingleSensorModel],
    examples: Sequence,
    *,
    lenient: bool = False,
) -> np.ndarray:
    """``(n,)`` means of the component probabilities (decide with ``> 0.5``).

    Strict mode (the evaluation protocol) requires every component's sensor
    on every example; lenient mode averages whatever is present per example.
    """
    store = FeatureStore.from_examples(examples, sensors=list(components))
    P = _component_probabilities(components, store.features)
    return _average_probabilities(
        components, P, _component_presence(components, store.present), lenient=lenient
    )


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


def late_fusion_learned(
    examples: Sequence,
    label: str,
    components: Mapping[str, SingleSensorModel],
    *,
    cost: Optional[float] = None,
    seed: int = 0,
) -> LateFusionLearned:
    """Train the LFL second layer on the component probabilities.

    Inputs are the raw probabilities (not logits), so the learned weights
    read directly as how much each sensor is listened to. The second layer
    uses the same balanced-weight and cost-selection pipeline as any
    classifier but no standardization.
    """
    store = FeatureStore.from_examples(examples, sensors=list(components), labels=(label,))
    rows = np.flatnonzero(store.complete(components))
    if not rows.size:
        raise ValueError("late fusion has no complete-sensor training examples")
    P = _component_probabilities(components, {s: store.features[s][rows] for s in components})
    return _fit_late_fusion(label, components, P, store.relevant[label][rows], cost=cost, seed=seed)


def predict_late_fusion_learned(model: LateFusionLearned, examples: Sequence) -> np.ndarray:
    """``(n,)`` second-layer probabilities; every component's sensor must be present."""
    store = FeatureStore.from_examples(examples, sensors=list(model.components))
    _require_all_present(model.components, _component_presence(model.components, store.present))
    P = _component_probabilities(model.components, store.features)
    return predict_proba_matrix(model.second_layer, P)


# ---------------------------------------------------------------------------
# Multiclass (one-versus-rest) pipeline for confusion analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulticlassModel:
    class_labels: tuple
    per_class: Mapping[str, EarlyFusionModel]


def eligible_multiclass_examples(examples, class_labels, sensors) -> list:
    """Examples annotated with exactly one of the class labels and all sensors."""
    out = []
    for ex in examples:
        if not has_all_sensors(ex, sensors):
            continue
        relevant = [l for l in class_labels if ex.label_value(l) == RELEVANT]
        if len(relevant) == 1:
            out.append((ex, relevant[0]))
    return out


def multiclass_one_vs_rest(
    examples: Sequence,
    class_labels: Sequence[str],
    sensors: Sequence[str] = SENSORS,
    *,
    cost: Optional[float] = 1.0,
) -> MulticlassModel:
    """One balanced EF model per class on the chosen sensors' features.

    Each class's model is :func:`early_fusion` over the eligible examples,
    whose binary target is exactly the one-hot truth of that class. The
    standardizer does not depend on the class: one is fit and shared.
    """
    if len(class_labels) < 2:
        raise ValueError("one-vs-rest needs at least two classes")
    eligible = eligible_multiclass_examples(examples, class_labels, sensors)
    pool = [ex for ex, _ in eligible]
    truth = {cls for _, cls in eligible}
    for cls in class_labels:
        if cls not in truth:
            raise ValueError(f"class {cls!r} has no training examples")
    store = FeatureStore.from_examples(pool, sensors=sensors, labels=class_labels)
    standardizer, Z = _standardized(store.matrix(sensors))
    return MulticlassModel(
        class_labels=tuple(class_labels),
        per_class={
            cls: _fit_early_fusion(cls, sensors, standardizer, Z, store.relevant[cls], cost=cost, seed=0)
            for cls in class_labels
        },
    )


def predict_multiclass(model: MulticlassModel, examples) -> list:
    """Argmax of the per-class probabilities for each example."""
    sensors = model.per_class[model.class_labels[0]].sensors
    X = FeatureStore.from_examples(examples, sensors=sensors).matrix(sensors)
    probs = np.column_stack(
        [predict_proba_features(model.per_class[c], X) for c in model.class_labels]
    )
    return [model.class_labels[i] for i in probs.argmax(axis=1)]
