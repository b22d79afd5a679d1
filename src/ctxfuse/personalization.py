"""Universal / individual / adapted model comparison for a single user.

The user's timeline is split in half: the first half simulates an
adaptation period supplying individual training data, the second half is
the deployment period all three models are tested on. The adapted model
averages the universal and individual probabilities (late-fusion style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import has_all_sensors, label_vector
from .evaluation import MetricReport, compute_metrics, count_outcomes
from .fusion import EarlyFusionModel, early_fusion, predict_early_fusion
from .model import RELEVANT, SENSORS


@dataclass(frozen=True)
class PersonalizationSplit:
    user_id: str
    adaptation: tuple  # first half by timestamp
    deployment: tuple  # second half


@dataclass(frozen=True)
class ModelScore:
    ba: Optional[float]
    f1: Optional[float]
    report: Optional[MetricReport]
    trivial: bool = False


@dataclass(frozen=True)
class PersonalizationResult:
    label: str
    universal: ModelScore
    individual: ModelScore
    adapted: ModelScore
    n_user_positives: int
    #: per-deployment-example probabilities of the three models
    #: (individual entry is None when trivial)
    probabilities: Optional[dict] = None


def split_user_timeline(user_examples: Sequence) -> PersonalizationSplit:
    """Sort by timestamp (stable) and give the first ceil(n/2) to adaptation."""
    if len(user_examples) < 2:
        raise ValueError("need at least 2 examples to split a user timeline")
    users = {ex.user_id for ex in user_examples}
    if len(users) != 1:
        raise ValueError("examples belong to more than one user")
    ordered = sorted(user_examples, key=lambda ex: ex.timestamp)
    cut = (len(ordered) + 1) // 2
    return PersonalizationSplit(
        user_id=ordered[0].user_id,
        adaptation=tuple(ordered[:cut]),
        deployment=tuple(ordered[cut:]),
    )


def _chance_score() -> ModelScore:
    # the convention for a trivial individual classifier
    return ModelScore(ba=0.5, f1=0.0, report=None, trivial=True)


def _scored(counts) -> ModelScore:
    report = compute_metrics(counts)
    return ModelScore(ba=report.ba, f1=report.f1, report=report)


def evaluate_personalization(
    universal_models: Mapping[str, EarlyFusionModel],
    split: PersonalizationSplit,
    labels: Sequence[str],
    *,
    seed: int = 0,
    universal_train_users: Optional[Sequence[str]] = None,
) -> dict:
    """Score universal, individual, and adapted models on the deployment half.

    ``universal_models`` maps each label to an early-fusion model trained on
    other users. The individual model is an early-fusion classifier fit on
    the adaptation half with the usual pipeline; when its training data has
    a single class it is trivial and reported at chance level (BA 0.5,
    F1 0), and the adapted model falls back to the universal probabilities
    alone. Leakage is asserted: deployment examples are disjoint from
    adaptation and, when the universal training users are supplied, from
    those users.
    """
    adapt_ids = {(ex.user_id, ex.timestamp) for ex in split.adaptation}
    deploy_ids = {(ex.user_id, ex.timestamp) for ex in split.deployment}
    if adapt_ids & deploy_ids:
        raise AssertionError("adaptation and deployment examples overlap")
    if universal_train_users is not None and split.user_id in set(universal_train_users):
        raise AssertionError("universal model was trained on the test user")

    deploy = [ex for ex in split.deployment if has_all_sensors(ex, SENSORS)]
    if not deploy:
        raise ValueError("no complete-sensor deployment examples")

    adapt_complete = [ex for ex in split.adaptation if has_all_sensors(ex, SENSORS)]

    results = {}
    for label in labels:
        p_universal = predict_early_fusion(universal_models[label], deploy)
        y_true = label_vector(deploy, label) > 0
        universal_score = _scored(count_outcomes(y_true, p_universal > 0.5))

        individual = None
        if adapt_complete:
            individual = early_fusion(adapt_complete, label, seed=seed)
        if individual is None or individual.is_trivial:
            individual_score = _chance_score()
            p_individual = None
            p_adapted = p_universal
        else:
            p_individual = predict_early_fusion(individual, deploy)
            individual_score = _scored(count_outcomes(y_true, p_individual > 0.5))
            p_adapted = (p_universal + p_individual) / 2.0

        adapted_score = _scored(count_outcomes(y_true, p_adapted > 0.5))

        n_pos = sum(
            1
            for ex in list(split.adaptation) + list(split.deployment)
            if ex.label_value(label) == RELEVANT
        )
        results[label] = PersonalizationResult(
            label=label,
            universal=universal_score,
            individual=individual_score,
            adapted=adapted_score,
            n_user_positives=n_pos,
            probabilities={
                "universal": p_universal,
                "individual": p_individual,
                "adapted": p_adapted,
            },
        )
    return results


def personalization_table(results: dict, labels: Sequence[str], min_examples: int = 300) -> list:
    """Rows of per-label three-way BA and F1, plus the two average rows:
    over all listed labels and over labels with at least ``min_examples``
    positive examples for the user."""
    header = [
        "label",
        "n_user_examples",
        "universal_ba",
        "individual_ba",
        "adapted_ba",
        "universal_f1",
        "individual_f1",
        "adapted_f1",
    ]
    rows = [header]
    for label in labels:
        r = results[label]
        rows.append(
            [
                label,
                r.n_user_positives,
                r.universal.ba,
                r.individual.ba,
                r.adapted.ba,
                r.universal.f1,
                r.individual.f1,
                r.adapted.f1,
            ]
        )

    def avg_row(name, keep):
        picked = [rows[i + 1] for i, lbl in enumerate(labels) if lbl in keep]
        out = [name, len(picked)]
        for c in range(2, 8):
            col = [row[c] for row in picked if row[c] is not None]
            out.append(float(np.mean(col)) if col else None)
        return out

    rows.append(avg_row("average_all", list(labels)))
    big = [lbl for lbl in labels if results[lbl].n_user_positives >= min_examples]
    rows.append(avg_row(f"average_{min_examples}plus", big))
    return rows
