"""Universal / individual / adapted model comparison for a single user.

The user's timeline is split in half: the first half simulates an
adaptation period supplying individual training data, the second half is
the deployment period all three models are tested on. The adapted model
averages the universal and individual probabilities (late-fusion style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import predict_proba_features
from .data import FeatureStore
from .evaluation import (
    InsufficientDataError,
    compute_metrics,
    count_outcomes,
    derive_seed,
    mean_of_defined,
)
from .fusion import fit_labels
from .model import SENSORS


@dataclass(frozen=True)
class ModelScore:
    """BA and F1 on the deployment half; NaN where undefined."""

    ba: float
    f1: float


#: the score of a trivial individual model
_CHANCE = ModelScore(ba=0.5, f1=0.0)


@dataclass(frozen=True)
class PersonalizationResult:
    universal: ModelScore
    individual: ModelScore
    adapted: ModelScore
    n_user_positives: int


def split_user_timeline(store: FeatureStore, user: str) -> tuple:
    """``(adaptation, deployment)``: the user's store rows sorted by
    timestamp (stable), the first ceil(n/2) of them to adaptation."""
    rows = store.rows([user])
    if len(rows) < 2:
        raise ValueError("need at least 2 examples to split a user timeline")
    ordered = rows[np.argsort(store.timestamps[rows], kind="stable")]
    cut = (len(ordered) + 1) // 2
    return ordered[:cut], ordered[cut:]


def _scored(y_true, p) -> ModelScore:
    report = compute_metrics(count_outcomes(y_true, p > 0.5))
    return ModelScore(ba=float(report.ba), f1=float(report.f1))


def _result(y_true, p_universal, p_individual, p_adapted, n_user_positives) -> PersonalizationResult:
    """One label's scores from the three models' deployment probabilities;
    ``p_individual`` is None for a trivial individual model, which scores
    at chance."""
    return PersonalizationResult(
        universal=_scored(y_true, p_universal),
        individual=_CHANCE if p_individual is None else _scored(y_true, p_individual),
        adapted=_scored(y_true, p_adapted),
        n_user_positives=n_user_positives,
    )


def personalize(
    store: FeatureStore, user: str, labels: Sequence[str], train_users: Sequence[str], *, seed: int = 0
) -> dict:
    """Score universal, individual, and adapted models on the user's deployment half.

    Per label, the universal model is early fusion fit on the complete-sensor
    rows of ``train_users``, the individual model on those of the user's
    adaptation half (:func:`split_user_timeline`); both grid-search the cost
    with seeds derived from ``seed``: the universal model's per label and
    not per user, the individual model's per user and not per label. Both
    are deliberate; changing either changes ``personalization.csv``. A
    trivial individual model (a single class, or no row) is reported at
    chance level (BA 0.5, F1 0) and the adapted model is then the universal
    one alone. Leakage is asserted: the
    halves are disjoint, and the user is not one of ``train_users``. A
    ``RuntimeError`` of a failed fit names the user, model and label.
    """
    adaptation, deployment = split_user_timeline(store, user)
    if np.intersect1d(store.timestamps[adaptation], store.timestamps[deployment]).size:
        raise AssertionError("adaptation and deployment examples overlap")
    if user in set(train_users):
        raise AssertionError("universal model was trained on the test user")

    complete = store.complete()
    train = store.rows(train_users)
    train = train[complete[train]]
    if not train.size:
        raise InsufficientDataError(
            f"user {user!r}: the universal model's training users have no complete-sensor minute"
        )
    deploy = deployment[complete[deployment]]
    if not deploy.size:
        raise InsufficientDataError(f"user {user!r}: no complete-sensor deployment examples")
    adapt = adaptation[complete[adaptation]]

    fitting = "universal"
    try:
        universal = fit_labels(
            store, SENSORS, train, labels, cost=None,
            seeds=lambda label: derive_seed(seed, "universal", label),
        )
        fitting = "individual"
        individual = fit_labels(
            store, SENSORS, adapt, labels, cost=None,
            seeds=lambda label: derive_seed(seed, "individual", user),
        )
    except RuntimeError as exc:
        raise RuntimeError(f"user {user!r}, {fitting} model: {exc}") from exc

    X = store.matrix(SENSORS, deploy)
    results = {}
    for label in labels:
        p_universal = predict_proba_features(universal[label], X)
        if individual[label].is_trivial:
            p_individual, p_adapted = None, p_universal
        else:
            p_individual = predict_proba_features(individual[label], X)
            p_adapted = (p_universal + p_individual) / 2.0
        results[label] = _result(
            store.relevant[label][deploy] > 0, p_universal, p_individual, p_adapted,
            int(store.relevant[label][store.rows([user])].sum()),
        )
    return results


#: the user positives a label needs to enter the second average row
MIN_USER_POSITIVES = 300


def personalization_table(results: dict, labels: Sequence[str]) -> list:
    """Rows of per-label three-way BA and F1, plus the two average rows:
    over all listed labels and over labels with at least
    :data:`MIN_USER_POSITIVES` positive examples for the user."""
    header = [
        "label",
        "n_user_positives",
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
        return [name, len(picked)] + [mean_of_defined([row[c] for row in picked]) for c in range(2, 8)]

    rows.append(avg_row("average_all", list(labels)))
    big = [lbl for lbl in labels if results[lbl].n_user_positives >= MIN_USER_POSITIVES]
    rows.append(avg_row(f"average_{MIN_USER_POSITIVES}plus", big))
    return rows
