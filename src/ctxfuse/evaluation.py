"""Subject-partitioned evaluation: folds, BA and F1 from summed counts, random baselines.

Users (never examples) are partitioned into folds so no subject appears in
both train and test. Counts are summed over all folds before any ratio is
computed; a summed-counts BA is the contract, not a mean of per-fold BAs.
Evaluation is restricted to examples with all six core sensors, while
single-sensor training may use every example where that sensor is present.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .classifier import LinearModel, predict_proba_features, predict_proba_matrix
from .data import FeatureStore
from .fusion import component_probabilities, fit_labels, late_fusion_average, late_fusion_learned
from .model import SENSORS

SINGLE_SENSOR_SYSTEMS = SENSORS
FUSION_SYSTEMS = ("ef", "lfa", "lfl")
ALL_SYSTEMS = SINGLE_SENSOR_SYSTEMS + FUSION_SYSTEMS

#: The cost of every fit in leave-one-user-out mode (cv5 grid-searches it).
LOO_COST = 1.0


def derive_seed(*parts) -> int:
    """Deterministic 32-bit seed from a run seed and task coordinates."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class FoldPartition:
    """Disjoint user folds: no user is listed twice. The paper's
    platform-balanced folds are read from its published fold files."""

    folds: tuple

    def __post_init__(self):
        folds = tuple(tuple(f) for f in self.folds)
        fold_of = {}
        for i, f in enumerate(folds):
            for uid in f:
                if fold_of.get(uid) == i:
                    raise ValueError(f"user {uid!r} is listed twice in fold {i}")
                if uid in fold_of:
                    raise ValueError(
                        f"user {uid!r} appears in two folds ({fold_of[uid]} and {i})"
                    )
                fold_of[uid] = i
        object.__setattr__(self, "folds", folds)

    @property
    def users(self) -> tuple:
        return tuple(uid for f in self.folds for uid in f)

    def __len__(self):
        return len(self.folds)


def partition_folds(users: Sequence[str], k: int = 5, seed: int = 0) -> FoldPartition:
    """Randomly partition users into k folds whose sizes differ by at most
    one user: a seeded permutation of the sorted users, cut into
    consecutive folds, the first ``n % k`` of them one user larger."""
    users = sorted(users)
    n = len(users)
    if n < k:
        raise ValueError(f"cannot split {n} users into {k} folds")
    order = [users[i] for i in np.random.default_rng(seed).permutation(n)]
    folds, start = [], 0
    for f in range(k):
        size = n // k + (f < n % k)
        folds.append(tuple(sorted(order[start : start + size])))
        start += size
    return FoldPartition(folds=tuple(folds))


def loo_partition(users: Sequence[str]) -> FoldPartition:
    """Leave-one-user-out: one fold per user."""
    return FoldPartition(folds=tuple((uid,) for uid in sorted(users)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricCounts:
    """Outcome counts: ints for one results cell, or arrays of one shape
    for many (one entry per coin-flip simulation)."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if np.min((self.tp, self.tn, self.fp, self.fn)) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "MetricCounts") -> "MetricCounts":
        return MetricCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )


def count_outcomes(y_true, y_pred) -> MetricCounts:
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    return MetricCounts(
        tp=int(np.sum(y_true & y_pred)),
        tn=int(np.sum(~y_true & ~y_pred)),
        fp=int(np.sum(~y_true & y_pred)),
        fn=int(np.sum(y_true & ~y_pred)),
    )


@dataclass(frozen=True)
class MetricReport:
    """BA and F1; a score whose ratio has an empty denominator is NaN,
    never a silent 0. By the trivial-classifier convention, F1 with no true
    positive is 0 with ``f1_defined`` False."""

    ba: float
    f1: float
    f1_defined: bool


def compute_metrics(counts: MetricCounts) -> MetricReport:
    """BA and F1 of ``counts``, elementwise when its fields are arrays."""
    tp, tn, fp, fn = (np.asarray(c, dtype=float)
                      for c in (counts.tp, counts.tn, counts.fp, counts.fn))
    with np.errstate(invalid="ignore"):
        tpr = tp / (tp + fn)
        precision = tp / (tp + fp)
        ba = (tpr + tn / (tn + fp)) / 2
        # Not the exact-rounded 2tp / (2tp + fp + fn) of classifier.f1_binary:
        # the cost grid needs that one's exact ties, and the recorded result
        # cells hold this one's rounding (0.7938, not 0.7937, at tp=127,
        # fp=32, fn=34).
        f1 = 2 * tpr * precision / (tpr + precision)
    f1_defined = tp > 0
    f1 = np.where(f1_defined, f1, np.where(tp + fn > 0, 0.0, np.nan))
    return MetricReport(ba=ba[()], f1=f1[()], f1_defined=f1_defined[()])


# ---------------------------------------------------------------------------
# Random baseline (p99)
# ---------------------------------------------------------------------------

#: coin-flip simulations behind each p99 baseline
BASELINE_SIMULATIONS = 100


def random_baseline_scores(n_positive: int, n_examples: int, seed: int = 0) -> dict:
    """BA and F1 of a coin-flip classifier, one array of
    :data:`BASELINE_SIMULATIONS` values each.

    The simulated classifier declares relevant with probability 0.5 for each
    example independently; per simulation only the outcome counts matter, so
    TP and FP are drawn binomially, in the order (TP, FP) per simulation.
    An undefined score is NaN.
    """
    if n_examples <= 0:
        raise ValueError("n_examples must be positive")
    if not 0 <= n_positive <= n_examples:
        raise ValueError("n_positive out of range")
    n_negative = n_examples - n_positive
    draws = np.random.default_rng(seed).binomial(
        np.tile([n_positive, n_negative], BASELINE_SIMULATIONS), 0.5)
    tp, fp = draws[0::2], draws[1::2]
    report = compute_metrics(MetricCounts(tp=tp, tn=n_negative - fp, fp=fp, fn=n_positive - tp))
    return {"ba": report.ba, "f1": report.f1}


def p99_of_defined(values: np.ndarray) -> float:
    """99th percentile of the non-NaN values; NaN when every value is NaN."""
    if np.isnan(values).all():
        return np.nan
    return float(np.nanpercentile(values, 99))


def p99_of_average(score_arrays: Sequence[np.ndarray]) -> float:
    """p99 of the across-label average score, paired by simulation index."""
    stack = np.vstack(score_arrays)
    defined = ~np.isnan(stack)
    with np.errstate(invalid="ignore"):
        means = np.where(defined, stack, 0.0).sum(axis=0) / defined.sum(axis=0)
    return p99_of_defined(means)


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------

class InsufficientDataError(ValueError):
    """The data cannot support a requested fit; the message names where."""


@dataclass
class LabelEvaluation:
    counts: MetricCounts
    n_examples: int  # relevant examples in the evaluated pool
    n_subjects: int  # users contributing at least one relevant example
    flags: tuple = ()
    chosen_costs: dict = field(default_factory=dict)
    newton_steps: dict = field(default_factory=dict)


def _held_out_pool(store: FeatureStore, fold_users) -> np.ndarray:
    """The rows a fold scores: its held-out users' minutes with all six sensors."""
    rows = store.rows(fold_users)
    return rows[store.complete()[rows]]


def _fold_counts(
    store: FeatureStore,
    labels: Sequence[str],
    systems: Sequence[str],
    fold_users: Sequence[str],
    train_users: Sequence[str],
    *,
    cost,
    seed: int,
    fold_index: int,
):
    """Train every requested system on the training users' rows, then score
    the held-out pool (:func:`_held_out_pool`): ``(counts, models)``,
    ``counts[system][label]`` for each requested system and every fitted
    model as a ``(system, model)`` pair, in fit order.

    Each single-sensor system and EF is one :func:`~ctxfuse.fusion.fit_labels`
    call, which fits one standardizer for every label: a sensor's on the
    training rows where that sensor is present, EF's on the rows with all
    six. The LFL second layer is :func:`~ctxfuse.fusion.late_fusion_learned`
    on the rows with all six. Every fit takes ``cost`` (None grid-searches
    it). Every pool probability comes from a library predict function. A
    ``RuntimeError`` of a failed fit names its fold, system and label.
    """
    pool = _held_out_pool(store, fold_users)
    if not pool.size:
        return {}, []
    train = store.rows(train_users)
    complete = train[store.complete()[train]]  # the EF and LFL training rows
    for system, kind in (("ef", "early"), ("lfl", "late")):
        if system in systems and not complete.size:
            raise InsufficientDataError(
                f"fold {fold_index} (held-out users {', '.join(fold_users)}): "
                f"{kind} fusion has no complete-sensor training examples"
            )

    needed_sensors = set(s for s in systems if s in SENSORS)
    if {"lfa", "lfl"} & set(systems):
        needed_sensors |= set(SENSORS)

    models = []

    def fit(system, sensors, rows):
        """:func:`fit_labels` for one system, recording each label's model."""
        try:
            fits = fit_labels(
                store, sensors, rows, labels, cost=cost,
                seeds=lambda label: derive_seed(seed, fold_index, label, system),
            )
        except RuntimeError as exc:
            raise RuntimeError(f"fold {fold_index}, system {system}: {exc}") from exc
        models.extend((system, model) for model in fits.values())
        return fits

    single = {s: fit(s, (s,), train[store.present[s][train]]) for s in sorted(needed_sensors)}
    ef = fit("ef", SENSORS, complete) if "ef" in systems else {}
    lfl = {}
    if "lfl" in systems:
        for label in labels:
            components = {s: fits[label] for s, fits in single.items()}  # sorted by name
            try:
                lfl[label] = late_fusion_learned(store, complete, label, components, cost=cost,
                                                 seed=derive_seed(seed, fold_index, label, "lfl"))
            except RuntimeError as exc:
                raise RuntimeError(f"fold {fold_index}, system lfl: label {label!r}: {exc}") from exc
            models.append(("lfl", lfl[label]))

    counts = {system: {} for system in systems}
    for label in labels:
        probs = {s: predict_proba_features(single[s][label], store.features[s][pool])
                 for s in systems if s in SENSORS}
        if "ef" in systems:
            probs["ef"] = predict_proba_features(ef[label], store.matrix(SENSORS, pool))
        if "lfa" in systems:
            probs["lfa"] = late_fusion_average({s: single[s][label] for s in SENSORS}, store, pool)
        if "lfl" in systems:
            # Known defect (ROADMAP item 1): the second layer was trained on
            # component columns in sorted-name order but is scored here on
            # SENSORS-order columns, as the benchmark references record. The
            # fix is predict_late_fusion_learned(lfl[label], store, pool).
            probs["lfl"] = predict_proba_matrix(lfl[label].second_layer, component_probabilities(
                {s: lfl[label].components[s] for s in SENSORS}, store, pool))
        y_true = store.relevant[label][pool] > 0
        for system, p in probs.items():
            counts[system][label] = count_outcomes(y_true, p > 0.5)

    return counts, models


def cross_validate(
    store: FeatureStore,
    labels: Sequence[str],
    systems: Sequence[str],
    partition: FoldPartition,
    *,
    mode: str = "cv5",
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Run the full protocol on ``store``, which holds every label's
    relevant-vector; returns {system: {label: LabelEvaluation}}.

    ``mode='cv5'`` grid-searches the cost per model; ``mode='loo'`` fits
    every model at :data:`LOO_COST`. ``jobs`` threads train the folds.
    Counts are summed across folds before metrics are computed. Each
    label's ``flags``, ``chosen_costs`` and ``newton_steps`` are read off its
    fitted models: a learned layer's cost is chosen, its final fit's Newton
    steps are kept, and each note is a flag.
    """
    for s in systems:
        if s not in ALL_SYSTEMS:
            raise ValueError(f"unknown system {s!r}")
    if mode not in ("cv5", "loo"):
        raise ValueError(f"unknown mode {mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cost = None if mode == "cv5" else LOO_COST

    users = store.user_ids()
    if set(partition.users) != set(users):
        raise ValueError("partition users do not match dataset users")

    def run(f):
        fold = partition.folds[f]
        train_users = [u for u in users if u not in fold]
        return _fold_counts(store, labels, systems, fold, train_users, cost=cost, seed=seed, fold_index=f)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, range(len(partition))))
    else:
        results = [run(f) for f in range(len(partition))]

    flags = {label: [] for label in labels}
    chosen = {label: {} for label in labels}
    steps = {label: {} for label in labels}
    for f, (_, models) in enumerate(results):
        for system, model in models:
            layer = model.second_layer if system == "lfl" else model.model
            if isinstance(layer, LinearModel):
                chosen[model.label][f"fold{f}:{system}"] = layer.cost
                steps[model.label][f"fold{f}:{system}"] = layer.newton_steps
            flags[model.label] += [f"fold{f}:{system}:{note.split(':')[0]}" for note in model.notes]

    core = store.complete()
    out = {sys: {} for sys in systems}
    for label in labels:
        core_relevant = core & (store.relevant[label] > 0)
        n_e = int(core_relevant.sum())
        n_s = len(set(store.users[core_relevant]))
        for sys in systems:
            total = MetricCounts()
            for counts, _ in results:
                if label in counts.get(sys, {}):
                    total = total + counts[sys][label]
            out[sys][label] = LabelEvaluation(
                counts=total,
                n_examples=n_e,
                n_subjects=n_s,
                flags=tuple(flags[label]),
                chosen_costs=chosen[label],
                newton_steps=steps[label],
            )
    return out


# ---------------------------------------------------------------------------
# Results tables (CSV-shaped rows + markdown rendering)
# ---------------------------------------------------------------------------

def results_table(
    evaluations: dict,
    labels: Sequence[str],
    systems: Sequence[str],
    p99s: Mapping[str, float],
    metric: str = "ba",
) -> list:
    """Rows of (label, n_e, n_s, p99, score per system) plus average rows;
    ``metric`` is ``"ba"`` or ``"f1"``.

    NaN scores are left out of the BA average. The F1 average is reported
    under both conventions: every F1 that is not ``f1_defined`` counted as
    0 (the trivial-classifier convention), and only the defined ones.
    """
    header = ["label", "n_e", "n_s", "p99"] + list(systems)
    rows = [header]
    scores = {s: [] for s in systems}
    defined_f1 = {s: [] for s in systems}
    for label in labels:
        any_eval = evaluations[systems[0]][label]
        row = [label, any_eval.n_examples, any_eval.n_subjects, p99s.get(label, np.nan)]
        for s in systems:
            report = compute_metrics(evaluations[s][label].counts)
            row.append(getattr(report, metric))
            scores[s].append(row[-1])
            defined_f1[s].append(report.f1 if report.f1_defined else np.nan)
        rows.append(row)

    if metric == "f1":
        averages = [float(np.mean(np.nan_to_num(scores[s]))) for s in systems]
    else:
        averages = [mean_of_defined(scores[s]) for s in systems]
    rows.append(["average", "", "", p99s.get("average", np.nan)] + averages)
    if metric == "f1":
        rows.append(["average_defined_only", "", "", ""]
                    + [mean_of_defined(defined_f1[s]) for s in systems])
    return rows


def mean_of_defined(values: Sequence[float]) -> float:
    """Mean of the non-NaN values; NaN when there is none."""
    kept = [v for v in values if not np.isnan(v)]
    return float(np.mean(kept)) if kept else np.nan


def format_cell(v) -> str:
    """A table cell: NaN is empty, a float has four decimals."""
    if isinstance(v, float):
        return "" if np.isnan(v) else f"{v:.4f}"
    return str(v)


def table_to_csv(rows: Sequence[Sequence]) -> str:
    return "\n".join(",".join(format_cell(c) for c in row) for row in rows) + "\n"


def table_to_markdown(rows: Sequence[Sequence]) -> str:
    header, body = rows[0], rows[1:]
    widths = [
        max(len(format_cell(r[i])) for r in rows) for i in range(len(header))
    ]
    def render(row):
        return "| " + " | ".join(format_cell(c).ljust(w) for c, w in zip(row, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([render(header), sep] + [render(r) for r in body]) + "\n"
