"""Subject-partitioned evaluation: folds, the metric suite, random baselines.

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
from typing import Mapping, Optional, Sequence

import numpy as np

from .classifier import (
    DegenerateLabelError,
    _fit_single_sensor,
    _standardized,
    predict_proba_matrix,
)
from .data import FeatureStore
from .fusion import (
    _average_probabilities,
    _component_presence,
    _fit_early_fusion,
    _fit_late_fusion,
)
from .model import Dataset, SENSORS

SINGLE_SENSOR_SYSTEMS = SENSORS
FUSION_SYSTEMS = ("ef", "lfa", "lfl")
ALL_SYSTEMS = SINGLE_SENSOR_SYSTEMS + FUSION_SYSTEMS

METRIC_NAMES = ("accuracy", "tpr", "tnr", "precision", "ba", "f1")

#: The cost of every fit in leave-one-user-out mode (cv5 grid-searches it).
LOO_COST = 1.0


def derive_seed(*parts) -> int:
    """Deterministic 32-bit seed from a run seed and task coordinates."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class FoldPartition:
    """Disjoint user folds; platform proportions equalized at construction."""

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


def partition_folds(platform_by_user: Mapping[str, str], k: int = 5, seed: int = 0) -> FoldPartition:
    """Randomly partition users into k folds, equalizing platform proportions.

    Fold sizes differ by at most one user, and each platform's count per
    fold differs by at most one from an even split. Deterministic for a
    given seed.
    """
    users = sorted(platform_by_user)
    n = len(users)
    if n < k:
        raise ValueError(f"cannot split {n} users into {k} folds")
    rng = np.random.default_rng(seed)

    groups = {}
    for uid in users:
        groups.setdefault(platform_by_user[uid], []).append(uid)
    for tag in groups:
        order = rng.permutation(len(groups[tag]))
        groups[tag] = [groups[tag][i] for i in order]

    sizes = [n // k + (1 if f < n % k else 0) for f in range(k)]
    counts = {tag: [len(g) // k] * k for tag, g in groups.items()}
    remaining = [sizes[f] - sum(counts[tag][f] for tag in groups) for f in range(k)]

    # hand out each platform's remainder to the folds with most room
    for tag in sorted(groups, key=lambda t: (-len(groups[t]), t)):
        r = len(groups[tag]) % k
        order = sorted(range(k), key=lambda f: (-remaining[f], f))
        for f in order[:r]:
            counts[tag][f] += 1
            remaining[f] -= 1

    folds = [[] for _ in range(k)]
    for tag in sorted(groups):
        pos = 0
        for f in range(k):
            folds[f].extend(groups[tag][pos : pos + counts[tag][f]])
            pos += counts[tag][f]
    return FoldPartition(folds=tuple(tuple(sorted(f)) for f in folds))


def loo_partition(users: Sequence[str]) -> FoldPartition:
    """Leave-one-user-out: one fold per user."""
    return FoldPartition(folds=tuple((uid,) for uid in sorted(users)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "MetricCounts") -> "MetricCounts":
        return MetricCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


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
    """The six scores; a ratio with an empty denominator is None, never a
    silent 0. The one exception is the trivial-classifier convention: F1
    with zero TP and zero FP is reported as 0 with ``f1_defined=False``.
    """

    counts: MetricCounts
    accuracy: Optional[float]
    tpr: Optional[float]
    tnr: Optional[float]
    precision: Optional[float]
    ba: Optional[float]
    f1: Optional[float]
    f1_defined: bool = True

    def metric(self, name: str) -> Optional[float]:
        return getattr(self, name)


def compute_metrics(counts: MetricCounts) -> MetricReport:
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    total = counts.total

    accuracy = (tp + tn) / total if total > 0 else None
    tpr = tp / (tp + fn) if tp + fn > 0 else None
    tnr = tn / (tn + fp) if tn + fp > 0 else None
    precision = tp / (tp + fp) if tp + fp > 0 else None
    ba = (tpr + tnr) / 2 if tpr is not None and tnr is not None else None

    f1, f1_defined = None, True
    if tpr is not None:
        if precision is None:
            # nothing declared positive and nothing to declare: TP = FP = 0
            f1, f1_defined = 0.0, False
        elif tpr + precision == 0:
            f1, f1_defined = 0.0, False
        else:
            f1 = 2 * tpr * precision / (tpr + precision)

    return MetricReport(
        counts=counts,
        accuracy=accuracy,
        tpr=tpr,
        tnr=tnr,
        precision=precision,
        ba=ba,
        f1=f1,
        f1_defined=f1_defined,
    )


def confusion_matrix(truth: Sequence, predicted: Sequence, classes: Sequence) -> np.ndarray:
    """Row-normalized confusion matrix; rows of absent classes are NaN."""
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    m = np.zeros((len(classes), len(classes)))
    for t, p in zip(truth, predicted):
        m[index[t], index[p]] += 1
    sums = m.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return np.where(sums > 0, m / sums, np.nan)


# ---------------------------------------------------------------------------
# Random baseline (p99)
# ---------------------------------------------------------------------------

def random_baseline_scores(
    n_positive: int, n_examples: int, n_sims: int = 100, seed: int = 0
) -> dict:
    """Scores of a coin-flip classifier, one array of n_sims values per metric.

    The simulated classifier declares relevant with probability 0.5 for each
    example independently; per simulation only the outcome counts matter, so
    TP/FP are drawn binomially. Undefined metric values become NaN.
    """
    if n_examples <= 0:
        raise ValueError("n_examples must be positive")
    if not 0 <= n_positive <= n_examples:
        raise ValueError("n_positive out of range")
    rng = np.random.default_rng(seed)
    n_negative = n_examples - n_positive
    out = {name: np.full(n_sims, np.nan) for name in METRIC_NAMES}
    for s in range(n_sims):
        tp = int(rng.binomial(n_positive, 0.5))
        fp = int(rng.binomial(n_negative, 0.5))
        report = compute_metrics(
            MetricCounts(tp=tp, tn=n_negative - fp, fp=fp, fn=n_positive - tp)
        )
        for name in METRIC_NAMES:
            v = report.metric(name)
            if v is not None:
                out[name][s] = v
    return out


def p99_of_defined(values: np.ndarray) -> Optional[float]:
    """99th percentile of the non-NaN values; None when every value is NaN."""
    if np.isnan(values).all():
        return None
    return float(np.nanpercentile(values, 99))


def random_baseline_p99(
    n_positive: int, n_examples: int, n_sims: int = 100, seed: int = 0
) -> dict:
    """99th percentile of each metric over the random-classifier simulations."""
    scores = random_baseline_scores(n_positive, n_examples, n_sims, seed)
    return {name: p99_of_defined(vals) for name, vals in scores.items()}


def p99_of_average(score_arrays: Sequence[np.ndarray]) -> Optional[float]:
    """p99 of the across-label average score, paired by simulation index."""
    stack = np.vstack(score_arrays)
    defined = ~np.isnan(stack)
    sums = np.where(defined, stack, 0.0).sum(axis=0)
    counts = defined.sum(axis=0)
    means = np.full(stack.shape[1], np.nan)
    means[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return p99_of_defined(means)


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------

@dataclass
class LabelEvaluation:
    label: str
    counts: MetricCounts
    report: MetricReport
    n_examples: int  # relevant examples in the evaluated pool
    n_subjects: int  # users contributing at least one relevant example
    flags: tuple = ()
    chosen_costs: dict = field(default_factory=dict)


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
    cost: Optional[float],
    seed: int,
    fold_index: int,
):
    """Train every requested system on the training users' rows and count
    outcomes on the held-out pool (:func:`_held_out_pool`).

    A standardizer does not depend on the label. Each sensor's is fit on
    the training rows where that sensor is present, EF's on the rows with
    all six; each is fit once and, with the rows it standardizes, serves
    every label. One sensor's (or EF's) matrices are alive at a time. LFA
    averages the sensor probabilities already computed for the pool.
    """
    pool = _held_out_pool(store, fold_users)
    if not pool.size:
        return {}, {}, {}
    train = store.rows(train_users)
    complete = train[store.complete()[train]]  # the EF and LFL training rows
    for system, kind in (("ef", "early"), ("lfl", "late")):
        if system in systems and not complete.size:
            raise ValueError(f"{kind} fusion has no complete-sensor training examples")

    def standardize(standardizer, X):
        return X if standardizer is None else standardizer.transform(X)

    needed_sensors = set(s for s in systems if s in SENSORS)
    if {"lfa", "lfl"} & set(systems):
        needed_sensors |= set(SENSORS)

    counts = {sys: {} for sys in systems}
    flags = {lbl: [] for lbl in labels}
    costs = {lbl: {} for lbl in labels}
    y_true = {label: store.relevant[label][pool] > 0 for label in labels}

    single_models = {label: {} for label in labels}
    sensor_probs = {label: {} for label in labels}
    lfl_inputs = {label: [] for label in labels}  # columns in single_models order
    for s in sorted(needed_sensors):
        rows = train[store.present[s][train]]
        standardizer, Z = _standardized(store.features[s][rows])
        Z_pool = standardize(standardizer, store.features[s][pool])
        if "lfl" in systems:  # the second layer's training rows
            Z_complete = Z[np.searchsorted(rows, complete)]
        for label in labels:
            model = _fit_single_sensor(
                s,
                label,
                standardizer,
                Z,
                store.relevant[label][rows],
                cost=cost,
                seed=derive_seed(seed, fold_index, label, s),
            )
            single_models[label][s] = model
            if model.is_trivial:
                flags[label].append(f"fold{fold_index}:{s}:trivial")
            else:
                costs[label][s] = model.model.cost
            sensor_probs[label][s] = predict_proba_matrix(model.model, Z_pool)
            if s in systems:
                counts[s][label] = count_outcomes(y_true[label], sensor_probs[label][s] > 0.5)
            if "lfl" in systems:
                lfl_inputs[label].append(predict_proba_matrix(model.model, Z_complete))

    if "ef" in systems:
        standardizer, Z = _standardized(store.matrix(SENSORS, complete))
        Z_pool = standardize(standardizer, store.matrix(SENSORS, pool))
        for label in labels:
            ef = _fit_early_fusion(
                label,
                SENSORS,
                standardizer,
                Z,
                store.relevant[label][complete],
                cost=cost,
                seed=derive_seed(seed, fold_index, label, "ef"),
            )
            if ef.is_trivial:
                flags[label].append(f"fold{fold_index}:ef:trivial")
            else:
                costs[label]["ef"] = ef.model.cost
            counts["ef"][label] = count_outcomes(y_true[label], predict_proba_matrix(ef.model, Z_pool) > 0.5)

    for label in labels:
        probs = sensor_probs[label]
        if "lfa" in systems:
            components = {s: single_models[label][s] for s in SENSORS}
            present = _component_presence(components, {s: store.present[s][pool] for s in SENSORS})
            p_lfa = _average_probabilities(components, np.column_stack([probs[s] for s in SENSORS]), present)
            counts["lfa"][label] = count_outcomes(y_true[label], p_lfa > 0.5)

        if "lfl" in systems:
            try:
                lfl = _fit_late_fusion(
                    label,
                    single_models[label],
                    np.column_stack(lfl_inputs[label]),
                    store.relevant[label][complete],
                    cost=cost,
                    seed=derive_seed(seed, fold_index, label, "lfl"),
                )
            except DegenerateLabelError:
                # no positive (or no negative) training example in this fold:
                # contribute an always-negative classifier
                flags[label].append(f"fold{fold_index}:lfl:trivial")
                p_lfl = np.zeros(len(pool))
            else:
                if "degenerate_inputs" in lfl.notes:
                    flags[label].append(f"fold{fold_index}:lfl:degenerate_inputs")
                else:
                    costs[label]["lfl"] = lfl.second_layer.cost
                P = np.vstack([probs[s] for s in SENSORS]).T
                p_lfl = predict_proba_matrix(lfl.second_layer, P)
            counts["lfl"][label] = count_outcomes(y_true[label], p_lfl > 0.5)

    return counts, flags, costs


def cross_validate(
    dataset: Dataset,
    labels: Sequence[str],
    systems: Sequence[str],
    partition: FoldPartition,
    *,
    mode: str = "cv5",
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Run the full protocol; returns {system: {label: LabelEvaluation}}.

    ``mode='cv5'`` grid-searches the cost per model; ``mode='loo'`` fits
    every model at :data:`LOO_COST`. ``jobs`` threads train the folds.
    Counts are summed across folds before metrics are computed.
    """
    for s in systems:
        if s not in ALL_SYSTEMS:
            raise ValueError(f"unknown system {s!r}")
    if mode not in ("cv5", "loo"):
        raise ValueError(f"unknown mode {mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cost = None if mode == "cv5" else LOO_COST

    dataset_users = set(dataset.users)
    part_users = set(partition.users)
    if part_users != dataset_users:
        raise ValueError("partition users do not match dataset users")

    store = FeatureStore.from_examples(dataset.examples(), labels=labels)
    tasks = []
    for f, fold in enumerate(partition.folds):
        train_users = sorted(dataset_users - set(fold))
        tasks.append((f, fold, train_users))

    def run(task):
        f, fold, train_users = task
        return _fold_counts(
            store,
            labels,
            systems,
            fold,
            train_users,
            cost=cost,
            seed=seed,
            fold_index=f,
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    core = store.complete()
    out = {sys: {} for sys in systems}
    for label in labels:
        core_relevant = core & (store.relevant[label] > 0)
        n_e = int(core_relevant.sum())
        n_s = len(set(store.users[core_relevant]))
        flags = tuple(fl for counts, fold_flags, _ in results for fl in fold_flags.get(label, ()))
        chosen = {}
        for f, (_, _, fold_costs) in enumerate(results):
            for sys_name, c in fold_costs.get(label, {}).items():
                chosen[f"fold{f}:{sys_name}"] = c
        for sys in systems:
            total = MetricCounts()
            for counts, _, _ in results:
                if label in counts.get(sys, {}):
                    total = total + counts[sys][label]
            out[sys][label] = LabelEvaluation(
                label=label,
                counts=total,
                report=compute_metrics(total),
                n_examples=n_e,
                n_subjects=n_s,
                flags=flags,
                chosen_costs=chosen,
            )
    return out


# ---------------------------------------------------------------------------
# Results tables (CSV-shaped rows + markdown rendering)
# ---------------------------------------------------------------------------

def results_table(
    evaluations: dict,
    labels: Sequence[str],
    systems: Sequence[str],
    p99s: Mapping[str, Optional[float]],
    metric: str = "ba",
) -> list:
    """Rows of (label, n_e, n_s, p99, score per system) plus average rows.

    For F1 the per-system average is reported under both conventions:
    undefined values counted as 0 (matching the trivial-classifier
    convention) and undefined values excluded. For other metrics undefined
    values are simply left out of the average.
    """
    header = ["label", "n_e", "n_s", "p99"] + list(systems)
    rows = [header]
    per_system_scores = {s: [] for s in systems}
    per_system_defined = {s: [] for s in systems}

    for label in labels:
        any_eval = evaluations[systems[0]][label]
        row = [label, any_eval.n_examples, any_eval.n_subjects, p99s.get(label)]
        for s in systems:
            rep = evaluations[s][label].report
            v = rep.metric(metric)
            row.append(v)
            if metric == "f1":
                per_system_scores[s].append(0.0 if v is None else v)
            elif v is not None:
                per_system_scores[s].append(v)
            defined = v is not None and (metric != "f1" or rep.f1_defined)
            per_system_defined[s].append(v if defined else None)
        rows.append(row)

    avg = ["average", "", "", p99s.get("average")]
    for s in systems:
        avg.append(float(np.mean(per_system_scores[s])) if per_system_scores[s] else None)
    rows.append(avg)

    if metric == "f1":
        avg2 = ["average_defined_only", "", "", ""]
        for s in systems:
            vals = [v for v in per_system_defined[s] if v is not None]
            avg2.append(float(np.mean(vals)) if vals else None)
        rows.append(avg2)
    return rows


def format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.4f}"
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
