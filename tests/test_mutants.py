"""Named protocol mutants: each deliberate defect must fail a tier-1 check.

Every test applies one mutant with ``monkeypatch`` and asserts that the
golden comparison of ``test_evaluate_golden.py`` (the seed-0 ``cv5-fusion``
corpus against the stored reference cells) or a named invariant test fails
under it. A mutant that no check catches marks a blind spot of the suite.
"""

from dataclasses import replace

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.cli as cli
import ctxfuse.evaluation as evaluation
import ctxfuse.personalization as personalization
import test_evaluate_golden
import test_evaluation
import test_personalization


def _golden_fails(tmp_path, monkeypatch, capsys) -> str:
    """The failure message of the tiny golden comparison under the current mutant."""
    with pytest.raises(AssertionError) as caught:
        test_evaluate_golden.test_evaluate_matches_reference_cells(tmp_path, True, monkeypatch, capsys)
    return str(caught.value)


def test_held_out_user_leaking_into_training_fails_golden(tmp_path, monkeypatch, capsys):
    fold_run = evaluation._fold_counts

    def leaky(store, labels, systems, fold_users, train_users, **kwargs):
        return fold_run(store, labels, systems, fold_users, [*train_users, fold_users[0]], **kwargs)

    monkeypatch.setattr(evaluation, "_fold_counts", leaky)
    assert "counts" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_ba_averaged_per_fold_fails_golden(tmp_path, monkeypatch, capsys):
    fold_counts = []
    fold_run = evaluation._fold_counts
    cross_validate = cli.cross_validate

    def recording(*args, **kwargs):
        result = fold_run(*args, **kwargs)
        fold_counts.append(result[0])
        return result

    def per_fold_mean(*args, **kwargs):
        out = cross_validate(*args, **kwargs)
        for system, by_label in out.items():
            for label, ev in by_label.items():
                bas = [evaluation.compute_metrics(c[system][label]).ba
                       for c in fold_counts if label in c.get(system, {})]
                bas = [b for b in bas if b is not None]
                ba = float(np.mean(bas)) if bas else None
                by_label[label] = replace(ev, report=replace(ev.report, ba=ba))
        return out

    monkeypatch.setattr(evaluation, "_fold_counts", recording)
    monkeypatch.setattr(cli, "cross_validate", per_fold_mean)
    assert "'ba'" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_scoring_minutes_that_lack_a_sensor_fails_golden(tmp_path, monkeypatch, capsys):
    # every minute of the held-out users, not only those with all six sensors
    monkeypatch.setattr(evaluation, "_held_out_pool", lambda store, users: store.rows(users))
    assert "missing sensors" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_cost_grid_tie_picking_the_larger_cost_fails_golden(tmp_path, monkeypatch, capsys):
    def ties_to_larger(X, y, *, seed=0):
        y = np.asarray(y)
        n_pos = int(y.sum())
        if min(n_pos, y.shape[0] - n_pos) < 3:
            return 1.0, True
        train_idx, val_idx = classifier.stratified_split_third(y, seed)
        best_c, best_f1, model = None, -1.0, None
        for c in classifier.COST_GRID:
            model = classifier.train_linear(X[train_idx], y[train_idx], c, warm_start=model)
            pred = classifier.predict_proba_matrix(model, X[val_idx]) > 0.5
            score = classifier.f1_binary(y[val_idx], pred)
            if score >= best_f1:
                best_c, best_f1 = c, score
        return float(best_c), False

    monkeypatch.setattr(classifier, "select_cost", ties_to_larger)
    assert "costs" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_unbalanced_class_weights_fail_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(classifier, "balanced_weights", lambda y: np.ones(np.shape(y)[0]))
    assert "counts" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_p99_over_undefined_simulations_fails_p99_test(monkeypatch):
    # every simulation on the benchmark corpora defines BA and F1, so the
    # golden comparison cannot see this one
    def undefined_as_zero(values):
        return float(np.percentile(np.nan_to_num(values, nan=0.0), 99))

    monkeypatch.setattr(evaluation, "p99_of_defined", undefined_as_zero)
    monkeypatch.setattr(cli, "p99_of_defined", undefined_as_zero)
    with pytest.raises(AssertionError):
        test_evaluation.test_p99_is_none_only_when_no_simulation_defines_the_metric()


def test_deployment_minute_in_adaptation_half_fails_split_test(monkeypatch):
    def overlapping(user_examples):
        ordered = sorted(user_examples, key=lambda ex: ex.timestamp)
        cut = (len(ordered) + 1) // 2
        return personalization.PersonalizationSplit(
            user_id=ordered[0].user_id,
            adaptation=tuple(ordered[: cut + 1]),
            deployment=tuple(ordered[cut:]),
        )

    monkeypatch.setattr(personalization, "split_user_timeline", overlapping)
    monkeypatch.setattr(test_personalization, "split_user_timeline", overlapping)
    with pytest.raises(AssertionError):
        test_personalization.test_split_four_examples()
    # the library's own leakage check refuses such a split as well
    with pytest.raises(AssertionError, match="overlap"):
        personalization.evaluate_personalization(
            {}, overlapping(test_personalization._user_examples(4)), []
        )
