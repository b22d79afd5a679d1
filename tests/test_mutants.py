"""Named protocol mutants: each deliberate defect must fail a tier-1 check.

Every test applies one mutant with ``monkeypatch`` and asserts that the
golden comparison of ``test_evaluate_golden.py`` (the seed-0 ``cv5-fusion``
corpus against the stored reference cells), the personalize reference of
``test_personalization.py`` or a named invariant test fails under it. A
mutant that no check catches marks a blind spot of the suite. Mutants of
one line inside a function are made by :func:`_mutate`, which recompiles
the function's source with that line edited.
"""

import inspect
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.cli as cli
import ctxfuse.evaluation as evaluation
import ctxfuse.fusion as fusion
import ctxfuse.ingestion as ingestion
import ctxfuse.personalization as personalization
import test_cli
import test_evaluate_golden
import test_evaluation
import test_fold_loop
import test_fusion
import test_inference_path
import test_personalization


def _mutate(monkeypatch, module, name, old, new, *importers):
    """Replace ``module.name`` (and its binding in each of ``importers``) by
    the function compiled from its source with the one occurrence of
    ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} is not one line of {name}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    for owner in (module, *importers):
        monkeypatch.setattr(owner, name, namespace[name])


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
    per_fold = {}  # id of a summed counts cell -> that cell's per-fold counts
    fold_run = evaluation._fold_counts
    cross_validate = cli.cross_validate
    compute_metrics = evaluation.compute_metrics

    def recording(*args, **kwargs):
        result = fold_run(*args, **kwargs)
        fold_counts.append(result[0])
        return result

    def keeping_fold_counts(*args, **kwargs):
        out = cross_validate(*args, **kwargs)
        for system, by_label in out.items():
            for label, ev in by_label.items():
                per_fold[id(ev.counts)] = [c[system][label] for c in fold_counts if label in c.get(system, {})]
        return out

    def per_fold_mean(counts):
        report = compute_metrics(counts)
        if id(counts) not in per_fold:
            return report
        ba = evaluation.mean_of_defined([compute_metrics(c).ba for c in per_fold[id(counts)]])
        return replace(report, ba=ba)

    monkeypatch.setattr(evaluation, "_fold_counts", recording)
    monkeypatch.setattr(cli, "cross_validate", keeping_fold_counts)
    monkeypatch.setattr(evaluation, "compute_metrics", per_fold_mean)
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
            return 1.0, True, None
        train_idx, val_idx = classifier.stratified_split_third(y, seed)
        best_c, best_f1, best_x = None, -1.0, None
        for c in classifier.COST_GRID:
            model = classifier.train_linear(X[train_idx], y[train_idx], c)
            pred = classifier.predict_proba_matrix(model, X[val_idx]) > 0.5
            score = classifier.f1_binary(y[val_idx], pred)
            if score >= best_f1:
                best_c, best_f1, best_x = c, score, np.append(model.weights, model.intercept)
        return float(best_c), False, best_x

    monkeypatch.setattr(classifier, "select_cost", ties_to_larger)
    assert "costs" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_grid_model_standing_in_for_the_final_fit_fails_golden(tmp_path, monkeypatch, capsys):
    # the final fit is skipped: the grid's solution at the chosen cost, fit
    # on two thirds of the rows, is the model instead of its start
    _mutate(monkeypatch, classifier, "_train_at_selected_cost",
            "return train_linear(Z, y, cost, start=start), notes",
            "return (train_linear(Z, y, cost) if start is None else\n"
            "            LinearModel(start[:-1], float(start[-1]), cost, 0)), notes",
            fusion)
    assert "counts" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_unbalanced_class_weights_fail_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(classifier, "balanced_weights", lambda y: np.ones(np.shape(y)[0]))
    assert "counts" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_p99_over_undefined_simulations_fails_p99_test(monkeypatch):
    # every simulation on the benchmark corpora defines BA and F1, so the
    # golden comparison cannot see this one
    def undefined_as_zero(values):
        return float(np.percentile(np.nan_to_num(values, nan=0.0), 99))

    for module in (evaluation, cli, test_evaluation):
        monkeypatch.setattr(module, "p99_of_defined", undefined_as_zero)
    with pytest.raises(AssertionError):
        test_evaluation.test_p99_is_nan_only_when_no_simulation_defines_the_metric()


def test_f1_as_the_cost_grids_formula_fails_golden(tmp_path, monkeypatch, capsys):
    # classifier.f1_binary's exact-rounded 2tp / (2tp + fp + fn) rounds one
    # recorded result cell of the full seed-0 corpus the other way: F1
    # 0.7937, not 0.7938, at acc|SITTING's counts
    _mutate(monkeypatch, evaluation, "compute_metrics",
            "f1 = 2 * tpr * precision / (tpr + precision)", "f1 = 2 * tp / (2 * tp + fp + fn)",
            test_evaluation)
    with pytest.raises(AssertionError):
        test_evaluation.test_f1_formats_as_the_result_cells_record()
    with pytest.raises(AssertionError) as caught:
        test_evaluate_golden.test_evaluate_matches_reference_cells(tmp_path, False, monkeypatch, capsys)
    assert "acc|SITTING" in str(caught.value)


def test_deployment_minute_in_adaptation_half_fails_split_test(monkeypatch):
    split = personalization.split_user_timeline

    def overlapping(store, user):
        adaptation, deployment = split(store, user)
        return np.append(adaptation, deployment[0]), deployment

    monkeypatch.setattr(personalization, "split_user_timeline", overlapping)
    monkeypatch.setattr(test_personalization, "split_user_timeline", overlapping)
    with pytest.raises(AssertionError):
        test_personalization.test_split_four_examples()
    # the library's own leakage check refuses such a split as well
    with pytest.raises(AssertionError, match="overlap"):
        personalization.personalize(test_personalization._user_store(4), "u0", [], [])


def _reference_fails(tmp_path, capsys) -> str:
    """The failure message of the personalize reference test under the current mutant."""
    with pytest.raises(AssertionError) as caught:
        test_personalization.test_personalize_matches_reference(tmp_path, capsys)
    return str(caught.value)


def test_universal_model_trained_on_the_test_user_fails_reference(tmp_path, monkeypatch, capsys):
    _mutate(monkeypatch, personalization, "personalize",
            "train = store.rows(train_users)\n", "train = store.rows([*train_users, user])\n", cli)
    _reference_fails(tmp_path, capsys)


def test_adapted_model_on_universal_probabilities_alone_fails_reference(tmp_path, monkeypatch, capsys):
    _mutate(monkeypatch, personalization, "personalize",
            "p_adapted = (p_universal + p_individual) / 2.0", "p_adapted = p_universal", cli)
    _reference_fails(tmp_path, capsys)


def test_individual_model_trained_on_the_deployment_half_fails_reference(tmp_path, monkeypatch, capsys):
    _mutate(monkeypatch, personalization, "personalize",
            "adapt = adaptation[complete[adaptation]]",
            "adapt = deployment[complete[deployment]]", cli)
    _reference_fails(tmp_path, capsys)


def test_scoring_deployment_minutes_that_lack_a_sensor_fails_reference(tmp_path, monkeypatch, capsys):
    _mutate(monkeypatch, personalization, "personalize",
            "deploy = deployment[complete[deployment]]",
            "deploy = deployment", cli)
    _reference_fails(tmp_path, capsys)


def test_n_s_over_every_relevant_minute_fails_n_s_test(monkeypatch):
    # on the benchmark corpora every user with a relevant minute also has a
    # relevant all-six-sensor minute, so the golden comparison cannot see it
    _mutate(monkeypatch, evaluation, "cross_validate",
            "n_s = len(set(store.users[core_relevant]))",
            "n_s = len(set(store.users[store.relevant[label] > 0]))", test_evaluation)
    with pytest.raises(AssertionError):
        test_evaluation.test_n_s_counts_users_with_a_relevant_all_six_sensor_minute()


def test_lfl_constant_input_check_with_a_tolerance_fails_lfl_test(monkeypatch):
    _mutate(monkeypatch, fusion, "_fit_late_fusion",
            "if np.all(P == P[0:1, :]):", "if np.all(np.abs(P - P[0:1, :]) < 1e-3):")
    with pytest.raises(AssertionError):
        test_fusion.test_nearly_constant_second_layer_inputs_still_train()


def test_standardizer_fit_on_the_scored_rows_too_fails_golden(tmp_path, monkeypatch, capsys):
    # a standardizer fit on every store row: the held-out rows leak into
    # every model through its means and stds; the models still train on the
    # training rows alone
    _mutate(monkeypatch, fusion, "fit_labels",
            "standardizer, Z = _standardized(store.matrix(sensors, rows))",
            "standardizer = _standardized(store.matrix(sensors, np.arange(len(store.users))))[0]\n"
            "    Z = standardizer.transform(store.matrix(sensors, rows))",
            evaluation, personalization)
    assert "counts" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_lfl_second_layer_trained_on_every_complete_row_of_the_store_fails_golden(tmp_path, monkeypatch, capsys):
    # the held-out users' minutes leak into the second layer's training rows
    _mutate(monkeypatch, fusion, "late_fusion_learned",
            "rows = rows[store.complete(components)[rows]]",
            "rows = np.flatnonzero(store.complete(components))", evaluation)
    assert "counts" in _golden_fails(tmp_path, monkeypatch, capsys)


def test_lfl_single_class_fallback_predicting_positive_fails_rowwise_oracle(monkeypatch):
    # no fold of the benchmark corpora leaves LFL one class, so the golden
    # comparison cannot see it; the row-wise oracle decides such a fold negative
    _mutate(monkeypatch, fusion, "_fit_late_fusion",
            'TrivialModel(0.0), ("trivial:single_class",)', 'TrivialModel(1.0), ("trivial:single_class",)')
    with pytest.raises(AssertionError):
        test_inference_path.test_cross_validate_counts_and_costs_match_rowwise_path(monkeypatch)


def test_trivial_fit_placeholder_cost_in_chosen_costs_fails_flags_test(tmp_path, monkeypatch):
    # every fitted layer's cost is read, a trivial one's as the placeholder C = 1
    _mutate(monkeypatch, evaluation, "cross_validate",
            "if isinstance(layer, LinearModel):\n"
            "                chosen[model.label][f\"fold{f}:{system}\"] = layer.cost",
            "if True:\n"
            "                chosen[model.label][f\"fold{f}:{system}\"] = getattr(layer, \"cost\", 1.0)",
            cli)
    with pytest.raises(AssertionError):
        test_cli.test_evaluate_records_a_fold_without_training_positives_as_flags(tmp_path)


def test_degenerate_lfl_placeholder_cost_in_chosen_costs_fails_fold_loop_oracle(monkeypatch):
    # constant LFL inputs fit as a zero linear layer at the placeholder C = 1
    _mutate(monkeypatch, fusion, "_fit_late_fusion",
            "TrivialModel(0.5)", "LinearModel(np.zeros(P.shape[1]), 0.0, 1.0, 0)")
    make, labels, partition = test_fold_loop.CASES["flat"]
    with pytest.raises(AssertionError):
        test_fold_loop.test_columnar_fold_loop_matches_per_example_oracle(
            ("flat", make(), labels, partition), "cv5")


def test_bundle_reader_without_the_negative_accuracy_check_fails_extract_test(tmp_path, monkeypatch, capsys):
    _mutate(monkeypatch, ingestion, "load_raw_session", "if negative.size:", "if False:", cli)
    with pytest.raises(AssertionError):
        test_cli.test_extract_negative_location_accuracy_is_input_error(tmp_path, capsys)


def test_bundle_reader_without_the_label_value_check_fails_extract_test(tmp_path, monkeypatch, capsys):
    # the test's label-value case: a label reported as "yes"
    _mutate(monkeypatch, ingestion, "load_raw_session", "if value not in LABEL_VALUES:", "if False:", cli)
    with pytest.raises(AssertionError):
        test_cli.test_extract_malformed_bundle_file_is_input_error(
            tmp_path, capsys, test_cli._edit_manifest(labels={"SITTING": "yes"}),
            "session.json: label 'SITTING' has value 'yes'")
