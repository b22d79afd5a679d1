import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import ctxfuse.classifier as classifier
import ctxfuse.cli as cli
import ctxfuse.evaluation as evaluation
import ctxfuse.personalization as personalization
from ctxfuse.cli import main
from ctxfuse.ingestion import load_fold_partition
from ctxfuse.model import FEATURE_DIMS, SENSORS, Example
from perfbench_files import perfbench_module
from synth import (
    by_user,
    complementary_sensor_dataset,
    drift_user_scenario,
    feature_example,
    write_examples,
)

from test_ingestion import _write_session


def _make_bundles(root, n_users=2, sessions_per_user=3):
    for u in range(n_users):
        for s in range(sessions_per_user):
            _write_session(
                root / f"u{u}" / f"session_{s}",
                user=f"u{u}",
                ts=1_600_000_000 + u * 100_000 + s * 60,
            )
    return root


def _features_dir_from(examples_by_user, root):
    root.mkdir(parents=True, exist_ok=True)
    for user, exs in examples_by_user.items():
        write_examples(root / f"{user}.features.csv", exs)
    return root


@pytest.fixture()
def eval_setup(tmp_path):
    examples, label = complementary_sensor_dataset(n=240, n_users=4, seed=50)
    features = _features_dir_from(by_user(examples), tmp_path / "features")
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text(f"{label}\n")
    return features, labels_file, label


def test_extract_writes_feature_tables(tmp_path, capsys):
    bundles = _make_bundles(tmp_path / "raw")
    out = tmp_path / "features"
    code = main([
        "extract", "--input", str(bundles), "--out", str(out), "--utc-offset", "-8",
    ])
    assert code == 0
    files = sorted(p.name for p in out.glob("*.features.csv"))
    assert files == ["u0.features.csv", "u1.features.csv"]
    header = (out / "u0.features.csv").read_text().splitlines()[0].split(",")
    feature_cols = [c for c in header if not c.startswith(("timestamp", "label:"))]
    assert len(feature_cols) == 175
    assert (out / "run_manifest.json").exists()
    assert "extracted 6 sessions" in capsys.readouterr().out


def test_extract_reruns_byte_identically(tmp_path):
    bundles = _make_bundles(tmp_path / "raw")
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["extract", "--input", str(bundles), "--out", str(out1), "--utc-offset", "-8"]) == 0
    assert main(["extract", "--input", str(bundles), "--out", str(out2), "--utc-offset", "-8"]) == 0
    a = (out1 / "u0.features.csv").read_bytes()
    b = (out2 / "u0.features.csv").read_bytes()
    assert a == b


def test_extract_empty_dir_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["extract", "--input", str(empty), "--out", str(tmp_path / "o"), "--utc-offset", "0"])
    assert code == 2
    assert "no sessions found" in capsys.readouterr().err


def test_extract_requires_utc_offset(tmp_path):
    bundles = _make_bundles(tmp_path / "raw")
    code = main(["extract", "--input", str(bundles), "--out", str(tmp_path / "o")])
    assert code == 3


def test_extract_takes_no_seed(tmp_path, capsys):
    bundles = _make_bundles(tmp_path / "raw")
    with pytest.raises(SystemExit) as exited:
        main(["extract", "--input", str(bundles), "--out", str(tmp_path / "o"), "--utc-offset", "-8",
              "--seed", "1"])
    assert exited.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rerun_replays_an_extract_manifest_that_records_a_seed(tmp_path):
    # extract manifests once recorded a seed that nothing read; they still replay
    bundles = _make_bundles(tmp_path / "raw")
    out = tmp_path / "features"
    assert main(["extract", "--input", str(bundles), "--out", str(out), "--utc-offset", "-8"]) == 0
    manifest = out / "run_manifest.json"
    record = json.loads(manifest.read_text(encoding="utf-8"))
    assert "seed" not in record["config"]
    record["config"]["seed"] = 0
    manifest.write_text(json.dumps(record), encoding="utf-8")
    tables = {p.name: p.read_bytes() for p in out.glob("*.features.csv")}
    for p in out.glob("*.features.csv"):
        p.unlink()
    assert main(["rerun", str(manifest)]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("*.features.csv")} == tables


def test_evaluate_end_to_end(tmp_path, eval_setup):
    features, labels_file, label = eval_setup
    out = tmp_path / "results"
    code = main([
        "evaluate",
        "--features-dir", str(features),
        "--labels", str(labels_file),
        "--systems", "acc,lfa,ef",
        "--mode", "cv5",
        "--seed", "3",
        "--out", str(out),
        "--markdown",
    ])
    assert code == 0
    ba_lines = (out / "results_ba.csv").read_text().splitlines()
    assert ba_lines[0] == "label,n_e,n_s,p99,acc,lfa,ef"
    assert ba_lines[1].startswith(label)
    assert ba_lines[-1].startswith("average")
    assert (out / "results_f1.csv").exists()
    assert (out / "results_ba.md").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "evaluate"
    assert manifest["config"]["seed"] == 3
    assert label in manifest["chosen_costs"]
    assert manifest["flags"] == {label: []}


def test_evaluate_records_the_newton_steps_of_every_fit_with_a_chosen_cost(tmp_path, eval_setup):
    features, labels_file, label = eval_setup
    manifests = []
    for name, jobs in (("one", "1"), ("two", "2")):
        out = tmp_path / name
        assert main(_evaluate_argv(features, labels_file, out, "--systems", "acc,ef,lfl",
                                   "--jobs", jobs)) == 0
        manifests.append(json.loads((out / "run_manifest.json").read_text()))
    steps = manifests[0]["newton_steps"]
    assert steps == manifests[1]["newton_steps"]
    assert set(steps) == {label}
    assert steps[label].keys() == manifests[0]["chosen_costs"][label].keys()
    assert "fold0:lfl" in steps[label]
    assert all(isinstance(n, int) and n >= 1 for n in steps[label].values())


def test_evaluate_records_a_fold_without_training_positives_as_flags(tmp_path):
    examples, label = complementary_sensor_dataset(n=240, n_users=4, seed=50)
    positive_users = ("u00", "u01")
    relabeled = [
        feature_example(ex.user_id, ex.timestamp, ex.features,
                        {label: ex.label_value(label) if ex.user_id in positive_users else 0})
        for ex in examples
    ]
    features = _features_dir_from(by_user(relabeled), tmp_path / "features")
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text(f"{label}\n")
    # fold 0 trains on u02 and u03 alone, which have no positive minute
    partition = tmp_path / "partition.txt"
    partition.write_text("u00 u01\nu02 u03\n")
    out = tmp_path / "out"
    code = main(_evaluate_argv(features, labels_file, out, "--systems", "acc,ef,lfl",
                               "--partition", str(partition)))
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    flags = manifest["flags"][label]
    for system in SENSORS + ("ef", "lfl"):
        assert f"fold0:{system}:trivial" in flags
    assert len(flags) == len(SENSORS) + 2
    # the trivial fits chose no cost; fold 1's did
    assert not any(key.startswith("fold0:") for key in manifest["chosen_costs"][label])
    assert "fold1:acc" in manifest["chosen_costs"][label]
    assert manifest["newton_steps"][label].keys() == manifest["chosen_costs"][label].keys()


def test_evaluate_records_a_fold_with_two_training_positives_as_cost_fallbacks(tmp_path):
    examples, label = complementary_sensor_dataset(n=240, n_users=4, seed=50)
    # fold 0 trains on u02 and u03, whose only positive minutes are two of u02's
    kept = {ex.timestamp for ex in examples if ex.user_id == "u02" and ex.label_value(label)}
    kept = set(sorted(kept)[:2])
    relabeled = [
        feature_example(ex.user_id, ex.timestamp, ex.features,
                        {label: ex.label_value(label) if ex.user_id in ("u00", "u01")
                         or ex.timestamp in kept else 0})
        for ex in examples
    ]
    features = _features_dir_from(by_user(relabeled), tmp_path / "features")
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text(f"{label}\n")
    partition = tmp_path / "partition.txt"
    partition.write_text("u00 u01\nu02 u03\n")
    out = tmp_path / "out"
    code = main(_evaluate_argv(features, labels_file, out, "--systems", "acc,ef,lfl",
                               "--partition", str(partition)))
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    systems = (*sorted(SENSORS), "ef", "lfl")  # fit order
    # every fit of fold 0 fell back to C = 1 and records that cost; fold 1 searched the grid
    assert manifest["flags"][label] == [f"fold0:{system}:cost_fallback" for system in systems]
    costs = manifest["chosen_costs"][label]
    assert all(costs[f"fold0:{system}"] == 1.0 for system in systems)
    assert all(f"fold1:{system}" in costs for system in systems)


def _fits_failing_from(monkeypatch, call, fit):
    """``fit``, whose ``call``-th call (from 1) and every later fit run with
    no Newton step allowed, so each learned fit fails to converge."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            monkeypatch.setattr(classifier, "NEWTON_MAX_STEPS", 0)
        return fit(*args, **kwargs)

    return failing


@pytest.mark.parametrize("failing", ["all", "lfl", "universal", "individual"])
def test_a_fit_that_fails_to_converge_names_where_it_failed(tmp_path, eval_setup, monkeypatch, capsys, failing):
    features, labels_file, label = eval_setup
    if failing in ("all", "lfl"):
        argv = _evaluate_argv(features, labels_file, tmp_path / "out", "--systems", "acc,ef,lfl")
        where = f"fold 0, system {'acc' if failing == 'all' else 'lfl'}: label {label!r}"
    else:
        argv = ["personalize", "--features-dir", str(features), "--labels", str(labels_file),
                "--user", "u00", "--out", str(tmp_path / "out")]
        where = f"user 'u00', {failing} model: label {label!r}"
    if failing == "lfl":
        monkeypatch.setattr(evaluation, "late_fusion_learned",
                            _fits_failing_from(monkeypatch, 1, evaluation.late_fusion_learned))
    elif failing == "individual":
        monkeypatch.setattr(personalization, "fit_labels",
                            _fits_failing_from(monkeypatch, 2, personalization.fit_labels))
    else:
        monkeypatch.setattr(classifier, "NEWTON_MAX_STEPS", 0)
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: RuntimeError: {where}: optimizer failed to reach "
                          "gradient tolerance"), err


def test_evaluate_unknown_label_exits_3(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    labels_file.write_text("NO_SUCH_LABEL\n")
    code = main([
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc", "--out", str(tmp_path / "r"),
    ])
    assert code == 3
    assert "NO_SUCH_LABEL" in capsys.readouterr().err


def test_evaluate_unknown_system_exits_3(tmp_path, eval_setup):
    features, labels_file, _ = eval_setup
    code = main([
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc,svm", "--out", str(tmp_path / "r"),
    ])
    assert code == 3


def test_evaluate_loo_records_fixed_cost(tmp_path, eval_setup):
    features, labels_file, label = eval_setup
    out = tmp_path / "loo"
    code = main([
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc", "--mode", "loo", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    costs = manifest["chosen_costs"][label]
    assert costs and all(v == 1.0 for v in costs.values())


def test_rerun_reproduces_outputs(tmp_path, eval_setup):
    features, labels_file, _ = eval_setup
    out = tmp_path / "results"
    args = [
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc,lfa", "--seed", "7", "--out", str(out),
    ]
    assert main(args) == 0
    first = (out / "results_ba.csv").read_bytes()
    assert main(["rerun", str(out / "run_manifest.json")]) == 0
    assert (out / "results_ba.csv").read_bytes() == first


def test_rerun_ignores_environment_overrides(tmp_path, eval_setup, monkeypatch):
    features, labels_file, _ = eval_setup
    out = tmp_path / "results"
    assert main(_evaluate_argv(features, labels_file, out, "--systems", "acc,ef")) == 0
    first = (out / "results_ba.csv").read_bytes()
    users = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))
    partition = tmp_path / "two_folds.txt"
    partition.write_text(" ".join(users[:2]) + "\n" + " ".join(users[2:]) + "\n")
    monkeypatch.setenv("CTXFUSE_PARTITION", str(partition))
    monkeypatch.setenv("CTXFUSE_SYSTEMS", "lfa")
    assert main(["rerun", str(out / "run_manifest.json")]) == 0
    assert (out / "results_ba.csv").read_bytes() == first


def test_rerun_writes_nothing_extra_into_outputs(tmp_path, eval_setup):
    features, labels_file, _ = eval_setup
    out = tmp_path / "results"
    assert main([
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc", "--seed", "2", "--out", str(out),
    ]) == 0
    before = sorted(p.name for p in out.iterdir())
    assert main(["rerun", str(out / "run_manifest.json")]) == 0
    assert sorted(p.name for p in out.iterdir()) == before


def test_rerun_rejects_changed_inputs(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    out = tmp_path / "results"
    assert main([
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc", "--seed", "2", "--out", str(out),
    ]) == 0
    first = (out / "results_ba.csv").read_bytes()
    table = sorted(features.glob("*.features.csv"))[0]
    lines = table.read_text().splitlines()
    lines = lines[:-1]  # drop one recorded minute
    table.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["rerun", str(out / "run_manifest.json")]) == 2
    assert "changed" in capsys.readouterr().err
    assert (out / "results_ba.csv").read_bytes() == first


def test_personalize_end_to_end(tmp_path):
    background, test_user, label = drift_user_scenario(
        seed=41, n_per_background=120, n_test_user=400
    )
    features = _features_dir_from(by_user(background + test_user), tmp_path / "features")
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text(f"{label}\n")

    out = tmp_path / "pers"
    code = main([
        "personalize", "--features-dir", str(features), "--user", "tu",
        "--labels", str(labels_file), "--out", str(out),
    ])
    assert code == 0
    lines = (out / "personalization.csv").read_text().splitlines()
    assert lines[0].startswith("label,n_user_positives,universal_ba")
    assert lines[1].startswith(label)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "tu" not in manifest["universal_train_users"]


def test_personalize_unknown_user_exits_3(tmp_path, eval_setup):
    features, labels_file, _ = eval_setup
    code = main([
        "personalize", "--features-dir", str(features), "--user", "nobody",
        "--labels", str(labels_file), "--out", str(tmp_path / "p"),
    ])
    assert code == 3


def test_environment_variable_overrides_flags(tmp_path, eval_setup, monkeypatch):
    features, labels_file, _ = eval_setup
    out = tmp_path / "env_out"
    monkeypatch.setenv("CTXFUSE_FEATURES_DIR", str(features))
    monkeypatch.setenv("CTXFUSE_LABELS", str(labels_file))
    monkeypatch.setenv("CTXFUSE_SYSTEMS", "acc")
    monkeypatch.setenv("CTXFUSE_OUT", str(out))
    assert main(["evaluate"]) == 0
    assert (out / "results_ba.csv").exists()


def _evaluate_argv(features, labels_file, out, *extra):
    return [
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--out", str(out), *extra,
    ]


def test_environment_seed_gets_the_flags_type_check(tmp_path, eval_setup, monkeypatch, capsys):
    features, labels_file, _ = eval_setup
    argv = _evaluate_argv(features, labels_file, tmp_path / "r", "--systems", "acc")
    with pytest.raises(SystemExit) as flag:
        main(argv + ["--seed", "abc"])
    flag_err = capsys.readouterr().err
    monkeypatch.setenv("CTXFUSE_SEED", "abc")
    with pytest.raises(SystemExit) as env:
        main(argv)
    env_err = capsys.readouterr().err
    assert flag.value.code == env.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in env_err
    assert env_err.splitlines()[-1] == flag_err.splitlines()[-1]


def test_environment_mode_gets_the_flags_choice_check(tmp_path, eval_setup, monkeypatch, capsys):
    features, labels_file, _ = eval_setup
    monkeypatch.setenv("CTXFUSE_MODE", "bogus")
    with pytest.raises(SystemExit) as exc:
        main(_evaluate_argv(features, labels_file, tmp_path / "r", "--systems", "acc"))
    assert exc.value.code == 2
    assert "argument --mode: invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_flag_wins_over_environment(tmp_path, eval_setup, monkeypatch):
    features, labels_file, _ = eval_setup
    out = tmp_path / "r"
    monkeypatch.setenv("CTXFUSE_SEED", "7")
    monkeypatch.setenv("CTXFUSE_SYSTEMS", "acc")
    monkeypatch.setenv("CTXFUSE_OUT", str(tmp_path / "unused"))
    assert main(_evaluate_argv(features, labels_file, out, "--seed", "3")) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config["seed"] == 3 and config["systems"] == ["acc"]
    assert not (tmp_path / "unused").exists()


def test_labels_that_canonicalize_to_one_name_exit_3(tmp_path, eval_setup, capsys):
    features, labels_file, label = eval_setup
    labels_file.write_text(f"{label}\n{label.lower()}\n")
    code = main(_evaluate_argv(features, labels_file, tmp_path / "r", "--systems", "acc"))
    assert code == 3
    err = capsys.readouterr().err
    assert repr(label) in err and "twice" in err
    assert not (tmp_path / "r").exists()


def test_duplicate_system_exits_3(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    code = main(_evaluate_argv(features, labels_file, tmp_path / "r", "--systems", "acc,lfa,acc"))
    assert code == 3
    assert "'acc' twice" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_below_one_exits_3(tmp_path, eval_setup, capsys, jobs):
    features, labels_file, _ = eval_setup
    code = main(_evaluate_argv(
        features, labels_file, tmp_path / "r", "--systems", "acc", "--jobs", jobs
    ))
    assert code == 3
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_personalize_single_example_user_exits_3(tmp_path):
    examples, label = complementary_sensor_dataset(n=61, n_users=61, seed=51)
    # user u60 gets exactly one example
    tables = by_user(examples)
    assert len(tables["u60"]) == 1
    features = _features_dir_from(tables, tmp_path / "features")
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text(f"{label}\n")
    code = main([
        "personalize", "--features-dir", str(features), "--user", "u60",
        "--labels", str(labels_file), "--out", str(tmp_path / "p"),
    ])
    assert code == 3


def test_rerun_rejects_changed_sensor_file_of_extract(tmp_path, capsys):
    bundles = _make_bundles(tmp_path / "raw")
    out = tmp_path / "features"
    assert main(["extract", "--input", str(bundles), "--out", str(out), "--utc-offset", "-8"]) == 0
    first = (out / "u0.features.csv").read_bytes()
    acc = bundles / "u0" / "session_1" / "acc.csv"
    lines = acc.read_text().splitlines()
    acc.write_text("\n".join(lines[: len(lines) // 2]) + "\n")  # truncate one sensor file
    capsys.readouterr()
    assert main(["rerun", str(out / "run_manifest.json")]) == 2
    assert "changed" in capsys.readouterr().err
    assert (out / "u0.features.csv").read_bytes() == first


def test_rerun_keeps_the_recorded_manifest(tmp_path, eval_setup):
    features, labels_file, _ = eval_setup
    out = tmp_path / "results"
    assert main([
        "evaluate", "--features-dir", str(features), "--labels", str(labels_file),
        "--systems", "acc", "--seed", "2", "--out", str(out),
    ]) == 0
    manifest = out / "run_manifest.json"
    record = json.loads(manifest.read_text())
    record["started_unix"] = 0  # a replay could never write this time back
    manifest.write_text(json.dumps(record, indent=2, sort_keys=True))
    recorded = manifest.read_bytes()
    assert main(["rerun", str(manifest)]) == 0
    assert manifest.read_bytes() == recorded


def _swap_first_users(folds):
    """Folds with the first user of fold 0 and of fold 1 exchanged."""
    a, b = folds[0], folds[1]
    return [[b[0]] + a[1:], [a[0]] + b[1:]] + folds[2:]


def test_rerun_rejects_changed_partition_file(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    users = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))
    folds = [users[:2], users[2:]]
    partition = tmp_path / "partition.txt"
    partition.write_text("".join(" ".join(f) + "\n" for f in folds))
    out = tmp_path / "results"
    assert main(_evaluate_argv(features, labels_file, out, "--systems", "acc",
                               "--partition", str(partition))) == 0
    first = (out / "results_ba.csv").read_bytes()
    assert main(["rerun", str(out / "run_manifest.json")]) == 0
    partition.write_text("".join(" ".join(f) + "\n" for f in _swap_first_users(folds)))
    capsys.readouterr()
    assert main(["rerun", str(out / "run_manifest.json")]) == 2
    assert "changed" in capsys.readouterr().err
    assert (out / "results_ba.csv").read_bytes() == first


def test_rerun_rejects_changed_partition_directory(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    users = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))
    folds = [users[:2], users[2:]]
    part_dir = tmp_path / "cv5"
    part_dir.mkdir()

    def write_folds(folds):
        for i, fold in enumerate(folds):
            (part_dir / f"fold_{i}_test_android_uuids.txt").write_text("\n".join(fold) + "\n")

    write_folds(folds)
    (part_dir / "README.txt").write_text("not a fold file\n")
    out = tmp_path / "results"
    assert main(_evaluate_argv(features, labels_file, out, "--systems", "acc",
                               "--partition", str(part_dir))) == 0
    (part_dir / "README.txt").write_text("edited, still not a fold file\n")
    assert main(["rerun", str(out / "run_manifest.json")]) == 0
    write_folds(_swap_first_users(folds))
    capsys.readouterr()
    assert main(["rerun", str(out / "run_manifest.json")]) == 2
    assert "changed" in capsys.readouterr().err


def test_extract_short_phone_series_is_input_error(tmp_path, capsys):
    bundles = _make_bundles(tmp_path / "raw")
    session = bundles / "u1" / "session_2"
    (session / "acc.csv").write_text("0.0,0.1,0.2,0.98\n0.025,0.1,0.2,0.99\n")
    code = main(["extract", "--input", str(bundles), "--out", str(tmp_path / "f"),
                 "--utc-offset", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {session}: sensor 'acc': signal too short")
    assert "internal error" not in err


def test_extract_short_waveform_is_input_error(tmp_path, capsys):
    bundles = _make_bundles(tmp_path / "raw")
    session = bundles / "u0" / "session_0"
    (session / "mfcc.csv").unlink()
    (session / "audio.csv").write_text("\n".join(["0.01"] * 2000) + "\n")
    code = main(["extract", "--input", str(bundles), "--out", str(tmp_path / "f"),
                 "--utc-offset", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {session}: sensor 'aud': audio too short (2000 samples")


def _extract_bundle_error(tmp_path, capsys, edit):
    """Exit code and stderr of ``extract`` after ``edit(session)`` on one bundle."""
    bundles = _make_bundles(tmp_path / "raw")
    session = bundles / "u1" / "session_1"
    edit(session)
    capsys.readouterr()
    code = main(["extract", "--input", str(bundles), "--out", str(tmp_path / "f"),
                 "--utc-offset", "0"])
    return code, capsys.readouterr().err


def _edit_manifest(**changes):
    def edit(session):
        manifest = json.loads((session / "session.json").read_text())
        manifest.update(changes)
        (session / "session.json").write_text(json.dumps(manifest))
    return edit


def _write_location(rows):
    return lambda session: (session / "location.csv").write_text("\n".join(rows) + "\n")


def _directory_in_place_of(name):
    def edit(session):
        (session / name).unlink()
        (session / name).mkdir()
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(
        lambda s: (s / "session.json").write_text((s / "session.json").read_text()[:-9]),
        "session.json: line 1: malformed JSON", id="truncated-session-json"),
    pytest.param(_edit_manifest(timestamp="noon"),
                 "session.json: timestamp 'noon' is not an integer", id="timestamp-noon"),
    pytest.param(_edit_manifest(labels=["SITTING"]),
                 "session.json: labels must be an object of label -> value, got list",
                 id="labels-list"),
    pytest.param(_edit_manifest(user_id=None),
                 "session.json: user_id None is not a non-empty string", id="user-id-null"),
    pytest.param(_edit_manifest(user_id="../escape"),
                 "session.json: user_id '../escape' is not", id="user-id-dot-dot-slash"),
    pytest.param(_edit_manifest(user_id="a.b"), "session.json: user_id 'a.b' is not", id="user-id-dot"),
    pytest.param(_edit_manifest(user_id=""), "session.json: user_id '' is not", id="user-id-empty"),
    pytest.param(_edit_manifest(user_id="a\\b"), "session.json: user_id 'a\\\\b' is not",
                 id="user-id-backslash"),
    pytest.param(_edit_manifest(user_id=7), "session.json: user_id 7 is not", id="user-id-number"),
    pytest.param(_edit_manifest(audio_normalization="loud"),
                 "session.json: audio_normalization 'loud' is not a number",
                 id="audio-normalization-loud"),
    pytest.param(
        lambda s: (s / "gyro.csv").write_bytes(b"0.0,0.1,\xff0.2,0.3\n" + (s / "gyro.csv").read_bytes()),
        "gyro.csv: not UTF-8 text", id="gyro-0xff-byte"),
    pytest.param(lambda s: (s / "phone_state.json").write_text('["active", "via_wifi"]'),
                 "phone_state.json: expected a JSON object, got list", id="phone-state-list"),
    *[pytest.param(_directory_in_place_of(name), f"{name}: cannot read: ", id=f"{name}-directory")
      for name in ("session.json", "gyro.csv", "location.csv", "mfcc.csv", "phone_state.json")],
    # each rule of a bundle's values, named by the file that breaks it
    pytest.param(_write_location(["0.0,32.88,-117.23,100.0,1.0,,-10.0"]),
                 "location.csv: update 0 has negative horizontal_accuracy",
                 id="location-negative-horizontal-accuracy"),
    pytest.param(lambda s: (s / "mfcc.csv").write_text(""),
                 "mfcc.csv: at least one frame required", id="mfcc-no-frame"),
    pytest.param(_edit_manifest(audio_normalization=float("nan")),
                 "session.json: audio_normalization nan is not finite and positive",
                 id="audio-normalization-nan"),
    pytest.param(_edit_manifest(audio_normalization=0),
                 "session.json: audio_normalization 0.0 is not finite and positive",
                 id="audio-normalization-zero"),
    pytest.param(lambda s: (s / "phone_state.json").write_text('{"app_state": "asleep"}'),
                 "phone_state.json: app_state value 'asleep' not in ('active', 'inactive', "
                 "'background', 'missing')", id="phone-state-value"),
    pytest.param(_edit_manifest(labels={"SITTING": "relevant", "?!": "missing"}),
                 "session.json: label '?!' has an empty canonical name", id="label-empty-name"),
    pytest.param(_edit_manifest(labels={"Sitting": "relevant", "SITTING": "missing"}),
                 "session.json: labels 'Sitting' and 'SITTING' both canonicalize to 'SITTING'",
                 id="labels-canonicalize-to-one-name"),
    pytest.param(_edit_manifest(labels={"SITTING": "yes"}),
                 "session.json: label 'SITTING' has value 'yes', not one of "
                 "('relevant', 'not_relevant', 'missing')", id="label-value"),
])
def test_extract_malformed_bundle_file_is_input_error(tmp_path, capsys, edit, message):
    code, err = _extract_bundle_error(tmp_path, capsys, edit)
    assert code == 2, err
    session = tmp_path / "raw" / "u1" / "session_1"
    assert err.startswith(f"error: {session}/"), err
    assert message in err
    assert "internal error" not in err
    assert not list(tmp_path.rglob("*.features.csv"))



def test_extract_two_sessions_of_one_minute_exit_2(tmp_path, capsys):
    bundles = _make_bundles(tmp_path / "raw")
    first, copy = bundles / "u1" / "session_1", bundles / "u1" / "session_1b"
    shutil.copytree(first, copy)
    code = main(["extract", "--input", str(bundles), "--out", str(tmp_path / "f"),
                 "--utc-offset", "0"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == (f"error: {first} and {copy} both record user 'u1' at timestamp 1600100060; "
                   "keep one session per minute\n"), err
    assert not (tmp_path / "f").exists()




def test_extract_negative_location_accuracy_is_input_error(tmp_path, capsys):
    code, err = _extract_bundle_error(tmp_path, capsys, _write_location([
        "0.0,32.88,-117.23,100.0,1.0,8.0,10.0",
        "5.0,32.8801,-117.2301,,1.2,-6.0,12.0",
    ]))
    assert code == 2, err
    session = tmp_path / "raw" / "u1" / "session_1"
    assert err == f"error: {session / 'location.csv'}: update 1 has negative vertical_accuracy\n", err
    assert not list(tmp_path.rglob("*.features.csv"))


def test_extract_accepts_empty_location_accuracy_cells(tmp_path, capsys):
    code, err = _extract_bundle_error(tmp_path, capsys, _write_location([
        "0.0,32.88,-117.23,100.0,1.0,,10.0",
        "5.0,32.8801,-117.2301,,1.2,6.0,",
    ]))
    assert code == 0, err
    with open(tmp_path / "f" / "u1.features.csv", newline="") as fh:
        row = {int(r["timestamp"]): r for r in csv.DictReader(fh)}[1_600_100_060]
    # the best accuracy of each kind is the one reported value
    assert float(row["location:best_vertical_accuracy"]) == 6.0
    assert float(row["location:best_horizontal_accuracy"]) == 10.0


def _partition_argv(command, features, labels_file, out, partition, user):
    argv = [command, "--features-dir", str(features), "--labels", str(labels_file),
            "--partition", str(partition), "--out", str(out)]
    return argv + (["--user", user] if command == "personalize" else ["--systems", "acc"])


@pytest.mark.parametrize("command", ["evaluate", "personalize"])
def test_partition_listing_a_user_twice_is_input_error(tmp_path, eval_setup, capsys, command):
    features, labels_file, _ = eval_setup
    users = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))
    partition = tmp_path / "partition.txt"
    partition.write_text(f"{users[0]} {users[1]}\n{users[2]} {users[3]} {users[1]}\n")
    out = tmp_path / "out"
    code = main(_partition_argv(command, features, labels_file, out, partition, users[0]))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {partition}: user {users[1]!r} appears in two folds"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "personalize"])
def test_partition_users_differing_from_dataset_exit_3(tmp_path, eval_setup, capsys, command):
    features, labels_file, _ = eval_setup
    users = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))
    partition = tmp_path / "partition.txt"
    partition.write_text(f"{users[0]} {users[1]}\n{users[2]} ghost\n")
    out = tmp_path / "out"
    code = main(_partition_argv(command, features, labels_file, out, partition, users[0]))
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"missing: {users[3]}; extra: ghost" in err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "error: cannot read partition {}: "),
    (b"u0 \xff\n", "error: {}: not UTF-8 text"),
], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("command", ["evaluate", "personalize"])
def test_unreadable_partition_file_is_input_error(tmp_path, eval_setup, capsys, command,
                                                  content, message):
    features, labels_file, _ = eval_setup
    user = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))[0]
    partition = tmp_path / "partition.txt"
    if content is not None:
        partition.write_bytes(content)
    out = tmp_path / "out"
    code = main(_partition_argv(command, features, labels_file, out, partition, user))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(message.format(partition)), err
    assert not out.exists()


def _input_error(argv, capsys, message, out):
    """Run ``argv``: exit 2, the error starting with ``message``, no outputs."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(message), err
    assert not out.exists()


def test_labels_file_that_is_not_utf8_is_input_error(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    labels_file.write_bytes(b"SITTING\n\xff\n")
    out = tmp_path / "out"
    _input_error(_evaluate_argv(features, labels_file, out, "--systems", "acc"), capsys,
                 f"error: {labels_file}: not UTF-8 text", out)


@pytest.mark.parametrize("case", ["label-column", "user-id"])
def test_feature_table_giving_an_empty_name_is_input_error(tmp_path, eval_setup, capsys, case):
    features, labels_file, _ = eval_setup
    table = sorted(features.glob("*.features.csv"))[1]
    if case == "label-column":
        header, rest = table.read_text().split("\n", 1)
        column = next(name for name in header.split(",") if name.startswith("label:"))
        table.write_text(header.replace(column, "label:!!!") + "\n" + rest)
        message = f"error: {table}: line 1: label column 'label:!!!' has an empty canonical name"
    else:
        shutil.copy(table, features / ".features.csv")
        message = f"error: {features / '.features.csv'}: the file name gives an empty user id"
    out = tmp_path / "out"
    _input_error(_evaluate_argv(features, labels_file, out, "--systems", "acc"), capsys, message, out)


def test_labels_file_line_with_an_empty_canonical_name_exits_3(tmp_path, eval_setup, capsys):
    features, labels_file, label = eval_setup
    labels_file.write_text(f"{label}\n!!!  # no letter or digit\n")
    out = tmp_path / "out"
    code = main(_evaluate_argv(features, labels_file, out, "--systems", "acc"))
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(f"error: labels file {labels_file}: line 2: label '!!!' has an empty canonical name"), err
    assert not out.exists()


def _partition_dir(tmp_path, eval_setup):
    """A partition directory of two fold files over the setup's users."""
    users = sorted(p.name.split(".")[0] for p in eval_setup[0].glob("*.features.csv"))
    part_dir = tmp_path / "cv5"
    part_dir.mkdir()
    for i, fold in enumerate((users[:2], users[2:])):
        (part_dir / f"fold_{i}_test_uuids.txt").write_text("\n".join(fold) + "\n")
    return part_dir


def test_fold_file_that_is_not_utf8_is_input_error(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    part_dir = _partition_dir(tmp_path, eval_setup)
    fold_file = part_dir / "fold_1_test_uuids.txt"
    fold_file.write_bytes(b"u0 \xff\n")
    out = tmp_path / "out"
    _input_error(_evaluate_argv(features, labels_file, out, "--systems", "acc", "--partition", str(part_dir)),
                 capsys, f"error: {fold_file}: not UTF-8 text", out)


def test_directory_named_like_a_fold_file_is_not_read(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    lone = tmp_path / "lone"
    (lone / "fold_0_test_uuids.txt").mkdir(parents=True)
    out = tmp_path / "out"
    _input_error(_evaluate_argv(features, labels_file, out, "--systems", "acc", "--partition", str(lone)),
                 capsys, f"error: {lone}: no fold_<i>_test*uuids*.txt files found", out)

    # beside the fold files it is skipped, by the run and by the input digest
    part_dir = _partition_dir(tmp_path, eval_setup)
    (part_dir / "fold_2_test_uuids.txt").mkdir()
    argv = _evaluate_argv(features, labels_file, out, "--systems", "acc", "--partition", str(part_dir))
    assert main(argv) == 0
    assert json.loads((out / "run_manifest.json").read_text())["partition_folds"] == [
        sorted(p.read_text().split()) for p in sorted(part_dir.glob("fold_[01]_*"))]
    assert main(["rerun", str(out / "run_manifest.json")]) == 0


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_feature_table_is_input_error(tmp_path, eval_setup, capsys, kind):
    features, labels_file, _ = eval_setup
    if kind == "not-utf8":
        table = sorted(features.glob("*.features.csv"))[1]
        table.write_bytes(table.read_bytes().replace(b"\n", b"\n\xff", 1))
        message = f"error: {table}: not UTF-8 text"
    else:
        table = features / "u9.features.csv"
        table.mkdir()
        message = f"error: cannot read feature table {table}: "
    out = tmp_path / "out"
    _input_error(_evaluate_argv(features, labels_file, out, "--systems", "acc"), capsys, message, out)


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf", "1e308", "24.5", "-25"])
def test_extract_non_finite_utc_offset_exits_3(tmp_path, capsys, offset):
    bundles = _make_bundles(tmp_path / "raw")
    out = tmp_path / "o"
    code = main(["extract", "--input", str(bundles), "--out", str(out), f"--utc-offset={offset}"])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("error: --utc-offset must be a finite number of hours"), err
    assert err.endswith(f", got {float(offset)}\n"), err
    assert not out.exists()


def test_positional_column_mapping_is_recorded_in_the_manifest(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    users = sorted(p.name.split(".")[0] for p in features.glob("*.features.csv"))
    runs = {}
    for name in ("canonical", "renamed"):
        if name == "renamed":
            table = features / f"{users[1]}.features.csv"
            text = table.read_text()
            header, rest = text.split("\n", 1)
            table.write_text(header.replace("location:", "location:v2_") + "\n" + rest)
        outs = {"evaluate": tmp_path / name / "evaluate", "personalize": tmp_path / name / "personalize"}
        assert main(_evaluate_argv(features, labels_file, outs["evaluate"], "--systems", "acc,loc,lfa")) == 0
        assert main(["personalize", "--features-dir", str(features), "--labels", str(labels_file),
                     "--user", users[0], "--out", str(outs["personalize"])]) == 0
        runs[name] = outs
    capsys.readouterr()

    for command, out in runs["renamed"].items():
        canonical = runs["canonical"][command]
        want = {users[1]: ["loc"]}
        assert json.loads((out / "run_manifest.json").read_text())["positional_columns"] == want
        assert json.loads((canonical / "run_manifest.json").read_text())["positional_columns"] == {}
        # the renamed columns are in canonical order: the results do not move
        for csv_file in sorted(p.name for p in canonical.glob("*.csv")):
            assert (out / csv_file).read_bytes() == (canonical / csv_file).read_bytes()


def test_loo_with_a_partition_exits_3(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    out = tmp_path / "out"
    code = main(_evaluate_argv(features, labels_file, out, "--systems", "acc", "--mode", "loo",
                               "--partition", str(tmp_path / "no_such_partition.txt")))
    err = capsys.readouterr().err
    assert code == 3, err
    assert "--mode loo" in err and "--partition" in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"command": "evaluate", "config": {', "line 1: malformed JSON"),
    ("{}", "not a run manifest"),
    ("[1]", "expected a JSON object, got list"),
], ids=["truncated", "empty-object", "list"])
def test_rerun_of_a_file_that_is_not_a_manifest_exits_2(tmp_path, capsys, text, message):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(text, encoding="utf-8")
    code = main(["rerun", str(manifest)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {manifest}: ") and message in err, err


def _without(key):
    def edit(config):
        del config[key]
    return edit


@pytest.mark.parametrize("edit, key, got", [
    (lambda config: config.clear(), "features_dir", "nothing"),
    (lambda config: config.update(features_dir=5), "features_dir", "5"),
    (_without("out"), "out", "nothing"),
    (lambda config: config.update(partition=7), "partition", "7"),
], ids=["empty-config", "features-dir-not-a-string", "no-out", "partition-not-a-string"])
def test_rerun_of_a_manifest_with_a_bad_config_path_exits_2(tmp_path, eval_setup, capsys,
                                                            edit, key, got):
    features, labels_file, _ = eval_setup
    out = tmp_path / "out"
    assert main(_evaluate_argv(features, labels_file, out, "--systems", "acc")) == 0
    manifest = out / "run_manifest.json"
    record = json.loads(manifest.read_text(encoding="utf-8"))
    edit(record["config"])
    manifest.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()
    code = main(["rerun", str(manifest)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {manifest}: config {key!r} must be a path string, got {got}"), err


def test_rerun_of_an_extract_manifest_without_input_exits_2(tmp_path, capsys):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"command": "extract", "config": {"out": str(tmp_path)}}),
                        encoding="utf-8")
    code = main(["rerun", str(manifest)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {manifest}: config 'input' must be a path string, got nothing"), err


def test_two_tables_of_one_user_exit_2(tmp_path, eval_setup, capsys):
    features, labels_file, _ = eval_setup
    table = sorted(features.glob("*.features.csv"))[0]
    copy = features / f"{table.name.split('.')[0]}.copy.features.csv"
    copy.write_bytes(table.read_bytes())
    out = tmp_path / "out"
    code = main(["evaluate", "--features-dir", str(features), "--labels", str(labels_file),
                 "--systems", "acc", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(table) in err and str(copy) in err
    assert not out.exists()


def _fusion_tables(root, *, watchless=(), watchless_second_half=()):
    """Three users of 12 all-sensor minutes with a both-class label ``T``;
    ``watchless`` users never wear the watch, ``watchless_second_half``
    users take it off halfway."""
    rng = np.random.default_rng(52)
    tables = {}
    for user in ("u0", "u1", "u2"):
        tables[user] = []
        for i in range(12):
            vals = {s: rng.normal(size=FEATURE_DIMS[s]) for s in SENSORS}
            if user in watchless or (user in watchless_second_half and i >= 6):
                del vals["wacc"]
            tables[user].append(feature_example(user, 1_600_000_000 + 60 * i, vals, {"T": i % 2}))
    features = _features_dir_from(tables, root / "features")
    labels_file = root / "labels.txt"
    labels_file.write_text("T\n")
    return features, labels_file


def test_ef_fold_without_complete_training_minute_exits_2(tmp_path, capsys):
    features, labels_file = _fusion_tables(tmp_path, watchless=("u1", "u2"))
    partition = tmp_path / "partition.txt"
    partition.write_text("u0\nu1 u2\n")
    out = tmp_path / "out"
    code = main(["evaluate", "--features-dir", str(features), "--labels", str(labels_file),
                 "--partition", str(partition), "--systems", "ef", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == ("error: fold 0 (held-out users u0): early fusion has no "
                   "complete-sensor training examples\n")
    assert not out.exists()


@pytest.mark.parametrize("watchless, watchless_second_half, message", [
    ((), ("u0",), "no complete-sensor deployment examples"),
    (("u1", "u2"), (), "the universal model's training users have no complete-sensor minute"),
])
def test_personalize_without_complete_minute_exits_2(
    tmp_path, capsys, watchless, watchless_second_half, message
):
    features, labels_file = _fusion_tables(
        tmp_path, watchless=watchless, watchless_second_half=watchless_second_half
    )
    out = tmp_path / "out"
    code = main(["personalize", "--features-dir", str(features), "--labels", str(labels_file),
                 "--user", "u0", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"error: user 'u0': {message}\n"
    assert not out.exists()


def _spy_on_representations(monkeypatch):
    """Lists that fill with the name of every ``Example`` built, and with
    one entry per standardizer fit."""
    built, standardizers = [], []
    init = Example.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Example, "__init__", counting)
    fit_standardizer = classifier.fit_standardizer
    monkeypatch.setattr(classifier, "fit_standardizer",
                        lambda X: standardizers.append(1) or fit_standardizer(X))
    return built, standardizers


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    corpus = perfbench_module("corpus")
    root, info = corpus.materialize(
        corpus.WORKLOADS["cv5-fusion"], 0, False, tmp_path_factory.mktemp("inputs")
    )
    return root, info


def test_evaluate_and_personalize_hold_one_representation(tmp_path, golden_corpus, monkeypatch, capsys):
    root, info = golden_corpus
    common = ["--features-dir", str(root / "features"), "--labels", str(root / "labels.txt"),
              "--partition", str(root / "partition.txt")]
    built, standardizers = _spy_on_representations(monkeypatch)
    assert main(["evaluate", *common, "--out", str(tmp_path / "e")]) == 0, capsys.readouterr().err
    folds = len(load_fold_partition(root / "partition.txt"))
    assert built == []
    assert len(standardizers) == folds * (len(SENSORS) + 1)

    assert len(info["labels"]) == 3
    standardizers.clear()
    code = main(["personalize", *common, "--user", "user06", "--out", str(tmp_path / "p")])
    assert code == 0, capsys.readouterr().err
    assert built == []
    assert len(standardizers) <= 2


def _evaluate_outputs(tmp_path, monkeypatch, features, labels_file, partition, systems, name):
    """``(counts, chosen costs, results CSVs)`` of one ``evaluate`` run."""
    captured = {}
    cross_validate = cli.cross_validate

    def capturing(*args, **kwargs):
        captured["result"] = cross_validate(*args, **kwargs)
        return captured["result"]

    monkeypatch.setattr(cli, "cross_validate", capturing)
    out = tmp_path / name
    assert main(["evaluate", "--features-dir", str(features), "--labels", str(labels_file),
                 "--partition", str(partition), "--systems", ",".join(systems),
                 "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "cross_validate", cross_validate)
    counts = {(s, label): ev.counts for s, by_label in captured["result"].items()
              for label, ev in by_label.items()}
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    csvs = {m: (out / f"results_{m}.csv").read_text(encoding="utf-8") for m in ("ba", "f1")}
    return counts, manifest["chosen_costs"], csvs


@pytest.fixture()
def tiny_corpus(tmp_path):
    corpus = perfbench_module("corpus")
    root, info = corpus.materialize(corpus.WORKLOADS["cv5-fusion"], 0, True, tmp_path / "inputs")
    return root, list(corpus.ALL_SYSTEMS)


def test_shuffled_table_rows_change_nothing(tmp_path, tiny_corpus, monkeypatch):
    root, systems = tiny_corpus
    args = (root / "features", root / "labels.txt", root / "partition.txt", systems)
    want = _evaluate_outputs(tmp_path, monkeypatch, *args, "original")
    rng = np.random.default_rng(0)
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for table in sorted((root / "features").glob("*.features.csv")):
        header, *rows = table.read_text(encoding="utf-8").splitlines()
        rows = [rows[i] for i in rng.permutation(len(rows))]
        (shuffled / table.name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    got = _evaluate_outputs(tmp_path, monkeypatch, shuffled, *args[1:], "shuffled")
    assert got == want


def test_order_preserving_user_rename_changes_nothing(tmp_path, tiny_corpus, monkeypatch):
    root, systems = tiny_corpus
    args = (root / "features", root / "labels.txt", root / "partition.txt", systems)
    want = _evaluate_outputs(tmp_path, monkeypatch, *args, "original")
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for table in (root / "features").glob("*.features.csv"):
        (renamed / table.name.replace("user", "subject_")).write_bytes(table.read_bytes())
    partition = tmp_path / "partition.txt"
    partition.write_text((root / "partition.txt").read_text().replace("user", "subject_"))
    got = _evaluate_outputs(tmp_path, monkeypatch, renamed, root / "labels.txt", partition,
                            systems, "renamed")
    assert got == want


def test_single_system_run_gives_the_same_cells(tmp_path, tiny_corpus, monkeypatch):
    root, systems = tiny_corpus
    args = (root / "features", root / "labels.txt", root / "partition.txt")
    all_counts, all_costs, all_csvs = _evaluate_outputs(tmp_path, monkeypatch, *args, systems, "all")
    counts, costs, csvs = _evaluate_outputs(tmp_path, monkeypatch, *args, ["acc"], "acc")
    assert counts == {key: c for key, c in all_counts.items() if key[0] == "acc"}
    assert costs == {label: {k: c for k, c in by_fold.items() if k.endswith(":acc")}
                     for label, by_fold in all_costs.items()}
    for metric, text in csvs.items():
        # label, n_e, n_s, p99 and acc: the first five columns of every row
        assert [row.split(",")[:5] for row in text.splitlines()] == [
            row.split(",")[:5] for row in all_csvs[metric].splitlines()
        ]


def test_reversed_labels_file_reorders_only_the_label_rows(tmp_path, tiny_corpus, monkeypatch):
    root, systems = tiny_corpus
    labels = (root / "labels.txt").read_text(encoding="utf-8").split()
    assert len(labels) >= 2
    reversed_file = tmp_path / "reversed.txt"
    reversed_file.write_text("\n".join(labels[::-1]) + "\n", encoding="utf-8")
    args = (root / "features", root / "partition.txt", systems)
    counts, costs, csvs = _evaluate_outputs(tmp_path, monkeypatch, args[0], root / "labels.txt",
                                            *args[1:], "original")
    got_counts, got_costs, got_csvs = _evaluate_outputs(tmp_path, monkeypatch, args[0],
                                                        reversed_file, *args[1:], "reversed")
    assert got_counts == counts
    assert got_costs == costs
    for metric, text in csvs.items():
        header, *rows = text.splitlines()
        got_header, *got_rows = got_csvs[metric].splitlines()
        assert got_header == header
        # label rows (with n_e, n_s and p99) come in the file's order, then the average rows
        assert got_rows[:len(labels)] == rows[:len(labels)][::-1]
        assert [row.split(",")[0] for row in rows[:len(labels)]] == labels
        assert got_rows[len(labels):] == rows[len(labels):]


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    examples, _ = complementary_sensor_dataset(n=300, n_users=6, seed=53, label="SITTING")
    _features_dir_from(by_user(examples), tmp_path / "features")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(0.0 <= float(v) <= 1.0 for v in printed)
