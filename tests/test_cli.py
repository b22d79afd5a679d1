import json

import pytest

from ctxfuse.cli import main
from ctxfuse.ingestion import write_features_csv
from synth import complementary_sensor_dataset, drift_user_scenario

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
        write_features_csv(root / f"{user}.features.csv", exs)
    return root


@pytest.fixture()
def eval_setup(tmp_path):
    dataset, label = complementary_sensor_dataset(n=240, n_users=4, seed=50)
    by_user = {u: dataset.examples_by_user[u] for u in dataset.users}
    features = _features_dir_from(by_user, tmp_path / "features")
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
    by_user = {}
    for ex in background + test_user:
        by_user.setdefault(ex.user_id, []).append(ex)
    features = _features_dir_from(by_user, tmp_path / "features")
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text(f"{label}\n")

    out = tmp_path / "pers"
    code = main([
        "personalize", "--features-dir", str(features), "--user", "tu",
        "--labels", str(labels_file), "--out", str(out),
    ])
    assert code == 0
    lines = (out / "personalization.csv").read_text().splitlines()
    assert lines[0].startswith("label,n_user_examples,universal_ba")
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
    dataset, label = complementary_sensor_dataset(n=61, n_users=61, seed=51)
    # user u60 gets exactly one example
    by_user = {u: dataset.examples_by_user[u] for u in dataset.users}
    assert len(by_user["u60"]) == 1
    features = _features_dir_from(by_user, tmp_path / "features")
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
