"""Batch command line: extract features, evaluate systems, personalize.

Every run writes a ``run_manifest.json`` capturing the config, seeds, an
input digest, chosen costs and timing; ``ctxfuse rerun MANIFEST`` replays
the stored config and reproduces the output files byte-identically.

Exit codes: 0 success, 2 input error, 3 configuration/vocabulary error,
4 internal invariant violation. Every option that takes a value can also be
supplied through an environment variable named CTXFUSE_<FLAG> (dashes as
underscores); it is checked exactly like the flag, which wins when both
are given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .data import extract_all_features
from .evaluation import (
    ALL_SYSTEMS,
    cross_validate,
    derive_seed,
    loo_partition,
    p99_of_average,
    p99_of_defined,
    partition_folds,
    random_baseline_scores,
    results_table,
    table_to_csv,
    table_to_markdown,
)
from .fusion import early_fusion
from .ingestion import (
    IngestionError,
    fold_partition_files,
    iter_session_dirs,
    load_features_dir,
    load_fold_partition,
    load_raw_session,
    write_features_csv,
)
from .model import Dataset, Example, canonical_label_name
from .personalization import (
    evaluate_personalization,
    personalization_table,
    split_user_timeline,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """A bad flag value, unknown label, or unknown user."""


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxfuse",
        description="Context recognition from phone and watch sensors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extract", help="extract feature tables from raw session bundles")
    p_ext.add_argument("--input", required=True)
    p_ext.add_argument(
        "--utc-offset",
        type=float,
        default=None,
        help="hours to add to UTC for local time-of-day (required)",
    )
    _add_common(p_ext)

    p_eval = sub.add_parser("evaluate", help="run cross-validation and emit result tables")
    p_eval.add_argument("--features-dir", required=True)
    p_eval.add_argument("--partition")
    p_eval.add_argument("--systems", default=",".join(ALL_SYSTEMS))
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--mode", choices=("cv5", "loo"), default="cv5")
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.add_argument("--markdown", action="store_true")
    _add_common(p_eval)

    p_per = sub.add_parser("personalize", help="universal/individual/adapted comparison for one user")
    p_per.add_argument("--features-dir", required=True)
    p_per.add_argument("--user", required=True)
    p_per.add_argument("--labels", required=True)
    p_per.add_argument("--partition")
    p_per.add_argument("--markdown", action="store_true")
    _add_common(p_per)

    p_rerun = sub.add_parser("rerun", help="replay a run from its manifest")
    p_rerun.add_argument("manifest")
    return parser


def _with_env_options(parser: argparse.ArgumentParser, argv: list) -> list:
    """``argv`` with ``--flag=VALUE`` after the command for each set
    ``CTXFUSE_<FLAG>`` of a value-taking option, so that argparse checks the
    value like the flag's; a flag on the command line comes later and wins.
    """
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not argv or argv[0] not in commands:
        return argv
    from_env = []
    for action in commands[argv[0]]._actions:
        value = os.environ.get("CTXFUSE_" + action.dest.upper())
        if action.option_strings and action.nargs != 0 and value is not None:
            from_env.append(f"{action.option_strings[0]}={value}")
    return argv[:1] + from_env + argv[1:]


def _digest_files(root: Path, files) -> str:
    """Digest of files under ``root``: each relative path, then its bytes."""
    h = hashlib.sha256()
    for rel in sorted(Path(f).relative_to(root).as_posix() for f in files):
        h.update(rel.encode())
        h.update((root / rel).read_bytes())
    return h.hexdigest()


def _input_digest(command: str, config: dict) -> str:
    """Digest of the inputs a run of ``command`` with ``config`` reads."""
    if command == "extract":
        root = Path(config["input"])
        files = (f for s in iter_session_dirs(root) for f in s.iterdir() if f.is_file())
        return _digest_files(root, files)
    root = Path(config["features_dir"])
    digest = _digest_files(root, root.glob("*.features.csv"))
    if config.get("partition"):
        # a partition directory by its fold files, a partition file by its name
        part = Path(config["partition"])
        base = part if part.is_dir() else part.parent
        digest = hashlib.sha256(
            (digest + _digest_files(base, fold_partition_files(part))).encode()
        ).hexdigest()
    return digest


def _read_labels_file(path) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot read labels file {path}: {exc}") from exc
    labels = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            label = canonical_label_name(line)
            if label in labels:
                raise ConfigError(
                    f"labels file {path} lists label {label!r} twice (again as {line!r})"
                )
            labels.append(label)
    if not labels:
        raise ConfigError(f"labels file {path} lists no labels")
    return labels


def _write_manifest(out_dir: Path, command: str, config: dict, extras: dict, started: float):
    manifest = {
        "tool": "ctxfuse",
        "version": __version__,
        "command": command,
        "config": config,
        "started_unix": int(started),
        "duration_s": round(time.time() - started, 3),
    }
    manifest.update(extras)
    with open(out_dir / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def cmd_extract(args) -> int:
    started = time.time()
    if args.utc_offset is None:
        raise ConfigError("--utc-offset is required (local time-of-day must be reproducible)")
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise IngestionError(f"input directory {input_dir} not readable")
    sessions = iter_session_dirs(input_dir)
    if not sessions:
        raise IngestionError(f"no sessions found under {input_dir}")

    by_user: dict = {}
    for sdir in sessions:
        example = load_raw_session(sdir, utc_offset_hours=args.utc_offset)
        try:
            feats = extract_all_features(example)
        except ValueError as exc:
            # a sensor series too short for its features is bad input
            raise IngestionError(f"{sdir}: {exc}") from None
        by_user.setdefault(example.user_id, []).append(
            Example(
                user_id=example.user_id,
                timestamp=example.timestamp,
                precomputed_features=feats,
                labels=example.labels,
            )
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for user_id in sorted(by_user):
        write_features_csv(out_dir / f"{user_id}.features.csv", by_user[user_id])

    config = {"input": str(input_dir), "out": str(out_dir), "utc_offset": args.utc_offset, "seed": args.seed}
    extras = {
        "input_digest": _input_digest("extract", config),
        "n_sessions": len(sessions),
        "n_users": len(by_user),
    }
    _write_manifest(out_dir, "extract", config, extras, started)
    print(f"extracted {len(sessions)} sessions from {len(by_user)} users -> {out_dir}")
    return EXIT_OK


def _load_dataset(features_dir) -> Dataset:
    root = Path(features_dir)
    if not root.is_dir():
        raise IngestionError(f"features directory {root} not readable")
    return Dataset.from_examples(load_features_dir(root))


def _load_partition(path, dataset: Dataset):
    """The partition file's folds; their users must be exactly the dataset's."""
    partition = load_fold_partition(path)
    missing = sorted(set(dataset.users) - set(partition.users))
    extra = sorted(set(partition.users) - set(dataset.users))
    if missing or extra:
        raise ConfigError(
            f"partition {path} does not match the dataset's users "
            f"(missing: {', '.join(missing) or 'none'}; extra: {', '.join(extra) or 'none'})"
        )
    return partition


def cmd_evaluate(args) -> int:
    started = time.time()
    dataset = _load_dataset(args.features_dir)
    labels = _read_labels_file(args.labels)
    for label in labels:
        if label not in dataset.label_vocabulary:
            raise ConfigError(f"label {label!r} not in dataset vocabulary")

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    if not systems:
        raise ConfigError("--systems lists no system")
    for i, s in enumerate(systems):
        if s not in ALL_SYSTEMS:
            raise ConfigError(f"unknown system {s!r} (choose from {', '.join(ALL_SYSTEMS)})")
        if s in systems[:i]:
            raise ConfigError(f"--systems lists {s!r} twice")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")

    if args.mode == "loo":
        partition = loo_partition(dataset.users)
    elif args.partition:
        partition = _load_partition(args.partition, dataset)
    else:
        k = min(5, len(dataset.users))
        if k < 2:
            raise ConfigError("cross-validation needs at least 2 users")
        partition = partition_folds({u: "unknown" for u in dataset.users}, k=k, seed=args.seed)

    evaluations = cross_validate(
        dataset, labels, systems, partition, mode=args.mode, seed=args.seed, jobs=args.jobs
    )

    n_eval = len(dataset.core_subset())
    p99s = {"ba": {}, "f1": {}}
    score_arrays = {"ba": [], "f1": []}
    for label in labels:
        n_e = evaluations[systems[0]][label].n_examples
        scores = random_baseline_scores(
            n_e, max(n_eval, 1), n_sims=100, seed=derive_seed(args.seed, "p99", label)
        )
        for metric in ("ba", "f1"):
            p99s[metric][label] = p99_of_defined(scores[metric])
            score_arrays[metric].append(scores[metric])
    for metric in ("ba", "f1"):
        p99s[metric]["average"] = p99_of_average(score_arrays[metric])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for metric in ("ba", "f1"):
        rows = results_table(evaluations, labels, systems, p99s[metric], metric=metric)
        (out_dir / f"results_{metric}.csv").write_text(table_to_csv(rows), encoding="utf-8")
        if args.markdown:
            (out_dir / f"results_{metric}.md").write_text(table_to_markdown(rows), encoding="utf-8")

    chosen_costs = {
        label: evaluations[systems[0]][label].chosen_costs for label in labels
    }
    config = {
        "features_dir": str(args.features_dir),
        "partition": args.partition,
        "systems": systems,
        "labels": labels,
        "mode": args.mode,
        "seed": args.seed,
        "jobs": args.jobs,
        "out": str(out_dir),
        "markdown": bool(args.markdown),
    }
    extras = {
        "input_digest": _input_digest("evaluate", config),
        "partition_folds": [list(f) for f in partition.folds],
        "chosen_costs": chosen_costs,
        "n_core_examples": n_eval,
    }
    _write_manifest(out_dir, "evaluate", config, extras, started)
    for metric in ("ba", "f1"):
        print(f"wrote {out_dir / f'results_{metric}.csv'}")
    return EXIT_OK


def cmd_personalize(args) -> int:
    started = time.time()
    dataset = _load_dataset(args.features_dir)
    labels = _read_labels_file(args.labels)
    for label in labels:
        if label not in dataset.label_vocabulary:
            raise ConfigError(f"label {label!r} not in dataset vocabulary")

    user = args.user
    if user not in dataset.examples_by_user:
        raise ConfigError(f"unknown user {user!r}")
    user_examples = dataset.examples_by_user[user]
    if len(user_examples) < 2:
        raise ConfigError(f"user {user!r} has fewer than 2 examples")

    if args.partition:
        partition = _load_partition(args.partition, dataset)
        (holding,) = [f for f in partition.folds if user in f]
        train_users = [u for f in partition.folds if f is not holding for u in f]
    else:
        train_users = [u for u in dataset.users if u != user]

    train_examples = dataset.examples(train_users)
    universal_models = {
        label: early_fusion(train_examples, label, seed=derive_seed(args.seed, "universal", label))
        for label in labels
    }

    split = split_user_timeline(user_examples)
    results = evaluate_personalization(
        universal_models,
        split,
        labels,
        seed=derive_seed(args.seed, "individual", user),
        universal_train_users=train_users,
    )

    rows = personalization_table(results, labels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "personalization.csv").write_text(table_to_csv(rows), encoding="utf-8")
    if args.markdown:
        (out_dir / "personalization.md").write_text(table_to_markdown(rows), encoding="utf-8")

    config = {
        "features_dir": str(args.features_dir),
        "user": user,
        "labels": labels,
        "partition": args.partition,
        "seed": args.seed,
        "out": str(out_dir),
        "markdown": bool(args.markdown),
    }
    extras = {
        "input_digest": _input_digest("personalize", config),
        "universal_train_users": sorted(train_users),
    }
    _write_manifest(out_dir, "personalize", config, extras, started)
    print(f"wrote {out_dir / 'personalization.csv'}")
    return EXIT_OK


def cmd_rerun(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read manifest {args.manifest}: {exc}") from exc
    command = manifest["command"]
    config = manifest["config"]
    recorded = manifest.get("input_digest")
    current = _input_digest(command, config)
    if recorded != current:
        raise IngestionError(
            f"inputs of {args.manifest} are missing or have changed since it was "
            f"written (input digest {current[:12]}, recorded {str(recorded)[:12]}); "
            "the run cannot be reproduced"
        )
    with tempfile.TemporaryDirectory(prefix="ctxfuse-rerun-") as tmp:
        argv = [command]
        for key, value in config.items():
            if value is None or value is False:
                continue
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, list):
                if key == "labels":
                    # labels were read from a file; recreate it outside the outputs
                    labels_file = Path(tmp) / "labels.txt"
                    labels_file.write_text("\n".join(value) + "\n", encoding="utf-8")
                    argv += [flag, str(labels_file)]
                else:
                    argv += [flag, ",".join(str(v) for v in value)]
            else:
                argv += [flag, str(value)]
        # the replay writes its own manifest; keep the record of the run it reproduces
        recorded = Path(config["out"]) / "run_manifest.json"
        saved = recorded.read_bytes() if recorded.is_file() else None
        try:
            # the recorded config alone: no CTXFUSE_<FLAG> value may change the replay
            replay = build_parser().parse_args(argv)
            return _COMMANDS[replay.command](replay)
        finally:
            if saved is not None:
                recorded.write_bytes(saved)


_COMMANDS = {
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "personalize": cmd_personalize,
    "rerun": cmd_rerun,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_with_env_options(parser, argv))
    try:
        return _COMMANDS[args.command](args)
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the documented catch-all exit
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
