"""Seeded inputs for the benchmark workloads.

Everything the program reads is generated here from the workload spec and
an integer corpus seed, with numpy's PCG64 generator and no ctxfuse code:
the same seed gives byte-identical files on every commit, so the stored
reference outputs stay valid while the program changes.

Two kinds of input are written:

* a feature-table corpus (``<user>.features.csv`` in the documented column
  layout, a labels file and a 5-fold partition file) for ``evaluate``;
* raw session bundles (one directory per recorded minute) for ``extract``.

Each spec records why the workload exists and which input properties it
varies (users, minutes, label prevalence, sensor missingness, watch length,
waveform share).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

SENSORS = ("acc", "gyro", "wacc", "loc", "aud", "ps")
ALL_SYSTEMS = SENSORS + ("ef", "lfa", "lfl")

#: bump when the generator's output changes; part of every cache key
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class TableSpec:
    """A feature-table corpus for ``evaluate --mode cv5`` over all systems."""

    n_users: int
    minutes_per_user: int
    #: label name -> target share of minutes where the label is relevant
    prevalence: dict
    #: sensor -> share of minutes where the whole sensor group is absent
    absent: dict
    #: share of empty cells inside a present group, per sensor
    cell_missing: dict = field(
        default_factory=lambda: {"acc": 0.0, "gyro": 0.0, "wacc": 0.02, "loc": 0.15, "aud": 0.0, "ps": 0.0}
    )
    #: share of label cells left empty (unreported, scored as negative)
    label_unreported: float = 0.05


@dataclass(frozen=True)
class RawSpec:
    """Raw session bundles and the ``extract`` call that consumes them."""

    n_users: int
    sessions_per_user: int
    phone_samples: int  # acc / gyro samples per session (40 Hz)
    watch_samples: tuple  # (min, max) watch samples per session (25 Hz)
    waveform_share: float  # sessions carrying audio.csv instead of mfcc.csv
    waveform_samples: tuple  # (min, max) waveform length at 22050 Hz
    mfcc_frames: int
    absent: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: object
    tiny: object  # the same workload shrunk for the benchmark's own smoke test

    @property
    def kind(self) -> str:
        return "extract" if isinstance(self.spec, RawSpec) else "evaluate"

    def sized(self, tiny: bool):
        return self.tiny if tiny else self.spec


_CV5 = TableSpec(
    n_users=10,
    minutes_per_user=60,
    prevalence={"SITTING": 0.40, "PHONE_IN_POCKET": 0.15, "BICYCLING": 0.04},
    absent={"acc": 0.01, "gyro": 0.05, "wacc": 0.30, "loc": 0.12, "aud": 0.05, "ps": 0.01},
)

_RAW = RawSpec(
    n_users=4,
    sessions_per_user=15,
    phone_samples=800,
    watch_samples=(500, 1500),
    waveform_share=0.25,
    waveform_samples=(44_100, 66_150),
    mfcc_frames=429,
    absent={"acc": 0.02, "gyro": 0.10, "wacc": 0.30, "loc": 0.15, "aud": 0.05, "ps": 0.03},
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv5-fusion",
            why=(
                "evaluate --mode cv5 over all 9 systems: the paper's headline protocol; "
                "6 grid fits + 1 final fit per model and the LFL per-row loop dominate"
            ),
            spec=_CV5,
            tiny=replace(_CV5, n_users=5, minutes_per_user=24),
        ),
        Workload(
            name="extract-raw",
            why=(
                "extract on raw session bundles: the only path through the raw readers, "
                "features, audio, kernels and the feature-table writer; no classifier"
            ),
            spec=_RAW,
            tiny=replace(_RAW, n_users=2, sessions_per_user=2, watch_samples=(300, 400),
                         waveform_samples=(4096, 6000), mfcc_frames=20),
        ),
    )
}


# ---------------------------------------------------------------------------
# Feature-table layout (the documented file format)
# ---------------------------------------------------------------------------

_MAGNITUDE_STATS = (
    "mean", "std", "moment3", "moment4", "percentile25", "percentile50", "percentile75",
    "value_entropy", "time_entropy", "log_energy_band0", "log_energy_band1",
    "log_energy_band2", "log_energy_band3", "log_energy_band4", "spectral_entropy",
    "dominant_period", "dominant_period_autocorr",
)
_AXIS_STATS = ("mean_x", "mean_y", "mean_z", "std_x", "std_y", "std_z", "corr_xy", "corr_xz", "corr_yz")

_PHONE_STATE_VALUES = {
    "app_state": ("active", "inactive", "background", "missing"),
    "battery_plugged": ("ac", "usb", "wireless", "missing"),
    "battery_state": ("unknown", "unplugged", "not_charging", "discharging", "charging", "full", "missing"),
    "in_phone_call": ("false", "true", "missing"),
    "ringer_mode": ("normal", "silent_no_vibrate", "silent_with_vibrate", "missing"),
    "wifi_status": ("not_reachable", "via_wifi", "via_wwan", "missing"),
}


def _motion_columns(prefix):
    return [f"{prefix}magnitude:{n}" for n in _MAGNITUDE_STATS] + [f"{prefix}axes:{n}" for n in _AXIS_STATS]


def _feature_columns() -> dict:
    wacc = _motion_columns("watch_acceleration:")
    for axis in "xyz":
        wacc += [f"watch_acceleration:axes:log_energy_{axis}_band{b}" for b in range(5)]
    for lo, hi in (("0", "0.5"), ("0.5", "1"), ("1", "5"), ("5", "10"), ("10", "inf")):
        wacc.append(f"watch_acceleration:direction:cos_lag_{lo}_to_{hi}")
    loc = [f"location_quick_features:{n}" for n in (
        "std_lat", "std_long", "lat_change", "long_change", "mean_abs_lat_deriv", "mean_abs_long_deriv")]
    loc += [f"location:{n}" for n in (
        "num_valid_updates", "log_latitude_range", "log_longitude_range", "min_altitude",
        "max_altitude", "min_speed", "max_speed", "best_vertical_accuracy",
        "best_horizontal_accuracy", "diameter", "log_diameter")]
    aud = [f"audio_naive:mfcc{c}:mean" for c in range(13)] + [f"audio_naive:mfcc{c}:std" for c in range(13)]
    ps = [f"discrete:{p}:is_{v}" for p, vals in _PHONE_STATE_VALUES.items() for v in vals]
    ps += [f"discrete:time_of_day:between{s}and{(s + 6) % 24}" for s in range(0, 24, 3)]
    return {
        "acc": _motion_columns("raw_acc:"),
        "gyro": _motion_columns("proc_gyro:"),
        "wacc": wacc,
        "loc": loc,
        "aud": aud,
        "ps": ps,
    }


FEATURE_COLUMNS = _feature_columns()
FEATURE_DIMS = {s: len(c) for s, c in FEATURE_COLUMNS.items()}
assert FEATURE_DIMS == {"acc": 26, "gyro": 26, "wacc": 46, "loc": 17, "aud": 26, "ps": 34}

#: per-sensor column scales, so the standardizer has real work to do
_SCALES = {"acc": 0.3, "gyro": 0.5, "wacc": 150.0, "loc": 20.0, "aud": 8.0, "ps": 1.0}

_N_LATENT = 4


def _rng(kind: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(kind.encode(), "big") % (2**63)
    return np.random.default_rng([GENERATOR_VERSION, tag, int(seed)])


def _absent_runs(rng, n: int, share: float, mean_run: float = 12.0) -> np.ndarray:
    """Exactly ``round(share * n)`` absent minutes, in contiguous runs of
    geometric length (a watch left on the desk), at random places."""
    target = int(round(share * n))
    runs = []
    while sum(runs) < target:
        runs.append(int(rng.geometric(1.0 / mean_run)))
    if runs:
        runs[-1] -= sum(runs) - target
    cuts = np.sort(rng.integers(0, n - target + 1, size=len(runs)))
    gaps = np.diff(np.concatenate([[0], cuts]))
    out = np.zeros(n, dtype=bool)
    pos = 0
    for gap, run in zip(gaps, runs):
        pos += int(gap)
        out[pos : pos + run] = True
        pos += run
    return out


def table_corpus(spec: TableSpec, seed: int) -> dict:
    """Numeric content of a feature-table corpus.

    Returns ``{"users": [...], "timestamps": {u: int array},
    "features": {u: {sensor: (n, d) array with NaN = empty}},
    "labels": {u: (n, L) int array, 1/0/-1 = relevant/not/unreported},
    "label_names": [...], "folds": [[users], ...]}``.

    Labels are thresholds of smooth per-user latent activity; every sensor
    sees a noisy linear mix of the latents plus a per-user offset, so
    per-sensor models learn something and fusion has something to fuse.
    """
    label_names = list(spec.prevalence)
    n_labels = len(label_names)
    users = [f"user{u:02d}" for u in range(spec.n_users)]
    # how sensors see the latents is part of the workload, not of the seed,
    # so every seed poses a problem of the same difficulty
    fixed = _rng("tables-structure", 0)
    mixing = {s: fixed.normal(size=(_N_LATENT, FEATURE_DIMS[s])) for s in SENSORS}
    for s in SENSORS:
        mixing[s][:, fixed.random(FEATURE_DIMS[s]) < 0.6] *= 0.1
    label_map = fixed.normal(size=(_N_LATENT, n_labels))
    rng = _rng("tables", seed)
    thresholds = np.array([NormalDist().inv_cdf(1.0 - p) for p in spec.prevalence.values()])

    out = {"users": users, "timestamps": {}, "features": {}, "labels": {}, "label_names": label_names}
    n = spec.minutes_per_user
    for uid in users:
        base_ts = 1_440_000_000 + int(rng.integers(0, 30_000_000))
        gaps = 60 * (1 + (rng.random(n) < 0.2) * rng.integers(1, 30, size=n))
        out["timestamps"][uid] = base_ts + np.cumsum(gaps)

        latent = np.empty((n, _N_LATENT))
        state = rng.normal(size=_N_LATENT)
        for i in range(n):
            state = 0.9 * state + np.sqrt(1 - 0.81) * rng.normal(size=_N_LATENT)
            latent[i] = state
        user_bias = 0.4 * rng.normal(size=n_labels)
        score = (latent @ label_map) / np.sqrt((label_map ** 2).sum(axis=0)) + user_bias
        score += 0.35 * rng.normal(size=score.shape)
        y = (score > thresholds).astype(np.int64)
        y[rng.random(y.shape) < spec.label_unreported] = -1
        out["labels"][uid] = y

        feats = {}
        for s in SENSORS:
            d = FEATURE_DIMS[s]
            offset = 0.5 * rng.normal(size=d)
            X = latent @ mixing[s] + offset + rng.normal(size=(n, d))
            X *= _SCALES[s]
            if s == "ps":
                X = (X > 0).astype(np.float64)
            empty = rng.random((n, d)) < spec.cell_missing[s]
            empty[:, 0] = False  # a present group always has a value
            X[empty] = np.nan
            X[_absent_runs(rng, n, spec.absent[s])] = np.nan
            feats[s] = X
        out["features"][uid] = feats

    order = [users[i] for i in rng.permutation(len(users))]
    out["folds"] = [sorted(order[f::5]) for f in range(5)]
    return out


def _cell(v: float) -> str:
    return "" if v != v else f"{v:.6g}"


def write_table_inputs(spec: TableSpec, seed: int, root: Path) -> dict:
    """Write the feature tables, labels file and partition; returns the corpus."""
    corpus = table_corpus(spec, seed)
    features_dir = root / "features"
    features_dir.mkdir(parents=True)
    header = ["timestamp"]
    for s in SENSORS:
        header += FEATURE_COLUMNS[s]
    header += [f"label:{name}" for name in corpus["label_names"]]
    label_cell = {1: "1", 0: "0", -1: ""}
    for uid in corpus["users"]:
        lines = [",".join(header)]
        X = np.hstack([corpus["features"][uid][s] for s in SENSORS])
        y = corpus["labels"][uid]
        for i, ts in enumerate(corpus["timestamps"][uid]):
            cells = [str(int(ts))] + [_cell(v) for v in X[i]] + [label_cell[int(v)] for v in y[i]]
            lines.append(",".join(cells))
        (features_dir / f"{uid}.features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "labels.txt").write_text("\n".join(corpus["label_names"]) + "\n", encoding="utf-8")
    (root / "partition.txt").write_text("".join(" ".join(f) + "\n" for f in corpus["folds"]), encoding="utf-8")
    return corpus


def expected_train_linear_calls(corpus: dict) -> int:
    """``train_linear`` calls that ``evaluate --mode cv5`` must make on a corpus.

    Derived from the inputs alone: per fold, label and model, a model whose
    training labels hold one class makes no fit; fewer than 3 examples of a
    class skip the grid (1 fit); otherwise 6 grid fits plus the final fit.
    Single-sensor models train on minutes where their sensor is present, EF
    and LFL on minutes where all six are. LFL makes no fit when all six
    sensor models are constant (its inputs carry no signal).
    """
    per_grid = 7

    def fits(y):
        pos = int(y.sum())
        neg = y.shape[0] - pos
        if pos == 0 or neg == 0:
            return 0
        return 1 if pos < 3 or neg < 3 else per_grid

    present = {}
    labels = {}
    for uid in corpus["users"]:
        present[uid] = {s: ~np.isnan(corpus["features"][uid][s]).all(axis=1) for s in SENSORS}
        labels[uid] = corpus["labels"][uid] == 1

    total = 0
    for fold in corpus["folds"]:
        train = [u for u in corpus["users"] if u not in fold]
        for k in range(len(corpus["label_names"])):
            y_all = np.concatenate([labels[u][:, k] for u in train])
            mask = {s: np.concatenate([present[u][s] for u in train]) for s in SENSORS}
            single = [fits(y_all[mask[s]]) for s in SENSORS]
            complete_fits = fits(y_all[np.logical_and.reduce([mask[s] for s in SENSORS])])
            total += sum(single) + complete_fits  # six sensors and EF
            if any(single):
                total += complete_fits  # LFL
    return total


# ---------------------------------------------------------------------------
# Raw session bundles
# ---------------------------------------------------------------------------

_RAW_LABELS = ("SITTING", "WALKING", "PHONE_IN_POCKET")


def _triaxial_rows(rng, n: int, rate: float, scale: float, offset) -> str:
    t = np.arange(n) / rate + rng.uniform(0, 0.2 / rate, size=n)
    t = np.maximum.accumulate(t)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    freq = rng.uniform(0.5, 3.0)
    xyz = (
        np.asarray(offset)
        + scale * 0.5 * np.sin(2 * np.pi * freq * t[:, None] + phase)
        + scale * 0.3 * rng.normal(size=(n, 3))
    )
    return "\n".join(f"{t[i]:.4f},{xyz[i, 0]:.6f},{xyz[i, 1]:.6f},{xyz[i, 2]:.6f}" for i in range(n)) + "\n"


def write_raw_inputs(spec: RawSpec, seed: int, root: Path) -> dict:
    """Write one bundle directory per recorded minute; returns a summary."""
    rng = _rng("raw", seed)
    sessions_dir = root / "sessions"
    n_sessions = spec.n_users * spec.sessions_per_user

    def chosen(share):  # exactly round(share * n) sessions, at random
        mask = np.zeros(n_sessions, dtype=bool)
        mask[rng.permutation(n_sessions)[: int(round(share * n_sessions))]] = True
        return mask

    # exact shares and evenly spread lengths keep the work the same for every seed
    absent = {s: chosen(share) for s, share in spec.absent.items()}
    waveform = np.zeros(n_sessions, dtype=bool)
    heard = np.flatnonzero(~absent["aud"])
    waveform[rng.permutation(heard)[: int(round(spec.waveform_share * n_sessions))]] = True
    watch_lengths = np.zeros(n_sessions, dtype=np.int64)
    worn = np.flatnonzero(~absent["wacc"])
    watch_lengths[worn] = rng.permutation(np.linspace(*spec.watch_samples, num=worn.size).round())
    wave_lengths = np.zeros(n_sessions, dtype=np.int64)
    wave_lengths[waveform] = rng.permutation(
        np.linspace(*spec.waveform_samples, num=int(waveform.sum())).round())
    k = 0
    for u in range(spec.n_users):
        uid = f"user{u:02d}"
        android = u % 2 == 1
        ts = 1_440_000_000 + int(rng.integers(0, 30_000_000))
        for _ in range(spec.sessions_per_user):
            ts += 60 * int(rng.integers(1, 20))
            sdir = sessions_dir / uid / str(ts)
            sdir.mkdir(parents=True)
            labels = {
                name: ("relevant" if rng.random() < 0.3 else "not_relevant")
                for name in _RAW_LABELS
                if rng.random() < 0.9
            }
            manifest = {"user_id": uid, "timestamp": ts, "acc_unit": "m/s2" if android else "G",
                        "labels": labels}
            (sdir / "session.json").write_text(json.dumps(manifest), encoding="utf-8")
            gravity = 9.80665 if android else 1.0
            if not absent["acc"][k]:
                (sdir / "acc.csv").write_text(
                    _triaxial_rows(rng, spec.phone_samples, 40.0, 0.3 * gravity, (0, 0, -gravity)),
                    encoding="utf-8")
            if not absent["gyro"][k]:
                (sdir / "gyro.csv").write_text(
                    _triaxial_rows(rng, spec.phone_samples, 40.0, 0.8, (0, 0, 0)), encoding="utf-8")
            if not absent["wacc"][k]:
                (sdir / "wacc.csv").write_text(
                    _triaxial_rows(rng, int(watch_lengths[k]), 25.0, 300.0, (0, 0, -1000.0)),
                    encoding="utf-8")
            if not absent["loc"][k]:
                _write_location(rng, sdir)
            if not absent["aud"][k]:
                if waveform[k]:
                    n = int(wave_lengths[k])
                    t = np.arange(n) / 22050.0
                    wave = 0.3 * np.sin(2 * np.pi * rng.uniform(100, 2000) * t) + 0.1 * rng.normal(size=n)
                    (sdir / "audio.csv").write_text("\n".join(f"{v:.5f}" for v in wave) + "\n", encoding="utf-8")
                else:
                    frames = rng.normal(size=(spec.mfcc_frames, 13)) * 3.0 + np.linspace(-20, 5, 13)
                    (sdir / "mfcc.csv").write_text(
                        "\n".join(",".join(f"{v:.4f}" for v in row) for row in frames) + "\n",
                        encoding="utf-8")
            if not absent["ps"][k]:
                state = {prop: str(vals[int(rng.integers(len(vals) - 1))])
                         for prop, vals in _PHONE_STATE_VALUES.items() if rng.random() < 0.9}
                (sdir / "phone_state.json").write_text(json.dumps(state), encoding="utf-8")
            k += 1
    return {"n_sessions": n_sessions, "waveform_sessions": int(waveform.sum())}


def _write_location(rng, sdir: Path):
    n = int(rng.integers(1, 9))
    lat0, lon0 = 32.88 + rng.normal() * 0.01, -117.23 + rng.normal() * 0.01
    rows = []
    for i in range(n):
        cells = [
            f"{i * 2.5:.1f}",
            f"{lat0 + rng.normal() * 1e-4:.7f}",
            f"{lon0 + rng.normal() * 1e-4:.7f}",
            f"{100 + rng.normal() * 5:.2f}",
            f"{abs(rng.normal()) * 2:.3f}",
            f"{rng.uniform(3, 20):.2f}",
            f"{rng.uniform(5, 50):.2f}",
        ]
        for j in range(3, 7):  # altitude, speed and accuracies are often unreported
            if rng.random() < 0.2:
                cells[j] = ""
        rows.append(",".join(cells))
    (sdir / "location.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if rng.random() < 0.7:
        quick = [f"{v:.8f}" for v in np.abs(rng.normal(size=6)) * 1e-4]
        (sdir / "location_quick.csv").write_text(",".join(quick) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Cached materialization
# ---------------------------------------------------------------------------

def spec_key(spec) -> str:
    """Names the generator version and workload sizes a corpus was made with."""
    return hashlib.sha256(repr((GENERATOR_VERSION, spec)).encode()).hexdigest()[:12]


def materialize(workload: Workload, seed: int, tiny: bool, cache_root: Path) -> tuple:
    """Generate (or reuse) a workload's inputs; returns ``(root, info)``.

    Inputs are cached under ``cache_root`` by workload, size and seed and
    written through a temporary directory, so a half-written corpus is
    never reused.
    """
    spec = workload.sized(tiny)
    root = cache_root / f"{workload.name}-{seed}-{spec_key(spec)}"
    info_path = root / "info.json"
    if info_path.exists():
        return root, json.loads(info_path.read_text(encoding="utf-8"))
    tmp = cache_root / f".tmp-{root.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if workload.kind == "extract":
        info = write_raw_inputs(spec, seed, tmp)
        info["minutes"] = info["n_sessions"]
    else:
        corpus = write_table_inputs(spec, seed, tmp)
        info = {
            "minutes": spec.n_users * spec.minutes_per_user,
            "users": spec.n_users,
            "labels": corpus["label_names"],
            "expected_train_linear_calls": expected_train_linear_calls(corpus),
        }
    (tmp / "info.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)
    return root, info
