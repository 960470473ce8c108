"""The benchmark's workloads: their inputs, the CLI call of one run, the
output checks every run must pass, and the invariant the traced run checks.

Every workload runs ueprobe at its default architectures and input sizes
(grid resolution of the predict workload, ``n_per_class``, ``gp.subsample``).
Only epochs, chain lengths and member counts are scaled down, so one run
takes seconds rather than the 29-42 s of the full defaults.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO

import numpy as np


# Sizes of the smoke run: every count as small as the code accepts.
TINY = {
    "toy2d": {
        "resolution": 10,
        "mcdropout.epochs": 2,
        "mcdropout.n_passes": 2,
        "mfvi.epochs": 2,
        "mfvi.predict_draws": 2,
        "hmc.burn_in": 2,
        "hmc.n_samples": 4,
        "hmc.map_epochs": 2,
    },
    "mnist-interp": {
        "n_pairs": 4,
        "t_steps": 4,
        "encoder.epochs": 1,
        "mcdropout.epochs": 3,
        "mcdropout.n_passes": 2,
    },
}

MNIST_TRAIN_PER_CLASS = 1000
MNIST_TEST_PER_CLASS = 100
MNIST_TINY_PER_CLASS = 100

CORNER_ENTROPY_MIN = 0.6  # acceptance criterion 2, far-field GP entropy
TRAIN_ACCURACY_MIN = 0.99  # acceptance criterion 5a
GP_END_ENTROPY_MIN = 0.5  # criterion 3, GP at t = -1 and t = 2
MCDROPOUT_END_ENTROPY_MAX = 0.15  # criterion 3, MC dropout at t = -1 and t = 2
MCDROPOUT_TEST_ACCURACY_MIN = 0.999  # strictly greater than


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    options: dict
    methods: str = ""
    # (layer spans whose share of wall_s is checked, minimum share)
    invariant: tuple = ()
    # optional second condition: (spans, maximum share) or spans that must not run
    bounded: tuple = ()
    forbidden: tuple = ()
    setup_options: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy2d-fit",
            why="toy2d training on a coarse grid: BNN training layers (ELBO step, leapfrog) and store writes",
            experiment="toy2d",
            options={
                "resolution": 10,
                "mfvi.epochs": 40,
                "hmc.burn_in": 100,
                "hmc.n_samples": 30,
                "hmc.map_epochs": 10,
                "mcdropout.n_passes": 10,
                "mfvi.predict_draws": 10,
            },
            invariant=(("bnn.hmc_sample", "bnn.mfvi_train"), 0.80),
            bounded=(("bnn.posterior_predict", "mcdropout.mc_average"), 0.05),
        ),
        Workload(
            name="toy2d-predict",
            why="toy2d from saved models on the 100x100 grid: ensemble prediction over 10k rows, store reads, report write",
            experiment="toy2d",
            options={
                "mfvi.epochs": 10,
                "hmc.burn_in": 10,
                "hmc.n_samples": 50,
                "hmc.map_epochs": 10,
                "mcdropout.n_passes": 40,
                "mfvi.predict_draws": 40,
            },
            invariant=(("bnn.posterior_predict", "mcdropout.mc_average"), 0.80),
            forbidden=("nnet.train", "bnn.mfvi_train", "bnn.hmc_sample"),
            setup_options={"resolution": 2},
        ),
        Workload(
            name="mnist-synth",
            why="mnist-interp on synthetic IDX digits, GP and MC dropout: 2000-point Laplace GP, 784-wide GEMMs, IDX reads",
            experiment="mnist-interp",
            methods="gp,mcdropout",
            options={
                "encoder.epochs": 2,
                "mcdropout.epochs": 2,
                "mcdropout.n_passes": 10,
            },
            invariant=(("gp.fit_hyperparams", "nnet.train"), 0.70),
        ),
    )
}


def _options(w: Workload, tiny: bool, extra: dict | None = None) -> dict:
    opt = dict(w.options)
    if tiny:
        opt.update(TINY[w.experiment])
    opt.update(extra or {})
    return opt


def _write_config(path, options: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key in sorted(options):
            value = options[key]
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            f.write(f"{key}={value}\n")


# ---------------------------------------------------------------- inputs


def _draw_digit(rng, label: int) -> np.ndarray:
    """28x28 glyph: a ring for 0, a bar for 1, a label-specific stripe
    pattern for the other digits, over weak positive noise.

    The centre jitter is clipped to 2 px: an unclipped 3-sigma bar lands where
    rings have their edge, and one such test glyph among 200 is enough to
    break MC dropout's test-accuracy check.
    """
    yy, xx = np.mgrid[0:28, 0:28]
    cx = 13.5 + float(np.clip(rng.normal(), -2.0, 2.0))
    cy = 13.5 + float(np.clip(rng.normal(), -2.0, 2.0))
    img = np.zeros((28, 28))
    if label == 0:
        r = np.hypot(xx - cx, yy - cy)
        img[(r > 5) & (r < 9)] = 1.0
    elif label == 1:
        col = int(round(cx))
        img[4:24, max(1, col - 1) : min(27, col + 2)] = 1.0
    else:
        img = 0.5 + 0.5 * np.sin((label + 1) * (xx + yy) / 7.0 + float(rng.normal()))
        img[img < 0.6] = 0.0
    img = img + 0.08 * np.abs(rng.normal((28, 28)))
    return (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)


def _write_idx(path_images, path_labels, images: np.ndarray, labels: np.ndarray) -> None:
    n, rows, cols = images.shape
    with open(path_images, "wb") as f:
        for v in (0x00000803, n, rows, cols):
            f.write(int(v).to_bytes(4, "big"))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(path_labels, "wb") as f:
        for v in (0x00000801, n):
            f.write(int(v).to_bytes(4, "big"))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_synthetic_mnist(directory, seed: int, train_per_class: int, test_per_class: int) -> dict:
    """Ten-class IDX train/test pairs drawn from the seed; returns the CLI flags."""
    from ueprobe.numerics import RngStream, derive_seed

    rng = RngStream(derive_seed(seed, "bench-synthetic-mnist"))
    flags = {}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        labels = np.repeat(np.arange(10), per_class)
        images = np.stack([_draw_digit(rng, int(label)) for label in labels])
        order = rng.permutation(len(labels))
        img_path = os.path.join(directory, f"{split}-images-idx3-ubyte")
        lab_path = os.path.join(directory, f"{split}-labels-idx1-ubyte")
        _write_idx(img_path, lab_path, images[order], labels[order].astype(np.uint8))
        prefix = "--mnist" if split == "train" else "--mnist-test"
        flags[f"{prefix}-images"] = img_path
        flags[f"{prefix}-labels"] = lab_path
    return flags


def call_cli(argv) -> int:
    """ueprobe.cli.main with its stdout line swallowed."""
    from ueprobe import cli

    with redirect_stdout(StringIO()):
        return cli.main(argv)


def prepare(name: str, seed: int, directory, tiny: bool = False) -> None:
    """Write everything a run of ``name`` reads into ``directory``.

    The config of the run, the synthetic IDX set of mnist-synth and, for
    toy2d-predict, the trained models it loads.
    """
    w = WORKLOADS[name]
    if os.path.exists(directory):
        shutil.rmtree(directory)
    os.makedirs(directory)
    _write_config(os.path.join(directory, "run.cfg"), _options(w, tiny))
    flags = {}
    if w.experiment == "mnist-interp":
        train = MNIST_TINY_PER_CLASS if tiny else MNIST_TRAIN_PER_CLASS
        test = MNIST_TINY_PER_CLASS if tiny else MNIST_TEST_PER_CLASS
        flags = write_synthetic_mnist(directory, seed, train, test)
    if name == "toy2d-predict":
        train_cfg = os.path.join(directory, "train.cfg")
        _write_config(train_cfg, _options(w, tiny, w.setup_options))
        argv = [
            w.experiment,
            "--seed", str(seed),
            "--config", train_cfg,
            "--methods", "mcdropout,mfvi,hmc",
            "--save-models", os.path.join(directory, "models"),
            "--out", os.path.join(directory, "train-report.csv"),
        ]
        rc = call_cli(argv)
        if rc != 0:
            raise RuntimeError(f"training the models of {name} failed with exit code {rc}")
        os.remove(os.path.join(directory, "train-report.csv"))
    with open(os.path.join(directory, "flags.json"), "w", encoding="utf-8") as f:
        json.dump(flags, f)


def cli_argv(name: str, seed: int, inputs, out_path, models_dir) -> list[str]:
    """The ue-probe command line of one run, reading what prepare() wrote."""
    w = WORKLOADS[name]
    argv = [
        w.experiment,
        "--seed", str(seed),
        "--config", os.path.join(inputs, "run.cfg"),
        "--format", "json",
        "--out", out_path,
    ]
    if w.methods:
        argv += ["--methods", w.methods]
    with open(os.path.join(inputs, "flags.json"), encoding="utf-8") as f:
        for flag, value in json.load(f).items():
            argv += [flag, value]
    if name == "toy2d-fit":
        argv += ["--save-models", models_dir]
    elif name == "toy2d-predict":
        argv += ["--load-models", os.path.join(inputs, "models")]
    return argv


# ---------------------------------------------------------------- checks


def _parse_xy(descriptor: str) -> tuple[float, float]:
    fields = dict(part.split("=", 1) for part in descriptor.split(";"))
    return float(fields["x"]), float(fields["y"])


def _corner_entropy(rows) -> float:
    """Mean GP entropy over the 4 grid points nearest each corner of the grid."""
    pts = np.array([_parse_xy(r["descriptor"]) for r in rows])
    ent = np.array([r["entropy_nats"] for r in rows])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    picked = []
    for cx in (lo[0], hi[0]):
        for cy in (lo[1], hi[1]):
            d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
            picked.extend(np.argsort(d2, kind="stable")[:4])
    return float(np.mean(ent[picked]))


def check_report(name: str, doc: dict) -> list[str]:
    """Failures of one report (a parsed JSON report) against the workload's checks."""
    from ueprobe.harness import ReportRow, UncertaintyReport
    from ueprobe.errors import UEProbeError

    w = WORKLOADS[name]
    failures = []
    meta = doc.get("metadata", {})
    rows = doc.get("rows", [])
    try:
        UncertaintyReport(rows=[ReportRow(**r) for r in rows], metadata=meta).validate()
    except (UEProbeError, TypeError) as exc:
        failures.append(f"validate: {exc}")
    methods = meta.get("methods", [])
    info = meta.get("method_info", {})
    if not rows:
        failures.append("report has no rows")
    if w.experiment == "toy2d":
        if "gp" in methods:
            gp_rows = [r for r in rows if r["method"] == "gp"]
            ent = _corner_entropy(gp_rows) if gp_rows else 0.0
            if not ent >= CORNER_ENTROPY_MIN:
                failures.append(f"gp corner entropy {ent:.4f} < {CORNER_ENTROPY_MIN}")
        for m in methods:
            acc = info.get(m, {}).get("train_accuracy", -1.0)
            if not acc >= TRAIN_ACCURACY_MIN:
                failures.append(f"{m} train_accuracy {acc} < {TRAIN_ACCURACY_MIN}")
    else:
        curves = meta.get("mean_entropy_per_t", {})
        for t in ("-1", "2"):
            gp = curves.get("gp", {}).get(t, -1.0)
            mc = curves.get("mcdropout", {}).get(t, 1.0)
            if not gp >= GP_END_ENTROPY_MIN:
                failures.append(f"gp mean entropy at t={t} is {gp} < {GP_END_ENTROPY_MIN}")
            if not mc <= MCDROPOUT_END_ENTROPY_MAX:
                failures.append(
                    f"mcdropout mean entropy at t={t} is {mc} > {MCDROPOUT_END_ENTROPY_MAX}"
                )
        acc = info.get("mcdropout", {}).get("test_accuracy", -1.0)
        if not acc > MCDROPOUT_TEST_ACCURACY_MIN:
            failures.append(f"mcdropout test_accuracy {acc} <= {MCDROPOUT_TEST_ACCURACY_MIN}")
    return failures


def check_invariant(name: str, spans, wall_s: float) -> tuple[float, bool, str]:
    """(share, holds, text) of the workload's invariant on one traced run."""
    w = WORKLOADS[name]
    names, minimum = w.invariant
    share = spans.covered_s(*names) / wall_s
    holds = share >= minimum
    parts = [f"{' + '.join(names)} = {share:.1%} of wall_s (>= {minimum:.0%})"]
    if w.bounded:
        bounded, maximum = w.bounded
        other = spans.covered_s(*bounded) / wall_s
        holds = holds and other < maximum
        parts.append(f"{' + '.join(bounded)} = {other:.1%} (< {maximum:.0%})")
    if w.forbidden:
        calls = spans.count(*w.forbidden)
        holds = holds and calls == 0
        parts.append(f"calls to {', '.join(w.forbidden)} = {calls} (== 0)")
    return share, holds, "; ".join(parts)


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def ensure_src_on_path(root) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ueprobe", "cli.py")):
        raise FileNotFoundError(f"ueprobe sources not found under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
