"""Experiment harness: trains the requested methods, sweeps probe inputs,
and serializes deterministic uncertainty reports.

Every experiment is a pure function of (seed, options): training, probe
generation, and evaluation all draw from seeds derived via purpose tags, so a
rerun with the same config is byte-identical. Report rows always carry the
class-1 probability and its entropy in nats; aggregate curves live in the
report metadata so each row stays internally consistent.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import store
from .bnn import HMCConfig, MFVIConfig, hmc_sample, mfvi_train, posterior_predict, sample_posterior
from .datasets import Dataset, filter_classes, grid2d, load_idx, make_toy2d, probe_sweep
from .errors import CheckFailure, NumericalError
from .gp import (
    LINKS,
    KernelParams,
    default_length_scale_grid,
    fit_hyperparams,
    kernel_matrix,
    laplace_fit,
    predict_proba_many,
    training_accuracy,
)
from .mcdropout import MCDropoutConfig, mc_average
from .nnet import TrainConfig, accuracy, encode, mlp_init, train
from .numerics import LN2, RngStream, binary_entropy, derive_seed

log = logging.getLogger(__name__)

METHODS = ("gp", "mcdropout", "mfvi", "hmc")


@dataclass(frozen=True)
class ReportRow:
    probe_id: str
    method: str
    descriptor: str
    p_class1: float
    entropy_nats: float


@dataclass
class UncertaintyReport:
    rows: list[ReportRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        seen = set()
        for row in self.rows:
            key = (row.probe_id, row.method)
            if key in seen:
                raise NumericalError(f"duplicate report row {key}")
            seen.add(key)
            if not 0.0 <= row.p_class1 <= 1.0:
                raise NumericalError(f"p_class1 {row.p_class1} outside [0, 1] in {key}")
            if not -1e-12 <= row.entropy_nats <= LN2 + 1e-9:
                raise NumericalError(f"entropy {row.entropy_nats} outside [0, ln 2] in {key}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; ``methods=None`` means every method the experiment accepts.

    ``options`` holds the keys that differ from ``default_options``; each value
    is replaced by its canonical form, read by the type its option block declares.
    """

    experiment: str
    methods: tuple[str, ...] | None = None
    seed: int = 0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}, expected one of {EXPERIMENTS}")
        accepted = _EXPERIMENTS[self.experiment][1]
        methods = accepted if self.methods is None else tuple(self.methods)
        if not methods:
            raise ValueError("methods must be nonempty")
        for m in methods:
            if m not in accepted:
                raise ValueError(f"method {m!r} does not apply to {self.experiment}, "
                                 f"expected subset of {accepted}")
        # canonical order regardless of how the caller listed them
        object.__setattr__(self, "methods", tuple(m for m in accepted if m in methods))
        declared, options = _OPTIONS[self.experiment], {}
        for key, value in self.options.items():
            if key not in declared:
                raise ValueError(f"unknown option {key!r} for experiment {self.experiment}")
            try:
                options[key] = declared[key][1](value)
            except ValueError as exc:
                raise ValueError(f"option {key}: {exc}") from None
        object.__setattr__(self, "options", options)


# Option types: each turns a Python value, or the text of a config file, into
# the option's canonical value, and raises ValueError on anything else.


def _number(value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _integer(value) -> int:
    if not _number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(_number(value))


def _at_least(minimum: int):
    """The integer type, refusing values below ``minimum``."""
    def parse(value) -> int:
        number = _integer(value)
        if number < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
        return number

    return parse


def _link(value) -> str:
    if value not in LINKS:
        raise ValueError(f"expected one of {LINKS}, got {value!r}")
    return value


def _scale(value):
    if value != "median" and _number(value) <= 0:
        raise ValueError(f"expected 'median' or a positive number, got {value!r}")
    return value if value == "median" else _number(value)


def _numbers(value, item=_number) -> list:
    """A list, a comma-separated string or a single value, item by item."""
    if isinstance(value, str):
        value = value.split(",")
    return [item(v) for v in (value if isinstance(value, (list, tuple)) else [value])]


def _arch(value) -> list[int]:
    sizes = _numbers(value, _integer)
    if len(sizes) < 2 or min(sizes) < 1 or sizes[-1] != 2:
        raise ValueError(f"expected positive layer sizes ending in 2 classes, got {value!r}")
    return sizes


# Option blocks: each declares its keys once, as name=(default, type). A block's
# arguments are the defaults that differ between the toy and MNIST experiments.


def _block(prefix: str, **declared) -> dict:
    return {prefix + name: spec for name, spec in declared.items()}


def _gp(grid_scale=1.0):
    return _block("gp.", link=("probit", _link), signal_variance=(1.0, _number),
                  grid_scale=(grid_scale, _scale))


def _mcdropout(arch=(2, 300, 2), dropout=0.5, epochs=50):
    return _block("mcdropout.", arch=(arch, _arch), dropout=(dropout, _number),
                  epochs=(epochs, _integer), learning_rate=(1e-3, _number),
                  batch_size=(64, _integer), n_passes=(100, _integer))


def _mfvi(arch=(2, 512, 128, 2), epochs=150):
    return _block("mfvi.", arch=(arch, _arch), kl_weight=(0.1, _number),
                  prior_precision=(1.0, _number), epochs=(epochs, _integer),
                  learning_rate=(1e-3, _number), batch_size=(64, _integer),
                  predict_draws=(100, _integer))


def _hmc(arch=(2, 512, 128, 2), n_samples=300, burn_in=200, map_epochs=50):
    return _block("hmc.", arch=(arch, _arch), prior_precision=(5.0, _number),
                  step_size=(5e-4, _number), trajectory_length=(3, _integer),
                  n_samples=(n_samples, _integer), burn_in=(burn_in, _integer),
                  map_epochs=(map_epochs, _integer))


_MODEL_DIRS = _block("", save_models=("", str), load_models=("", str))
_MNIST_FILES = _block("mnist_", train_images=("", str), train_labels=("", str),
                      test_images=("", str), test_labels=("", str))
_MNIST_MCDROPOUT = _mcdropout(arch=(784, 500, 2), dropout=0.6, epochs=20)
_N_PER_CLASS = _block("", n_per_class=(200, _integer))
_RAY = (4.0, 5.0, 6.0, 8.0, 10.0, 11.0, 12.0, 14.0, 16.0, 20.0, 25.0, 30.0)

_OPTIONS = {
    "toy2d": {
        **_MODEL_DIRS, **_N_PER_CLASS, **_gp(), **_mcdropout(), **_mfvi(), **_hmc(),
        **_block("", grid_min=(-6.0, _number), grid_max=(6.0, _number), resolution=(100, _integer)),
    },
    "mnist-interp": {
        **_MODEL_DIRS, **_MNIST_FILES, **_MNIST_MCDROPOUT,
        **_block("", n_pairs=(100, _integer), t_steps=(31, _at_least(2))),
        **_block("encoder.", arch=((784, 600, 20, 2), _arch), dropout=(0.6, _number),
                 epochs=(20, _integer), learning_rate=(1e-3, _number), batch_size=(64, _integer)),
        **_gp(grid_scale="median"), **_block("gp.", subsample=(2000, _at_least(1))),
        **_mfvi(arch=(784, 1024, 128, 2), epochs=15),
        **_hmc(arch=(784, 1024, 128, 2), n_samples=60, burn_in=50, map_epochs=5),
    },
    "digit-table": {**_MODEL_DIRS, **_MNIST_FILES, **_MNIST_MCDROPOUT},
    "theorem-check": {
        **_N_PER_CLASS,
        **_block("", length_scale=(1.0, _number), signal_variance=(1.0, _number),
                 link=("probit", _link), ray_distances=(_RAY, _numbers)),
    },
}


def default_options(experiment: str) -> dict:
    """Per-experiment defaults; any key can be overridden via config file or CLI."""
    if experiment not in _OPTIONS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return {key: parse(default) for key, (default, parse) in _OPTIONS[experiment].items()}


def merged_options(cfg: ExperimentConfig) -> dict:
    return {**default_options(cfg.experiment), **cfg.options}


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable hash of the fully merged configuration."""
    opt = merged_options(cfg)
    lines = [f"experiment={cfg.experiment}", f"seed={cfg.seed}", f"methods={','.join(cfg.methods)}"]
    lines += [f"{k}={opt[k]}" for k in sorted(opt)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class _ModelStore:
    """Load-or-train helper tracking content hashes of every model file touched."""

    def __init__(self, save_dir, load_dir):
        self.save_dir = save_dir or None
        self.load_dir = load_dir or None
        self.hashes: dict[str, str] = {}

    def obtain(self, name, loader, saver, trainer):
        if self.load_dir:
            path = os.path.join(self.load_dir, f"{name}.uep")
            if os.path.exists(path):
                model = loader(path)
                self.hashes[name] = _file_sha256(path)
                log.info("loaded %s from %s", name, path)
                return model
        model = trainer()
        if self.save_dir:
            os.makedirs(self.save_dir, exist_ok=True)
            path = os.path.join(self.save_dir, f"{name}.uep")
            saver(path, model)
            self.hashes[name] = _file_sha256(path)
            log.info("saved %s to %s", name, path)
        return model


def _base_metadata(cfg: ExperimentConfig, opt: dict) -> dict:
    return {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "methods": list(cfg.methods),
        "config_digest": config_digest(cfg),
        "entropy_units": "nats",
        "options": {k: opt[k] for k in sorted(opt)},
        "model_hashes": {},
    }


def _train_config(opt: dict, prefix: str, seed: int) -> TrainConfig:
    return TrainConfig(learning_rate=opt[f"{prefix}.learning_rate"],
                       batch_size=opt[f"{prefix}.batch_size"], epochs=opt[f"{prefix}.epochs"],
                       dropout_rate=opt.get(f"{prefix}.dropout", 0.0),
                       seed=derive_seed(seed, f"{prefix}-train"))


def _length_scale_grid(opt: dict, features=None):
    """(scale, KernelParams grid); a "median" scale is the median pairwise
    distance of ``features``, or 1 while they are not known."""
    scale = opt["gp.grid_scale"]
    if scale == "median":
        # anchor the length-scale search at the data's own distance scale
        scale = 1.0 if features is None else _median_pairwise_distance(features)
    return scale, default_length_scale_grid(scale, opt["gp.signal_variance"])


# Method builders: each takes (seed, options) and builds the method's typed
# configs, whose checks refuse bad values before anything trains. It returns
# fit(training data, model store) -> (batched class-1 predictor, method info,
# deterministic network or None).


def _build_gp_toy(seed: int, opt: dict):
    _length_scale_grid(opt)  # its KernelParams checks, before any training

    def fit(d: Dataset, models: _ModelStore):
        params, state = fit_hyperparams(d, _length_scale_grid(opt, d.features)[1], link=opt["gp.link"])
        info = {"length_scale": params.length_scale, "log_marginal": state.log_marginal,
                "train_accuracy": training_accuracy(state)}
        return (lambda pts: predict_proba_many(state, pts)[:, 1]), info, None

    return fit


def _build_mcdropout(seed: int, opt: dict):
    arch, tc = opt["mcdropout.arch"], _train_config(opt, "mcdropout", seed)
    mc_cfg = MCDropoutConfig(opt["mcdropout.n_passes"], opt["mcdropout.dropout"],
                             seed=derive_seed(seed, "mcdropout-eval"))

    def fit(d: Dataset, models: _ModelStore):
        params = models.obtain("mcdropout", store.load_mlp, store.save_mlp, lambda: train(
            mlp_init(arch, seed=derive_seed(seed, "mcdropout-init")), d, tc))
        info = {"train_accuracy": accuracy(params, d.features, d.labels)}
        return (lambda pts: mc_average(params, pts, mc_cfg)[:, 1]), info, params

    return fit


def _build_mfvi(seed: int, opt: dict):
    arch, tc = opt["mfvi.arch"], _train_config(opt, "mfvi", seed)
    cfg = MFVIConfig(opt["mfvi.kl_weight"], opt["mfvi.prior_precision"], opt["mfvi.predict_draws"])

    def fit(d: Dataset, models: _ModelStore):
        posterior = models.obtain("mfvi", store.load_mfvi, store.save_mfvi, lambda: mfvi_train(
            arch, d, epochs=tc.epochs, kl_weight=cfg.kl_weight,
            prior_precision=cfg.prior_precision, seed=derive_seed(seed, "mfvi"),
            learning_rate=tc.learning_rate, batch_size=tc.batch_size))
        draws = sample_posterior(
            posterior, cfg.predict_draws, RngStream(derive_seed(seed, "mfvi-eval"))
        )
        mean_net = posterior.mean_params()
        info = {"train_accuracy": accuracy(mean_net, d.features, d.labels)}
        return (lambda pts: posterior_predict(draws, pts, arch)[:, 1]), info, mean_net

    return fit


def _build_hmc(seed: int, opt: dict):
    arch, map_epochs = opt["hmc.arch"], opt["hmc.map_epochs"]
    cfg = HMCConfig(step_size=opt["hmc.step_size"], trajectory_length=opt["hmc.trajectory_length"],
                    n_samples=opt["hmc.n_samples"], burn_in=opt["hmc.burn_in"],
                    prior_precision=opt["hmc.prior_precision"], seed=derive_seed(seed, "hmc"))
    TrainConfig(epochs=map_epochs)  # the MAP start's training, checked now

    def fit(d: Dataset, models: _ModelStore):
        chain = models.obtain("hmc", store.load_chain, store.save_chain,
                              lambda: hmc_sample(d, arch, cfg, map_epochs=map_epochs))
        train_probs = posterior_predict(chain.samples, d.features, arch)
        info = {
            "accept_rate": chain.accept_rate,
            "train_accuracy": float(np.mean(np.argmax(train_probs, axis=1) == d.labels)),
        }
        return (lambda pts: posterior_predict(chain.samples, pts, arch)[:, 1]), info, None

    return fit


_TOY_BUILDERS = {"gp": _build_gp_toy, "mcdropout": _build_mcdropout, "mfvi": _build_mfvi,
                 "hmc": _build_hmc}


def _prepare(cfg: ExperimentConfig, opt: dict, builders: dict) -> dict:
    """Every requested method's fit, built before any method trains. When a
    config check refuses a value, each changed option is tried alone on top of
    the defaults, so the error names the key it refused."""
    def build(options):
        return {m: builders[m](cfg.seed, options) for m in cfg.methods}

    try:
        return build(opt)
    except ValueError:
        for key in sorted(cfg.options):
            try:
                build({**default_options(cfg.experiment), key: opt[key]})
            except ValueError as exc:
                raise ValueError(f"option {key}={opt[key]!r}: {exc}") from None
        raise


def _sweep(cfg: ExperimentConfig, opt: dict, builders: dict, train_data: Dataset,
           points: np.ndarray, probes, test=None):
    """Build every requested method on ``train_data`` and evaluate it at each
    row of ``points``; ``probes`` holds one (probe_id, descriptor) per row.

    With a test set, each method that has a deterministic network also records
    its test accuracy. Returns the validated report (rows method by method, in
    canonical order) and each method's entropy per row.
    """
    fits = _prepare(cfg, opt, builders)
    models = _ModelStore(opt.get("save_models"), opt.get("load_models"))
    predictors: dict = {}
    method_info: dict = {}
    for method in cfg.methods:
        log.info("%s: preparing %s", cfg.experiment, method)
        predictors[method], method_info[method], net = fits[method](train_data, models)
        if test is not None and net is not None:
            method_info[method]["test_accuracy"] = accuracy(net, test.features, test.labels)
    report = UncertaintyReport(metadata=_base_metadata(cfg, opt))
    report.metadata["method_info"] = method_info
    report.metadata["model_hashes"] = models.hashes
    entropy = {}
    for method in cfg.methods:
        p1 = np.asarray(predictors[method](points), dtype=np.float64)
        entropy[method] = binary_entropy(p1)
        report.rows += [
            ReportRow(probe_id, method, descriptor, float(p), float(h))
            for (probe_id, descriptor), p, h in zip(probes, p1, entropy[method])
        ]
    report.validate()
    return report, entropy


def run_toy2d(cfg: ExperimentConfig) -> UncertaintyReport:
    """Train each requested method on the 2D toy data and sweep the eval grid."""
    opt = merged_options(cfg)
    d = make_toy2d(opt["n_per_class"], cfg.seed)
    lo, hi = opt["grid_min"], opt["grid_max"]
    points = grid2d(lo, hi, lo, hi, opt["resolution"])
    probes = [(f"grid_{i:05d}", f"x={x:.9g};y={y:.9g}") for i, (x, y) in enumerate(points)]
    return _sweep(cfg, opt, _TOY_BUILDERS, d, points, probes)[0]


def _load_mnist_pair(opt: dict, split: str) -> Dataset:
    images = opt[f"mnist_{split}_images"]
    labels = opt[f"mnist_{split}_labels"]
    if not images or not labels:
        raise ValueError(f"missing MNIST {split} file paths in options")
    return load_idx(images, labels)


def _subsample(d: Dataset, n: int, seed: int) -> Dataset:
    if n >= d.n_samples:
        return d
    keep = np.sort(RngStream(seed).permutation(d.n_samples)[:n])
    return Dataset(d.features[keep], d.labels[keep], source=d.source)


def _median_pairwise_distance(x: np.ndarray, cap: int = 512) -> float:
    x = x[:cap]
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    upper = d2[np.triu_indices(len(x), k=1)]
    med = float(np.sqrt(np.clip(np.median(upper), 0.0, None)))
    return med if med > 0 else 1.0


def _build_gp_mnist(seed: int, opt: dict):
    arch, tc = opt["encoder.arch"], _train_config(opt, "encoder", seed)
    _length_scale_grid(opt)  # its KernelParams checks, before any training

    def fit(train01: Dataset, models: _ModelStore):
        encoder = models.obtain("gp_encoder", store.load_mlp, store.save_mlp, lambda: train(
            mlp_init(arch, seed=derive_seed(seed, "encoder-init")), train01, tc))
        fit_data = _subsample(train01, opt["gp.subsample"], derive_seed(seed, "gp-subsample"))
        embeddings = encode(encoder, fit_data.features, 2)
        enc_dataset = Dataset(embeddings, fit_data.labels, source=fit_data.source)
        scale, grid = _length_scale_grid(opt, embeddings)
        params, state = fit_hyperparams(enc_dataset, grid, link=opt["gp.link"])
        info = {
            "length_scale": params.length_scale,
            "grid_scale": scale,
            "log_marginal": state.log_marginal,
            "train_accuracy": training_accuracy(state),
            "encoder_train_accuracy": accuracy(encoder, train01.features, train01.labels),
        }

        def predict(points):
            return predict_proba_many(state, encode(encoder, points, 2))[:, 1]

        return predict, info, None

    return fit


_MNIST_BUILDERS = {**_TOY_BUILDERS, "gp": _build_gp_mnist}


def run_mnist_interp(cfg: ExperimentConfig) -> UncertaintyReport:
    """Interpolation sweep: random 0/1 test pairs probed along t in [-1, 2]."""
    opt = merged_options(cfg)
    train01 = filter_classes(_load_mnist_pair(opt, "train"), {0, 1})
    test01 = filter_classes(_load_mnist_pair(opt, "test"), {0, 1})
    t_grid = np.linspace(-1.0, 2.0, opt["t_steps"])
    n_t = len(t_grid)
    sweep = probe_sweep(test01, opt["n_pairs"], t_grid, derive_seed(cfg.seed, "probes"))
    points = np.stack([vec for _, _, vec in sweep])
    probes = [
        (f"pair{pair_id:03d}_t{j % n_t:02d}", f"pair={pair_id};t={t:.9g}")
        for j, (pair_id, t, _) in enumerate(sweep)
    ]
    report, entropy = _sweep(cfg, opt, _MNIST_BUILDERS, train01, points, probes, test=test01)
    report.metadata["mean_entropy_per_t"] = {
        method: {f"{t:.9g}": float(v) for t, v in zip(t_grid, ent.reshape(-1, n_t).mean(axis=0))}
        for method, ent in entropy.items()
    }
    report.metadata["t_grid"] = [float(t) for t in t_grid]
    return report


def run_digit_table(cfg: ExperimentConfig) -> UncertaintyReport:
    """Per-digit mean MCDropout entropy over the full test set (0/1 training)."""
    opt = merged_options(cfg)
    train01 = filter_classes(_load_mnist_pair(opt, "train"), {0, 1})
    test_full = _load_mnist_pair(opt, "test")
    labels = test_full.labels
    probes = [(f"digit{int(c)}_{i:05d}", f"class={int(c)}") for i, c in enumerate(labels)]
    report, entropy = _sweep(cfg, opt, _MNIST_BUILDERS, train01, test_full.features, probes)
    ent = entropy["mcdropout"]
    report.metadata["per_digit_mean_entropy"] = {
        str(c): float(np.mean(ent[labels == c])) for c in test_full.classes
    }
    return report


def run_theorem_check(cfg: ExperimentConfig) -> UncertaintyReport:
    """Numerically verify that |pi* - 1/2| collapses with the kernel similarity.

    Probes march along the (1,1) ray away from the toy training data; each
    probe records its sup-norm kernel similarity and the deviation from 1/2.
    Violations raise CheckFailure with the offending values (the built report
    rides along on the exception).
    """
    opt = merged_options(cfg)
    d = make_toy2d(opt["n_per_class"], cfg.seed)
    params = KernelParams(opt["length_scale"], opt["signal_variance"])
    state = laplace_fit(d, params, link=opt["link"])
    n = d.n_samples
    bound_c = float(np.max(np.abs(state.grad))) + 1.0

    unit = np.array([1.0, 1.0]) / np.sqrt(2.0)
    probes = [(f"ray_{r:05.1f}", r * unit) for r in opt["ray_distances"]]
    # a class-1 training point near its mode, for the in-distribution contrast
    idx1 = np.flatnonzero(d.labels == 1)
    center = np.array([2.0, 2.0])
    train_pt = d.features[idx1[np.argmin(np.sum((d.features[idx1] - center) ** 2, axis=1))]]
    probes.append(("train_point", train_pt))

    rows = []
    records = []
    for probe_id, x in probes:
        k_star = kernel_matrix(state.X, x[None, :], params)[:, 0]
        p1 = float(predict_proba_many(state, x[None, :])[0, 1])
        records.append(
            {
                "probe_id": probe_id,
                "x": [float(x[0]), float(x[1])],
                "kstar_inf": float(np.max(np.abs(k_star))),
                "min_train_distance": float(np.min(np.linalg.norm(state.X - x, axis=1))),
                "deviation": abs(p1 - 0.5),
                "p_class1": p1,
            }
        )
        rows.append(ReportRow(probe_id, "gp", f"x={x[0]:.9g};y={x[1]:.9g}", p1,
                              float(binary_entropy(p1))))

    report = UncertaintyReport(rows=rows, metadata=_base_metadata(cfg, opt))
    report.metadata["theorem"] = {
        "bound_constant": bound_c,
        "n_train": n,
        "probes": records,
    }
    report.validate()

    ray = [r for r in records if r["probe_id"].startswith("ray_")]
    failures = []
    for eps in (1e-6, 1e-8, 1e-10):
        for r in ray:
            if r["kstar_inf"] < eps and r["deviation"] >= bound_c * eps * n:
                failures.append(("bound", eps, r["probe_id"], r["deviation"]))
    for r in ray:
        if r["kstar_inf"] < 1e-8:
            if r["deviation"] >= 1e-6:
                failures.append(("half", r["probe_id"], r["deviation"]))
            ent = binary_entropy(r["p_class1"])
            if abs(ent - LN2) >= 1e-6:
                failures.append(("entropy", r["probe_id"], float(ent)))
    deviations = [r["deviation"] for r in ray]
    for a, b in zip(deviations, deviations[1:]):
        if b > a + 1e-12:
            failures.append(("monotone", a, b))
    far = [r for r in ray if r["min_train_distance"] >= 10.0 * params.length_scale]
    if not far:
        failures.append(("coverage", "no probe at distance >= 10 length scales"))
    elif far[0]["deviation"] >= 1e-6:
        failures.append(("far_field", far[0]["probe_id"], far[0]["deviation"]))
    train_rec = records[-1]
    if train_rec["p_class1"] < 0.7:
        failures.append(("train_point", train_rec["p_class1"]))

    report.metadata["theorem"]["violations"] = [list(map(str, f)) for f in failures]
    if failures:
        raise CheckFailure(
            f"theorem check failed: {failures[0]}", detail=failures, report=report
        )
    return report


# experiment -> (runner, the methods it accepts, which are also its default)
_EXPERIMENTS = {
    "toy2d": (run_toy2d, METHODS),
    "mnist-interp": (run_mnist_interp, METHODS),
    "digit-table": (run_digit_table, ("mcdropout",)),
    "theorem-check": (run_theorem_check, ("gp",)),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> UncertaintyReport:
    return _EXPERIMENTS[cfg.experiment][0](cfg)


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _quantize(value):
    """Round floats to 9 significant digits so JSON output is reproducible."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _quantize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_quantize(v) for v in value]
    return value


def write_report(report: UncertaintyReport, path, fmt: str = "csv") -> None:
    """Serialize a report; identical reports produce byte-identical files."""
    report.validate()
    if fmt == "csv":
        lines = ["probe_id,method,descriptor,p_class1,entropy_nats"]
        for row in report.rows:
            for text in (row.probe_id, row.method, row.descriptor):
                if "," in text or '"' in text or "\n" in text:
                    raise ValueError(f"CSV field needs quoting, refusing: {text!r}")
            lines.append(
                f"{row.probe_id},{row.method},{row.descriptor},"
                f"{_fmt(row.p_class1)},{_fmt(row.entropy_nats)}"
            )
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "metadata": _quantize(report.metadata),
            "rows": [
                {
                    "probe_id": row.probe_id,
                    "method": row.method,
                    "descriptor": row.descriptor,
                    "p_class1": _quantize(row.p_class1),
                    "entropy_nats": _quantize(row.entropy_nats),
                }
                for row in report.rows
            ],
        }
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    with store.atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(payload)
