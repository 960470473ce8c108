"""Report bytes pinned: the sha256 of the CSV and the JSON report of one small
run of each experiment.

Rounding in BLAS and libm differs between builds and CPUs, so the pins hold
for one environment stamp only. On any other stamp every case skips and names
the stamp. A change that moves report bytes on purpose updates PINS (print the
current hashes with ``python tests/test_report_pins.py``) and names each old
and new hash in CHANGES.md.
"""

import hashlib
import os
import platform
import sys
import tempfile

import numpy as np
import pytest
import scipy

from ueprobe.harness import ExperimentConfig, run_experiment, write_report

TOY2D = {
    "n_per_class": 100, "resolution": 60,
    "mcdropout.epochs": 5, "mcdropout.n_passes": 10,
    "mfvi.epochs": 5, "mfvi.predict_draws": 10,
    "hmc.map_epochs": 5, "hmc.n_samples": 10, "hmc.burn_in": 10,
}
TOY2D_TINY = {  # criterion 8's config
    "n_per_class": 30, "resolution": 4,
    "mcdropout.arch": [2, 12, 2], "mcdropout.epochs": 3, "mcdropout.n_passes": 8,
    "mfvi.arch": [2, 12, 2], "mfvi.epochs": 3, "mfvi.predict_draws": 8,
    "hmc.arch": [2, 12, 2], "hmc.n_samples": 6, "hmc.burn_in": 4, "hmc.map_epochs": 5,
}
# relative names, so the options (and the JSON) do not carry the temp directory
MNIST_FILES = {
    "mnist_train_images": "train-images-idx3-ubyte", "mnist_train_labels": "train-labels-idx1-ubyte",
    "mnist_test_images": "test-images-idx3-ubyte", "mnist_test_labels": "test-labels-idx1-ubyte",
}
MNIST_DROPOUT = {"mcdropout.arch": [784, 16, 2], "mcdropout.epochs": 4, "mcdropout.n_passes": 10}
MNIST_INTERP = {
    **MNIST_FILES, **MNIST_DROPOUT, "n_pairs": 4, "t_steps": 7,
    "encoder.arch": [784, 32, 8, 2], "encoder.epochs": 4, "gp.subsample": 100,
}

CASES = {
    "toy2d": ExperimentConfig("toy2d", seed=17, options=TOY2D),
    "toy2d-tiny": ExperimentConfig("toy2d", seed=17, options=TOY2D_TINY),
    "theorem-check": ExperimentConfig("theorem-check", seed=3),
    "mnist-interp": ExperimentConfig("mnist-interp", ("gp", "mcdropout"), seed=3,
                                     options=MNIST_INTERP),
    "digit-table": ExperimentConfig("digit-table", seed=3, options={**MNIST_FILES, **MNIST_DROPOUT}),
}

STAMP = "numpy 2.4.6; scipy 1.17.1; scipy-openblas 0.3.31.188.0; x86_64 Intel(R) Xeon(R) Processor"
PINS = {
    "digit-table": ("60a85a82d53e862e2658625945ad0e870a7c7b8d3ac28e70f60c15625d6df07a",
                    "0bf7111d1047a2f420d361b727810a9f560175f7a4557caae24e6b3d457bc4df"),
    "mnist-interp": ("9c75209cc78d0d7a00f72b03ba2e37b0a0140759a3f0bd906d1accb962935c9d",
                     "2be98433a49360e55c5cb6bbe20a67bb813226d84f1d42815bf3b78f6dd481a5"),
    "theorem-check": ("81713b87df33d6b8946a23954c415630b59914612ef76df4b701ea5893a86a17",
                      "72807f37162f4fa1b78e8303a82f0ab054e96895ff6a101a7f536f14bcfa325f"),
    "toy2d": ("ecb2ba962259e731ea2d61ac6c1590505d88690b5d516ff727994b8a3fa71236",
              "3f4e3ed0d9d928332d1d384b7b1ebafcb03668582165491f65e0e2f5992e9678"),
    "toy2d-tiny": ("ade9d3371fec161ecebc5489e77bae62dcac28129e65871d6d7af5d644108699",
                   "625fe946710817ebc7bb2d2aaf2f273c11a8a848ffd8a2863a94d770f26673db"),
}


def environment_stamp() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown BLAS"
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return (f"numpy {np.__version__}; scipy {scipy.__version__}; "
            f"{blas}; {platform.machine()} {cpu}")


def report_hashes(cfg: ExperimentConfig, out_dir) -> tuple[str, str]:
    """(csv sha256, json sha256) of one run of ``cfg``."""
    report = run_experiment(cfg)
    hashes = []
    for fmt in ("csv", "json"):
        path = os.path.join(out_dir, f"report.{fmt}")
        write_report(report, path, fmt)
        with open(path, "rb") as f:
            hashes.append(hashlib.sha256(f.read()).hexdigest())
    return tuple(hashes)


@pytest.mark.skipif(environment_stamp() != STAMP,
                    reason=f"report pins hold for {STAMP!r}, not {environment_stamp()!r}")
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, synthetic_mnist, tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(synthetic_mnist["train_images"]))
    assert report_hashes(CASES[name], str(tmp_path)) == PINS[name]


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import write_synthetic_mnist

    with tempfile.TemporaryDirectory() as tmp:
        write_synthetic_mnist(tmp)
        os.chdir(tmp)
        print(f"STAMP = {environment_stamp()!r}")
        print("PINS = {")
        for name in sorted(CASES):
            print(f"    {name!r}: {report_hashes(CASES[name], tmp)!r},")
        print("}")
