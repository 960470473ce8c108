import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from idxio import write_idx_images, write_idx_labels
from ueprobe.datasets import make_toy2d
from ueprobe.numerics import RngStream

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_dir():
    candidates = [os.environ.get("UE_PROBE_MNIST_DIR")]
    candidates.append(os.path.join(os.path.dirname(os.path.dirname(__file__)), "data", "mnist"))
    for cand in candidates:
        if cand and all(os.path.exists(os.path.join(cand, f)) for f in MNIST_FILES.values()):
            return cand
    return None


@pytest.fixture(scope="session")
def mnist_paths():
    """Real MNIST IDX file paths, or skip (set UE_PROBE_MNIST_DIR to enable)."""
    base = mnist_dir()
    if base is None:
        pytest.skip(
            "real MNIST IDX files not found; place the four uncompressed files under "
            "data/mnist/ or set UE_PROBE_MNIST_DIR"
        )
    return {key: os.path.join(base, name) for key, name in MNIST_FILES.items()}


@pytest.fixture(scope="session")
def toy():
    return make_toy2d(200, seed=7)


def _draw_digit(rng: RngStream, label: int) -> np.ndarray:
    """Crude 28x28 glyphs: blobs and strokes, enough signal to separate 0 and 1."""
    img = np.zeros((28, 28))
    yy, xx = np.mgrid[0:28, 0:28]
    cx = 13.5 + float(rng.normal()) * 1.0
    cy = 13.5 + float(rng.normal()) * 1.0
    if label == 0:
        r = np.hypot(xx - cx, yy - cy)
        img[(r > 5) & (r < 9)] = 1.0
    elif label == 1:
        col = int(round(cx))
        img[4:24, max(1, col - 1) : min(27, col + 2)] = 1.0
    else:
        # other digits: label-specific frequency pattern
        img = 0.5 + 0.5 * np.sin((label + 1) * (xx + yy) / 7.0 + float(rng.normal()))
        img[img < 0.6] = 0.0
    img = img + 0.08 * np.abs(rng.normal((28, 28)))
    return (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)


def _write_synthetic_mnist(directory, n_train_per_class, n_test_per_class, classes, seed):
    rng = RngStream(seed)
    paths = {}
    for split, n_per in (("train", n_train_per_class), ("test", n_test_per_class)):
        images, labels = [], []
        for label in classes:
            for _ in range(n_per):
                images.append(_draw_digit(rng, label))
                labels.append(label)
        order = rng.permutation(len(labels))
        images = np.stack(images)[order]
        labels = np.asarray(labels, dtype=np.uint8)[order]
        img_path = os.path.join(directory, f"{split}-images-idx3-ubyte")
        lab_path = os.path.join(directory, f"{split}-labels-idx1-ubyte")
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, labels)
        paths[f"{split}_images"] = img_path
        paths[f"{split}_labels"] = lab_path
    return paths


def write_synthetic_mnist(directory):
    """Small fake MNIST (all 10 classes, 30 train and 8 test images each) in directory."""
    return _write_synthetic_mnist(str(directory), n_train_per_class=30, n_test_per_class=8,
                                  classes=range(10), seed=2024)


@pytest.fixture(scope="session")
def synthetic_mnist(tmp_path_factory):
    """Small fake MNIST (all 10 classes) exercising the full IDX pipeline."""
    return write_synthetic_mnist(tmp_path_factory.mktemp("fake_mnist"))
