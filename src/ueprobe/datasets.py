"""Toy data generation, IDX-format MNIST ingestion, and interpolation probes."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyResult, FormatError
from .numerics import RngStream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

TOY_MEAN_CLASS0 = (-2.0, -2.0)
TOY_MEAN_CLASS1 = (2.0, 2.0)
TOY_VARIANCE = 0.1  # per coordinate, isotropic


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors with a provenance tag (toy2d | mnist01 | probe)."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    source: str

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise DimensionMismatch(f"features must be a nonempty (n, d) array, got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DimensionMismatch(
                f"labels shape {labels.shape} != ({features.shape[0]},)"
            )
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite entries")
        if np.any(labels < 0):
            raise ValueError("labels must be nonnegative class ids")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)


def make_toy2d(n_per_class: int, seed: int) -> Dataset:
    """Two isotropic Gaussian blobs: class 0 about (-2,-2), class 1 about (2,2).

    Per-coordinate variance is 0.1; deterministic in the seed.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = RngStream(seed)
    std = np.sqrt(TOY_VARIANCE)
    x0 = np.asarray(TOY_MEAN_CLASS0) + std * rng.normal((n_per_class, 2))
    x1 = np.asarray(TOY_MEAN_CLASS1) + std * rng.normal((n_per_class, 2))
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return Dataset(features, labels, source="toy2d")


def grid2d(xmin: float, xmax: float, ymin: float, ymax: float, resolution: int) -> np.ndarray:
    """Row-major evaluation grid: resolution^2 points, x varying fastest, corners exact."""
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("need xmax > xmin and ymax > ymin")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    return np.column_stack([np.tile(xs, resolution), np.repeat(ys, resolution)])


def _read_exact(f, count: int, what: str) -> bytes:
    """Read ``count`` bytes, checked against the bytes left in the file before
    reading, so an untrusted header field never sizes an allocation."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    data = f.read(count) if 0 <= count <= left else b""
    if len(data) != count:
        raise FormatError(f"truncated {what}: wanted {count} bytes, {left} left")
    return data


def _read_u32(f, what: str) -> int:
    return int.from_bytes(_read_exact(f, 4, what), "big")


def load_idx(images_path, labels_path) -> Dataset:
    """Load a big-endian IDX image/label pair.

    Pixels are scaled to [0, 1] by division by 255 and each image is flattened
    to a row vector. Raises FormatError on bad magic numbers, count mismatch,
    or truncated payloads; unreadable files raise OSError.
    """
    with open(images_path, "rb") as f:
        magic = _read_u32(f, "image header")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        n = _read_u32(f, "image header")
        rows = _read_u32(f, "image header")
        cols = _read_u32(f, "image header")
        payload = _read_exact(f, n * rows * cols, "image payload")
    with open(labels_path, "rb") as f:
        magic = _read_u32(f, "label header")
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        n_labels = _read_u32(f, "label header")
        label_payload = _read_exact(f, n_labels, "label payload")
    if n != n_labels:
        raise FormatError(f"image count {n} != label count {n_labels}")
    if n == 0:
        raise FormatError("IDX pair contains no items")
    features = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    features = features.reshape(n, rows * cols) / 255.0
    labels = np.frombuffer(label_payload, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels, source="mnist01")


def filter_classes(d: Dataset, keep) -> Dataset:
    """Keep only samples whose label is in ``keep``; remap labels to 0, 1, ...

    The lowest kept label maps to 0, the next to 1, and so on; sample order is
    preserved. Raises EmptyResult when nothing matches.
    """
    keep = sorted(int(k) for k in keep)
    if not keep:
        raise ValueError("keep must be a nonempty class set")
    mask = np.isin(d.labels, keep)
    if not np.any(mask):
        raise EmptyResult(f"no samples with labels in {keep}")
    remap = {label: i for i, label in enumerate(keep)}
    labels = np.array([remap[int(label)] for label in d.labels[mask]], dtype=np.int64)
    return Dataset(d.features[mask], labels, source=d.source)


def probe_sweep(d: Dataset, n_pairs: int, t_grid, seed: int) -> list[tuple[int, float, np.ndarray]]:
    """Random class-0/class-1 pairs, each swept across t_grid.

    Each pair draws one sample uniformly from each class; pairs are independent
    and the whole sweep is deterministic in the seed. Returns a list of
    (pair_id, t, t * x1 + (1 - t) * x0) with len == n_pairs * len(t_grid); the
    vectors are not clipped to [0, 1], so t outside [0, 1] extrapolates.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    t_grid = [float(t) for t in t_grid]
    if any(not (-1.0 <= t <= 2.0) for t in t_grid):
        raise ValueError("t_grid must lie within [-1, 2]")
    idx0 = np.flatnonzero(d.labels == 0)
    idx1 = np.flatnonzero(d.labels == 1)
    if idx0.size == 0 or idx1.size == 0:
        raise EmptyResult("probe_sweep needs samples of both classes 0 and 1")
    rng = RngStream(seed)
    t = np.asarray(t_grid)[:, None]
    out = []
    for pair_id in range(n_pairs):
        x0 = d.features[idx0[int(rng.integers(idx0.size))]]
        x1 = d.features[idx1[int(rng.integers(idx1.size))]]
        sweep = t * x1 + (1.0 - t) * x0
        out += [(pair_id, tj, vec) for tj, vec in zip(t_grid, sweep)]
    return out
