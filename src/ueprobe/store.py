"""Versioned binary container for trained models, posteriors, and chains.

Layout (little-endian throughout):

    magic   4 bytes  b"UEP1"
    kind    u8 length + ascii tag ("mlp" | "mfvi" | "hmc-chain")
    ints    u32 count, then i64 values (layer sizes and similar metadata)
    arrays  u32 count, then per array: u32 ndim, u64 dims, float64 payload

FormatError is raised on bad magic, unknown kind, truncation, or a header
that sizes more data than the file holds. Writes go to a temporary file beside
the target that replaces it only once complete.
"""

from __future__ import annotations

import math
import os
import secrets
from contextlib import contextmanager

import numpy as np

from .datasets import _read_exact
from .errors import FormatError

MAGIC = b"UEP1"

_KINDS = ("mlp", "mfvi", "hmc-chain")


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file in ``path``'s directory that replaces ``path`` on
    success; on an exception it is removed and ``path`` is left untouched.

    No fsync: this guards against interrupted writes, not power loss.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        # exclusive create with the umask's permissions (mkstemp would force 0600)
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_blob(path, kind: str, ints, arrays) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    with atomic_open(path) as f:
        f.write(MAGIC)
        tag = kind.encode("ascii")
        f.write(bytes([len(tag)]))
        f.write(tag)
        ints = [int(v) for v in ints]
        f.write(np.uint32(len(ints)).tobytes())
        f.write(np.asarray(ints, dtype="<i8").tobytes())
        arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
        f.write(np.uint32(len(arrays)).tobytes())
        for a in arrays:
            f.write(np.uint32(a.ndim).tobytes())
            f.write(np.asarray(a.shape, dtype="<u8").tobytes())
            f.write(a.astype("<f8").tobytes())


def load_blob(path) -> tuple[str, list[int], list[np.ndarray]]:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise FormatError(f"bad magic in {path}")
        tag_len = _read_exact(f, 1, "kind")[0]
        kind = _read_exact(f, tag_len, "kind").decode("ascii", "replace")
        if kind not in _KINDS:
            raise FormatError(f"unknown kind {kind!r} in {path}")
        n_ints = int(np.frombuffer(_read_exact(f, 4, "int count"), "<u4")[0])
        ints = np.frombuffer(_read_exact(f, 8 * n_ints, "ints"), "<i8").tolist()
        n_arrays = int(np.frombuffer(_read_exact(f, 4, "array count"), "<u4")[0])
        arrays = []
        for i in range(n_arrays):
            ndim = int(np.frombuffer(_read_exact(f, 4, f"array {i} ndim"), "<u4")[0])
            shape = tuple(
                int(v) for v in np.frombuffer(_read_exact(f, 8 * ndim, f"array {i} shape"), "<u8")
            )
            count = math.prod(shape)
            data = np.frombuffer(_read_exact(f, 8 * count, f"array {i} payload"), "<f8")
            try:
                arrays.append(data.reshape(shape).copy())
            except ValueError as exc:  # an empty array with a dimension numpy cannot hold
                raise FormatError(f"array {i} has unusable shape {shape}: {exc}") from None
    return kind, ints, arrays


def save_mlp(path, params) -> None:
    """Serialize MLPParams."""
    arrays = [t for pair in params.layers for t in pair]
    save_blob(path, "mlp", params.layer_sizes, arrays)


def load_mlp(path):
    from .nnet import MLPParams

    kind, sizes, arrays = load_blob(path)
    if kind != "mlp":
        raise FormatError(f"expected an mlp blob, got {kind!r}")
    if len(arrays) != 2 * (len(sizes) - 1):
        raise FormatError("mlp blob has the wrong tensor count")
    layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(len(sizes) - 1)]
    return MLPParams(layers)


def save_mfvi(path, posterior) -> None:
    """Serialize a MeanFieldPosterior (layer sizes, mu, rho)."""
    save_blob(path, "mfvi", posterior.layer_sizes, [posterior.mu, posterior.rho])


def load_mfvi(path):
    from .bnn import MeanFieldPosterior

    kind, sizes, arrays = load_blob(path)
    if kind != "mfvi":
        raise FormatError(f"expected an mfvi blob, got {kind!r}")
    if len(arrays) != 2:
        raise FormatError("mfvi blob has the wrong tensor count")
    return MeanFieldPosterior(mu=arrays[0], rho=arrays[1], layer_sizes=tuple(sizes))


def save_chain(path, chain) -> None:
    """Serialize a PosteriorChain (layer sizes, samples, energies, flags, accept rate)."""
    sizes = chain.layer_sizes if chain.layer_sizes is not None else ()
    arrays = [
        chain.samples,
        chain.energies,
        chain.accept_flags.astype(np.float64),
        np.array([chain.accept_rate]),
    ]
    save_blob(path, "hmc-chain", sizes, arrays)


def load_chain(path):
    from .bnn import PosteriorChain

    kind, sizes, arrays = load_blob(path)
    if kind != "hmc-chain":
        raise FormatError(f"expected an hmc-chain blob, got {kind!r}")
    if len(arrays) != 4:
        raise FormatError("hmc-chain blob has the wrong tensor count")
    samples, energies, flags, rate = arrays
    return PosteriorChain(
        samples=samples,
        accept_rate=float(rate[0]),
        energies=energies,
        accept_flags=flags.astype(bool),
        layer_sizes=tuple(sizes) if len(sizes) else None,
    )
