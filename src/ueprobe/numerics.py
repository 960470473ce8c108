"""Dense linear algebra, special functions, quadrature, entropy, and seeded randomness.

Everything here is deterministic 64-bit float math. Randomness goes through
RngStream, a counter-based generator with explicit seed threading; there is no
global RNG state anywhere in the package.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import solve_triangular as _scipy_solve_triangular
from scipy.special import log_ndtr as _log_ndtr
from scipy.special import ndtr as _ndtr

from .errors import DimensionMismatch, NotPositiveDefinite, NumericalError, SingularMatrix

LN2 = float(np.log(2.0))

_U64 = 0xFFFFFFFFFFFFFFFF
_MIX = 0x9E3779B97F4A7C15  # golden-ratio increment, mixes substream keys


class RngStream:
    """Deterministic random stream backed by the counter-based Philox generator.

    Equal (seed, key) pairs yield identical draw sequences on every platform.
    Streams are cheap to construct; derive independent children with
    substream(). A stream must not be shared across threads.
    """

    def __init__(self, seed: int, key: int = 0):
        self.seed = int(seed) & _U64
        self.key = int(key) & _U64
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.key], dtype=np.uint64))
        )

    def substream(self, tag: int) -> "RngStream":
        """Independent stream derived deterministically from (seed, key, tag)."""
        return RngStream(self.seed, (self.key * _MIX + int(tag) + 1) & _U64)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"


def derive_seed(seed: int, tag: str) -> int:
    """Stable 63-bit seed derived from a base seed and a purpose tag."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (_U64 >> 1)


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def cholesky(a) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == a.

    Raises NotPositiveDefinite on a non-positive pivot; the caller owns any
    jitter policy (see jittered_cholesky).
    """
    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise NumericalError("matrix is not symmetric within 1e-10")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("non-positive pivot in Cholesky factorization") from None


def jittered_cholesky(a) -> tuple[np.ndarray, float]:
    """Cholesky with the escalating diagonal-jitter policy.

    Starts at 1e-9 times the mean diagonal and escalates tenfold up to 1e-4
    times the mean diagonal before giving up. Returns (L, jitter_used).
    """
    a = _as_square(a)
    try:
        return cholesky(a), 0.0
    except NotPositiveDefinite:
        pass
    mean_diag = float(np.mean(np.diag(a)))
    unit = mean_diag if mean_diag > 0 else 1.0
    jitter = 1e-9 * unit
    eye = np.eye(a.shape[0])
    while jitter <= 1e-4 * unit * (1.0 + 1e-12):
        try:
            return cholesky(a + jitter * eye), jitter
        except NotPositiveDefinite:
            jitter *= 10.0
    raise NotPositiveDefinite(
        f"matrix not positive definite after jitter up to {1e-4 * unit:g}"
    )


def solve_triangular(l, b, side: str = "lower") -> np.ndarray:
    """Solve l @ x = b where l is lower- or upper-triangular."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    l = _as_square(l)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != l.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {l.shape[0]}")
    if l.size and np.any(np.diag(l) == 0.0):
        raise SingularMatrix("zero diagonal entry in triangular matrix")
    return _scipy_solve_triangular(l, b, lower=(side == "lower"), check_finite=False)


def entropy_rows(p) -> np.ndarray:
    """Row-wise entropy in nats of an (n, C) matrix of probability vectors.

    The 0 * log(0) terms are taken as 0, and a zero entropy is +0.0, never -0.0.
    """
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1) + 0.0


def binary_entropy(p1) -> np.ndarray | float:
    """Entropy in nats of [1 - p1, p1]; accepts scalars or arrays."""
    p1 = np.asarray(p1, dtype=np.float64)
    out = entropy_rows(np.stack([1.0 - p1, p1], axis=-1))
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(z):
    """Standard normal CDF, accurate in both tails; scalar in, scalar out."""
    z = np.asarray(z, dtype=np.float64)
    out = _ndtr(z)
    return float(out) if out.ndim == 0 else out


def std_normal_logcdf(z):
    """log of the standard normal CDF, stable for very negative z."""
    z = np.asarray(z, dtype=np.float64)
    out = _log_ndtr(z)
    return float(out) if out.ndim == 0 else out


def std_normal_logpdf(z):
    z = np.asarray(z, dtype=np.float64)
    out = -0.5 * z * z - 0.5 * np.log(2.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of physicists' Gauss-Hermite quadrature.

    Integrates f against exp(-x^2) exactly for polynomials of degree <= 2n - 1;
    weights sum to sqrt(pi).
    """
    n = int(n)
    if not 1 <= n <= 100:
        raise ValueError(f"order must be in [1, 100], got {n}")
    nodes, weights = hermgauss(n)
    return nodes, weights


def softmax(logits) -> np.ndarray:
    """Overflow-safe softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericalError("logits contain non-finite entries")
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
