"""Binary Gaussian-process classification with the Laplace approximation.

The fit finds the latent mode f_hat by Newton ascent on
Psi(f) = log p(y|f) - f' K^{-1} f / 2, working in the a-parametrization
f = K a so K is never inverted. Predictions use the stable B-factor form
B = I + W^{1/2} K W^{1/2}. Both probit and logistic links are supported;
the probit predictive integral is closed-form, the logistic one uses
Gauss-Hermite quadrature.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datasets import Dataset
from .errors import DimensionMismatch, NoConvergence, NumericalError
from .numerics import (
    gauss_hermite,
    jittered_cholesky,
    solve_triangular,
    std_normal_cdf,
    std_normal_logcdf,
    std_normal_logpdf,
)

log = logging.getLogger(__name__)

LINKS = ("probit", "logistic")


@dataclass(frozen=True)
class KernelParams:
    """RBF kernel hyperparameters: k(x, x') = variance * exp(-|x-x'|^2 / (2 l^2))."""

    length_scale: float
    signal_variance: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.length_scale) and self.length_scale > 0):
            raise ValueError(f"length_scale must be finite and > 0, got {self.length_scale}")
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ValueError(f"signal_variance must be finite and > 0, got {self.signal_variance}")


def kernel_matrix(a, b, params: KernelParams) -> np.ndarray:
    """Cross-kernel matrix with entry (i, j) = k(a_i, b_j) for the RBF kernel of params."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"feature dims differ: {a.shape[1]} vs {b.shape[1]}")
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return params.signal_variance * np.exp(-sq / (2.0 * params.length_scale**2))


def _probit_terms(f: np.ndarray, t: np.ndarray):
    """(log lik, gradient, W) for the probit likelihood p(y|f) = Phi(t f)."""
    z = t * f
    loglik = float(np.sum(std_normal_logcdf(z)))
    # s = phi(z)/Phi(z), computed in log space to survive z << 0
    s = np.exp(std_normal_logpdf(z) - std_normal_logcdf(z))
    grad = t * s
    w = s * (s + z)
    return loglik, grad, w


def _logistic_terms(f: np.ndarray, t: np.ndarray):
    """(log lik, gradient, W) for the logistic likelihood p(y|f) = sigma(t f)."""
    z = t * f
    loglik = float(-np.sum(np.logaddexp(0.0, -z)))
    pi = expit(f)
    grad = (t + 1.0) / 2.0 - pi
    w = pi * (1.0 - pi)
    return loglik, grad, w


_LIK_TERMS = {"probit": _probit_terms, "logistic": _logistic_terms}


@dataclass(frozen=True)
class LaplaceGPState:
    """Fitted GP: training data, kernel, latent mode, and cached factorization.

    W holds the diagonal of the negative log-likelihood Hessian at the mode and
    chol_B the lower Cholesky factor of B = I + W^{1/2} K W^{1/2}.
    """

    X: np.ndarray  # (n, d) training inputs
    y: np.ndarray  # (n,) labels recoded to {-1, +1}
    params: KernelParams
    link: str
    f_hat: np.ndarray
    grad: np.ndarray  # d log p(y|f) / df at f_hat
    W: np.ndarray
    chol_B: np.ndarray
    log_marginal: float

    def __post_init__(self):
        n = self.X.shape[0]
        for name in ("y", "f_hat", "grad", "W"):
            if getattr(self, name).shape != (n,):
                raise DimensionMismatch(f"{name} must have shape ({n},)")
        if self.chol_B.shape != (n, n):
            raise DimensionMismatch(f"chol_B must have shape ({n}, {n})")
        if np.any(self.W < 0):
            raise NumericalError("W must be elementwise nonnegative")
        for name in ("X", "y", "f_hat", "grad", "W", "chol_B"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_train(self) -> int:
        return self.X.shape[0]


def _signed_labels(d: Dataset) -> np.ndarray:
    labels = np.unique(d.labels)
    if not np.all(np.isin(labels, (0, 1))):
        raise ValueError(f"binary GP needs labels in {{0, 1}}, got classes {labels}")
    return 2.0 * d.labels.astype(np.float64) - 1.0


def laplace_fit(
    d: Dataset,
    params: KernelParams,
    link: str = "probit",
    tol: float = 1e-6,
    max_iter: int = 100,
    on_iteration=None,
) -> LaplaceGPState:
    """Newton mode-finding for the Laplace approximation.

    Converges when the stationarity residual |f - K grad(f)| (sup norm) drops
    below tol. A backtracking line search in the a-parametrization keeps
    Psi(f) non-decreasing at every step. Raises NoConvergence (with the last
    iterate attached) if max_iter is exhausted. ``on_iteration(i, f, psi)`` is
    invoked after each accepted Newton step.
    """
    if link not in LINKS:
        raise ValueError(f"link must be one of {LINKS}, got {link!r}")
    t = _signed_labels(d)
    terms = _LIK_TERMS[link]
    x = d.features
    n = x.shape[0]
    k = kernel_matrix(x, x, params)

    f = np.zeros(n)
    a = np.zeros(n)
    psi = terms(f, t)[0]  # -a.f/2 vanishes at a = 0
    converged = False
    for iteration in range(max_iter):
        _, grad, w = terms(f, t)
        sw = np.sqrt(w)
        chol_b, jitter = jittered_cholesky(np.eye(n) + sw[:, None] * k * sw[None, :])
        residual = float(np.max(np.abs(f - k @ grad))) if n else 0.0
        if residual < tol:
            converged = True
            break
        b = w * f + grad
        v = solve_triangular(chol_b, sw * (k @ b), side="lower")
        a_new = b - sw * solve_triangular(chol_b.T, v, side="upper")

        # backtrack along a + s (a_new - a) until Psi does not decrease
        da = a_new - a
        step = 1.0
        while True:
            a_try = a + step * da
            f_try = k @ a_try
            psi_try = terms(f_try, t)[0] - 0.5 * float(a_try @ f_try)
            if psi_try >= psi - 1e-12:
                break
            step *= 0.5
            if step < 2.0**-30:
                raise NoConvergence(
                    "Newton line search stalled", state={"f": f, "iterations": iteration}
                )
        a, f, psi = a_try, f_try, psi_try
        if on_iteration is not None:
            on_iteration(iteration, f, psi)
    if not converged:
        raise NoConvergence(
            f"Laplace fit did not converge in {max_iter} iterations",
            state={"f": f, "iterations": max_iter},
        )

    log_marginal = psi - float(np.sum(np.log(np.diag(chol_b))))
    if jitter:
        log.debug("laplace_fit used jitter %.3g on B", jitter)
    return LaplaceGPState(
        X=x,
        y=t,
        params=params,
        link=link,
        f_hat=f,
        grad=grad,
        W=w,
        chol_B=chol_b,
        log_marginal=log_marginal,
    )


def fit_hyperparams(
    d: Dataset,
    grid,
    link: str = "probit",
    tol: float = 1e-6,
    max_iter: int = 100,
) -> tuple[KernelParams, LaplaceGPState]:
    """Grid search maximizing the Laplace log marginal likelihood.

    Ties break toward the first occurrence in grid order; fit errors propagate
    only if every grid point fails.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    best: tuple[KernelParams, LaplaceGPState] | None = None
    last_error: Exception | None = None
    for params in grid:
        try:
            state = laplace_fit(d, params, link=link, tol=tol, max_iter=max_iter)
        except (NoConvergence, NumericalError) as exc:
            last_error = exc
            continue
        if best is None or state.log_marginal > best[1].log_marginal:
            best = (params, state)
    if best is None:
        assert last_error is not None
        raise last_error
    log.info(
        "selected length_scale=%.4g (log marginal %.4f)",
        best[0].length_scale,
        best[1].log_marginal,
    )
    return best


def default_length_scale_grid(scale: float = 1.0, signal_variance: float = 1.0) -> list[KernelParams]:
    """Log-spaced length-scale grid scale * 2^{-3..3} at fixed signal variance."""
    return [KernelParams(scale * 2.0**k, signal_variance) for k in range(-3, 4)]


def predict_latent_many(state: LaplaceGPState, x_star) -> tuple[np.ndarray, np.ndarray]:
    """Latent predictive mean and variance at each row of x_star.

    mean = k*' grad, var = k(x*,x*) - v'v with v = L \\ (W^{1/2} k*); tiny
    negative variances above -1e-10 clamp to 0, anything lower raises.
    """
    x_star = np.atleast_2d(np.asarray(x_star, dtype=np.float64))
    k_star = kernel_matrix(state.X, x_star, state.params)  # (n, m)
    mean = k_star.T @ state.grad
    v = solve_triangular(state.chol_B, np.sqrt(state.W)[:, None] * k_star, side="lower")
    var = state.params.signal_variance - np.sum(v * v, axis=0)
    if np.any(var < -1e-10):
        raise NumericalError(f"negative predictive variance {float(var.min()):g}")
    np.clip(var, 0.0, None, out=var)
    return mean, var


_GH_ORDER = 50


def _class1_probability(state: LaplaceGPState, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    if state.link == "probit":
        return std_normal_cdf(mean / np.sqrt(1.0 + var))
    nodes, weights = gauss_hermite(_GH_ORDER)
    # E[sigma(f*)] under N(mean, var) via the substitution f* = mean + sqrt(2 var) z
    z = mean[:, None] + np.sqrt(2.0 * var)[:, None] * nodes[None, :]
    return (expit(z) @ weights) / np.sqrt(np.pi)


def predict_proba_many(state: LaplaceGPState, x_star) -> np.ndarray:
    """(m, 2) matrix of [1 - pi*, pi*] class probabilities."""
    mean, var = predict_latent_many(state, x_star)
    p1 = _class1_probability(state, mean, var)
    return np.column_stack([1.0 - p1, p1])


def training_accuracy(state: LaplaceGPState) -> float:
    """Fraction of training points whose predicted class matches the label."""
    probs = predict_proba_many(state, state.X)
    predicted = np.where(probs[:, 1] > 0.5, 1.0, -1.0)
    return float(np.mean(predicted == state.y))
