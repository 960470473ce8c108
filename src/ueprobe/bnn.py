"""Bayesian neural networks via mean-field variational inference and HMC.

MFVI keeps a fully factorized Gaussian q with std = softplus(rho) per weight,
ascends the ELBO with reparameterized gradients, and weighs the closed-form
Gaussian KL by a configurable coefficient. HMC simulates leapfrog trajectories
on the unnormalized log posterior with a Metropolis correction and fresh
standard-normal momenta each iteration.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datasets import Dataset
from .errors import Divergence, NonFinite
from .nnet import (
    MLPParams,
    TrainConfig,
    _Adam,
    _cross_entropy_rows,
    backward,
    ensemble_softmax,
    flatten_params,
    forward,
    mlp_init,
    train,
    unflatten_params,
)
from .numerics import RngStream, derive_seed

log = logging.getLogger(__name__)


def softplus(x):
    return np.logaddexp(0.0, x)


@dataclass
class MeanFieldPosterior:
    """Diagonal Gaussian over the flattened parameter vector.

    mu and rho are congruent to the network's parameter vector; the per-weight
    standard deviation is softplus(rho), strictly positive by construction.
    """

    mu: np.ndarray
    rho: np.ndarray
    layer_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.mu.shape != self.rho.shape or self.mu.ndim != 1:
            raise ValueError(f"mu/rho shapes differ: {self.mu.shape} vs {self.rho.shape}")
        if self.layer_sizes is not None:
            self.layer_sizes = tuple(int(s) for s in self.layer_sizes)

    @property
    def std(self) -> np.ndarray:
        return softplus(self.rho)

    @property
    def n_params(self) -> int:
        return self.mu.size

    def mean_params(self) -> MLPParams:
        if self.layer_sizes is None:
            raise ValueError("posterior has no layer_sizes attached")
        return unflatten_params(self.mu.copy(), self.layer_sizes)


@dataclass(frozen=True)
class HMCConfig:
    step_size: float = 5e-4
    trajectory_length: int = 3
    n_samples: int = 300
    burn_in: int = 200
    prior_precision: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.trajectory_length < 1:
            raise ValueError("trajectory_length must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.prior_precision <= 0:
            raise ValueError("prior_precision must be > 0")


@dataclass(frozen=True)
class MFVIConfig:
    """The ELBO's KL weight and prior, and the posterior draws used to predict."""

    kl_weight: float = 0.1
    prior_precision: float = 1.0
    predict_draws: int = 100

    def __post_init__(self):
        if self.kl_weight < 0:
            raise ValueError("kl_weight must be >= 0")
        if self.prior_precision <= 0:
            raise ValueError("prior_precision must be > 0")
        if self.predict_draws < 1:
            raise ValueError("predict_draws must be >= 1")


@dataclass
class PosteriorChain:
    """Retained HMC samples with per-iteration energies and accept flags."""

    samples: np.ndarray  # (K, P)
    accept_rate: float
    energies: np.ndarray  # (K,) Hamiltonian after each retained iteration
    accept_flags: np.ndarray  # (K,) bool
    layer_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.energies = np.asarray(self.energies, dtype=np.float64)
        self.accept_flags = np.asarray(self.accept_flags, dtype=bool)
        k = self.samples.shape[0]
        if self.energies.shape != (k,) or self.accept_flags.shape != (k,):
            raise ValueError("energies/accept_flags must have one entry per sample")
        if abs(self.accept_rate - float(np.mean(self.accept_flags))) > 1e-12:
            raise ValueError("accept_rate inconsistent with accept flags")
        if self.layer_sizes is not None:
            self.layer_sizes = tuple(int(s) for s in self.layer_sizes)


def dataset_log_likelihood(omega, d: Dataset, layer_sizes) -> float:
    """log p(D|omega): negative summed cross-entropy over the full dataset."""
    logits, _ = forward(unflatten_params(omega, layer_sizes), d.features)
    return float(-np.sum(_cross_entropy_rows(logits, d.labels)))


def log_posterior_and_grad(omega, d: Dataset, prior_precision: float, layer_sizes):
    """Unnormalized log posterior log p(D|omega) + log p(omega) and its gradient.

    The prior is zero-mean isotropic Gaussian with the given precision; its
    normalizing constant is dropped.
    """
    omega = np.asarray(omega, dtype=np.float64)
    params = unflatten_params(omega, layer_sizes)
    mean_ce, grads = backward(params, d.features, d.labels)
    n = d.n_samples
    value = -n * mean_ce - 0.5 * prior_precision * float(omega @ omega)
    grad = -n * flatten_params(MLPParams(grads)) - prior_precision * omega
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise NonFinite("log posterior or gradient overflowed")
    return value, grad


def kl_gaussian(q: MeanFieldPosterior, prior_precision: float) -> float:
    """Closed-form KL(q || N(0, prior_precision^{-1} I)) for diagonal Gaussian q."""
    if prior_precision <= 0:
        raise ValueError("prior_precision must be > 0")
    sigma = q.std
    prior_var = 1.0 / prior_precision
    terms = (
        0.5 * np.log(prior_var)
        - np.log(sigma)
        + (sigma**2 + q.mu**2) / (2.0 * prior_var)
        - 0.5
    )
    return float(np.sum(terms))


def elbo_estimate(
    q: MeanFieldPosterior,
    d: Dataset,
    n_mc: int,
    kl_weight: float,
    rng: RngStream,
    prior_precision: float = 1.0,
    layer_sizes=None,
) -> float:
    """Monte Carlo ELBO: mean reparameterized log-likelihood minus weighted KL."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    sizes = layer_sizes if layer_sizes is not None else q.layer_sizes
    sigma = q.std
    acc = 0.0
    for _ in range(n_mc):
        omega = q.mu + sigma * rng.normal(q.n_params)
        acc += dataset_log_likelihood(omega, d, sizes)
    value = acc / n_mc - kl_weight * kl_gaussian(q, prior_precision)
    if not np.isfinite(value):
        raise NonFinite("ELBO estimate overflowed")
    return value


def _elbo_gradients(mu, rho, eps, loglik_grad, kl_weight, prior_precision):
    """Gradients of the negative ELBO at omega = mu + softplus(rho) * eps.

    loglik_grad is the gradient of log p(D|omega) at that omega; the KL part
    is exact, the likelihood part is the single-sample reparameterized
    estimator.
    """
    sigma = softplus(rho)
    dsigma = expit(rho)
    prior_var = 1.0 / prior_precision
    d_mu = -loglik_grad + kl_weight * (mu / prior_var)
    d_rho = (-loglik_grad * eps + kl_weight * (sigma / prior_var - 1.0 / sigma)) * dsigma
    return d_mu, d_rho


def _elbo_loop(theta, steps, loglik_grad, kl_weight, prior_precision, learning_rate, rng):
    """Adam ascent of the ELBO over theta = [mu, rho], one update per item of steps.

    Each update draws eps from rng, then asks loglik_grad(omega, step) for the
    full-data-scale gradient of log p(D|omega) at omega = mu + softplus(rho) * eps.
    The closure raises Divergence when its likelihood is not finite. theta is
    updated in place and returned.
    """
    n_params = theta.size // 2
    opt = _Adam([theta.shape], learning_rate)
    for step in steps:
        mu, rho = theta[:n_params], theta[n_params:]
        eps = rng.normal(n_params)
        grad = loglik_grad(mu + softplus(rho) * eps, step)
        d_mu, d_rho = _elbo_gradients(mu, rho, eps, grad, kl_weight, prior_precision)
        opt.step([theta], [np.concatenate([d_mu, d_rho])])
    return theta


def elbo_ascent(
    loglik_and_grad,
    n_params: int,
    n_steps: int,
    kl_weight: float,
    prior_precision: float,
    seed: int,
    learning_rate: float = 1e-3,
    init_mu=None,
    init_rho: float = -5.0,
) -> MeanFieldPosterior:
    """Generic full-batch ELBO ascent over (mu, rho) with Adam.

    loglik_and_grad(omega) must return (log p(D|omega), gradient) at full-data
    scale. Used directly by small inference problems; mfvi_train runs the same
    loop over minibatches of a classification likelihood.
    """
    mu = np.zeros(n_params) if init_mu is None else np.array(init_mu, dtype=np.float64)
    rho = np.full(n_params, float(init_rho))

    def loglik_grad(omega, step):
        value, grad = loglik_and_grad(omega)
        if not np.isfinite(value):
            raise Divergence(f"non-finite log-likelihood at step {step}")
        return grad

    theta = _elbo_loop(
        np.concatenate([mu, rho]), range(n_steps), loglik_grad,
        kl_weight, prior_precision, learning_rate, RngStream(seed),
    )
    return MeanFieldPosterior(mu=theta[:n_params].copy(), rho=theta[n_params:].copy())


def mfvi_train(
    layer_sizes,
    d: Dataset,
    epochs: int = 100,
    kl_weight: float = 0.1,
    prior_precision: float = 1.0,
    seed: int = 0,
    learning_rate: float = 1e-3,
    batch_size: int = 64,
) -> MeanFieldPosterior:
    """Bayes-by-backprop training of a classification MLP posterior.

    One reparameterized sample per step; the minibatch likelihood gradient is
    rescaled to full-data scale so the KL weight means the same thing at every
    batch size. Deterministic in the seed.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    rng = RngStream(seed)
    mu = flatten_params(mlp_init(sizes, rng=rng.substream(0)))
    n_params = mu.size
    n = d.n_samples
    batch_ce = []

    def batches():
        # a generator, so each epoch's shuffle is drawn just before its first step's noise
        for epoch in range(epochs):
            order = rng.permutation(n)
            batch_ce.clear()
            for start in range(0, n, batch_size):
                yield epoch, order[start : start + batch_size]
            log.debug("mfvi epoch %d: mean batch CE %.6f", epoch, sum(batch_ce) / len(batch_ce))

    def loglik_grad(omega, batch):
        epoch, idx = batch
        mean_ce, grads = backward(unflatten_params(omega, sizes), d.features[idx], d.labels[idx])
        if not np.isfinite(mean_ce):
            raise Divergence(f"non-finite loss at epoch {epoch}")
        batch_ce.append(mean_ce)
        return -n * flatten_params(MLPParams(grads))

    theta = _elbo_loop(
        np.concatenate([mu, np.full(n_params, -5.0)]), batches(), loglik_grad,
        kl_weight, prior_precision, learning_rate, rng,
    )
    return MeanFieldPosterior(
        mu=theta[:n_params].copy(), rho=theta[n_params:].copy(), layer_sizes=sizes
    )


def sample_posterior(q: MeanFieldPosterior, n_draws: int, rng: RngStream) -> np.ndarray:
    """(n_draws, P) matrix of reparameterized q samples."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    sigma = q.std
    return q.mu[None, :] + sigma[None, :] * rng.normal((n_draws, q.n_params))


LeapfrogResult = namedtuple("LeapfrogResult", ["omega", "momentum", "logp", "grad"])


def leapfrog(omega, momentum, logp_and_grad, step_size: float, n_steps: int) -> LeapfrogResult:
    """n_steps of the standard half-kick / drift / half-kick integrator.

    Time-reversible and volume-preserving; raises NonFinite if the trajectory
    diverges. The final log-density and gradient ride along so samplers need
    not re-evaluate.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    logp, grad = logp_and_grad(np.asarray(omega, dtype=np.float64))
    return _leapfrog_from(omega, momentum, logp_and_grad, step_size, n_steps, grad)


def _leapfrog_from(omega, momentum, logp_and_grad, step_size, n_steps, grad):
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(omega, dtype=np.float64).copy()
        r = np.asarray(momentum, dtype=np.float64) + 0.5 * step_size * grad
        logp = None
        for i in range(n_steps):
            w += step_size * r
            logp, grad = logp_and_grad(w)
            if i < n_steps - 1:
                r += step_size * grad
        r = r + 0.5 * step_size * grad
    if not (np.isfinite(logp) and np.all(np.isfinite(w)) and np.all(np.isfinite(r))):
        raise NonFinite("leapfrog trajectory diverged")
    return LeapfrogResult(w, r, logp, grad)


def hmc_chain(logp_and_grad, init, cfg: HMCConfig, rng: RngStream | None = None) -> PosteriorChain:
    """Generic HMC sampler over an unnormalized log density.

    Momenta are standard normal, refreshed each iteration; proposals accept
    with probability min(1, exp(H_old - H_new)). Diverging trajectories count
    as rejections. Raises Divergence when the burn-in acceptance rate falls
    below 1 percent.
    """
    rng = rng if rng is not None else RngStream(cfg.seed)
    w = np.asarray(init, dtype=np.float64).copy()
    logp, grad = logp_and_grad(w)
    n_total = cfg.burn_in + cfg.n_samples
    samples = np.empty((cfg.n_samples, w.size))
    energies = np.empty(cfg.n_samples)
    flags = np.zeros(cfg.n_samples, dtype=bool)
    burn_accepts = 0
    for it in range(n_total):
        r0 = rng.normal(w.size)
        h_old = -logp + 0.5 * float(r0 @ r0)
        accepted = False
        h_new = h_old
        try:
            prop = _leapfrog_from(w, r0, logp_and_grad, cfg.step_size, cfg.trajectory_length, grad)
            h_new = -prop.logp + 0.5 * float(prop.momentum @ prop.momentum)
            if np.log(rng.uniform()) < h_old - h_new:
                accepted = True
        except NonFinite:
            accepted = False  # divergent trajectory rejects
        if accepted:
            w, logp, grad = prop.omega, prop.logp, prop.grad
        if it < cfg.burn_in:
            burn_accepts += int(accepted)
            if it == cfg.burn_in - 1 and burn_accepts / cfg.burn_in < 0.01:
                raise Divergence(
                    f"burn-in accept rate {burn_accepts / cfg.burn_in:.4f} < 0.01; "
                    "step size is too large"
                )
        else:
            k = it - cfg.burn_in
            samples[k] = w
            energies[k] = h_new if accepted else h_old
            flags[k] = accepted
    return PosteriorChain(
        samples=samples,
        accept_rate=float(np.mean(flags)),
        energies=energies,
        accept_flags=flags,
    )


def hmc_sample(
    d: Dataset,
    layer_sizes,
    cfg: HMCConfig,
    init=None,
    map_epochs: int = 20,
) -> PosteriorChain:
    """HMC over the BNN posterior for a classification MLP.

    Starts from a MAP estimate by default (a short deterministic Adam run with
    L2 strength prior_precision / n, seeded from cfg.seed); pass an explicit
    parameter vector to start elsewhere.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if init is None:
        map_cfg = TrainConfig(
            optimizer="adam",
            epochs=map_epochs,
            weight_decay=cfg.prior_precision / d.n_samples,
            seed=derive_seed(cfg.seed, "hmc-map-init"),
        )
        init = flatten_params(train(mlp_init(sizes, seed=map_cfg.seed), d, map_cfg))
        log.info("hmc MAP init finished (%d epochs)", map_epochs)
    else:
        init = np.asarray(init, dtype=np.float64)

    def target(omega):
        return log_posterior_and_grad(omega, d, cfg.prior_precision, sizes)

    chain = hmc_chain(target, init, cfg)
    chain.layer_sizes = sizes
    log.info("hmc accept rate %.3f over %d retained samples", chain.accept_rate, cfg.n_samples)
    return chain


def posterior_predict(samples, x, layer_sizes) -> np.ndarray:
    """Posterior-averaged class probabilities: mean softmax over sampled networks.

    ``samples`` is an iterable of parameter vectors (or a (K, P) array) and x
    an (n, d) batch. The reduction runs in fixed sample order.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("need at least one posterior sample")

    def logits(k):
        return forward(unflatten_params(samples[k], layer_sizes), x)[0]

    return ensemble_softmax(logits, samples.shape[0])
