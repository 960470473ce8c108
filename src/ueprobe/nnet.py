"""Dense multilayer perceptron with manual forward/backward passes.

ReLU on hidden layers, identity on the output layer, inverted dropout on
hidden activations only. Training is plain minibatch SGD or Adam on the mean
cross-entropy plus an optional L2 penalty on the weight matrices, fully
deterministic in the config seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import DimensionMismatch, Divergence, NumericalError
from .numerics import RngStream, softmax

log = logging.getLogger(__name__)


@dataclass
class MLPParams:
    """Per-layer (weights, biases) with weights shaped (out, in)."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        prev_out = None
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DimensionMismatch(f"layer {i}: weights {w.shape} vs biases {b.shape}")
            if prev_out is not None and w.shape[1] != prev_out:
                raise DimensionMismatch(
                    f"layer {i} expects input {w.shape[1]}, previous layer emits {prev_out}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite entries")
            prev_out = w.shape[0]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.layers[0][0].shape[1],) + tuple(w.shape[0] for w, _ in self.layers)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def copy(self) -> "MLPParams":
        return MLPParams([(w.copy(), b.copy()) for w, b in self.layers])


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 50
    dropout_rate: float = 0.0
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def mlp_init(layer_sizes, seed: int = 0, rng: RngStream | None = None) -> MLPParams:
    """Glorot-uniform weights, zero biases; deterministic in the seed."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = rng if rng is not None else RngStream(seed)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, (fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return MLPParams(layers)


def forward(params: MLPParams, x, dropout_rate: float = 0.0, rng: RngStream | None = None):
    """Forward pass of an (n, d) batch; returns (logits, cache) with the cache
    feeding backward().

    Without an rng the pass is deterministic and dropout is disabled. With an
    rng and a positive rate, inverted dropout (mask / (1 - rate)) is applied to
    every hidden activation.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.layer_sizes[0]:
        raise DimensionMismatch(f"input shape {a.shape} != (n, {params.layer_sizes[0]})")
    use_dropout = rng is not None and dropout_rate > 0.0
    inputs, preacts, masks = [], [], []
    n_layers = len(params.layers)
    for i, (w, b) in enumerate(params.layers):
        inputs.append(a)
        z = a @ w.T + b
        if i == n_layers - 1:
            a = z
            preacts.append(z)
            masks.append(None)
            continue
        preacts.append(z)
        h = np.maximum(z, 0.0)
        if use_dropout:
            mask = (rng.uniform(size=h.shape) >= dropout_rate) / (1.0 - dropout_rate)
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)
        a = h
    cache = {"inputs": inputs, "preacts": preacts, "masks": masks}
    return a, cache


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(logits)[label] of a batch, via a stable log-sum-exp."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return lse - z[np.arange(len(labels)), labels]


def _mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(_cross_entropy_rows(logits, labels)))


def backward(
    params: MLPParams,
    x,
    labels,
    dropout_rate: float = 0.0,
    rng: RngStream | None = None,
    weight_decay: float = 0.0,
):
    """Mean loss and its gradient over a batch.

    Loss is mean cross-entropy plus weight_decay/2 times the squared Frobenius
    norm of each weight matrix (biases are not penalized). Returns
    (loss, grads) with grads congruent to params.layers.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if x.shape[0] != labels.shape[0]:
        raise DimensionMismatch(f"batch size {x.shape[0]} != label count {labels.shape[0]}")
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    logits, cache = forward(params, x, dropout_rate=dropout_rate, rng=rng)
    n = x.shape[0]
    loss = _mean_cross_entropy(logits, labels)
    if weight_decay:
        loss += 0.5 * weight_decay * sum(float(np.sum(w * w)) for w, _ in params.layers)

    delta = softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        dw = delta.T @ cache["inputs"][i]
        if weight_decay:
            dw = dw + weight_decay * w
        grads[i] = (dw, delta.sum(axis=0))
        if i == 0:
            break
        delta = delta @ w
        mask = cache["masks"][i - 1]
        if mask is not None:
            delta = delta * mask
        delta = delta * (cache["preacts"][i - 1] > 0.0)
    return loss, grads


class _Adam:
    """Standard Adam with bias correction, one slot pair per tensor."""

    def __init__(self, shapes, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, tensors, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        scale = self.lr * np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for i, (x, g) in enumerate(zip(tensors, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            x -= scale * self.m[i] / (np.sqrt(self.v[i]) + self.eps)


def ensemble_softmax(member_logits, n_members: int) -> np.ndarray:
    """Mean softmax over an ensemble of n_members networks.

    member_logits(m) returns member m's logits for the batch. The members are
    summed one at a time in index order, so the result is bit-reproducible.
    """
    acc = None
    for m in range(n_members):
        probs = softmax(member_logits(m))
        acc = probs if acc is None else acc + probs
    return acc / n_members


def train(params: MLPParams, d: Dataset, cfg: TrainConfig, loss_history: list | None = None) -> MLPParams:
    """Minibatch training; returns a trained copy of the parameters.

    Shuffle order, dropout masks, and hence the result are bit-reproducible
    for a fixed config. Raises Divergence if the loss stops being finite.
    Pass a list as loss_history to collect each epoch's mean batch loss.
    """
    classes = np.unique(d.labels)
    if not np.all(np.isin(classes, np.arange(params.layer_sizes[-1]))):
        raise ValueError(f"labels {classes} exceed the output layer size")
    params = params.copy()
    rng = RngStream(cfg.seed)
    tensors = [t for pair in params.layers for t in pair]
    adam = _Adam([t.shape for t in tensors], cfg.learning_rate) if cfg.optimizer == "adam" else None
    n = d.n_samples
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grads = backward(
                        params,
                        d.features[idx],
                        d.labels[idx],
                        dropout_rate=cfg.dropout_rate,
                        rng=rng,
                        weight_decay=cfg.weight_decay,
                    )
            except NumericalError as exc:
                raise Divergence(f"non-finite forward pass at epoch {epoch}") from exc
            if not np.isfinite(loss):
                raise Divergence(f"non-finite loss at epoch {epoch}")
            flat_grads = [g for pair in grads for g in pair]
            if adam is not None:
                adam.step(tensors, flat_grads)
            else:
                for t, g in zip(tensors, flat_grads):
                    t -= cfg.learning_rate * g
            epoch_loss += loss
            n_batches += 1
        if loss_history is not None:
            loss_history.append(epoch_loss / n_batches)
        log.debug("epoch %d: mean batch loss %.6f", epoch, epoch_loss / n_batches)
    log.info("train accuracy %.4f", accuracy(params, d.features, d.labels))
    return params


def accuracy(params: MLPParams, features, labels) -> float:
    """Deterministic (dropout-free) argmax accuracy."""
    logits, _ = forward(params, features)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def encode(params: MLPParams, x, upto_layer: int) -> np.ndarray:
    """Deterministic activations of an (n, d) batch after the first upto_layer
    layers (dropout off).

    Hidden layers are ReLU-activated; upto_layer == len(layers) gives the
    forward logits.
    """
    n_layers = len(params.layers)
    if not 1 <= upto_layer <= n_layers:
        raise ValueError(f"upto_layer must be in [1, {n_layers}]")
    a = forward(MLPParams(params.layers[:upto_layer]), x)[0]
    return a if upto_layer == n_layers else np.maximum(a, 0.0)


def flatten_params(params: MLPParams) -> np.ndarray:
    """Concatenate all tensors into one float64 vector (order: W0, b0, W1, b1, ...)."""
    return np.concatenate([t.ravel() for pair in params.layers for t in pair])


def unflatten_params(vector, layer_sizes) -> MLPParams:
    """Rebuild MLPParams from a flat vector; the tensors are views into it."""
    vector = np.asarray(vector, dtype=np.float64)
    sizes = [int(s) for s in layer_sizes]
    expected = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
    if vector.shape != (expected,):
        raise DimensionMismatch(f"vector length {vector.shape} != required {expected}")
    layers = []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = vector[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
        offset += fan_out * fan_in
        b = vector[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return MLPParams(layers)
