"""Monte Carlo dropout: average the softmax of M stochastic forward passes.

The reported uncertainty is the entropy of the averaged distribution; the mean
of the per-pass entropies is also available as a secondary statistic since the
two differ (Jensen) and both appear in the literature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import MLPParams, ensemble_softmax, forward
from .numerics import RngStream, entropy_rows


@dataclass(frozen=True)
class MCDropoutConfig:
    n_samples: int = 100
    dropout_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 < self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in (0, 1)")


def _dropout_passes(params: MLPParams, x, cfg: MCDropoutConfig):
    """The dropout ensemble for ensemble_softmax: member m is stochastic pass m.

    Pass m draws its masks from a stream seeded with seed xor m, so passes are
    independent and may run concurrently while the reduction stays in fixed
    index order.
    """
    def logits(m):
        return forward(params, x, dropout_rate=cfg.dropout_rate, rng=RngStream(cfg.seed ^ m))[0]

    return logits


def mc_average(params: MLPParams, x, cfg: MCDropoutConfig) -> np.ndarray:
    """Mean softmax over cfg.n_samples stochastic passes; deterministic in seed.

    Accepts a single feature vector or an (n, d) batch; batched inputs draw an
    independent mask per row within each pass.
    """
    return ensemble_softmax(_dropout_passes(params, x, cfg), cfg.n_samples)


def mc_statistics(params: MLPParams, x, cfg: MCDropoutConfig):
    """(mean probs, entropy of the average, average per-pass entropy).

    Works on a single vector (scalars returned) or an (n, d) batch (arrays).
    """
    x = np.asarray(x, dtype=np.float64)
    mean_probs, mean_entropy = ensemble_softmax(
        _dropout_passes(params, x, cfg), cfg.n_samples, with_entropy=True
    )
    entropy_of_mean = entropy_rows(mean_probs)
    if x.ndim == 1:
        return mean_probs, float(entropy_of_mean), float(mean_entropy)
    return mean_probs, entropy_of_mean, mean_entropy
