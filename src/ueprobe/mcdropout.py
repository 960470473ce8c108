"""Monte Carlo dropout: average the softmax of M stochastic forward passes.

The reported uncertainty is the entropy of the averaged distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import MLPParams, ensemble_softmax, forward
from .numerics import RngStream


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
    """(n, C) mean softmax over cfg.n_samples stochastic passes of an (n, d)
    batch; deterministic in seed. Each row draws its own mask within a pass.
    """
    return ensemble_softmax(_dropout_passes(params, x, cfg), cfg.n_samples)
