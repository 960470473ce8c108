"""Uncertainty estimation from first principles, plus an OOD evaluation harness.

Four methods behind one probe-and-report workflow: binary GP classification
with the Laplace approximation, Monte Carlo dropout, mean-field variational
inference, and Hamiltonian Monte Carlo.
"""

from .bnn import (
    HMCConfig,
    MFVIConfig,
    MeanFieldPosterior,
    PosteriorChain,
    elbo_estimate,
    hmc_chain,
    hmc_sample,
    kl_gaussian,
    leapfrog,
    log_posterior_and_grad,
    mfvi_train,
    posterior_predict,
    sample_posterior,
)
from .datasets import (
    Dataset,
    filter_classes,
    grid2d,
    load_idx,
    make_toy2d,
    probe_sweep,
)
from .gp import (
    KernelParams,
    LaplaceGPState,
    fit_hyperparams,
    kernel_matrix,
    laplace_fit,
    predict_latent_many,
    predict_proba_many,
)
from .harness import (
    ExperimentConfig,
    ReportRow,
    UncertaintyReport,
    run_digit_table,
    run_experiment,
    run_mnist_interp,
    run_theorem_check,
    run_toy2d,
    write_report,
)
from .mcdropout import MCDropoutConfig, mc_average
from .nnet import MLPParams, TrainConfig, backward, encode, forward, mlp_init, train
from .numerics import (
    RngStream,
    cholesky,
    entropy_rows,
    gauss_hermite,
    softmax,
    solve_triangular,
    std_normal_cdf,
)

__version__ = "0.1.0"
