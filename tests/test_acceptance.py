"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Runs the real experiment pipelines end to end. The two MNIST criteria (and the
MNIST half of the accuracy gate) need the four official IDX files on disk; they
skip with instructions when the files are absent. Each criterion prints a
PASS line once its assertions hold (run with -s to see them).
"""

import time

import numpy as np
import pytest

from ueprobe.bnn import HMCConfig, hmc_chain, leapfrog, log_posterior_and_grad
from ueprobe.datasets import Dataset, grid2d, make_toy2d
from ueprobe.gp import KernelParams, kernel_matrix, laplace_fit, predict_latent_many, predict_proba_many
from ueprobe.harness import ExperimentConfig, run_digit_table, run_mnist_interp, run_theorem_check, run_toy2d, write_report
from ueprobe.nnet import MLPParams, backward, flatten_params, forward, mlp_init, unflatten_params
from ueprobe.numerics import LN2, RngStream, binary_entropy

SEED = 0
HARNESS_ARCHS = [
    [2, 300, 2],
    [2, 512, 128, 2],
    [784, 600, 20, 2],
    [784, 500, 2],
    [784, 1024, 128, 2],
]


def _report_line(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def toy2d_result():
    cfg = ExperimentConfig(experiment="toy2d", methods=("gp", "mcdropout", "mfvi", "hmc"),
                           seed=SEED)
    start = time.monotonic()
    report = run_toy2d(cfg)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def mnist_interp_result(mnist_paths):
    cfg = ExperimentConfig(
        experiment="mnist-interp",
        methods=("gp", "mcdropout", "mfvi", "hmc"),
        seed=SEED,
        options={
            "mnist_train_images": mnist_paths["train_images"],
            "mnist_train_labels": mnist_paths["train_labels"],
            "mnist_test_images": mnist_paths["test_images"],
            "mnist_test_labels": mnist_paths["test_labels"],
        },
    )
    start = time.monotonic()
    report = run_mnist_interp(cfg)
    return report, time.monotonic() - start


def test_criterion_1_theorem_verification():
    """Probes with tiny kernel similarity predict 1/2 with full entropy, fast."""
    start = time.monotonic()
    cfg = ExperimentConfig(experiment="theorem-check", methods=("gp",), seed=SEED)
    report = run_theorem_check(cfg)  # raises CheckFailure on violation
    elapsed = time.monotonic() - start

    probes = report.metadata["theorem"]["probes"]
    tiny = [p for p in probes if p["kstar_inf"] < 1e-8]
    assert tiny, "no probe reached the 1e-8 similarity regime"
    for p in tiny:
        assert abs(p["p_class1"] - 0.5) < 1e-6
        assert abs(float(binary_entropy(p["p_class1"])) - LN2) < 1e-6
    assert elapsed < 10.0
    _report_line("1", f"{len(tiny)} far probes within 1e-6 of 1/2, {elapsed:.2f}s")


def _grid_lookup(report, methods, resolution=100, lo=-6.0, hi=6.0):
    points = grid2d(lo, hi, lo, hi, resolution)
    entropy = {m: np.empty(len(points)) for m in methods}
    for row in report.rows:
        idx = int(row.probe_id.split("_")[1])
        entropy[row.method][idx] = row.entropy_nats
    return points, entropy


def test_criterion_2_toy2d_failure_mode(toy2d_result):
    """GP dark far field; MCDropout/MFVI/HMC light far field; all dark at origin."""
    report, elapsed = toy2d_result
    methods = ("gp", "mcdropout", "mfvi", "hmc")
    points, entropy = _grid_lookup(report, methods)

    corner_idx = []
    for cx, cy in [(-6, -6), (6, -6), (-6, 6), (6, 6)]:
        d2 = np.sum((points - [cx, cy]) ** 2, axis=1)
        corner_idx.extend(np.argsort(d2)[:4])
    assert len(set(corner_idx)) == 16
    gp_corner_mean = float(np.mean(entropy["gp"][corner_idx]))
    assert gp_corner_mean >= 0.6

    def at(x, y):
        return int(np.argmin(np.sum((points - [x, y]) ** 2, axis=1)))

    far = [at(6, 6), at(-6, -6), at(5, 4), at(-4, -5)]
    assert all(entropy["mcdropout"][i] <= 0.15 for i in far)
    assert all(entropy["mfvi"][i] <= 0.2 for i in far)
    assert all(entropy["hmc"][i] <= 0.2 for i in far)

    origin = at(0, 0)
    for m in methods:
        assert entropy[m][origin] >= 0.4, m
    assert elapsed < 600.0
    _report_line("2", f"gp corners {gp_corner_mean:.3f}, runtime {elapsed:.0f}s")


def test_criterion_3_mnist_interpolation(mnist_interp_result):
    """Entropy peaks near t=0.5 for every method; only the GP flags t outside [0,1]."""
    report, elapsed = mnist_interp_result
    curves = report.metadata["mean_entropy_per_t"]
    t_grid = np.asarray(report.metadata["t_grid"])

    for method, curve in curves.items():
        values = np.array([curve[f"{t:.9g}"] for t in t_grid])
        t_peak = float(t_grid[int(np.argmax(values))])
        assert 0.4 <= t_peak <= 0.6, f"{method} peaks at t={t_peak}"

    def curve_at(method, t):
        return curves[method][f"{t:.9g}"]

    for t in (-1.0, 2.0):
        assert curve_at("gp", t) >= 0.5
        assert curve_at("mcdropout", t) <= 0.15
        assert curve_at("mfvi", t) <= 0.15
    assert elapsed < 1800.0
    _report_line(
        "3",
        "gp ends {:.3f}/{:.3f}, mcdropout {:.3f}/{:.3f}, runtime {:.0f}s".format(
            curve_at("gp", -1.0), curve_at("gp", 2.0),
            curve_at("mcdropout", -1.0), curve_at("mcdropout", 2.0), elapsed,
        ),
    )


def test_criterion_4_digit_table(mnist_paths):
    """Digits 0/1 get low MCDropout entropy, unseen digits 2-9 get high entropy."""
    cfg = ExperimentConfig(
        experiment="digit-table",
        methods=("mcdropout",),
        seed=SEED,
        options={
            "mnist_train_images": mnist_paths["train_images"],
            "mnist_train_labels": mnist_paths["train_labels"],
            "mnist_test_images": mnist_paths["test_images"],
            "mnist_test_labels": mnist_paths["test_labels"],
        },
    )
    report = run_digit_table(cfg)
    table = {int(k): v for k, v in report.metadata["per_digit_mean_entropy"].items()}
    assert table[0] <= 0.1
    assert table[1] <= 0.1
    for digit in range(2, 10):
        assert table[digit] >= 0.25, f"digit {digit}: {table[digit]:.4f}"
    _report_line("4", "seen {:.4f}/{:.4f}, unseen min {:.4f}".format(
        table[0], table[1], min(table[d] for d in range(2, 10))))


def test_criterion_5_toy_accuracy_gates(toy2d_result):
    """Every method's point predictor separates the toy training data."""
    report, _ = toy2d_result
    info = report.metadata["method_info"]
    for method in ("gp", "mcdropout", "mfvi", "hmc"):
        assert info[method]["train_accuracy"] >= 0.99, method
    _report_line("5a", "toy train accuracy >= 0.99 for all four methods")


def test_criterion_5_mnist_accuracy_gates(mnist_interp_result):
    """MLP and MFVI exceed 99.9 percent test accuracy on MNIST 0/1."""
    report, _ = mnist_interp_result
    info = report.metadata["method_info"]
    assert info["mcdropout"]["test_accuracy"] > 0.999
    assert info["mfvi"]["test_accuracy"] > 0.999
    _report_line("5b", "mnist test accuracy mlp {:.5f}, mfvi {:.5f}".format(
        info["mcdropout"]["test_accuracy"], info["mfvi"]["test_accuracy"]))


def test_criterion_6a_stable_vs_naive_gp():
    """Factorized predictive moments match the dense-inverse formulas."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 2, size=5)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        d = Dataset(x, y, source="probe")
        params = KernelParams(0.8, 1.0)
        state = laplace_fit(d, params, tol=1e-10)
        k = kernel_matrix(x, x, params)
        x_star = rng.normal(size=(4, 2))
        k_star = kernel_matrix(x, x_star, params)
        naive_mean = k_star.T @ np.linalg.inv(k) @ state.f_hat
        naive_var = params.signal_variance - np.einsum(
            "ij,ij->j", k_star, np.linalg.inv(k + np.diag(1.0 / state.W)) @ k_star
        )
        mean, var = predict_latent_many(state, x_star)
        worst = max(worst, float(np.max(np.abs(mean - naive_mean))),
                    float(np.max(np.abs(var - naive_var))))
    assert worst < 1e-8
    _report_line("6a", f"max |stable - naive| = {worst:.2e}")


def test_criterion_6b_logistic_quadrature(toy):
    """Gauss-Hermite predictive probability vs a million-point trapezoid."""
    state = laplace_fit(toy, KernelParams(1.0, 1.0), link="logistic")
    worst = 0.0
    for x_star in (np.array([1.0, 0.5]), np.array([0.0, 0.0]), np.array([3.0, 3.0])):
        mean, var = predict_latent_many(state, x_star[None, :])
        mean, var = float(mean[0]), float(max(var[0], 1e-12))
        zs = np.linspace(mean - 12 * np.sqrt(var), mean + 12 * np.sqrt(var), 1_000_001)
        density = np.exp(-0.5 * (zs - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
        oracle = np.trapezoid(density / (1.0 + np.exp(-zs)), zs)
        worst = max(worst, abs(float(predict_proba_many(state, x_star[None])[0, 1]) - oracle))
    assert worst < 1e-6
    _report_line("6b", f"max |gh50 - trapezoid| = {worst:.2e}")


def _relu_gate_flips(vec, i, eps, sizes, x):
    signs = []
    for delta in (eps, -eps):
        v = vec.copy()
        v[i] += delta
        _, cache = forward(unflatten_params(v, sizes), x)
        signs.append([pre > 0 for pre in cache["preacts"][:-1]])
    return any(np.any(a != b) for a, b in zip(signs[0], signs[1]))


def test_criterion_6c_gradient_oracles():
    """Backprop and BNN log-posterior gradients vs central finite differences."""
    eps = 1e-5
    worst = 0.0
    for sizes in HARNESS_ARCHS:
        rng = np.random.default_rng(abs(hash(tuple(sizes))) % 2**31)
        p = mlp_init(sizes, seed=int(rng.integers(2**31)))
        x = rng.normal(size=(8, sizes[0]))
        y = rng.integers(0, sizes[-1], size=8)
        _, grads = backward(p, x, y)
        vec = flatten_params(p)
        gvec = flatten_params(MLPParams(grads))
        checked = 0
        for i in rng.choice(vec.size, size=50, replace=False):
            if _relu_gate_flips(vec, i, eps, sizes, x):
                continue
            vp, vm = vec.copy(), vec.copy()
            vp[i] += eps
            vm[i] -= eps
            lp, _ = backward(unflatten_params(vp, sizes), x, y)
            lm, _ = backward(unflatten_params(vm, sizes), x, y)
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - gvec[i]) / max(abs(fd), abs(gvec[i]), 1e-8)
            assert rel < 1e-5, f"{sizes} coord {i}"
            worst = max(worst, rel)
            checked += 1
        assert checked >= 40, f"{sizes}: too many kink exclusions"

    # BNN log-posterior gradient on the toy BNN architecture
    sizes = [2, 512, 128, 2]
    d = make_toy2d(15, seed=3)
    rng = np.random.default_rng(11)
    n_params = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
    omega = rng.normal(size=n_params) * 0.2
    _, grad = log_posterior_and_grad(omega, d, 5.0, sizes)
    checked = 0
    for i in rng.choice(n_params, size=50, replace=False):
        if _relu_gate_flips(omega, i, eps, sizes, d.features):
            continue
        wp, wm = omega.copy(), omega.copy()
        wp[i] += eps
        wm[i] -= eps
        fp, _ = log_posterior_and_grad(wp, d, 5.0, sizes)
        fm, _ = log_posterior_and_grad(wm, d, 5.0, sizes)
        fd = (fp - fm) / (2 * eps)
        rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
        assert rel < 1e-5
        worst = max(worst, rel)
        checked += 1
    assert checked >= 40
    _report_line("6c", f"max relative gradient error {worst:.2e}")


def test_criterion_7_sampler_correctness():
    """HMC moments on the analytic Gaussian, reversibility, ELBO vs evidence."""

    def gauss(w):
        return -0.5 * float(w @ w), -w

    cfg = HMCConfig(step_size=0.31, trajectory_length=5, n_samples=10_000,
                    burn_in=500, prior_precision=1.0, seed=97)
    chain = hmc_chain(gauss, np.zeros(2), cfg)
    mean_err = float(np.max(np.abs(chain.samples.mean(axis=0))))
    var_err = float(np.max(np.abs(chain.samples.var(axis=0) - 1.0)))
    assert mean_err < 0.05
    assert var_err < 0.1

    rng = RngStream(5)
    w0, r0 = rng.normal(6), rng.normal(6)
    fwd = leapfrog(w0, r0, gauss, 0.1, 30)
    back = leapfrog(fwd.omega, -fwd.momentum, gauss, 0.1, 30)
    rev_err = max(float(np.max(np.abs(back.omega - w0))),
                  float(np.max(np.abs(-back.momentum - r0))))
    assert rev_err < 1e-10

    # ELBO never beats the quadrature log evidence (2-parameter problem)
    from test_bnn import _gh_expect_2d, _loglik_2d, _two_param_problem
    from ueprobe.bnn import MeanFieldPosterior, dataset_log_likelihood, elbo_estimate, sample_posterior

    d, sizes = _two_param_problem()
    log_z = np.log(_gh_expect_2d(
        lambda dw, db: np.exp(_loglik_2d(dw, db, d)), 0.0, 2.0, 0.0, 2.0, order=100))
    rng2 = np.random.default_rng(8)
    for trial in range(3):
        q = MeanFieldPosterior(mu=rng2.normal(size=4) * 0.5,
                               rho=rng2.uniform(-2.0, 0.0, size=4), layer_sizes=sizes)
        n_mc = 4000
        value = elbo_estimate(q, d, n_mc=n_mc, kl_weight=1.0,
                              rng=RngStream(300 + trial), prior_precision=1.0)
        draws = sample_posterior(q, 1000, RngStream(400 + trial))
        se = np.std([dataset_log_likelihood(w, d, sizes) for w in draws], ddof=1) / np.sqrt(n_mc)
        assert value <= log_z + 3.0 * se + 1e-9
    _report_line("7", f"moment errors {mean_err:.3f}/{var_err:.3f}, reversibility {rev_err:.1e}")


def test_criterion_8_byte_determinism(tmp_path):
    """Identical seed and config give byte-identical CSV and JSON reports."""
    options = {
        "n_per_class": 30,
        "resolution": 4,
        "mcdropout.arch": [2, 12, 2], "mcdropout.epochs": 3, "mcdropout.n_passes": 8,
        "mfvi.arch": [2, 12, 2], "mfvi.epochs": 3, "mfvi.predict_draws": 8,
        "hmc.arch": [2, 12, 2], "hmc.n_samples": 6, "hmc.burn_in": 4, "hmc.map_epochs": 5,
    }
    cfg = ExperimentConfig(experiment="toy2d", methods=("gp", "mcdropout", "mfvi", "hmc"),
                           seed=17, options=options)
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        write_report(run_toy2d(cfg), a, fmt)
        write_report(run_toy2d(cfg), b, fmt)
        assert a.read_bytes() == b.read_bytes(), fmt

    thm = ExperimentConfig(experiment="theorem-check", methods=("gp",), seed=3)
    a, b = tmp_path / "t1.json", tmp_path / "t2.json"
    write_report(run_theorem_check(thm), a, "json")
    write_report(run_theorem_check(thm), b, "json")
    assert a.read_bytes() == b.read_bytes()
    _report_line("8", "toy2d and theorem-check reports byte-identical across reruns")
