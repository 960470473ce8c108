import numpy as np
import pytest

from ueprobe.bnn import (
    HMCConfig,
    MeanFieldPosterior,
    PosteriorChain,
    dataset_log_likelihood,
    elbo_ascent,
    elbo_estimate,
    hmc_chain,
    hmc_sample,
    kl_gaussian,
    leapfrog,
    log_posterior_and_grad,
    mfvi_train,
    posterior_predict,
    sample_posterior,
    softplus,
)
from ueprobe.datasets import Dataset, make_toy2d
from ueprobe.errors import Divergence, NonFinite
from ueprobe.nnet import accuracy, forward, mlp_init
from ueprobe.numerics import LN2, RngStream, binary_entropy, gauss_hermite, softmax


def _gauss_target(w):
    return -0.5 * float(w @ w), -w


def _kink_within(omega, i, eps, sizes, x):
    """True when perturbing coordinate i by +-eps flips some hidden ReLU gate."""
    from ueprobe.nnet import forward as fwd, unflatten_params as unflat

    signs = []
    for delta in (eps, -eps):
        v = omega.copy()
        v[i] += delta
        _, cache = fwd(unflat(v, sizes), x)
        signs.append([pre > 0 for pre in cache["preacts"][:-1]])
    return any(np.any(a != b) for a, b in zip(signs[0], signs[1]))


class TestLogPosterior:
    def test_zero_weights_balanced_data(self, toy):
        sizes = [2, 8, 2]
        n_params = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
        omega = np.zeros(n_params)
        value, _ = log_posterior_and_grad(omega, toy, prior_precision=1.0, layer_sizes=sizes)
        # zero network emits uniform logits; prior term vanishes at omega = 0
        assert abs(value - (-toy.n_samples * LN2)) < 1e-9

    def test_gradient_matches_finite_differences(self, toy):
        sizes = [2, 6, 2]
        rng = np.random.default_rng(3)
        n_params = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
        omega = rng.normal(size=n_params) * 0.3
        _, grad = log_posterior_and_grad(omega, toy, 2.0, sizes)
        eps = 1e-5
        checked = 0
        for i in rng.choice(n_params, size=25, replace=False):
            if _kink_within(omega, i, eps, sizes, toy.features):
                continue
            wp, wm = omega.copy(), omega.copy()
            wp[i] += eps
            wm[i] -= eps
            fp, _ = log_posterior_and_grad(wp, toy, 2.0, sizes)
            fm, _ = log_posterior_and_grad(wm, toy, 2.0, sizes)
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8) < 1e-5
            checked += 1
        assert checked >= 20

    def test_prior_gradient_linear_in_precision(self, toy):
        sizes = [2, 4, 2]
        rng = np.random.default_rng(4)
        n_params = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
        omega = rng.normal(size=n_params)
        _, g1 = log_posterior_and_grad(omega, toy, 1.0, sizes)
        _, g2 = log_posterior_and_grad(omega, toy, 2.0, sizes)
        np.testing.assert_allclose(g2 - g1, -omega, atol=1e-12)


class TestKlGaussian:
    def test_prior_match_is_zero(self):
        prec = 2.5
        sigma_p = 1.0 / np.sqrt(prec)
        rho = np.log(np.expm1(sigma_p))  # softplus inverse
        q = MeanFieldPosterior(mu=np.zeros(7), rho=np.full(7, rho))
        assert abs(kl_gaussian(q, prec)) < 1e-12

    def test_closed_form_value(self):
        # mu=0, sigma = sigma_p / 2: KL = ln 2 + 1/8 - 1/2
        rho = np.log(np.expm1(0.5))
        q = MeanFieldPosterior(mu=np.zeros(1), rho=np.array([rho]))
        assert abs(kl_gaussian(q, 1.0) - 0.318147) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = MeanFieldPosterior(mu=rng.normal(size=4), rho=rng.normal(size=4))
            assert kl_gaussian(q, float(rng.uniform(0.5, 3.0))) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MeanFieldPosterior(mu=np.zeros(3), rho=np.zeros(4))


def _two_param_problem():
    """[1, 2] net: the likelihood depends only on the logit differences."""
    x = np.array([[-1.0], [-0.4], [0.1], [0.5], [1.0], [1.4]])
    y = np.array([0, 0, 0, 1, 1, 1])
    return Dataset(x, y, source="probe"), (1, 2)


def _loglik_2d(dw, db, d):
    z = dw * d.features[:, 0] + db
    t = 2.0 * d.labels - 1.0
    return -np.sum(np.logaddexp(0.0, -t * z))


def _gh_expect_2d(fn, mean1, var1, mean2, var2, order=80):
    nodes, weights = gauss_hermite(order)
    total = 0.0
    for zj, wj in zip(nodes, weights):
        a = mean1 + np.sqrt(2 * var1) * zj
        for zk, wk in zip(nodes, weights):
            b = mean2 + np.sqrt(2 * var2) * zk
            total += wj * wk * fn(a, b)
    return total / np.pi


class TestElbo:
    def test_collapsed_posterior_recovers_point_likelihood(self, toy):
        sizes = (2, 5, 2)
        n_params = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
        mu = np.random.default_rng(6).normal(size=n_params) * 0.2
        q = MeanFieldPosterior(mu=mu, rho=np.full(n_params, -40.0), layer_sizes=sizes)
        elbo = elbo_estimate(q, toy, n_mc=3, kl_weight=0.0, rng=RngStream(1))
        assert abs(elbo - dataset_log_likelihood(mu, toy, sizes)) < 1e-6

    def test_zero_kl_weight_is_pure_likelihood(self, toy):
        sizes = (2, 4, 2)
        n_params = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
        q = MeanFieldPosterior(
            mu=np.zeros(n_params), rho=np.full(n_params, -2.0), layer_sizes=sizes
        )
        draws = sample_posterior(q, 40, RngStream(9))
        manual = np.mean([dataset_log_likelihood(w, toy, sizes) for w in draws])
        value = elbo_estimate(q, toy, n_mc=40, kl_weight=0.0, rng=RngStream(9))
        assert abs(value - manual) < 1e-9

    def test_matches_dense_quadrature(self):
        d, sizes = _two_param_problem()
        rng = np.random.default_rng(7)
        mu = rng.normal(size=4) * 0.5
        rho = np.full(4, -1.0)
        q = MeanFieldPosterior(mu=mu, rho=rho, layer_sizes=sizes)
        sigma2 = softplus(rho) ** 2
        # flatten order for [1,2]: [w0, w1, b0, b1]
        quad = _gh_expect_2d(
            lambda dw, db: _loglik_2d(dw, db, d),
            mu[1] - mu[0], sigma2[0] + sigma2[1],
            mu[3] - mu[2], sigma2[2] + sigma2[3],
        )
        n_mc = 10_000
        value = elbo_estimate(q, d, n_mc=n_mc, kl_weight=0.0, rng=RngStream(12))
        draws = sample_posterior(q, 2_000, RngStream(13))
        per_draw = [dataset_log_likelihood(w, d, sizes) for w in draws]
        se = np.std(per_draw, ddof=1) / np.sqrt(n_mc)
        assert abs(value - quad) <= 3.0 * se + 1e-9

    def test_never_exceeds_log_evidence(self):
        d, sizes = _two_param_problem()
        prec = 1.0
        # log Z via dense quadrature of the prior-averaged likelihood
        log_z = np.log(
            _gh_expect_2d(
                lambda dw, db: np.exp(_loglik_2d(dw, db, d)),
                0.0, 2.0 / prec, 0.0, 2.0 / prec, order=100,
            )
        )
        rng = np.random.default_rng(8)
        for trial in range(5):
            q = MeanFieldPosterior(
                mu=rng.normal(size=4) * 0.5,
                rho=rng.uniform(-2.0, 0.0, size=4),
                layer_sizes=sizes,
            )
            n_mc = 4_000
            value = elbo_estimate(
                q, d, n_mc=n_mc, kl_weight=1.0, rng=RngStream(100 + trial), prior_precision=prec
            )
            draws = sample_posterior(q, 1_000, RngStream(200 + trial))
            per_draw = [dataset_log_likelihood(w, d, sizes) for w in draws]
            se = np.std(per_draw, ddof=1) / np.sqrt(n_mc)
            assert value <= log_z + 3.0 * se + 1e-9


class TestElboAscent:
    def test_conjugate_gaussian_posterior(self):
        # y_i ~ N(theta, s^2), prior N(0, 1): exact posterior is Gaussian
        y = np.array([1.2, 0.8, 1.5, 0.9, 1.1])
        s2 = 0.25
        prec0 = 1.0
        post_prec = len(y) / s2 + prec0
        post_mean = (y.sum() / s2) / post_prec
        post_std = 1.0 / np.sqrt(post_prec)

        def loglik(theta):
            t = theta[0]
            return float(-np.sum((y - t) ** 2) / (2 * s2)), np.array([np.sum(y - t) / s2])

        q = elbo_ascent(
            loglik, n_params=1, n_steps=12_000, kl_weight=1.0, prior_precision=prec0,
            seed=15, learning_rate=0.005,
        )
        assert abs(q.mu[0] - post_mean) / post_mean < 0.05
        assert abs(q.std[0] - post_std) / post_std < 0.15


class TestMfviTrain:
    def test_toy_posterior_mean_classifies(self, toy):
        q = mfvi_train([2, 32, 2], toy, epochs=60, kl_weight=0.1, seed=17)
        assert accuracy(q.mean_params(), toy.features, toy.labels) >= 0.99

    def test_deterministic(self, toy):
        a = mfvi_train([2, 8, 2], toy, epochs=3, seed=19)
        b = mfvi_train([2, 8, 2], toy, epochs=3, seed=19)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.rho, b.rho)

    def test_posterior_std_positive(self, toy):
        q = mfvi_train([2, 8, 2], toy, epochs=2, seed=23)
        assert np.all(q.std > 0.0)


class TestLeapfrog:
    def test_single_step_third_order_accurate(self):
        w0 = np.array([1.3])
        r0 = np.array([-0.4])
        errors = []
        for eps in (0.2, 0.1, 0.05):
            res = leapfrog(w0, r0, _gauss_target, eps, 1)
            exact_w = w0 * np.cos(eps) + r0 * np.sin(eps)
            exact_r = r0 * np.cos(eps) - w0 * np.sin(eps)
            err = max(abs(res.omega[0] - exact_w[0]), abs(res.momentum[0] - exact_r[0]))
            assert err < eps**3
            errors.append(err)
        # halving the step shrinks the one-step error roughly 8x
        assert 5.0 < errors[0] / errors[1] < 11.0
        assert 5.0 < errors[1] / errors[2] < 11.0

    def test_time_reversible(self):
        rng = RngStream(5)
        w0, r0 = rng.normal(6), rng.normal(6)
        fwd = leapfrog(w0, r0, _gauss_target, 0.1, 30)
        back = leapfrog(fwd.omega, -fwd.momentum, _gauss_target, 0.1, 30)
        assert np.max(np.abs(back.omega - w0)) < 1e-10
        assert np.max(np.abs(-back.momentum - r0)) < 1e-10

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            leapfrog(np.zeros(2), np.zeros(2), _gauss_target, 0.1, 0)
        with pytest.raises(ValueError):
            leapfrog(np.zeros(2), np.zeros(2), _gauss_target, 0.0, 3)

    def test_hamiltonian_error_quadratic_in_step(self):
        rng = RngStream(6)
        w0, r0 = rng.normal(4), rng.normal(4)
        h0 = 0.5 * float(w0 @ w0) + 0.5 * float(r0 @ r0)
        for eps in (0.2, 0.1, 0.05, 0.025):
            res = leapfrog(w0, r0, _gauss_target, eps, 3)
            h1 = -res.logp + 0.5 * float(res.momentum @ res.momentum)
            assert abs(h1 - h0) <= 1.5 * eps**2

    def test_divergence_raises_nonfinite(self):
        def exploding(w):
            with np.errstate(over="ignore", invalid="ignore"):
                return -0.5 * float(w @ w) * 1e200, -w * 1e200

        with pytest.raises(NonFinite):
            leapfrog(np.ones(2), np.ones(2), exploding, 10.0, 50)


class TestHmcChain:
    def test_standard_gaussian_moments(self):
        cfg = HMCConfig(step_size=0.31, trajectory_length=5, n_samples=10_000,
                        burn_in=500, prior_precision=1.0, seed=97)
        chain = hmc_chain(_gauss_target, np.zeros(2), cfg)
        assert np.all(np.abs(chain.samples.mean(axis=0)) < 0.05)
        assert np.all(np.abs(chain.samples.var(axis=0) - 1.0) < 0.1)

    def test_moments_within_batch_means_error(self):
        cfg = HMCConfig(step_size=0.31, trajectory_length=5, n_samples=10_000,
                        burn_in=500, prior_precision=1.0, seed=41)
        chain = hmc_chain(_gauss_target, np.zeros(2), cfg)
        batches = chain.samples.reshape(100, 100, 2)
        for moment, target in ((batches.mean(axis=1), 0.0), ((batches**2).mean(axis=1), 1.0)):
            overall = moment.mean(axis=0)
            se = moment.std(axis=0, ddof=1) / np.sqrt(moment.shape[0])
            assert np.all(np.abs(overall - target) <= 4.0 * se)

    def test_deterministic(self):
        cfg = HMCConfig(step_size=0.3, trajectory_length=5, n_samples=50,
                        burn_in=20, prior_precision=1.0, seed=7)
        a = hmc_chain(_gauss_target, np.zeros(3), cfg)
        b = hmc_chain(_gauss_target, np.zeros(3), cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.energies, b.energies)
        assert a.accept_rate == b.accept_rate

    def test_huge_step_diverges(self):
        cfg = HMCConfig(step_size=150.0, trajectory_length=5, n_samples=10,
                        burn_in=200, prior_precision=1.0, seed=3)
        with pytest.raises(Divergence):
            hmc_chain(_gauss_target, np.full(2, 0.1), cfg)

    def test_nonfinite_trajectories_count_as_rejections(self):
        def barrier(w):
            if np.any(np.abs(w) > 1.5):
                raise NonFinite("outside the barrier")
            return -0.5 * float(w @ w), -w

        cfg = HMCConfig(step_size=0.6, trajectory_length=4, n_samples=300,
                        burn_in=50, prior_precision=1.0, seed=11)
        chain = hmc_chain(barrier, np.zeros(1), cfg)
        assert np.all(np.abs(chain.samples) <= 1.5)
        assert 0.0 < chain.accept_rate < 1.0

    def test_chain_consistency_validated(self):
        with pytest.raises(ValueError):
            PosteriorChain(
                samples=np.zeros((2, 1)),
                accept_rate=0.9,
                energies=np.zeros(2),
                accept_flags=np.array([True, False]),
            )


@pytest.fixture(scope="module")
def small_chain():
    d = make_toy2d(30, seed=3)
    cfg = HMCConfig(step_size=1e-4, trajectory_length=3, n_samples=30,
                    burn_in=20, prior_precision=5.0, seed=29)
    return d, hmc_sample(d, [2, 8, 2], cfg, map_epochs=200)


class TestHmcSample:

    def test_tiny_steps_accept_nearly_always(self, small_chain):
        _, chain = small_chain
        assert chain.accept_rate >= 0.9

    def test_posterior_classifies_training_data(self, small_chain):
        d, chain = small_chain
        probs = posterior_predict(chain.samples, d.features, [2, 8, 2])
        assert np.mean(np.argmax(probs, axis=1) == d.labels) >= 0.99

    def test_far_field_confident(self, small_chain):
        _, chain = small_chain
        probs = posterior_predict(chain.samples, np.array([[6.0, 6.0]]), [2, 8, 2])
        assert binary_entropy(probs[0, 1]) <= 0.15

    def test_deterministic(self):
        d = make_toy2d(10, seed=4)
        cfg = HMCConfig(step_size=1e-3, trajectory_length=2, n_samples=5,
                        burn_in=3, prior_precision=5.0, seed=31)
        a = hmc_sample(d, [2, 4, 2], cfg, map_epochs=5)
        b = hmc_sample(d, [2, 4, 2], cfg, map_epochs=5)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestPosteriorPredict:
    def test_single_sample_equals_softmax(self):
        p = mlp_init([3, 6, 2], seed=1)
        from ueprobe.nnet import flatten_params

        omega = flatten_params(p)
        x = np.array([[0.2, -0.4, 0.9]])
        expected = softmax(forward(p, x)[0])
        got = posterior_predict([omega], x, [3, 6, 2])
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_duplicated_samples_idempotent(self):
        p = mlp_init([3, 6, 2], seed=2)
        from ueprobe.nnet import flatten_params

        omega = flatten_params(p)
        x = np.array([[0.5, 0.5, 0.5]])
        one = posterior_predict([omega], x, [3, 6, 2])
        two = posterior_predict([omega, omega], x, [3, 6, 2])
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_normalized(self, toy):
        q = mfvi_train([2, 8, 2], toy, epochs=2, seed=5)
        draws = sample_posterior(q, 25, RngStream(6))
        probs = posterior_predict(draws, toy.features[:10], [2, 8, 2])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            posterior_predict(np.zeros((0, 5)), np.zeros((1, 3)), [3, 6, 2])
