import numpy as np
import pytest

from ueprobe.datasets import Dataset, make_toy2d
from ueprobe.errors import NoConvergence
from ueprobe.gp import (
    KernelParams,
    default_length_scale_grid,
    fit_hyperparams,
    kernel_matrix,
    laplace_fit,
    predict_latent_many,
    predict_proba_many,
    training_accuracy,
)
from ueprobe.numerics import (
    LN2,
    binary_entropy,
    jittered_cholesky,
    std_normal_cdf,
    std_normal_logpdf,
)


@pytest.fixture(scope="module")
def toy_state(toy):
    return laplace_fit(toy, KernelParams(1.0, 1.0))


def gp_entropy(state, x_star):
    """Predictive entropy in nats at each row of x_star."""
    return binary_entropy(predict_proba_many(state, x_star)[:, 1])


def rbf(x, x2, params):
    """One kernel value through the batched kernel_matrix."""
    return float(kernel_matrix(x[None, :], x2[None, :], params)[0, 0])


def rbf_direct(x, x2, params):
    """The RBF definition written out, as an oracle for kernel_matrix."""
    sq = float(np.sum((x - x2) ** 2))
    return params.signal_variance * float(np.exp(-sq / (2.0 * params.length_scale**2)))


class TestRbf:
    def test_zero_distance(self):
        assert rbf(np.array([1.0, 2.0]), np.array([1.0, 2.0]), KernelParams(1.0, 1.0)) == 1.0

    def test_toy_corner_distance(self):
        # (6,6) to (2,2): squared distance 32, unit length scale
        val = rbf(np.array([6.0, 6.0]), np.array([2.0, 2.0]), KernelParams(1.0, 1.0))
        assert abs(val - np.exp(-16.0)) < 1e-9 * np.exp(-16.0) + 1e-300

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=3), rng.normal(size=3)
        p = KernelParams(0.7, 2.0)
        assert rbf(x, y, p) == rbf(y, x, p)

    def test_range(self):
        rng = np.random.default_rng(1)
        p = KernelParams(1.3, 0.8)
        for _ in range(20):
            v = rbf(rng.normal(size=4), rng.normal(size=4), p)
            assert 0.0 < v <= p.signal_variance

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, -1.0)


class TestKernelMatrix:
    def test_single_point(self):
        k = kernel_matrix(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]), KernelParams(1.0, 3.0))
        np.testing.assert_allclose(k, [[3.0]], atol=1e-15)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        p = KernelParams(0.9, 1.4)
        k = kernel_matrix(a, b, p)
        for i in range(5):
            for j in range(4):
                assert abs(k[i, j] - rbf_direct(a[i], b[j], p)) < 1e-15

    def test_duplicate_points_need_jitter(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        k = kernel_matrix(x, x, KernelParams(1.0, 1.0))
        assert np.linalg.matrix_rank(k) == 1
        _, jitter = jittered_cholesky(k)
        assert jitter > 0


class TestLaplaceFit:
    def test_one_point_against_bisection_oracle(self):
        # y=+1, probit: mode solves f = k * pdf(f)/cdf(f)
        k = 1.5
        d = Dataset(np.array([[0.0]]), np.array([1]), source="probe")
        state = laplace_fit(d, KernelParams(1.0, k), tol=1e-10)

        def g(f):
            return f - k * np.exp(std_normal_logpdf(f)) / std_normal_cdf(f)

        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert abs(state.f_hat[0] - lo) < 1e-8

    def test_newton_ascent_monotone(self, toy):
        psis = []
        laplace_fit(toy, KernelParams(1.0, 1.0), on_iteration=lambda i, f, psi: psis.append(psi))
        assert len(psis) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(psis, psis[1:]))

    def test_converges_within_twenty_steps_on_toy(self, toy):
        count = []
        laplace_fit(toy, KernelParams(1.0, 1.0), tol=1e-6,
                    on_iteration=lambda i, f, psi: count.append(i))
        assert len(count) <= 20

    def test_all_positive_labels_positive_mode(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=(8, 2)) * 0.1, np.ones(8, dtype=int), source="probe")
        state = laplace_fit(d, KernelParams(2.0, 1.0))
        assert np.all(state.f_hat > 0)

    def test_state_residual_invariant(self, toy_state, toy):
        k = kernel_matrix(toy.features, toy.features, toy_state.params)
        assert np.max(np.abs(toy_state.f_hat - k @ toy_state.grad)) < 1e-6
        assert np.all(toy_state.W >= 0)

    def test_no_convergence_carries_state(self, toy):
        with pytest.raises(NoConvergence) as exc_info:
            laplace_fit(toy, KernelParams(1.0, 1.0), max_iter=1)
        assert "f" in exc_info.value.state

    def test_rejects_nonbinary_labels(self):
        d = Dataset(np.zeros((2, 1)), np.array([0, 2]), source="probe")
        with pytest.raises(ValueError):
            laplace_fit(d, KernelParams(1.0, 1.0))

    def test_logistic_link_fits(self, toy):
        state = laplace_fit(toy, KernelParams(1.0, 1.0), link="logistic")
        assert training_accuracy(state) >= 0.99


class TestFitHyperparams:
    def test_single_element_grid(self, toy):
        params, _ = fit_hyperparams(toy, [KernelParams(1.0, 1.0)])
        assert params.length_scale == 1.0

    def test_duplicate_best_returns_first(self, toy):
        first = KernelParams(1.0, 1.0)
        dup = KernelParams(1.0, 1.0)
        params, _ = fit_hyperparams(toy, [first, dup])
        assert params is first

    def test_default_grid_spans_octaves(self):
        grid = default_length_scale_grid()
        assert [p.length_scale for p in grid] == [2.0**k for k in range(-3, 4)]

    def test_empty_grid(self, toy):
        with pytest.raises(ValueError):
            fit_hyperparams(toy, [])

    def test_selected_scale_gives_far_field_uncertainty(self, toy):
        _, state = fit_hyperparams(toy, [KernelParams(s) for s in (0.3, 1.0, 3.0)])
        assert gp_entropy(state, np.array([[6.0, 6.0]]))[0] > 0.6


class TestPredictLatent:
    def test_far_point_prior_variance(self, toy_state):
        mean, var = predict_latent_many(toy_state, np.array([[40.0, 40.0]]))
        assert abs(mean[0]) < 1e-10
        assert abs(var[0] - toy_state.params.signal_variance) < 1e-8

    def test_training_point_reduces_variance(self):
        d = Dataset(np.array([[0.5]]), np.array([1]), source="probe")
        state = laplace_fit(d, KernelParams(1.0, 1.0))
        _, var = predict_latent_many(state, np.array([[0.5]]))
        assert var[0] < state.params.signal_variance

    def test_stable_form_matches_naive_inverse(self):
        # oracle: mean = k*' K^-1 f_hat, var = k** - k*' (K + W^-1)^-1 k*
        rng = np.random.default_rng(7)
        for n in [5] * 20 + [40]:
            x = rng.normal(size=(n, 2))
            y = rng.integers(0, 2, size=n)
            if len(set(y.tolist())) < 2:
                y[0] = 1 - y[0]
            d = Dataset(x, y, source="probe")
            params = KernelParams(0.8, 1.0)
            state = laplace_fit(d, params, tol=1e-10)
            k = kernel_matrix(x, x, params)
            x_star = rng.normal(size=(3, 2))
            k_star = kernel_matrix(x, x_star, params)
            naive_mean = k_star.T @ np.linalg.inv(k) @ state.f_hat
            naive_var = params.signal_variance - np.einsum(
                "ij,ij->j", k_star, np.linalg.inv(k + np.diag(1.0 / state.W)) @ k_star
            )
            mean, var = predict_latent_many(state, x_star)
            np.testing.assert_allclose(mean, naive_mean, atol=1e-8)
            np.testing.assert_allclose(var, naive_var, atol=1e-8)


class TestPredictProba:
    def test_symmetric_problem_gives_half(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        d = Dataset(x, np.array([1, 0]), source="probe")
        state = laplace_fit(d, KernelParams(1.0, 1.0), tol=1e-12)
        probs = predict_proba_many(state, np.array([[0.0, 0.0]]))[0]
        assert abs(probs[1] - 0.5) < 1e-12
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-15)

    def test_far_point_near_half(self, toy_state):
        probs = predict_proba_many(state=toy_state, x_star=np.array([[50.0, 50.0]]))[0]
        assert abs(probs[1] - 0.5) < 1e-6

    def test_logistic_matches_dense_trapezoid(self, toy):
        state = laplace_fit(toy, KernelParams(1.0, 1.0), link="logistic")
        x_star = np.array([[1.0, 0.5]])
        mean, var = (float(v[0]) for v in predict_latent_many(state, x_star))
        width = 12.0 * np.sqrt(var)
        zs = np.linspace(mean - width, mean + width, 1_000_001)
        density = np.exp(-0.5 * (zs - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
        oracle = np.trapezoid(density / (1.0 + np.exp(-zs)), zs)
        probs = predict_proba_many(state, x_star)[0]
        assert abs(probs[1] - oracle) < 1e-6

    def test_logistic_quadrature_spec_point(self, toy):
        # mean 1.2, variance 0.7 against a 10^6-point trapezoid oracle
        from ueprobe.gp import _class1_probability

        state = laplace_fit(toy, KernelParams(1.0, 1.0), link="logistic")
        mean, var = np.array([1.2]), np.array([0.7])
        zs = np.linspace(1.2 - 12 * np.sqrt(0.7), 1.2 + 12 * np.sqrt(0.7), 1_000_001)
        density = np.exp(-0.5 * (zs - 1.2) ** 2 / 0.7) / np.sqrt(2 * np.pi * 0.7)
        oracle = np.trapezoid(density / (1.0 + np.exp(-zs)), zs)
        assert abs(_class1_probability(state, mean, var)[0] - oracle) < 1e-6

    def test_label_flip_symmetry(self, toy):
        flipped = Dataset(toy.features, 1 - toy.labels, source=toy.source)
        s_orig = laplace_fit(toy, KernelParams(1.0, 1.0))
        s_flip = laplace_fit(flipped, KernelParams(1.0, 1.0))
        np.testing.assert_array_equal(s_flip.f_hat, -s_orig.f_hat)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-6, 6, size=(20, 2))
        p_orig = predict_proba_many(s_orig, pts)[:, 1]
        p_flip = predict_proba_many(s_flip, pts)[:, 1]
        np.testing.assert_allclose(p_flip, 1.0 - p_orig, atol=1e-15)


class TestTheoremProperty:
    def test_deviation_bounded_by_similarity(self, toy_state, toy):
        n = toy.n_samples
        c = float(np.max(np.abs(toy_state.grad))) + 1.0
        unit = np.array([1.0, 1.0]) / np.sqrt(2)
        for eps in (1e-6, 1e-8, 1e-10):
            # place the probe just inside the similarity threshold
            radius = 4.0
            while True:
                x = radius * unit
                k_star = kernel_matrix(toy.features, x[None, :], toy_state.params)
                if float(np.max(np.abs(k_star))) < eps:
                    break
                radius += 0.25
            p1 = predict_proba_many(toy_state, x[None, :])[0, 1]
            assert abs(p1 - 0.5) < c * eps * n

    def test_entropy_saturates_far_field(self, toy_state):
        assert abs(gp_entropy(toy_state, np.array([[12.0, 12.0]]))[0] - LN2) < 1e-6

    def test_on_mode_confident(self, toy_state):
        assert gp_entropy(toy_state, np.array([[2.0, 2.0]]))[0] < 0.3
        assert predict_proba_many(toy_state, np.array([[2.0, 2.0]]))[0, 1] > 0.7


class TestPredictionConsistency:
    def test_training_labels_recovered(self, toy_state, toy):
        probs = predict_proba_many(toy_state, toy.features)
        predicted = (probs[:, 1] > 0.5).astype(int)
        assert np.mean(predicted == toy.labels) >= 0.99
        assert training_accuracy(toy_state) >= 0.99
