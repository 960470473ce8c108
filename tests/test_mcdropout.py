import numpy as np
import pytest

from ueprobe.mcdropout import MCDropoutConfig, mc_average
from ueprobe.nnet import TrainConfig, forward, mlp_init, train
from ueprobe.numerics import LN2, RngStream, entropy_rows, softmax


@pytest.fixture(scope="module")
def toy_net(toy):
    return train(mlp_init([2, 300, 2], seed=11), toy,
                 TrainConfig(epochs=50, dropout_rate=0.5, seed=13))


def mc_entropy(params, x, cfg):
    """Entropy in nats of the averaged predictive distribution at one input."""
    return float(entropy_rows(mc_average(params, x[None, :], cfg))[0])


class TestMcAverage:
    def test_vanishing_rate_matches_deterministic(self):
        p = mlp_init([3, 16, 2], seed=1)
        x = np.array([[0.3, -0.5, 1.1]])
        det = softmax(forward(p, x)[0])
        avg = mc_average(p, x, MCDropoutConfig(n_samples=20, dropout_rate=1e-12, seed=5))
        np.testing.assert_allclose(avg, det, atol=1e-9)

    def test_single_sample_is_one_stochastic_pass(self):
        p = mlp_init([3, 16, 2], seed=2)
        x = np.array([[0.1, 0.2, 0.3]])
        cfg = MCDropoutConfig(n_samples=1, dropout_rate=0.5, seed=7)
        one = mc_average(p, x, cfg)
        manual = softmax(forward(p, x, dropout_rate=0.5, rng=RngStream(7 ^ 0))[0])
        np.testing.assert_array_equal(one, manual)

    def test_deterministic_in_seed(self):
        p = mlp_init([3, 16, 2], seed=3)
        x = np.array([[0.4, 0.5, -0.2]])
        cfg = MCDropoutConfig(n_samples=100, dropout_rate=0.5, seed=9)
        np.testing.assert_array_equal(mc_average(p, x, cfg), mc_average(p, x, cfg))

    def test_normalized_for_all_sample_counts(self):
        p = mlp_init([3, 16, 2], seed=4)
        x = np.array([[1.0, 0.0, -1.0]])
        for m in (1, 3, 10, 57):
            avg = mc_average(p, x, MCDropoutConfig(n_samples=m, dropout_rate=0.4, seed=m))
            assert abs(avg.sum() - 1.0) < 1e-12
            assert np.all(avg >= 0.0)

    def test_batched_rows_normalized(self):
        p = mlp_init([3, 16, 2], seed=5)
        xs = np.random.default_rng(0).normal(size=(9, 3))
        avg = mc_average(p, xs, MCDropoutConfig(n_samples=10, dropout_rate=0.5, seed=2))
        assert avg.shape == (9, 2)
        np.testing.assert_allclose(avg.sum(axis=1), 1.0, atol=1e-12)

    def test_variance_shrinks_with_sample_count(self):
        p = mlp_init([2, 32, 2], seed=6)
        x = np.array([[0.8, -0.3]])
        variances = []
        for m in (10, 100, 1000):
            draws = [
                mc_average(p, x, MCDropoutConfig(n_samples=m, dropout_rate=0.5, seed=s))[0, 0]
                for s in range(10)
            ]
            variances.append(np.var(draws))
        assert variances[0] > variances[1] > variances[2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCDropoutConfig(n_samples=0, dropout_rate=0.5)
        with pytest.raises(ValueError):
            MCDropoutConfig(n_samples=10, dropout_rate=0.0)
        with pytest.raises(ValueError):
            MCDropoutConfig(n_samples=10, dropout_rate=1.0)


class TestMcEntropy:
    def test_boundary_point_uncertain(self, toy_net):
        cfg = MCDropoutConfig(n_samples=100, dropout_rate=0.5, seed=21)
        assert mc_entropy(toy_net, np.array([0.0, 0.0]), cfg) >= 0.5

    def test_far_field_confident(self, toy_net):
        cfg = MCDropoutConfig(n_samples=100, dropout_rate=0.5, seed=21)
        assert mc_entropy(toy_net, np.array([6.0, 6.0]), cfg) <= 0.1

    def test_uniform_average_gives_ln2(self):
        # zero network: every pass emits uniform probabilities
        p = mlp_init([2, 4, 2], seed=0)
        zeroed = type(p)([(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers])
        cfg = MCDropoutConfig(n_samples=10, dropout_rate=0.5, seed=1)
        assert abs(mc_entropy(zeroed, np.array([1.0, 2.0]), cfg) - LN2) < 1e-12

    def test_jensen_inequality(self, toy_net):
        # entropy of the average >= average of the per-pass entropies
        rng = np.random.default_rng(17)
        pts = rng.uniform(-6, 6, size=(100, 2))
        cfg = MCDropoutConfig(n_samples=25, dropout_rate=0.5, seed=33)
        h_of_mean = entropy_rows(mc_average(toy_net, pts, cfg))
        mean_h = np.mean([
            entropy_rows(mc_average(toy_net, pts, MCDropoutConfig(1, 0.5, seed=33 ^ m)))
            for m in range(25)
        ], axis=0)
        assert np.all(h_of_mean >= mean_h - 1e-12)


class TestPerClassMeanEntropy:
    def test_in_distribution_low_boundary_high(self, toy_net):
        # classes 0/1 from the training clusters, class 5 on the boundary
        rng = np.random.default_rng(23)
        features = np.vstack([rng.normal(size=(20, 2)) * 0.3 + centre
                              for centre in ([-2.0, -2.0], [2.0, 2.0], [0.0, 0.0])])
        labels = np.repeat([0, 1, 5], 20)
        cfg = MCDropoutConfig(n_samples=100, dropout_rate=0.5, seed=29)
        ent = entropy_rows(mc_average(toy_net, features, cfg))
        means = {c: float(np.mean(ent[labels == c])) for c in (0, 1, 5)}
        assert means[0] <= 0.1
        assert means[1] <= 0.1
        assert means[5] >= 0.25
