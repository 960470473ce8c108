import numpy as np
import pytest

from ueprobe.datasets import Dataset
from ueprobe.errors import DimensionMismatch, Divergence
from ueprobe.nnet import (
    MLPParams,
    TrainConfig,
    accuracy,
    backward,
    _cross_entropy_rows,
    encode,
    ensemble_softmax,
    flatten_params,
    forward,
    mlp_init,
    train,
    unflatten_params,
)
from ueprobe.numerics import LN2, RngStream, softmax

HARNESS_ARCHS = [
    [2, 300, 2],
    [2, 512, 128, 2],
    [784, 600, 20, 2],
    [784, 500, 2],
    [784, 1024, 128, 2],
]


class TestInit:
    def test_deterministic(self):
        a = mlp_init([2, 300, 2], seed=5)
        b = mlp_init([2, 300, 2], seed=5)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_shapes(self):
        p = mlp_init([784, 500, 2], seed=0)
        assert [w.shape for w, _ in p.layers] == [(500, 784), (2, 500)]
        assert p.layer_sizes == (784, 500, 2)

    def test_single_linear_layer(self):
        p = mlp_init([2, 2], seed=0)
        assert len(p.layers) == 1

    def test_glorot_bounds_and_zero_bias(self):
        p = mlp_init([10, 20], seed=3)
        w, b = p.layers[0]
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0.0)

    def test_chaining_validated(self):
        with pytest.raises(DimensionMismatch):
            MLPParams([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 4)), np.zeros(2))])


class TestForward:
    def test_zero_weights_zero_logits(self):
        p = MLPParams([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 3)), np.zeros(2))])
        logits, _ = forward(p, np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(logits, [[0.0, 0.0]])

    def test_zero_dropout_rate_matches_deterministic(self):
        p = mlp_init([4, 8, 2], seed=1)
        x = np.array([[0.5, -0.2, 0.1, 0.9]])
        det, _ = forward(p, x)
        stoch, _ = forward(p, x, dropout_rate=0.0, rng=RngStream(2))
        np.testing.assert_array_equal(det, stoch)

    def test_hand_computed_network(self):
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.1, -0.3])
        w2 = np.array([[2.0, 0.0], [-1.0, 1.0]])
        b2 = np.array([0.0, 0.5])
        p = MLPParams([(w1, b1), (w2, b2)])
        x = np.array([1.0, 2.0])
        h = np.maximum(w1 @ x + b1, 0.0)  # [0, 4.2]
        expected = w2 @ h + b2  # [0, 4.7]
        logits, _ = forward(p, x[None, :])
        np.testing.assert_allclose(logits[0], expected, atol=1e-15)
        np.testing.assert_allclose(logits[0], [0.0, 4.7], atol=1e-15)

    def test_batch_matches_single(self):
        p = mlp_init([3, 5, 2], seed=4)
        xs = np.random.default_rng(0).normal(size=(6, 3))
        batch_logits, _ = forward(p, xs)
        for i in range(6):
            single, _ = forward(p, xs[i : i + 1])
            np.testing.assert_allclose(batch_logits[i], single[0], atol=1e-12)

    def test_dimension_mismatch(self):
        p = mlp_init([3, 2], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(p, np.zeros((1, 4)))

    def test_vector_input_rejected(self):
        p = mlp_init([3, 2], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(p, np.zeros(3))

    def test_inverted_dropout_expectation(self):
        # mean over many masks approximates the deterministic pass within 3 MC SEs
        p = mlp_init([4, 8, 2], seed=6)
        x = np.array([[0.7, -0.4, 1.2, 0.3]])
        det, _ = forward(p, x)
        n = 100_000
        tiled = np.tile(x, (n, 1))
        stoch, _ = forward(p, tiled, dropout_rate=0.5, rng=RngStream(77))
        mc_mean = stoch.mean(axis=0)
        mc_se = stoch.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mc_mean - det[0]) <= 3.0 * mc_se + 1e-12)


def _cross_entropy(logits, label: int) -> float:
    """The cross-entropy of one logit vector, as a one-row batch."""
    return float(_cross_entropy_rows(np.atleast_2d(logits), np.array([label]))[0])


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert abs(_cross_entropy(np.array([0.0, 0.0]), 0) - LN2) < 1e-15

    def test_confident_correct(self):
        # log(1 + exp(-20)) = 2.0611536e-9
        val = _cross_entropy(np.array([10.0, -10.0]), 0)
        assert abs(val - np.log1p(np.exp(-20.0))) < 1e-15
        assert abs(val - 2.06e-9) < 0.01e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=4)
        assert abs(_cross_entropy(z, 2) - _cross_entropy(z + 500.0, 2)) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(20, 3))
        assert np.all(_cross_entropy_rows(logits, rng.integers(0, 3, size=20)) >= 0.0)

    def test_label_range(self):
        with pytest.raises(IndexError):
            _cross_entropy(np.zeros(2), 2)

    def test_rows_match_single_point(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 4)) * 5.0
        labels = rng.integers(0, 4, size=6)
        rows = _cross_entropy_rows(logits, labels)
        expected = [_cross_entropy(z, int(y)) for z, y in zip(logits, labels)]
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_allclose(rows, -np.log(softmax(logits)[np.arange(6), labels]),
                                   atol=1e-12)


class TestEnsembleSoftmax:
    def _members(self, n_members, shape):
        rng = np.random.default_rng(4)
        return [rng.normal(size=shape) * 3.0 for _ in range(n_members)]

    def test_sequential_mean_in_member_order(self):
        logits = self._members(7, (5, 3))
        acc = softmax(logits[0])
        for z in logits[1:]:
            acc = acc + softmax(z)
        np.testing.assert_array_equal(ensemble_softmax(logits.__getitem__, 7), acc / 7)

    def test_single_member_is_its_softmax(self):
        z = self._members(1, (1, 3))[0]
        np.testing.assert_array_equal(ensemble_softmax(lambda m: z, 1), softmax(z) / 1)


class TestBackward:
    def test_single_linear_layer_closed_form(self):
        # gradient of CE through a linear layer is (softmax - onehot) x^T
        p = mlp_init([3, 2], seed=9)
        x = np.array([0.4, -1.0, 2.0])
        label = 1
        logits, _ = forward(p, x[None, :])
        delta = softmax(logits[0])
        delta[label] -= 1.0
        _, grads = backward(p, x, [label])
        np.testing.assert_allclose(grads[0][0], np.outer(delta, x), atol=1e-14)
        np.testing.assert_allclose(grads[0][1], delta, atol=1e-14)

    def test_duplicated_batch_equals_single(self):
        p = mlp_init([3, 6, 2], seed=10)
        x = np.array([0.2, 0.5, -0.7])
        loss1, grads1 = backward(p, x, [1])
        loss2, grads2 = backward(p, np.stack([x, x]), [1, 1])
        assert abs(loss1 - loss2) < 1e-15
        for (dw1, db1), (dw2, db2) in zip(grads1, grads2):
            np.testing.assert_allclose(dw1, dw2, atol=1e-15)
            np.testing.assert_allclose(db1, db2, atol=1e-15)

    def _fd_check(self, sizes, n_coords, seed, weight_decay=0.0):
        rng = np.random.default_rng(seed)
        p = mlp_init(sizes, seed=seed)
        x = rng.normal(size=(8, sizes[0]))
        y = rng.integers(0, sizes[-1], size=8)
        _, grads = backward(p, x, y, weight_decay=weight_decay)
        vec = flatten_params(p)
        gvec = flatten_params(MLPParams(grads))
        eps = 1e-5
        checked = 0
        coords = rng.choice(vec.size, size=min(n_coords, vec.size), replace=False)
        for i in coords:
            def loss_at(delta):
                v = vec.copy()
                v[i] += delta
                loss, _ = backward(unflatten_params(v, sizes), x, y, weight_decay=weight_decay)
                return loss

            if _relu_kink_within(vec, i, eps, sizes, x):
                continue
            fd = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
            denom = max(abs(fd), abs(gvec[i]), 1e-8)
            assert abs(fd - gvec[i]) / denom < 1e-5, f"coord {i} of {sizes}"
            checked += 1
        assert checked >= n_coords * 0.8

    @pytest.mark.parametrize("sizes", HARNESS_ARCHS, ids=str)
    def test_finite_difference_harness_architectures(self, sizes):
        self._fd_check(sizes, n_coords=50, seed=abs(hash(tuple(sizes))) % 2**31)

    def test_finite_difference_with_weight_decay(self):
        self._fd_check([3, 8, 2], n_coords=30, seed=123, weight_decay=0.05)


def _relu_kink_within(vec, i, eps, sizes, x):
    """True when perturbing coordinate i by +-eps flips any hidden ReLU gate."""
    from ueprobe.nnet import forward as fwd, unflatten_params as unflat

    signs = []
    for delta in (eps, -eps):
        v = vec.copy()
        v[i] += delta
        _, cache = fwd(unflat(v, sizes), x)
        signs.append([pre > 0 for pre in cache["preacts"][:-1]])
    return any(
        np.any(a != b) for a, b in zip(signs[0], signs[1])
    )


class TestTrain:
    def test_toy_accuracy(self, toy):
        p = train(mlp_init([2, 300, 2], seed=11), toy,
                  TrainConfig(epochs=50, dropout_rate=0.5, seed=13))
        assert accuracy(p, toy.features, toy.labels) >= 0.99

    def test_linear_model_separates_toy(self, toy):
        p = train(mlp_init([2, 2], seed=1), toy,
                  TrainConfig(learning_rate=0.01, epochs=100, seed=2))
        assert accuracy(p, toy.features, toy.labels) >= 0.99

    def test_bit_identical_reruns(self, toy):
        cfg = TrainConfig(epochs=3, dropout_rate=0.3, seed=21)
        a = train(mlp_init([2, 16, 2], seed=5), toy, cfg)
        b = train(mlp_init([2, 16, 2], seed=5), toy, cfg)
        for (wa, _), (wb, _) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)

    def test_loss_decreases_first_three_epochs(self, toy):
        losses: list = []
        train(mlp_init([2, 32, 2], seed=8), toy,
              TrainConfig(epochs=3, seed=9), loss_history=losses)
        assert len(losses) == 3
        assert losses[1] < losses[0] - 1e-6
        assert losses[2] < losses[1] - 1e-6

    def test_sgd_optimizer_runs(self, toy):
        p = train(mlp_init([2, 8, 2], seed=2), toy,
                  TrainConfig(optimizer="sgd", learning_rate=0.05, epochs=10, seed=3))
        assert accuracy(p, toy.features, toy.labels) >= 0.95

    def test_divergence_detected(self, toy):
        with pytest.raises(Divergence):
            train(mlp_init([2, 8, 2], seed=2), toy,
                  TrainConfig(optimizer="sgd", learning_rate=1e9, epochs=3, seed=3))

    def test_labels_must_fit_output_layer(self, toy):
        bad = Dataset(toy.features, toy.labels + 5, source="toy2d")
        with pytest.raises(ValueError):
            train(mlp_init([2, 8, 2], seed=2), bad, TrainConfig(epochs=1, seed=0))


class TestEncode:
    def test_full_depth_equals_logits(self):
        p = mlp_init([3, 5, 2], seed=4)
        x = np.array([[0.1, 0.2, 0.3]])
        logits, _ = forward(p, x)
        np.testing.assert_array_equal(encode(p, x, 2), logits)

    def test_encoder_dimension(self):
        p = mlp_init([784, 600, 20, 2], seed=0)
        vec = encode(p, np.zeros((1, 784)), 2)
        assert vec.shape == (1, 20)

    def test_zero_input_zero_biases(self):
        p = mlp_init([4, 6, 3], seed=1)
        np.testing.assert_array_equal(encode(p, np.zeros((1, 4)), 1), np.zeros((1, 6)))

    def test_hidden_layers_are_rectified(self):
        p = mlp_init([3, 8, 2], seed=2)
        h = encode(p, np.array([[1.0, -2.0, 0.5]]), 1)
        assert np.all(h >= 0.0)

    def test_matches_a_per_layer_loop_bitwise(self):
        p = mlp_init([5, 16, 8, 2], seed=3)
        x = np.random.default_rng(4).normal(size=(7, 5))
        a = x
        for k, (w, b) in enumerate(p.layers[:2], start=1):
            a = np.maximum(a @ w.T + b, 0.0)
            np.testing.assert_array_equal(encode(p, x, k), a)

    def test_bounds(self):
        p = mlp_init([3, 8, 2], seed=2)
        with pytest.raises(ValueError):
            encode(p, np.zeros((1, 3)), 0)
        with pytest.raises(ValueError):
            encode(p, np.zeros((1, 3)), 3)
        with pytest.raises(DimensionMismatch):
            encode(p, np.zeros(3), 1)


class TestFlatten:
    def test_roundtrip(self):
        p = mlp_init([3, 7, 2], seed=6)
        vec = flatten_params(p)
        q = unflatten_params(vec, [3, 7, 2])
        for (wp, bp), (wq, bq) in zip(p.layers, q.layers):
            np.testing.assert_array_equal(wp, wq)
            np.testing.assert_array_equal(bp, bq)

    def test_size_validation(self):
        with pytest.raises(DimensionMismatch):
            unflatten_params(np.zeros(10), [3, 7, 2])
