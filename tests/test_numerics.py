import math

import numpy as np
import pytest

from ueprobe.errors import DimensionMismatch, NotPositiveDefinite, NumericalError, SingularMatrix
from ueprobe.numerics import (
    LN2,
    RngStream,
    binary_entropy,
    cholesky,
    derive_seed,
    entropy_rows,
    gauss_hermite,
    jittered_cholesky,
    softmax,
    solve_triangular,
    std_normal_cdf,
)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3), atol=0)

    def test_reconstructs_factor(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        l = cholesky(a)
        assert np.max(np.abs(l @ l.T - a)) < 1e-12
        assert np.max(np.abs(np.triu(l, 1))) == 0.0

    def test_indefinite_raises(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_raises(self):
        with pytest.raises(NumericalError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n))
            spd = a.T @ a + np.eye(n)
            l = cholesky(spd)
            err = np.linalg.norm(l @ l.T - spd) / np.linalg.norm(spd)
            assert err < 1e-8

    def test_jittered_handles_rank_deficiency(self):
        ones = np.ones((3, 3))  # PSD but singular
        l, jitter = jittered_cholesky(ones)
        assert jitter > 0
        assert np.linalg.norm(l @ l.T - (ones + jitter * np.eye(3))) < 1e-10

    def test_jittered_gives_up_on_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            jittered_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSolveTriangular:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(solve_triangular(np.eye(3), b), b)

    def test_residual(self):
        l = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        b = np.array([2.0, 1.0])
        x = solve_triangular(l, b, side="lower")
        assert np.max(np.abs(l @ x - b)) < 1e-12

    def test_upper_side(self):
        u = np.array([[2.0, 1.0], [0.0, 3.0]])
        x = solve_triangular(u, np.array([5.0, 6.0]), side="upper")
        assert np.max(np.abs(u @ x - [5.0, 6.0])) < 1e-12

    def test_zero_diagonal_raises(self):
        with pytest.raises(SingularMatrix):
            solve_triangular(np.array([[1.0, 0.0], [2.0, 0.0]]), np.ones(2))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            solve_triangular(np.eye(2), np.ones(2), side="diagonal")


def entropy(p) -> float:
    """Entropy in nats of one probability vector, as a one-row batch."""
    return float(entropy_rows([p])[0])


class TestEntropy:
    def test_uniform_binary(self):
        assert abs(entropy([0.5, 0.5]) - 0.693147) < 1e-6

    def test_point_mass(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_point_mass_is_positive_zero(self):
        # a report writes -0.0 as "-0"
        assert not np.any(np.signbit(entropy_rows([[1.0, 0.0], [0.0, 1.0]])))
        assert not np.signbit(entropy_rows([[0.0, 0.0, 1.0]])[0])
        assert not np.any(np.signbit(binary_entropy(np.array([0.0, 1.0]))))
        assert not np.signbit(binary_entropy(1.0))

    def test_skewed(self):
        # -0.9 ln 0.9 - 0.1 ln 0.1
        assert abs(entropy([0.9, 0.1]) - 0.325083) < 1e-6

    def test_bounds_and_uniform_max(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = int(rng.integers(2, 8))
            p = rng.uniform(size=c)
            p /= p.sum()
            h = entropy(p)
            assert -1e-12 <= h <= np.log(c) + 1e-12
        for c in (2, 3, 5, 10):
            assert abs(entropy(np.full(c, 1.0 / c)) - np.log(c)) < 1e-12
        assert entropy([0.6, 0.4]) < LN2

    def test_rows_and_binary_helpers(self):
        p = np.array([[0.5, 0.5], [1.0, 0.0], [0.9, 0.1]])
        rows = entropy_rows(p)
        skewed = -0.9 * np.log(0.9) - 0.1 * np.log(0.1)
        for row, expected in zip(rows, [LN2, 0.0, skewed]):
            assert abs(row - expected) < 1e-12
        assert abs(binary_entropy(0.1) - skewed) < 1e-15
        np.testing.assert_allclose(binary_entropy(p[:, 1]), rows, atol=1e-15)


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_975_quantile(self):
        assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-8

    def test_far_tail(self):
        assert std_normal_cdf(-8.0) < 1e-14

    def test_symmetry(self):
        for z in np.linspace(-10, 10, 41):
            assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) < 1e-14

    def test_monotone(self):
        zs = np.linspace(-6, 6, 200)
        vals = std_normal_cdf(zs)
        assert np.all(np.diff(vals) > 0)

    def test_against_simpson_quadrature(self):
        # independent oracle: composite Simpson over the density
        def oracle(z, n=200001):
            lo = -40.0
            xs = np.linspace(lo, z, n)
            fx = np.exp(-0.5 * xs * xs) / np.sqrt(2 * np.pi)
            h = (z - lo) / (n - 1)
            return h / 3 * (fx[0] + fx[-1] + 4 * fx[1:-1:2].sum() + 2 * fx[2:-1:2].sum())

        for z in (-2.5, -1.0, 0.3, 1.959964, 3.2):
            assert abs(std_normal_cdf(z) - oracle(z)) < 1e-12


class TestGaussHermite:
    def test_order_one(self):
        nodes, weights = gauss_hermite(1)
        assert abs(nodes[0]) < 1e-15
        assert abs(weights[0] - np.sqrt(np.pi)) < 1e-14

    def test_order_two(self):
        nodes, weights = gauss_hermite(2)
        np.testing.assert_allclose(sorted(nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(weights, np.sqrt(np.pi) / 2, atol=1e-14)

    def test_weight_sum_and_symmetry(self):
        for n in (1, 2, 5, 20, 50, 100):
            nodes, weights = gauss_hermite(n)
            assert abs(weights.sum() - np.sqrt(np.pi)) < 1e-10
            np.testing.assert_allclose(np.sort(nodes), -np.sort(-nodes)[::-1], atol=1e-12)

    def test_gaussian_second_moment(self):
        # E[z^2] under N(0,1) via substitution z = sqrt(2) x
        nodes, weights = gauss_hermite(10)
        moment = np.sum(weights * 2.0 * nodes**2) / np.sqrt(np.pi)
        assert abs(moment - 1.0) < 1e-10

    def test_polynomial_exactness(self):
        # exact for degree <= 2n-1 against analytic Gamma-function moments
        def analytic_moment(k):
            return math.gamma((k + 1) / 2) if k % 2 == 0 else 0.0

        rng = np.random.default_rng(9)
        for n in (2, 4, 7):
            nodes, weights = gauss_hermite(n)
            coeffs = rng.normal(size=2 * n)  # degree 2n - 1
            quad = sum(c * np.sum(weights * nodes**k) for k, c in enumerate(coeffs))
            exact = sum(c * analytic_moment(k) for k, c in enumerate(coeffs))
            assert abs(quad - exact) < 1e-9

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(101)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=0)

    def test_large_logits_no_overflow(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0]), [0.5, 0.5], atol=0)

    def test_direct_value(self):
        out = softmax([2.0, 0.0])
        assert abs(out[0] - 0.880797) < 1e-6
        assert abs(out[1] - 0.119203) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=5)
        np.testing.assert_allclose(softmax(z + 123.0), softmax(z), atol=1e-12)

    def test_batched(self):
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = softmax(z)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-15)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalError):
            softmax([np.inf, 0.0])


class TestRngStream:
    def test_equal_seeds_identical_million_draws(self):
        a = RngStream(123).normal(1_000_000)
        b = RngStream(123).normal(1_000_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normal(100), RngStream(2).normal(100))

    def test_substreams_independent_and_deterministic(self):
        base = RngStream(5)
        s1 = base.substream(0).normal(50)
        s2 = base.substream(1).normal(50)
        assert not np.array_equal(s1, s2)
        np.testing.assert_array_equal(s1, RngStream(5).substream(0).normal(50))

    def test_permutation_deterministic(self):
        np.testing.assert_array_equal(RngStream(9).permutation(100), RngStream(9).permutation(100))

    def test_derive_seed_stable(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")
        assert derive_seed(7, "x") != derive_seed(7, "y")
        assert derive_seed(7, "x") != derive_seed(8, "x")
