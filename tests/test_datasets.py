import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idxio import write_idx_images, write_idx_labels
from test_store import damaged
from ueprobe.datasets import (
    Dataset,
    filter_classes,
    grid2d,
    load_idx,
    make_toy2d,
    probe_sweep,
)
from ueprobe.errors import DimensionMismatch, EmptyResult, FormatError


class TestMakeToy2d:
    def test_class_means(self):
        d = make_toy2d(200, seed=3)
        m1 = d.features[d.labels == 1].mean(axis=0)
        m0 = d.features[d.labels == 0].mean(axis=0)
        assert np.all(np.abs(m1 - [2.0, 2.0]) < 0.1)
        assert np.all(np.abs(m0 - [-2.0, -2.0]) < 0.1)

    def test_determinism(self):
        a = make_toy2d(1, seed=11)
        b = make_toy2d(1, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_variance_large_sample(self):
        d = make_toy2d(10_000, seed=5)
        var0 = d.features[d.labels == 0].var(axis=0, ddof=1)
        assert np.all(np.abs(var0 - 0.1) < 0.005)

    def test_mean_convergence_bound(self):
        for n in (100, 1_000, 10_000):
            d = make_toy2d(n, seed=21)
            m1 = d.features[d.labels == 1].mean(axis=0)
            assert np.all(np.abs(m1 - [2.0, 2.0]) < 3.0 * np.sqrt(0.1 / n))

    def test_counts_and_source(self):
        d = make_toy2d(50, seed=0)
        assert d.n_samples == 100
        assert d.source == "toy2d"
        assert np.sum(d.labels == 0) == np.sum(d.labels == 1) == 50

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            make_toy2d(0, seed=0)


class TestGrid2d:
    def test_unit_square(self):
        pts = grid2d(0, 1, 0, 1, 2)
        np.testing.assert_array_equal(pts, [[0, 0], [1, 0], [0, 1], [1, 1]])

    def test_includes_midpoint(self):
        pts = grid2d(-6, 6, -6, 6, 3)
        assert pts.shape == (9, 2)
        assert any(np.array_equal(p, [0.0, 0.0]) for p in pts)

    def test_corners_exact(self):
        pts = grid2d(-6, 6, -6, 6, 100)
        assert pts.shape == (10_000, 2)
        assert pts[:, 0].min() == -6.0 and pts[:, 0].max() == 6.0
        assert pts[:, 1].min() == -6.0 and pts[:, 1].max() == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            grid2d(1, 0, 0, 1, 5)
        with pytest.raises(ValueError):
            grid2d(0, 1, 0, 1, 1)


class TestLoadIdx:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(3, 4, 5)).astype(np.uint8)
        labels = np.array([0, 1, 1], dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "labs", labels)
        d = load_idx(tmp_path / "imgs", tmp_path / "labs")
        assert d.n_samples == 3 and d.n_features == 20
        np.testing.assert_array_equal(d.features, images.reshape(3, 20) / 255.0)
        np.testing.assert_array_equal(d.labels, labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 12)
        write_idx_labels(tmp_path / "labs", np.zeros(1, dtype=np.uint8))
        with pytest.raises(FormatError):
            load_idx(path, tmp_path / "labs")

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((10, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "labs", np.zeros(9, dtype=np.uint8))
        with pytest.raises(FormatError):
            load_idx(tmp_path / "imgs", tmp_path / "labs")

    def test_truncated_payload(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 3, 3), dtype=np.uint8))
        data = (tmp_path / "imgs").read_bytes()
        (tmp_path / "imgs").write_bytes(data[:-4])
        write_idx_labels(tmp_path / "labs", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError):
            load_idx(tmp_path / "imgs", tmp_path / "labs")

    def test_header_sizing_beyond_file(self, tmp_path):
        # n * rows * cols is about 2**64 bytes: rejected before any read
        header = b"".join(v.to_bytes(4, "big") for v in (0x803, 0xFFFFFFFF, 0xFFFF, 0xFFFF))
        (tmp_path / "imgs").write_bytes(header)
        write_idx_labels(tmp_path / "labs", np.zeros(1, dtype=np.uint8))
        with pytest.raises(FormatError, match="truncated image payload"):
            load_idx(tmp_path / "imgs", tmp_path / "labs")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_pair_loads_or_raises_format_error(self, tmp_path, data):
        paths = {"imgs": tmp_path / "imgs", "labs": tmp_path / "labs"}
        write_idx_images(paths["imgs"], np.arange(36, dtype=np.uint8).reshape(3, 3, 4))
        write_idx_labels(paths["labs"], np.array([0, 1, 1], dtype=np.uint8))
        target = paths[data.draw(st.sampled_from(sorted(paths)), label="file")]
        target.write_bytes(damaged(data, target.read_bytes()))
        try:
            load_idx(paths["imgs"], paths["labs"])
        except FormatError:
            pass

    def test_missing_file(self, tmp_path):
        write_idx_labels(tmp_path / "labs", np.zeros(1, dtype=np.uint8))
        with pytest.raises(OSError):
            load_idx(tmp_path / "nope", tmp_path / "labs")


class TestFilterClasses:
    def _tenclass(self):
        rng = np.random.default_rng(1)
        return Dataset(rng.normal(size=(40, 3)), np.repeat(np.arange(10), 4), source="mnist01")

    def test_remaps_lowest_first(self):
        d = filter_classes(self._tenclass(), {7, 3})
        assert d.n_samples == 8
        assert set(d.labels.tolist()) == {0, 1}
        # original 3s come first in the data, and must map to 0
        assert d.labels[0] == 0

    def test_idempotent_on_binary(self):
        d0 = filter_classes(self._tenclass(), {0, 1})
        d1 = filter_classes(d0, {0, 1})
        np.testing.assert_array_equal(d0.features, d1.features)
        np.testing.assert_array_equal(d0.labels, d1.labels)

    def test_order_preserved(self):
        base = self._tenclass()
        d = filter_classes(base, {2, 5})
        expected = base.features[np.isin(base.labels, [2, 5])]
        np.testing.assert_array_equal(d.features, expected)

    def test_empty_result(self):
        binary = filter_classes(self._tenclass(), {0, 1})
        with pytest.raises(EmptyResult):
            filter_classes(binary, {7})

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            filter_classes(self._tenclass(), set())


def pair_sweep(x0, x1, t_grid):
    """probe_sweep's vectors for the one pair (x0 of class 0, x1 of class 1)."""
    d = Dataset(np.stack([x0, x1]), [0, 1], source="probe")
    return [vec for _, _, vec in probe_sweep(d, 1, t_grid, seed=0)]


class TestInterpolate:
    def test_endpoints_exact(self):
        x0 = np.array([0.2, 0.8, 0.5])
        x1 = np.array([0.9, 0.1, 0.3])
        at0, at1 = pair_sweep(x0, x1, [0.0, 1.0])
        np.testing.assert_array_equal(at0, x0)
        np.testing.assert_array_equal(at1, x1)

    def test_midpoint(self):
        (mid,) = pair_sweep(np.array([0.0, 1.0]), np.array([1.0, 0.0]), [0.5])
        np.testing.assert_array_equal(mid, [0.5, 0.5])

    def test_affine_in_t(self):
        rng = np.random.default_rng(8)
        x0, x1 = rng.uniform(size=10), rng.uniform(size=10)
        for a, b in [(-1.0, 2.0), (0.0, 1.0), (0.3, 0.7)]:
            va, vb, vmid = pair_sweep(x0, x1, [a, b, (a + b) / 2.0])
            np.testing.assert_allclose(va + vb, 2.0 * vmid, atol=1e-12)
            # bit for bit the per-point expression, however the sweep is batched
            np.testing.assert_array_equal(va, a * x1 + (1.0 - a) * x0)

    def test_not_clipped(self):
        at2, at_minus1 = pair_sweep(np.array([0.0]), np.array([1.0]), [2.0, -1.0])
        assert at2[0] == 2.0
        assert at_minus1[0] == -1.0


class TestProbeSweep:
    def _binary(self, n=30):
        rng = np.random.default_rng(2)
        return Dataset(
            rng.normal(size=(n, 4)), np.tile([0, 1], n // 2), source="probe"
        )

    def test_hundred_pair_sweep_count(self):
        probes = probe_sweep(self._binary(), 100, np.linspace(-1, 2, 31), seed=4)
        assert len(probes) == 3100
        assert {pid for pid, _, _ in probes} == set(range(100))

    def test_single_pair_t_zero_returns_x0(self):
        d = self._binary()
        probes = probe_sweep(d, 1, [0.0], seed=6)
        assert len(probes) == 1
        _, t, vec = probes[0]
        assert t == 0.0
        class0 = d.features[d.labels == 0]
        assert any(np.array_equal(vec, row) for row in class0)

    def test_determinism(self):
        d = self._binary()
        a = probe_sweep(d, 10, [-1.0, 0.5, 2.0], seed=9)
        b = probe_sweep(d, 10, [-1.0, 0.5, 2.0], seed=9)
        for (pa, ta, va), (pb, tb, vb) in zip(a, b):
            assert pa == pb and ta == tb
            np.testing.assert_array_equal(va, vb)

    def test_missing_class(self):
        d = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), source="probe")
        with pytest.raises(EmptyResult):
            probe_sweep(d, 2, [0.0], seed=1)

    def test_t_out_of_protocol_range(self):
        with pytest.raises(ValueError):
            probe_sweep(self._binary(), 2, [0.0, 2.5], seed=1)


class TestDatasetInvariants:
    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), source="toy2d")

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), source="toy2d")

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, -1]), source="toy2d")

    def test_immutable(self):
        d = make_toy2d(2, seed=1)
        with pytest.raises(ValueError):
            d.features[0, 0] = 99.0
