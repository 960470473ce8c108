import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ueprobe.bnn import MeanFieldPosterior, PosteriorChain
from ueprobe.errors import FormatError
from ueprobe.nnet import mlp_init
from ueprobe.store import (
    MAGIC,
    atomic_open,
    load_blob,
    load_chain,
    load_mfvi,
    load_mlp,
    save_blob,
    save_chain,
    save_mfvi,
    save_mlp,
)


class TestBlob:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "b.uep"
        arrays = [np.arange(6.0).reshape(2, 3), np.array([1.5])]
        save_blob(path, "mlp", [3, 2], arrays)
        kind, ints, out = load_blob(path)
        assert kind == "mlp" and ints == [3, 2]
        np.testing.assert_array_equal(out[0], arrays[0])
        np.testing.assert_array_equal(out[1], arrays[1])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.uep"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_blob(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.uep"
        save_blob(path, "mlp", [2, 2], [np.zeros((2, 2))])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_blob(path)

    def test_unknown_kind_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            save_blob(tmp_path / "x.uep", "mystery", [], [])

    def test_magic_is_uep1(self, tmp_path):
        path = tmp_path / "m.uep"
        save_blob(path, "mlp", [], [])
        assert path.read_bytes()[:4] == MAGIC == b"UEP1"


def _header_only_blob(shape, tag=b"mlp"):
    """A UEP1 blob whose single array declares ``shape`` but carries no payload."""
    return (
        MAGIC + bytes([len(tag)]) + tag + struct.pack("<I", 0) + struct.pack("<I", 1)
        + struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
    )


def damaged(data, valid: bytes) -> bytes:
    """Draw a truncation or a single-byte change of ``valid``."""
    if data.draw(st.booleans(), label="truncate"):
        return valid[: data.draw(st.integers(0, len(valid) - 1), label="length")]
    at = data.draw(st.integers(0, len(valid) - 1), label="offset")
    xor = data.draw(st.integers(1, 255), label="xor")
    return valid[:at] + bytes([valid[at] ^ xor]) + valid[at + 1 :]


class TestUntrustedBlob:
    # every declared size is >= 2**40 bytes or overflows 64 bits, so a loader
    # that trusts the header fails before reading rather than allocating
    @pytest.mark.parametrize("shape", [(2**62, 4), (2**33, 2**33), (2**40,)])
    def test_oversized_shape(self, tmp_path, shape):
        path = tmp_path / "big.uep"
        path.write_bytes(_header_only_blob(shape))
        with pytest.raises(FormatError, match="truncated"):
            load_blob(path)

    def test_empty_array_with_unrepresentable_dimension(self, tmp_path):
        path = tmp_path / "zero.uep"
        path.write_bytes(_header_only_blob((0, 2**63)))
        with pytest.raises(FormatError):
            load_blob(path)

    def test_non_ascii_kind(self, tmp_path):
        path = tmp_path / "kind.uep"
        path.write_bytes(_header_only_blob((1,), tag=b"\xed") + b"\x00" * 8)
        with pytest.raises(FormatError, match="unknown kind"):
            load_blob(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_blob_loads_or_raises_format_error(self, tmp_path, data):
        valid = tmp_path / "valid.uep"
        if not valid.exists():
            save_blob(valid, "hmc-chain", [3, 2], [np.arange(6.0).reshape(2, 3), np.array([1.5])])
        path = tmp_path / "damaged.uep"
        path.write_bytes(damaged(data, valid.read_bytes()))
        try:
            load_blob(path)
        except FormatError:
            pass


class TestAtomicWrite:
    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.uep"
        save_blob(path, "mlp", [2], [np.zeros(2)])
        before = path.read_bytes()
        with pytest.raises(ValueError):
            # the header is written before the second array fails to convert
            save_blob(path, "mlp", [2, 2], [np.ones(4), "not a number"])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.uep"]

    def test_exception_mid_write_leaves_no_trace(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path, "w", encoding="utf-8") as f:
                f.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["r.csv"]

    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "r.bin"
        path.write_bytes(b"old")
        with atomic_open(path) as f:
            f.write(b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["r.bin"]


class TestMlpRoundtrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = mlp_init([4, 9, 3], seed=8)
        path = tmp_path / "mlp.uep"
        save_mlp(path, p)
        q = load_mlp(path)
        assert q.layer_sizes == (4, 9, 3)
        for (wp, bp), (wq, bq) in zip(p.layers, q.layers):
            np.testing.assert_array_equal(wp, wq)
            np.testing.assert_array_equal(bp, bq)

    def test_wrong_kind(self, tmp_path):
        q = MeanFieldPosterior(mu=np.zeros(3), rho=np.zeros(3), layer_sizes=(1, 1))
        path = tmp_path / "q.uep"
        save_mfvi(path, q)
        with pytest.raises(FormatError):
            load_mlp(path)


class TestMfviRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        q = MeanFieldPosterior(mu=rng.normal(size=10), rho=rng.normal(size=10),
                               layer_sizes=(2, 2))
        path = tmp_path / "q.uep"
        save_mfvi(path, q)
        out = load_mfvi(path)
        np.testing.assert_array_equal(out.mu, q.mu)
        np.testing.assert_array_equal(out.rho, q.rho)
        assert out.layer_sizes == (2, 2)


class TestChainRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        flags = np.array([True, False, True])
        chain = PosteriorChain(
            samples=rng.normal(size=(3, 5)),
            accept_rate=float(np.mean(flags)),
            energies=rng.normal(size=3),
            accept_flags=flags,
            layer_sizes=(1, 2),
        )
        path = tmp_path / "c.uep"
        save_chain(path, chain)
        out = load_chain(path)
        np.testing.assert_array_equal(out.samples, chain.samples)
        np.testing.assert_array_equal(out.energies, chain.energies)
        np.testing.assert_array_equal(out.accept_flags, flags)
        assert out.accept_rate == chain.accept_rate
        assert out.layer_sizes == (1, 2)
