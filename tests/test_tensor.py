"""One-axis contraction and the binary tensor format."""

import os
import struct

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import tensor as tc


class TestContract:
    """``autodiff.contract`` on plain arrays: ``a``'s one axis against ``b``'s first."""

    def test_identity_contraction(self):
        v = np.array([1.0, 2.0, 3.0])
        out = ad.contract(v, np.eye(3), 0)
        assert np.array_equal(out, v)

    def test_all_ones_sum(self):
        x = np.array([1.0, 2.0])
        w = np.ones((2, 1, 1))
        out = ad.contract(x, w, 0)
        assert out.shape == (1, 1)
        assert out[0, 0] == 3.0

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        out = ad.contract(a, b)
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        assert np.allclose(out, ref, rtol=1e-12, atol=0)

    def test_full_contraction_is_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=6)
        out = ad.contract(a, a, 0)
        assert out.shape == ()
        assert np.isclose(out, (a * a).sum())

    def test_result_axis_order(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 5, 3)), rng.normal(size=(5, 4, 6))
        out = ad.contract(a, b, 1)
        assert out.shape == (2, 3, 4, 6)

    def test_shape_mismatch_names_axis_pair(self):
        with pytest.raises(tc.ShapeError, match=r"axis 1 of shape \(2, 3\) with axis 0 of shape \(4, 5\)"):
            ad.contract(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_axis_out_of_range(self):
        for a, b, axis in ((np.zeros(3), np.zeros(3), 1), (np.zeros(3), np.zeros(3), -1), (np.zeros(3), 1.0, 0)):
            with pytest.raises(tc.ShapeError, match=f"cannot contract axis {axis} "):
                ad.contract(a, b, axis)

    def test_bilinearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
            c = rng.normal(size=(4, 2))
            alpha = rng.normal()
            lhs = ad.contract(alpha * a + b, c)
            rhs = alpha * ad.contract(a, c) + ad.contract(b, c)
            assert np.allclose(lhs, rhs, rtol=1e-12)


class TestLayoutAndSerialization:
    def test_reshape_roundtrip_bit_identical(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=(3, 4, 5))
        again = t.reshape(60).reshape(3, 4, 5)
        assert again.tobytes() == t.tobytes()

    def test_row_major_storage(self):
        t = tc.as_tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.flags["C_CONTIGUOUS"]
        assert np.array_equal(t.reshape(-1), [1, 2, 3, 4])  # last index fastest

    def test_header_layout(self, tmp_path):
        t = np.arange(6, dtype=np.float64).reshape(2, 3)
        tc.save_tensor(tmp_path / "t.ten", t)
        raw = (tmp_path / "t.ten").read_bytes()
        order = struct.unpack_from("<I", raw, 0)[0]
        assert order == 2
        assert struct.unpack_from("<Q", raw, 4)[0] == 2
        assert struct.unpack_from("<Q", raw, 12)[0] == 3
        payload = np.frombuffer(raw, dtype="<f8", offset=20)
        assert np.array_equal(payload, np.arange(6))

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        for shape in [(), (4,), (2, 3), (2, 3, 4, 5)]:
            t = rng.normal(size=shape)
            path = tmp_path / "t.ten"
            tc.save_tensor(path, t)  # over the file the last round's mapped array still holds
            for mapped in (False, True):
                back = tc.load_tensor(path, mapped=mapped)
                assert back.shape == t.shape
                assert back.tobytes() == t.tobytes()

    def test_scalar_representable(self, tmp_path):
        t = tc.as_tensor(7.5)
        assert t.shape == () and t.size == 1
        path = tmp_path / "s.ten"
        tc.save_tensor(path, t)
        assert tc.load_tensor(path) == 7.5
        assert tc.load_tensor(path, mapped=True) == 7.5

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ten"
        tc.save_tensor(path, np.ones((2, 2)))
        raw = path.read_bytes()
        for cut in (raw[:-8], raw[:10]):
            path.write_bytes(cut)
            for mapped in (False, True):
                with pytest.raises(tc.ShapeError):
                    tc.load_tensor(path, mapped=mapped)

    def test_overflowing_dims_fail_length_check(self, tmp_path):
        # 2**32 * 2**32 wraps to 0 in int64; the element count must not
        path = tmp_path / "t.ten"
        path.write_bytes(struct.pack("<I", 2) + struct.pack("<Q", 2**32) * 2)
        for mapped in (False, True):
            with pytest.raises(tc.ShapeError, match="expected"):
                tc.load_tensor(path, mapped=mapped)

    def test_mapped_array_is_a_read_only_view_of_the_file(self, tmp_path):
        t = np.arange(24.0).reshape(2, 3, 4)
        tc.save_tensor(tmp_path / "t.ten", t)
        back = tc.load_tensor(tmp_path / "t.ten", mapped=True)
        assert np.array_equal(back, t) and not back.flags["WRITEABLE"]
        assert not back.flags["ALIGNED"]  # the payload starts at byte 4 + 8*3
        with pytest.raises(ValueError):
            back[0, 0, 0] = 1.0
        gathered = back[np.array([1, 0])]
        assert gathered.flags["WRITEABLE"] and gathered.flags["ALIGNED"] and gathered.flags["C_CONTIGUOUS"]


class TestAtomicSave:
    """save_tensor renames a finished sibling over its target, so a mapping of
    the old file keeps its payload and a failed save keeps the old file."""

    def test_saving_over_a_mapped_file_keeps_the_mapping(self, tmp_path):
        path = tmp_path / "t.ten"
        tc.save_tensor(path, np.arange(6.0))
        mapped = tc.load_tensor(path, mapped=True)
        tc.save_tensor(path, np.ones(3))
        assert np.array_equal(mapped, np.arange(6.0))
        assert np.array_equal(tc.load_tensor(path), np.ones(3))
        assert os.listdir(tmp_path) == ["t.ten"]

    def test_saving_a_mapped_array_over_its_own_file(self, tmp_path):
        path = tmp_path / "t.ten"
        tc.save_tensor(path, np.arange(60.0).reshape(3, 4, 5))
        raw = path.read_bytes()
        tc.save_tensor(path, tc.load_tensor(path, mapped=True))
        assert path.read_bytes() == raw
        assert os.listdir(tmp_path) == ["t.ten"]

    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_save_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "t.ten"
        tc.save_tensor(path, np.arange(6.0))
        raw = path.read_bytes()

        def refuse(*args, **kwargs):
            raise OSError(f"{fail_at} refused")

        if fail_at == "write":
            monkeypatch.setattr(tc.np, "ascontiguousarray", refuse)  # after the header is written
        else:
            monkeypatch.setattr(tc.os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            tc.save_tensor(path, np.ones(3))
        assert path.read_bytes() == raw
        assert os.listdir(tmp_path) == ["t.ten"]


# ---------------------------------------------------------------------------
# save_tensor writes the payload straight from the array; the whole-file
# bytes path it replaced is copied verbatim, renamed old_tensor_to_bytes

def old_tensor_to_bytes(t: np.ndarray) -> bytes:
    """Serialize: order (u32), each dim (u64), then the f64 payload, little-endian."""
    t = tc.as_tensor(t)
    header = struct.pack(tc.MAGIC_HEADER_ORDER, t.ndim)
    header += b"".join(struct.pack(tc.MAGIC_HEADER_DIM, d) for d in t.shape)
    return header + t.astype("<f8").tobytes(order="C")


_GRID = np.arange(24, dtype=np.float64).reshape(4, 6) * 0.37 - 2.5
SAVE_INPUTS = {
    "scalar": 7.5,
    "0-d": np.array(-3.25),
    "empty-0x3": np.zeros((0, 3)),
    "strided-view": _GRID[::2, 1::3],
    "float32": _GRID.astype(np.float32),
    "big-endian": _GRID.astype(">f8"),
    "fortran": np.asfortranarray(_GRID),
    "nested-list": [[1.0, 2.5], [-0.5, 4.0]],
}


@pytest.mark.parametrize("value", SAVE_INPUTS.values(), ids=list(SAVE_INPUTS))
def test_save_tensor_writes_the_old_bytes(tmp_path, value):
    tc.save_tensor(tmp_path / "t.ten", value)
    assert (tmp_path / "t.ten").read_bytes() == old_tensor_to_bytes(value)
