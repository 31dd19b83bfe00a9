"""Contraction and binary serialization."""

import struct

import numpy as np
import pytest

from trifuse import tensor as tc


class TestContract:
    def test_identity_contraction(self):
        v = np.array([1.0, 2.0, 3.0])
        out = tc.contract(v, np.eye(3), [0], [0])
        assert np.array_equal(out, v)

    def test_all_ones_sum(self):
        x = np.array([1.0, 2.0])
        w = np.ones((2, 1, 1))
        out = tc.contract(x, w, [0], [0])
        assert out.shape == (1, 1)
        assert out[0, 0] == 3.0

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        out = tc.contract(a, b, [1], [0])
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        assert np.allclose(out, ref, rtol=1e-12, atol=0)

    def test_full_contraction_is_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3))
        out = tc.contract(a, a, [0, 1], [0, 1])
        assert out.shape == ()
        assert np.isclose(out, (a * a).sum())

    def test_result_axis_order(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 5, 3)), rng.normal(size=(4, 5, 6))
        out = tc.contract(a, b, [1], [1])
        assert out.shape == (2, 3, 4, 6)

    def test_shape_mismatch_names_axis_pair(self):
        with pytest.raises(tc.ShapeError, match=r"\(1, 0\).*3 != 4"):
            tc.contract(np.zeros((2, 3)), np.zeros((4, 5)), [1], [0])

    def test_duplicate_axes_rejected(self):
        with pytest.raises(tc.ShapeError, match="duplicates"):
            tc.contract(np.zeros((2, 2)), np.zeros((2, 2)), [0, 0], [0, 1])

    def test_axis_out_of_range(self):
        with pytest.raises(tc.ShapeError, match="out of range"):
            tc.contract(np.zeros(3), np.zeros(3), [1], [0])

    def test_bilinearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
            c = rng.normal(size=(4, 2))
            alpha = rng.normal()
            lhs = tc.contract(alpha * a + b, c, [1], [0])
            rhs = alpha * tc.contract(a, c, [1], [0]) + tc.contract(b, c, [1], [0])
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

    def test_header_layout(self):
        t = np.arange(6, dtype=np.float64).reshape(2, 3)
        raw = tc.tensor_to_bytes(t)
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
            tc.save_tensor(path, t)
            back = tc.load_tensor(path)
            assert back.shape == t.shape
            assert back.tobytes() == t.tobytes()

    def test_scalar_representable(self):
        t = tc.as_tensor(7.5)
        assert t.shape == () and t.size == 1
        assert tc.tensor_from_bytes(tc.tensor_to_bytes(t)) == 7.5

    def test_truncated_payload_rejected(self):
        raw = tc.tensor_to_bytes(np.ones((2, 2)))
        with pytest.raises(tc.ShapeError):
            tc.tensor_from_bytes(raw[:-8])
        with pytest.raises(tc.ShapeError):
            tc.tensor_from_bytes(raw[:10])

    def test_overflowing_dims_fail_length_check(self):
        # 2**32 * 2**32 wraps to 0 in int64; the element count must not
        raw = struct.pack("<I", 2) + struct.pack("<Q", 2**32) * 2
        with pytest.raises(tc.ShapeError, match="expected"):
            tc.tensor_from_bytes(raw)
