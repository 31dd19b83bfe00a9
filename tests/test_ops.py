"""Convolution geometry, batch norm, pooling, softmax cross-entropy, L2 norm."""

import mpmath
import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import ops


def naive_conv(x, w, b, stride, padding):
    """Sliding-window reference, straight from the definition."""
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding)))
    oc, ic, k = w.shape
    t_out = (x.shape[1] - k) // stride + 1
    out = np.zeros((oc, t_out))
    for o in range(oc):
        for t in range(t_out):
            out[o, t] = (x[:, t * stride:t * stride + k] * w[o]).sum() + b[o]
    return out


class TestConv1d:
    def test_reference_eeg_geometry(self):
        assert ops.conv_out_length(600, 9, 4, 0) == 148
        assert ops.conv_out_length(148, 3, 1, 0) == 146

    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7))
        w = np.eye(3)[:, :, None]  # 1x1 filters routing channel i to output i
        out = ops.conv1d(x, w, np.zeros(3), stride=1, padding=0)
        assert np.allclose(out, x, rtol=0, atol=0)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2), (4, 0)])
    def test_matches_naive_loop(self, stride, padding):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 10))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        out = ops.conv1d(x, w, b, stride=stride, padding=padding)
        assert np.allclose(out, naive_conv(x, w, b, stride, padding), rtol=1e-12)

    def test_randomized_geometry_property(self):
        # output length follows the floor formula whenever it is >= 1
        rng = np.random.default_rng(2)
        for _ in range(60):
            length = int(rng.integers(1, 40))
            filt = int(rng.integers(1, 10))
            stride = int(rng.integers(1, 5))
            padding = int(rng.integers(0, 4))
            want = (length + 2 * padding - filt) // stride + 1
            x = rng.normal(size=(2, length))
            w = rng.normal(size=(3, 2, filt))
            b = rng.normal(size=3)
            if want < 1:
                with pytest.raises(ops.GeometryError):
                    ops.conv1d(x, w, b, stride=stride, padding=padding)
                continue
            out = ops.conv1d(x, w, b, stride=stride, padding=padding)
            assert out.shape == (3, want)
            assert np.allclose(out, naive_conv(x, w, b, stride, padding), rtol=1e-11)

    def test_infeasible_geometry_names_layer(self):
        with pytest.raises(ops.GeometryError, match="nirs.conv4"):
            ops.conv1d(np.zeros((2, 5)), np.zeros((3, 2, 9)), np.zeros(3), name="nirs.conv4")

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        xb = rng.normal(size=(4, 2, 12))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        out = ops.conv1d(xb, w, b, stride=2)
        for i in range(4):
            assert np.allclose(out[i], ops.conv1d(xb[i], w, b, stride=2), rtol=1e-13)


class TestBatchNorm:
    def test_standardizes_batch(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 10))
        st = ops.BatchNormState.fresh(3)
        out = ops.batchnorm_train(x, np.ones(3), np.zeros(3), st)
        assert np.allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)  # within eps effect

    def test_affine_scale_shift(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 2, 20))
        st = ops.BatchNormState.fresh(2)
        out = ops.batchnorm_train(x, np.full(2, 2.0), np.full(2, 3.0), st)
        assert np.allclose(out.mean(axis=(0, 2)), 3.0, atol=1e-12)
        assert np.allclose(out.std(axis=(0, 2)), 2.0, atol=1e-3)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4, 7))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        st = ops.BatchNormState.fresh(4)
        out = ops.batchnorm_train(x, gamma, beta, st)
        mu = x.mean(axis=(0, 2), keepdims=True)
        var = x.var(axis=(0, 2), keepdims=True)
        ref = gamma[None, :, None] * (x - mu) / np.sqrt(var + st.eps) + beta[None, :, None]
        assert np.allclose(out, ref, rtol=0, atol=1e-10)

    def test_batch_of_one_rejected(self):
        st = ops.BatchNormState.fresh(2)
        with pytest.raises(ValueError, match="batch size"):
            ops.batchnorm_train(np.zeros((1, 2, 5)), np.ones(2), np.zeros(2), st)

    def test_running_stats_updated_only_in_train(self):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=2.0, size=(8, 2, 6))
        st = ops.BatchNormState.fresh(2)
        ops.batchnorm_eval(x, np.ones(2), np.zeros(2), st)
        assert np.array_equal(st.running_mean, np.zeros(2))
        ops.batchnorm_train(x, np.ones(2), np.zeros(2), st)
        n = x.shape[0] * x.shape[2]
        assert np.allclose(st.running_mean, 0.1 * x.mean(axis=(0, 2)))
        assert np.allclose(st.running_var, 0.9 + 0.1 * x.var(axis=(0, 2)) * n / (n - 1))

    def test_eval_is_pure_and_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 5))
        st = ops.BatchNormState(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
        a = ops.batchnorm_eval(x, np.ones(2), np.zeros(2), st)
        b = ops.batchnorm_eval(x, np.ones(2), np.zeros(2), st)
        assert a.tobytes() == b.tobytes()


class TestGlobalAvgPool:
    def test_collapses_time_to_channel_count(self):
        assert ops.global_avgpool(np.zeros((120, 28))).shape == (120,)
        assert ops.global_avgpool(np.zeros((144, 3))).shape == (144,)

    def test_constant_channel_passes_through(self):
        x = np.full((4, 9), 2.5)
        assert np.allclose(ops.global_avgpool(x), 2.5)

    def test_length_invariant_to_time(self):
        rng = np.random.default_rng(9)
        for t in (1, 5, 50):
            assert ops.global_avgpool(rng.normal(size=(7, t))).shape == (7,)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        for label in (0, 1):
            loss = ops.softmax_crossentropy(np.array([[0.0, 0.0]]), [label])
            assert np.isclose(loss, np.log(2.0), rtol=0, atol=1e-15)

    def test_extreme_logits_stable(self):
        loss = ops.softmax_crossentropy(np.array([[1000.0, -1000.0]]), [0])
        assert np.isfinite(loss) and loss < 1e-12
        loss = ops.softmax_crossentropy(np.array([[1000.0, -1000.0]]), [1])
        assert np.isfinite(loss) and loss > 100

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(scale=10.0, size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = ops.softmax_crossentropy(logits, labels)
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for row, lab in zip(logits, labels):
                den = mpmath.fsum([mpmath.exp(mpmath.mpf(v)) for v in row])
                total += -mpmath.log(mpmath.exp(mpmath.mpf(row[lab])) / den)
            ref = float(total / len(labels))
        assert np.isclose(loss, ref, rtol=1e-13)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ops.softmax_crossentropy(np.array([[np.nan, 0.0]]), [0])

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels"):
            ops.softmax_crossentropy(np.zeros((1, 2)), [2])


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(ops.l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector_guarded(self):
        out = ops.l2_normalize(np.zeros(4), eps=1e-12)
        assert np.array_equal(out, np.zeros(4))
        assert np.isfinite(out).all()

    def test_random_vectors_unit_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.normal(size=rng.integers(1, 10))
            out = ops.l2_normalize(v)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_rowwise_on_batches(self):
        rng = np.random.default_rng(13)
        out = ops.l2_normalize(rng.normal(size=(5, 7)))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestReluAndLinear:
    def test_relu_definition(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(ad.relu(x), [0.0, 0.0, 3.0])

    def test_relu_subgradient_zero_at_zero(self):
        tape = ad.Tape()
        x = tape.variable(np.array([0.0, 1.0, -1.0]))
        loss = ad.sum_all(ad.relu(x))
        ad.backward(tape, loss)
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_linear_affine(self):
        rng = np.random.default_rng(14)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        assert np.allclose(ops.linear_forward(x, w, b), x @ w + b, rtol=1e-14)


def test_every_op_backward_under_1e4():
    from trifuse.verify import check_grad_primitives

    ok, detail = check_grad_primitives()
    assert ok, detail
