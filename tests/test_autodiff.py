"""Tape mechanics, backward correctness and the finite-difference checker."""

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import ops
from trifuse.fusion import FusionSpec, fuse_polynomial, init_fusion_params


def test_square_sum_gradient():
    tape = ad.Tape()
    w = tape.variable(np.array([1.0, 2.0, 3.0]))
    loss = ad.sum_all(ad.mul(w, w))
    ad.backward(tape, loss)
    assert np.array_equal(w.grad, [2.0, 4.0, 6.0])


def test_constant_loss_leaves_gradients_zero():
    tape = ad.Tape()
    w = tape.variable(np.ones(4))
    loss = tape.constant(5.0)
    ad.backward(tape, loss)
    assert w.grad is None
    assert np.array_equal(ad.grad_of(w), np.zeros(4))


def test_non_scalar_loss_rejected():
    tape = ad.Tape()
    w = tape.variable(np.ones(3))
    with pytest.raises(ad.AutodiffError, match="scalar"):
        ad.backward(tape, ad.mul(w, w))


def test_two_layer_network_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 1, 0])
    params = {
        "w1": rng.normal(size=(3, 5)), "b1": rng.normal(size=5),
        "w2": rng.normal(size=(5, 2)), "b2": rng.normal(size=2),
    }

    def build(tape, pv):
        h = ad.relu(ops.linear_forward(x, pv["w1"], pv["b1"]))
        return ops.softmax_crossentropy(ops.linear_forward(h, pv["w2"], pv["b2"]), labels)

    assert ad.grad_check(build, params, eps=1e-5) < 1e-4


def test_gradient_accumulation_over_reuse():
    # a variable consumed twice receives the sum of both contributions
    tape = ad.Tape()
    w = tape.variable(np.array([1.0, -2.0]))
    loss = ad.sum_all(ad.add(ad.mul(w, w), ad.mul(w, w)))
    ad.backward(tape, loss)
    assert np.array_equal(w.grad, 4.0 * w.value)


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(1)
    av, bv = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

    def grads():
        tape = ad.Tape()
        a, b = tape.variable(av), tape.variable(bv)
        loss = ad.sum_all(ad.mul(ad.contract(a, b, [1], [0]), ad.add(a, b)))
        ad.backward(tape, loss)
        return a.grad.tobytes(), b.grad.tobytes()

    assert grads() == grads()


def test_node_ids_unique_and_ordered():
    tape = ad.Tape()
    vs = [tape.variable(np.ones(2)) for _ in range(3)]
    out = ad.add(ad.mul(vs[0], vs[1]), vs[2])
    ids = [v.node_id for v in vs] + [out.node_id]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a, b = t1.variable(np.ones(2)), t2.variable(np.ones(2))
    with pytest.raises(ad.AutodiffError, match="different tapes"):
        ad.add(a, b)


def test_ops_on_plain_arrays_return_arrays():
    out = ad.mul(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, [3.0, 8.0])


class TestGradCheck:
    def test_constant_function_is_exact(self):
        err = ad.grad_check(lambda t, pv: t.constant(3.0), {"w": np.ones(2)})
        assert err == 0.0

    def test_linear_crossentropy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 0])

        def build(tape, pv):
            return ops.softmax_crossentropy(ops.linear_forward(x, pv["w"], pv["b"]), labels)

        err = ad.grad_check(build, {"w": rng.normal(size=(4, 2)), "b": rng.normal(size=2)})
        assert err < 1e-4

    def test_fifth_order_polynomial_classifier(self):
        # full 5th-order fusion on 4-dim toy features, through the head loss
        rng = np.random.default_rng(3)
        spec = FusionSpec("PF", (2, 1, 1), 2, order=5, path="full")
        params = init_fusion_params(spec, rng)
        params.update({"head_w": rng.normal(size=(2, 2)), "head_b": rng.normal(size=2)})
        zs = [rng.normal(size=d) for d in spec.input_dims]

        def build(tape, pv):
            y = fuse_polynomial(*zs, {"w_full": pv["w_full"]}, spec)
            y2 = ad.reshape(y, (1, 2))
            logits = ops.linear_forward(ops.l2_normalize(y2), pv["head_w"], pv["head_b"])
            return ops.softmax_crossentropy(logits, np.array([1]))

        assert ad.grad_check(build, params, eps=1e-5) < 1e-4

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            ad.grad_check(lambda t, pv: t.constant(0.0), {"w": np.ones(1)}, eps=0.0)

    def test_non_finite_reports_coordinate(self):
        def build(tape, pv):
            # 1/w blows up once the probe crosses zero
            denom = ad.add(pv["w"], -1e-6)
            bad = ad.mul(denom, denom)
            return ad.sum_all(ad.mul(bad, tape.constant(np.array([np.inf, 1.0]))))

        with pytest.raises(ad.NonFiniteError, match=r"w\[0\]"):
            ad.grad_check(build, {"w": np.array([0.0, 1.0])})
