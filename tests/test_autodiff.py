"""Tape mechanics, backward correctness and the finite-difference checker."""

import pathlib
import re

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import data, models, ops, train
from trifuse.fusion import FusionSpec, fuse, init_fusion_params


def test_square_sum_gradient():
    tape = ad.Tape()
    w = tape.variable(np.array([1.0, 2.0, 3.0]))
    loss = ad.sum_all(ad.mul(w, w))
    ad.backward(tape, loss)
    assert np.array_equal(w.grad, [2.0, 4.0, 6.0])


def test_constant_loss_leaves_gradients_zero():
    tape = ad.Tape()
    w = tape.variable(np.ones(4))
    loss = tape.variable(5.0)  # a leaf, so no path from w
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

    def build(pv):
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
        loss = ad.sum_all(ad.mul(ad.contract(a, b), ad.add(a, b)))
        ad.backward(tape, loss)
        return a.grad.tobytes(), b.grad.tobytes()

    assert grads() == grads()


# constant operands of the gradient-buffer cases
X = np.random.default_rng(7).normal(size=(4, 6))
X3 = np.random.default_rng(8).normal(size=(2, 3, 8))


def _block(x, w):
    """One extractor block with unit scale and zero shift; its loss reaches ``w``."""
    out_ch = w.shape[0]
    return ops.conv_bn_relu(x, w, np.zeros(out_ch), np.ones(out_ch), np.zeros(out_ch), ops.BatchNormState.fresh(out_ch))


class TestGradientBuffer:
    """A Variable's ``buffer`` receives its gradient; conv weights and ``contract``'s
    second operand have it written there by the op's GEMM (``ad.grad_out``). Either
    way the bytes are those of the allocating path."""

    @staticmethod
    def _grads(build, values, buffered: bool) -> list[np.ndarray]:
        tape = ad.Tape()
        vs = [tape.variable(v) for v in values]
        if buffered:  # poisoned: an entry nothing writes would show as NaN
            for v in vs:
                v.buffer = np.full_like(v.value, np.nan)
        ad.backward(tape, build(*vs))
        assert all((v.grad is v.buffer) == buffered for v in vs)
        return [v.grad for v in vs]

    CASES = {
        # one weight feeding two nodes: the later node writes the buffer, the earlier adds to it
        "contract-two-nodes": (lambda w: ad.sum_all(ad.mul(ad.contract(X[:, :3], w), ad.contract(X[:, 3:], w))),
                               [(3, 4)]),
        "conv-two-nodes": (lambda w: ad.add(ad.sum_all(_block(X3, w)), ad.sum_all(ad.mul(_block(X3[::-1], w), 2.0))),
                           [(4, 3, 3)]),
        # one Variable as both operands: neither gradient may land in the buffer before the other is added
        "contract-both-operands": (lambda a: ad.sum_all(ad.mul(ad.contract(a, a), X[:, :4])), [(4, 4)]),
        "conv-both-operands": (lambda w: ad.sum_all(_block(w, w)), [(3, 3, 3)]),
        "contract-and-mul": (lambda a, b: ad.sum_all(ad.mul(ad.contract(a, b), ad.add(a, b))), [(4, 4), (4, 4)]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_buffered_gradient_has_the_allocated_bytes(self, name):
        build, shapes = self.CASES[name]
        values = _operands(shapes)
        buffered, allocated = (self._grads(build, values, b) for b in (True, False))
        for got, want in zip(buffered, allocated):
            assert np.all(np.isfinite(got)) and got.tobytes() == want.tobytes()

    def test_grad_out_only_while_the_gradient_is_unset(self):
        tape = ad.Tape()
        v = tape.variable(np.ones((2, 3)))
        assert ad.grad_out(v, (6,)) is None and ad.grad_out(np.ones(6), (6,)) is None
        v.buffer = np.zeros((2, 3))
        out = ad.grad_out(v, (3, 2))
        assert out.shape == (3, 2) and np.shares_memory(out, v.buffer)
        v.grad = v.buffer
        assert ad.grad_out(v, (3, 2)) is None

    def test_a_full_step_writes_nearly_every_entry_in_place(self, monkeypatch):
        accumulate, entries = ad._accumulate, {"in place": 0, "copied": 0}

        def counting(v, g):
            if v.buffer is not None and v.grad is None:
                entries["in place" if np.may_share_memory(g, v.buffer) else "copied"] += v.buffer.size
            accumulate(v, g)

        monkeypatch.setattr(ad, "_accumulate", counting)
        ds = data.synth_dataset(data.SynthSpec("interaction", n_trials=4, noise=0.1), seed=0)
        spec = {"type": "fused", "profile": "full",
                "fusion": {"kind": "PF", "order": 3, "rank": 16, "symmetric": True, "output_dim": 128}}
        model = models.build_from_spec(spec, seed=0)
        train.train(model, ds, (np.arange(4), np.arange(0)), train.TrainConfig(epochs=1, batch_size=4))
        total = sum(p.size for p in model.params.values())
        written = total - 1836  # the conv biases get no gradient
        assert entries["in place"] + entries["copied"] == written
        # copied: the batch-norm scales and shifts and the head bias
        assert entries["in place"] > 0.997 * written, entries


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a, b = t1.variable(np.ones(2)), t2.variable(np.ones(2))
    with pytest.raises(ad.AutodiffError, match="different tapes"):
        ad.add(a, b)


def test_ops_on_plain_arrays_return_arrays():
    out = ad.mul(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, [3.0, 8.0])


# every differentiable op: (node name, call, operand shapes)
OPS = {
    "add": ("add", ad.add, [(3, 4), (4,)]),
    "mul": ("mul", ad.mul, [(3, 4), (3, 4)]),
    "sum_all": ("sum_all", ad.sum_all, [(3,)]),
    "sum_axis": ("sum_axis", lambda a: ad.sum_axis(a, 1), [(3, 4)]),
    "reshape": ("reshape", lambda a: ad.reshape(a, (4, 3)), [(3, 4)]),
    "concat_last": ("concat", lambda *xs: ad.concat_last(list(xs)), [(2, 3), (2, 2), (2, 1)]),
    "relu": ("relu", ad.relu, [(3, 4)]),
    "contract": ("contract", ad.contract, [(2, 3), (3, 4)]),
    "conv1d": ("conv1d", ops.conv1d, [(2, 3, 8), (4, 3, 3), (4,)]),
    "batchnorm_train": ("batchnorm", lambda x, g, b: ops.batchnorm_train(x, g, b, ops.BatchNormState.fresh(3)),
                        [(4, 3, 5), (3,), (3,)]),
    "conv_bn_relu": ("conv_bn_relu",
                     lambda x, w, b, g, be: ops.conv_bn_relu(x, w, b, g, be, ops.BatchNormState.fresh(4)),
                     [(2, 3, 8), (4, 3, 3), (4,), (4,), (4,)]),
    "global_avgpool": ("global_avgpool", ops.global_avgpool, [(2, 3, 5)]),
    "softmax_crossentropy": ("softmax_ce", lambda z: ops.softmax_crossentropy(z, np.array([0, 1, 1])), [(3, 2)]),
    "l2_normalize": ("l2_normalize", ops.l2_normalize, [(3, 4)]),
}


def _operands(shapes):
    rng = np.random.default_rng(0)
    return [rng.normal(size=shape) for shape in shapes]


class TestRecord:
    @pytest.mark.parametrize("name", OPS)
    def test_plain_arrays_give_plain_output(self, name):
        _, op, shapes = OPS[name]
        out = op(*_operands(shapes))
        assert not isinstance(out, ad.Variable)
        assert isinstance(out, (np.ndarray, np.floating))

    @pytest.mark.parametrize("name", OPS)
    def test_one_variable_records_one_node(self, name):
        node_name, op, shapes = OPS[name]
        values = _operands(shapes)
        for pos in range(len(values)):
            tape = ad.Tape()
            var = tape.variable(values[pos])
            operands = [var if i == pos else v for i, v in enumerate(values)]
            out = op(*operands)
            assert len(tape.nodes) == 1
            node = tape.nodes[0]
            assert node.name == node_name and node.out is out and out.tape is tape
            # the parents are the operands themselves: the other ones stay the arrays given
            assert len(node.parents) == len(operands)
            assert all(p is x for p, x in zip(node.parents, operands))

    @pytest.mark.parametrize("name", [n for n, (_, _, shapes) in OPS.items() if len(shapes) > 1])
    def test_operands_on_two_tapes_rejected(self, name):
        _, op, shapes = OPS[name]
        values = _operands(shapes)
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.AutodiffError, match="different tapes"):
            op(t1.variable(values[0]), t2.variable(values[1]), *values[2:])


def test_only_autodiff_records_nodes():
    src = pathlib.Path(ad.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        text = path.read_text()
        assert ".record(" not in text, f"{path.name} records a tape node itself"
        assert not re.search(r"\b(?:ad|autodiff)\._|from \.autodiff import[^\n]*\b_", text), \
            f"{path.name} uses a private autodiff name"


class TestGradCheck:
    def test_constant_function_is_exact(self):
        err = ad.grad_check(lambda pv: 3.0, {"w": np.ones(2)})
        assert err == 0.0

    def test_linear_crossentropy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 0])

        def build(pv):
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

        def build(pv):
            y = fuse(spec, {"w_full": pv["w_full"]}, *zs)
            y2 = ad.reshape(y, (1, 2))
            logits = ops.linear_forward(ops.l2_normalize(y2), pv["head_w"], pv["head_b"])
            return ops.softmax_crossentropy(logits, np.array([1]))

        assert ad.grad_check(build, params, eps=1e-5) < 1e-4

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            ad.grad_check(lambda pv: 0.0, {"w": np.ones(1)}, eps=0.0)

    def test_non_finite_reports_coordinate(self):
        def build(pv):
            # 1/w blows up once the probe crosses zero
            denom = ad.add(pv["w"], -1e-6)
            bad = ad.mul(denom, denom)
            return ad.sum_all(ad.mul(bad, np.array([np.inf, 1.0])))

        with pytest.raises(ad.NonFiniteError, match=r"w\[0\]"):
            ad.grad_check(build, {"w": np.array([0.0, 1.0])})
