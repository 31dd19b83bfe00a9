"""Hot-path kernels against copies of their earlier formulas.

Symmetric PF shares one projection across polynomial positions, batch norm
reuses its centred input and takes a closed-form backward, and Adam updates
through reused scratch rows. Each is held here to the straightforward formula
it replaced: bit-identical where the arithmetic is unchanged, within 1e-12
relative where only the summation order moved.
"""

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import data, fusion, models, ops
from trifuse.fusion import FusionSpec
from trifuse.train import AdamState, adam_step

RTOL = 1e-12


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# symmetric polynomial fusion

@pytest.fixture()
def pf3_case():
    rng = np.random.default_rng(3)
    spec = FusionSpec("PF", (5, 4, 6), 7, rank=3, order=3, symmetric=True)
    params = fusion.init_fusion_params(spec, rng)
    zs = [rng.normal(size=(4, d)) for d in spec.input_dims]
    upstream = rng.normal(size=(4, 7))
    return spec, params, zs, upstream


def _fused_grads(spec, params, zs, upstream):
    tape = ad.Tape()
    pv = {k: tape.variable(v) for k, v in params.items()}
    y = fusion.fuse(spec, pv, *zs)
    ad.backward(tape, ad.sum_all(ad.mul(y, upstream)))
    return y.value, {k: ad.grad_of(v) for k, v in pv.items()}


class TestSymmetricPF:
    def test_forward_equals_tied_nonsymmetric(self, pf3_case):
        spec, params, zs, _ = pf3_case
        tied = FusionSpec("PF", spec.input_dims, spec.output_dim, rank=spec.rank, order=3)
        tied_params = {f"factor{k}": params["factor"] for k in (1, 2, 3)} | {"mix": params["mix"]}
        sym = fusion.fuse(spec, params, *zs)
        ref = fusion.fuse(tied, tied_params, *zs)
        assert rel_err(sym, ref) <= RTOL

    def test_factor_gradient_is_sum_over_positions(self, pf3_case):
        spec, params, zs, upstream = pf3_case
        tied = FusionSpec("PF", spec.input_dims, spec.output_dim, rank=spec.rank, order=3)
        tied_params = {f"factor{k}": params["factor"].copy() for k in (1, 2, 3)} | {"mix": params["mix"]}
        _, sym = _fused_grads(spec, params, zs, upstream)
        _, ref = _fused_grads(tied, tied_params, zs, upstream)
        summed = ref["factor1"] + ref["factor2"] + ref["factor3"]
        assert rel_err(sym["factor"], summed) <= RTOL
        assert rel_err(sym["mix"], ref["mix"]) <= RTOL

    def test_full_profile_pf3_tape_node_count(self):
        ds = data.synth_dataset(data.SynthSpec("interaction", n_trials=2, segments_per_trial=1), seed=0)
        model = models.build_from_spec(
            {"type": "fused", "profile": "full",
             "fusion": {"kind": "PF", "order": 3, "rank": 16, "symmetric": True, "output_dim": 128}})
        model.set_mode("train")
        tape = ad.Tape()
        pv = {k: tape.variable(v) for k, v in model.params.items()}
        logits = model.forward((ds.eeg, ds.oxy, ds.deoxy), pv, update_running=False)
        ops.softmax_crossentropy(logits, ds.labels)
        # 3 extractors x 6 blocks x (conv, bn, relu) + 3 pools, concat, one shared
        # projection, 2 muls, mix, l2, linear (contract, add), softmax-CE
        assert len(tape.nodes) == 66


# ---------------------------------------------------------------------------
# batch norm

def bn_train_reference(xv, gv, bv, state):
    n = xv.shape[0] * xv.shape[2]
    mu = xv.mean(axis=(0, 2))
    var = xv.var(axis=(0, 2))
    ivar = 1.0 / np.sqrt(var + state.eps)
    xhat = (xv - mu[None, :, None]) * ivar[None, :, None]
    out = gv[None, :, None] * xhat + bv[None, :, None]
    m = state.momentum
    state.running_mean *= 1.0 - m
    state.running_mean += m * mu
    state.running_var *= 1.0 - m
    state.running_var += m * var * (n / (n - 1.0))

    def backward(g):
        grad_beta = g.sum(axis=(0, 2))
        grad_gamma = (g * xhat).sum(axis=(0, 2))
        dxhat = g * gv[None, :, None]
        s1 = dxhat.sum(axis=(0, 2))[None, :, None]
        s2 = (dxhat * xhat).sum(axis=(0, 2))[None, :, None]
        grad_x = (ivar[None, :, None] / n) * (n * dxhat - s1 - xhat * s2)
        return grad_x, grad_gamma, grad_beta

    return out, backward


@pytest.fixture()
def bn_case():
    rng = np.random.default_rng(11)
    x = rng.normal(loc=2.0, scale=3.0, size=(5, 4, 9))
    gamma = rng.uniform(0.5, 2.0, size=4)
    beta = rng.normal(size=4)
    upstream = rng.normal(size=x.shape)
    state = ops.BatchNormState(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
    return x, gamma, beta, upstream, state


def _bn_grads(fn, x, gamma, beta, upstream):
    tape = ad.Tape()
    vx, vg, vb = tape.variable(x), tape.variable(gamma), tape.variable(beta)
    y = fn(vx, vg, vb)
    ad.backward(tape, ad.sum_all(ad.mul(y, upstream)))
    return y.value, ad.grad_of(vx), ad.grad_of(vg), ad.grad_of(vb)


class TestBatchNorm:
    def test_train_forward_and_running_stats_bit_identical(self, bn_case):
        x, gamma, beta, _, state = bn_case
        ref_state = state.copy()
        out = ops.batchnorm_train(x, gamma, beta, state)
        ref, _ = bn_train_reference(x, gamma, beta, ref_state)
        assert np.array_equal(out, ref)
        assert np.array_equal(state.running_mean, ref_state.running_mean)
        assert np.array_equal(state.running_var, ref_state.running_var)

    def test_train_gradients(self, bn_case):
        x, gamma, beta, upstream, state = bn_case
        out, gx, gg, gb = _bn_grads(
            lambda a, b, c: ops.batchnorm_train(a, b, c, state, update_running=False),
            x, gamma, beta, upstream)
        ref, ref_backward = bn_train_reference(x, gamma, beta, state.copy())
        assert np.array_equal(out, ref)
        for got, want in zip((gx, gg, gb), ref_backward(upstream)):
            assert rel_err(got, want) <= RTOL

    def test_eval_forward_and_gradients(self, bn_case):
        x, gamma, beta, upstream, state = bn_case
        ivar = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x - state.running_mean[None, :, None]) * ivar[None, :, None]
        ref = gamma[None, :, None] * xhat + beta[None, :, None]
        assert np.array_equal(ops.batchnorm_eval(x, gamma, beta, state), ref)
        out, gx, gg, gb = _bn_grads(
            lambda a, b, c: ops.batchnorm_eval(a, b, c, state), x, gamma, beta, upstream)
        assert np.array_equal(out, ref)
        assert np.array_equal(gx, upstream * (gamma * ivar)[None, :, None])
        assert np.array_equal(gg, (upstream * xhat).sum(axis=(0, 2)))
        assert np.array_equal(gb, upstream.sum(axis=(0, 2)))


# ---------------------------------------------------------------------------
# Adam

def adam_reference(params, grads, state):
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


class TestAdam:
    def test_bit_identical_over_steps(self):
        rng = np.random.default_rng(5)
        shapes = {"conv.w": (6, 3, 5), "bias": (6,), "scalar": (), "head.w": (4, 2), "frozen": (3,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
        for _ in range(5):
            grads = {k: rng.normal(size=s) for k, s in shapes.items() if k != "frozen"}
            adam_step(params, grads, state)
            adam_reference(ref_params, grads, ref_state)
        assert state.step == ref_state.step == 5
        for k in shapes:
            assert np.array_equal(params[k], ref_params[k]), k
            assert np.array_equal(state.m[k], ref_state.m[k]), k
            assert np.array_equal(state.v[k], ref_state.v[k]), k

    def test_non_finite_gradient_raises(self):
        params = {"a": np.ones(4), "b": np.ones(2)}
        with pytest.raises(FloatingPointError, match="'b'"):
            adam_step(params, {"a": np.ones(4), "b": np.array([1.0, np.inf])}, AdamState())
