"""Hot-path kernels against copies of their earlier formulas.

``autodiff.contract`` joins one axis of ``a`` with ``b``'s first instead of
paired axis lists, symmetric PF shares one projection across polynomial
positions, batch norm reuses its centred input and takes a closed-form
backward, Adam updates
chunk by chunk through reused scratch rows, conv1d multiplies a
time-innermost window matrix, each extractor block is one conv + batch norm
+ ReLU op, one ``fusion.fuse`` replaced the per-kind fusion forwards,
``load_tensor`` reads a payload once instead of as bytes plus a copy (or
maps it, with the same checks and errors), and
``models.build_from_spec`` draws every model by walking ``param_shapes``. Each is
held here to the straightforward formula it replaced: bit-identical where the
arithmetic is unchanged, within 1e-12 relative where only the summation order
moved. Adam's folded bias corrections change the rounding of each update, so
the textbook update is held within ``rounding_bound`` and per-dict copies of
the folded update byte for byte.
"""

import copy
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from trifuse import autodiff as ad
from trifuse import data, fusion, models, ops, train
from trifuse import tensor as tc
from trifuse.autodiff import needs_grad, value_of
from trifuse.fusion import MATERIALIZE_LIMIT, FusionSpec, FusionSpecError, MaterializeError
from trifuse.data import _all_finite
from trifuse.train import ADAM_CHUNK, AdamState, adam_step

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
        tape = ad.Tape()
        pv = {k: tape.variable(v) for k, v in model.params.items()}
        logits = model.forward((ds.eeg, ds.oxy, ds.deoxy), pv)
        ops.softmax_crossentropy(logits, ds.labels)
        # 3 extractors x 6 fused conv_bn_relu blocks + 3 pools, concat, one shared
        # projection, 2 muls, mix, l2, linear (contract, add), softmax-CE
        assert len(tape.nodes) == 30


# ---------------------------------------------------------------------------
# one-axis contract, against the general multi-axis contraction it replaced
# (tensor.contract, its _check_axes and autodiff.contract, copied verbatim,
# renamed old_tensor_contract / _old_check_axes / old_contract; old_matmul is
# matmul over it). The per-kind fusion forwards below call these copies.

def _old_check_axes(name: str, axes: Sequence[int], ndim: int) -> list[int]:
    axes = list(axes)
    if len(set(axes)) != len(axes):
        raise tc.ShapeError(f"{name} axis list {axes} contains duplicates")
    for ax in axes:
        if not 0 <= ax < ndim:
            raise tc.ShapeError(f"{name} axis {ax} out of range for order-{ndim} tensor")
    return axes


def old_tensor_contract(a: np.ndarray, b: np.ndarray, axes_a: Sequence[int], axes_b: Sequence[int]) -> np.ndarray:
    """Sum-product contraction of ``a`` and ``b`` over paired axes.

    The result carries the free axes of ``a`` (in order) followed by the free
    axes of ``b``. Contracting all axes of both operands yields a scalar.
    """
    a = tc.as_tensor(a)
    b = tc.as_tensor(b)
    axes_a = _old_check_axes("a", axes_a, a.ndim)
    axes_b = _old_check_axes("b", axes_b, b.ndim)
    if len(axes_a) != len(axes_b):
        raise tc.ShapeError(f"axis lists differ in length: {axes_a} vs {axes_b}")
    for ax_a, ax_b in zip(axes_a, axes_b):
        if a.shape[ax_a] != b.shape[ax_b]:
            raise tc.ShapeError(
                f"cannot contract shapes {a.shape} and {b.shape}: "
                f"axis pair ({ax_a}, {ax_b}) has sizes {a.shape[ax_a]} != {b.shape[ax_b]}"
            )
    return np.tensordot(a, b, axes=(axes_a, axes_b))


def old_contract(a, b, axes_a: Sequence[int], axes_b: Sequence[int]):
    """Differentiable pairwise tensor contraction (see tensor.contract)."""
    av, bv = value_of(a), value_of(b)
    out = old_tensor_contract(av, bv, axes_a, axes_b)
    axes_a, axes_b = list(axes_a), list(axes_b)
    free_a = [ax for ax in range(av.ndim) if ax not in axes_a]
    free_b = [ax for ax in range(bv.ndim) if ax not in axes_b]

    def grad_wrt_a(g):
        # tensordot over the free-b block leaves dims [free_a..., sorted(axes_b)...]
        out_fb = list(range(len(free_a), len(free_a) + len(free_b)))
        raw = np.tensordot(g, bv, axes=(out_fb, free_b))
        sorted_cb = sorted(axes_b)
        src_of_dest = [0] * av.ndim
        for r, ax in enumerate(free_a):
            src_of_dest[ax] = r
        for r, b_ax in enumerate(sorted_cb):
            a_ax = axes_a[axes_b.index(b_ax)]
            src_of_dest[a_ax] = len(free_a) + r
        return np.transpose(raw, src_of_dest)

    def grad_wrt_b(g):
        raw = np.tensordot(av, g, axes=(free_a, list(range(len(free_a)))))
        sorted_ca = sorted(axes_a)
        src_of_dest = [0] * bv.ndim
        for r, a_ax in enumerate(sorted_ca):
            b_ax = axes_b[axes_a.index(a_ax)]
            src_of_dest[b_ax] = r
        for r, ax in enumerate(free_b):
            src_of_dest[ax] = len(sorted_ca) + r
        return np.transpose(raw, src_of_dest)

    def backward_fn(g):
        ga = grad_wrt_a(g) if needs_grad(a) else None
        gb = grad_wrt_b(g) if needs_grad(b) else None
        return ga, gb

    return ad.record("contract", out, (a, b), backward_fn)


def old_matmul(a, b):
    """2-D matrix product as a contraction over the inner axis."""
    return old_contract(a, b, [value_of(a).ndim - 1], [0])


def _contract_case(fn, av, bv, upstream, variables: str):
    """Output and the gradients of the operands named in ``variables`` ("a", "b")."""
    tape = ad.Tape()
    a, b = (tape.variable(v) if name in variables else v for name, v in (("a", av), ("b", bv)))
    y = fn(a, b)
    if not variables:
        return [y]
    ad.backward(tape, ad.sum_all(ad.mul(y, upstream)))
    assert [n.name for n in tape.nodes] == ["contract", "mul", "sum_all"]
    return [y.value] + [ad.grad_of(v) for v in (a, b) if isinstance(v, ad.Variable)]


# (a's shape, b's shape) of every contraction the models make, B=4 d=6 R=3 O=5,
# plus the full-profile PF3 projection (d = 120 + 144 + 144, batch 16)
CONTRACT_SHAPES = {
    "projection [B,d]x[d,R,O]": ((4, 6), (6, 3, 5)),
    "projection full PF3": ((16, 408), (408, 16, 128)),
    "mixdown [B,R,O]x[R]": ((4, 3, 5), (3,)),
    "LF [B,d]x[d,O]": ((4, 6), (6, 5)),
    "full TF [B,d1]x[d1,d2,d3,O]": ((4, 6), (6, 2, 3, 5)),
    "full PF2 [B,d]x[d,d,O]": ((4, 6), (6, 6, 5)),
}
MATMUL_SHAPES = {"head [B,F]x[F,C]": ((4, 6), (6, 2)), "head [F]x[F,C]": ((6,), (6, 2))}


class TestContract:
    @pytest.mark.parametrize("variables", ["ab", "a", "b", ""], ids=["both", "a", "b", "neither"])
    @pytest.mark.parametrize("kind, a_shape, b_shape", [
        ("contract", *shapes) for shapes in CONTRACT_SHAPES.values()] + [
        ("matmul", *shapes) for shapes in MATMUL_SHAPES.values()],
        ids=list(CONTRACT_SHAPES) + list(MATMUL_SHAPES))
    def test_byte_identical_to_general_contraction(self, kind, a_shape, b_shape, variables):
        rng = np.random.default_rng(31)
        av, bv = rng.normal(size=a_shape), rng.normal(size=b_shape)
        new, old = (ad.contract, lambda a, b: old_contract(a, b, [1], [0])) if kind == "contract" else \
            (ad.matmul, old_matmul)
        upstream = rng.normal(size=old(av, bv).shape)
        got, want = (_contract_case(fn, av, bv, upstream, variables) for fn in (new, old))
        assert len(got) == len(want) == 1 + len(variables)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# one fusion forward, against the per-kind forwards it replaced (copied
# verbatim, renamed old_linear / old_tensor / old_polynomial)

def _as_batch(z):
    zv = value_of(z)
    if zv.ndim == 1:
        return ad.reshape(z, (1, zv.shape[0])), True
    if zv.ndim == 2:
        return z, False
    raise FusionSpecError(f"feature input must be order 1 or 2, got shape {zv.shape}")


def _maybe_squeeze(y, single: bool):
    if not single:
        return y
    yv = value_of(y)
    return ad.reshape(y, yv.shape[1:])


def _check_len(z, expected: int, which: str):
    got = value_of(z).shape[-1]
    if got != expected:
        raise FusionSpecError(f"{which} has length {got}, expected {expected}")


def old_linear(z1, z2, z3, params):
    """Concatenate the three feature vectors and apply one weight matrix."""
    w = params["w"]
    d = value_of(w).shape[0]
    z1, s1 = _as_batch(z1)
    z2, _ = _as_batch(z2)
    z3, _ = _as_batch(z3)
    zc = ad.concat_last([z1, z2, z3])
    if value_of(zc).shape[-1] != d:
        raise FusionSpecError(
            f"concatenated length {value_of(zc).shape[-1]} does not match weight rows {d}"
        )
    return _maybe_squeeze(old_matmul(zc, w), s1)


def _mixdown(projs, mix):
    """Elementwise product of [batch, R, O] projections, contracted with mix [R]."""
    h = projs[0]
    for pm in projs[1:]:
        h = ad.mul(h, pm)
    return old_contract(h, mix, [1], [0])


def _full_chain(t, z, n_remaining: int):
    """One step of y = sum_i z_i * t[:, i, ...]: multiply broadcast, then sum axis 1."""
    b, d = value_of(z).shape
    zr = ad.reshape(z, (b, d) + (1,) * n_remaining)
    return ad.sum_axis(ad.mul(t, zr), 1)


def old_tensor(z1, z2, z3, params, path: str = "factorized"):
    """Trilinear fusion: outer(z1, z2, z3) contracted with the weight tensor."""
    z1, s1 = _as_batch(z1)
    z2, _ = _as_batch(z2)
    z3, _ = _as_batch(z3)
    if path == "full":
        w = params["w_full"]
        if value_of(w).size > MATERIALIZE_LIMIT:
            raise MaterializeError(f"full-path weight tensor has {value_of(w).size} entries, over the guard")
        a, b, c, _o = value_of(w).shape
        for z, dim, tag in ((z1, a, "z1"), (z2, b, "z2"), (z3, c, "z3")):
            _check_len(z, dim, tag)
        t = old_contract(z1, w, [1], [0])  # [batch, B, C, O]
        t = _full_chain(t, z2, 2)  # [batch, C, O]
        t = _full_chain(t, z3, 1)  # [batch, O]
        return _maybe_squeeze(t, s1)
    if path != "factorized":
        raise FusionSpecError(f"unknown path {path!r}")
    f1, f2, f3, mix = params["factor1"], params["factor2"], params["factor3"], params["mix"]
    _check_len(z1, value_of(f1).shape[0], "z1")
    _check_len(z2, value_of(f2).shape[0], "z2")
    _check_len(z3, value_of(f3).shape[0], "z3")
    projs = [old_contract(z, f, [1], [0]) for z, f in ((z1, f1), (z2, f2), (z3, f3))]
    return _maybe_squeeze(_mixdown(projs, mix), s1)


def _old_concat(z1, z2, z3, spec: FusionSpec):
    z1, s1 = _as_batch(z1)
    z2, _ = _as_batch(z2)
    z3, _ = _as_batch(z3)
    for z, dim, tag in zip((z1, z2, z3), spec.input_dims, ("z1", "z2", "z3")):
        _check_len(z, dim, tag)
    parts = [z1, z2, z3]
    if spec.augment_one:
        batch = value_of(z1).shape[0]
        ones = np.ones((batch, 1))
        parts = [ones] + parts
    return ad.concat_last(parts), s1


def old_polynomial(z1, z2, z3, params, spec: FusionSpec):
    """Degree-p fusion of the concatenated feature vector."""
    if spec.kind != "PF":
        raise FusionSpecError(f"old_polynomial needs a PF spec, got {spec.kind}")
    zc, s1 = _old_concat(z1, z2, z3, spec)
    p = spec.order
    if spec.path == "full":
        spec.check_materializable("full-path weight tensor")
        w = params["w_full"]
        t = old_contract(zc, w, [1], [0])  # [batch, d^(p-1)..., O]
        for k in range(2, p + 1):
            t = _full_chain(t, zc, p - k + 1)
        return _maybe_squeeze(t, s1)
    if spec.symmetric:
        # one shared projection, multiplied by itself p times; backward sums
        # the p upstream gradients into it before one factor contraction
        projs = [old_contract(zc, params["factor"], [1], [0])] * p
    else:
        projs = [old_contract(zc, params[f"factor{k}"], [1], [0]) for k in range(1, p + 1)]
    return _maybe_squeeze(_mixdown(projs, params["mix"]), s1)


def fuse_reference(spec: FusionSpec, params, z1, z2, z3):
    """Dispatch on the fusion kind; output is the pre-normalization fused vector."""
    if spec.kind == "LF":
        return old_linear(z1, z2, z3, params)
    if spec.kind == "TF":
        return old_tensor(z1, z2, z3, params, path=spec.path)
    return old_polynomial(z1, z2, z3, params, spec)


def _fusion_specs():
    """Every valid spec over kind x path x order 1-3 x symmetric x augment_one."""
    for kind in fusion.KINDS:
        pf = kind == "PF"
        for path in fusion.PATHS:
            for order in (1, 2, 3) if pf else (1,):
                for symmetric in (False, True) if pf else (False,):
                    for augment_one in (False, True) if pf else (False,):
                        yield FusionSpec(kind, (3, 2, 4), 5, rank=3, order=order,
                                         symmetric=symmetric, path=path, augment_one=augment_one)


def _spec_id(s: FusionSpec) -> str:
    return f"{s.kind}-{s.path}-p{s.order}{'-sym' if s.symmetric else ''}{'-aug' if s.augment_one else ''}"


def _traced_fusion(fn, spec, params, zs, upstream):
    """Output, gradients of every parameter and input, and (name, shape) of every tape node."""
    tape = ad.Tape()
    pv = {k: tape.variable(v) for k, v in params.items()}
    zv = [tape.variable(z) for z in zs]
    y = fn(spec, pv, *zv)
    ad.backward(tape, ad.sum_all(ad.mul(y, upstream)))
    grads = {k: ad.grad_of(v) for k, v in pv.items()} | {f"z{i}": ad.grad_of(v) for i, v in enumerate(zv, 1)}
    return y.value, grads, [(n.name, n.out.shape) for n in tape.nodes]


class TestFuse:
    @pytest.mark.parametrize("batched", [False, True], ids=["len", "batch-len"])
    @pytest.mark.parametrize("spec", list(_fusion_specs()), ids=_spec_id)
    def test_matches_per_kind_forward(self, spec, batched):
        rng = np.random.default_rng(29)
        params = fusion.init_fusion_params(spec, rng)
        params = {k: rng.normal(size=v.shape) for k, v in params.items()}
        lead = (4,) if batched else ()
        zs = [rng.normal(size=lead + (d,)) for d in spec.input_dims]
        upstream = rng.normal(size=lead + (spec.output_dim,))
        y, grads, nodes = _traced_fusion(fusion.fuse, spec, params, zs, upstream)
        y_ref, grads_ref, nodes_ref = _traced_fusion(fuse_reference, spec, params, zs, upstream)
        assert np.array_equal(y, y_ref)
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            assert np.array_equal(g, grads_ref[name]), name
        assert nodes == nodes_ref

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_dense_weight_shape_is_checked(self, axis):
        # a size-1 axis would broadcast through the chained multiply without an error
        spec = FusionSpec("TF", (3, 3, 3), 2, path="full")
        shape = [3, 3, 3, 2]
        shape[axis] = 1
        zs = [np.ones(3)] * 3
        with pytest.raises(FusionSpecError):
            fusion.fuse(spec, {"w_full": np.ones(shape)}, *zs)

    @pytest.mark.parametrize("spec, name, shape", [
        (FusionSpec("TF", (3, 4, 5), 2, rank=3), "factor2", (4, 3, 1)),
        (FusionSpec("TF", (3, 4, 5), 2, rank=3), "mix", (1,)),
        (FusionSpec("PF", (3, 4, 5), 2, rank=3, order=2, symmetric=True), "factor", (12, 1, 2)),
        (FusionSpec("PF", (3, 4, 5), 2, rank=3, order=2), "factor1", (1, 3, 2)),
    ], ids=["tf-factor2", "tf-mix", "pf-sym-factor", "pf-factor1"])
    def test_factor_shape_is_checked(self, spec, name, shape):
        # like a dense weight, a size-1 factor axis would broadcast through _mixdown
        params = fusion.init_fusion_params(spec, np.random.default_rng(0)) | {name: np.ones(shape)}
        zs = [np.ones(d) for d in spec.input_dims]
        with pytest.raises(FusionSpecError, match=name):
            fusion.fuse(spec, params, *zs)


# ---------------------------------------------------------------------------
# conv1d

def _im2col_reference(x, filt, stride, padding):
    """[B, C, T] -> [B*T_out, C*filt] window matrix (one contiguous copy)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    else:
        x = np.ascontiguousarray(x)
    b, c, t = x.shape
    t_out = (t - filt) // stride + 1
    sb, sc, st = x.strides
    windows = as_strided(x, shape=(b, t_out, c, filt), strides=(sb, st * stride, sc, st))
    return np.ascontiguousarray(windows).reshape(b * t_out, c * filt)


def conv_reference(xv, wv, bv, stride, padding):
    """The sample-major im2col conv1d: output and a backward returning all three gradients."""
    single = xv.ndim == 2
    xb = xv[None] if single else xv
    out_ch, in_ch, filt = wv.shape
    t_in = xb.shape[2]
    t_out = ops.conv_out_length(t_in, filt, stride, padding)
    batch = xb.shape[0]
    cols = _im2col_reference(xb, filt, stride, padding)
    w2 = wv.reshape(out_ch, in_ch * filt)
    out = (cols @ w2.T + bv[None, :]).reshape(batch, t_out, out_ch).transpose(0, 2, 1)
    out = np.ascontiguousarray(out)
    if single:
        out = out[0]
    t_pad = t_in + 2 * padding

    def backward(g):
        gb3 = g[None] if single else g
        grad_bias = gb3.sum(axis=(0, 2))
        g_mat = np.ascontiguousarray(gb3.transpose(0, 2, 1)).reshape(batch * t_out, out_ch)
        grad_w = (g_mat.T @ cols).reshape(wv.shape)
        gwin = (g_mat @ w2).reshape(batch, t_out, in_ch, filt)
        gxp = np.zeros((batch, in_ch, t_pad))
        for k in range(filt):
            gxp[:, :, k:k + stride * t_out:stride] += gwin[:, :, :, k].transpose(0, 2, 1)
        grad_x = gxp[:, :, padding:padding + t_in]
        if single:
            grad_x = grad_x[0]
        return grad_x, grad_w, grad_bias

    return out, backward


def _full_profile_layers():
    """(in_ch, out_ch, length, filter, stride, padding) of every full-profile conv."""
    lengths = {"eeg": data.EEG_WINDOW, "oxy": data.NIRS_WINDOW, "deoxy": data.NIRS_WINDOW}
    layers = []
    for modality in models.MODALITIES:
        plan = models.extractor_plan(modality, "full")
        ch, t = plan["in_channels"], lengths[modality]
        for blk, t_next in zip(plan["blocks"], models.time_chain(plan, t)):
            layers.append(pytest.param(
                ch, blk["out_channels"], t, blk["filter"], blk["stride"], blk["padding"],
                id=f"{modality}-{ch}x{t}-k{blk['filter']}s{blk['stride']}"))
            ch, t = blk["out_channels"], t_next
    return layers


FULL_PROFILE_LAYERS = _full_profile_layers()


def _conv_grads(x, w, b, upstream, stride, padding):
    tape = ad.Tape()
    vx, vw, vb = tape.variable(x), tape.variable(w), tape.variable(b)
    y = ops.conv1d(vx, vw, vb, stride=stride, padding=padding)
    ad.backward(tape, ad.sum_all(ad.mul(y, upstream)))
    return y.value, ad.grad_of(vx), ad.grad_of(vw), ad.grad_of(vb)


def _check_conv_against_reference(x, out_ch, filt, stride, padding, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(out_ch, x.shape[-2], filt))
    b = rng.normal(size=out_ch)
    ref, ref_backward = conv_reference(x, w, b, stride, padding)
    upstream = rng.normal(size=ref.shape)
    got = _conv_grads(x, w, b, upstream, stride, padding)
    for g, want in zip(got, (ref, *ref_backward(upstream))):
        assert g.shape == want.shape
        assert rel_err(g, want) <= RTOL


class TestConv1d:
    def test_full_profile_layers_count(self):
        assert len(FULL_PROFILE_LAYERS) == 18

    @pytest.mark.parametrize("in_ch, out_ch, length, filt, stride, padding", FULL_PROFILE_LAYERS)
    def test_full_profile_geometry_matches_reference(self, in_ch, out_ch, length, filt, stride, padding):
        x = np.random.default_rng(length + in_ch).normal(size=(2, in_ch, length))
        _check_conv_against_reference(x, out_ch, filt, stride, padding, seed=filt * 10 + stride)

    def test_padded_matches_reference(self):
        x = np.random.default_rng(21).normal(size=(3, 4, 11))
        _check_conv_against_reference(x, 5, filt=3, stride=2, padding=1, seed=22)

    def test_single_sample_matches_reference(self):
        x = np.random.default_rng(23).normal(size=(4, 13))
        _check_conv_against_reference(x, 6, filt=3, stride=1, padding=0, seed=24)

    @pytest.mark.parametrize("shape", [(2, 3, 10), (3, 10)], ids=["batched", "single"])
    def test_output_is_c_contiguous(self, shape):
        rng = np.random.default_rng(25)
        x, w, b = rng.normal(size=shape), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
        assert ops.conv1d(x, w, b, stride=2, padding=1).flags.c_contiguous
        tape = ad.Tape()
        y = ops.conv1d(x, tape.variable(w), tape.variable(b), stride=2, padding=1)
        assert y.value.flags.c_contiguous

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(26)
        x, w, b = rng.normal(size=(2, 3, 10)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
        tape = ad.Tape()
        y = ops.conv1d(x, tape.variable(w), tape.variable(b))
        (node,) = tape.nodes
        grad_x, grad_w, grad_b = node.backward_fn(np.ones_like(y.value))
        assert grad_x is None
        assert grad_w.shape == w.shape and grad_b.shape == b.shape


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
        ref_state = copy.deepcopy(state)
        out = ops.batchnorm_train(x, gamma, beta, state)
        ref, _ = bn_train_reference(x, gamma, beta, ref_state)
        assert np.array_equal(out, ref)
        assert np.array_equal(state.running_mean, ref_state.running_mean)
        assert np.array_equal(state.running_var, ref_state.running_var)

    def test_train_gradients(self, bn_case):
        x, gamma, beta, upstream, state = bn_case
        out, gx, gg, gb = _bn_grads(
            lambda a, b, c: ops.batchnorm_train(a, b, c, state),
            x, gamma, beta, upstream)
        ref, ref_backward = bn_train_reference(x, gamma, beta, copy.deepcopy(state))
        assert np.array_equal(out, ref)
        for got, want in zip((gx, gg, gb), ref_backward(upstream)):
            assert rel_err(got, want) <= RTOL

    def test_eval_forward(self, bn_case):
        x, gamma, beta, _, state = bn_case
        ivar = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x - state.running_mean[None, :, None]) * ivar[None, :, None]
        ref = gamma[None, :, None] * xhat + beta[None, :, None]
        assert np.array_equal(ops.batchnorm_eval(x, gamma, beta, state), ref)
        assert np.array_equal(ops.batchnorm_eval(x[1], gamma, beta, state), ref[1])


# ---------------------------------------------------------------------------
# one extractor block, against the conv -> batch norm -> ReLU path it replaced
# (copied verbatim, renamed old_*, with module prefixes on the names they share)

def old_conv1d(x, w, bias, stride: int = 1, padding: int = 0, name: str = "conv1d"):
    """Cross-correlation along time. ``w`` is [out_ch, in_ch, filter]."""
    xv, wv, bv = value_of(x), value_of(w), value_of(bias)
    single = xv.ndim == 2
    xb = xv[None] if single else xv
    out_ch, in_ch, filt = wv.shape
    if xb.ndim != 3 or xb.shape[1] != in_ch:
        raise ValueError(f"{name}: input shape {xv.shape} does not match {in_ch} input channels")
    t_in = xb.shape[2]
    t_out = ops.conv_out_length(t_in, filt, stride, padding)
    if t_out < 1:
        raise ops.GeometryError(
            f"{name}: infeasible geometry, input length {t_in} with filter {filt}, "
            f"stride {stride}, padding {padding} gives output length {t_out}"
        )
    batch = xb.shape[0]
    cols = ops._windows(xb, filt, stride, padding)  # [C*K, B*T_out]
    w2 = wv.reshape(out_ch, in_ch * filt)
    y = (w2 @ cols).reshape(out_ch, batch, t_out)
    # out= keeps the result C-ordered; without it numpy keeps y's [O, B, T] order
    out = np.add(y.transpose(1, 0, 2), bv[None, :, None], out=np.empty((batch, out_ch, t_out)))
    if single:
        out = out[0]

    def backward_fn(g):
        gb3 = g[None] if single else g
        grad_bias = gb3.sum(axis=(0, 2)) if needs_grad(bias) else None
        g2 = None
        if needs_grad(w) or needs_grad(x):
            g2 = np.ascontiguousarray(gb3.transpose(1, 0, 2)).reshape(out_ch, batch * t_out)
        grad_w = (g2 @ cols.T).reshape(wv.shape) if needs_grad(w) else None
        grad_x = None
        if needs_grad(x):
            gwin = (w2.T @ g2).reshape(in_ch, filt, batch, t_out)
            gxp = np.zeros((batch, in_ch, t_in + 2 * padding))
            for k in range(filt):
                gxp[:, :, k:k + stride * t_out:stride] += gwin[:, k].transpose(1, 0, 2)
            grad_x = gxp[:, :, padding:padding + t_in]
            if single:
                grad_x = grad_x[0]
        return grad_x, grad_w, grad_bias

    return ad.record(name, out, (x, w, bias), backward_fn)


def old_batchnorm_train(x, gamma, beta, state: ops.BatchNormState):
    """Standardize by batch statistics over (batch, time), then scale/shift;
    moves the running statistics toward the batch's in place."""
    xv = value_of(x)
    if xv.ndim != 3:
        raise ValueError(f"batchnorm expects [batch, channels, time], got shape {xv.shape}")
    if xv.shape[0] < 2:
        raise ValueError("batchnorm train mode needs batch size >= 2")
    n = xv.shape[0] * xv.shape[2]
    mu = xv.mean(axis=(0, 2))
    # centred input serves the variance (the same sums np.var makes) and xhat
    xhat = xv - mu[None, :, None]
    out = np.multiply(xhat, xhat)
    var = out.sum(axis=(0, 2)) / n
    ivar = 1.0 / np.sqrt(var + state.eps)
    xhat *= ivar[None, :, None]
    gv, bv = value_of(gamma), value_of(beta)
    np.multiply(xhat, gv[None, :, None], out=out)
    out += bv[None, :, None]

    m = state.momentum
    state.running_mean *= 1.0 - m
    state.running_mean += m * mu
    state.running_var *= 1.0 - m
    state.running_var += m * var * (n / (n - 1.0))  # unbiased for running stats

    def backward_fn(g):
        grad_beta = g.sum(axis=(0, 2))
        gx = g * xhat
        grad_gamma = gx.sum(axis=(0, 2))
        grad_x = None
        if needs_grad(x):
            # (ivar/n) * (n*gamma*g - s1 - xhat*s2), s1 = gamma*grad_beta, s2 = gamma*grad_gamma
            coef = gv * ivar / n
            np.multiply(xhat, (coef * grad_gamma)[None, :, None], out=gx)
            gx += (coef * grad_beta)[None, :, None]
            grad_x = np.multiply(g, (n * coef)[None, :, None])
            grad_x -= gx
        return (grad_x, grad_gamma if needs_grad(gamma) else None,
                grad_beta if needs_grad(beta) else None)

    return ad.record("batchnorm", out, (x, gamma, beta), backward_fn)


def old_relu(a):
    av = value_of(a)

    def backward_fn(g):
        return (g * (av > 0),)  # subgradient at 0 is 0

    return ad.record("relu", np.maximum(av, 0.0), (a,), backward_fn)


def old_block(h, w, b, gamma, beta, st, stride, padding):
    """One block of the old ``ModelGraph._extract`` loop, in training."""
    h = old_conv1d(h, w, b, stride=stride, padding=padding)
    h = old_batchnorm_train(h, gamma, beta, st)
    return old_relu(h)


def _tiny_plan_layers():
    """(in_ch, out_ch, length, filter, stride, padding) of every tiny-plan conv."""
    layers = []
    for modality in ("eeg", "oxy"):  # deoxy shares oxy's plan
        plan = models.TINY_PLANS[modality]
        ch, t = plan["in_channels"], models.TINY_INPUT_LENGTHS[modality]
        for blk, t_next in zip(plan["blocks"], models.time_chain(plan, t)):
            layers.append(pytest.param(ch, blk["out_channels"], t, blk["filter"], blk["stride"], blk["padding"],
                                       id=f"tiny-{modality}-{ch}x{t}-k{blk['filter']}s{blk['stride']}"))
            ch, t = blk["out_channels"], t_next
    return layers


def _block_case(in_ch, out_ch, length, filt, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, in_ch, length))
    w = rng.normal(size=(out_ch, in_ch, filt)) / np.sqrt(in_ch * filt)
    b = rng.normal(size=out_ch)
    gamma, beta = rng.uniform(0.5, 2.0, size=out_ch), rng.normal(size=out_ch)
    state = ops.BatchNormState(rng.normal(size=out_ch), rng.uniform(0.5, 2.0, size=out_ch))
    return x, w, b, gamma, beta, state, rng


def _block_grads(block, x, w, b, gamma, beta, state, upstream, x_is_variable):
    tape = ad.Tape()
    vx = tape.variable(x) if x_is_variable else x
    pv = [tape.variable(a) for a in (w, b, gamma, beta)]
    y = block(vx, *pv, state)
    ad.backward(tape, ad.sum_all(ad.mul(y, upstream)))
    return y.value, (ad.grad_of(vx) if x_is_variable else None), *(ad.grad_of(v) for v in pv)


class TestConvBnRelu:
    @pytest.mark.parametrize("in_ch, out_ch, length, filt, stride, padding",
                             FULL_PROFILE_LAYERS + _tiny_plan_layers())
    @pytest.mark.parametrize("x_is_variable", [True, False], ids=["x-var", "x-const"])
    def test_matches_three_op_path(self, in_ch, out_ch, length, filt, stride, padding, x_is_variable):
        x, w, b, gamma, beta, state, rng = _block_case(in_ch, out_ch, length, filt, 16, seed=length + filt)
        ref_state = copy.deepcopy(state)
        t_out = ops.conv_out_length(length, filt, stride, padding)
        upstream = rng.normal(size=(16, out_ch, t_out))
        got = _block_grads(lambda *a: ops.conv_bn_relu(*a, stride=stride, padding=padding),
                           x, w, b, gamma, beta, state, upstream, x_is_variable)
        want = _block_grads(lambda *a: old_block(*a, stride, padding),
                            x, w, b, gamma, beta, ref_state, upstream, x_is_variable)
        for name, g, ref in zip(("out", "grad_x", "grad_w", "grad_b", "grad_gamma", "grad_beta"), got, want):
            if name == "grad_x" and not x_is_variable:
                assert g is None and ref is None
            elif name == "grad_b":
                # the bias cancels under batch norm: the old gradient was rounding noise
                assert not np.any(g)
                assert np.max(np.abs(ref)) <= 1e-12 * np.max(np.abs(want[2]))
            else:
                assert g.shape == ref.shape, name
                assert rel_err(g, ref) <= RTOL, name
        assert rel_err(state.running_mean, ref_state.running_mean) <= RTOL
        assert rel_err(state.running_var, ref_state.running_var) <= RTOL

    def test_returns_no_bias_gradient(self):
        x, w, b, gamma, beta, state, _ = _block_case(3, 4, 10, 3, 2, seed=1)
        tape = ad.Tape()
        y = ops.conv_bn_relu(x, tape.variable(w), tape.variable(b), gamma, beta, state)
        (node,) = tape.nodes
        grad_x, grad_w, grad_b, grad_gamma, grad_beta = node.backward_fn(np.ones_like(y.value))
        assert grad_x is None and grad_b is None and grad_gamma is None and grad_beta is None
        assert grad_w.shape == w.shape

    def test_output_is_a_view_of_the_channel_major_product(self):
        x, w, b, gamma, beta, state, _ = _block_case(3, 4, 10, 3, 2, seed=2)
        y = ops.conv_bn_relu(x, w, b, gamma, beta, state)
        assert y.shape == (2, 4, 8) and y.base is not None and y.base.shape == (4, 16)
        y_eval = ops.conv_bn_relu_eval(x, w, b, gamma, beta, state)
        assert y_eval.shape == (2, 4, 8) and y_eval.base is not None
        tape = ad.Tape()  # a tape Variable holds the view itself, not a copy
        y_var = ops.conv_bn_relu(tape.variable(x), w, b, gamma, beta, state)
        assert y_var.value.base is not None and not y_var.value.flags.c_contiguous

    def test_needs_a_batch(self):
        x, w, b, gamma, beta, state, _ = _block_case(3, 4, 10, 3, 1, seed=3)
        with pytest.raises(ValueError, match="batch size >= 2"):
            ops.conv_bn_relu(x, w, b, gamma, beta, state)
        with pytest.raises(ValueError, match=r"batch, channels, time"):
            ops.conv_bn_relu(x[0], w, b, gamma, beta, state)

    @pytest.mark.parametrize("in_ch, out_ch, length, filt, stride, padding",
                             FULL_PROFILE_LAYERS + _tiny_plan_layers())
    def test_eval_matches_three_op_path(self, in_ch, out_ch, length, filt, stride, padding):
        x, w, b, gamma, beta, state, _ = _block_case(in_ch, out_ch, length, filt, 4, seed=length * filt)
        ref = ad.relu(ops.batchnorm_eval(ops.conv1d(x, w, b, stride=stride, padding=padding), gamma, beta, state))
        got = ops.conv_bn_relu_eval(x, w, b, gamma, beta, state, stride=stride, padding=padding)
        assert got.shape == ref.shape and rel_err(got, ref) <= RTOL
        one = ops.conv_bn_relu_eval(x[1], w, b, gamma, beta, state, stride=stride, padding=padding)
        assert one.shape == ref[1].shape and rel_err(one, ref[1]) <= RTOL

    def test_eval_reads_the_current_parameters(self):
        # nothing is cached between calls: moving a parameter moves the next output
        x, w, b, gamma, beta, state, _ = _block_case(3, 4, 10, 3, 2, seed=4)
        before = ops.conv_bn_relu_eval(x, w, b, gamma, beta, state).copy()
        for arr in (w, b, gamma, beta, state.running_mean, state.running_var):
            arr += 0.5
            after = ops.conv_bn_relu_eval(x, w, b, gamma, beta, state)
            ref = ad.relu(ops.batchnorm_eval(ops.conv1d(x, w, b), gamma, beta, state))
            assert not np.array_equal(after, before) and rel_err(after, ref) <= RTOL
            before = after.copy()


# ---------------------------------------------------------------------------
# Adam, over one flat arena per training run, with its bias corrections folded
# into the step size and eps. Per-dict copies of the folded update are the
# byte-for-byte references: folded_adam_reference (whole arrays, temporaries)
# and dict_adam_step with dict_train_steps (the per-array chunked step and the
# epoch loop that called it). The textbook formulas the fold replaced,
# adam_reference (whole arrays, temporaries) and old_adam_step (whole arrays
# through scratch rows), are held within rounding_bound. All keep their moments
# per parameter name in DictAdamState.

@dataclass
class DictAdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # two work rows of ADAM_CHUNK entries, reused by every update
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, train.ADAM_CHUNK)), init=False, repr=False,
                                compare=False)

    @classmethod
    def for_config(cls, config: train.TrainConfig) -> "DictAdamState":
        return cls(lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)


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


def folded_adam_reference(params, grads, state):
    state.step += 1
    t = state.step
    c2 = np.sqrt(1.0 - state.beta2**t)
    step, eps_hat = state.lr * c2 / (1.0 - state.beta1**t), state.eps * c2
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= m / (np.sqrt(v) + eps_hat) * step


EPS = np.finfo(np.float64).eps


def rounding_bound(before: np.ndarray, after: np.ndarray) -> float:
    """How far one folded update may land from the textbook one, flat parameters
    ``before`` and ``after`` the textbook step. The moments are bit-identical, so
    only the update a differs: the textbook chain rounds it up to 5.5 unit
    roundoffs (u = EPS/2) from the exact value, the folded one up to 8 with its
    scalars, so 14u = 7 EPS of |a| at most (8 taken); p - a may then round to
    the neighbouring float, one ulp of p. Nothing feeds back, so steps add up."""
    return float(8 * EPS * np.abs(after - before).max() + np.spacing(max(np.abs(before).max(), np.abs(after).max())))


def old_adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.step += 1
    t = state.step
    need = max((p.size for p in params.values()), default=0)
    if state.scratch.shape[1] < need:
        state.scratch = np.empty((2, need))
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
        a = state.scratch[0, :p.size].reshape(p.shape)
        b = state.scratch[1, :p.size].reshape(p.shape)
        # p -= lr * m_hat / (sqrt(v_hat) + eps), one ufunc at a time through the scratch rows
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1.0 - state.beta1**t, out=a)
        a *= state.lr
        np.divide(v, 1.0 - state.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        p -= np.divide(a, b, out=a)
    return state


def dict_adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays, which
    must be C-contiguous: each is updated through a flat view of itself."""
    state.step += 1
    t = state.step
    c2 = np.sqrt(1.0 - state.beta2**t)
    step, eps_hat = state.lr * c2 / (1.0 - state.beta1**t), state.eps * c2
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if not _all_finite(g):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        arrays = (p, state.m[name], state.v[name])
        if not all(arr.flags.c_contiguous for arr in arrays):
            raise ValueError(f"parameter {name!r} is not C-contiguous; its update would land in a copy")
        # reshape of a C-contiguous array is a view
        flat_p, flat_m, flat_v = (arr.reshape(-1) for arr in arrays)
        flat_g = g.reshape(-1)
        for s in range(0, p.size, ADAM_CHUNK):
            p1, g1, m, v = (arr[s:s + ADAM_CHUNK] for arr in (flat_p, flat_g, flat_m, flat_v))
            a, b = state.scratch[0, :p1.size], state.scratch[1, :p1.size]
            # p -= step * m / (sqrt(v) + eps_hat), one ufunc at a time through the scratch rows
            m *= state.beta1
            m += np.multiply(g1, 1.0 - state.beta1, out=a)
            v *= state.beta2
            np.multiply(g1, 1.0 - state.beta2, out=a)
            v += np.multiply(a, g1, out=a)
            np.sqrt(v, out=b)
            b += eps_hat
            np.divide(m, b, out=a)
            a *= step
            p1 -= a
    return state


def dict_train_steps(model, dataset, train_idx, config) -> list[float]:
    """The epoch loop around dict_adam_step, without its finiteness checks and
    evaluation: the losses it returns and the model it updates are the pins."""
    rng = np.random.default_rng(config.seed)
    adam = DictAdamState.for_config(config)
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx) if config.shuffle else train_idx
        epoch_loss = 0.0
        for sl in train._batch_plan(len(order), config.batch_size):
            batch = order[sl]
            tape = ad.Tape()
            pvars = {k: tape.variable(v) for k, v in model.params.items()}
            logits = model.forward(train._model_inputs(model, dataset, batch), pvars)
            loss = ops.softmax_crossentropy(logits, dataset.labels[batch])
            lval = float(loss.value)
            ad.backward(tape, loss)
            grads = {k: ad.grad_of(v) for k, v in pvars.items()}
            tape.nodes.clear()
            dict_adam_step(model.params, grads, adam)
            epoch_loss += lval * len(batch)
        losses.append(epoch_loss / len(order))
    return losses


def zero_adam(size: int, lr: float = 0.001) -> AdamState:
    return AdamState.for_config(train.TrainConfig(lr=lr), size)


def flatten(params: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A copy of the arrays laid end to end, in order, and named views of it:
    the layout _train gives the parameters."""
    flat = np.concatenate([np.ravel(p) for p in params.values()])
    return flat, train._views(flat, {k: np.asarray(p) for k, p in params.items()})


def dense_grads(grads: dict[str, np.ndarray], params: dict[str, np.ndarray]) -> np.ndarray:
    """A flat gradient for ``params`` from a dict that may leave some out (read as zeros)."""
    return flatten({k: grads.get(k, np.zeros_like(p)) for k, p in params.items()})[0]


PF3_FULL = {"type": "fused", "profile": "full",
            "fusion": {"kind": "PF", "order": 3, "rank": 16, "symmetric": True, "output_dim": 128}}
TF_DESK = {"type": "fused", "profile": "desk", "fusion": {"kind": "TF", "rank": 16, "output_dim": 16}}


def assert_folded_and_textbook_updates(params, steps, draw_grads, textbook_step):
    """``adam_step`` over ``steps`` steps on the flattened ``params``: byte for byte
    the per-dict folded update; within rounding_bound of ``textbook_step``, with
    bit-identical moments."""
    folded, textbook = copy.deepcopy(params), copy.deepcopy(params)
    flat, named = flatten(params)
    state = zero_adam(flat.size, lr=0.01)
    folded_state, textbook_state = DictAdamState(lr=0.01), DictAdamState(lr=0.01)
    bound = 0.0
    for _ in range(steps):
        grads = draw_grads()
        adam_step(flat, dense_grads(grads, params), state, named)
        folded_adam_reference(folded, grads, folded_state)
        before = flatten(textbook)[0]
        textbook_step(textbook, grads, textbook_state)
        bound += rounding_bound(before, flatten(textbook)[0])
    assert state.step == folded_state.step == textbook_state.step == steps
    for ref in (folded_state, textbook_state):
        assert np.array_equal(state.m, flatten(ref.m)[0]) and np.array_equal(state.v, flatten(ref.v)[0])
    assert np.array_equal(flat, flatten(folded)[0])
    drift = np.abs(flat - flatten(textbook)[0]).max()
    assert drift <= bound, (drift, bound)


class TestAdam:
    def test_bit_identical_over_steps(self):
        rng = np.random.default_rng(5)
        shapes = {"conv.w": (6, 3, 5), "bias": (6,), "scalar": (), "head.w": (4, 2), "frozen": (3,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        assert_folded_and_textbook_updates(
            params, 5, lambda: {k: rng.normal(size=s) for k, s in shapes.items() if k != "frozen"}, adam_reference)

    def test_full_model_step_makes_no_arena_sized_temporary(self):
        # the arena is 11 MiB; even a boolean mask of it would be 1.4 MiB
        import tracemalloc

        flat, named = flatten(models.build_from_spec(PF3_FULL, seed=1).params)
        grads, state = np.random.default_rng(2).normal(size=flat.size), zero_adam(flat.size)
        tracemalloc.start()
        try:
            adam_step(flat, grads, state, named)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.step == 1 and peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_non_finite_gradient_raises(self):
        flat, named = flatten({"a": np.ones(4), "b": np.ones(2)})
        with pytest.raises(FloatingPointError, match="'b'"):
            adam_step(flat, np.array([1.0, 1.0, 1.0, 1.0, 1.0, np.inf]), zero_adam(flat.size), named)

    def test_chunked_bit_identical_to_whole_array_update_on_full_model(self):
        # 1,429,534 entries in 76 arrays, the largest far over one chunk
        params = models.build_from_spec(PF3_FULL, seed=3).params
        assert max(p.size for p in params.values()) > 4 * train.ADAM_CHUNK
        rng = np.random.default_rng(6)
        assert_folded_and_textbook_updates(
            params, 5, lambda: {k: rng.normal(size=p.shape) for k, p in params.items() if k != "eeg.bn2.beta"},
            old_adam_step)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_in_a_later_chunk_raises(self, bad):
        size = 3 * train.ADAM_CHUNK + 5
        flat, named = flatten({"a": np.ones(4), "big": np.ones(size)})
        g = np.ones(flat.size)
        g[-2] = bad
        before = flat.copy()
        with pytest.raises(FloatingPointError, match="'big'"):
            adam_step(flat, g, zero_adam(flat.size), named)
        assert np.array_equal(flat, before)

    def test_finite_gradient_whose_sum_overflows_is_accepted(self):
        flat, named = flatten({"a": np.ones(4)})
        g = np.full(4, 1e308)
        with np.errstate(over="ignore"):
            assert not np.isfinite(g.sum())
            state = adam_step(flat, g, zero_adam(flat.size), named)
        assert state.step == 1 and np.all(np.isfinite(flat))

    @pytest.mark.parametrize("params, grads, named", [
        (np.ones(4), np.ones(4), {"a": np.ones(3)}),
        (np.ones(4), np.ones(3), {"a": np.ones(4)}),
        (np.ones((2, 2)), np.ones((2, 2)), {"a": np.ones(4)}),
    ], ids=["named-short", "grads-short", "not-flat"])
    def test_mismatched_layout_is_refused(self, params, grads, named):
        before = params.copy()
        with pytest.raises(ValueError, match="flat parameters"):
            adam_step(params, grads, zero_adam(params.size), named)
        assert np.array_equal(params, before)

    def test_moments_of_another_length_are_refused(self):
        flat, named = flatten({"a": np.ones(4)})
        for state in (zero_adam(3), AdamState(np.zeros(4), np.zeros(5), train.TrainConfig())):
            with pytest.raises(ValueError, match="moments"):
                adam_step(flat, np.ones(4), state, named)
        assert np.array_equal(flat, np.ones(4))

    def test_fortran_ordered_parameter_trains_like_c_ordered(self):
        # the arena copies each parameter in C order, so memory layout cannot reach the update
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=8, noise=0.1), seed=1)
        config = train.TrainConfig(epochs=2, batch_size=4)
        c_model, f_model = (models.build_from_spec(TF_DESK, seed=2) for _ in range(2))
        f_model.params = {k: np.asfortranarray(v) for k, v in f_model.params.items()}
        assert not f_model.params["eeg.conv0.w"].flags.c_contiguous
        split = (np.arange(len(ds)), np.arange(0))
        reports = [train.train(m, ds, split, config) for m in (c_model, f_model)]
        assert reports[0].losses == reports[1].losses
        for k, p in c_model.params.items():
            assert p.tobytes() == f_model.params[k].tobytes(), k

    def test_built_and_loaded_parameters_are_c_contiguous(self, tmp_path):
        model = models.build_from_spec(PF3_FULL, seed=0)
        models.save_model(model, tmp_path / "ckpt")
        for params in (model.params, models.load_model(tmp_path / "ckpt").params):
            assert all(p.flags.c_contiguous for p in params.values())


class TestArenaTrainingLoop:
    """train.train against dict_train_steps: two steps, byte for byte."""

    @pytest.mark.parametrize("spec, batch", [(TF_DESK, 8), (PF3_FULL, 16)], ids=["desk-tf", "full-pf3"])
    def test_two_steps_match_the_per_dict_loop(self, spec, batch):
        ds = data.synth_dataset(data.SynthSpec("interaction", n_trials=2 * batch, noise=0.1), seed=4)
        config = train.TrainConfig(epochs=1, batch_size=batch, seed=7)
        train_idx = np.arange(len(ds))
        assert len(train._batch_plan(len(train_idx), batch)) == 2
        model, ref = (models.build_from_spec(spec, seed=5) for _ in range(2))
        report = train.train(model, ds, (train_idx, np.arange(0)), config)
        assert report.losses == dict_train_steps(ref, ds, train_idx, config)
        assert list(model.params) == list(ref.params)
        for k, p in model.params.items():
            assert p.tobytes() == ref.params[k].tobytes(), k
        for k, st in model.state.items():
            assert st.running_mean.tobytes() == ref.state[k].running_mean.tobytes(), k
            assert st.running_var.tobytes() == ref.state[k].running_var.tobytes(), k

    def test_every_gradient_entry_is_written_each_step(self, monkeypatch):
        # the flat gradient is made uninitialized: poison it, and a skipped entry (say, a conv
        # bias, which no gradient reaches) would reach Adam as NaN instead of zero
        real_empty_like = np.empty_like
        monkeypatch.setattr(train.np, "empty_like", lambda a, *args, **kw: real_empty_like(a, *args, **kw) * np.nan)
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=12, noise=0.1), seed=2)
        model = models.build_from_spec(TF_DESK, seed=6)
        biases = {k: p.copy() for k, p in model.params.items() if ".conv" in k and k.endswith(".b")}
        train.train(model, ds, (np.arange(len(ds)), np.arange(0)), train.TrainConfig(epochs=2, batch_size=4))
        assert len(biases) == 18
        for k, b in biases.items():  # zero gradient, zero moments: Adam leaves them exactly
            assert np.array_equal(model.params[k], b), k

    @staticmethod
    def _stepped_arena():
        """A full PF3 arena after one Adam step, so that m and v are not zero."""
        flat, named = flatten(models.build_from_spec(PF3_FULL, seed=1).params)
        state = adam_step(flat, np.random.default_rng(2).normal(size=flat.size), zero_adam(flat.size), named)
        return flat, named, state, np.cumsum([p.size for p in named.values()])

    def test_non_finite_entry_in_a_middle_parameter(self):
        flat, named, state, ends = self._stepped_arena()
        i = len(named) // 2
        name = list(named)[i]
        self._assert_refused(flat, named, state, int(ends[i]) - named[name].size // 2 - 1, name)

    @pytest.mark.parametrize("side", [-1, 0], ids=["before-boundary", "after-boundary"])
    def test_non_finite_entry_in_a_chunk_straddling_two_parameters(self, side):
        flat, named, state, ends = self._stepped_arena()
        # a boundary between two parameters inside one chunk, away from the chunk's ends
        i = next(i for i, e in enumerate(ends[:-1]) if 2 <= e % train.ADAM_CHUNK <= train.ADAM_CHUNK - 2)
        bad = int(ends[i]) + side
        self._assert_refused(flat, named, state, bad, list(named)[i + 1 + side])

    @staticmethod
    def _assert_refused(flat, named, state, bad, name):
        g = np.random.default_rng(3).normal(size=flat.size)
        g[bad] = np.nan
        before = [a.copy() for a in (flat, state.m, state.v)]
        with pytest.raises(FloatingPointError, match=f"parameter {name!r} at step 2"):
            adam_step(flat, g, state, named)
        assert state.step == 1
        for got, want in zip((flat, state.m, state.v), before):
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# .ten loader: one read into the returned array, against the bytes-then-copy
# path it replaced (copied verbatim, renamed old_tensor_from_bytes)

def old_tensor_from_bytes(raw: bytes) -> np.ndarray:
    """Inverse of :func:`tensor_to_bytes`."""
    if len(raw) < 4:
        raise tc.ShapeError("tensor payload too short for header")
    (order,) = struct.unpack_from(tc.MAGIC_HEADER_ORDER, raw, 0)
    offset = 4
    shape = []
    for _ in range(order):
        if offset + 8 > len(raw):
            raise tc.ShapeError("tensor payload truncated in dimension list")
        (d,) = struct.unpack_from(tc.MAGIC_HEADER_DIM, raw, offset)
        shape.append(int(d))
        offset += 8
    count = math.prod(shape)  # Python ints: dims whose product overflows int64 must fail the length check
    expected = offset + 8 * count
    if len(raw) != expected:
        raise tc.ShapeError(f"tensor payload has {len(raw)} bytes, expected {expected} for shape {tuple(shape)}")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return data.astype(np.float64).reshape(shape)


def old_load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return old_tensor_from_bytes(fh.read())


def _outcome(load, path):
    """The array a loader returns, or the ShapeError message it raises."""
    try:
        return load(path)
    except tc.ShapeError as exc:
        return str(exc)


def _check_same_outcome(path):
    """``load_tensor``, read and mapped, gives the old loader's array or its
    error; the mapped array is the read-only one."""
    old = _outcome(old_load_tensor, path)
    for mapped in (False, True):
        new = _outcome(lambda p: tc.load_tensor(p, mapped=mapped), path)
        if isinstance(old, str):
            assert new == old
            continue
        assert isinstance(new, np.ndarray) and new.dtype == np.float64
        assert new.shape == old.shape and np.array_equal(new, old, equal_nan=True)
        assert new.flags["C_CONTIGUOUS"] and new.flags["WRITEABLE"] != mapped


def _header(*dims):
    return struct.pack("<I", len(dims)) + b"".join(struct.pack("<Q", d) for d in dims)


BAD_FILES = {
    "empty": b"",
    "short-header": b"\x01\x00",
    "truncated-dims": _header(3, 4)[:10],
    "truncated-payload": _header(2, 2) + b"\x00" * 24,
    "padded": _header(2, 2) + b"\x00" * 40,
    "order-0-no-payload": _header(),
    "order-99": struct.pack("<I", 99) + b"\x00" * 64,
    "zero-dim-with-payload": _header(0, 3) + b"\x00" * 8,
    "overflowing-dims": _header(2**32, 2**32),
}


class TestLoadTensor:
    @pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (7,), (2, 3, 4), (5, 30, 600)],
                             ids=["0d", "zero-size", "zero-size-3d", "1d", "3d", "segments"])
    def test_matches_old_loader(self, tmp_path, shape):
        path = tmp_path / "t.ten"
        tc.save_tensor(path, np.random.default_rng(1).normal(size=shape))
        _check_same_outcome(path)

    @pytest.mark.parametrize("raw", BAD_FILES.values(), ids=list(BAD_FILES))
    def test_bad_files_same_error(self, tmp_path, raw):
        path = tmp_path / "t.ten"
        path.write_bytes(raw)
        for mapped in (False, True):
            with pytest.raises(tc.ShapeError):
                tc.load_tensor(path, mapped=mapped)
        _check_same_outcome(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_shape_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("ten") / "t.ten"
        path.write_bytes(raw)
        _check_same_outcome(path)

    @settings(max_examples=200, deadline=None)
    @given(dims=st.lists(st.integers(0, 4), max_size=4), extra=st.integers(-16, 16), fill=st.binary(max_size=1))
    def test_near_valid_files_match_old_loader(self, tmp_path_factory, dims, extra, fill):
        # a well-formed header with a payload a few bytes off its length, or exact
        length = max(8 * math.prod(dims) + extra, 0)
        path = tmp_path_factory.mktemp("ten") / "t.ten"
        path.write_bytes(_header(*dims) + (fill or b"\x3f") * length)
        _check_same_outcome(path)


# ---------------------------------------------------------------------------
# one model constructor: build_from_spec draws by walking param_shapes, against
# the per-shape constructors it replaced (ModelGraph.single_modal / fused,
# _init_extractor, _init_linear, make_fusion_spec and init_fusion_params,
# copied verbatim as old_*)

def old_init_fusion_params(spec: FusionSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    a, b, c = spec.input_dims
    d, o, r = spec.concat_dim, spec.output_dim, spec.rank
    if spec.path == "full":
        spec.check_materializable()
    if spec.kind == "LF":
        s = (1.0 / d) ** 0.5
        return {"w": rng.uniform(-s, s, size=(d, o))}
    if spec.kind == "TF":
        if spec.path == "full":
            s = (1.0 / (a * b * c)) ** 0.5
            return {"w_full": rng.uniform(-s, s, size=(a, b, c, o))}
        params = {}
        for name, dim in (("factor1", a), ("factor2", b), ("factor3", c)):
            s = (1.0 / dim) ** (1.0 / 3.0)
            params[name] = rng.uniform(-s, s, size=(dim, r, o))
        params["mix"] = np.full(r, 1.0 / r)
        return params
    p = spec.order
    if spec.path == "full":
        s = (1.0 / d) ** (p / 2.0)
        return {"w_full": rng.uniform(-s, s, size=(d,) * p + (o,))}
    s = (1.0 / d) ** (1.0 / p)
    if spec.symmetric:
        return {"factor": rng.uniform(-s, s, size=(d, r, o)), "mix": np.full(r, 1.0 / r)}
    params = {f"factor{k}": rng.uniform(-s, s, size=(d, r, o)) for k in range(1, p + 1)}
    params["mix"] = np.full(r, 1.0 / r)
    return params


def old_make_fusion_spec(fusion: dict, plans: dict) -> FusionSpec:
    return FusionSpec(input_dims=tuple(models.feature_length(plans[m]) for m in models.MODALITIES), **fusion)


def _old_init_extractor(name: str, plan: dict, rng, params, state):
    in_ch = plan["in_channels"]
    for i, blk in enumerate(plan["blocks"]):
        oc, f = blk["out_channels"], blk["filter"]
        bound = (1.0 / (in_ch * f)) ** 0.5
        params[f"{name}.conv{i}.w"] = rng.uniform(-bound, bound, size=(oc, in_ch, f))
        params[f"{name}.conv{i}.b"] = rng.uniform(-bound, bound, size=oc)
        params[f"{name}.bn{i}.gamma"] = np.ones(oc)
        params[f"{name}.bn{i}.beta"] = np.zeros(oc)
        state[f"{name}.bn{i}"] = ops.BatchNormState.fresh(oc)
        in_ch = oc


def _old_init_linear(name: str, d_in: int, d_out: int, rng, params):
    bound = (1.0 / d_in) ** 0.5
    params[f"{name}.w"] = rng.uniform(-bound, bound, size=(d_in, d_out))
    params[f"{name}.b"] = rng.uniform(-bound, bound, size=d_out)


def old_single_modal(modality: str, profile: str = "full", seed: int = 0, plan: dict | None = None):
    plan = plan if plan is not None else models.extractor_plan(modality, profile)
    rng = np.random.default_rng(seed)
    params, state = {}, {}
    _old_init_extractor(modality, plan, rng, params, state)
    feat = models.feature_length(plan)
    hidden = max(feat // 2, 1)
    _old_init_linear("head1", feat, hidden, rng, params)
    _old_init_linear("head2", hidden, models.N_CLASSES, rng, params)
    topology = {
        "type": "single", "modality": modality, "profile": profile,
        "extractors": {modality: plan}, "head": {"dims": [feat, hidden, models.N_CLASSES]},
        "fusion": None, "l2_normalize": False, "seed": seed,
    }
    return topology, params, state


def old_fused(fusion: dict, profile: str = "full", seed: int = 0,
              l2_normalize: bool | None = None, plans: dict | None = None):
    rng = np.random.default_rng(seed)
    params, state = {}, {}
    plans = plans if plans is not None else models.extractor_plans(profile)
    fusion_spec = old_make_fusion_spec(fusion, plans)
    for m in models.MODALITIES:
        _old_init_extractor(m, plans[m], rng, params, state)
    for pname, arr in old_init_fusion_params(fusion_spec, rng).items():
        params[f"fusion.{pname}"] = arr
    if l2_normalize is None:
        l2_normalize = fusion_spec.kind in ("TF", "PF")
    _old_init_linear("head", fusion_spec.output_dim, models.N_CLASSES, rng, params)
    topology = {
        "type": "fused", "modality": None, "profile": profile,
        "extractors": plans, "head": {"dims": [fusion_spec.output_dim, models.N_CLASSES]},
        "fusion": fusion_spec.to_dict(), "l2_normalize": bool(l2_normalize), "seed": seed,
    }
    return topology, params, state


FUSION_CASES = {
    "LF": {"kind": "LF", "output_dim": 16},
    "TF": {"kind": "TF", "output_dim": 16, "rank": 4},
    "TF-full": {"kind": "TF", "output_dim": 4, "path": "full"},
    "PF3-sym": {"kind": "PF", "output_dim": 16, "rank": 16, "order": 3, "symmetric": True},
    "PF3": {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3},
    "PF2-full": {"kind": "PF", "output_dim": 4, "order": 2, "path": "full"},
    "PF2-aug": {"kind": "PF", "output_dim": 8, "rank": 4, "order": 2, "augment_one": True},
    "LF-l2": {"kind": "LF", "output_dim": 8},
}


def _model_cases():
    cases = []
    for profile in ("desk", "full"):
        for m in models.MODALITIES:
            cases.append(pytest.param({"type": "single", "modality": m, "profile": profile}, None, 0,
                                      id=f"{profile}-{m}"))
        for name, fusion_doc in FUSION_CASES.items():
            spec = {"type": "fused", "profile": profile, "fusion": fusion_doc}
            if name == "LF-l2":
                spec["l2_normalize"] = True
            if profile == "full" and name == "PF2-full":
                spec["fusion"] = {**fusion_doc, "output_dim": 32}  # 408**2 x 32 stays under the guard
            cases.append(pytest.param(spec, None, 3, id=f"{profile}-{name}"))
    for seed in (1, 2):
        for m in models.MODALITIES:
            cases.append(pytest.param({"type": "single", "modality": m}, models.TINY_PLANS, seed,
                                      id=f"tiny-{m}-seed{seed}"))
        for name, fusion_doc in FUSION_CASES.items():
            cases.append(pytest.param({"type": "fused", "fusion": fusion_doc}, models.TINY_PLANS, seed,
                                      id=f"tiny-{name}-seed{seed}"))
    return cases


def _old_build(spec, plans, seed):
    profile = spec.get("profile", "full")
    if spec["type"] == "single":
        plan = plans[spec["modality"]] if plans is not None else None
        return old_single_modal(spec["modality"], profile=profile, seed=seed, plan=plan)
    return old_fused(spec["fusion"], profile=profile, seed=seed,
                     l2_normalize=spec.get("l2_normalize"), plans=plans)


class TestBuildFromSpec:
    @pytest.mark.parametrize("spec, plans, seed", _model_cases())
    def test_bit_identical_to_old_constructors(self, spec, plans, seed):
        topology, params, state = _old_build(spec, plans, seed)
        model = models.build_from_spec(spec, seed=seed, plans=plans)
        assert model.topology == topology
        assert list(model.params) == list(params)
        for name, arr in params.items():
            assert model.params[name].dtype == arr.dtype and np.array_equal(model.params[name], arr), name
        assert list(model.state) == list(state)
        for name, st_old in state.items():
            st_new = model.state[name]
            assert np.array_equal(st_new.running_mean, st_old.running_mean), name
            assert np.array_equal(st_new.running_var, st_old.running_var), name
            assert (st_new.eps, st_new.momentum) == (st_old.eps, st_old.momentum), name
        assert model.param_count() == sum(v.size for v in params.values())
        assert model.fusion_param_count() == sum(v.size for k, v in params.items() if k.startswith("fusion."))

    @pytest.mark.parametrize("name", [n for n in FUSION_CASES if n != "LF-l2"])
    def test_init_fusion_params_matches_old(self, name):
        for dims in ((5, 4, 6), (20, 24, 24), (1, 1, 1)):
            spec = FusionSpec(input_dims=dims, **FUSION_CASES[name])
            new = fusion.init_fusion_params(spec, np.random.default_rng(9))
            old = old_init_fusion_params(spec, np.random.default_rng(9))
            assert list(new) == list(old)
            for k in old:
                assert np.array_equal(new[k], old[k]), k
